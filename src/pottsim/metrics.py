"""Solution-quality metrics and multi-iteration statistics.

Accuracy is the fraction of edges whose endpoints got different colors
(|E|-normalized, so a proper coloring scores 1.0). Batch statistics cover
best/mean accuracy, the pairwise Hamming matrix of the colorings, and the
Pearson and Spearman correlations between first-stage cut quality and final
coloring quality, computed with numpy alone.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph
from .oracle import cut_baseline_kind
from .validate import count, integers, is_integer, real, shaped

__all__ = [
    "SolveResult",
    "RunStats",
    "coloring_accuracy",
    "cut_accuracy",
    "cut_value",
    "hamming",
    "hamming_min_rotation",
    "aggregate",
]


def coloring_accuracy(graph: Graph, coloring) -> float:
    """Fraction of edges with differently colored endpoints; 1.0 if no edges."""
    coloring = integers("coloring", coloring, (graph.n,))
    if graph.edge_count == 0:
        return 1.0
    good = np.count_nonzero(coloring[graph.ei] != coloring[graph.ej])
    return good / graph.edge_count


def cut_value(graph: Graph, partition) -> float:
    """Total weight of edges crossing the 0/1 partition, by Graph.cut_sums."""
    partition = shaped("partition", partition, (graph.n,))
    if not np.isin(partition, (0, 1)).all():
        raise ValueError("partition must hold only the labels 0 and 1")
    return float(graph.cut_sums(partition))


def cut_accuracy(graph: Graph, partition, baseline_cut: float) -> float:
    """Achieved cut weight over the baseline cut; 1.0 if no edges.

    At most 1.0 against an "exact" or "upper-bound" baseline, and exactly
    1.0 at a maximum cut: all sum in one edge order (Graph.cut_sums). Can
    exceed 1.0 when the baseline is merely best-known; reported as-is.
    The partition is checked as cut_value checks it, edgeless graph included.
    """
    cut = cut_value(graph, partition)
    if graph.edge_count == 0:
        return 1.0  # any partition of an edgeless graph is optimal
    real("baseline cut", baseline_cut, positive=True, finite=False)
    return cut / baseline_cut


def hamming(c1, c2) -> int:
    """Number of positions where the two integer colorings differ."""
    c1 = integers("c1", c1, np.shape(c1))
    c2 = integers("c2", c2, c1.shape)
    return int(np.count_nonzero(c1 != c2))


def hamming_min_rotation(c1, c2, k: int) -> int:
    """Hamming distance minimized over the k cyclic color rotations of c2."""
    count("k", k, 1)
    # checked before the rotation, which would turn bool labels into integers
    c2 = integers("c2", c2, np.shape(c1))
    return min(hamming(c1, (c2 + r) % k) for r in range(k))


@dataclass
class SolveResult:
    """Outcome of one solve: stage-1 partition, final coloring, accuracies."""

    seed: int
    partition: np.ndarray
    coloring: np.ndarray
    cut_accuracy: float
    coloring_accuracy: float
    wall_time: float
    unlocked_stages: list[int] = field(default_factory=list)

    SCHEMA_VERSION = 1

    def to_dict(self) -> dict:
        """The result file's fields; wall_time is left out, so that repeated
        runs write byte-identical files."""
        return {
            "schema_version": self.SCHEMA_VERSION,
            "seed": int(self.seed),
            "partition": self.partition.tolist(),
            "coloring": self.coloring.tolist(),
            "cut_accuracy": self.cut_accuracy,
            "coloring_accuracy": self.coloring_accuracy,
            "unlocked_stages": self.unlocked_stages,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SolveResult":
        """Inverse of to_dict; ValueError on another schema, a missing key
        or a value of the wrong type. Other keys are ignored, wall_time too:
        a loaded result's wall_time is 0.0."""
        if not isinstance(doc, dict):
            raise ValueError("a result must be a JSON object")
        if doc.get("schema_version") != cls.SCHEMA_VERSION:
            raise ValueError(
                f"schema_version {doc.get('schema_version')!r} is not {cls.SCHEMA_VERSION}"
            )
        required = ("seed", "partition", "coloring", "cut_accuracy", "coloring_accuracy")
        missing = [key for key in required if key not in doc]
        if missing:
            raise ValueError(f"missing result keys: {', '.join(missing)}")

        def is_int(value):
            return is_integer(type(value))

        def is_int_list(value):
            return isinstance(value, list) and all(map(is_int, value))

        def is_int64(value):
            return is_int(value) and -(2**63) <= value < 2**63

        def is_label_list(value):  # stored as int64
            return isinstance(value, list) and all(map(is_int64, value))

        def is_number(value):  # json.load reads NaN and Infinity as floats
            return is_int64(value) or (isinstance(value, float) and math.isfinite(value))

        kinds = {
            "seed": (is_int, "an integer"),
            "partition": (is_label_list, "a list of 64-bit integers"),
            "coloring": (is_label_list, "a list of 64-bit integers"),
            "cut_accuracy": (is_number, "a finite number"),
            "coloring_accuracy": (is_number, "a finite number"),
            "unlocked_stages": (is_int_list, "a list of integers"),
        }
        for key, (valid, kind) in kinds.items():
            if key in doc and not valid(doc[key]):
                raise ValueError(f"result key {key!r} must be {kind}")
        return cls(
            seed=doc["seed"],
            partition=np.asarray(doc["partition"], dtype=np.int64),
            coloring=np.asarray(doc["coloring"], dtype=np.int64),
            cut_accuracy=doc["cut_accuracy"],
            coloring_accuracy=doc["coloring_accuracy"],
            wall_time=0.0,
            unlocked_stages=list(doc.get("unlocked_stages", [])),
        )


@dataclass
class RunStats:
    """Aggregate statistics over a batch of iterations on one graph."""

    per_iteration: list  # (cut_accuracy, coloring_accuracy, seed)
    best_accuracy: float
    mean_accuracy: float
    hamming_matrix: np.ndarray
    stage_correlation: float
    correlation_degenerate: bool
    spearman_correlation: float
    cut_baseline_note: str

    SCHEMA_VERSION = 1

    def to_dict(self) -> dict:
        return {
            "schema_version": self.SCHEMA_VERSION,
            "per_iteration": [
                {"cut_accuracy": c, "coloring_accuracy": a, "seed": s}
                for c, a, s in self.per_iteration
            ],
            "best_accuracy": self.best_accuracy,
            "mean_accuracy": self.mean_accuracy,
            "hamming_matrix": self.hamming_matrix.tolist(),
            "stage_correlation": self.stage_correlation,
            "correlation_degenerate": self.correlation_degenerate,
            "spearman_correlation": self.spearman_correlation,
            "cut_baseline_note": self.cut_baseline_note,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def to_csv(self, path) -> None:
        """One row per iteration plus a trailing summary row."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "seed", "cut_accuracy", "coloring_accuracy"])
            for idx, (c, a, s) in enumerate(self.per_iteration):
                writer.writerow([idx, s, f"{c:.6f}", f"{a:.6f}"])
            writer.writerow(
                [
                    "summary",
                    "",
                    f"best={self.best_accuracy:.6f}",
                    f"mean={self.mean_accuracy:.6f}",
                ]
            )


def _ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    ordered = np.sort(values)
    left, right = np.searchsorted(ordered, values), np.searchsorted(ordered, values, "right")
    return (left + right + 1) / 2


def aggregate(results: list[SolveResult], graph: Graph) -> RunStats:
    """Fold per-iteration results on graph into RunStats.

    Correlation is Pearson between cut and coloring accuracy across
    iterations, and Spearman is Pearson on their average ranks; both come
    from np.corrcoef, and two iterations give exactly +-1. Fewer than two
    iterations or a constant series makes them undefined, reported as 0
    with the degenerate flag set.
    cut_baseline_note is oracle.cut_baseline_kind(graph), the kind of the
    normalizer that cut_baseline picks for this graph.
    """
    if not results:
        raise ValueError("need at least one result")
    for k, r in enumerate(results):
        shaped(f"results[{k}].coloring", r.coloring, (graph.n,))
    per_iteration = [(r.cut_accuracy, r.coloring_accuracy, r.seed) for r in results]
    col_acc = np.array([r.coloring_accuracy for r in results])
    cut_acc = np.array([r.cut_accuracy for r in results])

    m = len(results)
    colorings = np.stack([r.coloring for r in results])
    # one row at a time keeps memory at O(m * n), not an (m, m, n) array
    hamming_matrix = np.array(
        [np.count_nonzero(colorings != c, axis=1) for c in colorings], dtype=np.int64
    )

    degenerate = (
        m < 2 or np.all(cut_acc == cut_acc[0]) or np.all(col_acc == col_acc[0])
    )
    if degenerate:
        pearson, spearman = 0.0, 0.0
    elif m == 2:
        # two distinct points lie on a line; corrcoef can round +-1 away
        pearson = spearman = float(
            np.sign(cut_acc[1] - cut_acc[0]) * np.sign(col_acc[1] - col_acc[0])
        )
    else:
        pearson = float(np.corrcoef(cut_acc, col_acc)[0, 1])
        spearman = float(np.corrcoef(_ranks(cut_acc), _ranks(col_acc))[0, 1])

    return RunStats(
        per_iteration=per_iteration,
        best_accuracy=float(col_acc.max()),
        mean_accuracy=float(col_acc.mean()),
        hamming_matrix=hamming_matrix,
        stage_correlation=pearson,
        correlation_degenerate=bool(degenerate),
        spearman_correlation=spearman,
        cut_baseline_note=cut_baseline_kind(graph),
    )
