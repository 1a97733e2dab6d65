"""Correctness checks on pottsim's outputs, recomputed from the benchmark's
own edge lists and baselines. Each check raises CheckError on a bad output.

The checks read results by attribute (coloring, partition, cut_accuracy,
coloring_accuracy, unlocked_stages), so they run on any object with those
fields, which is how test_checks.py corrupts outputs on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Accuracies are ratios of small integers; a recomputation in another order
# may differ in the last bit but never by more than this.
TOL = 1e-12


class CheckError(Exception):
    """An output of the program disagrees with the benchmark's reference."""


@dataclass
class GraphOutput:
    """What one round's operations on one graph gave back."""

    results: list | None = None  # None: run_batch raised
    stats: object = None
    oracle_asked: bool = False
    oracle_raised: bool = False
    witness: list | None = None  # exact_coloring's answer, None included


class GraphRef:
    """The benchmark's own view of one input graph."""

    def __init__(self, n: int, edges, baseline_cut: float, exact_baseline: bool):
        self.n = n
        self.ei = np.array([e[0] for e in edges], dtype=np.int64)
        self.ej = np.array([e[1] for e in edges], dtype=np.int64)
        self.baseline_cut = float(baseline_cut)
        self.exact_baseline = exact_baseline

    @classmethod
    def from_spec(cls, g: dict) -> "GraphRef":
        return cls(g["n"], g["edges"], g["baseline_cut"], g["exact_baseline"])

    def differ(self, labels) -> np.ndarray:
        """Per edge: do the endpoints carry different labels?"""
        return labels[self.ei] != labels[self.ej]


def check_labels(values, n: int, k: int, what: str) -> np.ndarray:
    """values has n integer entries in 0..k-1; returns it as an array."""
    arr = np.asarray(values)
    if arr.shape != (n,):
        raise CheckError(f"{what}: expected {n} entries, got shape {arr.shape}")
    if arr.dtype.kind not in "iu" or (n and (arr.min() < 0 or arr.max() >= k)):
        raise CheckError(f"{what}: entries must be integers in 0..{k - 1}")
    return arr


def check_graph(graph, ref: GraphRef) -> None:
    """The graph pottsim loaded is the one the benchmark wrote."""
    got = set(zip(graph.ei.tolist(), graph.ej.tolist()))
    want = set(zip(ref.ei.tolist(), ref.ej.tolist()))
    if graph.n != ref.n or got != want or not np.all(graph.w == 1.0):
        raise CheckError(f"loaded graph differs from the written one (n={ref.n})")


def check_solve(result, ref: GraphRef, colors: int) -> None:
    """One solve: label ranges, both accuracies, and the stage-1 parity rule."""
    coloring = check_labels(result.coloring, ref.n, colors, "coloring")
    partition = check_labels(result.partition, ref.n, 2, "partition")
    m = len(ref.ei)
    acc = np.count_nonzero(ref.differ(coloring)) / m if m else 1.0
    if abs(acc - result.coloring_accuracy) > TOL:
        raise CheckError(
            f"coloring_accuracy {result.coloring_accuracy!r} != recomputed {acc!r}")
    cut = np.count_nonzero(ref.differ(partition))
    cut_acc = cut / ref.baseline_cut if ref.baseline_cut > 0 else 1.0
    if abs(cut_acc - result.cut_accuracy) > TOL:
        raise CheckError(
            f"cut_accuracy {result.cut_accuracy!r} != recomputed {cut}/{ref.baseline_cut:g}")
    if ref.exact_baseline and result.cut_accuracy > 1.0 + TOL:
        raise CheckError(f"cut_accuracy {result.cut_accuracy!r} exceeds the exact max-cut")
    if not result.unlocked_stages and not np.array_equal(coloring % 2, partition):
        raise CheckError("all stages locked but coloring % 2 != partition")


def check_stats(stats, results) -> None:
    """aggregate() summarised exactly the batch it was given."""
    acc = [r.coloring_accuracy for r in results]
    if len(stats.per_iteration) != len(results):
        raise CheckError("stats cover a different number of iterations")
    if abs(stats.best_accuracy - max(acc)) > TOL or abs(stats.mean_accuracy - np.mean(acc)) > TOL:
        raise CheckError("stats best/mean accuracy disagree with the results")


def check_witness(witness, ref: GraphRef, colors: int) -> None:
    """An exact_coloring witness is a proper coloring with at most `colors` colors."""
    if witness is None:
        raise CheckError(f"no {colors}-coloring found for a planar graph")
    coloring = check_labels(witness, ref.n, colors, "witness")
    if not np.all(ref.differ(coloring)):
        raise CheckError("witness is not a proper coloring")


def check_some_proper(results, ref: GraphRef) -> None:
    """At least one solve of the batch is a proper coloring."""
    if not any(np.all(ref.differ(np.asarray(r.coloring))) for r in results):
        raise CheckError("no solve in the batch gave a proper coloring")


def check_outputs(outputs, refs, colors: int, iterations: int, require_proper: bool) -> None:
    """Every output that an operation returned, against the graph it came from.

    Operations that raised are counted as failed by the caller and have no
    output to check; every exact_coloring answer that came back is checked,
    so a None on a planar graph is an error.
    """
    for out, ref in zip(outputs, refs):
        if out.results is not None:
            if len(out.results) != iterations:
                raise CheckError(f"run_batch gave {len(out.results)} solves, not {iterations}")
            for r in out.results:
                check_solve(r, ref, colors)
            check_stats(out.stats, out.results)
            if require_proper:
                check_some_proper(out.results, ref)
        if out.oracle_asked and not out.oracle_raised:
            check_witness(out.witness, ref, colors)


def fingerprint(out: GraphOutput) -> list:
    """What must repeat exactly between rounds and between timed and traced runs."""
    rows = None if out.results is None else [
        (np.asarray(r.coloring).tolist(), np.asarray(r.partition).tolist(),
         r.coloring_accuracy, r.cut_accuracy, list(r.unlocked_stages)) for r in out.results]
    witness = None if out.witness is None else list(out.witness)
    return [rows, out.oracle_asked, out.oracle_raised, witness]


def check_identical(first, other, what: str) -> None:
    if first != other:
        raise CheckError(f"{what} gave other colorings than the first round")
