"""Weighted undirected graphs, King's-graph benchmark generation, and file I/O.

Edges are stored once each with i < j; weight 1.0 encodes the
anti-ferromagnetic "adjacent nodes must differ" constraint. Instances are
treated as immutable after construction and are safe to share across threads.

Each reader reads its file once. The DIMACS reader raises each fault where it
finds it, and the first bad line in file order wins; the constructor and the
JSON reader share one edge-row check, and the first bad row is named.
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence
from itertools import compress, repeat
from operator import itemgetter, length_hint
from typing import Iterable

import numpy as np

from .validate import count, is_integer, is_real, shaped

__all__ = [
    "Graph",
    "GraphFormatError",
    "kings_graph",
    "kings_side",
    "load_graph",
    "save_graph",
]

class GraphFormatError(ValueError):
    """Raised when a graph file fails to parse or violates edge invariants."""


class Graph:
    """Simple undirected graph with real edge weights.

    Edges are canonicalized to i < j at construction; self-loops and
    duplicates are rejected. n and the node ids must be integers (Python or
    numpy, not bool) and each weight a real number (`numbers.Real`, not
    bool).
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]]):
        self.n = _node_count("node count n", n)
        rows = list(edges)
        good, i, j, w = _columns(rows, (Sequence, np.ndarray), (3,))
        if not good.all():
            raise GraphFormatError(
                "an edge must be (i, j, w) with integer node ids (not bool) and a real"
                f" weight w, got {rows[int(good.argmin())]!r}"
            )
        self.ei, self.ej, self.w = _canonical_edges(self.n, _ids(i), _ids(j), _weights(w))

    @property
    def edge_count(self) -> int:
        return len(self.w)

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        return list(zip(self.ei.tolist(), self.ej.tolist(), self.w.tolist()))

    def degrees(self) -> np.ndarray:
        deg = np.bincount(self.ei, minlength=self.n)
        deg += np.bincount(self.ej, minlength=self.n)
        return deg

    def max_degree(self) -> int:
        if self.n == 0:
            return 0
        return int(self.degrees().max())

    def max_weighted_degree(self) -> float:
        """The largest sum_j |w_ij| over nodes i; max_degree() for unit weights."""
        if self.n == 0:
            return 0.0
        size = np.abs(self.w)
        deg = np.bincount(self.ei, weights=size, minlength=self.n)
        deg += np.bincount(self.ej, weights=size, minlength=self.n)
        return float(deg.max())

    def cut_sums(self, labels=None, weights=None) -> np.ndarray:
        """Cut weight of each row of labels (..., n): weights (shape (E,),
        default w) of the edges the row cuts, added in edge order from 0.0,
        in chunks of about 2^18 terms; labels None cuts every edge. The one
        cut sum of cut_value, the exact max-cut and the upper-bound
        normalizer: rounding is monotone, so no row outsums one whose terms
        are termwise larger."""
        w = self.w if weights is None else np.asarray(weights, dtype=np.float64)
        shaped("weights", w, self.w.shape)
        if labels is None:
            return np.add.accumulate(np.r_[0.0, w])[-1]
        labels = shaped("labels", labels, (..., self.n))
        sums = np.zeros(labels.shape[:-1])
        rows, flat = labels.reshape(sums.size, self.n), sums.reshape(-1)
        chunk = max(1, (1 << 18) // max(len(w), 1))
        for a in range(0, len(rows) if len(w) else 0, chunk):
            part = rows[a:a + chunk].T
            terms = np.where(part[self.ei] != part[self.ej], w[:, None], 0.0)
            # accumulate adds edge by edge, never in np.sum's pairwise tree
            flat[a:a + chunk] = np.add.accumulate(terms)[-1]
        return sums + 0.0  # from 0.0: a sum of -0.0 terms is 0.0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.ei, other.ei)
            and np.array_equal(self.ej, other.ej)
            and np.array_equal(self.w, other.w)
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _node_count(name: str, n) -> int:
    """n as an int, or a ValueError unless it is a count that int64 node ids can index."""
    count(name, n, 0)
    if n > 2**63 - 1:
        raise ValueError(f"{name} must be at most 2**63 - 1 (int64), got {n}")
    return int(n)


def _graph(n: int, edges: tuple[np.ndarray, np.ndarray, np.ndarray]) -> Graph:
    """A Graph on the (ei, ej, w) arrays that _canonical_edges returned."""
    graph = Graph.__new__(Graph)
    graph.n, (graph.ei, graph.ej, graph.w) = n, edges
    return graph


def _mask(keys: list, ok) -> np.ndarray:
    """ok(key) for each key, as a bool array; ok runs once per distinct key."""
    verdict = {key: ok(key) for key in set(keys)}
    return np.fromiter(map(verdict.__getitem__, keys), dtype=bool, count=len(keys))


def _columns(rows: list, kinds: tuple[type, ...], sizes: tuple[int, ...]) -> tuple:
    """The mask of rows (i, j, ..., w) that are instances of kinds but not
    bytes-like, whose length is in sizes, whose node ids are integers (not
    bool) and whose last item is a real number, and the columns i, j and last
    item of those rows."""
    good = _mask(list(map(type, rows)), lambda kind: issubclass(kind, kinds)
                 and not issubclass(kind, (bytes, bytearray, memoryview)))
    # length_hint gives -1 where len() raises, as on a 0-d array
    good[good] = _mask(list(map(length_hint, compress(rows, good), repeat(-1))),
                       sizes.__contains__)
    kept = list(compress(rows, good))
    i, j, w = (tuple(map(itemgetter(k), kept)) for k in (0, 1, -1))
    good[good] = (_mask(list(map(type, i)), is_integer) & _mask(list(map(type, j)), is_integer)
                  & _mask(list(map(type, w)), is_real))
    return good, i, j, w


def _ids(values) -> np.ndarray:
    """Node ids as int64, or as Python ints in an object array when one lies
    beyond int64 (such an id is out of range, which _canonical_edges reports)."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(list(map(int, values)), dtype=object)


def _weights(values) -> np.ndarray:
    """Weights as float64, as float() gives them; an integer beyond the float
    range becomes inf, which _canonical_edges rejects."""
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:  # only input that is then rejected comes here
        return np.fromiter(map(_float, values), dtype=np.float64, count=len(values))


def _float(value) -> float:
    try:
        return float(value)
    except OverflowError:
        return np.inf


def _canonical_edges(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray,
                     where=lambda k: "") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check the edges (i[k], j[k], w[k]), given in input order, and return
    them as (ei, ej, w) arrays with ei < ej, sorted by (ei, ej).

    i and j are int64 arrays (or object arrays, see _ids) and w is float64.
    The first offending edge k in input order raises a GraphFormatError
    prefixed by where(k), naming the first of its checks that fails: self-loop,
    node range, duplicate of an earlier edge (in either orientation), finite
    weight.
    """
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    bad = (i == j) | (lo < 0) | (hi >= n)
    # a pair's checks above hold for all its copies, so the bad pairs can share one key
    lo, hi = (np.where(bad, -1, ends).astype(np.int64) for ends in (lo, hi))
    order = np.lexsort((hi, lo))  # stable: the copies of a pair keep input order
    lo, hi = lo[order], hi[order]
    duplicate = np.zeros(len(order), dtype=bool)
    duplicate[order[1:]] = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    offending = bad | duplicate | ~np.isfinite(w)
    if offending.any():
        k = int(offending.argmax())
        raise GraphFormatError(where(k) + _offence(n, i[k], j[k], duplicate[k]))
    return lo, hi, w[order]


def _offence(n: int, i, j, duplicate: bool) -> str:
    if i == j:
        return f"self-loop on node {i}"
    i, j = min(i, j), max(i, j)
    if not 0 <= i < j < n:
        return f"edge ({i}, {j}) out of range for n={n}"
    if duplicate:
        return f"duplicate edge ({i}, {j})"
    return f"non-finite weight on edge ({i}, {j})"


def _kings_edges(side: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges (ei, ej) of the side x side King's graph, in Graph's sorted order.

    Cell i = row * side + col joins its right, down-left, down and
    down-right neighbors: j = i + 1, i + side - 1, i + side, i + side + 1,
    increasing in that order, so the row-major nonzeros are sorted by (i, j).
    """
    row, col = np.divmod(np.arange(side * side), side)
    right, down = col + 1 < side, row + 1 < side
    ei, k = np.nonzero(np.stack([right, down & (col > 0), down, down & right], axis=1))
    return ei, ei + np.array([1, side - 1, side, side + 1])[k]


def kings_graph(side: int) -> Graph:
    """side x side grid where each cell neighbors its 8 surrounding cells.

    Node index is row * side + col. All weights are 1.0. Edge count is
    2 * (side - 1) * (2 * side - 1).
    """
    count("side", side, 1)
    n = int(side) ** 2
    ei, ej = _kings_edges(int(side))
    return _graph(n, _canonical_edges(n, ei, ej, np.ones(len(ei))))


def kings_side(graph: Graph) -> int | None:
    """Return the side length if graph is exactly a unit-weight King's graph.

    Compares the stored edge arrays with the closed-form King's edge list,
    without building a reference Graph.
    """
    side = round(graph.n ** 0.5)
    if side * side != graph.n or side < 1:
        return None
    ei, ej = _kings_edges(side)
    if np.array_equal(graph.ei, ei) and np.array_equal(graph.ej, ej) and np.all(graph.w == 1.0):
        return side
    return None


def load_graph(path: str | os.PathLike, format: str | None = None) -> Graph:
    """Load a graph from a DIMACS `.col` file or a JSON edge list.

    Format is inferred from the extension (.col / .json) when not given.
    """
    return _format(path, format)[1](path)


def save_graph(graph: Graph, path: str | os.PathLike, format: str | None = None) -> None:
    """Write graph to path; load_graph(path) round-trips to an equal graph."""
    text = _format(path, format)[2](graph)
    with open(path, "w") as fh:
        fh.write(text)


def _format(path, fmt: str | None) -> tuple:
    """The FORMATS entry of fmt, or of path's extension when fmt is not given."""
    ext = os.path.splitext(str(path))[1].lower()
    fmt = fmt or next((name for name, entry in FORMATS.items() if entry[0] == ext), None)
    if fmt is None:
        raise ValueError(f"cannot infer graph format from {path!r}; pass format=")
    if fmt not in tuple(FORMATS):  # a tuple, so an unhashable fmt is just unknown
        raise ValueError(f"unknown format {fmt!r}; expected one of {tuple(FORMATS)}")
    return FORMATS[fmt]


def _load_dimacs(path) -> Graph:
    """Read a DIMACS file in one pass, raising each fault on the line where it
    is found. The endpoint tokens are checked at the end of the pass, or before
    the fault of a line that ends it early, so the first bad line in file order wins."""
    n = declared_m = None
    edges = []  # line number, i token, j token of each edge line
    with open(path) as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                parts = raw.split()
                if not parts or parts[0].startswith("c"):
                    continue
                if parts[0] == "e":
                    if n is None:
                        raise GraphFormatError(f"{path}:{lineno}: edge before problem line")
                    if len(parts) != 3:
                        raise GraphFormatError(f"{path}:{lineno}: malformed edge line")
                    parts[0] = lineno
                    edges += parts
                elif parts[0] == "p":
                    if n is not None:
                        raise GraphFormatError(f"{path}:{lineno}: second problem line")
                    if len(parts) != 4 or parts[1] != "edge":
                        raise GraphFormatError(f"{path}:{lineno}: malformed problem line")
                    n, declared_m = (_dimacs_int(path, lineno, part) for part in parts[2:])
                    if n < 0 or declared_m < 0:
                        raise GraphFormatError(f"{path}:{lineno}: negative node or edge count")
                    try:
                        _node_count("node count", n)
                    except ValueError as exc:
                        raise GraphFormatError(f"{path}:{lineno}: {exc}") from None
                else:
                    raise GraphFormatError(f"{path}:{lineno}: unknown line type {parts[0]!r}")
        except GraphFormatError:
            _endpoints(path, n, edges)
            raise
    if n is None:
        raise GraphFormatError(f"{path}: missing problem line")
    i, j = _endpoints(path, n, edges)
    g = _graph(n, _canonical_edges(n, i - 1, j - 1, np.ones(len(i)),
                                   lambda k: f"{path}:{edges[3 * k]}: "))
    if g.edge_count != declared_m:
        raise GraphFormatError(f"{path}: declared {declared_m} edges, found {g.edge_count}")
    return g


def _endpoints(path, n: int | None, edges: list) -> tuple[np.ndarray, np.ndarray]:
    """The i and j tokens of the edge lines as int64 arrays, in one numpy call,
    or the GraphFormatError of the first line whose token is not an integer in
    1..n, which a loop names only when that call fails or a value is out of range."""
    try:
        # numpy parses each token as int() does, so when it fails the loop finds the token
        i, j = (np.array(edges[k::3], dtype=np.int64) for k in (1, 2))
        if i.size == 0 or (min(i.min(), j.min()) >= 1 and max(i.max(), j.max()) <= n):
            return i, j
    except (ValueError, OverflowError):
        pass
    for lineno, *tokens in zip(edges[0::3], edges[1::3], edges[2::3]):
        i, j = (_dimacs_int(path, lineno, token) for token in tokens)
        if not (1 <= i <= n and 1 <= j <= n):
            raise GraphFormatError(f"{path}:{lineno}: node index out of range for n={n}")


def _dimacs_int(path, lineno: int, field: str) -> int:
    try:
        return int(field)
    except ValueError:
        raise GraphFormatError(f"{path}:{lineno}: {field!r} is not an integer") from None


def _load_json(path) -> Graph:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict) or "n" not in doc or not isinstance(doc.get("edges"), list):
        raise GraphFormatError(f'{path}: expected {{"n": int, "edges": [...]}}')
    try:
        _node_count('"n"', doc["n"])
    except ValueError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None
    rows = doc["edges"]
    good, i, j, last = _columns(rows, (list,), (2, 3))
    if not good.all():
        raise GraphFormatError(
            f"{path}: edge entries must be [i, j] or [i, j, w] with integer"
            f" node ids and a number w, got {rows[int(good.argmin())]!r}"
        )
    weighted = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)) == 3
    return _graph(doc["n"], _canonical_edges(doc["n"], _ids(i), _ids(j),
                                             np.where(weighted, _weights(last), 1.0),
                                             lambda k: f"{path}: "))


def _dimacs_text(graph: Graph) -> str:
    if np.any(graph.w != 1.0):
        raise ValueError("DIMACS .col cannot represent non-unit weights")
    edges = map("e {} {}\n".format, (graph.ei + 1).tolist(), (graph.ej + 1).tolist())
    return f"p edge {graph.n} {graph.edge_count}\n" + "".join(edges)


def _json_text(graph: Graph) -> str:
    edges = list(map(list, zip(graph.ei.tolist(), graph.ej.tolist(), graph.w.tolist())))
    return json.dumps({"n": graph.n, "edges": edges}) + "\n"


# format name: (file extension, loader, writer of the file's text)
FORMATS = {
    "dimacs_col": (".col", _load_dimacs, _dimacs_text),
    "json_edges": (".json", _load_json, _json_text),
}
