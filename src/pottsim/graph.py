"""Weighted undirected graphs, King's-graph benchmark generation, and file I/O.

Edges are stored once each with i < j; weight 1.0 encodes the
anti-ferromagnetic "adjacent nodes must differ" constraint. Instances are
treated as immutable after construction and are safe to share across threads.
"""

from __future__ import annotations

import json
import os
from typing import Iterable

import numpy as np

__all__ = [
    "Graph",
    "GraphFormatError",
    "kings_graph",
    "kings_side",
    "load_graph",
    "save_graph",
]

FORMATS = ("dimacs_col", "json_edges")


class GraphFormatError(ValueError):
    """Raised when a graph file fails to parse or violates edge invariants."""


class Graph:
    """Simple undirected graph with real edge weights.

    Edges are canonicalized to i < j at construction; self-loops and
    duplicates are rejected.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]]):
        if n < 0:
            raise ValueError("node count must be nonnegative")
        canon = []
        seen = set()
        for i, j, w in edges:
            if i == j:
                raise GraphFormatError(f"self-loop on node {i}")
            if i > j:
                i, j = j, i
            if not (0 <= i < j < n):
                raise GraphFormatError(f"edge ({i}, {j}) out of range for n={n}")
            if (i, j) in seen:
                raise GraphFormatError(f"duplicate edge ({i}, {j})")
            try:
                w = float(w)
            except OverflowError:  # an integer beyond the float range
                w = np.inf
            if not np.isfinite(w):
                raise GraphFormatError(f"non-finite weight on edge ({i}, {j})")
            seen.add((i, j))
            canon.append((i, j, w))
        canon.sort()
        self.n = int(n)
        self.ei = np.array([e[0] for e in canon], dtype=np.int64)
        self.ej = np.array([e[1] for e in canon], dtype=np.int64)
        self.w = np.array([e[2] for e in canon], dtype=np.float64)

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
    if side < 1:
        raise ValueError("side must be >= 1")
    ei, ej = _kings_edges(side)
    return Graph(side * side, ((i, j, 1.0) for i, j in zip(ei.tolist(), ej.tolist())))


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
    fmt = format or _infer_format(path)
    if fmt == "dimacs_col":
        return _load_dimacs(path)
    if fmt == "json_edges":
        return _load_json(path)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def save_graph(graph: Graph, path: str | os.PathLike, format: str | None = None) -> None:
    """Write graph to path; load_graph(path) round-trips to an equal graph."""
    fmt = format or _infer_format(path)
    if fmt == "dimacs_col":
        lines = [f"p edge {graph.n} {graph.edge_count}"]
        for i, j, w in graph.edges:
            if w != 1.0:
                raise ValueError("DIMACS .col cannot represent non-unit weights")
            lines.append(f"e {i + 1} {j + 1}")
        text = "\n".join(lines) + "\n"
    elif fmt == "json_edges":
        text = json.dumps(
            {"n": graph.n, "edges": [[i, j, w] for i, j, w in graph.edges]}
        ) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    with open(path, "w") as fh:
        fh.write(text)


def _infer_format(path) -> str:
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".col":
        return "dimacs_col"
    if ext == ".json":
        return "json_edges"
    raise ValueError(f"cannot infer graph format from {path!r}; pass format=")


def _load_dimacs(path) -> Graph:
    n = None
    declared_m = None
    edges = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if len(parts) != 4 or parts[1] != "edge":
                    raise GraphFormatError(f"{path}:{lineno}: malformed problem line")
                n, declared_m = (_dimacs_int(path, lineno, part) for part in parts[2:])
                if n < 0 or declared_m < 0:
                    raise GraphFormatError(f"{path}:{lineno}: negative node or edge count")
            elif parts[0] == "e":
                if n is None:
                    raise GraphFormatError(f"{path}:{lineno}: edge before problem line")
                if len(parts) != 3:
                    raise GraphFormatError(f"{path}:{lineno}: malformed edge line")
                i, j = (_dimacs_int(path, lineno, part) - 1 for part in parts[1:])
                if not (0 <= i < n and 0 <= j < n):
                    raise GraphFormatError(
                        f"{path}:{lineno}: node index out of range for n={n}"
                    )
                edges.append((i, j, 1.0))
            else:
                raise GraphFormatError(f"{path}:{lineno}: unknown line type {parts[0]!r}")
    if n is None:
        raise GraphFormatError(f"{path}: missing problem line")
    try:
        g = Graph(n, edges)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
    if declared_m is not None and g.edge_count != declared_m:
        raise GraphFormatError(
            f"{path}: declared {declared_m} edges, found {g.edge_count}"
        )
    return g


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
    # json.load gives bool for true/false, never another int subclass
    if type(doc["n"]) is not int or doc["n"] < 0:
        raise GraphFormatError(f'{path}: "n" must be a nonnegative integer, got {doc["n"]!r}')
    edges = []
    for entry in doc["edges"]:
        if not (isinstance(entry, list) and len(entry) in (2, 3)
                and type(entry[0]) is type(entry[1]) is int
                and type(entry[-1]) in (int, float)):
            raise GraphFormatError(
                f"{path}: edge entries must be [i, j] or [i, j, w] with integer"
                f" node ids and a number w, got {entry!r}"
            )
        i, j = entry[0], entry[1]
        w = entry[2] if len(entry) == 3 else 1.0
        edges.append((i, j, w))
    try:
        return Graph(doc["n"], edges)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
