import builtins
import json
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pottsim.graph
from pottsim.graph import (
    Graph,
    GraphFormatError,
    kings_graph,
    kings_side,
    load_graph,
    save_graph,
)


def reference_graph(n, edges):
    """Graph.__init__ as it was before graphs were built from arrays, verbatim
    but for returning (n, ei, ej, w) in place of setting attributes."""
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
    return (
        int(n),
        np.array([e[0] for e in canon], dtype=np.int64),
        np.array([e[1] for e in canon], dtype=np.int64),
        np.array([e[2] for e in canon], dtype=np.float64),
    )


def reference_load_dimacs(path):
    """_load_dimacs as it was before graphs were built from arrays, verbatim
    but for calling reference_graph."""
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
                n, declared_m = (reference_dimacs_int(path, lineno, part) for part in parts[2:])
                if n < 0 or declared_m < 0:
                    raise GraphFormatError(f"{path}:{lineno}: negative node or edge count")
            elif parts[0] == "e":
                if n is None:
                    raise GraphFormatError(f"{path}:{lineno}: edge before problem line")
                if len(parts) != 3:
                    raise GraphFormatError(f"{path}:{lineno}: malformed edge line")
                i, j = (reference_dimacs_int(path, lineno, part) - 1 for part in parts[1:])
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
        g = reference_graph(n, edges)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
    if declared_m is not None and len(g[3]) != declared_m:
        raise GraphFormatError(
            f"{path}: declared {declared_m} edges, found {len(g[3])}"
        )
    return g


def reference_dimacs_int(path, lineno, field):
    try:
        return int(field)
    except ValueError:
        raise GraphFormatError(f"{path}:{lineno}: {field!r} is not an integer") from None


def outcome(build, *args):
    """("ok", n, ei, ej, w) for a graph or a reference tuple, else the
    exception's type and message."""
    try:
        g = build(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    n, ei, ej, w = (g.n, g.ei, g.ej, g.w) if isinstance(g, Graph) else g
    return "ok", n, ei, ej, w


def assert_same_outcome(got, expected):
    assert got[0] == expected[0] and len(got) == len(expected)
    if got[0] != "ok":
        assert got == expected
        return
    assert got[1] == expected[1] and type(got[1]) is int
    for a, b in zip(got[2:], expected[2:]):
        assert a.dtype == b.dtype
        # bit for bit, so -0.0 and 0.0 weights differ
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


HUGE_IDS = st.sampled_from([2**63, 2**63 + 1, 2**64, 2**64 + 7, -(2**63) - 1])
BAD_WEIGHTS = st.sampled_from([float("nan"), float("inf"), float("-inf"), 10**400, -(10**400)])


@st.composite
def edge_lists(draw, max_n=40):
    """(n, edges): a simple graph of 0-max_n nodes, each edge in either
    orientation with a float or integer weight, and with probability 1/2 up
    to three faults inserted: self-loops, reversed duplicates, negative ids,
    ids of 2**63 or more, and NaN, inf or 10**400 weights."""
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=60)) if pairs else []
    weight = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-5, 5)
    edges = [((j, i) if draw(st.booleans()) else (i, j)) + (draw(weight),) for i, j in chosen]
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            node = st.integers(0, max(n - 1, 0))
            fault = draw(st.sampled_from(["loop", "duplicate", "negative", "huge", "weight"]))
            if fault == "loop":
                v = draw(node)
                bad = (v, v, 1.0)
            elif fault == "duplicate" and edges:
                i, j, w = draw(st.sampled_from(edges))
                bad = (j, i, w)
            elif fault == "negative":
                bad = (draw(st.integers(-3, -1)), draw(node), 1.0)
            elif fault == "huge":
                bad = (draw(node), draw(HUGE_IDS), 1.0)
            else:
                bad = (draw(node), draw(node), draw(BAD_WEIGHTS))
            edges.insert(draw(st.integers(0, len(edges))), bad)
    return n, edges


def brute_force_kings_edges(side):
    """Independent oracle: enumerate all neighbor-offset pairs directly."""
    edges = set()
    for r in range(side):
        for c in range(side):
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < side and 0 <= cc < side:
                        a, b = r * side + c, rr * side + cc
                        edges.add((min(a, b), max(a, b)))
    return edges


class TestKingsGraph:
    def test_single_node(self):
        g = kings_graph(1)
        assert g.n == 1
        assert g.edge_count == 0

    def test_2x2_is_k4(self):
        g = kings_graph(2)
        assert g.n == 4
        assert g.edge_count == 6
        assert {(i, j) for i, j, _ in g.edges} == {
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        }

    def test_7x7_edge_count_vs_brute_force(self):
        g = kings_graph(7)
        expected = brute_force_kings_edges(7)
        assert g.n == 49
        assert g.edge_count == len(expected) == 156
        assert {(i, j) for i, j, _ in g.edges} == expected
        assert 156 == 2 * 6 * 13

    @given(st.integers(min_value=1, max_value=16))
    def test_edges_vs_brute_force_every_side(self, side):
        g = kings_graph(side)
        assert {(i, j) for i, j, _ in g.edges} == brute_force_kings_edges(side)
        assert np.all(g.w == 1.0)

    def test_rejects_side_zero(self):
        with pytest.raises(ValueError):
            kings_graph(0)

    @given(st.integers(min_value=2, max_value=12))
    def test_counts_and_degrees(self, side):
        g = kings_graph(side)
        assert g.n == side * side
        assert g.edge_count == 2 * (side - 1) * (2 * side - 1)
        deg = g.degrees()
        corners = [0, side - 1, side * (side - 1), side * side - 1]
        for v in range(g.n):
            r, c = divmod(v, side)
            on_border = r in (0, side - 1) or c in (0, side - 1)
            if v in corners:
                assert deg[v] == 3
            elif on_border:
                assert deg[v] == 5
            else:
                assert deg[v] == 8

    def test_kings_side_detection(self):
        assert kings_side(kings_graph(5)) == 5
        assert kings_side(Graph(4, [(0, 1, 1.0)])) is None
        assert kings_side(Graph(3, [(0, 1, 1.0)])) is None


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphFormatError):
            Graph(2, [(0, 0, 1.0)])

    def test_rejects_duplicate_even_reversed(self):
        with pytest.raises(GraphFormatError):
            Graph(3, [(0, 1, 1.0), (1, 0, 1.0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphFormatError):
            Graph(2, [(0, 2, 1.0)])

    def test_rejects_nonfinite_weight(self):
        with pytest.raises(GraphFormatError):
            Graph(2, [(0, 1, float("nan"))])

    def test_canonicalizes_edge_order(self):
        g = Graph(3, [(2, 0, 1.5), (1, 2, 2.0)])
        assert g.edges == [(0, 2, 1.5), (1, 2, 2.0)]

    def test_equality_with_another_type_and_repr(self):
        g = kings_graph(3)
        assert (g == 3) is False and g.__eq__(3) is NotImplemented
        assert repr(g) == "Graph(n=9, edges=20)"


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))) if all_pairs else []
    return Graph(n, [(i, j, 1.0) for i, j in chosen])


@st.composite
def perturbed_kings(draw):
    """(side, a King's graph of side 1-12 with one edge moved, reweighted or
    dropped, or two node labels swapped); the change may leave it equal."""
    side = draw(st.integers(min_value=1, max_value=12))
    n = side * side
    edges = kings_graph(side).edges
    change = draw(st.sampled_from(["move", "reweight", "drop", "swap"]))
    if change == "swap" or not edges:
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        label = list(range(n))
        label[a], label[b] = b, a
        return side, Graph(n, [(label[i], label[j], w) for i, j, w in edges])
    i, j, w = edges.pop(draw(st.integers(0, len(edges) - 1)))
    if change == "reweight":
        edges.append((i, j, draw(st.floats(-4.0, 4.0) | st.just(1.0))))
    elif change == "move":
        a, b = sorted((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))))
        taken = {(e[0], e[1]) for e in edges}
        edges.append((a, b, w) if a != b and (a, b) not in taken else (i, j, w))
    return side, Graph(n, edges)


@st.composite
def weighted_graphs(draw):
    """graphs() with any finite weights, each edge given in either orientation."""
    g = draw(graphs())
    weight = st.floats(allow_nan=False, allow_infinity=False)
    return Graph(g.n, [(j, i, draw(weight)) if draw(st.booleans()) else (i, j, draw(weight))
                       for i, j, _ in g.edges])


class TestBadInputFailsByName:
    @pytest.mark.parametrize("n", [2.5, True, np.float64(3.0), "3", None])
    def test_node_count_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="node count n must be an integer"):
            Graph(n, [])

    @pytest.mark.parametrize("edge", [
        (0.5, 2, 1.0), (True, 2, 1.0), (0, np.float64(2.0), 1.0), (0, np.bool_(True), 1.0),
        (0, 2, "2"), (0, 2, True), (0, 2, None), (0, 2), (0, 1, 2, 1.0),
        # rows that are not sequences used to fail in len() or on row[-1]
        5, None, {0: 0, 1: 1, 2: 1.0},
        # bytes-like rows used to load as integer ids, a 0-d array to fail in len()
        b"\x00\x01\x02", bytearray(b"\x00\x01\x02"), memoryview(b"\x00\x01\x02"), np.array(5),
    ], ids=["id-float", "id-bool", "id-numpy-float", "id-numpy-bool", "weight-string",
            "weight-bool", "weight-none", "two-items", "four-items", "scalar-row", "none-row",
            "dict-row", "bytes-row", "bytearray-row", "memoryview-row", "0d-array-row"])
    def test_edge_needs_integer_ids_and_a_real_weight(self, edge):
        with pytest.raises(GraphFormatError, match=re.escape(f"got {edge!r}")):
            Graph(3, [(0, 1, 1.0), edge])

    def test_range_and_array_rows_load(self):
        assert Graph(3, [range(3)]).edges == [(0, 1, 2.0)]
        assert Graph(3, np.array([[0, 1, 1], [2, 1, 3]])).edges == [(0, 1, 1.0), (1, 2, 3.0)]

    def test_first_badly_typed_edge_is_named(self):
        with pytest.raises(GraphFormatError, match=re.escape("got (1, 2.0, 1.0)")):
            Graph(3, [(0, 0, 1.0), (1, 2.0, 1.0), (0.5, 1, 1.0)])

    @pytest.mark.parametrize("side", [2.5, True, np.float64(3.0), "3"])
    def test_kings_side_must_be_an_integer(self, side):
        with pytest.raises(ValueError, match="side must be an integer"):
            kings_graph(side)

    @pytest.mark.parametrize("text,lineno,message", [
        ("p edge 3 2\ne 1 2\ne 2 1\n", 3, "duplicate edge (0, 1)"),
        ("c note\np edge 3 2\ne 1 2\n\n  e 2 2\n", 5, "self-loop on node 1"),
    ], ids=["duplicate", "self-loop"])
    def test_dimacs_structural_error_names_its_line(self, text, lineno, message, tmp_path):
        path = tmp_path / "g.col"
        path.write_text(text)
        with pytest.raises(GraphFormatError) as info:
            load_graph(path)
        assert str(info.value) == f"{path}:{lineno}: {message}"

    @pytest.mark.parametrize("text", [
        # a second problem line would shrink n below an edge read before it
        "p edge 5 1\ne 1 5\np edge 2 1\n",
        # or grow the graph past the one its edges were read for
        "p edge 2 1\ne 1 2\np edge 9 1\n",
    ], ids=["shrinks-n", "grows-n"])
    def test_dimacs_second_problem_line_names_its_line(self, text, tmp_path):
        path = tmp_path / "g.col"
        path.write_text(text)
        with pytest.raises(GraphFormatError) as info:
            load_graph(path)
        assert str(info.value) == f"{path}:3: second problem line"

    @pytest.mark.parametrize("n", [2**63, 2**64, 10**30, np.uint64(2**64 - 1)])
    def test_node_count_beyond_int64(self, n):
        with pytest.raises(ValueError, match=re.escape("node count n must be at most 2**63 - 1")):
            Graph(n, [])

    @pytest.mark.parametrize("n", [2**63, 2**64])
    def test_dimacs_node_count_beyond_int64(self, n, tmp_path):
        path = tmp_path / "g.col"
        path.write_text(f"c big\np edge {n} 0\n")
        with pytest.raises(GraphFormatError) as info:
            load_graph(path)
        assert str(info.value) == (
            f"{path}:2: node count must be at most 2**63 - 1 (int64), got {n}")

    @pytest.mark.parametrize("n,message", [
        (2**63, f"must be at most 2**63 - 1 (int64), got {2**63}"),
        (-1, "must be an integer >= 0 (not bool), got -1"),
        (True, "must be an integer >= 0 (not bool), got True"),
    ])
    def test_json_node_count_is_checked_as_the_constructor_does(self, n, message, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": n, "edges": []}))
        with pytest.raises(GraphFormatError) as info:
            load_graph(path)
        assert str(info.value) == f'{path}: "n" {message}'
        with pytest.raises(ValueError, match=re.escape(f"node count n {message}")):
            Graph(n, [])

    @pytest.mark.parametrize("ext", ["col", "json"])
    def test_largest_node_count_loads(self, ext, tmp_path):
        path = tmp_path / f"g.{ext}"
        path.write_text(f"p edge {2**63 - 1} 0\n" if ext == "col"
                        else json.dumps({"n": 2**63 - 1, "edges": []}))
        assert load_graph(path).n == Graph(2**63 - 1, []).n == 2**63 - 1


class TestMatchesReference:
    """Graph, both loaders and kings_graph give reference_graph's arrays, or
    its exception and message; DIMACS structural errors add the line, and a
    second DIMACS problem line is an error of its own."""

    @settings(max_examples=400, deadline=None)
    @given(edge_lists(), st.booleans())
    @example((0, []), False)
    @example((3, [(0, 1, 1.0), (2, 2**63, float("nan"))]), False)
    @example((3, [(0, 1, 2**1024 - 2**970 - 1), (1, 2, 2**1024 - 2**970)]), False)
    @example((np.int64(3), [(np.int32(2), np.uint8(0), np.float32(0.5)), (1, 2, 3)]), False)
    @example((3, [(0, 1, np.float64("nan")), (1, 2, 10**400)]), False)
    def test_constructor(self, case, numpy_ids):
        n, edges = case
        if numpy_ids:
            edges = [(np.int64(i), np.int64(j), w) if max(abs(i), abs(j)) < 2**63 else (i, j, w)
                     for i, j, w in edges]
        assert_same_outcome(outcome(Graph, n, edges), outcome(reference_graph, n, edges))

    @settings(max_examples=200, deadline=None)
    @given(edge_lists())
    def test_json(self, tmp_path_factory, case):
        n, edges = case
        path = tmp_path_factory.mktemp("json") / "g.json"
        path.write_text(json.dumps({"n": n, "edges": [list(edge) for edge in edges]}))
        expected = outcome(reference_graph, n, edges)
        if expected[0] != "ok":
            expected = (expected[0], f"{path}: {expected[1]}")
        assert_same_outcome(outcome(load_graph, path), expected)

    @settings(max_examples=300, deadline=None)
    @given(edge_lists(), st.data())
    def test_dimacs(self, tmp_path_factory, case, data):
        n, edges = case
        lines = [f"p edge {n} {len(edges) + data.draw(st.sampled_from([0, 0, 1]))}"]
        lines += [f"e {i + 1} {j + 1}" for i, j, _ in edges]
        junk = ["c note", "", "x 1 2", "e 1", "e 1 y", "p edge 2", "p edge 2 1", "e 1 2"]
        for line in data.draw(st.lists(st.sampled_from(junk), max_size=2)):
            lines.insert(data.draw(st.integers(0, len(lines))), line)
        path = tmp_path_factory.mktemp("dimacs") / "g.col"
        problem_lines = [k for k, line in enumerate(lines) if line.split()[:1] == ["p"]]
        if len(problem_lines) > 1:
            # the reader stops at a second problem line, unless a line before it fails
            second = problem_lines[1]
            path.write_text("\n".join(lines[:second]) + "\n")
            expected = outcome(reference_load_dimacs, path)
            path.write_text("\n".join(lines) + "\n")
            if expected[0] == "ok" or not re.match(rf"{re.escape(str(path))}:\d+: ", expected[1]):
                expected = (GraphFormatError, f"{path}:{second + 1}: second problem line")
            assert_same_outcome(outcome(load_graph, path), expected)
            return
        path.write_text("\n".join(lines) + "\n")
        expected = outcome(reference_load_dimacs, path)
        structural = (expected[0] != "ok" and expected[1].startswith(f"{path}: ")
                      and "declared" not in expected[1])
        if structural:
            # the first edge, in file order, whose prefix the reference rejects
            read = [(lineno, line.split()) for lineno, line in enumerate(lines, start=1)]
            n = int([parts for _, parts in read if parts[:1] == ["p"]][-1][2])
            edge_lines = [(lineno, int(p[1]) - 1, int(p[2]) - 1) for lineno, p in read if p[:1] == ["e"]]
            first = next(k for k in range(len(edge_lines)) if outcome(
                reference_graph, n, [(i, j, 1.0) for _, i, j in edge_lines[:k + 1]])[0] != "ok")
            expected = (expected[0], expected[1].replace(f"{path}: ", f"{path}:{edge_lines[first][0]}: ", 1))
        assert_same_outcome(outcome(load_graph, path), expected)

    @pytest.mark.parametrize("side", [*range(1, 21), np.int64(7)])
    def test_kings(self, side):
        edges = [(i, j, 1.0) for i, j in brute_force_kings_edges(side)]
        assert_same_outcome(outcome(kings_graph, side), outcome(reference_graph, side * side, edges))

    @settings(max_examples=50, deadline=None)
    @given(weighted_graphs())
    def test_saved_text(self, tmp_path_factory, g):
        """save_graph writes the text of the per-edge writer it replaced."""
        tmp = tmp_path_factory.mktemp("saved")
        save_graph(g, tmp / "g.json")
        assert (tmp / "g.json").read_text() == json.dumps(
            {"n": g.n, "edges": [[i, j, w] for i, j, w in g.edges]}) + "\n"
        unit = Graph(g.n, [(i, j, 1.0) for i, j, _ in g.edges])
        save_graph(unit, tmp / "g.col")
        assert (tmp / "g.col").read_text() == "\n".join(
            [f"p edge {g.n} {g.edge_count}"] + [f"e {i + 1} {j + 1}" for i, j, _ in g.edges]) + "\n"

    @pytest.mark.parametrize("ext", ["col", "json"])
    def test_round_trip_kings_100(self, tmp_path, ext):
        g = kings_graph(100)
        assert g.edge_count == 39402
        save_graph(g, tmp_path / f"k100.{ext}")
        assert_same_outcome(outcome(load_graph, tmp_path / f"k100.{ext}"), outcome(kings_graph, 100))


class TestKingsSide:
    @settings(max_examples=300)
    @given(perturbed_kings())
    def test_kings_side_matches_rebuild_on_perturbed_kings(self, case):
        side, g = case
        # the reference is a full rebuild and Graph.__eq__
        assert kings_side(g) == (side if g == kings_graph(side) else None)

    @settings(max_examples=100)
    @given(graphs(max_n=39))
    def test_kings_side_matches_rebuild_on_random_graphs(self, g):
        side = round(g.n ** 0.5)
        expected = side if side * side == g.n and g == kings_graph(side) else None
        assert kings_side(g) == expected

    def test_recognizes_every_side(self):
        assert [kings_side(kings_graph(side)) for side in range(1, 31)] == list(range(1, 31))

    def test_kings_side_builds_no_graph(self, monkeypatch):
        g = kings_graph(46)

        def no_graph(*args, **kwargs):
            raise AssertionError("kings_side built a Graph")

        monkeypatch.setattr(pottsim.graph.Graph, "__init__", no_graph)
        assert kings_side(g) == 46


class TestFileIO:
    def test_smallest_dimacs(self, tmp_path):
        path = tmp_path / "g.col"
        path.write_text("p edge 2 1\ne 1 2\n")
        g = load_graph(path)
        assert g.n == 2
        assert g.edges == [(0, 1, 1.0)]

    def test_json_triangle(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"n":3,"edges":[[0,1],[1,2],[0,2]]}')
        g = load_graph(path)
        assert g.n == 3
        assert g.edges == [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]

    def test_dimacs_index_out_of_range(self, tmp_path):
        path = tmp_path / "g.col"
        path.write_text("p edge 2 1\ne 1 3\n")
        with pytest.raises(GraphFormatError, match="out of range"):
            load_graph(path)

    def test_dimacs_duplicate_edge(self, tmp_path):
        path = tmp_path / "g.col"
        path.write_text("p edge 3 2\ne 1 2\ne 2 1\n")
        with pytest.raises(GraphFormatError, match="duplicate"):
            load_graph(path)

    def test_dimacs_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "g.col"
        path.write_text("p edge 2 1\nbogus line\n")
        with pytest.raises(GraphFormatError, match=":2:"):
            load_graph(path)

    def test_dimacs_edge_count_mismatch(self, tmp_path):
        path = tmp_path / "g.col"
        path.write_text("p edge 3 2\ne 1 2\n")
        with pytest.raises(GraphFormatError):
            load_graph(path)

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "g.col"
        path.write_text("c a comment\np edge 2 1\nc another\ne 1 2\n")
        assert load_graph(path).edge_count == 1

    @pytest.mark.parametrize("fmt,ext", [("dimacs_col", "col"), ("json_edges", "json")])
    def test_round_trip_kings(self, tmp_path, fmt, ext):
        for side in (2, 7):
            g = kings_graph(side)
            path = tmp_path / f"k{side}.{ext}"
            save_graph(g, path, fmt)
            assert load_graph(path, fmt) == g

    @settings(max_examples=30)
    @given(graphs())
    def test_round_trip_random(self, tmp_path_factory, g):
        tmp = tmp_path_factory.mktemp("roundtrip")
        for fmt, ext in (("dimacs_col", "col"), ("json_edges", "json")):
            path = tmp / f"g.{ext}"
            save_graph(g, path, fmt)
            assert load_graph(path, fmt) == g

    @settings(max_examples=50)
    @given(weighted_graphs())
    def test_round_trip_both_formats(self, tmp_path_factory, g):
        # JSON keeps every weight bit for bit; DIMACS holds the unit-weight copy
        tmp = tmp_path_factory.mktemp("roundtrip")
        unit = Graph(g.n, [(i, j, 1.0) for i, j, _ in g.edges])
        for graph, fmt, ext in ((g, "json_edges", "json"), (unit, "dimacs_col", "col")):
            path = tmp / f"g.{ext}"
            save_graph(graph, path)
            loaded = load_graph(path)
            assert loaded == graph
            assert np.array_equal(loaded.w.view(np.int64), graph.w.view(np.int64))
        if np.any(g.w != 1.0):
            with pytest.raises(ValueError):
                save_graph(g, tmp / "w.col")

    def test_weighted_json_round_trip(self, tmp_path):
        g = Graph(3, [(0, 1, 2.5), (1, 2, -1.0)])
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert load_graph(path) == g

    def test_save_unwritable_path(self, tmp_path):
        g = kings_graph(2)
        with pytest.raises(OSError):
            save_graph(g, tmp_path / "nope" / "g.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("{not json")
        with pytest.raises(GraphFormatError):
            load_graph(path)

    @pytest.mark.parametrize("doc", [
        {"n": "3", "edges": [[0, 1]]},
        {"n": 2.5, "edges": [[0, 1]]},
        {"n": True, "edges": []},
        {"n": -1, "edges": []},
        {"n": 2**63, "edges": []},
        {"n": 2**64, "edges": []},
        {"n": 3, "edges": 5},
        {"n": 3, "edges": [["a", 1]]},
        {"n": 3, "edges": [[0.5, 1]]},
        {"n": 3, "edges": [[0, 1, "2"]]},
        {"n": 3, "edges": [[0, 1, True]]},
        {"n": 3, "edges": [[0, 1, 10**400]]},
    ], ids=["n-string", "n-float", "n-bool", "n-negative", "n-2**63", "n-2**64",
            "edges-not-a-list", "id-string", "id-float", "weight-string", "weight-bool", "weight-beyond-float"])
    def test_json_wrong_type_names_file(self, doc, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(GraphFormatError, match=str(path)):
            load_graph(path)

    @pytest.mark.parametrize("text,lineno", [
        ("p edge x 1\ne 1 2\n", 1),
        ("p edge 2 1\ne 1 y\n", 2),
    ], ids=["problem-line", "edge-line"])
    def test_dimacs_non_integer_names_path_and_line(self, text, lineno, tmp_path):
        path = tmp_path / "g.col"
        path.write_text(text)
        with pytest.raises(GraphFormatError, match=f"{path}:{lineno}:"):
            load_graph(path)

    @pytest.mark.parametrize("text", ["p edge -1 0\n", "p edge 2 -1\n"],
                             ids=["nodes", "edges"])
    def test_dimacs_negative_count_names_path_and_line(self, text, tmp_path):
        path = tmp_path / "g.col"
        path.write_text(text)
        with pytest.raises(GraphFormatError, match=f"{path}:1:"):
            load_graph(path)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            load_graph(tmp_path / "g.txt")

    def test_unknown_format_name(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format 'xml'; expected one of"):
            load_graph(tmp_path / "g.col", format="xml")


DIMACS_CASES = {
    "valid": ("p edge 3 2\ne 1 2\ne 2 3\n", None),
    "unknown-line": ("p edge 3 1\ne 1 2\nx 1 2\n", "3: unknown line type 'x'"),
    "non-integer": ("p edge 3 1\ne 1 2\ne 2 y\n", "3: 'y' is not an integer"),
    "out-of-range": ("p edge 2 1\ne 1 3\n", "2: node index out of range for n=2"),
    "self-loop": ("p edge 3 2\ne 1 2\ne 3 3\n", "3: self-loop on node 2"),
    "duplicate": ("p edge 3 2\ne 1 2\ne 2 1\n", "3: duplicate edge (0, 1)"),
    "count-mismatch": ("p edge 3 2\ne 1 2\n", " declared 2 edges, found 1"),
    "no-problem-line": ("c a comment and nothing else\n", " missing problem line"),
}


class TestOneRead:
    """A DIMACS file is opened once, whatever its error, so a named pipe
    loads too."""

    @pytest.mark.parametrize("text,message", DIMACS_CASES.values(), ids=DIMACS_CASES.keys())
    def test_opens_the_file_once(self, text, message, tmp_path, monkeypatch):
        path = tmp_path / "g.col"
        path.write_text(text)
        opened = []
        monkeypatch.setattr(pottsim.graph, "open",
                            lambda *args, **kw: opened.append(args) or builtins.open(*args, **kw),
                            raising=False)
        if message is None:
            assert load_graph(path).edge_count == 2
        else:
            with pytest.raises(GraphFormatError) as info:
                load_graph(path)
            assert str(info.value) == f"{path}:{message}"
        assert opened == [(path,)]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize("case", ["duplicate", "out-of-range"])
    def test_named_pipe_error_names_its_line(self, case, tmp_path):
        text, message = DIMACS_CASES[case]
        path = tmp_path / "g.col"
        os.mkfifo(path)
        src = os.path.dirname(os.path.dirname(pottsim.graph.__file__))
        child = subprocess.Popen(
            [sys.executable, "-c", "import sys\nfrom pottsim.graph import load_graph\n"
             "try:\n    load_graph(sys.argv[1])\nexcept ValueError as exc:\n    print(exc)",
             str(path)],
            stdout=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": src})

        def write():
            with open(path, "w") as fh:
                fh.write(text)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            out, _ = child.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            out = "timed out: the pipe was opened a second time"
        finally:
            # a reader of our own lets the writer's open return if the child never opened
            os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(10)
        assert not writer.is_alive()
        assert out.strip() == f"{path}:{message}"
