import json

import numpy as np
import pytest
from hypothesis import given, settings
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
        {"n": 3, "edges": 5},
        {"n": 3, "edges": [["a", 1]]},
        {"n": 3, "edges": [[0.5, 1]]},
        {"n": 3, "edges": [[0, 1, "2"]]},
        {"n": 3, "edges": [[0, 1, True]]},
        {"n": 3, "edges": [[0, 1, 10**400]]},
    ], ids=["n-string", "n-float", "n-bool", "n-negative", "edges-not-a-list",
            "id-string", "id-float", "weight-string", "weight-bool", "weight-beyond-float"])
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
