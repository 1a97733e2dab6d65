import itertools

import numpy as np
import pytest

from pottsim.graph import Graph, kings_graph
from pottsim.hamiltonian import potts_energy
from pottsim.metrics import cut_value
from pottsim.oracle import (
    OracleTimeout,
    brute_force_maxcut,
    constructive_kings_coloring,
    exact_coloring,
    stripe_cut_value,
)


def complete_graph(n):
    return Graph(n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)])


def proper(graph, coloring, k):
    return (
        all(0 <= c < k for c in coloring)
        and all(coloring[i] != coloring[j] for i, j, _ in graph.edges)
    )


class TestExactColoring:
    def test_k4_forced_bijection(self):
        g = kings_graph(2)
        coloring = exact_coloring(g, 4)
        assert coloring is not None
        assert proper(g, coloring, 4)
        assert len(set(coloring)) == 4

    def test_k5_not_4_colorable(self):
        assert exact_coloring(complete_graph(5), 4) is None

    def test_kings7_4_colorable(self):
        g = kings_graph(7)
        coloring = exact_coloring(g, 4)
        assert coloring is not None
        assert proper(g, coloring, 4)
        assert potts_energy(g, coloring) == 0.0

    def test_edgeless(self):
        assert exact_coloring(Graph(3, []), 1) == [0, 0, 0]

    @pytest.mark.parametrize("side", [32, 46])
    def test_large_kings_within_node_limit(self, side):
        # deeper than the interpreter's recursion limit
        g = kings_graph(side)
        coloring = exact_coloring(g, 4)
        assert coloring is not None
        assert proper(g, coloring, 4)

    def test_chromatic_number_bracketing(self):
        # odd cycle needs 3 colors, even cycle needs 2
        c5 = Graph(5, [(i, (i + 1) % 5, 1.0) if i < 4 else (0, 4, 1.0) for i in range(5)])
        assert exact_coloring(c5, 2) is None
        assert exact_coloring(c5, 3) is not None

    def test_node_limit(self):
        with pytest.raises(ValueError):
            exact_coloring(kings_graph(4), 4, node_limit=10)

    def test_timeout(self):
        # zero budget forces the timeout path immediately
        g = complete_graph(10)
        with pytest.raises(OracleTimeout):
            exact_coloring(g, 9, time_budget=0.0)

    def test_rejects_zero_colors(self):
        with pytest.raises(ValueError):
            exact_coloring(kings_graph(2), 0)


class TestConstructiveKingsColoring:
    def test_single(self):
        assert constructive_kings_coloring(1) == [0]

    def test_2x2_block(self):
        assert constructive_kings_coloring(2) == [0, 1, 2, 3]

    def test_7x7_proper(self):
        g = kings_graph(7)
        coloring = constructive_kings_coloring(7)
        assert potts_energy(g, coloring) == 0.0

    @pytest.mark.parametrize("side", [3, 5, 10, 25, 50])
    def test_proper_for_all_sides(self, side):
        g = kings_graph(side)
        coloring = constructive_kings_coloring(side)
        assert proper(g, coloring, 4)


def exhaustive_maxcut(graph):
    """Independent oracle: plain itertools enumeration."""
    best = -1.0
    for labels in itertools.product([0, 1], repeat=graph.n):
        best = max(best, cut_value(graph, np.array(labels)))
    return best


class TestBruteForceMaxcut:
    def test_single_edge(self):
        cut, labels = brute_force_maxcut(Graph(2, [(0, 1, 1.0)]))
        assert cut == 1.0
        assert labels[0] != labels[1]

    def test_triangle(self):
        cut, _ = brute_force_maxcut(complete_graph(3))
        assert cut == 2.0

    def test_k4_balanced_split(self):
        cut, labels = brute_force_maxcut(complete_graph(4))
        assert cut == 4.0
        assert sorted(np.bincount(labels, minlength=2).tolist()) == [2, 2]

    def test_matches_exhaustive_on_random_graphs(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            edges = [
                (i, j, float(rng.uniform(0.1, 2.0)))
                for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6
            ]
            g = Graph(n, edges)
            cut, labels = brute_force_maxcut(g)
            assert cut == pytest.approx(exhaustive_maxcut(g))
            assert cut_value(g, labels) == pytest.approx(cut)

    def test_flip_symmetry(self):
        g = kings_graph(3)
        cut, labels = brute_force_maxcut(g)
        assert cut_value(g, 1 - labels) == pytest.approx(cut)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            brute_force_maxcut(complete_graph(25))


class TestStripeCutValue:
    def test_side2_matches_brute_force(self):
        assert stripe_cut_value(2) == 4
        assert brute_force_maxcut(kings_graph(2))[0] == 4.0

    def test_side3_matches_brute_force(self):
        assert stripe_cut_value(3) == 14
        assert brute_force_maxcut(kings_graph(3))[0] == 14.0

    def test_side7_formula(self):
        assert stripe_cut_value(7) == 42 + 72 == 114

    def test_stripe_partition_achieves_it(self):
        for side in (2, 3, 6, 9):
            g = kings_graph(side)
            labels = np.array([(v // side) % 2 for v in range(g.n)])
            assert cut_value(g, labels) == stripe_cut_value(side)

    def test_rejects_side_below_two(self):
        with pytest.raises(ValueError):
            stripe_cut_value(1)
