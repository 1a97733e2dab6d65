import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pottsim.graph import Graph, kings_graph
from pottsim.hamiltonian import potts_energy
from pottsim.metrics import cut_accuracy, cut_value
from pottsim.oracle import (
    OracleTimeout,
    brute_force_maxcut,
    constructive_kings_coloring,
    cut_baseline,
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


# The search exact_coloring ran on Python lists, sets and undo lists before it
# moved to color-count arrays, kept verbatim: its witnesses are the spec.
def reference_exact_coloring(
    graph: Graph,
    k: int,
    node_limit: int = 10_000,
    time_budget: float | None = None,
) -> list[int] | None:
    """Return a proper k-coloring if one exists, else None.

    Backtracking over a DSATUR order (most saturated, then highest degree).
    Exact but potentially slow on adversarial graphs, hence the node limit
    and optional wall-clock budget.
    """
    if k < 1:
        raise ValueError("need at least one color")
    if graph.n > node_limit:
        raise ValueError(f"graph has {graph.n} nodes, above node_limit={node_limit}")
    if graph.n == 0:
        return []

    adj = [[] for _ in range(graph.n)]
    for i, j, _ in graph.edges:
        adj[i].append(j)
        adj[j].append(i)
    degree = [len(a) for a in adj]

    colors = [-1] * graph.n
    neighbor_colors = [set() for _ in range(graph.n)]
    deadline = None if time_budget is None else time.monotonic() + time_budget

    def pick_node():
        best, best_key = -1, None
        for v in range(graph.n):
            if colors[v] != -1:
                continue
            key = (len(neighbor_colors[v]), degree[v])
            if best_key is None or key > best_key:
                best, best_key = v, key
        return best

    def assign(v, c):
        colors[v] = c
        touched = []
        for u in adj[v]:
            if colors[u] == -1 and c not in neighbor_colors[u]:
                neighbor_colors[u].add(c)
                touched.append(u)
        return touched

    def unassign(v, c, touched):
        colors[v] = -1
        for u in touched:
            neighbor_colors[u].discard(c)

    # Depth-first search with an explicit stack, one frame per colored node:
    # [node, colors in use before it, next color to try, nodes its current
    # color touched]. Frames try colors in the order a recursive search would.
    frames = []
    used = 0
    descend = True
    while True:
        if descend:
            if deadline is not None and time.monotonic() > deadline:
                raise OracleTimeout(f"exceeded {time_budget}s searching for a {k}-coloring")
            if len(frames) == graph.n:
                return colors
            frames.append([pick_node(), used, 0, None])
        frame = frames[-1]
        v, used_before, c, touched = frame
        if touched is not None:
            unassign(v, c - 1, touched)
        # symmetry breaking: at most one brand-new color is worth trying
        limit = min(used_before + 1, k)
        while c < limit and c in neighbor_colors[v]:
            c += 1
        if c < limit:
            frame[2], frame[3] = c + 1, assign(v, c)
            used = max(used_before, c + 1)
            descend = True
        else:
            frames.pop()
            if not frames:
                return None
            descend = False


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, [(i, j, 1.0) for i, j in chosen])


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

    @pytest.mark.parametrize("side", [32, 46, 100])
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

    @pytest.mark.parametrize("k", [2.5, 4.0, True, "4", None, -1])
    def test_rejects_k_that_is_not_a_positive_integer(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            exact_coloring(kings_graph(2), k)

    @pytest.mark.parametrize("node_limit", [math.nan, math.inf, 10.0, True, "10", None, -1])
    def test_rejects_node_limit_that_is_not_a_nonnegative_integer(self, node_limit):
        with pytest.raises(ValueError, match="node_limit must be an integer"):
            exact_coloring(kings_graph(2), 4, node_limit=node_limit)

    def test_accepts_numpy_integer_node_limit(self):
        assert exact_coloring(kings_graph(2), 4, node_limit=np.int64(4)) == [0, 1, 2, 3]

    def test_accepts_numpy_integer_k(self):
        assert exact_coloring(kings_graph(2), np.int64(4)) == [0, 1, 2, 3]

    @pytest.mark.parametrize("budget", [float("nan"), -1.0, -1])
    def test_rejects_nan_or_negative_time_budget(self, budget):
        with pytest.raises(ValueError, match="time_budget"):
            exact_coloring(kings_graph(2), 4, time_budget=budget)

    @pytest.mark.parametrize("budget", [True, False, "1", np.bool_(True)], ids=repr)
    def test_rejects_bool_or_string_time_budget(self, budget):
        with pytest.raises(ValueError, match=r"time_budget must be nonnegative \(a real number"):
            exact_coloring(kings_graph(2), 4, time_budget=budget)

    def test_infinite_time_budget_means_no_limit(self):
        assert exact_coloring(kings_graph(7), 4, time_budget=float("inf")) is not None

    def test_empty_graph(self):
        assert exact_coloring(Graph(0, []), 1) == []

    def test_huge_k_answers_like_max_degree_plus_one(self):
        # only max degree + 1 = 9 colors are ever tried, so this allocates little
        g = kings_graph(20)
        assert exact_coloring(g, 10**9) == exact_coloring(g, 9)


class TestSameWitnessesAsReference:
    """exact_coloring returns reference_exact_coloring's witness, None included."""

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(), st.integers(1, 5))
    def test_small_graphs(self, graph, k):
        assert exact_coloring(graph, k) == reference_exact_coloring(graph, k)

    # k = 3 is left out: every 2 x 2 block is a K4, and the search is exponential
    @pytest.mark.parametrize("k", [1, 2, 4, 5])
    @pytest.mark.parametrize("side", range(1, 21))
    def test_kings(self, side, k):
        graph = kings_graph(side)
        assert exact_coloring(graph, k) == reference_exact_coloring(graph, k)


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

    @pytest.mark.parametrize("side", [0, True, 2.5, 3.0, "3"], ids=repr)
    def test_rejects_a_side_that_is_not_a_positive_integer(self, side):
        with pytest.raises(ValueError, match=r"side must be an integer >= 1 \(not bool\)"):
            constructive_kings_coloring(side)


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
            # one edge-order sum throughout, so equal bit for bit
            assert cut == exhaustive_maxcut(g)
            assert cut_value(g, labels) == cut

    def test_flip_symmetry(self):
        g = kings_graph(3)
        cut, labels = brute_force_maxcut(g)
        assert cut_value(g, 1 - labels) == cut

    def test_size_limit(self):
        with pytest.raises(ValueError):
            brute_force_maxcut(complete_graph(25))


def enumerate_maxcut(graph, chunk=1 << 16):
    """Reference: the plain enumeration brute_force_maxcut must reproduce.

    Node 0 stays on side 0; every mask's cut is summed over the edges in
    order from 0.0, chunk by chunk, and the first strictly larger chunk
    maximum wins, so the result is the smallest mask reaching the largest
    edge-order sum.
    """
    if graph.n == 0:
        return 0.0, np.zeros(0, dtype=np.int64)
    n_masks = 1 << max(graph.n - 1, 0)
    best_cut, best_mask = -1.0, 0
    si = graph.ei - 1
    sj = graph.ej - 1
    for start in range(0, n_masks, chunk):
        masks = np.arange(start, min(start + chunk, n_masks), dtype=np.int64)
        cuts = np.zeros(len(masks))
        for e in range(graph.edge_count):
            bi = (masks >> si[e]) & 1 if si[e] >= 0 else 0
            bj = (masks >> sj[e]) & 1
            cuts += graph.w[e] * (bi != bj)
        k = int(np.argmax(cuts))
        if cuts[k] > best_cut:
            best_cut, best_mask = float(cuts[k]), int(masks[k])
    labels = np.zeros(graph.n, dtype=np.int64)
    for v in range(1, graph.n):
        labels[v] = (best_mask >> (v - 1)) & 1
    return best_cut, labels


def assert_same_as_enumeration(graph):
    value, labels = brute_force_maxcut(graph)
    want_value, want_labels = enumerate_maxcut(graph)
    assert type(value) is float
    assert np.float64(value).view(np.int64) == np.float64(want_value).view(np.int64)
    assert labels.dtype == want_labels.dtype
    assert labels.tolist() == want_labels.tolist()


def planar_24_pairs():
    """A 4 x 6 grid with one diagonal per cell: planar, 24 nodes, 53 edges."""
    pairs = []
    for r in range(4):
        for c in range(6):
            v = 6 * r + c
            if c < 5:
                pairs.append((v, v + 1))
            if r < 3:
                pairs.append((v, v + 6))
            if r < 3 and c < 5:
                pairs.append((v, v + 7))
    return pairs


WEIGHTS = {
    "integer": st.integers(-3, 5).map(float),
    "float": st.floats(0.01, 10.0),
    "signed": st.floats(-10.0, 10.0, allow_nan=False),
    "tenths": st.sampled_from([0.1, 0.2, 0.3, -0.1, 0.7]),
}


@st.composite
def weighted_graphs(draw, weights):
    n = draw(st.integers(0, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, [(i, j, draw(weights)) for i, j in chosen])


class TestBruteForceMatchesEnumeration:
    """brute_force_maxcut returns the enumeration's (value, labels) bit for bit."""

    @pytest.mark.parametrize("kind", sorted(WEIGHTS))
    def test_random_graphs(self, kind):
        @settings(max_examples=60, deadline=None)
        @given(weighted_graphs(WEIGHTS[kind]))
        def check(graph):
            assert_same_as_enumeration(graph)

        check()

    @pytest.mark.parametrize("weights", [
        (0.1, 0.2, 0.3), (0.3, 0.2, 0.1), (0.2, 0.1, 0.3), (0.1, 0.2, -0.3), (1 / 3, 1 / 3, 2 / 3),
    ])
    def test_triangles_tied_in_real_arithmetic(self, weights):
        # 0.1 + 0.2 and 0.3 are equal cuts in the reals but not in floats
        edges = [(0, 1), (1, 2), (0, 2)]
        assert_same_as_enumeration(Graph(3, [(i, j, w) for (i, j), w in zip(edges, weights)]))
        # the same triangle hung off a tied 4-cycle
        square = [(3, 4, 0.1), (4, 5, 0.1), (5, 6, 0.1), (3, 6, 0.1), (0, 3, 0.2)]
        graph = Graph(7, [(i, j, w) for (i, j), w in zip(edges, weights)] + square)
        assert_same_as_enumeration(graph)

    # K18 spans two blocks of 2^16 masks, with optima tied across them
    @pytest.mark.parametrize("n", [*range(4, 11), 18])
    @pytest.mark.parametrize("weight", [1.0, 0.1, -1.0])
    def test_complete_graphs_with_many_tied_optima(self, n, weight):
        graph = Graph(n, [(i, j, weight) for i in range(n) for j in range(i + 1, n)])
        assert_same_as_enumeration(graph)

    @pytest.mark.parametrize("graph", [
        Graph(0, []), Graph(1, []), Graph(2, []), Graph(2, [(0, 1, -2.5)]), Graph(7, []),
    ], ids=["n0", "n1", "n2-edgeless", "n2-negative", "edgeless"])
    def test_tiny_and_edgeless(self, graph):
        assert_same_as_enumeration(graph)

    def test_integer_weights_beyond_exact_scores(self):
        # 4 * sum|w| >= 2^53: integer weights no longer score exactly
        big = 2.0**51
        graph = Graph(6, [(0, 1, big), (1, 2, 3.0), (2, 3, -big), (3, 4, 5.0), (0, 5, 1.0)])
        assert_same_as_enumeration(graph)
        # a cut whose sum rounds differently in another order
        graph = Graph(4, [(1, 2, 2.0**53 + 2), (0, 1, 1.0), (0, 3, 2.0**53), (2, 3, 2.0**52)])
        assert_same_as_enumeration(graph)

    @pytest.mark.parametrize("signed", [False, True], ids=["unit", "signed"])
    def test_planar_24_nodes(self, signed):
        pairs = planar_24_pairs()
        rng = np.random.default_rng(24)
        weights = rng.normal(size=len(pairs)).tolist() if signed else [1.0] * len(pairs)
        assert_same_as_enumeration(Graph(24, [(i, j, w) for (i, j), w in zip(pairs, weights)]))

    def test_k24_no_slower_than_enumeration(self):
        graph = complete_graph(24)
        t0 = time.perf_counter()
        value, labels = brute_force_maxcut(graph)
        elapsed = time.perf_counter() - t0
        # the enumeration's cost per chunk of 2^16 masks is proportional to
        # the edge count: K17 is one chunk with 136 edges, K24 is 128 chunks
        # with 276 edges each
        t0 = time.perf_counter()
        enumerate_maxcut(complete_graph(17))
        enumeration = (time.perf_counter() - t0) * 128 * 276 / 136
        assert value == 144.0
        # the smallest of the 1.35 M optimal masks puts nodes 1-12 on side 1
        assert labels.tolist() == [0] + [1] * 12 + [0] * 11
        assert elapsed < enumeration

    def test_exact_scores_re_sum_one_mask(self, monkeypatch):
        # unit weights score exactly: of the first block's 1820 top masks only
        # the first is re-summed, and no later block's top score beats it
        rows, cut_sums = [], Graph.cut_sums

        def spy(graph, labels=None, weights=None):
            rows.append(len(labels))
            return cut_sums(graph, labels, weights)

        monkeypatch.setattr(Graph, "cut_sums", spy)
        value, labels = brute_force_maxcut(complete_graph(24))
        assert (value, labels.tolist()) == (144.0, [0] + [1] * 12 + [0] * 11)
        assert rows == [1]

    # real weights: the screen must keep every mask the enumeration may pick
    @pytest.mark.parametrize("seed", range(6))
    def test_weights_spanning_the_float_range(self, seed):
        # 1e-300 vanishes next to 1e300, so whole families of masks tie
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 13))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        weights = rng.choice([1e-300, -1e-300, 3e-300, 1e300, -1e300, 0.5e300], size=len(pairs))
        assert_same_as_enumeration(Graph(n, [(i, j, w) for (i, j), w in zip(pairs, weights)]))

    @pytest.mark.parametrize("weights", [
        (1e300, 1e-300, 1e-300, 1e300), (1e-300, 1e300, -1e-300, 1e300), (1e-300,) * 4,
        (5e-324, 1e-310, 5e-324, 2.5e-308), (1e308, 1e308, 0.3), (1e308, -1e308, 1e308, 0.5),
        (-1e308, -1e308, 1e308, 1e308),
    ], ids=["big-first", "mixed-sign", "all-tiny", "subnormal", "overflow", "inf-minus-inf",
            "negative-overflow"])
    def test_square_at_float_extremes(self, weights):
        # where 16 S overflows the margin is unbounded and every mask is re-summed
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_as_enumeration(Graph(4, [(i, j, w) for (i, j), w in zip(edges, weights)]))

    def test_planar_24_nodes_tenths(self):
        # every weight 0.1: the unit graph's many optimal cuts tie in the
        # reals but not all in floating point
        pairs = planar_24_pairs()
        assert_same_as_enumeration(Graph(24, [(i, j, 0.1) for i, j in pairs]))

    @pytest.mark.parametrize("n", [16, 17, 18])
    @pytest.mark.parametrize("seed", range(2))
    def test_tenths_across_blocks(self, n, seed):
        # n = 18 has 2^17 masks, two blocks of 2^16
        rng = np.random.default_rng(100 * n + seed)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        weights = rng.choice([0.1, 0.2, 0.3, -0.1, 0.7], size=len(pairs))
        assert_same_as_enumeration(Graph(n, [(i, j, w) for (i, j), w in zip(pairs, weights)]))

    def test_signed_planar_24_nodes_ten_times_faster_than_enumeration(self):
        pairs = planar_24_pairs()
        weights = np.random.default_rng(24).normal(size=len(pairs))
        graph = Graph(24, [(i, j, w) for (i, j), w in zip(pairs, weights)])
        t0 = time.perf_counter()
        want = enumerate_maxcut(graph)
        enumeration = time.perf_counter() - t0
        elapsed = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            value, labels = brute_force_maxcut(graph)
            elapsed = min(elapsed, time.perf_counter() - t0)
        assert (value, labels.tolist()) == (want[0], want[1].tolist())
        assert elapsed < enumeration / 10


@st.composite
def signed_graphs(draw, nodes):
    """A dense graph on nodes with signed real weights, none of them 0."""
    n = draw(nodes)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    weight = st.floats(0.01, 10.0) | st.floats(-10.0, -0.01)
    return Graph(n, [(i, j, draw(weight)) for (i, j), k in zip(pairs, keep) if k])


def split_graph(n, seed):
    """A signed graph whose maximum cut cuts exactly its positive edges:
    positive weights across a random bipartition, negative ones inside it."""
    rng = np.random.default_rng(seed)
    side = rng.integers(0, 2, n)
    side[0] = 0
    edges = [
        (i, j, float(rng.uniform(0.01, 3.0)) * (1.0 if side[i] != side[j] else -1.0))
        for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3
    ]
    return Graph(n, edges), side


class TestOneCutOrder:
    """cut_value, brute_force_maxcut and the upper-bound normalizer sum a cut
    in one edge order, so an optimal cut scores exactly 1.0 and none more."""

    @settings(max_examples=150, deadline=None)
    @given(signed_graphs(st.integers(2, 14)))
    def test_exact_optimum_scores_exactly_one(self, graph):
        best, labels = brute_force_maxcut(graph)
        baseline, kind = cut_baseline(graph)
        assert np.float64(cut_value(graph, labels)).view(np.int64) == np.float64(best).view(np.int64)
        assume(baseline > 0)  # no cut accuracy exists against 0
        assert kind == "exact"
        assert cut_accuracy(graph, labels, baseline) == 1.0

    @pytest.mark.parametrize("n,seed", [(25, 0), (40, 1), (60, 2)])
    def test_upper_bound_reached_scores_exactly_one(self, n, seed):
        graph, side = split_graph(n, seed)
        baseline, kind = cut_baseline(graph)
        assert kind == "upper-bound"
        assert cut_value(graph, side) == baseline
        assert cut_accuracy(graph, side, baseline) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(signed_graphs(st.integers(2, 12)), signed_graphs(st.integers(25, 34))),
           st.data())
    def test_no_partition_beats_an_exact_or_upper_bound(self, graph, data):
        labels = data.draw(st.lists(st.integers(0, 1), min_size=graph.n, max_size=graph.n))
        baseline, kind = cut_baseline(graph)
        assert kind == ("exact" if graph.n <= 24 or not graph.edge_count else "upper-bound")
        assert cut_value(graph, labels) <= baseline
        assume(baseline > 0)
        assert cut_accuracy(graph, labels, baseline) <= 1.0


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

    @pytest.mark.parametrize("side", [True, 2.5, 3.0, "3"], ids=repr)
    def test_rejects_a_side_that_is_not_an_integer(self, side):
        with pytest.raises(ValueError, match=r"side must be an integer >= 2 \(not bool\)"):
            stripe_cut_value(side)
