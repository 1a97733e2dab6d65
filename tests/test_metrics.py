import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from pottsim.graph import Graph, kings_graph
from pottsim.hamiltonian import potts_energy
from pottsim.metrics import (
    _ranks,
    aggregate,
    coloring_accuracy,
    cut_accuracy,
    cut_value,
    hamming,
    hamming_min_rotation,
)
from pottsim.oracle import constructive_kings_coloring, cut_baseline, stripe_cut_value
from pottsim.scheduler import SolveResult

EDGE = Graph(2, [(0, 1, 1.0)])
# accuracy-like values on a coarse grid, so that ties are common
GRID = st.integers(0, 12).map(lambda i: 0.5 + i / 24)
TRIANGLE = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


def make_result(coloring, cut_acc=1.0, col_acc=None, seed=0, graph=None):
    coloring = np.asarray(coloring)
    if col_acc is None:
        col_acc = coloring_accuracy(graph, coloring)
    return SolveResult(
        seed=seed,
        partition=coloring % 2,
        coloring=coloring,
        cut_accuracy=cut_acc,
        coloring_accuracy=col_acc,
        wall_time=0.0,
    )


class TestColoringAccuracy:
    def test_proper(self):
        g = kings_graph(7)
        assert coloring_accuracy(g, constructive_kings_coloring(7)) == 1.0

    def test_monochromatic(self):
        assert coloring_accuracy(TRIANGLE, [2, 2, 2]) == 0.0

    def test_one_violation_on_kings7(self):
        g = kings_graph(7)
        coloring = np.array(constructive_kings_coloring(7))
        # recolor a corner to its right neighbor's color: breaks exactly 1 edge
        coloring[0] = coloring[1]
        assert coloring_accuracy(g, coloring) == pytest.approx(155 / 156)

    def test_empty_edge_set(self):
        assert coloring_accuracy(Graph(3, []), [0, 0, 0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            coloring_accuracy(EDGE, [0])

    @pytest.mark.parametrize("shape", [(3, 2), ()])
    def test_rejects_other_shapes(self, shape):
        # a (3, 2) coloring used to score 2.0
        with pytest.raises(ValueError, match=re.escape(f"coloring has shape {shape}, need (3,)")):
            coloring_accuracy(TRIANGLE, np.zeros(shape, dtype=np.int64))

    @pytest.mark.parametrize("coloring", [np.full(9, np.nan), np.zeros(9), np.zeros(9, dtype=bool)],
                             ids=["nan", "float", "bool"])
    def test_rejects_a_coloring_that_is_not_integer(self, coloring):
        # an all-NaN coloring used to score 1.0: NaN differs from itself
        with pytest.raises(ValueError, match="coloring must be an integer array"):
            coloring_accuracy(kings_graph(3), coloring)

    def test_empty_list_coloring(self):
        # np.asarray([]) is float64; an empty coloring holds no non-integer label
        assert coloring_accuracy(Graph(0, []), []) == 1.0

    def test_one_iff_zero_potts_energy(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            edges = [
                (i, j, 1.0)
                for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
            ]
            g = Graph(n, edges)
            coloring = rng.integers(0, 4, n)
            assert (coloring_accuracy(g, coloring) == 1.0) == (
                potts_energy(g, coloring) == 0.0
            )


class TestCutAccuracy:
    def test_single_edge(self):
        assert cut_accuracy(EDGE, [0, 1], 1.0) == 1.0

    def test_triangle(self):
        assert cut_accuracy(TRIANGLE, [0, 1, 1], 2.0) == 1.0
        assert cut_accuracy(TRIANGLE, [0, 0, 0], 2.0) == 0.0

    def test_kings3_stripe(self):
        g = kings_graph(3)
        labels = [(v // 3) % 2 for v in range(9)]
        assert cut_accuracy(g, labels, stripe_cut_value(3)) == 1.0

    def test_rejects_nonpositive_baseline(self):
        with pytest.raises(ValueError):
            cut_accuracy(EDGE, [0, 1], 0.0)

    @pytest.mark.parametrize("shape", [(1, 3), ()])
    def test_cut_value_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"partition has shape {shape}, need (3,)")):
            cut_value(TRIANGLE, np.zeros(shape, dtype=np.int64))

    def test_edgeless_is_one(self):
        assert cut_accuracy(Graph(3, []), [0, 0, 1], 0.0) == 1.0

    def test_edgeless_graph_still_checks_the_partition(self):
        # the edgeless shortcut used to return 1.0 before any check ran
        with pytest.raises(ValueError, match=re.escape("partition has shape (1,), need (3,)")):
            cut_accuracy(Graph(3, []), [0], 0.0)
        with pytest.raises(ValueError, match="partition must hold only the labels 0 and 1"):
            cut_accuracy(Graph(3, []), [7, 8, 9], 0.0)

    @pytest.mark.parametrize("partition", [[0, 1, 2], [0, 1, -1], [0.0, np.nan, 1.0]])
    def test_rejects_labels_other_than_0_and_1(self, partition):
        # [0, 1, 2] cuts all three edges and used to score 1.5 against the exact 2
        with pytest.raises(ValueError, match="partition must hold only the labels 0 and 1"):
            cut_value(TRIANGLE, partition)
        with pytest.raises(ValueError, match="partition must hold only the labels 0 and 1"):
            cut_accuracy(TRIANGLE, partition, cut_baseline(TRIANGLE)[0])

    @pytest.mark.parametrize("partition", [[0, 1, 1], [False, True, True], [0.0, 1.0, 1.0]])
    def test_accepts_any_0_1_labels(self, partition):
        assert cut_value(TRIANGLE, partition) == 2.0

    def test_can_exceed_one(self):
        # non-optimal baseline is allowed; value is reported as-is
        assert cut_accuracy(EDGE, [0, 1], 0.5) == 2.0


def loop_cut_sum(graph, labels=None, weights=None):
    """Reference: a Python loop over the edges in order, from 0.0."""
    total = 0.0
    for i, j, w in zip(graph.ei, graph.ej, graph.w if weights is None else weights):
        if labels is None or labels[i] != labels[j]:
            total += float(w)
    return total


def same_bits(a, b):
    return np.array_equal(np.asarray(a, dtype=np.float64).view(np.int64),
                          np.asarray(b, dtype=np.float64).view(np.int64))


class TestCutSums:
    """Graph.cut_sums adds each cut edge's weight in edge order from 0.0."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                           st.floats(-1e3, 1e3)), max_size=80),
        st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=1, max_size=5),
    )))
    def test_rows_equal_an_edge_loop(self, case):
        n, raw, rows = case
        seen, edges = set(), []
        for i, j, w in raw:
            if i != j and (min(i, j), max(i, j)) not in seen:
                seen.add((min(i, j), max(i, j)))
                edges.append((i, j, w))
        graph = Graph(n, edges)
        sums = graph.cut_sums(np.array(rows))
        assert sums.shape == (len(rows),)
        assert same_bits(sums, [loop_cut_sum(graph, row) for row in rows])
        binary = [label % 2 for label in rows[0]]  # cut_value takes 0/1 partitions only
        assert same_bits(cut_value(graph, binary), loop_cut_sum(graph, binary))
        positive = np.maximum(graph.w, 0.0)
        assert same_bits(graph.cut_sums(weights=positive), loop_cut_sum(graph, None, positive))

    def test_chunks_and_leading_axes(self):
        # 3000 rows of K24 span several chunks of about 2^18 terms
        rng = np.random.default_rng(5)
        graph = Graph(24, [(i, j, float(rng.normal())) for i in range(24) for j in range(i + 1, 24)])
        rows = rng.integers(0, 2, (3, 1000, 24))
        sums = graph.cut_sums(rows)
        assert sums.shape == (3, 1000)
        want = [loop_cut_sum(graph, row) for row in rows.reshape(-1, 24)]
        assert same_bits(sums.reshape(-1), want)

    def test_sums_start_from_zero(self):
        # -0.0 terms alone sum to +0.0, as when added to 0.0
        graph = Graph(3, [(0, 1, -0.0), (1, 2, -0.0)])
        assert same_bits(graph.cut_sums([0, 1, 0]), 0.0)
        assert same_bits(graph.cut_sums(), 0.0)
        assert same_bits(Graph(3, []).cut_sums(np.zeros((2, 3))), [0.0, 0.0])

    @pytest.mark.parametrize("weights", [(1e16, 1.0, 1.0), (1.0, 1.0, 1e16)])
    def test_order_is_edge_order(self, weights):
        # (1e16 + 1) + 1 and (1 + 1) + 1e16 round differently
        graph = Graph(4, [(0, 1, weights[0]), (1, 2, weights[1]), (2, 3, weights[2])])
        want = (weights[0] + weights[1]) + weights[2]
        assert want != weights[0] + (weights[1] + weights[2])
        assert graph.cut_sums([0, 1, 0, 1]) == want

    @pytest.mark.parametrize("labels", [[0, 1], np.zeros((2, 3)), np.zeros((4, 1))])
    def test_rejects_labels_of_another_length(self, labels):
        with pytest.raises(ValueError, match=r"need \(\.\.\., 4\)"):
            Graph(4, [(0, 1, 1.0)]).cut_sums(labels)

    @pytest.mark.parametrize("weights", [[1.0, 2.0], [1.0] * 4, [[1.0, 2.0, 3.0]], 1.0])
    @pytest.mark.parametrize("labels", [None, [0, 1, 0, 1]])
    def test_rejects_weights_of_another_shape(self, labels, weights):
        graph = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError, match=r"weights has shape .*, need \(3,\)"):
            graph.cut_sums(labels, weights=weights)


class TestHamming:
    def test_identical(self):
        assert hamming([0, 1, 2], [0, 1, 2]) == 0
        assert hamming_min_rotation([0, 1, 2], [0, 1, 2], 4) == 0

    def test_global_rotation(self):
        c1 = np.array([0, 1, 2, 3, 0])
        c2 = (c1 + 1) % 4
        assert hamming(c1, c2) == 5
        assert hamming_min_rotation(c1, c2, 4) == 0

    def test_single_difference(self):
        assert hamming([0, 1], [0, 2]) == 1

    def test_rejects_colorings_of_unequal_shape(self):
        with pytest.raises(ValueError, match=re.escape("c2 has shape (2,), need (3,)")):
            hamming([0, 1, 2], [0, 1])

    def test_rotation_never_exceeds_raw(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            c1, c2 = rng.integers(0, 4, n), rng.integers(0, 4, n)
            raw = hamming(c1, c2)
            rotated = hamming_min_rotation(c1, c2, 4)
            assert 0 <= rotated <= raw <= n

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming([0], [0, 1])

    @given(st.integers(2, 8).flatmap(lambda k: st.tuples(
        st.just(k),
        st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=30),
        st.integers(0, k - 1),
    )))
    def test_rotation_bounds(self, case):
        k, pairs, r = case
        c1 = np.array([a for a, _ in pairs], dtype=np.int64)
        c2 = np.array([b for _, b in pairs], dtype=np.int64)
        rotated = hamming_min_rotation(c1, c2, k)
        assert 0 <= rotated <= hamming(c1, c2) <= len(pairs)
        # relabelling c2 by a rotation does not change the minimum
        assert hamming_min_rotation(c1, (c2 + r) % k, k) == rotated

    def test_rotation_rejects_no_colors(self):
        with pytest.raises(ValueError, match=r"k must be an integer >= 1 \(not bool\)"):
            hamming_min_rotation([0, 1], [1, 0], 0)

    @pytest.mark.parametrize("k", [True, 2.5, 2.0, "2", None], ids=repr)
    def test_rotation_rejects_a_count_that_is_not_an_integer(self, k):
        with pytest.raises(ValueError, match=r"k must be an integer >= 1 \(not bool\)"):
            hamming_min_rotation([0, 1], [1, 0], k)

    def test_rotation_accepts_a_numpy_integer(self):
        assert hamming_min_rotation([0, 1], [1, 0], np.int64(2)) == 0

    @pytest.mark.parametrize("bad", [[np.nan], [0.0], [True]], ids=["nan", "float", "bool"])
    def test_rejects_a_coloring_that_is_not_integer(self, bad):
        # hamming([nan], [nan]) used to return 1: NaN differs from itself
        for c1, c2, name in ((bad, [0], "c1"), ([0], bad, "c2"), (bad, bad, "c[12]")):
            with pytest.raises(ValueError, match=f"{name} must be an integer array, got dtype"):
                hamming(c1, c2)
            with pytest.raises(ValueError, match=f"{name} must be an integer array, got dtype"):
                hamming_min_rotation(c1, c2, 2)


    def test_empty_list_colorings(self):
        assert hamming([], []) == 0
        assert hamming_min_rotation([], [], 4) == 0


class TestAggregate:
    def test_single_result(self):
        g = kings_graph(2)
        res = make_result([0, 1, 2, 3], cut_acc=0.9, graph=g)
        stats = aggregate([res], g)
        assert stats.best_accuracy == stats.mean_accuracy == 1.0
        assert stats.hamming_matrix.shape == (1, 1)
        assert stats.hamming_matrix[0, 0] == 0
        assert stats.correlation_degenerate
        assert stats.stage_correlation == 0.0

    def test_identical_pair(self):
        g = kings_graph(2)
        results = [make_result([0, 1, 2, 3], graph=g, seed=s) for s in (1, 2)]
        stats = aggregate(results, g)
        assert stats.hamming_matrix[0, 1] == 0

    def test_perfect_correlation(self):
        g = TRIANGLE
        results = [
            make_result([0, 1, 2], cut_acc=0.8, col_acc=0.8, graph=g),
            make_result([0, 1, 0], cut_acc=0.9, col_acc=0.9, graph=g),
            make_result([0, 1, 1], cut_acc=1.0, col_acc=1.0, graph=g),
        ]
        stats = aggregate(results, g)
        assert not stats.correlation_degenerate
        assert stats.stage_correlation == pytest.approx(1.0)
        assert stats.spearman_correlation == pytest.approx(1.0)

    def test_permutation_covariance(self):
        g = TRIANGLE
        results = [
            make_result([0, 1, 2], cut_acc=0.7, col_acc=1.0, graph=g, seed=1),
            make_result([0, 0, 0], cut_acc=0.9, col_acc=0.0, graph=g, seed=2),
            make_result([0, 1, 1], cut_acc=1.0, col_acc=2 / 3, graph=g, seed=3),
        ]
        fwd = aggregate(results, g)
        rev = aggregate(results[::-1], g)
        assert fwd.best_accuracy == rev.best_accuracy
        assert fwd.mean_accuracy == rev.mean_accuracy
        assert fwd.stage_correlation == pytest.approx(rev.stage_correlation)
        assert np.array_equal(fwd.hamming_matrix, rev.hamming_matrix[::-1, ::-1])

    @pytest.mark.parametrize("cut,col,want", [
        ((0.392, 0.89), (0.227, 0.623), 1.0),
        ((0.084, 0.833), (0.787, 0.239), -1.0),
    ])
    def test_two_iterations_correlate_exactly(self, cut, col, want):
        # np.corrcoef gives 0.9999999999999998 and -0.9999999999999997 here
        results = [make_result([0, 1], cut_acc=c, col_acc=a, seed=s)
                   for s, (c, a) in enumerate(zip(cut, col))]
        stats = aggregate(results, EDGE)
        assert not stats.correlation_degenerate
        assert stats.stage_correlation == stats.spearman_correlation == want

    @given(st.integers(2, 60).flatmap(lambda m: st.lists(
        st.tuples(GRID, GRID), min_size=m, max_size=m)))
    def test_correlations_match_scipy(self, pairs):
        results = [make_result([0, 1], cut_acc=c, col_acc=a, seed=s)
                   for s, (c, a) in enumerate(pairs)]
        stats = aggregate(results, EDGE)
        cut, col = np.array(pairs).T
        if np.all(cut == cut[0]) or np.all(col == col[0]):
            assert stats.correlation_degenerate
            assert stats.stage_correlation == stats.spearman_correlation == 0.0
        else:
            assert not stats.correlation_degenerate
            assert abs(stats.stage_correlation - sps.pearsonr(cut, col).statistic) <= 1e-13
            assert abs(stats.spearman_correlation - sps.spearmanr(cut, col).statistic) <= 1e-13

    @given(st.lists(GRID, min_size=1, max_size=60))
    def test_ranks_equal_scipy_rankdata(self, values):
        values = np.array(values)
        assert np.array_equal(_ranks(values), sps.rankdata(values))

    def test_hamming_matrix_symmetric_zero_diagonal(self):
        g = kings_graph(2)
        rng = np.random.default_rng(5)
        results = [make_result(rng.integers(0, 4, 4), graph=g, seed=s) for s in range(6)]
        stats = aggregate(results, g)
        assert np.array_equal(stats.hamming_matrix, stats.hamming_matrix.T)
        assert np.all(np.diag(stats.hamming_matrix) == 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], EDGE)

    def test_mismatched_graph_rejected(self):
        g = kings_graph(2)
        with pytest.raises(ValueError):
            aggregate([make_result([0, 1], col_acc=1.0)], g)

    def test_names_the_result_that_does_not_fit(self):
        results = [make_result([0, 1, 2, 3], col_acc=1.0), make_result([0, 1], col_acc=1.0)]
        with pytest.raises(ValueError, match=re.escape(
                "results[1].coloring has shape (2,), need (4,)")):
            aggregate(results, kings_graph(2))

    @pytest.mark.parametrize("g", [
        kings_graph(3), kings_graph(7), Graph(30, [(i, i + 1, 1.0) for i in range(29)]),
    ], ids=["kings3", "kings7", "path30"])
    def test_cut_baseline_note_read_from_graph(self, g):
        results = [make_result(np.arange(g.n) % 2, graph=g)]
        assert aggregate(results, g).cut_baseline_note == cut_baseline(g)[1]


class TestSerialization:
    def test_stats_json_and_csv(self, tmp_path):
        g = kings_graph(2)
        results = [
            make_result([0, 1, 2, 3], cut_acc=0.8, graph=g, seed=1),
            make_result([1, 0, 3, 2], cut_acc=1.0, graph=g, seed=2),
        ]
        stats = aggregate(results, g)
        stats.to_json(tmp_path / "stats.json")
        doc = json.loads((tmp_path / "stats.json").read_text())
        assert doc["best_accuracy"] == 1.0
        assert len(doc["per_iteration"]) == 2
        assert doc["hamming_matrix"][0][1] == 4

        stats.to_csv(tmp_path / "stats.csv")
        lines = (tmp_path / "stats.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,seed,cut_accuracy,coloring_accuracy"
        assert len(lines) == 4  # header + 2 iterations + summary

    def test_solve_result_round_trip(self):
        res = make_result([0, 1, 2, 3], cut_acc=0.75, col_acc=1.0, seed=9)
        doc = json.loads(json.dumps(res.to_dict()))
        back = SolveResult.from_dict(doc)
        assert back.seed == 9
        assert np.array_equal(back.coloring, res.coloring)
        assert np.array_equal(back.partition, res.partition)
        assert back.cut_accuracy == res.cut_accuracy

    def test_from_dict_rejects_other_schema_version(self):
        doc = make_result([0, 1], col_acc=1.0).to_dict()
        doc["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            SolveResult.from_dict(doc)

    def test_from_dict_rejects_missing_key(self):
        doc = make_result([0, 1], col_acc=1.0).to_dict()
        del doc["partition"]
        with pytest.raises(ValueError, match="partition"):
            SolveResult.from_dict(doc)

    def test_from_dict_rejects_a_non_object(self):
        with pytest.raises(ValueError, match="a result must be a JSON object"):
            SolveResult.from_dict([1])

    def test_from_dict_ignores_wall_time(self):
        doc = make_result([0, 1], col_acc=1.0).to_dict()
        doc["wall_time"] = "abc"
        assert SolveResult.from_dict(doc).wall_time == 0.0

    def test_to_dict_writes_a_numpy_seed_as_an_int(self):
        doc = make_result([0, 1], col_acc=1.0, seed=np.uint64(2**64 - 1)).to_dict()
        assert type(doc["seed"]) is int and json.loads(json.dumps(doc))["seed"] == 2**64 - 1

    def test_timing_excluded_by_default(self):
        res = make_result([0, 1], col_acc=1.0)
        assert "wall_time" not in res.to_dict()


class TestImportCost:
    def test_import_leaves_scipy_stats_unloaded(self):
        code = "import sys, pottsim; print('scipy.stats' in sys.modules)"
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_run_batch_loads_no_scipy(self):
        code = (
            "import sys, pottsim; from pottsim.cli import RunConfig, run_batch\n"
            "stats = run_batch(pottsim.kings_graph(7), RunConfig(iterations=40))[1]\n"
            "assert not stats.correlation_degenerate\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
