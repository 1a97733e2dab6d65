import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from pottsim.cli import RunConfig, run_batch
from pottsim.dynamics import DynamicsParams, PhaseState, step
from pottsim.graph import Graph, kings_graph
from pottsim.metrics import coloring_accuracy
from pottsim.oracle import cut_baseline, exact_coloring
from pottsim.scheduler import (
    WINDOW_KINDS,
    StagePlan,
    WindowEvent,
    _resolve_cut_baseline,
    assign_shil,
    gate_couplings,
    lock_readout,
    partition_from_phases,
    quantize_phase,
    quantize_phases,
    solve_4coloring,
    solve_batch,
    solve_kcoloring,
)

EDGE = Graph(2, [(0, 1, 1.0)])
TRIANGLE = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
FOUR_CYCLE = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
K8 = Graph(8, [(i, j, 1.0) for i in range(8) for j in range(i + 1, 8)])


class TestQuantizePhase:
    def test_near_quarter(self):
        assert quantize_phase(1.6, 4) == 1

    def test_wraparound(self):
        assert quantize_phase(2 * math.pi - 0.01, 4) == 0

    def test_tie_breaks_low(self):
        assert quantize_phase(math.pi / 4, 4) == 0
        assert quantize_phase(3 * math.pi / 4, 4) == 1
        assert quantize_phase(math.pi / 2, 2) == 0

    def test_negative_input_wrapped(self):
        assert quantize_phase(-0.01, 4) == 0

    def test_rejects_single_level(self):
        with pytest.raises(ValueError):
            quantize_phase(0.0, 1)

    @pytest.mark.parametrize("k", [2.5, 4.0, True, "4", None])
    def test_rejects_levels_that_are_not_an_integer(self, k):
        with pytest.raises(ValueError, match="k must be an integer >= 2"):
            quantize_phases(np.array([0.0, 1.0]), k)

    @pytest.mark.parametrize("read", [
        lambda: quantize_phase(math.nan, 4),
        lambda: quantize_phases([math.inf, 1.0], 4),
        lambda: lock_readout(np.array([0.0, -math.inf]), 0.0, 0.1),
        lambda: partition_from_phases(PhaseState(np.array([math.nan, 0.0]))),
    ], ids=["quantize_phase-nan", "quantize_phases-inf", "lock_readout", "partition"])
    def test_rejects_nonfinite_phases(self, read):
        # a NaN phase used to read as label 0
        with pytest.raises(ValueError, match="phases must be finite, got NaN or inf"):
            read()

    @pytest.mark.parametrize("value", [1j, "a"], ids=["complex", "str"])
    def test_rejects_what_is_not_real(self, value):
        with pytest.raises(ValueError, match="phases must be a real array, got dtype"):
            quantize_phases([0.5, value], 4)

    def test_accepts_numpy_integer_levels(self):
        assert quantize_phases(np.array([0.0, math.pi]), np.int64(2)).tolist() == [0, 1]

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(9)
        thetas = rng.uniform(-10, 10, 50)
        for k in (2, 4, 8):
            vec = quantize_phases(thetas, k)
            assert all(vec[i] == quantize_phase(t, k) for i, t in enumerate(thetas))


    @given(st.floats(-100.0, 100.0), st.integers(-50, 50), st.sampled_from([2, 4, 8]))
    def test_invariant_under_full_turns(self, theta, turns, k):
        # away from the ties midway between levels, where rounding may pick either side
        frac = (theta * k / (2 * math.pi)) % 1.0
        assume(abs(frac - 0.5) > 1e-9)
        shifted = theta + turns * 2 * math.pi
        want = quantize_phase(theta, k)
        assert quantize_phases(np.array([shifted, theta]), k).tolist() == [want, want]


class TestPartitionFromPhases:
    def test_locked_pair(self):
        labels, locked = partition_from_phases(PhaseState(np.array([0.02, 3.13])), 0.1)
        assert list(labels) == [0, 1]
        assert locked

    def test_exact_phases(self):
        labels, locked = partition_from_phases(PhaseState(np.array([0.0, math.pi])))
        assert list(labels) == [0, 1]
        assert locked

    def test_unlocked_detection(self):
        labels, locked = partition_from_phases(
            PhaseState(np.array([0.0, math.pi / 2])), 0.1
        )
        assert labels[0] == 0
        assert labels[1] in (0, 1)
        assert not locked

    def test_tolerance_range(self):
        state = PhaseState(np.array([0.0]))
        with pytest.raises(ValueError):
            partition_from_phases(state, 0.0)
        with pytest.raises(ValueError):
            partition_from_phases(state, math.pi)

    def test_rejects_more_than_one_row(self):
        # one locked flag per row: a (B, n) state used to fail inside bool()
        with pytest.raises(ValueError, match=re.escape("state.phases has shape (2, 3), need (3,)")):
            partition_from_phases(PhaseState(np.zeros((2, 3))))

    @pytest.mark.parametrize("tolerance", [True, "0.1", math.nan], ids=repr)
    def test_rejects_a_tolerance_that_is_not_a_real_number(self, tolerance):
        with pytest.raises(ValueError, match=r"tolerance must be positive and finite \(a real"):
            partition_from_phases(PhaseState(np.array([0.0])), tolerance)


class TestLockReadout:
    @pytest.mark.parametrize("tolerance", [-1.0, 0.0, math.nan, True, "0.1", math.pi / 2, math.inf],
                             ids=repr)
    def test_rejects_a_tolerance_outside_the_open_quarter_turn(self, tolerance):
        # a negative or NaN tolerance used to read every row as unlocked
        with pytest.raises(ValueError, match=r"tolerance must (be positive|lie in \(0, pi/2\))"):
            lock_readout(np.zeros((1, 2)), 0.0, tolerance)


class TestGateCouplings:
    def test_cross_edge_off(self):
        assert list(gate_couplings(EDGE, [0, 1]).active) == [False]

    def test_same_label_on(self):
        assert list(gate_couplings(EDGE, [1, 1]).active) == [True]

    def test_triangle_one_active(self):
        gate = gate_couplings(TRIANGLE, [0, 0, 1])
        assert sum(gate.active) == 1
        assert gate.active[0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gate_couplings(TRIANGLE, [0, 1])

    @pytest.mark.parametrize("labels", [[0, 1], np.zeros((2, 4), dtype=int)], ids=["1d", "2d"])
    def test_names_the_shape_it_needs(self, labels):
        with pytest.raises(ValueError, match=re.escape(
                f"labels has shape {np.shape(labels)}, need (..., 3)")):
            gate_couplings(TRIANGLE, labels)


class TestAssignShil:
    def test_mixed(self):
        shil = assign_shil([0, 1])
        assert np.all(shil.enabled)
        assert shil.select[0] == 0.0
        assert shil.select[1] == math.pi / 2

    def test_all_zero(self):
        assert np.all(assign_shil([0, 0, 0]).select == 0.0)

    def test_all_one(self):
        assert np.all(assign_shil([1, 1]).select == math.pi / 2)

    @pytest.mark.parametrize("stage", [0, -1, 2.5, np.float64(2.0), True, "2", None], ids=repr)
    def test_rejects_a_stage_that_is_not_an_integer_from_1(self, stage):
        # stage 0 used to give phi = 2 * pi * group, and 2.5 a phi off every lock grid
        with pytest.raises(ValueError, match="stage must be an integer >= 1"):
            assign_shil(np.array([0, 1]), stage)

    @pytest.mark.parametrize("stage", [1, 2, 3, 4, np.int64(2)])
    def test_batched_groups_any_stage(self, stage):
        # stage t sees group ids 0 .. 2^(t-1) - 1, one row per iteration
        groups = np.arange(15).reshape(3, 5) % 2 ** (stage - 1)
        shil = assign_shil(groups, stage)
        assert shil.enabled.shape == (5,)
        assert np.all(shil.enabled)
        assert np.array_equal(shil.select, groups * math.pi / 2 ** (stage - 1))


def best_over_seeds(graph, seeds, m=2, **kwargs):
    results = [solve_kcoloring(graph, m, seed=s, **kwargs) for s in seeds]
    return max(results, key=lambda r: r.coloring_accuracy)


class TestSolve4Coloring:
    def test_k4_unique_coloring(self):
        # K4 is uniquely 4-colorable up to relabeling; oracle confirms
        g = kings_graph(2)
        assert exact_coloring(g, 4) is not None
        best = best_over_seeds(g, range(20))
        assert best.coloring_accuracy == 1.0
        assert len(set(best.coloring.tolist())) == 4

    def test_four_cycle(self):
        best = best_over_seeds(FOUR_CYCLE, range(20))
        assert best.coloring_accuracy == 1.0

    def test_result_fields(self):
        g = kings_graph(2)
        res = solve_4coloring(g, seed=3)
        assert res.seed == 3
        assert len(res.partition) == g.n
        assert set(res.partition.tolist()) <= {0, 1}
        assert len(res.coloring) == g.n
        assert set(res.coloring.tolist()) <= {0, 1, 2, 3}
        assert 0.0 <= res.coloring_accuracy <= 1.0
        assert res.coloring_accuracy == coloring_accuracy(g, res.coloring)
        assert res.wall_time > 0

    def test_same_seed_bit_identical(self):
        g = kings_graph(3)
        a = solve_4coloring(g, seed=11)
        b = solve_4coloring(g, seed=11)
        assert np.array_equal(a.partition, b.partition)
        assert np.array_equal(a.coloring, b.coloring)
        assert a.cut_accuracy == b.cut_accuracy
        assert a.coloring_accuracy == b.coloring_accuracy

    def test_group_phase_disjointness(self):
        # locked runs put label-0 nodes on colors {0, 2}, label-1 on {1, 3}
        g = kings_graph(3)
        checked = 0
        for seed in range(10):
            res = solve_4coloring(g, seed=seed)
            if res.unlocked_stages:
                continue
            checked += 1
            assert np.array_equal(res.coloring % 2, res.partition)
        assert checked >= 5

    def test_matches_kcoloring_m2(self):
        g = kings_graph(3)
        for seed in (0, 1, 2):
            a = solve_4coloring(g, seed=seed)
            b = solve_kcoloring(g, 2, seed=seed)
            assert np.array_equal(a.partition, b.partition)
            assert np.array_equal(a.coloring, b.coloring)
            assert a.cut_accuracy == b.cut_accuracy

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            solve_4coloring(Graph(0, []))


class TestSolveKColoring:
    def test_m1_single_edge_maxcut(self):
        best = max(
            (solve_kcoloring(EDGE, 1, seed=s) for s in range(20)),
            key=lambda r: r.cut_accuracy,
        )
        assert best.cut_accuracy == 1.0
        assert set(best.partition.tolist()) == {0, 1}
        assert np.array_equal(best.partition, best.coloring)

    def test_m3_k8_all_colors(self):
        # K8 needs all 8 colors; verified against the exact oracle
        assert exact_coloring(K8, 8) is not None
        assert exact_coloring(K8, 7) is None
        best = best_over_seeds(K8, range(50), m=3)
        assert best.coloring_accuracy == 1.0
        assert len(set(best.coloring.tolist())) == 8

    def test_stage1_readout_is_binary_quantization(self):
        g = kings_graph(3)
        res = solve_kcoloring(g, 1, seed=4)
        # for a single stage the final coloring is the stage-1 readout
        assert np.array_equal(res.partition, res.coloring)

    def test_rejects_zero_stages(self):
        with pytest.raises(ValueError):
            solve_kcoloring(EDGE, 0)

    def test_batch_rejects_no_seeds(self, monkeypatch):
        windows = record_windows(monkeypatch)
        with pytest.raises(ValueError, match="need at least one seed"):
            solve_batch(EDGE, 1, seeds=[])
        assert windows == []

    @pytest.mark.parametrize("m", [0, -1, 2.0, 1.5, "2", True, None])
    def test_rejects_m_that_is_not_a_positive_integer(self, m, monkeypatch):
        windows = record_windows(monkeypatch)
        for solve in (solve_batch, solve_kcoloring):
            with pytest.raises(ValueError, match=r"m must be an integer >= 1 \(not bool\)"):
                solve(EDGE, m)
        assert windows == []

    def test_accepts_numpy_integer_m(self):
        got, want = solve_kcoloring(K8, np.int64(3), seed=3), solve_kcoloring(K8, 3, seed=3)
        assert np.array_equal(got.coloring, want.coloring)
        assert np.array_equal(got.partition, want.partition)


def record_windows(monkeypatch):
    """Replace the window kernel by a recorder that leaves phases unchanged."""
    windows = []

    def recorder(phases, n_steps, graph, gate, shil, params, rngs):
        windows.append((n_steps, params.noise, gate.active, shil))
        return phases, 0.0

    monkeypatch.setattr("pottsim.scheduler.integrate", recorder)
    return windows


class TestStageWindows:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_free_anneal_lock_per_stage(self, m, monkeypatch):
        g = kings_graph(3)
        windows = record_windows(monkeypatch)
        solve_batch(g, m, seeds=range(4))
        assert len(windows) == 3 * m
        for stage in range(1, m + 1):
            free, anneal, lock = windows[3 * stage - 3:3 * stage]
            assert [w[0] for w in (free, anneal, lock)] == [500, 2000, 500]
            assert [w[1] for w in (free, anneal, lock)] == [0.5, 0.05, 0.05]

            assert not np.any(free[2])
            assert not np.any(free[3].enabled)

            # the lock reference names each row's groups; the anneal gate
            # keeps exactly the edges inside a group
            groups = np.rint(lock[3].select / (math.pi / 2 ** (stage - 1)))
            assert np.array_equal(
                np.broadcast_to(anneal[2], (4, g.edge_count)),
                groups[:, g.ei] == groups[:, g.ej],
            )
            if stage == 1:
                assert np.all(anneal[2])
            assert not np.any(anneal[3].enabled)

            assert np.array_equal(lock[2], anneal[2])
            assert np.all(lock[3].enabled)


class TestWindowEvents:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_one_event_per_recorded_window(self, m, monkeypatch):
        g = kings_graph(3)
        windows, events = record_windows(monkeypatch), []
        solve_batch(g, m, seeds=range(4), on_window=events.append)
        assert len(events) == len(windows) == 3 * m
        for w, (event, (n_steps, _, active, shil)) in enumerate(zip(events, windows)):
            assert isinstance(event, WindowEvent)
            assert (event.stage, event.kind) == (w // 3 + 1, WINDOW_KINDS[w % 3])
            assert event.n_steps == n_steps == (500, 2000, 500)[w % 3]
            rows = np.broadcast_to(active, (4, g.edge_count)).sum(axis=1)
            assert event.gated_edges.shape == (4,)
            assert np.array_equal(event.gated_edges, rows)
            if event.kind == "lock":
                assert np.array_equal(event.select, shil.select)
            else:
                assert event.select is None
            assert event.cpu_s >= 0.0 and event.wall_s >= 0.0

    def test_results_bit_identical_with_a_callback(self):
        g, events = kings_graph(5), []
        plain = solve_batch(g, 2, seeds=range(3))
        hooked = solve_batch(g, 2, seeds=range(3), on_window=events.append)
        assert len(events) == 6
        for a, b in zip(plain, hooked):
            assert np.array_equal(a.partition, b.partition)
            assert np.array_equal(a.coloring, b.coloring)
            assert (a.cut_accuracy, a.coloring_accuracy, a.unlocked_stages) == (
                b.cut_accuracy, b.coloring_accuracy, b.unlocked_stages)

    def test_views_are_read_only_and_the_event_frozen(self):
        events = []
        solve_batch(kings_graph(3), 1, seeds=range(2), on_window=events.append)
        lock = events[-1]
        assert lock.kind == "lock" and lock.phases.shape == lock.select.shape == (2, 9)
        for array in (lock.phases, lock.select):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
        with pytest.raises(AttributeError):
            lock.stage = 2

    def test_last_phases_quantize_to_every_coloring(self):
        events = []
        results = solve_batch(kings_graph(4), 2, seeds=range(3), on_window=events.append)
        last = quantize_phases(events[-1].phases, 4)
        for b, res in enumerate(results):
            assert np.array_equal(last[b], res.coloring)

    def test_run_batch_forwards_the_events(self):
        events = []
        results, _ = run_batch(kings_graph(3), RunConfig(iterations=2, colors=8),
                               on_window=events.append)
        assert [(e.stage, e.kind) for e in events] == [
            (stage, kind) for stage in (1, 2, 3) for kind in WINDOW_KINDS]
        assert events[-1].phases.shape == (2, 9)
        coloring = quantize_phases(events[-1].phases, 8)
        assert all(np.array_equal(coloring[b], res.coloring) for b, res in enumerate(results))


class TestStagePrefix:
    @pytest.mark.parametrize("graph", [
        kings_graph(4),
        kings_graph(6),
        Graph(12, [(i, (i + 1) % 12, 1.0) for i in range(12)] + [(0, 6, 1.0)]),
    ], ids=["kings4", "kings6", "chorded-cycle12"])
    def test_later_stages_refine_earlier(self, graph):
        seeds = range(15)
        runs = {m: solve_batch(graph, m, seeds=seeds) for m in (1, 2, 3)}
        checked = 0
        for b in range(len(seeds)):
            first = runs[1][b]
            for m in (2, 3):
                assert np.array_equal(runs[m][b].partition, first.partition)
                assert runs[m][b].cut_accuracy == first.cut_accuracy
                if runs[m][b].unlocked_stages:
                    continue
                checked += 1
                for t in range(1, m):
                    assert np.array_equal(
                        runs[m][b].coloring % 2**t, runs[t][b].coloring
                    )
        assert checked >= len(seeds)


class TestCrossGroupIndependence:
    def test_gated_groups_evolve_independently(self):
        # with cross-label couplings cut, each group's trajectory matches a
        # standalone simulation of its induced subgraph under shared
        # per-node noise streams
        g = kings_graph(3)
        labels = np.array([(v // 3) % 2 for v in range(g.n)])  # row stripes
        gate = gate_couplings(g, labels)
        shil = assign_shil(labels)
        params = DynamicsParams(noise=0.3, dt=0.01)
        rng = np.random.default_rng(31)
        phases0 = rng.uniform(0, 2 * math.pi, g.n)
        n_steps = 200
        xi = rng.standard_normal((n_steps, g.n))

        full = PhaseState(phases0.copy())
        for k in range(n_steps):
            full = step(full, g, gate, shil, params, xi=xi[k])

        for side in (0, 1):
            nodes = np.flatnonzero(labels == side)
            remap = {int(v): idx for idx, v in enumerate(nodes)}
            sub_edges = [
                (remap[i], remap[j], w)
                for i, j, w in g.edges
                if i in remap and j in remap
            ]
            sub = Graph(len(nodes), sub_edges)
            sub_gate = gate_couplings(sub, np.zeros(sub.n, dtype=int))
            sub_shil = assign_shil(np.full(sub.n, side))
            state = PhaseState(phases0[nodes].copy())
            for k in range(n_steps):
                state = step(state, sub, sub_gate, sub_shil, params, xi=xi[k][nodes])
            assert np.allclose(state.phases, full.phases[nodes], atol=1e-12)


class TestCutBaseline:
    @pytest.mark.parametrize("graph,value,kind", [
        (TRIANGLE, 2.0, "exact"),
        (Graph(3, []), 0.0, "exact"),
        (kings_graph(7), 114.0, "best-known"),
        (Graph(30, [(i, i + 1, 0.5) for i in range(29)]), 14.5, "upper-bound"),
    ], ids=["small", "edgeless", "kings", "large"])
    def test_value_and_kind(self, graph, value, kind):
        assert _resolve_cut_baseline(graph) == (value, kind)

    @pytest.mark.parametrize("graph", [Graph(2, [(0, 1, -1.0)])], ids=["negative-edge"])
    def test_non_positive_baseline_raises_before_integrating(self, graph, monkeypatch):
        calls = []
        monkeypatch.setattr("pottsim.scheduler.integrate", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="baseline cut must be positive"):
            solve_kcoloring(graph, 1, seed=0)
        assert calls == []

    def test_upper_bound_counts_only_positive_weights(self):
        graph = Graph(30, [(i, i + 1, 1.0 if i % 2 == 0 else -1.0) for i in range(29)])
        assert cut_baseline(graph) == (15.0, "upper-bound")
        assert solve_kcoloring(graph, 1, seed=3).cut_accuracy <= 1.0


class TestStagePlan:
    def test_defaults_sum_to_schedule(self):
        plan = StagePlan()
        total = (
            plan.t_init + plan.t_anneal1 + plan.t_lock1
            + plan.t_relax + plan.t_anneal2 + plan.t_lock2
        )
        assert total == 60.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            StagePlan(t_anneal1=-1.0)

    @pytest.mark.parametrize("name", [f.name for f in fields(StagePlan)])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
    def test_rejects_nonfinite_naming_the_field(self, name, value):
        with pytest.raises(ValueError, match=name):
            StagePlan(**{name: value})

    @pytest.mark.parametrize("name", [f.name for f in fields(StagePlan)])
    @pytest.mark.parametrize("value", [True, "0.1", math.nan], ids=repr)
    def test_rejects_bool_string_and_nan_by_name(self, name, value):
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be nonnegative and finite (a real number, not bool), got {value!r}")):
            StagePlan(**{name: value})
