"""Tolerance contract for the drift kernel.

dynamics.integrate evaluates both drift sines through the half-angle
identity sin x = 2t / (1 + t^2), t = tan(x / 2), with the constants folded
into per-edge and per-node weights. That changes floating-point rounding,
so this file keeps the np.sin kernel it replaced as reference_integrate and
pins what the change must preserve: the sine itself to within 4.5e-16, one
noiseless step to within 1e-14, bit-identical rows regardless of batch
size, and the same accuracy distribution over many seeds. The reference
also wraps the phases after every step, where integrate wraps once per
window; a 200-step window stays within 1e-12 of it.

integrate carries half phases and keeps its noise in step-major rows. That
changes no rounding at all, so full_angle_integrate keeps the full-angle
loop it replaced, and integrate must match it bit for bit: phases, clock,
recorder samples and generator states.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from pottsim import dynamics, scheduler
from pottsim.dynamics import (
    NOISE_BLOCK_BYTES,
    CouplingGate,
    DynamicsParams,
    PhaseState,
    ShilConfig,
    TrajectoryRecorder,
    half_angle_sine,
    integrate,
    wrap_phases,
)
from pottsim.graph import Graph, kings_graph

TWO_PI = 2 * math.pi
SINE_TOLERANCE = 4.5e-16  # about 2 ulp of 1; measured worst case 2.2e-16
STEP_TOLERANCE = 1e-14
WINDOW_TOLERANCE = 1e-12


def reference_integrate(phases, n_steps, graph, gate, shil, params, rngs=None, xi=None,
                        recorder=None, time=0.0):
    """Reference: the np.sin kernel integrate must stay close to.

    Each step adds dt * (coupling * sum_j w_ij sin(theta_i - theta_j)
    - locking * e_i * sin(2 (theta_i - phi_i))), then the noise, then wraps.
    """
    phases = np.array(phases, dtype=np.float64, ndmin=2)
    batch, n = phases.shape
    iteration, edge = np.nonzero(np.broadcast_to(gate.active, (batch, graph.edge_count)))
    ei = graph.ei[edge] + n * iteration
    ej = graph.ej[edge] + n * iteration
    w = graph.w[edge]
    locking = params.locking > 0.0 and bool(np.any(shil.enabled))
    all_locked = bool(np.all(shil.enabled))
    noisy = params.noise > 0.0
    if noisy:
        if xi is not None:
            noise_buf, block = xi, max(n_steps, 1)
        elif rngs is None:
            raise ValueError("noise > 0 requires an rng or explicit xi")
        else:
            block = max(1, min(n_steps, NOISE_BLOCK_BYTES // (8 * batch * n)))
            noise_buf = np.empty((batch, block, n))
    noise_scale = params.noise * math.sqrt(params.dt)
    for k in range(n_steps):
        if recorder is not None:
            recorder.record(PhaseState(phases[0], time), k)
        drift = None
        if len(w):
            flat = phases.reshape(-1)
            s = w * np.sin(flat[ei] - flat[ej])
            torque = np.bincount(ei, weights=s, minlength=batch * n)
            torque -= np.bincount(ej, weights=s, minlength=batch * n)
            drift = (params.coupling * torque).reshape(batch, n)
        if locking:
            lock = np.sin(2.0 * (phases - shil.select))
            if not all_locked:
                lock = np.where(shil.enabled, lock, 0.0)
            if drift is None:
                drift = np.zeros((batch, n))
            drift -= params.locking * lock
        if drift is not None:
            phases += params.dt * drift
        if noisy:
            j = k % block
            if j == 0 and xi is None:
                c = min(block, n_steps - k)
                for b, rng in enumerate(rngs):
                    rng.standard_normal(out=noise_buf[b, :c])
            phases += noise_scale * noise_buf[:, j]
        phases = wrap_phases(phases)
        time += params.dt
    if recorder is not None:
        recorder.record(PhaseState(phases[0], time), n_steps)
    return phases, time


def full_angle_integrate(phases, n_steps, graph, gate, shil, params, rngs=None, xi=None,
                         recorder=None, time=0.0):
    """Reference: integrate as it was before it carried half phases.

    It steps the full angles of a (B, n) array, takes the half angles of the
    coupling term each step, folds the identity's factor 2 into the weights,
    and keeps each iteration's noise block contiguous, (B, block, n), reading
    a strided (B, n) slice per step. A noise block holds at most
    dynamics.NOISE_BLOCK_BYTES, read at call time so that tests can shrink it.
    """
    phases = np.array(phases, dtype=np.float64, ndmin=2)
    batch, n = phases.shape
    iteration, edge = np.nonzero(np.broadcast_to(gate.active, (batch, graph.edge_count)))
    ei = graph.ei[edge] + n * iteration
    ej = graph.ej[edge] + n * iteration
    edge_w = (2.0 * params.dt * params.coupling) * graph.w[edge]
    lock_w = None
    if params.locking > 0.0 and np.any(shil.enabled):
        lock_w = np.where(shil.enabled, -2.0 * params.dt * params.locking, 0.0)
        select = np.where(shil.enabled, shil.select, 0.0)
    noisy = params.noise > 0.0
    if noisy:
        noise_scale = params.noise * math.sqrt(params.dt)
        if xi is not None:
            noise_buf, block = noise_scale * xi, max(n_steps, 1)
        else:
            block = max(1, min(n_steps, dynamics.NOISE_BLOCK_BYTES // (8 * batch * n)))
            noise_buf = np.empty((batch, block, n))
    for k in range(n_steps):
        if recorder is not None:
            recorder.record(PhaseState(phases[0], time), k)
        drift = None
        if len(edge_w):
            half = 0.5 * phases.reshape(-1)
            s = half_angle_sine(half[ei] - half[ej], edge_w)
            drift = np.bincount(ei, weights=s, minlength=batch * n)
            drift -= np.bincount(ej, weights=s, minlength=batch * n)
            drift = drift.reshape(batch, n)
        if lock_w is not None:
            lock = half_angle_sine(phases - select, lock_w)
            if drift is None:
                drift = lock
            else:
                drift += lock
        if drift is not None:
            phases += drift
        if noisy:
            j = k % block
            if j == 0 and xi is None:
                c = min(block, n_steps - k)
                for b, rng in enumerate(rngs):
                    rng.standard_normal(out=noise_buf[b, :c])
                noise_buf[:, :c] *= noise_scale
            phases += noise_buf[:, j]
        time += params.dt
    phases = wrap_phases(phases)
    if recorder is not None:
        recorder.record(PhaseState(phases[0], time), n_steps)
    return phases, time


def angle_gap(a, b):
    """|a - b| modulo 2*pi, in [0, pi]."""
    d = np.mod(a - b, TWO_PI)
    return np.minimum(d, TWO_PI - d)


class TestHalfAngleSine:
    PINNED = [0.0, -0.0, math.pi, -math.pi, TWO_PI, -TWO_PI,
              math.nextafter(math.pi, 0.0), 5e-324, -5e-324]

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=64))
    @example(PINNED)
    def test_within_tolerance_of_sin(self, values):
        x = np.array(values)
        got = half_angle_sine(0.5 * x, 2.0)
        assert np.all(np.abs(got - np.sin(x)) <= SINE_TOLERANCE)

    def test_pinned_values(self):
        x = np.array(self.PINNED)
        got = half_angle_sine(0.5 * x, 2.0)
        want = np.sin(x)
        # equal at 0, -0.0 (sign kept), +-pi and +-2*pi
        assert np.array_equal(got[:6].view(np.int64), want[:6].view(np.int64))
        assert np.all(np.abs(got - want) <= SINE_TOLERANCE)

    @pytest.mark.parametrize("bound", [TWO_PI, 2 * TWO_PI, 50.0, 1e3])
    def test_dense_sample(self, bound):
        x = np.random.default_rng(0).uniform(-bound, bound, 200_000)
        got = half_angle_sine(0.5 * x, 2.0)
        assert np.max(np.abs(got - np.sin(x))) <= SINE_TOLERANCE

    def test_scale_broadcasts(self):
        half = np.array([[0.1, 0.2], [0.3, 0.4]])
        got = half_angle_sine(half, np.array([2.0, 6.0]))
        want = np.array([1.0, 3.0]) * np.sin(2 * half)
        assert np.allclose(got, want, rtol=0, atol=4 * SINE_TOLERANCE)


@st.composite
def windows(draw):
    """A graph of at most 12 nodes with random weights, a (B, E) gate and (B, n) SHIL."""
    n = draw(st.integers(1, 12))
    batch = draw(st.sampled_from([1, 3]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = (draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
              if pairs else [])
    weights = st.floats(-2.0, 2.0, allow_subnormal=False)
    graph = Graph(n, [(i, j, draw(weights)) for i, j in chosen])
    bools = st.booleans()
    gate = np.array(draw(st.lists(bools, min_size=batch * len(chosen),
                                  max_size=batch * len(chosen)))).reshape(batch, len(chosen))
    enabled = np.array(draw(st.lists(bools, min_size=batch * n, max_size=batch * n)))
    lock_phases = st.sampled_from([0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4])
    select = np.array(draw(st.lists(lock_phases, min_size=batch * n, max_size=batch * n)))
    phases = np.array(draw(st.lists(st.floats(0.0, TWO_PI, exclude_max=True),
                                    min_size=batch * n, max_size=batch * n)))
    return (graph, phases.reshape(batch, n), CouplingGate(gate.astype(bool)),
            ShilConfig(enabled.reshape(batch, n), select.reshape(batch, n)))


class TestOneStep:
    @settings(max_examples=200, deadline=None)
    @given(windows(), st.sampled_from([0.0, 2.5]))
    def test_noiseless_step_matches_reference(self, window, locking):
        graph, phases, gate, shil = window
        params = DynamicsParams(coupling=1.0, locking=locking, noise=0.0, dt=0.01)
        got, t = integrate(phases, 1, graph, gate, shil, params)
        want, t_ref = reference_integrate(phases, 1, graph, gate, shil, params)
        assert t == t_ref
        assert np.all(angle_gap(got, want) <= STEP_TOLERANCE)

    def test_select_ignored_where_injection_off(self):
        # select is meaningful only where enabled, so any value there is inert
        graph = kings_graph(2)
        phases = np.array([0.3, 1.2, 2.5, 4.0])
        enabled = np.array([True, False, True, False])
        gate = CouplingGate.all_on(graph)
        params = DynamicsParams(noise=0.0)
        want, _ = integrate(phases, 3, graph, gate, ShilConfig(enabled, np.zeros(4)), params)
        select = np.array([0.0, np.nan, 0.0, np.inf])
        got, _ = integrate(phases, 3, graph, gate, ShilConfig(enabled, select), params)
        assert np.array_equal(got, want)


class TestWindow:
    """integrate wraps once per window, the reference after every step."""

    @settings(max_examples=200, deadline=None)
    @given(windows(), st.sampled_from([0.0, 2.5]),
           st.lists(st.integers(-159, 158), min_size=36, max_size=36))
    def test_whole_turns_change_rounding_only(self, window, locking, turns):
        # the drift is 2*pi-periodic in every phase, up to |theta| = 1e3
        graph, phases, gate, shil = window
        params = DynamicsParams(coupling=1.0, locking=locking, noise=0.0, dt=0.01)
        shifted = phases + TWO_PI * np.resize(turns, phases.shape)
        got, _ = integrate(shifted, 1, graph, gate, shil, params)
        want, _ = integrate(phases, 1, graph, gate, shil, params)
        assert np.all(angle_gap(got, want) <= 4 * np.spacing(np.max(np.abs(shifted))))

    @settings(max_examples=100, deadline=None)
    @given(windows(), st.sampled_from([0.0, 2.5]), st.integers(0, 2**32 - 1))
    @pytest.mark.parametrize("noise", [0.0, 0.5])
    def test_window_matches_reference(self, noise, window, locking, seed):
        """200 steps stay within 1e-12 of the reference, modulo 2*pi.

        The starts are uniform draws, as random_init makes them. Where the
        reference wraps a phase just below 0, it rounds to the grid of
        2*pi (half an ulp, 4.4e-16), and integrate does not. Hypothesis's
        own phase draws favour exact values (0.0, 1e-12, equal phases),
        which often sit on an unstable equilibrium, and there the dynamics
        amplify that half ulp, the lock term's most (theta - phi = +-pi/2,
        growth e^(2 locking t)): such starts gave gaps up to 2.5e-11. From
        uniform starts, a search for the largest gap over 6000 examples
        per noise level found 3.8e-14.
        """
        graph, phases, gate, shil = window
        rng = np.random.default_rng(seed)
        phases = rng.uniform(0.0, TWO_PI, phases.shape)
        xi = rng.standard_normal((len(phases), 200, graph.n))
        params = DynamicsParams(coupling=1.0, locking=locking, noise=noise, dt=0.01)
        got, t = integrate(phases, 200, graph, gate, shil, params, xi=xi)
        want, t_ref = reference_integrate(phases, 200, graph, gate, shil, params, xi=xi)
        assert t == t_ref
        assert np.all(got >= 0.0) and np.all(got < TWO_PI)
        assert np.all(angle_gap(got, want) <= WINDOW_TOLERANCE)


class TestRowIndependence:
    @pytest.mark.parametrize("side,n_steps", [(3, 50), (7, 20)])
    def test_rows_equal_single_row_runs(self, side, n_steps):
        graph = kings_graph(side)
        n, batch = graph.n, 3
        rng = np.random.default_rng(side)
        phases = rng.uniform(0.0, TWO_PI, (batch, n))
        gate = CouplingGate(rng.random((batch, graph.edge_count)) < 0.7)
        shil = ShilConfig(rng.random((batch, n)) < 0.8,
                          rng.choice([0.0, math.pi / 2], (batch, n)))
        xi = rng.standard_normal((batch, n_steps, n))
        params = DynamicsParams()
        together, _ = integrate(phases, n_steps, graph, gate, shil, params, xi=xi)
        for b in range(batch):
            alone, _ = integrate(phases[b:b + 1], n_steps, graph,
                                 CouplingGate(gate.active[b]),
                                 ShilConfig(shil.enabled[b], shil.select[b]),
                                 params, xi=xi[b:b + 1])
            assert np.array_equal(together[b].view(np.int64), alone[0].view(np.int64))

    def test_lattice_rows_equal_compacted_single_row_runs(self):
        # the case above at side 13: its 3 rows take the lattice layout, each
        # row alone (169 phases, below the size floor) the compacted one
        graph = kings_graph(13)
        rng = np.random.default_rng(13)
        phases = rng.uniform(0.0, TWO_PI, (3, graph.n))
        gate = CouplingGate(rng.random((3, graph.edge_count)) < 0.7)
        assert picked_layout(phases, graph, gate) == "lattice"
        assert picked_layout(phases[:1], graph, CouplingGate(gate.active[0])) == "compacted"
        self.test_rows_equal_single_row_runs(13, 20)


def traced_run(kernel, phases, n_steps, graph, gate, shil, params, source, seed,
               recorded=True):
    """A window run by kernel: its phases and recorder samples as int64 bits,
    its clock and sample times, and the generators' states afterwards. Noise
    comes from one generator per row (source "rngs"), from xi ("xi") or from
    neither ("noiseless", for params with noise 0). With recorded False no
    recorder is attached, and the samples and times are empty."""
    rngs = xi = None
    if source == "rngs":
        rngs = [np.random.default_rng([seed, b]) for b in range(len(phases))]
    elif source == "xi":
        xi = np.random.default_rng(seed).standard_normal((len(phases), n_steps, graph.n))
    recorder = TrajectoryRecorder(sample_every=4) if recorded else None
    got, t = kernel(phases, n_steps, graph, gate, shil, params, rngs=rngs, xi=xi,
                    recorder=recorder, time=0.25)
    samples, times = (recorder.samples, recorder.times) if recorded else ([], [])
    return (got.view(np.int64), t, [sample.view(np.int64) for sample in samples], times,
            [rng.bit_generator.state for rng in rngs or []])


def assert_same_run(got, want):
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]
    assert len(got[2]) == len(want[2])
    assert all(np.array_equal(a, b) for a, b in zip(got[2], want[2]))
    assert got[3] == want[3]
    assert got[4] == want[4]


class TestHalfPhases:
    """integrate matches the full-angle loop bit for bit.

    Halving a normal float is exact, so the half phases, weights and noise
    are exactly half of the full-angle values and h + h gives back theta.
    The phases and weights are uniform draws: hypothesis favours tiny values,
    whose products can be subnormal, where halving rounds.
    """

    @pytest.mark.parametrize("block_steps", [None, 5], ids=["one-block", "blocks-of-5"])
    @pytest.mark.parametrize("source", ["rngs", "xi", "noiseless"])
    @pytest.mark.parametrize("side,batch", [(4, 1), (4, 3), (14, 1), (7, 4)],
                             ids=["1", "3", "14x1", "7x4"])
    @pytest.mark.parametrize("kind", ["free", "anneal", "lock"])
    def test_schedule_windows(self, kind, side, batch, source, block_steps, monkeypatch):
        """The windows of a solve, on a King's graph with random weights: at
        side 4 those of stage 2 (compacted layout), at 196 phases those of
        stage 1 (lattice layout). Without a recorder each call of the step
        loop takes a whole noise block, with one a single step; both give
        the full-angle loop's phases, clock and generator states."""
        rng = np.random.default_rng(batch if side == 4 else side * batch)
        kings = kings_graph(side)
        graph = Graph(kings.n, [(i, j, rng.uniform(0.5, 1.5)) for i, j, _ in kings.edges])
        phases = rng.uniform(0.0, TWO_PI, (batch, graph.n))
        layout, groups = "compacted", rng.integers(0, 2, (batch, graph.n))
        if side != 4:
            layout, groups = "lattice", np.zeros((batch, graph.n), dtype=np.int64)
        gate, shil = CouplingGate.all_off(graph), ShilConfig.off(graph.n)
        if kind == "lock":
            shil = scheduler.assign_shil(groups, 2)
        if kind != "free":
            gate = scheduler.gate_couplings(graph, groups)
            assert picked_layout(phases, graph, gate, shil) == layout
        noise = 0.0 if source == "noiseless" else 0.1 if kind == "free" else 0.05
        params = DynamicsParams(noise=noise)
        if block_steps is not None:
            # 37 steps are not a multiple of either kernel's block
            monkeypatch.setattr(dynamics, "NOISE_BLOCK_BYTES",
                                8 * (batch + 1) * graph.n * block_steps)
        args = (phases, 37, graph, gate, shil, params, source, 7)
        step_by_step = traced_run(integrate, *args)
        assert_same_run(step_by_step, traced_run(full_angle_integrate, *args))
        whole_blocks = traced_run(integrate, *args, recorded=False)
        assert_same_run(whole_blocks, step_by_step[:2] + ([], []) + step_by_step[4:])

    @settings(max_examples=100, deadline=None)
    @given(windows(), st.sampled_from([0.0, 2.5]), st.sampled_from([0.0, 0.5]),
           st.sampled_from(["rngs", "xi"]), st.integers(0, 2**32 - 1))
    def test_random_windows(self, window, locking, noise, source, seed):
        graph, phases, gate, shil = window
        rng = np.random.default_rng(seed)
        phases = rng.uniform(0.0, TWO_PI, phases.shape)
        graph = Graph(graph.n, [(i, j, rng.uniform(-2.0, 2.0)) for i, j, _ in graph.edges])
        params = DynamicsParams(coupling=1.0, locking=locking, noise=noise, dt=0.01)
        args = (phases, 30, graph, gate, shil, params, source, seed)
        assert_same_run(traced_run(integrate, *args), traced_run(full_angle_integrate, *args))


class TestStatisticalEquivalence:
    """Mean accuracies of the kernel lie within 3 standard errors of the reference's.

    The standard errors come from the reference kernel's spread over seeds.
    """

    @pytest.mark.parametrize("side,n_seeds", [(7, 200), (20, 40)])
    def test_mean_accuracies(self, side, n_seeds, monkeypatch):
        graph = kings_graph(side)
        seeds = range(n_seeds)
        new = scheduler.solve_batch(graph, 2, seeds=seeds)
        monkeypatch.setattr(scheduler, "integrate", reference_integrate)
        ref = scheduler.solve_batch(graph, 2, seeds=seeds)
        for key in ("coloring_accuracy", "cut_accuracy"):
            ref_values = np.array([getattr(r, key) for r in ref])
            new_mean = np.mean([getattr(r, key) for r in new])
            stderr = np.std(ref_values, ddof=1) / math.sqrt(n_seeds)
            assert abs(new_mean - ref_values.mean()) <= 3 * stderr, key


def picked_layout(phases, graph, gate, shil=None):
    """The edge layout integrate picks for a window: "lattice" or "compacted"."""
    picked = []
    lattice = dynamics._lattice_coupling

    def spy(*args):
        coupling = lattice(*args)
        picked.append("compacted" if coupling is None else "lattice")
        return coupling

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_lattice_coupling", spy)
        integrate(phases, 1, graph, gate, shil or ShilConfig.off(graph.n),
                  DynamicsParams(noise=0.0))
    assert len(picked) == 1
    return picked[0]


def delaunay_graph(n, seed):
    """A Delaunay triangulation of the unit square's corners and n - 4 random
    points, as the desk-planar benchmark draws them."""
    rng = np.random.default_rng(seed)
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    points = np.vstack([corners, rng.uniform(0.05, 0.95, size=(n - 4, 2))])
    pairs = set()
    for tri in Delaunay(points).simplices:
        a, b, c = sorted(tri.tolist())
        pairs.update({(a, b), (a, c), (b, c)})
    return Graph(n, [(i, j, 1.0) for i, j in sorted(pairs)])


class TestLayoutRule:
    """The lattice layout runs where it pays, and only there."""

    def test_stage1_gate_of_the_largest_kings_graph_takes_slices(self):
        graph = kings_graph(46)
        phases = np.random.default_rng(0).uniform(0.0, TWO_PI, (3, graph.n))
        gate = scheduler.gate_couplings(graph, np.zeros((3, graph.n), dtype=np.int64))
        assert picked_layout(phases, graph, gate) == "lattice"
        shil = scheduler.assign_shil(np.zeros((3, graph.n), dtype=np.int64), 1)
        assert picked_layout(phases, graph, gate, shil) == "lattice"

    def test_kings7_batch_of_40_takes_slices(self):
        graph = kings_graph(7)
        phases = np.random.default_rng(1).uniform(0.0, TWO_PI, (40, graph.n))
        assert picked_layout(phases, graph, CouplingGate.all_on(graph)) == "lattice"

    def test_stage2_gate_stays_compacted(self):
        graph = kings_graph(46)
        rng = np.random.default_rng(2)
        phases = rng.uniform(0.0, TWO_PI, (3, graph.n))
        gate = scheduler.gate_couplings(graph, rng.integers(0, 2, (3, graph.n)))
        assert picked_layout(phases, graph, gate) == "compacted"

    @pytest.mark.parametrize("batch", [4, 50], ids=["below-floor", "above-floor"])
    def test_delaunay_graph_stays_compacted(self, batch):
        # 4 rows are desk-planar's batch; at 50 the 1200 phases pass the size
        # floor, and the many sparse offsets fail the fill bound
        graph = delaunay_graph(24, 711)
        assert graph.edge_count == 3 * 24 - 7
        phases = np.random.default_rng(3).uniform(0.0, TWO_PI, (batch, graph.n))
        assert picked_layout(phases, graph, CouplingGate.all_on(graph)) == "compacted"

    def test_small_window_stays_compacted(self):
        graph = kings_graph(10)
        phases = np.random.default_rng(4).uniform(0.0, TWO_PI, (1, graph.n))
        assert picked_layout(phases, graph, CouplingGate.all_on(graph)) == "compacted"

    @pytest.mark.parametrize("gated,layout", [(2048, "lattice"), (2047, "compacted")])
    def test_slot_bound(self, gated, layout):
        # B * n = 4 * 256 = 1024 phases in 4 offset classes: 4096 slots, which
        # is 2 per gated edge at 2048 edges, counting each row's unsummed tail
        graph = kings_graph(16)
        active = np.zeros(4 * graph.edge_count, dtype=bool)
        active[:gated] = True  # all of row 0, so every class keeps an edge
        gate = CouplingGate(active.reshape(4, graph.edge_count))
        assert len(np.unique((graph.ej - graph.ei)[gate.active[0]])) == 4
        phases = np.random.default_rng(5).uniform(0.0, TWO_PI, (4, graph.n))
        assert picked_layout(phases, graph, gate) == layout


class TestLatticeLayout:
    """Windows in the lattice layout match the full-angle loop bit for bit."""

    @pytest.mark.parametrize("block_steps", [None, 5], ids=["one-block", "blocks-of-5"])
    @pytest.mark.parametrize("source", ["rngs", "xi"])
    @pytest.mark.parametrize("side,batch", [(32, 1), (19, 3)])
    @pytest.mark.parametrize("kind", ["anneal", "lock"])
    def test_stage1_windows(self, kind, side, batch, source, block_steps, monkeypatch):
        graph = kings_graph(side)
        rng = np.random.default_rng(side)
        phases = rng.uniform(0.0, TWO_PI, (batch, graph.n))
        groups = np.zeros((batch, graph.n), dtype=np.int64)
        gate = scheduler.gate_couplings(graph, groups)
        shil = scheduler.assign_shil(groups, 1) if kind == "lock" else ShilConfig.off(graph.n)
        assert picked_layout(phases, graph, gate, shil) == "lattice"
        if block_steps is not None:
            # 37 steps are not a multiple of either kernel's block
            monkeypatch.setattr(dynamics, "NOISE_BLOCK_BYTES",
                                8 * (batch + 1) * graph.n * block_steps)
        args = (phases, 37, graph, gate, shil, DynamicsParams(), source, 11)
        assert_same_run(traced_run(integrate, *args), traced_run(full_angle_integrate, *args))

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["grid", "kings"]), st.integers(10, 32), st.integers(0, 2),
           st.floats(0.7, 1.0), st.sampled_from([0.0, 2.5]), st.sampled_from([0.0, 0.5]),
           st.sampled_from(["rngs", "xi"]), st.integers(0, 2**32 - 1))
    def test_random_lattices(self, kind, side, extra_rows, density, locking, noise, source, seed):
        """Grid (offsets 1 and side) and King's-like graphs with random
        weights and gates, with B * n above the size floor."""
        rng = np.random.default_rng(seed)
        n = side * side
        offsets = [1, side] if kind == "grid" else [1, side - 1, side, side + 1]
        pairs = [(i, i + d) for i in range(n) for d in offsets
                 if i + d < n and (d == side or abs((i + d) % side - i % side) == 1)]
        graph = Graph(n, [(i, j, rng.uniform(-2.0, 2.0)) for i, j in pairs])
        batch = -(-dynamics.LATTICE_MIN_NODES // n) + extra_rows
        phases = rng.uniform(0.0, TWO_PI, (batch, n))
        gate = CouplingGate(rng.random((batch, graph.edge_count)) < density)
        shil = ShilConfig(rng.random((batch, n)) < 0.8,
                          rng.choice([0.0, math.pi / 2, math.pi / 4], (batch, n)))
        assert picked_layout(phases, graph, gate, shil) == "lattice"
        params = DynamicsParams(coupling=1.0, locking=locking, noise=noise, dt=0.01)
        args = (phases, 20, graph, gate, shil, params, source, seed)
        assert_same_run(traced_run(integrate, *args), traced_run(full_angle_integrate, *args))


class TestStepSizeConvergence:
    """The default step dt = 0.01 is converged: its mean accuracies lie
    within 3 standard errors of those at dt = 0.005.

    The standard errors come from the spread over seeds at dt = 0.005.
    """

    @pytest.mark.parametrize("side,n_seeds", [(7, 200), (20, 40)])
    def test_mean_accuracies(self, side, n_seeds):
        graph = kings_graph(side)
        seeds = range(n_seeds)
        default = scheduler.solve_batch(graph, 2, seeds=seeds)
        fine = scheduler.solve_batch(graph, 2, DynamicsParams(dt=0.005), seeds=seeds)
        for key in ("coloring_accuracy", "cut_accuracy"):
            fine_values = np.array([getattr(r, key) for r in fine])
            default_mean = np.mean([getattr(r, key) for r in default])
            stderr = np.std(fine_values, ddof=1) / math.sqrt(n_seeds)
            assert abs(default_mean - fine_values.mean()) <= 3 * stderr, key


def line_offsets(array):
    """Byte offsets from a 64-byte line of the array's start and, for a 2-D
    array, of its row stride."""
    return (array.ctypes.data % dynamics.LINE_BYTES,
            array.strides[0] % dynamics.LINE_BYTES if array.ndim == 2 else 0)


class UfuncSpy:
    """np.<name> that logs (name, args) of each call into calls; its other
    attributes, such as add.reduce, are the ufunc's own."""

    def __init__(self, name, calls):
        self.name, self.ufunc, self.calls = name, getattr(np, name), calls

    def __call__(self, *args, **kwargs):
        self.calls.append((self.name, args))
        return self.ufunc(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self.ufunc, attr)


def ufunc_calls(run):
    """run()'s calls of np.tan, np.multiply, np.add and np.divide, as (name,
    args) pairs: the step loop binds its ufuncs when its window starts, so
    run() must start the window."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("tan", "multiply", "add", "divide"):
            patch.setattr(np, name, UfuncSpy(name, calls))
        run()
    return calls


def sines(calls):
    """(half angles, scale, t, denom) of each sine in calls: a tan call and
    the four calls after it, checked to be half_angle_sine's operations in
    place, t = tan(angles), denom = t * t + 1 and t = t * scale / denom."""
    found = []
    for k, (name, _) in enumerate(calls):
        if name != "tan":
            continue
        assert [name for name, _ in calls[k:k + 5]] == ["tan", "multiply", "add", "multiply",
                                                        "divide"]
        (angles, t), (a, b, denom), (c, _, d), (e, scale, f), (g, h, i) = (
            args for _, args in calls[k:k + 5])
        assert all(x is t for x in (a, b, e, f, g, i)) and c is d is h is denom
        found.append((angles, scale, t, denom))
    return found


class TestLineAlignment:
    """Every array a window hands to the sine, and its half phases, start on
    a 64-byte line, and so does each row of a 2-D one; the sine's arrays are
    C-contiguous."""

    def window_arrays(self, phases, graph, gate, shil):
        """The arrays one noisy 3-step window hands to its coupling layout
        and to the sine, as (name, array) pairs."""
        seen = []
        layouts = {name: getattr(dynamics, name)
                   for name in ("_lattice_coupling", "_compacted_coupling")}

        def layout_spy(name):
            def spy(half, *args):
                seen.append((f"{name} half phases", half))
                return layouts[name](half, *args)
            return spy

        with pytest.MonkeyPatch.context() as patch:
            for name in layouts:
                patch.setattr(dynamics, name, layout_spy(name))
            rngs = [np.random.default_rng(b) for b in range(len(phases))]
            calls = ufunc_calls(lambda: integrate(phases, 3, graph, gate, shil,
                                                  DynamicsParams(), rngs))
        for angles, scale, t, denom in sines(calls):
            seen.extend([("half angles", angles), ("scale", scale), ("t", t), ("denom", denom)])
        return seen

    @pytest.mark.parametrize("side,batch", [(46, 3), (7, 40)])
    @pytest.mark.parametrize("stage", [1, 2])
    def test_window_buffers_start_on_a_line(self, side, batch, stage):
        graph = kings_graph(side)
        rng = np.random.default_rng(side)
        phases = rng.uniform(0.0, TWO_PI, (batch, graph.n))
        groups = np.zeros((batch, graph.n), dtype=np.int64)
        if stage == 2:
            groups = rng.integers(0, 2, (batch, graph.n))
        gate = scheduler.gate_couplings(graph, groups)
        shil = scheduler.assign_shil(groups, stage)
        want = "lattice" if stage == 1 else "compacted"
        assert picked_layout(phases, graph, gate, shil) == want
        seen = self.window_arrays(phases, graph, gate, shil)
        assert seen[0][0] == "_lattice_coupling half phases"
        # 3 steps, each with one sine for the coupling and lock terms together
        assert sum(name == "t" for name, _ in seen) == 3
        for name, array in seen:
            assert isinstance(array, np.ndarray) and array.dtype == np.float64, name
            assert line_offsets(array) == (0, 0), name
            assert array.flags.c_contiguous, name

    @pytest.mark.parametrize("shape", [(0,), (1,), (7,), (8,), (9,), (6348,), (0, 5), (3, 0),
                                       (1, 1), (3, 5), (4, 17), (2, 8), (5, 1961)])
    def test_helper_on_odd_shapes(self, shape):
        for _ in range(20):  # not one lucky allocation
            array = dynamics._line_aligned(shape)
            assert array.shape == shape and array.dtype == np.float64
            # an empty array has no element to align
            assert line_offsets(array) == (0, 0) or array.size == 0
            assert array.strides[-1] == 8 and array.flags.writeable
        values = np.arange(math.prod(shape), dtype=np.float64).reshape(shape)
        filled = dynamics._line_aligned(shape, values)
        assert np.array_equal(filled, values)
        # rows do not overlap: writing one leaves the others as they were
        if len(shape) == 2 and shape[0] > 1:
            filled[0] = -1.0
            assert np.array_equal(filled[1:], values[1:])
        assert np.all(dynamics._line_aligned(shape, 0.0) == 0.0)


class TestOneSinePerStep:
    """Each step runs one sine for the coupling and lock terms together; a
    lock-only window and a lock term of -0.0 keep the full-angle loop's bits."""

    @pytest.mark.parametrize("source", ["rngs", "xi"])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("side", [4, 19])
    def test_lock_only_window(self, side, batch, source):
        # no gated edge: at side 4 (16 or 48 phases) the drift is the compacted
        # layout's with zero edges, at side 19 (361 or 1083 phases, above the
        # size floor) the lattice layout's with no offset class
        graph = kings_graph(side)
        rng = np.random.default_rng(side * batch)
        phases = rng.uniform(0.0, TWO_PI, (batch, graph.n))
        shil = ShilConfig(rng.random((batch, graph.n)) < 0.7,
                          rng.choice([0.0, math.pi / 2, math.pi / 4], (batch, graph.n)))
        assert shil.enabled.any() and not shil.enabled.all()
        gate = CouplingGate.all_off(graph)
        assert picked_layout(phases, graph, gate, shil) == ("compacted" if side == 4 else "lattice")
        args = (phases, 37, graph, gate, shil, DynamicsParams(), source, 5)
        assert_same_run(traced_run(integrate, *args), traced_run(full_angle_integrate, *args))

    @pytest.mark.parametrize("source", ["rngs", "xi"])
    @pytest.mark.parametrize("side,batch,layout", [(4, 3, "compacted"), (19, 3, "lattice")])
    def test_lock_only_window_in_either_layout(self, side, batch, layout, source):
        # no gated edge, so the lattice layout has no offset class: its drift
        # is (+0.0 - +0.0) + lock where the compacted one's is lock + 0. Half
        # the phases sit on their select, where the lock term is -0.0
        graph = kings_graph(side)
        assert (batch * graph.n >= dynamics.LATTICE_MIN_NODES) == (layout == "lattice")
        rng = np.random.default_rng(side + batch)
        select = rng.choice([0.0, math.pi / 2, math.pi / 4], (batch, graph.n))
        on = rng.random((batch, graph.n)) < 0.5
        phases = np.where(on, select, rng.uniform(0.0, TWO_PI, (batch, graph.n)))
        gate = CouplingGate.all_off(graph)
        shil = ShilConfig(rng.random((batch, graph.n)) < 0.7, select)
        assert picked_layout(phases, graph, gate, shil) == layout
        args = (phases, 37, graph, gate, shil, DynamicsParams(noise=0.05), source, 17)
        assert_same_run(traced_run(integrate, *args), traced_run(full_angle_integrate, *args))

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    @pytest.mark.parametrize("side,batch,layout", [(4, 1, "compacted"), (4, 3, "compacted"),
                                                   (32, 1, "lattice"), (19, 3, "lattice")])
    def test_phases_on_select(self, side, batch, layout, noise):
        # where theta == select, (h + h) - select is +0.0 and the lock term
        # is -dt * locking * 0 / 1 = -0.0
        graph = kings_graph(side)
        rng = np.random.default_rng(side + batch)
        select = rng.choice([0.0, math.pi / 2, math.pi / 4], (batch, graph.n))
        enabled = rng.random((batch, graph.n)) < 0.8
        on = rng.random((batch, graph.n)) < 0.5
        phases = np.where(on, select, rng.uniform(0.0, TWO_PI, (batch, graph.n)))
        lock = half_angle_sine(phases - select, -1.0)[on & enabled]
        assert len(lock) and np.all(lock == 0.0) and np.all(np.signbit(lock))
        gate = scheduler.gate_couplings(graph, np.zeros((batch, graph.n), dtype=np.int64))
        shil = ShilConfig(enabled, select)
        assert picked_layout(phases, graph, gate, shil) == layout
        params = DynamicsParams(noise=noise)
        args = (phases, 20, graph, gate, shil, params, "xi", 13)
        assert_same_run(traced_run(integrate, *args), traced_run(full_angle_integrate, *args))

    @pytest.mark.parametrize("edges", [0, 1, 7, 8, 9, 20])
    def test_compacted_lock_slots_start_on_a_line(self, edges):
        rng = np.random.default_rng(edges)
        size = 11
        half = dynamics._line_aligned((size,), rng.uniform(0.0, math.pi, size))
        ei, ej = np.sort(rng.integers(0, size, (2, edges)), axis=0)
        edge_w = rng.uniform(-0.01, 0.01, edges)
        lock_w = np.where(rng.random(size) < 0.7, -0.025, 0.0)
        select = dynamics._line_aligned((size,), rng.choice([0.0, math.pi / 2], size))
        edge_s = half_angle_sine(half[ei] - half[ej], edge_w)
        want = ((np.bincount(ei, edge_s, size) - np.bincount(ej, edge_s, size))
                + half_angle_sine((half + half) - select, lock_w))
        start = half.copy()
        drift = dynamics._compacted_coupling(half, ei, ej, edge_w, (lock_w, select))
        calls = ufunc_calls(lambda: dynamics._window_kernel(half, drift, 0.01)([None], 0.0))
        (angles, scale, t, denom), = sines(calls)
        assert angles is t and len(t) == -(-edges // 8) * 8 + size
        # the edge slots, then the lock slots, which the drift is written into
        lock = t[len(t) - size:]
        for array in (t, scale, denom, lock, scale[len(t) - size:]):
            assert line_offsets(array) == (0, 0)
        name, (into, got, out) = calls[-1]  # the step's half += drift
        assert name == "add" and into is half and out is half
        assert got.ctypes.data == lock.ctypes.data and got.shape == lock.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(half.view(np.int64), (start + want).view(np.int64))
