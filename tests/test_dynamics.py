import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from pottsim.dynamics import (
    CouplingGate,
    DynamicsParams,
    PhaseState,
    ShilConfig,
    TrajectoryRecorder,
    evolve,
    integrate,
    random_init,
    step,
    step_count,
    wrap_phases,
)
from pottsim import scheduler
from pottsim.graph import Graph, kings_graph
from pottsim.hamiltonian import lyapunov_energy
from pottsim.seeds import rng_for

EDGE = Graph(2, [(0, 1, 1.0)])
SINGLE = Graph(1, [])
TWO_PI = 2 * math.pi


def free_config(graph):
    return CouplingGate.all_on(graph), ShilConfig.off(graph.n)


class TestRandomInit:
    def test_single(self):
        state = random_init(1, rng_for(0))
        assert 0 <= state.phases[0] < TWO_PI
        assert state.time == 0.0

    def test_same_seed_identical(self):
        a = random_init(5, rng_for(42))
        b = random_init(5, rng_for(42))
        assert np.array_equal(a.phases, b.phases)

    def test_uniformity(self):
        state = random_init(10_000, rng_for(123))
        assert abs(np.mean(np.cos(state.phases))) < 0.05
        assert abs(np.mean(np.sin(state.phases))) < 0.05

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            random_init(0, rng_for(0))

    @pytest.mark.parametrize("n", [True, 2.5, 3.0, "3"], ids=repr)
    def test_rejects_a_count_that_is_not_an_integer(self, n):
        with pytest.raises(ValueError, match=r"n must be an integer >= 1 \(not bool\)"):
            random_init(n, rng_for(0))


class TestStep:
    def test_null_dynamics(self):
        state = PhaseState(np.array([1.0, 2.0]))
        params = DynamicsParams(coupling=0.0, locking=0.0, noise=0.0)
        gate, shil = free_config(EDGE)
        out = step(state, EDGE, gate, shil, params)
        assert np.array_equal(out.phases, state.phases)
        assert out.time == pytest.approx(params.dt)

    def test_anti_phase_fixed_point(self):
        state = PhaseState(np.array([0.0, math.pi]))
        params = DynamicsParams(noise=0.0)
        gate, shil = free_config(EDGE)
        out = step(state, EDGE, gate, shil, params)
        assert np.allclose(out.phases, state.phases, atol=1e-15)

    def test_locking_pulls_toward_reference(self):
        # dtheta/dt = -sin(2 theta) is negative at theta = 0.1
        state = PhaseState(np.array([0.1]))
        params = DynamicsParams(coupling=0.0, locking=1.0, noise=0.0, dt=0.01)
        out = step(state, SINGLE, CouplingGate.all_off(SINGLE), ShilConfig.uniform(1, 0.0), params)
        assert out.phases[0] < 0.1
        assert out.phases[0] == pytest.approx(0.1 - 0.01 * math.sin(0.2))

    def test_explicit_noise_vector(self):
        state = PhaseState(np.zeros(2))
        params = DynamicsParams(coupling=0.0, locking=0.0, noise=1.0, dt=0.04)
        gate, shil = free_config(EDGE)
        out = step(state, EDGE, gate, shil, params, xi=np.array([1.0, -1.0]))
        assert out.phases[0] == pytest.approx(0.2)
        assert out.phases[1] == pytest.approx(TWO_PI - 0.2)

    def test_noise_requires_rng(self):
        state = PhaseState(np.zeros(2))
        params = DynamicsParams(noise=0.1)
        gate, shil = free_config(EDGE)
        with pytest.raises(ValueError):
            step(state, EDGE, gate, shil, params)

    def test_dimension_mismatch(self):
        state = PhaseState(np.zeros(3))
        params = DynamicsParams(noise=0.0)
        gate, shil = free_config(EDGE)
        with pytest.raises(ValueError):
            step(state, EDGE, gate, shil, params)

    def test_stability_guard(self):
        g = kings_graph(3)
        state = PhaseState(np.zeros(g.n))
        params = DynamicsParams(coupling=10.0, dt=0.01, noise=0.0)
        gate, shil = free_config(g)
        with pytest.raises(ValueError, match="unstable"):
            step(state, g, gate, shil, params)


    def test_stability_guard_counts_edge_weights(self):
        # max_degree is 1, so the old guard saw dt * max(1, 5) = 0.05; the
        # weighted degree 150 gives 1.5
        heavy = Graph(2, [(0, 1, 150.0)])
        params = DynamicsParams(noise=0.0)
        assert params.dt * max(params.coupling * heavy.max_degree(), 2 * params.locking) < 0.5
        gate, shil = free_config(heavy)
        with pytest.raises(ValueError, match="unstable"):
            step(PhaseState(np.array([0.0, 1.0])), heavy, gate, shil, params)
        with pytest.raises(ValueError, match="unstable"):
            evolve(PhaseState(np.array([0.0, 1.0])), 1.0, heavy, gate, shil, params)

    def test_stability_guard_counts_negative_weights(self):
        # ferromagnetic couplings pull as hard as anti-ferromagnetic ones
        signed = Graph(3, [(0, 1, -30.0), (1, 2, 30.0)])
        assert signed.max_weighted_degree() == 60.0
        with pytest.raises(ValueError, match="unstable"):
            DynamicsParams().check_stability(signed)

    def test_huge_rate_message_stays_short(self):
        with pytest.raises(ValueError, match="unstable") as info:
            DynamicsParams(locking=1e300).check_stability(kings_graph(3))
        assert "2e+298" in str(info.value) and len(str(info.value)) < 120

    def test_rejected_step_diverges(self):
        # integrate has no guard: there the anti-phase fixed point of the
        # heavy edge repels, each step doubling the distance to it
        heavy = Graph(2, [(0, 1, 150.0)])
        params = DynamicsParams(locking=0.0, noise=0.0)
        phases = np.array([[0.0, math.pi - 0.01]])
        phases, _ = integrate(phases, 6, heavy, CouplingGate.all_on(heavy),
                              ShilConfig.off(2), params)
        gap = abs(math.remainder(phases[0, 1] - phases[0, 0], TWO_PI))
        assert math.pi - gap > 0.5

    @pytest.mark.parametrize("side", [1, 2, 7, 46])
    def test_weighted_degree_is_degree_for_unit_weights(self, side):
        graph = kings_graph(side)
        assert graph.max_weighted_degree() == graph.max_degree()


class TestEvolve:
    def test_zero_duration(self):
        state = PhaseState(np.array([1.0, 2.0]), time=3.0)
        params = DynamicsParams(noise=0.0)
        gate, shil = free_config(EDGE)
        out = evolve(state, 0.0, EDGE, gate, shil, params)
        assert np.array_equal(out.phases, state.phases)
        assert out.time == 3.0

    def test_two_oscillator_anti_phase_vs_reference_integrator(self):
        # phase difference obeys d(delta)/dt = 2 * sin(delta), attractor at pi
        params = DynamicsParams(coupling=1.0, locking=0.0, noise=0.0, dt=0.01)
        state = PhaseState(np.array([0.0, math.pi / 2]))
        gate, shil = free_config(EDGE)
        out = evolve(state, 20.0, EDGE, gate, shil, params)
        delta = abs(float(np.mod(out.phases[0] - out.phases[1] + math.pi, TWO_PI) - math.pi))
        assert abs(delta - math.pi) < 0.01

        ref = solve_ivp(
            lambda t, d: [2 * math.sin(d[0])], (0, 20.0), [-math.pi / 2],
            rtol=1e-10, atol=1e-10,
        )
        ref_delta = abs(float(np.mod(ref.y[0, -1] + math.pi, TWO_PI) - math.pi))
        assert abs(delta - ref_delta) < 0.01

    def test_shifted_lock_targets(self):
        params = DynamicsParams(coupling=0.0, locking=1.0, noise=0.0, dt=0.01)
        state = PhaseState(np.array([0.3]))
        out = evolve(
            state, 20.0, SINGLE, CouplingGate.all_off(SINGLE),
            ShilConfig.uniform(1, math.pi / 2), params,
        )
        dist = min(abs(out.phases[0] - math.pi / 2), abs(out.phases[0] - 3 * math.pi / 2))
        assert dist < 0.01

    def test_matches_repeated_step(self):
        g = kings_graph(3)
        params = DynamicsParams(noise=0.05)
        gate, shil = free_config(g)
        state = random_init(g.n, rng_for(5))
        via_evolve = evolve(state, 1.0, g, gate, shil, params, rng_for(99))
        rng = rng_for(99)
        via_steps = state
        for _ in range(100):
            via_steps = step(via_steps, g, gate, shil, params, rng)
        # evolve wraps once at the end of its window, step after every step;
        # the drift is 2*pi-periodic, so they differ in rounding only
        gap = np.mod(via_evolve.phases - via_steps.phases, TWO_PI)
        assert np.all(np.minimum(gap, TWO_PI - gap) <= 1e-12)

    def test_deterministic(self):
        g = kings_graph(4)
        params = DynamicsParams()
        gate, shil = free_config(g)
        state = random_init(g.n, rng_for(1))
        a = evolve(state, 2.0, g, gate, shil, params, rng_for(7))
        b = evolve(state, 2.0, g, gate, shil, params, rng_for(7))
        assert np.array_equal(a.phases, b.phases)

    def test_phases_stay_wrapped(self):
        g = kings_graph(3)
        params = DynamicsParams(noise=0.8)
        gate, shil = free_config(g)
        state = random_init(g.n, rng_for(2))
        rng = rng_for(3)
        for _ in range(200):
            state = step(state, g, gate, shil, params, rng)
            assert np.all(state.phases >= 0.0)
            assert np.all(state.phases < TWO_PI)

    def test_noise_requires_rng(self):
        state = PhaseState(np.zeros(2))
        gate, shil = free_config(EDGE)
        with pytest.raises(ValueError, match="rng"):
            evolve(state, 1.0, EDGE, gate, shil, DynamicsParams(noise=0.1))

    def test_negative_duration_rejected(self):
        state = PhaseState(np.zeros(2))
        gate, shil = free_config(EDGE)
        with pytest.raises(ValueError):
            evolve(state, -1.0, EDGE, gate, shil, DynamicsParams(noise=0.0))

    @pytest.mark.parametrize("duration", [math.inf, math.nan])
    def test_nonfinite_duration_rejected(self, duration):
        state = PhaseState(np.zeros(2))
        gate, shil = free_config(EDGE)
        with pytest.raises(ValueError, match="duration"):
            evolve(state, duration, EDGE, gate, shil, DynamicsParams(noise=0.0))


K3 = kings_graph(3)


class TestIntegrateChecks:
    """integrate rejects inputs that do not fit, naming the one at fault."""

    def run(self, phases=None, n_steps=5, gate=None, shil=None, rngs=None, xi=None):
        return integrate(
            np.zeros((3, K3.n)) if phases is None else phases, n_steps, K3,
            CouplingGate.all_off(K3) if gate is None else gate,
            ShilConfig.off(K3.n) if shil is None else shil,
            DynamicsParams(), rngs=rngs, xi=xi,
        )

    def test_too_few_rngs(self):
        # rows without a generator would integrate uninitialized noise
        with pytest.raises(ValueError, match="1 rngs for 3 phase rows"):
            self.run(rngs=[rng_for(0)])

    @pytest.mark.parametrize("kwargs,match", [
        (dict(phases=np.zeros((3, K3.n - 1))), "phases"),
        (dict(phases=np.zeros((2, 3, K3.n))), "phases"),
        (dict(n_steps=-1), "n_steps"),
        (dict(gate=CouplingGate(np.ones(K3.edge_count - 1, dtype=bool))), "gate"),
        (dict(gate=CouplingGate(np.ones((2, K3.edge_count), dtype=bool))), "gate"),
        (dict(shil=ShilConfig(np.ones(K3.n - 1, dtype=bool), np.zeros(K3.n - 1))), "shil"),
        (dict(shil=ShilConfig(np.ones(K3.n, dtype=bool), np.zeros((2, K3.n)))), "shil.select"),
        (dict(rngs=[rng_for(s) for s in range(4)]), "rngs"),
        (dict(xi=np.zeros((3, 4, K3.n))), "xi"),
        (dict(xi=np.zeros((5, K3.n))), "xi"),
    ], ids=["phases-width", "phases-3d", "negative-steps", "gate-length", "gate-rows",
            "shil-length", "select-rows", "too-many-rngs", "xi-steps", "xi-2d"])
    def test_rejects(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            self.run(**kwargs)

    @pytest.mark.parametrize("n_steps", [2.5, 5.0, "5", True, None], ids=repr)
    def test_rejects_non_integer_steps(self, n_steps):
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            self.run(n_steps=n_steps)

    def test_accepts_numpy_integer_steps(self):
        phases, time = self.run(n_steps=np.int64(5), rngs=[rng_for(s) for s in range(3)])
        assert phases.shape == (3, K3.n)
        assert time == pytest.approx(5 * DynamicsParams().dt)

    def test_names_the_shape_it_needs(self):
        with pytest.raises(ValueError, match=re.escape(
                f"phases has shape (2, 3, {K3.n}), need (2, {K3.n})")):
            self.run(phases=np.zeros((2, 3, K3.n)))
        with pytest.raises(ValueError, match=re.escape(
                f"xi has shape (3, 4, {K3.n}), need (3, 5, {K3.n})")):
            self.run(xi=np.zeros((3, 4, K3.n)))
        # step names its own (n,) noise vector, not integrate's (1, 1, n)
        gate, shil = free_config(K3)
        with pytest.raises(ValueError, match=re.escape(f"xi has shape (3,), need ({K3.n},)")):
            step(PhaseState(np.zeros(K3.n)), K3, gate, shil, DynamicsParams(), xi=np.zeros(3))

    def test_xi_may_be_a_list(self):
        xi = np.random.default_rng(3).standard_normal((3, 5, K3.n))
        assert np.array_equal(self.run(xi=xi.tolist())[0], self.run(xi=xi)[0])

    def test_step_rejects_short_xi(self):
        gate, shil = free_config(EDGE)
        with pytest.raises(ValueError, match="xi"):
            step(PhaseState(np.zeros(2)), EDGE, gate, shil, DynamicsParams(), xi=[1.0])


class TestNonFiniteInputs:
    """A NaN or an infinity in the phases or the noise is named, not integrated."""

    BAD = [math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("value", BAD, ids=repr)
    def test_integrate_rejects_phases(self, value):
        phases = np.zeros((3, K3.n))
        phases[1, 4] = value
        with pytest.raises(ValueError, match="phases must be finite"):
            integrate(phases, 5, K3, CouplingGate.all_on(K3), ShilConfig.off(K3.n),
                      DynamicsParams(), rngs=[rng_for(s) for s in range(3)])

    @pytest.mark.parametrize("value", BAD, ids=repr)
    def test_integrate_rejects_xi(self, value):
        xi = np.zeros((3, 5, K3.n))
        xi[2, 3, 0] = value
        with pytest.raises(ValueError, match="xi must be finite"):
            integrate(np.zeros((3, K3.n)), 5, K3, CouplingGate.all_on(K3),
                      ShilConfig.off(K3.n), DynamicsParams(), xi=xi)

    @pytest.mark.parametrize("value", [1j, "a"], ids=["complex", "str"])
    def test_phases_and_xi_must_be_real_arrays(self, value):
        # complex phases used to be cut to their real part before the check
        gate, shil = free_config(EDGE)
        with pytest.raises(ValueError, match="phases must be a real array, got dtype"):
            integrate([[0.5, value]], 5, EDGE, gate, shil, DynamicsParams(noise=0.0))
        with pytest.raises(ValueError, match="xi must be a real array, got dtype"):
            step(PhaseState(np.array([0.5, 1.0])), EDGE, gate, shil, DynamicsParams(),
                 xi=[value, 0.0])

    @pytest.mark.parametrize("value", BAD, ids=repr)
    def test_step_rejects_phases_and_xi(self, value):
        gate, shil = free_config(EDGE)
        with pytest.raises(ValueError, match="phases must be finite"):
            step(PhaseState(np.array([0.5, value])), EDGE, gate, shil, DynamicsParams(),
                 rng_for(0))
        with pytest.raises(ValueError, match="xi must be finite"):
            step(PhaseState(np.array([0.5, 1.0])), EDGE, gate, shil, DynamicsParams(),
                 xi=np.array([value, 0.0]))

    @pytest.mark.parametrize("noise", [0.0, 0.05], ids=["quiet", "noisy"])
    @pytest.mark.parametrize("value", BAD, ids=repr)
    def test_evolve_rejects_phases(self, value, noise):
        gate, shil = free_config(K3)
        phases = np.full(K3.n, 1.0)
        phases[0] = value
        with pytest.raises(ValueError, match="phases must be finite"):
            evolve(PhaseState(phases), 1.0, K3, gate, shil, DynamicsParams(noise=noise),
                   rng_for(0))

    @pytest.mark.parametrize("value", BAD, ids=repr)
    def test_integrate_rejects_select_where_injection_is_on(self, value):
        select = np.zeros((3, K3.n))
        select[1, 2] = value
        with pytest.raises(ValueError, match="shil.select must be finite"):
            integrate(np.zeros((3, K3.n)), 5, K3, CouplingGate.all_on(K3),
                      ShilConfig(np.ones(K3.n, dtype=bool), select), DynamicsParams(noise=0.0))

    @pytest.mark.parametrize("value", BAD, ids=repr)
    def test_step_and_evolve_reject_select(self, value):
        # built by hand: ShilConfig.uniform rejects a non-finite phi itself
        gate = CouplingGate.all_on(K3)
        shil = ShilConfig(np.ones(K3.n, dtype=bool), np.full(K3.n, value))
        state = PhaseState(np.full(K3.n, 1.0))
        with pytest.raises(ValueError, match="shil.select must be finite"):
            step(state, K3, gate, shil, DynamicsParams(), rng_for(0))
        with pytest.raises(ValueError, match="shil.select must be finite"):
            evolve(state, 1.0, K3, gate, shil, DynamicsParams(), rng_for(0))

    def test_solve_batch_rejects_select(self, monkeypatch):
        def nan_shil(groups, stage=2):
            return ShilConfig(np.ones(K3.n, dtype=bool), np.full(np.shape(groups), math.nan))

        monkeypatch.setattr(scheduler, "assign_shil", nan_shil)
        with pytest.raises(ValueError, match="shil.select must be finite"):
            scheduler.solve_batch(K3, 2, seeds=[0, 1])

    @pytest.mark.parametrize("value", BAD, ids=repr)
    def test_select_inert_without_locking(self, value):
        # with locking 0 no lock term is formed, so select is never read
        params = DynamicsParams(locking=0.0, noise=0.0)
        phases = np.linspace(0.0, 6.0, K3.n)
        gate = CouplingGate.all_on(K3)
        want, _ = integrate(phases, 4, K3, gate, ShilConfig.uniform(K3.n, 0.0), params)
        bad = ShilConfig(np.ones(K3.n, dtype=bool), np.full(K3.n, value))
        got, _ = integrate(phases, 4, K3, gate, bad, params)
        assert np.array_equal(got, want)

    def test_lattice_window_rejects_phases(self):
        # 3 rows of kings 19 take the lattice layout, where an empty slot
        # between rows would carry a NaN from one row into the next
        graph = kings_graph(19)
        phases = np.ones((3, graph.n))
        phases[0, -1] = math.nan
        with pytest.raises(ValueError, match="phases must be finite"):
            integrate(phases, 2, graph, CouplingGate.all_on(graph), ShilConfig.off(graph.n),
                      DynamicsParams(noise=0.0))


class TestStepCount:
    @pytest.mark.parametrize("duration,dt,steps", [
        (0.0, 0.01, 0), (1.0, 0.01, 100), (0.015, 0.01, 2), (7.0, 0.5, 14),
    ])
    def test_counts(self, duration, dt, steps):
        assert step_count(duration, dt) == steps

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf, -1.0, -1e-300, True, "1"])
    def test_rejects_bad_duration(self, duration):
        with pytest.raises(ValueError, match="duration must be nonnegative and finite"):
            step_count(duration, 0.01)

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf, -math.inf, True, "0.01"])
    def test_rejects_bad_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            step_count(1.0, dt)

    def test_rejects_a_count_that_overflows(self):
        with pytest.raises(ValueError, match="duration / dt overflows"):
            step_count(1e308, 1e-10)


class TestZeroNodes:
    """With no oscillators a window only advances the clock, noise or not."""

    EMPTY = Graph(0, [])

    @pytest.mark.parametrize("noise", [0.0, 0.05], ids=["quiet", "noisy"])
    def test_evolve(self, noise):
        rng = rng_for(3)
        drawn = rng.bit_generator.state
        gate, shil = free_config(self.EMPTY)
        out = evolve(PhaseState(np.zeros(0), 1.0), 0.5, self.EMPTY, gate, shil,
                     DynamicsParams(noise=noise), rng)
        clock = 1.0
        for _ in range(step_count(0.5, DynamicsParams().dt)):
            clock += DynamicsParams().dt
        assert out.phases.shape == (0,)
        assert out.time == clock
        assert rng.bit_generator.state == drawn

    @pytest.mark.parametrize("noise", [0.0, 0.05], ids=["quiet", "noisy"])
    def test_step(self, noise):
        gate, shil = free_config(self.EMPTY)
        out = step(PhaseState(np.zeros(0), 2.0), self.EMPTY, gate, shil,
                   DynamicsParams(noise=noise), rng_for(4))
        assert out.phases.shape == (0,)
        assert out.time == 2.0 + DynamicsParams().dt

    @pytest.mark.parametrize("noise", [0.0, 0.05], ids=["quiet", "noisy"])
    def test_integrate_batch(self, noise):
        phases, time = integrate(
            np.zeros((3, 0)), 7, self.EMPTY, CouplingGate.all_on(self.EMPTY),
            ShilConfig.off(0), DynamicsParams(noise=noise),
            rngs=[rng_for(s) for s in range(3)],
        )
        assert phases.shape == (3, 0)
        assert time == sum([DynamicsParams().dt] * 7)


class TestShilConfigOff:
    @pytest.mark.parametrize("n", [0, 3, np.int64(3)], ids=repr)
    def test_all_off(self, n):
        shil = ShilConfig.off(n)
        assert shil.enabled.shape == shil.select.shape == (n,) and not shil.enabled.any()

    @pytest.mark.parametrize("n", [2.5, True, -1, "3"], ids=repr)
    def test_rejects_a_node_count_that_is_not_a_nonnegative_integer(self, n):
        with pytest.raises(ValueError, match=re.escape(
                f"n must be an integer >= 0 (not bool), got {n!r}")):
            ShilConfig.off(n)


class TestShilConfigUniform:
    @pytest.mark.parametrize("n", [0, 3, np.int64(3)], ids=repr)
    def test_all_on(self, n):
        shil = ShilConfig.uniform(n, math.pi / 2)
        assert shil.enabled.all() and np.array_equal(shil.select, np.full(n, math.pi / 2))

    @pytest.mark.parametrize("n", [2.5, True, -1, "3"], ids=repr)
    def test_rejects_a_node_count_that_is_not_a_nonnegative_integer(self, n):
        # 2.5 and True used to raise numpy's bare TypeError
        with pytest.raises(ValueError, match=re.escape(
                f"n must be an integer >= 0 (not bool), got {n!r}")):
            ShilConfig.uniform(n, 0.0)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf], ids=repr)
    def test_rejects_a_lock_phase_that_is_not_finite(self, phi):
        # a NaN select used to fail only later, inside integrate
        with pytest.raises(ValueError, match="phi must be finite, got NaN or inf"):
            ShilConfig.uniform(3, phi)

    @pytest.mark.parametrize("phi", ["1.5", True, None], ids=repr)
    def test_rejects_a_lock_phase_that_is_not_a_real_number(self, phi):
        # "1.5" and True used to pass through float() as lock phases 1.5 and 1.0
        with pytest.raises(ValueError, match=re.escape(
                f"phi must be a real number (not bool), got {phi!r}")):
            ShilConfig.uniform(3, phi)

    @pytest.mark.parametrize("phi", [-math.pi / 2, np.float32(0.5), np.float64(-1.0), 2, np.int64(-3)],
                             ids=repr)
    def test_accepts_any_finite_real_lock_phase(self, phi):
        shil = ShilConfig.uniform(3, phi)
        assert shil.select.dtype == np.float64 and np.array_equal(shil.select, np.full(3, float(phi)))


class TestParams:
    @pytest.mark.parametrize("name", ["coupling", "locking", "noise", "dt"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            DynamicsParams(**{name: value})

    @pytest.mark.parametrize("name", ["coupling", "locking", "noise", "dt"])
    @pytest.mark.parametrize("value", [True, "0.1", math.nan], ids=repr)
    def test_rejects_bool_string_and_nan_by_name(self, name, value):
        sign = "positive" if name == "dt" else "nonnegative"
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be {sign} and finite (a real number, not bool), got {value!r}")):
            DynamicsParams(**{name: value})

    def test_stores_values_as_given(self):
        params = DynamicsParams(coupling=2, noise=np.float64(0.1))
        assert type(params.coupling) is int and type(params.noise) is np.float64


class TestLyapunovDescent:
    def test_noiseless_descent_on_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            edges = [
                (i, j, float(rng.uniform(0.2, 1.0)))
                for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6
            ]
            g = Graph(n, edges)
            params = DynamicsParams(coupling=1.0, locking=2.5, noise=0.0, dt=0.01)
            gate = CouplingGate(np.asarray(rng.random(g.edge_count) < 0.8))
            shil = ShilConfig(
                enabled=np.asarray(rng.random(n) < 0.7),
                select=np.asarray(rng.choice([0.0, math.pi / 2], n)),
            )
            state = PhaseState(rng.uniform(0, TWO_PI, n))
            energy = lyapunov_energy(g, state.phases, gate, shil, params)
            for _ in range(1000):
                state = step(state, g, gate, shil, params)
                new_energy = lyapunov_energy(g, state.phases, gate, shil, params)
                assert new_energy <= energy + 1e-9
                energy = new_energy


class TestBinarization:
    @pytest.mark.parametrize("phi", [0.0, math.pi / 2])
    def test_converges_to_lock_pair(self, phi):
        params = DynamicsParams(coupling=0.0, locking=1.0, noise=0.0, dt=0.01)
        shil = ShilConfig.uniform(1, phi)
        gate = CouplingGate.all_off(SINGLE)
        rng = np.random.default_rng(23)
        for _ in range(25):
            theta0 = rng.uniform(0, TWO_PI)
            # skip starts near the unstable equilibria phi +/- pi/2
            if min(abs(math.remainder(theta0 - phi - k * math.pi / 2, TWO_PI)) for k in (1, 3)) < 0.05:
                continue
            out = evolve(PhaseState(np.array([theta0])), 15.0, SINGLE, gate, shil, params)
            dist = min(
                abs(math.remainder(out.phases[0] - phi, TWO_PI)),
                abs(math.remainder(out.phases[0] - phi - math.pi, TWO_PI)),
            )
            assert dist < 1e-3


class TestTrajectoryRecorder:
    def test_csv_dump(self, tmp_path):
        g = EDGE
        params = DynamicsParams(noise=0.0, dt=0.01)
        gate, shil = free_config(g)
        rec = TrajectoryRecorder(sample_every=10)
        evolve(PhaseState(np.array([0.0, 1.0])), 1.0, g, gate, shil, params, recorder=rec)
        path = tmp_path / "traj.csv"
        rec.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time,theta_0,theta_1"
        # samples at steps 0, 10, ..., 90 plus the final state
        assert len(lines) == 1 + 11
        first = [float(x) for x in lines[1].split(",")]
        assert first == [0.0, 0.0, 1.0]

    def test_csv_of_no_samples_is_its_time_header(self, tmp_path):
        path = tmp_path / "traj.csv"
        TrajectoryRecorder().to_csv(path)
        assert path.read_text() == "time\n"

    def test_rejects_zero_sample_every(self):
        with pytest.raises(ValueError, match="sample_every"):
            TrajectoryRecorder(sample_every=0)

    @pytest.mark.parametrize("every", [1.5, 2.0, True, "2", None, -3])
    def test_rejects_sample_every_that_is_not_a_positive_integer(self, every):
        with pytest.raises(ValueError, match="sample_every must be an integer"):
            TrajectoryRecorder(sample_every=every)

    def test_accepts_numpy_integer_sample_every(self):
        rec = TrajectoryRecorder(sample_every=np.int64(2))
        for k in range(5):
            rec.record(PhaseState(np.zeros(1), float(k)), k)
        assert rec.times == [0.0, 2.0, 4.0]

    def test_samples_stay_wrapped(self):
        # samples taken mid-window, where the phases are not yet wrapped
        g = kings_graph(3)
        params = DynamicsParams(noise=0.8)
        gate, shil = free_config(g)
        rec = TrajectoryRecorder(sample_every=1)
        evolve(random_init(g.n, rng_for(2)), 2.0, g, gate, shil, params, rng_for(3), rec)
        samples = np.array(rec.samples)
        assert samples.shape == (201, g.n)
        assert np.all(samples >= 0.0)
        assert np.all(samples < TWO_PI)


class TestWrap:
    def test_wrap_edge_cases(self):
        out = wrap_phases(np.array([-1e-18, TWO_PI, -0.5, 7.0]))
        assert np.all(out >= 0.0)
        assert np.all(out < TWO_PI)
        assert out[1] == 0.0

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
    @example([-0.0, 0.0, -5e-324, 5e-324, TWO_PI, -TWO_PI, 1e20, -1e20,
              math.nextafter(TWO_PI, 0.0), -math.nextafter(TWO_PI, 0.0), -1e-18])
    def test_bit_identical_to_mod(self, values):
        phases = np.array(values)
        want = np.mod(phases, TWO_PI)
        want[want >= TWO_PI] = 0.0
        assert np.array_equal(wrap_phases(phases).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("value", [7.0, -1e-18, TWO_PI, -0.0, 1e20])
    def test_scalar_and_0d_match_one_element_array(self, value):
        want = wrap_phases(np.array([value]))[0]
        for phases in (value, np.float64(value), np.array(value)):
            got = wrap_phases(phases)
            assert np.shape(got) == ()
            assert np.float64(got).view(np.int64) == want.view(np.int64)
