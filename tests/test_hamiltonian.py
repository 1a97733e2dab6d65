import itertools
import math
import re

import numpy as np
import pytest

from pottsim.dynamics import CouplingGate, DynamicsParams, ShilConfig
from pottsim.graph import Graph, kings_graph
from pottsim.hamiltonian import (
    ising_coloring_energy,
    ising_energy,
    lyapunov_energy,
    phase_energy,
    potts_energy,
    spins_to_sigma,
)

EDGE = Graph(2, [(0, 1, 1.0)])
TRIANGLE = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


def random_graph(rng, n, p=0.5, weighted=False):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w = rng.normal() if weighted else 1.0
                edges.append((i, j, w))
    return Graph(n, edges)


class TestIsingEnergy:
    def test_aligned_edge(self):
        assert ising_energy(EDGE, [1, 1]) == 1.0

    def test_opposed_edge(self):
        assert ising_energy(EDGE, [1, -1]) == -1.0

    def test_triangle(self):
        assert ising_energy(TRIANGLE, [1, 1, -1]) == -1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ising_energy(EDGE, [1, 1, 1])

    def test_spins_to_sigma(self):
        assert list(spins_to_sigma([0, 1, 0])) == [1.0, -1.0, 1.0]


class TestPhaseEnergy:
    def test_in_phase(self):
        assert phase_energy(EDGE, [0.0, 0.0]) == pytest.approx(1.0)

    def test_anti_phase(self):
        assert phase_energy(EDGE, [0.0, math.pi]) == pytest.approx(-1.0)

    def test_quadrature(self):
        assert phase_energy(EDGE, [0.0, math.pi / 2]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_ising_at_binary_phases(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            g = random_graph(rng, rng.integers(2, 10), weighted=True)
            bits = rng.integers(0, 2, g.n)
            phases = bits * math.pi
            sigma = spins_to_sigma(bits)
            assert abs(phase_energy(g, phases) - ising_energy(g, sigma)) < 1e-12

    def test_discretized_potts_closed_form(self):
        rng = np.random.default_rng(11)
        for n_levels in (2, 3, 4, 8):
            g = random_graph(rng, 8, weighted=True)
            spins = rng.integers(0, n_levels, g.n)
            phases = 2 * math.pi * spins / n_levels
            expected = sum(
                w * math.cos(2 * math.pi * (spins[i] - spins[j]) / n_levels)
                for i, j, w in g.edges
            )
            assert phase_energy(g, phases) == pytest.approx(expected, abs=1e-10)

    def test_pure(self):
        phases = np.array([0.3, 2.2])
        assert phase_energy(EDGE, phases) == phase_energy(EDGE, phases)


class TestPottsEnergy:
    def test_monochromatic_edge(self):
        assert potts_energy(EDGE, [0, 0]) == 1.0

    def test_bichromatic_edge(self):
        assert potts_energy(EDGE, [0, 3]) == 0.0

    def test_triangle_one_clash(self):
        assert potts_energy(TRIANGLE, [0, 0, 1]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            potts_energy(TRIANGLE, [0, 0])


def proper_onehot(bits, graph):
    """Independent check: every row one-hot and no monochromatic edge."""
    if any(sum(row) != 1 for row in bits):
        return False
    colors = [row.index(1) for row in bits]
    return all(colors[i] != colors[j] for i, j, _ in graph.edges)


class TestIsingColoringEnergy:
    def test_proper_pair(self):
        onehot = [[1, 0], [0, 1]]
        assert ising_coloring_energy(EDGE, onehot) == 0.0

    def test_conflicting_pair(self):
        onehot = [[1, 0], [1, 0]]
        assert ising_coloring_energy(EDGE, onehot) == 1.0

    def test_uncolored_node(self):
        g = Graph(1, [])
        assert ising_coloring_energy(g, [[0, 0]]) == 1.0

    def test_scale_factor(self):
        onehot = [[1, 0], [1, 0]]
        assert ising_coloring_energy(EDGE, onehot, scale=3.0) == 3.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ising_coloring_energy(EDGE, [[1, 0]])

    @pytest.mark.parametrize("onehot,need", [
        ([[1, 0]], (2, 2)), ([1, 0], (2, 2)), (1, (2, 1)), ([[[1, 0], [0, 1]]], (2, 2)),
    ], ids=["rows", "1d", "0d", "3d"])
    def test_names_the_shape_it_needs(self, onehot, need):
        with pytest.raises(ValueError, match=re.escape(
                f"onehot has shape {np.shape(onehot)}, need {need}")):
            ising_coloring_energy(EDGE, onehot)

    @pytest.mark.parametrize("graph", [EDGE, TRIANGLE, kings_graph(2)])
    @pytest.mark.parametrize("n_colors", [2, 3])
    def test_zero_iff_proper_exhaustive(self, graph, n_colors):
        for flat in itertools.product([0, 1], repeat=graph.n * n_colors):
            bits = [
                list(flat[i * n_colors : (i + 1) * n_colors]) for i in range(graph.n)
            ]
            energy = ising_coloring_energy(graph, bits)
            assert (energy == 0.0) == proper_onehot(bits, graph)


class TestLyapunovEnergy:
    def test_reduces_to_phase_energy(self):
        g = kings_graph(3)
        rng = np.random.default_rng(3)
        phases = rng.uniform(0, 2 * math.pi, g.n)
        params = DynamicsParams(coupling=1.7, locking=0.0)
        e = lyapunov_energy(
            g, phases, CouplingGate.all_on(g), ShilConfig.off(g.n), params
        )
        assert e == pytest.approx(1.7 * phase_energy(g, phases))

    def test_single_oscillator_at_lock_phase(self):
        g = Graph(1, [])
        params = DynamicsParams(coupling=0.0, locking=1.0)
        shil = ShilConfig.uniform(1, 0.0)
        gate = CouplingGate.all_off(g)
        assert lyapunov_energy(g, [0.0], gate, shil, params) == pytest.approx(-0.5)
        assert lyapunov_energy(g, [math.pi / 2], gate, shil, params) == pytest.approx(0.5)

    def test_gating_removes_edges(self):
        phases = [0.0, 0.0]
        params = DynamicsParams(coupling=1.0, locking=0.0)
        on = lyapunov_energy(EDGE, phases, CouplingGate.all_on(EDGE), ShilConfig.off(2), params)
        off = lyapunov_energy(EDGE, phases, CouplingGate.all_off(EDGE), ShilConfig.off(2), params)
        assert on == pytest.approx(1.0)
        assert off == 0.0

    def test_dimension_mismatch(self):
        params = DynamicsParams()
        with pytest.raises(ValueError):
            lyapunov_energy(EDGE, [0.0], CouplingGate.all_on(EDGE), ShilConfig.off(2), params)
        with pytest.raises(ValueError):
            lyapunov_energy(
                EDGE, [0.0, 0.0], CouplingGate(np.ones(3, dtype=bool)), ShilConfig.off(2), params
            )


class TestArrayShapes:
    """An array of the wrong shape fails by name instead of giving a number:
    an all-ones (3, 3) array on the triangle used to score 9.0."""

    @pytest.mark.parametrize("shape", [(3, 3), ()])
    @pytest.mark.parametrize("energy,name", [(ising_energy, "sigma"), (phase_energy, "phases"),
                                             (potts_energy, "spins")])
    def test_node_energies(self, energy, name, shape):
        with pytest.raises(ValueError, match=re.escape(f"{name} has shape {shape}, need (3,)")):
            energy(TRIANGLE, np.ones(shape))

    @pytest.mark.parametrize("name,shape", [("phases", ()), ("gate.active", (3, 3)),
                                            ("shil.enabled", (3, 3)), ("shil.select", (3, 3))])
    def test_lyapunov_energy(self, name, shape):
        args = {"phases": np.zeros(3), "gate.active": np.ones(3, dtype=bool),
                "shil.enabled": np.ones(3, dtype=bool), "shil.select": np.zeros(3)}
        args[name] = np.ones(shape, dtype=args[name].dtype)
        gate = CouplingGate(args["gate.active"])
        shil = ShilConfig(args["shil.enabled"], args["shil.select"])
        with pytest.raises(ValueError, match=re.escape(f"{name} has shape {shape}, need (3,)")):
            lyapunov_energy(TRIANGLE, args["phases"], gate, shil, DynamicsParams())


class TestBadValues:
    """A NaN or inf fails by name instead of giving a NaN energy, and Potts
    spins must be integers: on kings 2 with one NaN, phase_energy and
    ising_energy used to return nan and potts_energy 0.0."""

    K2 = kings_graph(2)
    BAD = [math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("value", BAD, ids=repr)
    @pytest.mark.parametrize("energy,name", [(ising_energy, "sigma"), (phase_energy, "phases")])
    def test_node_energies(self, energy, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite, got NaN or inf"):
            energy(self.K2, [1.0, -1.0, 1.0, value])

    @pytest.mark.parametrize("value", BAD, ids=repr)
    def test_one_hot(self, value):
        with pytest.raises(ValueError, match="onehot must be finite, got NaN or inf"):
            ising_coloring_energy(EDGE, [[1, 0], [0, value]])

    @pytest.mark.parametrize("spins", [[0, 1, 2, math.nan], [0.0, 1.0, 2.0, 3.0],
                                       [True, False, True, False]], ids=["nan", "float", "bool"])
    def test_potts_spins_must_be_integers(self, spins):
        with pytest.raises(ValueError, match="spins must be an integer array, got dtype"):
            potts_energy(self.K2, spins)

    @pytest.mark.parametrize("value", BAD, ids=repr)
    def test_lyapunov_phases(self, value):
        # an inf phase used to give nan after a RuntimeWarning
        with pytest.raises(ValueError, match="phases must be finite, got NaN or inf"):
            lyapunov_energy(self.K2, [0.0, 1.0, 2.0, value], CouplingGate.all_on(self.K2),
                            ShilConfig.off(4), DynamicsParams())

    @pytest.mark.parametrize("value", BAD, ids=repr)
    def test_lyapunov_select_where_injection_is_on(self, value):
        shil = ShilConfig(np.ones(4, dtype=bool), np.array([0.0, 0.0, value, 0.0]))
        with pytest.raises(ValueError, match="shil.select must be finite, got NaN or inf"):
            lyapunov_energy(self.K2, [0.0, 1.0, 2.0, 3.0], CouplingGate.all_on(self.K2), shil,
                            DynamicsParams())

    @pytest.mark.parametrize("value", [1j, "a"], ids=["complex", "str"])
    @pytest.mark.parametrize("energy,name", [
        (phase_energy, "phases"),
        (ising_energy, "sigma"),
        (lambda g, row: ising_coloring_energy(g, [[bit] for bit in row]), "onehot"),
        (lambda g, row: lyapunov_energy(g, row, CouplingGate.all_on(g), ShilConfig.off(4),
                                        DynamicsParams()), "phases"),
        (lambda g, row: lyapunov_energy(g, [0.0] * 4, CouplingGate.all_on(g),
                                        ShilConfig(np.ones(4, dtype=bool), np.array(row)),
                                        DynamicsParams()), "shil.select"),
    ], ids=["phase", "ising", "one-hot", "lyapunov-phases", "lyapunov-select"])
    def test_not_a_real_array(self, energy, name, value):
        # a complex value used to be cut to its real part, with only a
        # ComplexWarning; a string one gave numpy's bare TypeError
        with pytest.raises(ValueError, match=f"{re.escape(name)} must be a real array, got dtype"):
            energy(self.K2, [0.1, 0.2, 0.3, value])

    @pytest.mark.parametrize("value", BAD, ids=repr)
    def test_lyapunov_select_inert_where_injection_is_off(self, value):
        enabled = np.array([True, True, False, True])
        phases, gate, params = [0.0, 1.0, 2.0, 3.0], CouplingGate.all_on(self.K2), DynamicsParams()
        want = lyapunov_energy(self.K2, phases, gate, ShilConfig(enabled, np.zeros(4)), params)
        bad = ShilConfig(enabled, np.array([0.0, 0.0, value, 0.0]))
        assert lyapunov_energy(self.K2, phases, gate, bad, params) == want
