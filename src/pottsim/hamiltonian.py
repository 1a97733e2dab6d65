"""Energy evaluators: Ising, Potts, phase-interaction, and one-hot coloring.

All evaluators are pure functions of (graph, assignment) and return plain
floats. Spin conventions:

  * Ising spins are sigma in {-1, +1}.
  * Potts spins are integers in {0..N-1}.
  * Phase states are real angles; two-phase states use {0, pi}.
  * One-hot assignments are n x N matrices of {0, 1}; rows need not be
    one-hot (the uncolored penalty term charges for violations).

A real-valued argument that holds a NaN or inf or is not a real array
(complex, string or object dtype), or Potts spins that are not an integer
array, raise a ValueError that names the argument.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph
from .validate import finite, integers, shaped

__all__ = [
    "ising_energy",
    "phase_energy",
    "potts_energy",
    "ising_coloring_energy",
    "lyapunov_energy",
    "spins_to_sigma",
]


def spins_to_sigma(values) -> np.ndarray:
    """Map binary spins {0, 1} to Ising signs {+1, -1}."""
    values = np.asarray(values)
    return np.where(values == 0, 1.0, -1.0)


def ising_energy(graph: Graph, sigma) -> float:
    """Sum of J_ij * sigma_i * sigma_j over edges, sigma in {-1, +1}."""
    sigma = finite("sigma", shaped("sigma", sigma, (graph.n,)))
    return float(np.sum(graph.w * sigma[graph.ei] * sigma[graph.ej]))


def phase_energy(graph: Graph, phases) -> float:
    """Sum of J_ij * cos(theta_i - theta_j) over edges.

    Serves both the two-phase Ising case and the N-phase vector-Potts case.
    """
    phases = finite("phases", shaped("phases", phases, (graph.n,)))
    return float(np.sum(graph.w * np.cos(phases[graph.ei] - phases[graph.ej])))


def potts_energy(graph: Graph, spins) -> float:
    """Sum of J_ij over monochromatic edges (Kronecker-delta interaction)."""
    spins = integers("spins", spins, (graph.n,))
    return float(np.sum(graph.w * (spins[graph.ei] == spins[graph.ej])))


def ising_coloring_energy(graph: Graph, onehot, scale: float = 1.0) -> float:
    """One-hot binary encoding of N-coloring.

    scale * sum_i (1 - sum_k b_ik)^2  +  scale * sum_{(i,j) in E} sum_k b_ik * b_jk

    Zero exactly when every row is one-hot and no edge joins two nodes
    holding the same color bit. Both terms share one scale factor; edge
    weights do not enter the conflict term.
    """
    bits = np.asarray(finite("onehot", onehot), dtype=np.float64)
    shaped("onehot", bits, (graph.n, bits.shape[-1] if bits.ndim else 1))  # any N colors
    uncolored = np.sum((1.0 - bits.sum(axis=1)) ** 2)
    conflicts = np.sum(bits[graph.ei] * bits[graph.ej])
    return float(scale * (uncolored + conflicts))


def lyapunov_energy(graph: Graph, phases, gate, shil, params) -> float:
    """Composite objective the noiseless phase dynamics descend.

    K_c * sum over gated edges of J_ij * cos(theta_i - theta_j)
    minus (K_s / 2) * sum over injection-enabled nodes of cos(2 * (theta_i - phi_i)).

    The injection term has minima exactly at phi_i and phi_i + pi.
    """
    phases = finite("phases", shaped("phases", phases, (graph.n,)))
    active = shaped("gate.active", gate.active, (graph.edge_count,)).astype(bool)
    coupling = np.sum(
        graph.w[active] * np.cos(phases[graph.ei[active]] - phases[graph.ej[active]])
    )
    enabled = shaped("shil.enabled", shil.enabled, (graph.n,)).astype(bool)
    phi = shaped("shil.select", shil.select, (graph.n,))
    phi = finite("shil.select", phi[enabled]).astype(np.float64)  # read only where injection is on
    locking = np.sum(np.cos(2.0 * (phases[enabled] - phi)))
    return float(params.coupling * coupling - 0.5 * params.locking * locking)
