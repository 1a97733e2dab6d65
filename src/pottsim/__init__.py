"""Phase-dynamics Potts machine: staged max-cut annealing for graph coloring.

Simulates a network of coupled phase oscillators with second-harmonic
injection locking, solves 4-coloring (and 2^m-coloring) by repeated binary
partitioning, and provides the exact oracles and metrics used to evaluate
solution quality.
"""

from .dynamics import (
    CouplingGate,
    DynamicsParams,
    PhaseState,
    ShilConfig,
    TrajectoryRecorder,
    evolve,
    random_init,
    step,
)
from .graph import Graph, GraphFormatError, kings_graph, load_graph, save_graph
from .hamiltonian import (
    ising_coloring_energy,
    ising_energy,
    lyapunov_energy,
    phase_energy,
    potts_energy,
)
from .metrics import (
    RunStats,
    SolveResult,
    aggregate,
    coloring_accuracy,
    cut_accuracy,
    cut_value,
    hamming,
    hamming_min_rotation,
)
from .oracle import (
    OracleTimeout,
    brute_force_maxcut,
    constructive_kings_coloring,
    cut_baseline,
    exact_coloring,
    stripe_cut_value,
)
from .scheduler import (
    StagePlan,
    assign_shil,
    gate_couplings,
    partition_from_phases,
    quantize_phase,
    solve_4coloring,
    solve_batch,
    solve_kcoloring,
)
from .seeds import mix_seed, rng_for

__version__ = "0.1.0"
