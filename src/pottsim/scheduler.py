"""Multi-stage divide-and-color orchestration.

Every stage runs the same three windows: free drift (every coupling off,
elevated jitter), annealing on same-group couplings, and locking to the
stage-t reference phi = group * pi / 2^(t-1) (assign_shil); the readout then
splits each group in two. m stages yield 2^m-coloring, and the lowest bit of
a final group id, the stage-1 readout, is kept as the max-cut partition.

Group bookkeeping: after stage t a node's group id equals its eventual
color modulo 2^t, and its locked phase is group * 2*pi / 2^t. Stage t+1
injects reference phi = group * pi / 2^t into each group, splitting it
in place into colors group and group + 2^t.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, fields, replace

import numpy as np

from .dynamics import (
    CouplingGate,
    DynamicsParams,
    PhaseState,
    ShilConfig,
    TWO_PI,
    integrate,
    random_init,
    step_count,
    wrap_phases,
)
from .graph import Graph
from .metrics import SolveResult, coloring_accuracy, cut_accuracy
from .oracle import cut_baseline
from .seeds import rng_for
from .validate import count, finite, real, shaped

__all__ = [
    "StagePlan",
    "WINDOW_KINDS",
    "WindowEvent",
    "quantize_phase",
    "quantize_phases",
    "lock_readout",
    "partition_from_phases",
    "gate_couplings",
    "assign_shil",
    "solve_4coloring",
    "solve_kcoloring",
    "solve_batch",
]

# the cut baseline lives in oracle; this name is kept for existing callers
_resolve_cut_baseline = cut_baseline

LOCK_TOLERANCE = 0.15

WINDOW_KINDS = ("free", "anneal", "lock")  # the windows of every stage, in order


@dataclass(frozen=True)
class StagePlan:
    """Durations of the staged schedule, in simulation time units (~ns).

    Stage 1 runs free drift, anneal and lock for t_init, t_anneal1, t_lock1,
    later stages for t_relax, t_anneal2, t_lock2; the defaults follow the
    5/20/5/5/20/5 hardware schedule. sigma_relax is the free-drift jitter.
    """

    t_init: float = 5.0
    t_anneal1: float = 20.0
    t_lock1: float = 5.0
    t_relax: float = 5.0
    t_anneal2: float = 20.0
    t_lock2: float = 5.0
    sigma_relax: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            real(f.name, getattr(self, f.name))


@dataclass(frozen=True)
class WindowEvent:
    """One window of solve_batch, as its on_window callback sees it.

    gated_edges counts each row's gated couplings, shape (B,). phases is the
    wrapped (B, n) output and select the lock reference (None outside a lock
    window), both read-only views. cpu_s and wall_s time the integrate call
    (time.process_time and time.perf_counter).
    """

    stage: int
    kind: str
    n_steps: int
    gated_edges: np.ndarray
    phases: np.ndarray
    select: np.ndarray | None
    cpu_s: float
    wall_s: float


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


def quantize_phase(theta: float, k: int) -> int:
    """Nearest of the k equally spaced phases 2*pi*i/k; ties go to smaller i."""
    return int(quantize_phases(np.array([theta]), k)[0])


def quantize_phases(thetas: np.ndarray, k: int) -> np.ndarray:
    """Vectorized quantize_phase over a finite phase array of any shape."""
    count("k", k, 2)
    thetas = np.asarray(finite("phases", thetas), dtype=np.float64)
    targets = TWO_PI * np.arange(k) / k
    diff = wrap_phases(thetas)[..., None] - targets
    dist = np.abs(np.mod(diff + math.pi, TWO_PI) - math.pi)
    # argmin returns the first (smallest) index on exact ties
    return np.argmin(dist, axis=-1).astype(np.int64)


def lock_readout(phases, phi, tolerance: float):
    """Read each oscillator against its lock pair {phi, phi + pi}.

    phases and phi broadcast against each other, nodes on the last axis.
    Returns (bits, locked): bit 0 where the phase is nearer phi and 1 where
    it is nearer phi + pi, and per row whether every phase lies within
    tolerance of its pair. tolerance must be a real number in (0, pi/2).
    """
    real("tolerance", tolerance, positive=True)
    if not tolerance < math.pi / 2:
        raise ValueError(f"tolerance must lie in (0, pi/2), got {tolerance!r}")
    shifted = phases - phi
    bits = quantize_phases(shifted, 2)  # first, so NaN or inf fails before np.mod warns
    rel = np.mod(shifted, math.pi)
    return bits, np.all(np.minimum(rel, math.pi - rel) <= tolerance, axis=-1)


def partition_from_phases(
    state: PhaseState, tolerance: float = LOCK_TOLERANCE
) -> tuple[np.ndarray, bool]:
    """Binary labels of one phase row, nearest of {0, pi}; locked iff all
    within tolerance (see lock_readout)."""
    phases = shaped("state.phases", state.phases, np.shape(state.phases)[-1:])
    labels, locked = lock_readout(phases, 0.0, tolerance)
    return labels, bool(locked)


def gate_couplings(graph: Graph, labels) -> CouplingGate:
    """Keep only couplings whose endpoints share a label (cut cross edges).

    labels may be (B, n), one row per iteration; the gate is then (B, E).
    """
    labels = shaped("labels", labels, (..., graph.n))
    return CouplingGate(labels[..., graph.ei] == labels[..., graph.ej])


def assign_shil(groups, stage: int = 2) -> ShilConfig:
    """Stage-t lock reference phi = group * pi / 2^(t-1), enabled on every node.

    groups may be (B, n), one row per iteration; stage is an integer >= 1.
    """
    count("stage", stage, 1)
    groups = np.asarray(groups)
    return ShilConfig(
        enabled=np.ones(groups.shape[-1], dtype=bool),
        select=groups * (math.pi / 2 ** (stage - 1)),
    )


def solve_batch(
    graph: Graph,
    m: int,
    params: DynamicsParams | None = None,
    plan: StagePlan | None = None,
    seeds=(0,),
    on_window=None,
) -> list[SolveResult]:
    """Solve 2^m-coloring by m staged binary splits, once per seed.

    The iterations are integrated together as one (len(seeds), n) phase
    array; iteration b draws all its randomness from rng_for(seeds[b]), so
    each result is bit-identical to solving that seed alone. m = 1 is plain
    max-cut; m = 2 is the 4-coloring machine. Stages beyond the first reuse
    the t_relax / t_anneal2 / t_lock2 durations. Each result's wall_time is
    its share of the batch's wall time. Each cut_accuracy is against
    oracle.cut_baseline(graph); a graph with edges whose baseline is not
    positive raises ValueError before any integration. on_window, if given,
    is called with one WindowEvent after each window.
    """
    count("m", m, 1)
    if graph.n < 1:
        raise ValueError("graph must have at least one node")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    params = params or DynamicsParams()
    plan = plan or StagePlan()
    params.check_stability(graph)

    t0 = _time.perf_counter()
    baseline_cut = cut_baseline(graph)[0]
    if graph.edge_count:  # fail before integrating: no cut accuracy exists against it
        real("baseline cut", baseline_cut, positive=True, finite=False)
    rngs = [rng_for(seed) for seed in seeds]
    relax_params = replace(params, noise=plan.sigma_relax)
    gate_off = CouplingGate.all_off(graph)
    shil_off = ShilConfig.off(graph.n)

    phases = np.stack([random_init(graph.n, rng).phases for rng in rngs])
    groups = np.zeros(phases.shape, dtype=np.int64)
    unlocked = [[] for _ in seeds]
    for stage in range(1, m + 1):
        if stage == 1:
            durations = (plan.t_init, plan.t_anneal1, plan.t_lock1)
        else:
            durations = (plan.t_relax, plan.t_anneal2, plan.t_lock2)
        gate = gate_couplings(graph, groups)
        shil = assign_shil(groups, stage)
        windows = (
            (gate_off, shil_off, relax_params),  # free drift
            (gate, shil_off, params),  # anneal
            (gate, shil, params),  # lock
        )
        for kind, duration, (w_gate, w_shil, w_params) in zip(WINDOW_KINDS, durations, windows):
            steps = step_count(duration, w_params.dt)
            cpu0, wall0 = _time.process_time(), _time.perf_counter()
            phases = integrate(phases, steps, graph, w_gate, w_shil, w_params, rngs)[0]
            if on_window is not None:
                cpu_s, wall_s = _time.process_time() - cpu0, _time.perf_counter() - wall0
                gated = np.broadcast_to(w_gate.active, (len(seeds), graph.edge_count))
                select = _read_only(w_shil.select) if kind == "lock" else None
                on_window(WindowEvent(stage, kind, steps, np.count_nonzero(gated, axis=1),
                                      _read_only(phases), select, cpu_s, wall_s))

        # split each group: bit 0 if nearer phi, 1 if nearer phi + pi
        bit, locked = lock_readout(phases, shil.select, LOCK_TOLERANCE)
        for b in np.flatnonzero(~locked):
            unlocked[b].append(stage)
        groups = groups + bit * 2 ** (stage - 1)

    # a group id's lowest bit is its stage-1 readout
    partition = groups % 2
    coloring = quantize_phases(phases, 2**m)
    wall_time = (_time.perf_counter() - t0) / len(seeds)
    return [
        SolveResult(
            seed=seed,
            partition=partition[b],
            coloring=coloring[b],
            cut_accuracy=cut_accuracy(graph, partition[b], baseline_cut),
            coloring_accuracy=coloring_accuracy(graph, coloring[b]),
            wall_time=wall_time,
            unlocked_stages=unlocked[b],
        )
        for b, seed in enumerate(seeds)
    ]


def solve_kcoloring(
    graph: Graph,
    m: int,
    params: DynamicsParams | None = None,
    plan: StagePlan | None = None,
    seed: int = 0,
) -> SolveResult:
    """Solve 2^m-coloring for one seed; see solve_batch."""
    return solve_batch(graph, m, params, plan, [seed])[0]


def solve_4coloring(
    graph: Graph,
    params: DynamicsParams | None = None,
    plan: StagePlan | None = None,
    seed: int = 0,
) -> SolveResult:
    """Two-stage 4-coloring: max-cut, regroup, then per-group max-cut."""
    return solve_kcoloring(graph, 2, params, plan, seed)
