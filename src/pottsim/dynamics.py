"""Stochastic phase dynamics of the coupled-oscillator network.

The model is a Kuramoto-type phase reduction: each oscillator carries a
phase in [0, 2*pi), anti-ferromagnetic coupling pushes connected phases
apart, and second-harmonic injection locks phases to {phi, phi + pi}.
Integration is explicit Euler-Maruyama with a fixed step, so trajectories
are bit-reproducible given a seed. One simulation time unit corresponds to
one nanosecond of the hardware schedule; the carrier frequency is
abstracted away (phases are relative to the carrier).

Update rule per step:

  theta_i += dt * ( coupling * sum_{j~i, gated} J_ij * sin(theta_i - theta_j)
                    - locking * e_i * sin(2 * (theta_i - phi_i)) )
             + noise * sqrt(dt) * xi_i

with xi standard normal. Positive J_ij drives coupled phases apart. This is
gradient descent on hamiltonian.lyapunov_energy plus white phase noise.

Both sines are evaluated by the half-angle identity sin x = 2t / (1 + t^2)
with t = tan(x / 2) (half_angle_sine): NumPy dispatches float64 tan to an
AVX-512 SIMD kernel but runs float64 sin through scalar libm, about ten times
slower per element. The half angle of the coupling term is the difference
of half phases; that of the injection term is theta_i - phi_i, so its
factor 2 disappears. The constants dt * coupling and dt * locking are folded
into per-edge and per-node weights once per window. Each sine differs from
NumPy's sin by at most 2 ulp (absolute error below 4.5e-16, pinned by
tests/test_kernel_contract.py), so trajectories differ
from a sin-based kernel in the last bits only; the discrete outcomes stored
in result files (partitions, colorings, accuracies) came out the same on
every seed tested. The gain needs NumPy's AVX-512 dispatch: without it
(NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4") float64 tan runs
through libm too, at about 1.5x the cost of sin, and a step takes up to
1.4x as long as with sin.

Phases are wrapped into [0, 2*pi) once per window, at its end, not after
every step. That changes rounding only, not the dynamics: the drift is
periodic in each phase, since tan(half_i - half_j) has period pi in the
half phases and tan(theta - phi) has period pi, so a multiple of 2*pi left
on a phase moves no tangent. What differs is the rounding of the arguments,
whose ulp grows with |theta|; inside the windows of the staged solve |theta|
stayed below 13, far inside the [-1e3, 1e3] range the sine tolerance is
pinned on.

integrate carries the half phases h = theta / 2 through a window, in one flat
(B * n) array, so the coupling term gathers its half angles without a
per-step halving. With them go half weights: dt * coupling * w per edge,
-dt * locking per enabled node and noise * sqrt(dt) / 2 for the noise. Each
step then adds exactly half of the full-angle increment: a factor of two
commutes with rounding for normal floats, so every weighted sine, bincount
sum and updated phase is exactly half of its full-angle value, and h + h
gives theta back bit for bit. The injection term takes the tangent of
(h + h) - phi, which is theta - phi exactly. Subnormal values (below
2.2e-308) are the one exception, and none arise from phases in [0, 2*pi)
with weights of ordinary size. tests/test_kernel_contract.py keeps the
full-angle loop and pins integrate to it bit for bit.

The drift has two edge layouts, chosen once per window; both give the same
bits, and in both one sine per step (half_angle_sine's operations, in place)
covers the coupling and the lock term together, over one contiguous run
(_slot_buffers): edge slots in rows padded to whole cache lines, then the
B * n lock slots (h + h) - phi.
The compacted layout gathers both endpoints of every gated edge into one row
and scatters the sines with np.bincount, which adds each node's terms in
edge order from 0.0. The lattice layout groups the gated edges by their
offset d = j - i in the flat half-phase array, one row of B * n slots per
class: slot (k, i) is the pair (i, i + d_k), weighted dt * coupling * w
where a gated edge sits and 0 elsewhere, straddling slots included; a row's
last d_k slots pair with nothing and hold +0.0. The source sums are one
np.add.reduce over the K rows (axis=0, initial=0.0), which adds whole rows
one after another in increasing d from +0.0; the target sums add
dst[d:] += s[k, :-d] in decreasing d, also from +0.0; the drift is
src - dst, plus the lock slots. Edges are sorted by (i, j), so a node's
edges as source come in increasing d and as target in decreasing d: the
order np.bincount adds them in. An empty slot adds t * 0 / (1 + t^2) = +-0,
and so do a row's tail and padding; adding +-0 leaves a sum that started at
+0.0 unchanged, sign included. A lock-only window, with no gated edge,
takes the same choice: the compacted drift is then lock + 0, since
np.bincount of no index gives integer zeros, and the lattice drift
(+0.0 - +0.0) + lock, the same bits. The lattice layout wins when
the slices are dense and long; LATTICE_MIN_NODES and
LATTICE_MAX_SLOTS_PER_EDGE say when. An empty slot between two iterations
would carry a NaN from one row into the next (0 * tan(NaN) is NaN), which is
one more reason integrate rejects non-finite phases and noise. From finite
inputs a NaN can arise only by overflow: each step moves a half phase by at
most its weighted degree times dt * coupling / 2, plus dt * locking / 2 and
its noise, so only weights or noise near the float range could get there.

Noise is drawn ahead in blocks of whole steps and kept step-major, one row
of B * n values per step, so a step adds its noise with one contiguous add.
Each iteration's block, drawn into a contiguous (block, n) scratch or read
from explicit noise xi, is scaled by noise * sqrt(dt) / 2 as it is written
into that iteration's columns.

Every float64 array the step loop reads or writes in full is made once per
window by _line_aligned and starts on a 64-byte cache line: the half phases,
each noise row, the lock references, the sine's slot runs and the lattice
sums. NumPy's SIMD loops run slower from an address off a line, and malloc
starts large arrays 16 bytes past one: on a 2-core AVX-512 Xeon VM, a * a
into a third array of 25 392 doubles took 16.8 us from there against 8.0 us
from a line, and a - b 16.5 against 8.8 us. Over rows
with gaps they run slower still, so the sine gets whole runs: a (4, 980)
multiply of rows 984 apart took 5.5 us, a contiguous (4, 984) 1.4 us. Each
step writes into these buffers in place, with out given positionally.

One step loop, _window_kernel, runs every window. It binds its ufuncs once
per window, and a step is NumPy calls only, with no Python frame of its
own; the layout, the lock term and the noise are branches inside it. The
loop's frame is entered once per noise block, or once per step when a
recorder samples. Per step, a compacted drift is 13 calls: two gathers and
their subtract, the sine's five, two np.bincount sums and their subtract,
and half += drift. A lattice drift is 2 K + 10 calls for K offset classes,
18 on a King's graph: K slice subtracts, the sine's five, the np.add.reduce,
the target fill, K target adds, src - dst and half += drift. A lock window
adds 3 calls, (h + h) - phi into the lock slots and lock + torque, and a
noisy step 1, its row's add. A free window is that add alone. On the
desk-planar graphs, about 100 phases, the calls' overhead, not the
arithmetic, sets a step's time: on kings 5 x 4 (100 phases, compacted;
tools/window_times.py, best of 5, 2-core AVX-512 Xeon VM) a stage-1 anneal
step took 8.0 us and a lock step 9.4 us, against 8.7 and 10.2 us when the
drift entered three Python frames per step. Every operation keeps its
operands and its order, so the bits are the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .graph import Graph
from .validate import broadcast, count, finite, is_real, real, shaped

__all__ = [
    "PhaseState",
    "CouplingGate",
    "ShilConfig",
    "DynamicsParams",
    "TrajectoryRecorder",
    "random_init",
    "step",
    "evolve",
    "integrate",
    "step_count",
    "wrap_phases",
    "half_angle_sine",
]

TWO_PI = 2.0 * math.pi

# Noise is drawn ahead in blocks of whole steps for all iterations at once:
# the block and one generator's scratch take at most this many bytes of
# float64, or one step's worth if that is larger.
NOISE_BLOCK_BYTES = 1024 * 1024

# A window evaluates its coupling term in the lattice layout, one slice pair
# of the flat (B * n) half phases per edge offset d = j - i, when the B * n
# phases number at least LATTICE_MIN_NODES and its K offset classes, B * n
# slots each, hold at most LATTICE_MAX_SLOTS_PER_EDGE slots per gated edge;
# otherwise it gathers and scatters the compacted gated edges. Below the
# floor, per-call overhead outweighs the contiguous arithmetic; above the
# fill bound, the empty slots do. The all-on gate of a King's graph fills
# about one slot per edge (4 classes: 1, s - 1, s and s + 1). Its stage-1
# anneal took, in us per step compacted / lattice (tools/window_times.py,
# best of 3, 2-core AVX-512 Xeon VM), 7.1 / 8.8 at 49 phases, 11.5 / 11.7
# at 147, 13.0 / 12.8 and 13.8 / 13.1 at 196 and 22.1 / 18.4 at 400.
LATTICE_MIN_NODES = 196
LATTICE_MAX_SLOTS_PER_EDGE = 2

# the cache line every buffer of the step loop, and each of its rows, starts on
LINE_BYTES = 64

# 1.0 as a read-only 0-d array: a ufunc converts a Python float operand anew
# on every call, which cost 0.18 of 0.54 us for an add on 356 doubles
_ONE = np.array(1.0)
_ONE.setflags(write=False)


def wrap_phases(phases: np.ndarray) -> np.ndarray:
    """Wrap angles into [0, 2*pi); values landing exactly on 2*pi map to 0.

    np.mod(phases, 2*pi), except that its sign fix can round a tiny
    negative input up to 2*pi, which maps to 0 here.
    """
    wrapped = np.mod(phases, TWO_PI)
    return np.where(wrapped >= TWO_PI, 0.0, wrapped)


def half_angle_sine(half: np.ndarray, scale) -> np.ndarray:
    """scale * t / (1 + t^2) with t = tan(half), that is scale/2 * sin(2 * half).

    With scale 2 this is sin(2 * half) to within 2 ulp. scale broadcasts
    against half, so it can carry per-edge or per-node weights. The step
    loop of integrate runs the same operations in place on its slot run,
    so each of its sines has these bits.
    """
    t = np.tan(np.asarray(half, dtype=np.float64))
    return t * scale / (t * t + 1.0)


def _line_aligned(shape: tuple, fill=None) -> np.ndarray:
    """A float64 array of shape, uninitialised or set to fill, that starts on
    a LINE_BYTES boundary; the last axis is padded to whole lines, so every
    row of a 2-D array starts on one too."""
    *rows, cols = shape
    per_line = LINE_BYTES // 8
    padded = -(-cols // per_line) * per_line
    size = math.prod(rows) * padded
    raw = np.empty(8 * size + LINE_BYTES, dtype=np.uint8)
    start = -raw.ctypes.data % LINE_BYTES
    lines = raw[start:start + 8 * size].view(np.float64).reshape(*rows, padded)
    out = lines[..., :cols]
    if fill is not None:
        out[...] = fill
    return out


@dataclass(frozen=True)
class PhaseState:
    """Oscillator phases (each in [0, 2*pi)) plus the simulation clock."""

    phases: np.ndarray
    time: float = 0.0


@dataclass(frozen=True)
class CouplingGate:
    """Per-edge coupling enable mask (the partitioning control)."""

    active: np.ndarray

    @classmethod
    def all_on(cls, graph: Graph) -> "CouplingGate":
        return cls(np.ones(graph.edge_count, dtype=bool))

    @classmethod
    def all_off(cls, graph: Graph) -> "CouplingGate":
        return cls(np.zeros(graph.edge_count, dtype=bool))


@dataclass(frozen=True)
class ShilConfig:
    """Per-node injection-locking enable and lock-phase select.

    select holds the lock reference phi_i; the two-stage 4-coloring machine
    uses phi = 0 (locks {0, pi}) and phi = pi/2 (locks {pi/2, 3*pi/2}).
    select is meaningful only where enabled.
    """

    enabled: np.ndarray
    select: np.ndarray

    @classmethod
    def off(cls, n: int) -> "ShilConfig":
        count("n", n, 0)
        return cls(np.zeros(n, dtype=bool), np.zeros(n))

    @classmethod
    def uniform(cls, n: int, phi: float) -> "ShilConfig":
        count("n", n, 0)
        if not is_real(type(phi)):  # float() would take "1.5" and True
            raise ValueError(f"phi must be a real number (not bool), got {phi!r}")
        phi = float(phi)
        finite("phi", phi)
        return cls(np.ones(n, dtype=bool), np.full(n, phi))


@dataclass(frozen=True)
class DynamicsParams:
    """Physical constants of the phase model.

    coupling: edge interaction strength (1/time)
    locking:  injection-locking strength (1/time)
    noise:    phase jitter amplitude (rad/sqrt(time))
    dt:       Euler-Maruyama step (time)
    """

    coupling: float = 1.0
    locking: float = 2.5
    noise: float = 0.05
    dt: float = 0.01

    def __post_init__(self):
        for f in fields(self):
            real(f.name, getattr(self, f.name), positive=f.name == "dt")

    def check_stability(self, graph: Graph) -> None:
        """dt * max(coupling * max_weighted_degree, 2 * locking) must stay below 0.5.

        A node's weighted degree sum_j |w_ij| bounds its coupling rate; with
        unit weights it is the node's degree.
        """
        rate = max(self.coupling * graph.max_weighted_degree(), 2.0 * self.locking)
        if self.dt * rate >= 0.5:
            raise ValueError(
                f"unstable step: dt * max(coupling * max_weighted_degree, 2 * locking) "
                f"= {self.dt * rate:.3g} >= 0.5"
            )


@dataclass
class TrajectoryRecorder:
    """Samples (time, phases) every sample_every steps, including step 0.

    Each sample is wrapped into [0, 2*pi), since integrate leaves the
    phases unwrapped until the end of its window.
    """

    sample_every: int = 1
    times: list = field(default_factory=list)
    samples: list = field(default_factory=list)

    def __post_init__(self):
        count("sample_every", self.sample_every, 1)

    def record(self, state: PhaseState, step_index: int) -> None:
        if step_index % self.sample_every == 0:
            self.times.append(state.time)
            self.samples.append(wrap_phases(state.phases))

    def to_csv(self, path) -> None:
        n = len(self.samples[0]) if self.samples else 0
        header = ",".join(["time"] + [f"theta_{i}" for i in range(n)])
        rows = np.column_stack([np.array(self.times), np.array(self.samples)])
        np.savetxt(path, rows, delimiter=",", header=header, comments="")


def random_init(n: int, rng: np.random.Generator) -> PhaseState:
    """Phases drawn independently and uniformly from [0, 2*pi), time 0."""
    count("n", n, 1)
    return PhaseState(rng.uniform(0.0, TWO_PI, size=n), time=0.0)


def _slot_buffers(size: int, rows: int, width: int, lock):
    """The drift sine's weights, slots and scratch as line-aligned 1-D runs:
    rows rows of width edge slots, each padded to whole lines at weight 0,
    then the size lock slots, weighted lock_w where lock = (lock_w, select).
    Returns the edge weights and slots as (rows, width) views of +0.0, and
    the sine's fields of a _Drift: the whole slot, weight and scratch runs,
    then the lock slots and select, or None twice. A slot never written (a
    row's tail or padding) stays +0.0 at weight 0.
    """
    padded = -(-8 * width // LINE_BYTES) * LINE_BYTES // 8  # width in whole lines
    first = rows * padded  # the lock slots' first line
    run = first if lock is None else first + size
    weights, s, denom = (_line_aligned((run,), fill) for fill in (0.0, 0.0, None))
    lock_w, select = lock or (0.0, None)
    weights[first:] = lock_w
    lock_s = None if lock is None else s[first:]
    return (weights[:first].reshape(rows, padded)[:, :width],
            s[:first].reshape(rows, padded)[:, :width], (s, weights, denom, lock_s, select))


class _Drift(NamedTuple):
    """The arrays of one window's drift, made once by _compacted_coupling or
    _lattice_coupling and read by the step loop of _window_kernel.

    s, weights and denom are the sine's slot, weight and scratch runs of
    _slot_buffers; lock_s is the run's lock slots and select the lock
    references, both None without a lock term. gather is the compacted
    layout's (ei, ej, edge slots); lattice is the lattice layout's (slice
    pairs, slot rows, source sums, target sums, target pairs).
    """

    s: np.ndarray
    weights: np.ndarray
    denom: np.ndarray
    lock_s: np.ndarray | None
    select: np.ndarray | None
    gather: tuple | None
    lattice: tuple | None


def _compacted_coupling(half: np.ndarray, ei: np.ndarray, ej: np.ndarray, edge_w: np.ndarray,
                        lock=None) -> _Drift:
    """The drift of the gated edges (ei, ej) of the flat half phases, gathered
    into one row of _slot_buffers and scattered per node by np.bincount, plus
    the lock term where lock = (lock_w, select) is given; with no gated edge,
    the drift of a lock-only window.
    """
    (weights,), (edge_s,), sine = _slot_buffers(len(half), 1, len(ei), lock)
    weights[:] = edge_w
    return _Drift(*sine, gather=(ei, ej, edge_s), lattice=None)


def _lattice_coupling(half: np.ndarray, ei: np.ndarray, offset: np.ndarray, edge_w: np.ndarray,
                      lock=None) -> _Drift | None:
    """The same drift read as one slice pair per offset d = j - i, or None
    where the compacted layout pays (see LATTICE_MIN_NODES): edge row k of
    _slot_buffers is class d_k, added in np.bincount's order (see the module
    docstring), so the result is _compacted_coupling's, bit for bit.
    """
    size = len(half)
    classes = np.flatnonzero(np.bincount(offset))
    if size < LATTICE_MIN_NODES or len(classes) * size > LATTICE_MAX_SLOTS_PER_EDGE * len(offset):
        return None
    rows = list(enumerate(classes.tolist()))
    weights, diff, sine = _slot_buffers(size, len(rows), size, lock)
    weights[np.searchsorted(classes, offset), ei] = edge_w
    src, dst = _line_aligned((size,)), _line_aligned((size,))
    # views made once: slicing them per step cost 8 % of a call at kings 7 x 40
    pairs = [(half[:-d], half[d:], diff[k, :-d]) for k, d in rows]
    targets = [(dst[d:], diff[k, :-d]) for k, d in reversed(rows)]
    return _Drift(*sine, gather=None, lattice=(pairs, diff, src, dst, targets))


def _window_kernel(half: np.ndarray, drift: _Drift | None, dt: float):
    """The step loop of one window on the flat half phases: advance(rows,
    time) takes one Euler-Maruyama step per item of rows, a noise row to add
    or None, and returns the clock, advanced by dt per step.

    Each step adds the drift, taken from the phases at the start of the
    step, then its noise row. The ufuncs are bound here, once per window,
    and a step runs NumPy calls only, with no Python frame: the layout's
    slot fill, the one sine over the whole run (half_angle_sine's
    operations, in place), the layout's torque sums, the lock term added
    into its slots, then half += drift and half += row. The layout is a
    branch per step. Both layouts add lock + torque, which has the bits of
    torque + lock, as IEEE addition commutes.
    """
    tan, multiply, divide, add, subtract = np.tan, np.multiply, np.divide, np.add, np.subtract
    bincount, add_rows, one = np.bincount, np.add.reduce, _ONE
    size = len(half)
    s, weights, denom, lock_s, select, gather, lattice = drift or (None,) * 7
    if gather is not None:
        ei, ej, edge_s = gather
    if lattice is not None:
        pairs, diff, src, dst, targets = lattice

    def advance(rows, time: float) -> float:
        for row in rows:
            if drift is not None:
                if gather is not None:
                    subtract(half[ei], half[ej], edge_s)
                else:
                    for left, right, out in pairs:
                        subtract(left, right, out)
                if lock_s is not None:
                    add(half, half, lock_s)
                    subtract(lock_s, select, lock_s)
                tan(s, s)
                multiply(s, s, denom)
                add(denom, one, denom)
                multiply(s, weights, s)
                divide(s, denom, s)
                if gather is not None:
                    # with no gated edge the torque is np.bincount's integer zeros
                    torque = bincount(ei, edge_s, size)
                    subtract(torque, bincount(ej, edge_s, size), torque)
                else:
                    # whole rows in increasing d, each sum from +0.0; a row's
                    # tail adds +0.0, which changes no bit of such a sum
                    add_rows(diff, axis=0, initial=0.0, out=src)
                    dst.fill(0.0)
                    for out, part in targets:
                        add(out, part, out)
                    torque = subtract(src, dst, src)
                add(half, torque if lock_s is None else add(lock_s, torque, lock_s), half)
            if row is not None:
                add(half, row, half)
            time += dt
        return time

    return advance


def integrate(
    phases: np.ndarray,
    n_steps: int,
    graph: Graph,
    gate: CouplingGate,
    shil: ShilConfig,
    params: DynamicsParams,
    rngs=None,
    xi: np.ndarray | None = None,
    recorder: TrajectoryRecorder | None = None,
    time: float = 0.0,
) -> tuple[np.ndarray, float]:
    """Advance a (B, n) phase array by n_steps Euler-Maruyama steps.

    Row b is an independent iteration. gate.active broadcasts to (B, E) and
    shil.enabled / shil.select to (B, n), so one window can hold a different
    gate and lock reference per iteration. Noise for row b comes from rngs[b]
    unless xi (shape (B, n_steps, n)) is given. Returns the new phases,
    wrapped into [0, 2*pi), and the clock, advanced by dt per step. The
    recorder samples row 0. A shape that does not fit, an n_steps that is
    not a nonnegative integer, a count of rngs other than B (with noise on
    and no xi), or NaN, inf or a non-real dtype in phases, xi or, with
    locking on, an enabled shil.select raise ValueError. With n = 0 only the
    clock moves.

    The phases are wrapped once per window, at its end: the drift is
    2*pi-periodic in every phase (both tangents have period pi in their
    half angles), so wrapping after every step would change rounding only.
    tests/test_kernel_contract.py pins a 200-step window against a kernel
    that wraps after every step.

    Results are bit-identical to stepping each row on its own and to the
    full-angle loop (see the module docstring). Both edge layouts, chosen
    once per window from the graph and gate (LATTICE_MIN_NODES) for every
    window with a drift, lock-only ones included, add each node's torques
    in np.bincount's order for one row; the compacted one lists the gated
    edges in (iteration, edge) order as flat indices. One step loop
    (_window_kernel) serves both layouts and takes the whole drift, lock
    term included, from one sine call. It runs a noise block per call, or
    one step per call with a recorder, which samples before each step.
    Edge, lock and noise scales are folded in once per window or noise
    block, the same products as per step, and c * n normals from a
    generator equal c draws of n, so the block size changes no draw.
    """
    phases = np.array(phases, ndmin=2)  # cast to float64 once found real and finite
    shaped("phases", phases, (len(phases), graph.n))
    count("n_steps", n_steps, 0)
    batch, n = phases.shape
    active = broadcast("gate.active", gate.active, (batch, graph.edge_count))
    enabled = broadcast("shil.enabled", shil.enabled, (batch, n))
    select = broadcast("shil.select", shil.select, (batch, n))
    # a NaN or inf would spread through every sum it enters; in the lattice
    # layout that includes the empty slots between two iterations' rows
    phases = finite("phases", phases).astype(np.float64, copy=False)
    if xi is not None:
        xi = finite("xi", shaped("xi", xi, (batch, n_steps, n)))
    iteration, edge = np.nonzero(active)
    # dt times each strength, folded in once; these weights step the half
    # phases, so they are half of theta's. The lock weight is negative
    # because injection pulls toward phi
    edge_w = (params.dt * params.coupling) * graph.w[edge]
    size = batch * n
    lock = None
    if params.locking > 0.0 and enabled.any():
        select = finite("shil.select", np.where(enabled, select, 0.0))
        select = _line_aligned((size,), select.reshape(-1))
        lock = (np.where(enabled, -params.dt * params.locking, 0.0).reshape(-1), select)
    # step-major noise: row j holds step j's noise for all B * n phases
    noise_buf, block = None, max(n_steps, 1)
    if params.noise > 0.0:
        half_scale = 0.5 * (params.noise * math.sqrt(params.dt))
        if xi is None and len(rngs or ()) != batch:
            raise ValueError("noise > 0 requires an rng per phase row or explicit xi: "
                             f"got {len(rngs or ())} rngs for {batch} phase rows")
        block = max(1, min(n_steps, NOISE_BLOCK_BYTES // (8 * (batch + 1) * max(n, 1))))
        noise_buf = _line_aligned((block, size))
        draws = np.empty((block, n)) if xi is None else None
    half = _line_aligned((size,), 0.5 * phases.reshape(-1))  # h = theta / 2, exact
    ei = graph.ei[edge] + n * iteration
    drift = None
    if len(edge_w) or lock is not None:
        offset = (graph.ej - graph.ei)[edge]
        drift = (_lattice_coupling(half, ei, offset, edge_w, lock)
                 or _compacted_coupling(half, ei, ei + offset, edge_w, lock))
    advance = _window_kernel(half, drift, params.dt)
    for start in range(0, n_steps, block):
        c = min(block, n_steps - start)
        rows = repeat(None, c)
        if noise_buf is not None:
            for b in range(batch):
                if xi is None:
                    drawn = rngs[b].standard_normal(out=draws[:c])
                else:
                    drawn = xi[b, start:start + c]
                np.multiply(drawn, half_scale, dtype=np.float64,  # whatever xi's dtype
                            out=noise_buf[:c, b * n:(b + 1) * n])
            rows = noise_buf[:c]
        if recorder is None:
            time = advance(rows, time)
        else:  # the same step loop, one row per call
            for j, row in enumerate(rows):
                recorder.record(PhaseState(half[:n] + half[:n], time), start + j)
                time = advance((row,), time)
    phases = wrap_phases((half + half).reshape(batch, n))
    if recorder is not None:
        recorder.record(PhaseState(phases[0], time), n_steps)
    return phases, time


def _single_row(state, n_steps, graph, gate, shil, params, rng, xi=None, recorder=None):
    """integrate on the one row state.phases from state.time, after the
    stability check; rng is its generator and xi one step's (n,) noise."""
    params.check_stability(graph)
    if xi is not None:
        xi = shaped("xi", xi, (graph.n,))[None, None]
    phases, t = integrate(state.phases, n_steps, graph, gate, shil, params,
                          None if rng is None else [rng], xi, recorder, state.time)
    return PhaseState(phases[0], time=t)


def step(
    state: PhaseState,
    graph: Graph,
    gate: CouplingGate,
    shil: ShilConfig,
    params: DynamicsParams,
    rng: np.random.Generator | None = None,
    xi: np.ndarray | None = None,
) -> PhaseState:
    """Advance one Euler-Maruyama step.

    Noise increments come from rng unless an explicit xi vector is passed
    (used by tests that need per-node noise streams). With noise == 0
    neither is consulted.
    """
    return _single_row(state, 1, graph, gate, shil, params, rng, xi=xi)


def evolve(
    state: PhaseState,
    duration: float,
    graph: Graph,
    gate: CouplingGate,
    shil: ShilConfig,
    params: DynamicsParams,
    rng: np.random.Generator | None = None,
    recorder: TrajectoryRecorder | None = None,
) -> PhaseState:
    """Integrate for ceil(duration / dt) steps; deterministic given the seed."""
    n_steps = step_count(duration, params.dt)
    return _single_row(state, n_steps, graph, gate, shil, params, rng, recorder=recorder)


def step_count(duration: float, dt: float) -> int:
    """Steps in a window of the given duration: ceil(duration / dt).

    duration must be finite and >= 0, dt finite and > 0, and their ratio
    finite; otherwise a ValueError names the argument at fault.
    """
    real("duration", duration)
    real("dt", dt, positive=True)
    steps = duration / dt
    if steps == math.inf:
        raise ValueError(f"duration / dt overflows: {duration!r} / {dt!r}")
    return math.ceil(steps - 1e-12)
