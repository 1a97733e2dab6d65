"""Host-speed calibration for timings taken on a shared host.

On a host shared with other tenants, the same solve can take anywhere from
1x to 2x its quiet time, in phases that last from seconds to minutes, and
both cores slow down together. How much a piece of code slows down depends
on its mix of work: a kernel of the same mix as the workload (numpy calls
on arrays of the same size) slows down by nearly the same factor, where a
kernel on other array sizes is off by 10 %.

So each workload names a calibration kernel of its own mix. While a timed
region runs, a timer runs the kernel every INTERVAL_S; the region's wall
time, less the time the kernel took, is scaled by
reference_s / SpeedSampler.kernel_s. The result is the region's time at the
reference speed, the speed at which the kernel takes reference_s. It is
exact only while the measured code keeps the kernel's mix; see README.md.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.1


def python_kernel() -> None:
    """Plain interpreter work, for timing an import, where numpy is not yet
    loaded (and must not be, as loading it is part of what is timed)."""
    s = 0
    for i in range(20000):
        s += i * i % 7


# python_kernel's time on a quiet host of the reference machine
PYTHON_KERNEL_REFERENCE_S = 0.0012


def make_kernel(n: int, edges, steps: int, mask_edges: int = 0):
    """A frozen copy of pottsim's two hot loops, on the benchmark's own data.

    steps Euler-Maruyama steps on the graph (n, edges) with half the edges
    gated on and injection on, written as dynamics.evolve and _drift did
    when the benchmark was made, and, if mask_edges > 0, that many edge
    tests over 2^16 cut masks, as in oracle.brute_force_maxcut. A copy, so
    that speeding up pottsim cannot speed up the yardstick.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    ei = np.array([e[0] for e in edges])
    ej = np.array([e[1] for e in edges])
    w = np.ones(len(ei))
    gate = rng.random(len(ei)) < 0.5
    enabled = np.ones(n, dtype=bool)
    select = rng.choice([0.0, np.pi / 2], n)
    x0 = rng.uniform(0.0, 2 * np.pi, n)
    masks = np.arange(1 << 16, dtype=np.int64)
    # preallocated, so that the kernel's time does not depend on whether
    # malloc serves half-megabyte arrays from fresh pages or from the heap
    bit_i, bit_j, cuts = np.empty_like(masks), np.empty_like(masks), np.empty(len(masks))
    differ = np.empty(len(masks), dtype=bool)
    two_pi, dt = 2 * np.pi, 0.01

    def kernel():
        noise = np.random.Generator(np.random.PCG64(1))
        phases = x0.copy()
        for _ in range(steps):
            s = w[gate] * np.sin(phases[ei[gate]] - phases[ej[gate]])
            torque = np.bincount(ei[gate], weights=s, minlength=n)
            torque -= np.bincount(ej[gate], weights=s, minlength=n)
            d = 1.0 * torque
            d -= 2.5 * np.where(enabled, np.sin(2.0 * (phases - select)), 0.0)
            phases += dt * d
            phases += 0.05 * 0.1 * noise.standard_normal(n)
            phases = np.mod(phases, two_pi)
            phases[phases >= two_pi] = 0.0
        cuts.fill(0.0)
        for e in range(mask_edges):
            np.bitwise_and(np.right_shift(masks, ei[e], out=bit_i), 1, out=bit_i)
            np.bitwise_and(np.right_shift(masks, ej[e], out=bit_j), 1, out=bit_j)
            np.add(cuts, np.not_equal(bit_i, bit_j, out=differ), out=cuts)

    return kernel


class SpeedSampler:
    """Context manager: samples kernel() on a timer while the block runs.

    Only for the main thread of a single-threaded process: the samples run
    in a SIGALRM handler between the block's bytecodes.
    """

    def __init__(self, kernel, reference_s: float):
        self.kernel = kernel
        self.reference_s = reference_s
        self.samples: list[float] = []
        self.spent = 0.0  # wall time the samples took inside the block

    def _sample(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)
        return t0

    def _on_timer(self, *_):
        t0 = self._sample()
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._sample()  # at least one sample, taken before the block
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def kernel_s(self) -> float:
        """The kernel's effective time over the block.

        The samples are spread evenly in wall time, and a stretch of wall
        time at kernel time k does 1/k of the work it would do at speed 1,
        so the block's work scales with the mean of 1/k: the harmonic mean.
        A median would drop the minority phase of a block that is part
        busy, part quiet.
        """
        return statistics.harmonic_mean(self.samples)

    def at_reference(self, work_s: float) -> float:
        """A time measured inside the block, less the samples' time in it,
        at the reference speed."""
        return work_s * self.reference_s / self.kernel_s
