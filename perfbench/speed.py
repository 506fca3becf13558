"""Machine speed sampled while the program runs.

The host this benchmark was tuned on shares its cores with other tenants,
and its speed drifts by up to 2x within seconds. A fixed kernel timed on a
SIGALRM tick, in the same thread as the program's work and interleaved with
it, measures the slowdown that work saw. Timings are scaled by
(mean kernel time) / (kernel time on the reference machine). Each tick runs
a short untimed warm-up pass first, so the timed pass finds its code and
data in the caches whatever the program left there.

"gate-loop" (64 amplitudes) has the profile of the program's gate loops,
interpreter dispatch around small numpy operations; "stream" (2^18) that of
the shot sampler, streaming over arrays larger than the L2 cache; "interp", a
pure-Python loop, that of importing the package. None shares code with the
program.
"""

from __future__ import annotations

import signal
import time

# kernel -> (amplitudes or None for pure Python, warm-up iterations, timed
# iterations, tick interval s, timed pass on the reference machine s)
KERNELS = {
    "gate-loop": (64, 20, 200, 0.05, 8.5e-4),
    "stream": (2**18, 1, 1, 0.1, 2.5e-3),
    "interp": (None, 400, 4000, 0.01, 3.3e-4),
}


class SpeedSampler:
    """Times one kernel run on every tick of a wall-clock interval timer."""

    def __init__(self, kernel: str) -> None:
        amps, self.warm, self.iters, self.interval, self.ref_s = KERNELS[kernel]
        self.arrays = None
        if amps is not None:
            import numpy as np

            self.np = np
            # state, phase, permutation and two work vectors, allocated once,
            # so the kernel never asks the allocator for memory
            self.arrays = (
                np.ones(amps, dtype=complex), np.ones(amps, dtype=complex), np.arange(amps - 1, -1, -1),
                np.empty(amps, dtype=complex), np.empty(amps, dtype=complex),
            )
        self.samples: list[float] = []
        self.tick_s = 0.0  # wall time spent in ticks, warm-up included
        self.run_kernel()  # first touch of the arrays

    def _pass(self, iters: int) -> None:
        if self.arrays is None:
            x = 0
            for i in range(iters):
                x = (x * 31 + i) & 0xFFFFF
        else:
            np = self.np
            v, phase, idx, a, b = self.arrays
            v.fill(1.0)
            for _ in range(iters):  # v <- 0.995 v - 0.0998i (phase v)[idx]
                np.multiply(phase, v, out=a)
                np.take(a, idx, out=b)
                np.multiply(b, -0.0998j, out=b)
                np.multiply(v, 0.995, out=v)
                np.add(v, b, out=v)

    def run_kernel(self) -> float:
        """Time of the timed pass, after the warm-up pass."""
        self._pass(self.warm)
        t0 = time.perf_counter()
        self._pass(self.iters)
        return time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(self.run_kernel())
        self.tick_s += time.perf_counter() - t0

    def start(self) -> None:
        self.samples = []
        self.tick_s = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.samples

    def factor(self, samples: list[float]) -> float:
        """Mean kernel time over the reference time; above 1 on a slower machine."""
        if not samples:
            samples = [self.run_kernel()]
        return sum(samples) / len(samples) / self.ref_s
