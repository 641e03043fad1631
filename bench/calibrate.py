"""Machine-speed calibration for runs on a shared, noisy machine.

On the two-core machine this benchmark was built on, the speed of the same
code drifts by up to 1.5x from one minute to the next (other tenants share
the host), in the program and in any fixed kernel alike. A run's time
metrics are therefore divided by the speed of a fixed kernel timed in the
same process between rounds: a value is what the run would have measured at
the reference speed ``REFERENCE_MS`` per kernel. The kernel mixes what the
program spends its time on: small numpy matrix-vector products and gate
nonlinearities of an LSTM step, and an interpreted Python loop. It does not
call the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# one kernel's time at the reference speed: this machine, unloaded
REFERENCE_MS = 0.75
BURST = 40          # kernels per calibration, about 30 ms


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.w = rng.normal(size=(128, 16)) * 0.1
        self.u = rng.normal(size=(128, 32)) * 0.1
        self.xs = rng.normal(size=(40, 16))
        self.bursts: list[float] = []   # median kernel ms of each burst

    def _kernel(self) -> float:
        start = time.perf_counter()
        h = c = np.zeros(32)
        for x in self.xs:
            z = self.w @ x + self.u @ h
            gates = 1.0 / (1.0 + np.exp(-z[:96]))
            c = gates[32:64] * c + gates[:32] * np.tanh(z[96:])
            h = gates[64:] * np.tanh(c)
        total = 0
        for k in range(3000):
            total += k * k
        return (time.perf_counter() - start) * 1e3

    def scale(self) -> float:
        """Time a burst; return the factor from this run's to reference speed."""
        ms = statistics.median(self._kernel() for _ in range(BURST))
        self.bursts.append(ms)
        return REFERENCE_MS / ms
