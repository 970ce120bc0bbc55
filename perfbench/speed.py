"""Machine-speed reference that scales a pass's wall times to a fixed nominal speed.

On a host whose CPUs are shared with other tenants (measured on a 2-vCPU
virtual machine), the same code runs up to 1.6x slower for minutes at a
time.  A pass therefore times this fixed burst of work between its runs
and reports each time as ``raw * REFERENCE_S / median(samples)``, a sample
being the fastest of the bursts run in one gap: seconds on a machine where
one burst takes ``REFERENCE_S``.  The burst uses numpy and the interpreter only, never qspec,
so a change to qspec cannot move it.  It mixes the kinds of work qspec does:
dense complex matmul, a Hermitian eigendecomposition, an elementwise exp, a
strided copy and an interpreted loop.  Raw times are kept beside the scaled
ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.04
MIN_BURSTS = 3


class SpeedReference:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self._matrix = matrix[:128, :128] / 128.0
        self._hermitian = matrix + matrix.conj().T
        self._vector = rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16)
        self._block = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
        self.samples: list[float] = []

    def _burst(self) -> None:
        x = self._matrix
        for _ in range(16):
            x = x @ self._matrix
        np.linalg.eigh(self._hermitian)
        np.exp(1j * np.abs(self._vector))
        self._block.T.copy()
        sum(i * i % 7 for i in range(50000))

    def sample(self, budget_s: float) -> float:
        """Run bursts for about ``budget_s`` (at least MIN_BURSTS) and keep the fastest.

        The fastest burst of a sample filters out a stall that hits only one
        burst, such as a thread still winding down from the preceding run.
        Returns the seconds spent, for the caller to exclude from its timing.
        """
        start = time.perf_counter()
        bursts: list[float] = []
        while len(bursts) < MIN_BURSTS or time.perf_counter() - start < budget_s:
            t0 = time.perf_counter()
            self._burst()
            bursts.append(time.perf_counter() - t0)
        self.samples.append(min(bursts))
        return time.perf_counter() - start

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
