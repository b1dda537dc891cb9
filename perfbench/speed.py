"""Host speed probe: a fixed reference kernel timed between ops.

The benchmark runs on a few vCPUs of a shared host.  Other tenants slow
those vCPUs down by up to half, in phases that last from seconds to
minutes, and CPU time slows with wall time, so no clock excludes it.
Within a run, the program's ops and a fixed reference kernel slow down
together.  The probe times the kernel between ops, at most every
``EVERY_S`` seconds, and an op's *reference-speed* time is its wall time
scaled by ``REF_S`` over the kernel's median time around the op.  The
kernel does not touch ``sectint``, so a change to the program moves the
scaled times exactly as much as the wall times.

Import numpy before using this module's kernel; the benchmark does so
only after it has timed ``import sectint``.
"""

from __future__ import annotations

import bisect
import statistics
import time

REF_S = 0.0035  # about the kernel's time on a quiet 2-vCPU Xeon (model 143) KVM guest
STREAM_LEN = 500_000  # 4 MB, twice the L2 of one core there
EVERY_S = 0.1
NEIGHBOURS = 5  # samples on each side of an op that set its local reference


def kernel() -> int:
    """Interpreter work, small-array numpy calls and a pass over arrays
    larger than L2: the mix of a CLI op."""
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.standard_normal((6, 6))
    batch = rng.standard_normal((2000, 3, 3))
    acc = 0
    for i in range(3000):
        acc += (i * 7) % 13
    table = {str(i): i for i in range(500)}
    for _ in range(30):
        np.linalg.qr(small)
    np.linalg.det(batch)
    np.einsum("nij,njk->nik", batch, batch)
    big = np.ones(STREAM_LEN)
    big *= 1.0001
    return acc + len(table) + int(big.sum() > 0)


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        kernel()  # the first call pays numpy's lazy imports; it is not a sample

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    def maybe_sample(self) -> None:
        if not self.starts or time.perf_counter() - self.starts[-1] >= EVERY_S:
            self.sample()

    def local(self, t0: float, t1: float) -> float:
        """Median kernel time over the samples within [t0, t1] and the
        ``NEIGHBOURS`` on each side of it."""
        lo = max(0, bisect.bisect_left(self.starts, t0) - NEIGHBOURS)
        hi = bisect.bisect_right(self.starts, t1) + NEIGHBOURS
        return statistics.median(self.times[lo:hi])

    def scaled(self, t0: float, seconds: float) -> float:
        """Reference-speed time of an interval that began at t0."""
        return seconds * REF_S / self.local(t0, t0 + seconds)
