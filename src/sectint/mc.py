"""Deterministic chunked Monte Carlo driver.

A run is fully determined by (seed, chunks, n): chunk i draws from a
generator spawned from the master seed's sequence, chunk statistics are
combined in chunk-index order, and worker scheduling cannot change the
result bit for bit.  With w > 1 workers the caller and w - 1 helper
threads (at most chunks - 1) each claim the next unclaimed chunk until
none is left.  Helper threads start on the first call that needs them
and then stay idle for the life of the process, to be reused.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass

import numpy as np

_HELPERS: list[ThreadPoolExecutor] = []  # mc_run's helpers, one thread each, started on first use


def default_workers() -> int:
    raw = os.environ.get("SECTINT_WORKERS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"SECTINT_WORKERS must be a positive integer, got {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n_samples: int
    seed: int
    chunks: int

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def exact(value: float) -> "McEstimate":
        return McEstimate(float(value), 0.0, 1, 0, 1)


def chunk_sizes(n: int, chunks: int) -> list[int]:
    if n < 0 or chunks < 1:
        raise ValueError("need n >= 0 and chunks >= 1")
    base, rem = divmod(n, chunks)
    return [base + (1 if i < rem else 0) for i in range(chunks)]


def chunk_rngs(seed: int, chunks: int) -> list[np.random.Generator]:
    root = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in root.spawn(chunks)]


def _subseed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence((seed,) + tags).generate_state(1)[0])


def _chunk_stats(values: np.ndarray) -> tuple[int, float, float]:
    count = int(values.size)
    if count == 0:
        return 0, 0.0, 0.0
    mean = float(np.mean(values))
    m2 = float(np.sum((values - mean) ** 2))
    return count, mean, m2


def _combine(a: tuple[int, float, float], b: tuple[int, float, float]) -> tuple[int, float, float]:
    n1, m1, s1 = a
    n2, m2, s2 = b
    if n1 == 0:
        return b
    if n2 == 0:
        return a
    n = n1 + n2
    delta = m2 - m1
    return n, m1 + delta * n2 / n, s1 + s2 + delta * delta * n1 * n2 / n


def require_samples(n: int) -> None:
    """Refuse fewer than two samples, which give no standard error."""
    if n < 2:
        raise ValueError(f"a Monte Carlo estimate needs n >= 2 samples for its standard error, got {n}")


def mc_run(sample_fn, n: int, seed: int, chunks: int = 1, workers: int | None = None):
    """Estimate the mean of sample_fn(rng, size) over n draws.

    sample_fn must be a pure function of the generator state returning
    a (size,) array of per-sample values, or an (m, size) array whose
    rows are m integrands evaluated on one draw.  Each row is reduced
    along its contiguous last axis on its own, so a row's estimate is
    bit-identical to the run of a 1-D sample_fn returning that row.  A
    1-D sample_fn gives one McEstimate, a 2-D one a list of m.  Fewer
    than two samples give no standard error and are rejected.  The
    caller and min(workers, chunks) - 1 persistent helper threads claim
    chunks from one counter; helper tasks still queued when the caller
    runs out are cancelled (so a sample_fn may call mc_run), running
    ones are awaited, and then any chunk's exception is raised.
    """
    require_samples(n)
    workers = workers or default_workers()
    sizes = chunk_sizes(n, chunks)
    rngs = chunk_rngs(seed, chunks)
    parts: list = [None] * chunks
    claim = itertools.count()

    def work() -> None:
        while (i := next(claim)) < chunks:
            values = np.asarray(sample_fn(rngs[i], sizes[i]), dtype=float)
            parts[i] = values.ndim, [_chunk_stats(row) for row in np.atleast_2d(values)]

    helpers = min(workers, chunks) - 1
    _HELPERS.extend(ThreadPoolExecutor(1, "sectint-mc") for _ in range(helpers - len(_HELPERS)))
    tasks = [helper.submit(work) for helper in _HELPERS[:helpers]]
    try:
        work()
    finally:
        running = [task for task in tasks if not task.cancel()]
        wait(running)
    for task in running:
        task.result()

    estimates = []
    for row in zip(*(stats for _, stats in parts)):
        total = (0, 0.0, 0.0)
        for p in row:  # fixed order keeps the reduction bit-identical
            total = _combine(total, p)
        count, mean, m2 = total
        stderr = float(np.sqrt(m2 / (count - 1) / count))
        estimates.append(McEstimate(mean, stderr, count, seed, chunks))
    return estimates if parts[0][0] == 2 else estimates[0]


# --- error propagation helpers ----------------------------------------------

def ratio(num: McEstimate, den: McEstimate) -> McEstimate:
    """First-order error propagation for num/den (independent estimates)."""
    if den.mean == 0:
        raise ZeroDivisionError("ratio of estimates with zero denominator")
    value = num.mean / den.mean
    rel = np.hypot(
        num.stderr / num.mean if num.mean != 0 else 0.0,
        den.stderr / den.mean,
    )
    return McEstimate(value, abs(value) * float(rel), num.n_samples, num.seed, num.chunks)


def product(a: McEstimate, b: McEstimate) -> McEstimate:
    value = a.mean * b.mean
    se = np.hypot(a.stderr * b.mean, b.stderr * a.mean)
    return McEstimate(value, float(se), a.n_samples, a.seed, a.chunks)


def agree(a: McEstimate, b: McEstimate, n_sigma: float = 3.0, atol: float = 1e-12) -> bool:
    """Whether two estimates agree within n_sigma combined standard errors."""
    tol = n_sigma * float(np.hypot(a.stderr, b.stderr)) + atol * max(abs(a.mean), abs(b.mean), 1.0)
    return abs(a.mean - b.mean) <= tol
