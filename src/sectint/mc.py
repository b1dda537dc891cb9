"""Deterministic batched Monte Carlo driver.

A run is fully determined by (seed, n).  Its n draws are split into
ceil(n / BATCH_DRAWS) near-equal batches, and batch i draws from its own
generator, the i-th child of SeedSequence(seed), built on demand.  Each
batch is evaluated in one call, reduced once to (count, mean, sum of
squared deviations), and the batches are combined in index order, so
worker scheduling cannot change the result bit for bit.  BATCH_DRAWS is
therefore part of the payload contract: it fixes the random streams,
and changing it changes every Monte Carlo payload.  With w > 1 workers
the caller and w - 1 helper threads (at most batches - 1) each claim the
next unclaimed batch until none is left.  Helper threads start on the
first call that needs them and then stay idle for the life of the
process, to be reused.
"""

from __future__ import annotations

import functools
import itertools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass

import numpy as np

_HELPERS: list[ThreadPoolExecutor] = []  # mc_run's helpers, one thread each, started on first use
#: most draws in one batch, which mc_run evaluates in one call and draws from one
#: generator: it fixes the streams, so a new value moves every Monte Carlo payload.
#: Larger batches make fewer, longer numpy calls, so threads trade the GIL less
#: often per draw: at 4096 two workers beat one on Haar sampling, which they do
#: not at 1536.  A worker holds a whole batch's arrays at once, so the cap also
#: bounds its memory at any n: one batch of 10^4 SU(3) draws has over 4 MB of
#: input and Householder arrays, more than a 2 MB L2, and is slower even on one
#: worker; 6144 ran faster still but raised the benchmark's peak RSS by 9 %, near
#: its 10 % bound.  (Measured on a 2-vCPU x86-64 host, OPENBLAS_NUM_THREADS=1.)
BATCH_DRAWS = 4096
AGREE_ATOL = 1e-12  # agree's floor, relative to the larger |mean| (at least 1)


def default_workers() -> int:
    raw = os.environ.get("SECTINT_WORKERS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"SECTINT_WORKERS must be a positive integer, got {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class McEstimate:
    """A mean and its standard error over n_samples values; the seed is the report's config."""

    mean: float
    stderr: float
    n_samples: int

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def exact(value: float) -> "McEstimate":
        return McEstimate(float(value), 0.0, 1)


def batch_count(n: int) -> int:
    """Batches of a run of n draws: ceil(n / BATCH_DRAWS)."""
    return -(-n // BATCH_DRAWS)


def batch(seed: int, n: int, i: int) -> tuple[np.random.Generator, int]:
    """Batch i of a run of n draws at seed: its generator, the i-th child of
    SeedSequence(seed), and its size; the batches cut n at floor(j n / batch_count(n))."""
    count = batch_count(n)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))), (i + 1) * n // count - i * n // count


def subseed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence((seed,) + tags).generate_state(1)[0])


def _combine(a: tuple[int, float, float], b: tuple[int, float, float]) -> tuple[int, float, float]:
    """(count, mean, sum of squared deviations) of two nonempty parts joined (Chan et al.)."""
    n1, m1, s1 = a
    n2, m2, s2 = b
    n = n1 + n2
    delta = m2 - m1
    return n, m1 + delta * n2 / n, s1 + s2 + delta * delta * n1 * n2 / n


def require_samples(n: int) -> None:
    """Refuse fewer than two samples, which give no standard error."""
    if n < 2:
        raise ValueError(f"a Monte Carlo estimate needs n >= 2 samples for its standard error, got {n}")


def mc_run(sample_fn, n: int, seed: int, workers: int | None = None) -> list[McEstimate]:
    """Estimate the means of the values of sample_fn over n draws.

    sample_fn(rng, size) gets a batch's generator and size.  It must draw
    size samples from rng, as a pure function of the generator state, and
    return their values: an (m, size) array whose rows are m integrands
    evaluated on one draw.  Each row of a batch is reduced on its own, in
    one reduction per batch, so a row's estimate is bit-identical to the
    run of a sample_fn returning that row alone; the m estimates come as
    a list.  Fewer than two samples give no standard error and are
    rejected.  workers None means default_workers(); fewer than
    one is rejected.  The caller and min(workers, batches) - 1 persistent
    helper threads claim batches from one counter; helper tasks still
    queued when the caller runs out are cancelled (so a sample_fn may
    call mc_run), running ones are awaited, and then any batch's
    exception is raised.
    """
    require_samples(n)
    if workers is None:
        workers = default_workers()
    elif workers < 1:
        raise ValueError(f"mc_run needs workers >= 1, got {workers}")
    count = batch_count(n)
    parts: list = [None] * count
    claim = itertools.count()
    errstate = np.geterr()  # helper threads start with numpy's defaults: they take the caller's

    def work() -> None:
        with np.errstate(**errstate):
            while (i := next(claim)) < count:
                rng, size = batch(seed, n, i)
                rows = np.ascontiguousarray(sample_fn(rng, size), dtype=float)
                mean = np.sum(rows, axis=1) / size  # np.mean's sum / count, row by row
                m2 = np.sum((rows - mean[:, None]) ** 2, axis=1)
                parts[i] = [(size, m, s) for m, s in zip(mean.tolist(), m2.tolist())]

    helpers = min(workers, count) - 1
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
    for row in zip(*parts):
        total, mean, m2 = functools.reduce(_combine, row)  # index order keeps the reduction bit-identical
        estimates.append(McEstimate(mean, float(np.sqrt(m2 / (total - 1) / total)), total))
    return estimates


# --- error propagation helpers ----------------------------------------------

def ratio(num: McEstimate, den: McEstimate) -> McEstimate:
    """First-order error propagation for num/den (independent estimates)."""
    if den.mean == 0:
        raise ZeroDivisionError("ratio of estimates with zero denominator")
    value = num.mean / den.mean
    if num.mean == 0:  # d(a / b) = da / b at a = 0, which the relative form would drop
        return McEstimate(value, num.stderr / abs(den.mean), num.n_samples)
    rel = np.hypot(num.stderr / num.mean, den.stderr / den.mean)
    return McEstimate(value, abs(value) * float(rel), num.n_samples)


def product(a: McEstimate, b: McEstimate) -> McEstimate:
    value = a.mean * b.mean
    se = np.hypot(a.stderr * b.mean, b.stderr * a.mean)
    return McEstimate(value, float(se), a.n_samples)


def agree(a: McEstimate, b: McEstimate, n_sigma: float = 3.0) -> bool:
    """Whether two estimates agree within n_sigma combined standard errors, plus AGREE_ATOL of the larger."""
    tol = n_sigma * float(np.hypot(a.stderr, b.stderr)) + AGREE_ATOL * max(abs(a.mean), abs(b.mean), 1.0)
    return abs(a.mean - b.mean) <= tol
