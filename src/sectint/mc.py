"""Deterministic chunked Monte Carlo driver.

A run is fully determined by (seed, chunks, n): chunk i draws from a
generator spawned from the master seed's sequence, chunk statistics are
combined in chunk-index order, and worker scheduling cannot change the
result bit for bit.  Consecutive chunks are grouped into batches of at
most BATCH_DRAWS draws (a larger chunk is a batch alone).  A batch's
draws fill one buffer (standard_normals), are evaluated in one call and
reduced once per run of equal-size chunks, so small chunks do not each
pay numpy's fixed per-call cost and threads hand each other the GIL less
often per draw.  Batches depend on (n, chunks) only: at the default 16
chunks, n up to BATCH_DRAWS is one batch, and at n = 100000 each chunk
is a batch alone.  With w > 1 workers the caller and w - 1 helper
threads (at most batches - 1) each claim the next unclaimed batch until
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
#: most draws in one batch of consecutive chunks, which mc_run evaluates in one call.
#: Larger batches make fewer, longer numpy calls, so threads trade the GIL less
#: often per draw: at 4096 two workers beat one on Haar sampling, which they do
#: not at 1536.  A worker holds a whole batch's arrays at once, so the cap also
#: bounds its memory: one batch of 10^4 SU(3) draws has over 4 MB of input and
#: Householder arrays, more than a 2 MB L2, and is slower even on one worker;
#: 6144 ran faster still but raised the benchmark's peak RSS by 9 %, near its
#: 10 % bound.  (Measured on a 2-vCPU x86-64 host, OPENBLAS_NUM_THREADS=1.)
BATCH_DRAWS = 4096
AGREE_ATOL = 1e-12  # agree's floor, relative to the larger |mean| (at least 1)


def default_workers() -> int:
    raw = os.environ.get("SECTINT_WORKERS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"SECTINT_WORKERS must be a positive integer, got {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class McEstimate:
    """A mean and its standard error over n_samples values; the seed and chunks are the report's config."""

    mean: float
    stderr: float
    n_samples: int

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def exact(value: float) -> "McEstimate":
        return McEstimate(float(value), 0.0, 1)


def chunk_sizes(n: int, chunks: int) -> list[int]:
    if n < 0 or chunks < 1:
        raise ValueError("need n >= 0 and chunks >= 1")
    base, rem = divmod(n, chunks)
    return [base + (1 if i < rem else 0) for i in range(chunks)]


def chunk_rngs(seed: int, chunks: int) -> list[np.random.Generator]:
    root = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in root.spawn(chunks)]


def standard_normals(rngs: list[np.random.Generator], sizes: list[int], shape: tuple[int, ...]) -> np.ndarray:
    """(sum(sizes), *shape) standard normals: sizes[i] draws of shape from rngs[i], joined in place."""
    out = np.empty((sum(sizes),) + shape)
    for rng, stop, size in zip(rngs, itertools.accumulate(sizes), sizes):
        rng.standard_normal(out=out[stop - size:stop])
    return out


def chunk_batches(sizes: list[int]) -> list[range]:
    """Consecutive runs of chunk indices holding at most BATCH_DRAWS draws
    each; a chunk larger than that is a batch alone, never split."""
    batches, start, total = [], 0, 0
    for i, size in enumerate(sizes):
        if i > start and total + size > BATCH_DRAWS:
            batches.append(range(start, i))
            start, total = i, 0
        total += size
    return batches + [range(start, len(sizes))]


def subseed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence((seed,) + tags).generate_state(1)[0])


def _chunk_stats(values: np.ndarray, sizes: list[int]) -> list[list[tuple[int, float, float]]]:
    """(count, mean, sum of squared deviations) per chunk and row, one reduction per run of
    equal sizes: each chunk's contiguous part of a row gets the bits of its own pairwise sums."""
    rows, stats, stop = np.ascontiguousarray(np.atleast_2d(values)), [], 0
    for size, run in itertools.groupby(sizes):
        count = len(list(run))
        start, stop = stop, stop + size * count
        seg = rows[:, start:stop].reshape(len(rows), count, size)
        mean = np.sum(seg, axis=-1) / max(size, 1)  # np.mean's sum / count; an empty chunk gives (0, 0.0, 0.0)
        m2 = np.sum((seg - mean[..., None]) ** 2, axis=-1)
        stats += [list(zip([size] * len(rows), means, m2s)) for means, m2s in zip(mean.T.tolist(), m2.T.tolist())]
    return stats


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
    """Estimate the mean of the values of sample_fn over n draws.

    sample_fn(rngs, sizes) gets the generators and sizes of a batch of
    consecutive chunks.  It must draw sizes[i] samples from rngs[i], for
    each chunk in turn, as a pure function of the generator states, and
    return the values of all of them joined in that order: a
    (sum(sizes),) array of per-sample values, or an (m, sum(sizes))
    array whose rows are m integrands evaluated on one draw.  Each
    chunk's part of each row is reduced on its own, in one reduction per
    batch and run of equal chunk sizes, so a row's estimate is
    bit-identical to the run of a 1-D sample_fn returning that row.  A
    1-D sample_fn gives one McEstimate, a 2-D one a list of m.  Fewer
    than two samples give no standard error and are rejected.  workers
    None means default_workers(); fewer than one is rejected.  The
    caller and min(workers, batches) - 1 persistent helper threads
    claim batches from one counter; helper tasks still queued when the
    caller runs out are cancelled (so a sample_fn may call mc_run),
    running ones are awaited, and then any batch's exception is raised.
    """
    require_samples(n)
    if workers is None:
        workers = default_workers()
    elif workers < 1:
        raise ValueError(f"mc_run needs workers >= 1, got {workers}")
    sizes = chunk_sizes(n, chunks)
    rngs = chunk_rngs(seed, chunks)
    batches = chunk_batches(sizes)
    parts: list = [None] * chunks
    claim = itertools.count()
    errstate = np.geterr()  # helper threads start with numpy's defaults: they take the caller's

    def work() -> None:
        with np.errstate(**errstate):
            while (b := next(claim)) < len(batches):
                lo, hi = batches[b].start, batches[b].stop
                values = np.asarray(sample_fn(rngs[lo:hi], sizes[lo:hi]), dtype=float)
                parts[lo:hi] = [(values.ndim, stats) for stats in _chunk_stats(values, sizes[lo:hi])]

    helpers = min(workers, len(batches)) - 1
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
        estimates.append(McEstimate(mean, stderr, count))
    return estimates if parts[0][0] == 2 else estimates[0]


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
