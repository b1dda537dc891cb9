"""Monte Carlo statistics one batch and one row at a time.

mc_run reduces all the rows of a batch in one pass; this is the plain
loop, which splits n into its batches by their definition (ceil(n /
BATCH_DRAWS) of them, cut at floor(j n / count)), draws batch i from
the i-th spawned child of the seed, and reduces each row of each batch
on its own with np.mean.  Both must give the same estimates, bit for bit.
"""

import numpy as np

from sectint.mc import BATCH_DRAWS, McEstimate, _combine


def batch_stats(values: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, sum of squared deviations) of one batch's values of one row."""
    mean = float(np.mean(values))
    return int(values.size), mean, float(np.sum((values - mean) ** 2))


def oracle_batches(seed: int, n: int) -> list[tuple[np.random.Generator, int]]:
    """(generator, size) of each batch of a run of n draws at seed, in order."""
    count = -(-n // BATCH_DRAWS)
    cuts = [j * n // count for j in range(count + 1)]
    children = np.random.SeedSequence(seed).spawn(count)
    return [(np.random.default_rng(child), hi - lo) for child, lo, hi in zip(children, cuts, cuts[1:])]


def mc_run_per_batch(fn, n: int, seed: int) -> list[McEstimate]:
    """One estimate per row of fn(rng, size), a (size,) or (m, size) array
    drawn from each batch's generator in turn, combined in batch order."""
    parts = [[batch_stats(row) for row in np.atleast_2d(np.asarray(fn(rng, size), dtype=float))]
             for rng, size in oracle_batches(seed, n)]
    estimates = []
    for row in zip(*parts):
        total = row[0]
        for p in row[1:]:
            total = _combine(total, p)
        count, mean, m2 = total
        estimates.append(McEstimate(mean, float(np.sqrt(m2 / (count - 1) / count)), count))
    return estimates
