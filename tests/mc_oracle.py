"""Monte Carlo statistics one chunk and one row at a time.

mc_run reduces each batch of chunks in one pass per run of equal chunk
sizes; this is the loop it replaced, which reduces each chunk's part of
each row on its own.  Both must give the same estimates, bit for bit.
"""

import numpy as np

from sectint.mc import McEstimate, _combine, chunk_rngs, chunk_sizes


def chunk_stats(values: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, sum of squared deviations) of one chunk's values of one row."""
    count = int(values.size)
    if count == 0:
        return 0, 0.0, 0.0
    mean = float(np.mean(values))
    m2 = float(np.sum((values - mean) ** 2))
    return count, mean, m2


def mc_run_per_chunk(fn, n: int, seed: int, chunks: int) -> list[McEstimate]:
    """One estimate per row of fn(rng, size), a (size,) or (m, size) array
    drawn from each chunk's generator in turn, combined in chunk order."""
    parts = [[chunk_stats(row) for row in np.atleast_2d(np.asarray(fn(rng, size), dtype=float))]
             for rng, size in zip(chunk_rngs(seed, chunks), chunk_sizes(n, chunks))]
    estimates = []
    for row in zip(*parts):
        total = (0, 0.0, 0.0)
        for p in row:
            total = _combine(total, p)
        count, mean, m2 = total
        estimates.append(McEstimate(mean, float(np.sqrt(m2 / (count - 1) / count)), count))
    return estimates
