"""Exponential-chart Monte Carlo of group volumes, the oracle of the exact ones.

``sectint.volumes`` gives every volume in closed form, from the sphere
fibrations.  This estimate shares nothing with them: for orthonormal
algebra coordinates,

    vol(G) = integral over the principal domain of |det d(exp)_X| dX,

where |det d(exp)_X| is a product of sin(mu/2)/(mu/2) factors over the
eigenvalue pairs of ad_X, and the principal domain is cut out by the
eigen-angles of X in the defining representation (all |angles| < pi, or
angle spread < 2 pi in the trace-free unitary case).  The integral is
done by Gaussian importance sampling in the algebra coordinates, reliable
up to dimension 8.
"""

from __future__ import annotations

import numpy as np

from sectint.fields import ScalarField
from sectint.groups import Family, GroupSpec, algebra_basis, brackets
from sectint.matrices import batch_from_real, batch_to_real
from sectint.mc import McEstimate, mc_run


def structure_constants(field: ScalarField, data: np.ndarray) -> np.ndarray:
    """c[i, j, l] = <b_l, [b_i, b_j]> for the orthonormal basis b with raw data (q, n, n)."""
    return brackets(field, data[:, None], data[None]) @ batch_to_real(field, data).T


def dexp_factors(ad_eigs: np.ndarray) -> np.ndarray:
    """prod over eigenvalues of |sin(mu/2) / (mu/2)| per sample row."""
    return np.prod(np.abs(np.sinc(ad_eigs / (2.0 * np.pi))), axis=-1)


def chart_volume(group: GroupSpec, n_samples: int, seed: int, rows: np.ndarray | None = None,
                 block: int | None = None) -> McEstimate:
    """The chart estimate of vol(G), one Monte Carlo run at seed.

    Without rows, of the whole group, at sigma = pi sqrt(2 / rank) (pi at
    rank 1), on its principal domain.  With rows, of the group that the
    orthonormal flat algebra rows (q, D) of group generate, at sigma = pi,
    with the principal domain (all |angles| < pi) read off the top-left
    block x block corner of the embedded matrices alone.
    """
    spread = rows is None and group.family is Family.SU  # the trace-free unitary domain
    if rows is None:
        rows = algebra_basis(group)
        sigma = np.pi * np.sqrt(2.0 / group.rank) if group.rank > 1 else np.pi
    else:
        sigma = np.pi
    q = len(rows)
    data = batch_from_real(group.field, group.n, group.n, rows)
    cstruct = structure_constants(group.field, data).reshape(q, -1)
    nn = data.shape[-1]  # N = 2n over H
    block = nn if block is None else block
    bflat = np.array(data, dtype=complex).reshape(q, -1)
    log_norm = 0.5 * q * np.log(2.0 * np.pi * sigma * sigma)

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        z = rng.standard_normal((size, q)) * sigma
        x = (z @ bflat).reshape(len(z), nn, nn)[:, :block, :block]
        eigs = np.linalg.eigvalsh(-1j * x)
        if spread:
            mask = (eigs.max(axis=-1) - eigs.min(axis=-1)) < 2.0 * np.pi
        else:
            mask = np.abs(eigs).max(axis=-1) < np.pi
        ad_eigs = np.linalg.eigvalsh(1j * (z @ cstruct).reshape(len(z), q, q))
        log_density = -0.5 * np.sum((z / sigma) ** 2, axis=1) - log_norm
        return np.where(mask, dexp_factors(ad_eigs) * np.exp(-log_density), 0.0)[None]

    [est] = mc_run(sample, n_samples, seed, None)
    return est
