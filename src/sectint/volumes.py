"""Absolute Riemannian volumes of the compact groups and their quotients.

Every volume is exact and a plain float, except that ``group_volume``
returns an estimate (below).  For the Re(tr(x^* y)) metric each
classical group fibres over a sphere by g -> g e_1, with fibre G(n - 1).
A horizontal generator with first column v has norm^2 2|v|^2 and moves
e_1 at speed |v|, which gives (Macdonald, Invent. Math. 56, 1980)

    vol(SO(n)) = sqrt(2)^(n-1) |S^(n-1)| vol(SO(n-1)),          SO(1) = 1,
    vol(SU(n)) = 2^(n-1) sqrt(n/(n-1)) |S^(2n-1)| vol(SU(n-1)), SU(1) = 1,
    vol(Sp(n)) = 4^(n-1) |S^(4n-1)| vol(Sp(n-1)),                Sp(0) = 1.

Tori and finite Weyl groups are exact too, and each action kind builds
the volumes of its Weyl group and stabilizer from these
(``weyl_volume``, ``stabilizer_volume``); quotient volumes come from
the totally geodesic fibrations vol(G/H) = vol(G)/vol(H) and
vol(G/H) = vol(G/N) vol(W).

``group_volume(..., n_samples > 0)`` keeps the exponential-chart Monte
Carlo as an independent oracle (hence its ``McEstimate``), reliable up
to dimension 8: for orthonormal algebra coordinates,

    vol(G) = integral over the principal domain of |det d(exp)_X| dX,

where |det d(exp)_X| is a product of sin(mu/2)/(mu/2) factors over the
eigenvalue pairs of ad_X, and the principal domain is cut out by the
eigen-angles of X in the defining representation (all |angles| < pi,
or angle spread < 2 pi in the trace-free unitary case).  The integral
is done by Gaussian importance sampling in the algebra coordinates.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import ScalarField
from .matrices import batch_from_real, batch_to_real
from .groups import Family, GroupSpec, algebra_basis, brackets
from .mc import McEstimate, mc_run, standard_normals


def _structure_constants(field: ScalarField, data: np.ndarray) -> np.ndarray:
    """c[i, j, l] = <b_l, [b_i, b_j]> for the orthonormal basis b with raw data (q, n, n)."""
    return brackets(field, data[:, None], data[None]) @ batch_to_real(field, data).T


def _dexp_factors(ad_eigs: np.ndarray) -> np.ndarray:
    """prod over eigenvalues of |sin(mu/2) / (mu/2)| per sample row."""
    return np.prod(np.abs(np.sinc(ad_eigs / (2.0 * np.pi))), axis=-1)


def torus_volume(group: GroupSpec) -> float:
    """Exact volume of the standard maximal torus.

    The angle charts have constant speed sqrt(2) per rotation block for
    SO, 1 per diagonal phase for Sp, and Gram determinant n for the
    trace-free angles of SU.
    """
    n = group.n
    if group.family is Family.SO:
        return (2.0 * np.pi * np.sqrt(2.0)) ** (n // 2)
    if group.family is Family.SU:
        return (2.0 * np.pi) ** (n - 1) * np.sqrt(n)
    return (2.0 * np.pi) ** n


def weyl_group_order(group: GroupSpec) -> int:
    """Order of the classical Weyl group of the torus."""
    n = group.n
    if group.family is Family.SU:
        return math.factorial(n)
    if group.family is Family.SP:
        return 2 ** n * math.factorial(n)
    m = n // 2
    if n % 2 == 1:
        return 2 ** m * math.factorial(m)
    return 2 ** max(m - 1, 0) * math.factorial(m)


def _sphere_area(dim: int) -> float:
    """Area of the unit sphere S^dim."""
    return 2.0 * math.pi ** ((dim + 1) / 2) / math.gamma((dim + 1) / 2)


def _fibration_factor(family: Family, m: int) -> float:
    """vol(G(m)) / vol(G(m - 1)): the sphere G(m) e_1 and its metric factor."""
    if family is Family.SO:
        return math.sqrt(2.0) ** (m - 1) * _sphere_area(m - 1)
    if family is Family.SU:
        return 2.0 ** (m - 1) * math.sqrt(m / (m - 1)) * _sphere_area(2 * m - 1)
    return 4.0 ** (m - 1) * _sphere_area(4 * m - 1)


def _exact_group_volume(group: GroupSpec) -> float:
    """vol(G) for the Re(tr(x^* y)) metric, from the sphere fibrations."""
    first = 1 if group.family is Family.SP else 2
    return math.prod(_fibration_factor(group.family, m) for m in range(first, group.n + 1))


def group_volume(
    group: GroupSpec,
    n_samples: int = 0,
    seed: int = 0,
    chunks: int = 16,
    workers: int | None = None,
) -> McEstimate:
    """Riemannian volume of the group for the Re(tr(x^* y)) metric.

    Exact when n_samples is 0; n_samples > 0 integrates the exponential
    chart by Monte Carlo instead, as an independent oracle.
    """
    q = group.algebra_dim
    if n_samples == 0 or q == 0:
        return McEstimate.exact(_exact_group_volume(group))
    sigma = np.pi * np.sqrt(2.0 / group.rank) if group.rank > 1 else np.pi
    data = batch_from_real(group.field, group.n, group.n, algebra_basis(group))
    cstruct = _structure_constants(group.field, data).reshape(q, -1)
    nn = data.shape[-1]  # N = 2n over H
    bflat = np.array(data, dtype=complex).reshape(q, -1)
    log_norm = 0.5 * q * np.log(2.0 * np.pi * sigma * sigma)

    def sample(rngs: list[np.random.Generator], sizes: list[int]) -> np.ndarray:
        z = standard_normals(rngs, sizes, (q,)) * sigma
        eigs = np.linalg.eigvalsh(-1j * (z @ bflat).reshape(len(z), nn, nn))
        if group.family is Family.SU:  # the trace-free unitary domain: angle spread below 2 pi
            mask = (eigs.max(axis=-1) - eigs.min(axis=-1)) < 2.0 * np.pi
        else:
            mask = np.abs(eigs).max(axis=-1) < np.pi
        ad_eigs = np.linalg.eigvalsh(1j * (z @ cstruct).reshape(len(z), q, q))
        log_density = -0.5 * np.sum((z / sigma) ** 2, axis=1) - log_norm
        return np.where(mask, _dexp_factors(ad_eigs) * np.exp(-log_density), 0.0)

    return mc_run(sample, n_samples, seed, chunks, workers)


cached_group_volume = group_volume  # alias for importers; an exact value needs no cache


def w_group_volume(action) -> float:
    """Exact volume of the generalized Weyl group with its induced metric (the kind's ``weyl_volume``)."""
    return action.weyl_volume()


def vol_gh_estimate(action) -> float:
    """vol(G/H) from the totally geodesic fibration vol(G)/vol(H); exact."""
    return _exact_group_volume(action.group) / action.stabilizer_volume()
