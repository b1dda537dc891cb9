"""Absolute Riemannian volumes of the compact groups and their quotients.

Every volume is exact and a plain float.  For the Re(tr(x^* y)) metric each
classical group fibres over a sphere by g -> g e_1, with fibre G(n - 1).
A horizontal generator with first column v has norm^2 2|v|^2 and moves
e_1 at speed |v|, which gives (Macdonald, Invent. Math. 56, 1980)

    vol(SO(n)) = sqrt(2)^(n-1) |S^(n-1)| vol(SO(n-1)),          SO(1) = 1,
    vol(SU(n)) = 2^(n-1) sqrt(n/(n-1)) |S^(2n-1)| vol(SU(n-1)), SU(1) = 1,
    vol(Sp(n)) = 4^(n-1) |S^(4n-1)| vol(Sp(n-1)),                Sp(0) = 1.

Tori are exact too, a finite Weyl group's volume is the |W| of its root
record (``groups.root_data``, or the polar line's), and each action kind
builds the volumes of its Weyl group and stabilizer from these
(``weyl_volume``, ``stabilizer_volume``); quotient volumes come from
the totally geodesic fibrations vol(G/H) = vol(G)/vol(H) and
vol(G/H) = vol(G/N) vol(W).
"""

from __future__ import annotations

import math

from .groups import Family, GroupSpec


def torus_volume(group: GroupSpec) -> float:
    """Exact volume of the standard maximal torus.

    The angle charts have constant speed sqrt(2) per rotation block for
    SO, 1 per diagonal phase for Sp, and Gram determinant n for the
    trace-free angles of SU.
    """
    n = group.n
    if group.family is Family.SO:
        return (2.0 * math.pi * math.sqrt(2.0)) ** (n // 2)
    if group.family is Family.SU:
        return (2.0 * math.pi) ** (n - 1) * math.sqrt(n)
    return (2.0 * math.pi) ** n


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


def group_volume(group: GroupSpec, n_samples: int = 0) -> float:
    """vol(G) for the Re(tr(x^* y)) metric, from the sphere fibrations.

    The value is exact, so n_samples must be 0; the exponential-chart Monte
    Carlo that estimates it is the test oracle ``tests/chart_volume_oracle.py``.
    """
    if n_samples:
        raise ValueError(f"group_volume is exact and takes n_samples = 0, got {n_samples}")
    first = 1 if group.family is Family.SP else 2
    return math.prod(_fibration_factor(group.family, m) for m in range(first, group.n + 1))


cached_group_volume = group_volume  # alias for importers; an exact value needs no cache


def w_group_volume(action) -> float:
    """Exact volume of the generalized Weyl group with its induced metric (the kind's ``weyl_volume``)."""
    return action.weyl_volume()


def vol_gh_estimate(action) -> float:
    """vol(G/H) from the totally geodesic fibration vol(G)/vol(H); exact."""
    return group_volume(action.group) / action.stabilizer_volume()
