"""Classical compact matrix groups SO(n), SU(n), Sp(n).

Provides orthonormal Lie algebra bases for the inner product
Re(tr(x^* y)), all from one rule over the field's units and each a
read-only array of flat real rows (q, d n^2), maximal-torus points, the
torus's ``root_data`` (positive roots, multiplicity 2, the degree of the
torus rule, |W|) and Weyl's weight from it, exact Haar sampling as the q
factor of Gaussian matrices from one batched Householder kernel
(matrices.householder_q) for every family, and the adjoint action.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, brief
from .matrices import (
    COMPLEX,
    QUATERNION,
    REAL,
    DimensionError,
    MatK,
    batch_to_real,
    data_from_components,
    from_real_vector,
    gaussian_batch,
    householder_q,
    read_only,
)

SQ2 = np.sqrt(2.0)


class Family(enum.Enum):
    SO = "SO"
    SU = "SU"
    SP = "Sp"

    @property
    def field(self) -> ScalarField:
        return _FAMILY_FIELDS[self.value]

    @classmethod
    def parse(cls, label: str) -> "Family":
        for fam in cls:
            if isinstance(label, str) and fam.value.lower() == label.lower():
                return fam
        raise ValueError(f"unknown group family {brief(label)}, expected SO, SU or Sp")


_FAMILY_FIELDS = {"SO": REAL, "SU": COMPLEX, "Sp": QUATERNION}  # keyed on the value, as in fields


@dataclass(frozen=True)
class GroupSpec:
    family: Family
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("group size must be positive")

    @property
    def field(self) -> ScalarField:
        return self.family.field

    @property
    def algebra_dim(self) -> int:
        """The torus and a root space of real dimension 2 for each positive root."""
        return self.rank + 2 * root_data(self).roots.shape[1]

    @property
    def rank(self) -> int:
        if self.family is Family.SO:
            return self.n // 2
        if self.family is Family.SU:
            return self.n - 1
        return self.n

    def __str__(self):
        return f"{self.family.value}({self.n})"


@dataclass(frozen=True)
class GroupElement:
    group: GroupSpec
    matrix: MatK


_CONJ = np.array([1.0, -1.0, -1.0, -1.0])  # conjugation on (w, x, y, z); R and C use the first 1 or 2


def pair_generators(field: ScalarField, n: int, a: np.ndarray, b: np.ndarray, units=None) -> np.ndarray:
    """Flat real rows (len(a) len(units), d n^2) of the algebra generators on
    the index pairs (a, b) of n x n matrices: pair by pair, and for each
    unit u of units (by default the field's, 1; 1, i; 1, i, j, k) in turn,
    u/sqrt(2) at (b, a) and -conj(u)/sqrt(2) at (a, b) where a < b, or u
    alone at (a, a) where a = b, for imaginary units u = -conj(u)."""
    d = field.dim
    units = np.eye(d) if units is None else units
    a, b, u = np.repeat(a, len(units)), np.repeat(b, len(units)), np.tile(units, (len(a), 1))
    comps, i, c = np.zeros((len(a), n, n, d)), np.arange(len(a)), np.where(a < b, 1 / SQ2, 1.0)[:, None]
    comps[i, b, a], comps[i, a, b] = c * u, -c * (u * _CONJ[:d])
    return batch_to_real(field, data_from_components(field, comps))


def block_algebra_basis(field: ScalarField, n: int, lo: int, hi: int) -> np.ndarray:
    """Orthonormal basis of the algebra of the SO, SU or Sp block on rows and
    columns [lo, hi) of n x n matrices, as flat real rows (q, d n^2): the
    pair_generators of the pairs lo <= a < b < hi, then SU's traceless
    imaginary diagonals, or Sp's three imaginary units at each (a, a)."""
    size = hi - lo
    rows = [pair_generators(field, n, *(lo + i for i in np.triu_indices(size, 1)))]
    if field is QUATERNION:
        diag = np.arange(lo, hi)
        rows.append(pair_generators(field, n, diag, diag, np.eye(4)[1:]))
    if field is COMPLEX:  # diagonal l: i on [lo, lo + l) and -i l at lo + l, over sqrt(l (l + 1))
        l, cols = np.arange(1, size)[:, None], np.arange(n)
        diag = np.where((lo <= cols) & (cols < lo + l), 1j, np.where(cols == lo + l, -1j * l, 0j))
        rows.append(batch_to_real(field, (diag / np.sqrt(l * (l + 1)))[:, :, None] * np.eye(n)))
    return np.concatenate(rows)


@functools.lru_cache(maxsize=None)
def algebra_basis(group: GroupSpec) -> np.ndarray:
    """Orthonormal basis of the Lie algebra, read-only rows: block_algebra_basis on all rows."""
    return read_only(block_algebra_basis(group.field, group.n, 0, group.n))


def torus_indices(group: GroupSpec) -> np.ndarray:
    """Rows of algebra_basis spanning the standard maximal torus algebra: SO's
    pairs (2a, 2a + 1), at a(2n - 2a - 1); after the d n(n - 1)/2 pair
    generators, SU's diagonals and Sp's i-units at (a, a)."""
    n, a = group.n, np.arange(group.rank)
    if group.family is Family.SO:
        return a * (2 * n - 2 * a - 1)
    return n * (n - 1) + a if group.family is Family.SU else 2 * n * (n - 1) + 3 * a


@functools.lru_cache(maxsize=None)
def torus_basis(group: GroupSpec) -> np.ndarray:
    """Orthonormal basis of the standard maximal torus algebra, read-only: the torus_indices rows of algebra_basis."""
    return read_only(algebra_basis(group)[torus_indices(group)])


def torus_point(group: GroupSpec, angles: np.ndarray) -> MatK:
    """Element of the standard maximal torus with the given angles."""
    flat = torus_points(group, np.asarray(angles, dtype=float).reshape(1, -1))
    return from_real_vector(group.field, group.n, group.n, flat[0])


def torus_points(group: GroupSpec, angles: np.ndarray) -> np.ndarray:
    """Flat real coordinates (m, D) of the torus elements at angle rows (m, r).

    SO(n): block rotations R(theta_a); SU(n): diag(exp(i theta_j)) with
    the last angle forced to make the sum vanish mod 2 pi (n - 1 free
    angles if n - 1 are given, otherwise all n are used as supplied);
    Sp(n): diag(exp(i theta_a)).
    """
    n, fam = group.n, group.family
    angles = full_torus_angles(group, angles)
    m, r = angles.shape
    c, s = np.cos(angles), np.sin(angles)
    out = np.zeros((m, n * n, group.field.dim))
    step = n + 1  # flat stride between diagonal entries
    if fam is Family.SO:
        # rotation block a occupies rows and columns 2a, 2a + 1
        end, jump = 2 * r * step, 2 * step
        out[:, 0:end:jump, 0], out[:, step:end:jump, 0] = c, c
        out[:, 1:end:jump, 0], out[:, n:end:jump, 0] = -s, s
        out[:, end::step, 0] = 1.0
    else:
        out[:, ::step, 0], out[:, ::step, 1] = c, s
    return out.reshape(m, -1)


def full_torus_angles(group: GroupSpec, angles: np.ndarray) -> np.ndarray:
    """Angle rows (m, r) as torus_points reads them: SU(n)'s n - 1 free
    angles gain the last one, minus their sum; any other count than the
    rank (n on SU) raises DimensionError."""
    n, fam = group.n, group.family
    angles = np.asarray(angles, dtype=float)
    m, r = angles.shape
    if fam is Family.SU and r == n - 1:
        full = np.empty((m, n))
        full[:, :r], full[:, r] = angles, -np.sum(angles, axis=1)
        return full
    if r != (n // 2 if fam is Family.SO else n):
        need = {Family.SO: n // 2, Family.SU: f"{n - 1} (or {n})", Family.SP: n}[fam]
        raise DimensionError(f"{group} torus needs {need} angles")
    return angles


def torus_angles(group: GroupSpec, pts: np.ndarray) -> np.ndarray:
    """Angle rows (m, r) of torus points with flat coordinates pts (m, D),
    the inverse of torus_points up to 2 pi: atan2 of the (cos, sin) pair
    of each diagonal entry on SU (all n angles) and Sp, of each rotation
    block's first column on SO."""
    n = group.n
    if group.family is Family.SO:
        cols = 2 * np.arange(n // 2) * (n + 1)  # flat index of entry (2a, 2a)
        return np.arctan2(pts[:, cols + n], pts[:, cols])
    d = group.field.dim
    diag = np.arange(n) * (n + 1) * d  # first real component of entry (a, a)
    return np.arctan2(pts[:, diag + 1], pts[:, diag])


def torus_weight_batch(group: GroupSpec, angles: np.ndarray) -> np.ndarray:
    """Weyl's weight of conjugation at the torus angle rows (m, r) of torus_points:
    root_data's product of 4 sin^2(alpha / 2) over the positive roots alpha."""
    return root_data(group).weight(full_torus_angles(group, np.atleast_2d(angles)))


@dataclass(frozen=True)
class RootData:
    """The weight prod_alpha |f(alpha(x))|^multiplicity of a section: roots
    (angles, roots), one root per column over the full rows x (those of
    full_torus_angles on a torus); f(x) = 2 sin(x / 2) on a compact torus
    (chord), else x; the weight's degree per free coordinate, trigonometric
    on a torus; and weyl_order, |W|."""

    roots: np.ndarray
    multiplicity: int  # a Python int: a scalar power keeps the bits of x * x
    degree: int
    weyl_order: int
    chord: bool

    def weight(self, x: np.ndarray) -> np.ndarray:
        """The weight at the full coordinate rows x (m, angles)."""
        alpha = x @ self.roots
        return np.prod(np.abs(2.0 * np.sin(0.5 * alpha) if self.chord else alpha) ** self.multiplicity, axis=1)


@functools.lru_cache(maxsize=None)
def root_data(group: GroupSpec) -> RootData:
    """Root data of the maximal torus, multiplicity 2: theta_i - theta_j on
    SU(n) (all n angles), theta_a +- theta_b on SO(n) and Sp(n), with theta_a
    on SO(2m+1) and 2 theta_a on Sp(n); |W| is S_n, or the signed permutations
    (an even number of sign changes on SO(2m)).  The entries are 0, +-1 and
    2, so a root is the angles' sum or difference rounded once: at equal
    angles (or opposite, or a zero one) it and the weight are exactly 0."""
    fam, rank = group.family, group.rank
    unit = np.eye(group.n if fam is Family.SU else rank)
    i, j = np.triu_indices(len(unit), 1)
    roots = [unit[i] - unit[j]]
    if fam is Family.SU:
        order = math.factorial(group.n)
    else:
        order = 2 ** rank * math.factorial(rank)
        roots.append(unit[i] + unit[j])
        if fam is Family.SP:
            roots.append(2.0 * unit)
        elif group.n % 2:
            roots.append(unit)
        elif rank:
            order //= 2
    roots = read_only(np.concatenate(roots).T)
    per_angle = np.sum(np.abs(full_torus_angles(group, np.eye(rank)) @ roots), axis=1)
    return RootData(roots, 2, int(np.max(per_angle, initial=0)), order, chord=True)


def haar_sample(group: GroupSpec, rng: np.random.Generator) -> GroupElement:
    """One Haar sample: a batch of one from haar_sample_batch."""
    return GroupElement(group, MatK(group.field, haar_sample_batch(group, rng, 1)[0]))


def haar_sample_batch(group: GroupSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    """Stack of Haar samples as raw matrix data, (count, n, n) ((count, 2n, 2n) on Sp(n)):
    haar_from_gaussian of count successive matrices.gaussian draws."""
    return haar_from_gaussian(group, gaussian_batch(group.field, group.n, group.n, [rng], [count]))


def haar_from_gaussian(group: GroupSpec, data: np.ndarray) -> np.ndarray:
    """Haar samples of group from Gaussian matrix data (count, n, n) (adjoint matrices on Sp(n)).

    The q of each matrix (diag(r) real and positive) is a Haar sample of
    O(n) / U(n) / Sp(n) (Mezzadri, arXiv:math-ph/0609050), from
    matrices.householder_q; for SO and SU a final column scaling by the
    conjugate of the determinant forces det = 1, which pushes Haar
    forward to the subgroup.  Each sample depends on its own matrix
    only, so a stack maps as its parts do.
    """
    q, det = householder_q(data)
    if group.family is Family.SO:
        q[det < 0, :, -1] *= -1.0
    elif group.family is Family.SU:
        q[:, :, -1] *= det.conj()[:, None]
    return q


def adjoint(g: GroupElement, x: MatK) -> MatK:
    """Ad_g x = g x g^{-1}; an isometry of the algebra."""
    m = g.matrix
    return m @ x @ m.h


def brackets(field: ScalarField, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Flat rows of the brackets [x, y] = x y - y x of raw matrix data, leading axes broadcast."""
    return batch_to_real(field, x @ y - y @ x)
