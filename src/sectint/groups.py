"""Classical compact matrix groups SO(n), SU(n), Sp(n).

Provides orthonormal Lie algebra bases for the inner product
Re(tr(x^* y)), maximal-torus points, exact Haar sampling as the q
factor of the field-generic batched QR (matrices.qr) of Gaussian
matrices for every family, and the adjoint action.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField
from .matrices import (
    COMPLEX,
    QUATERNION,
    REAL,
    DimensionError,
    MatK,
    from_real_vector,
    gaussian_batch,
    mat,
    qr,
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
            if fam.value.lower() == label.lower():
                return fam
        raise ValueError(f"unknown group family {label!r}, expected SO, SU or Sp")


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
        n = self.n
        if self.family is Family.SO:
            return n * (n - 1) // 2
        if self.family is Family.SU:
            return n * n - 1
        return n * (2 * n + 1)

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


def _q_unit(axis: int) -> np.ndarray:
    e = np.zeros(4)
    e[axis] = 1.0
    return e


@functools.lru_cache(maxsize=None)
def algebra_basis(group: GroupSpec) -> tuple[MatK, ...]:
    """Orthonormal basis of the Lie algebra under Re(tr(x^* y)).

    Off-diagonal generators are elementary antisymmetric pairs scaled
    by 1/sqrt(2); SU gets the usual symmetric imaginary pairs and
    traceless imaginary diagonals, Sp the three extra imaginary units
    per slot.
    """
    n, field = group.n, group.field
    out: list[MatK] = []
    if field is REAL:
        for a in range(n):
            for b in range(a + 1, n):
                m = np.zeros((n, n))
                m[a, b], m[b, a] = -1.0 / SQ2, 1.0 / SQ2
                out.append(mat(REAL, m))
    elif field is COMPLEX:
        for a in range(n):
            for b in range(a + 1, n):
                m = np.zeros((n, n), dtype=complex)
                m[a, b], m[b, a] = -1.0 / SQ2, 1.0 / SQ2
                out.append(mat(COMPLEX, m))
                m = np.zeros((n, n), dtype=complex)
                m[a, b] = m[b, a] = 1j / SQ2
                out.append(mat(COMPLEX, m))
        for l in range(1, n):
            diag = np.zeros(n, dtype=complex)
            diag[:l] = 1j
            diag[l] = -1j * l
            out.append(mat(COMPLEX, np.diag(diag / np.sqrt(l * (l + 1)))))
    else:
        for a in range(n):
            for b in range(a + 1, n):
                for axis in range(4):
                    q = _q_unit(axis)
                    qc = np.array([q[0], -q[1], -q[2], -q[3]])
                    m = np.zeros((n, n, 4))
                    # X[a,b] = -conj(q)/sqrt(2), X[b,a] = q/sqrt(2) keeps X skew
                    m[a, b] = -qc / SQ2
                    m[b, a] = q / SQ2
                    out.append(mat(QUATERNION, m))
        for a in range(n):
            for axis in range(1, 4):
                m = np.zeros((n, n, 4))
                m[a, a] = _q_unit(axis)
                out.append(mat(QUATERNION, m))
    assert len(out) == group.algebra_dim
    return tuple(out)


@functools.lru_cache(maxsize=None)
def torus_basis(group: GroupSpec) -> tuple[MatK, ...]:
    """Orthonormal basis of the standard maximal torus algebra.

    SO(n): 2x2 rotation generators on consecutive index pairs;
    SU(n): traceless imaginary diagonals; Sp(n): imaginary-i diagonals.
    """
    n, field = group.n, group.field
    out: list[MatK] = []
    if group.family is Family.SO:
        for a in range(n // 2):
            m = np.zeros((n, n))
            m[2 * a, 2 * a + 1], m[2 * a + 1, 2 * a] = -1.0 / SQ2, 1.0 / SQ2
            out.append(mat(REAL, m))
    elif group.family is Family.SU:
        for l in range(1, n):
            diag = np.zeros(n, dtype=complex)
            diag[:l] = 1j
            diag[l] = -1j * l
            out.append(mat(COMPLEX, np.diag(diag / np.sqrt(l * (l + 1)))))
    else:
        for a in range(n):
            m = np.zeros((n, n, 4))
            m[a, a] = _q_unit(1)
            out.append(mat(QUATERNION, m))
    assert len(out) == group.rank
    return tuple(out)


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
    angles = np.asarray(angles, dtype=float)
    m, r = angles.shape
    if fam is Family.SU and r == n - 1:
        full = np.empty((m, n))
        full[:, :r], full[:, r] = angles, -np.sum(angles, axis=1)
        angles, r = full, n
    if r != (n // 2 if fam is Family.SO else n):
        need = {Family.SO: n // 2, Family.SU: f"{n - 1} (or {n})", Family.SP: n}[fam]
        raise DimensionError(f"{group} torus needs {need} angles")
    c, s = np.cos(angles), np.sin(angles)
    out = np.zeros((m, n * n, 1 if fam is Family.SO else (2 if fam is Family.SU else 4)))
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


def haar_sample(group: GroupSpec, rng: np.random.Generator) -> GroupElement:
    """One Haar sample: a batch of one from haar_sample_batch."""
    return GroupElement(group, MatK(group.field, haar_sample_batch(group, rng, 1)[0]))


def haar_unitary_batch(field: ScalarField, n: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """Haar samples of O(n), U(n) or Sp(n) as raw matrix data, (count, n, n[, pair]).

    The q factor of matrices.qr (diag(r) real and positive) of count
    Gaussian matrices, drawn from the random stream of count successive
    matrices.gaussian calls; that q is Haar (Mezzadri,
    arXiv:math-ph/0609050).
    """
    return qr(field, gaussian_batch(field, n, n, rng, count))[0]


def haar_sample_batch(group: GroupSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    """Stack of Haar samples as raw matrix data, (count, n, n[, pair]).

    Haar samples of O(n) / U(n) / Sp(n) from haar_unitary_batch; for SO
    and SU a final column scaling forces det = 1, which pushes Haar
    forward to the subgroup.
    """
    q = haar_unitary_batch(group.field, group.n, rng, count)
    if group.family is Family.SO:
        q[np.linalg.det(q) < 0, :, -1] *= -1.0
    elif group.family is Family.SU:
        q[:, :, -1] *= np.linalg.det(q).conj()[:, None]
    return q


def adjoint(g: GroupElement, x: MatK) -> MatK:
    """Ad_g x = g x g^{-1}; an isometry of the algebra."""
    m = g.matrix
    return m @ x @ m.h
