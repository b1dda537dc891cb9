"""Independent matrix oracles for the tests.

``gram_schmidt_qr`` is a column-by-column Gram-Schmidt QR over R, C
and H in the field's own arithmetic; it shares no code with the
batched Householder kernel of ``matrices.qr`` and
``matrices.householder_q`` that it checks.
``realified_det`` assembles the real matrix of left multiplication
column by column, and ``pair_to_quat`` / ``quat_components`` read
quaternions as real components.
"""

from __future__ import annotations

import numpy as np

from sectint.fields import ScalarField
from sectint.matrices import (
    QUATERNION,
    REAL,
    DimensionError,
    MatK,
    from_real_vector,
    real_dim,
    to_real_vector,
    zeros,
)


def _col(x: MatK, j: int) -> np.ndarray:
    return x.data[:, j].copy() if x.field is not QUATERNION else x.data[:, j, :].copy()


def _herm_dot(field: ScalarField, u: np.ndarray, v: np.ndarray):
    """sum_a conj(u_a) v_a as a field scalar (complex pair for H)."""
    if field is REAL:
        return float(u @ v)
    if field is not QUATERNION:
        return complex(np.vdot(u, v))
    u1, u2, v1, v2 = u[:, 0], u[:, 1], v[:, 0], v[:, 1]
    p1 = np.sum(u1.conj() * v1 + u2 * v2.conj())
    p2 = np.sum(u1.conj() * v2 - u2 * v1.conj())
    return np.array([p1, p2], dtype=complex)


def _scale_right(field: ScalarField, u: np.ndarray, c):
    """Column times field scalar acting from the right."""
    if field is not QUATERNION:
        return u * c
    u1, u2 = u[:, 0], u[:, 1]
    c1, c2 = c[0], c[1]
    return np.stack([u1 * c1 - u2 * np.conj(c2), u1 * c2 + u2 * np.conj(c1)], axis=-1)


def _unit_col(field: ScalarField, n: int, t: int) -> np.ndarray:
    if field is not QUATERNION:
        e = np.zeros(n, dtype=float if field is REAL else complex)
        e[t] = 1.0
        return e
    e = np.zeros((n, 2), dtype=complex)
    e[t, 0] = 1.0
    return e


def gram_schmidt_qr(x: MatK, rank_cutoff: float = 1e-12) -> tuple[MatK, MatK]:
    """Gram-Schmidt factorization x = q r with real nonnegative diag(r).

    Two sweeps per column keep q numerically orthonormal.  A column whose
    remainder is at or below rank_cutoff * |x| gives a zero diagonal entry
    in r and a completion column in q.
    """
    n, m = x.shape
    if n < m:
        raise DimensionError("qr requires rows >= cols")
    field = x.field
    qcols: list[np.ndarray] = []
    rmat = zeros(field, m, m)
    cutoff = rank_cutoff * max(x.norm(), 1e-300)
    for j in range(m):
        v = _col(x, j)
        for _ in range(2):
            for i, qi in enumerate(qcols):
                c = _herm_dot(field, qi, v)
                v = v - _scale_right(field, qi, c)
                rmat.data[i, j] += c
        nv = float(np.linalg.norm(v))
        if nv > cutoff:
            rmat.data[j, j] = [nv, 0.0] if field is QUATERNION else nv
            qcols.append(v / nv)
        else:
            qcols.append(_completion_column(field, n, qcols))
    return MatK(field, np.stack(qcols, axis=1)), rmat


def _completion_column(field: ScalarField, n: int, qcols: list[np.ndarray]) -> np.ndarray:
    """Unit vector orthogonal to the given orthonormal columns."""
    best, best_norm = None, -1.0
    for t in range(n):
        v = _unit_col(field, n, t)
        for _ in range(2):
            for qi in qcols:
                v = v - _scale_right(field, qi, _herm_dot(field, qi, v))
        nv = float(np.linalg.norm(v))
        if nv > best_norm:
            best, best_norm = v, nv
    if best_norm < 1e-8:
        raise np.linalg.LinAlgError("failed to complete orthonormal basis")
    return best / best_norm


def realified_det(x: MatK) -> float:
    """|det| of the real matrix of left multiplication by x on K^n.

    Equals det_modulus(x) ** field.dim; computed independently by
    assembling the realified operator column by column.
    """
    if not x.is_square():
        raise DimensionError("realified_det requires a square matrix")
    n = x.rows
    dn = real_dim(x.field, n, 1)
    m = np.empty((dn, dn))
    for i in range(dn):
        e = np.zeros(dn)
        e[i] = 1.0
        m[:, i] = to_real_vector(x @ from_real_vector(x.field, n, 1, e))
    return float(abs(np.linalg.det(m)))


def pair_to_quat(c):
    """(..., 2) complex pair -> (..., 4) float components."""
    c = np.asarray(c, dtype=complex)
    return np.stack(
        [c[..., 0].real, c[..., 0].imag, c[..., 1].real, c[..., 1].imag], axis=-1
    )


def quat_components(x: MatK) -> np.ndarray:
    """Quaternion matrix as (n, m, 4) real components."""
    if x.field is not QUATERNION:
        raise DimensionError("quat_components needs a quaternionic matrix")
    return pair_to_quat(x.data)
