"""Dense matrices over the reals, complex numbers and quaternions.

A quaternionic matrix Q is stored as a complex pair (C1, C2) with
Q = C1 + C2*j, so products and adjoints reduce to complex arithmetic:

    (C1 + C2 j)(D1 + D2 j) = (C1 D1 - C2 conj(D2)) + (C1 D2 + C2 conj(D1)) j
    (C1 + C2 j)^*          = conj(C1)^t - C2^t j

Every matrix also has a flat real coordinate vector (its realification)
chosen so that the ambient inner product Re(tr(x^* y)) equals the
Euclidean dot product of the coordinate vectors.  All downstream
geometry (frames, Gram matrices, Jacobians) works in those coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, pair_to_quat, quat_to_pair

REAL = ScalarField.REAL
COMPLEX = ScalarField.COMPLEX
QUATERNION = ScalarField.QUATERNION


class DimensionError(ValueError):
    """Shape or field mismatch between matrix operands."""


@dataclass(frozen=True)
class MatK:
    """Dense matrix over one of the three scalar fields.

    data layout: (rows, cols) float64 for R, (rows, cols) complex128
    for C, (rows, cols, 2) complex128 for H (the pair C1, C2).
    """

    field: ScalarField
    data: np.ndarray

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape[0], self.data.shape[1]

    @property
    def h(self) -> "MatK":
        """Adjoint (conjugate transpose); an involution."""
        if self.field is REAL:
            return MatK(REAL, self.data.T.copy())
        if self.field is COMPLEX:
            return MatK(COMPLEX, self.data.conj().T.copy())
        c1, c2 = self.data[..., 0], self.data[..., 1]
        return MatK(QUATERNION, np.stack([c1.conj().T, -c2.T], axis=-1))

    def __matmul__(self, other: "MatK") -> "MatK":
        if self.field is not other.field:
            raise DimensionError("matmul requires matching fields")
        if self.cols != other.rows:
            raise DimensionError(
                f"matmul shape mismatch: {self.shape} @ {other.shape}"
            )
        if self.field is not QUATERNION:
            return MatK(self.field, self.data @ other.data)
        a1, a2 = self.data[..., 0], self.data[..., 1]
        b1, b2 = other.data[..., 0], other.data[..., 1]
        return MatK(
            QUATERNION,
            np.stack([a1 @ b1 - a2 @ b2.conj(), a1 @ b2 + a2 @ b1.conj()], axis=-1),
        )

    def __add__(self, other: "MatK") -> "MatK":
        _check_same(self, other)
        return MatK(self.field, self.data + other.data)

    def __sub__(self, other: "MatK") -> "MatK":
        _check_same(self, other)
        return MatK(self.field, self.data - other.data)

    def __neg__(self) -> "MatK":
        return MatK(self.field, -self.data)

    def __mul__(self, scalar) -> "MatK":
        return MatK(self.field, self.data * float(scalar))

    __rmul__ = __mul__

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def is_square(self) -> bool:
        return self.rows == self.cols


def _check_same(x: MatK, y: MatK) -> None:
    if x.field is not y.field or x.shape != y.shape:
        raise DimensionError(f"operands differ: {x.field}/{x.shape} vs {y.field}/{y.shape}")


def mat(field: ScalarField, data) -> MatK:
    """Wrap array data as a MatK, accepting natural layouts per field.

    For H the input may be (n, m, 4) real quaternion components or
    (n, m, 2) complex pairs.
    """
    if field is REAL:
        a = np.asarray(data, dtype=float)
        if a.ndim != 2:
            raise DimensionError("real matrix data must be 2-d")
        return MatK(REAL, a)
    if field is COMPLEX:
        a = np.asarray(data, dtype=complex)
        if a.ndim != 2:
            raise DimensionError("complex matrix data must be 2-d")
        return MatK(COMPLEX, a)
    a = np.asarray(data)
    if a.ndim == 3 and a.shape[-1] == 4:
        return MatK(QUATERNION, quat_to_pair(a))
    if a.ndim == 3 and a.shape[-1] == 2:
        return MatK(QUATERNION, np.asarray(a, dtype=complex))
    raise DimensionError("quaternion matrix data must be (n, m, 4) or (n, m, 2)")


def zeros(field: ScalarField, n: int, m: int) -> MatK:
    if field is REAL:
        return MatK(REAL, np.zeros((n, m)))
    if field is COMPLEX:
        return MatK(COMPLEX, np.zeros((n, m), dtype=complex))
    return MatK(QUATERNION, np.zeros((n, m, 2), dtype=complex))


def eye(field: ScalarField, n: int) -> MatK:
    z = zeros(field, n, n)
    if field is QUATERNION:
        z.data[np.arange(n), np.arange(n), 0] = 1.0
    else:
        z.data[np.arange(n), np.arange(n)] = 1.0
    return z


def gaussian(field: ScalarField, n: int, m: int, rng: np.random.Generator) -> MatK:
    """Matrix whose real coordinates are iid standard normal."""
    if field is REAL:
        return MatK(REAL, rng.standard_normal((n, m)))
    if field is COMPLEX:
        return MatK(COMPLEX, rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    g = rng.standard_normal((n, m, 4))
    return MatK(QUATERNION, quat_to_pair(g))


def quat_components(x: MatK) -> np.ndarray:
    """Quaternion matrix as (n, m, 4) real components."""
    if x.field is not QUATERNION:
        raise DimensionError("quat_components needs a quaternionic matrix")
    return pair_to_quat(x.data)


# --- realification ---------------------------------------------------------

def real_dim(field: ScalarField, n: int, m: int) -> int:
    return field.dim * n * m


def to_real_vector(x: MatK) -> np.ndarray:
    """Flat real coordinates; Re(tr(x^* y)) == dot(vec(x), vec(y))."""
    if x.field is REAL:
        return x.data.ravel().copy()
    if x.field is COMPLEX:
        return np.stack([x.data.real, x.data.imag], axis=-1).ravel()
    d = x.data
    return np.stack(
        [d[..., 0].real, d[..., 0].imag, d[..., 1].real, d[..., 1].imag], axis=-1
    ).ravel()


def batch_to_real(field: ScalarField, arr: np.ndarray) -> np.ndarray:
    """Realify a stack of raw matrix data, (count, n, m[, pair]) -> (count, D)."""
    count = arr.shape[0]
    if field is REAL:
        return arr.reshape(count, -1).astype(float)
    if field is COMPLEX:
        return np.stack([arr.real, arr.imag], axis=-1).reshape(count, -1)
    c1, c2 = arr[..., 0], arr[..., 1]
    return np.stack([c1.real, c1.imag, c2.real, c2.imag], axis=-1).reshape(count, -1)


def from_real_vector(field: ScalarField, n: int, m: int, v: np.ndarray) -> MatK:
    v = np.asarray(v, dtype=float)
    if v.size != real_dim(field, n, m):
        raise DimensionError(f"expected {real_dim(field, n, m)} coordinates, got {v.size}")
    if field is REAL:
        return MatK(REAL, v.reshape(n, m).copy())
    if field is COMPLEX:
        a = v.reshape(n, m, 2)
        return MatK(COMPLEX, a[..., 0] + 1j * a[..., 1])
    a = v.reshape(n, m, 4)
    return MatK(QUATERNION, np.stack([a[..., 0] + 1j * a[..., 1], a[..., 2] + 1j * a[..., 3]], axis=-1))


def inner(x: MatK, y: MatK) -> float:
    """Ambient real inner product Re(tr(x^* y))."""
    _check_same(x, y)
    return float(np.vdot(x.data, y.data).real)


# --- QR --------------------------------------------------------------------

@dataclass(frozen=True)
class QrFactors:
    q: MatK
    r: MatK


def _col(x: MatK, j: int) -> np.ndarray:
    return x.data[:, j].copy() if x.field is not QUATERNION else x.data[:, j, :].copy()


def _herm_dot(field: ScalarField, u: np.ndarray, v: np.ndarray):
    """sum_a conj(u_a) v_a as a field scalar (complex pair for H)."""
    if field is REAL:
        return float(u @ v)
    if field is COMPLEX:
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


def _col_norm(u: np.ndarray) -> float:
    return float(np.linalg.norm(u))


def _unit_col(field: ScalarField, n: int, t: int) -> np.ndarray:
    if field is not QUATERNION:
        e = np.zeros(n, dtype=float if field is REAL else complex)
        e[t] = 1.0
        return e
    e = np.zeros((n, 2), dtype=complex)
    e[t, 0] = 1.0
    return e


def qr(x: MatK, rank_cutoff: float = 1e-12) -> QrFactors:
    """Gram-Schmidt factorization x = q r with real nonnegative diag(r).

    Columns of q are orthonormal for the field's Hermitian form; the
    nonnegative-diagonal convention makes the factors unique for
    full-rank input.  Rank-deficient columns give a zero diagonal entry
    in r and a completion column in q, so q stays orthonormal and
    x = q r still holds.
    """
    n, m = x.shape
    if n < m:
        raise DimensionError("qr requires rows >= cols")
    field = x.field
    qcols: list[np.ndarray] = []
    rmat = zeros(field, m, m)
    scale = x.norm()
    cutoff = rank_cutoff * max(scale, 1e-300)

    def _orthogonalize(v, accumulate_to=None):
        # two Gram-Schmidt sweeps for numerical orthogonality
        for _ in range(2):
            for i, qi in enumerate(qcols):
                c = _herm_dot(field, qi, v)
                v = v - _scale_right(field, qi, c)
                if accumulate_to is not None:
                    if field is QUATERNION:
                        rmat.data[i, accumulate_to, :] += c
                    else:
                        rmat.data[i, accumulate_to] += c
        return v

    for j in range(m):
        v = _orthogonalize(_col(x, j), accumulate_to=j)
        nv = _col_norm(v)
        if nv > cutoff:
            if field is QUATERNION:
                rmat.data[j, j, 0] = nv
            else:
                rmat.data[j, j] = nv
            qcols.append(v / nv)
        else:
            qcols.append(_completion_column(field, n, qcols))
    qdata = np.stack(qcols, axis=1)
    return QrFactors(MatK(field, qdata), rmat)


def _completion_column(field: ScalarField, n: int, qcols: list[np.ndarray]) -> np.ndarray:
    """Unit vector orthogonal to the given orthonormal columns."""
    best, best_norm = None, -1.0
    for t in range(n):
        v = _unit_col(field, n, t)
        for _ in range(2):
            for qi in qcols:
                v = v - _scale_right(field, qi, _herm_dot(field, qi, v))
        nv = _col_norm(v)
        if nv > best_norm:
            best, best_norm = v, nv
    if best_norm < 1e-8:
        raise np.linalg.LinAlgError("failed to complete orthonormal basis")
    return best / best_norm


# --- determinants ----------------------------------------------------------

def complex_embedding(field: ScalarField, data: np.ndarray) -> np.ndarray:
    """Complex matrices representing a stack of raw matrix data.

    data is MatK data with any leading batch axes, (..., r, c[, pair]);
    for H each matrix becomes its 2r x 2c adjoint matrix.
    """
    if field is not QUATERNION:
        return np.array(data, dtype=complex)
    c1, c2 = data[..., 0], data[..., 1]
    top = np.concatenate([c1, -c2], axis=-1)
    bot = np.concatenate([c2.conj(), c1.conj()], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def data_from_components(field: ScalarField, comps: np.ndarray) -> np.ndarray:
    """Real components (..., r, c, d) -> raw matrix data (..., r, c[, pair])."""
    if field is REAL:
        return comps[..., 0]
    if field is COMPLEX:
        return comps[..., 0] + 1j * comps[..., 1]
    return quat_to_pair(comps)


def gram_det(field: ScalarField, comps: np.ndarray) -> np.ndarray:
    """det(x^* x) >= 0 for a stack of n x k matrices given as real
    components (m, n, k, d); the Moore determinant of the Gram matrix for H.

    This is |x|^2 for k = 1 and g11 g22 - |g12|^2 for k = 2, from real
    arithmetic only: g12 = sum_r conj(x_r1) x_r2 is one batched product
    of the two columns' components, contracted with the field's table of
    conj(e_a) e_b.  Rounding in that difference is clipped at 0, so a
    rank-deficient x gives 0 or a value of order eps * |x|^4.  Larger k
    takes LAPACK det of the Gram matrix of the complex embedding, whose
    determinant is the square of the Moore determinant for H.
    """
    m, _, k, d = comps.shape
    if k == 1:
        return np.einsum("mrkd,mrkd->m", comps, comps)
    if k == 2:
        u, v = comps[:, :, 0], comps[:, :, 1]
        g11 = np.einsum("mrd,mrd->m", u, u)
        g22 = np.einsum("mrd,mrd->m", v, v)
        g12 = np.matmul(np.swapaxes(u, 1, 2), v).reshape(m, d * d) @ _CONJ_PRODUCTS[field.value]
        return np.maximum(g11 * g22 - np.einsum("mc,mc->m", g12, g12), 0.0)
    x = complex_embedding(field, data_from_components(field, comps))
    det = np.abs(np.linalg.det(np.matmul(np.swapaxes(x.conj(), 1, 2), x)))
    return np.sqrt(det) if field is QUATERNION else det


def det_modulus(x: MatK) -> float:
    """|det x|; the Dieudonne determinant modulus for quaternions."""
    if not x.is_square():
        raise DimensionError("det_modulus requires a square matrix")
    if x.field is QUATERNION:
        return float(np.sqrt(abs(np.linalg.det(complex_embedding(x.field, x.data)))))
    return float(abs(np.linalg.det(x.data)))


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


def abs_det_between(images: np.ndarray, codomain_dim: int) -> float | np.ndarray:
    """|det| of a linear map given by images of an orthonormal basis.

    images holds one image per row, in coordinates where the codomain
    inner product is the Euclidean dot; a stack (..., q, D) of such
    maps gives an array of determinants, a single (q, D) map a float.
    Equal-dimension maps give |prod diag R| from the QR factorization
    of the transposed images, which keeps the digits that
    sqrt(det Gram) loses near rank deficiency; maps between spaces of
    different dimension have determinant 0 by convention.  An empty
    map (0 -> 0) has determinant 1.
    """
    images = np.asarray(images, dtype=float)
    q, dim = images.shape[-2:]
    if q != codomain_dim or dim < q:
        out = np.zeros(images.shape[:-2])
    elif q == 0:
        out = np.ones(images.shape[:-2])
    else:
        r = np.linalg.qr(np.swapaxes(images, -1, -2), mode="r")
        out = np.abs(np.prod(np.diagonal(r, axis1=-2, axis2=-1), axis=-1))
    return float(out) if images.ndim == 2 else out


def _conj_product_table(field: ScalarField) -> np.ndarray:
    """(d * d, d) table: row d * a + b holds the components of conj(e_a) e_b."""
    units = [from_real_vector(field, 1, 1, e) for e in np.eye(field.dim)]
    return np.array([to_real_vector(a.h @ b) for a in units for b in units])


_CONJ_PRODUCTS = {f.value: _conj_product_table(f) for f in ScalarField}
