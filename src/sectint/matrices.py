"""Dense matrices over the reals, complex numbers and quaternions.

A quaternionic matrix Q is stored as a complex pair (C1, C2) with
Q = C1 + C2*j, so products and adjoints reduce to complex arithmetic:

    (C1 + C2 j)(D1 + D2 j) = (C1 D1 - C2 conj(D2)) + (C1 D2 + C2 conj(D1)) j
    (C1 + C2 j)^*          = conj(C1)^t - C2^t j

Every matrix also has a flat real coordinate vector (its realification)
chosen so that the ambient inner product Re(tr(x^* y)) equals the
Euclidean dot product of the coordinate vectors.  All downstream
geometry (frames, Gram matrices, Jacobians) works in those coordinates.

``qr(field, data)`` is the one QR for all three fields: one batched
LAPACK factorization of a stack of raw matrices, with diag(r) real and
nonnegative.  It serves Haar sampling, the reduction of direct sums to
the section (R of x = QR is the section coordinate) and the rank test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, quat_to_pair

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


# --- realification ---------------------------------------------------------

def real_dim(field: ScalarField, n: int, m: int) -> int:
    return field.dim * n * m


def to_real_vector(x: MatK) -> np.ndarray:
    """Flat real coordinates; Re(tr(x^* y)) == dot(vec(x), vec(y))."""
    return batch_to_real(x.field, x.data[None])[0]


def batch_to_real(field: ScalarField, arr: np.ndarray) -> np.ndarray:
    """Realify a stack of raw matrix data, (count, n, m[, pair]) -> (count, D)."""
    count = arr.shape[0]
    if field is REAL:
        return arr.reshape(count, -1).astype(float)
    return np.stack([arr.real, arr.imag], axis=-1).reshape(count, -1)  # H: c1.re, c1.im, c2.re, c2.im


def from_real_vector(field: ScalarField, n: int, m: int, v: np.ndarray) -> MatK:
    v = np.array(v, dtype=float)  # a copy: real data is a view of it
    if v.size != real_dim(field, n, m):
        raise DimensionError(f"expected {real_dim(field, n, m)} coordinates, got {v.size}")
    return MatK(field, data_from_components(field, v.reshape(n, m, field.dim)))


def inner(x: MatK, y: MatK) -> float:
    """Ambient real inner product Re(tr(x^* y))."""
    _check_same(x, y)
    return float(np.vdot(x.data, y.data).real)


# --- QR --------------------------------------------------------------------

RANK_CUTOFF = 1e-12  # diagonal entries of r at or below this times |x| are set to 0


def _pairs(m: int) -> np.ndarray:
    """Index order 0, m, 1, m + 1, ...: interleaves the halves of an adjoint matrix."""
    return np.arange(2 * m).reshape(2, m).T.ravel()


def _phase_fixed_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched LAPACK QR; each column of q and row of r takes the phase of
    r's diagonal entry (1 at a zero pivot), so diag(r) is real and >= 0."""
    q, r = np.linalg.qr(a)
    d = np.einsum("...ii->...i", r)
    ad = np.abs(d)
    phase = np.divide(d, ad, out=np.ones_like(d), where=ad > 0)
    return q * phase[..., None, :], r * phase.conj()[..., :, None]


def qr(field: ScalarField, data) -> tuple[np.ndarray, np.ndarray]:
    """x = q r for raw matrix data with any leading batch axes, (..., n, k[, pair]).

    Returns raw (q, r): the columns of q (..., n, k[, pair]) are
    orthonormal for the field's Hermitian form, and r (..., k, k[, pair])
    is upper triangular with a real diagonal >= 0, which makes the
    factors unique at full rank.  R and C take one batched LAPACK QR.  H
    factors the complex adjoint matrices with columns interleaved as
    (v_a, v_a j): their phase-fixed QR is quaternionic Gram-Schmidt, and
    the even columns of its q embed the columns of q.  Diagonal entries
    of r at or below RANK_CUTOFF * |x| are set to 0; q then holds a
    completion column, so q stays orthonormal and x = q r still holds.
    """
    x = np.asarray(data)
    quat = field is QUATERNION
    n, k = x.shape[-3:-1] if quat else x.shape[-2:]
    if n < k:
        raise DimensionError("qr requires rows >= cols")
    cut = RANK_CUTOFF * np.sqrt(np.sum(np.abs(x) ** 2, axis=(-3, -2, -1) if quat else (-2, -1)))
    q, r = _quaternion_qr(x, cut) if quat else _phase_fixed_qr(x)
    diag, i = (r[..., 0] if quat else r), np.arange(k)
    d = np.abs(diag[..., i, i])
    diag[..., i, i] = np.where(d <= cut[..., None], 0.0, d)
    return q, r


def _quaternion_qr(x: np.ndarray, cut: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """qr over H, from the phase-fixed QR of the interleaved adjoint matrices e.

    At a dependent column LAPACK builds the next column of q from
    rounding noise, and the pairs (v_a, v_a j) after it lose their
    structure.  A rank-deficient matrix is therefore factored again,
    with one more dependent column zeroed each pass and the rows
    interleaved as the columns are: a zero pivot then takes a unit
    vector and its j-partner.  Its r is q^* e, exactly upper triangular.
    """
    n, k = x.shape[-3:-1]
    e = complex_embedding(QUATERNION, x)[..., _pairs(k)]
    q, r = _phase_fixed_qr(e)
    pivots = lambda r: np.abs(np.einsum("...ii->...i", r)[..., ::2])
    bad = np.any(pivots(r) <= cut[..., None], axis=-1)
    if np.any(bad):
        rows, eb, cb = _pairs(n), e[bad], cut[bad][:, None]
        dead = np.zeros(cb.shape[:1] + (k,), dtype=bool)
        while True:
            qb, rb = _phase_fixed_qr(np.where(np.repeat(dead, 2, axis=-1)[:, None, :], 0.0, eb)[:, rows])
            new = (pivots(rb) <= cb) & ~dead
            if not np.any(new):
                break
            dead |= new & (np.cumsum(new, axis=-1) == 1)
        q[bad] = qb[:, np.argsort(rows)]
        r[bad] = np.triu(np.swapaxes(q[bad].conj(), -1, -2) @ eb)
    q = np.stack([q[..., :n, ::2], q[..., n:, ::2].conj()], axis=-1)
    return q, np.stack([r[..., ::2, ::2], r[..., 1::2, ::2].conj()], axis=-1)


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
