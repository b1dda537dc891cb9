"""Dense matrices over the reals, complex numbers and quaternions.

A quaternionic matrix Q is stored as a complex pair (C1, C2) with
Q = C1 + C2*j, so products and adjoints reduce to complex arithmetic:

    (C1 + C2 j)(D1 + D2 j) = (C1 D1 - C2 conj(D2)) + (C1 D2 + C2 conj(D1)) j
    (C1 + C2 j)^*          = conj(C1)^t - C2^t j

Every matrix also has a flat real coordinate vector (its realification)
chosen so that the ambient inner product Re(tr(x^* y)) equals the
Euclidean dot product of the coordinate vectors.  All downstream
geometry (frames, Gram matrices, Jacobians) works in those coordinates.

One batched Householder kernel serves every QR: ``qr(field, data)``
reads q and r of a stack off it (R of x = QR is a direct sum's section
coordinate, and ``gram_det`` reads its diagonal), ``householder_q``
only q and det q of square Gaussian stacks, for Haar sampling.

The determinants behind the weights follow one rule: a closed form only
where it keeps about 12 digits (``gram_det`` at k = 1, and at k = 2
above GRAM_REFINE of its Hadamard bound), the diagonal of a
backward-stable QR everywhere else, and one cutoff, SINGULAR_CUTOFF in
``abs_det_between``, for an exact 0 at a singular map.
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
        return MatK(self.field, conj_transpose(self.field, self.data))

    def __matmul__(self, other: "MatK") -> "MatK":
        if self.field is not other.field:
            raise DimensionError("matmul requires matching fields")
        if self.cols != other.rows:
            raise DimensionError(
                f"matmul shape mismatch: {self.shape} @ {other.shape}"
            )
        return MatK(self.field, matmul(self.field, self.data, other.data))

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
    """Matrix whose real coordinates are iid standard normal; a batch of one."""
    return MatK(field, gaussian_batch(field, n, m, rng, 1)[0])


def gaussian_batch(field: ScalarField, n: int, m: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """Raw data (count, n, m[, pair]) of count successive gaussian draws."""
    return data_from_components(field, gaussian_components(field, n, m, rng, count))


def gaussian_components(field: ScalarField, n: int, m: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """Real components (count, n, m, d) of gaussian_batch, from the same random stream."""
    if field is COMPLEX:  # all real parts of a matrix are drawn before its imaginary parts
        return np.moveaxis(rng.standard_normal((count, 2, n, m)), 1, -1)
    return rng.standard_normal((count, n, m, field.dim))


def matmul(field: ScalarField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of raw matrix data, (..., r, c[, pair]) @ (..., c, s[, pair]), leading axes broadcast."""
    if field is not QUATERNION:
        return np.matmul(a, b)
    a1, a2, b1, b2 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    return np.stack([a1 @ b1 - a2 @ b2.conj(), a1 @ b2 + a2 @ b1.conj()], axis=-1)


def conj_transpose(field: ScalarField, a: np.ndarray) -> np.ndarray:
    """Adjoints of raw matrix data with any leading axes."""
    if field is QUATERNION:
        c1, c2 = np.swapaxes(a[..., 0], -1, -2), np.swapaxes(a[..., 1], -1, -2)
        return np.stack([c1.conj(), -c2], axis=-1)
    return np.conj(np.swapaxes(a, -1, -2))  # a new array for real data too


# --- realification ---------------------------------------------------------

def real_dim(field: ScalarField, n: int, m: int) -> int:
    return field.dim * n * m


def to_real_vector(x: MatK) -> np.ndarray:
    """Flat real coordinates; Re(tr(x^* y)) == dot(vec(x), vec(y))."""
    return batch_to_real(x.field, x.data)


def batch_to_real(field: ScalarField, arr: np.ndarray) -> np.ndarray:
    """Realify raw matrix data with any leading axes, (..., n, m[, pair]) -> (..., D)."""
    lead = arr.shape[: arr.ndim - (3 if field is QUATERNION else 2)]
    dim = field.dim * arr.shape[len(lead)] * arr.shape[len(lead) + 1]
    if field is REAL:
        return arr.reshape(lead + (dim,)).astype(float)
    return np.stack([arr.real, arr.imag], axis=-1).reshape(lead + (dim,))  # H: c1.re, c1.im, c2.re, c2.im


def batch_from_real(field: ScalarField, n: int, m: int, pts: np.ndarray) -> np.ndarray:
    """Raw n x m matrix data from flat coordinates (..., D); inverts batch_to_real."""
    return data_from_components(field, pts.reshape(pts.shape[:-1] + (n, m, field.dim)))


def from_real_vector(field: ScalarField, n: int, m: int, v: np.ndarray) -> MatK:
    v = np.array(v, dtype=float)  # a copy: real data is a view of it
    if v.size != real_dim(field, n, m):
        raise DimensionError(f"expected {real_dim(field, n, m)} coordinates, got {v.size}")
    return MatK(field, batch_from_real(field, n, m, v))


def read_only(a: np.ndarray) -> np.ndarray:
    """a, marked read-only: for arrays that a cache hands out."""
    a.flags.writeable = False
    return a


def inner(x: MatK, y: MatK) -> float:
    """Ambient real inner product Re(tr(x^* y))."""
    _check_same(x, y)
    return float(np.vdot(x.data, y.data).real)


# --- QR --------------------------------------------------------------------

RANK_CUTOFF = 1e-12  # diagonal entries of r at or below this times |x| are set to 0
#: gram_det's k = 2 difference keeps about 12 digits above this fraction of its
#: Hadamard bound; qr takes the det at or below it
GRAM_REFINE = 1e-4
#: abs_det_between reads a |det| at or below this times its Hadamard bound as 0
SINGULAR_CUTOFF = 1e-12


def qr(field: ScalarField, data) -> tuple[np.ndarray, np.ndarray]:
    """x = q r for raw matrix data with any leading batch axes, (..., n, k[, pair]).

    q (..., n, k[, pair]) has orthonormal columns and r (..., k, k[, pair])
    is upper triangular with a real diagonal >= 0, unique at full rank.
    A column whose remainder is at or below RANK_CUTOFF * |x| reads
    r_jj = 0, and q holds a completion column there.
    """
    x = np.asarray(data, dtype=float if field is REAL else complex)
    quat = field is QUATERNION
    lead = x.shape[: x.ndim - (3 if quat else 2)]
    if x.shape[len(lead)] < x.shape[len(lead) + 1]:
        raise DimensionError("qr requires rows >= cols")
    x = x.reshape((-1,) + x.shape[len(lead) :])
    count = len(x)  # einsum sums a batch of one in another order: it is factored as a batch of two
    x = np.concatenate([x, x]) if count == 1 else x
    a = _adjoint_layout(x) if quat else x
    w, s, norms = _householder(a, RANK_CUTOFF * np.sqrt(np.sum(np.abs(x) ** 2, axis=tuple(range(1, x.ndim)))))
    q, phase = _q_factor(w, s, norms, a.shape)
    k = a.shape[-1]
    r = np.triu(np.transpose(w[:k, :k], (2, 1, 0)) * phase.T.conj()[:, :, None], 1)
    r[:, np.arange(k), np.arange(k)] = norms.T
    if quat:
        q, r = _from_adjoint_layout(q), _from_adjoint_layout(r)
    return q[:count].reshape(lead + q.shape[1:]), r[:count].reshape(lead + r.shape[1:])


def householder_q(field: ScalarField, data) -> tuple[np.ndarray, np.ndarray]:
    """qr's q of an array of full-rank square matrices (count, m, m[, pair]),
    with no r, and det q (of its complex adjoint matrix over H): each
    reflection has det -1 and turns its pivot's phase s into -s, so det q
    is the product of the pivot phases."""
    quat = field is QUATERNION
    a = _adjoint_layout(data) if quat else data
    w, s, norms = _householder(a, 0.0)  # a Gaussian column is 0 with probability 0
    q = _q_factor(w, s, norms, a.shape)[0]
    return (_from_adjoint_layout(q) if quat else q), np.prod(s, axis=0)


def _householder(a: np.ndarray, cut) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Householder triangularization of a real or complex stack (count, n, k),
    n >= k, one array step per column for all matrices (Stewart, SIAM J.
    Numer. Anal. 17, 1980).  Reflection j takes column j, rows j and
    below, to -s|x| e_j, s its pivot entry's phase; it is skipped where
    |x| <= cut, and at the last pivot of a square stack.  Returns the
    work array w (k + n, n, count), a^t over the identity before the
    reflections, after them w[c, i] = r[i, c] for i < c on top and conj
    of the unphased q below; the pivot phases s (k, count), 1 where
    skipped; and the pivot norms |x| (k, count), 0 where skipped.
    """
    count, n, k = a.shape
    real = not np.iscomplexobj(a)
    w = np.empty((k + n, n, count), dtype=a.dtype)
    w[:k], w[k:] = np.transpose(a, (2, 1, 0)), np.eye(n)[:, :, None]
    s = np.ones((k, count), dtype=a.dtype)
    norms = np.empty((k, count))
    for j in range(k):
        x = w[j, j:]  # column j of a, rows j and below, after j reflections
        x0, norm = x[0], norms[j]
        ax0 = np.abs(x0)
        if real:
            np.copysign(1.0, x0, out=s[j])
        else:
            np.divide(x0, ax0, out=s[j], where=ax0 > 0)
        if j < n - 1:
            np.sqrt(np.einsum("ib,ib->b", x.conj(), x).real, out=norm)
        else:  # one entry left, which no reflection changes
            np.copyto(norm, ax0)
        half = norm * (norm + ax0)  # |v|^2 / 2 of the reflection vector v = x + s|x| e_j
        dead = norm <= cut
        if np.count_nonzero(dead):
            s[j, dead], norm[dead], half[dead] = 1.0, 0.0, np.inf  # v / half = 0: no reflection
        if j == n - 1:
            break
        x0 += s[j] * norm  # x becomes v; column j is not read again
        rest = w[j + 1 :, j:]
        rest -= np.einsum("rkb,kb->rb", rest, x.conj())[:, None, :] * (x / half)
    return w, s, norms


def _q_factor(w: np.ndarray, s: np.ndarray, norms: np.ndarray, shape) -> tuple[np.ndarray, np.ndarray]:
    """q (count, n, k) off _householder's output, and the phases of its
    columns that make diag(r) real and >= 0."""
    n, k = shape[1:]
    phase = -s  # at a reflected pivot
    phase[n - 1 :] = s[n - 1 :]  # the unreflected last pivot of a square stack
    phase[norms == 0] = 1.0  # skipped pivots
    q = np.empty(shape, dtype=s.dtype)
    np.multiply(w[k:, :k].conj(), phase, out=q.transpose(1, 2, 0))
    return q, phase


def _adjoint_layout(x: np.ndarray) -> np.ndarray:
    """Complex adjoint matrices (..., 2n, 2k) of quaternion data (..., n, k, pair), rows
    and columns interleaved as (v_a, v_a j): their QR is quaternionic, completions too."""
    lead, (n, k) = x.shape[:-3], x.shape[-3:-1]
    e = np.empty(lead + (n, 2, k, 2), dtype=complex)
    e[..., 0, :, 0] = x[..., 0]  # row 2i: c1, -c2
    np.negative(x[..., 1], out=e[..., 0, :, 1])
    np.conjugate(x[..., ::-1], out=e[..., 1, :, :])  # row 2i + 1: conj(c2), conj(c1)
    return e.reshape(lead + (2 * n, 2 * k))


def _from_adjoint_layout(e: np.ndarray) -> np.ndarray:
    """Quaternion data (..., n, k, pair) of interleaved adjoint matrices (..., 2n, 2k)."""
    return np.stack([e[..., ::2, ::2], e[..., 1::2, ::2].conj()], axis=-1)


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

    A closed form serves where it keeps its digits: |x|^2 for k = 1, and
    g11 g22 - |g12|^2 for k = 2 above GRAM_REFINE times its Hadamard
    bound g11 g22, from real arithmetic only (g12 = sum_r conj(x_r1) x_r2
    is one batched product of the two columns' components, contracted
    with the field's table of conj(e_a) e_b).  The difference loses
    digits to cancellation as x nears rank deficiency, about eps over
    its ratio to the bound, so below that fraction, and for every k >= 3,
    the det is prod r_ii^2 from ``qr``, which Householder's backward
    stability keeps accurate near rank deficiency and exactly 0 at it.
    """
    m, _, k, d = comps.shape
    if k == 1:
        return np.einsum("mrkd,mrkd->m", comps, comps)
    det, near = np.empty(m), np.ones(m, dtype=bool)
    if k == 2:
        u, v = comps[:, :, 0], comps[:, :, 1]
        bound = np.einsum("mrd,mrd->m", u, u) * np.einsum("mrd,mrd->m", v, v)
        g12 = np.matmul(np.swapaxes(u, 1, 2), v).reshape(m, d * d) @ _CONJ_PRODUCTS[field.value]
        det = bound - np.einsum("mc,mc->m", g12, g12)
        near = det <= GRAM_REFINE * bound
    if np.any(near):
        r, i = qr(field, data_from_components(field, comps[near]))[1], np.arange(k)
        det[near] = np.prod((r[:, i, i, 0] if field is QUATERNION else r[:, i, i]).real, axis=1) ** 2
    return det


def det_modulus(x: MatK) -> float:
    """|det x|; the Dieudonne determinant modulus for quaternions."""
    if not x.is_square():
        raise DimensionError("det_modulus requires a square matrix")
    if x.field is QUATERNION:
        return float(np.sqrt(np.abs(np.linalg.det(complex_embedding(x.field, x.data)))))
    return float(np.abs(np.linalg.det(x.data)))


def abs_det_between(images: np.ndarray, codomain_dim: int) -> float | np.ndarray:
    """|det| of a linear map given by images of an orthonormal basis.

    images holds one image per row, in coordinates where the codomain
    inner product is the Euclidean dot; a stack (..., q, D) of such
    maps gives an array of determinants, a single (q, D) map a float.
    Equal-dimension maps give |prod diag R| from the QR factorization
    of the transposed images, which keeps the digits that
    sqrt(det Gram) loses near rank deficiency.  A |det| at or below
    SINGULAR_CUTOFF times the Hadamard bound of the images, each row's
    norm floored at 1e-6, is rounding noise of a singular map and
    reads exactly 0.  Maps between spaces of different dimension have
    determinant 0 by convention.  An empty map (0 -> 0) has determinant 1.
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
        bound = np.prod(np.maximum(np.linalg.norm(images, axis=-1), 1e-6), axis=-1)
        out = np.where(out <= SINGULAR_CUTOFF * bound, 0.0, out)
    return float(out) if images.ndim == 2 else out


def _conj_product_table(field: ScalarField) -> np.ndarray:
    """(d * d, d) table: row d * a + b holds the components of conj(e_a) e_b."""
    units = [from_real_vector(field, 1, 1, e) for e in np.eye(field.dim)]
    return np.array([to_real_vector(a.h @ b) for a in units for b in units])


_CONJ_PRODUCTS = {f.value: _conj_product_table(f) for f in ScalarField}
