"""Dense matrices over the reals, complex numbers and quaternions.

A quaternionic n x k matrix Q = C1 + C2 j is stored as its complex
adjoint matrix, (2n, 2k) complex with rows and columns interleaved:
row 2i holds C1 at column 2j and -C2 at column 2j + 1, row 2i + 1
conj(C2) and conj(C1).  Q -> adjoint matrix is a faithful
*-homomorphism (F. Zhang, Linear Algebra Appl. 251, 1997), so products,
adjoints, eigenvalues, determinants and QR over H are the complex ones
of the stored arrays, and every field multiplies with ``@``.  Each
quaternion entry is stored twice, so shapes, norms and raw slices by
matrix index count rows and columns in pairs over H.

Every matrix also has a flat real coordinate vector (its realification)
chosen so that the ambient inner product Re(tr(x^* y)) equals the
Euclidean dot product of the coordinate vectors.  All downstream
geometry (frames, Gram matrices, Jacobians) works in those coordinates.
A Gaussian matrix is its flat standard normals on every field:
``gaussian_batch`` draws a matrix's real coordinates in that order, a
whole Monte Carlo batch in one call on the batch's generator, so a
run's (seed, n) and ``mc.BATCH_DRAWS`` fix every matrix it draws.

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

from .fields import ScalarField

REAL = ScalarField.REAL
COMPLEX = ScalarField.COMPLEX
QUATERNION = ScalarField.QUATERNION


class DimensionError(ValueError):
    """Shape or field mismatch between matrix operands."""


def side(field: ScalarField) -> int:
    """Stored rows (and columns) per matrix row (column): 2 over H, else 1."""
    return 2 if field is QUATERNION else 1


@dataclass(frozen=True)
class MatK:
    """Dense matrix over one of the three scalar fields.

    data layout: (rows, cols) float64 for R, (rows, cols) complex128
    for C, (2 rows, 2 cols) complex128 for H (the adjoint matrix).
    """

    field: ScalarField
    data: np.ndarray

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        s = side(self.field)
        return self.data.shape[0] // s, self.data.shape[1] // s

    @property
    def h(self) -> "MatK":
        """Adjoint (conjugate transpose); an involution."""
        return MatK(self.field, conj_transpose(self.data))

    def __matmul__(self, other: "MatK") -> "MatK":
        if self.field is not other.field:
            raise DimensionError("matmul requires matching fields")
        if self.cols != other.rows:
            raise DimensionError(
                f"matmul shape mismatch: {self.shape} @ {other.shape}"
            )
        return MatK(self.field, self.data @ other.data)

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
        return float(np.linalg.norm(to_real_vector(self)))

    def is_square(self) -> bool:
        return self.rows == self.cols


def _check_same(x: MatK, y: MatK) -> None:
    if x.field is not y.field or x.shape != y.shape:
        raise DimensionError(f"operands differ: {x.field}/{x.shape} vs {y.field}/{y.shape}")


def mat(field: ScalarField, data) -> MatK:
    """Wrap array data as a MatK: (n, m) real numbers for R, (n, m)
    complex numbers for C, and (n, m, 4) real components (w, x, y, z)
    for H."""
    if field is QUATERNION:
        a = np.asarray(data, dtype=float)
        if a.ndim != 3 or a.shape[-1] != 4:
            raise DimensionError("quaternion matrix data must be (n, m, 4)")
        return MatK(QUATERNION, data_from_components(QUATERNION, a))
    a = np.asarray(data, dtype=float if field is REAL else complex)
    if a.ndim != 2:
        raise DimensionError(f"{'real' if field is REAL else 'complex'} matrix data must be 2-d")
    return MatK(field, a)


def zeros(field: ScalarField, n: int, m: int) -> MatK:
    s = side(field)
    return MatK(field, np.zeros((s * n, s * m), dtype=float if field is REAL else complex))


def eye(field: ScalarField, n: int) -> MatK:
    return MatK(field, np.eye(side(field) * n, dtype=float if field is REAL else complex))


def gaussian(field: ScalarField, n: int, m: int, rng: np.random.Generator) -> MatK:
    """Matrix whose real coordinates are iid standard normal; a batch of one."""
    return MatK(field, gaussian_batch(field, n, m, rng, 1)[0])


def gaussian_batch(field: ScalarField, n: int, m: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """Raw data (count, n, m) ((..., 2n, 2m) over H) of count gaussian draws from rng:
    each draw's real coordinates are its flat standard normals, in the realification
    order, on every field, so a Monte Carlo batch's draws are one call on its generator.
    Over C the data is a complex view of the normals, no copy, so a Haar batch holds
    one buffer."""
    comps = rng.standard_normal((count, n, m, field.dim))
    return comps.view(complex)[..., 0] if field is COMPLEX else data_from_components(field, comps)


def conj_transpose(a: np.ndarray) -> np.ndarray:
    """Adjoints of raw matrix data with any leading axes, over any field."""
    return np.conj(np.swapaxes(a, -1, -2))  # a new array for real data too


# --- realification ---------------------------------------------------------

def real_dim(field: ScalarField, n: int, m: int) -> int:
    return field.dim * n * m


def to_real_vector(x: MatK) -> np.ndarray:
    """Flat real coordinates; Re(tr(x^* y)) == dot(vec(x), vec(y))."""
    return batch_to_real(x.field, x.data)


def batch_to_real(field: ScalarField, arr: np.ndarray) -> np.ndarray:
    """Realify raw matrix data with any leading axes, (..., n, m) -> (..., D);
    over H, components c1.re, c1.im, c2.re, c2.im, read off each even column
    of the adjoint matrices (c1 on row 2i, conj(c2) on row 2i + 1)."""
    lead, s = arr.shape[:-2], side(field)
    n, m = arr.shape[-2] // s, arr.shape[-1] // s
    if field is REAL:
        return arr.reshape(lead + (n * m,)).astype(float)
    if field is QUATERNION:
        arr = np.swapaxes(arr[..., ::2].reshape(lead + (n, 2, m)), -1, -2)
    parts = np.stack([arr.real, arr.imag], axis=-1)
    if field is QUATERNION:
        np.negative(parts[..., 1, 1], out=parts[..., 1, 1])  # conj(c2).im -> c2.im
    return parts.reshape(lead + (field.dim * n * m,))


def data_from_components(field: ScalarField, comps: np.ndarray) -> np.ndarray:
    """Real components (..., r, c, d) -> raw matrix data, (..., r, c), or
    (..., 2r, 2c) adjoint matrices over H."""
    if field is REAL:
        return comps[..., 0]
    c = comps[..., ::2] + 1j * comps[..., 1::2]  # c1 (and c2 over H)
    if field is COMPLEX:
        return c[..., 0]
    lead, (r, k) = c.shape[:-3], c.shape[-3:-1]
    e = np.empty(lead + (r, 2, k, 2), dtype=complex)
    e[..., 0, :, 0] = c[..., 0]  # row 2i: c1, -c2
    np.negative(c[..., 1], out=e[..., 0, :, 1])
    np.conjugate(c[..., ::-1], out=e[..., 1, :, :])  # row 2i + 1: conj(c2), conj(c1)
    return e.reshape(lead + (2 * r, 2 * k))


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
    return float(to_real_vector(x) @ to_real_vector(y))


# --- QR --------------------------------------------------------------------

RANK_CUTOFF = 1e-12  # diagonal entries of r at or below this times |x| are set to 0
#: gram_det's k = 2 difference keeps about 12 digits above this fraction of its
#: Hadamard bound; qr takes the det at or below it
GRAM_REFINE = 1e-4
#: abs_det_between reads a |det| at or below this times its Hadamard bound as 0
SINGULAR_CUTOFF = 1e-12


def qr(field: ScalarField, data) -> tuple[np.ndarray, np.ndarray]:
    """x = q r for raw matrix data with any leading batch axes, n x k matrices.

    q (n x k) has orthonormal columns and r (k x k) is upper triangular
    with a real diagonal >= 0, unique at full rank.  A column whose
    remainder is at or below RANK_CUTOFF * |x| reads r_jj = 0, and q
    holds a completion column there.  Over H this is the complex QR of
    the adjoint matrices: the interleaved layout makes it quaternionic,
    completions too.
    """
    x = np.asarray(data, dtype=float if field is REAL else complex)
    lead = x.shape[:-2]
    if x.shape[-2] < x.shape[-1]:
        raise DimensionError("qr requires rows >= cols")
    x = x.reshape((-1,) + x.shape[-2:])
    count = len(x)  # einsum sums a batch of one in another order: it is factored as a batch of two
    x = np.concatenate([x, x]) if count == 1 else x
    norm = np.sqrt(np.sum(np.abs(x) ** 2, axis=(1, 2)) / side(field))  # each H entry is stored twice
    w, s, norms = _householder(x, RANK_CUTOFF * norm)
    q, phase = _q_factor(w, s, norms, x.shape)
    k = x.shape[-1]
    r = np.triu(np.transpose(w[:k, :k], (2, 1, 0)) * phase.T.conj()[:, :, None], 1)
    r[:, np.arange(k), np.arange(k)] = norms.T
    return q[:count].reshape(lead + q.shape[1:]), r[:count].reshape(lead + r.shape[1:])


def householder_q(data) -> tuple[np.ndarray, np.ndarray]:
    """qr's q of an array of full-rank square matrices (count, m, m), with
    no r, and det q (of the adjoint matrix over H): each reflection has
    det -1 and turns its pivot's phase s into -s, so det q is the product
    of the pivot phases.  A batch of one is factored as a batch of two,
    as in qr, so each q is the same in any batch."""
    count = len(data)
    data = np.concatenate([data, data]) if count == 1 else data
    w, s, norms = _householder(data, 0.0)  # a Gaussian column is 0 with probability 0
    return _q_factor(w, s, norms, data.shape)[0][:count], np.prod(s, axis=0)[:count]


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


# --- determinants ----------------------------------------------------------

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
    if m == 1:  # a stack of one takes matrix-vector products: it is factored as a stack of two, as in qr
        return gram_det(field, np.concatenate([comps, comps]))[:1]
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
        r = qr(field, data_from_components(field, comps[near]))[1]
        det[near] = np.prod(np.diagonal(r, axis1=1, axis2=2)[:, :: side(field)].real, axis=1) ** 2
    return det


def det_modulus(x: MatK) -> float:
    """|det x|; the Dieudonne determinant modulus for quaternions."""
    if not x.is_square():
        raise DimensionError("det_modulus requires a square matrix")
    det = float(np.abs(np.linalg.det(x.data)))
    return float(np.sqrt(det)) if x.field is QUATERNION else det


def abs_det_between(images: np.ndarray, codomain_dim: int, scale=1.0) -> float | np.ndarray:
    """|det| of a linear map given by images of an orthonormal basis.

    images holds one image per row, in coordinates where the codomain
    inner product is the Euclidean dot; a stack (..., q, D) of such
    maps gives an array of determinants, a single (q, D) map a float.
    Equal-dimension maps give |prod diag R| from the QR factorization
    of the transposed images, which keeps the digits that
    sqrt(det Gram) loses near rank deficiency.  A |det| at or below
    SINGULAR_CUTOFF times the Hadamard bound of the images, each row's
    norm floored at 1e-6 times scale, is rounding noise of a singular map
    and reads exactly 0.  The callers pass as scale the norm of the point
    (one per map) that the images are taken at: a Killing field is linear
    in the point, so the rule reads the same at t times a point for every
    t > 0.  Maps between spaces of different dimension have determinant 0
    by convention.  An empty map (0 -> 0) has determinant 1.
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
        floor = 1e-6 * np.asarray(scale, dtype=float)[..., None]
        bound = np.prod(np.maximum(np.linalg.norm(images, axis=-1), floor), axis=-1)
        out = np.where(out <= SINGULAR_CUTOFF * bound, 0.0, out)
    return float(out) if images.ndim == 2 else out


def _conj_product_table(field: ScalarField) -> np.ndarray:
    """(d * d, d) table: row d * a + b holds the components of conj(e_a) e_b."""
    units = [from_real_vector(field, 1, 1, e) for e in np.eye(field.dim)]
    return np.array([to_real_vector(a.h @ b) for a in units for b in units])


_CONJ_PRODUCTS = {f.value: _conj_product_table(f) for f in ScalarField}
