"""Isometric group actions with an explicit minimal section.

Two families are implemented:

* ``DirectSumAction(field, n, k)``: SO(n), SU(n) or Sp(n) acting by
  left multiplication on K^(n x k) (k stacked copies of the standard
  representation).  For 2 <= k <= n-1 the minimal section is the set
  of matrices whose bottom (n-k) x k block vanishes, parameterized by
  the top k x k coordinate B, and the generalized Weyl group O(k),
  U(k) or Sp(k) acts on B from the left.  k = 1 is the polar case with
  the real line through the first basis vector as section.

* ``ConjugationAction(group)``: the group acting on itself by
  conjugation; the section is the standard maximal torus and the Weyl
  group is the classical (finite) one.

Everything downstream is phrased in flat real coordinates, where the
ambient inner product Re(tr(x^* y)) is the Euclidean dot product.

``reduce_to_section`` maps a point to the canonical point of the
section on its orbit, by one QR (direct sums, ``matrices.qr``) or one
eigensolve (conjugation, ``canonical_angles``).  The module needs only
numpy.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .fields import ScalarField
from .matrices import (
    COMPLEX,
    QUATERNION,
    REAL,
    DimensionError,
    MatK,
    complex_embedding,
    eye,
    from_real_vector,
    gaussian,
    mat,
    qr,
    to_real_vector,
    zeros,
)
from .groups import (
    Family,
    GroupElement,
    GroupSpec,
    algebra_basis,
    haar_sample,
    haar_unitary_batch,
    torus_basis,
    torus_point,
)

_ANGLE_TOL = 1e-10  # angles this close to 0 or pi count as 0 or pi in canonical_angles

_FIELD_TO_FAMILY = {REAL: Family.SO, COMPLEX: Family.SU, QUATERNION: Family.SP}


class RegularityClass(enum.Enum):
    REGULAR = "regular"
    EXCEPTIONAL = "exceptional"
    SINGULAR = "singular"


@dataclass(frozen=True)
class DirectSumAction:
    field: ScalarField
    n: int
    k: int

    def __post_init__(self):
        if self.n < 2 or not (1 <= self.k <= self.n - 1):
            raise ValueError("direct-sum action needs n >= 2 and 1 <= k <= n-1")

    @property
    def group(self) -> GroupSpec:
        return GroupSpec(_FIELD_TO_FAMILY[self.field], self.n)

    @property
    def ambient_dim(self) -> int:
        return self.field.dim * self.n * self.k

    @property
    def section_dim(self) -> int:
        # the k = 1 case is polar with a one-dimensional section
        return 1 if self.k == 1 else self.field.dim * self.k * self.k

    @property
    def copolarity(self) -> int:
        if self.k == 1:
            return 0
        d, k = self.field.dim, self.k
        return {1: k * (k - 1) // 2, 2: k * k, 4: k * (2 * k + 1)}[d]

    @property
    def cohomogeneity(self) -> int:
        return self.section_dim - self.copolarity

    @property
    def normal_dim(self) -> int:
        """Real dimension of the normal space of the section."""
        return self.ambient_dim - self.section_dim

    def __str__(self):
        return f"{self.group}^{self.k} on {self.field.value}^({self.n}x{self.k})"


@dataclass(frozen=True)
class ConjugationAction:
    group: GroupSpec

    @property
    def field(self) -> ScalarField:
        return self.group.field

    @property
    def ambient_dim(self) -> int:
        """Dimension of the embedding space K^(n x n), not of the manifold."""
        return self.field.dim * self.group.n ** 2

    @property
    def manifold_dim(self) -> int:
        return self.group.algebra_dim

    @property
    def section_dim(self) -> int:
        return self.group.rank

    @property
    def copolarity(self) -> int:
        return 0

    @property
    def cohomogeneity(self) -> int:
        return self.group.rank

    @property
    def normal_dim(self) -> int:
        return self.group.algebra_dim - self.group.rank

    def __str__(self):
        return f"{self.group} conjugation"


ActionSpec = Union[DirectSumAction, ConjugationAction]


def action_to_json(action: ActionSpec) -> dict:
    if isinstance(action, DirectSumAction):
        return {"kind": "direct_sum", "field": action.field.value, "n": action.n, "k": action.k}
    return {"kind": "conjugation", "family": action.group.family.value, "n": action.group.n}


def action_from_json(obj: dict) -> ActionSpec:
    kind = obj.get("kind")
    if kind == "direct_sum":
        return DirectSumAction(ScalarField.parse(obj["field"]), int(obj["n"]), int(obj["k"]))
    if kind == "conjugation":
        return ConjugationAction(GroupSpec(Family.parse(obj["family"]), int(obj["n"])))
    raise ValueError(f"unknown action kind {kind!r}")


# --- points, sections and the group action ---------------------------------

def act(action: ActionSpec, g: GroupElement, x: MatK) -> MatK:
    """Apply the group action: g x for representations, g x g^* else."""
    m = g.matrix if isinstance(g, GroupElement) else g
    if isinstance(action, DirectSumAction):
        return m @ x
    return m @ x @ m.h


def killing_field(action: ActionSpec, x_alg: MatK, p: MatK) -> MatK:
    """Value at p of the Killing field induced by the algebra element."""
    if isinstance(action, DirectSumAction):
        return x_alg @ p
    return x_alg @ p - p @ x_alg


def embed_section(action: ActionSpec, coord) -> MatK:
    """Ambient section point from its coordinate.

    Direct sums: coord is the top k x k block B (real scalar times the
    first basis vector when k = 1).  Conjugation: coord is the torus
    angle vector.
    """
    if isinstance(action, ConjugationAction):
        return torus_point(action.group, np.asarray(coord, dtype=float))
    n, k = action.n, action.k
    if isinstance(coord, MatK):
        b = coord
    else:
        b = mat(action.field, coord)
    if b.shape != (k, k):
        raise DimensionError(f"section coordinate must be {k} x {k}")
    s = zeros(action.field, n, k)
    s.data[:k] = b.data
    return s


def section_coordinate(action: DirectSumAction, s: MatK) -> MatK:
    """Top k x k block of an ambient section point."""
    if not isinstance(action, DirectSumAction):
        raise TypeError("section_coordinate applies to direct-sum actions")
    return MatK(action.field, s.data[: action.k].copy())


def torus_angles(action: ConjugationAction, s: MatK, strict: bool = True) -> np.ndarray:
    """Angle coordinates of a point of the standard maximal torus."""
    fam, n = action.group.family, action.group.n
    d = s.data
    if fam is Family.SO:
        ang = np.array([np.arctan2(d[2 * a + 1, 2 * a], d[2 * a, 2 * a]) for a in range(n // 2)])
    elif fam is Family.SU:
        ang = np.angle(np.diag(d))
    else:
        diag = d[np.arange(n), np.arange(n), :]
        ang = np.arctan2(diag[:, 0].imag, diag[:, 0].real)
    if strict and (s - torus_point(action.group, ang)).norm() > 1e-8 * max(1.0, s.norm()):
        raise ValueError("point is not on the standard maximal torus")
    return ang


# --- frames -----------------------------------------------------------------

def _coordinate_frame_rows(field: ScalarField, n: int, k: int, positions) -> np.ndarray:
    """Realified orthonormal frame vectors for the given entry positions."""
    d = field.dim
    rows = []
    for (a, b) in positions:
        for unit in range(d):
            v = np.zeros(d * n * k)
            v[(a * k + b) * d + unit] = 1.0
            rows.append(v)
    return np.array(rows)


@dataclass(frozen=True)
class SectionFrame:
    """Orthonormal real frames of T_s(section) and of its normal space."""

    action: ActionSpec
    s: MatK
    tangent: np.ndarray  # (dim section, D)
    normal: np.ndarray   # (normal_dim, D)


def section_frame(action: ActionSpec, s: MatK) -> SectionFrame:
    if isinstance(action, DirectSumAction):
        n, k, d = action.n, action.k, action.field.dim
        if action.k == 1:
            tangent = _coordinate_frame_rows(action.field, n, k, [(0, 0)])[:1]
            all_rows = np.eye(d * n * k)
            normal = all_rows[1:]
        else:
            tangent = _coordinate_frame_rows(action.field, n, k, [(a, b) for a in range(k) for b in range(k)])
            normal = _coordinate_frame_rows(action.field, n, k, [(i, m) for i in range(k, n) for m in range(k)])
        return SectionFrame(action, s, tangent, normal)
    # conjugation: translate the algebra split at the identity to s
    split = algebra_split(action)
    tangent = np.stack([to_real_vector(h @ s) for h in split.h_basis])
    normal = np.stack([to_real_vector(x @ s) for x in split.m_basis])
    return SectionFrame(action, s, tangent, normal)


# --- the reductive algebra split -------------------------------------------

@dataclass(frozen=True)
class AlgebraSplit:
    """Orthonormal bases splitting the algebra along the section.

    ``h_basis`` spans the pointwise stabilizer algebra, ``w_basis`` the
    orthogonal representative of the normalizer modulo stabilizer (the
    Weyl part) and ``m_basis`` the orthogonal complement of the
    normalizer algebra, whose Killing fields are perpendicular to the
    section everywhere along it.
    """

    action: ActionSpec
    h_basis: tuple[MatK, ...]
    w_basis: tuple[MatK, ...]
    m_basis: tuple[MatK, ...]

    @property
    def n_basis(self) -> tuple[MatK, ...]:
        return self.h_basis + self.w_basis

    @functools.cached_property
    def h_rows(self) -> np.ndarray:
        return _stack_rows(self.h_basis, self.action)

    @functools.cached_property
    def w_rows(self) -> np.ndarray:
        return _stack_rows(self.w_basis, self.action)

    @functools.cached_property
    def m_rows(self) -> np.ndarray:
        return _stack_rows(self.m_basis, self.action)

    @functools.cached_property
    def m_operators(self) -> np.ndarray:
        """Stack L (q_m, D, D) with L[b] @ vec(p) = vec(killing_field(m_basis[b], p)).

        The Killing fields are linear in p, so weights at many points
        take one contraction; built on first use, not with the split.
        """
        action, n = self.action, self.action.group.n
        cols = n if isinstance(action, ConjugationAction) else action.k
        units = [from_real_vector(action.field, n, cols, e) for e in np.eye(action.ambient_dim)]
        ops = np.zeros((len(self.m_basis), len(units), len(units)))
        for i, b in enumerate(self.m_basis):
            ops[i] = np.stack([to_real_vector(killing_field(action, b, u)) for u in units], axis=1)
        return ops


def _stack_rows(basis: tuple[MatK, ...], action: ActionSpec) -> np.ndarray:
    if not basis:
        n = action.group.n if isinstance(action, ConjugationAction) else action.n
        return np.zeros((0, action.field.dim * n * n))
    return np.stack([to_real_vector(b) for b in basis])


def _orthonormalize(rows: list[np.ndarray], tol: float = 1e-9) -> list[np.ndarray]:
    kept: list[np.ndarray] = []
    for v in rows:
        w = v.astype(float).copy()
        for _ in range(2):
            for u in kept:
                w -= (u @ w) * u
        nw = np.linalg.norm(w)
        if nw > tol:
            kept.append(w / nw)
    return kept


def _complement_basis(group: GroupSpec, sub_rows: np.ndarray) -> tuple[MatK, ...]:
    """Orthonormal basis of the complement of a subspace inside the algebra.

    sub_rows must be orthonormal, so Gram-Schmidt keeps each of them and
    the complement starts at index len(sub_rows).
    """
    rows = _orthonormalize(list(sub_rows) + [to_real_vector(b) for b in algebra_basis(group)])
    return tuple(from_real_vector(group.field, group.n, group.n, w) for w in rows[len(sub_rows):])


def _embedded_block_algebra(field: ScalarField, n: int, offset: int, size: int) -> tuple[MatK, ...]:
    """Algebra basis of the subgroup acting on rows/cols [offset, offset+size)."""
    if size < 1:
        return ()
    sub = algebra_basis(GroupSpec(_FIELD_TO_FAMILY[field], size))
    out = []
    for b in sub:
        m = zeros(field, n, n)
        m.data[offset : offset + size, offset : offset + size] = b.data
        out.append(m)
    return tuple(out)


def _mixed_trace_generator(n: int, k: int) -> MatK:
    """Traceless imaginary diagonal orthogonal to both su blocks (SU case)."""
    diag = np.zeros(n, dtype=complex)
    diag[:k] = 1j
    diag[k:] = -1j * k / (n - k)
    v = mat(COMPLEX, np.diag(diag))
    return (1.0 / v.norm()) * v


@functools.lru_cache(maxsize=None)
def algebra_split(action: ActionSpec) -> AlgebraSplit:
    if isinstance(action, ConjugationAction):
        h, w = torus_basis(action.group), ()
    else:
        field, n, k = action.field, action.n, action.k
        h = _embedded_block_algebra(field, n, k, n - k)
        if k == 1:
            w = ()
        elif field is COMPLEX:
            w = _embedded_block_algebra(field, n, 0, k) + (_mixed_trace_generator(n, k),)
        else:
            w = _embedded_block_algebra(field, n, 0, k)
    m = _complement_basis(action.group, _stack_rows(h + w, action))
    if isinstance(action, DirectSumAction):
        # order by the (row, column, unit) of the entry below the diagonal,
        # as the normal frame is, so the normal block of the orbit map
        # differential is block diagonal per ambient row
        m = tuple(sorted(m, key=lambda x: np.flatnonzero(to_real_vector(x))[-1]))
    return AlgebraSplit(action, h, w, m)


def bracket(x: MatK, y: MatK) -> MatK:
    return x @ y - y @ x


# --- regularity, isotropy, orbit spaces -------------------------------------

def _rank_of(x: MatK, cutoff_rel: float = 1e-8) -> int:
    r, i = qr(x.field, x.data)[1], np.arange(x.cols)
    diag = np.real(r[i, i, 0] if x.field is QUATERNION else r[i, i])
    return int(np.sum(diag > cutoff_rel * max(x.norm(), 1e-300)))


def isotropy_algebra(action: ActionSpec, p: MatK, tol: float = 1e-8) -> tuple[MatK, ...]:
    """Orthonormal basis of the algebra of the stabilizer of p."""
    group = action.group
    basis = algebra_basis(group)
    cols = np.stack([to_real_vector(killing_field(action, b, p)) for b in basis], axis=1)
    u, sv, vh = np.linalg.svd(cols)
    scale = sv[0] if sv.size and sv[0] > 0 else 1.0
    null = [vh[i] for i in range(len(basis)) if i >= len(sv) or sv[i] <= tol * scale]
    out = []
    for c in null:
        x = zeros(group.field, group.n, group.n)
        for ci, b in zip(c, basis):
            x = x + float(ci) * b
        out.append(x)
    return tuple(out)


def classify_point(action: ActionSpec, p: MatK) -> RegularityClass:
    """Regular / singular classification.

    Direct sums: regular exactly when the point has full rank k (the
    stabilizers along regular section points are connected, so no
    exceptional class occurs).  Conjugation: regular exactly when the
    centralizer has minimal dimension, i.e. the rank of the group.
    """
    if isinstance(action, DirectSumAction):
        return RegularityClass.REGULAR if _rank_of(p) == action.k else RegularityClass.SINGULAR
    iso_dim = len(isotropy_algebra(action, p))
    return RegularityClass.REGULAR if iso_dim == action.group.rank else RegularityClass.SINGULAR


def orbit_tangent(action: ActionSpec, p: MatK) -> np.ndarray:
    """Orthonormal (realified) basis of the tangent space of the orbit."""
    basis = algebra_basis(action.group)
    rows = [to_real_vector(killing_field(action, b, p)) for b in basis]
    return np.array(_orthonormalize(rows, tol=1e-8 * max(p.norm(), 1.0)))


def orbit_normal(action: ActionSpec, p: MatK) -> np.ndarray:
    """Orthonormal basis of the normal space of the orbit inside T_p M."""
    tang = orbit_tangent(action, p)
    if isinstance(action, DirectSumAction):
        ambient = np.eye(action.ambient_dim)
    else:
        split = algebra_split(action)
        ambient = np.stack(
            [to_real_vector(b @ p) for b in split.h_basis + split.w_basis + split.m_basis]
        )
    rows = []
    for v in ambient:
        w = v.copy()
        if tang.size:
            w = w - tang.T @ (tang @ w)
        rows.append(w)
    return np.array(_orthonormalize(rows, tol=1e-8))


# --- reduction to the section ----------------------------------------------

def reduce_to_section(action: ActionSpec, x: MatK) -> MatK:
    """Canonical section point of the orbit through x.

    Direct sums: the section point with coordinate R of x = QR, upper
    triangular with nonnegative real diagonal.  Conjugation: the torus
    point of x's canonical_angles.  Both are one representative per
    Weyl orbit, so x and g . x give the same point.
    """
    if isinstance(action, DirectSumAction):
        return embed_section(action, qr(x.field, x.data)[1])
    return torus_point(action.group, canonical_angles(action.group, x.data[None])[0])


def canonical_angles(group: GroupSpec, data: np.ndarray) -> np.ndarray:
    """Canonical torus angles of a stack of group elements (m, n, n[, pair]).

    The angles are the eigenphases of the complex embedding, from one
    batched eigensolve.  SU(n): all n angles, sorted, in [0, 2 pi).  SO
    and Sp: eigenvalues come in pairs exp(+-i theta), and the rank
    angles are the sorted |theta|, one per pair (SO(2m+1) drops its
    extra eigenvalue 1).  The Weyl group of SO(2m) changes an even
    number of signs only, so there the smallest angle takes the
    orientation of the real planes (Im v, Re v) of the exp(+i theta)
    eigenvectors v; it stays positive when an angle is 0 or pi, where a
    sign change costs nothing.
    """
    fam, n = group.family, group.n
    if fam is Family.SU:
        return np.sort(np.mod(np.angle(np.linalg.eigvals(data)), 2 * np.pi), axis=1)
    even_so = fam is Family.SO and n % 2 == 0
    if even_so:
        vals, vecs = np.linalg.eig(data)
    else:
        vals = np.linalg.eigvals(complex_embedding(group.field, data) if fam is Family.SP else data)
    theta = np.angle(vals)
    skip = 1 if fam is Family.SO and n % 2 == 1 else 0  # the extra eigenvalue 1 sorts first
    ang = np.sort(np.abs(theta), axis=1)[:, skip::2]
    if even_so:
        # a real matrix has exactly conjugate eigenpairs: the top half of
        # the sorted angles are the exp(+i theta) ones
        v = np.take_along_axis(vecs, np.argsort(theta, axis=1)[:, None, n // 2 :], axis=2)
        planes = np.stack([v.imag, v.real], axis=-1).reshape(data.shape)
        free = (ang[:, 0] < _ANGLE_TOL) | (ang[:, -1] > np.pi - _ANGLE_TOL)
        ang[(np.linalg.det(planes) < 0) & ~free, 0] *= -1.0
    return ang


# --- sampling ----------------------------------------------------------------

def random_ambient_point(action: ActionSpec, rng: np.random.Generator, scale: float = 1.0) -> MatK:
    """Gaussian point of K^(n x k), or a Haar point of the group."""
    if isinstance(action, DirectSumAction):
        return scale * gaussian(action.field, action.n, action.k, rng)
    return haar_sample(action.group, rng).matrix


def random_section_point(action: ActionSpec, rng: np.random.Generator, scale: float = 1.0) -> MatK:
    if isinstance(action, DirectSumAction):
        if action.k == 1:
            b = zeros(action.field, 1, 1)
            t = scale * rng.standard_normal()
            if action.field is QUATERNION:
                b.data[0, 0, 0] = t
            else:
                b.data[0, 0] = t
            return embed_section(action, b)
        return embed_section(action, gaussian(action.field, action.k, action.k, rng) * scale)
    return embed_section(action, rng.uniform(0.0, 2 * np.pi, size=action.group.rank))


def random_regular_section_point(
    action: ActionSpec, rng: np.random.Generator, scale: float = 1.0, min_gap: float = 5e-2
) -> MatK:
    """Random section point safely inside the regular set."""
    for _ in range(1000):
        s = random_section_point(action, rng, scale)
        if isinstance(action, DirectSumAction):
            b = section_coordinate(action, s)
            sv = np.linalg.svd(complex_embedding(b.field, b.data), compute_uv=False)
            if sv[-1] > min_gap:
                return s
        else:
            if _torus_angles_regular(action, torus_angles(action, s), min_gap):
                return s
    raise RuntimeError("failed to sample a regular section point")


def _torus_angles_regular(action: ConjugationAction, ang: np.ndarray, gap: float) -> bool:
    fam, n = action.group.family, action.group.n
    if fam is Family.SU:
        full = np.mod(ang if ang.size == n else np.append(ang, -np.sum(ang)), 2 * np.pi)
        diffs = np.abs(full[:, None] - full[None, :])
        diffs = np.minimum(diffs, 2 * np.pi - diffs)
        return bool(np.all(diffs[np.triu_indices(n, 1)] > gap))
    # SO / Sp: root hyperplanes at equal or opposite angles and at 0, pi
    a = np.mod(ang, 2 * np.pi)
    a = np.minimum(a, 2 * np.pi - a)
    if np.any(a < gap) or np.any(np.abs(a - np.pi) < gap):
        return False
    diffs = np.abs(a[:, None] - a[None, :])
    off = diffs[np.triu_indices(len(a), 1)]
    return bool(np.all(off > gap)) if off.size else True


def normalizer_sample(action: ActionSpec, rng: np.random.Generator) -> GroupElement:
    """Haar-like sample of the normalizer of the section."""
    if isinstance(action, DirectSumAction):
        return _normalizer_direct_sum(action, rng)
    return _normalizer_conjugation(action, rng)


def _haar_unitary_block(field: ScalarField, size: int, rng: np.random.Generator) -> MatK:
    """Haar sample of O(size), U(size) or Sp(size)."""
    return MatK(field, haar_unitary_batch(field, size, rng, 1)[0])


def _normalizer_direct_sum(action: DirectSumAction, rng: np.random.Generator) -> GroupElement:
    field, n, k = action.field, action.n, action.k
    if k == 1 and field is not REAL:
        # the polar section is the real line, so the top block is +-1
        u = eye(field, 1)
        if rng.random() < 0.5:
            u.data[0, 0] = -u.data[0, 0]
    else:
        u = _haar_unitary_block(field, k, rng)
    v = _haar_unitary_block(field, n - k, rng)
    if field is REAL:
        if rng.random() < 0.5:
            u.data[:, -1] *= -1.0
        if np.linalg.det(u.data) * np.linalg.det(v.data) < 0:
            v.data[:, -1] *= -1.0
    elif field is COMPLEX:
        d = np.linalg.det(u.data) * np.linalg.det(v.data)
        v.data[:, -1] *= np.conj(d)
    m = zeros(field, n, n)
    m.data[:k, :k] = u.data
    m.data[k:, k:] = v.data
    return GroupElement(action.group, m)


def _normalizer_conjugation(action: ConjugationAction, rng: np.random.Generator) -> GroupElement:
    group = action.group
    fam, n = group.family, group.n
    t = torus_point(group, rng.uniform(0, 2 * np.pi, size=group.rank))
    if fam is Family.SU:
        perm = rng.permutation(n)
        p = np.zeros((n, n), dtype=complex)
        p[perm, np.arange(n)] = 1.0
        p[:, 0] *= np.linalg.det(p).conj()
        w = MatK(COMPLEX, p)
    elif fam is Family.SO:
        m = n // 2
        perm = rng.permutation(m)
        flips = rng.random(m) < 0.5
        if flips.sum() % 2 == 1:
            if n % 2 == 1:
                pass  # compensated by the spare coordinate below
            else:
                flips[np.argmax(flips)] = False
        p = np.zeros((n, n))
        for a in range(m):
            b = perm[a]
            blk = np.diag([1.0, -1.0]) if flips[a] else np.eye(2)
            p[2 * b : 2 * b + 2, 2 * a : 2 * a + 2] = blk
        if n % 2 == 1:
            p[n - 1, n - 1] = 1.0
        if np.linalg.det(p) < 0:
            # only reachable for odd n, where the spare coordinate absorbs it
            p[:, -1] *= -1.0
        w = MatK(REAL, p)
    else:
        perm = rng.permutation(n)
        flips = rng.random(n) < 0.5
        comp = np.zeros((n, n, 4))
        for a in range(n):
            comp[perm[a], a] = np.array([0.0, 0.0, 1.0, 0.0]) if flips[a] else np.array([1.0, 0.0, 0.0, 0.0])
        w = mat(QUATERNION, comp)
    return GroupElement(group, t @ w)
