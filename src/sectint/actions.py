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
Batched functions take stacks of points, flat (m, D) or raw matrix data
(m, rows, cols), each adjoint matrix twice the size over H
(``matrices``), and are drawn in batches; each one-point
function is a batch of one.

Every algebra basis is a read-only array of flat real rows, and
``AlgebraSplit`` holds the split h + w + m as three such blocks, each a
selection of the generators of the one basis rule
(``groups.pair_generators``); ``MatK`` matrices appear only at the
one-point edge (user points and group elements).  The Killing fields
are linear in the point: ``AlgebraSplit.operators`` stacks them, one
(D, D) matrix per basis row.
The fields at a stack of points are one contraction
(``killing_images``), which an ``OrbitMapDifferential`` holds in the
section frames, with the frames and their one batched SVD.  Every
pointwise quantity is read from it: the orbit map's differential and
determinants, the isotropy algebra, the orbit frames and the
regularity class (regular, exceptional where a Weyl element fixes a
regular point, or singular).  Random regular
section points are the draws whose smallest singular value of the w + m
fields exceeds ``MIN_GAP``.  ``reduce_to_section_batch`` takes one QR
(direct sums, ``matrices.qr``) or one eigensolve (conjugation,
``canonical_angles``).  The module needs only numpy.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .fields import ScalarField
from .matrices import (
    COMPLEX,
    QUATERNION,
    REAL,
    DimensionError,
    MatK,
    abs_det_between,
    batch_from_real,
    batch_to_real,
    conj_transpose,
    data_from_components,
    eye,
    from_real_vector,
    gaussian_batch,
    mat,
    qr,
    read_only,
    side,
    to_real_vector,
    zeros,
)
from .groups import (
    Family,
    GroupElement,
    GroupSpec,
    algebra_basis,
    block_algebra_basis,
    full_torus_angles,
    haar_sample_batch,
    haar_unitary_batch,
    pair_generators,
    torus_angles,
    torus_basis,
    torus_indices,
    torus_point,
    torus_points,
)

_ANGLE_TOL = 1e-10  # angles this close to 0 or pi count as 0 or pi in canonical_angles
MIN_GAP = 5e-2  # smallest regular_margin of a random regular section point

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
    def shape(self) -> tuple[int, int]:
        """Rows and columns of an ambient point."""
        return self.n, self.k

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

    def __post_init__(self):
        if self.group.rank == 0:
            raise ValueError(f"{self.group} has rank 0: no torus to reduce to")

    @property
    def field(self) -> ScalarField:
        return self.group.field

    @property
    def shape(self) -> tuple[int, int]:
        """Rows and columns of an ambient point."""
        return self.group.n, self.group.n

    @property
    def ambient_dim(self) -> int:
        """Dimension of the embedding space K^(n x n), not of the manifold."""
        return self.field.dim * self.group.n ** 2

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
        return DirectSumAction(ScalarField.parse(obj["field"]), _size(obj, "n"), _size(obj, "k"))
    if kind == "conjugation":
        return ConjugationAction(GroupSpec(Family.parse(obj["family"]), _size(obj, "n")))
    raise ValueError(f"unknown action kind {kind!r}")


def _size(obj: dict, key: str) -> int:
    """obj[key], which must be a JSON integer: not a bool, float or string."""
    value = obj[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


# --- points, sections and the group action ---------------------------------

def act(action: ActionSpec, g: GroupElement, x: MatK) -> MatK:
    """Apply the group action: g x for representations, g x g^* else."""
    m = g.matrix if isinstance(g, GroupElement) else g
    return MatK(x.field, act_data(action, m.data, x.data))


def act_data(action: ActionSpec, g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """act on raw data of group elements g and points x, leading axes broadcast."""
    gx = g @ x
    if isinstance(action, DirectSumAction):
        return gx
    return gx @ conj_transpose(g)


def killing_field(action: ActionSpec, x_alg: MatK, p: MatK) -> MatK:
    """Value at p of the Killing field induced by the algebra element."""
    return MatK(p.field, _killing_data(action, x_alg.data, p.data))


def _killing_data(action: ActionSpec, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    xp = x @ p
    return xp if isinstance(action, DirectSumAction) else xp - p @ x


def embed_section(action: ActionSpec, coord) -> MatK:
    """Ambient section point from its coordinate.

    Direct sums: coord is the top k x k block B (a real scalar when
    k = 1, whose section is the real line; a non-real one raises
    ValueError).  Conjugation: coord is the torus angle vector.
    """
    if isinstance(action, ConjugationAction):
        return torus_point(action.group, np.asarray(coord, dtype=float))
    n, k = action.n, action.k
    b = coord if isinstance(coord, MatK) else mat(action.field, coord)
    if b.shape != (k, k):
        raise DimensionError(f"section coordinate must be {k} x {k}")
    if k == 1 and np.any(to_real_vector(b)[1:]):
        raise ValueError("point is off the section: the polar section is the real line")
    s = zeros(action.field, n, k)
    s.data[: side(action.field) * k] = b.data
    return s


def section_coordinate(action: DirectSumAction, s: MatK) -> MatK:
    """Top k x k block of an ambient section point."""
    if not isinstance(action, DirectSumAction):
        raise TypeError("section_coordinate applies to direct-sum actions")
    return MatK(action.field, s.data[: side(action.field) * action.k].copy())


# --- frames -----------------------------------------------------------------

class SectionFrame(NamedTuple):
    """Orthonormal real frames of T_s(section) and of its normal space."""

    tangent: np.ndarray  # (dim section, D)
    normal: np.ndarray   # (normal_dim, D)


def section_frame(action: ActionSpec, s: MatK) -> SectionFrame:
    """section_frames at one point."""
    tangent, normal = section_frames(action, to_real_vector(s)[None])
    return SectionFrame(tangent[0], normal[0])


def section_frames(action: ActionSpec, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frames of T_s(section) (m, dim section, D) and of its normal space
    (m, normal_dim, D) at flat section points (m, D).

    Direct sums: the section's coordinates come first in the flat
    layout, so the two frames split the identity.  Conjugation: the
    algebra split at the identity, translated to s.
    """
    if isinstance(action, DirectSumAction):
        frames = np.broadcast_to(np.eye(action.ambient_dim), (len(pts),) + (action.ambient_dim,) * 2)
    else:
        s = batch_from_real(action.field, *action.shape, pts)[:, None]
        frames = batch_to_real(action.field, algebra_split(action).data @ s)
    return frames[:, : action.section_dim], frames[:, action.section_dim :]


def killing_images(action: ActionSpec, pts: np.ndarray) -> np.ndarray:
    """Killing fields of the split basis at flat points (m, D), by one
    contraction with the operator stack: entry [i, j, b] is ambient
    coordinate j of the field of basis element b (h, w, then m) at point i.
    """
    return np.einsum("bij,mj->mib", algebra_split(action).operators, pts)


@dataclass(eq=False)
class OrbitMapDifferential:
    """The orbit maps at section points, from one killing_images call.

    ``images`` holds the fields of h + w + m at the flat points ``pts``
    (m, D) in the ``frames`` (m, D, D) of T_pM there: section tangent
    rows, then normal ones (``section_frames``).  A single point drops
    the leading axis of all three, and the methods then return one
    value.  The h columns vanish along the section, and the w and m
    columns are the differential proper (``matrix``): block diagonal at
    regular points, the Weyl columns hitting only section-tangent rows
    and the complementary ones only normal rows.  One batched SVD of the
    images, made on first use, gives the isotropy algebra, the orbit
    ranks and frames, the regularity class and the regularity margin.
    """

    split: AlgebraSplit
    pts: np.ndarray
    frames: np.ndarray
    images: np.ndarray
    _svd: tuple | None = dataclasses.field(default=None, repr=False)

    def __post_init__(self):
        self.action, self.n_h, self.n_w = self.split.action, len(self.split.h_rows), len(self.split.w_rows)
        self.n_tan = self.action.section_dim  # section-tangent rows come first

    def __getitem__(self, i) -> OrbitMapDifferential:
        """The points i (an index, slice or mask), with their SVD once it is made."""
        svd = None if self._svd is None else tuple(a[i] for a in self._svd)
        return OrbitMapDifferential(self.split, self.pts[i], self.frames[i], self.images[i], svd)

    @property
    def matrix(self) -> np.ndarray:
        return self.images[..., self.n_h :]

    @property
    def w_block(self) -> np.ndarray:
        return self.matrix[..., : self.n_tan, : self.n_w]

    @property
    def m_block(self) -> np.ndarray:
        return self.matrix[..., self.n_tan :, self.n_w :]

    def off_block_residual(self) -> float | np.ndarray:
        """Largest stray entry outside the two diagonal blocks."""
        a = np.abs(self.matrix)
        corners = (a[..., : self.n_tan, self.n_w :], a[..., self.n_tan :, : self.n_w])
        worst = np.maximum(*(np.max(c, axis=(-2, -1), initial=0.0) for c in corners))
        return float(worst) if self.pts.ndim == 1 else worst

    def delta_d(self) -> float | np.ndarray:
        """|det| of the Weyl block as a map onto the Weyl-orbit tangent."""
        return self._abs_det(self.w_block)

    def total_det(self) -> float | np.ndarray:
        """|det| of the whole differential onto the orbit tangent."""
        return self._abs_det(self.matrix)

    def _abs_det(self, block: np.ndarray) -> float | np.ndarray:
        """abs_det_between of the block's columns onto a space of their
        dimension, its singular floor scaled by the norm of each point."""
        return abs_det_between(np.swapaxes(block, -1, -2), block.shape[-1], np.linalg.norm(self.pts, axis=-1))

    @property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """u, sv, vh of the images, sv padded with zeros to one value per
        basis element.  The columns of u past the orbit rank span the orbit
        normal in T_pM, in section-frame coordinates; the rows of vh in
        isotropy_mask are split-basis coefficients of the isotropy algebra."""
        if self._svd is None:
            u, sv, vh = np.linalg.svd(self.images)
            pad = [(0, 0)] * (sv.ndim - 1) + [(0, self.images.shape[-1] - sv.shape[-1])]
            self._svd = (u, np.pad(sv, pad), vh)
        return self._svd

    def isotropy_mask(self, tol: float = 1e-8) -> np.ndarray:
        """Singular values at or below tol times the largest: the isotropy directions."""
        sv = self.svd[1]
        return sv <= tol * np.where(sv[..., :1] > 0, sv[..., :1], 1.0)

    def orbit_ranks(self) -> np.ndarray:
        """Orbit dimension: the basis elements outside the isotropy algebra."""
        return self.images.shape[-1] - np.sum(self.isotropy_mask(), axis=-1)

    def orbit_frames(self) -> np.ndarray:
        """Orthonormal (realified) bases of T_pM, one vector per row: the first
        orbit_ranks() rows span the orbit tangent, the rest its normal space."""
        return np.swapaxes(self.svd[0], -1, -2) @ self.frames

    def regular_margin(self) -> np.ndarray:
        """Smallest singular value of the w + m columns; infinite where there are none (SO(2))."""
        sv, q = self.svd[1], self.images.shape[-1] - self.n_h
        return sv[..., q - 1] if q else np.full(sv.shape[:-1], np.inf)

    def weyl_stabilizer_order(self) -> np.ndarray:
        """Order of a regular point's stabilizer in the Weyl group: 2 where
        SO(2m+1) has an angle at pi, or SO(2m) one at 0 and another at pi
        (within _ANGLE_TOL), and 1 elsewhere.  SU(n) and Sp(n) are simply
        connected, and a full-rank B has a trivial stabilizer.  The points
        are torus points, whose angles are read off their rotation blocks."""
        group, flat = self.action.group, np.atleast_2d(self.pts)
        if not (isinstance(self.action, ConjugationAction) and group.family is Family.SO):
            return np.ones(self.pts.shape[:-1], dtype=int)
        ang = np.abs(torus_angles(group, flat))
        fixed = np.any(ang > np.pi - _ANGLE_TOL, axis=1) & (group.n % 2 == 1 or np.any(ang < _ANGLE_TOL, axis=1))
        return np.where(fixed, 2, 1).reshape(self.pts.shape[:-1])

    def regularity(self) -> RegularityClass | np.ndarray:
        """Regular exactly when the isotropy algebra has the dimension of the
        principal one, h's (a direct sum's point then has full rank k, a
        group element's centralizer the group's rank); exceptional when a
        non-identity Weyl element also fixes the point, else singular."""
        regular = np.sum(self.isotropy_mask(), axis=-1) == self.n_h
        return _CLASSES[np.where(regular, np.where(self.weyl_stabilizer_order() > 1, 1, 0), 2)]


_CLASSES = np.array([RegularityClass.REGULAR, RegularityClass.EXCEPTIONAL, RegularityClass.SINGULAR])


def orbit_map_differentials(action: ActionSpec, pts: np.ndarray) -> OrbitMapDifferential:
    """The orbit maps at flat section points (m, D)."""
    frames = np.concatenate(section_frames(action, pts), axis=1)
    images = killing_images(action, pts)
    if isinstance(action, ConjugationAction):  # a direct sum's frames split the identity
        images = frames @ images
    return OrbitMapDifferential(algebra_split(action), pts, frames, images)


def orbit_map_differential(action: ActionSpec, s: MatK) -> OrbitMapDifferential:
    """The orbit map at one section point; a batch of one."""
    return orbit_map_differentials(action, to_real_vector(s)[None])[0]


# --- the reductive algebra split -------------------------------------------

@dataclass(frozen=True, eq=False)
class AlgebraSplit:
    """Orthonormal bases splitting the algebra along the section, each a
    read-only stack of flat real rows (q, d n^2).

    ``h_rows`` spans the pointwise stabilizer algebra, ``w_rows`` the
    orthogonal representative of the normalizer modulo stabilizer (the
    Weyl part) and ``m_rows`` the orthogonal complement of the
    normalizer algebra, whose Killing fields are perpendicular to the
    section everywhere along it.  ``algebra_split`` selects all three
    from generators of the one basis rule, so they are orthonormal with
    no orthogonalization: m is the algebra basis without the torus rows
    (conjugation), or the pair generators between the section rows and
    the normal rows (direct sums).
    """

    action: ActionSpec
    h_rows: np.ndarray
    w_rows: np.ndarray
    m_rows: np.ndarray

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """The basis h + w + m, one row each."""
        return read_only(np.concatenate([self.h_rows, self.w_rows, self.m_rows]))

    @functools.cached_property
    def data(self) -> np.ndarray:
        """Raw matrix data of the basis h + w + m, (q, n, n) ((q, 2n, 2n) over H)."""
        n = self.action.group.n
        return read_only(batch_from_real(self.action.field, n, n, self.rows))

    @functools.cached_property
    def operators(self) -> np.ndarray:
        """Stack L (q, D, D) with L[b] @ vec(p) = vec(killing_field(b-th of h + w + m, p)).

        The Killing fields are linear in p, so the fields of the whole
        basis at many points take one contraction.  Built on first use,
        not with the split, by one batched product of the basis with the
        ambient unit matrices.
        """
        action, dim = self.action, self.action.ambient_dim
        units = batch_from_real(action.field, *action.shape, np.eye(dim))
        images = batch_to_real(action.field, _killing_data(action, self.data[:, None], units))
        return read_only(np.ascontiguousarray(np.swapaxes(images, 1, 2)))

    @property
    def m_operators(self) -> np.ndarray:
        """The operators of m_rows, a slice of the stack."""
        return self.operators[len(self.h_rows) + len(self.w_rows) :]


def _mixed_trace_generator(n: int, k: int) -> np.ndarray:
    """Traceless imaginary diagonal orthogonal to both su blocks (SU case), one flat row."""
    v = np.diag(np.where(np.arange(n) < k, 1j, -1j * k / (n - k)))
    return batch_to_real(COMPLEX, v * (1.0 / np.linalg.norm(v)))[None]


@functools.lru_cache(maxsize=None)
def algebra_split(action: ActionSpec) -> AlgebraSplit:
    if isinstance(action, ConjugationAction):
        # h is the torus, and m the algebra basis without the torus rows
        group = action.group
        h, m = torus_basis(group), np.delete(algebra_basis(group), torus_indices(group), axis=0)
        return AlgebraSplit(action, h, h[:0], read_only(m))
    # h moves the normal rows [k, n), w the section rows [0, k), and m, the pairs
    # between them, is ordered by (b, a, unit) as the normal frame is, so the
    # normal block of the orbit map differential is block diagonal per ambient row
    field, n, k = action.field, action.n, action.k
    h, line = block_algebra_basis(field, n, k, n), block_algebra_basis(field, n, 0, k)
    trace = _mixed_trace_generator(n, k) if field is COMPLEX else h[:0]
    b, a = np.divmod(np.arange(k * (n - k)), k)
    m = pair_generators(field, n, a, b + k)
    if k == 1:  # the polar section has a finite Weyl group: the line's own directions go to m
        w, m = h[:0], np.concatenate([line, m, trace])
    else:
        w = np.concatenate([line, trace])
    return AlgebraSplit(action, read_only(h), read_only(w), read_only(m))


def brackets(field: ScalarField, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Flat rows of the brackets [x, y] = x y - y x of raw matrix data, leading axes broadcast."""
    return batch_to_real(field, x @ y - y @ x)


# --- regularity, isotropy, orbit spaces -------------------------------------

def isotropy_algebra(action: ActionSpec, p: MatK, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis of the algebra of the stabilizer of p, as flat rows."""
    diff = orbit_map_differential(action, p)
    return diff.svd[2][diff.isotropy_mask(tol)] @ diff.split.rows


def classify_point(action: ActionSpec, p: MatK) -> RegularityClass:
    """Regular / exceptional / singular classification (OrbitMapDifferential.regularity)."""
    return orbit_map_differential(action, p).regularity()


def orbit_tangent(action: ActionSpec, p: MatK) -> np.ndarray:
    """Orthonormal (realified) basis of the tangent space of the orbit."""
    diff = orbit_map_differential(action, p)
    return diff.orbit_frames()[: diff.orbit_ranks()]


def orbit_normal(action: ActionSpec, p: MatK) -> np.ndarray:
    """Orthonormal basis of the normal space of the orbit inside T_p M."""
    diff = orbit_map_differential(action, p)
    return diff.orbit_frames()[diff.orbit_ranks() :]


# --- reduction to the section ----------------------------------------------

def reduce_to_section(action: ActionSpec, x: MatK) -> MatK:
    """Canonical section point of the orbit through x; a batch of one."""
    return from_real_vector(action.field, *action.shape, reduce_to_section_batch(action, x.data[None])[0])


def reduce_to_section_batch(action: ActionSpec, data: np.ndarray) -> np.ndarray:
    """Flat canonical section points (m, D) of the orbits through raw points (m, rows, cols).

    Direct sums: the section point with coordinate R of x = QR, upper
    triangular with nonnegative real diagonal.  Conjugation: the torus
    point of x's canonical_angles.  Both are one representative per
    Weyl orbit, so x and g . x give the same point.
    """
    if isinstance(action, ConjugationAction):
        return torus_points(action.group, canonical_angles(action.group, data))
    return section_points(action, batch_to_real(action.field, qr(action.field, data)[1]))


def canonical_angles(group: GroupSpec, data: np.ndarray) -> np.ndarray:
    """Canonical torus angles of a stack of group elements (m, n, n).

    The angles are the eigenphases of the stored complex matrices (the
    adjoint matrices over H), from one batched eigensolve, taken to
    their canonical representative by _weyl_canonical: on SU(n) all n
    of them, on SO and Sp one per pair exp(+-i theta) (SO(2m+1) drops
    its extra eigenvalue 1).  The Weyl group of SO(2m) changes an even
    number of signs only, so there the orientation of the real planes
    (Im v, Re v) of the exp(+i theta) eigenvectors v sets the sign of
    the smallest angle.
    """
    fam, n = group.family, group.n
    if fam is Family.SU:
        return _weyl_canonical(group, np.angle(np.linalg.eigvals(data)))
    even_so = fam is Family.SO and n % 2 == 0
    if even_so:
        vals, vecs = np.linalg.eig(data)
    else:
        vals = np.linalg.eigvals(data)
    theta = np.angle(vals)
    skip = 1 if fam is Family.SO and n % 2 == 1 else 0  # the extra eigenvalue 1 sorts first
    ang = np.sort(np.abs(theta), axis=1)[:, skip::2]
    if not even_so:
        return _weyl_canonical(group, ang)
    # a real matrix has exactly conjugate eigenpairs: the top half of
    # the sorted angles are the exp(+i theta) ones
    v = np.take_along_axis(vecs, np.argsort(theta, axis=1)[:, None, n // 2 :], axis=2)
    planes = np.stack([v.imag, v.real], axis=-1).reshape(data.shape)
    return _weyl_canonical(group, ang, np.linalg.det(planes) < 0)


def torus_canonical_angles(group: GroupSpec, angles: np.ndarray) -> np.ndarray:
    """canonical_angles of torus_points(group, angles), read off the angle
    rows (m, r) by the Weyl group, with no eigensolve.

    A torus point's eigenvalues are its diagonal entries (SU, Sp: with
    their conjugates on the adjoint matrix) or its rotation blocks'
    cos(theta) +- i sin(theta) (SO), so its eigenphases are np.angle of
    the (cos, sin) pairs, as an eigensolve returns them on SU and Sp.
    A rotation block with a negative phase has the plane of its
    exp(+i |theta|) eigenvector reversed, so on SO(2m) the orientation
    is the parity of the negative phases.
    """
    full = full_torus_angles(group, angles)
    diag = np.empty(full.shape, dtype=complex)
    diag.real, diag.imag = np.cos(full), np.sin(full)
    theta = np.angle(diag)
    if group.family is Family.SO and group.n % 2 == 0:
        return _weyl_canonical(group, theta, np.count_nonzero(theta < 0, axis=1) % 2 == 1)
    return _weyl_canonical(group, theta)


def _weyl_canonical(group: GroupSpec, theta: np.ndarray, flip: np.ndarray | None = None) -> np.ndarray:
    """The canonical representative of eigenphase rows theta under the Weyl group.

    SU(n): all n phases, summing to 0 and sorted in descending order,
    within 2 pi of each other (the phases in [0, 2 pi), the m largest
    lowered by 2 pi, m = their sum / 2 pi), so the point moves
    continuously when an eigenvalue crosses 1.  SO and Sp: one phase per
    pair exp(+-i theta), (m, rank); the canonical angles are the sorted
    |theta|.  On SO(2m) the rows where flip is set (a negative
    orientation) take the smallest angle negative; it stays positive
    when an angle is 0 or pi, where a sign change costs nothing.
    """
    if group.family is Family.SU:
        phases = -np.sort(-np.mod(theta, 2 * np.pi), axis=1)
        wraps = np.rint(np.sum(phases, axis=1, keepdims=True) / (2 * np.pi))
        return np.sort(phases - 2 * np.pi * (np.arange(group.n) < wraps), axis=1)[:, ::-1]
    ang = np.sort(np.abs(theta), axis=1)
    if flip is not None:
        free = (ang[:, 0] < _ANGLE_TOL) | (ang[:, -1] > np.pi - _ANGLE_TOL)
        ang[flip & ~free, 0] *= -1.0
    return ang


# --- sampling ----------------------------------------------------------------

def random_ambient_point(action: ActionSpec, rng: np.random.Generator) -> MatK:
    """Gaussian point of K^(n x k), or a Haar point of the group; a batch of one."""
    return MatK(action.field, random_ambient_points(action, rng, 1)[0])


def random_ambient_points(action: ActionSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    """Raw data (count, rows, cols) of count random_ambient_point draws."""
    if isinstance(action, DirectSumAction):
        return gaussian_batch(action.field, action.n, action.k, rng, count)
    return haar_sample_batch(action.group, rng, count)


def random_regular_section_point(action: ActionSpec, rng: np.random.Generator) -> MatK:
    """Random section point safely inside the regular set; a batch of one."""
    flat = random_regular_section_points(action, rng, 1).pts[0]
    return from_real_vector(action.field, *action.shape, flat)


def random_regular_section_points(action: ActionSpec, rng: np.random.Generator, count: int) -> OrbitMapDifferential:
    """The orbit maps at count random section points safely inside the
    regular set: the draws whose regular_margin is at most MIN_GAP are
    redrawn, as one batch."""
    kept, need = [], count
    for _ in range(1000):
        coords = _section_coords(action, rng, need)
        draws = orbit_map_differentials(action, section_points(action, coords))
        regular = draws.regular_margin() > MIN_GAP
        kept.append(draws[regular])
        need -= int(np.sum(regular))
        if need == 0:  # one batch of the kept rows, their SVDs included
            pts, frames, images, *svd = (
                np.concatenate(a) for a in zip(*((d.pts, d.frames, d.images, *d.svd) for d in kept))
            )
            return OrbitMapDifferential(kept[0].split, pts, frames, images, tuple(svd))
    raise RuntimeError("failed to sample a regular section point")


def _section_coords(action: ActionSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    """Flat coordinates B (a real multiple of the first basis vector when k = 1) or torus angle rows."""
    if isinstance(action, ConjugationAction):
        return rng.uniform(0.0, 2 * np.pi, size=(count, action.group.rank))
    if action.k == 1:
        return np.pad(rng.standard_normal((count, 1)), ((0, 0), (0, action.field.dim - 1)))
    return batch_to_real(action.field, gaussian_batch(action.field, action.k, action.k, rng, count))


def section_points(action: ActionSpec, coords: np.ndarray) -> np.ndarray:
    """Flat section points (m, D) from flat coordinates B (direct sums; they
    come first in the flat layout) or torus angle rows (conjugation)."""
    if isinstance(action, ConjugationAction):
        return torus_points(action.group, coords)
    pts = np.zeros((len(coords), action.ambient_dim))
    pts[:, : coords.shape[1]] = coords
    return pts


def normalizer_sample(action: ActionSpec, rng: np.random.Generator) -> GroupElement:
    """Haar-like sample of the normalizer of the section; a batch of one."""
    return GroupElement(action.group, MatK(action.field, normalizer_samples(action, rng, 1)[0]))


def normalizer_samples(action: ActionSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    """Raw data (count, n, n) of count normalizer_sample draws."""
    if isinstance(action, DirectSumAction):
        return _normalizer_direct_sum(action, rng, count)
    return _normalizer_conjugation(action, rng, count)


def _normalizer_direct_sum(action: DirectSumAction, rng: np.random.Generator, count: int) -> np.ndarray:
    """Block diagonal (u, v) with det 1: u moves the section coordinate, v the normal rows."""
    field, n, k = action.field, action.n, action.k
    if k == 1 and field is not REAL:
        # the polar section is the real line, so the top block is +-1
        u_det = np.where(rng.random(count) < 0.5, -1.0, 1.0)
        u = u_det[:, None, None] * eye(field, 1).data
    else:
        u, u_det = haar_unitary_batch(field, k, rng, count)
    v, v_det = haar_unitary_batch(field, n - k, rng, count)
    if field is REAL:
        flip = rng.random(count) < 0.5
        u[flip, :, -1] *= -1.0
        v[np.where(flip, -u_det, u_det) * v_det < 0, :, -1] *= -1.0
    elif field is COMPLEX:
        v[:, :, -1] *= np.conj(u_det * v_det)[:, None]
    a, b = side(field) * k, side(field) * n  # stored rows of u and of g
    g = np.zeros((count, b, b), dtype=u.dtype)
    g[:, :a, :a], g[:, a:, a:] = u, v
    return g


def _normalizer_conjugation(action: ConjugationAction, rng: np.random.Generator, count: int) -> np.ndarray:
    """A torus element times a Weyl representative: a permutation matrix, with
    sign changes in the rotation planes (SO) or entries j (Sp)."""
    group = action.group
    fam, n = group.family, group.n
    t = batch_from_real(group.field, n, n, torus_points(group, rng.uniform(0, 2 * np.pi, size=(count, group.rank))))
    size = n // 2 if fam is Family.SO else n
    rows, cols = np.arange(count)[:, None], np.arange(size)
    perm = np.argsort(rng.random((count, size)), axis=1)
    flips = rng.random((count, size)) < 0.5
    if fam is Family.SU:
        w = np.zeros((count, n, n), dtype=complex)
        w[rows, perm, cols] = 1.0
        w[:, :, 0] *= np.conj(np.linalg.det(w))[:, None]
    elif fam is Family.SP:
        comps = np.zeros((count, n, n, 4))
        comps[rows, perm, cols, np.where(flips, 2, 0)] = 1.0
        w = data_from_components(group.field, comps)
    else:
        odd = np.sum(flips, axis=1) % 2 == 1
        if n % 2 == 0:  # SO(2m) changes an even number of signs
            flips[odd, np.argmax(flips[odd], axis=1)] = False
        w = np.zeros((count, n, n))
        w[rows, 2 * perm, 2 * cols] = 1.0
        w[rows, 2 * perm + 1, 2 * cols + 1] = np.where(flips, -1.0, 1.0)
        if n % 2 == 1:  # the spare coordinate keeps det = 1
            w[:, -1, -1] = np.where(odd, -1.0, 1.0)
    return t @ w
