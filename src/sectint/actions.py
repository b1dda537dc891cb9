"""Isometric group actions with an explicit minimal section, one class per kind.

Two kinds are implemented:

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

Each kind's class owns every operation that depends on the kind (the
README lists them), so the rest of the package never asks which kind it
holds.  A kind imports neither ``integrate`` nor ``ensembles``: their
integrands and specs come in as callbacks and arguments.  The base
``ActionSpec`` holds only what both kinds compute alike.

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
fields exceeds ``MIN_GAP``.  ``ActionSpec.section_rule`` evaluates every
kind's tensor section rule on the axes of its ``section_axes``: trapezoid
axes on the torus angles, or Gauss axes in the Bartlett coordinates B = wR
(w in W = U_d(k), R upper triangular with a positive diagonal; Edelman
and Rao, Acta Numerica 2005), Gauss-Hermite above the diagonal and
half-range, built by Golub-Welsch, on it, which ``bartlett_draws``
samples exactly.  The module needs only numpy.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fields import ScalarField, brief
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
    gram_det,
    householder_q,
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
    RootData,
    algebra_basis,
    block_algebra_basis,
    full_torus_angles,
    haar_sample_batch,
    pair_generators,
    root_data,
    torus_angles,
    torus_basis,
    torus_indices,
    torus_point,
    torus_points,
    torus_weight_batch,
)
from .mc import McEstimate
from .volumes import group_volume, torus_volume

TWO_PI = 2.0 * np.pi
_ANGLE_TOL = 1e-10  # angles this close to 0 or pi count as 0 or pi in canonical_angles
MIN_GAP = 5e-2  # smallest regular_margin of a random regular section point
ISOTROPY_TOL = 1e-8  # isotropy_mask's singular values, relative to the largest
#: torus nodes per angle by rank (12 above rank 3) of an integrand without a degree; coarse: half
TORUS_GRID = {1: 256, 2: 48, 3: 20}
#: Bartlett nodes per axis of an integrand without a degree; coarse: one fewer
GAUSS_NODES = 5
#: rule nodes or exact draws per evaluation block; bounds the (block, D) point arrays
_ROW_BLOCK = 4096
REF_GRID = 2048  # uniform torus nodes of a rank-one conjugation reference
REF_DRAWS = 8192  # uniform torus rows of a conjugation reference above rank one

_FIELD_TO_FAMILY = {REAL: Family.SO, COMPLEX: Family.SU, QUATERNION: Family.SP}


class RegularityClass(enum.Enum):
    REGULAR = "regular"
    EXCEPTIONAL = "exceptional"
    SINGULAR = "singular"


class ActionSpec:
    """What both kinds of action compute alike."""

    @property
    def ambient_dim(self) -> int:
        """Real dimension of K^(rows x cols); on conjugation, of the embedding space, not of the manifold."""
        return self.field.dim * math.prod(self.shape)

    @property
    def cohomogeneity(self) -> int:
        """Dimension of the orbit space, and so the axes of a section rule:
        the torus angles, or the Bartlett coordinates of R in B = wR."""
        return self.section_dim - self.copolarity

    def section_rule(self, values, sigma: float, m: int) -> np.ndarray:
        """The section integral of f * weight, one value per row of values(pts),
        the integrands at (block, D) section points: the tensor rule of the
        kind's section_axes, m nodes per axis, _ROW_BLOCK nodes at a time, each
        block weighed once, and each integrand's row summed on its own."""
        axes, weight, const = self.section_axes(sigma, m)
        count, totals = m ** len(axes), 0.0
        for lo in range(0, count, _ROW_BLOCK):
            digits = np.unravel_index(np.arange(lo, min(lo + _ROW_BLOCK, count)), (m,) * len(axes))
            z, w = np.zeros((digits[0].size, self.section_dim)), np.ones(digits[0].size)
            for (col, x, wx), idx in zip(axes, digits):
                z[:, col] = x[idx]
                w *= wx[idx]
            vals = values(self.section_points(z)) * weight(z)
            totals = totals + np.array([w @ row for row in vals])
        return totals * const


@dataclass(frozen=True)
class DirectSumAction(ActionSpec):
    field: ScalarField
    n: int
    k: int

    #: ensemble statistics of the section coordinate, the default first
    statistics = ("coordinate_det", "coordinate_norm", "singular_value")
    #: the integrand families, with their parameters, of an integrate or volumes run that names none
    default_integrands = (("gaussian_radial", {"sigma": 1.0}), ("gaussian_sq_norm", {"sigma": 1.0}))

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
    def normal_dim(self) -> int:
        """Real dimension of the normal space of the section."""
        return self.ambient_dim - self.section_dim

    def __str__(self):
        return f"{self.group}^{self.k} on {self.field.value}^({self.n}x{self.k})"

    def to_json(self) -> dict:
        return {"kind": "direct_sum", "field": self.field.value, "n": self.n, "k": self.k}

    def act_data(self, g: np.ndarray, x: np.ndarray) -> np.ndarray:
        """g x on raw data of group elements g and points x, leading axes broadcast."""
        return g @ x

    def killing_data(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        """The Killing field of the algebra data x at the points p: x p."""
        return x @ p

    def embed_section(self, coord) -> MatK:
        """Section point of top block B (k = 1: a real scalar, else ValueError)."""
        n, k = self.n, self.k
        b = coord if isinstance(coord, MatK) else mat(self.field, coord)
        if b.shape != (k, k):
            raise DimensionError(f"section coordinate must be {k} x {k}")
        if k == 1 and np.any(to_real_vector(b)[1:]):
            raise ValueError("point is off the section: the polar section is the real line")
        s = zeros(self.field, n, k)
        s.data[: side(self.field) * k] = b.data
        return s

    def section_coordinate(self, s: MatK) -> MatK:
        """Top k x k block of an ambient section point."""
        return MatK(self.field, s.data[: side(self.field) * self.k].copy())

    def section_points(self, coords: np.ndarray) -> np.ndarray:
        """Flat section points (m, D) of flat coordinates B, which come first in the flat layout."""
        pts = np.zeros((len(coords), self.ambient_dim))
        pts[:, : coords.shape[1]] = coords
        return pts

    def section_frames(self, pts: np.ndarray) -> np.ndarray:
        """The section's coordinates come first in the flat layout, so the frames are the identity."""
        return np.broadcast_to(np.eye(self.ambient_dim), (len(pts),) + (self.ambient_dim,) * 2)

    def weyl_stabilizer_order(self, pts: np.ndarray) -> np.ndarray:
        """A full-rank B has a trivial stabilizer in the Weyl group."""
        return np.ones(pts.shape[:-1], dtype=int)

    def split_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows h, w, m of the algebra split: h moves the normal rows [k, n),
        w the section rows [0, k), and m, the pairs between them, is ordered
        by (b, a, unit) as the normal frame is, so the normal block of the
        orbit map differential is block diagonal per ambient row."""
        field, n, k = self.field, self.n, self.k
        h, line = block_algebra_basis(field, n, k, n), block_algebra_basis(field, n, 0, k)
        trace = h[:0]
        if field is COMPLEX:  # the traceless imaginary diagonal orthogonal to both su blocks
            v = np.diag(np.where(np.arange(n) < k, 1j, -1j * k / (n - k)))
            trace = batch_to_real(COMPLEX, v * (1.0 / np.linalg.norm(v)))[None]
        b, a = np.divmod(np.arange(k * (n - k)), k)
        m = pair_generators(field, n, a, b + k)
        if k == 1:  # the polar section has a finite Weyl group: the line's own directions go to m
            w, m = h[:0], np.concatenate([line, m, trace])
        else:
            w = np.concatenate([line, trace])
        return read_only(h), read_only(w), read_only(m)

    def reduce(self, data: np.ndarray) -> np.ndarray:
        """Section points of coordinate R of raw points x = QR (m, n, k), R with a nonnegative real diagonal."""
        return self.section_points(batch_to_real(self.field, qr(self.field, data)[1]))

    def random_ambient_points(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Raw data of count Gaussian points of K^(n x k)."""
        return gaussian_batch(self.field, self.n, self.k, rng, count)

    def section_coords(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Gaussian flat coordinates (count, section_dim): B, or the real t of the polar line when k = 1."""
        return rng.standard_normal((count, self.section_dim))

    def normalizer_samples(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Block diagonal (u, v) with det 1: u moves the section coordinate, v the normal rows."""
        field, n, k = self.field, self.n, self.k
        if k == 1 and field is not REAL:
            # the polar section is the real line, so the top block is +-1
            u_det = np.where(rng.random(count) < 0.5, -1.0, 1.0)
            u = u_det[:, None, None] * eye(field, 1).data
        else:
            u, u_det = householder_q(gaussian_batch(field, k, k, rng, count))  # Haar on O, U or Sp(k)
        v, v_det = householder_q(gaussian_batch(field, n - k, n - k, rng, count))
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

    def parse_point(self, obj) -> MatK:
        """The section point of a JSON k x k array of entries, each a number or its d real components."""
        k = self.k
        if not (isinstance(obj, list) and len(obj) == k and all(isinstance(r, list) and len(r) == k for r in obj)):
            raise ValueError(f"point must be a {k} x {k} array of entries")
        entries = [[_parse_entry(self.field, obj[i][j], i, j) for j in range(k)] for i in range(k)]
        return self.embed_section(np.asarray(entries))  # floats, complex numbers (C) or lists of 4 floats (H)

    def closed_weight(self, pts: np.ndarray) -> np.ndarray:
        """section_weight_batch at flat section points (m, D)."""
        return section_weight_batch(self, pts[:, : self.section_dim])

    def cut_points(self) -> np.ndarray:
        """Flat points where the reduction has a cut: none."""
        return np.zeros((0, self.ambient_dim))

    def weyl_volume(self) -> float:
        """{+-1} on the polar line (k = 1), else O(k) (two copies of SO(k)), Sp(k), or
        U(k) = (SU(k) x U(1)) / Z_k, whose circle e^(i t) 1_k of length 2 pi sqrt(k)
        the split's trace-compensating generator stretches by sqrt(n / (n - k))."""
        n, k = self.n, self.k
        if k == 1:
            return float(polar_root_data(self.field, n).weyl_order)
        vol = group_volume(GroupSpec(self.group.family, k))
        if self.field is REAL:
            vol *= 2.0
        elif self.field is COMPLEX:
            vol *= 2.0 * math.pi / math.sqrt(k) * math.sqrt(n / (n - k))
        return vol

    def stabilizer_volume(self) -> float:
        """vol(G(n - k)), the group of the normal rows."""
        return group_volume(GroupSpec(self.group.family, self.n - self.k))

    def direct_sampler(self, values):
        """mc_run's sample(rng, size) of standard-Gaussian importance
        sampling on the flat space, values(z, norms_sq) of a batch's draws
        over their density, and the factor of its averages: 1."""
        dim = self.ambient_dim
        log_norm = 0.5 * dim * np.log(TWO_PI)

        def sample(rng: np.random.Generator, size: int) -> np.ndarray:
            z = rng.standard_normal((size, dim))
            r2 = np.sum(z * z, axis=1)
            return values(z, r2) * np.exp(0.5 * r2 + log_norm)

        return sample, McEstimate.exact(1.0)

    def divergence(self, name: str, param) -> str | None:
        """Why family name with parameters param(key) diverges, or None: a
        constant, and gaussian_det at p <= -d(n - k + 1), where the Jacobian
        of the last Bartlett axis is r^(d(n - k + 1) - 1)."""
        if name == "const":
            return f"the integral of a constant over the flat space of {self} diverges"
        if name == "gaussian_det" and param("power") <= -self.field.dim * (self.n - self.k + 1):
            return f"the integral of |det|^p diverges on {self} at p = {param('power'):g}"
        return None

    def rule_sizes(self, degree: int | None) -> tuple[int, int]:
        """(fine, coarse) Gauss nodes per axis, exact to degree 2m - 1;
        GAUSS_NODES and one fewer without a degree, the cap of every rule."""
        if degree is None:
            return GAUSS_NODES, GAUSS_NODES - 1
        coarse = min(max(2, degree // 2 + 1), GAUSS_NODES - 1)
        return coarse + 1, coarse

    def section_axes(self, sigma: float, m: int):
        """section_rule's m-point Gauss axes (column of z, nodes, weights),
        section_weight_batch and C sigma^D (C of _bartlett_axes).  f and the
        weight are W-invariant, so the rule runs over R of B = wR: Gauss-Hermite
        axes above the diagonal, and half-range axes for r^(b_i + p) e^(-r^2/2),
        the Jacobian times the weight's power, on it.  Each axis weight carries
        e^(x^2/2), each diagonal one divides out x^p, and the nodes scale by
        sigma: exact where f is a polynomial of degree 2m - 1 per axis times
        e^(-|B|^2/(2 sigma^2)), at every n."""
        axes, power, const = _bartlett_axes(self)
        rules = [hermite_rule(m) if b is None else half_range_rule(b + power, m) for _, b in axes]
        return ([(col, sigma * x, w * np.exp(0.5 * x * x) / (1.0 if b is None else x ** power))
                 for (col, b), (x, w) in zip(axes, rules)],
                lambda z: section_weight_batch(self, z), const * sigma ** self.section_dim)

    def statistic_columns(self, statistic: str, scale: float) -> int:
        """Columns of an ensemble statistic; ValueError for one outside the table."""
        if statistic not in self.statistics:
            raise ValueError(f"statistic {statistic!r} not defined for direct sums")
        return self.k if statistic == "singular_value" else 1

    def ensemble_statistics(self, spec, rng: np.random.Generator, size: int) -> np.ndarray:
        """The statistic, invariant under the whole group, of a batch's size ambient Gaussian draws from rng."""
        comps = spec.scale * rng.standard_normal((size, self.n, self.k, self.field.dim))
        return _coordinate_statistics(spec, self.field, comps)

    def reference_sample(self, spec, seed: int, n_ref: int) -> tuple[np.ndarray, float]:
        """Statistics and weight-ratio spread of n_ref exact draws of p * weight:
        bartlett_draws from one generator of seed, _ROW_BLOCK rows at a time,
        each block scaled by |scale| and evaluated alone.  The weight is a
        constant times |det R|^p (p of _bartlett_axes), and |det R| is the
        product of R's diagonal, so section_weight_batch / |det R|^p is one
        constant over the draws; the spread is max / min - 1 of that ratio,
        at rounding level however many draws (gram_det keeps its digits at
        nearly dependent columns).  The statistics are read off R too."""
        scale, k, power = abs(spec.scale), self.k, _bartlett_axes(self)[1]
        field = self.field if k > 1 else ScalarField.REAL  # the k = 1 section is the real line: a real 1 x 1
        stats, lo, hi = [], np.inf, -np.inf
        rng = np.random.default_rng(seed)
        for start in range(0, n_ref, _ROW_BLOCK):
            z = bartlett_draws(self, rng, min(_ROW_BLOCK, n_ref - start))
            z *= scale
            comps = z.reshape(len(z), k, k, field.dim)
            det = np.prod(np.abs(comps[:, range(k), range(k), 0]), axis=1)  # real on R's diagonal
            log_ratio = np.log(section_weight_batch(self, z)) - power * np.log(det)
            lo, hi = min(lo, log_ratio.min()), max(hi, log_ratio.max())
            stats.append(det if spec.statistic == "coordinate_det" else _coordinate_statistics(spec, field, comps))
        return np.concatenate(stats), float(np.expm1(hi - lo))

    def ensemble_reference(self, spec, n: int, seed: int):
        """Statistics and weight-ratio spread of n_ref = max(30 n, 60000) exact
        draws of the section density, of equal weight, and n_ref itself: their
        own noise adds n / n_ref to the variance of each bin's count of n stats."""
        n_ref = max(30 * n, 60_000)
        ref_stats, spread = self.reference_sample(spec, seed, n_ref)
        return ref_stats, None, spread, n_ref


def polar_root_data(field: ScalarField, n: int) -> RootData:
    """Root data of the polar line t e_1 of K^n (k = 1): one root t of multiplicity, and degree, dn - 1; W = {+-1}."""
    return RootData(np.ones((1, 1)), field.dim * n - 1, field.dim * n - 1, 2, chord=False)


@dataclass(frozen=True)
class ConjugationAction(ActionSpec):
    group: GroupSpec

    statistics = ("torus_angle",)  # of the canonical torus angles
    default_integrands = (("trace_power", {"power": 2}), ("const", {}))

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
    def section_dim(self) -> int:
        return self.group.rank

    @property
    def copolarity(self) -> int:
        return 0

    @property
    def normal_dim(self) -> int:
        return self.group.algebra_dim - self.group.rank

    def __str__(self):
        return f"{self.group} conjugation"

    def to_json(self) -> dict:
        return {"kind": "conjugation", "family": self.group.family.value, "n": self.group.n}

    def act_data(self, g: np.ndarray, x: np.ndarray) -> np.ndarray:
        """g x g^* on raw data of group elements g and points x, leading axes broadcast."""
        return g @ x @ conj_transpose(g)

    def killing_data(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        """The Killing field of the algebra data x at the points p: x p - p x."""
        return x @ p - p @ x

    def embed_section(self, coord) -> MatK:
        """Torus point of angle vector coord; n angles on SU(n) must sum to 0 mod 2 pi, else ValueError."""
        angles, group = np.asarray(coord, dtype=float), self.group
        if group.family is Family.SU and angles.shape == (group.n,):
            total = float(np.sum(angles))
            if abs(np.angle(np.exp(1j * total))) > _ANGLE_TOL * max(1.0, float(np.sum(np.abs(angles)))):
                raise ValueError(f"point is off {group}: its {group.n} angles sum to {total:g}, not 0 mod 2 pi")
        return torus_point(group, angles)

    def section_coordinate(self, s: MatK) -> np.ndarray:
        """Angle vector of a torus point (all n angles on SU(n))."""
        return torus_angles(self.group, to_real_vector(s)[None])[0]

    def section_points(self, coords: np.ndarray) -> np.ndarray:
        """Flat torus points (m, D) from torus angle rows."""
        return torus_points(self.group, coords)

    def section_frames(self, pts: np.ndarray) -> np.ndarray:
        """The algebra split at the identity, translated to s."""
        s = batch_from_real(self.field, *self.shape, pts)[:, None]
        return batch_to_real(self.field, algebra_split(self).data @ s)

    def weyl_stabilizer_order(self, pts: np.ndarray) -> np.ndarray:
        """2 where SO(2m+1) has an angle at pi, or SO(2m) one at 0 and another
        at pi (within _ANGLE_TOL), else 1: SU(n) and Sp(n) are simply connected."""
        group = self.group
        if group.family is not Family.SO:
            return np.ones(pts.shape[:-1], dtype=int)
        ang = np.abs(torus_angles(group, np.atleast_2d(pts)))
        fixed = np.any(ang > np.pi - _ANGLE_TOL, axis=1) & (group.n % 2 == 1 or np.any(ang < _ANGLE_TOL, axis=1))
        return np.where(fixed, 2, 1).reshape(pts.shape[:-1])

    def split_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows h, w, m of the algebra split: the torus, none, and the other basis rows."""
        group = self.group
        h, m = torus_basis(group), np.delete(algebra_basis(group), torus_indices(group), axis=0)
        return h, h[:0], read_only(m)

    def reduce(self, data: np.ndarray) -> np.ndarray:
        """The torus points of the canonical_angles of group elements (m, n, n)."""
        return torus_points(self.group, canonical_angles(self.group, data))

    def random_ambient_points(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Raw data of count Haar points of the group."""
        return haar_sample_batch(self.group, rng, count)

    def section_coords(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Uniform torus angle rows, the one place they are drawn."""
        return rng.uniform(0.0, TWO_PI, size=(count, self.group.rank))

    def normalizer_samples(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """A torus element times a Weyl representative: a permutation matrix, with
        sign changes in the rotation planes (SO) or entries j (Sp)."""
        group = self.group
        fam, n = group.family, group.n
        t = batch_from_real(group.field, n, n, torus_points(group, self.section_coords(rng, count)))
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

    def parse_point(self, obj) -> MatK:
        """The torus point of a JSON angle list or {"angles": [...]}."""
        angles = obj.get("angles") if isinstance(obj, dict) else obj
        if not isinstance(angles, list):
            raise ValueError('bad --point: expected an angle list or {"angles": [...]}')
        if extra := sorted(obj.keys() - {"angles"} if isinstance(obj, dict) else ()):
            raise ValueError(f"bad --point: a torus point takes no key {', '.join(map(repr, extra))}")
        return self.embed_section(np.array([_number(a, f"angle {i + 1}") for i, a in enumerate(angles)]))

    def closed_weight(self, pts: np.ndarray) -> np.ndarray:
        """Weyl's torus_weight_batch at the angles read back from flat torus points (m, D)."""
        return torus_weight_batch(self.group, torus_angles(self.group, pts))

    def cut_points(self) -> np.ndarray:
        """A flat torus point with an angle at 0, the cut of the SU(n) phases, at rank >= 2; else none."""
        return torus_points(self.group, 0.7 * np.arange(self.group.rank)[None])[: int(self.group.rank >= 2)]

    def weyl_volume(self) -> float:
        """The order of the classical Weyl group (root_data), which counts points."""
        return float(root_data(self.group).weyl_order)

    def stabilizer_volume(self) -> float:
        """The volume of the maximal torus."""
        return torus_volume(self.group)

    def direct_sampler(self, values):
        """mc_run's sample(rng, size) of Haar sampling, values(pts, None)
        at a batch's Haar draws, flat (m, D), and the factor of its
        averages: the group volume."""
        def sample(rng: np.random.Generator, size: int) -> np.ndarray:
            return values(batch_to_real(self.field, haar_sample_batch(self.group, rng, size)), None)

        return sample, McEstimate.exact(group_volume(self.group))

    def divergence(self, name: str, param) -> str | None:
        """Why family name with parameters param(key) is refused, or None.
        Bounded families converge on the compact group; trace_power needs an
        integer power p >= 0, where weight * tr^p is a trigonometric
        polynomial, which the torus rule integrates exactly."""
        if name == "trace_power" and not (param("power") >= 0 and param("power").is_integer()):
            return f"the power must be a nonnegative integer, got {param('power'):g}"
        return None

    def rule_sizes(self, degree: int | None) -> tuple[int, int]:
        """(fine, coarse) nodes per angle above the degree of f times Weyl's weight
        (root_data's degree); else TORUS_GRID and half."""
        if degree is None:
            grid = TORUS_GRID.get(self.group.rank, 12)
            return grid, grid // 2
        coarse = root_data(self.group).degree + max(degree, 4) + 1
        return coarse + 1, coarse

    def section_axes(self, sigma: float, m: int):
        """section_rule's trapezoid axes (column of z, nodes, weights), m nodes of
        weight 1/m on each torus angle, exact below degree m per angle; Weyl's
        closed-form weight on the angle rows; the torus volume.  No sigma."""
        nodes, weights = np.arange(m) * (TWO_PI / m), np.full(m, 1.0 / m)
        return ([(col, nodes, weights) for col in range(self.group.rank)],
                lambda angles: torus_weight_batch(self.group, angles), torus_volume(self.group))

    def statistic_columns(self, statistic: str, scale: float) -> int:
        """Columns of torus_angle; ValueError for another statistic, or a scale, which Haar measure lacks."""
        if statistic not in self.statistics:
            raise ValueError(f"statistic {statistic!r} not defined for conjugation; it has torus_angle")
        if scale != 1.0:
            raise ValueError(f"ensemble scale {scale:g} has no meaning on {self}, whose density is Haar measure")
        return len(root_data(self.group).roots)  # the full angles: all n on SU(n)

    def ensemble_statistics(self, spec, rng: np.random.Generator, size: int) -> np.ndarray:
        """Canonical angles of a batch's size Haar draws from rng: their sorted eigen-angles (canonical_angles)."""
        return canonical_angles(self.group, haar_sample_batch(self.group, rng, size))[:, spec.stat_index]

    def ensemble_reference(self, spec, n: int, seed: int):
        """Canonical angles of torus angle rows, uniform on the torus, weighted by
        Weyl's closed-form weight, with no weight-ratio spread: REF_GRID grid nodes
        at rank one, a fixed reference with no noise of its own (no n_eff), and
        REF_DRAWS section_coords rows drawn at seed above it, whose effective
        size is Kish's (sum w)^2 / sum w^2.  n is not read: the reference has one size."""
        rank = self.group.rank
        rows = ((np.arange(REF_GRID) * (TWO_PI / REF_GRID))[:, None] if rank == 1
                else self.section_coords(np.random.default_rng(seed), REF_DRAWS))
        weights = torus_weight_batch(self.group, rows)
        n_eff = None if rank == 1 else float(np.sum(weights) ** 2 / np.sum(weights * weights))
        return torus_canonical_angles(self.group, rows)[:, spec.stat_index], weights, None, n_eff


_ACTION_KEYS = {"direct_sum": {"kind", "field", "n", "k"}, "conjugation": {"kind", "family", "n"}}


def action_from_json(obj: dict) -> ActionSpec:
    """The action of its JSON object, which holds exactly the keys its kind reads."""
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _ACTION_KEYS:
        raise ValueError(f"unknown action kind {brief(kind)}")
    if extra := sorted(obj.keys() - _ACTION_KEYS[kind]):
        raise ValueError(f"a {kind} action takes no key {brief(*extra)}")
    if kind == "direct_sum":
        return DirectSumAction(ScalarField.parse(obj["field"]), _size(obj, "n"), _size(obj, "k"))
    return ConjugationAction(GroupSpec(Family.parse(obj["family"]), _size(obj, "n")))


def _size(obj: dict, key: str) -> int:
    """obj[key], which must be a JSON integer: not a bool, float or string."""
    value = obj[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {brief(value)}")
    return value


def _number(raw, where: str) -> float:
    """A JSON number, not a bool, as a float; where names its place in the point."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"point parse error at {where}: expected a number, got {brief(raw)}")
    try:
        return float(raw)
    except OverflowError:  # a JSON integer beyond the float range
        raise ValueError(f"point parse error at {where}: number too large for a float") from None


def _parse_entry(field: ScalarField, raw, i: int, j: int):
    """Entry (i, j) of a direct-sum point: a number, or its d real components (C, H)."""
    where, d = f"row {i + 1}, column {j + 1}", field.dim
    if isinstance(raw, list) and d > 1:
        if len(raw) != d:
            raise ValueError(f"point parse error at {where}: expected {d} components, got {brief(raw)}")
        parts = [_number(v, where) for v in raw]
    else:
        parts = [_number(raw, where)] + [0.0] * (d - 1)
    if field is COMPLEX:
        return complex(*parts)
    return parts if field is QUATERNION else parts[0]


# --- points, sections and the group action ---------------------------------

def act(action: ActionSpec, g: GroupElement, x: MatK) -> MatK:
    """Apply the group action: g x for representations, g x g^* else."""
    m = g.matrix if isinstance(g, GroupElement) else g
    return MatK(x.field, action.act_data(m.data, x.data))


def killing_field(action: ActionSpec, x_alg: MatK, p: MatK) -> MatK:
    """Value at p of the Killing field induced by the algebra element."""
    return MatK(p.field, action.killing_data(x_alg.data, p.data))


def embed_section(action: ActionSpec, coord) -> MatK:
    """Ambient section point from its coordinate: the top k x k block B of
    a direct sum, the torus angle vector of conjugation."""
    return action.embed_section(coord)


def section_coordinate(action: ActionSpec, s: MatK):
    """Coordinate of an ambient section point, the inverse of embed_section."""
    return action.section_coordinate(s)


# --- frames -----------------------------------------------------------------

class SectionFrame(NamedTuple):
    """Orthonormal real frames of T_s(section) and of its normal space."""

    tangent: np.ndarray  # (dim section, D)
    normal: np.ndarray   # (normal_dim, D)


def section_frame(action: ActionSpec, s: MatK) -> SectionFrame:
    """The kind's section_frames at one point, split at section_dim."""
    frames = action.section_frames(to_real_vector(s)[None])[0]
    return SectionFrame(frames[: action.section_dim], frames[action.section_dim :])


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
            padded = np.zeros(sv.shape[:-1] + self.images.shape[-1:])
            padded[..., : sv.shape[-1]] = sv
            self._svd = (u, padded, vh)
        return self._svd

    def isotropy_mask(self) -> np.ndarray:
        """Singular values at or below ISOTROPY_TOL times the largest: the isotropy directions."""
        sv = self.svd[1]
        return sv <= ISOTROPY_TOL * np.where(sv[..., :1] > 0, sv[..., :1], 1.0)

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
        """Order of a regular point's stabilizer in the Weyl group (the kind's weyl_stabilizer_order)."""
        return self.action.weyl_stabilizer_order(self.pts)

    def regularity(self) -> RegularityClass | np.ndarray:
        """Regular exactly when the isotropy algebra has the dimension of the
        principal one, h's (a direct sum's point then has full rank k, a
        group element's centralizer the group's rank); exceptional when a
        non-identity Weyl element also fixes the point, else singular."""
        regular = np.sum(self.isotropy_mask(), axis=-1) == self.n_h
        return _CLASSES[np.where(regular, np.where(self.weyl_stabilizer_order() > 1, 1, 0), 2)]


_CLASSES = np.array([RegularityClass.REGULAR, RegularityClass.EXCEPTIONAL, RegularityClass.SINGULAR])


def orbit_map_differentials(action: ActionSpec, pts: np.ndarray) -> OrbitMapDifferential:
    """The orbit maps at flat section points (m, D); frames @ images is exact on identity frames."""
    frames = action.section_frames(pts)
    return OrbitMapDifferential(algebra_split(action), pts, frames, frames @ killing_images(action, pts))


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
    no orthogonalization: the kind's ``split_rows`` selects them.
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
        images = batch_to_real(action.field, action.killing_data(self.data[:, None], units))
        return read_only(np.ascontiguousarray(np.swapaxes(images, 1, 2)))

    @property
    def m_operators(self) -> np.ndarray:
        """The operators of m_rows, a slice of the stack."""
        return self.operators[len(self.h_rows) + len(self.w_rows) :]


@functools.lru_cache(maxsize=None)
def algebra_split(action: ActionSpec) -> AlgebraSplit:
    return AlgebraSplit(action, *action.split_rows())


# --- regularity, isotropy, orbit spaces -------------------------------------

def isotropy_algebra(action: ActionSpec, p: MatK) -> np.ndarray:
    """Orthonormal basis of the algebra of the stabilizer of p, as flat rows."""
    diff = orbit_map_differential(action, p)
    return diff.svd[2][diff.isotropy_mask()] @ diff.split.rows


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
    """Canonical section point of the orbit through x; a batch of one of
    the kind's reduce.  Every reduction gives one representative per Weyl
    orbit, so x and g . x give the same point."""
    return from_real_vector(action.field, *action.shape, action.reduce(x.data[None])[0])


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
        draws = orbit_map_differentials(action, action.section_points(action.section_coords(rng, need)))
        regular = draws.regular_margin() > MIN_GAP
        kept.append(draws[regular])
        need -= int(np.sum(regular))
        if need == 0:  # one batch of the kept rows, their SVDs included
            pts, frames, images, *svd = (
                np.concatenate(a) for a in zip(*((d.pts, d.frames, d.images, *d.svd) for d in kept))
            )
            return OrbitMapDifferential(kept[0].split, pts, frames, images, tuple(svd))
    raise RuntimeError("failed to sample a regular section point")


def normalizer_sample(action: ActionSpec, rng: np.random.Generator) -> GroupElement:
    """Haar-like sample of the normalizer of the section; a batch of one."""
    return GroupElement(action.group, MatK(action.field, action.normalizer_samples(rng, 1)[0]))


# --- the direct sums' closed-form weight, section quadrature and exact draws

def section_weight_batch(action: DirectSumAction, z: np.ndarray) -> np.ndarray:
    """Closed-form weight at the section points with flat coordinates z (m, section_dim).

    The coordinates are those of B (k >= 2, with |det B|^2 = gram_det(B))
    or the real t of the polar line (k = 1).
    """
    d, n, k = action.field.dim, action.n, action.k
    if k == 1:
        const = 2.0 ** (-d * (n - 1) / 2.0) * (np.sqrt((n - 1) / n) if action.field is COMPLEX else 1.0)
        return const * polar_root_data(action.field, n).weight(z)
    dets = gram_det(action.field, z.reshape(z.shape[0], k, k, d))
    return 2.0 ** (-d * k * (n - k) / 2.0) * dets ** (d * (n - k) / 2.0)


def _golub_welsch(alpha: np.ndarray, offdiag: np.ndarray, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule (nodes, weights) of the Jacobi matrix of a three-term
    recurrence: the nodes are its eigenvalues, the weights the mass times
    the squared first components of its eigenvectors.  Both arrays are
    read-only, because the rules are cached and shared."""
    jacobi = np.diag(alpha) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
    nodes, vecs = np.linalg.eigh(jacobi)
    weights = mass * vecs[0] ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=None)
def hermite_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss rule for e^(-x^2/2) on the line, from the recurrence
    x He_j = He_(j+1) + j He_(j-1) of the probabilists' Hermite polynomials."""
    return _golub_welsch(np.zeros(m), np.sqrt(np.arange(1.0, m)), np.sqrt(TWO_PI))


@functools.lru_cache(maxsize=None)
def half_range_rule(a: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss rule for r^a e^(-r^2/2) on [0, inf).

    The recurrence comes from the moments
    mu_j = 2^((a+j-1)/2) Gamma((a+j+1)/2) through the upper Cholesky
    factor U of their Hankel matrix (Golub and Welsch, Math. Comp. 23,
    1969): alpha_j = U[j,j+1]/U[j,j] - U[j-1,j]/U[j-1,j-1] and
    sqrt(beta_j) = U[j,j]/U[j-1,j-1].  The Hankel matrix is
    ill-conditioned in m and a; the 4- and 5-point rules reproduce their
    moments to about 5e-14 for every a up to 127, the 8-point rule to
    about 1e-12 up to a = 31.
    """
    mu = [2.0 ** ((a + j - 1) / 2) * math.gamma((a + j + 1) / 2) for j in range(2 * m + 1)]
    u = np.linalg.cholesky(np.array([mu[i : i + m + 1] for i in range(m + 1)])).T
    diag = np.diag(u)
    step = np.diag(u, 1) / diag[:-1]
    alpha = step - np.concatenate([[0.0], step[:-1]])
    return _golub_welsch(alpha, diag[1:m] / diag[: m - 1], mu[0])


@functools.lru_cache(maxsize=None)
def _bartlett_axes(action: DirectSumAction) -> tuple[tuple[tuple[int, int | None], ...], int, float]:
    """Axes of the section integral in the coordinates B = wR, the
    weight's power of each diagonal entry, and the constant.

    One axis per real coordinate of R: (column of z, b_i) for the
    diagonal entry r_ii, whose Jacobian is r_ii^(b_i) with
    b_i = d(k - i + 1) - 1 (i from 1), and (column of z, None) for each
    real component of an entry above it.  The weight is a constant times
    r_ii^p on each diagonal entry, p = d(n - k).  The polar section
    (k = 1) is the line, one diagonal axis with b = 0 counted twice and
    a weight of a constant times |t|^p, p = dn - 1.  The constant C makes
    the Jacobian exact on e^(-|B|^2/2): its integral (2 pi)^(D/2) over
    the D-dimensional section equals C times the product of the axes'
    masses.  So the density e^(-|B|^2/2) * weight is a product law on R
    (Bartlett's decomposition; Edelman and Rao, Acta Numerica 2005):
    r_ii ~ chi with b_i + p + 1 = d(n - i + 1) degrees of freedom, t >= 0
    ~ chi_(dn) on the polar line, and N(0, 1) on each axis above the
    diagonal.
    """
    d, n, k = action.field.dim, action.n, action.k
    power = d * n - 1 if k == 1 else d * (n - k)
    width = action.section_dim // (k * k)  # real dimension of an entry: 1 on the polar line
    axes = []
    for i in range(k):
        axes.append(((i * k + i) * width, width * (k - i) - 1))
        axes += [((i * k + j) * width + c, None) for j in range(i + 1, k) for c in range(width)]
    log_mass = sum(
        0.5 * np.log(TWO_PI) if b is None else 0.5 * (b - 1) * np.log(2.0) + math.lgamma((b + 1) / 2)
        for _, b in axes
    )
    return tuple(axes), power, float(np.exp(0.5 * action.section_dim * np.log(TWO_PI) - log_mass))


def bartlett_draws(action: DirectSumAction, rng: np.random.Generator, count: int) -> np.ndarray:
    """count exact draws (count, section_dim) of the section density
    e^(-|B|^2/2) * weight of a direct sum: the triangular R of B = wR,
    with its law of _bartlett_axes, filled axis by axis."""
    axes, power, _ = _bartlett_axes(action)
    z = np.zeros((count, action.section_dim))
    for col, b in axes:
        z[:, col] = rng.standard_normal(count) if b is None else np.sqrt(rng.chisquare(b + power + 1, count))
    return z


# --- ensemble references ----------------------------------------------------

def _coordinate_statistics(spec, field: ScalarField, comps: np.ndarray) -> np.ndarray:
    """The spec's direct-sum statistic of a stack of matrices given as real components (m, r, k, d).

    All statistics are invariant under unitary maps from the left, so an
    ambient sample and its section coordinate give the same value.
    """
    if spec.statistic == "coordinate_norm":
        return np.linalg.norm(comps.reshape(comps.shape[0], -1), axis=1)
    if spec.statistic == "coordinate_det":
        return np.sqrt(gram_det(field, comps))
    sv = np.linalg.svd(data_from_components(field, comps), compute_uv=False)
    return sv[:, :: side(field)][:, spec.stat_index]  # the adjoint matrix doubles each value over H
