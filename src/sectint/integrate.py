"""Monte Carlo and quadrature engines for both sides of the reduced
integration identity.

The direct side integrates over the ambient space by Monte Carlo
(Gaussian importance sampling on the flat matrix space, or Haar sampling
scaled by the group volume for conjugation actions).  It takes a list of
integrands and evaluates all of them at once on the joined draws of a
batch of chunks, so ``sectint integrate`` samples once for all its
integrands.  The reduced side integrates f * weight over the section by
deterministic quadrature and multiplies by a given vol(G/N);
``sectint integrate`` passes the exact vol(G/H) / vol(W); one call
serves all its integrands.
Conjugation actions take a trapezoid rule on the torus angles, whose
weight is Weyl's closed form ``weights.torus_weight_batch``.  Direct
sums take a tensor Gauss rule in the Bartlett coordinates B = wR of the
section coordinate (w in W = U_d(k), R upper triangular with a positive
diagonal; Edelman and Rao, Acta Numerica 2005): Gauss-Hermite axes above
the diagonal and half-range Gauss axes, built by Golub-Welsch, on it.
Their weight is the closed form ``weights.section_weight_batch``, a
constant times prod r_ii^(d(n-k)), or |t|^(dn-1) on the polar line
(k = 1); ``bartlett_draws`` samples the same axes exactly for the
ensemble reference.  Both rules are sized from the polynomial degree
per axis that the integrand's family declares, so that fine and coarse
are exact (fixed sizes where it declares none), and report
|fine - coarse| as their error.  Both sides refuse an integral
that diverges: a ``gaussian_det`` power too negative, or ``const`` on
the flat space of a direct sum.  On conjugation ``const`` reads no
point, so its direct side is exact and draws nothing.
``calibrate_vol_gn`` estimates vol(G/N) instead, as direct / reduced per
integrand with a cross-check of the ratios between integrands, each
direct side on its own seed so that the ratios are independent;
``sectint volumes`` tests it against the exact value.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .matrices import batch_to_real, gaussian_batch, gram_det
from .groups import _torus_grid, full_torus_angles, haar_from_gaussian, torus_points
from .actions import ActionSpec, ConjugationAction, DirectSumAction, action_to_json, section_points
from .weights import _positive_roots, section_weight_batch, torus_weight_batch
from .mc import McEstimate, _subseed, mc_run, product, ratio, require_samples
from .volumes import group_volume, torus_volume

TWO_PI = 2.0 * np.pi
# relative floor of the quadrature error proxies: the rules are exact on the
# torus weight's trigonometric polynomials and on polynomials times the
# Gaussian in the Bartlett coordinates, where |fine - coarse| reads 0
QUADRATURE_REL_FLOOR = 64 * np.finfo(float).eps
#: torus nodes per angle by rank (12 above rank 3) of an integrand without a degree; coarse: half
TORUS_GRID = {1: 256, 2: 48, 3: 20}
#: Bartlett nodes per axis of an integrand without a degree; coarse: one fewer
GAUSS_NODES = 5
#: largest direct-sum reduced rule evaluated, in nodes of its fine rule
MAX_RULE_NODES = 5 ** 10
#: rule nodes or exact draws per evaluation block; bounds the (block, D) point arrays
_ROW_BLOCK = 4096


class ContractViolation(ValueError):
    """An integrand was used outside its declared contract."""


class IllConditionedCalibration(RuntimeError):
    """Calibration denominator is statistically indistinguishable from 0."""


# --- integrands --------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Named integrand family evaluated on flat real coordinates."""

    name: str
    params: dict = field(default_factory=dict)
    invariant: bool = True
    fn: object = None  # custom callable (points, action) -> values

    def to_json(self) -> dict:
        return {"name": self.name, "params": dict(self.params), "invariant": self.invariant}

    def param(self, key: str) -> float:
        """One of the family's parameters: its given value, else the default in _FAMILIES."""
        return float(self.params.get(key, _FAMILIES[self.name][1][key]))

    def degree(self) -> int | None:
        """The degree per axis declared in _FAMILIES; a power only if it is a nonnegative integer."""
        declared = None if self.fn is not None else _FAMILIES[self.name][2]
        if isinstance(declared, str):
            power = self.param(declared)
            return int(power) if power >= 0 and power.is_integer() else None
        return declared


def make_test_function(name: str, **params) -> TestFunction:
    if name not in _FAMILIES:
        raise ValueError(f"unknown test function {name!r}; known: {sorted(_FAMILIES)}")
    declared = _FAMILIES[name][1]
    for key in params:
        if key not in declared:
            raise ValueError(f"{name} has no parameter {key!r}; its parameters: {sorted(declared) or 'none'}")
    if "sigma" in params:
        sigma = float(params["sigma"])
        if sigma == 0.0 or not math.isfinite(sigma):
            raise ValueError(f"{name}: sigma must be finite and nonzero, got {sigma}")
    return TestFunction(name, params, name != "first_coordinate")


def custom_test_function(name: str, fn, invariant: bool) -> TestFunction:
    return TestFunction(name, {}, invariant, fn)


def _stacked_values(action: ActionSpec, fs, pts: np.ndarray, norms_sq: np.ndarray | None = None) -> np.ndarray:
    """The (len(fs), m) values of every f in fs at (m, D) points, one row
    per integrand; norms_sq is their squared norms when the caller already
    has them (the families that need them compute them otherwise)."""
    return np.stack([_FAMILIES[f.name][0](action, pts, f, norms_sq) if f.fn is None
                     else np.asarray(f.fn(pts, action), dtype=float) for f in fs])


def _norms_sq(pts, norms_sq):
    return np.sum(pts * pts, axis=1) if norms_sq is None else norms_sq


def _fam_gaussian_radial(action, pts, f, norms_sq):
    sigma = f.param("sigma")
    return np.exp(-_norms_sq(pts, norms_sq) / (2.0 * sigma * sigma))


def _fam_gaussian_sq_norm(action, pts, f, norms_sq):
    sigma = f.param("sigma")
    r2 = _norms_sq(pts, norms_sq)
    return r2 * np.exp(-r2 / (2.0 * sigma * sigma))


def section_coordinate_det(action: DirectSumAction, pts: np.ndarray) -> np.ndarray:
    """|det| (Dieudonne modulus over H) of the reduced k x k coordinate.

    Computed invariantly from the ambient points (m, D) as
    sqrt(gram_det), which equals the determinant modulus of the
    canonical section coordinate of each point.
    """
    comps = pts.reshape(pts.shape[0], action.n, action.k, action.field.dim)
    return np.sqrt(gram_det(action.field, comps))


def _fam_gaussian_det(action, pts, f, norms_sq):
    if not isinstance(action, DirectSumAction):
        raise ContractViolation("gaussian_det integrand needs a direct-sum action")
    sigma, power = f.param("sigma"), f.param("power")
    return section_coordinate_det(action, pts) ** power * np.exp(
        -_norms_sq(pts, norms_sq) / (2.0 * sigma * sigma)
    )


def _real_trace(action: ConjugationAction, pts: np.ndarray) -> np.ndarray:
    n, d = action.group.n, action.field.dim
    idx = [(a * n + a) * d for a in range(n)]
    return np.sum(pts[:, idx], axis=1)


def _fam_trace_power(action, pts, f, norms_sq):
    if not isinstance(action, ConjugationAction):
        raise ContractViolation("trace_power integrand needs a conjugation action")
    if f.degree() is None:  # weight * tr^p is a trigonometric polynomial only at integer p >= 0
        raise ContractViolation(f"trace_power: the power must be a nonnegative integer, got {f.param('power'):g}")
    return _real_trace(action, pts) ** f.degree()


def _fam_const(action, pts, f, norms_sq):
    return np.full(pts.shape[0], f.param("value"))


def _fam_first_coordinate(action, pts, f, norms_sq):
    # deliberately not invariant; used as a negative control
    return pts[:, 0]


#: each family's function, its parameters with their defaults (make_test_function
#: refuses any other), and its degree per axis (times the Bartlett rule's Gaussian,
#: trigonometric per torus angle): a number, a parameter's name, or None
_FAMILIES = {
    "gaussian_radial": (_fam_gaussian_radial, {"sigma": 1.0}, 0),
    "gaussian_sq_norm": (_fam_gaussian_sq_norm, {"sigma": 1.0}, 2),
    "gaussian_det": (_fam_gaussian_det, {"sigma": 1.0, "power": 1.0}, "power"),
    "trace_power": (_fam_trace_power, {"power": 2.0}, "power"),
    "const": (_fam_const, {"value": 1.0}, 0),
    "first_coordinate": (_fam_first_coordinate, {}, None),
}


def _is_const(f: TestFunction) -> bool:
    return f.fn is None and f.name == "const"


def _require_integrable(action: ActionSpec, fs) -> None:
    """Refuse an integral that diverges: a constant over the flat space of
    a direct sum, and gaussian_det at a power p <= -d(n - k + 1), where
    the Jacobian of the last Bartlett axis is r^(d(n - k + 1) - 1)."""
    if not isinstance(action, DirectSumAction):
        return
    bound = -action.field.dim * (action.n - action.k + 1)
    for f in fs:
        if _is_const(f):
            raise ContractViolation(f"const: the integral of a constant over the flat space of {action} diverges")
        if f.fn is None and f.name == "gaussian_det" and f.param("power") <= bound:
            raise ContractViolation(f"gaussian_det: the integral of |det|^p diverges on {action} "
                                    f"at p = {f.param('power'):g}")


# --- direct and reduced integrals --------------------------------------------

def _direct_values_fn(action: ActionSpec, fs):
    """mc_run's sample(rngs, sizes): the (len(fs), sum(sizes)) values of
    every integrand on one draw per sample, ready to average.  Each chunk
    draws from its own generator in turn, and the joined draws of the
    batch are evaluated at once."""
    if isinstance(action, DirectSumAction):
        dim = action.ambient_dim
        log_norm = 0.5 * dim * np.log(TWO_PI)

        def sample(rngs: list[np.random.Generator], sizes: list[int]) -> np.ndarray:
            z = np.empty((sum(sizes), dim))
            stop = 0
            for rng, size in zip(rngs, sizes):
                start, stop = stop, stop + size
                rng.standard_normal(out=z[start:stop])
            r2 = np.sum(z * z, axis=1)
            return _stacked_values(action, fs, z, r2) * np.exp(0.5 * r2 + log_norm)

        return sample

    group = action.group

    def sample(rngs: list[np.random.Generator], sizes: list[int]) -> np.ndarray:
        draws = np.concatenate([gaussian_batch(group.field, group.n, group.n, rng, size)
                                for rng, size in zip(rngs, sizes)])
        pts = batch_to_real(action.field, haar_from_gaussian(group, draws))
        return _stacked_values(action, fs, pts)

    return sample


def integrate_direct(action: ActionSpec, fs, seed: int, n: int, chunks: int = 16,
                     workers: int | None = None) -> list[McEstimate]:
    """Integrals of each f in fs over the ambient space with its
    Riemannian measure, one estimate per integrand.

    Flat direct-sum spaces use standard-Gaussian importance sampling
    (the integrands must decay accordingly); conjugation actions average
    over Haar samples and scale by the group volume.  Each chunk draws
    once from its own generator, and every integrand is evaluated on the
    joined draws of a batch of chunks (mc.mc_run), so the estimates
    share their samples, and each one is bit-identical to the run of
    integrate_direct(action, [f], seed, n, chunks) on its own.  On a
    conjugation action a const integrand reads no point: its average is
    its value with stderr 0, and the group is drawn only if some other
    integrand reads points.
    """
    fs = list(fs)
    _require_integrable(action, fs)
    if isinstance(action, DirectSumAction):
        return mc_run(_direct_values_fn(action, fs), n, seed, chunks, workers)
    require_samples(n)
    drawn = [f for f in fs if not _is_const(f)]
    means = iter(mc_run(_direct_values_fn(action, drawn), n, seed, chunks, workers) if drawn else ())
    ests = [McEstimate(f.param("value"), 0.0, n, seed, chunks) if _is_const(f) else next(means)
            for f in fs]
    vol = group_volume(action.group)
    return [product(est, vol) for est in ests]


def _torus_rule(action: ConjugationAction, fs, grid: int) -> np.ndarray:
    """Trapezoid rule with grid nodes per angle of the torus cube, one
    value per f in fs from one evaluation of Weyl's closed-form weight:
    exact on trigonometric polynomials of degree below grid per angle."""
    angles = _torus_grid(action.group.rank, grid)
    vals = _stacked_values(action, fs, torus_points(action.group, angles)) * torus_weight_batch(action.group, angles)
    return np.mean(vals, axis=1) * torus_volume(action.group)


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
    masses.
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


def bartlett_draws(action: DirectSumAction, rng: np.random.Generator, count: int):
    """count exact draws of the section density e^(-|B|^2/2) * weight of
    a direct sum, yielded in blocks of at most _ROW_BLOCK draws: the
    draws (block, section_dim) as triangular R, and per draw the log of
    e^(-|R|^2/2) times the Jacobian prod r_ii^(b_i) over the draws'
    density.  That log is minus the log of the weight plus one constant,
    so section_weight_batch times its exp is the same at every draw.

    In the coordinates B = wR of _bartlett_axes the law is a product
    (Bartlett's decomposition; Edelman and Rao, Acta Numerica 2005):
    r_ii ~ chi with nu_i = b_i + p + 1 = d(n - i + 1) degrees of freedom
    on each diagonal axis and N(0, 1) on each axis above it; on the
    polar line (k = 1) |t| ~ chi_(dn) with a random sign.  All count
    draws are made first, the axes in their order into one (axes, count)
    array, then the signs, so the stream does not depend on the blocks;
    only a block's rows are ever laid out as R.
    """
    axes, power, _ = _bartlett_axes(action)
    draws = np.empty((len(axes), count))
    for row, (_, b) in zip(draws, axes):
        row[:] = rng.standard_normal(count) if b is None else np.sqrt(rng.chisquare(b + power + 1, count))
    signs = np.where(rng.random(count) < 0.5, -1.0, 1.0) if action.k == 1 else None
    for lo in range(0, count, _ROW_BLOCK):
        block = draws[:, lo : lo + _ROW_BLOCK]
        rows = block.shape[1]
        z = np.zeros((rows, action.section_dim))
        log_q = np.full(rows, -np.log(2.0) if action.k == 1 else 0.0)  # the sign halves the polar density
        log_jacobian = np.zeros(rows)
        for (col, b), x in zip(axes, block):
            if b is None:
                log_q -= 0.5 * (x * x + np.log(TWO_PI))
            else:
                nu = b + power + 1
                log_q += (nu - 1) * np.log(x) - 0.5 * x * x - (0.5 * nu - 1) * np.log(2.0) - math.lgamma(0.5 * nu)
                log_jacobian += b * np.log(x)
            z[:, col] = x
        if signs is not None:
            z[:, 0] *= signs[lo : lo + rows]
        yield z, log_jacobian - 0.5 * np.sum(z * z, axis=1) - log_q


def _bartlett_rule(action: DirectSumAction, fs, sigma: float, m: int) -> np.ndarray:
    """Tensor Gauss rule, m nodes per axis, for the section integral of
    f * weight over the section of a direct sum, one value per f in fs,
    which share sigma and so one evaluation of the weight.

    f and the weight are W-invariant, so the integral over B = wR is one
    over the triangular R: Gauss-Hermite axes above the diagonal, and on
    it half-range axes for r^(b_i + p) e^(-r^2/2), the Jacobian times the
    weight's power.  Each axis weight carries e^(x^2/2), each diagonal
    one divides out x^p, so the rule is exact where f is a polynomial of
    degree 2m - 1 per axis times e^(-|B|^2/(2 sigma^2)), at every n.
    """
    axes, power, const = _bartlett_axes(action)
    rules = [hermite_rule(m) if b is None else half_range_rule(b + power, m) for _, b in axes]
    nodes = [sigma * x for x, _ in rules]
    weights = [
        w * np.exp(0.5 * x * x) / (1.0 if b is None else x ** power)
        for (_, b), (x, w) in zip(axes, rules)
    ]
    count = m ** len(axes)
    totals = np.zeros(len(fs))
    for lo in range(0, count, _ROW_BLOCK):
        digits = np.unravel_index(np.arange(lo, min(lo + _ROW_BLOCK, count)), (m,) * len(axes))
        z = np.zeros((digits[0].size, action.section_dim))
        w = np.ones(digits[0].size)
        for (col, _), x, wx, idx in zip(axes, nodes, weights, digits):
            z[:, col] = x[idx]
            w *= wx[idx]
        vals = _stacked_values(action, fs, section_points(action, z)) * section_weight_batch(action, z)
        totals += [w @ row for row in vals]
    return totals * const * sigma ** action.section_dim


def _rule_sizes(action: ActionSpec, f: TestFunction) -> tuple[int, int]:
    """(fine, coarse) nodes per axis of f's rule, both exact on the degree f
    declares: an m-node Gauss rule to degree 2m - 1, an m-node trapezoid
    rule below degree m, here that of f times Weyl's weight (per free
    angle, the sum of its |coefficient| over the positive roots).  The
    floors put the common families into one rule.  An integrand without a
    degree takes TORUS_GRID and half, or GAUSS_NODES and one fewer, the
    cap of every Gauss rule (past it a rule outgrows MAX_RULE_NODES sooner
    and loses digits): coarse rules are exact to degree 7, fine ones to 9."""
    degree = f.degree()
    if isinstance(action, ConjugationAction):
        if degree is None:
            grid = TORUS_GRID.get(action.group.rank, 12)
            return grid, grid // 2
        roots = full_torus_angles(action.group, np.eye(action.group.rank)) @ _positive_roots(action.group)
        coarse = int(np.max(np.sum(np.abs(roots), axis=1))) + max(degree, 4) + 1
    elif degree is None:
        return GAUSS_NODES, GAUSS_NODES - 1
    else:
        coarse = min(max(2, degree // 2 + 1), GAUSS_NODES - 1)
    return coarse + 1, coarse


def integrate_reduced(action: ActionSpec, fs, vol_gn: float | McEstimate) -> list[McEstimate]:
    """vol(G/N) times the weighted section integral of each invariant f
    in fs, one estimate per integrand.

    The section integral is deterministic quadrature: a trapezoid rule
    on the torus angles for conjugation actions, a tensor Gauss rule in
    the coordinates B = wR for direct sums, scaled to the integrand's
    ``sigma`` (default 1).  Each integrand's rule is sized by
    _rule_sizes.  The stderr is the gap to the coarse rule, floored at
    QUADRATURE_REL_FLOOR relative, and n_samples the fine rule's nodes.
    Integrands with the same rule and sigma share each evaluation of the
    weight; each estimate is bit-identical to the call with [f] alone.
    A direct-sum rule above MAX_RULE_NODES raises ValueError first.
    """
    fs = list(fs)
    if not all(f.invariant for f in fs):
        raise ContractViolation("reduced integration needs a group-invariant integrand")
    _require_integrable(action, fs)
    vol_est = vol_gn if isinstance(vol_gn, McEstimate) else McEstimate.exact(float(vol_gn))

    if isinstance(action, ConjugationAction):
        n_axes = action.group.rank
        keys = [(None, *_rule_sizes(action, f)) for f in fs]
    else:
        n_axes = len(_bartlett_axes(action)[0])
        # the rule scales to a Gaussian family's sigma; any other integrand takes the unit rule
        keys = [(abs(f.param("sigma")) if f.fn is None and "sigma" in _FAMILIES[f.name][1] else 1.0,
                 *_rule_sizes(action, f)) for f in fs]
        m = max((fine for _, fine, _ in keys), default=0)
        if m ** n_axes > MAX_RULE_NODES:
            raise ValueError(f"the reduced rule of {action} needs {m ** n_axes} nodes ({m} on each of "
                             f"{n_axes} axes), more than {MAX_RULE_NODES}")
    value, err = np.empty(len(fs)), np.empty(len(fs))
    for key in dict.fromkeys(keys):
        sigma, fine, coarse = key
        rows = [i for i, other in enumerate(keys) if other == key]
        group = [fs[i] for i in rows]
        rule = (lambda g: _torus_rule(action, group, g)) if sigma is None else (
            lambda g: _bartlett_rule(action, group, sigma, g))
        value[rows] = rule(fine)  # |fine - coarse| reads 0 where both rules are exact
        err[rows] = np.maximum(np.abs(value[rows] - rule(coarse)), QUADRATURE_REL_FLOOR * np.abs(value[rows]))
    return [product(McEstimate(float(v), float(e), fine ** n_axes, 0, 1), vol_est)
            for v, e, (_, fine, _) in zip(value, err, keys)]


def mc_result_json(action: ActionSpec, f: TestFunction, est: McEstimate) -> dict:
    """Flat serialization of one estimate with its full provenance."""
    out = est.to_json()
    out["action"] = action_to_json(action)
    out["function"] = f.to_json()
    return out


@dataclass(frozen=True)
class CalibrationReport:
    """Per-integrand quotient-volume ratios and their mutual agreement."""

    ratios: tuple[McEstimate, ...]
    combined: McEstimate
    consistent: bool
    worst_sigma: float


def calibrate_vol_gn(
    action: ActionSpec,
    fs,
    seed: int,
    n: int,
    chunks: int = 16,
    workers: int | None = None,
    n_sigma: float = 3.0,
) -> CalibrationReport:
    """Estimate vol(G/N) as direct/reduced per integrand and cross-check.

    Agreement of the ratios across independent integrands is the
    practical consistency test of the underlying fibration identity.
    """
    fs = list(fs)
    if len(fs) < 2:
        raise ValueError("calibration needs at least two independent integrands")
    ratios = []
    for i, (f, reduced_unit) in enumerate(zip(fs, integrate_reduced(action, fs, 1.0))):
        if abs(reduced_unit.mean) <= max(5.0 * reduced_unit.stderr, 1e-200):
            raise IllConditionedCalibration(f"section integral of {f.name} is consistent with zero")
        [direct] = integrate_direct(action, [f], _subseed(seed, i, 0), n, chunks, workers)
        ratios.append(ratio(direct, reduced_unit))
    worst = 0.0
    for a, b in itertools.combinations(ratios, 2):
        gap, se = abs(a.mean - b.mean), float(np.hypot(a.stderr, b.stderr))
        worst = max(worst, gap / se if se > 0 else (0.0 if gap == 0 else np.inf))
    weights = np.array([1.0 / max(r.stderr, 1e-150) ** 2 for r in ratios])
    if not np.all(np.isfinite(weights)):
        weights = np.ones(len(ratios))
    mean = float(np.sum(weights * [r.mean for r in ratios]) / np.sum(weights))
    se = float(np.sqrt(1.0 / np.sum(weights)))
    combined = McEstimate(mean, se, sum(r.n_samples for r in ratios), seed, chunks)
    return CalibrationReport(tuple(ratios), combined, worst <= n_sigma, worst)
