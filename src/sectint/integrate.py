"""Monte Carlo and quadrature engines for both sides of the reduced
integration identity.

The direct side integrates over the ambient space by Monte Carlo with
the kind's sampler (Gaussian importance sampling on the flat matrix
space, or Haar sampling scaled by the group volume for conjugation
actions), evaluating a list of integrands at once on the draws of each
Monte Carlo batch, so ``sectint integrate`` samples once for all of
them; (seed, n) fixes the draws (``mc.BATCH_DRAWS`` fixes the streams).
The reduced side integrates f * weight over the section by
``ActionSpec.section_rule`` on the kind's ``section_axes`` (trapezoid on
the torus angles, Gauss in the Bartlett coordinates of a direct sum) and
multiplies by a given vol(G/N) (``sectint integrate``: vol(G/H) / vol(W)).
Both rules are sized from the polynomial degree per axis that the
integrand's family declares, so that fine and coarse are exact (fixed
sizes where it declares none), and report |fine - coarse| as their
error.  Both sides refuse an integrand outside its contract before
evaluating it: a family declared for the other kind of action, or an
integral that diverges (the kind's ``divergence``).  A ``const``
integrand reads no point, so its direct side is exact and draws
nothing.  ``calibrate_vol_gn`` estimates vol(G/N) instead, as direct /
reduced per integrand with a cross-check of the ratios between
integrands, each direct side on its own seed so that the ratios are
independent; ``sectint volumes`` tests it against the exact value.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .fields import brief
from .matrices import gram_det
from .actions import ActionSpec, ConjugationAction, DirectSumAction
from .weights import section_weight_batch  # noqa: F401  perfbench/tracing.py traces this binding
from .mc import McEstimate, mc_run, product, ratio, require_samples, subseed

# relative floor of the quadrature error proxies: the rules are exact on the
# torus weight's trigonometric polynomials and on polynomials times the
# Gaussian in the Bartlett coordinates, where |fine - coarse| reads 0
QUADRATURE_REL_FLOOR = 64 * np.finfo(float).eps
#: largest reduced rule evaluated, in nodes of its fine rule
MAX_RULE_NODES = 5 ** 10


class ContractViolation(ValueError):
    """An integrand was used outside its declared contract."""


class IllConditionedCalibration(ValueError):
    """Calibration denominator is statistically indistinguishable from 0: bad input."""


# --- integrands --------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Named integrand family evaluated on flat real coordinates."""

    name: str
    params: dict = field(default_factory=dict)
    invariant: bool = True  # every family is; a custom fn may not be
    fn: object = None  # custom callable (points, action) -> values

    def to_json(self) -> dict:
        return {"name": self.name, "params": dict(self.params), "invariant": self.invariant}

    def param(self, key: str) -> float:
        """One of the family's parameters: its given value, else the default in _FAMILIES."""
        return float(self.params.get(key, _FAMILIES[self.name].params[key]))

    def degree(self) -> int | None:
        """The degree per axis declared in _FAMILIES; a power only if it is a nonnegative integer."""
        declared = None if self.fn is not None else _FAMILIES[self.name].degree
        if isinstance(declared, str):
            power = self.param(declared)
            return int(power) if power >= 0 and power.is_integer() else None
        return declared


def make_test_function(name: str, **params) -> TestFunction:
    if name not in _FAMILIES:
        raise ValueError(f"unknown test function {brief(name)}; known: {sorted(_FAMILIES)}")
    declared = _FAMILIES[name].params
    for key in params:
        if key not in declared:
            raise ValueError(f"{name} has no parameter {brief(key)}; its parameters: {sorted(declared) or 'none'}")
    if "sigma" in params:
        sigma = float(params["sigma"])
        if sigma == 0.0 or not math.isfinite(sigma):
            raise ValueError(f"{name}: sigma must be finite and nonzero, got {sigma}")
    return TestFunction(name, params)


def _stacked_values(action: ActionSpec, fs, pts: np.ndarray, norms_sq: np.ndarray | None = None) -> np.ndarray:
    """The (len(fs), m) values of every f in fs at (m, D) points, one row
    per integrand; norms_sq is their squared norms when the caller already
    has them (the families that need them compute them otherwise)."""
    return np.stack([_FAMILIES[f.name].fn(action, pts, f, norms_sq) if f.fn is None
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
    sigma, power = f.param("sigma"), f.param("power")
    return section_coordinate_det(action, pts) ** power * np.exp(
        -_norms_sq(pts, norms_sq) / (2.0 * sigma * sigma)
    )


def _real_trace(action: ConjugationAction, pts: np.ndarray) -> np.ndarray:
    n, d = action.group.n, action.field.dim
    idx = [(a * n + a) * d for a in range(n)]
    return np.sum(pts[:, idx], axis=1)


def _fam_trace_power(action, pts, f, norms_sq):
    return _real_trace(action, pts) ** f.degree()


def _fam_const(action, pts, f, norms_sq):
    return np.ones(pts.shape[0])


#: each family's function, its parameters with their defaults (make_test_function refuses
#: any other), its degree per axis (times the Bartlett rule's Gaussian, trigonometric per
#: torus angle): a number, a parameter's name, or None, and the kind of action it needs
IntegrandFamily = namedtuple("IntegrandFamily", "fn params degree kind", defaults=(None,))
_FAMILIES = {
    "gaussian_radial": IntegrandFamily(_fam_gaussian_radial, {"sigma": 1.0}, 0),
    "gaussian_sq_norm": IntegrandFamily(_fam_gaussian_sq_norm, {"sigma": 1.0}, 2),
    "gaussian_det": IntegrandFamily(_fam_gaussian_det, {"sigma": 1.0, "power": 1.0}, "power", DirectSumAction),
    "trace_power": IntegrandFamily(_fam_trace_power, {"power": 2.0}, "power", ConjugationAction),
    "const": IntegrandFamily(_fam_const, {}, 0),
}


def _is_const(f: TestFunction) -> bool:
    return f.fn is None and f.name == "const"


def _require_integrable(action: ActionSpec, fs) -> None:
    """Refuse an integrand outside its contract before any evaluation: a
    family on another kind of action than the one it declares, and one
    whose integral diverges on the action (the kind's divergence)."""
    for f in fs:
        if f.fn is not None:
            continue
        kind = _FAMILIES[f.name].kind
        if kind is not None and not isinstance(action, kind):
            raise ContractViolation(f"{f.name} integrand needs a {kind.__name__}, not {action}")
        reason = action.divergence(f.name, f.param)
        if reason:
            raise ContractViolation(f"{f.name}: {reason}")


# --- direct and reduced integrals --------------------------------------------

def integrate_direct(action: ActionSpec, fs, seed: int, n: int, workers: int | None = None) -> list[McEstimate]:
    """Integrals of each f in fs over the ambient space with its
    Riemannian measure, one estimate per integrand.

    The kind's direct_sampler draws the points: standard-Gaussian
    importance sampling on flat direct-sum spaces (the integrands must
    decay accordingly), Haar samples on conjugation actions, whose
    averages scale by the group volume.  Each
    batch of mc.mc_run draws once from its own generator, and every
    integrand is evaluated on those draws, so the estimates share their
    samples, and each one is bit-identical to the run of
    integrate_direct(action, [f], seed, n) on its own.
    A const integrand, 1, reads no point: its average is 1 with stderr
    0, and the points are drawn only if some other integrand reads them.
    """
    fs = list(fs)
    _require_integrable(action, fs)
    require_samples(n)
    drawn = [f for f in fs if not _is_const(f)]
    sample, vol = action.direct_sampler(lambda pts, norms_sq: _stacked_values(action, drawn, pts, norms_sq))
    means = iter(mc_run(sample, n, seed, workers) if drawn else ())
    ests = [McEstimate(1.0, 0.0, n) if _is_const(f) else next(means) for f in fs]
    return [product(est, vol) for est in ests]


def integrate_reduced(action: ActionSpec, fs, vol_gn: float) -> list[McEstimate]:
    """vol_gn, an exact vol(G/N), times the weighted section integral of
    each invariant f in fs, one estimate per integrand.  To scale by an
    estimated vol(G/N), take the mc.product of the call at 1.0 with it.

    The section integral is the deterministic section_rule on the kind's
    axes, scaled to the integrand's ``sigma`` (default 1) where the
    section is flat, with the (fine, coarse) nodes per axis of the kind's
    rule_sizes, both exact on the degree f declares.  The stderr is the
    gap to the coarse rule, floored at QUADRATURE_REL_FLOOR relative, and
    n_samples the fine rule's nodes.  Integrands with the same rule and
    sigma share each evaluation of the weight; each estimate is
    bit-identical to the call with [f] alone.  A rule above
    MAX_RULE_NODES raises ValueError first.
    """
    fs = list(fs)
    if not all(f.invariant for f in fs):
        raise ContractViolation("reduced integration needs a group-invariant integrand")
    _require_integrable(action, fs)
    vol_est = McEstimate.exact(vol_gn)
    # the rule scales to a Gaussian family's sigma; any other integrand takes the unit rule
    keys = [(abs(f.param("sigma")) if f.fn is None and "sigma" in _FAMILIES[f.name].params else 1.0,
             *action.rule_sizes(f.degree())) for f in fs]
    n_axes, m = action.cohomogeneity, max((fine for _, fine, _ in keys), default=0)
    if m ** n_axes > MAX_RULE_NODES:
        raise ValueError(f"the reduced rule of {action} needs {m ** n_axes} nodes ({m} on each of "
                         f"{n_axes} axes), more than {MAX_RULE_NODES}")
    value, err = np.empty(len(fs)), np.empty(len(fs))
    for key in dict.fromkeys(keys):
        sigma, fine, coarse = key
        rows = [i for i, other in enumerate(keys) if other == key]
        group = [fs[i] for i in rows]

        def rule(nodes):
            return action.section_rule(lambda pts: _stacked_values(action, group, pts), sigma, nodes)

        value[rows] = rule(fine)  # |fine - coarse| reads 0 where both rules are exact
        err[rows] = np.maximum(np.abs(value[rows] - rule(coarse)), QUADRATURE_REL_FLOOR * np.abs(value[rows]))
    return [product(McEstimate(float(v), float(e), fine ** n_axes), vol_est)
            for v, e, (_, fine, _) in zip(value, err, keys)]


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
        [direct] = integrate_direct(action, [f], subseed(seed, i, 0), n, workers)
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
    combined = McEstimate(mean, se, sum(r.n_samples for r in ratios))
    return CalibrationReport(tuple(ratios), combined, worst <= n_sigma, worst)
