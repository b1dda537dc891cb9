"""Monte Carlo and quadrature engines for both sides of the reduced
integration identity.

The direct side integrates over the ambient space (Gaussian importance
sampling on the flat matrix space, or Haar sampling scaled by the group
volume for conjugation actions).  The reduced side integrates
f * weight over the section, by Gaussian importance sampling on the
flat section or by a trapezoid rule on the torus angles, and multiplies
by a given vol(G/N); ``sectint integrate`` passes the exact
vol(G/H) / vol(W).  ``calibrate_vol_gn`` estimates vol(G/N) instead, as
direct / reduced per integrand with a cross-check of the ratios between
integrands; ``sectint volumes`` tests it against the exact value.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .matrices import batch_to_real, eye, gram_det
from .groups import haar_sample_batch, torus_points
from .actions import (
    ActionSpec,
    ConjugationAction,
    DirectSumAction,
    embed_section,
)
from .weights import delta_e_batch, delta_e_generic
from .mc import McEstimate, mc_run, product, ratio
from .volumes import group_volume, torus_volume

TWO_PI = 2.0 * np.pi
# relative floor of the torus quadrature's error proxy: the rule is exact on
# the weight's trigonometric polynomials, where |fine - coarse| reads 0
QUADRATURE_REL_FLOOR = 64 * np.finfo(float).eps


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


def make_test_function(name: str, **params) -> TestFunction:
    if name not in _FAMILIES:
        raise ValueError(f"unknown test function {name!r}; known: {sorted(_FAMILIES)}")
    invariant = name != "first_coordinate"
    return TestFunction(name, params, invariant)


def custom_test_function(name: str, fn, invariant: bool) -> TestFunction:
    return TestFunction(name, {}, invariant, fn)


def evaluate_test_function(action: ActionSpec, f: TestFunction, pts: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on an (m, D) array of flat coordinates."""
    pts = np.atleast_2d(pts)
    if f.fn is not None:
        return np.asarray(f.fn(pts, action), dtype=float)
    return _FAMILIES[f.name](action, pts, f.params)


def _norms_sq(pts):
    return np.sum(pts * pts, axis=1)


def _fam_gaussian_radial(action, pts, params):
    sigma = float(params.get("sigma", 1.0))
    return np.exp(-_norms_sq(pts) / (2.0 * sigma * sigma))


def _fam_gaussian_sq_norm(action, pts, params):
    sigma = float(params.get("sigma", 1.0))
    r2 = _norms_sq(pts)
    return r2 * np.exp(-r2 / (2.0 * sigma * sigma))


def section_coordinate_det(action: DirectSumAction, pts: np.ndarray) -> np.ndarray:
    """|det| (Dieudonne modulus over H) of the reduced k x k coordinate.

    Computed invariantly from the ambient points (m, D) as
    sqrt(gram_det), which equals the determinant modulus of the
    canonical section coordinate of each point.
    """
    comps = pts.reshape(pts.shape[0], action.n, action.k, action.field.dim)
    return np.sqrt(gram_det(action.field, comps))


def _fam_gaussian_det(action, pts, params):
    if not isinstance(action, DirectSumAction):
        raise ContractViolation("gaussian_det integrand needs a direct-sum action")
    sigma = float(params.get("sigma", 1.0))
    power = float(params.get("power", 1.0))
    return section_coordinate_det(action, pts) ** power * np.exp(
        -_norms_sq(pts) / (2.0 * sigma * sigma)
    )


def _real_trace(action: ConjugationAction, pts: np.ndarray) -> np.ndarray:
    n, d = action.group.n, action.field.dim
    idx = [(a * n + a) * d for a in range(n)]
    return np.sum(pts[:, idx], axis=1)


def _fam_trace_power(action, pts, params):
    if not isinstance(action, ConjugationAction):
        raise ContractViolation("trace_power integrand needs a conjugation action")
    power = int(params.get("power", 2))
    return _real_trace(action, pts) ** power


def _fam_const(action, pts, params):
    return np.full(pts.shape[0], float(params.get("value", 1.0)))


def _fam_first_coordinate(action, pts, params):
    # deliberately not invariant; used as a negative control
    return pts[:, 0]


_FAMILIES = {
    "gaussian_radial": _fam_gaussian_radial,
    "gaussian_sq_norm": _fam_gaussian_sq_norm,
    "gaussian_det": _fam_gaussian_det,
    "trace_power": _fam_trace_power,
    "const": _fam_const,
    "first_coordinate": _fam_first_coordinate,
}


# --- section weights, vectorized ---------------------------------------------

@functools.lru_cache(maxsize=None)
def _polar_unit_weight(action: DirectSumAction) -> float:
    return delta_e_generic(action, embed_section(action, eye(action.field, 1)))


def section_weight_batch(action: DirectSumAction, z: np.ndarray) -> np.ndarray:
    """Weight at the section points with flat coordinates z (m, dim).

    For k >= 2 this is 2^(-dk(n-k)/2) |det B|^(d(n-k)) of the k x k
    coordinate B, with |det B|^2 = gram_det(B).
    """
    d, n, k = action.field.dim, action.n, action.k
    if k == 1:
        # homogeneous of degree (ambient - section) in the radial coordinate
        return _polar_unit_weight(action) * np.abs(z[:, 0]) ** (d * n - 1)
    dets = gram_det(action.field, z.reshape(z.shape[0], k, k, d))
    return 2.0 ** (-d * k * (n - k) / 2.0) * dets ** (d * (n - k) / 2.0)


def _section_points_flat(action: DirectSumAction, z: np.ndarray) -> np.ndarray:
    """Ambient flat coordinates of section points with coordinates z."""
    m = z.shape[0]
    pts = np.zeros((m, action.ambient_dim))
    pts[:, : z.shape[1]] = z
    return pts


# --- direct and reduced integrals --------------------------------------------

def _direct_values_fn(action: ActionSpec, evaluate):
    if isinstance(action, DirectSumAction):
        dim = action.ambient_dim
        log_norm = 0.5 * dim * np.log(TWO_PI)

        def sample(rng: np.random.Generator, size: int) -> np.ndarray:
            if size == 0:
                return np.zeros(0)
            z = rng.standard_normal((size, dim))
            vals = evaluate(z)
            return vals * np.exp(0.5 * np.sum(z * z, axis=1) + log_norm)

        return sample

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        if size == 0:
            return np.zeros(0)
        batch = haar_sample_batch(action.group, rng, size)
        return evaluate(batch_to_real(action.field, batch))

    return sample


def integrate_direct(
    action: ActionSpec,
    f: TestFunction,
    seed: int,
    n: int,
    chunks: int = 16,
    workers: int | None = None,
) -> McEstimate:
    """Integral of f over the ambient space with its Riemannian measure.

    Flat direct-sum spaces use standard-Gaussian importance sampling
    (the integrand must decay accordingly); conjugation actions average
    over Haar samples and scale by the group volume.
    """
    evaluate = lambda pts: evaluate_test_function(action, f, pts)
    est = mc_run(_direct_values_fn(action, evaluate), n, seed, chunks, workers)
    if isinstance(action, ConjugationAction):
        est = product(est, group_volume(action.group))
    return est


def _torus_grid(rank: int, grid: int) -> np.ndarray:
    axes = [np.arange(grid) * (TWO_PI / grid) for _ in range(rank)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _reduced_torus_quadrature(action: ConjugationAction, evaluate, grid: int) -> tuple[float, float]:
    """Trapezoid rule on the angle cube; returns (value, error proxy).

    The integrand is smooth and periodic, so the composite rule
    converges spectrally; the error proxy compares against the
    half-resolution grid, floored at rounding level.
    """
    rank = action.group.rank
    density = torus_volume(action.group) / TWO_PI ** rank

    def on_grid(g: int) -> float:
        pts = torus_points(action.group, _torus_grid(rank, g))
        vals = evaluate(pts) * delta_e_batch(action, pts)
        return float(np.mean(vals) * density * TWO_PI ** rank)

    value = on_grid(grid)
    coarse = on_grid(max(grid // 2, 2))
    return value, max(abs(value - coarse), QUADRATURE_REL_FLOOR * abs(value))


def integrate_reduced(
    action: ActionSpec,
    f: TestFunction,
    vol_gn: float | McEstimate,
    seed: int,
    n: int,
    chunks: int = 16,
    workers: int | None = None,
    grid: int | None = None,
) -> McEstimate:
    """vol(G/N) times the weighted section integral of an invariant f."""
    if not f.invariant:
        raise ContractViolation("reduced integration needs a group-invariant integrand")
    vol_est = vol_gn if isinstance(vol_gn, McEstimate) else McEstimate.exact(float(vol_gn))
    evaluate = lambda pts: evaluate_test_function(action, f, pts)

    if isinstance(action, ConjugationAction):
        rank = action.group.rank
        grid = grid or {1: 256, 2: 48, 3: 20}.get(rank, 12)
        value, err = _reduced_torus_quadrature(action, evaluate, grid)
        base = McEstimate(value, err, grid ** rank, seed, 1)
        return product(base, vol_est)

    dim = action.section_dim
    log_norm = 0.5 * dim * np.log(TWO_PI)

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        if size == 0:
            return np.zeros(0)
        z = rng.standard_normal((size, dim))
        vals = evaluate(_section_points_flat(action, z))
        w = section_weight_batch(action, z)
        return vals * w * np.exp(0.5 * np.sum(z * z, axis=1) + log_norm)

    return product(mc_run(sample, n, seed, chunks, workers), vol_est)


def _subseed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence((seed,) + tags).generate_state(1)[0])


def mc_result_json(action: ActionSpec, f: TestFunction, est: McEstimate) -> dict:
    """Flat serialization of one estimate with its full provenance."""
    from .actions import action_to_json

    out = est.to_json()
    out["action"] = action_to_json(action)
    out["function"] = f.to_json()
    return out


@dataclass(frozen=True)
class CalibrationReport:
    """Per-integrand quotient-volume ratios and their mutual agreement."""

    ratios: tuple[McEstimate, ...]
    names: tuple[str, ...]
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
    for i, f in enumerate(fs):
        direct = integrate_direct(action, f, _subseed(seed, i, 0), n, chunks, workers)
        reduced_unit = integrate_reduced(action, f, 1.0, _subseed(seed, i, 1), n, chunks, workers)
        if abs(reduced_unit.mean) <= max(5.0 * reduced_unit.stderr, 1e-200):
            raise IllConditionedCalibration(
                f"section integral of {f.name} is consistent with zero"
            )
        ratios.append(ratio(direct, reduced_unit))
    worst = 0.0
    for i in range(len(ratios)):
        for j in range(i + 1, len(ratios)):
            gap = abs(ratios[i].mean - ratios[j].mean)
            se = float(np.hypot(ratios[i].stderr, ratios[j].stderr))
            worst = max(worst, gap / se if se > 0 else (0.0 if gap == 0 else np.inf))
    weights = np.array([1.0 / max(r.stderr, 1e-150) ** 2 for r in ratios])
    if not np.all(np.isfinite(weights)):
        weights = np.ones(len(ratios))
    mean = float(np.sum(weights * [r.mean for r in ratios]) / np.sum(weights))
    se = float(np.sqrt(1.0 / np.sum(weights)))
    combined = McEstimate(mean, se, sum(r.n_samples for r in ratios), seed, chunks)
    return CalibrationReport(
        tuple(ratios), tuple(f.name for f in fs), combined, worst <= n_sigma, worst
    )
