"""Matrix ensembles pushed to the section.

Sampling an invariant density on the ambient space and reducing every
sample to its canonical section representative realizes the section as
an eigenvalue-like manifold: the distribution of any Weyl-invariant
statistic must match the weighted density p(s) * weight(s) on the
section.  This module draws both sides and compares them with a
chi-square test.  On a direct sum the Gaussian density times the weight
is a product law in the Bartlett coordinates B = wR, which the reference
draws exactly (``integrate.bartlett_draws``): chi on the diagonal of R,
normal above it, in blocks of REF_BLOCK draws with one seed each, each
block evaluated a row block of a few thousand draws at a time.  Each
draw also checks the paper's closed-form weight
``weights.section_weight_batch``: weight times Gaussian times Jacobian
over the draws' density must be one constant, up to rounding at every
draw.  The draws are equally weighted, so one sort gives both their
quantile bin edges and the bins' masses.  On conjugation the section
density is Weyl's closed-form weight ``weights.torus_weight_batch`` on
the torus angles; above rank one it weighs an angle grid, whose
canonical angles come from the grid angles by the Weyl group
(``actions.torus_canonical_angles``), not from an eigensolve.  The
p-value is the chi-square tail at an integer number of degrees of
freedom, a finite sum in closed form, so no run loads scipy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField
from .matrices import data_from_components, gaussian_components, gram_det, side
from .groups import Family, GroupSpec, _torus_grid, haar_sample_batch
from .actions import (
    ActionSpec,
    ConjugationAction,
    DirectSumAction,
    action_to_json,
    canonical_angles,
    torus_canonical_angles,
)
from .weights import section_weight_batch, torus_weight_batch
from .integrate import bartlett_draws
from .mc import _subseed, chunk_rngs, chunk_sizes

MIN_EXPECTED = 5.0  # expected count each chi-square bin reaches by merging
BIN_POINTS = 200  # midpoint-rule nodes per bin of the rank-one reference masses
REF_BLOCK = 65_536  # exact reference draws per seed (seed, block); evaluated a row block at a time
#: largest relative spread of the reference draws' weight ratio: rounding level
WEIGHT_RATIO_TOL = 1e-10


@dataclass(frozen=True)
class EnsembleSpec:
    """Invariant sampling density plus a Weyl-invariant section statistic."""

    action: ActionSpec
    scale: float = 1.0            # gaussian scale of the ambient density
    statistic: str | None = None  # None: torus_angle on conjugation, coordinate_det on direct sums
    stat_index: int = 0

    def __post_init__(self):
        if self.scale == 0.0 or not np.isfinite(self.scale):
            raise ValueError(f"ensemble scale must be finite and nonzero, got {self.scale}")
        action = self.action
        if self.statistic is None:
            default = "torus_angle" if isinstance(action, ConjugationAction) else "coordinate_det"
            object.__setattr__(self, "statistic", default)
        # stat_index picks a column of a vector statistic; a scalar one has one column
        if isinstance(action, ConjugationAction):
            group = action.group
            columns = group.n if group.family is Family.SU else group.rank
        else:
            columns = action.k if self.statistic == "singular_value" else 1
        if not 0 <= self.stat_index < columns:
            raise ValueError(
                f"stat_index {self.stat_index} out of range: {self.statistic} on {action} has {columns} column(s)"
            )

    def to_json(self) -> dict:
        return {
            "action": action_to_json(self.action),
            "scale": self.scale,
            "statistic": self.statistic,
            "stat_index": self.stat_index,
        }


def _stats_batch_direct(spec: EnsembleSpec, field: ScalarField, comps: np.ndarray) -> np.ndarray:
    """Statistics of a stack of matrices given as real components (m, r, k, d).

    All statistics are invariant under unitary maps from the left, so an
    ambient sample and its section coordinate give the same value.
    """
    m = comps.shape[0]
    if spec.statistic == "coordinate_norm":
        return np.linalg.norm(comps.reshape(m, -1), axis=1)
    if spec.statistic == "coordinate_det":
        return np.sqrt(gram_det(field, comps))
    if spec.statistic == "singular_value":
        sv = np.linalg.svd(data_from_components(field, comps), compute_uv=False)
        return sv[:, :: side(field)][:, spec.stat_index]  # the adjoint matrix doubles each value over H
    raise ValueError(f"statistic {spec.statistic!r} not defined for direct sums")


def sample_ensemble(spec: EnsembleSpec, seed: int, n: int, chunks: int = 16) -> np.ndarray:
    """Statistics of n ambient samples reduced to the section.

    Every statistic is Weyl invariant, so it is read off the canonical
    section representative of each sample.  Direct-sum statistics are
    invariant under the whole group and come straight from the ambient
    draws, with no reduction; a Haar draw's canonical angles are its
    sorted eigen-angles (canonical_angles), computed for a whole chunk.
    """
    action = spec.action
    sizes = chunk_sizes(n, chunks)
    rngs = chunk_rngs(seed, chunks)
    out = []
    for rng, size in zip(rngs, sizes):
        if size == 0:
            continue
        if isinstance(action, DirectSumAction):
            comps = spec.scale * gaussian_components(action.field, action.n, action.k, rng, size)
            out.append(_stats_batch_direct(spec, action.field, comps))
        else:
            if spec.statistic != "torus_angle":
                raise ValueError("conjugation ensembles support the torus_angle statistic")
            batch = haar_sample_batch(action.group, rng, size)
            out.append(canonical_angles(action.group, batch)[:, spec.stat_index])
    return np.concatenate(out) if out else np.zeros(0)


def _reference_sample(spec: EnsembleSpec, seed: int, n_ref: int) -> tuple[np.ndarray, np.ndarray, float | None]:
    """Section-side statistics, their weights (prop. to p * weight, summing
    to 1), and the relative spread of the direct-sum draws' weight ratio
    (None on conjugation, whose reference is a grid)."""
    action = spec.action
    if isinstance(action, DirectSumAction):
        return _bartlett_reference(spec, seed, n_ref)
    # conjugation: the ambient density is Haar, so the reference is Weyl's
    # weight on a fine angle grid, at the grid points' canonical angles
    # (compare_densities takes rank one's exact bin masses instead)
    group = action.group
    angles = _torus_grid(group.rank, 96 if group.rank == 2 else 24)
    weights = torus_weight_batch(group, angles)
    stats = torus_canonical_angles(group, angles)[:, spec.stat_index]
    return stats, weights / np.sum(weights), None


def _bartlett_reference(spec: EnsembleSpec, seed: int, n_ref: int) -> tuple[np.ndarray, np.ndarray, float]:
    """n_ref exact draws of the section density p * weight of a direct sum.

    The draws are integrate.bartlett_draws scaled by |scale|, in blocks
    of REF_BLOCK draws seeded (seed, block), so every draw weighs
    1 / n_ref; each block is evaluated in the row blocks that
    bartlett_draws yields.  The paper's weight stays in the loop: at
    each draw the weight section_weight_batch times the Gaussian and
    Jacobian over the draws' density is one constant, and the relative
    spread max / min - 1 of that ratio over every draw is returned.
    gram_det in the weight keeps its digits on draws with nearly
    dependent columns too, so the spread stays at rounding level however
    many draws are taken.  The statistics are read off the triangular R,
    whose |det| is the product of its diagonal.
    """
    action, scale, k = spec.action, abs(spec.scale), spec.action.k
    field = action.field if k > 1 else ScalarField.REAL  # the k = 1 section is the real line: a real 1 x 1
    stats, lo, hi = [], np.inf, -np.inf
    for block, start in enumerate(range(0, n_ref, REF_BLOCK)):
        rng = np.random.default_rng(_subseed(seed, block))
        for z, log_factor in bartlett_draws(action, rng, min(REF_BLOCK, n_ref - start)):
            z *= scale
            comps = z.reshape(len(z), k, k, field.dim)
            log_ratio = np.log(section_weight_batch(action, z)) + log_factor
            lo, hi = min(lo, log_ratio.min()), max(hi, log_ratio.max())
            if spec.statistic == "coordinate_det":
                stats.append(np.prod(np.abs(comps[:, range(k), range(k), 0]), axis=1))  # real on R's diagonal
            else:
                stats.append(_stats_batch_direct(spec, field, comps))
    spread = float(np.expm1(hi - lo))
    return np.concatenate(stats), np.full(n_ref, 1.0 / n_ref), spread


def _rank1_bin_masses(spec: EnsembleSpec, edges: np.ndarray) -> np.ndarray:
    """Exact-per-bin reference masses for a rank-one torus angle statistic.

    A bin's mass is the midpoint-rule integral of Weyl's closed-form
    weight over it, twice over where the Weyl group folds the reflected
    bin onto it (every rank-one group but SO(2)); no histogram
    quantization enters.
    """
    width = np.diff(edges)
    theta = edges[:-1, None] + width[:, None] * ((np.arange(BIN_POINTS) + 0.5) / BIN_POINTS)
    vals = torus_weight_batch(spec.action.group, theta.reshape(-1, 1))
    masses = vals.reshape(theta.shape).mean(axis=1) * width
    return masses / np.sum(masses)


@dataclass(frozen=True)
class HistogramComparison:
    spec: EnsembleSpec
    edges: np.ndarray
    empirical: np.ndarray   # frequencies, sum 1
    reference: np.ndarray   # frequencies, sum 1
    n_samples: int
    chi2: float
    dof: int
    p_value: float
    weight_ratio_spread: float | None = None  # of the direct-sum reference draws (_bartlett_reference)

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "n_samples": self.n_samples,
            "bins": len(self.edges) - 1,
            "chi2": self.chi2,
            "dof": self.dof,
            "p_value": self.p_value,
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["bin_lo", "bin_hi", "empirical", "reference"])
            for i in range(len(self.edges) - 1):
                w.writerow(
                    [
                        repr(float(self.edges[i])),
                        repr(float(self.edges[i + 1])),
                        repr(float(self.empirical[i])),
                        repr(float(self.reference[i])),
                    ]
                )


def _merge_small_bins(obs: np.ndarray, exp: np.ndarray):
    """Merge adjacent bins until every expected count reaches MIN_EXPECTED."""
    obs, exp = list(obs), list(exp)
    i = 0
    while i < len(exp):
        if exp[i] < MIN_EXPECTED and len(exp) > 1:
            j = i + 1 if i + 1 < len(exp) else i - 1
            exp[j] += exp[i]
            obs[j] += obs[i]
            del exp[i], obs[i]
            i = 0
        else:
            i += 1
    return np.array(obs), np.array(exp)


def chi2_tail(dof: int, x: float) -> float:
    """P(X >= x) for X chi-square with an integer dof >= 1 (Abramowitz and
    Stegun 26.4.4-26.4.5): erfc(sqrt(x/2)) for odd dof, plus dof // 2
    terms (x/2)^j / j! e^(-x/2), or sqrt(2x/pi) x^j / (3 5 ... (2j+1))
    e^(-x/2) for odd dof.  Each term comes from the previous one, starting
    at e^(-x/2), so a huge x gives 0 rather than NaN.
    """
    odd = dof % 2
    total = math.erfc(math.sqrt(0.5 * x)) if odd else 0.0
    term = math.exp(-0.5 * x) * (math.sqrt(2.0 * x / math.pi) if odd else 1.0)
    for j in range(dof // 2):
        total += term
        term *= 0.5 * x / (j + 1 + 0.5 * odd)
    return total


def _equal_draw_bins(ref_stats: np.ndarray, ref_w: np.ndarray, bins: int, lo: float, hi: float):
    """Edges from lo to hi with the inner ones at the quantiles of equally
    weighted draws, and the draws' mass in each bin, from one sort.

    The inner edges are np.quantile's linear interpolation, its _lerp
    bit for bit, on the sorted draws.  The masses are np.histogram's own
    algorithm for given edges: the weights' cumulative sum read at the
    edges by searchsorted, the last edge inclusive.  The weights are
    equal, so their sum in sorted order is their sum in any order.  Up to
    np.histogram's block of 65536 draws the masses are its bits; past it
    np.histogram adds one sum per block and rounds differently.
    """
    s = np.sort(ref_stats)
    pos = (len(s) - 1) * np.linspace(0.0, 1.0, bins + 1)[1:-1]
    below = np.floor(pos).astype(np.intp)
    t = pos - below
    a, b = s[below], s[np.minimum(below + 1, len(s) - 1)]
    inner = np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)
    edges = np.concatenate([[lo], inner, [hi]])
    at = np.concatenate([s.searchsorted(edges[:-1], "left"), s.searchsorted(edges[-1:], "right")])
    return edges, np.diff(np.concatenate([[0.0], np.cumsum(ref_w)])[at])


def compare_densities(
    spec: EnsembleSpec,
    seed: int,
    n: int,
    bins: int = 30,
    n_ref: int | None = None,
    chunks: int = 16,
) -> HistogramComparison:
    """Chi-square comparison of reduced-sample statistics vs the weighted
    section density.

    The reference side is made much tighter than the empirical side so
    that the chi-square statistic is dominated by sampling noise: exact
    draws of the section density on direct sums (n_ref of them, by
    default max(30 n, 60000), each of weight 1 / n_ref), exact bin
    quadrature for rank-one torus angles, and Weyl's weight on a fine
    angle grid at higher rank.  The bins of equal draws have equal
    reference mass, their edges at the draws' quantiles, so that no
    single extreme draw sets the range of the bins; the others have
    equal widths.  On direct sums the reference's own sampling noise
    scales the expected chi-square statistic by 1 + n / n_ref, so the
    statistic is divided by that; the comparison also carries the
    relative spread of the draws' weight ratio, which
    exceeds WEIGHT_RATIO_TOL only if section_weight_batch or the draws
    are off the paper's density.  Fewer than two bins, asked for or left after
    merging the bins whose expected count is below MIN_EXPECTED, would
    make the test vacuous and are rejected.
    """
    if bins < 2:
        raise ValueError(f"a chi-square comparison needs at least 2 bins, got {bins}")
    stats = sample_ensemble(spec, _subseed(seed, 0), n, chunks)
    rank1_conj = isinstance(spec.action, ConjugationAction) and spec.action.group.rank == 1
    spread = None
    if rank1_conj:
        so2 = spec.action.group == GroupSpec(Family.SO, 2)  # a trivial Weyl group: angles in (-pi, pi]
        edges = np.linspace(-np.pi if so2 else 0.0, np.pi, bins + 1)
        ref_freq = _rank1_bin_masses(spec, edges)
        if spec.stat_index == 1:  # SU(2)'s second angle is minus the first: mirror the bins
            edges, ref_freq = -edges[::-1], ref_freq[::-1]
    else:
        n_ref = n_ref or max(30 * n, 60_000)
        ref_stats, ref_w, spread = _reference_sample(spec, _subseed(seed, 1), n_ref)
        lo = min(stats.min(), ref_stats.min())
        hi = max(stats.max(), ref_stats.max())
        if isinstance(spec.action, ConjugationAction):  # a weighted angle grid: equal widths
            edges = np.linspace(lo, hi + 1e-12 * max(1.0, abs(hi)), bins + 1)
            ref_freq, _ = np.histogram(ref_stats, bins=edges, weights=ref_w)
        else:  # equal draws: equal reference masses, at the draws' quantiles
            edges, ref_freq = _equal_draw_bins(ref_stats, ref_w, bins, lo, hi + 1e-12 * max(1.0, abs(hi)))
        ref_freq = ref_freq / np.sum(ref_freq)
    emp_counts, _ = np.histogram(stats, bins=edges)
    emp_freq = emp_counts / np.sum(emp_counts)

    obs, exp = _merge_small_bins(emp_counts.astype(float), n * ref_freq)
    if len(obs) < 2:
        raise ValueError(f"a chi-square comparison needs at least 2 bins, got {len(obs)} "
                         f"after merging to an expected count of {MIN_EXPECTED:g}")
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    if isinstance(spec.action, DirectSumAction):
        # n_ref equal draws set the bins' reference masses, and their own
        # noise adds n / n_ref to the variance of each bin's count
        chi2 /= 1.0 + n / n_ref
    dof = len(obs) - 1
    p = chi2_tail(dof, chi2)
    return HistogramComparison(spec, edges, emp_freq, ref_freq, n, chi2, dof, p, spread)
