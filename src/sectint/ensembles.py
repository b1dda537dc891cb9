"""Matrix ensembles pushed to the section.

Sampling an invariant density on the ambient space and reducing every
sample to its canonical section representative realizes the section as
an eigenvalue-like manifold: the distribution of any Weyl-invariant
statistic must match the weighted density p(s) * weight(s) on the
section.  This module draws the sample side and compares it with the
reference side by a chi-square test.  The sample side is drawn in
``mc``'s Monte Carlo batches, so (seed, n) fixes it (``mc.BATCH_DRAWS``
fixes the streams).  The kind of action supplies its statistics (its
``statistics``, the default first), their ambient draws, and the
reference side in one call: either weighted points of the section
density, or the statistic's exact law, whose CDF gives exact bin
masses.  ``reference_bins`` alone cuts every reference into bins of
equal reference mass.  On a direct sum the section density is
Bartlett's law, so coordinate_det and coordinate_norm have exact laws,
chi products (``laws.ChiProductLaw``), and singular_value is exact
draws of equal weight (``actions.bartlett_draws``, one row block at a
time from one generator).  For every statistic the first row block of
those draws checks the paper's closed-form weight
``weights.section_weight_batch``: the draws are the triangular R of
B = wR, and weight / |det R|^p (``actions.weight_log_ratio``) must be
one constant, up to rounding.
On conjugation the reference is torus angles, a uniform grid at rank
one and uniform draws above it, weighted by Weyl's closed-form weight
``weights.torus_weight_batch``.  The p-value is the chi-square tail at
an integer number of degrees of freedom, a finite sum in closed form
(``laws.chi2_tail``), so no run loads scipy.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .actions import ActionSpec
from .laws import chi2_tail
from .mc import batch, batch_count, subseed

MIN_EXPECTED = 5.0  # expected count each chi-square bin reaches by merging
#: largest relative spread of the reference draws' weight ratio: rounding level
WEIGHT_RATIO_TOL = 1e-10


@dataclass(frozen=True)
class EnsembleSpec:
    """A Weyl-invariant section statistic of the kind's invariant ambient
    density: the standard Gaussian on a direct sum, Haar measure on
    conjugation.  A Gaussian of scale s is the push-forward of the standard
    one by x -> s x, which moves the statistic and its reference alike and
    leaves the test's verdict as it is."""

    action: ActionSpec
    statistic: str | None = None  # None: the kind's default, the first of its statistics
    stat_index: int = 0

    def __post_init__(self):
        if self.statistic is None:
            object.__setattr__(self, "statistic", self.action.statistics[0])
        # the kind refuses a statistic outside its table; stat_index picks a column
        columns = self.action.statistic_columns(self.statistic)
        if not 0 <= self.stat_index < columns:
            raise ValueError(
                f"stat_index {self.stat_index} out of range: {self.statistic} on {self.action} has {columns} column(s)"
            )


def sample_ensemble(spec: EnsembleSpec, seed: int, n: int) -> np.ndarray:
    """Statistics of n ambient samples reduced to the section: the kind's
    ensemble_statistics of each mc.batch of (seed, n) in turn, written into
    one (n,) array allocated first.  Every statistic is Weyl invariant, so it
    is read off the canonical section representative."""
    out, stop = np.empty(n), 0
    for i in range(batch_count(n)):
        rng, size = batch(seed, n, i)
        out[stop:stop + size] = spec.action.ensemble_statistics(spec, rng, size)
        stop += size
    return out


@dataclass(frozen=True)
class HistogramComparison:
    spec: EnsembleSpec
    edges: np.ndarray
    empirical: np.ndarray   # frequencies, sum 1
    reference: np.ndarray   # frequencies, sum 1
    chi2: float
    dof: int
    p_value: float
    weight_ratio_spread: float | None = None  # of the direct-sum weight check's draws
    reference_n_eff: float | None = None  # the reference's effective size; None where it is not drawn
    chi2_divisor: float = 1.0  # 1 + n / n_eff where the reference is drawn

    def to_json(self) -> dict:
        """The test's outcome, the statistic it read (the kind's default resolved),
        the reference's effective size and the divisor it put on chi2; the action,
        bins and draws are the config."""
        return {"statistic": self.spec.statistic, "chi2": self.chi2, "dof": self.dof, "p_value": self.p_value,
                "reference_n_eff": self.reference_n_eff, "chi2_divisor": self.chi2_divisor}

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["bin_lo", "bin_hi", "empirical", "reference"])
            for row in zip(self.edges[:-1], self.edges[1:], self.empirical, self.reference):
                w.writerow([repr(float(v)) for v in row])


def _merge_small_bins(obs: np.ndarray, exp: np.ndarray):
    """Merge adjacent bins until every expected count reaches MIN_EXPECTED,
    in one pass from the left: a group below it takes in the next bin, as
    e[i+1] + (e[i] ...), and a last group still below it is folded into the
    one before, as long as it stays below and one is left."""
    obs_out, exp_out, growing = [], [], False
    for o, e in zip(obs, exp):
        if growing:
            obs_out[-1], exp_out[-1] = o + obs_out[-1], e + exp_out[-1]
        else:
            obs_out.append(o)
            exp_out.append(e)
        growing = exp_out[-1] < MIN_EXPECTED
    while len(exp_out) > 1 and exp_out[-1] < MIN_EXPECTED:
        o, e = obs_out.pop(), exp_out.pop()
        obs_out[-1] += o
        exp_out[-1] += e
    return np.array(obs_out), np.array(exp_out)


def reference_bins(stats: np.ndarray, reference, bins: int):
    """Edges and masses of bins of equal reference mass, from a kind's
    reference: weighted points (points, weights), or an exact law.

    Points take one sort: bin j closes at the last sorted point whose
    cumulative weight is at most j / bins of the total (point n_ref j // bins
    at equal weights, weights None), each inner edge halves the gap at its
    cut, and a bin's mass is its share of the weight; the edges of empty
    bins, where bins outnumber points, repeat.  A law gives its CDF on its
    grid, the inner edges interpolate it at j / bins, and a bin's mass is
    the difference of the CDF at its edges, the outer bins running to the
    ends of the law's support; inner edges clipped to the grid's ends
    repeat.  The bins run from the smallest statistic of either side to
    just past the largest."""
    if isinstance(reference, tuple):
        ref_stats, weights = reference
        if weights is None:
            s, cum = np.sort(ref_stats), np.arange(len(ref_stats) + 1)
        else:
            order = np.argsort(ref_stats)
            s, cum = ref_stats[order], np.concatenate([[0.0], np.cumsum(weights[order])])
        cut = np.searchsorted(cum, cum[-1] * np.arange(1, bins) / bins, side="right") - 1
        inner = 0.5 * (s[np.maximum(cut - 1, 0)] + s[cut])
        masses = np.diff(cum[np.concatenate([[0], cut, [len(s)]])]) / cum[-1]
        lo, hi = min(stats.min(), s[0]), max(stats.max(), s[-1])
    else:
        grid_cdf = np.maximum.accumulate(reference.cdf(reference.grid))
        inner = np.interp(np.arange(1, bins) / bins, grid_cdf, reference.grid)
        masses = np.diff(np.maximum.accumulate(np.concatenate([[0.0], reference.cdf(inner), [1.0]])))
        lo, hi = min(stats.min(), inner[0]), max(stats.max(), inner[-1])
    return np.concatenate([[lo], inner, [hi + 1e-12 * max(1.0, abs(hi))]]), masses


def compare_densities(spec: EnsembleSpec, seed: int, n: int, bins: int = 30) -> HistogramComparison:
    """Chi-square comparison of reduced-sample statistics vs the weighted
    section density, the kind's ensemble_reference in reference_bins.

    Where the reference is drawn, its own noise adds about n / n_eff to the
    variance of each bin's count, so the statistic is divided by
    1 + n / n_eff; exact masses, and a fixed grid, carry no divisor.  The
    comparison also carries the relative spread of the direct-sum weight
    check's ratio weight / |det R|^p, which exceeds
    WEIGHT_RATIO_TOL only if section_weight_batch is off the paper's closed
    form or the draws off its density.  Fewer than two bins, asked for
    or left after merging the bins whose expected count is below
    MIN_EXPECTED, would make the test vacuous and are rejected.
    """
    if bins < 2:
        raise ValueError(f"a chi-square comparison needs at least 2 bins, got {bins}")
    stats = sample_ensemble(spec, subseed(seed, 0), n)
    reference, spread, n_eff = spec.action.ensemble_reference(spec, n, subseed(seed, 1))
    edges, ref_freq = reference_bins(stats, reference, bins)
    emp_counts, _ = np.histogram(stats, bins=edges)
    emp_freq = emp_counts / np.sum(emp_counts)

    obs, exp = _merge_small_bins(emp_counts.astype(float), n * ref_freq)
    if len(obs) < 2:
        raise ValueError(f"a chi-square comparison needs at least 2 bins, got {len(obs)} "
                         f"after merging to an expected count of {MIN_EXPECTED:g}")
    divisor = 1.0 + n / n_eff if n_eff else 1.0
    chi2 = float(np.sum((obs - exp) ** 2 / exp)) / divisor
    dof = len(obs) - 1
    p = chi2_tail(dof, chi2)
    return HistogramComparison(spec, edges, emp_freq, ref_freq, chi2, dof, p, spread, n_eff, divisor)
