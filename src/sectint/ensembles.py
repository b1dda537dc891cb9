"""Matrix ensembles pushed to the section.

Sampling an invariant density on the ambient space and reducing every
sample to its canonical section representative realizes the section as
an eigenvalue-like manifold: the distribution of any Weyl-invariant
statistic must match the weighted density p(s) * weight(s) on the
section.  This module draws both sides and compares them with a
chi-square test.  The sample side is drawn in ``mc``'s Monte Carlo
batches, so (seed, n) fixes it (``mc.BATCH_DRAWS`` fixes the streams).
The kind of action supplies its statistics (its
``statistics``, the default first), their ambient draws, and the
reference side as weighted points of the section density, in one call,
and ``reference_bins`` alone cuts every kind's points into bins of equal
reference mass.  A direct sum's reference is exact draws, of equal
weight, of the Gaussian density times the weight
(``actions.bartlett_draws``, one row block at a time from one
generator), each of which checks the paper's
closed-form weight ``weights.section_weight_batch``: the draws are the
triangular R of B = wR, and weight / |det R|^p must be one constant, up
to rounding.  On conjugation the reference is torus angles, a uniform
grid at rank one and uniform draws above it, weighted by Weyl's
closed-form weight ``weights.torus_weight_batch``.  The p-value is the
chi-square tail at an integer number of degrees of freedom, a finite
sum in closed form, so no run loads scipy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .actions import ActionSpec
from .mc import batch, batch_count, subseed

MIN_EXPECTED = 5.0  # expected count each chi-square bin reaches by merging
#: largest relative spread of the reference draws' weight ratio: rounding level
WEIGHT_RATIO_TOL = 1e-10


@dataclass(frozen=True)
class EnsembleSpec:
    """Invariant sampling density plus a Weyl-invariant section statistic."""

    action: ActionSpec
    scale: float = 1.0            # gaussian scale of the ambient density
    statistic: str | None = None  # None: the kind's default, the first of its statistics
    stat_index: int = 0

    def __post_init__(self):
        if self.scale == 0.0 or not np.isfinite(self.scale):
            raise ValueError(f"ensemble scale must be finite and nonzero, got {self.scale}")
        if self.statistic is None:
            object.__setattr__(self, "statistic", self.action.statistics[0])
        # the kind refuses a statistic outside its table; stat_index picks a column
        columns = self.action.statistic_columns(self.statistic, self.scale)
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
    weight_ratio_spread: float | None = None  # of the direct-sum reference draws
    reference_n_eff: float | None = None  # the reference's effective size; None where it is not drawn

    def to_json(self) -> dict:
        """The test's outcome, the statistic it read (the kind's default resolved) and
        the reference's effective size; the action, scale, bins and draws are the config."""
        return {"statistic": self.spec.statistic, "chi2": self.chi2, "dof": self.dof, "p_value": self.p_value,
                "reference_n_eff": self.reference_n_eff}

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


def chi2_tail(dof: int, x: float) -> float:
    """P(X >= x) for X chi-square with an integer dof >= 1 (Abramowitz and
    Stegun 26.4.4-26.4.5): erfc(sqrt(x/2)) for odd dof, plus dof // 2
    terms (x/2)^j / j! e^(-x/2), or sqrt(2x/pi) x^j / (3 5 ... (2j+1))
    e^(-x/2) for odd dof.  Each term is carried as its logarithm, from
    -x/2 on, so no term underflows where e^(-x/2) does; a huge x gives 0.
    """
    if x == 0.0:
        return 1.0
    odd = dof % 2
    total = math.erfc(math.sqrt(0.5 * x)) if odd else 0.0
    log_term = -0.5 * x + (0.5 * math.log(2.0 * x / math.pi) if odd else 0.0)
    for j in range(dof // 2):
        total += math.exp(log_term)
        log_term += math.log(0.5 * x / (j + 1 + 0.5 * odd))
    return total


def reference_bins(stats: np.ndarray, ref_stats: np.ndarray, weights: np.ndarray | None, bins: int):
    """Edges and masses of bins of equal reference weight, from one sort of
    the reference points: bin j closes at the last sorted point whose
    cumulative weight is at most j / bins of the total (point n_ref j // bins
    at equal weights, weights None), each inner edge halves the gap at its
    cut, and a bin's mass is its share of the weight.  The bins run from the
    smallest statistic of either side to just past the largest; the edges of
    empty bins, where bins outnumber points, repeat."""
    if weights is None:
        s, cum = np.sort(ref_stats), np.arange(len(ref_stats) + 1)
    else:
        order = np.argsort(ref_stats)
        s, cum = ref_stats[order], np.concatenate([[0.0], np.cumsum(weights[order])])
    inner = np.searchsorted(cum, cum[-1] * np.arange(1, bins) / bins, side="right") - 1
    cut = np.concatenate([[0], inner, [len(s)]])
    lo, hi = min(stats.min(), s[0]), max(stats.max(), s[-1])
    edges = np.concatenate([[lo], 0.5 * (s[np.maximum(inner - 1, 0)] + s[inner]), [hi + 1e-12 * max(1.0, abs(hi))]])
    return edges, np.diff(cum[cut]) / cum[-1]


def compare_densities(spec: EnsembleSpec, seed: int, n: int, bins: int = 30) -> HistogramComparison:
    """Chi-square comparison of reduced-sample statistics vs the weighted
    section density, the kind's ensemble_reference points in reference_bins.

    Where the reference is drawn, its own noise adds about n / n_eff to the
    variance of each bin's count, so the statistic is divided by
    1 + n / n_eff.  The comparison also carries the relative spread of the
    direct-sum draws' weight ratio weight / |det R|^p, which exceeds
    WEIGHT_RATIO_TOL only if section_weight_batch is off the paper's closed
    form or the draws off its density.  Fewer than two bins, asked for
    or left after merging the bins whose expected count is below
    MIN_EXPECTED, would make the test vacuous and are rejected.
    """
    if bins < 2:
        raise ValueError(f"a chi-square comparison needs at least 2 bins, got {bins}")
    stats = sample_ensemble(spec, subseed(seed, 0), n)
    ref_stats, weights, spread, n_eff = spec.action.ensemble_reference(spec, n, subseed(seed, 1))
    edges, ref_freq = reference_bins(stats, ref_stats, weights, bins)
    emp_counts, _ = np.histogram(stats, bins=edges)
    emp_freq = emp_counts / np.sum(emp_counts)

    obs, exp = _merge_small_bins(emp_counts.astype(float), n * ref_freq)
    if len(obs) < 2:
        raise ValueError(f"a chi-square comparison needs at least 2 bins, got {len(obs)} "
                         f"after merging to an expected count of {MIN_EXPECTED:g}")
    chi2 = float(np.sum((obs - exp) ** 2 / exp)) / (1.0 + n / n_eff if n_eff else 1.0)
    dof = len(obs) - 1
    p = chi2_tail(dof, chi2)
    return HistogramComparison(spec, edges, emp_freq, ref_freq, chi2, dof, p, spread, n_eff)
