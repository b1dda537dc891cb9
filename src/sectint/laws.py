"""Closed-form laws of the ensemble tests: the chi-square tail of the
p-value, and the law of a product of independent chi variables.

On a direct sum the section density p * weight is Bartlett's law: the
diagonal of R in B = wR has independent entries r_ii ~ chi_(nu_i),
nu_i = d(n - i + 1) (Edelman and Rao, Acta Numerica 2005).  So
coordinate_det, |det R| = prod r_ii, is a chi product, and
coordinate_norm, the norm of a standard Gaussian on the D-dimensional
ambient space, is chi_D: a product of one.  ``ChiProductLaw`` gives its
CDF at any points, which ``ensembles.reference_bins`` turns into exact
bin masses.  Plain numpy and ``math``: no run loads scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

#: a chi axis' log-density more than this below its peak is left out: e^-40 ~ 4e-18
LOG_DENSITY_FLOOR = 40.0
#: lattice step in u = log r, at most; a large nu narrows it to a third of log chi_nu's spread
LOG_STEP = 0.04
GRID_POINTS = 96  # points of the grid on which reference_bins places its edges
GRID_SIGMAS = 8.0  # the grid spans log Y's mean plus or minus this many of its standard deviations
#: cells of one block of the (points, lattice) array a product CDF evaluates at once
BLOCK_CELLS = 1 << 16


def chi2_tail(dof: int, x, xp=math):
    """P(X >= x) for X chi-square with an integer dof >= 1 (Abramowitz and
    Stegun 26.4.4-26.4.5): erfc(sqrt(x/2)) for odd dof, plus dof // 2
    terms (x/2)^j / j! e^(-x/2), or sqrt(2x/pi) x^j / (3 5 ... (2j+1))
    e^(-x/2) for odd dof.  Each term is carried as its logarithm, from
    -x/2 on, so no term underflows where e^(-x/2) does; a huge x gives 0.
    x is a float, or, with xp = numpy, an array of x > 0 at an even dof
    (math has the erfc of the odd series, numpy does not).
    """
    if xp is math and x == 0.0:
        return 1.0
    odd = dof % 2
    total = math.erfc(math.sqrt(0.5 * x)) if odd else 0.0
    log_term = -0.5 * x + (0.5 * math.log(2.0 * x / math.pi) if odd else 0.0)
    for j in range(dof // 2):
        if j:
            log_term = log_term + xp.log(0.5 * x / (j + 0.5 * odd))
        total = total + xp.exp(log_term)
    return total


def chi_cdf(nu: int, t: np.ndarray) -> np.ndarray:
    """P(chi_nu <= t) = 1 - chi2_tail(nu, t^2) at an array of t > 0: one
    array-valued series for even nu, chi2_tail at each point for odd nu."""
    t = np.asarray(t, dtype=float)
    if nu % 2:
        return np.array([1.0 - chi2_tail(nu, v * v) for v in t.ravel().tolist()]).reshape(t.shape)
    return 1.0 - chi2_tail(nu, t * t, np)


def _log_chi_lattice(nu: int, step: float) -> tuple[int, np.ndarray]:
    """The density of u = log r, r ~ chi_nu, on the lattice u = j step:
    the first index j0 and the values, e^(nu u - e^(2u)/2) / (2^(nu/2-1)
    Gamma(nu/2)), over the span where it is within LOG_DENSITY_FLOOR of
    its peak at u = log(nu)/2.  The span's ends come from bounds of the
    log-density: below the peak it falls at least as fast as nu (u - peak)
    + nu/2, above it as fast as -nu (u - peak)^2."""
    peak = 0.5 * math.log(nu)
    lo = math.floor((peak - (LOG_DENSITY_FLOOR + 0.5 * nu) / nu) / step)
    hi = math.ceil((peak + math.sqrt(LOG_DENSITY_FLOOR / nu)) / step)
    u = np.arange(lo, hi + 1) * step
    log_g = nu * u - 0.5 * np.exp(2.0 * u) - (0.5 * nu - 1.0) * math.log(2.0) - math.lgamma(0.5 * nu)
    keep = np.flatnonzero(log_g >= log_g.max() - LOG_DENSITY_FLOOR)
    return lo + int(keep[0]), np.exp(log_g[keep[0]:keep[-1] + 1])


@dataclass(frozen=True)
class ChiProductLaw:
    """The law of Y = prod_i chi_(nu_i), the chi variables independent.

    One factor is a chi law, whose CDF is chi_cdf.  Above one, an even nu_e
    (the smallest) is taken out (a direct sum always has one: every nu_i is
    even over C and H, and nu_1, nu_2 are consecutive over R).  With u the
    log of the product of the other factors, of density g,

        F(y) = integral g(u) P(chi_(nu_e) <= y e^(-u)) du,

    a trapezoid sum on the lattice u = j h, where g is the other factors'
    log-chi densities, convolved (each discrete convolution times h is the
    trapezoid rule of the convolution integral).  Every integrand is smooth
    and dies off at both ends, so the trapezoid rule converges exponentially
    in 1/h; h is LOG_STEP, or a third of the smallest standard deviation
    1/sqrt(2 nu) of a log chi_nu.
    """

    nus: tuple[int, ...]

    @functools.cached_property
    def _step(self) -> float:
        return min(LOG_STEP, 1.0 / (3.0 * math.sqrt(2.0 * max(self.nus))))

    @functools.cached_property
    def _even(self) -> int:
        return min(nu for nu in self.nus if nu % 2 == 0)

    @functools.cached_property
    def _rest(self) -> tuple[np.ndarray, np.ndarray]:
        """The lattice of u and h g(u), g the density of the log of the
        product of every factor but the even one taken out."""
        h, rest = self._step, list(self.nus)
        rest.remove(self._even)
        start, hg = 0, np.ones(1)
        for nu in rest:
            j0, g = _log_chi_lattice(nu, h)
            start, hg = start + j0, np.convolve(hg, h * g)
        keep = np.flatnonzero(hg >= hg.max() * math.exp(-LOG_DENSITY_FLOOR))
        return (start + np.arange(keep[0], keep[-1] + 1)) * h, hg[keep[0]:keep[-1] + 1]

    @functools.cached_property
    def grid(self) -> np.ndarray:
        """GRID_POINTS values of Y, evenly spaced in log Y over its mean plus
        or minus GRID_SIGMAS standard deviations, from the factors' lattices."""
        h, mean, var = self._step, 0.0, 0.0
        for nu in self.nus:
            j0, g = _log_chi_lattice(nu, h)
            u = (j0 + np.arange(len(g))) * h
            m = h * float(g @ u)
            mean, var = mean + m, var + h * float(g @ (u * u)) - m * m
        return np.exp(mean + math.sqrt(var) * np.linspace(-GRID_SIGMAS, GRID_SIGMAS, GRID_POINTS))

    def cdf(self, y: np.ndarray) -> np.ndarray:
        """P(Y <= y) at a 1-D array of y > 0; a product evaluates blocks of
        points whose (block, lattice) arrays hold at most BLOCK_CELLS cells."""
        t = np.asarray(y, dtype=float)
        if len(self.nus) == 1:
            return chi_cdf(self.nus[0], t)
        u, hg = self._rest
        shrink, out = np.exp(-u), np.empty(len(t))
        rows = max(1, BLOCK_CELLS // len(u))
        for lo in range(0, len(t), rows):
            out[lo:lo + rows] = chi_cdf(self._even, t[lo:lo + rows, None] * shrink) @ hg
        return out
