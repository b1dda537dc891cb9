"""The direct-sum ensemble reference as one unblocked pass, for the tests.

``actions.bartlett_draws`` used to lay out all count draws at once: a
(count, section_dim) array filled column by column as the axes were
drawn, with the weight check evaluated on every row together.  It now
draws the same axes in the same order and evaluates them a row block at
a time.  These are the earlier functions, kept as an oracle: the blocked
reference must give the same statistics and weight-ratio spread, bit for
bit.
"""

from __future__ import annotations

import math

import numpy as np

from sectint.fields import ScalarField
from sectint.actions import REF_BLOCK, TWO_PI, DirectSumAction, _bartlett_axes, _coordinate_statistics
from sectint.ensembles import EnsembleSpec
from sectint.mc import _subseed
from sectint.weights import section_weight_batch


def bartlett_draws_unblocked(action: DirectSumAction, rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """count exact draws (count, section_dim) of e^(-|B|^2/2) * weight as
    triangular R, and per draw the log of e^(-|R|^2/2) times the Jacobian
    over the draws' density; the axes draw in their order, then the signs."""
    axes, power, _ = _bartlett_axes(action)
    z = np.zeros((count, action.section_dim))
    log_q = np.full(count, -np.log(2.0) if action.k == 1 else 0.0)
    log_jacobian = np.zeros(count)
    for col, b in axes:
        if b is None:
            x = rng.standard_normal(count)
            log_q -= 0.5 * (x * x + np.log(TWO_PI))
        else:
            nu = b + power + 1
            x = np.sqrt(rng.chisquare(nu, count))
            log_q += (nu - 1) * np.log(x) - 0.5 * x * x - (0.5 * nu - 1) * np.log(2.0) - math.lgamma(0.5 * nu)
            log_jacobian += b * np.log(x)
        z[:, col] = x
    if action.k == 1:
        z[:, 0] *= np.where(rng.random(count) < 0.5, -1.0, 1.0)
    return z, log_jacobian - 0.5 * np.sum(z * z, axis=1) - log_q


def bartlett_reference_unblocked(spec: EnsembleSpec, seed: int, n_ref: int) -> tuple[np.ndarray, float]:
    """Statistics and weight-ratio spread of n_ref draws, each
    REF_BLOCK block of draws evaluated whole."""
    action, scale, k = spec.action, abs(spec.scale), spec.action.k
    field = action.field if k > 1 else ScalarField.REAL
    stats, lo, hi = [], np.inf, -np.inf
    for block, start in enumerate(range(0, n_ref, REF_BLOCK)):
        rng = np.random.default_rng(_subseed(seed, block))
        x, log_factor = bartlett_draws_unblocked(action, rng, min(REF_BLOCK, n_ref - start))
        z = scale * x
        comps = z.reshape(len(z), k, k, field.dim)
        log_ratio = np.log(section_weight_batch(action, z)) + log_factor
        lo, hi = min(lo, log_ratio.min()), max(hi, log_ratio.max())
        if spec.statistic == "coordinate_det":
            stats.append(np.prod(np.abs(comps[:, range(k), range(k), 0]), axis=1))
        else:
            stats.append(_coordinate_statistics(spec, field, comps))
    return np.concatenate(stats), float(np.expm1(hi - lo))
