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

import numpy as np

from sectint.fields import ScalarField
from sectint.actions import REF_BLOCK, DirectSumAction, _bartlett_axes, _coordinate_statistics
from sectint.ensembles import EnsembleSpec
from sectint.mc import _subseed
from sectint.weights import section_weight_batch


def bartlett_draws_unblocked(action: DirectSumAction, rng: np.random.Generator, count: int) -> np.ndarray:
    """count exact draws (count, section_dim) of e^(-|B|^2/2) * weight as
    triangular R; the axes draw in their order."""
    axes, power, _ = _bartlett_axes(action)
    z = np.zeros((count, action.section_dim))
    for col, b in axes:
        z[:, col] = rng.standard_normal(count) if b is None else np.sqrt(rng.chisquare(b + power + 1, count))
    return z


def bartlett_reference_unblocked(spec: EnsembleSpec, seed: int, n_ref: int) -> tuple[np.ndarray, float]:
    """Statistics and spread of weight / |det R|^p over n_ref draws, each
    REF_BLOCK block of draws evaluated whole."""
    action, scale, k = spec.action, abs(spec.scale), spec.action.k
    field = action.field if k > 1 else ScalarField.REAL
    power = _bartlett_axes(action)[1]
    stats, lo, hi = [], np.inf, -np.inf
    for block, start in enumerate(range(0, n_ref, REF_BLOCK)):
        rng = np.random.default_rng(_subseed(seed, block))
        z = scale * bartlett_draws_unblocked(action, rng, min(REF_BLOCK, n_ref - start))
        comps = z.reshape(len(z), k, k, field.dim)
        det = np.prod(np.abs(comps[:, range(k), range(k), 0]), axis=1)
        log_ratio = np.log(section_weight_batch(action, z)) - power * np.log(det)
        lo, hi = min(lo, log_ratio.min()), max(hi, log_ratio.max())
        stats.append(det if spec.statistic == "coordinate_det" else _coordinate_statistics(spec, field, comps))
    return np.concatenate(stats), float(np.expm1(hi - lo))
