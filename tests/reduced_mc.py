"""Gaussian importance sampling of the direct-sum section integral, for the tests.

The reduced side used this sampler before its quadrature rule: it draws
standard-Gaussian section coordinates z and averages
f * weight * e^(|z|^2/2) (2 pi)^(D/2) over them.  Its variance is
finite only where f * weight decays faster than e^(-|z|^2/4), so it
serves as an independent oracle at sigma = 1.  ``evaluate_test_function``
evaluates one integrand on a batch of points, as the tests need it.
"""

from __future__ import annotations

import numpy as np

from sectint.actions import TWO_PI, ActionSpec, DirectSumAction
from sectint.integrate import TestFunction, _stacked_values
from sectint.weights import section_weight_batch
from sectint.mc import McEstimate, mc_run


def evaluate_test_function(action: ActionSpec, f: TestFunction, pts: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on an (m, D) array of flat coordinates."""
    return _stacked_values(action, [f], np.atleast_2d(pts))[0]


def reduced_importance_sampling(action: DirectSumAction, f: TestFunction, seed: int, n: int,
                                workers: int | None = None) -> McEstimate:
    """Estimate of the section integral of f * weight (vol(G/N) = 1)."""
    dim = action.section_dim
    log_norm = 0.5 * dim * np.log(TWO_PI)

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        z = rng.standard_normal((size, dim))
        pts = np.zeros((len(z), action.ambient_dim))
        pts[:, :dim] = z
        vals = evaluate_test_function(action, f, pts) * section_weight_batch(action, z)
        return vals * np.exp(0.5 * np.sum(z * z, axis=1) + log_norm)

    return mc_run(sample, n, seed, workers)
