"""L^p norm preservation of the restriction to the section, for the tests.

The reduced norm uses vol(G/N) * weight as density, so equality of the
ambient and section norms is the isometry property of the restriction
map at exponent p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sectint.integrate import (
    ContractViolation,
    TestFunction,
    integrate_direct,
    integrate_reduced,
)
from sectint.mc import McEstimate, product, subseed
from reduced_mc import evaluate_test_function


@dataclass(frozen=True)
class LpIsometryReport:
    p: int
    norm_ambient: McEstimate
    norm_section: McEstimate
    rel_error: float
    combined_sigma: float

    def passed(self, n_sigma: float = 3.0, atol: float = 1e-9) -> bool:
        gap = abs(self.norm_ambient.mean - self.norm_section.mean)
        return gap <= n_sigma * self.combined_sigma + atol * max(1.0, self.norm_ambient.mean)


def lp_isometry_check(action, f: TestFunction, p: int, vol_gn: McEstimate, seed: int, n: int,
                      chunks: int = 16, workers: int | None = None) -> LpIsometryReport:
    """Compare the L^p norm of f with the weighted L^p norm on the section, whose density is vol_gn * weight."""
    if not f.invariant:
        raise ContractViolation("the isometry check needs a group-invariant function")
    fp = TestFunction(f"abs_{f.name}_pow{p}", {}, True,
                      lambda pts, a: np.abs(evaluate_test_function(a, f, pts)) ** p)
    [lhs] = integrate_direct(action, [fp], subseed(seed, 0), n, chunks, workers)
    rhs = product(*integrate_reduced(action, [fp], 1.0), vol_gn)

    def root(e: McEstimate) -> McEstimate:
        if e.mean <= 0:
            return McEstimate(0.0, e.stderr, e.n_samples)
        val = e.mean ** (1.0 / p)
        return McEstimate(val, e.stderr * val / (p * e.mean), e.n_samples)

    lhs_r, rhs_r = root(lhs), root(rhs)
    denom = max(abs(lhs_r.mean), 1e-300)
    return LpIsometryReport(
        p,
        lhs_r,
        rhs_r,
        abs(lhs_r.mean - rhs_r.mean) / denom,
        float(np.hypot(lhs_r.stderr, rhs_r.stderr)),
    )
