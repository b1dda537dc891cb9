# %% Reducing an ambient integral to the section
#
# For an invariant integrand f the ambient integral equals
# vol(G/N) * integral over the section of f times the weight.  Neither
# side knows about the other: the left side is Gaussian importance
# sampling on R^(n x k), the right side a tensor Gauss rule on the
# section in the coordinates B = wR (w orthogonal, R upper triangular).
# The quotient volume vol(G/N) = vol(G/H) / vol(W) is exact.

import numpy as np

from sectint import (
    DirectSumAction,
    ScalarField,
    calibrate_vol_gn,
    integrate_direct,
    integrate_reduced,
    make_test_function,
    vol_gh_estimate,
    w_group_volume,
)

action = DirectSumAction(ScalarField.REAL, 3, 2)
f = make_test_function("gaussian_radial", sigma=1.0)
g = make_test_function("gaussian_sq_norm", sigma=1.0)

vol_gn = vol_gh_estimate(action) / w_group_volume(action)  # exact volumes are plain floats
print(f"exact vol(G/N) = vol(G/H) / vol(W) = {vol_gn:.5f}   (4 pi = {4*np.pi:.5f})\n")

# %% With the exact volume, the two sides of the identity match for the
# Gaussian integrand, whose ambient integral is (2 pi)^3, and for
# |x|^2 times it, 6 (2 pi)^3.  Each side takes the list of integrands:
# one Gaussian draw and one evaluation of the rule's weight serve both.

direct = integrate_direct(action, [f, g], seed=2, n=1_000_000)
reduced = integrate_reduced(action, [f, g], vol_gn)
for h, d, r, exact in zip((f, g), direct, reduced, ((2*np.pi)**3, 6*(2*np.pi)**3)):
    print(f"{h.name}:")
    print(f"  direct  integral: {d.mean:.4f} +- {d.stderr:.2e}")
    print(f"  reduced integral: {r.mean:.4f} +- {r.stderr:.1e}   ({r.n_samples} rule nodes)")
    print(f"  analytic        : {exact:.4f}")
print()

# %% As a check, vol(G/N) can also be calibrated as direct / reduced per
# integrand; the ratios of two integrands must agree with each other and
# with the exact value.

calib = calibrate_vol_gn(action, [f, g], seed=1, n=500_000)
print("per-integrand quotient volume ratios:")
for h, r in zip((f, g), calib.ratios):
    print(f"  {h.name:18s} {r.mean:.5f} +- {r.stderr:.1e}")
c = calib.combined
print(f"calibrated vol(G/N) = {c.mean:.5f} +- {c.stderr:.1e}, z = {(c.mean - vol_gn) / c.stderr:+.2f} from exact")
print(f"ratios agree within {calib.worst_sigma:.2f} combined standard errors")
