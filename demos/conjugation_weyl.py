# %% Conjugation on SU(2): the classical torus reduction
#
# SU(2) acting on itself by conjugation is polar with the diagonal
# torus as section.  The generic weight evaluator recovers the
# classical density 4 sin(theta)^2, which Weyl's closed form
# torus_weight_batch (the torus quadrature's weight) gives directly;
# conjugacy classes are round two-spheres, and class-function
# integrals reduce to a one-dimensional quadrature over the torus angle.

import numpy as np

from sectint import (
    ConjugationAction,
    Family,
    GroupSpec,
    calibrate_vol_gn,
    delta_e_generic,
    integrate_direct,
    integrate_reduced,
    make_test_function,
    orbit_volume,
    torus_point,
    torus_weight_batch,
    vol_gh_estimate,
    w_group_volume,
)

action = ConjugationAction(GroupSpec(Family.SU, 2))

print("theta    weight     Weyl       4 sin^2")
for theta in np.linspace(0.3, np.pi - 0.3, 6):
    w = delta_e_generic(action, torus_point(action.group, [theta]))
    weyl = torus_weight_batch(action.group, [[theta]])[0]
    print(f"{theta:5.2f}  {w:9.6f}  {weyl:9.6f}  {4*np.sin(theta)**2:9.6f}")

# %% Orbit volumes: the conjugacy class through angle theta is a round
# sphere of radius sqrt(2) sin(theta); its area is 8 pi sin(theta)^2.

gh = vol_gh_estimate(action)  # exact, a float: vol(SU(2)) / vol(T)
print(f"\nvol(G/T) = {gh:.4f}   (analytic 2 pi = {2*np.pi:.4f})")
for theta in (np.pi / 2, 0.8):
    vol = orbit_volume(action, torus_point(action.group, [theta]), gh)
    print(f"orbit volume at theta={theta:.2f}: {vol:8.4f}   sphere area {8*np.pi*np.sin(theta)**2:8.4f}")

# %% A class function integrated both ways: over the whole group by
# Haar sampling, and over the torus by quadrature with the weight.

f = make_test_function("trace_power", power=2)
vol_gn = gh / w_group_volume(action)  # exact: vol(G/T) / |W|
[direct] = integrate_direct(action, [f], seed=5, n=100_000)
[reduced] = integrate_reduced(action, [f], vol_gn)  # one estimate per integrand
print(f"\nvol(G/N) = vol(G/T) / |W| = {vol_gn:.5f} (analytic pi = {np.pi:.5f})")
print(f"direct Haar integral of tr^2  : {direct.mean:.4f} +- {direct.stderr:.4f}")
print(f"reduced torus quadrature      : {reduced.mean:.4f} +- {reduced.stderr:.4f}")
print(f"analytic value 4 sqrt(2) pi^2 : {4*np.sqrt(2)*np.pi**2:.4f}")

# %% Check: calibrating vol(G/N) as direct / reduced recovers the exact value.

calib = calibrate_vol_gn(action, [f, make_test_function("const")], seed=4, n=100_000)
print(f"calibrated vol(G/N): {calib.combined.mean:.5f} +- {calib.combined.stderr:.5f}")
