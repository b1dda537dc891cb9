import json

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma

from chart_volume_oracle import chart_volume, structure_constants
from sectint.fields import ScalarField
from sectint.matrices import to_real_vector
from sectint.groups import Family, GroupSpec, root_data, torus_point
from sectint.actions import ConjugationAction, DirectSumAction
from sectint.volumes import (
    group_volume,
    torus_volume,
    vol_gh_estimate,
    w_group_volume,
)

R = ScalarField.REAL


def radial_chart_volume(ad_rate: float, angle_rate: float) -> float:
    """Exact chart volume for a rank-one three-dimensional algebra.

    With coordinate radius t, the exponential Jacobian depends only on
    the adjoint eigenvalue pair +-i(ad_rate t) and the principal domain
    is angle_rate * t < pi, so the volume is a radial integral.
    """
    upper = np.pi / angle_rate
    phi = lambda t: (np.sinc(ad_rate * t / (2 * np.pi))) ** 2
    val, _ = quad(lambda t: 4 * np.pi * t * t * phi(t), 0, upper)
    return val


def test_su2_volume_vs_radial_oracle():
    est = chart_volume(GroupSpec(Family.SU, 2), 300_000, 12)
    oracle = radial_chart_volume(np.sqrt(2.0), 1.0 / np.sqrt(2.0))
    assert oracle == pytest.approx(2 * np.pi ** 2 * 2 ** 1.5, rel=1e-9)
    assert abs(est.mean - oracle) < 4 * est.stderr


def test_sp1_volume_vs_radial_oracle():
    est = chart_volume(GroupSpec(Family.SP, 1), 300_000, 13)
    oracle = radial_chart_volume(2.0, 1.0)
    assert oracle == pytest.approx(2 * np.pi ** 2, rel=1e-9)
    assert abs(est.mean - oracle) < 4 * est.stderr


def test_so3_volume_vs_radial_oracle():
    est = chart_volume(GroupSpec(Family.SO, 3), 300_000, 14)
    oracle = radial_chart_volume(1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))
    assert oracle == pytest.approx(16 * np.sqrt(2.0) * np.pi ** 2, rel=1e-9)
    assert abs(est.mean - oracle) < 4 * est.stderr


def test_so4_volume_vs_sphere_recursion():
    # vol(SO(n)) = sqrt(2)^(n-1) area(S^(n-1)) vol(SO(n-1)) for this metric
    est = chart_volume(GroupSpec(Family.SO, 4), 300_000, 15)
    target = 2 ** 1.5 * 2 * np.pi ** 2 * 16 * np.sqrt(2.0) * np.pi ** 2
    assert abs(est.mean - target) < 4 * est.stderr


def test_trivial_and_abelian_groups_exact():
    assert group_volume(GroupSpec(Family.SO, 1)) == 1.0
    assert group_volume(GroupSpec(Family.SO, 2)) == pytest.approx(2 * np.sqrt(2.0) * np.pi)


def test_group_volume_takes_no_samples():
    # the chart Monte Carlo is the test oracle chart_volume; group_volume is exact only
    with pytest.raises(ValueError, match="n_samples"):
        group_volume(GroupSpec(Family.SU, 2), n_samples=1)


def test_torus_volume_vs_numeric_chart():
    # finite-difference Gram determinant of the angle chart
    for g in [GroupSpec(Family.SU, 3), GroupSpec(Family.SO, 5), GroupSpec(Family.SP, 2)]:
        rank = g.rank
        base = 0.37 * np.ones(rank)
        eps = 1e-6
        tangents = []
        for a in range(rank):
            da = np.zeros(rank)
            da[a] = eps
            plus = torus_point(g, base + da)
            minus = torus_point(g, base - da)
            tangents.append((to_real_vector(plus) - to_real_vector(minus)) / (2 * eps))
        gram = np.array([[u @ v for v in tangents] for u in tangents])
        numeric = np.sqrt(np.linalg.det(gram)) * (2 * np.pi) ** rank
        assert torus_volume(g) == pytest.approx(numeric, rel=1e-5)


def test_weyl_group_orders():
    assert root_data(GroupSpec(Family.SU, 2)).weyl_order == 2
    assert root_data(GroupSpec(Family.SU, 4)).weyl_order == 24
    assert root_data(GroupSpec(Family.SO, 3)).weyl_order == 2
    assert root_data(GroupSpec(Family.SO, 4)).weyl_order == 4
    assert root_data(GroupSpec(Family.SO, 5)).weyl_order == 8
    assert root_data(GroupSpec(Family.SP, 2)).weyl_order == 8


def test_w_volume_o2():
    a = DirectSumAction(R, 3, 2)
    assert w_group_volume(a) == pytest.approx(4 * np.sqrt(2.0) * np.pi, rel=1e-12)


def test_w_volume_polar_and_conjugation_counts():
    assert w_group_volume(DirectSumAction(R, 4, 1)) == 2.0
    assert w_group_volume(ConjugationAction(GroupSpec(Family.SU, 2))) == 2.0
    assert w_group_volume(ConjugationAction(GroupSpec(Family.SP, 2))) == 8.0


def test_vol_gh_su2_conjugation():
    c = ConjugationAction(GroupSpec(Family.SU, 2))
    assert c.stabilizer_volume() == pytest.approx(2 * np.pi * np.sqrt(2.0))
    assert vol_gh_estimate(c) == pytest.approx(2 * np.pi, rel=1e-12)


def test_vol_gh_so3_k2():
    a = DirectSumAction(R, 3, 2)
    assert vol_gh_estimate(a) == pytest.approx(16 * np.sqrt(2.0) * np.pi ** 2, rel=1e-12)


def volumes_payload(capsys, action_json: str, seed: int, n: int) -> dict:
    """The ``sectint volumes`` report with its default integrands, at 4 sigma."""
    from sectint.cli import main

    main(["volumes", "--action", action_json, "--seed", str(seed), "--n", str(n), "--n-sigma", "4.0"])
    return json.loads(capsys.readouterr().out)


def test_volume_table_closes_for_so3_k2(capsys):
    # vol(G/H) = vol(G/N) vol(W): the exact volumes close the triangle with
    # the calibrated quotient volume of gaussian_radial and gaussian_sq_norm
    rep = volumes_payload(capsys, '{"kind":"direct_sum","field":"R","n":3,"k":2}', seed=19, n=300_000)
    [factorization] = [c for c in rep["checks"] if c["name"] == "volume_factorization"]
    assert factorization["pass"] is True
    vol_gn = rep["results"]["vol_gn"]
    assert abs(vol_gn["mean"] - 4 * np.pi) < 4 * vol_gn["stderr"]


def test_volume_table_closes_for_su2_conjugation(capsys):
    # calibrated with trace_power:power=2 and const
    rep = volumes_payload(capsys, '{"kind":"conjugation","family":"SU","n":2}', seed=21, n=60_000)
    [factorization] = [c for c in rep["checks"] if c["name"] == "volume_factorization"]
    assert factorization["pass"] is True
    # vol(G/N) = vol(G/T) / |W| = pi
    vol_gn = rep["results"]["vol_gn"]
    assert abs(vol_gn["mean"] - np.pi) < 4 * vol_gn["stderr"]


def test_su3_volume_vs_sphere_recursion():
    # validates the angle-spread principal domain for trace-free unitary
    # algebras: vol(SU(n)) = 2^(n-1) sqrt(n/(n-1)) area(S^(2n-1)) vol(SU(n-1))
    est = chart_volume(GroupSpec(Family.SU, 3), 400_000, 33)
    target = 4.0 * np.sqrt(1.5) * np.pi ** 3 * (2 * np.pi ** 2 * 2 ** 1.5)
    assert abs(est.mean - target) < 4 * est.stderr


def test_su3_conjugation_two_sided_identity():
    # rank-two torus quadrature against direct Haar sampling, with the
    # calibrated quotient volume checked against the analytic value
    from sectint.integrate import calibrate_vol_gn, integrate_direct, integrate_reduced, make_test_function
    from sectint.mc import agree, product

    c = ConjugationAction(GroupSpec(Family.SU, 3))
    f = make_test_function("trace_power", power=2)
    calib = calibrate_vol_gn(c, [f, make_test_function("const")], seed=34, n=50_000)
    assert calib.consistent
    vol_su3 = 4.0 * np.sqrt(1.5) * np.pi ** 3 * (2 * np.pi ** 2 * 2 ** 1.5)
    analytic_gn = vol_su3 / (torus_volume(GroupSpec(Family.SU, 3)) * root_data(GroupSpec(Family.SU, 3)).weyl_order)
    assert abs(calib.combined.mean - analytic_gn) < 4 * calib.combined.stderr
    [direct] = integrate_direct(c, [f], seed=35, n=50_000)
    reduced = product(*integrate_reduced(c, [f], 1.0), calib.combined)
    assert agree(direct, reduced, 3.5)


def sphere_area(dim: int) -> float:
    return 2 * np.pi ** ((dim + 1) / 2) / gamma((dim + 1) / 2)


# vol(G(m)) / vol(G(m - 1)) from the fibration G(m - 1) -> G(m) -> G(m) e_1
FIBRATION_FACTOR = {
    Family.SO: lambda m: np.sqrt(2.0) ** (m - 1) * sphere_area(m - 1),
    Family.SU: lambda m: 2.0 ** (m - 1) * np.sqrt(m / (m - 1)) * sphere_area(2 * m - 1),
    Family.SP: lambda m: 4.0 ** (m - 1) * sphere_area(4 * m - 1),
}


@pytest.mark.parametrize("family, sizes", [(Family.SO, range(2, 7)), (Family.SU, range(2, 6)), (Family.SP, range(1, 4))])
def test_exact_group_volumes_follow_sphere_recursion(family, sizes):
    for m in sizes:
        vol = group_volume(GroupSpec(family, m))
        lower = group_volume(GroupSpec(family, m - 1)) if m > 1 else 1.0
        assert vol > 0
        assert vol / lower == pytest.approx(FIBRATION_FACTOR[family](m), rel=1e-12)


def test_exact_group_volumes_known_values():
    known = {
        (Family.SO, 2): 2 * np.sqrt(2.0) * np.pi,
        (Family.SO, 3): 16 * np.sqrt(2.0) * np.pi ** 2,
        (Family.SU, 2): 2 * np.pi ** 2 * 2 ** 1.5,
        (Family.SP, 1): 2 * np.pi ** 2,
        (Family.SP, 2): 8 * np.pi ** 6 / 3,
    }
    for (family, n), value in known.items():
        assert group_volume(GroupSpec(family, n)) == pytest.approx(value, rel=1e-12)
    assert group_volume(GroupSpec(Family.SP, 3)) > 0


def test_u2_weyl_volume_vs_chart_oracle():
    # U(2) in C(4,2): its su(2) block plus the trace-compensating generator,
    # whose principal-domain test ignores the determined lower block
    from sectint.actions import algebra_split

    a = DirectSumAction(ScalarField.COMPLEX, 4, 2)
    exact = w_group_volume(a)
    assert exact == pytest.approx(2 * np.pi * group_volume(GroupSpec(Family.SU, 2)), rel=1e-12)
    est = chart_volume(a.group, 200_000, 23, algebra_split(a).w_rows, 2)
    assert abs(est.mean - exact) < 4 * est.stderr


@pytest.mark.parametrize("group", [GroupSpec(Family.SU, 3), GroupSpec(Family.SO, 5), GroupSpec(Family.SP, 2)], ids=str)
def test_structure_constants_match_a_bracket_loop(group):
    # the batched brackets of the basis stack against one matrix bracket and
    # inner product per (i, j, l); the metric is ad-invariant, so the
    # constants are totally antisymmetric
    from algebra_oracle import matrices
    from sectint.groups import algebra_basis
    from sectint.matrices import inner

    basis = matrices(group, algebra_basis(group))
    c = structure_constants(group.field, np.stack([b.data for b in basis]))
    loop = np.array([[[inner(z, x @ y - y @ x) for z in basis] for y in basis] for x in basis])
    np.testing.assert_allclose(c, loop, rtol=0, atol=1e-14)
    np.testing.assert_allclose(c, -np.swapaxes(c, 0, 1), rtol=0, atol=1e-14)
    np.testing.assert_allclose(c, -np.swapaxes(c, 1, 2), rtol=0, atol=1e-14)
    assert np.abs(c).max() > 0.5


@pytest.mark.parametrize("field, n, seed", [(ScalarField.COMPLEX, 4, 24), (ScalarField.QUATERNION, 3, 25)])
def test_calibrated_vol_gn_matches_exact_quotient(field, n, seed):
    # the independent check of the U(k) and Sp(n) factors: the calibrated
    # vol(G/N) uses no group volume at all
    from sectint.integrate import calibrate_vol_gn, make_test_function

    a = DirectSumAction(field, n, 2)
    fs = [make_test_function("gaussian_radial"), make_test_function("gaussian_sq_norm")]
    calib = calibrate_vol_gn(a, fs, seed=seed, n=200_000)
    exact = vol_gh_estimate(a) / w_group_volume(a)
    assert abs(calib.combined.mean - exact) < 4 * calib.combined.stderr
