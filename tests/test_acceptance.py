"""Acceptance suite: one test per release criterion, each printing a
single PASS line with its measured figures (run with -s to see them).
"""

import json
import time

import numpy as np
import pytest

from sectint.fields import ScalarField
from sectint.matrices import det_modulus, gaussian, to_real_vector
from sectint.groups import Family, GroupSpec, adjoint, torus_point
from sectint.actions import (
    ConjugationAction,
    DirectSumAction,
    act,
    algebra_split,
    embed_section,
    normalizer_sample,
    random_regular_section_point,
    section_coordinate,
)
from sectint.weights import delta_e_batch, delta_e_closed_form, delta_e_generic, orbit_map_differential
from sectint.integrate import (
    calibrate_vol_gn,
    integrate_direct,
    integrate_reduced,
    make_test_function,
)
from sectint.mc import agree, product
from sectint.ensembles import EnsembleSpec, compare_densities
from algebra_oracle import matrices
from lp_isometry import lp_isometry_check
from matrix_oracles import realified_det

R, C, H = ScalarField.REAL, ScalarField.COMPLEX, ScalarField.QUATERNION

TABLE = (
    [(R, n, k) for n in range(3, 7) for k in range(2, n)]
    + [(C, n, k) for n in range(3, 5) for k in range(2, n)]
    + [(H, 3, 2)]
)
SO3K2 = DirectSumAction(R, 3, 2)
SU2CONJ = ConjugationAction(GroupSpec(Family.SU, 2))


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_weight_cross_validation():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for (f, n, k) in TABLE:
        action = DirectSumAction(f, n, k)
        for _ in range(100):
            s = random_regular_section_point(action, rng)
            closed = delta_e_closed_form(f, n, k, section_coordinate(action, s))
            generic = delta_e_generic(action, s)
            worst = max(worst, abs(generic - closed) / (1.0 + closed))
    elapsed = time.time() - t0
    assert worst <= 1e-8
    assert elapsed < 10.0
    _report(1, f"generic vs closed-form weight, {len(TABLE)} actions x 100 points, "
               f"worst rel dev {worst:.2e} (tol 1e-8), {elapsed:.1f}s")


def test_criterion_02_reductive_decomposition():
    t0 = time.time()
    rng = np.random.default_rng(1002)
    worst_br, worst_ad = 0.0, 0.0
    for (f, n, k) in TABLE:
        action = DirectSumAction(f, n, k)
        split = algebra_split(action)
        d = f.dim
        expected_w = {1: k * (k - 1) // 2, 2: k * k, 4: k * (2 * k + 1)}[d]
        assert len(split.w_rows) == expected_w
        assert len(split.m_rows) == action.ambient_dim - action.section_dim
        perp, m_basis = split.w_rows, matrices(action.group, split.m_rows)
        for x in matrices(action.group, np.concatenate([split.h_rows, split.w_rows])):
            for y in m_basis:
                worst_br = max(worst_br, np.abs(perp @ to_real_vector(x @ y - y @ x)).max())
        for _ in range(20):
            g = normalizer_sample(action, rng)
            for y in m_basis:
                v = to_real_vector(adjoint(g, y))
                worst_ad = max(worst_ad, np.abs(perp @ v).max())
    elapsed = time.time() - t0
    assert worst_br <= 1e-8 and worst_ad <= 1e-8
    assert elapsed < 5.0
    _report(2, f"reductive split on {len(TABLE)} actions: bracket residual {worst_br:.2e}, "
               f"adjoint residual {worst_ad:.2e} (tol 1e-8), dimensions match table, {elapsed:.1f}s")


def test_criterion_03_integration_identity():
    t0 = time.time()
    f = make_test_function("gaussian_radial", sigma=1.0)
    g = make_test_function("gaussian_sq_norm", sigma=1.0)
    n = 1_000_000
    calib = calibrate_vol_gn(SO3K2, [f, g], seed=30, n=n)
    assert calib.consistent, f"volume ratios disagree at {calib.worst_sigma:.2f} sigma"
    [direct] = integrate_direct(SO3K2, [f], seed=31, n=n)
    reduced = product(*integrate_reduced(SO3K2, [f], 1.0), calib.combined)
    assert agree(direct, reduced, 3.0)
    analytic = (2 * np.pi) ** 3
    assert abs(direct.mean - analytic) <= 3 * direct.stderr + 1e-9 * analytic
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(3, f"direct {direct.mean:.3f}±{direct.stderr:.1e} vs reduced "
               f"{reduced.mean:.3f}±{reduced.stderr:.3f} (n=1e6), brackets (2pi)^3={analytic:.3f}; "
               f"vol(G/N)={calib.combined.mean:.4f}±{calib.combined.stderr:.4f} consistent across "
               f"2 integrands at {calib.worst_sigma:.2f} sigma, {elapsed:.1f}s")


def test_criterion_04_classical_weyl_recovery():
    t0 = time.time()
    grid = np.linspace(0.1, np.pi - 0.1, 100)
    ratios = np.array(
        [delta_e_generic(SU2CONJ, torus_point(SU2CONJ.group, [t])) / np.sin(t) ** 2 for t in grid]
    )
    spread = np.abs(ratios - ratios[0]).max() / abs(ratios[0])
    assert spread <= 1e-6
    f = make_test_function("trace_power", power=2)
    calib = calibrate_vol_gn(SU2CONJ, [f, make_test_function("const")], seed=40, n=100_000)
    [direct] = integrate_direct(SU2CONJ, [f], seed=41, n=100_000)
    reduced = product(*integrate_reduced(SU2CONJ, [f], 1.0), calib.combined)
    assert agree(direct, reduced, 3.0)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(4, f"weight/sin^2 constant to {spread:.2e} on 100-point grid; class function "
               f"direct {direct.mean:.3f}±{direct.stderr:.3f} vs torus quadrature "
               f"{reduced.mean:.3f}±{reduced.stderr:.3f}, {elapsed:.1f}s")


def test_criterion_05_factorization_and_blocks():
    t0 = time.time()
    rng = np.random.default_rng(1005)
    worst_fact, worst_block = 0.0, 0.0
    for (f, n, k) in TABLE:
        action = DirectSumAction(f, n, k)
        for _ in range(50):
            s = random_regular_section_point(action, rng)
            d = orbit_map_differential(action, s)
            worst_block = max(
                worst_block, d.off_block_residual() / max(np.abs(d.matrix).max(), 1e-300)
            )
            total = d.total_det()
            delta_e = delta_e_batch(action, to_real_vector(s)[None])[0]
            worst_fact = max(worst_fact, abs(total - d.delta_d() * delta_e) / max(1.0, total))
    elapsed = time.time() - t0
    assert worst_fact <= 1e-8 and worst_block <= 1e-10
    assert elapsed < 10.0
    _report(5, f"|det| = weight product to {worst_fact:.2e} rel (tol 1e-8), off-block residual "
               f"{worst_block:.2e} (tol 1e-10), 50 points x {len(TABLE)} actions, {elapsed:.1f}s")


def test_criterion_06_realification_identity():
    t0 = time.time()
    rng = np.random.default_rng(1006)
    worst = 0.0
    for field in (R, C, H):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            x = gaussian(field, n, n, rng)
            lhs, rhs = realified_det(x), det_modulus(x) ** field.dim
            worst = max(worst, abs(lhs - rhs) / max(1.0, rhs))
    elapsed = time.time() - t0
    assert worst <= 1e-8
    assert elapsed < 5.0
    _report(6, f"realified determinant vs Dieudonne power, 100 matrices x 3 fields, "
               f"worst rel dev {worst:.2e} (tol 1e-8), {elapsed:.1f}s")


def test_criterion_07_lp_isometry():
    t0 = time.time()
    f = make_test_function("gaussian_radial", sigma=1.0)
    g = make_test_function("gaussian_sq_norm", sigma=1.0)
    calib = calibrate_vol_gn(SO3K2, [f, g], seed=70, n=400_000)
    msgs = []
    for p in (1, 2):
        rep = lp_isometry_check(SO3K2, f, p, calib.combined, seed=71 + p, n=400_000)
        assert rep.passed(3.0), f"p={p}: rel err {rep.rel_error:.2e}"
        msgs.append(f"p={p} rel err {rep.rel_error:.2e} ({rep.combined_sigma:.1e} sigma)")
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(7, f"norm preservation {'; '.join(msgs)}, {elapsed:.1f}s")


def test_criterion_08_ensemble_densities():
    t0 = time.time()
    det_cmp = compare_densities(
        EnsembleSpec(SO3K2, 1.0, "coordinate_det"), seed=22, n=100_000, bins=30
    )
    assert det_cmp.p_value >= 0.01
    ang_cmp = compare_densities(
        EnsembleSpec(SU2CONJ, 1.0, "torus_angle"), seed=22, n=100_000, bins=30
    )
    assert ang_cmp.p_value >= 0.01
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(8, f"determinant statistic chi2 p={det_cmp.p_value:.3f}, torus angle "
               f"chi2 p={ang_cmp.p_value:.3f} (threshold 0.01, n=1e5), {elapsed:.1f}s")


@pytest.mark.parametrize("field, n, k", [(C, 4, 2), (H, 3, 2), (C, 6, 4), (R, 7, 5)],
                         ids=["C42", "H32", "C64", "R75"])
def test_criterion_08_direct_sum_ensemble_densities(field, n, k):
    # criterion 8 on the larger direct sums, against the exact Bartlett reference
    t0 = time.time()
    action = DirectSumAction(field, n, k)
    cmp_ = compare_densities(EnsembleSpec(action, 1.0, "coordinate_det"), seed=22, n=100_000, bins=30)
    assert cmp_.p_value >= 0.01
    assert cmp_.weight_ratio_spread <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(8, f"{action} determinant statistic chi2 p={cmp_.p_value:.3f} (threshold 0.01, n=1e5), "
               f"reference weight ratio spread {cmp_.weight_ratio_spread:.1e}, {elapsed:.1f}s")


def test_criterion_09_singular_vanishing_and_weyl_invariance():
    rng = np.random.default_rng(1009)
    # exactly zero on rank-deficient section points, post cutoff
    for b in ([[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 4.0]]):
        assert delta_e_generic(SO3K2, embed_section(SO3K2, b)) == 0.0
    worst = 0.0
    for action in (SO3K2, DirectSumAction(H, 3, 2), SU2CONJ):
        s = random_regular_section_point(action, rng)
        base = delta_e_generic(action, s)
        for _ in range(20):
            w = normalizer_sample(action, rng)
            moved = delta_e_generic(action, act(action, w, s))
            worst = max(worst, abs(moved - base) / (1.0 + base))
    assert worst <= 1e-9
    _report(9, f"weight exactly 0 on rank-deficient points; Weyl invariance to {worst:.2e} "
               f"under 20 random elements per action (tol 1e-9)")


def test_criterion_10_deterministic_payloads():
    f = make_test_function("gaussian_sq_norm", sigma=1.0)
    payloads = []
    for workers in (1, 2, 8):
        [direct] = integrate_direct(SO3K2, [f], seed=1234, n=100_000, workers=workers)
        [reduced] = integrate_reduced(SO3K2, [f], 4 * np.pi)
        payloads.append(json.dumps({"direct": direct.to_json(), "reduced": reduced.to_json()},
                                   sort_keys=True))
    assert payloads[0] == payloads[1] == payloads[2]
    _report(10, "bit-identical JSON payloads for (seed, n) across 1, 2 and 8 workers")
