import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sectint.fields import ScalarField
from sectint.groups import Family, GroupSpec, haar_sample, torus_weight_batch
from sectint.actions import (
    ConjugationAction,
    DirectSumAction,
    _bartlett_axes,
    act,
    half_range_rule,
    hermite_rule,
    section_weight_batch,
)
from sectint.matrices import MatK, to_real_vector
from sectint.mc import BATCH_DRAWS, McEstimate, agree, batch, batch_count, mc_run, product, ratio
from sectint.integrate import (
    QUADRATURE_REL_FLOOR,
    ContractViolation,
    IllConditionedCalibration,
    _stacked_values,
    calibrate_vol_gn,
    integrate_direct,
    integrate_reduced,
    make_test_function,
    section_coordinate_det,
)
from sectint import integrate  # integrate.TestFunction: a Test* name here would be collected
from sectint.volumes import group_volume, torus_volume, vol_gh_estimate, w_group_volume
from lp_isometry import lp_isometry_check
from mc_oracle import mc_run_per_batch
from reduced_mc import evaluate_test_function, reduced_importance_sampling
from test_groups import torus_grid

R = ScalarField.REAL
SO3K2 = DirectSumAction(R, 3, 2)
QUADRATURE_ACTIONS = [
    SO3K2,
    DirectSumAction(R, 5, 3),
    DirectSumAction(ScalarField.COMPLEX, 4, 2),
    DirectSumAction(ScalarField.QUATERNION, 3, 2),
    DirectSumAction(R, 4, 1),
    DirectSumAction(ScalarField.QUATERNION, 3, 1),
    DirectSumAction(R, 10, 2),
]
SU2CONJ = ConjugationAction(GroupSpec(Family.SU, 2))
#: the negative control of the invariance contract: the first flat coordinate, which the group moves
FIRST_COORDINATE = integrate.TestFunction("first_coordinate", {}, invariant=False,
                                          fn=lambda pts, action: pts[:, 0])


# --- the batched runner -------------------------------------------------------

def _square(rng, size):
    return rng.standard_normal((1, size)) ** 2


def test_mc_run_matches_flat_statistics():
    def fn(rng, size):
        return rng.standard_normal((1, size)) * 2.0 + 1.0

    [est] = mc_run(fn, 9000, seed=3)
    flat = np.concatenate([fn(*batch(3, 9000, i))[0] for i in range(batch_count(9000))])
    assert est.mean == pytest.approx(np.mean(flat), abs=1e-13)
    assert est.stderr == pytest.approx(np.std(flat, ddof=1) / np.sqrt(9000), rel=1e-10)


def test_mc_run_worker_invariance():
    runs = [mc_run(_square, 80_000, seed=11, workers=w) for w in (1, 2, 8)]
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("n", [3, 3 * BATCH_DRAWS, 10_000, 16 * (BATCH_DRAWS + 1)])
def test_mc_run_is_bit_identical_on_any_worker_count(n):
    # 1, 3, 3 and 17 batches.  A short switch interval hands the
    # interpreter between the claiming threads as often as it can
    one = mc_run(_square, n, seed=21, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 3, 17):
            assert mc_run(_square, n, seed=21, workers=workers) == one
    finally:
        sys.setswitchinterval(interval)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40 * BATCH_DRAWS))
def test_batches_split_n_into_near_equal_parts_of_at_most_batch_draws(n):
    count = batch_count(n)
    sizes = [batch(0, n, i)[1] for i in range(count)]
    assert count == math.ceil(n / BATCH_DRAWS) and sum(sizes) == n
    assert max(sizes) <= BATCH_DRAWS and max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("n", [2, BATCH_DRAWS, BATCH_DRAWS + 1, 10**6])
def test_no_batch_holds_more_than_batch_draws(monkeypatch, n):
    # the kind gets ceil(n / BATCH_DRAWS) batches of at most BATCH_DRAWS draws,
    # from mc_run (integrate_direct) and from sample_ensemble alike, and the
    # same batches on any worker count
    from sectint.ensembles import EnsembleSpec, sample_ensemble

    seen, lock = [], threading.Lock()

    def record(size):
        with lock:
            seen.append(size)

    def sampler(self, values):
        return (lambda rng, size: record(size) or np.ones((1, size))), McEstimate.exact(1.0)

    monkeypatch.setattr(DirectSumAction, "direct_sampler", sampler)
    monkeypatch.setattr(DirectSumAction, "ensemble_statistics", lambda self, spec, rng, size: record(size) or np.zeros(size))
    expected = sorted(batch(4, n, i)[1] for i in range(math.ceil(n / BATCH_DRAWS)))
    assert len(expected) == math.ceil(n / BATCH_DRAWS) and sum(expected) == n and max(expected) <= BATCH_DRAWS
    for workers in (1, 2, 3):
        seen.clear()
        integrate_direct(SO3K2, [make_test_function("gaussian_radial")], seed=4, n=n, workers=workers)
        assert sorted(seen) == expected
    seen.clear()
    assert sample_ensemble(EnsembleSpec(SO3K2), 4, n).shape == (n,)
    assert seen == [batch(4, n, i)[1] for i in range(len(expected))]


@pytest.mark.parametrize("workers", [0, -1])
def test_mc_run_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="workers >= 1"):
        mc_run(_square, 3 * BATCH_DRAWS, seed=0, workers=workers)


def test_mc_run_reads_the_default_worker_count_from_the_environment(monkeypatch):
    n = 3 * BATCH_DRAWS
    monkeypatch.setenv("SECTINT_WORKERS", "0")
    with pytest.raises(ValueError, match="SECTINT_WORKERS"):
        mc_run(_square, n, seed=0)
    monkeypatch.setenv("SECTINT_WORKERS", "3")
    assert mc_run(_square, n, seed=0) == mc_run(_square, n, seed=0, workers=1)


def test_mc_run_helpers_start_lazily_and_persist():
    # a fresh interpreter, so that no earlier call has started helpers;
    # BATCH_DRAWS draws are one batch, and 3 * BATCH_DRAWS draws 3 batches
    code = """
import threading
from sectint.mc import BATCH_DRAWS, mc_run
fn = lambda rng, size: rng.standard_normal((1, size))
counts = [threading.active_count()]
big = 3 * BATCH_DRAWS
for n, workers in [(BATCH_DRAWS, 8), (big, 1), (big, 17), (big, 17), (big, 2), (big, 2)]:
    mc_run(fn, n, 0, workers)
    counts.append(threading.active_count() - counts[0])
print(counts[1:])
"""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # no thread for one batch or at 1 worker, batches - 1 = 2 at 17 workers, none added after
    assert done.stdout.strip().splitlines()[-1] == "[0, 0, 2, 2, 2, 2]"


def test_mc_run_nested_in_a_batch_finishes():
    # a batch that calls mc_run on 2 workers must not wait on a helper task
    # queued behind its own thread; outer and inner runs are 4 batches each
    n = 3 * BATCH_DRAWS + 1

    def outer(rng, size):
        [inner] = mc_run(_square, n, seed=int(rng.integers(2**31)), workers=2)
        return rng.standard_normal((1, size)) + inner.mean

    assert batch_count(n) == 4
    out = {}
    thread = threading.Thread(target=lambda: out.update(w2=mc_run(outer, n, 5, 2)), daemon=True)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive(), "nested mc_run hung"
    assert out["w2"] == mc_run(outer, n, 5, 1)


@pytest.mark.parametrize("bad", [0, 3])
@pytest.mark.parametrize("workers", [2, 3])
def test_mc_run_batch_error_propagates_after_running_batches_return(bad, workers):
    # 3 * BATCH_DRAWS + 1 draws are 4 batches, so helpers run some of them
    n = 3 * BATCH_DRAWS + 1
    key = batch(9, n, bad)[0].bit_generator.state
    in_flight = []

    def fails_in_one_batch(rng, size):
        in_flight.append(1)
        try:
            if rng.bit_generator.state == key:
                raise RuntimeError(f"batch {bad}")
            time.sleep(0.002)
            return rng.standard_normal((1, size))
        finally:
            in_flight.pop()

    assert batch_count(n) == 4
    mc_run(_square, n, 0, workers)  # start the helpers
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"batch {bad}"):
        mc_run(fails_in_one_batch, n, 9, workers)
    assert not in_flight
    assert threading.active_count() == threads
    assert mc_run(_square, n, 9, workers) == mc_run(_square, n, 9, 1)


def test_mc_run_helpers_take_the_callers_floating_point_state():
    # a new thread starts with numpy's default error state, so an overflow that
    # the CLI turns into an error would only warn on a helper; 4 batches, slow
    # enough that the helper claims some of them
    seen = []

    def records_state(rng, size):
        seen.append((threading.get_ident(), np.geterr()["over"]))
        time.sleep(0.02)
        return np.zeros((1, size))

    n = 3 * BATCH_DRAWS + 1
    mc_run(_square, n, 0, workers=2)  # start the helper
    with np.errstate(over="raise"):
        mc_run(records_state, n, 0, workers=2)
    assert len(seen) == 4 and len({tid for tid, _ in seen}) == 2
    assert {state for _, state in seen} == {"raise"}


def test_mc_run_rows_match_one_row_runs():
    # an (m, size) sample reduces each row on its own: row i of the batch run
    # is bit-identical to the run returning that row alone
    def rows(rng, size):
        z = rng.standard_normal(size)
        return np.stack([z, z * z, np.exp(z)])

    for n in (9000, 5):
        estimates = mc_run(rows, n, seed=3)
        assert len(estimates) == 3
        for i, est in enumerate(estimates):
            assert [est] == mc_run(lambda rng, size: rows(rng, size)[i:i + 1], n, seed=3)


@pytest.mark.parametrize("n", [0, 1])
def test_mc_run_rejects_fewer_than_two_samples(n):
    with pytest.raises(ValueError, match="n >= 2"):
        mc_run(_square, n, seed=0)


def _rows(rng, size):
    z = rng.standard_normal(size)
    return np.stack([z, z * z, np.exp(z)])


@pytest.mark.parametrize("n", [3, 1000, 30_000, 16 * (BATCH_DRAWS + 1)])
@pytest.mark.parametrize("fn", [
    lambda rng, size: rng.standard_normal((1, size)) ** 2 + 0.5,
    _rows,
    lambda rng, size: np.ascontiguousarray(_rows(rng, size).T).T,  # rows with a strided last axis
], ids=["one-row", "rows", "rows-strided"])
def test_mc_run_statistics_match_the_per_batch_oracle(n, fn):
    # 1, 1, 8 and 17 batches: every batch's one reduction of all its rows
    # gives each row's statistics bit for bit
    est = mc_run(fn, n, seed=17, workers=1)
    assert est == mc_run_per_batch(fn, n, seed=17)


def test_ratio_keeps_the_numerators_error_at_a_zero_mean():
    # d(a / b) = da / b at a = 0, so the numerator's error stays in the ratio
    den = McEstimate(2.0, 0.1, 100)
    at_zero = ratio(McEstimate(0.0, 0.5, 100), den)
    near_zero = ratio(McEstimate(1e-300, 0.5, 100), den)
    assert at_zero.mean == 0.0 and at_zero.stderr == 0.25
    assert near_zero.stderr == pytest.approx(0.25, rel=1e-12)
    assert ratio(McEstimate(0.0, 0.5, 100), McEstimate(-4.0, 0.1, 100)).stderr == 0.125
    # elsewhere the relative form keeps its bits
    assert ratio(McEstimate(3.0, 0.5, 100), den).stderr == 1.5 * float(np.hypot(0.5 / 3.0, 0.1 / 2.0))


# --- integrands ---------------------------------------------------------------


def check_invariance(action, f, rng, n_pairs=100, tol=1e-10):
    """Largest |f(g . x) - f(x)| over random pairs, for the contract check."""
    worst = 0.0
    for raw in action.random_ambient_points(rng, n_pairs):
        x = MatK(action.field, raw)
        g = haar_sample(action.group, rng)
        pts = np.stack([to_real_vector(x), to_real_vector(act(action, g, x))])
        v = evaluate_test_function(action, f, pts)
        worst = max(worst, float(abs(v[1] - v[0])) / max(1.0, abs(float(v[0]))))
    if f.invariant and worst > tol:
        raise ContractViolation(f"{f.name} flagged invariant but moved by {worst:.2e}")
    return worst

def test_named_families_are_invariant():
    rng = np.random.default_rng(0)
    for f in [
        make_test_function("gaussian_radial", sigma=1.0),
        make_test_function("gaussian_sq_norm", sigma=0.9),
        make_test_function("gaussian_det", sigma=1.0),
    ]:
        worst = check_invariance(SO3K2, f, rng, n_pairs=60)
        assert worst < 1e-10
    for f in [make_test_function("trace_power", power=2), make_test_function("const")]:
        worst = check_invariance(SU2CONJ, f, rng, n_pairs=60)
        assert worst < 1e-10


def test_invariance_check_rejects_moving_function():
    rng = np.random.default_rng(1)
    assert check_invariance(SO3K2, FIRST_COORDINATE, rng, n_pairs=60) > 1e-3  # the control moves
    lying = integrate.TestFunction("first_coordinate", {}, invariant=True, fn=FIRST_COORDINATE.fn)
    with pytest.raises(ContractViolation):
        check_invariance(SO3K2, lying, rng, n_pairs=60)


def test_fractional_trace_power_is_refused_before_sampling(monkeypatch):
    import sectint.actions

    drawn = []
    original = sectint.actions.haar_sample_batch
    monkeypatch.setattr(sectint.actions, "haar_sample_batch", lambda *args: drawn.append(args) or original(*args))
    for power in (2.5, -1.0):
        with pytest.raises(ContractViolation, match="nonnegative integer"):
            integrate_direct(SU2CONJ, [make_test_function("trace_power", power=power)], seed=0, n=100, workers=1)
    assert drawn == []


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        make_test_function("nope")


def test_section_coordinate_det_matches_reduction():
    from sectint.actions import reduce_to_section, section_coordinate
    from matrix_oracles import det_modulus

    rng = np.random.default_rng(2)
    for action in [SO3K2, DirectSumAction(ScalarField.QUATERNION, 3, 2)]:
        for raw in action.random_ambient_points(rng, 5):
            x = MatK(action.field, raw)
            via_batch = section_coordinate_det(action, to_real_vector(x)[None, :])[0]
            s = reduce_to_section(action, x)
            assert via_batch == pytest.approx(
                det_modulus(section_coordinate(action, s)), rel=1e-10
            )


# --- direct integrals -----------------------------------------------------------

def test_direct_gaussian_normalization():
    f = make_test_function("gaussian_radial", sigma=1.0)
    [est] = integrate_direct(SO3K2, [f], seed=42, n=100_000)
    assert abs(est.mean - (2 * np.pi) ** 3) <= 3 * est.stderr + 1e-9 * (2 * np.pi) ** 3


def test_direct_zero_function_is_zero():
    zero = integrate.TestFunction("zero", {}, True, lambda pts, a: np.zeros(pts.shape[0]))
    [est] = integrate_direct(SO3K2, [zero], seed=1, n=10_000)
    assert est.mean == 0.0 and est.stderr == 0.0
    [est] = integrate_reduced(SO3K2, [zero], 1.0)
    assert est.mean == 0.0


@pytest.mark.parametrize("group", [GroupSpec(Family.SU, 3), GroupSpec(Family.SO, 4), GroupSpec(Family.SP, 1)], ids=str)
def test_const_direct_estimate_draws_nothing(monkeypatch, group):
    # a constant reads no point: its average is exact, and the group is not drawn
    import sectint.actions as actions_module

    def refuse(*args, **kwargs):
        raise AssertionError("a const integrand drew Haar samples")

    monkeypatch.setattr(actions_module, "gaussian_batch", refuse)
    monkeypatch.setattr(actions_module, "haar_sample_batch", refuse)
    [est] = integrate_direct(ConjugationAction(group), [make_test_function("const")], seed=4, n=3000)
    assert est == McEstimate(group_volume(group), 0.0, 3000)


def test_direct_su2_volume():
    # integrating 1 over the group recovers its Riemannian volume,
    # the area of a radius sqrt(2) three-sphere, exactly
    [est] = integrate_direct(SU2CONJ, [make_test_function("const")], seed=2, n=20_000)
    assert est.stderr == 0.0
    assert est.mean == pytest.approx(2 * np.pi ** 2 * 2 ** 1.5, rel=1e-12)


# --- reduced integrals ------------------------------------------------------------

@pytest.mark.parametrize("action", [SO3K2, SU2CONJ], ids=str)
def test_reduced_requires_invariance(action):
    with pytest.raises(ContractViolation, match="group-invariant"):
        integrate_reduced(action, [FIRST_COORDINATE], 1.0)


def test_two_sided_identity_so3():
    f = make_test_function("gaussian_radial", sigma=1.0)
    g = make_test_function("gaussian_sq_norm", sigma=1.0)
    calib = calibrate_vol_gn(SO3K2, [f, g], seed=7, n=400_000)
    assert calib.consistent
    [direct] = integrate_direct(SO3K2, [f], seed=100, n=200_000)
    reduced = product(*integrate_reduced(SO3K2, [f], 1.0), calib.combined)
    assert agree(direct, reduced, 3.5)


def test_two_sided_identity_polar_direct_sum():
    # k = 1 exercises the generic polar weight path; the analytic
    # quotient volume is vol(SO(3))/vol(O(2) embedded) = 4 pi
    a = DirectSumAction(R, 3, 1)
    f = make_test_function("gaussian_radial", sigma=1.0)
    g = make_test_function("gaussian_sq_norm", sigma=1.0)
    calib = calibrate_vol_gn(a, [f, g], seed=55, n=300_000)
    assert calib.consistent
    assert calib.combined.mean == pytest.approx(4 * np.pi, rel=0.02)
    [direct] = integrate_direct(a, [f], seed=56, n=100_000)
    reduced = product(*integrate_reduced(a, [f], 1.0), calib.combined)
    assert agree(direct, reduced, 3.5)


def test_two_sided_identity_su2_conjugation():
    f = make_test_function("trace_power", power=2)
    calib = calibrate_vol_gn(SU2CONJ, [f, make_test_function("const")], seed=6, n=50_000)
    assert calib.consistent
    [direct] = integrate_direct(SU2CONJ, [f], seed=8, n=50_000)
    reduced = product(*integrate_reduced(SU2CONJ, [f], 1.0), calib.combined)
    assert agree(direct, reduced, 3.5)


def test_reduced_quadrature_error_is_small():
    # smooth periodic integrands converge spectrally on the torus grid
    [est] = integrate_reduced(SU2CONJ, [make_test_function("trace_power", power=2)], 1.0)
    assert est.stderr <= 1e-10 * max(1.0, abs(est.mean))


@pytest.mark.parametrize("family, n", [(Family.SU, 2), (Family.SU, 3), (Family.SP, 1), (Family.SO, 4)])
def test_reduced_quadrature_error_floored(family, n):
    # the rule is exact on the weight, so |fine - coarse| alone reads 0
    [est] = integrate_reduced(ConjugationAction(GroupSpec(family, n)), [make_test_function("const")], 1.0)
    assert 0.0 < est.stderr <= 1e-12 * abs(est.mean)


def test_calibration_with_exact_group_volume():
    # the const ratio is exact up to rounding, so vol(G/N) = pi to 1e-12
    # with an error bar at rounding level, not the 1e-150 weight clamp
    calib = calibrate_vol_gn(
        SU2CONJ, [make_test_function("trace_power", power=2), make_test_function("const")], seed=3, n=2_000
    )
    assert calib.consistent
    assert calib.combined.mean == pytest.approx(np.pi, rel=1e-12)
    assert 1e-15 * np.pi < calib.combined.stderr <= 1e-12 * np.pi


def test_calibration_scaling_invariance():
    f = make_test_function("gaussian_radial", sigma=1.0)
    g = make_test_function("gaussian_sq_norm", sigma=1.0)
    f7 = integrate.TestFunction("scaled", {}, True, lambda pts, a: 7.0 * evaluate_test_function(a, f, pts))
    r1 = calibrate_vol_gn(SO3K2, [f, g], seed=5, n=50_000)
    r2 = calibrate_vol_gn(SO3K2, [f7, g], seed=5, n=50_000)
    assert r1.ratios[0].mean == pytest.approx(r2.ratios[0].mean, rel=1e-12)


def test_calibration_needs_two_functions():
    with pytest.raises(ValueError):
        calibrate_vol_gn(SO3K2, [make_test_function("gaussian_radial")], seed=0, n=100)


def test_calibration_rejects_vanishing_denominator():
    tiny = integrate.TestFunction("tiny", {}, True, lambda pts, a: 1e-280 * pts[:, 0])
    with pytest.raises((IllConditionedCalibration, ContractViolation)):
        calibrate_vol_gn(SO3K2, [tiny, tiny], seed=0, n=1000)


def test_linearity_same_seed():
    f = make_test_function("gaussian_radial", sigma=1.0)
    g = make_test_function("gaussian_sq_norm", sigma=1.0)
    combo = integrate.TestFunction(
        "combo",
        {},
        True,
        lambda pts, a: 2.0 * evaluate_test_function(a, f, pts)
        - 0.5 * evaluate_test_function(a, g, pts),
    )
    [ec] = integrate_direct(SO3K2, [combo], seed=77, n=30_000)
    [ef] = integrate_direct(SO3K2, [f], seed=77, n=30_000)
    [eg] = integrate_direct(SO3K2, [g], seed=77, n=30_000)
    assert ec.mean == pytest.approx(2.0 * ef.mean - 0.5 * eg.mean, rel=1e-12)


SAMPLER_ROWS = [ConjugationAction(GroupSpec(family, n)) for family, n in
                [(Family.SO, 3), (Family.SO, 4), (Family.SU, 2), (Family.SU, 3), (Family.SP, 1), (Family.SP, 2)]]
SAMPLER_ROWS += [DirectSumAction(field, n, k) for field, n, k in
                 [(R, 3, 2), (ScalarField.COMPLEX, 4, 2), (ScalarField.QUATERNION, 3, 2), (R, 4, 1),
                  (ScalarField.COMPLEX, 3, 1), (ScalarField.QUATERNION, 3, 1)]]


def _sampler_functions(action):
    """Every integrand family that applies to the action, some at two parameter sets."""
    fs = [make_test_function("gaussian_radial", sigma=0.7), make_test_function("gaussian_sq_norm"), FIRST_COORDINATE]
    if isinstance(action, DirectSumAction):
        return fs + [make_test_function("gaussian_det", power=p, sigma=1.3) for p in (-0.5, 1.0, 2.0)]
    return fs + [make_test_function("trace_power", power=p) for p in (2, 3)] + [make_test_function("const")]


@pytest.mark.parametrize("action", SAMPLER_ROWS, ids=str)
@pytest.mark.parametrize("sizes", [(7, 6, 6, 2), (313, 313, 312), (625,) * 6, (1875, 1875)])
def test_direct_sampler_values_are_batch_invariant(action, sizes):
    # a draw's values do not depend on the other draws of its batch: the
    # values of a batch's draws are, bit for bit, the joined values of its
    # parts; 3750 draws are a batch of the benchmark's flat integrate ops.
    # No part here has one draw: gram_det's H closed form rounds a stack of
    # one differently
    fs, drawn = _sampler_functions(action), []
    sample, _ = action.direct_sampler(lambda pts, norms_sq: drawn.append((pts, norms_sq)) or
                                      _stacked_values(action, fs, pts, norms_sq))
    assert sample(np.random.default_rng(8), sum(sizes)).shape == (len(fs), sum(sizes))
    [(pts, norms_sq)] = drawn
    cuts = np.cumsum((0,) + sizes)
    parts = [_stacked_values(action, fs, pts[lo:hi], None if norms_sq is None else norms_sq[lo:hi])
             for lo, hi in zip(cuts, cuts[1:])]
    assert np.array_equal(_stacked_values(action, fs, pts, norms_sq), np.concatenate(parts, axis=1))


SHARED_DRAW_CASES = [
    (
        DirectSumAction(ScalarField.QUATERNION, 3, 2),
        [
            make_test_function("gaussian_radial", sigma=1.0),
            make_test_function("gaussian_sq_norm", sigma=0.8),
            make_test_function("gaussian_det", sigma=1.2, power=2.0),
            integrate.TestFunction(
                "first_sq", {}, True, lambda pts, a: pts[:, 0] ** 2 * np.exp(-0.5 * np.sum(pts * pts, axis=1))
            ),
        ],
    ),
    (
        ConjugationAction(GroupSpec(Family.SU, 3)),
        [
            make_test_function("trace_power", power=2),
            make_test_function("const"),
            make_test_function("trace_power", power=4),
        ],
    ),
]


@pytest.mark.parametrize("action, fs", SHARED_DRAW_CASES)
@pytest.mark.parametrize("workers", [1, 2, 8])
@pytest.mark.parametrize("n", [3000, 5, 2 * BATCH_DRAWS + 1])
def test_shared_draw_changes_no_estimate(action, fs, workers, n):
    # every integrand of one integrate_direct call reads the batch's one draw;
    # its estimate is bit-identical to a one-function run at the same seed
    shared = integrate_direct(action, fs, seed=19, n=n, workers=workers)
    assert len(shared) == len(fs)
    for f, est in zip(fs, shared):
        [alone] = integrate_direct(action, [f], seed=19, n=n, workers=1)
        assert (est.mean, est.stderr) == (alone.mean, alone.stderr)
        assert est == alone


@pytest.mark.parametrize(
    "action, fs",
    [
        (SO3K2, [make_test_function("gaussian_radial"), make_test_function("gaussian_sq_norm")]),
        (SU2CONJ, [make_test_function("trace_power", power=2), make_test_function("const"),
                   make_test_function("trace_power", power=4)]),
    ],
)
def test_calibration_ratios_use_independent_draws(action, fs):
    # the consistency test combines the ratios as independent estimates, so
    # each integrand's direct side has its own draws at subseed(seed, i, 0)
    from sectint.mc import ratio, subseed

    calib = calibrate_vol_gn(action, fs, seed=23, n=4000)
    seeds = [subseed(23, i, 0) for i in range(len(fs))]
    assert len(set(seeds)) == len(fs)
    for f, r, s in zip(fs, calib.ratios, seeds):
        [direct] = integrate_direct(action, [f], s, 4000)
        assert r == ratio(direct, integrate_reduced(action, [f], 1.0)[0])


FIRST_SQ = integrate.TestFunction(
    "first_sq", {}, True, lambda pts, a: pts[:, 0] ** 2 * np.exp(-0.5 * np.sum(pts * pts, axis=1))
)
REDUCED_LIST_CASES = [
    (
        DirectSumAction(ScalarField.QUATERNION, 3, 2),
        [
            make_test_function("gaussian_radial", sigma=1.0),
            make_test_function("gaussian_det", sigma=2.0, power=2.0),
            make_test_function("gaussian_sq_norm", sigma=1.0),
            make_test_function("gaussian_radial", sigma=2.0),
            FIRST_SQ,
        ],
    ),
    (
        DirectSumAction(ScalarField.COMPLEX, 4, 2),
        [
            make_test_function("gaussian_sq_norm", sigma=0.8),
            make_test_function("gaussian_radial", sigma=1.0),
            make_test_function("gaussian_det", sigma=0.8, power=0.5),
        ],
    ),
    (
        DirectSumAction(R, 4, 1),
        [
            make_test_function("gaussian_radial", sigma=2.0),
            make_test_function("gaussian_det", sigma=1.0, power=-1.5),
            make_test_function("gaussian_sq_norm", sigma=-2.0),
        ],
    ),
    (
        ConjugationAction(GroupSpec(Family.SU, 3)),
        [
            make_test_function("trace_power", power=4),
            make_test_function("const"),
            make_test_function("trace_power", power=2),
        ],
    ),
    (
        ConjugationAction(GroupSpec(Family.SO, 4)),
        [make_test_function("const"), make_test_function("trace_power", power=2)],
    ),
    # a fine rule of 3^9 = 19683 nodes, five blocks
    (
        DirectSumAction(ScalarField.COMPLEX, 4, 3),
        [make_test_function(name, **params) for name, params in DirectSumAction.default_integrands],
    ),
]


@pytest.mark.parametrize("action, fs", REDUCED_LIST_CASES, ids=lambda v: str(v) if not isinstance(v, list) else "")
@pytest.mark.parametrize("vol_gn", [1.0, 4 * np.pi, 2.5])
def test_reduced_list_matches_one_function_calls(action, fs, vol_gn):
    # one rule evaluation serves every integrand of the list (one per distinct
    # sigma on direct sums); each estimate is bit-identical to a call with f alone
    together = integrate_reduced(action, fs, vol_gn)
    assert len(together) == len(fs)
    for f, est in zip(fs, together):
        [alone] = integrate_reduced(action, [f], vol_gn)
        assert (est.mean, est.stderr) == (alone.mean, alone.stderr)
        assert est == alone


def _count_calls(monkeypatch, name):
    """Wrap weights.<name> in every sectint namespace that binds it; returns the call log."""
    import sectint.weights

    calls = []
    original = getattr(sectint.weights, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name == "sectint" or module_name.startswith("sectint."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("family, n", [(Family.SU, 3), (Family.SP, 1), (Family.SO, 4)])
@pytest.mark.parametrize("count", [1, 2, 5])
def test_torus_rule_evaluates_the_weight_once_per_node_count(monkeypatch, family, n, count):
    # the fine and the coarse grid each evaluate Weyl's closed form once, for
    # every integrand, and never the generic kernel
    calls = _count_calls(monkeypatch, "torus_weight_batch")
    generic_calls = _count_calls(monkeypatch, "delta_e_batch")
    fs = [make_test_function("trace_power", power=p) for p in range(count)]
    assert len(integrate_reduced(ConjugationAction(GroupSpec(family, n)), fs, 1.0)) == count
    assert len(calls) == 2
    assert len(generic_calls) == 0


def _whole_grid_rule(action, f, m):
    """The section rule of f with m nodes per axis as one sum over its whole
    tensor grid: Weyl's torus weight on the trapezoid grid, or the Gauss
    axes of hermite_rule and half_range_rule in the Bartlett coordinates."""
    if isinstance(action, ConjugationAction):
        angles = torus_grid(action.group.rank, m)
        values = _stacked_values(action, [f], action.section_points(angles))[0]
        return np.mean(values * torus_weight_batch(action.group, angles)) * torus_volume(action.group)
    axes, power, const = _bartlett_axes(action)
    rules = [hermite_rule(m) if b is None else half_range_rule(b + power, m) for _, b in axes]
    nodes = np.meshgrid(*[x for x, _ in rules], indexing="ij")
    weights = np.meshgrid(*[w * np.exp(0.5 * x * x) / (1.0 if b is None else x ** power)
                            for (_, b), (x, w) in zip(axes, rules)], indexing="ij")
    z = np.zeros((m ** len(axes), action.section_dim))
    for (col, _), x in zip(axes, nodes):
        z[:, col] = x.ravel()
    values = _stacked_values(action, [f], action.section_points(z))[0] * section_weight_batch(action, z)
    return np.sum(np.prod([w.ravel() for w in weights], axis=0) * values) * const


@pytest.mark.parametrize("action, f, nodes", [
    # SU(5)'s trace_power rule: built at once, its points and values peaked at 21 MB
    (ConjugationAction(GroupSpec(Family.SU, 5)), make_test_function("trace_power", power=4), 14 ** 4),
    # C(4,3)'s degree-2 Gauss rule: built at once, 24 MB
    (DirectSumAction(ScalarField.COMPLEX, 4, 3), make_test_function("gaussian_sq_norm"), 3 ** 9),
], ids=["SU(5) trace_power", "C(4,3) gaussian_sq_norm"])
def test_torus_rule_memory_is_bounded_by_its_blocks(action, f, nodes):
    # a block of the rule's nodes takes a few MB, and the blocked sums
    # match the sum over the whole grid
    fine, _ = action.rule_sizes(f.degree())
    assert fine ** action.cohomogeneity == nodes > 4 * 4096
    integrate_reduced(action, [f], 1.0)  # caches outside the trace
    tracemalloc.start()
    try:
        [est] = integrate_reduced(action, [f], 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak
    assert est.mean == pytest.approx(_whole_grid_rule(action, f, fine), rel=1e-12, abs=0)


@pytest.mark.parametrize("action", [SO3K2, DirectSumAction(ScalarField.QUATERNION, 3, 2), DirectSumAction(R, 4, 1)],
                         ids=str)
def test_bartlett_weight_evaluations_grow_with_distinct_sigmas(monkeypatch, action):
    # the nodes scale with sigma, so the weight is evaluated once per distinct
    # sigma (fine and coarse rule), however many integrands share it
    calls = _count_calls(monkeypatch, "section_weight_batch")
    integrate_reduced(action, [make_test_function("gaussian_radial")], 1.0)
    per_sigma = len(calls)
    assert per_sigma >= 2
    for sigmas in ([1.0] * 4, [1.0, 2.0, 1.0, 2.0, -2.0], [0.5, 1.0, 2.0, 0.5, 1.0, 2.0]):
        calls.clear()
        fs = [make_test_function(name, sigma=s) for name, s in zip(
            itertools.cycle(["gaussian_radial", "gaussian_sq_norm", "gaussian_det"]), sigmas)]
        integrate_reduced(action, fs, 1.0)
        assert len(calls) == per_sigma * len({abs(s) for s in sigmas})


# --- powers of |det| at which the integral diverges -------------------------------

@pytest.mark.parametrize("action, power", [
    (SO3K2, -2.0), (SO3K2, -3.0),                       # p <= -d(n - k + 1) = -2
    (DirectSumAction(R, 4, 1), -4.0),                   # polar line: p <= -dn = -4
    (DirectSumAction(ScalarField.COMPLEX, 3, 1), -6.5),
], ids=str)
def test_divergent_det_power_refused_before_any_evaluation(monkeypatch, action, power):
    import sectint.integrate

    def never(*args, **kwargs):
        raise AssertionError("evaluated a divergent integrand")

    for name in ("mc_run", "section_weight_batch", "_stacked_values"):
        monkeypatch.setattr(sectint.integrate, name, never)
    fs = [make_test_function("gaussian_radial"), make_test_function("gaussian_det", power=power)]
    with pytest.raises(ContractViolation, match="diverges"):
        integrate_reduced(action, fs, 1.0)
    with pytest.raises(ContractViolation, match="diverges"):
        integrate_direct(action, fs, seed=0, n=100)


@pytest.mark.parametrize("action, power", [(SO3K2, -1.5), (DirectSumAction(R, 4, 1), -3.5)], ids=str)
def test_integrable_negative_det_power_still_estimated(action, power):
    f = make_test_function("gaussian_det", power=power)
    [reduced] = integrate_reduced(action, [f], 1.0)
    [direct] = integrate_direct(action, [f], seed=0, n=2000)
    assert np.isfinite(reduced.mean) and reduced.mean > 0 and np.isfinite(reduced.stderr)
    assert np.isfinite(direct.mean) and direct.mean > 0 and np.isfinite(direct.stderr)


@pytest.mark.parametrize("action", [SO3K2, DirectSumAction(ScalarField.QUATERNION, 3, 1)], ids=str)
def test_constant_on_a_direct_sum_is_refused(action):
    # a constant over the flat matrix space diverges, and so does its
    # weighted section integral; both sides refuse it before any sampling
    f = make_test_function("const")
    with pytest.raises(ContractViolation, match="diverges"):
        integrate_reduced(action, [f], 1.0)
    with pytest.raises(ContractViolation, match="diverges"):
        integrate_direct(action, [make_test_function("gaussian_radial"), f], seed=0, n=100)


# --- the direct-sum reduced quadrature ------------------------------------------

@pytest.mark.parametrize("action", QUADRATURE_ACTIONS, ids=str)
@pytest.mark.parametrize("sigma", [1.0, 2.0, 3.0])
def test_reduced_rule_matches_closed_forms(action, sigma):
    # the section integral of the Gaussians is (closed-form ambient integral)
    # / vol(G/N); in the coordinates B = wR the integrand is a polynomial
    # times the rule's Gaussian, so the rule is exact at every sigma
    vol_gn = vol_gh_estimate(action) / w_group_volume(action)
    dim = action.ambient_dim
    gauss = (2 * np.pi * sigma * sigma) ** (dim / 2)
    for name, ambient in (("gaussian_radial", gauss), ("gaussian_sq_norm", dim * sigma * sigma * gauss)):
        [est] = integrate_reduced(action, [make_test_function(name, sigma=sigma)], 1.0)
        assert est.mean == pytest.approx(ambient / vol_gn, rel=1e-12)
        assert est.stderr <= 1e-12 * est.mean


@pytest.mark.parametrize("a, m", [
    *((a, m) for a in (0, 1, 2, 3, 5, 7, 11, 15) for m in (1, 2, 4, 5, 8)),
    # the diagonal exponents d(n-i+1)-1 grow with n; the reduced side uses m = 4, 5
    *((a, m) for a in (23, 39, 63, 127) for m in (4, 5)),
])
def test_half_range_rule_reproduces_moments(a, m):
    nodes, weights = half_range_rule(a, m)
    assert np.all(weights > 0) and np.all(nodes > 0)
    for j in range(2 * m):
        exact = 2.0 ** ((a + j - 1) / 2) * math.gamma((a + j + 1) / 2)
        assert np.sum(weights * nodes ** j) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("m", [1, 2, 5, 8])
def test_hermite_rule_reproduces_moments(m):
    nodes, weights = hermite_rule(m)
    assert np.all(weights > 0)
    for j in range(2 * m):
        # odd moments vanish by cancellation, so their tolerance is relative to sum |w x^j|
        exact = 0.0 if j % 2 else np.sqrt(2 * np.pi) * math.prod(range(j - 1, 0, -2))
        scale = np.sum(weights * np.abs(nodes) ** j)
        assert np.sum(weights * nodes ** j) == pytest.approx(exact, rel=1e-12, abs=1e-12 * scale)


@pytest.mark.parametrize("action", QUADRATURE_ACTIONS, ids=str)
@pytest.mark.parametrize("power", [1.0, 0.5])
def test_reduced_rule_matches_importance_sampling(action, power):
    f = make_test_function("gaussian_det", power=power)
    [rule] = integrate_reduced(action, [f], 1.0)
    oracle = reduced_importance_sampling(action, f, seed=0, n=200_000)
    assert abs(rule.mean - oracle.mean) <= 4 * oracle.stderr


@pytest.mark.parametrize("action", QUADRATURE_ACTIONS[:4], ids=str)
def test_reduced_rule_error_proxy_covers_a_finer_rule(action):
    # |det|^(1/2) is not a polynomial in R, so the rule converges only
    # algebraically, and its error proxy must say so
    f = make_test_function("gaussian_det", power=0.5)
    [est] = integrate_reduced(action, [f], 1.0)
    [finer] = action.section_rule(lambda pts: _stacked_values(action, [f], pts), 1.0, 7 if action.k < 3 else 6)
    assert est.stderr > 1e-8 * est.mean
    assert abs(est.mean - finer) <= est.stderr


def test_reduced_rule_node_budget():
    with pytest.raises(ValueError, match="nodes"):
        integrate_reduced(DirectSumAction(ScalarField.QUATERNION, 4, 3), [make_test_function("gaussian_radial")], 1.0)


# --- rules sized from the declared degree -----------------------------------------

@pytest.mark.parametrize("f, degree", [
    (make_test_function("gaussian_radial", sigma=2.0), 0),
    (make_test_function("gaussian_sq_norm"), 2),
    (make_test_function("gaussian_det"), 1),
    (make_test_function("gaussian_det", power=4), 4),
    (make_test_function("gaussian_det", power=0.5), None),
    (make_test_function("gaussian_det", power=-1.0), None),
    (make_test_function("trace_power"), 2),
    (make_test_function("trace_power", power=5), 5),
    (make_test_function("const"), 0),
    (FIRST_COORDINATE, None),
    (FIRST_SQ, None),
], ids=lambda v: getattr(v, "name", str(v)))
def test_declared_degrees(f, degree):
    assert f.degree() == degree


def det_power_section_integral(action, sigma, power):
    """Section integral of gaussian_det: its ambient integral, through the
    moments of the Bartlett chi variables r_ii ~ sigma chi_(nu_i) with
    nu_i = d(n - i + 1), over vol(G/N)."""
    d, n, k = action.field.dim, action.n, action.k
    moments = math.prod(2 ** (power / 2) * math.gamma((d * (n - i) + power) / 2) / math.gamma(d * (n - i) / 2)
                        for i in range(k))
    ambient = (2 * np.pi * sigma * sigma) ** (action.ambient_dim / 2) * sigma ** (k * power) * moments
    return ambient / (vol_gh_estimate(action) / w_group_volume(action))


@pytest.mark.parametrize("action", QUADRATURE_ACTIONS, ids=str)
@pytest.mark.parametrize("sigma", [1.0, 2.0])
@pytest.mark.parametrize("power", [0, 1, 2, 3, 4])
def test_declared_det_power_rule_is_exact(action, sigma, power):
    # |det R|^p = prod r_ii^p is a polynomial of degree p on each diagonal
    # axis, so the rule sized from p is exact, and so is its coarse rule
    [est] = integrate_reduced(action, [make_test_function("gaussian_det", sigma=sigma, power=power)], 1.0)
    assert est.mean == pytest.approx(det_power_section_integral(action, sigma, power), rel=1e-12)
    assert est.stderr == pytest.approx(QUADRATURE_REL_FLOOR * est.mean, rel=1e-9)


TORUS_ACTIONS = [ConjugationAction(GroupSpec(family, n)) for family, n in (
    (Family.SU, 2), (Family.SU, 3), (Family.SO, 3), (Family.SO, 4), (Family.SO, 5),
    (Family.SP, 1), (Family.SP, 2), (Family.SP, 3))]
#: nodes per angle by rank of a reference trapezoid rule far above every degree tested
TORUS_REFERENCE_GRID = {1: 256, 2: 48, 3: 24}


@pytest.mark.parametrize("action", TORUS_ACTIONS, ids=str)
def test_declared_trace_power_rule_is_exact(action):
    # weight * tr^p is a trigonometric polynomial whose degree per angle is
    # the weight's plus p; the sized grids lie above it and agree with a
    # much finer grid to rounding, scaled by the bound |tr|^p <= n^p
    grid = TORUS_REFERENCE_GRID[action.group.rank]
    fs = [make_test_function("const")] + [make_test_function("trace_power", power=p) for p in range(7)]
    [const_ref] = action.section_rule(lambda pts: _stacked_values(action, fs[:1], pts), 1.0, grid)
    refs = action.section_rule(lambda pts: _stacked_values(action, fs, pts), 1.0, grid)
    for f, est, ref in zip(fs, integrate_reduced(action, fs, 1.0), refs):
        scale = const_ref * action.group.n ** f.degree()
        assert est.mean == pytest.approx(ref, rel=1e-12, abs=1e-12 * scale)
        assert est.stderr <= 1e-12 * scale
        assert est.n_samples < grid ** action.group.rank


def test_sp3_fourth_trace_moment_reads_the_rounding_floor():
    # weight * tr^4 has degree 10 per angle on Sp(3); both sized grids lie
    # above it, so the error proxy reads the rounding floor
    [est] = integrate_reduced(ConjugationAction(GroupSpec(Family.SP, 3)), [make_test_function("trace_power", power=4)], 1.0)
    assert est.mean == pytest.approx(2232.4519209815858, rel=1e-12)
    assert est.stderr == pytest.approx(QUADRATURE_REL_FLOOR * est.mean, rel=1e-9)


H32 = DirectSumAction(ScalarField.QUATERNION, 3, 2)  # six Bartlett axes


@pytest.mark.parametrize("fs", [
    [make_test_function("gaussian_radial", sigma=1.0), make_test_function("gaussian_sq_norm", sigma=1.0)],
    [make_test_function("gaussian_det"), make_test_function("gaussian_radial")],
], ids=["cli-defaults", "det-radial"])
def test_declared_rules_take_three_nodes_per_axis(fs):
    assert [est.n_samples for est in integrate_reduced(H32, fs, 1.0)] == [3 ** 6] * len(fs)


@pytest.mark.parametrize("f", [FIRST_SQ, make_test_function("gaussian_det", power=0.5),
                               make_test_function("gaussian_det", power=-1.5)], ids=lambda f: str(f.params or f.name))
def test_undeclared_rules_keep_five_nodes_per_axis(f):
    [est] = integrate_reduced(H32, [f], 1.0)
    assert est.n_samples == 5 ** 6


@pytest.mark.parametrize("action", [SO3K2, H32, DirectSumAction(R, 10, 2)], ids=str)
@pytest.mark.parametrize("power", [8, 9, 12, 16])
def test_high_det_powers_keep_five_nodes_and_an_honest_proxy(action, power):
    # no Gauss rule grows past GAUSS_NODES, where a larger rule would be
    # refused on 9 or 10 axes and its half-range moments lose digits; from
    # p = 8 the coarse rule is inexact and the proxy covers the error
    [est] = integrate_reduced(action, [make_test_function("gaussian_det", power=power)], 1.0)
    assert est.n_samples == 5 ** len(_bartlett_axes(action)[0])
    assert abs(est.mean - det_power_section_integral(action, 1.0, power)) <= est.stderr


def test_node_budget_names_the_sized_rule():
    with pytest.raises(ValueError, match=r"\(3 on each of 16 axes\)"):
        integrate_reduced(DirectSumAction(ScalarField.COMPLEX, 6, 4), [make_test_function("gaussian_radial")], 1.0)


# --- the isometry check ---------------------------------------------------------

def test_lp_isometry_so3():
    f = make_test_function("gaussian_radial", sigma=1.0)
    g = make_test_function("gaussian_sq_norm", sigma=1.0)
    calib = calibrate_vol_gn(SO3K2, [f, g], seed=13, n=300_000)
    for p in (1, 2):
        rep = lp_isometry_check(SO3K2, f, p, calib.combined, seed=14 + p, n=300_000)
        assert rep.passed(3.5)


def test_lp_isometry_zero_function():
    zero = integrate.TestFunction("zero", {}, True, lambda pts, a: np.zeros(pts.shape[0]))
    rep = lp_isometry_check(SO3K2, zero, 1, McEstimate.exact(1.0), seed=0, n=1000)
    assert rep.norm_ambient.mean == 0.0 and rep.norm_section.mean == 0.0


def test_lp_p1_reduces_to_identity_check():
    # at p = 1 the two norms are exactly the direct and reduced integrals
    # of |f|
    f = make_test_function("gaussian_radial", sigma=1.0)
    rep = lp_isometry_check(SO3K2, f, 1, McEstimate.exact(4 * np.pi), seed=21, n=50_000)
    from sectint.mc import subseed

    [direct] = integrate_direct(SO3K2, [f], subseed(21, 0), 50_000)
    assert rep.norm_ambient.mean == pytest.approx(direct.mean, rel=1e-12)


# --- determinism ------------------------------------------------------------------

def test_integrate_deterministic_across_workers():
    f = make_test_function("gaussian_sq_norm", sigma=1.0)
    runs = [
        integrate_direct(SO3K2, [f], seed=1234, n=64_000, workers=w) for w in (1, 2, 8)
    ]
    assert runs[0] == runs[1] == runs[2]
    reduced = [integrate_reduced(SO3K2, [f], 4 * np.pi) for _ in range(2)]
    assert reduced[0] == reduced[1]


def test_conjugation_direct_deterministic():
    f = make_test_function("trace_power", power=2)
    [a] = integrate_direct(SU2CONJ, [f], seed=55, n=20_000, workers=1)
    [b] = integrate_direct(SU2CONJ, [f], seed=55, n=20_000, workers=4)
    assert a == b
