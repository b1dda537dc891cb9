"""The Killing-operator stack and the batched check suite against per-point oracles."""

import importlib
import json
import sys

import numpy as np
import pytest

import killing_oracle as oracle
import sectint
from algebra_oracle import matrices
from sectint.actions import (
    ConjugationAction,
    DirectSumAction,
    algebra_split,
    classify_point,
    isotropy_algebra,
    killing_field,
    orbit_normal,
    orbit_tangent,
    random_regular_section_points,
)
from sectint.checks import run_action_checks
from sectint.cli import main
from sectint.fields import ScalarField
from sectint.groups import Family, GroupSpec
from sectint.matrices import MatK, from_real_vector, to_real_vector
from sectint.weights import delta_d, delta_e_batch, orbit_volume, weight_value
from test_kinds import ROWS

R, C, H = ScalarField.REAL, ScalarField.COMPLEX, ScalarField.QUATERNION
R32, H32, R41 = DirectSumAction(R, 3, 2), DirectSumAction(H, 3, 2), DirectSumAction(R, 4, 1)
SO3, SP2 = ConjugationAction(GroupSpec(Family.SO, 3)), ConjugationAction(GroupSpec(Family.SP, 2))
ACTION_TABLE = [
    R32, DirectSumAction(C, 4, 2), H32, R41,
    ConjugationAction(GroupSpec(Family.SU, 2)), ConjugationAction(GroupSpec(Family.SU, 3)), SO3,
    ConjugationAction(GroupSpec(Family.SO, 4)), ConjugationAction(GroupSpec(Family.SP, 1)), SP2,
]

#: the suite's checks in report order, with their thresholds at the default tolerances
CHECKS = [
    ("algebra_split_orthonormal", 1e-10), ("reductive_bracket", 1e-8), ("ad_normalizer_invariance", 1e-8),
    ("block_diagonality", 1e-10), ("differential_factorization", 1e-8), ("weight_closed_vs_generic", 1e-8),
    ("complement_killing_perpendicular", 1e-10), ("isotropy_constancy", 1e-8),
    ("orbit_normal_in_section", 1e-10), ("copolarity_dimension", 0.5), ("weight_weyl_invariance", 1e-9),
    ("weight_singular_vanishing", 0.0), ("reduction_translation_invariance", 1e-8),
]


def _projector(rows):
    return rows.T @ rows


@pytest.mark.parametrize("action", ACTION_TABLE, ids=str)
def test_operator_stack_reproduces_killing_field(action):
    split = algebra_split(action)
    basis = matrices(action.group, split.rows)
    assert split.operators.shape == (len(basis), action.ambient_dim, action.ambient_dim)
    np.testing.assert_array_equal(split.m_operators, split.operators[len(split.h_rows) + len(split.w_rows) :])
    rng = np.random.default_rng(21)
    for raw in action.random_ambient_points(rng, 3):
        p = MatK(action.field, raw)
        want = np.stack([to_real_vector(killing_field(action, b, p)) for b in basis])
        np.testing.assert_allclose(split.operators @ to_real_vector(p), want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("action", ACTION_TABLE, ids=str)
def test_batched_kernels_match_per_point_oracle(action):
    # every quantity below is read from the one evaluation the draw made
    rng = np.random.default_rng(22)
    diff = random_regular_section_points(action, rng, 8)
    pts = diff.pts
    dets = np.stack([diff.total_det(), delta_e_batch(action, pts), diff.delta_d()], axis=1)
    u, _, vh = diff.svd
    null, ranks = diff.isotropy_mask(), diff.orbit_ranks()
    frames = action.section_frames(pts)
    split = algebra_split(action)
    outside_h = lambda rows: np.abs(rows - (rows @ split.h_rows.T) @ split.h_rows).max(initial=0.0)
    for i, flat in enumerate(pts):
        s = from_real_vector(action.field, *action.shape, flat)
        matrix = oracle.differential(action, s)
        np.testing.assert_allclose(diff.matrix[i], matrix, rtol=0, atol=1e-12 * np.abs(matrix).max())
        np.testing.assert_allclose(dets[i], oracle.determinants(action, matrix), rtol=1e-12)

        iso = oracle.isotropy_rows(action, s)
        got = vh[i][null[i]] @ split.rows
        assert len(got) == len(iso) == len(split.h_rows) == len(isotropy_algebra(action, s))
        np.testing.assert_allclose(_projector(got), _projector(iso), rtol=0, atol=1e-12)
        assert outside_h(got) == pytest.approx(outside_h(iso), abs=1e-12)

        normal = oracle.orbit_normal_rows(action, s)
        got = (u[i].T @ frames[i])[ranks[i] :]
        np.testing.assert_allclose(_projector(got), _projector(normal), rtol=0, atol=1e-12)
        np.testing.assert_allclose(_projector(diff.orbit_frames()[i][ranks[i] :]), _projector(normal), rtol=0, atol=1e-12)
        np.testing.assert_allclose(_projector(orbit_normal(action, s)), _projector(normal), rtol=0, atol=1e-12)


@pytest.mark.parametrize("action", ACTION_TABLE, ids=str)
def test_verify_passes_with_the_same_checks(action):
    # every action compares the closed-form weight: the direct sums' (the polar
    # R(4,1) included) and Weyl's on conjugation
    for seed in (1, 2, 3):
        results = run_action_checks(action, seed=seed)
        assert [(r.name, r.threshold) for r in results] == CHECKS
        assert all(r.passed for r in results), [r for r in results if not r.passed]


def _expected_checks(action):
    """CHECKS on action: the vanishing at a singular point only where m is not empty."""
    return [c for c in CHECKS if c[0] != "weight_singular_vanishing" or len(algebra_split(action).m_rows)]


#: SO(2)-SO(6), SU(2)-SU(4) and Sp(1)-Sp(3) conjugation, and every direct sum
#: R(n, k) with n <= 6, C(n, k) with n <= 5 and H(n, k) with n <= 4
SWEEP = (
    [ConjugationAction(GroupSpec(Family.SO, n)) for n in range(2, 7)]
    + [ConjugationAction(GroupSpec(Family.SU, n)) for n in range(2, 5)]
    + [ConjugationAction(GroupSpec(Family.SP, n)) for n in range(1, 4)]
    + [DirectSumAction(field, n, k)
       for field, top in ((R, 6), (C, 5), (H, 4)) for n in range(2, top + 1) for k in range(1, n)]
)


@pytest.mark.parametrize("action", SWEEP, ids=str)
def test_verify_passes_on_the_whole_action_table(action):
    for seed in (1, 2, 3):
        results = run_action_checks(action, seed=seed)
        assert [(r.name, r.threshold) for r in results] == _expected_checks(action)
        assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_so2_has_no_singular_vanishing_check():
    # SO(2) is abelian: m is empty, the weight is 1 at every point, the identity included
    names = [r.name for r in run_action_checks(ConjugationAction(GroupSpec(Family.SO, 2)), seed=1)]
    assert names == [
        "algebra_split_orthonormal", "reductive_bracket", "ad_normalizer_invariance", "block_diagonality",
        "differential_factorization", "weight_closed_vs_generic", "complement_killing_perpendicular",
        "isotropy_constancy", "orbit_normal_in_section", "copolarity_dimension", "weight_weyl_invariance",
        "reduction_translation_invariance",
    ]


#: the checks that a wrong metric on m fails, per kind: the split's orthonormality
#: and the closed-form weight, and on conjugation the factorization too, because
#: the section frames there are built from the split
WRONG_METRIC_FAILS = {
    DirectSumAction: {"algebra_split_orthonormal", "weight_closed_vs_generic"},
    ConjugationAction: {"algebra_split_orthonormal", "differential_factorization", "weight_closed_vs_generic"},
}


@pytest.mark.parametrize("factor", [1.05, 1.1, 2.0])
@pytest.mark.parametrize("action", ROWS, ids=str)
def test_a_wrong_metric_fails_the_same_checks(corrupt_metric, action, factor):
    base = algebra_split(action)
    corrupt_metric(action, factor)
    corrupted = algebra_split(action)
    # the corrupted split's stack comes from its own scaled m_rows
    np.testing.assert_allclose(corrupted.m_operators, factor * base.m_operators, rtol=1e-15, atol=0)
    n_normalizer = len(base.h_rows) + len(base.w_rows)
    np.testing.assert_array_equal(corrupted.operators[:n_normalizer], base.operators[:n_normalizer])
    # SO(2) is abelian: its m is empty, so there is no metric to get wrong
    failing = WRONG_METRIC_FAILS[type(action)] if len(base.m_rows) else set()
    for seed in (1, 2, 3):
        results = run_action_checks(action, seed=seed)
        assert {r.name for r in results if not r.passed} == failing


def _count_calls(monkeypatch, module_name: str, func_name: str) -> list:
    """Wrap a sectint function in every sectint namespace that binds it; returns
    the call log, the positional arguments of each call."""
    original = getattr(importlib.import_module(f"sectint.{module_name}"), func_name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "sectint" or name.startswith("sectint."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("action, n_qr", [(H32, 6), (SP2, 2)], ids=str)
def test_check_suite_does_not_loop_over_points(monkeypatch, action, n_qr):
    # per point, the suite used to make about 95 QR and 1000 killing_field calls;
    # n_qr counts the batched factorizations, qr and the Haar draws' householder_q
    for n_points in (5, 20, 40):
        with monkeypatch.context() as patch:
            qr_calls = _count_calls(patch, "matrices", "qr")
            haar_calls = _count_calls(patch, "matrices", "householder_q")
            field_calls = _count_calls(patch, "actions", "killing_field")
            assert all(r.passed for r in run_action_checks(action, seed=1, n_points=n_points))
        assert (len(qr_calls) + len(haar_calls), len(field_calls)) == (n_qr, 0)


def test_delta_evaluates_the_killing_fields_once(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, "actions", "killing_images")
    assert main(["delta", "--action", json.dumps(R32.to_json()), "--point", "[[1.0, 0.5], [-0.3, 2.0]]"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["regularity"] == "regular"
    assert len(calls) == 1


@pytest.mark.parametrize("action", ACTION_TABLE, ids=str)
def test_verify_evaluates_each_point_once(monkeypatch, action):
    # the draw's evaluation serves the pointwise, isotropy and orbit checks
    calls = _count_calls(monkeypatch, "actions", "killing_images")
    run_action_checks(action, seed=1)
    rows = np.concatenate([args[1] for args in calls])
    assert len(rows) >= 20 and len(np.unique(rows, axis=0)) == len(rows)


ONE_POINT_READS = {
    "weight_value": weight_value, "delta_d": delta_d, "orbit_volume": lambda a, s: orbit_volume(a, s, 1.0),
    "classify_point": classify_point, "isotropy_algebra": isotropy_algebra,
    "orbit_tangent": orbit_tangent, "orbit_normal": orbit_normal,
}


@pytest.mark.parametrize("name", ONE_POINT_READS)
def test_one_point_reads_take_one_evaluation(monkeypatch, name):
    s = from_real_vector(R, 3, 2, np.array([1.0, 0.5, -0.3, 2.0, 0.0, 0.0]))
    calls = _count_calls(monkeypatch, "actions", "killing_images")
    ONE_POINT_READS[name](R32, s)
    assert len(calls) == 1


def test_delta_d_reads_the_weyl_block_only(monkeypatch):
    # delta_d computes no weight, and reads a polar action's empty Weyl block as 1
    s = from_real_vector(R, 3, 2, np.array([1.0, 0.5, -0.3, 2.0, 0.0, 0.0]))
    weights_calls = _count_calls(monkeypatch, "weights", "delta_e_batch")
    image_calls = _count_calls(monkeypatch, "actions", "killing_images")
    assert delta_d(R32, s) == weight_value(R32, s).delta_d
    assert (len(weights_calls), len(image_calls)) == (1, 2)  # weight_value's δ_E only
    assert delta_d(R41, from_real_vector(R, 4, 1, np.array([1.5, 0.0, 0.0, 0.0]))) == 1.0
    assert (len(weights_calls), len(image_calls)) == (1, 3)


@pytest.mark.parametrize("action", [R32, SO3, SP2], ids=str)
def test_orbit_frames_of_a_batch_are_those_of_its_points(action):
    diff = random_regular_section_points(action, np.random.default_rng(23), 4)
    frames, ranks = diff.orbit_frames(), diff.orbit_ranks()
    for i, flat in enumerate(diff.pts):
        s = from_real_vector(action.field, *action.shape, flat)
        np.testing.assert_allclose(frames[i][: ranks[i]], orbit_tangent(action, s), rtol=0, atol=1e-13)
        np.testing.assert_allclose(frames[i][ranks[i] :], orbit_normal(action, s), rtol=0, atol=1e-13)
        tangent, normal = sectint.section_frame(action, s)
        np.testing.assert_array_equal(np.concatenate([tangent, normal]), diff.frames[i])


@pytest.mark.parametrize("action", ROWS, ids=str)
def test_svd_pads_as_np_pad_does(action):
    # the singular values, zero-padded to one per basis element, on a batch and on one point
    diff = random_regular_section_points(action, np.random.default_rng(31), 3)
    for d in (diff, diff[1]):
        sv = np.linalg.svd(d.images)[1]
        pad = [(0, 0)] * (sv.ndim - 1) + [(0, d.images.shape[-1] - sv.shape[-1])]
        padded = np.pad(sv, pad)
        assert d.svd[1].shape == padded.shape and d.svd[1].tobytes() == padded.tobytes()


@pytest.mark.parametrize("action", [DirectSumAction(f, n, 1) for f, n in [(R, 4), (C, 3), (H, 2)]], ids=str)
def test_polar_section_coords_are_padded_draws(action):
    # the real t of the polar line, one column (count, section_dim) of
    # normals, which section_points pads to a real multiple of the first
    # basis vector
    coords = action.section_coords(np.random.default_rng(5), 7)
    column = np.random.default_rng(5).standard_normal((7, 1))
    assert coords.shape == (7, action.section_dim) and coords.tobytes() == column.tobytes()
    padded = np.pad(column, ((0, 0), (0, action.ambient_dim - 1)))
    assert action.section_points(coords).tobytes() == padded.tobytes()
