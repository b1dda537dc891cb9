import json
import math

import numpy as np
import pytest

from sectint.cli import main
from sectint.checks import all_passed, run_action_checks
from sectint.fields import ScalarField
from sectint.groups import Family, GroupSpec
from sectint.actions import ConjugationAction, DirectSumAction, action_from_json
from sectint.integrate import integrate_direct, integrate_reduced, make_test_function, mc_result_json
from sectint.mc import McEstimate
from sectint.volumes import vol_gh_estimate, w_group_volume

SO3K2 = '{"kind":"direct_sum","field":"R","n":3,"k":2}'
SU2 = '{"kind":"conjugation","family":"SU","n":2}'
H32 = '{"kind":"direct_sum","field":"H","n":3,"k":2}'
C42 = '{"kind":"direct_sum","field":"C","n":4,"k":2}'
SP3 = '{"kind":"conjugation","family":"Sp","n":3}'
SO3 = '{"kind":"conjugation","family":"SO","n":3}'

ACTION_TABLE = [
    SO3K2, C42, H32, '{"kind":"direct_sum","field":"R","n":4,"k":1}',
    SU2, '{"kind":"conjugation","family":"SU","n":3}', SO3,
    '{"kind":"conjugation","family":"SO","n":4}', '{"kind":"conjugation","family":"Sp","n":1}',
    '{"kind":"conjugation","family":"Sp","n":2}',
]


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# --- the check suite ------------------------------------------------------------

def test_checks_pass_for_reference_actions():
    for action in [
        DirectSumAction(ScalarField.REAL, 3, 2),
        DirectSumAction(ScalarField.QUATERNION, 3, 2),
        ConjugationAction(GroupSpec(Family.SU, 2)),
    ]:
        assert all_passed(run_action_checks(action, seed=1, n_points=6))


def test_checks_negative_control():
    res = run_action_checks(DirectSumAction(ScalarField.REAL, 3, 2), seed=1, n_points=4, corrupt_metric=1.05)
    assert not all_passed(res)


# --- delta ------------------------------------------------------------------------

def test_delta_known_value(capsys):
    code, rep = run_cli(capsys, ["delta", "--action", SO3K2, "--point", "[[1,0],[0,1]]"])
    assert code == 0
    assert rep["pass"] is True
    assert rep["results"]["delta_generic"] == pytest.approx(0.5, abs=1e-12)
    assert rep["results"]["delta_closed_form"] == pytest.approx(0.5, abs=1e-15)
    assert rep["results"]["regularity"] == "regular"


def test_delta_singular_point(capsys):
    code, rep = run_cli(capsys, ["delta", "--action", SO3K2, "--point", "[[1,0],[0,0]]"])
    assert rep["results"]["delta_generic"] == 0.0
    assert rep["results"]["delta_closed_form"] == 0.0
    assert rep["results"]["regularity"] == "singular"


@pytest.mark.parametrize("point", [
    "[[-1.3730093012585258, 1.1924141198821712], [-1.3730093012585258, 1.1924141198821712]]",
    "[[-0.33740705907608975, 2.4785248998229314], [-0.33740705907608975, 2.4785248998229314]]",
])
def test_delta_rank_deficient_point_factorizes(capsys, point):
    # the total |det| comes from QR like the weight, so it reads rounding
    # level, not the ~1e-7 that sqrt(det(M^T M)) left at these points
    code, rep = run_cli(capsys, ["delta", "--action", SO3K2, "--point", point])
    assert code == 0 and rep["pass"] is True
    assert rep["results"]["delta_generic"] == 0.0
    assert rep["results"]["regularity"] == "singular"
    assert rep["results"]["det_total"] <= 1e-12


def test_delta_quaternionic_agreement(capsys):
    action = '{"kind":"direct_sum","field":"H","n":3,"k":2}'
    point = json.dumps(np.random.default_rng(5).standard_normal((2, 2, 4)).tolist())
    code, rep = run_cli(capsys, ["delta", "--action", action, "--point", point])
    assert code == 0
    gap = abs(rep["results"]["delta_generic"] - rep["results"]["delta_closed_form"])
    assert gap <= 1e-8 * (1 + rep["results"]["delta_closed_form"])


def test_delta_conjugation_angles(capsys):
    code, rep = run_cli(capsys, ["delta", "--action", SU2, "--point", '{"angles":[1.0]}'])
    assert code == 0
    assert rep["results"]["delta_generic"] == pytest.approx(4 * np.sin(1.0) ** 2, rel=1e-10)


def test_delta_conjugation_singular_angle(capsys):
    code, rep = run_cli(capsys, ["delta", "--action", SU2, "--point", '{"angles":[0.0]}'])
    assert rep["results"]["delta_generic"] == 0.0
    assert rep["results"]["regularity"] == "singular"


def test_bad_function_name_exits_nonzero(capsys):
    code = main(["integrate", "--action", SO3K2, "--functions", "nope", "--n", "100"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_ill_conditioned_calibration_exits_2(capsys):
    # the section integral of tr(g) against the SU(2) weight vanishes
    code = main(["volumes", "--action", SU2, "--n", "1000", "--functions", "trace_power:power=1,const"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_workers_env_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("SECTINT_WORKERS", value)
    code = main(["delta", "--action", SO3K2, "--point", "[[1,0],[0,1]]"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "SECTINT_WORKERS" in captured.err and captured.err.count("\n") == 1


def _exits_2_with_one_line(capsys, argv) -> str:
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    return captured.err


def test_delta_malformed_point_reports_position(capsys):
    err = _exits_2_with_one_line(capsys, ["delta", "--action", SO3K2, "--point", '[[1,"x"],[0,1]]'])
    assert "row 1, column 2" in err


@pytest.mark.parametrize(
    "action",
    ['{"kind":"direct_sum"', "[1, 2]", '{"kind":"direct_sum","field":"R","n":3}',
     '{"kind":"direct_sum","field":"Q","n":3,"k":2}', '{"kind":"torus"}', "@no-such-action.json"],
)
def test_bad_action_exits_2(capsys, action):
    err = _exits_2_with_one_line(capsys, ["delta", "--action", action, "--point", "[[1,0],[0,1]]"])
    assert "bad --action" in err


@pytest.mark.parametrize("point", ["[[1,2]]", "[1,2]", "[[1,2],[3]]", "[[1,2"])
def test_point_of_wrong_shape_exits_2(capsys, point):
    _exits_2_with_one_line(capsys, ["delta", "--action", SO3K2, "--point", point])


def test_conjugation_point_without_angles_exits_2(capsys):
    err = _exits_2_with_one_line(capsys, ["delta", "--action", SU2, "--point", '{"angle":[1]}'])
    assert "angles" in err


@pytest.mark.parametrize(
    "action, statistic, index",
    [(SO3K2, "singular_value", "5"), (SO3, "torus_angle", "3"), (SO3, "torus_angle", "-1")],
)
def test_ensemble_stat_index_out_of_range_exits_2(capsys, action, statistic, index):
    argv = ["ensemble", "--action", action, "--n", "200", "--statistic", statistic, "--stat-index", index]
    assert "stat_index" in _exits_2_with_one_line(capsys, argv)


def test_single_integrand_exits_2(capsys):
    err = _exits_2_with_one_line(capsys, ["volumes", "--action", SO3K2, "--functions", "const", "--n", "100"])
    assert "two" in err


def test_reduced_rule_over_node_budget_exits_2(capsys):
    # Sp(4) on H^(4x3): 3 diagonal and 12 off-diagonal axes, 5^15 nodes
    err = _exits_2_with_one_line(
        capsys, ["integrate", "--action", '{"kind":"direct_sum","field":"H","n":4,"k":3}', "--n", "400"]
    )
    assert "nodes" in err


def test_integrate_single_integrand_exits_0(capsys):
    code, rep = run_cli(capsys, ["integrate", "--action", SO3K2, "--functions", "gaussian_radial", "--n", "2000"])
    assert code == 0 and rep["pass"] is True
    assert [c["name"] for c in rep["checks"]] == ["two_sided_agreement_gaussian_radial"]


@pytest.mark.parametrize("bins", ["0", "1"])
def test_ensemble_needs_two_bins(capsys, bins):
    err = _exits_2_with_one_line(capsys, ["ensemble", "--action", SO3K2, "--n", "200", "--bins", bins])
    assert "bins" in err


@pytest.mark.parametrize("command", ["integrate", "volumes"])
@pytest.mark.parametrize("n", ["0", "1"])
def test_estimate_without_error_bar_exits_2(capsys, command, n):
    # zero or one sample has no standard error; it must not pass as an exact value
    err = _exits_2_with_one_line(capsys, [command, "--action", SO3K2, "--n", n])
    assert "n >= 2" in err


@pytest.mark.parametrize("points", ["0", "-1"])
def test_verify_without_points_exits_2(capsys, points):
    err = _exits_2_with_one_line(capsys, ["verify", "--action", SO3K2, "--points", points])
    assert "--points" in err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_ensemble_without_samples_exits_2(capsys, n):
    err = _exits_2_with_one_line(capsys, ["ensemble", "--action", SO3K2, "--n", n])
    assert "--n" in err


def test_unwritable_out_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "r.json"
    err = _exits_2_with_one_line(capsys, ["delta", "--action", SO3K2, "--point", "[[1,0],[0,1]]", "--out", str(path)])
    assert str(path) in err


def test_unwritable_out_csv_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "h.csv"
    err = _exits_2_with_one_line(capsys, ["ensemble", "--action", SO3K2, "--n", "200", "--out-csv", str(path)])
    assert str(path) in err


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["integrate", "--functions", "gaussian_radial:sigma=0"], "sigma"),
        (["integrate", "--functions", "gaussian_radial:sigma=nan"], "sigma"),
        (["volumes", "--functions", "gaussian_radial:sigma=inf,gaussian_sq_norm"], "sigma"),
        (["ensemble", "--scale", "0"], "scale"),
        (["ensemble", "--scale", "nan"], "scale"),
        (["ensemble", "--scale=-inf"], "scale"),
        (["integrate", "--workers", "0"], "--workers"),
        (["delta", "--point", "[[1,0],[0,1]]", "--workers=-1"], "--workers"),
        (["integrate", "--n-sigma", "nan"], "--n-sigma"),
        (["verify", "--tol-rel", "nan"], "--tol-rel"),
        (["delta", "--point", "[[1,0],[0,1]]", "--tol-abs", "inf"], "--tol-abs"),
        (["ensemble", "--p-threshold", "nan"], "--p-threshold"),
        (["verify", "--corrupt-metric=-inf"], "--corrupt-metric"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_degenerate_numeric_input_exits_2(capsys, argv, needle):
    # each of these used to print a NaN payload (not valid JSON) or ignore the value
    err = _exits_2_with_one_line(capsys, [argv[0], "--action", SO3K2, "--n", "200", *argv[1:]])
    assert needle in err


@pytest.mark.parametrize("source", ["inline", "file"])
@pytest.mark.parametrize(
    "option, action, point",
    [
        ("--point", SO3K2, "[[NaN,0],[0,1]]"),
        ("--point", SU2, "[Infinity]"),
        ("--point", SO3K2, "[[1e999,0],[0,1]]"),
        ("--action", '{"kind":"direct_sum","field":"R","n":3,"k":2,"x":-Infinity}', "[[1,0],[0,1]]"),
    ],
)
def test_non_finite_json_exits_2(capsys, tmp_path, source, option, action, point):
    # Python's json accepts NaN and Infinity; they used to reach the weight and print a NaN payload
    args = {"--action": action, "--point": point}
    if source == "file":
        path = tmp_path / "arg.json"
        path.write_text(args[option])
        args[option] = f"@{path}"
    err = _exits_2_with_one_line(capsys, ["delta", "--action", args["--action"], "--point", args["--point"]])
    assert f"bad {option}" in err and "non-finite" in err


# --- verify -------------------------------------------------------------------------

def test_verify_exit_zero(capsys):
    code, rep = run_cli(capsys, ["verify", "--action", SO3K2, "--points", "5", "--seed", "3"])
    assert code == 0 and rep["pass"] is True
    names = {c["name"] for c in rep["checks"]}
    assert "reductive_bracket" in names and "block_diagonality" in names


def test_verify_su2_polar_branch(capsys):
    code, rep = run_cli(capsys, ["verify", "--action", SU2, "--points", "5", "--seed", "3"])
    assert code == 0 and rep["pass"] is True


def test_verify_corrupted_metric_fails(capsys):
    code, rep = run_cli(
        capsys,
        ["verify", "--action", SO3K2, "--points", "4", "--corrupt-metric", "1.1"],
    )
    assert code == 1 and rep["pass"] is False


# --- integrate ----------------------------------------------------------------------

def test_integrate_report(capsys):
    code, rep = run_cli(
        capsys,
        ["integrate", "--action", SO3K2, "--seed", "7", "--n", "60000"],
    )
    assert code == 0 and rep["pass"] is True
    assert rep["results"]["vol_gn"]["mean"] == pytest.approx(4 * np.pi, rel=1e-12)
    assert rep["results"]["vol_gn"]["exact"] is True
    assert {c["name"] for c in rep["checks"]} == {
        "two_sided_agreement_gaussian_radial",
        "two_sided_agreement_gaussian_sq_norm",
    }


def test_integrate_conjugation(capsys):
    code, rep = run_cli(
        capsys,
        ["integrate", "--action", SU2, "--seed", "7", "--n", "20000"],
    )
    assert code == 0
    assert rep["results"]["vol_gn"]["mean"] == pytest.approx(np.pi, rel=0.05)


def test_integrate_sp3_conjugation(capsys):
    code, rep = run_cli(capsys, ["integrate", "--action", SP3, "--seed", "5", "--n", "500"])
    assert code == 0 and rep["pass"] is True
    assert rep["results"]["vol_gn"]["mean"] > 0


@pytest.mark.parametrize("action_json", ACTION_TABLE)
def test_integrate_uses_exact_vol_gn(capsys, action_json):
    # the reduced side is scaled by the exact vol(G/H) / vol(W), and each side
    # is one estimate on its own seed: seed + 1000 + i direct, seed + 2000 + i reduced
    seed, n, chunks = 3, 400, 4
    code, rep = run_cli(
        capsys, ["integrate", "--action", action_json, "--seed", str(seed), "--n", str(n), "--chunks", str(chunks)]
    )
    assert code in (0, 1)
    action = action_from_json(json.loads(action_json))
    exact = vol_gh_estimate(action).mean / w_group_volume(action).mean
    vol_gn = rep["results"]["vol_gn"]
    assert vol_gn["mean"] == pytest.approx(exact, rel=1e-12)
    assert vol_gn["stderr"] == 0.0 and vol_gn["exact"] is True
    for i, entry in enumerate(rep["results"]["per_function"]):
        f = make_test_function(entry["function"]["name"], **entry["function"]["params"])
        direct = integrate_direct(action, f, seed + 1000 + i, n, chunks)
        reduced = integrate_reduced(action, f, McEstimate.exact(vol_gn["mean"]))
        assert entry["direct"] == mc_result_json(action, f, direct)
        assert entry["reduced"] == mc_result_json(action, f, reduced)


def test_integrate_payload_keys(capsys):
    # the keys that downstream readers of the integrate payload rely on
    code, rep = run_cli(capsys, ["integrate", "--action", SO3K2, "--seed", "1", "--n", "1000"])
    results = rep["results"]
    assert set(results) == {"vol_gn", "per_function"}
    assert set(results["vol_gn"]) == {"mean", "stderr", "n_samples", "seed", "chunks", "exact"}
    assert len(results["per_function"]) == 2
    for entry in results["per_function"]:
        assert set(entry) == {"function", "direct", "reduced"}
        assert {"name", "params"} <= set(entry["function"])
        for side in ("direct", "reduced"):
            assert {"mean", "stderr"} <= set(entry[side])


# --- ensemble -----------------------------------------------------------------------

def test_ensemble_csv_and_report(capsys, tmp_path):
    csv_path = tmp_path / "h.csv"
    code, rep = run_cli(
        capsys,
        [
            "ensemble", "--action", SO3K2, "--seed", "22", "--n", "20000",
            "--bins", "20", "--out-csv", str(csv_path),
        ],
    )
    assert code == 0
    assert rep["results"]["p_value"] >= 0.01
    header = csv_path.read_text().splitlines()[0]
    assert header == "bin_lo,bin_hi,empirical,reference"


# --- volumes ------------------------------------------------------------------------

def test_volumes_report(capsys):
    code, rep = run_cli(
        capsys,
        ["volumes", "--action", SU2, "--seed", "2", "--n", "40000"],
    )
    assert code == 0 and rep["pass"] is True
    assert rep["results"]["vol_w"]["mean"] == 2.0
    assert rep["results"]["vol_gh"]["mean"] == pytest.approx(2 * np.pi, rel=0.05)


def test_volumes_h32_passes(capsys):
    code, rep = run_cli(capsys, ["volumes", "--action", H32, "--seed", "3", "--n", "20000"])
    assert code == 0 and rep["pass"] is True


def test_volumes_c42_exact_vol_gh(capsys):
    # vol(SU(4)) / vol(SU(2)) by the sphere recursion of SU(3) and SU(4)
    area = lambda dim: 2 * np.pi ** ((dim + 1) / 2) / math.gamma((dim + 1) / 2)
    expect = math.prod(2.0 ** (m - 1) * math.sqrt(m / (m - 1)) * area(2 * m - 1) for m in (3, 4))
    code, rep = run_cli(capsys, ["volumes", "--action", C42, "--seed", "4", "--n", "20000"])
    assert rep["results"]["vol_gh"]["mean"] == pytest.approx(expect, rel=1e-12)
    assert rep["results"]["vol_gh"]["stderr"] == 0.0


@pytest.mark.parametrize("action_json", [C42, '{"kind":"direct_sum","field":"R","n":4,"k":1}'])
def test_volumes_small_n_is_not_ill_conditioned(capsys, action_json):
    # the reduced side is quadrature with a rounding-level error bar, so the
    # 5 sigma guard of the calibration does not trip on a positive integrand
    code = main(["volumes", "--action", action_json, "--n", "400"])
    captured = capsys.readouterr()
    assert code in (0, 1), captured.err
    assert captured.err == ""


def test_volumes_payload_keys(capsys):
    code, rep = run_cli(capsys, ["volumes", "--action", SU2, "--seed", "1", "--n", "1000"])
    assert set(rep["results"]) == {"vol_gh", "vol_gn", "vol_w"}
    for key in ("vol_gh", "vol_gn", "vol_w"):
        assert {"mean", "stderr"} <= set(rep["results"][key])


@pytest.mark.parametrize("action_json", [SO3K2, SU2])
def test_volumes_marks_exact_constants(capsys, action_json):
    code, rep = run_cli(capsys, ["volumes", "--action", action_json, "--seed", "1", "--n", "1000"])
    res = rep["results"]
    assert res["vol_gh"]["exact"] is True and res["vol_w"]["exact"] is True
    assert "exact" not in res["vol_gn"] and res["vol_gn"]["stderr"] > 0


@pytest.mark.parametrize("action_json", [SO3K2, C42, H32, '{"kind":"direct_sum","field":"R","n":4,"k":1}'])
def test_volume_factorization_is_z_of_calibration(capsys, action_json):
    # vol(G/H) and vol(W) are exact, so the factorization check compares the
    # calibrated vol(G/N) with the exact vol(G/H) / vol(W) in its own error bar.
    # Neither integrand has constant importance weights on the direct side, so
    # the calibration carries Monte Carlo noise and z is of order 1
    functions = "gaussian_radial:sigma=1.3,gaussian_sq_norm:sigma=1.0"
    code, rep = run_cli(capsys, ["volumes", "--action", action_json, "--seed", "5", "--n", "20000",
                                 "--functions", functions])
    res = rep["results"]
    exact = res["vol_gh"]["mean"] / res["vol_w"]["mean"]
    z = abs(res["vol_gn"]["mean"] - exact) / (3.0 * res["vol_gn"]["stderr"])
    check = next(c for c in rep["checks"] if c["name"] == "volume_factorization")
    assert check["value"] / check["threshold"] == pytest.approx(z, rel=1e-9)


# --- reproducibility -----------------------------------------------------------------

def test_reports_byte_identical(capsys):
    argv = ["integrate", "--action", SO3K2, "--seed", "11", "--n", "20000"]
    main(argv)
    out1 = capsys.readouterr().out
    main(argv)
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_reports_worker_independent(capsys):
    base = ["integrate", "--action", SO3K2, "--seed", "11", "--n", "20000"]
    main(base + ["--workers", "1"])
    out1 = capsys.readouterr().out
    main(base + ["--workers", "4"])
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_action_from_file(capsys, tmp_path):
    path = tmp_path / "action.json"
    path.write_text(SO3K2)
    code, rep = run_cli(
        capsys, ["delta", "--action", f"@{path}", "--point", "[[2,0],[0,1]]"]
    )
    assert code == 0
    assert rep["results"]["delta_closed_form"] == pytest.approx(1.0)


def test_out_file_written(capsys, tmp_path):
    out = tmp_path / "r.json"
    main(["delta", "--action", SO3K2, "--point", "[[1,0],[0,1]]", "--out", str(out)])
    capsys.readouterr()
    assert json.loads(out.read_text())["pass"] is True
