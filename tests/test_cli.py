import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sectint.cli import main
from sectint.checks import run_action_checks
from sectint.fields import ScalarField
from sectint.groups import Family, GroupSpec
from sectint.actions import ConjugationAction, DirectSumAction, action_from_json
from sectint.integrate import integrate_direct, integrate_reduced, make_test_function
from sectint.mc import BATCH_DRAWS, batch_count
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
        assert all(r.passed for r in run_action_checks(action, seed=1, n_points=6))


@pytest.mark.parametrize("family, n", [(Family.SU, 3), (Family.SU, 4), (Family.SO, 4), (Family.SO, 5), (Family.SP, 2)])
def test_translation_invariance_reduces_a_point_at_the_su_cut(family, n):
    # a fixed torus point with an angle at 0 and its Haar translates reduce to one point
    checks = {c.name: c for c in run_action_checks(ConjugationAction(GroupSpec(family, n)), seed=2, n_points=4)}
    assert checks["reduction_translation_invariance"].value <= 1e-14


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("seed", range(20))
def test_translation_invariance_catches_unwrapped_su_phases(monkeypatch, n, seed):
    # SU(n) phases sorted in [0, 2 pi) with no wrap jump where an eigenvalue
    # crosses 1; Haar draws almost never land there, the fixed point does
    import sectint.actions

    def unwrapped(group, data):
        return np.sort(np.mod(np.angle(np.linalg.eigvals(data)), 2 * np.pi), axis=1)

    monkeypatch.setattr(sectint.actions, "canonical_angles", unwrapped)
    checks = {c.name: c for c in run_action_checks(ConjugationAction(GroupSpec(Family.SU, n)), seed=seed, n_points=4)}
    assert not checks["reduction_translation_invariance"].passed


def test_checks_negative_control(corrupt_metric):
    action = DirectSumAction(ScalarField.REAL, 3, 2)
    corrupt_metric(action, 1.05)
    assert not all(r.passed for r in run_action_checks(action, seed=1, n_points=4))


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


def test_delta_sees_a_wrong_weight_below_one(capsys, monkeypatch):
    # the weight at this regular point is about 6e-26: an absolute gap, or one
    # relative to 1 + weight, passes a closed form that is off by a factor 2
    closed = DirectSumAction.closed_weight
    monkeypatch.setattr(DirectSumAction, "closed_weight", lambda self, pts: 2.0 * closed(self, pts))
    code, rep = run_cli(capsys, ["delta", "--action", C42, "--point", "[[1e-3, 0], [0, 1e-3]]"])
    checks = {c["name"]: c for c in rep["checks"]}
    assert code == 1 and rep["results"]["regularity"] == "regular"
    assert 0.0 < rep["results"]["delta_generic"] < 1e-20
    assert checks["weight_closed_vs_generic"]["value"] == pytest.approx(0.5)
    assert not checks["weight_closed_vs_generic"]["pass"] and checks["differential_factorization"]["pass"]


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


@pytest.mark.parametrize("action, point, weyl_singular", [
    (SO3K2, "[[1, 0.5], [1, 0.5]]", False),
    (C42, "[[[1.0, 0.5], [0.2, -0.3]], [[1.0, 0.5], [0.2, -0.3]]]", True),
    (H32, "[[[1.0, 0.5, -0.2, 0.3], [0.2, -0.3, 0.7, 0.1]], [[1.0, 0.5, -0.2, 0.3], [0.2, -0.3, 0.7, 0.1]]]",
     True),
    ('{"kind":"conjugation","family":"SO","n":4}', "[1, 1]", False),
], ids=["R(3,2)", "C(4,2)", "H(3,2)", "SO(4)"])
def test_delta_determinants_read_zero_at_singular_points(capsys, action, point, weyl_singular):
    # the map determinants share the weight's singular cutoff, so rounding
    # noise at a singular point reads 0; R(3,2)'s Weyl block stays regular
    # there (delta_d = sqrt(1.25)), while those of C(4,2) and H(3,2) collapse
    code, rep = run_cli(capsys, ["delta", "--action", action, "--point", point])
    results = rep["results"]
    assert results["regularity"] == "singular"
    assert results["det_total"] == 0.0 and results["delta_generic"] == 0.0
    if weyl_singular:
        assert results["delta_d"] == 0.0
    if action == SO3K2:
        assert results["delta_d"] == pytest.approx(math.sqrt(1.25), rel=1e-12)


def test_delta_d_of_the_cli_and_the_api_agree_at_a_singular_point(capsys):
    # one convention: delta_d is the Weyl block's |det| wherever it is read,
    # and that block stays regular at this singular point of R(3,2)
    from sectint.weights import delta_d, weight_value

    point = "[[1, 0.5], [1, 0.5]]"
    code, rep = run_cli(capsys, ["delta", "--action", SO3K2, "--point", point])
    spec = action_from_json(json.loads(SO3K2))
    s = spec.parse_point(json.loads(point))
    value = weight_value(spec, s)
    assert value.regularity.value == rep["results"]["regularity"] == "singular"
    assert delta_d(spec, s) == value.delta_d == rep["results"]["delta_d"]
    assert value.delta_d == pytest.approx(math.sqrt(1.25), rel=1e-12)


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


def test_delta_reports_the_exceptional_class(capsys):
    # a rotation by pi: regular isotropy, but fixed by the Weyl reflection
    code, rep = run_cli(capsys, ["delta", "--action", SO3, "--point", "[3.141592653589793]"])
    assert code == 0 and rep["results"]["regularity"] == "exceptional"
    assert run_cli(capsys, ["delta", "--action", SO3, "--point", "[3.1]"])[1]["results"]["regularity"] == "regular"


@pytest.mark.parametrize("action, point", [
    (SO3K2, "[[1.0, 0.5], [-0.3, 2.0]]"),
    (C42, "[[[1.0, 0.5], [0.2, -0.3]], [[-0.3, 0.1], [2.0, 0.4]]]"),
    ('{"kind":"direct_sum","field":"R","n":4,"k":1}', "[[1.3]]"),
    ('{"kind":"conjugation","family":"SU","n":3}', "[0.4, 2.0]"),
], ids=["R(3,2)", "C(4,2)", "R(4,1)", "SU(3)"])
def test_delta_and_verify_agree_at_one_point(capsys, monkeypatch, action, point):
    # verify's pointwise checks at the delta point are delta's checks, value for value
    import sectint.checks
    from sectint.actions import orbit_map_differentials
    from sectint.matrices import to_real_vector

    spec = action_from_json(json.loads(action))
    flat = to_real_vector(spec.parse_point(json.loads(point)))[None]
    # the draw returns the orbit maps it evaluated; here, at delta's point
    draws = orbit_map_differentials(spec, flat)
    monkeypatch.setattr(sectint.checks, "random_regular_section_points", lambda *args: draws)
    code, rep = run_cli(capsys, ["delta", "--action", action, "--point", point])
    assert code == 0
    verify = {c["name"]: c for c in run_cli(capsys, ["verify", "--action", action, "--points", "1"])[1]["checks"]}
    names = ["block_diagonality", "differential_factorization", "weight_closed_vs_generic"]
    assert [c["name"] for c in rep["checks"]] == names
    assert rep["checks"] == [verify[name] for name in names]


def test_bad_function_name_exits_nonzero(capsys):
    code = main(["integrate", "--action", SO3K2, "--functions", "nope", "--n", "100"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["integrate", "volumes"])
@pytest.mark.parametrize("action_json, power", [
    (SO3K2, "-2"), (SO3K2, "-3"), ('{"kind":"direct_sum","field":"R","n":4,"k":1}', "-4"),
])
def test_divergent_det_power_exits_2(capsys, command, action_json, power):
    # |det|^p e^(-|x|^2/2) has no finite integral at p <= -d(n - k + 1)
    argv = [command, "--action", action_json, "--n", "2000", "--functions", f"gaussian_radial,gaussian_det:power={power}"]
    err = _exits_2_with_one_line(capsys, argv)
    assert "diverges" in err


@pytest.mark.parametrize("command, functions", [("integrate", "const"), ("volumes", "gaussian_radial,const")])
@pytest.mark.parametrize("action_json", [SO3K2, H32])
def test_constant_on_a_direct_sum_exits_2(capsys, command, functions, action_json):
    # a constant over the flat matrix space has no finite integral
    err = _exits_2_with_one_line(capsys, [command, "--action", action_json, "--n", "2000", "--functions", functions])
    assert "const" in err and "diverges" in err


@pytest.mark.parametrize("command", ["integrate", "volumes"])
@pytest.mark.parametrize("power", ["2.5", "-1", "-2"])
def test_non_integer_or_negative_trace_power_exits_2(capsys, command, power):
    # weight * tr^p is a trigonometric polynomial, which the torus rule integrates, only at integer p >= 0
    argv = [command, "--action", SU2, "--n", "200", "--functions", f"trace_power:power={power},const"]
    err = _exits_2_with_one_line(capsys, argv)
    assert "nonnegative integer" in err


@pytest.mark.parametrize("action, functions", [
    (SO3K2, "gaussian_radial:sigmaa=2"),
    (SO3K2, "gaussian_radial,gaussian_sq_norm:power=2"),
    (SU2, "trace_power:sigma=0.5,const"),
    (SU2, "trace_power,const:power=3"),
])
@pytest.mark.parametrize("command", ["integrate", "volumes"])
def test_undeclared_function_parameter_exits_2(capsys, command, action, functions):
    # a parameter the family does not read is refused, not echoed and ignored
    err = _exits_2_with_one_line(capsys, [command, "--action", action, "--n", "200", "--functions", functions])
    assert "has no parameter" in err


@pytest.mark.parametrize("functions", ["gaussian_det:power=nan", "gaussian_radial:sigma=inf",
                                       "gaussian_radial,gaussian_det:power=-inf"])
def test_non_finite_function_parameter_exits_2(capsys, functions):
    err = _exits_2_with_one_line(capsys, ["integrate", "--action", SO3K2, "--n", "200", "--functions", functions])
    assert "non-finite" in err


def test_ill_conditioned_calibration_exits_2(capsys):
    # the section integral of tr(g) against the SU(2) weight vanishes
    code = main(["volumes", "--action", SU2, "--n", "1000", "--functions", "trace_power:power=1,const"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["abc", "0", "²"])
def test_bad_workers_env_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("SECTINT_WORKERS", value)
    code = main(["delta", "--action", SO3K2, "--point", "[[1,0],[0,1]]"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "SECTINT_WORKERS" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("extra", [[], ["--tol-rel", "0"]], ids=["passing", "failing"])
def test_closed_stdout_exits_141_without_a_traceback(extra):
    # stdout is a pipe whose reader is already gone; 141 = 128 + SIGPIPE,
    # whatever the verdict would have been
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "sectint.cli", "verify", "--action", SO3K2, *extra],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 141 and done.stderr == ""  # no traceback, no error line


def _exits_2_with_one_line(capsys, argv) -> str:
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    return captured.err


C32 = '{"kind":"direct_sum","field":"C","n":3,"k":2}'
SU3 = '{"kind":"conjugation","family":"SU","n":3}'


@pytest.mark.parametrize(
    "action, point, position",
    [
        (SO3K2, '[[1,"x"],[0,1]]', "row 1, column 2"),
        (SO3K2, "[[1,0],[true,1]]", "row 2, column 1"),
        # each component of a C or H entry is a JSON number, not a string, null, list or bool
        (C32, '[[[1,0],0],[0,["1",0]]]', "row 2, column 2"),
        (C32, "[[[1,null],0],[0,1]]", "row 1, column 1"),
        (C32, "[[[[1],0],0],[0,1]]", "row 1, column 1"),
        (C32, "[[1,[0,false]],[0,1]]", "row 1, column 2"),
        (H32, "[[[1,null,0,0],0],[0,1]]", "row 1, column 1"),
        (H32, "[[1,0],[[0,[1],0,0],1]]", "row 2, column 1"),
        (H32, '[[1,"2"],[0,1]]', "row 1, column 2"),
        (H32, '[[[1,0,"0",0],0],[0,1]]', "row 1, column 1"),
        (SU3, "[null,0.2]", "angle 1"),
        (SU3, "[0.1,true]", "angle 2"),
        (SU3, '{"angles":[0.1,"0.2"]}', "angle 2"),
    ],
)
def test_delta_malformed_point_reports_position(capsys, action, point, position):
    err = _exits_2_with_one_line(capsys, ["delta", "--action", action, "--point", point])
    assert f"point parse error at {position}:" in err


HUGE = "9" * 400  # a JSON integer beyond the float range


@pytest.mark.parametrize(
    "action, point",
    [
        (SO3K2, f"[[{HUGE},0],[0,1]]"),
        ('{"kind":"direct_sum","field":"C","n":3,"k":1}', f"[[[{HUGE},0]]]"),
        (SU2, f"[{HUGE}]"),
    ],
    ids=["real entry", "complex entry", "conjugation angle"],
)
def test_huge_integer_point_exits_2(capsys, action, point):
    # float() of these raised OverflowError with a traceback and exit 1
    err = _exits_2_with_one_line(capsys, ["delta", "--action", action, "--point", point])
    assert "point parse error" in err and "too large" in err


@pytest.mark.parametrize("field", ["C", "H"])
def test_off_section_polar_point_exits_2(capsys, field):
    # the polar section is the real line, so a non-real entry is no section point
    action = f'{{"kind":"direct_sum","field":"{field}","n":3,"k":1}}'
    point = "[[[0.6,0.8]]]" if field == "C" else "[[[0.6,0,0.8,0]]]"
    err = _exits_2_with_one_line(capsys, ["delta", "--action", action, "--point", point])
    assert "off the section" in err


@pytest.mark.parametrize("point", ["[0.1, 0.2, 0.3]", '{"angles": [1.0, 2.0, 3.5]}', "[3.14159, 0, 0]"])
def test_su_point_off_the_group_exits_2(capsys, point):
    # n angles whose sum is not 0 mod 2 pi give diag(e^(i theta)) of
    # determinant other than 1: a point of U(3), not of SU(3)
    err = _exits_2_with_one_line(capsys, ["delta", "--action", SU3, "--point", point])
    assert "off SU(3)" in err


@pytest.mark.parametrize("point", ["[0.4, 2.0]", "[0.4, 2.0, -2.4]", f"[2.0, 2.5, {2 * math.pi - 4.5!r}]"])
def test_su_point_on_the_group_passes(capsys, point):
    # n - 1 free angles, or n summing to 0 mod 2 pi within rounding
    code, rep = run_cli(capsys, ["delta", "--action", SU3, "--point", point])
    assert code == 0 and rep["pass"] is True


def test_su_torus_points_keep_accepting_n_angles():
    # only the user edge checks the sum: the torus points of n angles are U(n)'s diagonal
    from sectint.groups import torus_angles, torus_points

    su3 = GroupSpec(Family.SU, 3)
    np.testing.assert_allclose(torus_angles(su3, torus_points(su3, np.array([[0.1, 0.2, 0.3]]))), [[0.1, 0.2, 0.3]])


@pytest.mark.parametrize("scale", ["7", "-1", "0.5"])
def test_ensemble_scale_on_conjugation_exits_2(capsys, scale):
    # Haar measure has no scale: a scale other than 1 was echoed in the payload and ignored
    err = _exits_2_with_one_line(capsys, ["ensemble", "--action", SU2, "--n", "300", "--bins", "10",
                                          f"--scale={scale}"])
    assert "scale" in err


@pytest.mark.parametrize("action, statistic", [(SU2, "coordinate_det"), (SO3K2, "torus_angle"), (SO3K2, "nope")])
def test_ensemble_statistic_of_another_kind_exits_2(capsys, action, statistic):
    err = _exits_2_with_one_line(capsys, ["ensemble", "--action", action, "--n", "300", "--statistic", statistic])
    assert f"statistic {statistic!r} not defined" in err


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(name in out for name in ("delta", "integrate", "verify", "ensemble", "volumes"))


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 279. GiB", "error: out of memory: Unable to allocate 279. GiB\n"),
    ("", "error: out of memory\n"),
])
def test_running_out_of_memory_exits_2(monkeypatch, capsys, message, line):
    # numpy's _ArrayMemoryError at --n 1e11 printed a traceback and exited 1
    import sectint.ensembles

    def out_of_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(sectint.ensembles, "sample_ensemble", out_of_memory)
    assert _exits_2_with_one_line(capsys, ["ensemble", "--action", SO3K2, "--n", "100000000000"]) == line


def test_unknown_subcommand_exits_2(capsys):
    # argparse's own errors are bad input like any other: one line, exit 2, no usage block
    assert "invalid choice" in _exits_2_with_one_line(capsys, ["bogus", "--action", SO3K2])


def test_a_known_command_is_parsed_by_its_own_parser_alone(monkeypatch, capsys):
    import argparse

    from sectint import cli

    parser = cli.build_parser("verify")
    assert parser.prog == "sectint verify"
    assert not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)
    built = []
    monkeypatch.setattr(cli, "_parser", lambda command: built.append(command) or parser)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0 and built == ["verify"]  # never None: no top-level parser
    assert "--points" in capsys.readouterr().out


def test_parser_is_built_once_per_command():
    from sectint.cli import build_parser

    assert build_parser("delta") is build_parser("delta")
    assert build_parser("delta") is not build_parser("verify")
    # any name that is not a subcommand shares the one parser of all names
    assert build_parser("bogus") is build_parser("--help") is build_parser(None)


# --- the options of each subcommand -------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]

#: subcommand -> (the options it takes besides --action and --out, its config keys);
#: delta, verify and ensemble accept the benchmark's --seed and --n-sigma unread
OPTION_TABLE = {
    "delta": ("--point --tol-rel --tol-abs --seed --n-sigma", "point tol_rel tol_abs"),
    "integrate": ("--functions --seed --n --workers --n-sigma", "functions seed n n_sigma"),
    "verify": ("--seed --points --tol-rel --tol-abs --n-sigma", "seed points tol_rel tol_abs"),
    "ensemble": ("--seed --n --statistic --stat-index --scale --bins --p-threshold --out-csv --n-sigma",
                 "seed n statistic stat_index scale bins p_threshold"),
    "volumes": ("--functions --seed --n --workers --n-sigma", "functions seed n n_sigma"),
}
#: a quick run of each subcommand, less the action
QUICK_ARGV = {
    "delta": ["--point", "[[1, 0.5], [-0.3, 2.0]]"],
    "integrate": ["--n", "200", "--workers", "2"],
    "verify": ["--points", "2", "--tol-abs", "1e-09"],
    "ensemble": ["--n", "300", "--bins", "10"],
    "volumes": ["--n", "400", "--seed", "4"],
}
FOREIGN_OPTIONS = [(command, flag) for command, (own, _) in OPTION_TABLE.items()
                   for flag in sorted({f for opts, _ in OPTION_TABLE.values() for f in opts.split()} - set(own.split()))]


def _option_strings(command: str) -> set[str]:
    from sectint.cli import build_parser

    return {flag for a in build_parser(command)._actions for flag in a.option_strings} - {"-h", "--help"}


def test_each_subcommand_takes_the_options_of_the_table():
    options = {command: _option_strings(command) for command in OPTION_TABLE}
    for command, (own, _) in OPTION_TABLE.items():
        assert options[command] == {"--action", "--out", *own.split()}, command
    assert sum(map(len, options.values())) == 39  # 42 before --chunks left integrate, ensemble and volumes


@pytest.mark.parametrize("command", list(OPTION_TABLE))
def test_config_echoes_exactly_the_options_read(capsys, command):
    # every option that shapes the payload, as given or defaulted; --point as its
    # parsed JSON; never --workers or the output paths
    code, rep = run_cli(capsys, [command, "--action", SO3K2, *QUICK_ARGV[command]])
    assert code in (0, 1)
    assert sorted(rep["config"]) == sorted(OPTION_TABLE[command][1].split())
    given = dict(zip(QUICK_ARGV[command][::2], QUICK_ARGV[command][1::2]))
    for flag, text in given.items():
        if flag != "--workers":
            assert rep["config"][flag[2:].replace("-", "_")] == json.loads(text)


@pytest.mark.parametrize("command, flag", FOREIGN_OPTIONS, ids=lambda v: v)
def test_option_of_another_subcommand_exits_2(capsys, command, flag):
    # an option the subcommand does not read used to run and be echoed as if it had
    err = _exits_2_with_one_line(capsys, [command, "--action", SO3K2, *QUICK_ARGV[command], flag, "1"])
    assert f"unrecognized arguments: {flag} 1" in err


@pytest.mark.parametrize("argv, needle", [
    (["verify", "--action", SO3K2, "--points", "x"], "--points"),
    (["integrate", "--action", SO3K2, "--bogus"], "--bogus"),
    (["verify", "--action", SO3K2, "--point", "3"], "--point"),  # no prefix of --points
    (["delta", "--point", "[[1,0],[0,1]]"], "--action"),
])
def test_argparse_errors_are_one_line(capsys, argv, needle):
    assert needle in _exits_2_with_one_line(capsys, argv)


def _readme_commands() -> list[list[str]]:
    import shlex

    text = (ROOT / "README.md").read_text().replace("\\\n", " ")
    return [shlex.split(line.strip())[1:] for line in text.splitlines() if line.strip().startswith("sectint ")]


def test_readme_and_benchmark_command_lines_parse(monkeypatch):
    # parsed, not run: a removed option can stay neither in the docs nor in the benchmark's ops
    from sectint.cli import build_parser

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    ops = [list(op.argv) for w in ("flat-mc", "group-mc", "pointwise") for op in workloads.pass_ops(w, 1)]
    readme = _readme_commands()
    assert len(readme) >= 5 and {argv[0] for argv in readme} == set(OPTION_TABLE)
    for argv in readme + ops:
        build_parser(argv[0]).parse_args(argv[1:])


def test_action_keys_its_kind_does_not_read_exit_2(capsys):
    # k and field were dropped from a conjugation action, which echoed SU(3) alone
    action = '{"kind":"conjugation","family":"SU","n":3,"k":2,"field":"H"}'
    err = _exits_2_with_one_line(capsys, ["delta", "--action", action, "--point", "[0.1, 0.2]"])
    assert "bad --action" in err and "'field', 'k'" in err


def test_torus_point_keys_besides_angles_exit_2(capsys):
    point = '{"angles": [0.1, 0.2], "scale": 3}'
    err = _exits_2_with_one_line(capsys, ["delta", "--action", SU3, "--point", point])
    assert "bad --point" in err and "'scale'" in err


def test_function_parameter_given_twice_exits_2(capsys):
    # the last sigma won, silently
    argv = ["integrate", "--action", SO3K2, "--n", "200", "--functions", "gaussian_radial:sigma=1:sigma=3"]
    assert "'sigma' of 'gaussian_radial' given twice" in _exits_2_with_one_line(capsys, argv)


@pytest.mark.parametrize(
    "action",
    ['{"kind":"direct_sum"', "[1, 2]", '{"kind":"direct_sum","field":"R","n":3}',
     '{"kind":"direct_sum","field":"Q","n":3,"k":2}', '{"kind":"torus"}', "@no-such-action.json",
     # sizes are JSON integers: no floats, strings or bools
     '{"kind":"direct_sum","field":"R","n":3.9,"k":2.5}', '{"kind":"direct_sum","field":"R","n":3,"k":2.0}',
     '{"kind":"direct_sum","field":"R","n":"3","k":2}', '{"kind":"direct_sum","field":"R","n":3,"k":true}',
     '{"kind":"conjugation","family":"SU","n":2.0}', '{"kind":"conjugation","family":"SU","n":"2"}',
     '{"kind":"conjugation","family":"SU","n":false}',
     # labels are JSON strings, and a conjugation needs a torus: SO(1) and SU(1) have rank 0
     '{"kind":"direct_sum","field":1,"n":3,"k":2}', '{"kind":"conjugation","family":null,"n":3}',
     '{"kind":"conjugation","family":"SO","n":1}', '{"kind":"conjugation","family":"SU","n":1}'],
)
def test_bad_action_exits_2(capsys, action):
    err = _exits_2_with_one_line(capsys, ["delta", "--action", action, "--point", "[[1,0],[0,1]]"])
    assert "bad --action" in err


@pytest.mark.parametrize("inline", [True, False], ids=["inline", "file"])
@pytest.mark.parametrize("flag", ["--action", "--point"])
def test_deeply_nested_json_exits_2(capsys, tmp_path, flag, inline):
    # json.loads raised RecursionError, which left the run with a traceback
    text = "[" * 100_000
    if not inline:
        (tmp_path / "deep.json").write_text(text)
        text = f"@{tmp_path / 'deep.json'}"
    args = {"--action": SO3K2, "--point": "[[1,0],[0,1]]", flag: text}
    err = _exits_2_with_one_line(capsys, ["delta", *(x for item in args.items() for x in item)])
    assert f"bad {flag}" in err and "recursion" in err


def _direct(**entries) -> str:
    return json.dumps({"kind": "direct_sum", "field": "R", "n": 3, "k": 2, **entries})


def _nested(depth: int) -> list:
    value = 1
    for _ in range(depth):
        value = [value]
    return value


OVERFLOWING = "1." + "0" * 5000 + "e400"  # a JSON number whose float is inf
# each bad input: argv of a value, a long value, a short one and its exact echo
ECHOED_INPUTS = {
    "number": (lambda v: ["delta", "--action", SO3K2, "--point", json.dumps([[v, 0], [0, 1]])],
               "x" * 3000, "x", "expected a number, got 'x'"),
    "angle": (lambda v: ["delta", "--action", SU2, "--point", json.dumps({"angles": [v]})],
              _nested(900), [[1]], "at angle 1: expected a number, got [[1]]"),
    "components": (lambda v: ["delta", "--action", H32, "--point", json.dumps([[v, 0], [0, 1]])],
                   list(range(1000)), [1, 2], "expected 4 components, got [1, 2]"),
    "size": (lambda v: ["delta", "--action", _direct(n=v), "--point", "[[1,0],[0,1]]"],
             "3" * 3000, "3", "n must be an integer, got '3'"),
    "kind": (lambda v: ["verify", "--action", json.dumps({"kind": v})], "k" * 3000, "polar",
             "unknown action kind 'polar'"),
    "keys": (lambda v: ["verify", "--action", _direct(**dict.fromkeys(v, 1))],
             [f"key{i:04d}" * 50 for i in range(100)], ["b", "a"], "takes no key 'a', 'b'"),
    "family": (lambda v: ["verify", "--action", json.dumps({"kind": "conjugation", "family": v, "n": 2})],
               "S" * 3000, "SQ", "unknown group family 'SQ'"),
    "field": (lambda v: ["verify", "--action", _direct(field=v)], "F" * 3000, "Q", "unknown scalar field 'Q'"),
    "function": (lambda v: ["integrate", "--action", SO3K2, "--n", "100", "--functions", v],
                 "f" * 3000, "bessel", "unknown test function 'bessel'"),
    "parameter": (lambda v: ["integrate", "--action", SO3K2, "--n", "100", "--functions", f"gaussian_radial:{v}=1"],
                  "p" * 3000, "mu", "gaussian_radial has no parameter 'mu'"),
    "parameter value": (lambda v: ["integrate", "--action", SO3K2, "--n", "100", "--functions", f"gaussian_radial:sigma={v}"],
                        "x" * 3000, "x", "expected a number, got 'x'"),
    "repeated parameter": (lambda v: ["integrate", "--action", SO3K2, "--n", "100", "--functions", f"{v}:a=1:a=1"],
                           "f" * 3000, "g", "parameter 'a' of 'g' given twice"),
    "overflowing point": (lambda v: ["delta", "--action", SO3K2, "--point", f"[[{v}, 0], [0, 1]]"],
                          OVERFLOWING, "1e400", "non-finite number '1e400'"),
    "overflowing parameter": (lambda v: ["integrate", "--action", SO3K2, "--n", "100", "--functions",
                                         f"gaussian_radial:sigma={v}"], OVERFLOWING, "1e400", "non-finite number '1e400'"),
}


@pytest.mark.parametrize("case", sorted(ECHOED_INPUTS))
def test_echoed_bad_input_is_one_short_line(capsys, case):
    # the errors echoed the whole bad value, kilobytes of it on one line
    argv, long, short, echo = ECHOED_INPUTS[case]
    err = _exits_2_with_one_line(capsys, argv(long))
    assert len(err.encode()) < 300
    assert echo in _exits_2_with_one_line(capsys, argv(short))


@pytest.mark.parametrize("command", ["integrate", "volumes"])
def test_empty_functions_exits_2(capsys, command):
    # an empty --functions ran the default integrands, while config echoed ""
    err = _exits_2_with_one_line(capsys, [command, "--action", SO3K2, "--n", "100", "--functions", ""])
    assert "unknown test function ''" in err


@pytest.mark.parametrize(
    "action, point",
    [(SO3K2, "[[1,2]]"), (SO3K2, "[1,2]"), (SO3K2, "[[1,2],[3]]"), (SO3K2, "[[1,2"),
     (C32, "[[[1,0,0],0],[0,1]]"), (H32, "[[[1,0],0],[0,1]]"),
     # angles are a flat list of numbers
     (SU3, "[[0.1,0.2]]"), (SU3, "0.1"), (SU3, '{"angles":0.1}')],
)
def test_point_of_wrong_shape_exits_2(capsys, action, point):
    _exits_2_with_one_line(capsys, ["delta", "--action", action, "--point", point])


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


@pytest.mark.parametrize("action, statistic", [(SU3, "torus_angle"), (SO3K2, "coordinate_det")])
def test_ensemble_statistic_defaults_from_the_action(capsys, action, statistic):
    code, rep = run_cli(capsys, ["ensemble", "--action", action, "--n", "300", "--bins", "10"])
    assert code in (0, 1) and rep["results"]["statistic"] == statistic
    assert rep["config"]["statistic"] is None


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


@pytest.mark.parametrize("n", ["1", "5"])
def test_ensemble_with_one_bin_left_exits_2(capsys, n):
    # the bins merged to an expected count of 5 leave one bin: no test to run
    err = _exits_2_with_one_line(capsys, ["ensemble", "--action", SO3K2, "--n", n, "--bins", "20"])
    assert "at least 2 bins, got 1 after merging" in err


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
        # a negative tolerance or n-sigma fails every check, a p-threshold below 0 passes every one
        (["integrate", "--n-sigma", "-1"], "--n-sigma"),
        (["volumes", "--n-sigma", "0"], "--n-sigma"),
        (["verify", "--tol-rel", "-1"], "--tol-rel"),
        (["delta", "--point", "[[1,0],[0,1]]", "--tol-abs", "-1"], "--tol-abs"),
        (["ensemble", "--p-threshold", "-0.5"], "--p-threshold"),
        (["ensemble", "--p-threshold", "1.5"], "--p-threshold"),
        # finite scales whose arithmetic overflows, or divides by an underflowed 0
        (["integrate", "--functions", "gaussian_radial:sigma=1e-300"], "floating-point range"),
        (["integrate", "--functions", "gaussian_radial:sigma=1e100"], "floating-point range"),
        (["ensemble", "--scale", "1e308"], "floating-point range"),
        # sigma^16, the Bartlett rule's scale on H(3,2), overflows a Python float: it raised OverflowError
        (["integrate", "--action", H32, "--functions", "gaussian_radial:sigma=1e20"], "floating-point range"),
        (["volumes", "--action", H32, "--functions", "gaussian_radial:sigma=1e20,gaussian_sq_norm:sigma=1e30"],
         "floating-point range"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_degenerate_numeric_input_exits_2(capsys, argv, needle):
    # each of these used to print a NaN payload (not valid JSON) or ignore the value;
    # delta takes no --workers, which argparse refuses by name
    size = ["--n", "200"] if argv[0] in ("integrate", "volumes", "ensemble") else []
    action = [] if "--action" in argv else ["--action", SO3K2]
    err = _exits_2_with_one_line(capsys, [argv[0], *action, *size, *argv[1:]])
    assert needle in err


def test_verify_reports_an_infinite_check_value(capsys, monkeypatch):
    # isotropy_constancy reads inf where a point's isotropy has the wrong
    # dimension: a failed check in the payload, not a floating-point error
    from sectint.actions import OrbitMapDifferential

    monkeypatch.setattr(OrbitMapDifferential, "isotropy_mask", lambda self, tol=1e-8: np.zeros(self.svd[1].shape, bool))
    r42 = '{"kind":"direct_sum","field":"R","n":4,"k":2}'  # an isotropy algebra so(2) at regular points
    code, rep = run_cli(capsys, ["verify", "--action", r42, "--points", "3", "--seed", "1"])
    values = {c["name"]: c["value"] for c in rep["checks"]}
    assert code == 1 and values["isotropy_constancy"] == math.inf


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



@pytest.mark.parametrize("command", ["integrate", "verify", "ensemble", "volumes"])
def test_negative_seed_exits_2(capsys, command):
    # integrate ran -1 (its direct side draws from seed + 1000); the others
    # exited with numpy's message, which names no option
    err = _exits_2_with_one_line(capsys, [command, "--action", SO3K2, "--seed", "-1"])
    assert "--seed must be a nonnegative integer, got -1" in err

# --- verify -------------------------------------------------------------------------

def test_verify_exit_zero(capsys):
    code, rep = run_cli(capsys, ["verify", "--action", SO3K2, "--points", "5", "--seed", "3"])
    assert code == 0 and rep["pass"] is True
    names = {c["name"] for c in rep["checks"]}
    assert "reductive_bracket" in names and "block_diagonality" in names


def test_verify_su2_polar_branch(capsys):
    code, rep = run_cli(capsys, ["verify", "--action", SU2, "--points", "5", "--seed", "3"])
    assert code == 0 and rep["pass"] is True


def test_verify_corrupted_metric_fails(capsys, corrupt_metric):
    corrupt_metric(action_from_json(json.loads(SO3K2)), 1.1)
    code, rep = run_cli(capsys, ["verify", "--action", SO3K2, "--points", "4"])
    assert code == 1 and rep["pass"] is False


def test_verify_has_no_corrupt_metric_option(capsys):
    # the check suite verifies the one split of algebra_split; tests corrupt it themselves
    err = _exits_2_with_one_line(capsys, ["verify", "--action", SO3K2, "--corrupt-metric", "1.1"])
    assert "unrecognized arguments: --corrupt-metric 1.1" in err


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
    # the reduced side is scaled by the exact vol(G/H) / vol(W); the direct side
    # is one run at seed + 1000 whose draws serve every integrand
    seed, n = 3, 400
    code, rep = run_cli(capsys, ["integrate", "--action", action_json, "--seed", str(seed), "--n", str(n)])
    assert code in (0, 1)
    action = action_from_json(json.loads(action_json))
    exact = vol_gh_estimate(action) / w_group_volume(action)
    vol_gn = rep["results"]["vol_gn"]
    assert vol_gn["mean"] == pytest.approx(exact, rel=1e-12)
    assert vol_gn["stderr"] == 0.0 and vol_gn["exact"] is True
    entries = rep["results"]["per_function"]
    fs = [make_test_function(e["function"]["name"], **e["function"]["params"]) for e in entries]
    directs = integrate_direct(action, fs, seed + 1000, n)
    assert len(directs) == len(entries) >= 2
    reduceds = integrate_reduced(action, fs, vol_gn["mean"])
    for entry, direct, reduced in zip(entries, directs, reduceds):
        assert entry["direct"] == direct.to_json()
        assert entry["reduced"] == reduced.to_json()


@pytest.mark.parametrize("action_json", [H32, '{"kind":"conjugation","family":"SU","n":3}'])
def test_integrate_with_five_draws(capsys, action_json):
    # 5 samples are one batch of 5 draws, which every integrand shares: each
    # direct estimate is the run of its integrand alone
    argv = ["integrate", "--action", action_json, "--seed", "3", "--n", "5"]
    code, rep = run_cli(capsys, argv)
    assert code in (0, 1)
    action = action_from_json(json.loads(action_json))
    for entry in rep["results"]["per_function"]:
        direct, fn = entry["direct"], entry["function"]
        f = make_test_function(fn["name"], **fn["params"])
        [alone] = integrate_direct(action, [f], 3 + 1000, 5)
        assert direct["n_samples"] == 5
        assert (direct["mean"], direct["stderr"]) == (alone.mean, alone.stderr)


@pytest.mark.parametrize("functions, names", [
    ("gaussian_radial:sigma=1,gaussian_radial:sigma=1.3", ["gaussian_radial_1", "gaussian_radial_2"]),
    ("gaussian_sq_norm,gaussian_radial,gaussian_radial:sigma=1.3",
     ["gaussian_sq_norm", "gaussian_radial_2", "gaussian_radial_3"]),
    ("gaussian_sq_norm,gaussian_radial", ["gaussian_sq_norm", "gaussian_radial"]),
])
def test_integrate_check_names_are_unique(capsys, functions, names):
    # a family given twice gets its position in the list, counted from 1, so
    # that a reader keying checks by name keeps each; a unique name is unchanged
    code, rep = run_cli(capsys, ["integrate", "--action", SO3K2, "--n", "2000", "--functions", functions])
    assert [c["name"] for c in rep["checks"]] == [f"two_sided_agreement_{name}" for name in names]


ESTIMATE_KEYS = {"mean", "stderr", "n_samples"}  # an estimate's own facts; its seed and n are config's


@pytest.mark.parametrize("action", [SO3K2, SU3])
def test_integrate_payload_keys(capsys, action):
    # the keys that downstream readers of the integrate payload rely on, each estimate exactly
    code, rep = run_cli(capsys, ["integrate", "--action", action, "--seed", "1", "--n", "1000"])
    results = rep["results"]
    assert set(results) == {"vol_gn", "per_function"}
    assert set(results["vol_gn"]) == ESTIMATE_KEYS | {"exact"} and results["vol_gn"]["exact"] is True
    assert len(results["per_function"]) == 2
    for entry in results["per_function"]:
        assert set(entry) == {"function", "direct", "reduced"}
        assert set(entry["function"]) == {"name", "params", "invariant"}
        for side in ("direct", "reduced"):
            assert set(entry[side]) == ESTIMATE_KEYS


@pytest.mark.parametrize("action, argv, statistic", [
    (SO3K2, [], "coordinate_det"),
    (SO3K2, ["--statistic", "singular_value", "--stat-index", "1"], "singular_value"),
    (SU3, [], "torus_angle"),
])
def test_ensemble_payload_keys(capsys, action, argv, statistic):
    # the test's outcome and the statistic it read; the action, scale, bins and n are config's alone
    code, rep = run_cli(capsys, ["ensemble", "--action", action, "--n", "300", "--bins", "10", *argv])
    assert set(rep["results"]) == {"chi2", "dof", "p_value", "statistic", "reference_n_eff"}
    assert rep["results"]["statistic"] == statistic


@pytest.mark.parametrize("action, kind", [
    (SO3K2, int), (H32, int), (SO3, type(None)), (SU3, float), (SP3, float),
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_ensemble_reports_its_reference_effective_size(capsys, action, kind):
    # n_ref for the direct sums' equal-weight draws, Kish's (sum w)^2 / sum w^2
    # for the weighted torus draws above rank one, null for the rank-one grid
    from sectint.ensembles import EnsembleSpec
    from sectint.mc import subseed

    code, rep = run_cli(capsys, ["ensemble", "--action", action, "--n", "400", "--bins", "10", "--seed", "9"])
    spec = EnsembleSpec(action_from_json(json.loads(action)))
    n_eff = rep["results"]["reference_n_eff"]
    assert type(n_eff) is kind and n_eff == spec.action.ensemble_reference(spec, 400, subseed(9, 1))[3]


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


def test_ensemble_samples_with_the_seed_and_n_it_reports(capsys):
    from sectint.ensembles import EnsembleSpec, compare_densities

    code, rep = run_cli(capsys, ["ensemble", "--action", SO3K2, "--n", "300", "--bins", "10", "--seed", "4"])
    assert (rep["config"]["seed"], rep["config"]["n"]) == (4, 300)
    spec = EnsembleSpec(action_from_json(json.loads(SO3K2)))
    assert rep["results"] == compare_densities(spec, 4, 300, 10).to_json()
    assert rep["results"] != compare_densities(spec, 5, 300, 10).to_json()


@pytest.mark.parametrize("command", ["integrate", "ensemble", "volumes"])
def test_the_chunk_count_is_no_option(capsys, command):
    # (seed, n) fixes the Monte Carlo streams: there is no chunk count to set
    err = _exits_2_with_one_line(capsys, [command, "--action", SO3K2, "--n", "300", "--chunks", "4"])
    assert "--chunks" in err


DIRECT_ROWS = [SO3K2, C42, H32] + [json.dumps({"kind": "direct_sum", "field": f, "n": n, "k": k}) for f, n, k in
                                    [("C", 6, 4), ("R", 7, 5), ("R", 4, 1), ("C", 3, 1), ("H", 3, 1)]]


@pytest.mark.parametrize("action", DIRECT_ROWS + [SU2, SO3])
def test_ensemble_checks_the_reference_weight_on_direct_sums(capsys, action):
    extra = ["--statistic", "torus_angle"] if "conjugation" in action else []
    code, rep = run_cli(capsys, ["ensemble", "--action", action, "--seed", "3", "--n", "300", "--bins", "10", *extra])
    checks = {c["name"]: c for c in rep["checks"]}
    if "conjugation" in action:  # the torus references are grids and bin quadrature: no draws to check
        assert set(checks) == {"histogram_chi2"}
        return
    assert set(checks) == {"histogram_chi2", "reference_weight_ratio"}
    ratio = checks["reference_weight_ratio"]
    assert ratio["threshold"] == 1e-10 and ratio["pass"] and 0.0 <= ratio["value"] <= 1e-10


def _wrong_power(action, z):
    """sqrt(gram_det) of the section coordinate B: |det B|, or |t| on the polar line."""
    from sectint.matrices import gram_det

    k = action.k
    field = action.field if k > 1 else ScalarField.REAL
    return np.sqrt(gram_det(field, z.reshape(len(z), k, k, field.dim)))


@pytest.mark.parametrize("corruption", ["shifted", "wrong_power"])
@pytest.mark.parametrize("scale", ["1", "-2", "0.5"])
@pytest.mark.parametrize("action", DIRECT_ROWS)
def test_ensemble_fails_on_a_corrupted_section_weight(capsys, monkeypatch, action, scale, corruption):
    # a weight off the paper's by the factor 1 + |z_0|, or by one more power
    # of |det B|, leaves the exact draws off its density, and the reference
    # check fails the run
    import sys

    import sectint.weights

    original = sectint.weights.section_weight_batch
    factor = {"shifted": lambda a, z: 1.0 + np.abs(z[:, 0]), "wrong_power": _wrong_power}[corruption]
    for name, module in list(sys.modules.items()):
        if name.startswith("sectint") and getattr(module, "section_weight_batch", None) is original:
            monkeypatch.setattr(module, "section_weight_batch", lambda a, z: original(a, z) * factor(a, z))
    code, rep = run_cli(capsys, ["ensemble", "--action", action, "--seed", "3", "--n", "300", "--bins", "10",
                                 f"--scale={scale}"])
    ratio = {c["name"]: c for c in rep["checks"]}["reference_weight_ratio"]
    assert code == 1 and rep["pass"] is False
    assert not ratio["pass"] and ratio["value"] > 1e-3


def test_ensemble_with_more_bins_than_reference_draws(capsys):
    # 100000 bins over 60000 reference draws: the empty bins' edges repeat, and merging leaves the test
    argv = ["ensemble", "--action", SO3K2, "--n", "1000", "--bins", "100000"]
    code, rep = run_cli(capsys, argv)
    assert code == 0 and rep["pass"] is True and rep["results"]["dof"] >= 1


def test_ensemble_p_value_above_a_thousand_dof(capsys):
    # the chi-square tail's terms started at e^(-x/2), which is 0 here: p read 0.0 on 2999 dof
    from scipy import stats

    code, rep = run_cli(capsys, ["ensemble", "--action", SO3K2, "--bins", "3000", "--n", "30000"])
    res = rep["results"]
    assert res["dof"] == 2999 and code == 0
    assert res["p_value"] == pytest.approx(float(stats.chi2.sf(res["chi2"], res["dof"])), rel=1e-9, abs=0)


@pytest.mark.parametrize("seed", [None, "1", "2"])
def test_ensemble_weight_check_passes_at_the_readme_size(capsys, seed):
    # the README's R(3,2) run at n = 1e5 takes 3e6 reference draws; some have
    # nearly dependent columns, where gram_det in the weight takes the det by
    # QR, so the spread over every draw stays at rounding level as n_ref grows
    argv = ["ensemble", "--action", SO3K2, "--statistic", "coordinate_det", "--n", "100000", "--bins", "30"]
    code, rep = run_cli(capsys, argv + (["--seed", seed] if seed else []))
    ratio = {c["name"]: c for c in rep["checks"]}["reference_weight_ratio"]
    assert ratio["pass"] and ratio["value"] <= 1e-10
    assert code == 0


# --- volumes ------------------------------------------------------------------------

def test_volumes_calibration_verdict_uses_n_sigma(capsys):
    # the calibration's worst pairwise z is 0.08 here: below the default 3, above 0.01
    code, rep = run_cli(capsys, ["volumes", "--action", SO3, "--n", "2000", "--seed", "3", "--n-sigma", "0.01"])
    check = rep["checks"][0]
    assert check["name"] == "calibration_consistency" and check["threshold"] == 0.01
    assert check["value"] > 0.01 and check["pass"] is False
    assert code == 1

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


@pytest.mark.parametrize("action_json", [SO3K2, SU2])
def test_volumes_payload_keys(capsys, action_json):
    # each estimate exactly; the exact constants add their mark (test_volumes_marks_exact_constants)
    code, rep = run_cli(capsys, ["volumes", "--action", action_json, "--seed", "1", "--n", "1000"])
    results = rep["results"]
    assert set(results) == {"vol_gh", "vol_gn", "vol_w"}
    assert set(results["vol_gh"]) == set(results["vol_w"]) == ESTIMATE_KEYS | {"exact"}
    assert set(results["vol_gn"]) == ESTIMATE_KEYS


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


@pytest.mark.parametrize("command", ["integrate", "volumes"])
@pytest.mark.parametrize("action_json", [SU2, SO3, '{"kind":"conjugation","family":"Sp","n":2}'])
def test_conjugation_reports_worker_independent(capsys, command, action_json):
    # the Haar draws of each batch come from its own generator; 4 * BATCH_DRAWS
    # draws are 4 batches, so the helper runs some of them
    n = 4 * BATCH_DRAWS
    assert batch_count(n) == 4
    base = [command, "--action", action_json, "--seed", "5", "--n", str(n)]
    main(base + ["--workers", "1"])
    out1 = capsys.readouterr().out
    main(base + ["--workers", "2"])
    out2 = capsys.readouterr().out
    assert out1.startswith("{") and out1 == out2


@pytest.mark.parametrize("command, batches", [("integrate", 4), ("volumes", 8)])
@pytest.mark.parametrize("action_json", [SO3, '{"kind":"conjugation","family":"SU","n":3}',
                                         '{"kind":"conjugation","family":"Sp","n":1}'])
def test_conjugation_reports_byte_identical_on_1_2_and_3_workers(capsys, command, batches, action_json):
    # batches * BATCH_DRAWS draws are that many batches, so 2 and 3 workers
    # split them differently
    n = batches * BATCH_DRAWS
    assert batch_count(n) == batches
    base = [command, "--action", action_json, "--seed", "7", "--n", str(n)]
    outs = []
    for workers in ("1", "2", "3"):
        main(base + ["--workers", workers])
        outs.append(capsys.readouterr().out)
    assert outs[0].startswith("{") and outs[0] == outs[1] == outs[2]


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
