"""Command line interface.

Subcommands:

* ``delta``     -- the weight at a section point, with verify's pointwise checks
* ``integrate`` -- direct Monte Carlo vs reduced quadrature, with the
  exact vol(G/N)
* ``verify``    -- run the structural check suite for an action
* ``ensemble``  -- reduced-sample histogram vs the weighted density
* ``volumes``   -- quotient volume table; calibrates vol(G/N) against the
  exact vol(G/H) / vol(W)

Each subcommand takes only the options it reads (``_SUBCOMMANDS``) and
is parsed once, by its own parser; its report echoes the action and,
under ``config``, every one of those options but ``--workers`` and the
output paths: those inputs fully determine the payload, and no result
repeats them (an estimate is its mean, stderr and n_samples).  Reports
are JSON with sorted keys, so a given configuration produces byte-identical
output; the worker count (--workers or SECTINT_WORKERS) affects wall time only.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .matrices import to_real_vector
from .actions import ActionSpec, action_from_json, orbit_map_differentials
from .checks import CheckResult, pointwise_checks, run_action_checks
from .ensembles import WEIGHT_RATIO_TOL, EnsembleSpec, compare_densities
from .fields import brief
from .integrate import calibrate_vol_gn, integrate_direct, integrate_reduced, make_test_function
from .mc import McEstimate, agree, default_workers
from .volumes import vol_gh_estimate, w_group_volume
from .weights import delta_e_generic  # noqa: F401  perfbench/test_perfbench.py traces this binding


def _finite(token: str) -> float:
    """A JSON number or NaN/Infinity token; only finite values are input."""
    try:
        value = float(token)
    except ValueError:  # float's own message repeats the whole token
        raise ValueError(f"expected a number, got {brief(token)}") from None
    if not np.isfinite(value):
        raise ValueError(f"non-finite number {brief(token)}")
    return value


def _load_json_arg(flag: str, text: str):
    """The JSON value of an option that takes inline JSON or @file."""
    try:
        if text.startswith("@"):
            try:
                with open(text[1:]) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ValueError(f"cannot read {text[1:]}: {exc.strerror}") from None
        return json.loads(text, parse_float=_finite, parse_constant=_finite)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting deeper than the stack
        raise ValueError(f"bad {flag}: {exc}") from None


def _parse_action(text: str) -> ActionSpec:
    obj = _load_json_arg("--action", text)
    try:
        if not isinstance(obj, dict):
            raise ValueError("expected a JSON object")
        return action_from_json(obj)
    except KeyError as exc:
        raise ValueError(f"bad --action: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad --action: {exc}") from None


def _parse_functions(text: str):
    out = []
    for part in text.split(","):
        name, _, rest = part.strip().partition(":")
        params = {}
        if rest:
            for kv in rest.split(":"):
                key, _, val = (s.strip() for s in kv.partition("="))
                if key in params:
                    raise ValueError(f"bad --functions: parameter {brief(key)} of {brief(name)} given twice")
                try:
                    params[key] = _finite(val)
                except ValueError as exc:
                    raise ValueError(f"bad --functions parameter {brief(key)} of {brief(name)}: {exc}") from None
        out.append(make_test_function(name, **params))
    return out


def _default_functions(action: ActionSpec):
    return [make_test_function(name, **params) for name, params in action.default_integrands]


def _write_output(path: str, write) -> None:
    """write(path); a path that cannot be written is bad input."""
    try:
        write(path)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def _emit(report: dict, checks: list[CheckResult], out_path: str | None) -> int:
    """Print the report with its checks and verdict, and write it to out_path."""
    report["checks"] = [c.to_json() for c in checks]
    report["pass"] = all(c.passed for c in checks)
    payload = json.dumps(report, sort_keys=True, indent=2)
    if out_path:
        _write_output(out_path, lambda path: Path(path).write_text(payload + "\n"))
    print(payload)
    return 0 if report["pass"] else 1


def _exact_json(value: float) -> dict:
    """An exact constant in the estimate shape, marked so that its zero stderr is not read as one sample's."""
    return {**McEstimate.exact(value).to_json(), "exact": True}


def _base_report(action: ActionSpec, args, **parsed) -> dict:
    """The report's head: the command, the action and config, the options
    that the command reads as given (parsed holds the parsed JSON ones)."""
    reads = [flag for flag in _SUBCOMMANDS[args.command][2].split() if flag not in _UNECHOED]
    config = {dest: getattr(args, dest) for dest in (flag[2:].replace("-", "_") for flag in reads)}
    return {"command": args.command, "action": action.to_json(), "config": {**config, **parsed}}


def cmd_delta(args) -> int:
    action = _parse_action(args.action)
    point = _load_json_arg("--point", args.point)
    diff = orbit_map_differentials(action, to_real_vector(action.parse_point(point))[None])
    checks, values = pointwise_checks(diff, tol_rel=args.tol_rel, tol_abs=args.tol_abs)
    report = _base_report(action, args, point=point)
    report["results"] = {name: float(v[0]) for name, v in values.items()}
    report["results"]["regularity"] = diff.regularity()[0].value
    return _emit(report, checks, args.out)


def cmd_integrate(args) -> int:
    action = _parse_action(args.action)
    fs = _default_functions(action) if args.functions is None else _parse_functions(args.functions)
    vol_gn = vol_gh_estimate(action) / w_group_volume(action)
    reduced_all = integrate_reduced(action, fs, vol_gn)  # a refused integrand or rule fails before any sampling
    direct_all = integrate_direct(action, fs, args.seed + 1000, args.n, args.workers)
    names = [f.name for f in fs]  # a family given twice gets its position in each check's name
    checks, per_function = [], []
    for i, (f, direct, reduced) in enumerate(zip(fs, direct_all, reduced_all), 1):
        per_function.append({"function": f.to_json(), "direct": direct.to_json(), "reduced": reduced.to_json()})
        threshold = args.n_sigma * float(np.hypot(direct.stderr, reduced.stderr))
        name = f"two_sided_agreement_{f.name}" + (f"_{i}" if names.count(f.name) > 1 else "")
        checks.append(CheckResult(name, abs(direct.mean - reduced.mean), threshold,
                                  agree(direct, reduced, args.n_sigma)))
    report = _base_report(action, args)
    report["results"] = {"vol_gn": _exact_json(vol_gn), "per_function": per_function}
    return _emit(report, checks, args.out)


def cmd_verify(args) -> int:
    action = _parse_action(args.action)
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    results = run_action_checks(action, args.seed, args.points, args.tol_rel, args.tol_abs)
    return _emit(_base_report(action, args), results, args.out)


def cmd_ensemble(args) -> int:
    action = _parse_action(args.action)
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    spec = EnsembleSpec(action, args.scale, args.statistic, args.stat_index)
    cmp_ = compare_densities(spec, args.seed, args.n, args.bins)
    if args.out_csv:
        _write_output(args.out_csv, cmp_.write_csv)
    report = _base_report(action, args)
    report["results"] = cmp_.to_json()
    checks = [CheckResult("histogram_chi2", cmp_.p_value, args.p_threshold, cmp_.p_value >= args.p_threshold)]
    spread = cmp_.weight_ratio_spread
    if spread is not None:  # direct sums: the exact reference draws against the paper's weight
        checks.append(CheckResult("reference_weight_ratio", spread, WEIGHT_RATIO_TOL, spread <= WEIGHT_RATIO_TOL))
    return _emit(report, checks, args.out)


def cmd_volumes(args) -> int:
    action = _parse_action(args.action)
    fs = _default_functions(action) if args.functions is None else _parse_functions(args.functions)
    calib = calibrate_vol_gn(action, fs, args.seed, args.n, args.workers, args.n_sigma)
    vol_gh, vol_gn, vol_w = vol_gh_estimate(action), calib.combined, w_group_volume(action)
    # vol(G/H) = vol(G/N) vol(W), where only the calibrated vol(G/N) has an error
    gap, se = abs(vol_gh - vol_gn.mean * vol_w), vol_gn.stderr * vol_w
    report = _base_report(action, args)
    report["results"] = {"vol_gh": _exact_json(vol_gh), "vol_gn": vol_gn.to_json(), "vol_w": _exact_json(vol_w)}
    return _emit(report, [
        CheckResult("calibration_consistency", calib.worst_sigma, args.n_sigma, calib.consistent),
        CheckResult("volume_factorization", gap, args.n_sigma * se,
                    bool(gap <= args.n_sigma * se + 1e-9 * max(1.0, abs(vol_gh)))),
    ], args.out)


#: every option, as flag -> add_argument keywords; dest comes from the flag
_OPTIONS = {
    "--action": dict(required=True, help="action JSON or @file"),
    "--point": dict(required=True, help="section coordinate JSON or @file"),
    "--functions": dict(default=None, help="e.g. gaussian_radial:sigma=1.0,gaussian_sq_norm"),
    "--seed": dict(type=int, default=0),
    "--n": dict(type=int, default=100_000,
                help="samples per Monte Carlo estimate, direct side only (the reduced side is quadrature)"),
    "--workers": dict(type=int, default=None, help="threads; changes wall time, never the payload"),
    "--points": dict(type=int, default=20),
    "--tol-rel": dict(type=float, default=1e-8),
    "--tol-abs": dict(type=float, default=1e-10),
    "--statistic": dict(default=None, help="default: torus_angle on conjugation, coordinate_det on direct sums"),
    "--stat-index": dict(type=int, default=0),
    "--scale": dict(type=float, default=1.0),
    "--bins": dict(type=int, default=30),
    "--p-threshold": dict(type=float, default=0.01),
    "--n-sigma": dict(type=float, default=3.0),
    "--out-csv": dict(default=None),
    "--out": dict(default=None, help="also write the JSON report here"),
}

#: options that a command reads but config leaves out: they never shape the payload
_UNECHOED = ("--workers", "--out-csv")

#: subcommand -> (handler, help line, the options it reads besides --action
#: and --out, the options it accepts unread: every benchmark op passes
#: --seed and --n-sigma, whatever its command)
_SUBCOMMANDS = {
    "delta": (cmd_delta, "evaluate the weight at a section point", "--point --tol-rel --tol-abs", "--seed --n-sigma"),
    "integrate": (cmd_integrate, "direct vs reduced integrals, exact vol(G/N)",
                  "--functions --seed --n --workers --n-sigma", ""),
    "verify": (cmd_verify, "structural check suite", "--seed --points --tol-rel --tol-abs", "--n-sigma"),
    "ensemble": (cmd_ensemble, "reduced-density histogram comparison",
                 "--seed --n --statistic --stat-index --scale --bins --p-threshold --out-csv", "--n-sigma"),
    "volumes": (cmd_volumes, "quotient volume table", "--functions --seed --n --workers --n-sigma", ""),
}


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose usage errors are bad input like any other: main prints one line and exits 2."""

    def error(self, message):
        raise ValueError(message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of a call whose first argument is command.

    Building argparse parsers costs more than a short op's own work, so a
    known command is parsed once, by its own parser built once per process,
    on the arguments after its name.  Any other name gets the top-level
    parser, cached under None, whose subcommands are empty: enough to list
    them in --help and to reject an unknown name.
    """
    return _parser(command if command in _SUBCOMMANDS else None)


@functools.lru_cache(maxsize=None)
def _parser(command: str | None) -> argparse.ArgumentParser:
    if command is None:
        parser = _Parser(prog="sectint", description="weighted section integration for isometric matrix group actions",
                         allow_abbrev=False)
        sub = parser.add_subparsers(dest="command", required=True)
        for name, (_, help_line, _, _) in _SUBCOMMANDS.items():
            sub.add_parser(name, help=help_line, allow_abbrev=False)
        return parser
    func, _, reads, unread = _SUBCOMMANDS[command]
    parser = _Parser(prog=f"sectint {command}", allow_abbrev=False)  # verify takes no --point for --points
    parser.set_defaults(func=func, command=command)
    for flag in ["--action", *reads.split(), "--out"]:
        parser.add_argument(flag, **_OPTIONS[flag])
    for flag in unread.split():
        parser.add_argument(flag, **{**_OPTIONS[flag], "help": f"accepted, not read by {command}"})
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
        args = build_parser(command).parse_args(argv[1:] if command else argv)
        default_workers()  # a bad SECTINT_WORKERS fails here, before any work
        workers = getattr(args, "workers", None)  # options a subcommand does not take are absent
        if workers is not None and workers < 1:
            raise ValueError(f"--workers must be at least 1, got {workers}")
        seed = getattr(args, "seed", 0)  # numpy's SeedSequence takes no negative seed
        if seed < 0:
            raise ValueError(f"--seed must be a nonnegative integer, got {seed}")
        for name in ("tol_rel", "tol_abs", "n_sigma", "p_threshold"):
            value, flag = getattr(args, name, None), f"--{name.replace('_', '-')}"
            if value is None:
                continue
            if not np.isfinite(value):
                raise ValueError(f"{flag} must be finite, got {value}")
            # a negative tolerance or n-sigma would fail every check, and a p-threshold below 0 pass every one
            bound, ok = {"n_sigma": ("positive", value > 0),
                         "p_threshold": ("in [0, 1]", 0 <= value <= 1)}.get(name, ("nonnegative", value >= 0))
            if not ok:
                raise ValueError(f"{flag} must be {bound}, got {value}")
        # a scale that overflows (or divides by an underflowed 0) stops the run
        # here instead of printing NaN; mc_run's helper threads take this state too
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader of stdout is gone (`sectint … | head`): point stdout at
        # devnull so that the flush at exit stays quiet, as the SIGPIPE recipe
        # of the Python docs does, and exit as a process killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (FloatingPointError, OverflowError) as exc:  # numpy's floating-point state, or a Python float's
        print(f"error: {exc}: a scale or point is out of the floating-point range", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's says in one line what it could not allocate
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
