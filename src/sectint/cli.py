"""Command line interface.

Subcommands:

* ``delta``     -- the weight at a section point, with verify's pointwise checks
* ``integrate`` -- direct Monte Carlo vs reduced quadrature, with the
  exact vol(G/N)
* ``verify``    -- run the structural check suite for an action
* ``ensemble``  -- reduced-sample histogram vs the weighted density
* ``volumes``   -- quotient volume table; calibrates vol(G/N) against the
  exact vol(G/H) / vol(W)

Every run is fully determined by the action, the seed, the sample
budget and the chunk count; reports are JSON with sorted keys so a
given configuration produces byte-identical output.  The worker count
(--workers or SECTINT_WORKERS) affects wall time only.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .fields import ScalarField
from .matrices import DimensionError, MatK, to_real_vector
from .actions import (
    ActionSpec,
    ConjugationAction,
    action_from_json,
    action_to_json,
    embed_section,
    orbit_map_differentials,
)
from .checks import CheckResult, pointwise_checks, run_action_checks
from .ensembles import WEIGHT_RATIO_TOL, EnsembleSpec, compare_densities
from .integrate import (
    IllConditionedCalibration,
    calibrate_vol_gn,
    integrate_direct,
    integrate_reduced,
    make_test_function,
    mc_result_json,
)
from .mc import McEstimate, agree, default_workers
from .volumes import vol_gh_estimate, w_group_volume
from .weights import delta_e_generic  # noqa: F401  perfbench/test_perfbench.py traces this binding


def _finite(token: str) -> float:
    """A JSON number or NaN/Infinity token; only finite values are input."""
    value = float(token)
    if not np.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


def _load_json_arg(text: str):
    if text.startswith("@"):
        try:
            with open(text[1:]) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {text[1:]}: {exc.strerror}") from None
    return json.loads(text, parse_float=_finite, parse_constant=_finite)


def _parse_action(text: str) -> ActionSpec:
    try:
        obj = _load_json_arg(text)
        if not isinstance(obj, dict):
            raise ValueError("expected a JSON object")
        return action_from_json(obj)
    except KeyError as exc:
        raise ValueError(f"bad --action: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad --action: {exc}") from None


def _number(raw, where: str) -> float:
    """A JSON number, not a bool, as a float; where names its place in the point."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"point parse error at {where}: expected a number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError:  # a JSON integer beyond the float range
        raise ValueError(f"point parse error at {where}: number too large for a float") from None


def _parse_entry(field: ScalarField, raw, i: int, j: int):
    """Entry (i, j) of a direct-sum point: a number, or its d real components (C, H)."""
    where, d = f"row {i + 1}, column {j + 1}", field.dim
    if isinstance(raw, list) and d > 1:
        if len(raw) != d:
            raise ValueError(f"point parse error at {where}: expected {d} components, got {raw!r}")
        parts = [_number(v, where) for v in raw]
    else:
        parts = [_number(raw, where)] + [0.0] * (d - 1)
    if field is ScalarField.COMPLEX:
        return complex(*parts)
    return parts if field is ScalarField.QUATERNION else parts[0]


def _parse_point(action: ActionSpec, text: str) -> MatK:
    try:
        obj = _load_json_arg(text)
    except ValueError as exc:
        raise ValueError(f"bad --point: {exc}") from None
    if isinstance(action, ConjugationAction):
        angles = obj.get("angles") if isinstance(obj, dict) else obj
        if not isinstance(angles, list):
            raise ValueError('bad --point: expected an angle list or {"angles": [...]}')
        return embed_section(action, np.array([_number(a, f"angle {i + 1}") for i, a in enumerate(angles)]))
    k = action.k
    if not (isinstance(obj, list) and len(obj) == k and all(isinstance(r, list) and len(r) == k for r in obj)):
        raise ValueError(f"point must be a {k} x {k} array of entries")
    entries = [[_parse_entry(action.field, obj[i][j], i, j) for j in range(k)] for i in range(k)]
    return embed_section(action, np.asarray(entries))  # floats, complex numbers (C) or lists of 4 floats (H)


def _parse_functions(text: str):
    out = []
    for part in text.split(","):
        name, _, rest = part.strip().partition(":")
        params = {}
        if rest:
            for kv in rest.split(":"):
                key, _, val = kv.partition("=")
                try:
                    params[key.strip()] = _finite(val)
                except ValueError as exc:
                    raise ValueError(f"bad --functions parameter {kv.strip()!r} of {name}: {exc}") from None
        out.append(make_test_function(name, **params))
    return out


def _default_functions(action: ActionSpec):
    if isinstance(action, ConjugationAction):
        return [make_test_function("trace_power", power=2), make_test_function("const")]
    return [
        make_test_function("gaussian_radial", sigma=1.0),
        make_test_function("gaussian_sq_norm", sigma=1.0),
    ]


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


def _base_report(command: str, action: ActionSpec, args) -> dict:
    config = {name: getattr(args, name) for name in ("seed", "n", "chunks", "tol_rel", "tol_abs")}
    return {"command": command, "action": action_to_json(action), "config": config}


def cmd_delta(args) -> int:
    action = _parse_action(args.action)
    s = _parse_point(action, args.point)
    diff = orbit_map_differentials(action, to_real_vector(s)[None])
    checks, values = pointwise_checks(diff, tol_rel=args.tol_rel, tol_abs=args.tol_abs)
    report = _base_report("delta", action, args)
    report["results"] = {name: float(v[0]) for name, v in values.items()}
    report["results"]["regularity"] = diff.regularity()[0].value
    return _emit(report, checks, args.out)


def cmd_integrate(args) -> int:
    action = _parse_action(args.action)
    fs = _parse_functions(args.functions) if args.functions else _default_functions(action)
    vol_gn = vol_gh_estimate(action) / w_group_volume(action)
    reduced_all = integrate_reduced(action, fs, vol_gn)  # a refused integrand or rule fails before any sampling
    direct_all = integrate_direct(action, fs, args.seed + 1000, args.n, args.chunks, args.workers)
    checks, per_function = [], []
    for f, direct, reduced in zip(fs, direct_all, reduced_all):
        per_function.append(
            {
                "function": f.to_json(),
                "direct": mc_result_json(action, f, direct),
                "reduced": mc_result_json(action, f, reduced),
            }
        )
        threshold = args.n_sigma * float(np.hypot(direct.stderr, reduced.stderr))
        checks.append(CheckResult(f"two_sided_agreement_{f.name}", abs(direct.mean - reduced.mean), threshold,
                                  agree(direct, reduced, args.n_sigma)))
    report = _base_report("integrate", action, args)
    report["results"] = {"vol_gn": _exact_json(vol_gn), "per_function": per_function}
    return _emit(report, checks, args.out)


def cmd_verify(args) -> int:
    action = _parse_action(args.action)
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    results = run_action_checks(
        action,
        seed=args.seed,
        n_points=args.points,
        tol_rel=args.tol_rel,
        tol_abs=args.tol_abs,
        corrupt_metric=args.corrupt_metric,
    )
    return _emit(_base_report("verify", action, args), results, args.out)


def cmd_ensemble(args) -> int:
    action = _parse_action(args.action)
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    spec = EnsembleSpec(action, args.scale, args.statistic, args.stat_index)
    cmp_ = compare_densities(spec, args.seed, args.n, args.bins, chunks=args.chunks)
    if args.out_csv:
        _write_output(args.out_csv, cmp_.write_csv)
    report = _base_report("ensemble", action, args)
    report["results"] = cmp_.to_json()
    checks = [CheckResult("histogram_chi2", cmp_.p_value, args.p_threshold, cmp_.p_value >= args.p_threshold)]
    spread = cmp_.weight_ratio_spread
    if spread is not None:  # direct sums: the exact reference draws against the paper's weight
        checks.append(CheckResult("reference_weight_ratio", spread, WEIGHT_RATIO_TOL, spread <= WEIGHT_RATIO_TOL))
    return _emit(report, checks, args.out)


def cmd_volumes(args) -> int:
    action = _parse_action(args.action)
    fs = _parse_functions(args.functions) if args.functions else _default_functions(action)
    calib = calibrate_vol_gn(action, fs, args.seed, args.n, args.chunks, args.workers, args.n_sigma)
    vol_gh, vol_gn, vol_w = vol_gh_estimate(action), calib.combined, w_group_volume(action)
    # vol(G/H) = vol(G/N) vol(W), where only the calibrated vol(G/N) has an error
    gap, se = abs(vol_gh - vol_gn.mean * vol_w), vol_gn.stderr * vol_w
    report = _base_report("volumes", action, args)
    report["results"] = {"vol_gh": _exact_json(vol_gh), "vol_gn": vol_gn.to_json(), "vol_w": _exact_json(vol_w)}
    return _emit(report, [
        CheckResult("calibration_consistency", calib.worst_sigma, args.n_sigma, calib.consistent),
        CheckResult("volume_factorization", gap, args.n_sigma * se,
                    bool(gap <= args.n_sigma * se + 1e-9 * max(1.0, abs(vol_gh)))),
    ], args.out)


#: options of every subcommand, as (flag, add_argument keywords); dest comes from the flag
_COMMON = [
    ("--action", dict(required=True, help="action JSON or @file")),
    ("--seed", dict(type=int, default=0)),
    ("--n", dict(type=int, default=100_000,
                 help="samples per Monte Carlo estimate, direct side only (the reduced side is quadrature)")),
    ("--chunks", dict(type=int, default=16)),
    ("--workers", dict(type=int, default=None)),
    ("--tol-rel", dict(type=float, default=1e-8)),
    ("--tol-abs", dict(type=float, default=1e-10)),
    ("--n-sigma", dict(type=float, default=3.0)),
    ("--out", dict(default=None, help="also write the JSON report here")),
]

#: subcommand -> (handler, help line, its own options)
_SUBCOMMANDS = {
    "delta": (cmd_delta, "evaluate the weight at a section point",
              [("--point", dict(required=True, help="section coordinate JSON or @file"))]),
    "integrate": (cmd_integrate, "direct vs reduced integrals, exact vol(G/N)",
                  [("--functions", dict(default=None, help="e.g. gaussian_radial:sigma=1.0,gaussian_sq_norm"))]),
    "verify": (cmd_verify, "structural check suite", [
        ("--points", dict(type=int, default=20)),
        ("--corrupt-metric", dict(type=float, default=1.0,
                                  help="debug knob: scale the complement basis to break the metric")),
    ]),
    "ensemble": (cmd_ensemble, "reduced-density histogram comparison", [
        ("--statistic", dict(default=None, help="default: torus_angle on conjugation, coordinate_det on direct sums")),
        ("--stat-index", dict(type=int, default=0)),
        ("--scale", dict(type=float, default=1.0)),
        ("--bins", dict(type=int, default=30)),
        ("--p-threshold", dict(type=float, default=0.01)),
        ("--out-csv", dict(default=None)),
    ]),
    "volumes": (cmd_volumes, "quotient volume table", [("--functions", dict(default=None))]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one call, whose first argument is command.

    Building argparse parsers costs more than a short op's own work, so
    a known command gets only its own subparser, built once per process.
    Otherwise every subcommand gets an empty subparser: enough to list
    them in --help and to reject an unknown name.  That parser is cached
    under None, so unknown names add no entries.
    """
    return _parser(command if command in _SUBCOMMANDS else None)


@functools.lru_cache(maxsize=None)
def _parser(command: str | None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sectint",
        description="weighted section integration for isometric matrix group actions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, own) in _SUBCOMMANDS.items():
        if command in _SUBCOMMANDS and name != command:
            continue
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(func=func)
        for flag, kwargs in (_COMMON + own if name == command else ()):
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        default_workers()  # a bad SECTINT_WORKERS fails here, before any work
        if args.workers is not None and args.workers < 1:
            raise ValueError(f"--workers must be at least 1, got {args.workers}")
        for name in ("tol_rel", "tol_abs", "n_sigma", "p_threshold", "corrupt_metric"):
            value = getattr(args, name, 0.0)  # the last two belong to one subcommand each
            if not np.isfinite(value):
                raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")
        return args.func(args)
    except (DimensionError, ValueError, IllConditionedCalibration) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
