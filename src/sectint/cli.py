"""Command line interface.

Subcommands:

* ``delta``     -- evaluate the weight function at a section point
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
import json
import sys
from pathlib import Path

import numpy as np

from .fields import ScalarField
from .matrices import DimensionError, MatK
from .actions import (
    ActionSpec,
    ConjugationAction,
    DirectSumAction,
    action_from_json,
    action_to_json,
    classify_point,
    embed_section,
    section_coordinate,
)
from .checks import all_passed, run_action_checks
from .ensembles import EnsembleSpec, compare_densities
from .integrate import (
    IllConditionedCalibration,
    calibrate_vol_gn,
    integrate_direct,
    integrate_reduced,
    make_test_function,
    mc_result_json,
)
from .mc import McEstimate, agree, default_workers
from .volumes import vol_gh_estimate, volume_table, w_group_volume
from .weights import delta_e_closed_form, delta_e_generic, orbit_map_differential


def _load_json_arg(text: str):
    if text.startswith("@"):
        try:
            with open(text[1:]) as fh:
                return json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read {text[1:]}: {exc.strerror}") from None
    return json.loads(text)


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


def _parse_entry(field: ScalarField, raw, i: int, j: int):
    def fail(msg):
        raise ValueError(f"point parse error at row {i + 1}, column {j + 1}: {msg}")

    if field is ScalarField.REAL:
        if not isinstance(raw, (int, float)):
            fail(f"expected a real number, got {raw!r}")
        return float(raw)
    if field is ScalarField.COMPLEX:
        if isinstance(raw, (int, float)):
            return complex(raw)
        if isinstance(raw, list) and len(raw) == 2:
            return complex(raw[0], raw[1])
        fail(f"expected a number or [re, im], got {raw!r}")
    if isinstance(raw, (int, float)):
        return [float(raw), 0.0, 0.0, 0.0]
    if isinstance(raw, list) and len(raw) == 4:
        return [float(v) for v in raw]
    fail(f"expected a number or [w, x, y, z], got {raw!r}")


def _parse_point(action: ActionSpec, text: str) -> MatK:
    try:
        obj = _load_json_arg(text)
    except ValueError as exc:
        raise ValueError(f"bad --point: {exc}") from None
    if isinstance(action, ConjugationAction):
        if isinstance(obj, dict) and "angles" not in obj:
            raise ValueError('bad --point: expected an angle list or {"angles": [...]}')
        angles = obj["angles"] if isinstance(obj, dict) else obj
        return embed_section(action, np.asarray(angles, dtype=float))
    k = action.k
    if not (isinstance(obj, list) and len(obj) == k and all(isinstance(r, list) and len(r) == k for r in obj)):
        raise ValueError(f"point must be a {k} x {k} array of entries")
    entries = [[_parse_entry(action.field, obj[i][j], i, j) for j in range(k)] for i in range(k)]
    if action.field is ScalarField.QUATERNION:
        return embed_section(action, np.asarray(entries, dtype=float))
    return embed_section(action, np.asarray(entries))


def _parse_functions(text: str):
    out = []
    for part in text.split(","):
        name, _, rest = part.strip().partition(":")
        params = {}
        if rest:
            for kv in rest.split(":"):
                key, _, val = kv.partition("=")
                params[key.strip()] = float(val)
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


def _emit(report: dict, out_path: str | None) -> int:
    payload = json.dumps(report, sort_keys=True, indent=2)
    if out_path:
        _write_output(out_path, lambda path: Path(path).write_text(payload + "\n"))
    print(payload)
    return 0 if report["pass"] else 1


def _exact_json(est: McEstimate) -> dict:
    """An exact constant, marked so that its zero stderr is not read as a one-sample estimate."""
    return {**est.to_json(), "exact": True}


def _base_report(command: str, action: ActionSpec, args) -> dict:
    return {
        "command": command,
        "action": action_to_json(action),
        "config": {
            "seed": args.seed,
            "n": args.n,
            "chunks": args.chunks,
            "tol_rel": args.tol_rel,
            "tol_abs": args.tol_abs,
        },
    }


def cmd_delta(args) -> int:
    action = _parse_action(args.action)
    s = _parse_point(action, args.point)
    generic = delta_e_generic(action, s)
    diff = orbit_map_differential(action, s)
    scale = max(float(np.abs(diff.matrix).max()), 1e-300)
    block_res = diff.off_block_residual() / scale
    dd = diff.delta_d()
    total = diff.total_det()
    results = {
        "delta_generic": generic,
        "delta_d": dd,
        "regularity": classify_point(action, s).value,
        "block_residual": block_res,
        "det_total": total,
    }
    checks = [
        {
            "name": "block_diagonality",
            "value": block_res,
            "threshold": args.tol_abs,
            "pass": block_res <= args.tol_abs,
        },
        {
            "name": "differential_factorization",
            "value": abs(total - dd * generic) / max(1.0, total),
            "threshold": args.tol_rel,
            "pass": abs(total - dd * generic) / max(1.0, total) <= args.tol_rel,
        },
    ]
    if isinstance(action, DirectSumAction) and action.k >= 2:
        closed = delta_e_closed_form(action.field, action.n, action.k, section_coordinate(action, s))
        gap = abs(generic - closed) / (1.0 + closed)
        results["delta_closed_form"] = closed
        checks.append(
            {
                "name": "weight_closed_vs_generic",
                "value": gap,
                "threshold": args.tol_rel,
                "pass": gap <= args.tol_rel,
            }
        )
    report = _base_report("delta", action, args)
    report["results"] = results
    report["checks"] = checks
    report["pass"] = all(c["pass"] for c in checks)
    return _emit(report, args.out)


def cmd_integrate(args) -> int:
    action = _parse_action(args.action)
    fs = _parse_functions(args.functions) if args.functions else _default_functions(action)
    vol_gn = McEstimate.exact(vol_gh_estimate(action).mean / w_group_volume(action).mean)
    checks, per_function = [], []
    for i, f in enumerate(fs):
        reduced = integrate_reduced(action, f, vol_gn)  # first: an oversized rule fails before any sampling
        direct = integrate_direct(action, f, args.seed + 1000 + i, args.n, args.chunks, args.workers)
        per_function.append(
            {
                "function": f.to_json(),
                "direct": mc_result_json(action, f, direct),
                "reduced": mc_result_json(action, f, reduced),
            }
        )
        checks.append(
            {
                "name": f"two_sided_agreement_{f.name}",
                "value": abs(direct.mean - reduced.mean),
                "threshold": args.n_sigma * float(np.hypot(direct.stderr, reduced.stderr)),
                "pass": agree(direct, reduced, args.n_sigma),
            }
        )
    report = _base_report("integrate", action, args)
    report["results"] = {"vol_gn": _exact_json(vol_gn), "per_function": per_function}
    report["checks"] = checks
    report["pass"] = all(c["pass"] for c in checks)
    return _emit(report, args.out)


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
    report = _base_report("verify", action, args)
    report["checks"] = [r.to_json() for r in results]
    report["pass"] = all_passed(results)
    return _emit(report, args.out)


def cmd_ensemble(args) -> int:
    action = _parse_action(args.action)
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    spec = EnsembleSpec(action, args.scale, args.statistic, args.stat_index)
    cmp_ = compare_densities(spec, args.seed, args.n, args.bins)
    if args.out_csv:
        _write_output(args.out_csv, cmp_.write_csv)
    report = _base_report("ensemble", action, args)
    report["results"] = cmp_.to_json()
    report["checks"] = [
        {
            "name": "histogram_chi2",
            "value": cmp_.p_value,
            "threshold": args.p_threshold,
            "pass": cmp_.p_value >= args.p_threshold,
        }
    ]
    report["pass"] = cmp_.p_value >= args.p_threshold
    return _emit(report, args.out)


def cmd_volumes(args) -> int:
    action = _parse_action(args.action)
    fs = _parse_functions(args.functions) if args.functions else _default_functions(action)
    calib = calibrate_vol_gn(action, fs, args.seed, args.n, args.chunks, args.workers)
    table = volume_table(action, calib.combined)
    gap, se = table.factorization_gap()
    report = _base_report("volumes", action, args)
    report["results"] = {
        "vol_gh": _exact_json(table.vol_gh),
        "vol_gn": table.vol_gn.to_json(),
        "vol_w": _exact_json(table.vol_w),
    }
    report["checks"] = [
        {
            "name": "calibration_consistency",
            "value": calib.worst_sigma,
            "threshold": args.n_sigma,
            "pass": calib.consistent,
        },
        {
            "name": "volume_factorization",
            "value": gap,
            "threshold": args.n_sigma * se,
            "pass": table.consistent(args.n_sigma),
        },
    ]
    report["pass"] = all(c["pass"] for c in report["checks"])
    return _emit(report, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sectint",
        description="weighted section integration for isometric matrix group actions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--action", required=True, help="action JSON or @file")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--n", type=int, default=100_000,
                        help="samples per Monte Carlo estimate, direct side only (the reduced side is quadrature)")
    common.add_argument("--chunks", type=int, default=16)
    common.add_argument("--workers", type=int, default=None)
    common.add_argument("--tol-rel", dest="tol_rel", type=float, default=1e-8)
    common.add_argument("--tol-abs", dest="tol_abs", type=float, default=1e-10)
    common.add_argument("--n-sigma", dest="n_sigma", type=float, default=3.0)
    common.add_argument("--out", default=None, help="also write the JSON report here")

    p = sub.add_parser("delta", parents=[common], help="evaluate the weight at a section point")
    p.add_argument("--point", required=True, help="section coordinate JSON or @file")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("integrate", parents=[common], help="direct vs reduced integrals, exact vol(G/N)")
    p.add_argument("--functions", default=None, help="e.g. gaussian_radial:sigma=1.0,gaussian_sq_norm")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("verify", parents=[common], help="structural check suite")
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--corrupt-metric", dest="corrupt_metric", type=float, default=1.0,
                   help="debug knob: scale the complement basis to break the metric")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ensemble", parents=[common], help="reduced-density histogram comparison")
    p.add_argument("--statistic", default="coordinate_det")
    p.add_argument("--stat-index", dest="stat_index", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--bins", type=int, default=30)
    p.add_argument("--p-threshold", dest="p_threshold", type=float, default=0.01)
    p.add_argument("--out-csv", dest="out_csv", default=None)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("volumes", parents=[common], help="quotient volume table")
    p.add_argument("--functions", default=None)
    p.set_defaults(func=cmd_volumes)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        default_workers()  # a bad SECTINT_WORKERS fails here, before any work
        if args.workers is not None and args.workers < 1:
            raise ValueError(f"--workers must be at least 1, got {args.workers}")
        return args.func(args)
    except (DimensionError, ValueError, IllConditionedCalibration) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
