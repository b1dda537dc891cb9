"""Checks on the JSON payloads the CLI prints.

A *failure* means the program did not give a usable answer: it raised,
exited 2, printed a non-finite number or a non-positive volume,
classified a singular ``delta`` point as regular, or broke a
payload-identity promise.  A *verdict miss* means an answer that
is statistically off: the report says ``"pass": false``, or an estimate
misses one of the benchmark's exact reference values by more than
``N_SIGMA`` standard errors.  At 3 sigma a correct program misses about
one check in 370, so verdict misses are counted, never fatal.
"""

from __future__ import annotations

import json
import math

from workloads import FIELD_DIM, N_SIGMA, Op


def _sphere_area(dim: int) -> float:
    """Area of the unit sphere S^dim."""
    return 2.0 * math.pi ** ((dim + 1) / 2) / math.gamma((dim + 1) / 2)


def exact_group_volume(family: str, n: int) -> float | None:
    """Volume for the Re tr(x* y) metric from the sphere fibrations.

    vol(SO(n)) = sqrt(2)^(n-1) area(S^(n-1)) vol(SO(n-1)) from SO(2) = 2 pi sqrt(2);
    vol(SU(n)) = 2^(n-1) sqrt(n/(n-1)) area(S^(2n-1)) vol(SU(n-1)) from SU(1) = 1;
    vol(Sp(1)) = area(S^3).  Other Sp(n) have no verified value.
    """
    if family == "SO":
        vol = 2.0 * math.pi * math.sqrt(2.0) if n >= 2 else 1.0
        for m in range(3, n + 1):
            vol *= math.sqrt(2.0) ** (m - 1) * _sphere_area(m - 1)
        return vol
    if family == "SU":
        vol = 1.0
        for m in range(2, n + 1):
            vol *= 2.0 ** (m - 1) * math.sqrt(m / (m - 1)) * _sphere_area(2 * m - 1)
        return vol
    if family == "Sp" and n == 1:
        return _sphere_area(3)
    return None


def torus_volume(family: str, n: int) -> float:
    if family == "SO":
        return (2.0 * math.pi * math.sqrt(2.0)) ** (n // 2)
    if family == "SU":
        return (2.0 * math.pi) ** (n - 1) * math.sqrt(n)
    return (2.0 * math.pi) ** n


def exact_vol_gh(action: dict) -> float | None:
    """vol(G/H): H is the maximal torus for conjugation, else G(n - k)."""
    if action["kind"] == "conjugation":
        vg = exact_group_volume(action["family"], action["n"])
        return None if vg is None else vg / torus_volume(action["family"], action["n"])
    family = {"R": "SO", "C": "SU", "H": "Sp"}[action["field"]]
    vg = exact_group_volume(family, action["n"])
    vh = exact_group_volume(family, action["n"] - action["k"])
    return None if vg is None or vh is None else vg / vh


def exact_flat_integral(action: dict, function: dict) -> float | None:
    """Closed forms of the direct side on the flat space R^D."""
    if action["kind"] != "direct_sum":
        return None
    dim = FIELD_DIM[action["field"]] * action["n"] * action["k"]
    sigma = float(function["params"].get("sigma", 1.0))
    gauss = (2.0 * math.pi * sigma * sigma) ** (dim / 2)
    if function["name"] == "gaussian_radial":
        return gauss
    if function["name"] == "gaussian_sq_norm":
        return dim * sigma * sigma * gauss
    return None


def _misses(estimate: dict, exact: float) -> bool:
    tol = N_SIGMA * estimate["stderr"] + 1e-9 * abs(exact)
    return abs(estimate["mean"] - exact) > tol


def _non_finite(obj, path="") -> str | None:
    if isinstance(obj, float) and not math.isfinite(obj):
        return path or "value"
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return None
    for key, val in items:
        bad = _non_finite(val, f"{path}.{key}" if path else str(key))
        if bad:
            return bad
    return None


def check_payload(op: Op, code, payload: str) -> tuple[list[str], list[str]]:
    """(failure reasons, verdict-miss reasons) for one op's output."""
    if not isinstance(code, int):
        return [f"raised {code}"], []
    if code not in (0, 1):
        return [f"exit status {code}"], []
    try:
        report = json.loads(payload)
    except json.JSONDecodeError as exc:
        return [f"unparsable payload: {exc}"], []
    failures, misses = [], []
    bad = _non_finite(report)
    if bad:
        failures.append(f"non-finite number at {bad}")
    results = report.get("results", {})
    if op.command == "volumes":
        for key in ("vol_gh", "vol_gn", "vol_w"):
            if not results[key]["mean"] > 0:
                failures.append(f"non-positive {key} = {results[key]['mean']}")
        exact = exact_vol_gh(op.action)
        if exact is not None and results["vol_gh"]["mean"] > 0 and _misses(results["vol_gh"], exact):
            misses.append(f"vol_gh {results['vol_gh']['mean']:.6g} vs exact {exact:.6g}")
    if op.command == "integrate":
        if not results["vol_gn"]["mean"] > 0:
            failures.append(f"non-positive vol_gn = {results['vol_gn']['mean']}")
        for entry in results["per_function"]:
            fn, direct = entry["function"], entry["direct"]
            exact = exact_flat_integral(op.action, fn)
            if op.action["kind"] == "conjugation" and fn["name"] == "const":
                exact = exact_group_volume(op.action["family"], op.action["n"])
            if exact is not None and _misses(direct, exact):
                misses.append(f"direct {fn['name']} {direct['mean']:.6g} vs exact {exact:.6g}")
    if op.command == "delta":
        got, want = results.get("regularity"), op.expect.get("regularity")
        if want == "singular" and got != want:
            failures.append(f"singular point classified {got}")
        elif got != want:
            misses.append(f"point classified {got}, expected {want}")
    if report.get("pass") is not True:
        failed_checks = [c["name"] for c in report.get("checks", []) if not c.get("pass")]
        misses.append("report pass=false: " + ",".join(failed_checks))
    return failures, misses
