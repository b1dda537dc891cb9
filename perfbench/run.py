"""Benchmark of the sectint CLI.

    python3 perfbench/run.py --workload flat-mc --seed 1 --seconds 25 --trace 0

Runs the workload's op list in-process through ``sectint.cli.main``,
pass after pass, for at least ``--seconds`` seconds (whole passes, at
least one), checks every payload, prints a report, and prints as its
last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Every pass repeats the same ops.  Timings are in
reference-speed seconds (see ``speed.py``): each op's wall time is
scaled by how fast the shared host ran a fixed kernel around it, and a
slot's latency is the median over the passes.  The report also prints
the same metrics in wall-clock seconds.  With ``--trace 0`` the metrics
are the end-to-end metrics named in ``BENCHMARK.json``; with
``--trace 1`` one pass is replayed with span wrappers installed and the
metrics are the per-layer ones, in wall-clock seconds.  A full result
file, with the machine record, goes to ``perfbench/out/``.

The process keeps OpenBLAS to one thread, so the only compute
parallelism is the CLI's ``--workers``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import outputs
import workloads
from speed import NEIGHBOURS, REF_S, SpeedProbe
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
TARGET_REL_STDERR = 0.01


# --- running ops ---------------------------------------------------------------

def run_cli(main, argv) -> tuple[object, str]:
    """(exit status or exception text, captured stdout) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse and bad-input exits
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an op that raises is a counted failure, not a crash
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def worst_rel_stderr(report: dict) -> float | None:
    res = report.get("results", {})
    ests = [res["vol_gn"], *res.get("ratios", [])]
    for entry in res.get("per_function", []):
        ests += [entry["direct"], entry["reduced"]]
    rels = [e["stderr"] / abs(e["mean"]) for e in ests if e["mean"] != 0]
    return max(rels) if rels else None


def execute(main, op, pass_index, position, call=None) -> dict:
    t0 = time.perf_counter()
    code, payload = (call or run_cli)(main, op.argv)
    wall = time.perf_counter() - t0
    failures, misses = outputs.check_payload(op, code, payload)
    rec = {
        "id": f"p{pass_index}.{position}",
        "pass": pass_index,
        "slot": op.slot,
        "label": op.label,
        "argv": list(op.argv),
        "wall_s": wall,
        "t0": t0,
        "exit": code,
        "sha256": hashlib.sha256(payload.encode()).hexdigest(),
        "failures": failures,
        "misses": misses,
        "pair": op.pair,
        "workers": op.argv[op.argv.index("--workers") + 1] if "--workers" in op.argv else None,
    }
    if op.command == "integrate" and not failures:
        rec["worst_rel_stderr"] = worst_rel_stderr(json.loads(payload))
    return rec


def check_identity(records: list[dict]) -> None:
    """Repeats of a slot, and the ops of a pass sharing a pair key, must
    print identical payloads."""
    first_of_slot: dict[int, dict] = {}
    first_of_pair: dict[tuple, dict] = {}
    for rec in records:
        first = first_of_slot.setdefault(rec["slot"], rec)
        if rec["sha256"] != first["sha256"]:
            rec["failures"].append(f"payload differs from {first['id']} (same argv, another pass)")
        if rec["pair"] is None:
            continue
        first = first_of_pair.setdefault((rec["pass"], rec["pair"]), rec)
        if rec["sha256"] != first["sha256"]:
            rec["failures"].append(f"payload differs from {first['id']} (workers changed the bytes)")


# --- set-up --------------------------------------------------------------------

def clear_caches(sectint_modules) -> None:
    for module in sectint_modules:
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def cold_setup(workload: str, probe: SpeedProbe) -> list[dict]:
    """Time the lazy set-up an op list needs, from empty caches, several times."""
    from sectint.actions import action_from_json, algebra_split
    from sectint.volumes import cached_group_volume

    modules = [m for k, m in sys.modules.items() if k == "sectint" or k.startswith("sectint.")]
    split_actions, volume_actions = workloads.setup_actions(workload)
    repeats = []
    for _ in range(SETUP_REPEATS):
        clear_caches(modules)
        t0 = time.perf_counter()
        for spec in split_actions:
            algebra_split(action_from_json(spec))
        t1 = time.perf_counter()
        for spec in volume_actions:
            cached_group_volume(action_from_json(spec).group)
        t2 = time.perf_counter()
        for _ in range(NEIGHBOURS):
            probe.sample()
        repeats.append({"algebra_split_s": t1 - t0, "cached_group_volume_s": t2 - t1, "total_s": t2 - t0,
                        "scaled_s": probe.scaled(t0, t2 - t0)})
    return repeats


# --- metrics -------------------------------------------------------------------

def tail(values: list[float]) -> float:
    """Highest percentile with at least ten values beyond it.

    Below 21 values that percentile would lie at or below the median, so
    the maximum is reported instead.
    """
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 21 else ordered[-1]


def slot_latencies(records, key="scaled_s") -> dict[int, float]:
    """Latency of each slot: the median over its runs in all passes."""
    runs: dict[int, list[float]] = {}
    for rec in records:
        runs.setdefault(rec["slot"], []).append(rec[key])
    return {slot: statistics.median(v) for slot, v in runs.items()}


def end_to_end(records, setup_s, key="scaled_s") -> dict:
    """Timings are reference-speed seconds (``key="scaled_s"``) or wall
    seconds (``key="wall_s"``)."""
    lat = slot_latencies(records, key)
    slot_lat = list(lat.values())
    pairs: dict[str, dict] = {}
    t1pct = {}
    for rec in records:
        if rec["pair"] is not None:
            pairs.setdefault(rec["pair"], {})[rec["workers"]] = lat[rec["slot"]]
        if rec.get("worst_rel_stderr") is not None:
            t1pct[rec["slot"]] = lat[rec["slot"]] * (rec["worst_rel_stderr"] / TARGET_REL_STDERR) ** 2
    ratios = [p["1"] / p["2"] for p in pairs.values() if "1" in p and "2" in p]
    attempted = len(records)
    return {
        "wall_s": sum(slot_lat),
        "op_p50_s": statistics.median(slot_lat),
        "op_tail_s": tail(slot_lat),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "time_to_1pct_s": statistics.median(t1pct.values()) if t1pct else 0.0,
        "speedup_2w": statistics.median(ratios) if ratios else 0.0,
        "fail_share": sum(1 for r in records if r["failures"]) / attempted,
        "verdict_fail_share": sum(1 for r in records if r["misses"] and not r["failures"]) / attempted,
    }


# --- environment record ------------------------------------------------------------

def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (ROOT / ".git" / name).is_file():
        return (ROOT / ".git" / name).read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sectint").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_ENV,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# --- main ----------------------------------------------------------------------------

def load_metric_names() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sectint" / "__init__.py").is_file():
        print(f"error: no sectint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    e2e_units, layer_units = load_metric_names()

    # OpenBLAS reads these when numpy first loads it, inside the timed import;
    # nothing this script imports before that point loads numpy
    os.environ.update(BLAS_ENV)
    os.environ.pop("SECTINT_WORKERS", None)  # volume constants use the package default of 1 worker
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import sectint
    import sectint.cli
    import_s = time.perf_counter() - t0
    probe = SpeedProbe()
    for _ in range(NEIGHBOURS):
        probe.sample()
    import_scaled_s = probe.scaled(t0, import_s)
    if not Path(sectint.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported sectint from {sectint.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    cli_main = sectint.cli.main

    setup = cold_setup(args.workload, probe)
    setup_s = {"scaled_s": import_scaled_s + statistics.median(r["scaled_s"] for r in setup),
               "wall_s": import_s + statistics.median(r["total_s"] for r in setup)}

    ops = workloads.pass_ops(args.workload, args.seed)
    records, pass_walls = [], []
    start = time.perf_counter()
    while not pass_walls or time.perf_counter() - start < args.seconds:
        p0 = time.perf_counter()
        for position, op in enumerate(ops):
            records.append(execute(cli_main, op, len(pass_walls), position))
            probe.maybe_sample()
        pass_walls.append(time.perf_counter() - p0)
    for _ in range(NEIGHBOURS):
        probe.sample()
    for rec in records:
        rec["scaled_s"] = probe.scaled(rec["t0"], rec["wall_s"])
    check_identity(records)
    metrics = end_to_end(records, setup_s["scaled_s"])
    wall_metrics = end_to_end(records, setup_s["wall_s"], key="wall_s")

    traced = []
    layers = {}
    if args.trace:
        tracer = Tracer()
        overhead = 0.0
        # each op runs untraced, then traced, so drift falls on neither
        # side of the overhead
        for position, op in enumerate(ops):
            ref = execute(cli_main, op, 0, position)
            tracer.install()
            try:
                rec = execute(cli_main, op, 0, position,
                              call=lambda m, a, i=position: tracer.run_op(i, run_cli, m, a))
            finally:
                tracer.uninstall()
            overhead += rec["wall_s"] - ref["wall_s"]
            ref["id"], rec["id"] = f"untraced.{position}", f"traced.{position}"
            if rec["sha256"] != ref["sha256"]:
                rec["failures"].append(f"traced payload differs from {ref['id']}")
            traced += [ref, rec]
        layers = layer_metrics(tracer.spans)
        layers["actions.algebra_split.cold_s"] = statistics.median(r["algebra_split_s"] for r in setup)
        layers["volumes.cached_group_volume.cold_s"] = statistics.median(r["cached_group_volume_s"] for r in setup)
        layers["trace.overhead_s"] = overhead
        for name in ("time_to_1pct_s", "speedup_2w", "fail_share", "verdict_fail_share"):
            layers[name] = metrics[name]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")

    all_ops = records + traced
    failed = sum(1 for r in all_ops if r["failures"])
    chosen, units = (layers, layer_units) if args.trace else (metrics, e2e_units)
    missing = sorted(set(units) - set(chosen))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {name: {"value": chosen[name], "unit": unit} for name, unit in units.items()},
    }

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "passes": len(pass_walls),
        "pass_walls_s": pass_walls,
        "probe": {"ref_s": REF_S, "starts": probe.starts, "times": probe.times},
        "import_s": import_s,
        "import_scaled_s": import_scaled_s,
        "setup_repeats": setup,
        "end_to_end": metrics,
        "end_to_end_wall": wall_metrics,
        "per_layer": layers,
        "ops": all_ops,
        "result": result,
    }
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(pass_walls)}  "
          f"ops {len(all_ops)}  slots {len({r['slot'] for r in records})}")
    all_units = {**e2e_units, **layer_units}
    print(f"  {'':48s} {'ref. speed':>14s} {'wall clock':>14s}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {wall_metrics[name]:14.6g} {all_units.get(name, '')}")
    for name, value in sorted(layers.items()):
        print(f"  {name:48s} {value:14.6g} {'':14s} {all_units.get(name, '')}")
    for rec in all_ops:
        for reason in rec["failures"]:
            print(f"  FAIL {rec['id']} {rec['label']}: {reason}")
        for reason in rec["misses"]:
            print(f"  verdict {rec['id']} {rec['label']}: {reason}")
    print(f"  result file: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
