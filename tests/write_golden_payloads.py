"""Write tests/golden_payloads.json, the stored payloads of the benchmark's ops.

For every op of the flat-mc, group-mc and pointwise workloads at seed 1
(``perfbench/workloads.py``), the file holds the argv, the exit status,
the sha256 of stdout and the parsed JSON payload, as ``sectint.cli.main``
gives them in this process.  It also records the fingerprint of the
environment that wrote it (numpy version, Python version and machine):
``tests/test_golden_payloads.py`` compares hashes on that fingerprint and
parsed payloads elsewhere.  Regenerate the file whenever a change is
meant to move a payload: the writer prints workload, slot, command and
action of each op whose stdout hash differs from the file it overwrites
(and any exit status that changed), so its output lists exactly the ops
that moved.  Run from the repository root, with one BLAS thread as the
benchmark uses:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/write_golden_payloads.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_payloads.json"
WORKLOADS = ("flat-mc", "group-mc", "pointwise")
SEED = 1


def fingerprint() -> dict:
    """The environment whose payloads are compared by hash."""
    return {
        "numpy": np.__version__,
        "python": "%d.%d" % sys.version_info[:2],
        "machine": f"{platform.system()}-{platform.machine()}",
    }


def run(main, argv: list[str]) -> tuple[int, str]:
    """(exit status, stdout) of one in-process CLI call; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def record(main, argv: list[str]) -> dict:
    code, stdout = run(main, argv)
    return {"argv": list(argv), "exit": code, "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            "payload": json.loads(stdout) if stdout else None}


def moved_ops(old: dict, ops: list[dict]) -> list[str]:
    """One line per op of ops whose stdout hash differs from the old file's:
    workload, slot, command and action, and the exit statuses if they differ."""
    from sectint.actions import action_from_json

    before = {(op["workload"], op["slot"]): op for op in old.get("ops", [])}
    lines = []
    for op in ops:
        prev = before.get((op["workload"], op["slot"]), {"sha256": None, "exit": None})
        if prev["sha256"] != op["sha256"]:
            argv = op["argv"]
            action = action_from_json(json.loads(argv[argv.index("--action") + 1]))
            status = "" if prev["exit"] == op["exit"] else f" exit {prev['exit']} -> {op['exit']}"
            lines.append(f"moved: {op['workload']} slot {op['slot']} {argv[0]} {action}{status}")
    return lines


def main() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from sectint.cli import main as cli_main

    ops = []
    for workload in WORKLOADS:
        for op in sorted(workloads.pass_ops(workload, SEED), key=lambda op: op.slot):
            ops.append({"workload": workload, "slot": op.slot, **record(cli_main, list(op.argv))})
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if old.get("fingerprint", fingerprint()) != fingerprint():
        print(f"the old file was written on {old['fingerprint']}: its hashes do not compare")
    else:
        print("\n".join(moved_ops(old, ops)) or "no op moved")
    doc = {"fingerprint": fingerprint(), "seed": SEED, "ops": ops}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(ops)} ops to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
