"""Every benchmark op prints the payload stored in golden_payloads.json.

``tests/write_golden_payloads.py`` wrote the file: each seed-1 op of the
flat-mc, group-mc and pointwise workloads with its argv, exit status,
stdout hash and parsed payload.  In the environment that wrote it (its
fingerprint) each op must print the same bytes.  Elsewhere numpy's
rounding may differ, so each op must give the same exit status, verdicts
and strings, and numbers within REL_TOL of the stored ones, or both
within ABS_FLOOR of them: the check values that are rounding noise, such
as a residual of 1e-15, take any value near zero.
"""

import hashlib
import json
import math

import pytest

from sectint.cli import main
from write_golden_payloads import GOLDEN, fingerprint, moved_ops, run

REL_TOL = 1e-6
ABS_FLOOR = 1e-8

DOC = json.loads(GOLDEN.read_text())


def _close(got, want, path="payload"):
    """Assert that got matches want: numbers within tolerance, everything else exactly."""
    if isinstance(want, bool) or want is None or isinstance(want, str):
        assert got == want, f"{path}: {got!r} != {want!r}"
    elif isinstance(want, (int, float)):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), f"{path}: {got!r} is not a number"
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_FLOOR), f"{path}: {got!r} != {want!r}"
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{path}: {got!r} != {want!r}"
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{path}[{i}]")
    else:
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{path}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            _close(got[key], want[key], f"{path}.{key}")


def test_the_file_covers_every_workload():
    assert {op["workload"] for op in DOC["ops"]} == {"flat-mc", "group-mc", "pointwise"}
    assert len(DOC["ops"]) == len({(op["workload"], op["slot"]) for op in DOC["ops"]})


def test_the_writer_lists_the_moved_ops():
    # one line per op whose hash differs from the old file's, with its exit statuses where they differ
    first, last = DOC["ops"][0], DOC["ops"][-1]
    ops = [dict(first, sha256="0"), *DOC["ops"][1:-1], dict(last, sha256="1", exit=7)]
    assert moved_ops(DOC, DOC["ops"]) == []
    assert moved_ops(DOC, ops) == [
        "moved: flat-mc slot 0 integrate SO(3)^2 on R^(3x2)",
        f"moved: pointwise slot 135 ensemble SU(3) conjugation exit {last['exit']} -> 7",
    ]


@pytest.mark.parametrize("op", DOC["ops"], ids=lambda op: f"{op['workload']}-{op['slot']}-{op['argv'][0]}")
def test_payload_matches_the_stored_one(op):
    code, stdout = run(main, op["argv"])
    assert code == op["exit"]
    if fingerprint() == DOC["fingerprint"]:
        assert hashlib.sha256(stdout.encode()).hexdigest() == op["sha256"]
    else:
        _close(json.loads(stdout), op["payload"])
