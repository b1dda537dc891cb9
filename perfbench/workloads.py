"""Seeded op lists for the benchmark workloads.

A workload is one list of ops, which a run executes over and over in
passes.  Every seed gives the same op slots (same subcommand, action,
sample size and worker count), so slot latencies can be compared across
seeds and across commits; the seed only picks the per-op seeds and the
``delta`` points.  The list of workload ``w`` under seed ``s`` is drawn
from ``random.Random(f"{w}:{s}")``, whose string seeding does not depend
on the interpreter's hash seed.

The program sees nothing but the generated argv.  This module uses only
the standard library, so it can run before the timed ``import sectint``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

N_SIGMA = 3.0  # passed to every op, and used by the benchmark's own reference checks


def direct_sum(fld: str, n: int, k: int) -> dict:
    return {"kind": "direct_sum", "field": fld, "n": n, "k": k}


def conjugation(family: str, n: int) -> dict:
    return {"kind": "conjugation", "family": family, "n": n}


R32, C42, H32, R41 = direct_sum("R", 3, 2), direct_sum("C", 4, 2), direct_sum("H", 3, 2), direct_sum("R", 4, 1)
SU2, SU3, SO3, SO4 = conjugation("SU", 2), conjugation("SU", 3), conjugation("SO", 3), conjugation("SO", 4)
SP1, SP2 = conjugation("Sp", 1), conjugation("Sp", 2)
ACTION_TABLE = (R32, C42, H32, R41, SU2, SU3, SO3, SO4, SP1, SP2)

FIELD_DIM = {"R": 1, "C": 2, "H": 4}


def label(action: dict) -> str:
    if action["kind"] == "direct_sum":
        return f"{action['field']}({action['n']},{action['k']})"
    return f"{action['family']}({action['n']})conj"


def torus_rank(action: dict) -> int:
    fam, n = action["family"], action["n"]
    return {"SO": n // 2, "SU": n - 1, "Sp": n}[fam]


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what the benchmark expects of its output."""

    slot: int
    argv: tuple[str, ...]
    action: dict
    pair: str | None = None  # ops sharing a pair key must print identical payloads
    expect: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def label(self) -> str:
        return f"{self.command} {label(self.action)}"


def cli_argv(command: str, action: dict, seed: int, *extra: str) -> tuple[str, ...]:
    return (command, "--action", json.dumps(action, sort_keys=True), "--seed", str(seed),
            "--n-sigma", str(N_SIGMA), *extra)


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


# --- workloads ---------------------------------------------------------------

FLAT_N = 30_000
FLAT_FUNCTIONS = (None, "gaussian_det,gaussian_radial")  # None: the CLI's defaults


def _flat_mc(rng: random.Random) -> list[Op]:
    ops = []
    for action in (R32, C42, H32, R41):
        for functions in FLAT_FUNCTIONS:
            seed = _seed(rng)
            extra = ("--functions", functions) if functions else ()
            for workers in ("1", "2"):
                argv = cli_argv("integrate", action, seed, "--n", str(FLAT_N), "--workers", workers, *extra)
                ops.append(Op(len(ops), argv, action, pair=f"{label(action)}:{functions}"))
    return ops


GROUP_INTEGRATE_N = 1_000
GROUP_VOLUMES_N = 10_000


def _group_mc(rng: random.Random) -> list[Op]:
    ops = []
    # every run sets up the volume constant of each integrate action three
    # times (about 1.5 s for SO(3), 1 s for Sp(1), 4 s for SU(3)), so the list
    # keeps one action per mechanism: SO(3) batched Haar and a rank-1
    # quadrature, SU(3) batched Haar and the rank-2 per-node weight loop,
    # Sp(1) the per-draw Haar loop.  Sp(2) (both loops) takes 8 s an op,
    # too long to repeat within a run.
    for action in (SO3, SU3, SP1):
        argv = cli_argv("integrate", action, _seed(rng), "--n", str(GROUP_INTEGRATE_N), "--workers", "2")
        ops.append(Op(len(ops), argv, action))
    for action in (SU3, SO4, C42):
        argv = cli_argv("volumes", action, _seed(rng), "--n", str(GROUP_VOLUMES_N), "--workers", "2")
        ops.append(Op(len(ops), argv, action))
    return ops


DELTA_POINTS_PER_ACTION = 10  # the last point of each action lies on the singular set
VERIFY_SEEDS = 3  # verify slots per action: their cost depends on the seed, and they set op_tail_s
ENSEMBLE_N = 500
ENSEMBLE_BINS = 20


def delta_point(action: dict, rng: random.Random, singular: bool):
    """Section coordinate JSON for ``delta``, regular or singular."""
    if action["kind"] == "conjugation":
        rank = torus_rank(action)
        if rank == 1:
            return [0.0 if singular else rng.uniform(0.1, math.pi - 0.1)]
        if singular:  # repeated angles give repeated eigenvalues
            return [rng.uniform(0.0, 2 * math.pi)] * rank
        return [rng.uniform(0.0, 2 * math.pi) for _ in range(rank)]
    k, d = action["k"], FIELD_DIM[action["field"]]

    def entry():
        vals = [rng.gauss(0.0, 1.0) for _ in range(d)]
        return vals[0] if d == 1 else vals

    rows = [[entry() for _ in range(k)] for _ in range(k)]
    if singular:  # rank k - 1 (the zero point when k = 1)
        rows[-1] = [0.0] * k if k == 1 else list(rows[0])
    return rows


def _pointwise(rng: random.Random) -> list[Op]:
    ops = []
    for action in ACTION_TABLE:
        for i in range(DELTA_POINTS_PER_ACTION):
            singular = i == DELTA_POINTS_PER_ACTION - 1
            point = json.dumps(delta_point(action, rng, singular))
            argv = cli_argv("delta", action, 0, "--point", point)
            ops.append(Op(len(ops), argv, action, expect={"regularity": "singular" if singular else "regular"}))
    for action in ACTION_TABLE:
        for _ in range(VERIFY_SEEDS):
            ops.append(Op(len(ops), cli_argv("verify", action, _seed(rng)), action))
    for action in (R32, C42, H32, SO3, SP1, SU3):
        extra = ("--statistic", "torus_angle") if action["kind"] == "conjugation" else ()
        argv = cli_argv("ensemble", action, _seed(rng), "--n", str(ENSEMBLE_N), "--bins", str(ENSEMBLE_BINS), *extra)
        ops.append(Op(len(ops), argv, action))
    return ops


def _known_defects(rng: random.Random) -> list[Op]:
    """Ops that fail at the parent commit; kept out of the timed workloads.

    sigma = 2 Gaussians make the standard-Gaussian proposal's weights
    heavy-tailed, and the calibration often aborts; H(3,2) ``volumes``
    reports vol(G/H) = 0 because the Sp(3) chart volume collapses.
    """
    ops = []
    for action in (R32, H32):
        argv = cli_argv("integrate", action, _seed(rng), "--n", "200000", "--workers", "2",
                     "--functions", "gaussian_radial:sigma=2.0,gaussian_sq_norm:sigma=2.0")
        ops.append(Op(len(ops), argv, action))
    argv = cli_argv("volumes", H32, _seed(rng), "--n", str(GROUP_VOLUMES_N), "--workers", "2")
    ops.append(Op(len(ops), argv, H32))
    return ops


WORKLOADS = {
    "flat-mc": _flat_mc,
    "group-mc": _group_mc,
    "pointwise": _pointwise,
    "known-defects": _known_defects,
}


def pass_ops(workload: str, seed: int) -> list[Op]:
    """The ops of one pass, in execution order; the same arguments always
    give the same ops.

    The machine's speed drifts within seconds, so the ops of one kind are
    spread over the pass rather than run back to back: the execution
    order is one fixed shuffle per workload (the same for every seed),
    with the two ops of a pair kept adjacent.
    """
    ops = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    units: dict[object, list[Op]] = {}
    for i, op in enumerate(ops):
        units.setdefault(op.pair or i, []).append(op)
    order = list(units.values())
    random.Random(f"{workload}:order").shuffle(order)
    return [op for unit in order for op in unit]


def setup_actions(workload: str) -> tuple[list[dict], list[dict]]:
    """(actions whose algebra split the ops build, conjugation actions whose
    group volume constant ``integrate`` multiplies by)."""
    ops = pass_ops(workload, 0)
    actions = list({json.dumps(op.action, sort_keys=True): op.action for op in ops}.values())
    volume = [a for a in actions if a["kind"] == "conjugation"
              and any(op.command == "integrate" and op.action == a for op in ops)]
    return actions, volume
