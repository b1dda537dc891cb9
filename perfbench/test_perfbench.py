"""Self-tests for the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest

import outputs
import run
import workloads
from speed import REF_S, SpeedProbe
from tracing import Span, Tracer, layer_metrics, self_times, union_length


def _span(sid, parent, t0, t1, name="x"):
    return Span(sid, parent, name, "", t0, t1, 0, 0)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert union_length([], 0, 10) == 0.0
    assert union_length([(2, 3), (2, 3)], 0, 10) == pytest.approx(1.0)


def test_self_time_uses_union_of_overlapping_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),   # two chunks on different threads overlap
        _span(2, 0, 3.0, 6.0),
        _span(3, 0, 8.0, 12.0),  # runs past its parent: only 8..10 counts
        _span(4, 1, 1.5, 2.5),   # grandchild: charged to span 1, not span 0
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 7.0)
    assert st[1] == pytest.approx(3.0 - 1.0)
    assert st[2] == pytest.approx(3.0)
    assert st[4] == pytest.approx(1.0)


def test_busy_share_counts_chunks_of_two_worker_runs():
    spans = [
        Span(0, None, "mc.mc_run", "w2", 0.0, 1.0, 0, 0),
        Span(1, 0, "mc.chunk", "", 0.0, 1.0, 0, 5),
        Span(2, 0, "mc.chunk", "", 0.0, 0.5, 0, 5),
        Span(3, None, "mc.mc_run", "w1", 1.0, 2.0, 0, 0),
        Span(4, 3, "mc.chunk", "", 1.0, 2.0, 0, 5),
    ]
    m = layer_metrics(spans)
    assert m["mc.busy_share.w2"] == pytest.approx(0.75)
    assert m["mc.chunk.calls"] == 3
    assert m["mc.mc_run.calls"] == 2


def test_tail_rule():
    assert run.tail([3.0, 1.0, 2.0]) == 3.0
    assert run.tail(list(range(20))) == 19
    assert run.tail(list(range(100))) == 89


def test_generator_is_deterministic_per_seed_and_differs_across_seeds():
    for name in workloads.WORKLOADS:
        a = workloads.pass_ops(name, 7)
        assert a == workloads.pass_ops(name, 7)
        b = workloads.pass_ops(name, 8)
        assert a != b
        # seeds change per-op inputs, never the slot structure
        shape = lambda ops: [(op.slot, op.command, op.action, op.pair) for op in ops]
        assert shape(a) == shape(b)


def test_flat_pairs_differ_only_in_worker_count():
    ops = workloads.pass_ops("flat-mc", 3)
    pairs = {}
    for op in ops:
        pairs.setdefault(op.pair, []).append(list(op.argv))
    for argvs in pairs.values():
        assert len(argvs) == 2
        i = argvs[0].index("--workers")
        assert argvs[0][i + 1] == "1" and argvs[1][i + 1] == "2"
        argvs[0][i + 1] = argvs[1][i + 1]
        assert argvs[0] == argvs[1]


def _rec(slot, pass_index, sha, pair=None):
    return {"id": f"p{pass_index}.{slot}", "slot": slot, "pass": pass_index, "sha256": sha,
            "pair": pair, "failures": []}


def test_identity_checks_flag_repeats_and_pairs_that_differ():
    records = [_rec(0, 0, "a", "x"), _rec(1, 0, "a", "x"), _rec(0, 1, "a", "x"), _rec(1, 1, "b", "x")]
    run.check_identity(records)
    assert [len(r["failures"]) for r in records] == [0, 0, 0, 2]


def test_slot_latency_is_the_median_over_passes():
    records = [{"slot": s, "scaled_s": v} for s, v in [(0, 3.0), (0, 1.0), (0, 2.0), (1, 5.0)]]
    assert run.slot_latencies(records) == {0: 2.0, 1: 5.0}


def test_probe_scales_by_the_local_reference_time():
    probe = SpeedProbe()
    # the host runs at full speed until t = 10, then at half speed
    probe.starts = [float(t) for t in range(20)]
    probe.times = [REF_S if t < 10 else 2 * REF_S for t in range(20)]
    assert probe.scaled(2.5, 1.0) == pytest.approx(1.0)
    assert probe.scaled(15.5, 1.0) == pytest.approx(0.5)
    # an op with no sample inside it uses the neighbours on both sides
    assert probe.local(9.5, 9.6) == pytest.approx(1.5 * REF_S)


def test_exact_volumes_match_the_test_suite_constants():
    su2 = 2 * math.pi ** 2 * 2 ** 1.5
    so3 = 16 * math.sqrt(2.0) * math.pi ** 2
    assert outputs.exact_group_volume("SU", 2) == pytest.approx(su2)
    assert outputs.exact_group_volume("SU", 3) == pytest.approx(4.0 * math.sqrt(1.5) * math.pi ** 3 * su2)
    assert outputs.exact_group_volume("SO", 3) == pytest.approx(so3)
    assert outputs.exact_group_volume("SO", 4) == pytest.approx(2 ** 1.5 * 2 * math.pi ** 2 * so3)
    assert outputs.exact_group_volume("Sp", 1) == pytest.approx(2 * math.pi ** 2)
    assert outputs.exact_group_volume("Sp", 2) is None


def test_payload_checks_flag_zero_volume_and_exceptions():
    op = workloads.Op(0, ("volumes",), workloads.H32)
    payload = '{"pass": true, "results": {"vol_gh": %s, "vol_gn": {"mean": 1.0, "stderr": 0.1}, "vol_w": {"mean": 2.0, "stderr": 0.0}}}'
    failures, _ = outputs.check_payload(op, 0, payload % '{"mean": 0.0, "stderr": 0.0}')
    assert failures == ["non-positive vol_gh = 0.0"]
    failures, _ = outputs.check_payload(op, 0, payload % '{"mean": NaN, "stderr": 0.0}')
    assert any("non-finite" in f for f in failures)
    assert outputs.check_payload(op, "RuntimeError: boom", "")[0] == ["raised RuntimeError: boom"]
    assert outputs.check_payload(op, 2, "")[0] == ["exit status 2"]


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "sectint" or name.startswith("sectint.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_uninstall_restores_every_binding():
    import sectint.cli  # noqa: F401  (loads every sectint module)
    from sectint import weights

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert sectint.cli.delta_e_generic is not before[("sectint.weights", "delta_e_generic")]
        assert sectint.cli.delta_e_generic is weights.delta_e_generic
        assert sectint.integrate.mc_run is not before[("sectint.mc", "mc_run")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


SMALL_OPS = [
    ("delta", workloads.R32, "--point", "[[1.0, 0.5], [-0.3, 2.0]]"),
    ("delta", workloads.SU3, "--point", "[0.4, 2.0]"),
    ("integrate", workloads.R32, "--n", "2000", "--workers", "2"),
    ("integrate", workloads.SU2, "--n", "500", "--workers", "2"),
    ("verify", workloads.SP1),
    ("ensemble", workloads.C42, "--n", "300", "--bins", "10"),
    ("volumes", workloads.SO3, "--n", "2000"),
]


def test_traced_payloads_equal_untraced_payloads():
    from sectint.cli import main

    tracer = Tracer()
    for i, (command, action, *extra) in enumerate(SMALL_OPS):
        argv = workloads.cli_argv(command, action, 11, *extra)
        plain = run.run_cli(main, argv)
        tracer.install()
        try:
            traced = tracer.run_op(i, run.run_cli, main, argv)
        finally:
            tracer.uninstall()
        assert plain[0] in (0, 1), plain
        assert traced == plain
    names = {s.name for s in tracer.spans}
    assert {"cli", "mc.mc_run", "mc.chunk", "weights.delta_e_generic", "checks.run_action_checks",
            "ensembles.sample_ensemble", "volumes.group_volume"} <= names
    runs = {s.sid for s in tracer.spans if s.name == "mc.mc_run"}
    assert all(s.parent in runs for s in tracer.spans if s.name == "mc.chunk")
    assert all(s.op >= 0 for s in tracer.spans)
