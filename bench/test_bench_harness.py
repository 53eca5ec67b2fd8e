"""Tests of the benchmark harness itself: span arithmetic, patching,
failure accounting and a tiny run of every workload."""

import dataclasses
import json

import pytest

import run
from spans import Span, Tracer, self_times, totals

run.import_qbde()

TINY = {"n_users": 2, "n_days": 40, "train_days": 26, "test_days": 12,
        "k": 2, "epochs": 1, "bde_epochs": 2}


def tiny(workload, **changes):
    return dataclasses.replace(workload, config={**workload.config, **TINY},
                               **changes)


def test_self_time_of_hand_built_spans():
    spans = [
        Span(0, None, "phase", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 3.0),
        Span(2, 0, "b", 2.0, 5.0),      # overlaps a: [1, 5] counts once
        Span(3, 2, "c", 2.5, 4.5),      # grandchild: not the phase's child
        Span(4, 0, "d", 9.0, 12.0),     # clipped to the phase's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0 - 2.0)
    assert own[3] == pytest.approx(2.0)
    sums = totals(spans)
    assert sums["phase"].calls == 1 and sums["missing"].calls == 0


def test_tracer_nests_spans_with_parent_ids():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda x: x + 1, "inner", amount=lambda a, r: r)
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(1) == 4
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert by_name["inner"].amount == 2.0
    assert self_times(tracer.spans)[by_name["outer"].id] == 2.0


def test_patch_and_restore_keep_identical_objects():
    import importlib

    def lookup(target, attr):
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        return vars(getattr(owner, class_name) if class_name else owner)[attr]

    before = [lookup(t, a) for t, a, _, _ in run.TRACE_POINTS]
    tracer = Tracer()
    for target, attr, name, amount in run.TRACE_POINTS:
        assert tracer.patch(target, attr, name, amount)
    try:
        during = [lookup(t, a) for t, a, _, _ in run.TRACE_POINTS]
        assert all(d is not b for d, b in zip(during, before))
    finally:
        tracer.restore()
    after = [lookup(t, a) for t, a, _, _ in run.TRACE_POINTS]
    assert all(x is y for x, y in zip(after, before))


def test_removed_function_reads_as_zero_calls():
    tracer = Tracer()
    assert not tracer.patch("qbde.qgan", "no_such_function", "qgan.gone")
    assert not tracer.patch("qbde.no_such_module", "f", "gone")
    assert not tracer.patch("qbde.optim:NoSuchClass", "step", "gone")
    layers = run.layer_metrics([], batch_steps=0)
    assert layers["qsim.prob_jacobian.calls"] == 0
    assert layers["qsim.prob_jacobian.share_of_train"] == 0.0


def test_phase_time_is_scaled_by_the_kernel_on_either_side(tmp_path,
                                                           monkeypatch):
    passes = iter([1, 2, 4, 1])     # warm-up, then in units of REFERENCE_S
    monkeypatch.setattr(run, "kernel_seconds",
                        lambda: next(passes) * run.REFERENCE_S)
    r = run.Run(tiny(run.WORKLOADS["acceptance"]), 0, tmp_path / "w")
    first, second = r.phase(("synth",)), r.phase(("synth",))
    assert first.ref == pytest.approx(first.wall / 3)      # (2 + 4) / 2
    assert second.ref == pytest.approx(second.wall / 2.5)  # (4 + 1) / 2


def test_unknown_config_key_counts_as_failed_op(tmp_path):
    bad = tiny(run.WORKLOADS["acceptance"])
    bad = dataclasses.replace(bad, config={**bad.config, "bogus_key": 1})
    outcome = run.run_workload(bad, seed=0, seconds=0, trace=False,
                               work=tmp_path / "w")
    result = outcome["result"]
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 1
    assert result["metrics"]["ok_ops_ratio"]["value"] == 0.0
    assert outcome["record"]["failed_ops_ratio"] == 1.0
    assert "exited 2" in outcome["record"]["problems"][0]
    assert not (tmp_path / "w").exists()


def test_failed_timed_phase_counts_against_attempts(tmp_path):
    # detect without any checkpoint exits 3 after a good set-up and ingest
    broken = tiny(run.WORKLOADS["acceptance"],
                  phases=(("ingest",), ("detect",)))
    result = run.run_workload(broken, seed=0, seconds=0, trace=False,
                              work=tmp_path / "w")["result"]
    setup_ops = 2 * run.SETUP_REPEATS       # synth + digest check each
    assert result["attempted"] == setup_ops + 2
    assert result["failed"] == 1
    assert result["metrics"]["ok_ops_ratio"]["value"] == pytest.approx(
        1 - 1 / (setup_ops + 2))


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_of_each_workload(tmp_path, name, trace):
    outcome = run.run_workload(tiny(run.WORKLOADS[name]), seed=3, seconds=0,
                               trace=trace, work=tmp_path / "w")
    result, record = outcome["result"], outcome["record"]
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [n for n, _, _ in declared]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["cli.ingest.s"] >= values["features.parse_logs.s"] > 0
        assert values["cli.detect.s"] >= values["bde.train_bde.s"] > 0
        assert values["trace_overhead_ratio"] > 0
    else:
        assert all(v > 0 for v in values.values())
        assert set(record["digests"]) == {"setup", "pipeline"}
    json.dumps(result)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] \
        == [(w.name, w.why) for w in run.WORKLOADS.values()]
    for key, declared in (("end_to_end", run.END_TO_END),
                          ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] \
            == list(declared)
