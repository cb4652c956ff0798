"""Self-tests of the benchmark: metrics, hooks, spans and output checks.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

import copy
import json
import os
import time

import numpy as np
import pytest

from perfbench import golden, layers, workloads
from perfbench.speed import Gauge, scale_factors
from perfbench.stats import paired_overhead_pct, tail_percentile
from perfbench.tracing import Hook, Hooks, Span, Tracer, traced

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

_RUNS = {}


def tiny_run(workload, trace, tmp_path_factory):
    key = (workload, trace)
    if key not in _RUNS:
        workdir = str(tmp_path_factory.mktemp(f"{workload}{int(trace)}"))
        _RUNS[key] = workloads.run(workload, seed=3, seconds=0.6, trace=trace,
                                   workdir=workdir, size="tiny")
    return _RUNS[key]


def test_benchmark_json_lists_the_metrics_the_runs_emit():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        layers.per_layer_metrics()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, tmp_path_factory):
    result = tiny_run(workload, trace, tmp_path_factory)
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: unit for name, (_value, unit) in result.metrics.items()} == want
    assert all(np.isfinite(value) for value, _unit in result.metrics.values())
    assert result.attempted > 0
    assert result.failed == 0, result.notes
    assert result.notes["missing_hooks"] == []
    if not trace:
        assert all(value > 0 for value, _unit in result.metrics.values())


# Where each layer runs (calls > 0); on the other workloads it must record 0.
ALL = set(workloads.WORKLOADS)
RUNS_ON = {
    "train.build_run_calls": ALL,
    "data.generate_calls": ALL,
    "data.generate_images": ALL,
    "data.load_dataset_calls": {"eval"},
    "data.attach_token_calls": ALL,
    "checkpoint.load_calls": {"eval"},
    "detector.encode_calls": ALL,
    "detector.decode_calls": ALL,
    "detector.heads_calls": ALL,
    "detector.tape_nodes": {"train", "pretrain"},
    "autodiff.backward_calls": {"train", "pretrain"},
    "autodiff.tape_nodes": {"train", "pretrain"},
    "losses.cost_matrix_calls": {"train"},
    "losses.match_calls": {"train"},
    "losses.assembly_calls": {"train"},
    "losses.tape_nodes": {"train"},
    "queryrepa.alignment_calls": {"pretrain"},
    "optim.step_calls": {"train", "pretrain"},
    "evaluation.detections_calls": {"eval"},
    "evaluation.n_detections": {"eval"},
    "evaluation.ap_report_calls": {"eval"},
}
RUNS_ON.update({f"detector.dec{i}.{part}_calls": ALL
                for i in range(layers.N_DECODER_LAYERS) for part in layers.DECODER_PARTS})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_hook_fires_where_the_table_predicts(workload, tmp_path_factory):
    metrics = tiny_run(workload, True, tmp_path_factory).metrics
    time_of = {layer.calls_metric: f"{layer.stem}_ms"
               for layer in layers.LAYERS + layers.INSTANCE_LAYERS if layer.timed}
    for name, runs_on in RUNS_ON.items():
        value = metrics[name][0]
        if workload in runs_on:
            assert value > 0, name
        else:
            assert value == 0, name
        if name in time_of and workload not in runs_on:
            assert metrics[time_of[name]][0] == 0, name
    moca = [metrics[name][0] for name in layers.MOCA]
    if workload == "eval":
        assert moca[1] <= moca[0] <= moca[2]


def test_hook_rebinds_every_import_and_restores_them():
    from mocadet import losses, train
    original = losses.detection_loss
    hook = Hook("mocadet.losses", "detection_loss")
    assert hook.install(lambda fn: lambda *a, **k: fn(*a, **k))
    try:
        assert hook.bindings >= 2
        assert train.detection_loss is losses.detection_loss is not original
    finally:
        hook.uninstall()
    assert train.detection_loss is original and losses.detection_loss is original


def test_missing_targets_are_reported_not_raised():
    with Hooks() as hooks:
        hooks.add("mocadet.detector", "MultiHeadAttention.no_such_method", traced(Tracer(), "x"))
        hooks.add("mocadet.no_such_module", "f", traced(Tracer(), "x"))
        hooks.add("mocadet.losses", "no_such_function", traced(Tracer(), "x"))
    assert hooks.missing() == ["mocadet.detector.MultiHeadAttention.no_such_method",
                               "mocadet.no_such_module.f", "mocadet.losses.no_such_function"]


def test_span_self_time_never_exceeds_its_duration(tmp_path):
    from mocadet import train
    tracer = Tracer()
    cfg = workloads.train_config(1, workloads.SIZES["tiny"], n_train=8, epochs=1)
    with Hooks() as hooks, tracer:
        layers.install(hooks, tracer)
        train.run_train(cfg, str(tmp_path))
    assert len(tracer.spans) > 100
    assert any(s.parent >= 0 for s in tracer.spans)
    for span, self_time in zip(tracer.spans, tracer.self_times()):
        assert 0.0 <= self_time <= span.duration, span.name


def test_aggregate_takes_per_iteration_medians_and_set_up_totals():
    tracer = Tracer()

    def add(name, start, end, parent=-1, count=0):
        span = Span(name, start, parent, True)
        span.end, span.count = end, count
        tracer.spans.append(span)

    add("train.build_run", 0.0, 1.0)               # set-up only
    add("data.generate", 0.2, 0.8, parent=0, count=7)
    for k, width in enumerate([0.1, 0.3, 0.2]):    # one step per iteration
        add("optim.step", 2.0 + k, 2.0 + k + width)
    add("losses.assembly", 3.1, 3.6)              # self time 0.5 - 0.2
    add("losses.cost_matrix", 3.2, 3.4, parent=len(tracer.spans) - 1)
    ends = [1.5, 2.5, 3.5, 4.5]
    out = layers.aggregate(tracer, ends, ends, [1.0] * 4)
    assert out["optim.step_ms"] == pytest.approx(200.0)  # median of 100, 300, 200
    assert out["optim.step_calls"] == 1
    assert out["train.build_run_ms"] == pytest.approx(1000.0)
    assert out["data.generate_images"] == 7
    assert out["losses.assembly_ms"] == pytest.approx(0.0)  # ran in one of three
    assert layers.aggregate(tracer, [1.5, 3.7], [1.5, 3.7], [1.0, 2.0])["losses.assembly_ms"] \
        == pytest.approx(600.0)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(np.arange(200.0)) == (pytest.approx(179.1), 90.0)
    value, pct = tail_percentile(np.arange(50.0))
    assert value == 39.0 and pct == 80.0
    assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_paired_overhead_recovers_a_known_overhead():
    rng = np.random.default_rng(0)
    drift = 1.0 + 0.5 * np.sin(np.linspace(0, 6, 400))
    base = drift * (1.0 + 0.01 * rng.standard_normal(400))
    treated = 1.1 * drift * (1.0 + 0.01 * rng.standard_normal(400))
    stat, lo, hi = paired_overhead_pct(base, treated)
    assert lo <= stat <= hi
    assert lo < 10.0 < hi + 1.0 and hi - lo < 5.0


def test_golden_compare_flags_changed_outputs():
    with open(golden.REFERENCE_PATH, "r", encoding="utf-8") as fh:
        ref = json.load(fh)
    for workload in workloads.WORKLOADS:
        assert golden.compare(workload, copy.deepcopy(ref[workload]), ref[workload])[1] == 0
    train = copy.deepcopy(ref["train"])
    train["losses"][1] *= 1.0 + 1e-6
    assert golden.compare("train", train, ref["train"])[1] == 1
    train["ckpt_sha256"] = "0" * 64
    assert golden.compare("train", train, ref["train"])[1] == 1  # sums still agree
    train["ckpt_sums"][0] += 1.0
    assert golden.compare("train", train, ref["train"])[1] == 2
    report = copy.deepcopy(ref["eval"])
    report["report"]["per_modality"]["ct"]["ap50"] += 1e-6
    assert golden.compare("eval", report, ref["eval"])[1] == 1


def test_step_clock_stops_the_loop(tmp_path):
    cfg = workloads.pretrain_config(2, workloads.SIZES["tiny"])
    t0 = time.perf_counter()
    seg = workloads._step_segment("pretrain", cfg, 0.3, str(tmp_path), Gauge())
    assert time.perf_counter() - t0 < 30.0
    assert seg.attempted == len(seg.ends) == len(seg.resumes) >= 2 and seg.failed == 0
    assert len(seg.setup) == 1 and len(seg.iter_ms) == seg.attempted - 1


def test_scale_factors_follow_the_running_median():
    from perfbench.speed import REFERENCE_MS
    factors = scale_factors([REFERENCE_MS] * 3 + [2 * REFERENCE_MS] * 5 + [100.0])
    assert factors[0] == 1.0 and factors[5] == 0.5
    assert factors[-1] == 0.5  # one outlying reading does not move it
