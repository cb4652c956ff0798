"""The benchmark's workloads: ``train``, ``pretrain`` and ``eval``.

Each runs the program through its user-facing entry points
(``train.run_train``, ``train.run_pretrain`` and ``cli.main(["eval", ...])``)
as a closed loop with one caller, so a later change to how those entry
points drive the model is measured too. Every input is generated from the
workload seed; the program receives only configs and files.

``train``    default model (d=64, 25 queries, 6 decoder layers, 64x64 images,
             five modalities), B=4, MoCA on. Every step backpropagates a tape
             of about five thousand nodes and runs 24 cost matrices and
             Hungarian matchings, so ``autodiff``, ``losses`` and ``optim``
             do most of their work here.
``pretrain`` QueryREPA at decoder layer 5 with B=5, one sample per modality.
             Same detector and tape, larger batch, contrastive loss and no
             matching: a ``losses`` change predicts no change here.
``eval``     repeated ``mocadet eval`` of a seeded checkpoint, each on one of
             four 10-image val shards in turn. No tape, no loss, no
             optimizer; ``ap_report`` and the per-invocation checkpoint load
             and ``build_run`` dominate.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import resource
import statistics
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout

from perfbench import golden, layers
from perfbench.inputs import SIZES, make_fixture, pretrain_config, train_config
from perfbench.speed import REFERENCE_MS, Gauge, scale_factors
from perfbench.stats import paired_overhead_pct, tail_percentile
from perfbench.tracing import Hooks, StepClock, StopRun, Tracer, stopwatch

WORKLOADS = ("train", "pretrain", "eval")
SETUP_REPEATS = 7  # set-up is repeated and its median reported

# -- one measured segment ------------------------------------------------------


@dataclasses.dataclass
class Segment:
    """Iteration stamps of one measured loop, warm-up iteration first.

    Iteration k runs from ``resumes[k-1]`` to ``ends[k]``; the speed gauge
    runs between ``ends[k]`` and ``resumes[k]`` and reads ``gauge_ms[k]``.
    """
    ends: list
    resumes: list
    gauge_ms: list
    samples_per_iter: int
    attempted: int = 0
    failed: int = 0
    setup: list = dataclasses.field(default_factory=list)  # (wall s, gauge ms)
    missing: list = dataclasses.field(default_factory=list)
    notes: list = dataclasses.field(default_factory=list)

    @property
    def raw_iter_ms(self) -> list:
        return [1e3 * (e - r) for r, e in zip(self.resumes, self.ends[1:])]

    @property
    def factors(self) -> list:
        return scale_factors(self.gauge_ms)

    @property
    def iter_ms(self) -> list:
        """Measured iterations in ms at the reference speed."""
        return [t * f for t, f in zip(self.raw_iter_ms, self.factors[1:])]

    @property
    def samples_per_s(self) -> float:
        return 1e3 * self.samples_per_iter * len(self.iter_ms) / sum(self.iter_ms)


def _step_segment(workload: str, cfg, seconds: float, out_dir: str, gauge: Gauge,
                  tracer: Tracer | None = None, extra_setups: int = 0) -> Segment:
    """One time-limited ``run_train`` or ``run_pretrain`` call.

    An iteration is one optimizer step: from one ``AdamW.step`` return to
    the next, less the gauge run in between. Set-up is the program's
    ``build_run``.
    """
    from mocadet import train
    clock = StepClock(seconds, gauge)
    builds: list = []
    with Hooks() as hooks:
        # span hooks go on first, so the clock and the gauge wrap them
        labels = layers.install(hooks, tracer) if tracer is not None else None
        if hooks.add("mocadet.optim", "AdamW.step", clock.wrap).status != "installed":
            raise RuntimeError("cannot time iterations: mocadet.optim.AdamW.step is gone")
        hooks.add("mocadet.train", "build_run", stopwatch(builds, gauge))
        for _ in range(extra_setups):
            train.build_run(cfg)
        entry = train.run_train if workload == "train" else train.run_pretrain
        try:
            with tracer if tracer is not None else nullcontext():
                entry(cfg, out_dir)
        except StopRun:
            pass
        missing = hooks.missing() + layers.unlabelled(labels)
    log = "metrics_steps.csv" if workload == "train" else "pretrain_steps.csv"
    losses = golden.read_losses(os.path.join(out_dir, log))
    steps = len(clock.ends)
    # a step whose loss is missing, non-finite or negative is a failed step:
    # both objectives are sums of non-negative terms
    bad = sum(1 for v in losses[:steps] if not (math.isfinite(v) and v >= 0.0))
    failed = bad + max(steps - len(losses), 0)
    batch = cfg.batch_size if workload == "train" else cfg.qra_batch_size
    notes = [f"{bad} bad losses"] if bad else []
    return Segment(clock.ends, clock.resumes, clock.gauge_ms, batch, attempted=steps,
                   failed=failed, setup=builds, missing=missing, notes=notes)


def _eval_segment(ckpt: str, shards: list, n_images: int, seconds: float,
                  out_dir: str, gauge: Gauge, tracer: Tracer | None = None) -> Segment:
    """Repeated in-process ``mocadet eval --ckpt --data --out``.

    An iteration is one invocation; invocations rotate through the val
    shards. Each writes its own report; after the loop every report must
    equal the first report of its shard.
    """
    from mocadet import cli
    os.makedirs(out_dir, exist_ok=True)
    ends: list = []
    resumes: list = []
    gauge_ms: list = []
    codes: list = []
    errors: list = []
    with Hooks() as hooks:
        labels = layers.install(hooks, tracer) if tracer is not None else None
        with tracer if tracer is not None else nullcontext():
            while len(ends) < 2 or ends[-1] < ends[0] + seconds:
                i = len(ends)
                err = io.StringIO()
                with redirect_stdout(io.StringIO()), redirect_stderr(err):
                    codes.append(cli.main(["eval", "--ckpt", ckpt, "--data",
                                           shards[i % len(shards)], "--out",
                                           os.path.join(out_dir, f"report_{i}.json")]))
                ends.append(time.perf_counter())
                gauge_ms.append(gauge.measure())
                if codes[-1] != 0:
                    errors.append(err.getvalue().strip())
                resumes.append(time.perf_counter())
        missing = hooks.missing() + layers.unlabelled(labels)
    reports = []
    for i in range(len(ends)):
        try:
            with open(os.path.join(out_dir, f"report_{i}.json"), "r", encoding="utf-8") as fh:
                reports.append(json.load(fh))
        except (OSError, json.JSONDecodeError):
            reports.append(None)
    failed = sum(1 for i, (code, rep) in enumerate(zip(codes, reports))
                 if code != 0 or rep is None or rep != reports[i % len(shards)])
    return Segment(ends, resumes, gauge_ms, n_images, attempted=len(ends), failed=failed,
                   missing=missing, notes=errors[:1])


# -- the MoCA latency probe ------------------------------------------------------


def moca_probe(ckpt: str, shards: list, pairs: int) -> tuple:
    """Paired decoder latency with and without the MoCA token row.

    Both arms decode the same encoder memory with the same weights; the arms
    alternate inside each pair (AB, BA, AB, ...) so drift and order effects
    cancel. Returns (overhead %, 95% lo, 95% hi).
    """
    from mocadet import autodiff as ad
    from mocadet import data, train
    bundle = train.load_detector_for_eval(ckpt)
    samples, spec = data.load_dataset(shards[0], "val")
    model = bundle.model
    with ad.no_grad():
        memory = model.encode(samples[0].image)
        token = data.modality_mean_token(spec, bundle.registry, bundle.projection,
                                         samples[0].modality_id)

        def once(tok) -> float:
            t0 = time.perf_counter()
            model.decode(memory, tok)
            return time.perf_counter() - t0

        for _ in range(5):
            once(None)
            once(token)
        base, moca = [], []
        for i in range(pairs):
            if i % 2:
                moca.append(once(token))
                base.append(once(None))
            else:
                base.append(once(None))
                moca.append(once(token))
    return paired_overhead_pct(base, moca)


# -- a whole run -------------------------------------------------------------------


@dataclasses.dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    notes: dict


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _segments(workload: str, seed: int, size: dict, workdir: str, plan: list,
              gauge: Gauge) -> tuple:
    """Runs the set-up and the segments in ``plan``, a list of (seconds, tracer)."""
    segments = []
    if workload == "eval":
        setup = []
        for _ in range(SETUP_REPEATS if len(plan) == 1 else 1):
            t0 = time.perf_counter()
            fixture = make_fixture(seed, size, os.path.join(workdir, "fixture"))
            setup.append((time.perf_counter() - t0, gauge.measure()))
        for i, (seconds, tracer) in enumerate(plan):
            segments.append(_eval_segment(*fixture, size["eval_val"], seconds,
                                          os.path.join(workdir, f"reports{i}"), gauge, tracer))
        return segments, setup, fixture
    make = train_config if workload == "train" else pretrain_config
    cfg = make(seed, size)
    extra = SETUP_REPEATS - 1 if len(plan) == 1 else 0
    for i, (seconds, tracer) in enumerate(plan):
        segments.append(_step_segment(workload, cfg, seconds, os.path.join(workdir, f"run{i}"),
                                      gauge, tracer, extra_setups=extra))
    return segments, [r for seg in segments for r in seg.setup], None


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str,
        size: str = "full") -> Result:
    """One benchmark run; end-to-end metrics untraced, per-layer when traced."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sz = SIZES[size]
    gauge = Gauge()
    tracer = Tracer() if trace else None
    # A traced run measures half its time untraced and half traced, so the
    # tracing overhead is known from the same process.
    plan = [(seconds / 2, None), (seconds / 2, tracer)] if trace else [(seconds, None)]
    segments, setup, fixture = _segments(workload, seed, sz, workdir, plan, gauge)
    peak_rss = _peak_rss_mb()
    notes = {"iterations": [len(s.iter_ms) for s in segments],
             "gauge_ms_median": [statistics.median(s.gauge_ms) for s in segments],
             "raw_iter_ms_p50": [statistics.median(s.raw_iter_ms) for s in segments],
             "missing_hooks": sorted({m for s in segments for m in s.missing}),
             "errors": [n for s in segments for n in s.notes]}
    if trace:
        untraced, traced_seg = segments
        metrics = {name: (0.0, unit) for name, unit in layers.per_layer_metrics()}
        per_layer = layers.aggregate(tracer, traced_seg.ends, traced_seg.resumes,
                                     traced_seg.factors)
        for name, value in per_layer.items():
            metrics[name] = (value, metrics[name][1])
        overhead = 100.0 * (untraced.samples_per_s / traced_seg.samples_per_s - 1.0)
        metrics[layers.TRACE_OVERHEAD] = (overhead, "%")
        if workload == "eval":
            moca = moca_probe(*fixture, pairs=sz["probe_pairs"])
            for name, value in zip(layers.MOCA, moca):
                metrics[name] = (value, "%")
        notes["spans"] = len(tracer.spans)
    else:
        (seg,) = segments
        p90, pct = tail_percentile(seg.iter_ms)
        # set-up takes about a second, well inside one speed level, so one
        # factor from the median gauge reading scales every repeat
        walls, gauges = zip(*setup)
        setup_s = statistics.median(walls) * REFERENCE_MS / statistics.median(gauges)
        metrics = {
            "setup_s": (setup_s, "s"),
            "samples_per_s": (seg.samples_per_s, "samples/s"),
            "iter_ms_p50": (statistics.median(seg.iter_ms), "ms"),
            "iter_ms_p90": (p90, "ms"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
        notes["tail_percentile"] = pct
        notes["raw_setup_s"] = list(walls)
    g_attempted, g_failed, g_notes = golden.check(workload, os.path.join(workdir, "golden"))
    notes["golden"] = g_notes
    attempted = sum(s.attempted for s in segments) + g_attempted
    failed = sum(s.failed for s in segments) + g_failed
    return Result(attempted, failed, metrics, notes)
