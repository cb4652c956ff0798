"""The per-layer table: which public callable each layer metric times.

Each entry becomes ``<stem>_ms`` (median per iteration of the time spent in
the layer) and a call count, plus an optional work count. Spans are taken
at the program's public functions from these benchmark files; a later
change that renames a target shows up as a ``missing`` hook, not a crash.
"""

from __future__ import annotations

import statistics
import weakref
from bisect import bisect_left
from dataclasses import dataclass

from perfbench.tracing import Hooks, Tracer, traced

N_DECODER_LAYERS = 6
DECODER_PARTS = ("self_attn", "cross_attn", "ffn")


@dataclass(frozen=True)
class Layer:
    stem: str
    targets: tuple  # (module, qualname) pairs timed under this stem
    calls: str = ""  # call-count metric; default <stem>_calls
    count: str = ""  # work-count metric fed by the span counts
    counter: str = ""  # tape_growth | tape_len | result_len
    self_time: bool = False  # time without child spans
    timed: bool = True  # False: the span only carries its count

    @property
    def calls_metric(self) -> str:
        return self.calls or f"{self.stem}_calls"


LAYERS = (
    Layer("train.build_run", (("mocadet.train", "build_run"),)),
    Layer("data.generate", (("mocadet.data", "generate_synthetic"),),
          count="data.generate_images", counter="result_len"),
    Layer("data.load_dataset", (("mocadet.data", "load_dataset"),)),
    Layer("data.attach_token", (("mocadet.data", "attach_token"),
                                ("mocadet.data", "modality_mean_token"))),
    Layer("checkpoint.load", (("mocadet.checkpoint", "load_checkpoint"),)),
    Layer("detector.forward", (("mocadet.detector", "Detector.forward"),),
          count="detector.tape_nodes", counter="tape_growth", timed=False),
    Layer("detector.encode", (("mocadet.detector", "Detector.encode"),)),
    Layer("detector.decode", (("mocadet.detector", "Detector.decode"),)),
    Layer("autodiff.backward", (("mocadet.autodiff", "backward"),),
          count="autodiff.tape_nodes", counter="tape_len"),
    Layer("losses.cost_matrix", (("mocadet.losses", "build_cost_matrix"),)),
    Layer("losses.hungarian", (("mocadet.losses", "hungarian"),),
          calls="losses.match_calls"),
    Layer("losses.assembly", (("mocadet.losses", "detection_loss"),),
          count="losses.tape_nodes", counter="tape_growth", self_time=True),
    Layer("queryrepa.alignment", (("mocadet.queryrepa", "batch_alignment_loss"),),
          self_time=True),
    Layer("optim.step", (("mocadet.optim", "AdamW.step"),)),
    Layer("evaluation.detections", (("mocadet.evaluation", "detections_from_output"),),
          count="evaluation.n_detections", counter="result_len"),
    Layer("evaluation.ap_report", (("mocadet.evaluation", "ap_report"),)),
)

# Sub-layers of the detector are told apart by instance: the wrapped class
# methods are shared by the encoder, every decoder layer and the heads.
INSTANCE_LAYERS = tuple(
    [Layer(f"detector.dec{i}.{part}", ()) for i in range(N_DECODER_LAYERS)
     for part in DECODER_PARTS] + [Layer("detector.heads", ())])
INSTANCE_TARGETS = (("mocadet.detector", "MultiHeadAttention.attend"),
                    ("mocadet.detector", "FeedForward.__call__"),
                    ("mocadet.detector", "Linear.__call__"))

GC_MS, GC_CALLS = "runtime.gc_ms", "runtime.gc_collections"
MOCA = ("detector.moca_overhead_pct", "detector.moca_overhead_pct_lo",
        "detector.moca_overhead_pct_hi")
TRACE_OVERHEAD, TRACE_UNCOVERED = "trace.overhead_pct", "trace.uncovered_pct"


def per_layer_metrics() -> list:
    """Every metric a traced run prints, as (name, unit), in print order."""
    out = []
    for layer in LAYERS + INSTANCE_LAYERS:
        if layer.timed:
            out += [(f"{layer.stem}_ms", "ms"), (layer.calls_metric, "count")]
        if layer.count:
            out.append((layer.count, "count"))
    out += [(GC_MS, "ms"), (GC_CALLS, "count")]
    out += [(name, "%") for name in MOCA + (TRACE_OVERHEAD, TRACE_UNCOVERED)]
    return out


# -- installing the spans ------------------------------------------------------


def _tape_len() -> int:
    from mocadet import autodiff
    tape = autodiff.active_tape()
    return len(tape.nodes) if tape is not None else 0


_COUNTERS = {
    "tape_growth": (lambda args: _tape_len(), lambda before, result: _tape_len() - before),
    "tape_len": (lambda args: _tape_len(), lambda before, result: before),
    "result_len": (None, lambda before, result: len(result)),
}


class _InstanceLabels:
    """Span names for the decoder sub-layers and heads of each Detector."""

    def __init__(self):
        self.names = weakref.WeakKeyDictionary()
        self._seen = weakref.WeakSet()
        self.unlabelled = False

    def label(self, detector) -> None:
        if detector in self._seen:
            return
        self._seen.add(detector)
        try:
            for i, layer in enumerate(detector.decoder):
                for part in DECODER_PARTS:
                    self.names[getattr(layer, part)] = f"detector.dec{i}.{part}"
            for head in (detector.cls_head, detector.box_hidden, detector.box_out):
                self.names[head] = "detector.heads"
        except (AttributeError, TypeError):
            self.unlabelled = True

    def name_of(self, args):
        return self.names.get(args[0]) if args else None


def unlabelled(labels) -> list:
    """The sub-layer targets whose spans cannot be named, as missing hooks."""
    if labels is None or not labels.unlabelled:
        return []
    return [f"{module}.{qualname}" for module, qualname in INSTANCE_TARGETS]


def install(hooks: Hooks, tracer: Tracer) -> _InstanceLabels:
    """Adds one span hook per target of the table to ``hooks``."""
    labels = _InstanceLabels()
    for layer in LAYERS:
        before, after = _COUNTERS.get(layer.counter, (None, None))
        if layer.stem == "detector.decode":
            # names the sub-layers of each detector before its first decode
            def before(args):
                labels.label(args[0])
        for module, qualname in layer.targets:
            hooks.add(module, qualname, traced(tracer, layer.stem, before, after))
    for module, qualname in INSTANCE_TARGETS:
        hooks.add(module, qualname, traced(tracer, labels.name_of))
    return labels


# -- per-iteration aggregation ---------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def aggregate(tracer: Tracer, ends: list, resumes: list, factors: list) -> dict:
    """Per-layer metrics from the spans of one traced segment.

    ``ends`` are the end times of the iterations, warm-up first, and
    ``resumes`` the times the loop went on after each; ``factors`` scale
    each iteration's times to the reference speed. A span belongs to the
    iteration in which it starts: iteration k for a start in
    (ends[k-1], ends[k]]. Each value is the median over the measured
    iterations of the per-iteration total. A layer that never runs in a
    measured iteration reports its total over the untimed prefix (set-up and
    warm-up) instead, so set-up work such as ``build_run`` on ``train``
    still shows.
    """
    n_iter = max(len(ends) - 1, 0)
    layers = {layer.stem: layer for layer in LAYERS + INSTANCE_LAYERS}
    # per stem: [time, calls, count] rows; row 0 is the untimed prefix
    table = {stem: [[0.0, 0, 0] for _ in range(n_iter + 1)] for stem in layers}
    covered = [0.0] * (n_iter + 1)
    self_times = tracer.self_times()
    for span, self_time in zip(tracer.spans, self_times):
        k = bisect_left(ends, span.start)
        if k > n_iter:
            continue
        if span.parent < 0:
            covered[k] += span.duration
        layer = layers.get(span.name)
        if layer is None or not span.outer:
            continue
        row = table[span.name][k]
        row[0] += factors[k] * (self_time if layer.self_time else span.duration)
        row[1] += 1
        row[2] += span.count
    gc_rows = [[0.0, 0] for _ in range(n_iter + 1)]
    for start, end in tracer.gc_events:
        k = bisect_left(ends, start)
        if k <= n_iter:
            gc_rows[k][0] += factors[k] * (end - start)
            gc_rows[k][1] += 1

    def pick(rows, col):
        if any(row[1] for row in rows[1:]):
            return _median([row[col] for row in rows[1:]])
        return rows[0][col]

    out = {}
    for stem, rows in table.items():
        layer = layers[stem]
        if layer.timed:
            out[f"{stem}_ms"] = 1e3 * pick(rows, 0)
            out[layer.calls_metric] = pick(rows, 1)
        if layer.count:
            out[layer.count] = pick(rows, 2)
    out[GC_MS] = 1e3 * pick(gc_rows, 0)
    out[GC_CALLS] = pick(gc_rows, 1)
    widths = [e - r for r, e in zip(resumes, ends[1:])]
    out[TRACE_UNCOVERED] = 100.0 * _median(
        [(w - c) / w for w, c in zip(widths, covered[1:]) if w > 0])
    return out
