"""Training loops: alignment pretraining and detection training.

Every run is a pure function of (config, seed): model init, batch order,
class draws, and queue shuffles all derive from the config seed through
named substreams, and metric rows are written with repr() floats, so two
runs of the same config produce byte-identical checkpoints and logs.

``RunConfig.moca`` is the one MoCA switch: only with it on do detection
training and evaluation give the decoder modality tokens and train and store
the token projection. Pretraining always uses tokens, as QueryREPA needs them.

Both loops take their steps through ``optimizer_step``. Each runs every
check that can reject the run (the config when it is made, the pretraining
checkpoint, the data, the token registry and the stored weights in
``build_run``, the batch sampler, the optimizer) before its first write, so
a rejected run leaves no run directory behind; the metric logs are closed
however the loop ends.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .checkpoint import StoredArrays, load_checkpoint, save_checkpoint
from .config import RunConfig
from .data import ModalityBatchSampler, attach_token, generate_synthetic
from .detector import Detector, DetectorOutput, FeedForward
from .errors import CheckpointError, ValidationError
from .evaluation import DETECTION, ap_report, detections_from_output
from .fileio import atomic_write, make_dirs
from .losses import detection_loss
from .optim import AdamW
from .queryrepa import batch_alignment_loss
from .tokens import TokenProjection, build_registry, load_registry

# substream tags for the run's seed tree
_SS_MODEL, _SS_PROJ, _SS_GPHI, _SS_BATCH, _SS_CLASS, _SS_SAMPLER = 1, 2, 3, 4, 5, 6

# Images per inference forward. Inference keeps no tape, so this is not the
# training batch: with the default model and 64x64 images, a no-tape forward
# of 16 images holds 6.6 MB traced at its peak, against 11.5 MB for one B=4
# training step, and the forward's cost per image falls from 2.8 ms at B=1 to
# 1.5 ms at B=8, then stays level up to B=24 (one BLAS thread).
INFERENCE_BATCH = 16

# glibc's mallopt parameter numbers (<malloc.h>) and the values set for them
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD_BYTES = 1 << 30
_MMAP_THRESHOLD_BYTES = 1 << 20


@dataclass
class RunBundle:
    config: RunConfig
    train_samples: list
    val_samples: list
    registry: object
    model: Detector
    # None in a run without MoCA built from a detection checkpoint, which stores none
    projection: TokenProjection | None

    @property
    def n_classes(self) -> int:
        return len(self.config.dataset.global_classes)

    def detection_parameters(self) -> list:
        """What a detection run trains, stores and restores: the model, plus
        the token projection when the run uses MoCA."""
        return self.model.parameters() + (self.projection.parameters() if self.config.moca else [])

    def forward(self, batch, class_rng: np.random.Generator | None = None,
                final_heads_only: bool = False) -> DetectorOutput:
        """The detector on a batch's stacked images, with the batch's token
        rows when the run uses MoCA (drawn from ``class_rng`` in training,
        modality means without it); ``final_heads_only`` as in
        ``Detector.decode``."""
        tokens = (attach_token(batch, self.config.dataset, self.registry, self.projection,
                               class_rng) if self.config.moca else None)
        return self.model.forward(np.stack([s.image for s in batch]), tokens,
                                  final_heads_only=final_heads_only)


def _sub_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def _keep_freed_heap() -> None:
    """Let glibc's malloc keep the memory a step frees for the next step.

    A training step allocates and frees the same few thousand tape arrays
    every time. By default glibc hands the freed top of the heap back to the
    kernel after each step, and serves arrays past its adaptive mmap
    threshold with fresh mappings, so the next step faults every page in
    again: about 1,000 minor page faults per default-size B=4 step. Keeping
    up to 1 GiB of freed heap and placing blocks under 1 MiB on the heap
    brings that to about 1. With the trim setting alone, blocks over the
    default 128 KiB mmap threshold are still mapped afresh: 8 to 27 faults
    per step. A 32 MiB threshold would also put the largest arrays of
    ``mocadet eval`` on the heap and raise its peak memory by about 5%.
    Only glibc has these settings: elsewhere, and if the call fails, this
    does nothing.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)


def build_run(config: RunConfig, weights: dict | None = None) -> RunBundle:
    """The data, token registry, model and token projection of a run.

    Without ``weights`` the model and the projection draw their initial
    values from the run's seed. ``weights`` is a detection checkpoint's
    ``{name: array}``, as ``load_checkpoint`` read and checked it, or what
    ``pretrained_weights`` keeps of a pretraining checkpoint's: nothing is
    drawn, and the modules are built from it (``StoredArrays``), each
    detection parameter holding the stored array itself. Any other table
    than the run's detection parameters, in order, is a CheckpointError: a
    missing, extra, renamed, reordered or reshaped entry. A run without
    MoCA then has no projection.

    Every run starts here, so this first sets the process's allocator policy
    (``_keep_freed_heap``): on glibc, memory freed by one step is reused by
    the next instead of being returned to the kernel and faulted back in.
    """
    _keep_freed_heap()
    spec = config.dataset
    train_samples = generate_synthetic(spec, "train")
    val_samples = generate_synthetic(spec, "val") if "val" in spec.counts else []

    if config.tokens.source == "synthetic":
        registry = build_registry(spec.token_pairs(), d_text=config.tokens.d_text,
                                  seed64=config.tokens.seed)
    else:
        registry = load_registry(config.tokens.path)
        for pair in spec.token_pairs():
            registry.embedding(*pair)  # fail loudly on undeclared pairs

    if weights is None:
        model_init, projection_init = (ad.Drawn(np.random.default_rng(
            np.random.SeedSequence([config.seed, tag]))) for tag in (_SS_MODEL, _SS_PROJ))
    else:
        model_init = projection_init = StoredArrays(weights)
    model = Detector(config.detector_config, model_init)
    projection = (TokenProjection(model.config.d_model, registry.d_text, projection_init)
                  if weights is None or config.moca else None)
    bundle = RunBundle(config=config, train_samples=train_samples, val_samples=val_samples,
                       registry=registry, model=model, projection=projection)
    if weights is not None:
        extra = model_init.check_names(bundle.detection_parameters())
        if extra:
            raise CheckpointError(f"unexpected checkpoint parameters: {extra}")
    return bundle


def optimizer_step(optimizer: AdamW, loss_of) -> float:
    """One update on the scalar loss that ``loss_of()`` builds: zero the
    gradients, record the loss on a fresh tape, backpropagate, step.
    Returns the loss value."""
    optimizer.zero_grad()
    with ad.Tape():
        loss = loss_of()
        value = loss.item()
        ad.backward(loss)
    optimizer.step()
    return value


@contextmanager
def _csv_log(path, columns):
    """An append-only metric log, open for the ``with`` block: yields a
    function that writes one flushed line per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        def row(values) -> None:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in values) + "\n")
            fh.flush()
        row(columns)
        yield row


def _echo_config(config: RunConfig, out_dir: str) -> None:
    make_dirs(out_dir)
    with atomic_write(os.path.join(out_dir, "config.json")) as fh:
        json.dump(config.to_json(), fh, sort_keys=True, indent=1)


def _save(path: str, named, config: RunConfig, phase: str, step: int) -> None:
    save_checkpoint(path, named, config.to_json(), phase=phase, step=step,
                    seeds={"seed": config.seed})


def _read_checkpoint(path: str, phase: str) -> tuple:
    """(run config, {name: array}) of a ``phase`` checkpoint; a missing or
    malformed file, another phase or a bad stored config is a CheckpointError."""
    header, stored = load_checkpoint(path)
    if header.get("phase") != phase:
        raise CheckpointError(f"{path} is not a {phase} checkpoint")
    try:
        return RunConfig.from_json(header.get("config")), stored
    except ValidationError as e:
        raise CheckpointError(f"{path}: bad checkpoint config: {e}") from e


def run_pretrain(config: RunConfig, out_dir: str) -> dict:
    """Alignment-only pretraining; no detection loss is ever computed."""
    bundle = build_run(config)
    d = bundle.model.config.d_model
    gphi = FeedForward(d, d, ad.Drawn(np.random.default_rng(
        np.random.SeedSequence([config.seed, _SS_GPHI]))))
    named = (bundle.model.parameters() + bundle.projection.parameters()
             + gphi.parameters("gphi"))
    optimizer = AdamW(named, lr=config.qra.lr, weight_decay=config.optim.weight_decay)
    sampler = ModalityBatchSampler(bundle.train_samples, config.dataset.n_modalities,
                                   config.qra_batch_size,
                                   seed=_sub_seed(config.seed, _SS_SAMPLER))
    class_rng = np.random.default_rng(np.random.SeedSequence([config.seed, _SS_CLASS]))
    _echo_config(config, out_dir)
    losses = []
    with _csv_log(os.path.join(out_dir, "pretrain_steps.csv"), ["step", "loss"]) as log:
        for step in range(config.qra.steps):
            batch = sampler.next_batch()
            losses.append(optimizer_step(optimizer, lambda: batch_alignment_loss(
                batch, bundle.model, config.dataset, bundle.registry, bundle.projection,
                gphi, config.qra.tau, config.qra.layer, class_rng)))
            log([step, losses[-1]])
    ckpt = os.path.join(out_dir, "pretrain.ckpt")
    _save(ckpt, named, config, "pretrain", config.qra.steps)
    return {"checkpoint": ckpt, "losses": losses}


def pretrained_weights(config: RunConfig, ckpt_path: str) -> dict:
    """The arrays of a pretraining checkpoint that detection run ``config``
    starts from, for ``build_run(config, weights)``: the model's, and the
    token projection's when the run uses MoCA.

    The alignment head, stored after them, is deliberately dropped: it
    exists only for the contrastive stage. The stored run must have the same
    dataset, tokens and resolved model, however its ``model`` section
    spells it.
    """
    stored_config, stored = _read_checkpoint(ckpt_path, "pretrain")
    for section, attr in (("model", "detector_config"), ("dataset", "dataset"),
                          ("tokens", "tokens")):
        if getattr(stored_config, attr) != getattr(config, attr):
            raise CheckpointError(
                f"checkpoint config section {section!r} does not match the run config")
    dropped = ("gphi.",) if config.moca else ("gphi.", TokenProjection.prefix + ".")
    return {name: arr for name, arr in stored.items() if not name.startswith(dropped)}


def evaluate(bundle: RunBundle, samples):
    """Validation metrics with inference tokens (modality means, no labels).

    Images run ``INFERENCE_BATCH`` at a time through one no-tape forward
    each, whatever the run's training ``batch_size``, with the heads on the
    last decoder layer only, the one the detections come from; MoCA tokens
    are used when ``config.moca`` is on.
    """
    spec = bundle.config.dataset
    detections = [np.empty(0, dtype=DETECTION)]
    with ad.no_grad():
        for start in range(0, len(samples), INFERENCE_BATCH):
            batch = samples[start:start + INFERENCE_BATCH]
            output = bundle.forward(batch, final_heads_only=True)
            detections.append(detections_from_output(output, range(start, start + len(batch))))
    class_modality = [mi for mi, m in enumerate(spec.modalities) for _ in m.classes]
    return ap_report(np.concatenate(detections), samples, bundle.n_classes,
                     modality_names=spec.modality_names,
                     class_modality=class_modality)


def run_train(config: RunConfig, out_dir: str, from_pretrain: str | None = None) -> dict:
    """Detection training (optionally resumed from alignment pretraining),
    with MoCA tokens when ``config.moca`` is on."""
    bundle = build_run(config, None if from_pretrain is None
                       else pretrained_weights(config, from_pretrain))
    named = bundle.detection_parameters()
    optimizer = AdamW(named, lr=config.optim.lr, weight_decay=config.optim.weight_decay)
    class_rng = np.random.default_rng(np.random.SeedSequence([config.seed, _SS_CLASS]))
    _echo_config(config, out_dir)
    n = len(bundle.train_samples)
    step = 0
    best = {"ap": -1.0, "ap50": -1.0, "epoch": -1}
    last_eval = None
    with _csv_log(os.path.join(out_dir, "metrics_steps.csv"),
                  ["step", "epoch", "loss", "lr"]) as steps_log, \
            _csv_log(os.path.join(out_dir, "metrics_epochs.csv"),
                     ["epoch", "ap", "ap50", "ap75"]) as epochs_log:
        for epoch in range(config.optim.epochs):
            optimizer.lr = config.optim.lr_at(epoch)
            order = np.random.default_rng(
                np.random.SeedSequence([config.seed, _SS_BATCH, epoch])).permutation(n)
            for start in range(0, n, config.batch_size):
                batch = [bundle.train_samples[i] for i in order[start:start + config.batch_size]]
                targets = [(s.class_ids, np.array([a.box for a in s.annotations]))
                           for s in batch]
                value = optimizer_step(optimizer, lambda: detection_loss(
                    bundle.forward(batch, class_rng).layers, targets, config.loss))
                steps_log([step, epoch, value, optimizer.lr])
                step += 1

            if bundle.val_samples and ((epoch + 1) % config.eval_every == 0
                                       or epoch == config.optim.epochs - 1):
                report = last_eval = evaluate(bundle, bundle.val_samples)
                epochs_log([epoch, report.ap or 0.0, report.ap50 or 0.0, report.ap75 or 0.0])
                if (report.ap or 0.0) > best["ap"]:
                    best = {"ap": report.ap or 0.0, "ap50": report.ap50 or 0.0,
                            "epoch": epoch}
                    _save(os.path.join(out_dir, "best.ckpt"), named, config, "detection", step)

    final_ckpt = os.path.join(out_dir, "final.ckpt")
    _save(final_ckpt, named, config, "detection", step)
    summary = {
        "moca": config.moca,
        "resumed_from_pretrain": from_pretrain is not None,
        "steps": step,
        "best": best,
        "final": {"ap": (last_eval.ap or 0.0) if last_eval else None,
                  "ap50": (last_eval.ap50 or 0.0) if last_eval else None},
        "checkpoint_final": "final.ckpt",
        "checkpoint_best": "best.ckpt" if best["epoch"] >= 0 else None,
    }
    with atomic_write(os.path.join(out_dir, "report.json")) as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
    return dict(summary, from_pretrain=from_pretrain, checkpoint_final=final_ckpt,
                checkpoint_best=(os.path.join(out_dir, "best.ckpt")
                                 if best["epoch"] >= 0 else None))


def load_detector_for_eval(ckpt_path: str) -> RunBundle:
    """The bundle of a detection checkpoint: its stored config, and a model
    that ``build_run(config, weights)`` builds from the stored arrays
    themselves, with no random draw, no zero model and no copy.
    ``evaluate`` then forwards ``INFERENCE_BATCH`` images at a time."""
    return build_run(*_read_checkpoint(ckpt_path, "detection"))
