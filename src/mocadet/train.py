"""Training loops: alignment pretraining and detection training.

Every run is a pure function of (config, seed): model init, batch order,
class draws, and queue shuffles all derive from the config seed through
named substreams, and metric rows are written with repr() floats, so two
runs of the same config produce byte-identical checkpoints and logs.

``RunConfig.moca`` is the one MoCA switch: only with it on do detection
training and evaluation give the decoder modality tokens and train and store
the token projection. Pretraining always uses tokens, as QueryREPA needs them.

Both loops take their steps through ``optimizer_step``. Each runs every
check that can reject the run (the config and data in ``build_run``, the
batch sampler, the pretraining checkpoint, the optimizer) before its first
write, so a rejected run leaves no run directory behind; the metric logs are
closed however the loop ends.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .checkpoint import load_checkpoint, restore_params, save_checkpoint
from .config import RunConfig
from .data import ModalityBatchSampler, attach_token, generate_synthetic
from .detector import Detector, DetectorOutput, FeedForward
from .errors import CheckpointError, ValidationError
from .evaluation import DETECTION, ap_report, detections_from_output
from .fileio import atomic_write
from .losses import detection_loss
from .optim import AdamW
from .queryrepa import batch_alignment_loss
from .tokens import TokenProjection, build_registry, load_registry

# substream tags for the run's seed tree
_SS_MODEL, _SS_PROJ, _SS_GPHI, _SS_BATCH, _SS_CLASS, _SS_SAMPLER = 1, 2, 3, 4, 5, 6


@dataclass
class RunBundle:
    config: RunConfig
    train_samples: list
    val_samples: list
    registry: object
    model: Detector
    projection: TokenProjection

    @property
    def n_classes(self) -> int:
        return len(self.config.dataset.global_classes)

    def detection_parameters(self) -> list:
        """What a detection run trains, stores and restores: the model, plus
        the token projection when the run uses MoCA."""
        return self.model.parameters() + (self.projection.parameters() if self.config.moca else [])

    def forward(self, batch, class_rng: np.random.Generator | None = None) -> DetectorOutput:
        """The detector on a batch's stacked images, with the batch's token
        rows when the run uses MoCA (drawn from ``class_rng`` in training,
        modality means without it)."""
        tokens = (attach_token(batch, self.config.dataset, self.registry, self.projection,
                               class_rng) if self.config.moca else None)
        return self.model.forward(np.stack([s.image for s in batch]), tokens)


def _sub_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def build_run(config: RunConfig) -> RunBundle:
    config.validate()
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

    det_cfg = config.detector_config()
    model = Detector(det_cfg, np.random.default_rng(
        np.random.SeedSequence([config.seed, _SS_MODEL])))
    projection = TokenProjection(det_cfg.d_model, registry.d_text,
                                 np.random.default_rng(
                                     np.random.SeedSequence([config.seed, _SS_PROJ])))
    return RunBundle(config=config, train_samples=train_samples, val_samples=val_samples,
                     registry=registry, model=model, projection=projection)


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
    os.makedirs(out_dir, exist_ok=True)
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
    gphi = FeedForward(d, d, np.random.default_rng(np.random.SeedSequence([config.seed, _SS_GPHI])))
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


def load_pretrained(bundle: RunBundle, ckpt_path: str) -> None:
    """Restore detector + token projection from a pretraining checkpoint.

    The alignment head is deliberately dropped: it exists only for the
    contrastive stage.
    """
    stored_config, stored = _read_checkpoint(ckpt_path, "pretrain")
    for section in ("model", "dataset", "tokens"):
        if getattr(stored_config, section) != getattr(bundle.config, section):
            raise CheckpointError(
                f"checkpoint config section {section!r} does not match the run config")
    restore_params(bundle.model.parameters() + bundle.projection.parameters(),
                   stored, allow_extra=True)


def evaluate(bundle: RunBundle, samples):
    """Validation metrics with inference tokens (modality means, no labels).

    Images run ``config.batch_size`` at a time through one forward each;
    MoCA tokens are used when ``config.moca`` is on.
    """
    spec = bundle.config.dataset
    size = bundle.config.batch_size
    detections = [np.empty(0, dtype=DETECTION)]
    with ad.no_grad():
        for start in range(0, len(samples), size):
            batch = samples[start:start + size]
            detections.append(detections_from_output(bundle.forward(batch),
                                                     range(start, start + len(batch))))
    class_modality = [spec.modality_of_class(c) for c in range(bundle.n_classes)]
    return ap_report(np.concatenate(detections), samples, bundle.n_classes,
                     modality_names=spec.modality_names,
                     class_modality=class_modality)


def run_train(config: RunConfig, out_dir: str, from_pretrain: str | None = None) -> dict:
    """Detection training (optionally resumed from alignment pretraining),
    with MoCA tokens when ``config.moca`` is on."""
    bundle = build_run(config)
    if from_pretrain is not None:
        load_pretrained(bundle, from_pretrain)
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
    """Rebuild a bundle from a detection checkpoint (weights restored)."""
    config, stored = _read_checkpoint(ckpt_path, "detection")
    bundle = build_run(config)
    restore_params(bundle.detection_parameters(), stored, allow_extra=False)
    return bundle
