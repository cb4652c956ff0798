"""Training loops: alignment pretraining and detection training.

Every run is a pure function of (config, seed): model init, batch order,
class draws, and queue shuffles all derive from the config seed through
named substreams, and metric rows are written with repr() floats, so two
runs of the same config produce byte-identical checkpoints and logs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .checkpoint import load_checkpoint, restore_params, save_checkpoint
from .config import RunConfig
from .data import DatasetSpec, ModalityBatchSampler, attach_token, generate_synthetic
from .detector import Detector, DetectorConfig
from .errors import CheckpointError, ValidationError
from .evaluation import DETECTION, ap_report, detections_from_output
from .fileio import atomic_write
from .losses import detection_loss
from .optim import AdamW, MultiStepSchedule
from .queryrepa import AlignmentHead, pretrain_step
from .tokens import TokenProjection, build_registry, load_registry

# substream tags for the run's seed tree
_SS_MODEL, _SS_PROJ, _SS_GPHI, _SS_BATCH, _SS_CLASS, _SS_SAMPLER = 1, 2, 3, 4, 5, 6


@dataclass
class RunBundle:
    config: RunConfig
    spec: DatasetSpec
    train_samples: list
    val_samples: list
    registry: object
    model: Detector
    projection: TokenProjection

    @property
    def n_classes(self) -> int:
        return len(self.spec.global_classes)


def _sub_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def build_run(config: RunConfig, moca: bool | None = None) -> RunBundle:
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

    moca_flag = config.moca if moca is None else moca
    det_cfg = DetectorConfig(n_classes=len(spec.global_classes),
                             moca_enabled=moca_flag,
                             qra_layer=config.qra.layer,
                             **config.model)
    model = Detector(det_cfg, np.random.default_rng(
        np.random.SeedSequence([config.seed, _SS_MODEL])))
    projection = TokenProjection(det_cfg.d_model, registry.d_text,
                                 np.random.default_rng(
                                     np.random.SeedSequence([config.seed, _SS_PROJ])))
    return RunBundle(config=config, spec=spec, train_samples=train_samples,
                     val_samples=val_samples, registry=registry, model=model,
                     projection=projection)


class _CsvLog:
    """Append-only metric log; one flushed line per row."""

    def __init__(self, path, columns):
        self.fh = open(path, "w", encoding="utf-8", newline="")
        self.fh.write(",".join(columns) + "\n")
        self.fh.flush()

    def row(self, values) -> None:
        self.fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                               for v in values) + "\n")
        self.fh.flush()

    def close(self) -> None:
        self.fh.close()


def _echo_config(config: RunConfig, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with atomic_write(os.path.join(out_dir, "config.json")) as fh:
        json.dump(config.to_json(), fh, sort_keys=True, indent=1)


def run_pretrain(config: RunConfig, out_dir: str) -> dict:
    """Alignment-only pretraining; no detection loss is ever computed."""
    bundle = build_run(config, moca=True)
    _echo_config(config, out_dir)
    cfg = config
    gphi = AlignmentHead(bundle.model.config.d_model, np.random.default_rng(
        np.random.SeedSequence([cfg.seed, _SS_GPHI])))
    named = (bundle.model.parameters() + bundle.projection.parameters()
             + gphi.parameters())
    optimizer = AdamW(named, lr=cfg.qra.lr, weight_decay=cfg.optim.weight_decay)
    sampler = ModalityBatchSampler(bundle.train_samples, bundle.spec.n_modalities,
                                   cfg.qra_batch_size,
                                   seed=_sub_seed(cfg.seed, _SS_SAMPLER))
    class_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _SS_CLASS]))
    log = _CsvLog(os.path.join(out_dir, "pretrain_steps.csv"), ["step", "loss"])
    losses = []
    for step in range(cfg.qra.steps):
        loss = pretrain_step(sampler.next_batch(), bundle.model, bundle.spec,
                             bundle.registry, bundle.projection, gphi,
                             cfg.qra.tau, cfg.qra.layer, optimizer, class_rng)
        losses.append(loss)
        log.row([step, loss])
    log.close()
    ckpt = os.path.join(out_dir, "pretrain.ckpt")
    save_checkpoint(ckpt, named, cfg.to_json(), phase="pretrain",
                    step=cfg.qra.steps, seeds={"seed": cfg.seed})
    return {"checkpoint": ckpt, "losses": losses}


def _stored_config(header: dict, ckpt_path: str) -> dict:
    stored = header.get("config")
    if not isinstance(stored, dict):
        raise CheckpointError(f"{ckpt_path}: checkpoint config must be an object")
    return stored


def _config_sections_match(stored: dict, current: RunConfig) -> None:
    cur = current.to_json()
    for section in ("model", "dataset", "tokens"):
        if stored.get(section) != cur[section]:
            raise CheckpointError(
                f"checkpoint config section {section!r} does not match the run config")


def load_pretrained(bundle: RunBundle, ckpt_path: str) -> None:
    """Restore detector + token projection from a pretraining checkpoint.

    The alignment head is deliberately dropped: it exists only for the
    contrastive stage.
    """
    header, stored = load_checkpoint(ckpt_path)
    if header.get("phase") != "pretrain":
        raise CheckpointError(f"{ckpt_path} is not a pretraining checkpoint")
    _config_sections_match(_stored_config(header, ckpt_path), bundle.config)
    restore_params(bundle.model.parameters() + bundle.projection.parameters(),
                   stored, allow_extra=True)


def evaluate(bundle: RunBundle, samples):
    """Validation metrics with inference tokens (modality means, no labels).

    Images run ``config.batch_size`` at a time through one forward each;
    MoCA tokens are used when the model has MoCA enabled.
    """
    spec = bundle.spec
    moca = bundle.model.config.moca_enabled
    size = bundle.config.batch_size
    detections = [np.empty(0, dtype=DETECTION)]
    with ad.no_grad():
        for start in range(0, len(samples), size):
            batch = samples[start:start + size]
            tokens = (attach_token(batch, spec, bundle.registry, bundle.projection)
                      if moca else None)
            out = bundle.model.forward(np.stack([s.image for s in batch]), tokens)
            detections.append(detections_from_output(out, range(start, start + len(batch))))
    class_modality = [spec.modality_of_class(c) for c in range(bundle.n_classes)]
    return ap_report(np.concatenate(detections), samples, bundle.n_classes,
                     modality_names=spec.modality_names,
                     class_modality=class_modality)


def run_train(config: RunConfig, out_dir: str, moca: bool | None = None,
              from_pretrain: str | None = None) -> dict:
    """Detection training (optionally resumed from alignment pretraining)."""
    cfg = RunConfig.from_json(config.to_json())  # private copy
    if moca is not None:
        cfg.moca = moca  # the echo and checkpoints carry the effective flag
    bundle = build_run(cfg)
    _echo_config(cfg, out_dir)
    moca_flag = bundle.model.config.moca_enabled
    if from_pretrain:
        load_pretrained(bundle, from_pretrain)

    named = bundle.model.parameters()
    if moca_flag:
        named = named + bundle.projection.parameters()
    optimizer = AdamW(named, lr=cfg.optim.lr, weight_decay=cfg.optim.weight_decay)
    schedule = MultiStepSchedule(cfg.optim.lr, cfg.optim.decay_epoch,
                                 cfg.optim.decay_factor)
    class_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _SS_CLASS]))

    steps_log = _CsvLog(os.path.join(out_dir, "metrics_steps.csv"),
                        ["step", "epoch", "loss", "lr"])
    epochs_log = _CsvLog(os.path.join(out_dir, "metrics_epochs.csv"),
                         ["epoch", "ap", "ap50", "ap75"])

    n = len(bundle.train_samples)
    step = 0
    best = {"ap": -1.0, "ap50": -1.0, "epoch": -1}
    last_eval = None
    for epoch in range(cfg.optim.epochs):
        optimizer.lr = schedule.lr_at(epoch)
        order = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, _SS_BATCH, epoch])).permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = [bundle.train_samples[i] for i in order[start:start + cfg.batch_size]]
            optimizer.zero_grad()
            with ad.Tape():
                tokens = (attach_token(batch, bundle.spec, bundle.registry,
                                       bundle.projection, class_rng) if moca_flag else None)
                out = bundle.model.forward(np.stack([s.image for s in batch]), tokens)
                targets = [(s.class_ids, np.array([a.box for a in s.annotations]))
                           for s in batch]
                total = detection_loss(out.layers, targets, cfg.loss)
                value = total.item()
                ad.backward(total)
            optimizer.step()
            steps_log.row([step, epoch, value, optimizer.lr])
            step += 1

        if bundle.val_samples and ((epoch + 1) % cfg.eval_every == 0
                                   or epoch == cfg.optim.epochs - 1):
            report = evaluate(bundle, bundle.val_samples)
            last_eval = report
            epochs_log.row([epoch, report.ap or 0.0, report.ap50 or 0.0,
                            report.ap75 or 0.0])
            if (report.ap or 0.0) > best["ap"]:
                best = {"ap": report.ap or 0.0, "ap50": report.ap50 or 0.0,
                        "epoch": epoch}
                save_checkpoint(os.path.join(out_dir, "best.ckpt"), named,
                                cfg.to_json(), phase="detection", step=step,
                                seeds={"seed": cfg.seed})
    steps_log.close()
    epochs_log.close()

    final_ckpt = os.path.join(out_dir, "final.ckpt")
    save_checkpoint(final_ckpt, named, cfg.to_json(), phase="detection",
                    step=step, seeds={"seed": cfg.seed})
    summary = {
        "moca": moca_flag,
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
    summary = dict(summary)
    summary["from_pretrain"] = from_pretrain
    summary["checkpoint_final"] = final_ckpt
    summary["checkpoint_best"] = (os.path.join(out_dir, "best.ckpt")
                                  if best["epoch"] >= 0 else None)
    return summary


def load_detector_for_eval(ckpt_path: str):
    """Rebuild a bundle from a detection checkpoint (weights restored)."""
    header, stored = load_checkpoint(ckpt_path)
    if header.get("phase") != "detection":
        raise CheckpointError(f"{ckpt_path} is not a detection checkpoint")
    try:
        config = RunConfig.from_json(_stored_config(header, ckpt_path))
    except ValidationError as e:
        raise CheckpointError(f"{ckpt_path}: bad checkpoint config: {e}") from e
    bundle = build_run(config)
    params = bundle.model.parameters()
    if bundle.model.config.moca_enabled:
        params = params + bundle.projection.parameters()
    restore_params(params, stored, allow_extra=False)
    return bundle
