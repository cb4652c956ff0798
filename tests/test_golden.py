"""The seed-0 golden train, pretrain and eval runs against the stored
fingerprint.

``perfbench/reference.json`` holds each training run's per-step losses and
the sha256 and parameter sums of its final checkpoint, and the eval run's
whole report. These tests rerun the same configurations through the same
entry points and compare at the tolerances the file states: losses to a
relative tolerance, the checkpoint's sha256 or else its sums (sum, sum of
squares, sum of magnitudes of all stored parameters, in name order) to a
relative tolerance, and every AP entry of the report to an absolute
tolerance. The eval fixture repeats the benchmark fixture's weight edits
here. The file is read as data, so the tests need only ``src`` on the path.
"""

import csv
import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from mocadet import cli
from mocadet.checkpoint import load_checkpoint, save_checkpoint
from mocadet.config import OptimConfig, QraConfig, RunConfig
from mocadet.data import export_dataset, generate_synthetic, make_default_spec
from mocadet.train import build_run, run_pretrain, run_train

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "perfbench", "reference.json")


def _spec(n_train):
    return dataclasses.replace(make_default_spec(seed=0, counts={"train": n_train}),
                               image_size=64)


def _golden_run(workload, out):
    """(step losses, checkpoint path) of the golden run: train is 12 images,
    one epoch of B=4 with MoCA on; pretrain is 5 images, 3 steps at layer 5."""
    if workload == "train":
        run_train(RunConfig(dataset=_spec(12), model={}, optim=OptimConfig(epochs=1),
                            batch_size=4, seed=0, moca=True).validate(), out)
        log, ckpt = "metrics_steps.csv", "final.ckpt"
    else:
        run_pretrain(RunConfig(dataset=_spec(5), model={}, qra=QraConfig(layer=5, steps=3),
                               seed=0).validate(), out)
        log, ckpt = "pretrain_steps.csv", "pretrain.ckpt"
    with open(os.path.join(out, log), encoding="utf-8", newline="") as fh:
        losses = [float(row["loss"]) for row in csv.DictReader(fh)]
    return losses, os.path.join(out, ckpt)


def _reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", ["train", "pretrain"])
def test_golden_run_matches_reference(workload, tmp_path):
    reference = _reference()
    want, tol = reference[workload], reference["tolerance"]
    losses, ckpt = _golden_run(workload, str(tmp_path))

    assert len(losses) == len(want["losses"])
    for got, expected in zip(losses, want["losses"]):
        assert abs(got - expected) <= tol["loss_rtol"] * abs(expected), (got, expected)
    with open(ckpt, "rb") as fh:
        if hashlib.sha256(fh.read()).hexdigest() == want["ckpt_sha256"]:
            return
    _header, params = load_checkpoint(ckpt)
    flat = np.concatenate([params[name].reshape(-1) for name in sorted(params)])
    sums = [float(flat.sum()), float(flat @ flat), float(np.abs(flat).sum())]
    for got, expected in zip(sums, want["ckpt_sums"]):
        assert abs(got - expected) <= tol["ckpt_sums_rtol"] * abs(expected), (got, expected)


def _eval_fixture(out):
    """(checkpoint, data dir) of the golden eval: the untrained seed-0 model
    on one train image per modality, with its centre weights x3 and its
    extent bias at the mean extent of a 40-image val split of 2-3 objects
    per image, so that some detections reach IoU 0.5."""
    spec = dataclasses.replace(_spec(5), objects_range=(2, 3))
    cfg = RunConfig(dataset=spec, model={}, seed=0).validate()
    bundle = build_run(cfg)
    val_spec = dataclasses.replace(spec, counts={"val": 40})
    val = generate_synthetic(val_spec, "val")
    named = bundle.model.parameters() + bundle.projection.parameters()
    params = dict(named)
    extent = np.mean([a.box[2:] for s in val for a in s.annotations], axis=0)
    params["box_out.W"].data[:, :2] *= 3.0
    params["box_out.b"].data[:2] = 0.0
    params["box_out.b"].data[2:] = np.log(extent / (1.0 - extent))
    ckpt, data_dir = os.path.join(out, "model.ckpt"), os.path.join(out, "val")
    save_checkpoint(ckpt, named, cfg.to_json(), phase="detection", step=0, seeds={"seed": 0})
    export_dataset(val, val_spec, data_dir, "val")
    return ckpt, data_dir


def _assert_close(got, want, atol):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want)
        for k in want:
            _assert_close(got[k], want[k], atol)
    elif isinstance(want, float):
        assert abs(got - want) <= atol, (got, want)
    else:
        assert got == want


def test_golden_eval_matches_reference(tmp_path):
    reference = _reference()
    ckpt, data_dir = _eval_fixture(str(tmp_path))
    report = os.path.join(str(tmp_path), "report.json")
    assert cli.main(["eval", "--ckpt", ckpt, "--data", data_dir, "--out", report]) == 0
    with open(report, encoding="utf-8") as fh:
        got = json.load(fh)
    _assert_close(got, reference["eval"]["report"], reference["tolerance"]["ap_atol"])
