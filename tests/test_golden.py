"""The seed-0 golden train and pretrain runs against the stored fingerprint.

``perfbench/reference.json`` holds each run's per-step losses and the
sha256 and parameter sums of its final checkpoint. These tests rerun the
same two configurations through the same entry points and compare at the
tolerances the file states: losses to a relative tolerance, and the
checkpoint's sha256 or else its sums (sum, sum of squares, sum of
magnitudes of all stored parameters, in name order) to a relative
tolerance. The file is read as data, so the tests need only ``src`` on the
path. The eval fingerprint is not rerun here: its checkpoint needs the
benchmark fixture's weight edits.
"""

import csv
import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from mocadet.checkpoint import load_checkpoint
from mocadet.config import OptimConfig, QraConfig, RunConfig
from mocadet.data import make_default_spec
from mocadet.train import run_pretrain, run_train

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


@pytest.mark.parametrize("workload", ["train", "pretrain"])
def test_golden_run_matches_reference(workload, tmp_path):
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
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
