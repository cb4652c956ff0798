"""Behaviour fingerprint: fixed-seed runs compared with stored references.

Every benchmark run ends with the golden run of its workload, outside the
measured time and with no hooks installed. It goes through the same entry
points as the workload:

``train``     ``run_train`` at seed 0 on 12 images for one epoch (3 steps of
              B=4): each step's loss from ``metrics_steps.csv`` and
              ``final.ckpt``.
``pretrain``  ``run_pretrain`` at seed 0 on 5 images for 3 steps of B=5: each
              step's loss from ``pretrain_steps.csv`` and ``pretrain.ckpt``.
``eval``      one ``mocadet eval`` of the seed-0 eval fixture with a 40-image
              val split: the whole report, per-class and per-modality
              entries included.

Tolerances. The program computes in float64 with one BLAS thread, so a
rerun on the same machine is bit-identical. Another CPU may pick another
BLAS kernel and sum in another order, which moves float64 results by about
1e-15 relative; that is the only difference the tolerances absorb.

* losses: relative 1e-9. Reordered sums stay five orders below it, while
  any change to the model, the data or the loss moves a loss by far more.
* eval report: absolute 1e-9 on every AP entry. Reordered sums move an
  entry by about 1e-16. A change in ranking or matching moves some
  precision ratio tp/(tp+fp) over at most 1000 detections by at least
  1e-6, and so a per-class AP50 (a mean over 101 recall points) by at
  least 1e-8.
* checkpoints: the sha256 must match, or else the sum, the sum of squares
  and the sum of magnitudes of all stored parameters must match to
  relative 1e-6. Checkpoints store float32, so reordered float64 sums flip
  at most a rare last bit of one parameter; that moves those sums by about
  1e-12 relative, and a changed update moves them by far more.

``python3 perfbench/run.py --write-reference`` rewrites ``reference.json``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from perfbench.inputs import SIZES, make_fixture, pretrain_config, train_config

GOLDEN_SEED = 0
LOSS_RTOL = 1e-9
AP_ATOL = 1e-9
CKPT_RTOL = 1e-6
GOLDEN_VAL = 40  # val images of the golden eval fixture
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def read_losses(path: str) -> list:
    """The ``loss`` column of a step log the program wrote."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [float(row["loss"]) for row in csv.DictReader(fh)]


def _ckpt_digest(path: str) -> tuple:
    from mocadet.checkpoint import load_checkpoint
    with open(path, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    _header, params = load_checkpoint(path)
    flat = np.concatenate([params[name].reshape(-1) for name in sorted(params)])
    return sha, [float(flat.sum()), float(flat @ flat), float(np.abs(flat).sum())]


def produce(workload: str, workdir: str) -> dict:
    """Runs the golden case of one workload and returns its fingerprint."""
    from mocadet import cli, train
    full = SIZES["full"]
    if workload in ("train", "pretrain"):
        out = os.path.join(workdir, workload)
        if workload == "train":
            train.run_train(train_config(GOLDEN_SEED, full, n_train=12, epochs=1), out)
            log, ckpt = "metrics_steps.csv", "final.ckpt"
        else:
            train.run_pretrain(pretrain_config(GOLDEN_SEED, full, n_train=5, steps=3), out)
            log, ckpt = "pretrain_steps.csv", "pretrain.ckpt"
        sha, sums = _ckpt_digest(os.path.join(out, ckpt))
        return {"losses": read_losses(os.path.join(out, log)), "ckpt_sha256": sha,
                "ckpt_sums": sums}
    size = dict(full, eval_val=GOLDEN_VAL, eval_shards=1)
    ckpt, (data_dir,) = make_fixture(GOLDEN_SEED, size, os.path.join(workdir, "fixture"))
    report = os.path.join(workdir, "report.json")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.main(["eval", "--ckpt", ckpt, "--data", data_dir, "--out", report])
    if code != 0:
        return {"report": None}
    with open(report, "r", encoding="utf-8") as fh:
        return {"report": json.load(fh)}


def close(got, want, atol: float, rtol: float) -> bool:
    """Same JSON structure, numbers within atol + rtol * |want|."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(close(got[k], want[k], atol, rtol) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(close(g, w, atol, rtol) for g, w in zip(got, want)))
    if isinstance(want, float) and isinstance(got, (int, float)):
        return abs(got - want) <= atol + rtol * abs(want)
    return got == want


def compare(workload: str, got: dict, want: dict) -> tuple:
    """(operations checked, operations failed, notes) of one golden run."""
    if workload == "eval":
        ok = got["report"] is not None and close(got["report"], want["report"], AP_ATOL, 0.0)
        return 1, int(not ok), ["eval report matches" if ok else "eval report differs"]
    notes = []
    failed = 0
    for i, loss in enumerate(want["losses"]):
        have = got["losses"][i] if i < len(got["losses"]) else None
        if have is None or not close(have, loss, 0.0, LOSS_RTOL):
            failed += 1
            notes.append(f"step {i} loss {have!r} != {loss!r}")
    if got["ckpt_sha256"] == want["ckpt_sha256"]:
        notes.append("checkpoint sha256 matches")
    elif close(got["ckpt_sums"], want["ckpt_sums"], 0.0, CKPT_RTOL):
        notes.append("checkpoint sha256 differs; parameter sums within tolerance")
    else:
        failed += 1
        notes.append("checkpoint differs")
    if not failed:
        notes.insert(0, f"{len(want['losses'])} losses match")
    return len(want["losses"]) + 1, failed, notes


def check(workload: str, workdir: str) -> tuple:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        want = json.load(fh)[workload]
    return compare(workload, produce(workload, workdir), want)


def write_reference(workdir: str, workloads) -> None:
    doc = {"golden_seed": GOLDEN_SEED,
           "tolerance": {"loss_rtol": LOSS_RTOL, "ap_atol": AP_ATOL,
                         "ckpt_sums_rtol": CKPT_RTOL}}
    for workload in workloads:
        doc[workload] = produce(workload, os.path.join(workdir, workload))
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
