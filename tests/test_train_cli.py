"""End-to-end tests for training loops, checkpoint resume, and the CLI."""

import ctypes
import json
import os
import platform
import resource
import tracemalloc

import numpy as np
import pytest

from mocadet import autodiff as ad
from mocadet.checkpoint import load_checkpoint, save_checkpoint
from mocadet.cli import RUN_FILES, main
from mocadet.config import RunConfig
from mocadet.data import make_default_spec
from mocadet.detector import ModelConfig
from mocadet.errors import CheckpointError, TokenLookupError
from mocadet.evaluation import DETECTION, detections_from_output
from mocadet.fileio import CHECKPOINT, DATASET_SPLIT
from mocadet.losses import detection_loss
from mocadet.milab import DiscreteJoint, exact_mi
from mocadet.optim import AdamW
from mocadet.tokens import build_registry, load_registry, save_registry
from mocadet.train import (build_run, evaluate, load_detector_for_eval, optimizer_step,
                           pretrained_weights, run_pretrain, run_train)


def _tiny_doc(seed=3, epochs=2, qra_steps=4):
    return {
        "dataset": {
            "image_size": 16, "seed": 1, "counts": {"train": 12, "val": 6},
            "size_range": [5, 9], "objects_range": [1, 1],
            "modalities": [
                {"name": "ma", "classes": ["ma_c0"], "curve": 0,
                 "noise_sigma": 0.02, "texture_freq": 2.0},
                {"name": "mb", "classes": ["mb_c0"], "curve": 3,
                 "noise_sigma": 0.02, "texture_freq": 3.0},
            ],
        },
        "model": {"d_model": 16, "n_queries": 6, "n_decoder_layers": 2,
                  "n_heads": 2, "patch_size": 8, "n_encoder_layers": 0,
                  "ffn_width": 16},
        "optim": {"lr": 1e-3, "weight_decay": 1e-4, "decay_epoch": 1,
                  "epochs": epochs},
        "tokens": {"source": "synthetic", "d_text": 8, "seed": 1},
        "qra": {"tau": 0.07, "layer": 2, "steps": qra_steps, "lr": 1e-3},
        "batch_size": 4, "seed": seed, "moca": True, "eval_every": 1,
    }


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _poison_checkpoint(path, name, value):
    """Rewrites the checkpoint with ``value`` as the first element of
    parameter ``name``, through the container writer, so that the file
    matches its sha256 and only the finiteness check can reject it."""
    header, stored = load_checkpoint(path)
    stored[name].flat[0] = value
    CHECKPOINT.write(path, header, [stored[e["name"]] for e in header["params"]])


def _default_model_step(batch_size):
    """The default model with MoCA on, its optimizer, and a function that
    takes one training step on a fixed batch of ``batch_size`` images."""
    config = RunConfig(dataset=make_default_spec(counts={"train": batch_size}),
                       batch_size=batch_size)
    bundle = build_run(config)
    optimizer = AdamW(bundle.detection_parameters(), lr=1e-4)
    batch = bundle.train_samples
    targets = [(s.class_ids, np.array([a.box for a in s.annotations])) for s in batch]
    class_rng = np.random.default_rng(0)

    def loss_of():
        return detection_loss(bundle.forward(batch, class_rng).layers, targets, config.loss)

    return optimizer, loss_of


def test_run_train_artifacts_and_determinism(tmp_path):
    cfg = RunConfig.from_json(_tiny_doc())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    s1 = run_train(cfg, str(out1))
    s2 = run_train(RunConfig.from_json(_tiny_doc()), str(out2))
    for name in ("config.json", "metrics_steps.csv", "metrics_epochs.csv",
                 "final.ckpt", "report.json"):
        assert (out1 / name).exists()
        assert _read(out1 / name) == _read(out2 / name), name
    assert s1["steps"] == s2["steps"] > 0
    assert s1["best"] == s2["best"]


def test_run_train_evaluates_every_eval_every_epochs_and_after_the_last(tmp_path):
    # 3 epochs, eval_every 2: epoch 1 by the cadence, epoch 2 as the last
    run_train(RunConfig.from_json(dict(_tiny_doc(epochs=3), eval_every=2)), str(tmp_path / "run"))
    rows = (tmp_path / "run" / "metrics_epochs.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["epoch", "1", "2"]


def test_a_run_from_a_registry_file_gets_the_synthetic_runs_embeddings(tmp_path):
    doc = _tiny_doc(epochs=1)
    spec_path, reg = tmp_path / "spec.json", tmp_path / "reg.json"
    spec_path.write_text(json.dumps(doc["dataset"]))
    assert main(["tokens", "synth", "--spec", str(spec_path), "--d-text", "8", "--seed", "1",
                 "--out", str(reg)]) == 0
    file_doc = dict(doc, tokens={"source": "file", "d_text": 8, "path": str(reg)})
    synthetic = build_run(RunConfig.from_json(doc)).registry
    from_file = build_run(RunConfig.from_json(file_doc)).registry
    assert list(from_file.entries) == list(synthetic.entries) == [("ma", "ma_c0"),
                                                                   ("mb", "mb_c0")]
    for key, vec in synthetic.entries.items():
        assert from_file.entries[key].tobytes() == vec.tobytes()
    run_train(RunConfig.from_json(doc), str(tmp_path / "synthetic"))
    run_train(RunConfig.from_json(file_doc), str(tmp_path / "file"))
    for name in ("metrics_steps.csv", "metrics_epochs.csv", "report.json"):
        assert _read(tmp_path / "synthetic" / name) == _read(tmp_path / "file" / name), name
    # a registry without a declared pair fails the run before it writes
    save_registry(build_registry([("ma", "ma_c0")], d_text=8), reg)
    with pytest.raises(TokenLookupError):
        run_train(RunConfig.from_json(file_doc), str(tmp_path / "short"))
    assert not (tmp_path / "short").exists()


def test_run_train_seed_changes_artifacts(tmp_path):
    a = run_train(RunConfig.from_json(_tiny_doc(seed=3)), str(tmp_path / "a"))
    b = run_train(RunConfig.from_json(_tiny_doc(seed=4)), str(tmp_path / "b"))
    assert _read(tmp_path / "a" / "final.ckpt") != _read(tmp_path / "b" / "final.ckpt")


def test_moca_off_excludes_projection_params(tmp_path):
    cfg = RunConfig.from_json(dict(_tiny_doc(epochs=1), moca=False))
    run_train(cfg, str(tmp_path / "off"))
    _, stored = load_checkpoint(tmp_path / "off" / "final.ckpt")
    assert not any(k.startswith("token_projection.") for k in stored)
    # the flag is echoed so eval rebuilds the same run
    echo = json.loads((tmp_path / "off" / "config.json").read_text())
    assert echo["moca"] is False


def test_moca_off_run_does_not_depend_on_the_tokens(tmp_path):
    # two MoCA-off runs whose configs differ only in the token seed: with no
    # token in the decoder, every log, report and parameter is the same
    for seed in (1, 2):
        doc = dict(_tiny_doc(), moca=False)
        doc["tokens"] = dict(doc["tokens"], seed=seed)
        run_train(RunConfig.from_json(doc), str(tmp_path / f"seed{seed}"))
    a, b = tmp_path / "seed1", tmp_path / "seed2"
    for name in ("metrics_steps.csv", "metrics_epochs.csv", "report.json"):
        assert _read(a / name) == _read(b / name), name
    for name in ("best.ckpt", "final.ckpt"):
        (_, pa), (_, pb) = load_checkpoint(a / name), load_checkpoint(b / name)
        assert pa.keys() == pb.keys()
        assert all(np.array_equal(pa[k], pb[k]) for k in pa), name


def test_pretrain_then_resume_zero_steps_equals_checkpoint(tmp_path):
    cfg = RunConfig.from_json(_tiny_doc())
    result = run_pretrain(cfg, str(tmp_path / "pre"))
    assert os.path.exists(result["checkpoint"])
    assert len(result["losses"]) == 4

    _, stored = load_checkpoint(result["checkpoint"])
    # the alignment head is dropped, and with MoCA off the token projection too
    for moca in (True, False):
        run_cfg = RunConfig.from_json(dict(_tiny_doc(), moca=moca))
        weights = pretrained_weights(run_cfg, result["checkpoint"])
        bundle = build_run(run_cfg, weights)
        assert (bundle.projection is not None) == moca
        named = bundle.detection_parameters()
        assert [name for name, _ in named] == list(weights)
        for name, p in named:
            assert np.array_equal(p.data, stored[name])


def test_finetune_config_mismatch_rejected(tmp_path):
    # the pretraining run has 2 heads: a run with 4 has every parameter of
    # the same shape, so only the compare of the model sections sees it
    cfg = RunConfig.from_json(_tiny_doc())
    result = run_pretrain(cfg, str(tmp_path / "pre"))
    for field, value in (("n_queries", 8), ("n_heads", 4)):
        other = _tiny_doc()
        other["model"][field] = value
        with pytest.raises(CheckpointError, match="section 'model' does not match"):
            pretrained_weights(RunConfig.from_json(other), result["checkpoint"])
        with pytest.raises(CheckpointError):
            run_train(RunConfig.from_json(other), str(tmp_path / "ft"),
                      from_pretrain=result["checkpoint"])
        assert not (tmp_path / "ft").exists()


def test_finetune_accepts_the_same_model_spelled_differently(tmp_path):
    # the pretraining config spells out the default patch size, the training
    # config leaves it out: one model, so training starts from the checkpoint
    pre_path, train_path = tmp_path / "pre.json", tmp_path / "train.json"
    pre_path.write_text(json.dumps(_tiny_doc(qra_steps=0)))
    doc = _tiny_doc(epochs=1)
    assert doc["model"].pop("patch_size") == 8 == ModelConfig().patch_size
    train_path.write_text(json.dumps(doc))
    assert main(["pretrain", "--config", str(pre_path), "--out", str(tmp_path / "pre")]) == 0
    assert main(["train", "--config", str(train_path), "--out", str(tmp_path / "run"),
                 "--from-pretrain", str(tmp_path / "pre" / "pretrain.ckpt")]) == 0


def _with_model_section(path, section):
    """Rewrites the checkpoint at ``path`` with ``section`` as its config's
    model section, as checkpoints written before the section listed every
    size stored it; the arrays and the digest stay whole."""
    header, blob = CHECKPOINT.read(path)
    header["config"]["model"] = section
    CHECKPOINT.write(path, header, [blob])


def test_checkpoints_with_an_empty_or_partial_model_section_still_load(tmp_path):
    # absent sizes take their defaults: an eval of the same arrays writes the
    # same report, and a default-model run trains from such a pretraining
    # checkpoint
    doc = dict(_tiny_doc(epochs=1, qra_steps=0), model={})
    config = RunConfig.from_json(doc)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc["dataset"]))
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "d"),
                 "--splits", "val"]) == 0
    named = build_run(config).detection_parameters()
    reports = []
    for i, section in enumerate((None, {}, {"d_model": 64, "patch_size": 8})):
        ckpt = str(tmp_path / f"model{i}.ckpt")
        save_checkpoint(ckpt, named, config.to_json(), phase="detection", step=0)
        if section is not None:
            _with_model_section(ckpt, section)
        report = tmp_path / f"report{i}.json"
        assert main(["eval", "--ckpt", ckpt, "--data", str(tmp_path / "d"),
                     "--out", str(report)]) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1] == reports[2]

    pre = run_pretrain(config, str(tmp_path / "pre"))["checkpoint"]
    _with_model_section(pre, {})
    assert load_checkpoint(pre)[0]["config"]["model"] == {}
    weights = pretrained_weights(config, pre)
    assert [name for name, _ in build_run(config, weights).detection_parameters()] == \
        list(weights)


def test_a_dataset_of_1025_classes_is_rejected_before_any_write(tmp_path, capsys):
    # the class head holds at most 1024 classes: the run's dataset gives the
    # count, and the config is rejected before its run directory exists
    doc = _tiny_doc(epochs=1)
    doc["dataset"]["modalities"][1]["classes"] = [f"mb_c{i}" for i in range(1023)]
    assert len(RunConfig.from_json(doc).dataset.global_classes) == 1024
    doc["dataset"]["modalities"][1]["classes"].append("mb_c1023")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    for command in ("train", "pretrain"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        assert ("config.dataset's class count must be in [1, 1024], got 1025"
                in capsys.readouterr().err)
        assert not out.exists()


def test_finetune_runs_and_improves_nothing_breaks(tmp_path, monkeypatch):
    cfg = RunConfig.from_json(_tiny_doc(epochs=1))
    pre = run_pretrain(cfg, str(tmp_path / "pre"))
    # a run from the checkpoint is built from its arrays: nothing is drawn
    monkeypatch.setattr(ad, "Drawn", lambda rng: pytest.fail("a weight was drawn"))
    for moca in (True, False):
        summary = run_train(RunConfig.from_json(dict(_tiny_doc(epochs=1), moca=moca)),
                            str(tmp_path / f"ft_{moca}"), from_pretrain=pre["checkpoint"])
        assert summary["steps"] > 0
        assert summary["from_pretrain"] == pre["checkpoint"]


def test_run_train_closes_its_logs_when_a_step_fails(tmp_path, monkeypatch):
    # the second step's loss raises; an open log would be a ResourceWarning
    from mocadet import train
    calls = []

    def failing_loss(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("loss failed")
        return detection_loss(*args, **kwargs)

    monkeypatch.setattr(train, "detection_loss", failing_loss)
    with pytest.raises(RuntimeError, match="loss failed"):
        run_train(RunConfig.from_json(_tiny_doc(epochs=1)), str(tmp_path / "run"))
    assert (tmp_path / "run" / "metrics_steps.csv").read_text().count("\n") == 2
    assert (tmp_path / "run" / "metrics_epochs.csv").read_text() == "epoch,ap,ap50,ap75\n"


def test_eval_checkpoint_round_trip(tmp_path):
    cfg = RunConfig.from_json(_tiny_doc(epochs=1))
    summary = run_train(cfg, str(tmp_path / "run"))
    bundle = load_detector_for_eval(summary["checkpoint_final"])
    report = evaluate(bundle, bundle.val_samples)
    assert report.ap is not None


def test_checkpoint_with_bad_config_raises_checkpoint_error(tmp_path, capsys):
    # well-formed files that load_checkpoint accepts, with a config entry
    # that is missing, not an object, or not a valid run config
    path = tmp_path / "bad.ckpt"

    def write(header):
        CHECKPOINT.write(path, {"params": [], **header}, [])

    for config in ({}, {"config": {"model": 3}}, {"config": [1, 2]},
                   {"config": "text"}, {"config": {"batch_size": "four"}},
                   {"config": {"model": {"bogus": 1}}}):
        write({"phase": "detection", **config})
        with pytest.raises(CheckpointError):
            load_detector_for_eval(str(path))
        assert main(["eval", "--ckpt", str(path), "--data", str(tmp_path)]) == 1
    run_config = RunConfig.from_json(_tiny_doc())
    for config in ({}, {"config": [1, 2]}, {"config": "text"}):
        write({"phase": "pretrain", **config})
        with pytest.raises(CheckpointError):
            pretrained_weights(run_config, str(path))
    # a pretraining checkpoint is not one that eval reads
    capsys.readouterr()
    run_pretrain(run_config, str(tmp_path / "pre"))
    assert main(["eval", "--ckpt", str(tmp_path / "pre" / "pretrain.ckpt"),
                 "--data", str(tmp_path)]) == 1
    assert "is not a detection checkpoint" in capsys.readouterr().err


def test_moca_checkpoint_must_hold_exactly_the_configured_parameters(tmp_path):
    # a MoCA config stored without its token projection, and a MoCA-off
    # config stored with one
    for moca, with_projection in ((True, False), (False, True)):
        bundle = build_run(RunConfig.from_json(dict(_tiny_doc(), moca=moca)))
        named = bundle.model.parameters()
        if with_projection:
            named = named + bundle.projection.parameters()
        path = tmp_path / f"moca_{moca}.ckpt"
        save_checkpoint(path, named, bundle.config.to_json(), phase="detection", step=0)
        with pytest.raises(CheckpointError):
            load_detector_for_eval(str(path))
        assert main(["eval", "--ckpt", str(path), "--data", str(tmp_path)]) == 1


def test_eval_rejects_a_checkpoint_that_is_not_the_models_table_in_order(tmp_path):
    # each table holds every array the model needs but one thing: a changed
    # order, name, presence or shape; two same-shape weights swapped, or one
    # renamed, pass every shape check and only the name comparison sees them
    doc = _tiny_doc()
    bundle = build_run(RunConfig.from_json(doc))
    named = [(name, p.data) for name, p in bundle.detection_parameters()]
    i = [name for name, _ in named].index("decoder.0.self_attn.wq.W")
    j = [name for name, _ in named].index("decoder.0.self_attn.wk.W")
    swapped = list(named)
    swapped[i], swapped[j] = named[j], named[i]
    tables = {
        "good": named,
        "reordered": swapped,
        "renamed": [(name.replace("wq.W", "wQ.W"), a) for name, a in named],
        "missing": named[:i] + named[i + 1:],
        "extra": named + [("gphi.lin1.W", np.zeros((2, 2)))],
        "reshaped": named[:i] + [(named[i][0], named[i][1][:, :-1])] + named[i + 1:],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc["dataset"]))
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "d"),
                 "--splits", "val"]) == 0
    for case, table in tables.items():
        path = str(tmp_path / f"{case}.ckpt")
        save_checkpoint(path, [(name, ad.constant(a)) for name, a in table],
                        bundle.config.to_json(), phase="detection", step=0)
        out = tmp_path / f"{case}.json"
        code = main(["eval", "--ckpt", path, "--data", str(tmp_path / "d"), "--out", str(out)])
        if case == "good":
            assert code == 0 and out.exists()
            continue
        with pytest.raises(CheckpointError):
            load_detector_for_eval(path)
        assert code == 1 and not out.exists(), case


def test_evaluate_in_batches_equals_one_image_at_a_time(tmp_path, monkeypatch):
    from mocadet import train
    seen = []
    monkeypatch.setattr(train, "ap_report", lambda detections, *a, **k: seen.append(detections))
    bundle = build_run(RunConfig.from_json(_tiny_doc()))
    for inference_batch in (16, 1):  # 6 val images: one forward, then six of 1
        monkeypatch.setattr(train, "INFERENCE_BATCH", inference_batch)
        evaluate(bundle, bundle.val_samples)
    batched, single = seen
    assert batched.dtype == single.dtype == DETECTION
    assert len(batched) == len(single) > 0
    for a, b in zip(batched, single):
        assert (a["image"], a["class_id"]) == (b["image"], b["class_id"])
        assert np.allclose(np.append(a["box"], a["score"]), np.append(b["box"], b["score"]),
                           rtol=0, atol=1e-12)


def test_evaluate_forwards_ten_images_at_once_whatever_the_training_batch(monkeypatch):
    from mocadet import detector, train
    doc = _tiny_doc()
    doc["dataset"]["counts"]["val"] = 10
    bundle = build_run(RunConfig.from_json(doc))
    sizes = []
    forward = detector.Detector.forward
    monkeypatch.setattr(detector.Detector, "forward",
                        lambda self, images, *a, **k: sizes.append(len(images))
                        or forward(self, images, *a, **k))
    assert bundle.config.batch_size == 4 and train.INFERENCE_BATCH == 16
    evaluate(bundle, bundle.val_samples)
    assert sizes == [10]


def test_eval_loading_draws_no_weights_and_holds_the_stored_ones(tmp_path, monkeypatch):
    from mocadet import train
    bundle = build_run(RunConfig.from_json(_tiny_doc()))
    ckpt = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt, bundle.detection_parameters(), bundle.config.to_json(),
                    phase="detection", step=0)
    rngs = []
    for name in ("Detector", "TokenProjection"):
        cls = getattr(train, name)
        monkeypatch.setattr(train, name, lambda *a, cls=cls: rngs.append(a[-1]) or cls(*a))
    stored, read = {}, train.load_checkpoint

    def reading(path):
        header, params = read(path)
        stored.update(params)
        return header, params

    monkeypatch.setattr(train, "load_checkpoint", reading)
    loaded = load_detector_for_eval(ckpt)
    assert len(rngs) == 2 and not any(isinstance(r, np.random.Generator) for r in rngs)
    named = loaded.detection_parameters()
    assert [n for n, _ in named] == list(stored)
    for name, p in named:
        # the parameter is the reader's array itself, not a copy of it
        assert np.shares_memory(p.data, stored[name]), name
        assert p.data.tobytes() == stored[name].tobytes(), name


@pytest.mark.parametrize("moca", [True, False], ids=["moca_on", "moca_off"])
def test_final_heads_only_gives_the_detections_of_the_full_forward(moca):
    bundle = build_run(RunConfig.from_json(dict(_tiny_doc(), moca=moca)))
    batch = bundle.val_samples[:4]
    with ad.no_grad():
        full = bundle.forward(batch)
        last = bundle.forward(batch, final_heads_only=True)
    assert len(full.layers) == len(last.query_states) == 2 and len(last.layers) == 1
    a, b = (detections_from_output(o, range(len(batch))) for o in (full, last))
    assert a.dtype == b.dtype == DETECTION and len(a) > 0
    assert a.tobytes() == b.tobytes()


# -- CLI ----------------------------------------------------------------------


def test_cli_gen_data_tokens_and_silhouette(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_tiny_doc()["dataset"]))
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "data")]) == 0
    assert sorted(p.name for p in (tmp_path / "data").iterdir()) == ["train.split", "val.split"]

    reg = tmp_path / "reg.json"
    assert main(["tokens", "synth", "--catalog", "--d-text", "16",
                 "--out", str(reg)]) == 0
    assert main(["tokens", "inspect", str(reg)]) == 0
    sil_out = tmp_path / "sil.json"
    assert main(["tokens", "silhouette", str(reg), "--json", str(sil_out)]) == 0
    doc = json.loads(sil_out.read_text())
    assert -1.0 <= doc["silhouette"] <= 1.0
    out = capsys.readouterr().out
    assert "registry: 27 tokens" in out

    # a --d-text outside TokenConfig.d_text's range writes nothing
    big = tmp_path / "big.json"
    assert main(["tokens", "synth", "--catalog", "--d-text", str(10 ** 12),
                 "--out", str(big)]) == 1
    assert f"--d-text must be in [2, 4096], got {10 ** 12}" in capsys.readouterr().err
    assert not big.exists()


def test_cli_tokens_synth_from_a_spec(tmp_path, capsys):
    doc = _tiny_doc()["dataset"]
    spec_path, reg = tmp_path / "spec.json", tmp_path / "reg.json"
    spec_path.write_text(json.dumps(doc))
    assert main(["tokens", "synth", "--spec", str(spec_path), "--d-text", "8",
                 "--out", str(reg)]) == 0
    assert list(load_registry(reg).entries) == [("ma", "ma_c0"), ("mb", "mb_c0")]
    # '|' joins a registry key's two names, so a name that holds it writes nothing
    modalities = [dict(doc["modalities"][0], classes=["ma|c0"])] + doc["modalities"][1:]
    spec_path.write_text(json.dumps(dict(doc, modalities=modalities)))
    bad = tmp_path / "bad.json"
    capsys.readouterr()
    assert main(["tokens", "synth", "--spec", str(spec_path), "--out", str(bad)]) == 1
    assert "'|' not allowed in names" in capsys.readouterr().err
    assert not bad.exists()


def test_cli_mi_lab_certifies_a_joints_file(tmp_path):
    table = [[0.4, 0.1], [0.1, 0.4]]
    path, report = tmp_path / "joints.json", tmp_path / "mi.json"
    path.write_text(json.dumps({"joints": [table]}))
    assert main(["mi-lab", "--joints", str(path), "--K", "1,3", "--samples", "1000",
                 "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["passed"] and doc["n_joints"] == 1 and doc["n_cells"] == 4
    assert {c["mi"] for c in doc["cells"]} == {exact_mi(DiscreteJoint(table))}


def test_cli_an_unexpected_exception_exits_2(monkeypatch, capsys):
    from mocadet import cli

    def fail(args):
        raise RuntimeError("unexpected")

    monkeypatch.setitem(cli._DISPATCH, "mi-lab", fail)
    assert main(["mi-lab"]) == 2
    assert capsys.readouterr().err == "runtime error: RuntimeError: unexpected\n"


def test_cli_train_and_eval_end_to_end(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_doc(epochs=1)))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_tiny_doc()["dataset"]))

    assert main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 0
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run"),
                 "--moca", "off"]) == 0
    # the config says moca on; the echo and the checkpoint carry the flag that took effect
    assert json.loads((tmp_path / "run" / "config.json").read_text())["moca"] is False
    _, stored = load_checkpoint(tmp_path / "run" / "final.ckpt")
    assert not any(k.startswith("token_projection.") for k in stored)
    report = tmp_path / "rep.json"
    csv = tmp_path / "rep.csv"
    assert main(["eval", "--ckpt", str(tmp_path / "run" / "final.ckpt"),
                 "--data", str(tmp_path / "d"), "--split", "val",
                 "--out", str(report), "--csv", str(csv)]) == 0
    doc = json.loads(report.read_text())
    assert "ap" in doc and "per_modality" in doc
    assert csv.read_text().count("\n") == 2


@pytest.mark.parametrize("section,edit", [
    ("model", {"bogus": 1}), ("model", {"n_heads": 0}), ("model", {"d_model": "64"}),
    ("model", {"d_model": 0}), ("model", {"n_queries": 2.5}),
    ("dataset", {"size_range": [5, 40]}), ("dataset", {"size_range": [10, 5]}),
    ("dataset", {"objects_range": [3, 1]}), ("dataset", {"objects_range": [-1, 2]}),
    ("dataset", {"image_size": 16, "size_range": [5, 20]}),
], ids=["unknown_field", "zero_heads", "text_width", "zero_width", "fractional_queries",
        "size_above_image", "size_reversed", "objects_reversed", "negative_objects",
        "default_sizes_on_16px"])
def test_cli_train_rejects_a_bad_model_or_dataset_section(tmp_path, capsys, section, edit):
    # a 2-modality, 32 px run whose model is the given section, or whose
    # dataset gets the given fields
    doc = _tiny_doc(epochs=1)
    doc["dataset"]["image_size"] = 32
    doc[section] = edit if section == "model" else dict(doc[section], **edit)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "runtime error" not in err


@pytest.mark.parametrize("field,value", [
    ("optim.lr", float("nan")), ("optim.lr", float("inf")), ("qra.tau", float("nan")),
    ("loss.w_giou", float("-inf")), ("dataset.modalities[0].noise_sigma", float("nan")),
], ids=["lr_nan", "lr_inf", "tau_nan", "w_giou_minus_inf", "noise_sigma_nan"])
def test_cli_train_rejects_a_non_finite_number_and_writes_nothing(tmp_path, capsys,
                                                                  field, value):
    # Python's json writes and reads NaN and Infinity; no float field takes them
    doc = dict(_tiny_doc(epochs=1), loss={})
    *parents, name = field.replace("[0]", ".0").split(".")
    target = doc
    for key in parents:
        target = target[int(key) if key.isdigit() else key]
    target[name] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
    assert f"config.{field} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section,edit,message", [
    ("loss", {"alpha": 2.0}, "loss.alpha must be in [0, 1]"),
    ("dataset", {"image_size": 36}, "dataset.image_size 36 is not a multiple of "
                                    "model.patch_size 8"),
    ("qra", {"tau": 5e-324}, "qra.tau must be in [0.001, 10], got 5e-324"),
    ("dataset", {"counts": {"train": 12, "../escaped": 2}}, "split name '../escaped' must"),
    ("dataset", {"counts": {"train": 12, "": 2}}, "split name '' must"),
], ids=["focal_alpha_above_1", "image_not_a_patch_multiple", "tau_below_1e-3",
        "split_outside_the_dir", "empty_split"])
def test_cli_rejects_a_run_that_cannot_work_and_writes_nothing(tmp_path, capsys,
                                                               section, edit, message):
    # an alpha above 1 gives the focal loss no lower bound, 8 px patches do
    # not tile a 36 px image, and 1 / tau is inf for the smallest double
    doc = _tiny_doc(epochs=1)
    doc[section] = dict(doc.get(section, {}), **edit)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    for command in ("train", "pretrain"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("split", ["../escaped", ""], ids=["outside_the_dir", "empty"])
def test_cli_keeps_every_split_file_in_its_dataset_dir(tmp_path, capsys, split):
    # a split names a file in --data or --out: gen-data and eval reject a
    # name that leaves the directory, or is empty, and write nothing
    doc = _tiny_doc(epochs=1)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(doc["dataset"], counts={"val": 2, split: 2})))
    out = tmp_path / "work" / "data"
    assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 1
    assert f"split name {split!r} must be non-empty" in capsys.readouterr().err
    assert not (tmp_path / "work").exists()

    bundle = build_run(RunConfig.from_json(doc))
    ckpt = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt, bundle.detection_parameters(), bundle.config.to_json(),
                    phase="detection", step=0)
    spec.write_text(json.dumps(doc["dataset"]))
    assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 0
    report = tmp_path / "report.json"
    assert main(["eval", "--ckpt", ckpt, "--data", str(out), "--split", split,
                 "--out", str(report)]) == 1
    assert f"split name {split!r} must be non-empty" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("change", [{"objects_range": [0, 0]},
                                    {"counts": {"train": 12, "val": 0}}],
                         ids=["no_objects", "no_images"])
def test_cli_eval_of_a_split_without_ground_truth_prints_n_a_and_exits_0(tmp_path, capsys,
                                                                        change):
    doc = _tiny_doc(epochs=1)
    bundle = build_run(RunConfig.from_json(doc))
    ckpt = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt, bundle.detection_parameters(), bundle.config.to_json(),
                    phase="detection", step=0)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**doc["dataset"], **change}))
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "d"),
                 "--splits", "val"]) == 0
    capsys.readouterr()
    report, table = tmp_path / "report.json", tmp_path / "report.csv"
    assert main(["eval", "--ckpt", ckpt, "--data", str(tmp_path / "d"),
                 "--out", str(report), "--csv", str(table)]) == 0
    assert capsys.readouterr().out == "eval[val]: AP=n/a AP50=n/a AP75=n/a\n"
    assert json.loads(report.read_text())["ap"] is None
    assert table.read_text().splitlines()[1].startswith(",,")


def test_cli_eval_rejects_a_malformed_sample_record(tmp_path, capsys):
    doc = _tiny_doc(epochs=1)
    bundle = build_run(RunConfig.from_json(doc))
    ckpt = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt, bundle.detection_parameters(), bundle.config.to_json(),
                    phase="detection", step=0)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc["dataset"]))
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "d"),
                 "--splits", "val"]) == 0
    path = tmp_path / "d" / "val.split"
    good, images = DATASET_SPLIT.read(path)
    box = good["samples"][0]["boxes"][0]
    for field, value in (("modality_id", 1.9), ("modality_id", "1"), ("modality_id", 99),
                         ("classes", ["0"]), ("classes", [7]), ("boxes", [box, box]),
                         ("boxes", [box[:3]]), ("boxes", [[box[0], float("nan")] + box[2:]])):
        bad = json.loads(json.dumps(good))
        bad["samples"][0][field] = value
        DATASET_SPLIT.write(path, bad, [images])  # the file matches its sha256
        assert main(["eval", "--ckpt", ckpt, "--data", str(tmp_path / "d")]) == 1, field
        assert "header.samples[0]" in capsys.readouterr().err, field
    DATASET_SPLIT.write(path, good, [images])
    assert main(["eval", "--ckpt", ckpt, "--data", str(tmp_path / "d")]) == 0


def test_cli_eval_rejects_a_dataset_whose_modalities_differ_from_the_checkpoint(tmp_path,
                                                                               capsys):
    # the same class list split into three modalities, not two: modality
    # id 2 names no modality of the checkpoint's run
    doc = _tiny_doc()
    doc["dataset"]["modalities"][0]["classes"] = ["ma_c0", "ma_c1"]
    bundle = build_run(RunConfig.from_json(doc))
    ckpt = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt, bundle.detection_parameters(), bundle.config.to_json(),
                    phase="detection", step=0)
    split = dict(doc["dataset"], modalities=[
        {"name": "ma", "classes": ["ma_c0"]}, {"name": "mx", "classes": ["ma_c1"]},
        {"name": "mb", "classes": ["mb_c0"]}])
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(split))
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "d"),
                 "--splits", "val"]) == 0
    capsys.readouterr()
    assert main(["eval", "--ckpt", ckpt, "--data", str(tmp_path / "d")]) == 1
    assert "modalities and classes do not match" in capsys.readouterr().err


def test_an_eval_checks_its_config_once_and_build_run_checks_nothing(tmp_path, monkeypatch):
    # a config checks itself when made: one in-process `mocadet eval` checks
    # the stored config once, and build_run on a config that exists does not
    doc = _tiny_doc()
    config = RunConfig.from_json(doc)
    bundle = build_run(config)
    ckpt = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt, bundle.detection_parameters(), config.to_json(),
                    phase="detection", step=0)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc["dataset"]))
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "d"),
                 "--splits", "val"]) == 0
    calls = []
    validate = RunConfig.validate
    monkeypatch.setattr(RunConfig, "validate",
                        lambda self: calls.append("validate") or validate(self))
    assert main(["eval", "--ckpt", ckpt, "--data", str(tmp_path / "d")]) == 0
    assert calls == ["validate"]
    calls.clear()
    build_run(config)
    assert calls == []


def test_an_eval_of_five_modalities_makes_18_range_checks(tmp_path, monkeypatch):
    # each DatasetSpec checks itself and its 5 modalities (6), and one eval
    # makes two, the checkpoint's and the split's; the RunConfig checks itself
    # and its model, loss, optim, tokens and qra sections (6), not its
    # dataset again
    from mocadet import config, data, fileio
    doc = _tiny_doc()
    doc["dataset"] = dict(make_default_spec(seed=1, counts={"train": 5, "val": 5}).to_json(),
                          image_size=16, size_range=[5, 9])
    cfg = RunConfig.from_json(doc)
    assert cfg.dataset.n_modalities == 5
    ckpt = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt, build_run(cfg).detection_parameters(), cfg.to_json(),
                    phase="detection", step=0)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc["dataset"]))
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "d"),
                 "--splits", "val"]) == 0
    calls = []
    check = fileio.check_ranges
    for module in (config, data, fileio):
        monkeypatch.setattr(module, "check_ranges",
                            lambda obj, where: calls.append(where) or check(obj, where))
    assert main(["eval", "--ckpt", ckpt, "--data", str(tmp_path / "d")]) == 0
    assert len(calls) == 18, calls


def test_cli_pretrain_and_mi_lab(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_doc(qra_steps=3)))
    assert main(["pretrain", "--config", str(cfg_path),
                 "--out", str(tmp_path / "pre")]) == 0
    assert (tmp_path / "pre" / "pretrain_steps.csv").read_text().count("\n") == 4

    rep = tmp_path / "mi.json"
    assert main(["mi-lab", "--n-joints", "2", "--K", "1,3", "--samples", "2000",
                 "--seed", "1", "--report", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    assert doc["passed"] is True


def test_cli_pretrain_rejected_by_the_sampler_writes_nothing(tmp_path, capsys):
    # one train image for two modalities: the second has none to sample
    doc = _tiny_doc()
    doc["dataset"]["counts"] = {"train": 1, "val": 2}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(tmp_path / "pre")]) == 1
    assert "modalities with no samples" in capsys.readouterr().err
    assert not (tmp_path / "pre").exists()


@pytest.mark.parametrize("case", ["missing", "empty_path", "n_queries", "n_heads"])
def test_cli_train_rejecting_the_pretraining_checkpoint_writes_nothing(tmp_path, capsys, case):
    # n_heads: a checkpoint of 4 heads holds the shapes of the run's 2
    ckpt = "" if case == "empty_path" else tmp_path / "pre" / "pretrain.ckpt"
    if case in ("n_queries", "n_heads"):
        other = _tiny_doc(qra_steps=0)
        other["model"][case] = {"n_queries": 8, "n_heads": 4}[case]
        run_pretrain(RunConfig.from_json(other), str(tmp_path / "pre"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_doc(epochs=1)))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run"),
                 "--from-pretrain", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "runtime error" not in err
    assert not (tmp_path / "run").exists()


def test_cli_pretrain_with_zero_steps(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_doc(qra_steps=0)))
    assert main(["pretrain", "--config", str(cfg_path),
                 "--out", str(tmp_path / "pre")]) == 0
    assert capsys.readouterr().out.startswith("pretrain: 0 steps; checkpoint ")
    assert (tmp_path / "pre" / "pretrain_steps.csv").read_text() == "step,loss\n"
    header, _ = load_checkpoint(str(tmp_path / "pre" / "pretrain.ckpt"))
    assert header["step"] == 0


@pytest.mark.parametrize("args", [["--K", "a"], ["--K", "-1"], ["--K", ""], ["--K", "1,0"],
                                  ["--n-joints", "0"], ["--n-joints", "-1"],
                                  ["--K", "64"], ["--K", "1,1000000000000"],
                                  ["--samples", "999"], ["--samples", "200001"],
                                  ["--samples", "1000000000000"], ["--n-joints", "10001"]],
                         ids=["K_text", "K_negative", "K_empty", "K_zero", "no_joints",
                              "negative_joints", "K_64", "K_10_pow_12", "samples_999",
                              "samples_200001", "samples_10_pow_12", "joints_10001"])
def test_cli_mi_lab_bad_arguments_exit_1(capsys, args):
    # each is a usage error that names its flag, before anything is sampled
    assert main(["mi-lab", "--samples", "1000", *args]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1].startswith(
        f"mocadet mi-lab: error: argument {args[0]}: ")


@pytest.mark.parametrize("command,field", [("train", "seed"), ("train", "tokens.seed"),
                                           ("gen-data", "dataset.seed")],
                         ids=["config_seed", "tokens_seed", "dataset_seed"])
def test_cli_rejects_a_negative_seed_in_a_document_and_writes_nothing(tmp_path, capsys,
                                                                      command, field):
    doc = _tiny_doc(epochs=1)
    *parents, name = field.split(".")
    target = doc
    for key in parents:
        target = target[key]
    target[name] = -1
    path = tmp_path / "in.json"
    if command == "gen-data":
        path.write_text(json.dumps(doc["dataset"]))
        argv = ["gen-data", "--spec", str(path)]
    else:
        path.write_text(json.dumps(doc))
        argv = ["train", "--config", str(path)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{field} must be in [0, 2^64), got -1" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["tokens", "synth", "--catalog", "--seed", "-1"],
                                  ["tokens", "synth", "--catalog", "--seed", str(2**70)],
                                  ["mi-lab", "--samples", "1000", "--seed", "-1"]],
                         ids=["tokens_negative", "tokens_2_pow_70", "mi_lab_negative"])
def test_cli_rejects_a_seed_flag_outside_0_to_2_pow_64_and_writes_nothing(tmp_path, capsys,
                                                                          argv):
    out = tmp_path / "out.json"
    assert main([*argv, "--out" if argv[0] == "tokens" else "--report", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and "--seed must be in [0, 2^64), got " in err
    assert not out.exists()
    # the largest seed is accepted
    assert main(["tokens", "synth", "--catalog", "--d-text", "4", "--seed", str(2**64 - 1),
                 "--out", str(out)]) == 0


def test_cli_gen_data_rejects_a_modality_without_classes(tmp_path, capsys):
    spec = _tiny_doc()["dataset"]
    spec["modalities"][1]["classes"] = []
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["gen-data", "--spec", str(path), "--out", str(tmp_path / "data")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'mb': classes must name at least one class" in err
    assert not (tmp_path / "data").exists()


def test_cli_gen_data_rejects_two_modalities_of_one_name(tmp_path, capsys):
    # sample ids are <split>-<modality name>-<i>, so a training run on such
    # a spec failed only at its first evaluation, after writing its logs
    spec = _tiny_doc()["dataset"]
    spec["modalities"][1]["name"] = "ma"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["gen-data", "--spec", str(path), "--out", str(tmp_path / "data")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "modality names must be unique: 'ma'" in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("field", ["noise_sigma", "texture_freq"])
def test_cli_gen_data_rejects_a_negative_modality_field(tmp_path, capsys, field):
    spec = _tiny_doc()["dataset"]
    spec["modalities"][1][field] = -0.1
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["gen-data", "--spec", str(path), "--out", str(tmp_path / "data")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and \
        f"dataset.modalities[1].{field} must be in [0, " in err and "got -0.1" in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("command", ["train", "gen-data"])
def test_cli_rejects_a_size_no_memory_holds_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                               command):
    # model.n_decoder_layers 2^63 once built layers until memory ran out, and
    # counts.val 2^63 rendered without end: should the checks let either
    # through, these stand-ins end the command instead
    from mocadet import cli

    def past_the_checks(*args, **kwargs):
        raise AssertionError(f"{command} got past its checks")

    monkeypatch.setattr(cli, "run_train", past_the_checks)
    monkeypatch.setattr(cli, "generate_synthetic", past_the_checks)
    doc = _tiny_doc(epochs=1)
    path = tmp_path / "in.json"
    if command == "train":
        doc["model"]["n_decoder_layers"] = 2 ** 63
        path.write_text(json.dumps(doc))
        argv, message = ["train", "--config", str(path)], "config.model.n_decoder_layers"
    else:
        doc["dataset"]["counts"]["val"] = 2 ** 63
        path.write_text(json.dumps(doc["dataset"]))
        argv, message = ["gen-data", "--spec", str(path)], "dataset.counts.val"
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"{message} must be in [" in err and f"got {2 ** 63}" in err
    assert not (tmp_path / "out").exists()


def test_cli_gen_data_checks_every_split_before_it_writes(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_tiny_doc()["dataset"]))
    assert main(["gen-data", "--spec", str(path), "--out", str(tmp_path / "o"),
                 "--splits", "train,bogus"]) == 1
    assert "split 'bogus' not declared in counts" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# bool_entry and unknown_key would be valid 1x1 joints with the bool read as
# 1.0 or the unknown key dropped
@pytest.mark.parametrize("doc", [{"joints": 3}, {}, [1], {"joints": []},
                                 {"joints": [[[0.5, "a"]]]}, {"joints": [[[0.5], [0.25, 0.25]]]},
                                 {"joints": [[[True]]]}, {"joints": [[[1.0]]], "typo": 1}],
                         ids=["not_a_list", "no_joints", "not_an_object", "empty",
                              "non_numeric", "ragged", "bool_entry", "unknown_key"])
def test_cli_mi_lab_malformed_joints_file_exits_1(tmp_path, capsys, doc):
    path = tmp_path / "joints.json"
    path.write_text(json.dumps(doc))
    assert main(["mi-lab", "--joints", str(path), "--K", "1", "--samples", "1000"]) == 1
    assert "runtime error" not in capsys.readouterr().err


def test_cli_tokens_inspect_malformed_registry_exits_1(tmp_path, capsys):
    for i, tokens in enumerate([[1, 2], {"CT|a": [1.0, "x"]}, {"CT|a": "ab"},
                                {"CT|a": [1.0, None]}, {"CT|a": 2.0}]):
        path = tmp_path / f"reg{i}.json"
        path.write_text(json.dumps({"d_text": 2, "tokens": tokens}))
        assert main(["tokens", "inspect", str(path)]) == 1, tokens
        assert "runtime error" not in capsys.readouterr().err


def test_cli_exit_codes(tmp_path):
    # unknown argument -> validation exit
    assert main(["train", "--nope"]) == 1
    # malformed config -> validation exit
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    # bad field value -> validation exit with diagnostics
    doc = _tiny_doc()
    doc["optim"]["lr"] = -5.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    # a value of the wrong JSON type is not converted: "false" is not false
    cfg.write_text(json.dumps(dict(_tiny_doc(), moca="false")))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()
    # out-of-range batch and split sizes are rejected before the run directory
    # is made: a negative qra.batch_size, and a train split with no images
    doc = _tiny_doc()
    doc["qra"]["batch_size"] = -1
    cfg.write_text(json.dumps(doc))
    assert main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()
    doc = _tiny_doc()
    doc["dataset"]["counts"] = {"train": -5, "val": 6}
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()
    # missing checkpoint file -> validation exit (checkpoint error)
    assert main(["eval", "--ckpt", str(tmp_path / "none.ckpt"),
                 "--data", str(tmp_path)]) == 1


@pytest.mark.parametrize("command", ["train", "pretrain", "gen-data"])
@pytest.mark.parametrize("under_file", [False, True], ids=["file", "under_file"])
def test_cli_output_directory_that_is_a_file_exits_1(tmp_path, capsys, command, under_file):
    doc = _tiny_doc(epochs=1, qra_steps=1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc["dataset"] if command == "gen-data" else doc))
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    out = blocker / "sub" if under_file else blocker
    source = "--spec" if command == "gen-data" else "--config"
    assert main([command, source, str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "runtime error" not in err
    assert blocker.read_text() == "x"


@pytest.mark.parametrize("flag,target", [("--out", "blocker/r.json"), ("--csv", "blocker/r.csv"),
                                         ("--out", "d")], ids=["out", "csv", "out_dir"])
def test_cli_eval_report_path_under_a_file_or_on_a_directory_exits_1(tmp_path, capsys,
                                                                     monkeypatch, flag, target):
    from mocadet import train
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_tiny_doc()["dataset"]))
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 0
    ckpt = run_train(RunConfig.from_json(_tiny_doc(epochs=1)),
                     str(tmp_path / "run"))["checkpoint_final"]
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    loads, load = [], train.load_checkpoint
    monkeypatch.setattr(train, "load_checkpoint", lambda *a: loads.append(a) or load(*a))
    capsys.readouterr()
    assert main(["eval", "--ckpt", ckpt, "--data", str(tmp_path / "d"),
                 flag, str(tmp_path / target)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error:") and "runtime error" not in err
    # the paths are checked before the checkpoint is read or anything is scored
    assert out == "" and not loads


@pytest.mark.parametrize("flag,target,other", [
    ("--out", "r.json", ["--csv", "r.json"]), ("--csv", "d/../model.ckpt", []),
    ("--out", "model.ckpt", []), ("--out", "link.ckpt", []),
    ("--out", "d/val.split", []), ("--csv", "d/val.split", ["--out", "r.json"])],
    ids=["out_is_csv", "csv_is_ckpt", "out_is_ckpt", "out_links_to_ckpt", "out_is_split",
         "csv_is_split"])
def test_cli_eval_writes_no_file_it_reads_or_writes_twice(tmp_path, capsys, monkeypatch,
                                                         flag, target, other):
    from mocadet import train
    bundle = build_run(RunConfig.from_json(_tiny_doc()))
    save_checkpoint(str(tmp_path / "model.ckpt"), bundle.detection_parameters(),
                    bundle.config.to_json(), phase="detection", step=0)
    (tmp_path / "link.ckpt").symlink_to(tmp_path / "model.ckpt")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_tiny_doc()["dataset"]))
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "d"),
                 "--splits", "val"]) == 0
    (tmp_path / "r.json").write_text("an old report")
    files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    loads, load = [], train.load_checkpoint
    monkeypatch.setattr(train, "load_checkpoint", lambda *a: loads.append(a) or load(*a))
    capsys.readouterr()
    other = [other[0], str(tmp_path / other[1])] if other else []
    assert main(["eval", "--ckpt", str(tmp_path / "model.ckpt"), "--data", str(tmp_path / "d"),
                 *other, flag, str(tmp_path / target)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: cannot write") and "it is an input or the other output" in err
    # rejected before the checkpoint is read, and every file is left as it was
    assert out == "" and not loads
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == files


@pytest.mark.parametrize("argv", [
    ["tokens", "silhouette", "r.json", "--json", "r.json"],
    ["mi-lab", "--joints", "j.json", "--report", "j.json"],
    ["mi-lab", "--joints", "j.json", "--report", "link.json"],
    ["tokens", "synth", "--spec", "s.json", "--out", "s.json"]],
    ids=["silhouette_json_is_registry", "mi_lab_report_is_joints",
         "mi_lab_report_links_to_joints", "synth_out_is_spec"])
def test_cli_commands_write_no_file_they_read(tmp_path, capsys, monkeypatch, argv):
    (tmp_path / "s.json").write_text(json.dumps(_tiny_doc()["dataset"]))
    assert main(["tokens", "synth", "--spec", str(tmp_path / "s.json"), "--d-text", "8",
                 "--out", str(tmp_path / "r.json")]) == 0
    (tmp_path / "j.json").write_text(json.dumps({"joints": [[[0.4, 0.1], [0.1, 0.4]]]}))
    (tmp_path / "link.json").symlink_to(tmp_path / "j.json")
    files = {p: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: cannot write") and "it is an input or the other output" in err
    assert out == ""  # refused before the command read or computed anything
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == files


@pytest.mark.parametrize("argv,registry", [
    (["pretrain", "--config", "run/config.json", "--out", "run"], None),
    (["train", "--config", "run/config.json", "--out", "run"], None),
    (["train", "--config", "cfg.json", "--out", "./run/", "--from-pretrain", "run/final.ckpt"],
     None),
    (["train", "--config", "cfg.json", "--out", "run", "--from-pretrain", "run/best.ckpt"],
     None),
    (["pretrain", "--config", "cfg.json", "--out", "run"], "run/pretrain_steps.csv"),
    (["train", "--config", "cfg.json", "--out", "run"], "run/report.json")],
    ids=["pretrain_config", "train_config", "train_from_final_ckpt", "train_from_best_ckpt",
         "pretrain_token_file", "train_token_file"])
def test_a_run_refuses_an_input_that_it_would_write_over(tmp_path, capsys, monkeypatch, argv,
                                                         registry):
    # every input is valid, so without the check the run would go on and
    # replace it
    monkeypatch.chdir(tmp_path)
    run_pretrain(RunConfig.from_json(_tiny_doc(qra_steps=0)), "run")
    doc = _tiny_doc(epochs=1, qra_steps=1)
    if registry:
        save_registry(build_registry([("ma", "ma_c0"), ("mb", "mb_c0")], d_text=8), registry)
        doc["tokens"] = {"source": "file", "d_text": 8, "path": registry}
    for name in (argv[argv.index("--config") + 1], "cfg.json"):
        (tmp_path / name).write_text(json.dumps(doc))
    if "--from-pretrain" in argv:
        os.replace("run/pretrain.ckpt", argv[-1])
    tree = {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: cannot run with") and "the run writes over it" in err
    assert out == ""
    assert {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")} == tree


def test_a_run_may_read_what_the_other_phase_wrote_into_its_directory(tmp_path, monkeypatch):
    # train over the pretraining run: pretrain.ckpt is not a file train writes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(_tiny_doc(epochs=1, qra_steps=1)))
    assert main(["pretrain", "--config", "cfg.json", "--out", "run"]) == 0
    before = _read(tmp_path / "run" / "pretrain.ckpt")
    assert main(["train", "--config", "run/config.json", "--out", "run/ft",
                 "--from-pretrain", "run/pretrain.ckpt"]) == 0
    assert main(["train", "--config", "cfg.json", "--out", "run",
                 "--from-pretrain", "run/pretrain.ckpt"]) == 0
    assert _read(tmp_path / "run" / "pretrain.ckpt") == before
    assert sorted(os.listdir(tmp_path / "run")) == sorted(
        set(RUN_FILES["pretrain"]) | set(RUN_FILES["train"]) | {"ft"})


def test_a_non_finite_detection_checkpoint_value_fails_eval_by_name(tmp_path, capsys):
    doc = _tiny_doc(epochs=1)
    bundle = build_run(RunConfig.from_json(doc))
    ckpt = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt, bundle.detection_parameters(), bundle.config.to_json(),
                    phase="detection", step=0)
    _poison_checkpoint(ckpt, "decoder.1.ffn.lin1.W", np.nan)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc["dataset"]))
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "d"),
                 "--splits", "val"]) == 0
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert main(["eval", "--ckpt", ckpt, "--data", str(tmp_path / "d"),
                 "--out", str(report)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error:") and "'decoder.1.ffn.lin1.W'" in err
    assert out == "" and not report.exists()


def test_a_non_finite_pretraining_checkpoint_value_fails_train_and_writes_nothing(tmp_path,
                                                                                  capsys):
    ckpt = run_pretrain(RunConfig.from_json(_tiny_doc(qra_steps=0)),
                        str(tmp_path / "pre"))["checkpoint"]
    _poison_checkpoint(ckpt, "token_projection.W", np.inf)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_doc(epochs=1)))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run"),
                 "--from-pretrain", ckpt]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'token_projection.W'" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy sets glibc's mallopt and nothing elsewhere")
def test_training_steps_reuse_their_memory():
    # glibc trimming the freed heap after every step, and mapping large blocks
    # afresh, cost about 1,000 minor page faults per step of this size
    optimizer, loss_of = _default_model_step(4)
    for _ in range(3):
        optimizer_step(optimizer, loss_of)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(6):
        optimizer_step(optimizer, loss_of)
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 6
    assert faults < 100


def test_the_allocator_policy_is_glibc_only_and_its_failure_is_ignored(monkeypatch):
    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda *a: calls.append(a))
    config = RunConfig.from_json(_tiny_doc())
    monkeypatch.setattr(platform, "libc_ver", lambda *a, **k: ("musl", "1.2"))
    build_run(config)
    assert calls == []
    # on glibc the library is opened; a library without mallopt changes nothing
    monkeypatch.setattr(platform, "libc_ver", lambda *a, **k: ("glibc", "2.99"))
    build_run(config)
    assert calls == [(None,)]


def test_gradients_handed_over_by_pullbacks_never_alias():
    optimizer, loss_of = _default_model_step(2)
    optimizer.zero_grad()
    with ad.Tape() as tape:
        loss = loss_of()
        nodes = list(tape.nodes)
        ad.backward(loss)
    leaves = [p for _, p in optimizer.named_params]
    for p in leaves:
        assert p.grad.base is optimizer.grad
    # arrays on different buffers cannot overlap; compare within each buffer
    by_buffer = {}
    for t in nodes + leaves:
        if t.grad is not None:
            root = t.grad
            while root.base is not None:
                root = root.base
            by_buffer.setdefault(id(root), []).append(t.grad)
    assert sum(map(len, by_buffer.values())) > len(leaves)
    for grads in by_buffer.values():
        for i, a in enumerate(grads):
            for b in grads[i + 1:]:
                assert not np.shares_memory(a, b)


def test_backward_holds_no_more_memory_than_the_forward_pass_left():
    # each node is freed once its pullback has run, so the traced peak of
    # backward stays near what the forward pass holds (1.8 times it when
    # backward keeps the whole graph to the end)
    optimizer, loss_of = _default_model_step(4)
    optimizer_step(optimizer, loss_of)
    optimizer.zero_grad()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with ad.Tape():
            loss = loss_of()
            forward = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert forward > 10e6  # the default model's activations, about 11 MB
    assert peak <= 1.1 * forward, (peak, forward)


def test_the_forward_pass_holds_only_what_backward_reads():
    # pullbacks keep the arrays their formulas read, not their parents'
    # values: about 11 MB at the end of this forward pass, against 16 MB
    # when every intermediate value lives until backward reaches it
    optimizer, loss_of = _default_model_step(4)
    optimizer_step(optimizer, loss_of)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with ad.Tape():
            loss = loss_of()  # held, as a training step holds it until backward
            forward = tracemalloc.get_traced_memory()[0] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert forward <= 13e6, forward


@pytest.mark.parametrize("moca", [True, False], ids=["moca", "base"])
def test_a_tiny_run_learns_its_own_training_images(tmp_path, moca):
    # the goldens pin behaviour; this pins learning: 300 steps overfit four
    # 32 px images, scored through the saved checkpoint. Two classes per
    # modality, so a box matched to another object's class is an error
    dataset = dict(_tiny_doc()["dataset"], image_size=32, counts={"train": 4},
                   size_range=[8, 14], objects_range=[1, 2])
    for m in dataset["modalities"]:
        m["classes"] = [f"{m['name']}_c0", f"{m['name']}_c1"]
    doc = {
        "dataset": dataset,
        "model": {"d_model": 32, "n_queries": 8, "n_decoder_layers": 2, "n_heads": 4,
                  "patch_size": 8, "n_encoder_layers": 0, "ffn_width": 64},
        "optim": {"lr": 2e-3, "weight_decay": 1e-4, "decay_epoch": 300, "epochs": 300},
        "tokens": {"source": "synthetic", "d_text": 8, "seed": 1},
        "qra": {"layer": 2}, "batch_size": 4, "seed": 0, "moca": moca,
    }
    summary = run_train(RunConfig.from_json(doc), str(tmp_path))
    assert summary["steps"] == 300
    bundle = load_detector_for_eval(summary["checkpoint_final"])
    ap50 = evaluate(bundle, bundle.train_samples).ap50
    assert ap50 >= 0.9
