"""End-to-end tests for training loops, checkpoint resume, and the CLI."""

import json
import os

import numpy as np
import pytest

from mocadet.checkpoint import load_checkpoint, save_checkpoint
from mocadet.cli import main
from mocadet.config import RunConfig
from mocadet.errors import CheckpointError
from mocadet.evaluation import DETECTION
from mocadet.losses import detection_loss
from mocadet.train import (build_run, evaluate, load_detector_for_eval,
                           load_pretrained, run_pretrain, run_train)


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

    bundle = build_run(RunConfig.from_json(_tiny_doc()))
    load_pretrained(bundle, result["checkpoint"])
    _, stored = load_checkpoint(result["checkpoint"])
    for name, p in bundle.model.parameters() + bundle.projection.parameters():
        assert np.array_equal(p.data, stored[name])


def test_finetune_config_mismatch_rejected(tmp_path):
    cfg = RunConfig.from_json(_tiny_doc())
    result = run_pretrain(cfg, str(tmp_path / "pre"))
    other = _tiny_doc()
    other["model"]["n_queries"] = 8
    bundle = build_run(RunConfig.from_json(other))
    with pytest.raises(CheckpointError):
        load_pretrained(bundle, result["checkpoint"])


def test_finetune_runs_and_improves_nothing_breaks(tmp_path):
    cfg = RunConfig.from_json(_tiny_doc(epochs=1))
    pre = run_pretrain(cfg, str(tmp_path / "pre"))
    summary = run_train(cfg, str(tmp_path / "ft"), from_pretrain=pre["checkpoint"])
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


def test_checkpoint_with_bad_config_raises_checkpoint_error(tmp_path):
    # well-formed files that load_checkpoint accepts, with a config entry
    # that is missing, not an object, or not a valid run config
    path = tmp_path / "bad.ckpt"

    def write(header):
        raw = json.dumps({"format": "mocadet-checkpoint-v1", "params": [],
                          **header}).encode()
        path.write_bytes(b"MDCKPT1\n" + len(raw).to_bytes(8, "little") + raw)

    for config in ({}, {"config": {"model": 3}}, {"config": [1, 2]},
                   {"config": "text"}, {"config": {"batch_size": "four"}},
                   {"config": {"model": {"bogus": 1}}}):
        write({"phase": "detection", **config})
        with pytest.raises(CheckpointError):
            load_detector_for_eval(str(path))
        assert main(["eval", "--ckpt", str(path), "--data", str(tmp_path)]) == 1
    bundle = build_run(RunConfig.from_json(_tiny_doc()))
    for config in ({}, {"config": [1, 2]}, {"config": "text"}):
        write({"phase": "pretrain", **config})
        with pytest.raises(CheckpointError):
            load_pretrained(bundle, str(path))


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


def test_evaluate_in_batches_equals_one_image_at_a_time(tmp_path, monkeypatch):
    from mocadet import train
    seen = []
    monkeypatch.setattr(train, "ap_report", lambda detections, *a, **k: seen.append(detections))
    bundle = build_run(RunConfig.from_json(_tiny_doc()))
    for batch_size in (4, 1):  # 6 val images: batches of 4 and 2, then six of 1
        bundle.config.batch_size = batch_size
        evaluate(bundle, bundle.val_samples)
    batched, single = seen
    assert batched.dtype == single.dtype == DETECTION
    assert len(batched) == len(single) > 0
    for a, b in zip(batched, single):
        assert (a["image"], a["class_id"]) == (b["image"], b["class_id"])
        assert np.allclose(np.append(a["box"], a["score"]), np.append(b["box"], b["score"]),
                           rtol=0, atol=1e-12)


# -- CLI ----------------------------------------------------------------------


def test_cli_gen_data_tokens_and_silhouette(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_tiny_doc()["dataset"]))
    assert main(["gen-data", "--spec", str(spec_path), "--out",
                 str(tmp_path / "data"), "--coco"]) == 0
    assert (tmp_path / "data" / "train_manifest.json").exists()
    assert (tmp_path / "data" / "val_coco.json").exists()

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


def test_cli_eval_rejects_a_malformed_manifest_record(tmp_path, capsys):
    doc = _tiny_doc(epochs=1)
    bundle = build_run(RunConfig.from_json(doc))
    ckpt = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt, bundle.detection_parameters(), bundle.config.to_json(),
                    phase="detection", step=0)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc["dataset"]))
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "d"),
                 "--splits", "val"]) == 0
    path = tmp_path / "d" / "val_manifest.json"
    good = json.loads(path.read_text())
    box = good["samples"][0]["boxes"][0]
    for field, value in (("modality_id", 1.9), ("modality_id", "1"), ("modality_id", 99),
                         ("classes", ["0"]), ("classes", [7]), ("boxes", [box, box]),
                         ("boxes", [box[:3]])):
        bad = json.loads(json.dumps(good))
        bad["samples"][0][field] = value
        path.write_text(json.dumps(bad))
        assert main(["eval", "--ckpt", ckpt, "--data", str(tmp_path / "d")]) == 1, field
        assert "manifest.samples[0]" in capsys.readouterr().err, field
    path.write_text(json.dumps(good))
    assert main(["eval", "--ckpt", ckpt, "--data", str(tmp_path / "d")]) == 0


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


@pytest.mark.parametrize("case", ["missing", "empty_path", "n_queries"])
def test_cli_train_rejecting_the_pretraining_checkpoint_writes_nothing(tmp_path, capsys, case):
    ckpt = "" if case == "empty_path" else tmp_path / "pre" / "pretrain.ckpt"
    if case == "n_queries":
        other = _tiny_doc(qra_steps=0)
        other["model"]["n_queries"] = 8
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


@pytest.mark.parametrize("doc", [{"joints": 3}, {}, [1], {"joints": []},
                                 {"joints": [[[0.5, "a"]]]}, {"joints": [[[0.5], [0.25, 0.25]]]}],
                         ids=["not_a_list", "no_joints", "not_an_object", "empty",
                              "non_numeric", "ragged"])
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
