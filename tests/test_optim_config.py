"""Tests for AdamW, the lr schedule, run config, and checkpoint IO."""

import dataclasses
import json
import os

import numpy as np
import pytest

from mocadet import autodiff as ad
from mocadet.checkpoint import load_checkpoint, restore_params, save_checkpoint
from mocadet.cli import main
from mocadet.config import OptimConfig, QraConfig, RunConfig, TokenConfig
from mocadet.data import DatasetSpec, ModalitySpec, make_default_spec
from mocadet.errors import CheckpointError, ContractError, ValidationError
from mocadet.fileio import atomic_write
from mocadet.losses import LossWeights
from mocadet.optim import CHUNK, AdamW


def test_adamw_zero_grad_zero_decay_noop():
    p = ad.param([1.0, -2.0])
    opt = AdamW([("p", p)], lr=0.1, weight_decay=0.0)
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.data, [1.0, -2.0])


def test_adamw_first_step_hand_value():
    # oracle: bias-corrected first step with g=1 moves by lr/(1+eps)
    p = ad.param(np.asarray(0.5))
    opt = AdamW([("p", p)], lr=0.1, weight_decay=0.0)
    p.grad = np.asarray(1.0)
    opt.step()
    expected = 0.5 - 0.1 * (1.0 / (1.0 + 1e-8))
    assert p.data == pytest.approx(expected, rel=1e-12)


def test_adamw_decoupled_weight_decay():
    p = ad.param(np.asarray(2.0))
    opt = AdamW([("p", p)], lr=0.1, weight_decay=0.01)
    p.grad = np.asarray(0.0)
    opt.step()
    assert p.data == pytest.approx(2.0 - 0.1 * 0.01 * 2.0, rel=1e-12)


def test_adamw_rejects_nan_gradient():
    p = ad.param(np.asarray(1.0))
    opt = AdamW([("p", p)], lr=0.1)
    p.grad = np.asarray(np.nan)
    with pytest.raises(ContractError):
        opt.step()

    # a NaN in a later parameter leaves the earlier one and the step untouched
    a, b = ad.param(np.asarray(1.0)), ad.param(np.asarray(2.0))
    opt = AdamW([("a", a), ("b", b)], lr=0.1, weight_decay=0.01)
    a.grad, b.grad = np.asarray(1.0), np.asarray(np.nan)
    with pytest.raises(ContractError):
        opt.step()
    assert a.data == 1.0 and b.data == 2.0 and opt.t == 0
    assert not opt.m.any() and not opt.v.any()


class _PerTensorAdamW:
    """The per-tensor AdamW loop the flat store replaced, kept as the oracle."""

    def __init__(self, params, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
        self.params, self.lr, self.weight_decay, self.eps = params, lr, weight_decay, eps
        self.b1, self.b2 = betas
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = np.zeros_like(p.data) if p.grad is None else p.grad.reshape(p.data.shape)
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * update


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
def test_flat_adamw_matches_per_tensor_loop_bitwise(weight_decay):
    """Five steps over more than two chunks with a ragged last one; parameter
    2 never gets a gradient and parameter 3's gradient is assigned."""
    rng = np.random.default_rng(7)
    shapes = [(200, 200), (150, 100), (7,), (), (3, 5), (12345,)]
    size = sum(int(np.prod(s)) for s in shapes)
    assert size > 2 * CHUNK and size % CHUNK
    init = [rng.normal(size=s) for s in shapes]
    weights = [rng.normal(size=s) for s in shapes]
    flat = [ad.param(x.copy()) for x in init]
    ref = [ad.param(x.copy()) for x in init]
    opt = AdamW([(f"p{i}", p) for i, p in enumerate(flat)], lr=1e-2,
                weight_decay=weight_decay)
    oracle = _PerTensorAdamW(ref, lr=1e-2, weight_decay=weight_decay)
    assert all(np.shares_memory(p.data, opt.data) for p in flat)
    for _ in range(5):
        opt.zero_grad()
        views = [p.grad for p in flat]
        assert all(g.base is opt.grad and not g.any() for g in views)
        ad.zero_grad(ref)
        assigned = rng.normal(size=shapes[3])
        for params in (flat, ref):
            with ad.Tape():
                terms = [ad.sum_all(ad.mul(ad.mul(p, p), w))
                         for i, (p, w) in enumerate(zip(params, weights)) if i not in (2, 3)]
                ad.backward(sum(terms[1:], terms[0]))
            params[3].grad = assigned.copy()
        assert all(p.grad is g for i, (p, g) in enumerate(zip(flat, views)) if i != 3)
        opt.step()
        oracle.step()
        for i, (p, q) in enumerate(zip(flat, ref)):
            assert p.data.tobytes() == q.data.tobytes(), i
            lo = sum(int(np.prod(s)) for s in shapes[:i])
            assert opt.m[lo:lo + p.data.size].tobytes() == oracle.m[i].tobytes()
            assert opt.v[lo:lo + p.data.size].tobytes() == oracle.v[i].tobytes()
    assert all(np.shares_memory(p.data, opt.data) for p in flat)


def test_adamw_rejects_a_parameter_listed_twice():
    p = ad.param(np.ones(3))
    with pytest.raises(ContractError):
        AdamW([("a", p), ("b", p)], lr=0.1)


def test_multistep_schedule():
    # exact equality: metrics_steps.csv logs repr(lr)
    optim = OptimConfig(lr=2e-4, decay_epoch=40, decay_factor=0.1)
    assert optim.lr_at(0) == optim.lr_at(39) == 2e-4
    assert optim.lr_at(40) == optim.lr_at(99) == 2e-4 * 0.1


# -- config ------------------------------------------------------------------


def test_config_defaults_mirror_training_recipe():
    cfg = RunConfig(dataset=make_default_spec()).validate()
    assert cfg.optim.lr in (1e-4, 2e-4)
    assert cfg.optim.weight_decay == 1e-4
    assert cfg.optim.decay_factor == 0.1
    assert cfg.loss.w_focal == 2.0 and cfg.loss.alpha == 0.25 and cfg.loss.gamma == 2.0
    assert cfg.loss.w_l1 == 5.0 and cfg.loss.w_giou == 2.0
    assert cfg.qra.tau == 0.07 and cfg.qra.layer == 5


def _assert_every_field_differs(value, default, where):
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _assert_every_field_differs(getattr(value, f.name), getattr(default, f.name),
                                        f"{where}.{f.name}")
    elif isinstance(value, list) and dataclasses.is_dataclass(value[0]):
        _assert_every_field_differs(value[0], default[0], f"{where}[0]")
    else:
        assert value != default, where


def test_config_round_trip():
    # every field, at every level, away from its default: a field whose
    # annotation the reader cannot read fails here
    spec = DatasetSpec(
        modalities=[ModalitySpec("ma", ("ma_c0", "ma_c1"), curve=3, noise_sigma=0.5,
                                 texture_freq=7.0),
                    ModalitySpec("mb", ("mb_c0",)), ModalitySpec("mc", ("mc_c0",))],
        image_size=32, counts={"train": 9, "test": 3}, seed=4, size_range=(6, 30),
        objects_range=(0, 2))
    cfg = RunConfig(
        dataset=spec, model={"d_model": 32, "n_decoder_layers": 4},
        loss=LossWeights(w_focal=1.5, alpha=0.5, gamma=1.0, w_l1=4.0, w_giou=3.0),
        optim=OptimConfig(lr=1e-3, weight_decay=0.0, decay_epoch=3, decay_factor=0.5,
                          epochs=5),
        tokens=TokenConfig(source="file", d_text=16, seed=2, path="registry.json"),
        qra=QraConfig(tau=0.1, layer=3, steps=7, batch_size=2, lr=1e-3),
        batch_size=3, seed=9, moca=False, eval_every=2).validate()
    _assert_every_field_differs(cfg, RunConfig(), "config")
    doc = json.loads(json.dumps(cfg.to_json()))
    assert doc == cfg.to_json()
    again = RunConfig.from_json(doc)
    assert again == cfg
    assert again.to_json() == doc
    assert RunConfig.from_json({}) == RunConfig()


def test_config_rejects_oversized_qra_batch():
    doc = {"dataset": make_default_spec().to_json(), "qra": {"batch_size": 6}}
    with pytest.raises(ValidationError):
        RunConfig.from_json(doc)


def test_config_rejects_bad_qra_layer():
    doc = {"dataset": make_default_spec().to_json(),
           "model": {"n_decoder_layers": 3}, "qra": {"layer": 5}}
    with pytest.raises(ValidationError):
        RunConfig.from_json(doc)


def test_config_rejects_reserved_model_keys():
    doc = {"dataset": make_default_spec().to_json(), "model": {"n_classes": 3}}
    with pytest.raises(ValidationError):
        RunConfig.from_json(doc)


def test_config_field_level_messages():
    doc = {"dataset": make_default_spec().to_json(), "optim": {"lr": -1.0}}
    with pytest.raises(ValidationError, match="optim.lr"):
        RunConfig.from_json(doc)
    doc = {"dataset": make_default_spec().to_json(), "tokens": {"source": "magic"}}
    with pytest.raises(ValidationError, match="tokens.source"):
        RunConfig.from_json(doc)


def test_config_rejects_non_object_documents_and_bad_values():
    spec = make_default_spec().to_json()
    for doc in ([1, 2], "text", {"dataset": spec, "model": 3},
                {"dataset": spec, "batch_size": "four"}, {"dataset": spec, "seed": [0]},
                {"dataset": spec, "optim": {"lr": "fast"}}):
        with pytest.raises(ValidationError):
            RunConfig.from_json(doc)

    # values of the wrong JSON type and an unknown key, each named by its field
    modalities = [dict(spec["modalities"][0], classes="ab")] + spec["modalities"][1:]
    for doc, field in (
            ({"moca": "false"}, "config.moca"),
            ({"batch_size": 2.7}, "config.batch_size"),
            ({"seed": 1.9}, "config.seed"),
            ({"dataset": dict(spec, image_size=64.5)}, "config.dataset.image_size"),
            ({"epochs": 3}, "config.epochs"),
            ({"optim": {"lr": True}}, "config.optim.lr"),
            ({"dataset": dict(spec, counts={"train": 20.5})}, "config.dataset.counts.train"),
            ({"dataset": dict(spec, modalities=modalities)},
             r"config\.dataset\.modalities\[0\]\.classes"),
            ({"qra": {"batch_size": 2.5}}, "config.qra.batch_size"),
            ({"tokens": {"path": 3}}, "config.tokens.path"),
            ({"optim": {"lr": 10 ** 400}}, "config.optim.lr"),
            # ranges: None is the one way to ask for every modality, and a
            # run needs a train split of at least one image
            ({"qra": {"batch_size": 0}}, "qra.batch_size must be >= 1"),
            ({"qra": {"batch_size": -1}}, "qra.batch_size must be >= 1"),
            ({"dataset": dict(spec, counts={"train": -5, "val": 6})}, "counts.train must be >= 0"),
            ({"dataset": dict(spec, counts={"train": 4, "val": -1})}, "counts.val must be >= 0"),
            ({"dataset": dict(spec, counts={"train": 0, "val": 6})}, "counts.train must be >= 1"),
            ({"dataset": dict(spec, counts={"val": 6})}, "counts.train must be >= 1")):
        with pytest.raises(ValidationError, match=field):
            RunConfig.from_json(dict({"dataset": spec}, **doc))
    # a dataset of one val split is a valid dataset, though not a valid run
    assert DatasetSpec.from_json(dict(spec, counts={"val": 6})).counts == {"val": 6}
    assert RunConfig.from_json({"dataset": spec, "qra": {"batch_size": None}}).qra_batch_size == 5


# -- checkpoint ---------------------------------------------------------------


def _params(rng):
    return [("a.W", ad.param(rng.normal(size=(3, 4)))),
            ("a.b", ad.param(rng.normal(size=4))),
            ("s", ad.param(np.asarray(0.7)))]


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    named = _params(rng)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, named, {"x": 1}, phase="detection", step=12)
    header, stored = load_checkpoint(path)
    assert header["phase"] == "detection" and header["step"] == 12
    assert header["config"] == {"x": 1}
    for name, p in named:
        assert np.array_equal(stored[name],
                              np.asarray(p.data, dtype=np.float32).astype(np.float64))


def test_checkpoint_restore_and_mismatches(tmp_path):
    rng = np.random.default_rng(1)
    named = _params(rng)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, named, {}, phase="pretrain", step=0)
    _, stored = load_checkpoint(path)

    fresh = _params(np.random.default_rng(2))
    restore_params(fresh, stored)
    for (name, p), (_, q) in zip(fresh, named):
        assert np.array_equal(p.data, np.float64(np.float32(q.data)))

    with pytest.raises(CheckpointError):
        restore_params([("missing", ad.param(np.zeros(2)))], stored)
    with pytest.raises(CheckpointError):
        restore_params([("a.W", ad.param(np.zeros((2, 2))))], stored)
    with pytest.raises(CheckpointError):
        restore_params(fresh[:1], stored, allow_extra=False)


def test_checkpoint_bytes_determinism(tmp_path):
    rng = np.random.default_rng(3)
    named = _params(rng)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, named, {"seed": 5}, phase="detection", step=3)
    save_checkpoint(p2, named, {"seed": 5}, phase="detection", step=3)
    assert p1.read_bytes() == p2.read_bytes()
    named[0][1].data[0, 0] += 1e-3
    save_checkpoint(p2, named, {"seed": 5}, phase="detection", step=3)
    assert p1.read_bytes() != p2.read_bytes()


def test_checkpoint_bad_file(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


def _raw_checkpoint(header: bytes, length=None, blob=b"") -> bytes:
    length = len(header) if length is None else length
    return b"MDCKPT1\n" + length.to_bytes(8, "little") + header + blob


def _entry_header(**entry) -> bytes:
    doc = {"format": "mocadet-checkpoint-v1", "params": [entry]}
    return json.dumps(doc).encode()


def test_checkpoint_malformed_files_raise_checkpoint_error(tmp_path):
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, _params(np.random.default_rng(4)), {"x": 1},
                    phase="detection", step=1)
    data = good.read_bytes()
    bad = tmp_path / "bad.ckpt"
    for cut in range(len(data)):
        bad.write_bytes(data[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)

    cases = [
        b"MDCKPT1\n\x05\x00\x00",  # length field cut short
        _raw_checkpoint(b'{"format": "mocadet-checkpoint-v1"}'),  # no params
        _raw_checkpoint(b"{not json"),
        _raw_checkpoint(b"\xff\xfe{}"),  # not UTF-8
        _raw_checkpoint(b"[1, 2]"),
        _raw_checkpoint(b"{}", length=2 ** 62),
        _raw_checkpoint(_entry_header(name=3, shape=[1], offset=0), blob=b"\x00" * 4),
        _raw_checkpoint(_entry_header(name="w", shape=[-1], offset=0), blob=b"\x00" * 4),
        _raw_checkpoint(_entry_header(name="w", shape="1", offset=0), blob=b"\x00" * 4),
        _raw_checkpoint(_entry_header(name="w", shape=[1], offset=-1), blob=b"\x00" * 4),
        _raw_checkpoint(_entry_header(name="w", shape=[1], offset=True), blob=b"\x00" * 4),
    ]
    for raw in cases:
        bad.write_bytes(raw)
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)
        assert main(["eval", "--ckpt", str(bad), "--data", str(tmp_path)]) == 1

    bad.write_bytes(_raw_checkpoint(_entry_header(name="w", shape=[1], offset=0),
                                    blob=b"\x00" * 4))
    _, stored = load_checkpoint(bad)  # the hand-built format itself is accepted
    assert np.array_equal(stored["w"], [0.0])


def test_atomic_write_that_raises_leaves_the_old_file(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("old", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("partial new conte")
            raise RuntimeError("interrupted")
    assert path.read_text(encoding="utf-8") == "old"
    assert sorted(os.listdir(tmp_path)) == ["report.json"]
    with atomic_write(path, "wb") as fh:
        fh.write(b"new")
    assert path.read_bytes() == b"new"
    assert sorted(os.listdir(tmp_path)) == ["report.json"]


def test_save_checkpoint_that_fails_leaves_the_old_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "final.ckpt"
    named = _params(np.random.default_rng(5))
    save_checkpoint(path, named, {"seed": 1}, phase="detection", step=1)
    before = path.read_bytes()

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    named[0][1].data[0, 0] += 1.0
    with pytest.raises(OSError):
        save_checkpoint(path, named, {"seed": 1}, phase="detection", step=2)
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["final.ckpt"]
