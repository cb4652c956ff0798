"""Tests for AdamW, the lr schedule, run config, and checkpoint IO."""

import collections.abc
import dataclasses
import functools
import hashlib
import json
import math
import os
import re
import typing

import numpy as np
import pytest

from gradcheck import clear_grads, weighted_sum
from mocadet import autodiff as ad
from mocadet.checkpoint import StoredArrays, load_checkpoint, save_checkpoint
from mocadet.cli import main
from mocadet.config import OptimConfig, QraConfig, RunConfig, TokenConfig
from mocadet.data import DatasetSpec, ModalitySpec, make_default_spec
from mocadet.detector import DetectorConfig, FeedForward
from mocadet.errors import CheckpointError, ContractError, IngestError, ValidationError
from mocadet.fileio import CHECKPOINT, DATASET_SPLIT, atomic_write, read_dataclass
from mocadet.losses import LossWeights
from mocadet.optim import CHUNK, AdamW
from mocadet.train import build_run


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
        clear_grads(ref)
        assigned = rng.normal(size=shapes[3])
        for params in (flat, ref):
            with ad.Tape():
                # sum(w * p * p): its gradient 2 w p
                terms = [weighted_sum(p, 2.0 * w * p.data)
                         for i, (p, w) in enumerate(zip(params, weights)) if i not in (2, 3)]
                ad.backward(functools.reduce(ad.add, terms))
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


def test_every_config_is_frozen():
    # a config checks itself when made, so no field may change afterwards
    cfg = RunConfig()
    for obj in (cfg, cfg.optim, cfg.tokens, cfg.qra, cfg.loss, cfg.detector_config,
                cfg.dataset, cfg.dataset.modalities[0]):
        for f in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))
    assert dataclasses.replace(cfg, moca=False).moca is False and cfg.moca is True


_MUTATORS = ("append", "extend", "insert", "remove", "pop", "popitem", "clear", "update",
             "setdefault", "sort", "reverse", "__setitem__", "__delitem__", "__iadd__")


def test_every_container_of_a_config_is_read_only():
    # frozen all the way down: no container a config holds can change,
    # including one whose dict the caller passed in and keeps
    model = {"d_model": 32}
    cfg = RunConfig(model=model)
    model["d_model"] = 8
    assert cfg.model == {"d_model": 32} and cfg.detector_config.d_model == 32
    containers = {}

    def walk(obj, where):
        for f in dataclasses.fields(obj):
            value, name = getattr(obj, f.name), f"{where}.{f.name}"
            if dataclasses.is_dataclass(value):
                walk(value, name)
            elif isinstance(value, (collections.abc.Mapping, list, tuple)):
                containers[name] = value
                for i, item in enumerate(value):
                    if dataclasses.is_dataclass(item):
                        walk(item, f"{name}[{i}]")

    walk(cfg, "config")
    assert {"config.model", "config.dataset.modalities", "config.dataset.counts",
            "config.dataset.size_range", "config.dataset.modalities[0].classes"} <= set(containers)
    for name, value in containers.items():
        assert not [m for m in _MUTATORS if hasattr(value, m)], name
    with pytest.raises(TypeError):
        cfg.model["d_model"] = 10
    with pytest.raises(TypeError):
        cfg.dataset.counts["train"] = -5
    with pytest.raises(AttributeError):
        cfg.dataset.modalities.append(cfg.dataset.modalities[0])
    assert cfg.dataset.counts["train"] == 200 and cfg.dataset.n_modalities == 5


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
    with pytest.raises(ValidationError, match="tokens.path required"):
        RunConfig.from_json({"dataset": spec, "tokens": {"source": "file"}})

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
            ({"qra": {"batch_size": 0}}, r"qra\.batch_size must be in \[1, 256\], got 0"),
            ({"qra": {"batch_size": -1}}, r"qra\.batch_size must be in \[1, 256\], got -1"),
            ({"dataset": dict(spec, counts={"train": -5, "val": 6})},
             r"dataset\.counts\.train must be in \[0, 100000\], got -5"),
            ({"dataset": dict(spec, counts={"train": 4, "val": -1})},
             r"dataset\.counts\.val must be in \[0, 100000\], got -1"),
            # queries see the image only after the first decoder layer
            ({"qra": {"layer": 1}}, r"qra\.layer must be in \[2, 32\], got 1"),
            ({"dataset": dict(spec, counts={"train": 0, "val": 6})}, "counts.train must be >= 1"),
            ({"dataset": dict(spec, counts={"val": 6})}, "counts.train must be >= 1")):
        with pytest.raises(ValidationError, match=field):
            RunConfig.from_json(dict({"dataset": spec}, **doc))
    # a dataset of one val split is a valid dataset, though not a valid run
    assert DatasetSpec.from_json(dict(spec, counts={"val": 6})).counts == {"val": 6}
    assert RunConfig.from_json({"dataset": spec, "qra": {"batch_size": None}}).qra_batch_size == 5


# -- declared ranges ----------------------------------------------------------

# where each config class sits in the document its reader takes
_SECTIONS = {RunConfig: (), OptimConfig: ("optim",), TokenConfig: ("tokens",),
             QraConfig: ("qra",), LossWeights: ("loss",), DetectorConfig: (),
             DatasetSpec: (), ModalitySpec: ("modalities", 0)}


def _numeric_fields():
    """(class, field, int or float) for every field whose annotation holds
    numbers: a number, an optional one, or a dict or tuple of them. The
    ``model`` section of a run holds ``DetectorConfig``'s fields by name."""
    out = []
    for cls in _SECTIONS:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if (cls, f.name) == (RunConfig, "model"):
                continue
            tp = hints[f.name]
            kind = next((k for k in (int, float) if tp is k or k in typing.get_args(tp)), None)
            if kind is not None:
                out.append(pytest.param(cls, f, kind, id=f"{cls.__name__}.{f.name}"))
    return out


# the reader of each document, by the name it gives the document; the model
# section is read as RunConfig.detector_config reads it
_READERS = {"config": RunConfig.from_json, "dataset": DatasetSpec.from_json,
            "config.model": lambda doc: read_dataclass(DetectorConfig, doc, "config.model")}


def _document(cls, f, value):
    """(reader, document, name): a valid document but for its field ``f`` of
    ``cls``, which holds ``value`` (as a dict's one entry, or as both items of
    a pair), the reader that takes it, and the dotted name of the value."""
    # 256 one-class modalities fit every qra.batch_size, 1024 px images every
    # size_range, and 32 decoder layers every qra.layer
    dataset = {"image_size": 1024, "counts": {"train": 1}, "size_range": [1, 16],
               "modalities": [{"name": f"m{i}", "classes": [f"c{i}"]} for i in range(256)]}
    if cls is DetectorConfig:
        doc, where = {"n_classes": 2}, "config.model"
    elif cls in (DatasetSpec, ModalitySpec):
        doc, where = dataset, "dataset"
    else:
        doc, where = {"dataset": dataset, "model": {"n_decoder_layers": 32}}, "config"
    reader, target = _READERS[where], doc
    for key in _SECTIONS[cls]:
        target = target.setdefault(key, {}) if isinstance(key, str) else target[key]
        where += f"[{key}]" if isinstance(key, int) else f".{key}"
    where += f".{f.name}"
    if f.name == "counts":
        value, where = {"train": value}, where + ".train"
    elif f.name.endswith("_range"):
        value, where = [value, value], where + "[0]"
    target[f.name] = value
    return reader, doc, where


@pytest.mark.parametrize("cls,f,kind", _numeric_fields())
def test_every_numeric_config_field_declares_the_range_its_reader_holds(cls, f, kind):
    # each numeric field of the eight config classes declares a range; its
    # reader accepts both ends and rejects the nearest value outside each,
    # naming the field and the value
    assert "range" in f.metadata, f"{cls.__name__}.{f.name} declares no range"
    r = f.metadata["range"]

    def step(x, up):
        if kind is int:
            return x + 1 if up else x - 1
        return math.nextafter(float(x), math.inf if up else -math.inf)

    inside = (step(r.lo, True) if r.lo_open else kind(r.lo),
              step(r.hi, False) if r.hi_open else kind(r.hi))
    outside = (kind(r.lo) if r.lo_open else step(r.lo, False),
               kind(r.hi) if r.hi_open else step(r.hi, True))
    for value in inside:
        reader, doc, _ = _document(cls, f, value)
        reader(doc)
    for value in outside:
        reader, doc, name = _document(cls, f, value)
        with pytest.raises(ValidationError, match=rf"^{re.escape(name)} must be in "
                           rf"[\[(][^,]+, [^,]+[\])], got {re.escape(repr(value))}$"):
            reader(doc)


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
    # each fact once: no offsets, digest or format name in the header
    assert sorted(header) == ["config", "params", "phase", "seeds", "step"]
    assert header["params"] == [{"name": "a.W", "shape": [3, 4]}, {"name": "a.b", "shape": [4]},
                                {"name": "s", "shape": []}]
    data = path.read_bytes()
    assert data[:8] == b"MDCKPT2\n" and data[8:40] == hashlib.sha256(data[40:]).digest()
    for name, p in named:
        assert np.array_equal(stored[name],
                              np.asarray(p.data, dtype=np.float32).astype(np.float64))


def test_stored_arrays_build_a_module_from_its_checkpoint_in_table_order(tmp_path):
    saved = FeedForward(3, 4, ad.Drawn(np.random.default_rng(1)))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, saved.parameters(), {}, phase="pretrain", step=0)
    _, stored = load_checkpoint(path)

    source = StoredArrays(stored)
    built = FeedForward(3, 4, source)
    assert source.check_names(built.parameters()) == []
    for (name, p), (_, q) in zip(built.parameters(), saved.parameters()):
        assert p.data is stored[name] and p.requires_grad
        assert np.array_equal(p.data, np.float64(np.float32(q.data)))

    with pytest.raises(CheckpointError, match="has shape"):
        FeedForward(4, 3, StoredArrays(stored))
    with pytest.raises(CheckpointError, match="holds 3 parameters"):
        FeedForward(3, 4, StoredArrays(dict(list(stored.items())[:3])))
    renamed = StoredArrays({f"x.{name}": arr for name, arr in stored.items()})
    with pytest.raises(CheckpointError, match="stores 'x.lin1.W' where the model has 'lin1.W'"):
        renamed.check_names(FeedForward(3, 4, renamed).parameters())
    # the arrays left over are the caller's to judge
    extra = StoredArrays(dict(stored, head=np.zeros(2)))
    assert extra.check_names(FeedForward(3, 4, extra).parameters()) == ["head"]


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


def _raw_container(magic: bytes, header: bytes, length=None, blob=b"") -> bytes:
    """A container with ``length`` as its header length, whose digest matches."""
    length = len(header) if length is None else length
    body = length.to_bytes(8, "little") + header + blob
    return magic + hashlib.sha256(body).digest() + body


def _raw_checkpoint(header: bytes, length=None, blob=b"") -> bytes:
    return _raw_container(b"MDCKPT2\n", header, length, blob)


def _entry_header(**entry) -> bytes:
    return json.dumps({"params": [entry]}).encode()


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

    old = b'{"format": "mocadet-checkpoint-v1", "params": []}'
    cases = [
        b"MDCKPT1\n" + len(old).to_bytes(8, "little") + old,  # the format before the digest
        _raw_checkpoint(b"{}")[:8] + bytes(32) + _raw_checkpoint(b"{}")[40:],  # wrong digest
        _raw_checkpoint(b"", length=5)[:-3],  # length field cut short
        _raw_checkpoint(b"{}"),  # no params
        _raw_checkpoint(b"{not json"),
        _raw_checkpoint(b"\xff\xfe{}"),  # not UTF-8
        _raw_checkpoint(b"[1, 2]"),
        _raw_checkpoint(b"{}", length=2 ** 62),
        _raw_checkpoint(_entry_header(name=3, shape=[1]), blob=b"\x00" * 4),
        _raw_checkpoint(_entry_header(name="w", shape=[-1]), blob=b"\x00" * 4),
        _raw_checkpoint(_entry_header(name="w", shape="1"), blob=b"\x00" * 4),
        _raw_checkpoint(_entry_header(name="w", shape=[True]), blob=b"\x00" * 4),
        # a table whose sizes do not add up to the blob's
        _raw_checkpoint(_entry_header(name="w", shape=[2]), blob=b"\x00" * 4),
        _raw_checkpoint(_entry_header(name="w", shape=[1]), blob=b"\x00" * 8),
    ]
    for raw in cases:
        bad.write_bytes(raw)
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)
        assert main(["eval", "--ckpt", str(bad), "--data", str(tmp_path)]) == 1

    # the hand-built format itself is accepted
    bad.write_bytes(_raw_checkpoint(_entry_header(name="w", shape=[1]), blob=b"\x00" * 4))
    _, stored = load_checkpoint(bad)
    assert np.array_equal(stored["w"], [0.0])


@pytest.mark.parametrize("container,error", [(CHECKPOINT, CheckpointError),
                                             (DATASET_SPLIT, IngestError)],
                         ids=["checkpoint", "dataset_split"])
def test_a_header_length_that_leaves_no_whole_float32_blob_raises(tmp_path, container, error):
    # files whose digest matches: the length field is the one check left
    path = tmp_path / "file"
    head = b'{"params": []}'
    for length, blob in ((len(head) + 1, b""), (2 ** 62, b""), (len(head), b"\x00"),
                         (len(head), b"\x00" * 3), (len(head), b"\x00" * 6),
                         (len(head) - 1, b"\x00" * 4)):
        path.write_bytes(_raw_container(container.magic, head, length, blob))
        with pytest.raises(error, match="the header length does not leave whole float32"):
            container.read(path)
    path.write_bytes(_raw_container(container.magic, head, blob=b"\x00" * 8))
    header, blob = container.read(path)
    assert header == {"params": []} and np.array_equal(blob, [0.0, 0.0])


def test_a_flipped_bit_or_a_cut_in_a_default_checkpoint_raises_checkpoint_error(tmp_path):
    # a flip moves one parameter by as little as one ulp, or one digit of the
    # run config in the header: only the digest sees it. The file is the
    # default model's detection checkpoint; the flips are 64 seeded bits of
    # the whole file and 64 of its magic, digest, length and header
    config = RunConfig(dataset=make_default_spec(counts={"train": 4}))
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, build_run(config).detection_parameters(), config.to_json(),
                    phase="detection", step=0)
    data = good.read_bytes()
    start = 48 + int.from_bytes(data[40:48], "little")
    header, _ = load_checkpoint(good)
    bad = tmp_path / "bad.ckpt"
    rng = np.random.default_rng(26)
    bits = rng.choice(8 * len(data), size=64, replace=False).tolist()
    bits += rng.choice(8 * start, size=64, replace=False).tolist()
    assert any(8 * 48 <= b < 8 * start for b in bits)
    for bit in bits:
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << bit % 8
        bad.write_bytes(flipped)
        message = (f"{bad}: the file does not match its recorded sha256" if bit >= 64
                   else f"{bad}: not a checkpoint file")
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(bad)
    # every length from 0 to the full size would hash about 10^12 bytes: the
    # cuts are 64 seeded lengths, the header's end, each parameter's first
    # byte and the last four bytes (the small checkpoint above is cut at
    # every length)
    cuts = set(rng.choice(len(data), size=64, replace=False).tolist())
    cuts |= {start - 1, start}
    sizes = [math.prod(e["shape"]) for e in header["params"]]
    cuts |= set((start + 4 * np.cumsum([0] + sizes[:-1])).tolist())
    cuts |= set(range(len(data) - 4, len(data)))
    for cut in sorted(cuts):
        bad.write_bytes(data[:cut])
        with pytest.raises(CheckpointError, match="recorded sha256" if cut >= 8 else "not a"):
            load_checkpoint(bad)


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
    # a name of 250 characters is a valid one, but its temporary file's is too long
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValidationError, match="cannot write"):
        with atomic_write(empty / ("r" * 250)):
            pass
    assert os.listdir(empty) == []


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
