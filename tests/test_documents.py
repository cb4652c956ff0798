"""Every JSON document the program reads goes through ``fileio``'s one parse.

The three defects of the bytes that used to escape it as a crash or a
silent choice: a byte that is not UTF-8, nesting deeper than the parser
can follow, and an object that names one key twice (Python's ``json`` keeps
the last value). Each is a typed error from every entry point and every
container header. A fuzzer then makes one change at a time to each document
a user writes and reads it back.
"""

import copy
import dataclasses
import json
import math
import types
import typing
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mocadet import fileio
from mocadet import tokens as tk
from mocadet.checkpoint import load_checkpoint, save_checkpoint
from mocadet.cli import main
from mocadet.config import RunConfig
from mocadet.data import DatasetSpec, export_dataset, generate_synthetic, load_dataset
from mocadet.errors import (CheckpointError, DuplicateKeyError, IngestError, MocadetError,
                            ValidationError)
from mocadet.fileio import CHECKPOINT, DATASET_SPLIT, read_json
from mocadet.train import build_run
from test_train_cli import _tiny_doc

DEEP = b"[" * 100_000
REGISTRY = {"d_text": 2, "tokens": {"ma|ma_c0": [1.0, 0.0], "mb|mb_c0": [0.0, 1.0]}}
JOINTS = {"joints": [[[0.4, 0.1], [0.1, 0.4]]]}


def _repeating_first_key(doc, path=()) -> str:
    """``json.dumps(doc)``, except that the object at ``path`` (its keys and
    list indices, () for ``doc`` itself) names its first key twice."""
    obj = doc
    for key in path:
        obj = obj[key]
    first = next(iter(obj))
    text = "{" + f"{json.dumps(first)}: {json.dumps(obj[first])}, " + json.dumps(obj)[1:]
    if not path:
        return text
    marked = copy.deepcopy(doc)
    parent = marked
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = "\x00repeated\x00"
    return json.dumps(marked).replace(json.dumps("\x00repeated\x00"), text)


# -- the three escapes, from every entry point ---------------------------------

def _not_utf8(doc) -> bytes:
    """``doc`` as JSON with one byte 0xff at the start of its first key."""
    return json.dumps(doc).encode("utf-8").replace(b'"', b'"\xff', 1)


# each entry point: the document it reads, and the nested object to repeat a key of
ENTRIES = {
    "gen_data": ("spec", ("modalities", 0)),
    "tokens_synth": ("spec", ("modalities", 0)),
    "tokens_inspect": ("registry", ("tokens",)),
    "tokens_silhouette": ("registry", ("tokens",)),
    "pretrain": ("config", ("optim",)),
    "train": ("config", ("optim",)),
    "train_registry": ("registry", ("tokens",)),
    "mi_lab": ("joints", None),  # the joints file holds no nested object
}


def _good(document):
    config = _tiny_doc(epochs=1, qra_steps=1)
    return {"spec": config["dataset"], "config": config, "registry": REGISTRY,
            "joints": JOINTS}[document]


def _argv(entry, bad, tmp_path) -> tuple:
    """(argv, output path) of ``entry`` reading the file ``bad``."""
    out = tmp_path / "out"
    if entry == "train_registry":
        cfg = tmp_path / "cfg.json"
        doc = _tiny_doc(epochs=1)
        doc["tokens"] = {"source": "file", "d_text": 2, "path": str(bad)}
        cfg.write_text(json.dumps(doc))
        return ["train", "--config", str(cfg), "--out", str(out)], out
    return {
        "gen_data": ["gen-data", "--spec", bad, "--out", out],
        "tokens_synth": ["tokens", "synth", "--spec", bad, "--out", out],
        "tokens_inspect": ["tokens", "inspect", bad],
        "tokens_silhouette": ["tokens", "silhouette", bad, "--json", out],
        "pretrain": ["pretrain", "--config", bad, "--out", out],
        "train": ["train", "--config", bad, "--out", out],
        "mi_lab": ["mi-lab", "--joints", bad, "--K", "1", "--samples", "1000",
                   "--report", out],
    }[entry], out


CASES = [(entry, defect) for entry in ENTRIES
         for defect in ("not_utf8", "deep", "repeated_top", "repeated_nested")
         if not (defect == "repeated_nested" and ENTRIES[entry][1] is None)]


@pytest.mark.parametrize("entry,defect", CASES, ids=[f"{e}-{d}" for e, d in CASES])
def test_an_undecodable_too_deep_or_repeated_key_file_exits_1_and_writes_nothing(
        tmp_path, capsys, entry, defect):
    document, nested = ENTRIES[entry]
    good = _good(document)
    data = {"not_utf8": lambda: _not_utf8(good), "deep": lambda: DEEP,
            "repeated_top": lambda: _repeating_first_key(good).encode("utf-8"),
            "repeated_nested": lambda: _repeating_first_key(good, nested).encode("utf-8")}
    bad = tmp_path / "bad.json"
    bad.write_bytes(data[defect]())
    argv, out = _argv(entry, bad, tmp_path)
    assert main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "runtime error" not in err
    assert str(bad) in err  # the message names the file
    if defect.startswith("repeated"):
        assert "appears more than once" in err
    assert not out.exists()


# -- the two container headers ---------------------------------------------------

def _write_header_text(container, path, text: str, blob) -> None:
    """Rewrites ``path`` through ``container.write`` with ``text`` as the
    header's JSON, so that the file matches its sha256 and only the parse can
    reject it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio.json, "dumps", lambda *a, **k: text)
        container.write(path, {}, [blob])


def _checkpoint(tmp_path) -> str:
    bundle = build_run(RunConfig.from_json(_tiny_doc()))
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, bundle.detection_parameters(), bundle.config.to_json(),
                    phase="detection", step=0)
    return path


def _split(tmp_path) -> str:
    spec = DatasetSpec.from_json(_tiny_doc()["dataset"])
    return export_dataset(generate_synthetic(spec, "val"), spec, tmp_path, "val")


def test_a_checkpoint_header_nested_too_deep_or_with_a_repeated_key_is_a_typed_error(tmp_path):
    path = _checkpoint(tmp_path)
    header, blob = CHECKPOINT.read(path)
    text = json.dumps(header, sort_keys=True)
    load_checkpoint(path)
    _write_header_text(CHECKPOINT, path, '{"phase": ' + "[" * 100_000 + "}", blob)
    with pytest.raises(CheckpointError, match="the checkpoint header of .*recursion"):
        load_checkpoint(path)
    # at the top, and in the stored run config: the last value would win
    for repeated in ('{"phase": "pretrain", ' + text[1:],
                     text.replace('"seed": 3', '"seed": 3, "seed": 4')):
        _write_header_text(CHECKPOINT, path, repeated, blob)
        with pytest.raises(DuplicateKeyError, match=r"'(phase|seed)' appears more than once"):
            load_checkpoint(path)


def test_a_split_header_nested_too_deep_or_with_a_repeated_key_is_a_typed_error(tmp_path):
    path = _split(tmp_path)
    header, blob = DATASET_SPLIT.read(path)
    text = json.dumps(header, sort_keys=True)
    _write_header_text(DATASET_SPLIT, path, '{"samples": ' + "[" * 100_000 + "}", blob)
    with pytest.raises(IngestError, match="the dataset split header of .*recursion"):
        load_dataset(tmp_path, "val")
    for repeated in ('{"samples": [], ' + text[1:],
                     text.replace('"modality_id": 0', '"modality_id": 1, "modality_id": 0', 1)):
        _write_header_text(DATASET_SPLIT, path, repeated, blob)
        with pytest.raises(DuplicateKeyError, match="appears more than once"):
            load_dataset(tmp_path, "val")


# -- one change at a time to each document a user writes --------------------------

POOL = (None, True, False, -1, 0, 2 ** 63, 1e308, -1e308, math.nan, "", [], {})
DOCUMENTS = {"config": (RunConfig, _tiny_doc()), "spec": (DatasetSpec, _tiny_doc()["dataset"]),
             "registry": (tk._RegistryFile, REGISTRY)}


def _paths(doc, path=()):
    """The path of ``doc`` and of every value it holds."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _declared_range(cls, path):
    """The Range by which the field that holds the value at ``path`` of a
    document of ``cls`` bounds it (a mapping's values and a tuple's items
    included), or None."""
    tp, interval = cls, None
    for key in path:
        if typing.get_origin(tp) is types.UnionType:
            tp = typing.get_args(tp)[0]  # X | None
        if dataclasses.is_dataclass(tp):
            field = {f.name: f for f in dataclasses.fields(tp)}[key]
            tp, interval = typing.get_type_hints(tp)[key], field.metadata.get("range")
        else:
            tp = typing.get_args(tp)[-1 if typing.get_origin(tp) in (dict, Mapping) else 0]
    return interval


def _changes(kind):
    """Every one-change edit of the document ``kind``, as (path, how, value):
    a value of ``POOL`` or a declared bound ±1 set at any path, a key
    deleted, or an object's first key repeated."""
    cls, doc = DOCUMENTS[kind]
    for path in _paths(doc):
        if path:
            for value in POOL:
                yield path, "set", value
            interval = _declared_range(cls, path)
            if interval is not None:
                for bound in (interval.lo, interval.hi):
                    yield path, "set", bound - 1
                    yield path, "set", bound + 1
            if isinstance(path[-1], str):
                yield path, "delete", None
        obj = doc
        for key in path:
            obj = obj[key]
        if isinstance(obj, dict) and obj:
            yield path, "repeat", None


CHANGES = [(kind, *change) for kind in DOCUMENTS for change in _changes(kind)]


def _edited(doc, path, how, value) -> str:
    if how == "repeat":
        return _repeating_first_key(doc, path)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if how == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc)


def _assert_within_declared_bounds(obj, where="") -> None:
    """Each value of the config ``obj`` lies in the Range its field declares,
    and each float in it is finite; checked here without ``Range.check``."""
    for f in dataclasses.fields(obj):
        value, interval = getattr(obj, f.name), f.metadata.get("range")
        values = list(value.values()) if isinstance(value, Mapping) else \
            list(value) if isinstance(value, (tuple, list)) else [value]
        for v in values:
            if dataclasses.is_dataclass(v):
                _assert_within_declared_bounds(v, f"{where}.{f.name}")
                continue
            if isinstance(v, float):
                assert math.isfinite(v), (where, f.name, v)
            if interval is None or v is None:
                continue
            above = interval.lo < v if interval.lo_open else interval.lo <= v
            below = v < interval.hi if interval.hi_open else v <= interval.hi
            assert above and below, (where, f.name, v)


def _read(kind, path):
    if kind == "registry":
        return tk.load_registry(path)
    doc = read_json(path, ValidationError)
    return RunConfig.from_json(doc) if kind == "config" else DatasetSpec.from_json(doc)


@settings(max_examples=800, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(change=st.sampled_from(CHANGES))
def test_one_change_to_a_document_is_a_typed_error_or_a_value_in_bounds(tmp_path, change):
    kind, path, how, value = change
    target = tmp_path / f"{kind}.json"
    target.write_text(_edited(DOCUMENTS[kind][1], path, how, value))
    try:
        got = _read(kind, target)
    except MocadetError as e:
        assert how != "repeat" or isinstance(e, DuplicateKeyError)
        return
    assert how != "repeat", "a repeated key was read"
    if kind == "registry":
        assert tk.D_TEXT.lo <= got.d_text <= tk.D_TEXT.hi
        for vec in got.entries.values():
            assert vec.dtype == np.float64 and vec.shape == (got.d_text,)
            assert np.isfinite(vec).all()
    else:
        _assert_within_declared_bounds(got)


def test_the_fuzzer_reaches_every_document_and_kind_of_change():
    assert len(CHANGES) > 900
    assert {(kind, how) for kind, _, how, _ in CHANGES} == \
        {(kind, how) for kind in DOCUMENTS for how in ("set", "delete", "repeat")}
    # each declared bound of the config's own fields is a case
    assert ("config", ("batch_size",), "set", 257) in CHANGES
    assert ("registry", ("d_text",), "set", 4097) in CHANGES
