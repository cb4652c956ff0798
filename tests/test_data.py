"""Tests for synthetic generation, dataset/COCO round trips, and the sampler."""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mocadet import autodiff as ad
from mocadet import data as dt
from mocadet import tokens as tk
from mocadet.errors import ContractError, IngestError, TokenLookupError, ValidationError


def _tiny_spec(noise=0.0, classes_a=("alpha_circle",), classes_b=("beta_circle",),
               counts=None, seed=3, size_range=(8, 16)):
    mods = [
        dt.ModalitySpec("moda", tuple(classes_a), curve=0, noise_sigma=noise, texture_freq=2.0),
        dt.ModalitySpec("modb", tuple(classes_b), curve=0, noise_sigma=noise, texture_freq=3.0),
    ]
    return dt.DatasetSpec(modalities=mods, counts=counts or {"train": 8, "val": 4},
                          seed=seed, size_range=size_range, objects_range=(1, 1))


def test_spec_validation():
    with pytest.raises(ValidationError):
        dt.DatasetSpec(modalities=[dt.ModalitySpec("a", ("x",))])
    with pytest.raises(ValidationError):
        _tiny_spec(classes_a=("same",), classes_b=("same",))
    with pytest.raises(ValidationError):
        dt.DatasetSpec(modalities=[dt.ModalitySpec("a", ("x",)),
                                   dt.ModalitySpec("b", ("y",))], image_size=8)


def test_generate_deterministic():
    spec = _tiny_spec(noise=0.05)
    a = dt.generate_synthetic(spec, "train")
    b = dt.generate_synthetic(spec, "train")
    assert len(a) == len(b) == 8
    for s, t in zip(a, b):
        assert np.array_equal(s.image, t.image)
        assert s.annotations == t.annotations
        assert s.sample_id == t.sample_id


def test_uniform_modality_allocation():
    spec = dt.make_default_spec(counts={"train": 200, "val": 100})
    samples = dt.generate_synthetic(spec, "train")
    counts = np.bincount([s.modality_id for s in samples], minlength=5)
    assert counts.tolist() == [40] * 5


def test_noiseless_box_exactly_bounds_object():
    # one circle-class object per image, sigma=0: bright pixels are exactly
    # the rendered mask, so their bounds must equal the stored box
    spec = _tiny_spec(noise=0.0)
    for s in dt.generate_synthetic(spec, "train"):
        assert len(s.annotations) == 1
        sz = spec.image_size
        bright = s.image >= 0.7
        rows = np.flatnonzero(bright.any(axis=1))
        cols = np.flatnonzero(bright.any(axis=0))
        cx, cy, w, h = s.annotations[0].box
        assert cols[0] == round((cx - w / 2) * sz)
        assert rows[0] == round((cy - h / 2) * sz)
        assert cols[-1] + 1 == round((cx + w / 2) * sz)
        assert rows[-1] + 1 == round((cy + h / 2) * sz)


def test_all_shapes_render_within_box():
    # five classes in one modality exercise every shape kind
    mods = [dt.ModalitySpec("m5", tuple(f"m5_c{i}" for i in range(5)), noise_sigma=0.0),
            dt.ModalitySpec("other", ("other_c0",), noise_sigma=0.0)]
    spec = dt.DatasetSpec(modalities=mods, counts={"train": 40}, seed=11,
                          size_range=(6, 18), objects_range=(1, 1))
    for s in dt.generate_synthetic(spec, "train"):
        if s.modality_id != 0:
            continue
        sz = spec.image_size
        bright = s.image >= 0.7
        rows = np.flatnonzero(bright.any(axis=1))
        cols = np.flatnonzero(bright.any(axis=0))
        cx, cy, w, h = s.annotations[0].box
        x1, y1 = round((cx - w / 2) * sz), round((cy - h / 2) * sz)
        x2, y2 = round((cx + w / 2) * sz), round((cy + h / 2) * sz)
        assert x1 <= cols[0] and cols[-1] < x2
        assert y1 <= rows[0] and rows[-1] < y2
        # tight: no slack beyond 1 px on any side
        assert cols[0] - x1 <= 1 and x2 - 1 - cols[-1] <= 1
        assert rows[0] - y1 <= 1 and y2 - 1 - rows[-1] <= 1


def test_dataset_export_load_round_trip(tmp_path):
    spec = _tiny_spec(noise=0.04)
    samples = dt.generate_synthetic(spec, "val")
    dt.export_dataset(samples, spec, tmp_path, "val")
    loaded, spec2 = dt.load_dataset(tmp_path, "val")
    assert len(loaded) == len(samples)
    for s, t in zip(samples, loaded):
        assert np.array_equal(s.image, t.image)  # f32 quantized at generation
        assert s.annotations == t.annotations
        assert s.modality_id == t.modality_id
    assert spec2.modality_names == spec.modality_names


def test_exports_that_raise_midway_leave_the_old_files(tmp_path, monkeypatch):
    """Each export writes through a temporary file: one that raises midway
    leaves every old file whole and no temporary file behind."""
    spec = _tiny_spec(noise=0.04)
    samples = dt.generate_synthetic(spec, "val")
    reg = tk.build_registry(spec.token_pairs(), d_text=4, seed64=1)

    def exports(batch):
        return [lambda: dt.export_dataset(batch, spec, tmp_path, "val"),
                lambda: dt.export_coco(batch, spec, tmp_path, "val"),
                lambda: tk.save_registry(reg, tmp_path / "registry.json")]

    def snapshot():
        return {p.relative_to(tmp_path).as_posix(): p.read_bytes()
                for p in sorted(tmp_path.rglob("*")) if p.is_file()}

    for export in exports(samples):
        export()
    before = snapshot()

    class _FailingImage:  # the image blob fails after the earlier images were written
        def astype(self, dtype):
            raise OSError("disk full")

    broken = samples[:-1] + [dataclasses.replace(samples[-1], image=_FailingImage())]
    with pytest.raises(OSError):
        exports(broken)[0]()

    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"partial": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    for export in exports(samples):
        with pytest.raises(OSError):
            export()
    monkeypatch.undo()
    assert snapshot() == before


def test_failed_reexport_keeps_the_old_dataset(tmp_path, monkeypatch):
    """A re-export whose manifest write fails leaves the old manifest naming
    the old blob: the reload returns the first export, images included."""
    spec = _tiny_spec(noise=0.04)
    first = dt.generate_synthetic(spec, "val")
    dt.export_dataset(first, spec, tmp_path, "val")
    files = sorted(p.name for p in tmp_path.iterdir())
    second = dt.generate_synthetic(dataclasses.replace(spec, seed=spec.seed + 1), "val")

    def failing_dump(obj, fh, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", failing_dump)
    with pytest.raises(OSError):
        dt.export_dataset(second, spec, tmp_path, "val")
    monkeypatch.undo()
    loaded, _ = dt.load_dataset(tmp_path, "val")
    assert [s.sample_id for s in loaded] == [s.sample_id for s in first]
    for s, t in zip(first, loaded):
        assert np.array_equal(s.image, t.image)
        assert s.annotations == t.annotations
    assert sorted(p.name for p in tmp_path.iterdir()) == files

    # a re-export that succeeds removes the blob the old manifest named
    dt.export_dataset(second, spec, tmp_path, "val")
    loaded, _ = dt.load_dataset(tmp_path, "val")
    assert all(np.array_equal(s.image, t.image) for s, t in zip(second, loaded))
    assert len(list(tmp_path.glob("val_images.*.bin"))) == 1


def test_truncated_or_missing_blob_raises_ingest_error(tmp_path):
    spec = _tiny_spec()
    dt.export_dataset(dt.generate_synthetic(spec, "val"), spec, tmp_path, "val")
    blob = tmp_path / json.loads((tmp_path / "val_manifest.json").read_text())["blob"]
    data = blob.read_bytes()
    for cut in (4, len(data) // 2, len(data) - 4):
        blob.write_bytes(data[:cut])
        with pytest.raises(IngestError):
            dt.load_dataset(tmp_path, "val")
    blob.unlink()
    with pytest.raises(IngestError):
        dt.load_dataset(tmp_path, "val")


def test_malformed_manifest_raises_ingest_error(tmp_path):
    spec = _tiny_spec()
    dt.export_dataset(dt.generate_synthetic(spec, "val"), spec, tmp_path, "val")
    path = tmp_path / "val_manifest.json"
    good = json.loads(path.read_text())

    def no_offset(doc):
        del doc["samples"][1]["offset"]

    def text_size(doc):
        doc["image_size"] = "sixteen"

    def no_blob(doc):
        del doc["blob"]

    for edit in (lambda doc: [doc], no_offset, text_size, no_blob):
        doc = json.loads(json.dumps(good))
        path.write_text(json.dumps(edit(doc) or doc))
        with pytest.raises(IngestError):
            dt.load_dataset(tmp_path, "val")
    # a manifest without its dataset spec is a validation error, as a bad spec is
    path.write_text(json.dumps({k: v for k, v in good.items() if k != "dataset_spec"}))
    with pytest.raises(ValidationError):
        dt.load_dataset(tmp_path, "val")
    path.write_text(json.dumps(good))
    assert len(dt.load_dataset(tmp_path, "val")[0]) == len(good["samples"])


def _read_rawf32(path):
    """Reference reader for the ``.rawf32`` format ``write_rawf32`` writes."""
    blob = path.read_bytes()
    assert blob[:7] == b"RAWF32\x00"
    h, w = np.frombuffer(blob[7:15], dtype="<u4")
    data = np.frombuffer(blob[15:], dtype="<f4")
    assert data.size == int(h) * int(w)
    return data.reshape(int(h), int(w)).astype(np.float64)


def test_rawf32_round_trip(tmp_path):
    img = np.random.default_rng(0).uniform(0, 1, size=(5, 7))
    img = np.float64(np.float32(img))
    p = tmp_path / "x.rawf32"
    dt.write_rawf32(p, img)
    assert np.array_equal(_read_rawf32(p), img)
    with pytest.raises(ValidationError):
        dt.write_rawf32(tmp_path / "y.rawf32", np.zeros((2, 2, 2)))


def test_coco_round_trip(tmp_path):
    spec = _tiny_spec(noise=0.03)
    samples = dt.generate_synthetic(spec, "train")
    dt.export_coco(samples, spec, tmp_path, "train")
    doc = json.loads((tmp_path / "train_coco.json").read_text())
    size = spec.image_size
    assert [c["name"] for c in doc["categories"]] == spec.global_classes
    assert len(doc["images"]) == len(samples)
    for s, im in zip(samples, doc["images"]):
        assert (im["width"], im["height"]) == (size, size)
        assert np.array_equal(_read_rawf32(tmp_path / "train_images" / im["file_name"]),
                              s.image)
        anns = [a for a in doc["annotations"] if a["image_id"] == im["id"]]
        assert [a["category_id"] - 1 for a in anns] == s.class_ids
        for a, want in zip(anns, s.annotations):
            x, y, w, h = (v / size for v in a["bbox"])
            assert np.allclose((x + w / 2, y + h / 2, w, h), want.box, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sampler_distinct_modalities_and_refill(data):
    m = data.draw(st.integers(1, 6), label="M")
    b = data.draw(st.integers(1, m), label="B")
    counts = data.draw(st.lists(st.integers(1, 5), min_size=m, max_size=m), label="counts")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    samples = [SimpleNamespace(modality_id=mi, sample_id=(mi, k))
               for mi in range(m) for k in range(counts[mi])]
    sampler = dt.ModalityBatchSampler(samples, m, b, seed=seed)
    drawn = [[] for _ in range(m)]
    for _ in range(3 * sum(counts)):
        batch = sampler.next_batch()
        mods = [s.modality_id for s in batch]
        assert len(mods) == b and len(set(mods)) == b
        if b == m:
            assert sorted(mods) == list(range(m))
        for s in batch:
            drawn[s.modality_id].append(s.sample_id)
    # each modality's queue hands out all its samples once per epoch, then refills
    for mi, n in enumerate(counts):
        for start in range(0, len(drawn[mi]) - n + 1, n):
            assert sorted(drawn[mi][start:start + n]) == [(mi, k) for k in range(n)]


def test_sampler_uniform_coverage_when_b_lt_m():
    spec = dt.make_default_spec(counts={"train": 25})
    samples = dt.generate_synthetic(spec, "train")
    sampler = dt.ModalityBatchSampler(samples, 5, 3, seed=2)
    counts = np.zeros(5)
    n = 10_000
    for _ in range(n):
        for s in sampler.next_batch():
            counts[s.modality_id] += 1
    freq = counts / n
    assert np.all(np.abs(freq - 0.6) <= 0.02)
    assert freq.max() / freq.min() <= 1.1


def test_sampler_rejects_oversized_batch():
    spec = _tiny_spec()
    samples = dt.generate_synthetic(spec, "train")
    with pytest.raises(ContractError):
        dt.ModalityBatchSampler(samples, 2, 3, seed=0)


def test_sampler_deterministic():
    spec = dt.make_default_spec(counts={"train": 25})
    samples = dt.generate_synthetic(spec, "train")
    ids1 = [s.sample_id for _ in range(50)
            for s in dt.ModalityBatchSampler(samples, 5, 3, seed=9).next_batch()]
    s2 = dt.ModalityBatchSampler(samples, 5, 3, seed=9)
    ids2 = [s.sample_id for _ in range(50) for s in s2.next_batch()]
    # note: first list rebuilds the sampler each batch, so compare one step
    s1 = dt.ModalityBatchSampler(samples, 5, 3, seed=9)
    seq1 = [s.sample_id for _ in range(50) for s in s1.next_batch()]
    assert seq1 == ids2


def test_attach_token_modes():
    spec = _tiny_spec()
    registry = tk.build_registry(spec.token_pairs(), d_text=8, seed64=1)
    proj = tk.TokenProjection(6, 8, np.random.default_rng(0))
    samples = dt.generate_synthetic(spec, "train")
    s = samples[0]
    assert len(s.annotations) == 1

    with ad.no_grad():
        tok1 = dt.attach_token([s], spec, registry, proj, np.random.default_rng(5))
        tok2 = dt.attach_token([s], spec, registry, proj, np.random.default_rng(5))
        expected = proj.W.data @ registry.embedding(
            spec.modality_names[s.modality_id],
            spec.global_classes[s.annotations[0].class_id])
    assert tok1.shape == (1, 6) and np.array_equal(tok1.data, tok2.data)
    assert np.allclose(tok1.data, expected[None], atol=1e-14)

    # empty image: mean over the modality's projected class tokens, the
    # token inference (no rng) uses for every image
    empty = dt.Sample(image=s.image, modality_id=0, annotations=[], sample_id="e")
    three = dt.DatasetSpec(
        modalities=[dt.ModalitySpec("moda", ("a1", "a2", "a3")),
                    dt.ModalitySpec("modb", ("b1",))],
        counts={"train": 4}, seed=0)
    reg3 = tk.build_registry(three.token_pairs(), d_text=8, seed64=1)
    labelled = dt.Sample(image=s.image, modality_id=0,
                         annotations=[dt.Annotation((0.5, 0.5, 0.2, 0.2), 1)], sample_id="l")
    with ad.no_grad():
        tok = dt.attach_token([empty], three, reg3, proj, np.random.default_rng(0))
        mean = dt.modality_mean_token(three, reg3, proj, 0)
        inference = dt.attach_token([labelled, empty], three, reg3, proj)
        expected = np.mean([proj.W.data @ reg3.embedding("moda", c)
                            for c in ("a1", "a2", "a3")], axis=0)
    assert mean.shape == (1, 6) and np.array_equal(tok.data, mean.data)
    assert np.allclose(tok.data, expected[None], atol=1e-14)
    assert np.array_equal(inference.data, np.concatenate([mean.data, mean.data]))

    bad = dt.Sample(image=s.image, modality_id=1, annotations=[], sample_id="x")
    spec_other = _tiny_spec(classes_b=("zz",))
    reg_a_only = tk.build_registry([("moda", "alpha_circle")], d_text=8)
    with pytest.raises(TokenLookupError):
        dt.modality_mean_token(spec_other, reg_a_only, proj, 1)
    with pytest.raises(TokenLookupError):
        dt.attach_token([bad], spec_other, reg_a_only, proj, np.random.default_rng(0))
    labelled = dt.Sample(image=s.image, modality_id=1, annotations=s.annotations,
                         sample_id="y")
    with pytest.raises(TokenLookupError):  # undeclared (modality, class) pair
        dt.attach_token([labelled], spec_other, reg_a_only, proj, np.random.default_rng(0))
