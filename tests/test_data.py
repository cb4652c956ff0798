"""Tests for synthetic generation, the dataset round trip and its checks, and
the sampler."""

import dataclasses
import hashlib
import json
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mocadet import autodiff as ad
from mocadet import data as dt
from mocadet import tokens as tk
from mocadet.checkpoint import save_checkpoint
from mocadet.errors import IngestError, TokenLookupError, ValidationError
from mocadet.fileio import DATASET_SPLIT


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
    # object sizes and counts that cannot render
    mods = [dt.ModalitySpec("a", ("x",)), dt.ModalitySpec("b", ("y",))]
    for bad in ({"size_range": (5, 40)}, {"size_range": (10, 5)}, {"size_range": (0, 5)},
                {"size_range": (5.0, 9)}, {"size_range": (5,)}, {"size_range": (5, 9, 12)},
                {"objects_range": (3, 1)}, {"objects_range": (-1, 2)},
                {"objects_range": (1, True)}):
        with pytest.raises(ValidationError):
            dt.DatasetSpec(modalities=mods, image_size=32, **bad)
        with pytest.raises(ValidationError):
            dt.DatasetSpec.from_json(dict(dt.DatasetSpec(mods, image_size=32).to_json(),
                                          **{k: list(v) for k, v in bad.items()}))
    with pytest.raises(ValidationError):  # the default sizes reach 20 px
        dt.DatasetSpec(modalities=mods, image_size=16)
    # a split names a file in the dataset dir: no path separator, no ".."
    for split in ("../escaped", "", "a/b", "a\\b", "..", "v..1"):
        with pytest.raises(ValidationError, match=f"split name {re.escape(repr(split))} must"):
            dt.DatasetSpec(modalities=mods, counts={"train": 2, split: 2})
    assert dt.DatasetSpec(modalities=mods, counts={"val.1": 2, "_": 1}).counts["_"] == 1
    # the bounds themselves render
    spec = dt.DatasetSpec(modalities=mods, image_size=16, counts={"train": 30},
                          size_range=(1, 16), objects_range=(0, 2))
    samples = dt.generate_synthetic(spec, "train")
    assert {len(s.annotations) for s in samples} == {0, 1, 2}


def _render_digest(spec) -> str:
    h = hashlib.sha256()
    for split in ("train", "val"):
        for s in dt.generate_synthetic(spec, split):
            # widened: the digests were recorded when images were float64
            h.update(s.image.astype(np.float64).tobytes())
            h.update(repr([a.box for a in s.annotations]).encode())
            h.update(repr(s.class_ids).encode())
            h.update(s.sample_id.encode())
    return h.hexdigest()


def test_rendering_matches_the_pinned_digests():
    """Images, boxes, class ids and sample ids of two full specs. The digests
    were recorded at the parent commit of the broadcast renderer (texture on
    1-d coordinates, cached fixed shape masks), so they pin that the renderer
    draws the same images: the default spec at seed 0 and a 48 px spec at
    seed 7, 200 train + 100 val images each."""
    assert _render_digest(dt.make_default_spec(seed=0)) == \
        "6c2ebfc429257830efebf6ffbc55a4381a17225fe2704f9cef8674a8c878259b"
    assert _render_digest(dataclasses.replace(dt.make_default_spec(seed=7), image_size=48)) == \
        "0f933acbe8136add67b95dfe1e266e16189ff5a1ad9e2db0938ed7093e45c222"


def test_generate_deterministic():
    spec = _tiny_spec(noise=0.05)
    a = dt.generate_synthetic(spec, "train")
    b = dt.generate_synthetic(spec, "train")
    assert len(a) == len(b) == 8
    for s, t in zip(a, b):
        assert np.array_equal(s.image, t.image)
        assert s.annotations == t.annotations
        assert s.sample_id == t.sample_id


def test_fixed_shape_masks_are_cached_read_only_and_leave_the_generator_alone():
    rng = np.random.default_rng(5)
    for shape in ("circle", "square", "triangle", "ring"):
        state = rng.bit_generator.state
        mask = dt._shape_mask(shape, 9, rng)
        assert rng.bit_generator.state == state
        assert dt._shape_mask(shape, 9, rng) is mask
        with pytest.raises(ValueError):
            mask[0, 0] = not mask[0, 0]
    state = rng.bit_generator.state
    blob = dt._shape_mask("blob", 9, rng)
    assert rng.bit_generator.state != state
    assert blob.flags.writeable


def _grid_mask(shape, s):
    """Reference fixed shapes on full (s, s) coordinate grids, cropped."""
    yy, xx = np.indices((s, s), dtype=np.float64)
    c, r = (s - 1) / 2.0, s / 2.0
    d2 = (yy - c) ** 2 + (xx - c) ** 2
    inner = max(r * 0.55, 0.5)
    mask = {"circle": d2 <= r * r, "square": np.ones((s, s), dtype=bool),
            "triangle": np.abs(xx - c) <= (yy + 1) / s * r,
            "ring": (d2 <= r * r) & (d2 >= inner * inner)}[shape]
    rows, cols = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
    return mask[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]


def test_cached_fixed_masks_equal_a_fresh_build():
    for extent in range(2, 65):
        for shape in ("circle", "square", "triangle", "ring"):
            cached = dt._shape_mask(shape, extent, None)
            fresh = dt._fixed_mask.__wrapped__(shape, extent)
            assert fresh is not cached
            assert cached.dtype == fresh.dtype == bool
            assert np.array_equal(cached, fresh), (shape, extent)
            assert np.array_equal(cached, _grid_mask(shape, extent)), (shape, extent)


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
                lambda: tk.save_registry(reg, tmp_path / "registry.json")]

    def snapshot():
        return {p.relative_to(tmp_path).as_posix(): p.read_bytes()
                for p in sorted(tmp_path.rglob("*")) if p.is_file()}

    for export in exports(samples):
        export()
    before = snapshot()

    class _FailingImage:  # the last image cannot be read
        def __array__(self, dtype=None, copy=None):
            raise OSError("disk full")

    broken = samples[:-1] + [dataclasses.replace(samples[-1], image=_FailingImage())]
    with pytest.raises(OSError):
        exports(broken)[0]()

    def dump_then_fail(obj, fh, **kwargs):  # the registry fails midway through its file
        fh.write('{"partial": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(OSError):
        exports(samples)[1]()
    monkeypatch.undo()

    def replace_fails(src, dst):  # each file was written whole; its commit fails
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", replace_fails)
    for export in exports(samples):
        with pytest.raises(OSError):
            export()
    monkeypatch.undo()
    assert snapshot() == before


def test_failed_reexport_keeps_the_old_dataset(tmp_path, monkeypatch):
    """A re-export whose commit fails leaves the old split file: the reload
    returns the first export, images included."""
    spec = _tiny_spec(noise=0.04)
    first = dt.generate_synthetic(spec, "val")
    dt.export_dataset(first, spec, tmp_path, "val")
    second = dt.generate_synthetic(dataclasses.replace(spec, seed=spec.seed + 1), "val")

    def replace_fails(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", replace_fails)
    with pytest.raises(OSError):
        dt.export_dataset(second, spec, tmp_path, "val")
    monkeypatch.undo()
    loaded, _ = dt.load_dataset(tmp_path, "val")
    assert [s.sample_id for s in loaded] == [s.sample_id for s in first]
    for s, t in zip(first, loaded):
        assert np.array_equal(s.image, t.image)
        assert s.annotations == t.annotations

    # a re-export that succeeds replaces the one file of the split
    dt.export_dataset(second, spec, tmp_path, "val")
    loaded, _ = dt.load_dataset(tmp_path, "val")
    assert all(np.array_equal(s.image, t.image) for s, t in zip(second, loaded))
    assert [p.name for p in tmp_path.iterdir()] == ["val.split"]


def _small_export(tmp_path):
    """(path, bytes) of the file of a two-image 16 px val split."""
    mods = [dt.ModalitySpec("a", ("x",)), dt.ModalitySpec("b", ("y",))]
    spec = dt.DatasetSpec(modalities=mods, image_size=16, counts={"val": 2},
                          size_range=(4, 8))
    path = dt.export_dataset(dt.generate_synthetic(spec, "val"), spec, tmp_path, "val")
    assert path == str(tmp_path / "val.split")
    return tmp_path / "val.split", (tmp_path / "val.split").read_bytes()


def _rewrite(out_dir, edit=None, images=None) -> None:
    """Rewrites the val split of ``out_dir`` through the container writer,
    with ``edit`` applied to its header in place and ``images`` (a float32
    array) as its blob, so that the file matches its sha256 and only the
    checks behind the digest can reject it."""
    path = out_dir / "val.split"
    header, blob = DATASET_SPLIT.read(path)
    if edit is not None:
        edit(header)
    DATASET_SPLIT.write(path, header, [blob if images is None else images])


def test_a_cut_or_missing_split_file_raises_ingest_error(tmp_path):
    # every cut, those that drop whole images or the header's end included,
    # fails the file's digest
    path, data = _small_export(tmp_path)
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(IngestError, match="recorded sha256" if cut >= 8 else "not a"):
            dt.load_dataset(tmp_path, "val")
    path.unlink()
    with pytest.raises(IngestError, match="cannot read dataset split"):
        dt.load_dataset(tmp_path, "val")


def test_a_flipped_bit_in_a_split_file_raises_ingest_error_naming_it(tmp_path):
    # a flip changes a pixel by as little as one ulp, or one digit of a box
    # or a class id in the header: only the digest sees it. The positions are
    # 64 seeded bits of the whole file and 64 of its magic, digest, length
    # and header
    path, data = _small_export(tmp_path)
    header_end = 48 + int.from_bytes(data[40:48], "little")
    rng = np.random.default_rng(26)
    bits = rng.choice(8 * len(data), size=64, replace=False).tolist()
    bits += rng.choice(8 * header_end, size=64, replace=False).tolist()
    assert any(8 * 48 <= b < 8 * header_end for b in bits)
    for bit in bits:
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << bit % 8
        path.write_bytes(flipped)
        message = (f"{path}: the file does not match its recorded sha256" if bit >= 64
                   else f"{path}: not a dataset split file")
        with pytest.raises(IngestError, match=re.escape(message)):
            dt.load_dataset(tmp_path, "val")
    path.write_bytes(data)
    assert len(dt.load_dataset(tmp_path, "val")[0]) == 2


def test_a_file_of_another_kind_or_format_raises_ingest_error(tmp_path):
    # a checkpoint under a split's name, and a dataset dir of the format
    # before the split file (a manifest and a blob), which is not read
    path, data = _small_export(tmp_path)
    save_checkpoint(path, [("w", SimpleNamespace(data=np.zeros(2)))], {}, "detection", 0)
    with pytest.raises(IngestError, match="not a dataset split file"):
        dt.load_dataset(tmp_path, "val")
    path.unlink()
    (tmp_path / "val_manifest.json").write_text("{}")
    (tmp_path / "val_images.0123456789abcdef.bin").write_bytes(data[-1024:])
    with pytest.raises(IngestError, match="cannot read dataset split"):
        dt.load_dataset(tmp_path, "val")


def test_malformed_header_raises_ingest_error(tmp_path):
    spec = _tiny_spec()
    dt.export_dataset(dt.generate_synthetic(spec, "val"), spec, tmp_path, "val")

    def record(**fields):
        return lambda doc: doc["samples"][1].update(fields)

    def extra_box(doc):
        doc["samples"][1]["boxes"].append([0.5, 0.5, 0.1, 0.1])

    def box_side(side, value):  # the loss and AP divide by box areas
        return lambda doc: doc["samples"][1]["boxes"][0].__setitem__(side, value)

    for edit in (lambda doc: doc.pop("dataset_spec"), lambda doc: doc.pop("samples"),
                 lambda doc: doc["dataset_spec"].update(image_size="sixteen"),
                 lambda doc: doc.update(blob="val_images.bin"),  # a field of no header
                 record(offset=0), record(modality_id=1.9), record(modality_id="1"),
                 record(modality_id=99), record(classes=["1"]), record(classes=[5]),
                 extra_box, record(boxes=[[0.5, 0.5, 0.1]]),
                 box_side(2, 0.0), box_side(3, -0.1), box_side(0, 1.5)):
        _rewrite(tmp_path, edit)
        with pytest.raises(IngestError):
            dt.load_dataset(tmp_path, "val")
        dt.export_dataset(dt.generate_synthetic(spec, "val"), spec, tmp_path, "val")
    header, blob = DATASET_SPLIT.read(tmp_path / "val.split")
    DATASET_SPLIT.write(tmp_path / "val.split", [header], [blob])
    with pytest.raises(IngestError, match="the dataset split header is not an object"):
        dt.load_dataset(tmp_path, "val")


def test_the_blob_must_hold_one_image_per_sample(tmp_path):
    # images follow from record order, so one length check stands for every
    # offset: a spec whose image size differs from the stored one, a record
    # more or less than the images, and a blob a pixel long or short
    spec = _tiny_spec()
    assert spec.image_size == 64
    dt.export_dataset(dt.generate_synthetic(spec, "val"), spec, tmp_path, "val")
    _, good = DATASET_SPLIT.read(tmp_path / "val.split")
    n = spec.counts["val"]
    cases = [(lambda doc: doc["dataset_spec"].update(image_size=32), None, 32 * 32 * n),
             (lambda doc: doc["samples"].pop(), None, 64 * 64 * (n - 1)),
             (lambda doc: doc["samples"].append(dict(doc["samples"][0], id="extra")),
              None, 64 * 64 * (n + 1)),
             (None, good[:-1], 64 * 64 * n), (None, np.append(good, 0.5), 64 * 64 * n)]
    for edit, images, need in cases:
        _rewrite(tmp_path, edit, images)
        with pytest.raises(IngestError, match=f"need {need} values, the blob holds "):
            dt.load_dataset(tmp_path, "val")
        dt.export_dataset(dt.generate_synthetic(spec, "val"), spec, tmp_path, "val")


def test_a_repeated_sample_id_raises_ingest_error(tmp_path):
    # AP pools detections by sample id, so the ids of a split must be unique
    spec = _tiny_spec()
    dt.export_dataset(dt.generate_synthetic(spec, "val"), spec, tmp_path, "val")
    header, _ = DATASET_SPLIT.read(tmp_path / "val.split")
    first = header["samples"][0]["id"]
    _rewrite(tmp_path, lambda doc: doc["samples"][2].update(id=first))
    with pytest.raises(IngestError, match=f"sample id '{first}' appears more than once"):
        dt.load_dataset(tmp_path, "val")


def test_a_non_finite_pixel_raises_ingest_error_naming_its_image(tmp_path):
    # one bad pixel in the middle of the second image, in a file that matches
    # its sha256, so that the pixel check is the one that sees it
    spec = _tiny_spec()
    dt.export_dataset(dt.generate_synthetic(spec, "val"), spec, tmp_path, "val")
    header, good = DATASET_SPLIT.read(tmp_path / "val.split")
    second = header["samples"][1]["id"]
    for value in (np.nan, np.inf, -np.inf):
        bad = good.copy()
        bad[64 * 64 + 64 * 32 + 32] = value
        _rewrite(tmp_path, images=bad)
        with pytest.raises(IngestError, match=f"image '{second}' has a NaN or Inf pixel"):
            dt.load_dataset(tmp_path, "val")
    _rewrite(tmp_path, images=good)
    assert len(dt.load_dataset(tmp_path, "val")[0]) == len(header["samples"])


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


def test_sampler_batch_order_when_b_lt_m_is_pinned():
    # 20 batches of 3 of 5 modalities: the subsets, the ascending modality
    # order inside a batch and each queue's order, as sample ids, by digest
    samples = [SimpleNamespace(modality_id=mi, sample_id=f"{mi}-{k}")
               for mi in range(5) for k in range(3)]
    sampler = dt.ModalityBatchSampler(samples, 5, 3, seed=4)
    ids = [[s.sample_id for s in sampler.next_batch()] for _ in range(20)]
    assert ids[0] == ["0-2", "1-0", "3-0"]
    assert hashlib.sha256(json.dumps(ids).encode()).hexdigest() == (
        "ff5923be99a987e3e65587023eff24bc6b21c5df69db71ecf7fe650d23e816f4")


def test_sampler_deterministic():
    # two samplers of one seed give the same 50 batches; another seed does not
    spec = dt.make_default_spec(counts={"train": 25})
    samples = dt.generate_synthetic(spec, "train")

    def batches(seed):
        sampler = dt.ModalityBatchSampler(samples, 5, 3, seed=seed)
        return [[s.sample_id for s in sampler.next_batch()] for _ in range(50)]

    first = batches(9)
    assert batches(9) == first
    assert batches(10) != first


def test_attach_token_modes():
    spec = _tiny_spec()
    registry = tk.build_registry(spec.token_pairs(), d_text=8, seed64=1)
    proj = tk.TokenProjection(6, 8, ad.Drawn(np.random.default_rng(0)))
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
