"""Synthetic multimodality detection data, dataset export, and batch sampling.

The synthetic generator draws simple shapes (circle/square/triangle/ring/
blob) on modality-specific backgrounds. Class vocabularies are disjoint
across modalities, but the shape assigned to a class depends only on its
local index, so the same silhouette can mean different classes in different
modalities -- resolving it requires modality context. Boxes are derived
from the rendered mask, so annotations are exact by construction. Images
are float32 from generation on, the precision the split file stores,
so the export is lossless and a loaded image equals the rendered one; the
detector widens a batch to float64 when it encodes it. The texture is
computed on 1-d coordinates and broadcast, and the four fixed shapes are
built once per extent and cached read-only; only the blob draws from the
generator.

Each image of a batch gets one modality token row (``attach_token``): the
embedding of one of its box classes in training, and the mean of its
modality's class embeddings for an image without boxes and at inference.
The whole batch is projected by one ``TokenProjection.rows`` node.

On-disk format: the split ``<split>`` of a dataset dir is the one file
``<split>.split``, a ``fileio.DATASET_SPLIT`` container. Its header holds
``dataset_spec``, the spec it was rendered from, which gives the image size,
the modalities and the classes, and ``samples``: each sample's ``id`` (unique
in the split), ``modality_id``, ``classes`` and ``boxes``, in blob order. The
blob holds one image_size x image_size block of finite pixels per sample.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .boxes import corner_iou
from .errors import IngestError, ValidationError
from .fileio import (DATASET_SPLIT, SEED, Range, check_ranges, json_form, make_dirs,
                     read_dataclass, read_only)
from .tokens import TokenProjection, TokenRegistry, _fnv1a64


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Annotation:
    box: tuple  # (cx, cy, w, h) normalized to [0, 1]
    class_id: int  # index into the global class list

    def validate(self) -> "Annotation":
        cx, cy, w, h = self.box
        if not (0.0 <= cx <= 1.0 and 0.0 <= cy <= 1.0):
            raise ValidationError(f"box center outside unit square: {self.box}")
        if not (0.0 < w <= 1.0 and 0.0 < h <= 1.0):
            raise ValidationError(f"box extent must be in (0, 1]: {self.box}")
        if cx - w / 2 < -1e-9 or cx + w / 2 > 1 + 1e-9 or cy - h / 2 < -1e-9 or cy + h / 2 > 1 + 1e-9:
            raise ValidationError(f"box leaves the unit square: {self.box}")
        return self


@dataclass
class Sample:
    image: np.ndarray  # (H, W) float32 in [0, 1]
    modality_id: int
    annotations: list
    sample_id: str

    @property
    def class_ids(self) -> list:
        return [a.class_id for a in self.annotations]


@dataclass(frozen=True)
class ModalitySpec:
    name: str
    classes: tuple[str, ...]  # class names, disjoint across modalities
    curve: int = Range(0, 4).field(default=0)  # intensity transfer curve id
    noise_sigma: float = Range(0, 1).field(default=0.02)  # pixel values lie in [0, 1]
    # cycles per image, up to the Nyquist rate of the largest image, 1024 px
    texture_freq: float = Range(0, 512).field(default=2.0)

    def __post_init__(self):
        object.__setattr__(self, "classes", read_only(self.classes))
        if not self.classes:
            raise ValidationError(f"modality {self.name!r}: classes must name at least one class")


def check_split_name(split: str) -> str:
    """``split``, unless it is empty or holds a path separator or ``..``,
    which is a ValidationError: a split's file stays in its dataset dir."""
    if not split or "/" in split or "\\" in split or ".." in split:
        raise ValidationError(f"split name {split!r} must be non-empty and hold no "
                              "path separator or '..'")
    return split


@dataclass(frozen=True)
class DatasetSpec:
    RANGES_CHECKED_WHEN_MADE = True  # see fileio.check_ranges

    # each container held read-only (fileio.read_only), whatever was passed
    modalities: tuple[ModalitySpec, ...]
    # images are held in memory: 4 MB each at 1024 px, 1.6 GB for 100,000 at 64 px
    image_size: int = Range(16, 1024).field(default=64)
    counts: Mapping[str, int] = Range(0, 100_000).field(
        default_factory=lambda: {"train": 200, "val": 100})
    seed: int = SEED.field(default=0)
    # object extent in pixels (lo, hi), at most image_size
    size_range: tuple[int, ...] = Range(1, 1024).field(default=(5, 20))
    # objects per image (lo, hi); placing one checks it against all before it
    objects_range: tuple[int, ...] = Range(0, 100).field(default=(1, 4))

    def __post_init__(self):
        for name in ("modalities", "counts", "size_range", "objects_range"):
            object.__setattr__(self, name, read_only(getattr(self, name)))
        if len(self.modalities) < 2:
            raise ValidationError("need at least 2 modalities")
        check_ranges(self, "dataset")  # the modalities' ranges too
        for split in self.counts:
            check_split_name(split)
        for name, top in (("size_range", self.image_size), ("objects_range", math.inf)):
            r = getattr(self, name)
            if not (len(r) == 2 and all(type(v) is int for v in r) and r[0] <= r[1] <= top):
                raise ValidationError(f"dataset.{name} must be two integers lo <= hi <= {top}, "
                                      f"got {list(r)}")
        names = self.modality_names
        for name in names:
            if names.count(name) > 1:
                raise ValidationError(f"modality names must be unique: {name!r}")
        seen = set()
        for m in self.modalities:
            for c in m.classes:
                if c in seen:
                    raise ValidationError(f"class vocabularies must be disjoint: {c!r}")
                seen.add(c)

    @property
    def n_modalities(self) -> int:
        return len(self.modalities)

    @property
    def modality_names(self) -> list:
        return [m.name for m in self.modalities]

    @property
    def global_classes(self) -> list:
        return [c for m in self.modalities for c in m.classes]

    def class_offset(self, modality_id: int) -> int:
        return sum(len(m.classes) for m in self.modalities[:modality_id])

    def global_class_ids(self, modality_id: int) -> list:
        off = self.class_offset(modality_id)
        return list(range(off, off + len(self.modalities[modality_id].classes)))

    def token_pairs(self) -> list:
        return [(m.name, c) for m in self.modalities for c in m.classes]

    def to_json(self) -> dict:
        return json_form(self)

    @staticmethod
    def from_json(doc) -> "DatasetSpec":
        return read_dataclass(DatasetSpec, doc, "dataset")


def make_default_spec(seed: int = 0, counts=None) -> DatasetSpec:
    """Five modalities, two classes each; appearance is shared pairwise so
    shape identity alone cannot resolve the class."""
    counts = counts or {"train": 200, "val": 100}
    mods = [
        ModalitySpec("cxr", ("cxr_round_lesion", "cxr_block_lesion"), curve=0,
                     noise_sigma=0.05, texture_freq=2.0),
        ModalitySpec("ct", ("ct_round_lesion", "ct_block_lesion"), curve=0,
                     noise_sigma=0.05, texture_freq=2.0),
        ModalitySpec("mri", ("mri_round_focus", "mri_block_focus"), curve=3,
                     noise_sigma=0.04, texture_freq=4.0),
        ModalitySpec("endoscopy", ("endo_round_polyp", "endo_block_polyp"), curve=3,
                     noise_sigma=0.04, texture_freq=4.0),
        ModalitySpec("pathology", ("path_round_cell", "path_block_cell"), curve=2,
                     noise_sigma=0.03, texture_freq=8.0),
    ]
    return DatasetSpec(modalities=mods, counts=counts, seed=seed)


# ---------------------------------------------------------------------------
# synthetic rendering
# ---------------------------------------------------------------------------

_SHAPES = ("circle", "square", "triangle", "ring", "blob")


def _grid(s: int):
    """Pixel coordinates of an s x s grid: rows as an (s, 1) column and
    columns as a (1, s) row, which broadcast to every pixel."""
    t = np.arange(s, dtype=np.float64)
    return t[:, None], t[None, :]


def _tight_crop(mask: np.ndarray) -> np.ndarray:
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    return mask[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]


@functools.cache
def _fixed_mask(shape: str, s: int) -> np.ndarray:
    """The cropped mask of a shape that does not draw from the generator, as
    a read-only view; cached, so there is one per (shape, extent). Extents
    never exceed the image size, so the cache holds at most 4 x N masks,
    N the largest image size rendered."""
    yy, xx = _grid(s)
    cy = cx = (s - 1) / 2.0
    r = s / 2.0
    if shape == "circle":
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    elif shape == "square":
        mask = np.ones((s, s), dtype=bool)
    elif shape == "triangle":
        # upward triangle: row i spans a widening band
        half = (yy + 1) / s * r
        mask = np.abs(xx - cx) <= half
    else:  # ring
        d2 = (yy - cy) ** 2 + (xx - cx) ** 2
        inner = max(r * 0.55, 0.5)
        mask = (d2 <= r * r) & (d2 >= inner * inner)
    mask.setflags(write=False)
    return _tight_crop(mask)


def _shape_mask(shape: str, size: int, rng: np.random.Generator) -> np.ndarray:
    s = max(int(size), 2)
    if shape != "blob":
        return _fixed_mask(shape, s)
    yy, xx = _grid(s)
    mask = np.zeros((s, s), dtype=bool)
    for _ in range(int(rng.integers(2, 4))):
        by, bx = rng.uniform(0.25 * s, 0.75 * s, size=2)
        br = rng.uniform(0.25 * s, 0.45 * s)
        mask |= (yy - by) ** 2 + (xx - bx) ** 2 <= br * br
    return _tight_crop(mask)


def _apply_curve(img: np.ndarray, curve: int) -> np.ndarray:
    x = np.clip(img, 0.0, 1.0)
    if curve == 0:
        return x
    if curve == 1:
        return np.sqrt(x)
    if curve == 2:
        return x * x
    if curve == 3:
        return x * x * (3.0 - 2.0 * x)  # smoothstep
    return 1.0 - x  # 4, the last id ModalitySpec declares


def shape_of_class(local_class_index: int) -> str:
    return _SHAPES[local_class_index % len(_SHAPES)]


def _split_code(split: str) -> int:
    return _fnv1a64(split.encode("utf-8")) % 2**31


def _render_sample(spec: DatasetSpec, modality_id: int, split: str,
                   index: int) -> Sample:
    mod = spec.modalities[modality_id]
    size = spec.image_size
    rng = np.random.default_rng(
        np.random.SeedSequence([spec.seed, _split_code(split), modality_id, index]))

    t = np.arange(size) / size  # x along a row, y down a column
    phase = rng.uniform(0, 2 * math.pi, size=2)
    img = 0.32 + 0.10 * np.sin(2 * math.pi * mod.texture_freq * t + phase[0]) \
                      * np.sin(2 * math.pi * mod.texture_freq * t + phase[1])[:, None]
    img += 0.06 * (t - 0.5) * rng.uniform(-1, 1)

    n_objects = int(rng.integers(spec.objects_range[0], spec.objects_range[1] + 1))
    class_offset = spec.class_offset(modality_id)
    annotations = []
    placed = np.empty((4, n_objects))  # xyxy corners, one column per placed object
    for k in range(n_objects):
        local_cls = int(rng.integers(0, len(mod.classes)))
        extent = int(rng.integers(spec.size_range[0], spec.size_range[1] + 1))
        mask = _shape_mask(shape_of_class(local_cls), extent, rng)
        mh, mw = mask.shape
        for _attempt in range(10):
            r0 = int(rng.integers(1, size - mh)) if size - mh > 1 else 0
            c0 = int(rng.integers(1, size - mw)) if size - mw > 1 else 0
            xyxy = (c0, r0, c0 + mw, r0 + mh)
            if not k or corner_iou(xyxy, placed[:, :k]).max() < 0.3:
                break
        placed[:, k] = xyxy
        level = rng.uniform(0.72, 0.95)
        region = img[r0:r0 + mh, c0:c0 + mw]
        region[mask] = level
        box = ((c0 + mw / 2.0) / size, (r0 + mh / 2.0) / size, mw / size, mh / size)
        annotations.append(Annotation(box=box, class_id=class_offset + local_cls))

    img = _apply_curve(img, mod.curve)
    if mod.noise_sigma > 0:
        img = img + rng.normal(0.0, mod.noise_sigma, size=img.shape)
    img = np.clip(img, 0.0, 1.0)
    img = img.astype(np.float32)  # the precision of the dataset blob
    return Sample(image=img, modality_id=modality_id, annotations=annotations,
                  sample_id=f"{split}-{mod.name}-{index}")


def generate_synthetic(spec: DatasetSpec, split: str) -> list:
    """Deterministic sample list for one split that ``spec.counts``
    declares; uniform modality allocation."""
    total = spec.counts[split]
    m = spec.n_modalities
    out = []
    for mi in range(m):
        n_mi = total // m + (1 if mi < total % m else 0)
        for k in range(n_mi):
            out.append(_render_sample(spec, mi, split, k))
    return out


# ---------------------------------------------------------------------------
# dataset export / load
# ---------------------------------------------------------------------------


def _split_file(out_dir, split: str) -> str:
    return os.path.join(out_dir, f"{check_split_name(split)}.split")


def export_dataset(samples, spec: DatasetSpec, out_dir, split: str) -> str:
    """Writes the split's file, replacing an old one atomically, and returns
    its path."""
    path = _split_file(out_dir, split)
    make_dirs(out_dir)
    records = [{"boxes": [list(a.box) for a in s.annotations], "classes": s.class_ids,
                "id": s.sample_id, "modality_id": s.modality_id} for s in samples]
    DATASET_SPLIT.write(path, {"dataset_spec": spec.to_json(), "samples": records},
                        [s.image for s in samples])
    return path


@dataclass
class _Record:
    """One sample of a split's header, as ``export_dataset`` writes it."""
    id: str
    modality_id: int
    classes: list[int]
    boxes: list[tuple[float, ...]]


@dataclass
class _Header:
    """A split file's header, as ``export_dataset`` writes it."""
    dataset_spec: DatasetSpec
    samples: list[_Record]


def load_dataset(out_dir, split: str):
    """Returns (samples, DatasetSpec). A file that is not a well-formed
    split raises IngestError: a bad header, spec or sample record, a blob
    that does not hold one image per sample, a repeated sample id and an
    image with a NaN or Inf pixel."""
    path = _split_file(out_dir, split)
    doc, blob = DATASET_SPLIT.read(path)
    try:
        header = read_dataclass(_Header, doc, "header")
    except ValidationError as e:
        raise IngestError(f"{path}: {e}") from e
    spec, records = header.dataset_spec, header.samples
    size = spec.image_size
    if blob.size != len(records) * size * size:
        raise IngestError(f"{path}: {len(records)} images of {size} x {size} pixels need "
                          f"{len(records) * size * size} values, the blob holds {blob.size}")
    images = blob.reshape(len(records), size, size)
    samples, ids = [], set()
    for i, rec in enumerate(records):
        if rec.id in ids:
            raise IngestError(f"{path}: sample id {rec.id!r} appears more than once")
        ids.add(rec.id)
        if not (0 <= rec.modality_id < spec.n_modalities and len(rec.boxes) == len(rec.classes)
                and all(0 <= c < len(spec.global_classes) for c in rec.classes)
                and all(len(b) == 4 for b in rec.boxes)):
            raise IngestError(f"{path}: header.samples[{i}] needs a modality_id below "
                              f"{spec.n_modalities}, one box of 4 numbers per class and "
                              f"class ids below {len(spec.global_classes)}: {rec}")
        img = images[i].astype(np.float32)
        if not np.isfinite(img).all():
            raise IngestError(f"{path}: image {rec.id!r} has a NaN or Inf pixel")
        try:  # a box of positive size inside the image, as a rendered box is
            anns = [Annotation(box=b, class_id=c).validate()
                    for b, c in zip(rec.boxes, rec.classes)]
        except ValidationError as e:
            raise IngestError(f"{path}: header.samples[{i}]: {e}") from e
        samples.append(Sample(image=img, modality_id=rec.modality_id,
                              annotations=anns, sample_id=rec.id))
    return samples, spec


# ---------------------------------------------------------------------------
# modality-balanced batch sampler
# ---------------------------------------------------------------------------


class ModalityBatchSampler:
    """Round-robin per-modality queues with the distinct-modality guarantee.

    Every batch holds one sample from each of B pairwise-distinct
    modalities, 1 <= B <= M (``RunConfig`` holds ``qra_batch_size`` so);
    when B < M the covered subset is drawn uniformly per batch.
    Queues reshuffle per epoch with the epoch index mixed into the seed, so
    epochs differ but runs reproduce.
    """

    def __init__(self, samples, n_modalities: int, batch_size: int, seed: int = 0):
        self.per_modality = [[] for _ in range(n_modalities)]
        for s in samples:
            self.per_modality[s.modality_id].append(s)
        empty = [i for i, q in enumerate(self.per_modality) if not q]
        if empty:
            raise ValidationError(f"modalities with no samples: {empty}")
        self.batch_size = batch_size
        self.n_modalities = n_modalities
        self.seed = seed
        self._subset_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
        self._epochs = [0] * n_modalities
        self._queues = [self._fresh_queue(i) for i in range(n_modalities)]

    def _fresh_queue(self, mi: int) -> list:
        order = list(range(len(self.per_modality[mi])))
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, 1 + mi, self._epochs[mi]]))
        rng.shuffle(order)
        return order

    def _pop(self, mi: int) -> Sample:
        if not self._queues[mi]:
            self._epochs[mi] += 1
            self._queues[mi] = self._fresh_queue(mi)
        return self.per_modality[mi][self._queues[mi].pop(0)]

    def next_batch(self) -> list:
        if self.batch_size == self.n_modalities:
            chosen = list(range(self.n_modalities))
        else:
            chosen = sorted(self._subset_rng.permutation(self.n_modalities)[:self.batch_size].tolist())
        return [self._pop(mi) for mi in chosen]


# ---------------------------------------------------------------------------
# token attachment
# ---------------------------------------------------------------------------


def _mean_embedding(spec: DatasetSpec, registry: TokenRegistry,
                    modality_id: int) -> np.ndarray:
    """The mean of the raw embeddings of every class declared for a modality."""
    mod_name = spec.modality_names[modality_id]
    return np.mean([registry.embedding(mod_name, spec.global_classes[cid])
                    for cid in spec.global_class_ids(modality_id)], axis=0)


def modality_mean_token(spec: DatasetSpec, registry: TokenRegistry,
                        projection: TokenProjection, modality_id: int) -> ad.Tensor:
    """(1, d_model) inference token of a modality: the projection of the
    mean of its class embeddings."""
    return projection.rows(_mean_embedding(spec, registry, modality_id)[None])


def attach_token(batch, spec: DatasetSpec, registry: TokenRegistry,
                 projection: TokenProjection,
                 rng: np.random.Generator | None = None) -> ad.Tensor:
    """The (B, d_model) token rows of a batch, one ``TokenProjection.rows``
    node: row b projects one raw embedding for image b.

    With ``rng`` (training) that is the embedding of one of the image's
    ground-truth classes, drawn uniformly, image by image; an image without
    boxes, and every image when ``rng`` is None (inference), takes the mean
    of its modality's class embeddings, as ``modality_mean_token`` does.
    """
    raw = []
    for s in batch:
        if rng is None or not s.annotations:
            raw.append(_mean_embedding(spec, registry, s.modality_id))
            continue
        classes = sorted({a.class_id for a in s.annotations})
        cid = classes[int(rng.integers(0, len(classes)))]
        raw.append(registry.embedding(spec.modality_names[s.modality_id],
                                      spec.global_classes[cid]))
    return projection.rows(np.stack(raw))
