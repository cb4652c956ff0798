"""Synthetic multimodality detection data, dataset export, and batch sampling.

The synthetic generator draws simple shapes (circle/square/triangle/ring/
blob) on modality-specific backgrounds. Class vocabularies are disjoint
across modalities, but the shape assigned to a class depends only on its
local index, so the same silhouette can mean different classes in different
modalities -- resolving it requires modality context. Boxes are derived
from the rendered mask, so annotations are exact by construction. Images
are quantized to float32 values at generation time so the raw-blob export
is lossless.

Each image of a batch gets one modality token row (``attach_token``): the
embedding of one of its box classes in training, and the mean of its
modality's class embeddings for an image without boxes and at inference.
The whole batch is projected by one ``TokenProjection.rows`` node.

On-disk formats:
  * dataset dir: ``<split>_manifest.json`` + ``<split>_images.<hash>.bin``
    (little-endian f32, one H*W block per sample, offsets in the manifest;
    the blob is named after the first 16 hex digits of its sha256, so a
    manifest only ever names the blob it was written with);
  * COCO-style export: JSON (images / annotations with absolute-pixel
    ``bbox=[x,y,w,h]`` / categories) plus one ``.rawf32`` file per image
    (magic ``RAWF32\\0`` + uint32 H, W little-endian + H*W f32).
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .boxes import iou
from .errors import ContractError, IngestError, TokenLookupError, ValidationError
from .fileio import atomic_write
from .tokens import TokenProjection, TokenRegistry, _fnv1a64

_RAWF32_MAGIC = b"RAWF32\x00"


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
    image: np.ndarray  # (H, W) float64 in [0, 1]
    modality_id: int
    annotations: list
    sample_id: str

    @property
    def class_ids(self) -> list:
        return [a.class_id for a in self.annotations]


@dataclass(frozen=True)
class ModalitySpec:
    name: str
    classes: tuple  # class names, disjoint across modalities
    curve: int = 0  # intensity transfer curve id, 0..4
    noise_sigma: float = 0.02
    texture_freq: float = 2.0


@dataclass
class DatasetSpec:
    modalities: list  # of ModalitySpec
    image_size: int = 64
    counts: dict = field(default_factory=lambda: {"train": 200, "val": 100})
    seed: int = 0
    size_range: tuple = (5, 20)  # object extent in pixels
    objects_range: tuple = (1, 4)

    def __post_init__(self):
        if len(self.modalities) < 2:
            raise ValidationError("need at least 2 modalities")
        if self.image_size < 16:
            raise ValidationError("image_size must be >= 16")
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

    def modality_of_class(self, class_id: int) -> int:
        for mi in range(self.n_modalities):
            if class_id in self.global_class_ids(mi):
                return mi
        raise ValidationError(f"class id {class_id} undeclared")

    def token_pairs(self) -> list:
        return [(m.name, c) for m in self.modalities for c in m.classes]

    def to_json(self) -> dict:
        return {
            "image_size": self.image_size,
            "counts": dict(self.counts),
            "seed": self.seed,
            "size_range": list(self.size_range),
            "objects_range": list(self.objects_range),
            "modalities": [
                {"name": m.name, "classes": list(m.classes), "curve": m.curve,
                 "noise_sigma": m.noise_sigma, "texture_freq": m.texture_freq}
                for m in self.modalities
            ],
        }

    @staticmethod
    def from_json(doc: dict) -> "DatasetSpec":
        try:
            mods = [ModalitySpec(name=m["name"], classes=tuple(m["classes"]),
                                 curve=int(m.get("curve", 0)),
                                 noise_sigma=float(m.get("noise_sigma", 0.02)),
                                 texture_freq=float(m.get("texture_freq", 2.0)))
                    for m in doc["modalities"]]
            return DatasetSpec(modalities=mods,
                               image_size=int(doc.get("image_size", 64)),
                               counts={k: int(v) for k, v in doc.get(
                                   "counts", {"train": 200, "val": 100}).items()},
                               seed=int(doc.get("seed", 0)),
                               size_range=tuple(doc.get("size_range", (5, 20))),
                               objects_range=tuple(doc.get("objects_range", (1, 4))))
        except (KeyError, TypeError, ValueError) as e:
            raise ValidationError(f"bad dataset spec: {e}") from e


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


def _shape_mask(shape: str, size: int, rng: np.random.Generator) -> np.ndarray:
    s = max(int(size), 2)
    yy, xx = np.indices((s, s), dtype=np.float64)
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
    elif shape == "ring":
        d2 = (yy - cy) ** 2 + (xx - cx) ** 2
        inner = max(r * 0.55, 0.5)
        mask = (d2 <= r * r) & (d2 >= inner * inner)
    elif shape == "blob":
        mask = np.zeros((s, s), dtype=bool)
        for _ in range(int(rng.integers(2, 4))):
            by, bx = rng.uniform(0.25 * s, 0.75 * s, size=2)
            br = rng.uniform(0.25 * s, 0.45 * s)
            mask |= (yy - by) ** 2 + (xx - bx) ** 2 <= br * br
    else:
        raise ValidationError(f"unknown shape {shape!r}")
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    return mask[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]  # tight crop


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
    if curve == 4:
        return 1.0 - x
    raise ValidationError(f"unknown intensity curve id {curve}")


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

    yy, xx = np.indices((size, size), dtype=np.float64) / size
    phase = rng.uniform(0, 2 * math.pi, size=2)
    img = 0.32 + 0.10 * np.sin(2 * math.pi * mod.texture_freq * xx + phase[0]) \
                      * np.sin(2 * math.pi * mod.texture_freq * yy + phase[1])
    img += 0.06 * (xx - 0.5) * rng.uniform(-1, 1)

    n_objects = int(rng.integers(spec.objects_range[0], spec.objects_range[1] + 1))
    annotations = []
    placed_xyxy = []
    for _ in range(n_objects):
        local_cls = int(rng.integers(0, len(mod.classes)))
        extent = int(rng.integers(spec.size_range[0], spec.size_range[1] + 1))
        mask = _shape_mask(shape_of_class(local_cls), extent, rng)
        mh, mw = mask.shape
        for _attempt in range(10):
            r0 = int(rng.integers(1, size - mh)) if size - mh > 1 else 0
            c0 = int(rng.integers(1, size - mw)) if size - mw > 1 else 0
            xyxy = (c0, r0, c0 + mw, r0 + mh)
            if not placed_xyxy or iou([xyxy], placed_xyxy).max() < 0.3:
                break
        placed_xyxy.append(xyxy)
        level = rng.uniform(0.72, 0.95)
        region = img[r0:r0 + mh, c0:c0 + mw]
        region[mask] = level
        box = ((c0 + mw / 2.0) / size, (r0 + mh / 2.0) / size, mw / size, mh / size)
        annotations.append(Annotation(box=box,
                                      class_id=spec.class_offset(modality_id) + local_cls).validate())

    img = _apply_curve(img, mod.curve)
    if mod.noise_sigma > 0:
        img = img + rng.normal(0.0, mod.noise_sigma, size=img.shape)
    img = np.clip(img, 0.0, 1.0)
    img = np.float64(np.float32(img))  # lossless raw-f32 export
    return Sample(image=img, modality_id=modality_id, annotations=annotations,
                  sample_id=f"{split}-{mod.name}-{index}")


def generate_synthetic(spec: DatasetSpec, split: str) -> list:
    """Deterministic sample list for one split; uniform modality allocation."""
    if split not in spec.counts:
        raise ValidationError(f"split {split!r} not declared in counts")
    total = int(spec.counts[split])
    m = spec.n_modalities
    out = []
    for mi in range(m):
        n_mi = total // m + (1 if mi < total % m else 0)
        for k in range(n_mi):
            out.append(_render_sample(spec, mi, split, k))
    return out


# ---------------------------------------------------------------------------
# dataset export / load (manifest + raw blob)
# ---------------------------------------------------------------------------


def _manifest_blob(path, split: str):
    """The blob name the manifest at ``path`` records, or None when there is
    no readable manifest or the name is not one of this split's blobs."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            name = json.load(fh).get("blob")
    except (OSError, ValueError, AttributeError):
        return None
    if (isinstance(name, str) and name == os.path.basename(name)
            and name.startswith(f"{split}_images") and name.endswith(".bin")):
        return name
    return None


def _remove_blob(out_dir, name, keep) -> None:
    if name is not None and name != keep:
        try:
            os.remove(os.path.join(out_dir, name))
        except FileNotFoundError:
            pass


def export_dataset(samples, spec: DatasetSpec, out_dir, split: str) -> str:
    """Writes the split's image blob, then its manifest.

    Replacing the manifest is the one commit point: until it happens the old
    manifest still names the old blob, and after it the old blob is removed.
    A failed export therefore leaves the old dataset as it was.
    """
    os.makedirs(out_dir, exist_ok=True)
    records, images = [], []
    offset = 0
    for s in samples:
        img32 = s.image.astype("<f4")
        images.append(img32.tobytes())
        records.append({
            "id": s.sample_id,
            "modality_id": s.modality_id,
            "offset": offset,
            "classes": [a.class_id for a in s.annotations],
            "boxes": [list(a.box) for a in s.annotations],
        })
        offset += img32.size * 4
    payload = b"".join(images)
    blob_name = f"{split}_images.{hashlib.sha256(payload).hexdigest()[:16]}.bin"
    with atomic_write(os.path.join(out_dir, blob_name), "wb") as fh:
        fh.write(payload)
    manifest = {
        "format": "mocadet-dataset-v1",
        "split": split,
        "image_size": spec.image_size,
        "blob": blob_name,
        "modalities": spec.modality_names,
        "global_classes": spec.global_classes,
        "dataset_spec": spec.to_json(),
        "samples": records,
    }
    path = os.path.join(out_dir, f"{split}_manifest.json")
    old_blob = _manifest_blob(path, split)
    try:
        with atomic_write(path) as fh:
            json.dump(manifest, fh, sort_keys=True)
    except BaseException:
        _remove_blob(out_dir, blob_name, keep=old_blob)
        raise
    _remove_blob(out_dir, old_blob, keep=blob_name)
    return path


def load_dataset(out_dir, split: str):
    """Returns (samples, DatasetSpec)."""
    path = os.path.join(out_dir, f"{split}_manifest.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise IngestError(f"cannot read manifest {path}: {e}") from e
    if not isinstance(manifest, dict) or manifest.get("format") != "mocadet-dataset-v1":
        raise IngestError(f"{path}: unknown manifest format")
    size, blob_name, records = (manifest.get(k) for k in ("image_size", "blob", "samples"))
    if type(size) is not int or size < 1 or not isinstance(blob_name, str) \
            or not isinstance(records, list):
        raise IngestError(f"{path}: manifest needs a positive integer image_size, "
                          "a blob name and a list of samples")
    blob_path = os.path.join(out_dir, blob_name)
    try:
        blob = np.fromfile(blob_path, dtype="<f4")
    except OSError as e:
        raise IngestError(f"cannot read image blob {blob_path}: {e}") from e
    samples = []
    for rec in records:
        try:
            sample_id, start = rec["id"], operator.index(rec["offset"]) // 4
            modality_id = int(rec["modality_id"])
            pairs = [(tuple(b), int(c)) for b, c in zip(rec["boxes"], rec["classes"])]
        except (KeyError, TypeError, ValueError) as e:
            raise IngestError(f"{path}: malformed sample record {rec!r}: {e!r}") from e
        if start < 0 or start + size * size > blob.size:
            raise IngestError(f"{blob_path}: image {sample_id!r} lies outside the "
                              f"{blob.size * 4}-byte blob")
        img = blob[start:start + size * size].astype(np.float64).reshape(size, size)
        anns = [Annotation(box=b, class_id=c).validate() for b, c in pairs]
        samples.append(Sample(image=img, modality_id=modality_id,
                              annotations=anns, sample_id=sample_id))
    return samples, DatasetSpec.from_json(manifest.get("dataset_spec"))


# ---------------------------------------------------------------------------
# COCO-style JSON
# ---------------------------------------------------------------------------


def write_rawf32(path, image: np.ndarray) -> None:
    img32 = np.asarray(image, dtype=np.float32)
    if img32.ndim != 2:
        raise ValidationError("rawf32 stores a single 2-d image")
    h, w = img32.shape
    with atomic_write(path, "wb") as fh:
        fh.write(_RAWF32_MAGIC)
        fh.write(np.array([h, w], dtype="<u4").tobytes())
        fh.write(img32.astype("<f4").tobytes())


def export_coco(samples, spec: DatasetSpec, out_dir, split: str) -> str:
    """COCO-style annotations + one .rawf32 image file per sample."""
    img_dir = os.path.join(out_dir, f"{split}_images")
    os.makedirs(img_dir, exist_ok=True)
    size = spec.image_size
    images, annotations = [], []
    ann_id = 1
    for idx, s in enumerate(samples):
        fname = f"{s.sample_id}.rawf32"
        write_rawf32(os.path.join(img_dir, fname), s.image)
        images.append({"id": idx + 1, "file_name": fname, "width": size, "height": size})
        for a in s.annotations:
            cx, cy, w, h = a.box
            annotations.append({
                "id": ann_id,
                "image_id": idx + 1,
                "category_id": a.class_id + 1,
                "bbox": [(cx - w / 2) * size, (cy - h / 2) * size, w * size, h * size],
            })
            ann_id += 1
    doc = {
        "images": images,
        "annotations": annotations,
        "categories": [{"id": i + 1, "name": c} for i, c in enumerate(spec.global_classes)],
    }
    path = os.path.join(out_dir, f"{split}_coco.json")
    with atomic_write(path) as fh:
        json.dump(doc, fh, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# modality-balanced batch sampler
# ---------------------------------------------------------------------------


class ModalityBatchSampler:
    """Round-robin per-modality queues with the distinct-modality guarantee.

    Every batch holds one sample from each of B pairwise-distinct
    modalities; when B < M the covered subset is drawn uniformly per batch.
    Queues reshuffle per epoch with the epoch index mixed into the seed, so
    epochs differ but runs reproduce.
    """

    def __init__(self, samples, n_modalities: int, batch_size: int, seed: int = 0):
        if batch_size > n_modalities:
            raise ContractError(
                f"batch size {batch_size} exceeds modality count {n_modalities}; "
                "batches must cover pairwise-distinct modalities")
        if batch_size < 1:
            raise ValidationError("batch size must be >= 1")
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
        batch = [self._pop(mi) for mi in chosen]
        mods = [s.modality_id for s in batch]
        if len(set(mods)) != len(mods):
            raise ContractError(f"distinct-modality constraint violated: {mods}")
        return batch


# ---------------------------------------------------------------------------
# token attachment
# ---------------------------------------------------------------------------


def _mean_embedding(spec: DatasetSpec, registry: TokenRegistry,
                    modality_id: int) -> np.ndarray:
    """The mean of the raw embeddings of every class declared for a modality."""
    mod_name = spec.modality_names[modality_id]
    if mod_name not in registry.modality_list:
        raise TokenLookupError(f"modality {mod_name!r} absent from registry")
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
