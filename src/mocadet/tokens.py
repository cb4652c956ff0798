"""Modality tokens: text-anchored vectors for (modality, class) pairs.

A token starts life as a raw text-encoder output for the prompt
``"<class> in <modality>"``, a (d_text,) array. At desk scale we either
load such vectors from a registry file or synthesize them with a
deterministic hash-seeded generator. Each image of a batch gets one raw row
(``data.attach_token`` picks it: one of the image's box classes in
training, the mean of its modality's class embeddings for an image without
boxes and at inference), and ``TokenProjection.rows`` maps the batch's rows
into the detector's model space as one tape node, where they act as
modality-context anchors. The projection is linear, so a mean row projects
to the mean of the projected class tokens.

Registry file format (JSON, UTF-8)::

    {"d_text": <int>, "tokens": {"<modality>|<class>": [floats...]}}

``|`` is forbidden inside modality and class names.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import (DuplicateKeyError, RegistryFormatError, ShapeError,
                     TokenLookupError, ValidationError)
from .fileio import atomic_write

# Demo catalog: 27 (modality, class) pairs spanning five imaging domains.
MEDICAL_PROMPT_CATALOG: list[tuple[str, str]] = [
    ("CXR", "Aortic enlargement"),
    ("CXR", "Atelectasis"),
    ("CXR", "Calcification"),
    ("CXR", "Cardiomegaly"),
    ("CXR", "Consolidation"),
    ("CXR", "ILD"),
    ("CXR", "Infiltration"),
    ("CXR", "Lung Opacity"),
    ("CXR", "Nodule/Mass"),
    ("CXR", "Other lesion"),
    ("CXR", "Pleural effusion"),
    ("CXR", "Pleural thickening"),
    ("CXR", "Pneumothorax"),
    ("CXR", "Pulmonary fibrosis"),
    ("MRI", "Brain tumor"),
    ("Pathology (H&E stain)", "Epithelial"),
    ("Pathology (H&E stain)", "Lymphocyte"),
    ("Pathology (H&E stain)", "Neutrophil"),
    ("Pathology (H&E stain)", "Macrophage"),
    ("cardiac MRI", "Left heart ventricle"),
    ("cardiac MRI", "Myocardium"),
    ("cardiac MRI", "Right heart ventricle"),
    ("lung CT", "COVID-19 infection"),
    ("lung CT", "Nodule"),
    ("colon endoscope", "Neoplastic polyp"),
    ("colon endoscope", "Polyp"),
    ("colon endoscope", "Non-neoplastic polyp"),
]


def build_prompt(class_name: str, modality_name: str) -> str:
    """Render the fixed '<class> in <modality>' template."""
    for label, name in (("class", class_name), ("modality", modality_name)):
        if not name:
            raise ValidationError(f"empty {label} name")
        if name != name.strip():
            raise ValidationError(f"{label} name has leading/trailing whitespace: {name!r}")
    return f"{class_name} in {modality_name}"


# -- deterministic synthetic embeddings -------------------------------------

_M64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _M64
    return h


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return state, z ^ (z >> 31)


def synth_embedding(prompt: str, d_text: int, seed64: int) -> np.ndarray:
    """Deterministic unit-norm stand-in for a frozen text encoder.

    FNV-1a over (prompt UTF-8 ++ seed64 as 8 LE bytes) seeds a
    splitmix64 stream; pairs of 53-bit uniforms feed Box-Muller; the result
    is L2-normalized. Same (prompt, d_text, seed) always gives the same
    vector. ``d_text`` is at least 2, as ``TokenConfig.d_text`` declares.
    """
    state = _fnv1a64(prompt.encode("utf-8")
                     + int(seed64).to_bytes(8, "little", signed=False))
    vals = np.empty(2 * ((d_text + 1) // 2), dtype=np.float64)
    for i in range(0, vals.size, 2):
        state, z1 = _splitmix64(state)
        state, z2 = _splitmix64(state)
        u1 = ((z1 >> 11) + 1) * 2.0 ** -53  # (0, 1]
        u2 = (z2 >> 11) * 2.0 ** -53        # [0, 1)
        r = math.sqrt(-2.0 * math.log(u1))
        vals[i] = r * math.cos(2.0 * math.pi * u2)
        vals[i + 1] = r * math.sin(2.0 * math.pi * u2)
    v = vals[:d_text]
    norm = float(np.sqrt((v * v).sum()))
    if norm == 0.0:
        raise ValidationError("degenerate synthetic embedding (zero norm)")
    return v / norm


# -- registry ----------------------------------------------------------------


@dataclass
class TokenRegistry:
    """Immutable store of raw embeddings for every declared (d, c) pair."""

    d_text: int
    entries: dict = field(default_factory=dict)  # (modality, class) -> (d_text,) array

    @property
    def modality_list(self) -> list:
        """The registry's modalities in first-seen order."""
        return list(dict.fromkeys(d for d, _ in self.entries))

    def embedding(self, modality: str, class_name: str) -> np.ndarray:
        key = (modality, class_name)
        if key not in self.entries:
            raise TokenLookupError(f"undeclared (modality, class) pair {key}")
        return self.entries[key]

    def classes_of(self, modality: str) -> list:
        return [c for (d, c) in self.entries if d == modality]


def build_registry(pairs, d_text: int = 64, seed64: int = 1) -> TokenRegistry:
    """Synthesize one embedding per (modality, class) pair."""
    reg = TokenRegistry(d_text=d_text)
    for modality, class_name in pairs:
        key = (modality, class_name)
        if key in reg.entries:
            raise DuplicateKeyError(f"duplicate pair {key}")
        reg.entries[key] = synth_embedding(build_prompt(class_name, modality), d_text, seed64)
    return reg


def save_registry(reg: TokenRegistry, path) -> None:
    for modality, class_name in reg.entries:
        if "|" in modality or "|" in class_name:
            raise ValidationError(f"'|' not allowed in names: {(modality, class_name)}")
    doc = {
        "d_text": reg.d_text,
        "tokens": {f"{d}|{c}": [float(x) for x in vec]
                   for (d, c), vec in reg.entries.items()},
    }
    with atomic_write(path) as fh:
        json.dump(doc, fh)


def load_registry(path) -> TokenRegistry:
    """Parse and validate a registry file; every defect gets its own error kind."""

    def reject_dupes(pairs):
        seen = set()
        for k, _ in pairs:
            if k in seen:
                raise DuplicateKeyError(f"duplicate registry key {k!r}")
            seen.add(k)
        return dict(pairs)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=reject_dupes)
    except DuplicateKeyError:
        raise
    except (OSError, json.JSONDecodeError) as e:
        raise RegistryFormatError(f"cannot read registry {path}: {e}") from e

    if not isinstance(doc, dict) or "d_text" not in doc or "tokens" not in doc:
        raise RegistryFormatError("registry must have 'd_text' and 'tokens' fields")
    d_text = doc["d_text"]
    if not isinstance(d_text, int) or d_text < 2:
        raise RegistryFormatError(f"bad d_text: {d_text!r}")

    if not isinstance(doc["tokens"], dict):
        raise RegistryFormatError("registry 'tokens' must map '<modality>|<class>' to vectors")
    reg = TokenRegistry(d_text=d_text)
    for key, vec in doc["tokens"].items():
        if not isinstance(key, str) or key.count("|") != 1:
            raise RegistryFormatError(f"token key must be '<modality>|<class>': {key!r}")
        modality, class_name = key.split("|")
        if not modality or not class_name:
            raise RegistryFormatError(f"empty name in key {key!r}")
        if not isinstance(vec, list) or not all(type(v) in (int, float) for v in vec):
            raise RegistryFormatError(f"entry {key!r} is not a list of numbers")
        if len(vec) != d_text:
            raise ShapeError(f"entry {key!r} has length {len(vec)}, expected {d_text}")
        try:
            arr = np.asarray(vec, dtype=np.float64)
        except OverflowError:  # an integer too large for a float
            raise ValidationError(f"entry {key!r} has a value beyond float range") from None
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"entry {key!r} has non-finite values")
        reg.entries[(modality, class_name)] = arr
    return reg


# -- projection into model space ---------------------------------------------


class TokenProjection(ad.Module):
    """Learnable linear map from text space to the detector's model space;
    its one parameter is ``token_projection.W``, taken from ``init``, a
    parameter source (``autodiff.Drawn`` draws it uniform in
    [-1/sqrt(d_text), 1/sqrt(d_text)))."""

    prefix = "token_projection"

    def __init__(self, d_model: int, d_text: int, init):
        self.W = init.uniform(1.0 / math.sqrt(d_text), (d_model, d_text))

    @property
    def d_text(self) -> int:
        return self.W.shape[1]

    def rows(self, raw) -> ad.Tensor:
        """The (B, d_model) token rows ``raw @ W.T`` of a (B, d_text) matrix
        of raw embeddings, as one tape node whose pullback is ``g.T @ raw``.

        The value is taken as B matrix-vector products ``W @ raw[b]``, so
        each row is bitwise the same whatever rows share its batch."""
        raw = np.asarray(raw, dtype=np.float64)
        if raw.ndim != 2 or raw.shape[1] != self.d_text:
            raise ShapeError(f"raw embeddings have shape {raw.shape}, "
                             f"expected (B, {self.d_text})")
        value = (self.W.data @ raw[:, :, None])[:, :, 0]
        return ad.node(value, (self.W,), lambda g: (g.T @ raw,))


# -- clustering quality --------------------------------------------------------


def silhouette_score(vectors, labels) -> float:
    """Mean silhouette over points with Euclidean distance.

    Singleton-cluster points and points with a == b == 0 contribute 0.
    """
    X = np.asarray(vectors, dtype=np.float64)
    y = np.asarray(list(labels))
    uniq = list(dict.fromkeys(y.tolist()))
    if len(uniq) < 2:
        raise ValidationError("need at least 2 distinct labels")

    diff = X[:, None, :] - X[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    total = 0.0
    n = X.shape[0]
    for i in range(n):
        same = (y == y[i])
        n_same = int(same.sum())
        if n_same == 1:
            continue  # singleton contributes 0
        a = dist[i][same].sum() / (n_same - 1)
        b = min(dist[i][y == lab].mean() for lab in uniq if lab != y[i])
        m = max(a, b)
        if m > 0.0:
            total += (b - a) / m
    return total / n
