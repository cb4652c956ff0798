"""Tests for prompt templates, synthetic embeddings, the registry, the
token projection and silhouette."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import weighted_sum
from mocadet import autodiff as ad
from mocadet import data as dt
from mocadet import tokens as tk
from mocadet.errors import (DuplicateKeyError, RegistryFormatError, ShapeError,
                            TokenLookupError, ValidationError)


def test_build_prompt_examples():
    assert tk.build_prompt("Cardiomegaly", "CXR") == "Cardiomegaly in CXR"
    assert tk.build_prompt("Brain tumor", "MRI") == "Brain tumor in MRI"
    assert tk.build_prompt("x", "y") == "x in y"


def test_build_prompt_validation():
    with pytest.raises(ValidationError):
        tk.build_prompt("", "CXR")
    with pytest.raises(ValidationError):
        tk.build_prompt("Nodule", " CT")


def test_synth_embedding_deterministic_and_unit_norm():
    p = tk.build_prompt("Nodule", "lung CT")
    a = tk.synth_embedding(p, 64, 7)
    b = tk.synth_embedding(p, 64, 7)
    assert np.array_equal(a, b)
    assert abs(np.linalg.norm(a) - 1.0) <= 1e-12
    c = tk.synth_embedding(p, 64, 8)
    assert not np.array_equal(a, c)


def test_synth_embedding_odd_dimension():
    p = tk.build_prompt("Polyp", "colon endoscope")
    v = tk.synth_embedding(p, 5, 1)
    assert v.shape == (5,)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_catalog_prompts_are_well_separated():
    # independent check: pairwise cosines of the 27 catalog embeddings at
    # d_text=64, seed=1 computed with plain numpy
    assert len(tk.MEDICAL_PROMPT_CATALOG) == 27
    vecs = [tk.synth_embedding(tk.build_prompt(c, d), 64, 1)
            for d, c in tk.MEDICAL_PROMPT_CATALOG]
    worst = 0.0
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            cos = float(np.dot(vecs[i], vecs[j])
                        / (np.linalg.norm(vecs[i]) * np.linalg.norm(vecs[j])))
            worst = max(worst, abs(cos))
    assert worst < 0.5


def test_registry_build_and_lookup():
    reg = tk.build_registry([("CT", "nodule"), ("MRI", "tumor")], d_text=8, seed64=3)
    assert len(reg.entries) == 2
    assert reg.embedding("CT", "nodule").shape == (8,)
    assert reg.modality_list == ["CT", "MRI"]
    with pytest.raises(TokenLookupError):
        reg.embedding("CT", "tumor")
    with pytest.raises(DuplicateKeyError):
        tk.build_registry([("CT", "a"), ("CT", "a")], d_text=8)


_NAME = st.text(st.characters(blacklist_characters="|", blacklist_categories=("Cs",)),
                min_size=1, max_size=8)


@st.composite
def _registries(draw):
    d_text = draw(st.integers(2, 6))
    keys = draw(st.lists(st.tuples(_NAME, _NAME), min_size=1, max_size=6, unique=True))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    reg = tk.TokenRegistry(d_text=d_text)
    for key in keys:
        reg.entries[key] = np.array(draw(st.lists(finite, min_size=d_text, max_size=d_text)))
    return reg


@settings(max_examples=60, deadline=None)
@given(reg=_registries())
def test_registry_round_trip(reg, tmp_path_factory):
    path = tmp_path_factory.mktemp("reg") / "reg.json"
    tk.save_registry(reg, path)
    loaded = tk.load_registry(path)
    assert loaded.d_text == reg.d_text
    assert list(loaded.entries) == list(reg.entries)
    assert loaded.modality_list == list(dict.fromkeys(d for d, _ in reg.entries))
    for key, vec in reg.entries.items():
        assert loaded.entries[key].dtype == np.float64
        assert np.array_equal(loaded.entries[key], vec)


def test_registry_error_kinds(tmp_path):
    bad_dim = tmp_path / "bad_dim.json"
    bad_dim.write_text(json.dumps({"d_text": 4, "tokens": {"CT|a": [1.0, 2.0]}}))
    with pytest.raises(ShapeError):
        tk.load_registry(bad_dim)

    dup = tmp_path / "dup.json"
    dup.write_text('{"d_text": 2, "tokens": {"CT|a": [1.0, 0.0], "CT|a": [0.0, 1.0]}}')
    with pytest.raises(DuplicateKeyError):
        tk.load_registry(dup)

    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    with pytest.raises(RegistryFormatError):
        tk.load_registry(malformed)

    bad_key = tmp_path / "bad_key.json"
    bad_key.write_text(json.dumps({"d_text": 2, "tokens": {"CTa": [1.0, 0.0]}}))
    with pytest.raises(RegistryFormatError):
        tk.load_registry(bad_key)


def test_every_registry_defect_is_a_typed_error(tmp_path):
    path = tmp_path / "reg.json"
    good = {"d_text": 2, "tokens": {"CT|a": [1.0, 0.0]}}
    cases = [
        ({"tokens": good["tokens"]}, RegistryFormatError),  # no d_text
        ({"d_text": 2}, RegistryFormatError),  # no tokens
        (dict(good, d_text=True), RegistryFormatError),
        (dict(good, d_text=1), RegistryFormatError),
        (dict(good, d_text=2.0), RegistryFormatError),
        (dict(good, tokens={"|a": [1.0, 0.0]}), RegistryFormatError),
        (dict(good, tokens={"CT|": [1.0, 0.0]}), RegistryFormatError),
        (dict(good, tokens={"CT|a": [float("nan"), 0.0]}), ValidationError),
        # an integer too large for a float is a bad value (exit 1), not a
        # crash (exit 2)
        (dict(good, tokens={"CT|a": [10 ** 400, 0.0]}), ValidationError),
    ]
    for doc, error in cases:
        path.write_text(json.dumps(doc))
        with pytest.raises(error):
            tk.load_registry(path)
    path.write_text(json.dumps(good))
    assert np.array_equal(tk.load_registry(path).entries[("CT", "a")], [1.0, 0.0])


def test_registry_tokens_must_map_keys_to_lists_of_numbers(tmp_path):
    path = tmp_path / "reg.json"
    for tokens in ([1, 2], "CT|a", {"CT|a": [1.0, "x"]}, {"CT|a": ["1.0", 0.0]},
                   {"CT|a": [True, 0.0]}, {"CT|a": 2.0}, {"CT|a": [[1.0, 0.0]]}):
        path.write_text(json.dumps({"d_text": 2, "tokens": tokens}))
        with pytest.raises(RegistryFormatError):
            tk.load_registry(path)


def test_token_rows_zero_identity_and_random():
    reg = tk.build_registry([("CT", "nodule"), ("CT", "cyst")], d_text=6, seed64=2)
    raw = np.stack([reg.embedding("CT", "nodule"), reg.embedding("CT", "cyst")])
    rng = np.random.default_rng(0)

    proj = tk.TokenProjection(4, 6, ad.Drawn(rng))
    proj.W.data[:] = 0.0
    with ad.no_grad():
        out = proj.rows(raw)
    assert np.array_equal(out.data, np.zeros((2, 4)))  # one (d_model,) row per raw row

    proj_id = tk.TokenProjection(6, 6, ad.Drawn(rng))
    proj_id.W.data[:] = np.eye(6)
    with ad.no_grad():
        out = proj_id.rows(raw)
    assert np.allclose(out.data, raw, atol=1e-15)

    proj_r = tk.TokenProjection(5, 6, ad.Drawn(rng))
    with ad.no_grad():
        out = proj_r.rows(raw)
        alone = [proj_r.rows(raw[b:b + 1]).data for b in range(2)]
    assert out.shape == (2, 5)
    assert np.allclose(out.data, raw @ proj_r.W.data.T, atol=1e-14)  # independent matmul
    assert np.array_equal(out.data, np.concatenate(alone))  # batch-independent bit for bit

    with pytest.raises(ShapeError):
        proj_r.rows(raw[0])
    with pytest.raises(ShapeError):
        proj_r.rows(raw[:, :5])
    with pytest.raises(TokenLookupError):
        reg.embedding("MRI", "nodule")


def _per_token_oracle(batch, spec, registry, W, rng):
    """The per-sample projection the batched node replaced: ``W @ e`` of
    one class embedding drawn per labelled image, and the mean of the
    projected class tokens for an image without boxes. Returns the (B, d)
    rows and, for each row, the (embedding, weight) pairs whose outer
    products make up d(row . g)/dW."""
    rows, parts = [], []
    for s in batch:
        mod = spec.modality_names[s.modality_id]
        if s.annotations:
            classes = sorted({a.class_id for a in s.annotations})
            names = [spec.global_classes[classes[int(rng.integers(0, len(classes)))]]]
        else:
            names = [spec.global_classes[c] for c in spec.global_class_ids(s.modality_id)]
        embs = [registry.embedding(mod, c) for c in names]
        rows.append(np.mean([W @ e for e in embs], axis=0))
        parts.append([(e, 1.0 / len(embs)) for e in embs])
    return np.array(rows), parts


def test_batch_token_rows_match_the_per_token_projection():
    spec = dt.make_default_spec(seed=3, counts={"train": 10})
    samples = dt.generate_synthetic(spec, "train")
    empty = dt.Sample(image=samples[0].image, modality_id=2, annotations=[], sample_id="e")
    batch = [samples[3], empty, samples[4], samples[6], samples[9]]  # 3, 4, 6: two classes
    registry = tk.build_registry(spec.token_pairs(), d_text=12, seed64=4)
    proj = tk.TokenProjection(7, 12, ad.Drawn(np.random.default_rng(1)))
    g = np.random.default_rng(2).normal(size=(len(batch), 7))

    want, parts = _per_token_oracle(batch, spec, registry, proj.W.data,
                                    np.random.default_rng(9))
    want_grad = sum(w * np.outer(g[b], e) for b, pairs in enumerate(parts) for e, w in pairs)
    proj.W.grad = None
    with ad.Tape() as tape:
        rows = dt.attach_token(batch, spec, registry, proj, np.random.default_rng(9))
        assert len(tape.nodes) == 1
        ad.backward(weighted_sum(rows, g))
    assert np.allclose(rows.data, want, rtol=0, atol=1e-14)
    assert np.allclose(proj.W.grad, want_grad, rtol=0, atol=1e-14)

    # inference: every image takes its modality's mean token
    with ad.no_grad():
        rows = dt.attach_token(batch, spec, registry, proj)
    unlabelled = [dt.Sample(s.image, s.modality_id, [], s.sample_id) for s in batch]
    want, _ = _per_token_oracle(unlabelled, spec, registry, proj.W.data, None)
    assert np.allclose(rows.data, want, rtol=0, atol=1e-14)


def _silhouette_bruteforce(X, y):
    """Independent O(n^2) reference: direct formula, no vectorization."""
    n = len(X)
    labels = sorted(set(y))
    total = 0.0
    for i in range(n):
        same = [j for j in range(n) if y[j] == y[i] and j != i]
        if not same:
            continue
        a = sum(math.dist(X[i], X[j]) for j in same) / len(same)
        b = min(sum(math.dist(X[i], X[j]) for j in range(n) if y[j] == lab)
                / sum(1 for j in range(n) if y[j] == lab)
                for lab in labels if lab != y[i])
        m = max(a, b)
        total += (b - a) / m if m > 0 else 0.0
    return total / n


def test_silhouette_two_tight_clusters():
    X = [(0.0, 0.0), (0.0, 0.1), (10.0, 10.0), (10.0, 10.1)]
    y = [0, 0, 1, 1]
    expected = _silhouette_bruteforce(X, y)
    got = tk.silhouette_score(X, y)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.993, abs=1e-3)


def test_silhouette_degenerate_identical_points():
    X = [(1.0, 1.0)] * 4
    assert tk.silhouette_score(X, [0, 0, 1, 1]) == 0.0


def test_silhouette_bounds_and_bruteforce_agreement():
    rng = np.random.default_rng(42)
    for trial in range(10):
        n = int(rng.integers(4, 51))
        X = rng.normal(size=(n, 3))
        y = rng.integers(0, 3, size=n).tolist()
        if len(set(y)) < 2:
            y[0] = (y[1] + 1) % 3
        got = tk.silhouette_score(X, y)
        assert -1.0 <= got <= 1.0
        assert got == pytest.approx(_silhouette_bruteforce(X.tolist(), y), abs=1e-10)


def test_silhouette_single_label_rejected():
    # one label, one point, no point: the registry of one token and the empty
    # registry have fewer than two labels too
    for vectors, labels in (([(0, 0), (1, 1)], [0, 0]), ([(1, 0)], ["a"]), ([], [])):
        with pytest.raises(ValidationError, match="need at least 2 distinct labels"):
            tk.silhouette_score(vectors, labels)
