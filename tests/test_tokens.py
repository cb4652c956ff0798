"""Tests for prompt templates, synthetic embeddings, the registry, and silhouette."""

import json
import math

import numpy as np
import pytest

from mocadet import autodiff as ad
from mocadet import tokens as tk
from mocadet.errors import (DuplicateKeyError, RegistryFormatError, ShapeError,
                            TokenLookupError, ValidationError)


def test_build_prompt_examples():
    assert tk.build_prompt("Cardiomegaly", "CXR").rendered == "Cardiomegaly in CXR"
    assert tk.build_prompt("Brain tumor", "MRI").rendered == "Brain tumor in MRI"
    assert tk.build_prompt("x", "y").rendered == "x in y"


def test_build_prompt_validation():
    with pytest.raises(ValidationError):
        tk.build_prompt("", "CXR")
    with pytest.raises(ValidationError):
        tk.build_prompt("Nodule", " CT")


def test_synth_embedding_deterministic_and_unit_norm():
    p = tk.build_prompt("Nodule", "lung CT")
    a = tk.synth_embedding(p, 64, 7)
    b = tk.synth_embedding(p, 64, 7)
    assert np.array_equal(a.vector, b.vector)
    assert abs(np.linalg.norm(a.vector) - 1.0) <= 1e-12
    c = tk.synth_embedding(p, 64, 8)
    assert not np.array_equal(a.vector, c.vector)
    with pytest.raises(ValidationError):
        tk.synth_embedding(p, 1, 7)


def test_synth_embedding_odd_dimension():
    p = tk.build_prompt("Polyp", "colon endoscope")
    v = tk.synth_embedding(p, 5, 1).vector
    assert v.shape == (5,)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_catalog_prompts_are_well_separated():
    # independent check: pairwise cosines of the 27 catalog embeddings at
    # d_text=64, seed=1 computed with plain numpy
    assert len(tk.MEDICAL_PROMPT_CATALOG) == 27
    vecs = [tk.synth_embedding(tk.build_prompt(c, d), 64, 1).vector
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
    assert reg.embedding("CT", "nodule").source == "synthetic"
    with pytest.raises(TokenLookupError):
        reg.embedding("CT", "tumor")
    with pytest.raises(DuplicateKeyError):
        tk.build_registry([("CT", "a"), ("CT", "a")], d_text=8)


def test_registry_round_trip(tmp_path):
    reg = tk.build_registry([("CT", "nodule"), ("MRI", "tumor"), ("MRI", "ventricle")],
                            d_text=16, seed64=5)
    path = tmp_path / "reg.json"
    tk.save_registry(reg, path)
    loaded = tk.load_registry(path)
    assert loaded.d_text == reg.d_text
    assert set(loaded.entries) == set(reg.entries)
    for key in reg.entries:
        assert np.array_equal(loaded.entries[key].vector, reg.entries[key].vector)
        assert loaded.entries[key].source == "file"


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


def test_registry_tokens_must_map_keys_to_lists_of_numbers(tmp_path):
    path = tmp_path / "reg.json"
    for tokens in ([1, 2], "CT|a", {"CT|a": [1.0, "x"]}, {"CT|a": ["1.0", 0.0]},
                   {"CT|a": [True, 0.0]}, {"CT|a": 2.0}, {"CT|a": [[1.0, 0.0]]}):
        path.write_text(json.dumps({"d_text": 2, "tokens": tokens}))
        with pytest.raises(RegistryFormatError):
            tk.load_registry(path)


def test_project_token_zero_identity_and_random():
    reg = tk.build_registry([("CT", "nodule")], d_text=6, seed64=2)
    rng = np.random.default_rng(0)

    proj = tk.TokenProjection(4, 6, rng)
    proj.W.data[:] = 0.0
    with ad.no_grad():
        out = tk.project_token(reg, proj, "CT", "nodule")
    assert np.array_equal(out.data, np.zeros((1, 4)))  # one (1, d_model) token row

    proj_id = tk.TokenProjection(6, 6, rng)
    proj_id.W.data[:] = np.eye(6)
    with ad.no_grad():
        out = tk.project_token(reg, proj_id, "CT", "nodule")
    assert out.shape == (1, 6)
    assert np.allclose(out.data, reg.embedding("CT", "nodule").vector[None], atol=1e-15)

    proj_r = tk.TokenProjection(5, 6, rng)
    e = reg.embedding("CT", "nodule").vector
    with ad.no_grad():
        out = tk.project_token(reg, proj_r, "CT", "nodule")
    assert out.shape == (1, 5)
    assert np.allclose(out.data, (proj_r.W.data @ e)[None], atol=1e-14)  # independent matvec

    with pytest.raises(TokenLookupError):
        tk.project_token(reg, proj_r, "MRI", "nodule")


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
    with pytest.raises(ValidationError):
        tk.silhouette_score([(0, 0), (1, 1)], [0, 0])
