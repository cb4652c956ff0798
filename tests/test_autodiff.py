"""Tests for the reverse-mode tensor core.

Derived expectations are computed by independent oracles (hand evaluation,
closed forms, central finite differences) rather than by the code under test.
"""

import inspect

import numpy as np
import pytest

from mocadet import autodiff as ad
from mocadet import losses as ls
from mocadet import tokens as tk
from mocadet.errors import ContractError, ShapeError, ValidationError


def test_leaf_rejects_non_finite():
    with pytest.raises(ValidationError):
        ad.constant([1.0, np.nan])
    with pytest.raises(ValidationError):
        ad.constant([np.inf])


def _softmax(a, scale=1.0):
    # one-head attention with identity keys and values returns softmax(scale * a)
    eye = ad.constant(np.eye(a.shape[1]))
    return ad.attention(ad.constant(a), eye, eye, 1, scale)


def test_softmax_uniform_and_closed_form():
    out = _softmax(np.zeros((1, 4)))
    assert np.allclose(out.data, 0.25, atol=1e-15)
    logs = np.log(np.array([[1.0, 2.0, 3.0]]))
    out = _softmax(logs, scale=1.0)
    assert np.allclose(out.data, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-15)


def test_softmax_rows_sum_to_one_and_shift_invariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=(5, 9)) * rng.uniform(0.1, 30)
        out = _softmax(a, scale=rng.uniform(0.05, 4.0))
        assert np.abs(out.data.sum(axis=1) - 1.0).max() <= 1e-12
        shifted = _softmax(a + 3.7, scale=1.0)
        base = _softmax(a, scale=1.0)
        assert np.allclose(shifted.data, base.data, atol=1e-12, rtol=0)


def test_softmax_empty_rows_rejected():
    with pytest.raises(ShapeError):
        ad.attention(ad.constant(np.ones((2, 3))), ad.constant(np.ones((0, 3))),
                     ad.constant(np.ones((0, 3))), 1, 1.0)
    with pytest.raises(ValidationError):
        _softmax(np.ones((2, 2)), scale=0.0)
    with pytest.raises(ShapeError):  # width 6 does not split into 4 heads
        x = ad.constant(np.ones((2, 6)))
        ad.attention(x, x, x, 4, 1.0)


def test_cosine_matrix_self_and_antipodal():
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = ad.constant(rng.normal(size=(1, 6)))
        w = ad.constant(-v.data)
        c = ad.cosine_matrix(v, ad.concat_rows([v, w])).data
        assert c.shape == (1, 2)
        assert c[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert c[0, 1] == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        ad.cosine_matrix(ad.constant(np.ones((2, 4))), ad.constant(np.zeros((1, 4))))
    with pytest.raises(ShapeError):
        ad.cosine_matrix(ad.constant(np.ones((2, 4))), ad.constant(np.ones((2, 3))))


def test_cosine_matrix_and_logsumexp_rows_match_pairwise_formulas():
    """Every entry against the scalar formula u.v / (|u| |v|), and every row's
    logsumexp against log(sum(exp(row)))."""
    rng = np.random.default_rng(4)
    for r, k in [(1, 1), (3, 5), (5, 5)]:
        a, b = rng.normal(size=(r, 7)), rng.normal(size=(k, 7))
        with ad.no_grad():
            c = ad.cosine_matrix(ad.constant(a), ad.constant(b)).data
            lse = ad.logsumexp_rows(ad.constant(c * 3.0)).data
        want = np.array([[float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
                          for v in b] for u in a])
        assert np.allclose(c, want, rtol=0, atol=1e-14)
        assert np.allclose(lse, np.log(np.exp(c * 3.0).sum(axis=1)), rtol=0, atol=1e-13)
    with pytest.raises(ShapeError):
        ad.logsumexp_rows(ad.constant(np.ones((2, 0))))


def test_mean_rows_segments_are_block_means():
    a = np.random.default_rng(5).normal(size=(6, 3))
    with ad.no_grad():
        assert np.array_equal(ad.mean_rows(ad.constant(a), 1).data, a.mean(axis=0, keepdims=True))
        got = ad.mean_rows(ad.constant(a), 3).data
        one = ad.mean_rows(ad.constant(a), 1).data
    assert got.shape == (3, 3) and one.shape == (1, 3)
    assert np.allclose(got, [a[0:2].sum(axis=0) / 2, a[2:4].sum(axis=0) / 2,
                             a[4:6].sum(axis=0) / 2], rtol=0, atol=1e-15)
    with pytest.raises(ContractError):
        ad.mean_rows(ad.constant(a), 4)


def test_layernorm_constant_row_is_zero():
    out = ad.layernorm(ad.constant(np.full((3, 8), 2.5)))
    assert np.abs(out.data).max() < 1e-8


def test_backward_linear_map():
    # loss = sum(x W) for a row x: dloss/dW = x^T broadcast per column
    x = np.array([[1.0, 2.0, -3.0]])
    W = ad.param(np.random.default_rng(0).normal(size=(3, 4)))
    with ad.Tape():
        loss = ad.sum_all(ad.linear(ad.constant(x), W, np.zeros(4)))
        ad.backward(loss)
    assert np.allclose(W.grad, np.tile(x.T, (1, 4)), atol=1e-14)


def test_backward_quadratic():
    v = ad.param([1.0, -2.0, 0.5])
    with ad.Tape():
        loss = ad.sum_all(ad.mul(v, v))
        ad.backward(loss)
    assert np.allclose(v.grad, 2 * v.data, atol=1e-14)


def test_backward_requires_scalar():
    v = ad.param([1.0, 2.0])
    with ad.Tape():
        out = ad.mul(v, v)
        with pytest.raises(ContractError):
            ad.backward(out)


def test_tape_single_use():
    v = ad.param([1.0, 2.0])
    with ad.Tape():
        loss = ad.sum_all(ad.mul(v, v))
        ad.backward(loss)
        with pytest.raises(ContractError):
            ad.backward(loss)


def test_op_outside_tape_rejected():
    v = ad.param([1.0])
    with pytest.raises(ContractError):
        ad.mul(v, v)
    with ad.no_grad():
        out = ad.mul(v, v)  # fine: no recording
    assert not out.requires_grad


def test_backward_is_deterministic():
    def run():
        rng = np.random.default_rng(11)
        W = ad.param(rng.normal(size=(5, 5)))
        x = ad.constant(rng.normal(size=(5, 3)))
        with ad.Tape():
            h = ad.relu(ad.linear(W, x, np.zeros(3)))
            s = ad.attention(h, h, h, 1, 0.7)
            loss = ad.sum_all(ad.mul(s, s))
            ad.backward(loss)
        return W.grad

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_grad_check_sigmoid_closed_form():
    w = ad.param(np.asarray(0.3))
    x = 1.0

    def f():
        return ad.sigmoid(ad.mul(w, x))

    report = ad.grad_check(f, [("w", w)], h=1e-5, tol=1e-6)
    assert report.passed, report.per_param
    # independent closed form: d sigma(wx)/dw = x * s * (1 - s)
    s = 1.0 / (1.0 + np.exp(-0.3))
    assert w.grad == pytest.approx(x * s * (1 - s), rel=1e-12)


def test_expit_matches_the_closed_form_and_saturates_without_overflow():
    x = np.array([-1000.0, -30.0, -1.5, -0.0, 0.0, 2.0, 40.0, 1000.0])
    with np.errstate(over="raise"):
        got = ad.expit(x)
    assert np.array_equal(got[[0, -1]], [0.0, 1.0])
    # oracle: the textbook formula wherever exp(-x) is finite
    assert np.allclose(got[1:-1], 1.0 / (1.0 + np.exp(-x[1:-1])), rtol=1e-15, atol=0.0)
    assert np.array_equal(ad.sigmoid(ad.constant(x)).data, got)


def test_grad_check_unused_param_zero_error():
    w = ad.param([1.0, 2.0])

    def f():
        return ad.sum_all(ad.mul(w, 0.0))

    report = ad.grad_check(f, [("w", w)], h=1e-5, tol=1e-6)
    assert report.max_rel_error == 0.0


def test_grad_check_rejects_bad_h():
    w = ad.param([1.0])
    with pytest.raises(ValidationError):
        ad.grad_check(lambda: ad.sum_all(w), [w], h=1e-2)


def _away_from_zero(rng, shape, low=0.2, high=2.0):
    return rng.uniform(low, high, size=shape) * rng.choice([-1.0, 1.0], size=shape)


def _build_case(name, rng):
    """Return (f, params) for one op; f closes over fixed constants only."""
    shp = (3, 4)
    w34 = rng.normal(size=shp)
    if name == "linear":
        x = ad.param(rng.normal(size=(3, 4)))
        W = ad.param(rng.normal(size=(4, 2)))
        b = ad.param(rng.normal(size=2))
        w = rng.normal(size=(3, 2))
        return (lambda: ad.sum_all(ad.mul(ad.linear(x, W, b), w))), [x, W, b]
    if name.startswith("attention_segments"):
        # three images of 2 query and 3 key rows; one extra row per image
        extra = name.endswith("extra")
        q = ad.param(rng.normal(size=(6, 4)))
        k = ad.param(rng.normal(size=(9, 4)))
        v = ad.param(rng.normal(size=(9, 4)))
        ek = ad.param(rng.normal(size=(3, 4))) if extra else None
        ev = ad.param(rng.normal(size=(3, 4))) if extra else None
        s = float(rng.uniform(0.2, 2.0))
        w = rng.normal(size=(6, 4))

        def f():
            return ad.sum_all(ad.mul(ad.attention(q, k, v, 2, s, ek, ev, segments=3), w))

        return f, [q, k, v] + ([ek, ev] if extra else [])
    if name.startswith("attention"):
        n_heads = 1 if name == "attention_one_head" else 2
        extra = name != "attention"
        q = ad.param(rng.normal(size=(3, 4)))
        k = ad.param(rng.normal(size=(5, 4)))
        v = ad.param(rng.normal(size=(5, 4)))
        ek = ad.param(rng.normal(size=(1, 4))) if extra else None
        ev = ad.param(rng.normal(size=(1, 4))) if extra else None
        s = float(rng.uniform(0.2, 2.0))
        w = rng.normal(size=(3, 4))

        def f():
            return ad.sum_all(ad.mul(ad.attention(q, k, v, n_heads, s, ek, ev), w))

        return f, [q, k, v] + ([ek, ev] if extra else [])
    if name == "add_row_broadcast":
        a = ad.param(rng.normal(size=shp))
        b = ad.param(rng.normal(size=4))
        return (lambda: ad.sum_all(ad.mul(ad.add(a, b), w34))), [a, b]
    if name == "sub":
        a, b = ad.param(rng.normal(size=shp)), ad.param(rng.normal(size=shp))
        return (lambda: ad.sum_all(ad.mul(ad.sub(a, b), w34))), [a, b]
    if name == "mul":
        a, b = ad.param(rng.normal(size=shp)), ad.param(rng.normal(size=shp))
        return (lambda: ad.sum_all(ad.mul(ad.mul(a, b), w34))), [a, b]
    if name == "relu":
        a = ad.param(_away_from_zero(rng, shp))
        return (lambda: ad.sum_all(ad.mul(ad.relu(a), w34))), [a]
    if name == "sigmoid":
        a = ad.param(rng.normal(size=shp) * 2)
        return (lambda: ad.sum_all(ad.mul(ad.sigmoid(a), w34))), [a]
    if name == "logsumexp_rows":
        a = ad.param(rng.normal(size=(3, 6)))
        w = rng.normal(size=3)
        return (lambda: ad.sum_all(ad.mul(ad.logsumexp_rows(a), w))), [a]
    if name == "layernorm":
        a = ad.param(rng.normal(size=shp))
        return (lambda: ad.sum_all(ad.mul(ad.layernorm(a), w34))), [a]
    if name == "layernorm_affine":
        a = ad.param(rng.normal(size=shp))
        gamma = ad.param(rng.normal(size=4))
        beta = ad.param(rng.normal(size=4))
        return (lambda: ad.sum_all(ad.mul(ad.layernorm(a, 1e-5, gamma, beta), w34))), \
            [a, gamma, beta]
    if name == "concat_rows":
        a = ad.param(rng.normal(size=(2, 4)))
        b = ad.param(rng.normal(size=(3, 4)))
        w = rng.normal(size=(5, 4))
        return (lambda: ad.sum_all(ad.mul(ad.concat_rows([a, b]), w))), [a, b]
    if name == "sum_all":
        a = ad.param(rng.normal(size=shp))
        return (lambda: ad.sum_all(a)), [a]
    if name == "node_focal_loss":
        # logits away from the clamps, where the loss is smooth
        logits = ad.param(rng.normal(size=(6, 3)) * 2)
        targets = (rng.uniform(size=(6, 3)) < 0.3).astype(float)
        row_weight = rng.uniform(0.1, 2.0, size=(6, 1))
        alpha, gamma = float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.0, 3.0))
        return (lambda: ls._focal_node(logits, targets, row_weight, alpha, gamma)), [logits]
    if name == "node_box_loss":
        # each truth center is 0.02-0.04 and each side 0.01-0.015 off its
        # prediction, so every corner is at least 0.0125 off: no min or max
        # tie, empty intersection or L1 kink lies within the differencing step
        boxes = ad.param(np.column_stack([rng.uniform(0.3, 0.7, size=(5, 2)),
                                          rng.uniform(0.1, 0.4, size=(5, 2))]))
        rows = [4, 0, 2]
        truth = boxes.data[rows] + np.column_stack([_away_from_zero(rng, (3, 2), 0.02, 0.04),
                                                    _away_from_zero(rng, (3, 2), 0.01, 0.015)])
        row_weight = rng.uniform(0.1, 2.0, size=(3, 1))
        weights = ls.LossWeights(w_l1=float(rng.uniform(0.5, 5)), w_giou=float(rng.uniform(0.5, 5)))
        return (lambda: ls._box_node(boxes, rows, truth, row_weight, weights)), [boxes]
    if name == "node_token_rows":
        proj = tk.TokenProjection(4, 5, rng)
        raw = rng.normal(size=(3, 5))
        w = rng.normal(size=(3, 4))
        return (lambda: ad.sum_all(ad.mul(proj.rows(raw), w))), [proj.W]
    if name == "mean_rows":
        a = ad.param(rng.normal(size=(4, 5)))
        w = rng.normal(size=(1, 5))
        return (lambda: ad.sum_all(ad.mul(ad.mean_rows(a, 1), w))), [a]
    if name == "mean_rows_segments":
        a = ad.param(rng.normal(size=(6, 5)))
        w = rng.normal(size=(3, 5))
        return (lambda: ad.sum_all(ad.mul(ad.mean_rows(a, 3), w))), [a]
    if name == "cosine_matrix":
        u = ad.param(_away_from_zero(rng, (3, 5), low=0.4))
        v = ad.param(_away_from_zero(rng, (4, 5), low=0.4))
        w = rng.normal(size=(3, 4))
        return (lambda: ad.sum_all(ad.mul(ad.cosine_matrix(u, v), w))), [u, v]
    raise AssertionError(name)


OP_NAMES = ["linear", "attention", "attention_extra_row",
            "attention_one_head", "attention_segments", "attention_segments_extra",
            "add_row_broadcast", "sub", "mul", "relu", "sigmoid",
            "logsumexp_rows", "layernorm", "layernorm_affine",
            "concat_rows", "mean_rows",
            "mean_rows_segments", "sum_all", "cosine_matrix",
            "node_focal_loss", "node_box_loss", "node_token_rows"]

# public functions of autodiff that build no op node: leaf constructors,
# the recording switches, the gradient drivers and the numpy sigmoid
_NOT_OPS = {"param", "constant", "grad_enabled", "active_tape", "zero_grad",
            "backward", "grad_check", "expit"}


def test_every_node_building_function_has_a_grad_check_case():
    # a case named f or f_<variant> checks function f
    ops = {name for name, fn in vars(ad).items()
           if inspect.isfunction(fn) and fn.__module__ == ad.__name__
           and not name.startswith("_") and name not in _NOT_OPS}
    unchecked = sorted(op for op in ops
                       if not any(case == op or case.startswith(op + "_") for case in OP_NAMES))
    assert not unchecked, f"autodiff ops without a grad_check case in OP_NAMES: {unchecked}"
    assert {"linear", "attention", "node"} <= ops


@pytest.mark.parametrize("name", OP_NAMES)
def test_every_op_passes_grad_check_50_seeds(name):
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        f, params = _build_case(name, rng)
        report = ad.grad_check(f, params, h=1e-5, tol=1e-4)
        worst = max(worst, report.max_rel_error)
        assert report.passed, f"{name} seed {seed}: {report.per_param}"
    assert worst < 1e-4


def _attention_oracle(q, k, v, n_heads, scale, w):
    """Per-head loop with the explicit softmax Jacobian diag(p) - p p^T.

    Returns the output and the gradients of sum(out * w) with respect to
    q, k and v (k and v already include any extra rows).
    """
    n, d = q.shape
    dh = d // n_heads
    out = np.zeros((n, d))
    dq, dk, dv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    for h in range(n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = scale * q[:, cols] @ k[:, cols].T
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        out[:, cols] = p @ v[:, cols]
        d_out = w[:, cols]
        dp = d_out @ v[:, cols].T
        d_scores = np.stack([(np.diag(p[i]) - np.outer(p[i], p[i])) @ dp[i]
                             for i in range(n)]) * scale
        dq[:, cols] = d_scores @ k[:, cols]
        dk[:, cols] = d_scores.T @ q[:, cols]
        dv[:, cols] = p.T @ d_out
    return out, dq, dk, dv


@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("extra", [False, True])
def test_attention_matches_per_head_oracle(n_heads, extra):
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        n, m, d = int(rng.integers(1, 7)), int(rng.integers(1, 7)), 8
        scale = float(rng.uniform(0.1, 2.0))
        q, k, v = (ad.param(rng.normal(size=shape)) for shape in [(n, d), (m, d), (m, d)])
        ek = ad.param(rng.normal(size=(1, d))) if extra else None
        ev = ad.param(rng.normal(size=(1, d))) if extra else None
        w = rng.normal(size=(n, d))
        with ad.Tape():
            out = ad.attention(q, k, v, n_heads, scale, ek, ev)
            ad.backward(ad.sum_all(ad.mul(out, w)))
        keys = np.concatenate([k.data, ek.data]) if extra else k.data
        values = np.concatenate([v.data, ev.data]) if extra else v.data
        want, dq, dk, dv = _attention_oracle(q.data, keys, values, n_heads, scale, w)
        got_dk = np.concatenate([k.grad, ek.grad]) if extra else k.grad
        got_dv = np.concatenate([v.grad, ev.grad]) if extra else v.grad
        for got, ref in [(out.data, want), (q.grad, dq), (got_dk, dk), (got_dv, dv)]:
            assert np.abs(got - ref).max() <= 1e-12


@pytest.mark.parametrize("extra", [False, True])
def test_attention_segments_equal_separate_calls(extra):
    # S row blocks in one call equal S calls, one per block, concatenated; each
    # block is its own parameter, and the one call takes them concatenated
    for seed in range(20):
        rng = np.random.default_rng(700 + seed)
        s, n, m, d = int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(1, 6)), 8
        n_heads = int(rng.choice([1, 2, 4]))
        scale = float(rng.uniform(0.1, 2.0))
        shapes = [(n, d), (m, d), (m, d)] + ([(1, d), (1, d)] if extra else [])
        arrays = [[rng.normal(size=shape) for shape in shapes] for _ in range(s)]
        w = rng.normal(size=(s * n, d))

        def run(segmented):
            blocks = [[ad.param(a) for a in block] for block in arrays]
            with ad.Tape():
                if segmented:
                    stacked = [ad.concat_rows(ts) for ts in zip(*blocks)]
                    out = ad.attention(*stacked[:3], n_heads, scale, *stacked[3:], segments=s)
                else:
                    out = ad.concat_rows([ad.attention(*ts[:3], n_heads, scale, *ts[3:])
                                          for ts in blocks])
                ad.backward(ad.sum_all(ad.mul(out, w)))
            return [out.data] + [t.grad for ts in blocks for t in ts]

        for got, want in zip(run(True), run(False)):
            assert np.abs(got - want).max() <= 1e-12


def test_attention_segments_shape_errors():
    x = ad.constant(np.ones((6, 4)))
    with pytest.raises(ShapeError):
        ad.attention(x, x, x, 2, 1.0, segments=4)  # 6 rows do not split into 4
    with pytest.raises(ShapeError):  # one extra row per segment
        ad.attention(x, x, x, 2, 1.0, ad.constant(np.ones((1, 4))), ad.constant(np.ones((1, 4))),
                     segments=2)
    with pytest.raises(ShapeError):
        ad.attention(x, ad.constant(np.ones((4, 4))), ad.constant(np.ones((4, 4))), 2, 1.0,
                     segments=3)


def test_fused_linear_and_layernorm_equal_composed_ops_bitwise():
    rng = np.random.default_rng(3)
    x = ad.param(rng.normal(size=(5, 4)))
    W, b = ad.param(rng.normal(size=(4, 6))), ad.param(rng.normal(size=6))
    gamma, beta = ad.param(rng.normal(size=6)), ad.param(rng.normal(size=6))
    w = rng.normal(size=(5, 6))

    def run(fused):
        ad.zero_grad([x, W, b, gamma, beta])
        with ad.Tape():
            if fused:
                y = ad.layernorm(ad.linear(x, W, b), 1e-5, gamma, beta)
            else:
                h = ad.add(ad.linear(x, W, np.zeros(6)), b)
                y = ad.add(ad.mul(ad.layernorm(h, 1e-5), gamma), beta)
            ad.backward(ad.sum_all(ad.mul(y, w)))
        return [y.data] + [t.grad.copy() for t in (x, W, b, gamma, beta)]

    for got, want in zip(run(True), run(False)):
        assert np.array_equal(got, want)


def test_backward_empties_the_tape():
    v = ad.param([1.0, 2.0])
    with ad.Tape() as tape:
        loss = ad.sum_all(ad.mul(v, v))
        assert len(tape.nodes) == 2
        ad.backward(loss)
    assert tape.nodes == []
    assert np.array_equal(v.grad, [2.0, 4.0])
