"""Tests for the reverse-mode tensor core.

Derived expectations are computed by independent oracles (hand evaluation,
closed forms, central finite differences) rather than by the code under test.
"""

import gc
import inspect

import numpy as np
import pytest

from gradcheck import clear_grads, grad_check, weighted_sum
from mocadet import autodiff as ad
from mocadet import detector as det
from mocadet import losses as ls
from mocadet import queryrepa as qr
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
    with pytest.raises(ShapeError):  # width 6 does not split into 4 heads
        x = ad.constant(np.ones((2, 6)))
        ad.attention(x, x, x, 4, 1.0)


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


def _plain_affine(d):
    """gamma of ones and beta of zeros: the affine map that keeps each value"""
    return ad.constant(np.ones(d)), ad.constant(np.zeros(d))


def test_layernorm_constant_row_is_zero():
    out = ad.layernorm(ad.constant(np.full((3, 8), 2.5)), *_plain_affine(8))
    assert np.abs(out.data).max() < 1e-8


def test_backward_linear_map():
    # loss = sum(x W) for a row x: dloss/dW = x^T broadcast per column
    x = np.array([[1.0, 2.0, -3.0]])
    W = ad.param(np.random.default_rng(0).normal(size=(3, 4)))
    with ad.Tape():
        loss = weighted_sum(ad.linear(ad.constant(x), W, ad.constant(np.zeros(4))), 1.0)
        ad.backward(loss)
    assert np.allclose(W.grad, np.tile(x.T, (1, 4)), atol=1e-14)


def test_backward_quadratic():
    # d sum(v * v) / dv by the product rule: one path per factor, each
    # weighting v by its value, and backward adds the two
    v = ad.param([1.0, -2.0, 0.5])
    with ad.Tape():
        loss = ad.add(weighted_sum(v, v.data), weighted_sum(v, v.data))
        ad.backward(loss)
    assert np.allclose(v.grad, 2 * v.data, atol=1e-14)


def test_backward_requires_scalar():
    v = ad.param([1.0, 2.0])
    with ad.Tape():
        out = ad.add(v, v)
        with pytest.raises(ContractError):
            ad.backward(out)


def test_backward_needs_a_loss_recorded_on_a_tape():
    # a leaf parameter, a value built under no_grad and a constant: no op
    # recorded any of them, so there is no tape to run backward over
    v = ad.param(np.asarray(1.5))
    with ad.no_grad():
        unrecorded = weighted_sum(v, 2.0)
    for loss in (v, unrecorded, ad.constant(0.0)):
        with pytest.raises(ContractError, match="recorded on a Tape"):
            ad.backward(loss)
    assert v.grad is None


def test_tape_single_use():
    v = ad.param([1.0, 2.0])
    with ad.Tape():
        loss = weighted_sum(v, 1.0)
        ad.backward(loss)
        with pytest.raises(ContractError):
            ad.backward(loss)


def test_op_outside_tape_rejected():
    v = ad.param([1.0])
    with pytest.raises(ContractError):
        ad.add(v, v)
    with ad.no_grad():
        out = ad.add(v, v)  # fine: no recording
    assert not out.requires_grad


def test_one_tape_is_active_at_a_time():
    with ad.Tape() as tape:
        assert ad.active_tape() is tape
        with pytest.raises(ContractError, match="do not nest"):
            with ad.Tape():
                pass
        assert ad.active_tape() is tape
    assert ad.active_tape() is None


def test_add_and_layernorm_take_no_broadcast_or_vector():
    m, row = ad.constant(np.ones((3, 4))), ad.constant(np.ones(4))
    with ad.no_grad():
        with pytest.raises(ShapeError):
            ad.add(m, row)
        with pytest.raises(ShapeError):
            ad.layernorm(row, row, row)
        with pytest.raises(ShapeError):
            ad.layernorm(m, row, ad.constant(np.ones(3)))


def test_backward_is_deterministic():
    def run():
        rng = np.random.default_rng(11)
        W = ad.param(rng.normal(size=(5, 5)))
        x = ad.constant(rng.normal(size=(5, 3)))
        with ad.Tape():
            h = ad.relu(ad.linear(W, x, ad.constant(np.zeros(3))))
            s = ad.attention(h, h, h, 1, 0.7)
            loss = weighted_sum(s, s.data)
            ad.backward(loss)
        return W.grad

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_grad_check_sigmoid_closed_form():
    w = ad.param(np.asarray(0.3))

    def f():
        return ad.sigmoid(w)

    report = grad_check(f, [("w", w)], h=1e-5, tol=1e-6)
    assert report.passed, report.per_param
    # independent closed form: d sigma(w)/dw = s * (1 - s)
    s = 1.0 / (1.0 + np.exp(-0.3))
    assert w.grad == pytest.approx(s * (1 - s), rel=1e-12)


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
        return weighted_sum(w, 0.0)

    report = grad_check(f, [("w", w)], h=1e-5, tol=1e-6)
    assert report.max_rel_error == 0.0


def test_grad_check_rejects_bad_h():
    w = ad.param([1.0])
    with pytest.raises(ValidationError):
        grad_check(lambda: weighted_sum(w, 1.0), [w], h=1e-2)


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
        return (lambda: weighted_sum(ad.linear(x, W, b), w)), [x, W, b]
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
            return weighted_sum(ad.attention(q, k, v, 2, s, ek, ev, segments=3), w)

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
            return weighted_sum(ad.attention(q, k, v, n_heads, s, ek, ev), w)

        return f, [q, k, v] + ([ek, ev] if extra else [])
    if name == "add":
        a = ad.param(rng.normal(size=shp))
        b = ad.param(rng.normal(size=shp))
        return (lambda: weighted_sum(ad.add(a, b), w34)), [a, b]
    if name == "relu":
        a = ad.param(_away_from_zero(rng, shp))
        return (lambda: weighted_sum(ad.relu(a), w34)), [a]
    if name == "sigmoid":
        a = ad.param(rng.normal(size=shp) * 2)
        return (lambda: weighted_sum(ad.sigmoid(a), w34)), [a]
    if name == "layernorm":
        a = ad.param(rng.normal(size=shp))
        return (lambda: weighted_sum(ad.layernorm(a, *_plain_affine(4)), w34)), [a]
    if name == "layernorm_affine":
        a = ad.param(rng.normal(size=shp))
        gamma = ad.param(rng.normal(size=4))
        beta = ad.param(rng.normal(size=4))
        return (lambda: weighted_sum(ad.layernorm(a, gamma, beta), w34)), \
            [a, gamma, beta]
    if name == "concat_rows":
        a = ad.param(rng.normal(size=(2, 4)))
        b = ad.param(rng.normal(size=(3, 4)))
        w = rng.normal(size=(5, 4))
        return (lambda: weighted_sum(ad.concat_rows([a, b]), w)), [a, b]
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
        proj = tk.TokenProjection(4, 5, ad.Drawn(rng))
        raw = rng.normal(size=(3, 5))
        w = rng.normal(size=(3, 4))
        return (lambda: weighted_sum(proj.rows(raw), w)), [proj.W]
    if name == "mean_rows":
        a = ad.param(rng.normal(size=(4, 5)))
        w = rng.normal(size=(1, 5))
        return (lambda: weighted_sum(ad.mean_rows(a, 1), w)), [a]
    if name == "mean_rows_segments":
        a = ad.param(rng.normal(size=(6, 5)))
        w = rng.normal(size=(3, 5))
        return (lambda: weighted_sum(ad.mean_rows(a, 3), w)), [a]
    if name.startswith("node_qra_loss"):
        # R = K, or R < K; the gradient reaches the head's weights as well
        k = 4
        r = k if name == "node_qra_loss" else 2
        head = det.FeedForward(5, 5, ad.Drawn(rng))
        means = ad.param(rng.normal(size=(r, 5)))
        tokens = ad.param(rng.normal(size=(k, 5)))
        tau = float(rng.uniform(0.05, 1.0))
        return (lambda: qr.qra_loss(means, tokens, head, tau)), \
            [means, tokens] + head.parameters("head")
    raise AssertionError(name)


OP_NAMES = ["linear", "attention", "attention_extra_row",
            "attention_one_head", "attention_segments", "attention_segments_extra",
            "add", "relu", "sigmoid", "layernorm", "layernorm_affine",
            "concat_rows", "mean_rows", "mean_rows_segments",
            "node_focal_loss", "node_box_loss", "node_token_rows",
            "node_qra_loss", "node_qra_loss_r_below_k"]

# public functions of autodiff that build no op node: leaf constructors,
# the recording switches, backward and the numpy sigmoid
_NOT_OPS = {"param", "stored_param", "constant", "grad_enabled", "active_tape", "backward",
            "expit"}


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
        report = grad_check(f, params, h=1e-5, tol=1e-4)
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
            ad.backward(weighted_sum(out, w))
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
                ad.backward(weighted_sum(out, w))
            return [out.data] + [t.grad for ts in blocks for t in ts]

        for got, want in zip(run(True), run(False)):
            assert np.abs(got - want).max() <= 1e-12


def test_attention_with_a_nan_key_gives_nan_rows_in_that_head_only():
    # the softmax shift is fmax, which skips a NaN score; the row sum is NaN all the same
    rng = np.random.default_rng(5)
    q, k, v = (rng.normal(size=(3, 4)) for _ in range(3))
    keys = ad.constant(k)
    k[1, 0] = np.nan  # key 1's score is NaN for every query of head 0 (columns 0 and 1)
    keys.data = k  # as an overflowed upstream value would be: a leaf refuses a NaN
    with ad.no_grad():
        out = ad.attention(ad.constant(q), keys, ad.constant(v), 2, 0.5).data
    want, *_ = _attention_oracle(q, k, v, 2, 0.5, np.zeros((3, 4)))
    assert np.isnan(out[:, :2]).all() and np.isnan(want[:, :2]).all()
    assert np.abs(out[:, 2:] - want[:, 2:]).max() <= 1e-12


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


def _mul_row_op(a, row):
    """``a * row`` for a row vector over a matrix's columns, with the
    pullback of the elementwise product the fused layer norm replaced: the
    row's gradient sums ``g * a`` over a's rows."""
    def pullback(g):
        return g * row.data, (g * a.data).sum(axis=0)

    return ad.node(a.data * row.data, (a, row), pullback)


def _add_row_op(a, row):
    """``a + row`` for a row vector over a matrix's columns, with the
    pullback of the broadcast sum the fused linear and layer norm replaced:
    the row's gradient sums ``g`` over a's rows."""
    return ad.node(a.data + row.data, (a, row), lambda g: (g, g.sum(axis=0)))


def test_fused_linear_and_layernorm_equal_composed_ops_bitwise():
    # (rows, k, m, affine): k=None puts the (rows, m) input into layernorm
    # directly, with no linear before it; affine=False takes the constant
    # gamma of ones and beta of zeros. Compared by value: -0.0 + 0.0 is +0.0
    for rows, k, m, affine in [(5, 4, 6, True), (5, 4, 6, False), (1, None, 6, True),
                               (256, 32, 64, True)]:
        rng = np.random.default_rng(3)
        x = ad.param(rng.normal(size=(rows, k or m)))
        W, b = ad.param(rng.normal(size=(k or m, m))), ad.param(rng.normal(size=m))
        gamma, beta = ad.param(rng.normal(size=m)), ad.param(rng.normal(size=m))
        if not affine:
            gamma, beta = _plain_affine(m)
        w = rng.normal(size=(rows, m))
        leaves = ([x, W, b] if k else [x]) + ([gamma, beta] if affine else [])

        def run(fused):
            clear_grads([x, W, b, gamma, beta])
            with ad.Tape():
                if not k:
                    h = x
                elif fused:
                    h = ad.linear(x, W, b)
                else:
                    h = _add_row_op(ad.linear(x, W, ad.constant(np.zeros(m))), b)
                if fused:
                    y = ad.layernorm(h, gamma, beta)
                else:
                    y = ad.layernorm(h, *_plain_affine(m))
                    y = _add_row_op(_mul_row_op(y, gamma), beta)
                ad.backward(weighted_sum(y, w))
            return [y.data] + [t.grad.copy() for t in leaves]

        for got, want in zip(run(True), run(False)):
            assert np.array_equal(got, want), (rows, affine)


def _layernorm_oracle(x, g):
    """Layer norm of ``x``'s last axis and its input gradient for output
    gradient ``g``, by the mean-based formulas with numpy's ``mean``."""
    axis = x.ndim - 1
    mu = x.mean(axis=axis, keepdims=True)
    s = np.sqrt(((x - mu) ** 2).mean(axis=axis, keepdims=True) + 1e-5)
    y = (x - mu) / s
    gm = g.mean(axis=axis, keepdims=True)
    gy = (g * y).mean(axis=axis, keepdims=True)
    return y, (g - gm - y * gy) / s


@pytest.mark.parametrize("shape", [(5, 6), (1, 7), (256, 64)])
def test_layernorm_equals_the_mean_based_formulas_bitwise(shape):
    # gamma of ones and beta of zeros; compared by value: -0.0 + 0.0 is +0.0
    rng = np.random.default_rng(4)
    x = ad.param(rng.normal(size=shape) * 3.0 + 1.0)
    w = rng.normal(size=shape)
    with ad.Tape():
        y = ad.layernorm(x, *_plain_affine(shape[1]))
        ad.backward(weighted_sum(y, w))  # the layernorm node receives w itself
    want_y, want_dx = _layernorm_oracle(x.data, w)
    assert np.array_equal(y.data, want_y)
    assert np.array_equal(x.grad, want_dx)


def _attention_pullback_oracle(q, k, v, ek, ev, n_heads, scale, s, g):
    """dq, dk and dv of ``attention`` for output gradient ``g``, with the
    softmax pullback written as scale * P * (dP - rowsum(dP * P)); dk and dv
    are (s, rows, d) with each segment's extra row last."""
    d = q.shape[1]
    m, d_head = k.shape[0] // s, d // n_heads

    def split(x):
        return x.reshape(s, -1, n_heads, d_head).transpose(0, 2, 1, 3)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(-1, d)

    def rows(x, extra):
        x = x.reshape(s, m, d)
        return x if extra is None else np.concatenate([x, extra[:, None, :]], axis=1)

    qh, kh, vh = split(q), split(rows(k, ek)), split(rows(v, ev))
    p = qh @ kh.transpose(0, 1, 3, 2)
    p *= scale
    p -= p.max(axis=3, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=3, keepdims=True)
    go = split(g)
    dp = go @ vh.transpose(0, 1, 3, 2)
    ds = scale * p * (dp - (dp * p).sum(axis=3, keepdims=True))
    return (merge(ds @ kh), merge(ds.transpose(0, 1, 3, 2) @ qh).reshape(s, -1, d),
            merge(p.transpose(0, 1, 3, 2) @ go).reshape(s, -1, d))


@pytest.mark.parametrize("extra", [False, True])
def test_attention_pullback_equals_the_softmax_formula_bitwise(extra):
    for seed in range(10):
        rng = np.random.default_rng(900 + seed)
        s, n, m, d = int(rng.integers(1, 4)), int(rng.integers(1, 6)), int(rng.integers(1, 6)), 8
        n_heads = int(rng.choice([1, 2, 4]))
        scale = float(rng.uniform(0.1, 2.0))
        q, k, v = (ad.param(rng.normal(size=shape)) for shape in [(s * n, d), (s * m, d),
                                                                   (s * m, d)])
        ek, ev = (ad.param(rng.normal(size=(s, d))) for _ in range(2)) if extra else (None, None)
        w = rng.normal(size=(s * n, d))
        with ad.Tape():
            out = ad.attention(q, k, v, n_heads, scale, ek, ev, segments=s)
            ad.backward(weighted_sum(out, w))  # the attention node receives w itself
        dq, dk, dv = _attention_pullback_oracle(q.data, k.data, v.data,
                                                ek.data if extra else None,
                                                ev.data if extra else None, n_heads, scale, s, w)
        assert np.array_equal(q.grad, dq)
        assert np.array_equal(k.grad, dk[:, :m].reshape(k.shape))
        assert np.array_equal(v.grad, dv[:, :m].reshape(v.shape))
        if extra:
            assert np.array_equal(ek.grad, dk[:, m:].reshape(ek.shape))
            assert np.array_equal(ev.grad, dv[:, m:].reshape(ev.shape))


def test_backward_empties_the_tape():
    v = ad.param([1.0, 2.0])
    with ad.Tape() as tape:
        loss = weighted_sum(ad.add(v, v), v.data)
        assert len(tape.nodes) == 2
        ad.backward(loss)
    assert tape.nodes == []
    assert np.array_equal(v.grad, [2.0, 4.0])


def test_a_raising_pullback_still_releases_the_whole_graph():
    v = ad.param([1.0, 2.0])
    held = []

    def wrong_shape(g):
        assert held[0].grad is g  # the pullback reaches its own node: a cycle
        return (np.ones(3),)

    with ad.Tape() as tape:
        h = ad.add(v, v)
        bad = ad.node(h.data.sum(), [h], wrong_shape)
        held.append(bad)
        loss = ad.add(bad, bad)
        nodes = list(tape.nodes)
        assert nodes == [h.node, bad.node, loss.node]
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()  # an automatic collection would hide a leftover cycle
        message = None
        try:
            try:
                ad.backward(loss)
            except ContractError as e:
                message = str(e)
            assert "one gradient per parent" in message
            assert tape.consumed and tape.nodes == []
            # the unreached node, the one that raised and the one that ran
            assert all(n._parents == () and n._pullback is None for n in nodes)
            del h, bad, loss, nodes, held[:]
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
