"""Tests for the patch encoder, augmented decoder attention, and heads."""

import functools
import gc
import weakref

import numpy as np
import pytest

from gradcheck import clear_grads, grad_check, weighted_sum
from mocadet import autodiff as ad
from mocadet import detector as det
from mocadet import losses as ls
from mocadet import tokens as tk
from mocadet.errors import ShapeError, ValidationError
from mocadet.fileio import read_dataclass


_BASE = dict(n_classes=2, d_model=8, n_queries=4, n_decoder_layers=2,
             n_heads=2, patch_size=4, n_encoder_layers=0, ffn_width=12)


def _cfg(**kw):
    return det.DetectorConfig(**dict(_BASE, **kw))


def test_config_validation():
    with pytest.raises(ValidationError):
        _cfg(d_model=10)  # not divisible by heads=2? 10 is; but not by 4
    with pytest.raises(ValidationError):
        _cfg(n_decoder_layers=1)
    with pytest.raises(ValidationError, match="d_model must be divisible by n_heads"):
        _cfg(d_model=12, n_heads=8)
    # every field is an int (not a bool), checked by the reader that builds
    # a run's config; n_encoder_layers >= 0 and the rest >= 1
    for bad in ({"d_model": "8"}, {"d_model": 8.0}, {"n_queries": 2.5}, {"n_queries": True},
                {"n_classes": np.int64(2)}):
        with pytest.raises(ValidationError, match=f"config.model.{next(iter(bad))}"):
            read_dataclass(det.DetectorConfig, dict(_BASE, **bad), "config.model")
    for bad in ({"n_heads": 0}, {"d_model": 0}, {"n_queries": 0}, {"n_classes": 0},
                {"patch_size": 0}, {"ffn_width": -1}, {"n_encoder_layers": -1}):
        with pytest.raises(ValidationError):
            _cfg(**bad)
    assert _cfg(n_encoder_layers=0).n_encoder_layers == 0


# Assignment order in each __init__ is the rule that names and orders the
# parameters, so this list pins the checkpoint's parameter table and the
# optimizer's flat layout: a detector with 1 encoder and 2 decoder layers,
# the token projection, and the pretraining head under "gphi".
_PARAMETER_NAMES = """
patch_proj.W patch_proj.b
encoder.0.attn.wq.W encoder.0.attn.wq.b encoder.0.attn.wk.W encoder.0.attn.wk.b
encoder.0.attn.wv.W encoder.0.attn.wv.b encoder.0.attn.wo.W encoder.0.attn.wo.b
encoder.0.ffn.lin1.W encoder.0.ffn.lin1.b encoder.0.ffn.lin2.W encoder.0.ffn.lin2.b
encoder.0.ln1.gamma encoder.0.ln1.beta encoder.0.ln2.gamma encoder.0.ln2.beta
query_embed query_pos token_proj.W token_proj.b
decoder.0.self_attn.wq.W decoder.0.self_attn.wq.b decoder.0.self_attn.wk.W
decoder.0.self_attn.wk.b decoder.0.self_attn.wv.W decoder.0.self_attn.wv.b
decoder.0.self_attn.wo.W decoder.0.self_attn.wo.b
decoder.0.cross_attn.wq.W decoder.0.cross_attn.wq.b decoder.0.cross_attn.wk.W
decoder.0.cross_attn.wk.b decoder.0.cross_attn.wv.W decoder.0.cross_attn.wv.b
decoder.0.cross_attn.wo.W decoder.0.cross_attn.wo.b
decoder.0.ffn.lin1.W decoder.0.ffn.lin1.b decoder.0.ffn.lin2.W decoder.0.ffn.lin2.b
decoder.0.ln1.gamma decoder.0.ln1.beta decoder.0.ln2.gamma decoder.0.ln2.beta
decoder.0.ln3.gamma decoder.0.ln3.beta
decoder.1.self_attn.wq.W decoder.1.self_attn.wq.b decoder.1.self_attn.wk.W
decoder.1.self_attn.wk.b decoder.1.self_attn.wv.W decoder.1.self_attn.wv.b
decoder.1.self_attn.wo.W decoder.1.self_attn.wo.b
decoder.1.cross_attn.wq.W decoder.1.cross_attn.wq.b decoder.1.cross_attn.wk.W
decoder.1.cross_attn.wk.b decoder.1.cross_attn.wv.W decoder.1.cross_attn.wv.b
decoder.1.cross_attn.wo.W decoder.1.cross_attn.wo.b
decoder.1.ffn.lin1.W decoder.1.ffn.lin1.b decoder.1.ffn.lin2.W decoder.1.ffn.lin2.b
decoder.1.ln1.gamma decoder.1.ln1.beta decoder.1.ln2.gamma decoder.1.ln2.beta
decoder.1.ln3.gamma decoder.1.ln3.beta
cls_head.W cls_head.b box_hidden.W box_hidden.b box_out.W box_out.b
token_projection.W
gphi.lin1.W gphi.lin1.b gphi.lin2.W gphi.lin2.b
""".split()


def test_parameter_names_and_order_are_pinned():
    model = det.Detector(_cfg(n_encoder_layers=1), ad.Drawn(np.random.default_rng(0)))
    proj = tk.TokenProjection(8, 6, ad.Drawn(np.random.default_rng(1)))
    gphi = det.FeedForward(8, 8, ad.Drawn(np.random.default_rng(2)))
    named = model.parameters() + proj.parameters() + gphi.parameters("gphi")
    assert [name for name, _ in named] == _PARAMETER_NAMES
    params = dict(named)
    assert params["decoder.1.ffn.lin2.b"] is model.decoder[1].ffn.lin2.b
    assert params["token_projection.W"] is proj.W
    assert params["gphi.lin1.W"] is gphi.lin1.W
    # the listed tensors are exactly the ones that train, each once
    assert all(p.requires_grad for _, p in named)
    assert len({id(p) for _, p in named}) == len(named)


def test_patch_count():
    model = det.Detector(_cfg(patch_size=8, d_model=8), ad.Drawn(np.random.default_rng(0)))
    with ad.no_grad():
        memory = model.encode(np.zeros((32, 32)))
    assert memory.shape == (16, 8)
    with pytest.raises(ShapeError):
        model.encode(np.zeros((30, 32)))


def test_zero_image_zero_bias_memory_equals_positions():
    model = det.Detector(_cfg(), ad.Drawn(np.random.default_rng(0)))
    model.patch_proj.b.data[:] = 0.0
    with ad.no_grad():
        memory = model.encode(np.zeros((16, 16)))
    pe = det.sinusoidal_positions_2d(4, 4, 8)
    assert np.array_equal(memory.data, pe)


def test_positions_injective_on_grid():
    pe = det.sinusoidal_positions_2d(3, 3, 8)
    assert not np.array_equal(pe[0], pe[1])  # (0,0) vs (0,1)
    for i in range(9):
        for j in range(i + 1, 9):
            assert not np.array_equal(pe[i], pe[j])


def test_uniform_attention_is_row_mean_per_head():
    # W_Q = W_K = 0 forces uniform attention; with W_o = identity the output
    # per head must be the mean of that head's value rows (hand oracle, N=2)
    rng = np.random.default_rng(2)
    mha = det.MultiHeadAttention(8, 2, ad.Drawn(rng))
    mha.wq.W.data[:] = 0.0
    mha.wq.b.data[:] = 0.0
    mha.wk.W.data[:] = 0.0
    mha.wk.b.data[:] = 0.0
    mha.wo.W.data[:] = np.eye(8)
    mha.wo.b.data[:] = 0.0
    x = rng.normal(size=(2, 8))
    with ad.no_grad():
        out = mha.attend(ad.constant(x), ad.constant(x))
        values = x @ mha.wv.W.data + mha.wv.b.data
    expected = np.tile(values.mean(axis=0), (2, 1))
    assert np.allclose(out.data, expected, atol=1e-14)


def test_forward_shapes_ranges_and_determinism():
    cfg = _cfg()
    image = np.random.default_rng(3).uniform(0, 1, size=(16, 16))
    token = np.random.default_rng(4).normal(size=(1, 8))

    def build_and_run():
        model = det.Detector(cfg, ad.Drawn(np.random.default_rng(42)))
        with ad.no_grad():
            return model.forward(image, ad.constant(token))

    out1, out2 = build_and_run(), build_and_run()
    assert len(out1.layers) == cfg.n_decoder_layers
    for (logits, boxes), state in zip(out1.layers, out1.query_states):
        assert logits.shape == (cfg.n_queries, cfg.n_classes)
        assert boxes.shape == (cfg.n_queries, 4)
        assert state.shape == (cfg.n_queries, cfg.d_model)  # token row never leaks
        assert np.all(boxes.data > 0.0) and np.all(boxes.data < 1.0)
    for (l1, b1), (l2, b2) in zip(out1.layers, out2.layers):
        assert np.array_equal(l1.data, l2.data)
        assert np.array_equal(b1.data, b2.data)


def test_masked_token_column_bitwise_equals_disabled_20_seeds():
    cfg = _cfg()
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        model = det.Detector(cfg, ad.Drawn(np.random.default_rng(seed)))
        image = rng.uniform(0, 1, size=(16, 16))
        token = ad.constant(rng.normal(size=(1, cfg.d_model)))
        with ad.no_grad():
            memory = model.encode(image)
            masked = model.decode(memory, token, mask_token_column=True)
            plain = model.decode(memory, None)
        for (la, ba), (lb, bb) in zip(masked.layers, plain.layers):
            assert np.array_equal(la.data, lb.data)
            assert np.array_equal(ba.data, bb.data)
        for sa, sb in zip(masked.query_states, plain.query_states):
            assert sa.shape[0] == cfg.n_queries
            assert np.array_equal(sa.data, sb.data)


def test_masked_token_column_bitwise_equals_disabled_batch_of_3():
    cfg = _cfg(n_encoder_layers=1)
    rng = np.random.default_rng(5)
    model = det.Detector(cfg, ad.Drawn(np.random.default_rng(6)))
    images = rng.uniform(0, 1, size=(3, 16, 16))
    tokens = ad.constant(rng.normal(size=(3, cfg.d_model)))
    with ad.no_grad():
        memory = model.encode(images)
        masked = model.decode(memory, tokens, mask_token_column=True, n_images=3)
        plain = model.decode(memory, None, n_images=3)
    for (la, ba), (lb, bb) in zip(masked.layers, plain.layers):
        assert np.array_equal(la.data, lb.data)
        assert np.array_equal(ba.data, bb.data)
    for sa, sb in zip(masked.query_states, plain.query_states):
        assert sa.shape[0] == 3 * cfg.n_queries
        assert np.array_equal(sa.data, sb.data)


@pytest.mark.parametrize("n_images", [1, 2, 5])
def test_batched_forward_equals_per_image_forwards(n_images):
    # one forward of a stack of B images, every attention block-diagonal,
    # against B single-image forwards; outputs and parameter gradients
    cfg = _cfg(n_encoder_layers=1)
    rng = np.random.default_rng(20 + n_images)
    model = det.Detector(cfg, ad.Drawn(np.random.default_rng(21)))
    images = rng.uniform(0, 1, size=(n_images, 16, 12))
    tokens = [ad.param(rng.normal(size=(1, cfg.d_model))) for _ in range(n_images)]
    w = rng.normal(size=(n_images, cfg.n_queries, cfg.n_classes + 4 + cfg.d_model))
    params = [t for _, t in model.parameters()] + tokens

    def objective(out, weights):
        # weights holds one (N, C + 4 + d) block per image in the output
        logits, boxes = out.layers[-1]
        parts = (logits, boxes, out.query_states[0])
        weights = weights.reshape(-1, weights.shape[-1])
        cols = np.cumsum([0, cfg.n_classes, 4, cfg.d_model])
        return functools.reduce(ad.add, [weighted_sum(part, weights[:, c0:c1])
                                         for part, c0, c1 in zip(parts, cols[:-1], cols[1:])])

    def run(batched):
        clear_grads(params)
        with ad.Tape():
            if batched:
                outs = [model.forward(images, ad.concat_rows(tokens))]
                loss = objective(outs[0], w)
            else:
                outs = [model.forward(images[b], tokens[b]) for b in range(n_images)]
                loss = functools.reduce(ad.add, [objective(o, w[b]) for b, o in enumerate(outs)])
            values = [np.concatenate([o.layers[k][j].data for o in outs])
                      for k in range(cfg.n_decoder_layers) for j in (0, 1)]
            values += [np.concatenate([o.query_states[k].data for o in outs])
                       for k in range(cfg.n_decoder_layers)]
            ad.backward(loss)
        return values + [p.grad for p in params]

    for got, want in zip(run(True), run(False)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12


def test_encode_rejects_bad_stacks():
    model = det.Detector(_cfg(), ad.Drawn(np.random.default_rng(0)))
    with pytest.raises(ShapeError), ad.no_grad():
        model.encode(np.zeros((0, 16, 16)))
    with pytest.raises(ShapeError), ad.no_grad():
        model.encode(np.zeros((2, 16, 14)))
    with ad.no_grad():
        memory = model.encode(np.zeros((3, 16, 16)))
    with pytest.raises(ShapeError), ad.no_grad():
        model.decode(memory, ad.constant(np.zeros((2, 8))), n_images=3)
    with pytest.raises(ShapeError), ad.no_grad():
        model.decode(memory, None, n_images=5)  # 48 memory rows


def test_token_perturbation_changes_outputs():
    cfg = _cfg()
    model = det.Detector(cfg, ad.Drawn(np.random.default_rng(7)))
    image = np.random.default_rng(8).uniform(0, 1, size=(16, 16))
    token = np.random.default_rng(9).normal(size=(1, cfg.d_model))
    with ad.no_grad():
        memory = model.encode(image)
        a = model.decode(memory, ad.constant(token))
        b = model.decode(memory, ad.constant(token + 1e-3))
    delta = max(np.abs(sa.data - sb.data).max()
                for sa, sb in zip(a.query_states, b.query_states))
    assert delta > 0.0
    for bad in (np.zeros((1, 5)), np.zeros(8)):  # d_model is 8; tokens are rows
        with pytest.raises(ShapeError), ad.no_grad():
            model.decode(memory, ad.constant(bad))


def test_full_model_gradient_check_detection_loss(monkeypatch):
    cfg = _cfg()
    model = det.Detector(cfg, ad.Drawn(np.random.default_rng(10)))
    image = np.random.default_rng(11).uniform(0, 1, size=(8, 8))
    token = ad.param(np.random.default_rng(12).normal(size=(1, cfg.d_model)) * 0.5)
    gt_classes = [0, 1]
    gt_boxes = np.array([[0.3, 0.3, 0.25, 0.25], [0.7, 0.6, 0.2, 0.3]])
    weights = ls.LossWeights()

    with ad.no_grad():
        base = model.forward(image, token)
        frozen = []
        for logits, boxes in base.layers:
            probs = 1.0 / (1.0 + np.exp(-logits.data))
            cost = ls.build_cost_matrix(probs, boxes.data, gt_classes, gt_boxes, weights)
            frozen.append(ls.hungarian(cost))

    # frozen matches make the loss a differentiable function of the predictions
    monkeypatch.setattr(ls, "_match_blocks", lambda *args: [[m] for m in frozen])

    def f():
        out = model.forward(image, token)
        return ls.detection_loss(out.layers, [(gt_classes, gt_boxes)], weights)

    params = model.parameters() + [("token", token)]
    report = grad_check(f, params, h=1e-5, tol=1e-4)
    assert report.passed, sorted(report.per_param, key=lambda kv: -kv[1])[:5]


def test_tape_nodes_per_sample_at_default_config():
    # one node per fused linear, attention and layernorm: a per-head graph
    # would put roughly 4x as many nodes on the decode side; the set loss is
    # five nodes (two row stacks, the focal node, the box node and their
    # sum) whatever the number of layers, images and objects; the B token
    # rows are one projection node; and a batch of B images is one forward
    # and one loss, not B of each
    cfg = det.DetectorConfig(n_classes=10)
    model = det.Detector(cfg, ad.Drawn(np.random.default_rng(0)))
    rng = np.random.default_rng(1)
    images = rng.uniform(0, 1, size=(4, 64, 64))
    projection = tk.TokenProjection(cfg.d_model, 64, ad.Drawn(rng))
    raw = rng.normal(size=(4, 64))
    gt_boxes = np.array([[0.3, 0.3, 0.25, 0.25], [0.7, 0.6, 0.2, 0.3]])
    targets = [([0, 1], gt_boxes), ([], np.zeros((0, 4))), ([3], gt_boxes[:1]),
               ([2, 2], gt_boxes)]

    def count(images, raw, targets):
        with ad.Tape() as tape:
            tokens = projection.rows(raw)
            n_tokens = len(tape.nodes)
            memory = model.encode(images)
            n_encode = len(tape.nodes) - n_tokens
            out = model.decode(memory, tokens, n_images=len(raw))
            n_decode = len(tape.nodes) - n_encode - n_tokens
            before = len(tape.nodes)
            ls.detection_loss(out.layers, targets, ls.LossWeights())
            return n_tokens, n_encode, n_decode, len(tape.nodes) - before

    assert count(images[0], raw[:1], targets[:1]) == (1, 14, 169, 5)
    assert count(images[0], raw[:1], targets[1:2]) == (1, 14, 169, 5)
    # B=4: the same token, encoder and decoder nodes, plus tiling the
    # query embeddings and positions (2): a train step builds 191 nodes
    counts = count(images, raw, targets)
    assert counts == (1, 14, 171, 5)
    assert sum(counts) == 191


def test_backward_leaves_no_reference_cycles():
    cfg = _cfg()
    image = np.random.default_rng(11).uniform(0, 1, size=(16, 16))
    gt_boxes = np.array([[0.3, 0.3, 0.25, 0.25], [0.7, 0.6, 0.2, 0.3]])
    gc.collect()
    gc.disable()
    try:
        model = det.Detector(cfg, ad.Drawn(np.random.default_rng(10)))
        token = ad.param(np.random.default_rng(12).normal(size=(1, cfg.d_model)))
        with ad.Tape():
            out = model.forward(image, token)
            loss = ls.detection_loss(out.layers, [([0, 1], gt_boxes)], ls.LossWeights())
            ad.backward(loss)
        model.parameters()  # a model's parameters are listed without a cycle too
        del model, token, out, loss
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_forward_pass_frees_values_no_pullback_reads(monkeypatch):
    # before backward runs, the residual sums that only a layer norm takes,
    # the FFN pre-activations that only relu takes and the key/value
    # projections that attention copied into its token-augmented K/V are
    # gone; what a pullback reads, the input of every linear, is alive
    cfg = _cfg()
    model = det.Detector(cfg, ad.Drawn(np.random.default_rng(10)))
    image = np.random.default_rng(11).uniform(0, 1, size=(16, 16))
    token = ad.param(np.random.default_rng(12).normal(size=(1, cfg.d_model)))
    refs = {"linear": [], "layernorm": [], "relu": [], "attention": []}

    def recorded(name):
        op = getattr(ad, name)

        def run(*args, **kwargs):
            # the input; for attention, k and v when token rows are appended
            held = args[:1] if name != "attention" else args[1:3] if len(args) > 5 else ()
            refs[name] += [weakref.ref(t.data) for t in held]
            return op(*args, **kwargs)
        return run

    for name in refs:
        monkeypatch.setattr(ad, name, recorded(name))
    with ad.Tape():
        out = model.forward(image, token)
        monkeypatch.undo()
        assert all(len(r) >= cfg.n_decoder_layers for r in refs.values())
        assert all(ref() is not None for ref in refs["linear"])
        for name in ("layernorm", "relu", "attention"):
            assert all(ref() is None for ref in refs[name]), name
        ad.backward(weighted_sum(out.layers[-1][1], 1.0))


def test_backward_frees_the_graph_while_outputs_are_held(monkeypatch):
    # the caller still holds the loss and the DetectorOutput after backward,
    # as run_train does until its next step; the intermediate attention
    # outputs are referenced by the graph only and must be freed
    cfg = _cfg()
    model = det.Detector(cfg, ad.Drawn(np.random.default_rng(10)))
    image = np.random.default_rng(11).uniform(0, 1, size=(16, 16))
    token = ad.param(np.random.default_rng(12).normal(size=(1, cfg.d_model)))
    gt_boxes = np.array([[0.3, 0.3, 0.25, 0.25], [0.7, 0.6, 0.2, 0.3]])
    refs = []
    attention = ad.attention

    def recorded(*args, **kwargs):
        out = attention(*args, **kwargs)
        refs.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(ad, "attention", recorded)
    with ad.Tape():
        out = model.forward(image, token)
        loss = ls.detection_loss(out.layers, [([0, 1], gt_boxes)], ls.LossWeights())
        monkeypatch.undo()
        ad.backward(loss)
    assert len(refs) == 2 * cfg.n_decoder_layers
    assert all(ref() is None for ref in refs)
    assert loss.item() > 0.0 and len(out.layers) == cfg.n_decoder_layers
