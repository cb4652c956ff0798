"""Tests for the contrastive query-token alignment stage."""

import math

import numpy as np
import pytest

from gradcheck import clear_grads, grad_check, weighted_sum
from mocadet import autodiff as ad
from mocadet import data as dt
from mocadet import detector as det
from mocadet import milab as ml
from mocadet import optim as op
from mocadet import queryrepa as qr
from mocadet import tokens as tk
from mocadet import train
from mocadet.errors import ContractError, ShapeError, ValidationError


def _identity_head(d):
    head = det.FeedForward(d, d, ad.Drawn(np.random.default_rng(0)))
    head.lin1.W.data[:] = np.eye(d)
    head.lin1.b.data[:] = 0.0
    head.lin2.W.data[:] = np.eye(d)
    head.lin2.b.data[:] = 0.0
    return head


def _rows(*vectors):
    """The (R, d) tensor whose rows are the given (d,) tensors."""
    return ad.constant(np.stack([v.data for v in vectors]))


def _cosines(u, t):
    """The (R, K) cosines of the rows of ``u`` with the rows of ``t``, in numpy."""
    return (u @ t.T) / np.outer(np.linalg.norm(u, axis=1), np.linalg.norm(t, axis=1))


def test_cluster_mean_cases():
    q = np.array([[1.0, 2.0, 3.0]])
    with ad.no_grad():
        assert np.array_equal(ad.mean_rows(ad.constant(np.tile(q, (4, 1))), 1).data, q)
        assert np.array_equal(
            ad.mean_rows(ad.constant(np.vstack([q, -q])), 1).data, np.zeros((1, 3)))
        rnd = np.random.default_rng(1).normal(size=(4, 3))
        got = ad.mean_rows(ad.constant(rnd), 1).data
    assert np.allclose(got, rnd.sum(axis=0) / 4.0, atol=1e-15)  # independent mean


def test_qra_loss_all_equal_similarities():
    d = 4
    head = _identity_head(d)
    q_bar = ad.constant([1.0, 0.0, 0.0, 0.0])
    cands = [ad.constant([1.0, 0.0, 0.0, 0.0]) for _ in range(4)]  # K = 3
    with ad.no_grad():
        loss = qr.qra_loss(_rows(q_bar), _rows(*cands), head, tau=0.07)
    assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)


def test_qra_loss_two_candidate_formula():
    # cosine sims are 0.8 (positive) and 0.2; oracle is the direct formula
    d = 3
    head = _identity_head(d)
    q_bar = ad.constant([1.0, 0.0, 0.0])
    pos = ad.constant([0.8, math.sqrt(1 - 0.64), 0.0])
    neg = ad.constant([0.2, math.sqrt(1 - 0.04), 0.0])
    tau = 0.07
    with ad.no_grad():
        loss = qr.qra_loss(_rows(q_bar), _rows(pos, neg), head, tau=tau)
    expected = -math.log(math.exp(0.8 / tau)
                         / (math.exp(0.8 / tau) + math.exp(0.2 / tau)))
    assert loss.item() == pytest.approx(expected, rel=1e-10)
    assert expected == pytest.approx(1.894e-4, rel=5e-3)


def test_qra_loss_single_candidate_is_zero():
    head = _identity_head(3)
    q_bar = ad.constant([0.5, 0.5, 0.0])
    pos = ad.constant([1.0, 0.0, 0.0])
    with ad.no_grad():
        loss = qr.qra_loss(_rows(q_bar), _rows(pos), head, tau=0.07)
    assert loss.item() == 0.0


def test_qra_loss_contracts():
    head = _identity_head(3)
    q_bar = ad.constant([1.0, 0.0, 0.0])
    other = ad.constant([0.0, 1.0, 0.0])
    with pytest.raises(ContractError):  # the second mean has no token of its own
        with ad.no_grad():
            qr.qra_loss(_rows(q_bar, q_bar), _rows(other), head, tau=0.07)
    with pytest.raises(ShapeError):  # the head's rows and the tokens differ in width
        with ad.no_grad():
            qr.qra_loss(_rows(q_bar), ad.constant(np.ones((2, 4))), head, tau=0.07)


def test_qra_loss_rejects_a_zero_token_or_a_zero_head_output():
    # a cosine with a zero vector is undefined; the identity head maps the
    # zero mean to a zero row
    head = _identity_head(3)
    q_bar = ad.constant([1.0, 0.0, 0.0])
    other = ad.constant([0.0, 1.0, 0.0])
    zero = ad.constant([0.0, 0.0, 0.0])
    for means, tokens in (((q_bar,), (other, zero)), ((zero,), (other, q_bar))):
        with pytest.raises(ValidationError, match="zero vector"):
            with ad.Tape():
                qr.qra_loss(_rows(*means), ad.param(_rows(*tokens).data), head, tau=0.07)


def test_qra_loss_matches_independent_reimplementation():
    """InfoNCE re-derived with plain numpy; max abs diff < 1e-10 on 100 inputs."""
    rng = np.random.default_rng(123)
    d = 6
    for _ in range(100):
        head = det.FeedForward(d, d, ad.Drawn(rng))
        q_bar = ad.constant(rng.normal(size=d))
        b = int(rng.integers(2, 6))
        cands = [ad.constant(rng.normal(size=d)) for _ in range(b)]
        pos_idx = int(rng.integers(0, b))
        tau = float(rng.uniform(0.03, 1.0))
        with ad.no_grad():
            others = cands[:pos_idx] + cands[pos_idx + 1:]
            got = qr.qra_loss(_rows(q_bar), _rows(cands[pos_idx], *others), head,
                              tau=tau).item()

        h = np.maximum(q_bar.data @ head.lin1.W.data + head.lin1.b.data, 0.0)
        u = h @ head.lin2.W.data + head.lin2.b.data
        sims = np.array([float(u @ c.data / (np.linalg.norm(u) * np.linalg.norm(c.data)))
                         for c in cands])
        z = sims / tau
        z_shift = z - z.max()
        expected = -(z_shift[pos_idx] - math.log(np.exp(z_shift).sum()))
        assert abs(got - expected) < 1e-10


def test_qra_loss_crude_lower_bound():
    rng = np.random.default_rng(7)
    d = 5
    head = det.FeedForward(d, d, ad.Drawn(rng))
    for _ in range(25):
        q_bar = ad.constant(rng.normal(size=d))
        b = int(rng.integers(2, 6))
        cands = [ad.constant(rng.normal(size=d)) for _ in range(b)]
        tau = float(rng.uniform(0.05, 0.5))
        with ad.no_grad():
            sims = _cosines(head(_rows(q_bar)).data, _rows(*cands).data)[0]
            loss = qr.qra_loss(_rows(q_bar), _rows(*cands), head, tau=tau).item()
        assert loss >= 0.0
        assert loss >= math.log(b) - (sims.max() - sims.min()) / tau - 1e-12


# Before the loss became one node it was a graph of eight generic tape ops.
# These are those ops, each one node with the pullback it had then.


def _cosine_op(a, b):
    na, nb = np.sqrt((a.data ** 2).sum(axis=1)), np.sqrt((b.data ** 2).sum(axis=1))
    norms = na[:, None] * nb[None, :]
    c = (a.data @ b.data.T) / norms

    def pullback(g):
        gn, gc = g / norms, g * c
        return (gn @ b.data - (gc.sum(axis=1) / (na * na))[:, None] * a.data,
                gn.T @ a.data - (gc.sum(axis=0) / (nb * nb))[:, None] * b.data)

    return ad.node(c, (a, b), pullback)


def _scale_op(a, c):  # times a constant array or number
    return ad.node(a.data * c, (a,), lambda g: (g * c,))


def _sum_op(a):
    return ad.node(a.data.sum(), (a,), lambda g: (np.broadcast_to(g, a.shape),))


def _sub_op(a, b):
    return ad.node(a.data - b.data, (a, b), lambda g: (g, -g))


def _logsumexp_rows_op(a):
    m = a.data.max(axis=1, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=1, keepdims=True)
    soft = e / s
    return ad.node((m + np.log(s))[:, 0], (a,), lambda g: (g[:, None] * soft,))


def _composed_qra_loss(q_means, tokens, g_phi, tau):
    r, k = q_means.shape[0], tokens.shape[0]
    logits = _scale_op(_cosine_op(g_phi(q_means), tokens), 1.0 / tau)
    positives = _sum_op(_scale_op(logits, np.eye(r, k)))
    return _scale_op(_sub_op(_sum_op(_logsumexp_rows_op(logits)), positives), 1.0 / r)


@pytest.mark.parametrize("r,k", [(1, 1), (4, 4), (2, 5)])
def test_qra_loss_equals_the_eight_node_graph_it_replaced_bitwise(r, k):
    # the value and every gradient, under an upstream gradient of 1 (a
    # training step's) and of 0.37
    for seed in range(10):
        rng = np.random.default_rng(40 + seed)
        head = det.FeedForward(6, 6, ad.Drawn(rng))
        means, tokens = ad.param(rng.normal(size=(r, 6))), ad.param(rng.normal(size=(k, 6)))
        tau = float(rng.uniform(1e-3, 2.0))
        leaves = [means, tokens] + [p for _, p in head.parameters()]
        for upstream in (1.0, 0.37):
            results = []
            for loss_fn in (qr.qra_loss, _composed_qra_loss):
                clear_grads(leaves)
                with ad.Tape():
                    loss = loss_fn(means, tokens, head, tau)
                    ad.backward(weighted_sum(loss, upstream))
                results.append([loss.data] + [p.grad.copy() for p in leaves])
            for got, want in zip(*results):
                assert got.tobytes() == want.tobytes(), (seed, upstream)


def test_qra_loss_of_a_batch_is_the_mean_of_its_rows_losses():
    """R means at once equal the mean of R one-row calls, each with its own
    token moved to the front: value and every gradient within 1e-12. Each
    row is its own parameter, and the batch call takes them concatenated."""
    rng = np.random.default_rng(21)
    d = 6
    for r, k in [(1, 1), (3, 3), (5, 5), (2, 4)]:
        head = det.FeedForward(d, d, ad.Drawn(rng))
        means = [ad.param(rng.normal(size=(1, d))) for _ in range(r)]
        tokens = [ad.param(rng.normal(size=(1, d))) for _ in range(k)]
        with ad.Tape():
            batch = qr.qra_loss(ad.concat_rows(means), ad.concat_rows(tokens), head, tau=0.1)
            ad.backward(batch)
        grads = [t.grad.copy() for t in means + tokens]
        clear_grads(means + tokens)
        total = 0.0
        for i in range(r):
            with ad.Tape():
                order = [i] + [j for j in range(k) if j != i]
                loss = qr.qra_loss(means[i], ad.concat_rows([tokens[j] for j in order]),
                                   head, tau=0.1)
                ad.backward(weighted_sum(loss, 1.0 / r))
            total += loss.item() / r
        assert abs(batch.item() - total) < 1e-12
        for want, t in zip(grads, means + tokens):
            assert np.allclose(want, t.grad, rtol=0, atol=1e-12)


def test_qra_loss_is_the_loss_the_lab_certifies():
    """QueryREPA trains the InfoNCE whose bound ``mi-lab`` certifies: on
    seeded random (R, K) logits, the cosines of a random head's rows with
    random tokens over tau, ``qra_loss`` is the mean of the lab's per-row
    losses with row r's positive in slot r, to rtol 1e-14, and its bound
    ln K - L stays at most ln K (ln B - L <= ln B on a B x B batch)."""
    rng = np.random.default_rng(28)
    for r, k in [(1, 1), (2, 2), (5, 5), (3, 7)]:
        for _ in range(5):
            head = det.FeedForward(6, 6, ad.Drawn(rng))
            means, tokens = ad.constant(rng.normal(size=(r, 6))), rng.normal(size=(k, 6))
            tau = float(rng.uniform(1e-3, 2.0))
            with ad.no_grad():
                loss = qr.qra_loss(means, ad.constant(tokens), head, tau).item()
                u = head(means).data
            # the cosines in qra_loss's own order of operations
            nu, nt = np.sqrt((u ** 2).sum(axis=1)), np.sqrt((tokens ** 2).sum(axis=1))
            logits = (u @ tokens.T) / (nu[:, None] * nt[None, :]) * (1.0 / tau)
            rows = ml._losses_from_draws(ml.Critic(kind="qra", scores=logits), np.arange(r),
                                         np.tile(np.arange(k), (r, 1)), np.arange(r))
            assert loss == pytest.approx(rows.mean(), rel=1e-14, abs=0)
            assert math.log(k) - loss <= math.log(k)


def _tiny_setup(seed=0):
    spec = dt.make_default_spec(seed=1, counts={"train": 25})
    samples = dt.generate_synthetic(spec, "train")
    cfg = det.ModelConfig(d_model=8, n_queries=4, n_decoder_layers=2, n_heads=2,
                          patch_size=8, n_encoder_layers=0, ffn_width=12)
    rng = np.random.default_rng(seed)
    model = det.Detector(cfg, len(spec.global_classes), ad.Drawn(rng))
    registry = tk.build_registry(spec.token_pairs(), d_text=6, seed64=1)
    proj = tk.TokenProjection(cfg.d_model, 6, ad.Drawn(rng))
    gphi = det.FeedForward(cfg.d_model, cfg.d_model, ad.Drawn(rng))
    return spec, samples, cfg, model, registry, proj, gphi


def test_alignment_loss_deterministic_with_frozen_weights():
    spec, samples, cfg, model, registry, proj, gphi = _tiny_setup()
    batch = dt.ModalityBatchSampler(samples, 5, 5, seed=0).next_batch()
    with ad.no_grad():
        a = qr.batch_alignment_loss(batch, model, spec, registry, proj, gphi,
                                    0.07, 2, np.random.default_rng(3)).item()
        b = qr.batch_alignment_loss(batch, model, spec, registry, proj, gphi,
                                    0.07, 2, np.random.default_rng(3)).item()
    assert a == b


def test_pretrain_step_single_sample_batch_zero_loss():
    spec, samples, cfg, model, registry, proj, gphi = _tiny_setup()
    batch = dt.ModalityBatchSampler(samples, 5, 1, seed=0).next_batch()
    optim = op.AdamW(model.parameters() + proj.parameters() + gphi.parameters("gphi"), lr=1e-3)
    loss = train.optimizer_step(optim, lambda: qr.batch_alignment_loss(
        batch, model, spec, registry, proj, gphi, 0.07, 2, np.random.default_rng(0)))
    assert loss == 0.0


def test_qra_gradient_check_through_decoder_projections_and_head():
    spec, samples, cfg, model, registry, proj, gphi = _tiny_setup(seed=4)
    batch = dt.ModalityBatchSampler(samples, 5, 2, seed=1).next_batch()

    def f():
        return qr.batch_alignment_loss(batch, model, spec, registry, proj, gphi,
                                       0.07, 2, np.random.default_rng(8))

    params = (proj.parameters() + gphi.parameters("gphi")
              + [("query_embed", model.query_embed)]
              + model.token_proj.parameters("token_proj")
              + model.decoder[0].self_attn.wq.parameters("dec0.self.wq"))
    report = grad_check(f, params, h=1e-5, tol=1e-4)
    assert report.passed, sorted(report.per_param, key=lambda kv: -kv[1])[:5]


def _positive_rank_fraction(batches, model, spec, registry, proj, gphi, layer, class_rng):
    """Fraction of samples whose own token has the top similarity in-batch."""
    hits = total = 0
    with ad.no_grad():
        for batch in batches:
            tokens = dt.attach_token(batch, spec, registry, proj, class_rng)
            out = model.forward(np.stack([s.image for s in batch]), tokens)
            u = gphi(ad.mean_rows(out.state(layer), len(batch)))
            best = _cosines(u.data, tokens.data).argmax(axis=1)
            hits += int((best == np.arange(len(batch))).sum())
            total += len(batch)
    return hits / total


def test_pretraining_improves_positive_rank():
    """200 steps on the synthetic 5-modality data: in-batch rank-1 fraction
    rises from near-uniform to > 0.9 (asserted at 0.85 = 0.9 - tolerance)."""
    spec = dt.make_default_spec(seed=1, counts={"train": 50})
    samples = dt.generate_synthetic(spec, "train")
    cfg = det.ModelConfig(d_model=16, n_queries=8, n_decoder_layers=2, n_heads=2,
                          patch_size=8, n_encoder_layers=0, ffn_width=32)
    rng = np.random.default_rng(0)
    model = det.Detector(cfg, len(spec.global_classes), ad.Drawn(rng))
    registry = tk.build_registry(spec.token_pairs(), d_text=16, seed64=1)
    proj = tk.TokenProjection(cfg.d_model, 16, ad.Drawn(rng))
    gphi = det.FeedForward(cfg.d_model, cfg.d_model, ad.Drawn(rng))
    optim = op.AdamW(model.parameters() + proj.parameters() + gphi.parameters("gphi"),
                     lr=1e-3, weight_decay=1e-4)
    sampler = dt.ModalityBatchSampler(samples, 5, 5, seed=3)
    class_rng = np.random.default_rng(11)
    eval_batches = [dt.ModalityBatchSampler(samples, 5, 5, seed=99).next_batch()
                    for _ in range(10)]

    before = _positive_rank_fraction(eval_batches, model, spec, registry, proj,
                                     gphi, 2, np.random.default_rng(5))
    first = last = None
    for step in range(200):
        batch = sampler.next_batch()
        loss = train.optimizer_step(optim, lambda: qr.batch_alignment_loss(
            batch, model, spec, registry, proj, gphi, 0.07, 2, class_rng))
        first = loss if first is None else first
        last = loss
    after = _positive_rank_fraction(eval_batches, model, spec, registry, proj,
                                    gphi, 2, np.random.default_rng(5))
    assert before < 0.5
    assert last < first
    assert after >= 0.85, f"rank-1 fraction only reached {after}"


def test_alignment_loss_node_count_does_not_depend_on_batch_size():
    """The batch's token rows are one projection node, and the loss on top
    of the batched forward is one mean node, the head's three nodes and one
    InfoNCE node, at every B (per-image losses built 2B² + 16B nodes: 130 at
    B = 5; eight generic nodes in place of the InfoNCE node built 12)."""
    spec, samples, cfg, model, registry, proj, gphi = _tiny_setup()
    for b in (1, 2, 3, 5):
        batch = dt.ModalityBatchSampler(samples, 5, b, seed=0).next_batch()
        with ad.Tape() as tape:
            tokens = dt.attach_token(batch, spec, registry, proj, np.random.default_rng(0))
            assert len(tape.nodes) == 1
            out = model.forward(np.stack([s.image for s in batch]), tokens)
            before = len(tape.nodes)
            qr.qra_loss(ad.mean_rows(out.state(2), b), tokens, gphi, 0.07)
            assert len(tape.nodes) - before == 5
    # at the default model, a B=5 alignment loss is 1 token node, 14 encoder
    # and 146 decoder nodes, and those 5: the heads run on the last of the
    # six layers only, as the loss reads none of them (five nodes a layer)
    cfg = det.ModelConfig()
    model = det.Detector(cfg, len(spec.global_classes), ad.Drawn(np.random.default_rng(0)))
    registry = tk.build_registry(spec.token_pairs(), d_text=64, seed64=1)
    proj = tk.TokenProjection(cfg.d_model, 64, ad.Drawn(np.random.default_rng(1)))
    gphi = det.FeedForward(cfg.d_model, cfg.d_model, ad.Drawn(np.random.default_rng(2)))
    batch = dt.ModalityBatchSampler(samples, 5, 5, seed=0).next_batch()
    with ad.Tape() as tape:
        qr.batch_alignment_loss(batch, model, spec, registry, proj, gphi, 0.07, 5,
                                np.random.default_rng(0))
        assert len(tape.nodes) == 166
