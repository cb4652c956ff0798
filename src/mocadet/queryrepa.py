"""Contrastive alignment of query statistics to modality tokens.

Pretraining stage: a modality-balanced batch runs through the detector in
one forward, each image with its own token appended; image b's layer-l
query states (row block b) are averaged into a cluster mean, projected by
the head g_phi, and pulled toward the image's token against the other
in-batch tokens (which the sampler guarantees come from other
modalities): InfoNCE (Oord et al. 2018, arXiv:1807.03748). The B means are
one (B, d) row block: one mean node, one pass of the head and one loss
node over the (B, B) cosine matrix against the batch's token rows, whose
row-wise logsumexp minus its diagonal is the loss, so the loss graph has
the same five nodes for every B. That logsumexp, ``infonce_rows``, is the
one InfoNCE: ``milab`` certifies its bound. g_phi is a d -> d -> d
``detector.FeedForward``; it is used only during this stage, stored in the
pretraining checkpoint as ``gphi.*`` and dropped before detection training.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .data import DatasetSpec, attach_token
from .detector import Detector, FeedForward
from .errors import ContractError, ShapeError, ValidationError
from .tokens import TokenProjection, TokenRegistry


def infonce_rows(logits: np.ndarray) -> tuple:
    """Each row's log-sum-exp m + ln s, shifted by its max m, with e = exp(logits - m)
    and s its (R, 1) row sums: (lse, e, s). e / s is the softmax, if read."""
    top = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - top)
    s = e.sum(axis=1, keepdims=True)
    return (top + np.log(s))[:, 0], e, s


def qra_loss(q_means: ad.Tensor, tokens: ad.Tensor, g_phi: FeedForward,
             tau: float) -> ad.Tensor:
    """Mean over rows r of -log softmax_k(cos(g_phi(q_r), t_k) / tau) at k = r.

    ``q_means`` is (R, d) and ``tokens`` (K, d) with R <= K: row r's
    positive is token r, and every other token is one of its negatives. The
    loss on top of the head is one node whose parents are ``g_phi(q_means)``
    and ``tokens``: the (R, K) cosine matrix scaled by 1 / tau, each row's
    log-sum-exp minus its diagonal entry, averaged over rows. Its pullback
    is hand-written. ``tau`` is in ``QraConfig``'s declared range.
    """
    if q_means.ndim != 2 or tokens.ndim != 2 or not 1 <= q_means.shape[0] <= tokens.shape[0]:
        raise ContractError(f"each of the query means {q_means.shape} needs its own "
                            f"token among {tokens.shape}")
    heads = g_phi(q_means)
    if heads.shape[1] != tokens.shape[1]:
        raise ShapeError(f"head rows {heads.shape} and tokens {tokens.shape} differ in width")
    r, k = q_means.shape[0], tokens.shape[0]
    u, t = heads.data, tokens.data
    nu, nt = np.sqrt((u ** 2).sum(axis=1)), np.sqrt((t ** 2).sum(axis=1))
    if not (nu.all() and nt.all()):
        raise ValidationError("cosine similarity of a zero vector is undefined")
    norms = nu[:, None] * nt[None, :]
    cos = (u @ t.T) / norms
    logits = cos * (1.0 / tau)
    lse, e, s = infonce_rows(logits)
    soft = e / s
    # the positives sum as a masked matrix, not a trace: the same pairwise sum
    value = (lse.sum() - (logits * np.eye(r, k)).sum()) * (1.0 / r)

    def pullback(g):
        # the logits' gradient, in the order that keeps the goldens bitwise:
        # the softmax times g / r, minus g / r on the diagonal, times 1 / tau;
        # then the cosine matrix's pullback
        gr = g * (1.0 / r)
        dz = gr * soft
        dz[np.arange(r), np.arange(r)] -= gr
        dz *= 1.0 / tau
        gn, gc = dz / norms, dz * cos
        return (gn @ t - (gc.sum(axis=1) / (nu * nu))[:, None] * u,
                gn.T @ u - (gc.sum(axis=0) / (nt * nt))[:, None] * t)

    return ad.node(value, (heads, tokens), pullback)


def _query_means(model: Detector, batch, tokens: ad.Tensor, layer: int) -> ad.Tensor:
    """The (B, d) means of each image's layer-``layer`` query states, from
    one batched forward with ``tokens`` as the images' token rows: row b is
    the arithmetic mean of image b's N query rows (row block b). The loss
    reads no head, so they run on the last layer only."""
    out = model.forward(np.stack([s.image for s in batch]), tokens, final_heads_only=True)
    return ad.mean_rows(out.state(layer), len(batch))


def batch_alignment_loss(batch, model: Detector, spec: DatasetSpec,
                         registry: TokenRegistry, projection: TokenProjection,
                         g_phi: FeedForward, tau: float, layer: int,
                         class_rng: np.random.Generator) -> ad.Tensor:
    """Mean contrastive loss over a distinct-modality batch.

    The batch is decoded in one forward, every image with its own token; the
    candidate set for each image is all B batch tokens, the same (B, d) rows
    the forward takes. ``tau`` and ``layer`` are a checked ``QraConfig``'s:
    ``RunConfig.validate`` holds ``layer`` in [2, ``n_decoder_layers``]. The
    batch's modalities are distinct, as ``ModalityBatchSampler`` draws them.
    """
    tokens = attach_token(batch, spec, registry, projection, class_rng)
    return qra_loss(_query_means(model, batch, tokens, layer), tokens, g_phi, tau)

