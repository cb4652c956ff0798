"""Contrastive alignment of query statistics to modality tokens.

Pretraining stage: a modality-balanced batch runs through the detector in
one forward, each image with its own token appended; image b's layer-l
query states (row block b) are averaged into a cluster mean, projected by
the head g_phi, and pulled toward the image's token against the other
in-batch tokens (which the sampler guarantees come from other
modalities). The B means are one (B, d) row block: one mean node, one
pass of the head and one (B, B) cosine matrix against the batch's token
rows, whose row-wise logsumexp minus its diagonal is the loss, so the
loss graph has the same size for every B. g_phi is a d -> d -> d
``detector.FeedForward``; it is used only during this stage, stored in the
pretraining checkpoint as ``gphi.*`` and dropped before detection training.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .data import DatasetSpec, attach_token
from .detector import Detector, FeedForward
from .errors import ContractError, ValidationError
from .tokens import TokenProjection, TokenRegistry


def cluster_mean(query_state: ad.Tensor, n_images: int) -> ad.Tensor:
    """The (B, d) per-image query statistics: row b is the arithmetic mean
    of image b's N query rows (row block b of the B * N rows)."""
    return ad.mean_rows(query_state, n_images)


def qra_loss(q_means: ad.Tensor, tokens: ad.Tensor, g_phi: FeedForward,
             tau: float = 0.07) -> ad.Tensor:
    """Mean over rows r of -log softmax_k(cos(g_phi(q_r), t_k) / tau) at k = r.

    ``q_means`` is (R, d) and ``tokens`` (K, d) with R <= K: row r's
    positive is token r, and every other token is one of its negatives. One
    (R, K) cosine matrix holds every similarity, so the graph's size does
    not grow with R or K.
    """
    if tau <= 0:
        raise ValidationError(f"temperature must be positive, got {tau}")
    if q_means.ndim != 2 or tokens.ndim != 2 or not 1 <= q_means.shape[0] <= tokens.shape[0]:
        raise ContractError(f"each of the query means {q_means.shape} needs its own "
                            f"token among {tokens.shape}")
    r, k = q_means.shape[0], tokens.shape[0]
    logits = ad.mul(ad.cosine_matrix(g_phi(q_means), tokens), 1.0 / tau)
    positives = ad.sum_all(ad.mul(logits, np.eye(r, k)))
    return ad.mul(ad.sum_all(ad.logsumexp_rows(logits)) - positives, 1.0 / r)


def _query_means(model: Detector, batch, tokens: ad.Tensor, layer: int) -> ad.Tensor:
    """The (B, d) means of each image's layer-``layer`` query states, from
    one batched forward with ``tokens`` as the images' token rows."""
    out = model.forward(np.stack([s.image for s in batch]), tokens)
    return cluster_mean(out.state(layer), len(batch))


def batch_alignment_loss(batch, model: Detector, spec: DatasetSpec,
                         registry: TokenRegistry, projection: TokenProjection,
                         g_phi: FeedForward, tau: float, layer: int,
                         class_rng: np.random.Generator) -> ad.Tensor:
    """Mean contrastive loss over a distinct-modality batch.

    The batch is decoded in one forward, every image with its own token; the
    candidate set for each image is all B batch tokens, the same (B, d) rows
    the forward takes.
    """
    if layer < 2:
        raise ContractError("alignment layer must be >= 2 (queries must see the image)")
    if layer > model.config.n_decoder_layers:
        raise ContractError(f"alignment layer {layer} exceeds decoder depth")
    mods = [s.modality_id for s in batch]
    if len(set(mods)) != len(mods):
        raise ContractError(f"batch modalities not distinct: {mods}")

    tokens = attach_token(batch, spec, registry, projection, class_rng)
    return qra_loss(_query_means(model, batch, tokens, layer), tokens, g_phi, tau)


def positive_rank_fraction(batches, model: Detector, spec: DatasetSpec,
                           registry: TokenRegistry, projection: TokenProjection,
                           g_phi: FeedForward, layer: int,
                           class_rng: np.random.Generator) -> float:
    """Fraction of samples whose own token has the top similarity in-batch."""
    hits = total = 0
    with ad.no_grad():
        for batch in batches:
            tokens = attach_token(batch, spec, registry, projection, class_rng)
            u = g_phi(_query_means(model, batch, tokens, layer))
            best = ad.cosine_matrix(u, tokens).data.argmax(axis=1)
            hits += int((best == np.arange(len(batch))).sum())
            total += len(batch)
    return hits / max(total, 1)
