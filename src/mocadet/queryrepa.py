"""Contrastive alignment of query statistics to modality tokens.

Pretraining stage: a modality-balanced batch runs through the detector in
one forward, each image with its own token appended; image b's layer-l
query states (row block b) are averaged into a cluster mean, projected by
a small MLP head, and pulled toward the image's token against the other
in-batch tokens (which the sampler guarantees come from other
modalities). The head is used only during this stage and dropped before
detection training.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .data import DatasetSpec, Sample, attach_token
from .detector import Detector, Linear, stack_tokens
from .errors import ContractError, ValidationError
from .tokens import TokenProjection, TokenRegistry


class AlignmentHead:
    """2-layer MLP (d -> d -> d, ReLU) mapping query means into token space."""

    def __init__(self, d_model: int, rng: np.random.Generator):
        self.lin1 = Linear(d_model, d_model, rng)
        self.lin2 = Linear(d_model, d_model, rng)
        self.d_model = d_model

    def __call__(self, vec: ad.Tensor) -> ad.Tensor:
        x = ad.reshape(vec, (1, self.d_model))
        return ad.reshape(self.lin2(ad.relu(self.lin1(x))), (self.d_model,))

    def parameters(self) -> list:
        return self.lin1.parameters("gphi.lin1") + self.lin2.parameters("gphi.lin2")


def cluster_mean(query_state: ad.Tensor) -> ad.Tensor:
    """Arithmetic mean of the N query rows (the per-image query statistic)."""
    return ad.mean_rows(query_state)


def qra_loss(q_bar: ad.Tensor, positive: ad.Tensor, candidates,
             g_phi: AlignmentHead, tau: float = 0.07) -> ad.Tensor:
    """-log softmax over cosine similarities / tau at the positive's slot.

    ``candidates`` are the batch tokens; ``positive`` must be one of them
    (matched by object identity).
    """
    if tau <= 0:
        raise ValidationError(f"temperature must be positive, got {tau}")
    pos_index = next((i for i, c in enumerate(candidates) if c is positive), None)
    if pos_index is None:
        raise ContractError("positive token is not among the candidates")
    u = g_phi(q_bar)
    sims = ad.reshape(
        ad.concat_rows([ad.reshape(ad.cosine_sim(u, c), (1, 1)) for c in candidates]),
        (len(candidates),))
    logits = ad.mul(sims, 1.0 / tau)
    pos_logit = ad.reshape(ad.slice_rows(ad.reshape(logits, (len(candidates), 1)),
                                         pos_index, pos_index + 1), ())
    return ad.sub(ad.logsumexp_vec(logits), pos_logit)


def _image_states(model: Detector, batch, tokens, layer: int) -> list:
    """Each image's layer-``layer`` query states from one batched forward."""
    out = model.forward(np.stack([s.image for s in batch]), stack_tokens(tokens))
    state, n = out.state(layer), model.config.n_queries
    return [ad.slice_rows(state, b * n, (b + 1) * n) for b in range(len(batch))]


def batch_alignment_loss(batch, model: Detector, spec: DatasetSpec,
                         registry: TokenRegistry, projection: TokenProjection,
                         g_phi: AlignmentHead, tau: float, layer: int,
                         class_rng: np.random.Generator) -> ad.Tensor:
    """Mean contrastive loss over a distinct-modality batch.

    The batch is decoded in one forward, every image with its own token; the
    candidate set for each image is all B batch tokens.
    """
    if layer < 2:
        raise ContractError("alignment layer must be >= 2 (queries must see the image)")
    if layer > model.config.n_decoder_layers:
        raise ContractError(f"alignment layer {layer} exceeds decoder depth")
    mods = [s.modality_id for s in batch]
    if len(set(mods)) != len(mods):
        raise ContractError(f"batch modalities not distinct: {mods}")

    tokens = [attach_token(s, spec, registry, projection, class_rng) for s in batch]
    states = _image_states(model, batch, tokens, layer)
    total = None
    for token, state in zip(tokens, states):
        loss = qra_loss(cluster_mean(state), token, tokens, g_phi, tau)
        total = loss if total is None else ad.add(total, loss)
    return ad.mul(total, 1.0 / len(batch))


def pretrain_step(batch, model: Detector, spec: DatasetSpec,
                  registry: TokenRegistry, projection: TokenProjection,
                  g_phi: AlignmentHead, tau: float, layer: int,
                  optimizer, class_rng: np.random.Generator) -> float:
    """One optimizer step on the alignment loss alone (no detection terms)."""
    optimizer.zero_grad()
    with ad.Tape():
        loss = batch_alignment_loss(batch, model, spec, registry, projection,
                                    g_phi, tau, layer, class_rng)
        value = loss.item()
        ad.backward(loss)
    optimizer.step()
    return value


def positive_rank_fraction(batches, model: Detector, spec: DatasetSpec,
                           registry: TokenRegistry, projection: TokenProjection,
                           g_phi: AlignmentHead, layer: int,
                           class_rng: np.random.Generator) -> float:
    """Fraction of samples whose own token has the top similarity in-batch."""
    hits = total = 0
    with ad.no_grad():
        for batch in batches:
            tokens = [attach_token(s, spec, registry, projection, class_rng) for s in batch]
            for b, state in enumerate(_image_states(model, batch, tokens, layer)):
                u = g_phi(cluster_mean(state))
                sims = [ad.cosine_sim(u, c).item() for c in tokens]
                hits += int(np.argmax(sims) == b)
                total += 1
    return hits / max(total, 1)
