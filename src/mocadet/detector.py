"""Query-based encoder/decoder detector with modality-context attention.

A small DETR-style stack: non-overlapping patch embedding with fixed 2-d
sinusoidal positions, optional encoder self-attention blocks, and a decoder
whose self-attention can run over an augmented set: the N object queries
plus one projected modality token appended as the last row. The token
contributes keys and values only and is never a query, so query count is
preserved through every layer.

A batch of B images runs as one forward: image b owns row block b of
every activation (its P patch rows of the memory, its N query rows in the
decoder), and every attention is block-diagonal over those blocks, so the
images never mix. Each attention is one fused ``autodiff.attention`` node;
for MoCA, image b's projected token row joins block b's N query rows in the
self-attention key/value input. The detector has no MoCA switch: ``decode``
uses tokens exactly when it is given them, and a run without MoCA passes
None. The mask seam exists on ``decode`` only: masking the token column
hands the layers no token rows, so the masked decode runs the very same
calls as a token-free one and is bitwise equal to it -- the reduction
property the tests pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ShapeError
from .fileio import Range


@dataclass(frozen=True)
class ModelConfig:
    """The ``model`` section of a run: its sizes, each an integer in the range
    its field declares. ``RunConfig.validate`` checks the ranges and how the
    sizes fit together; the class count is the dataset's."""

    # the upper bounds keep the model finite: at every bound at once, with the
    # 1024 classes a run allows (config.CLASSES), it holds 950 million weights
    # (DETR's own sizes are d 256, 100 queries, 6 + 6 layers)
    d_model: int = Range(4, 1024).field(default=64)
    n_queries: int = Range(1, 1000).field(default=25)
    # QueryREPA aligns a layer >= 2, so the decoder needs two
    n_decoder_layers: int = Range(2, 32).field(default=6)
    n_heads: int = Range(1, 64).field(default=4)
    patch_size: int = Range(1, 64).field(default=8)
    n_encoder_layers: int = Range(0, 32).field(default=1)
    ffn_width: int = Range(1, 4096).field(default=128)


class Linear(ad.Module):
    """``x @ W + b``, W and b uniform in [-1/sqrt(d_in), 1/sqrt(d_in)) when
    drawn. Every module here takes its parameters from ``init``, a parameter
    source (``autodiff.Drawn`` or ``checkpoint.StoredArrays``), as it is
    built."""

    def __init__(self, d_in: int, d_out: int, init):
        s = 1.0 / math.sqrt(d_in)
        self.W = init.uniform(s, (d_in, d_out))
        self.b = init.uniform(s, (d_out,))

    def __call__(self, x: ad.Tensor) -> ad.Tensor:
        return ad.linear(x, self.W, self.b)


class LayerNorm(ad.Module):
    def __init__(self, d: int, init):
        self.gamma = init.constant(1.0, (d,))
        self.beta = init.constant(0.0, (d,))

    def __call__(self, x: ad.Tensor) -> ad.Tensor:
        return ad.layernorm(x, self.gamma, self.beta)


class MultiHeadAttention(ad.Module):
    """Scaled dot-product attention over n_heads column blocks, output proj."""

    def __init__(self, d_model: int, n_heads: int, init):
        self.d_model, self.n_heads = d_model, n_heads
        self.wq = Linear(d_model, d_model, init)
        self.wk = Linear(d_model, d_model, init)
        self.wv = Linear(d_model, d_model, init)
        self.wo = Linear(d_model, d_model, init)

    def attend(self, q_in: ad.Tensor, kv_in: ad.Tensor, segments: int = 1) -> ad.Tensor:
        """Row block s of ``q_in`` attends to row block s of ``kv_in`` (``segments`` each)."""
        scale = 1.0 / math.sqrt(self.d_model // self.n_heads)
        q, k, v = self.wq(q_in), self.wk(kv_in), self.wv(kv_in)
        return self.wo(ad.attention(q, k, v, self.n_heads, scale, segments=segments))


class FeedForward(ad.Module):
    def __init__(self, d_model: int, width: int, init):
        self.lin1 = Linear(d_model, width, init)
        self.lin2 = Linear(width, d_model, init)

    def __call__(self, x: ad.Tensor) -> ad.Tensor:
        return self.lin2(ad.relu(self.lin1(x)))


def sinusoidal_positions_2d(n_rows: int, n_cols: int, d_model: int) -> np.ndarray:
    """Fixed 2-d sine/cosine grid encoding; first half encodes y, second x.
    ``d_model`` is a multiple of 4, as ``RunConfig.validate`` holds it."""
    half = d_model // 2

    def encode_1d(positions: np.ndarray) -> np.ndarray:
        out = np.zeros((positions.size, half))
        div = np.exp(np.arange(0, half, 2) * (-math.log(10000.0) / half))
        out[:, 0::2] = np.sin(positions[:, None] * div[None, :])
        out[:, 1::2] = np.cos(positions[:, None] * div[None, :])
        return out

    ys, xs = np.mgrid[0:n_rows, 0:n_cols]
    return np.concatenate([encode_1d(ys.reshape(-1).astype(np.float64)),
                           encode_1d(xs.reshape(-1).astype(np.float64))], axis=1)


class EncoderLayer(ad.Module):
    def __init__(self, cfg: ModelConfig, init):
        self.attn = MultiHeadAttention(cfg.d_model, cfg.n_heads, init)
        self.ffn = FeedForward(cfg.d_model, cfg.ffn_width, init)
        self.ln1 = LayerNorm(cfg.d_model, init)
        self.ln2 = LayerNorm(cfg.d_model, init)

    def __call__(self, x: ad.Tensor, segments: int = 1) -> ad.Tensor:
        x = self.ln1(ad.add(x, self.attn.attend(x, x, segments=segments)))
        return self.ln2(ad.add(x, self.ffn(x)))


class DecoderLayer(ad.Module):
    def __init__(self, cfg: ModelConfig, init):
        self.self_attn = MultiHeadAttention(cfg.d_model, cfg.n_heads, init)
        self.cross_attn = MultiHeadAttention(cfg.d_model, cfg.n_heads, init)
        self.ffn = FeedForward(cfg.d_model, cfg.ffn_width, init)
        self.ln1 = LayerNorm(cfg.d_model, init)
        self.ln2 = LayerNorm(cfg.d_model, init)
        self.ln3 = LayerNorm(cfg.d_model, init)

    def __call__(self, queries: ad.Tensor, memory: ad.Tensor, query_pos: ad.Tensor,
                 token_rows: ad.Tensor | None, segments: int = 1) -> ad.Tensor:
        x = ad.add(queries, query_pos)  # token rows carry zero position
        kv = x if token_rows is None else ad.concat_rows([x, token_rows], segments=segments)
        attn = self.self_attn.attend(x, kv, segments=segments)
        queries = self.ln1(ad.add(queries, attn))
        cross = self.cross_attn.attend(ad.add(queries, query_pos), memory, segments=segments)
        queries = self.ln2(ad.add(queries, cross))
        return self.ln3(ad.add(queries, self.ffn(queries)))


@dataclass
class DetectorOutput:
    """Per-layer predictions of B images; rows are image-major (image b owns
    rows b*N .. (b+1)*N - 1 of every tensor)."""

    # per decoder layer (the last one only under final_heads_only):
    # (class logits [B*N x C], boxes [B*N x 4] cxcywh)
    layers: list
    query_states: list = field(default_factory=list)  # Q^(1..L), each [B*N x d]
    n_images: int = 1

    def state(self, layer: int) -> ad.Tensor:
        """Q^(l) for 1-indexed decoder layer l."""
        return self.query_states[layer - 1]


class Detector(ad.Module):
    def __init__(self, config: ModelConfig, n_classes: int, init):
        """The model of ``config`` with ``n_classes`` class logits, its
        parameters taken from ``init`` in ``parameters()`` order (see
        ``Linear``)."""
        self.config = cfg = config
        d = cfg.d_model
        self.patch_proj = Linear(cfg.patch_size * cfg.patch_size, d, init)
        self.encoder = [EncoderLayer(cfg, init) for _ in range(cfg.n_encoder_layers)]
        self.query_embed = init.normal(0.5, (cfg.n_queries, d))
        self.query_pos = init.normal(0.5, (cfg.n_queries, d))
        self.token_proj = Linear(d, d, init)  # projects the modality token into query space
        self.decoder = [DecoderLayer(cfg, init) for _ in range(cfg.n_decoder_layers)]
        self.cls_head = Linear(d, n_classes, init)
        self.box_hidden = Linear(d, d, init)
        self.box_out = Linear(d, 4, init)

    # -- forward ----------------------------------------------------------
    def encode(self, images: np.ndarray) -> ad.Tensor:
        """Memory of a (B, H, W) image stack, (B*P, d) with image b's P patch
        rows as row block b; a 2-d (H, W) image is a stack of one."""
        img = np.asarray(images, dtype=np.float64)
        img = img[None] if img.ndim == 2 else img
        p = self.config.patch_size
        if img.ndim != 3 or not img.shape[0] or img.shape[1] % p or img.shape[2] % p:
            raise ShapeError(f"image stack shape {img.shape} not divisible by patch size {p}")
        b, gh, gw = img.shape[0], img.shape[1] // p, img.shape[2] // p
        patches = img.reshape(b, gh, p, gw, p).transpose(0, 1, 3, 2, 4).reshape(-1, p * p)
        x = self.patch_proj(ad.constant(patches))
        pos = sinusoidal_positions_2d(gh, gw, self.config.d_model)
        x = ad.add(x, ad.constant(np.tile(pos, (b, 1))))
        for layer in self.encoder:
            x = layer(x, segments=b)
        return x

    def decode(self, memory: ad.Tensor, tokens: ad.Tensor | None,
               mask_token_column: bool = False, n_images: int = 1,
               final_heads_only: bool = False) -> DetectorOutput:
        """Decode the memory of ``n_images`` stacked images.

        ``tokens`` is None (plain attention) or the (n_images, d) token rows of
        MoCA, row b for image b. With ``final_heads_only`` the class and box
        heads run on the last decoder layer alone, so ``layers`` holds one
        entry (what inference reads); the query states of every layer are kept
        either way.
        ``mask_token_column`` checks the tokens and then hands the layers
        None, so every self-attention leaves the token rows out; no entry
        point sets it, and it stays as the seam of the reduction-property
        test.
        """
        cfg, b = self.config, n_images
        if b < 1 or memory.ndim != 2 or memory.shape[0] % b:
            raise ShapeError(f"memory of shape {memory.shape} does not split into {b} images")
        token_rows = None
        if tokens is not None:
            if tokens.shape != (b, cfg.d_model):
                raise ShapeError(f"token shape {tokens.shape} != ({b}, {cfg.d_model})")
            token_rows = None if mask_token_column else self.token_proj(tokens)
        queries, query_pos = self.query_embed, self.query_pos
        if b > 1:
            queries, query_pos = ad.concat_rows([queries] * b), ad.concat_rows([query_pos] * b)
        out = DetectorOutput(layers=[], n_images=b)
        for i, layer in enumerate(self.decoder):
            queries = layer(queries, memory, query_pos, token_rows, segments=b)
            out.query_states.append(queries)
            if final_heads_only and i < len(self.decoder) - 1:
                continue
            logits = self.cls_head(queries)
            boxes = ad.sigmoid(self.box_out(ad.relu(self.box_hidden(queries))))
            out.layers.append((logits, boxes))
        return out

    def forward(self, images: np.ndarray, tokens: ad.Tensor | None = None,
                final_heads_only: bool = False) -> DetectorOutput:
        """One forward of a (B, H, W) stack or one (H, W) image; ``tokens``
        and ``final_heads_only`` as in ``decode``."""
        n_images = 1 if np.ndim(images) == 2 else len(images)
        return self.decode(self.encode(images), tokens, n_images=n_images,
                           final_heads_only=final_heads_only)

