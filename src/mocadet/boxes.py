"""Box geometry: the cxcywh -> xyxy conversion, pairwise IoU and the one GIoU
formula.

Boxes are normalized (cx, cy, w, h) unless a function says xyxy.
``giou_parts`` computes GIoU entry by entry on corner stacks that broadcast,
together with the areas it is built from, so the set loss can differentiate
it by hand. The pairwise functions take (N, 4) and (G, 4) xyxy arrays and
return (N, G); each entry is computed with the same operations, in the same
order, as the scalar formula, so it is bitwise equal to it.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, ValidationError


def cxcywh_to_xyxy(boxes) -> np.ndarray:
    b = np.asarray(boxes, dtype=np.float64)
    half_w, half_h = b[..., 2] / 2.0, b[..., 3] / 2.0
    return np.stack([b[..., 0] - half_w, b[..., 1] - half_h,
                     b[..., 0] + half_w, b[..., 1] + half_h], axis=-1)


def _overlap(a, b):
    """Intersection width and height and union area of two xyxy corner
    stacks: ``a`` and ``b`` are (x1, y1, x2, y2) sequences of arrays that
    broadcast against each other."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = np.maximum(0.0, np.minimum(ax2, bx2) - np.maximum(ax1, bx1))
    ih = np.maximum(0.0, np.minimum(ay2, by2) - np.maximum(ay1, by1))
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - iw * ih
    return iw, ih, union


def giou_parts(a, b):
    """Generalized IoU of two xyxy corner stacks, entry by entry, and the
    parts it is built from: returns (giou, iw, ih, union, cw, ch), where iw
    and ih are the intersection's sides and cw and ch the enclosing hull's.
    ``a`` and ``b`` are as in ``_overlap``."""
    iw, ih, union = _overlap(a, b)
    cw = np.maximum(a[2], b[2]) - np.minimum(a[0], b[0])
    ch = np.maximum(a[3], b[3]) - np.minimum(a[1], b[1])
    hull = cw * ch
    return iw * ih / union - (hull - union) / hull, iw, ih, union, cw, ch


def _pairwise(a, b, what: str):
    """Corner stacks of two checked xyxy box sets, shaped (N, 1) and (1, G)
    so that they broadcast to every pair."""
    stacks = []
    for boxes in (a, b):
        k = np.asarray(boxes, dtype=np.float64)
        if k.ndim != 2 or k.shape[1] != 4:
            raise ShapeError(f"{what} needs (K, 4) xyxy boxes, got shape {k.shape}")
        if (k[:, 2:] <= k[:, :2]).any():
            raise ValidationError(f"degenerate box in {what}")
        stacks.append(k.T)
    return stacks[0][:, :, None], stacks[1][:, None, :]


def corner_iou(a, b):
    """Intersection over union of two xyxy corner stacks, entry by entry and
    unchecked; ``a`` and ``b`` are as in ``_overlap``."""
    iw, ih, union = _overlap(a, b)
    return iw * ih / union


def iou(a, b) -> np.ndarray:
    """Pairwise intersection over union of (N, 4) and (G, 4) xyxy boxes."""
    return corner_iou(*_pairwise(a, b, "iou"))


def giou(a, b) -> np.ndarray:
    """Pairwise generalized IoU of (N, 4) and (G, 4) xyxy boxes, in [-1, 1]."""
    return giou_parts(*_pairwise(a, b, "giou"))[0]
