"""Box geometry: the cxcywh -> xyxy conversion and pairwise IoU / GIoU.

Boxes are normalized (cx, cy, w, h) unless a function says xyxy. The
pairwise functions take (N, 4) and (G, 4) xyxy arrays and return (N, G);
each entry is computed with the same operations, in the same order, as the
scalar formula, so it is bitwise equal to it.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, ValidationError


def cxcywh_to_xyxy(boxes) -> np.ndarray:
    b = np.asarray(boxes, dtype=np.float64)
    half_w, half_h = b[..., 2] / 2.0, b[..., 3] / 2.0
    return np.stack([b[..., 0] - half_w, b[..., 1] - half_h,
                     b[..., 0] + half_w, b[..., 1] + half_h], axis=-1)


def _corners(boxes, what: str) -> np.ndarray:
    """(4, K) corner rows of a checked (K, 4) xyxy array."""
    b = np.asarray(boxes, dtype=np.float64)
    if b.ndim != 2 or b.shape[1] != 4:
        raise ShapeError(f"{what} needs (K, 4) xyxy boxes, got shape {b.shape}")
    if np.any(b[:, 2] <= b[:, 0]) or np.any(b[:, 3] <= b[:, 1]):
        raise ValidationError(f"degenerate box in {what}")
    return b.T


def _pairwise(a, b, what: str):
    """Broadcast corners of both sets plus intersection and union areas."""
    ca = _corners(a, what)[:, :, None]  # each corner (N, 1)
    cb = _corners(b, what)[:, None, :]  # each corner (1, G)
    ax1, ay1, ax2, ay2 = ca
    bx1, by1, bx2, by2 = cb
    iw = np.maximum(0.0, np.minimum(ax2, bx2) - np.maximum(ax1, bx1))
    ih = np.maximum(0.0, np.minimum(ay2, by2) - np.maximum(ay1, by1))
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return ca, cb, inter, union


def iou(a, b) -> np.ndarray:
    """Pairwise intersection over union of (N, 4) and (G, 4) xyxy boxes."""
    _, _, inter, union = _pairwise(a, b, "iou")
    return inter / union


def giou(a, b) -> np.ndarray:
    """Pairwise generalized IoU of (N, 4) and (G, 4) xyxy boxes, in [-1, 1]."""
    (ax1, ay1, ax2, ay2), (bx1, by1, bx2, by2), inter, union = _pairwise(a, b, "giou")
    hull = (np.maximum(ax2, bx2) - np.minimum(ax1, bx1)) * \
           (np.maximum(ay2, by2) - np.minimum(ay1, by1))
    return inter / union - (hull - union) / hull
