"""Set-prediction objective: Hungarian matching plus focal / L1 / GIoU terms.

Matching is computed on detached values; the differentiable loss is then
assembled with tape ops so gradients flow through logits and boxes only.
Boxes are normalized (cx, cy, w, h) unless a function says xyxy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .boxes import cxcywh_to_xyxy, giou
from .errors import ValidationError

_P_CLAMP = 1e-12


@dataclass(frozen=True)
class LossWeights:
    w_focal: float = 2.0
    alpha: float = 0.25
    gamma: float = 2.0
    w_l1: float = 5.0
    w_giou: float = 2.0

    def validate(self) -> "LossWeights":
        if min(self.w_focal, self.w_l1, self.w_giou, self.alpha, self.gamma) < 0:
            raise ValidationError("loss weights must be non-negative")
        return self


def build_cost_matrix(pred_probs: np.ndarray, pred_boxes: np.ndarray,
                      gt_classes, gt_boxes: np.ndarray,
                      weights: LossWeights) -> np.ndarray:
    """Pairwise query-to-target matching cost, shape (N, G).

    Classification uses the focal-style positive-minus-negative cost;
    box terms are L1 on cxcywh plus (1 - GIoU).
    """
    probs = np.clip(np.asarray(pred_probs, dtype=np.float64), _P_CLAMP, 1 - _P_CLAMP)
    boxes = np.asarray(pred_boxes, dtype=np.float64)
    gt_classes = [int(c) for c in gt_classes]
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(len(gt_classes), 4)
    n, g = probs.shape[0], len(gt_classes)
    cost = np.zeros((n, g))
    if g == 0:
        return cost

    a, y = weights.alpha, weights.gamma
    pos = a * (1.0 - probs) ** y * (-np.log(probs))
    neg = (1.0 - a) * probs ** y * (-np.log(1.0 - probs))
    cls_cost = pos[:, gt_classes] - neg[:, gt_classes]

    l1 = np.abs(boxes[:, None, :] - gt_boxes[None, :, :]).sum(axis=2)

    giou_cost = 1.0 - giou(cxcywh_to_xyxy(boxes), cxcywh_to_xyxy(gt_boxes))

    cost = weights.w_focal * cls_cost + weights.w_l1 * l1 + weights.w_giou * giou_cost
    if not np.all(np.isfinite(cost)):
        raise ValidationError("non-finite entries in cost matrix")
    return cost


def _lap_rows_le_cols(cost: np.ndarray) -> np.ndarray:
    """Shortest-augmenting-path assignment for cost (n, m), n <= m.

    Returns row -> column. Deterministic: augmenting scans prefer the
    smallest index on ties, so a fully tied matrix yields the identity-style
    matching.
    """
    n, m = cost.shape
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    col_to_row = np.full(m + 1, n, dtype=int)  # virtual free row = n
    way = np.zeros(m + 1, dtype=int)
    for i in range(n):
        col_to_row[m] = i
        j0 = m
        minv = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = col_to_row[j0]
            delta = np.inf
            j1 = -1
            for j in range(m):
                if used[j]:
                    continue
                cur = cost[i0, j] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[col_to_row[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if col_to_row[j0] == n:
                break
        while j0 != m:
            j1 = way[j0]
            col_to_row[j0] = col_to_row[j1]
            j0 = j1
    row_to_col = np.full(n, -1, dtype=int)
    for j in range(m):
        if col_to_row[j] != n:
            row_to_col[col_to_row[j]] = j
    return row_to_col


def hungarian(cost) -> list:
    """Minimum-total-cost injective assignment of size min(N, G).

    Returns (query_index, gt_index) pairs sorted by query index.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise ValidationError(f"cost matrix must be 2-d, got shape {c.shape}")
    if c.size == 0:
        return []
    if not np.all(np.isfinite(c)):
        raise ValidationError("cost matrix has non-finite entries")
    if c.shape[0] >= c.shape[1]:
        col_assign = _lap_rows_le_cols(c.T)  # one row per gt
        pairs = [(int(q), int(g)) for g, q in enumerate(col_assign)]
    else:
        row_assign = _lap_rows_le_cols(c)
        pairs = [(int(q), int(g)) for q, g in enumerate(row_assign)]
    return sorted(pairs)


def _giou_rowwise(boxes_a: ad.Tensor, boxes_b: ad.Tensor) -> ad.Tensor:
    """Differentiable GIoU per row for two (G, 4) cxcywh tensors -> (G, 1)."""

    def split(b):
        cx = ad.slice_cols(b, 0, 1)
        cy = ad.slice_cols(b, 1, 2)
        w = ad.slice_cols(b, 2, 3)
        h = ad.slice_cols(b, 3, 4)
        return (cx - w * 0.5, cy - h * 0.5, cx + w * 0.5, cy + h * 0.5)

    ax1, ay1, ax2, ay2 = split(boxes_a)
    bx1, by1, bx2, by2 = split(boxes_b)
    iw = ad.relu(ad.minimum(ax2, bx2) - ad.maximum(ax1, bx1))
    ih = ad.relu(ad.minimum(ay2, by2) - ad.maximum(ay1, by1))
    inter = iw * ih
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    union = area_a + area_b - inter
    hull = (ad.maximum(ax2, bx2) - ad.minimum(ax1, bx1)) * \
           (ad.maximum(ay2, by2) - ad.minimum(ay1, by1))
    return ad.div(inter, union) - ad.div(hull - union, hull)


def _focal_matrix(logits: ad.Tensor, targets: np.ndarray, alpha: float,
                  gamma: float) -> ad.Tensor:
    p = ad.clip(ad.sigmoid(logits), _P_CLAMP, 1.0 - _P_CLAMP)
    one_minus_p = ad.clip(sub_const(1.0, p), _P_CLAMP, 1.0)
    t = ad.constant(targets)
    not_t = ad.constant(1.0 - targets)
    pos = ad.mul(ad.mul(ad.powf(one_minus_p, gamma), ad.neg(ad.log(p))), t) * alpha
    neg = ad.mul(ad.mul(ad.powf(p, gamma), ad.neg(ad.log(one_minus_p))), not_t) * (1.0 - alpha)
    return ad.sum_all(pos + neg)


def sub_const(c: float, t: ad.Tensor) -> ad.Tensor:
    return ad.sub(ad.constant(np.full(t.shape, c)), t)


def detection_loss(per_layer_preds, gt_classes, gt_boxes,
                   weights: LossWeights, precomputed_matches=None) -> ad.Tensor:
    """Deep-supervised set loss summed over decoder layers.

    ``per_layer_preds`` is a list of (logits Tensor [N x C], boxes Tensor
    [N x 4]). Each layer is matched independently on detached values.
    Matched queries take class target 1 at the ground-truth class; all other
    (query, class) targets are 0. Each layer's total is normalized by
    max(G, 1).
    """
    weights.validate()
    gt_classes = [int(c) for c in gt_classes]
    g = len(gt_classes)
    gt_arr = np.asarray(gt_boxes, dtype=np.float64).reshape(g, 4)
    norm = float(max(g, 1))

    total = None
    for li, (logits, boxes) in enumerate(per_layer_preds):
        n, n_classes = logits.shape
        if precomputed_matches is not None:
            matches = precomputed_matches[li]
        elif g > 0:
            with ad.no_grad():
                probs = 1.0 / (1.0 + np.exp(-logits.data))
            cost = build_cost_matrix(probs, boxes.data, gt_classes, gt_arr, weights)
            matches = hungarian(cost)
        else:
            matches = []

        targets = np.zeros((n, n_classes))
        for q, j in matches:
            targets[q, gt_classes[j]] = 1.0
        layer = ad.mul(_focal_matrix(logits, targets, weights.alpha, weights.gamma),
                       weights.w_focal)

        if matches:
            q_idx = [q for q, _ in matches]
            g_idx = [j for _, j in matches]
            mb = ad.select_rows(boxes, q_idx)
            gb = ad.constant(gt_arr[g_idx])
            l1 = ad.sum_all(ad.abs_(ad.sub(mb, gb)))
            giou_term = ad.sum_all(sub_const(1.0, _giou_rowwise(mb, gb)))
            layer = layer + ad.mul(l1, weights.w_l1) + ad.mul(giou_term, weights.w_giou)

        layer = ad.mul(layer, 1.0 / norm)
        total = layer if total is None else total + layer
    if total is None:
        raise ValidationError("detection_loss needs at least one prediction layer")
    return total
