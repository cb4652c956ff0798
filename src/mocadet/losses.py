"""Set-prediction objective: Hungarian matching plus focal / L1 / GIoU terms.

Predictions arrive as one row block per image (the batched detector's
image-major rows). Matching is computed per (decoder layer, image) on
detached values, from one cost matrix that covers every layer and image;
the layers' predictions are then stacked row-wise and one
differentiable loss graph is assembled over all their rows with tape ops,
so gradients flow through logits and boxes only and the graph's size grows
with neither the decoder depth nor the batch size. Boxes are normalized
(cx, cy, w, h) unless a function says xyxy.
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
    smallest index on ties (``argmin`` takes the first minimum), so a fully
    tied matrix yields the identity-style matching.
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
            free = ~used[:m]
            cur = cost[i0] - u[i0] - v[:m]
            better = free & (cur < minv[:m])
            minv[:m][better] = cur[better]
            way[:m][better] = j0
            j1 = int(np.argmin(np.where(free, minv[:m], np.inf)))
            delta = minv[j1]
            u[col_to_row[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if col_to_row[j0] == n:
                break
        while j0 != m:
            j1 = way[j0]
            col_to_row[j0] = col_to_row[j1]
            j0 = j1
    row_to_col = np.full(n, -1, dtype=int)
    assigned = col_to_row[:m] != n
    row_to_col[col_to_row[:m][assigned]] = np.flatnonzero(assigned)
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
                  gamma: float, weights=1.0) -> ad.Tensor:
    """Summed focal loss of (R, C) logits against 0/1 targets; ``weights``
    (a scalar or an (R, 1) column) scales each row's terms."""
    p = ad.clip(ad.sigmoid(logits), _P_CLAMP, 1.0 - _P_CLAMP)
    one_minus_p = ad.clip(1.0 - p, _P_CLAMP, 1.0)
    pos_w = ad.constant(alpha * weights * targets)
    neg_w = ad.constant((1.0 - alpha) * weights * (1.0 - targets))
    pos = ad.mul(ad.mul(ad.powf(one_minus_p, gamma), ad.neg(ad.log(p))), pos_w)
    neg = ad.mul(ad.mul(ad.powf(p, gamma), ad.neg(ad.log(one_minus_p))), neg_w)
    return ad.sum_all(pos + neg)


def _match_blocks(per_layer_preds, gts, sizes, weights: LossWeights) -> list:
    """Hungarian matches of every (layer, image), indexed [layer][image].

    One cost matrix covers the row blocks of every layer and every image
    with ground truth, against all of those images' boxes. Each entry
    depends on one query row and one box alone, so block (layer, image) of
    it is that pair's own cost matrix, entry for entry; each block is then
    matched on its own. Images without ground truth match nothing.
    """
    matches = [[[] for _ in gts] for _ in sizes]
    with_gt = [b for b, (classes, _) in enumerate(gts) if classes]
    if not with_gt:
        return matches
    blocks = [(li, b, slice(b * n, (b + 1) * n)) for li, n in enumerate(sizes) for b in with_gt]
    logits = np.concatenate([per_layer_preds[li][0].data[r] for li, _, r in blocks])
    boxes = np.concatenate([per_layer_preds[li][1].data[r] for li, _, r in blocks])
    cost = build_cost_matrix(1.0 / (1.0 + np.exp(-logits)), boxes,
                             [c for b in with_gt for c in gts[b][0]],
                             np.concatenate([gts[b][1] for b in with_gt]), weights)
    bounds = np.cumsum([0] + [len(gts[b][0]) for b in with_gt])
    cols = {b: slice(lo, hi) for b, lo, hi in zip(with_gt, bounds[:-1], bounds[1:])}
    start = 0
    for li, b, r in blocks:
        n = r.stop - r.start
        matches[li][b] = hungarian(cost[start:start + n, cols[b]])
        start += n
    return matches


def detection_loss(per_layer_preds, targets, weights: LossWeights,
                   precomputed_matches=None) -> ad.Tensor:
    """Deep-supervised set loss summed over decoder layers, mean over images.

    ``per_layer_preds`` is a list of (logits Tensor [B*N x C], boxes Tensor
    [B*N x 4]), image b owning rows b*N .. (b+1)*N - 1; ``targets`` is a
    list of B (gt classes, gt boxes [G_b x 4]) pairs. Each (layer, image)
    is matched on its own detached row block (``_match_blocks`` builds one
    cost matrix for the whole call), unless ``precomputed_matches`` gives
    the (query, gt) pairs of every [layer][image]. The layers are then
    stacked into one (L*B*N) row block, so a single focal,
    L1 and GIoU graph covers all of them. Matched queries take class target
    1 at the ground-truth class; all other (query, class) targets are 0.
    Image b's terms are weighted by 1 / (B * max(G_b, 1)), which makes the
    total the mean over images of each image's loss normalized by its G.
    """
    weights.validate()
    if not per_layer_preds:
        raise ValidationError("detection_loss needs at least one prediction layer")
    n_images = len(targets)
    if not n_images or any(logits.shape[0] % n_images for logits, _ in per_layer_preds):
        raise ValidationError(f"prediction rows do not split into {n_images} images")
    gts = []
    for classes, boxes in targets:
        classes = [int(c) for c in classes]
        gts.append((classes, np.asarray(boxes, dtype=np.float64).reshape(len(classes), 4)))
    image_weight = np.array([1.0 / (n_images * max(len(c), 1)) for c, _ in gts])

    sizes = [logits.shape[0] // n_images for logits, _ in per_layer_preds]
    matches = (_match_blocks(per_layer_preds, gts, sizes, weights)
               if precomputed_matches is None else precomputed_matches)
    rows, cls, gt_rows = [], [], []  # matched rows of the stack, their class and gt box
    offset = 0
    for li, n in enumerate(sizes):
        for b, (classes, gt_boxes) in enumerate(gts):
            rows += [offset + b * n + q for q, _ in matches[li][b]]
            cls += [classes[j] for _, j in matches[li][b]]
            gt_rows += [gt_boxes[j] for _, j in matches[li][b]]
        offset += n * n_images

    all_logits = ad.concat_rows([logits for logits, _ in per_layer_preds])
    all_boxes = ad.concat_rows([boxes for _, boxes in per_layer_preds])
    row_weight = np.concatenate([np.repeat(image_weight, n) for n in sizes])[:, None]
    target = np.zeros(all_logits.shape)
    target[rows, cls] = 1.0
    total = _focal_matrix(all_logits, target, weights.alpha, weights.gamma,
                          weights.w_focal * row_weight)
    if rows:
        w = row_weight[rows]
        mb = ad.select_rows(all_boxes, rows)
        gb = ad.constant(np.array(gt_rows))
        l1 = ad.sum_all(ad.mul(ad.abs_(ad.sub(mb, gb)), np.repeat(weights.w_l1 * w, 4, axis=1)))
        giou_term = ad.sum_all(ad.mul(1.0 - _giou_rowwise(mb, gb), weights.w_giou * w))
        total = total + l1 + giou_term
    return total
