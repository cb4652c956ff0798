"""Set-prediction objective: Hungarian matching plus focal / L1 / GIoU terms.

Predictions arrive as one row block per image (the batched detector's
image-major rows). Matching is computed per (decoder layer, image) on
detached values, from one cost matrix that covers every layer and image.
The layers' predictions are then stacked row-wise, and the loss over all
their rows is two fused tape nodes with hand-written pullbacks: the focal
term of every (row, class) and the L1 plus GIoU term of the matched rows.
Gradients flow through logits and boxes only, and the graph's size depends
on neither the decoder depth, the batch size nor the number of objects. The
focal formula (``_focal_terms``) and the GIoU formula (``boxes.giou_parts``)
are each written once and shared by the cost matrix and the loss. Boxes are
normalized (cx, cy, w, h) unless a function says xyxy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .boxes import cxcywh_to_xyxy, giou, giou_parts
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


def _clamp(probs):
    """Probabilities clamped to [eps, 1 - eps] and their complements clamped
    to [eps, 1]; the second clamp matters too, since 1 - (1 - eps) rounds
    below eps."""
    p = np.clip(probs, _P_CLAMP, 1.0 - _P_CLAMP)
    return p, np.clip(1.0 - p, _P_CLAMP, 1.0)


def _focal_terms(probs, alpha: float, gamma: float):
    """Entrywise focal terms of class probabilities (Lin et al. 2017,
    arXiv:1708.02002): (pos, neg), the loss of a 1 target and of a 0 target,
    alpha (1 - p)^gamma (-ln p) and (1 - alpha) p^gamma (-ln(1 - p)), on the
    clamped values of ``_clamp``."""
    p, q = _clamp(probs)
    return alpha * q ** gamma * -np.log(p), (1.0 - alpha) * p ** gamma * -np.log(q)


def build_cost_matrix(pred_probs: np.ndarray, pred_boxes: np.ndarray,
                      gt_classes, gt_boxes: np.ndarray,
                      weights: LossWeights) -> np.ndarray:
    """Pairwise query-to-target matching cost, shape (N, G).

    Classification uses the focal-style positive-minus-negative cost;
    box terms are L1 on cxcywh plus (1 - GIoU).
    """
    probs = np.asarray(pred_probs, dtype=np.float64)
    boxes = np.asarray(pred_boxes, dtype=np.float64)
    gt_classes = [int(c) for c in gt_classes]
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(len(gt_classes), 4)
    n, g = probs.shape[0], len(gt_classes)
    cost = np.zeros((n, g))
    if g == 0:
        return cost

    pos, neg = _focal_terms(probs[:, gt_classes], weights.alpha, weights.gamma)
    cls_cost = pos - neg

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


def _focal_node(logits: ad.Tensor, targets: np.ndarray, row_weight: np.ndarray,
                alpha: float, gamma: float) -> ad.Tensor:
    """Summed focal loss of (R, C) logits against 0/1 targets as one tape
    node; row r's terms are scaled by ``row_weight[r]`` (an (R, 1) column).

    The pullback is the chain rule through the sigmoid and the clamps of
    ``_clamp``: a clamped probability passes no gradient, and one on a
    clamp bound passes it. Where p is not clamped, 1 - p is not either: it
    would take p = 1 - eps exactly, a value the sigmoid never returns.
    """
    s = ad.expit(logits.data)
    pos, neg = _focal_terms(s, alpha, gamma)
    pos_w, neg_w = row_weight * targets, row_weight * (1.0 - targets)

    def pullback(g):
        p, q = _clamp(s)
        d_pos = -alpha * (gamma * q ** (gamma - 1.0) * -np.log(p) + q ** gamma / p)
        d_neg = (1.0 - alpha) * (gamma * p ** (gamma - 1.0) * -np.log(q) + p ** gamma / q)
        return (g * (pos_w * d_pos + neg_w * d_neg) * (p == s) * s * (1.0 - s),)

    return ad.node(np.sum(pos * pos_w + neg * neg_w), (logits,), pullback)


def _box_node(boxes: ad.Tensor, rows, truth: np.ndarray, row_weight: np.ndarray,
              weights: LossWeights) -> ad.Tensor:
    """The L1 and (1 - GIoU) terms of rows ``rows`` of (R, 4) cxcywh
    ``boxes`` against their (M, 4) ``truth`` boxes as one tape node; the
    terms of the i-th matched row are scaled by ``row_weight[i]`` (an
    (M, 1) column), by ``w_l1`` and by ``w_giou``.

    In the pullback, a min or max of a predicted and a true corner that tie
    routes the gradient to the prediction, an intersection side of exactly
    0 passes none, and the L1 term passes none where the box equals its
    truth.
    """
    rows = np.asarray(rows, dtype=np.int64)
    mb = boxes.data[rows]
    diff = mb - truth
    pred, true = cxcywh_to_xyxy(mb).T, cxcywh_to_xyxy(truth).T  # (4, M) corner stacks
    giou_m, iw, ih, union, cw, ch = giou_parts(pred, true)
    w_l1, w_giou = weights.w_l1 * row_weight, weights.w_giou * row_weight[:, 0]
    value = np.sum(np.abs(diff) * w_l1) + np.sum((1.0 - giou_m) * w_giou)

    def pullback(g):
        # GIoU = I / U - (H - U) / H with I = iw * ih and H = cw * ch
        g_giou = -g * w_giou
        inter, hull = iw * ih, cw * ch
        g_union = -g_giou * inter / (union * union) + g_giou / hull
        g_hull = g_giou * (hull - union) / (hull * hull) - g_giou / hull
        g_inter = g_giou / union - g_union
        g_i = g_inter * np.stack([ih * (iw > 0.0), iw * (ih > 0.0)])  # (2, M): x, y
        g_c = g_hull * np.stack([ch, cw])
        lo, hi, true_lo, true_hi = pred[:2], pred[2:], true[:2], true[2:]
        g_area = g_union * (hi - lo)[::-1]  # d union / d hi: the other side
        g_lo = -g_area - g_i * (lo >= true_lo) - g_c * (lo <= true_lo)
        g_hi = g_area + g_i * (hi <= true_hi) + g_c * (hi >= true_hi)
        g_rows = np.concatenate([g_lo + g_hi, 0.5 * (g_hi - g_lo)]).T
        g_rows += g * np.sign(diff) * w_l1
        full = np.zeros_like(boxes.data)
        np.add.at(full, rows, g_rows)
        return (full,)

    return ad.node(value, (boxes,), pullback)


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
    cost = build_cost_matrix(ad.expit(logits), boxes,
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
    stacked into one (L*B*N) row block, and the loss is five tape nodes
    whatever L, B and the G_b are: the two row stacks, the focal node, the
    box node and their sum. Matched queries take class target 1 at the
    ground-truth class; all other (query, class) targets are 0. Image b's
    terms are weighted by 1 / (B * max(G_b, 1)), which makes the total the
    mean over images of each image's loss normalized by its G. Ground-truth
    boxes need a positive width and height, which keeps GIoU's union and
    hull areas positive.
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
        boxes = np.asarray(boxes, dtype=np.float64).reshape(len(classes), 4)
        if not (boxes[:, 2:] > 0.0).all():
            raise ValidationError("ground-truth boxes need a positive width and height")
        gts.append((classes, boxes))
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
    focal = _focal_node(all_logits, target, weights.w_focal * row_weight,
                        weights.alpha, weights.gamma)
    return focal + _box_node(all_boxes, rows, np.array(gt_rows).reshape(-1, 4),
                             row_weight[rows], weights)
