"""Set-prediction objective: Hungarian matching plus focal / L1 / GIoU terms.

Predictions arrive as one row block per image (the batched detector's
image-major rows). Matching is always computed, per (decoder layer, image)
on detached values, from one cost matrix that covers every layer and image;
no caller passes matches in. Each block is solved on its own by a
shortest-augmenting-path scan written as scalar loops, since a block of a
few targets by the query count is too small for numpy to pay off.
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
from .fileio import Range

_P_CLAMP = 1e-12


@dataclass(frozen=True)
class LossWeights:
    # the three terms are each of order 1; a weight above 100 is a typo
    w_focal: float = Range(0, 100).field(default=2.0)
    # above 1 the weight 1 - alpha of the negative term is negative: no lower bound
    alpha: float = Range(0, 1).field(default=0.25)
    # Lin et al. 2017 try gamma up to 5; beyond 10 (1 - p)^gamma is all but 0
    gamma: float = Range(0, 10).field(default=2.0)
    w_l1: float = Range(0, 100).field(default=5.0)
    w_giou: float = Range(0, 100).field(default=2.0)


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
    """Pairwise query-to-target matching cost, shape (N, G), of float64
    arrays and G >= 1 targets. Classification uses the focal-style
    positive-minus-negative cost; box terms are L1 on cxcywh plus (1 - GIoU).
    """
    pos, neg = _focal_terms(pred_probs[:, gt_classes], weights.alpha, weights.gamma)
    l1 = np.abs(pred_boxes[:, None, :] - gt_boxes[None, :, :]).sum(axis=2)
    giou_cost = 1.0 - giou(cxcywh_to_xyxy(pred_boxes), cxcywh_to_xyxy(gt_boxes))
    cost = weights.w_focal * (pos - neg) + weights.w_l1 * l1 + weights.w_giou * giou_cost
    if not np.all(np.isfinite(cost)):
        raise ValidationError("non-finite entries in cost matrix")
    return cost


def _lap_rows_le_cols(cost: np.ndarray) -> list:
    """Shortest-augmenting-path assignment for cost (n, m), n <= m.

    Returns row -> column. Deterministic: each scan visits the free columns
    in index order and keeps the first minimum, so ties go to the smallest
    index and a fully tied matrix yields the identity-style matching.
    A block is a few targets by the query count, too small for numpy's
    per-call cost to pay off, so the scans are scalar loops over lists; each
    entry's float operations and their order are those of an elementwise
    pass over the columns.
    """
    n, m = cost.shape
    rows = cost.tolist()
    u, v = [0.0] * (n + 1), [0.0] * (m + 1)
    col_to_row = [n] * (m + 1)  # virtual free row = n; column m starts each path
    way = [0] * m
    for i in range(n):
        col_to_row[m] = i
        j0, minv, free, used = m, [np.inf] * m, list(range(m)), [m]
        while True:
            row, u0 = rows[col_to_row[j0]], u[col_to_row[j0]]
            delta, j1 = np.inf, m
            for j in free:
                cur = row[j] - u0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta, j1 = minv[j], j
            for j in used:
                u[col_to_row[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            free.remove(j1)
            used.append(j1)
            j0 = j1
            if col_to_row[j0] == n:
                break
        while j0 != m:
            j1 = way[j0]
            col_to_row[j0] = col_to_row[j1]
            j0 = j1
    row_to_col = [-1] * n
    for j, i in enumerate(col_to_row[:m]):
        if i != n:
            row_to_col[i] = j
    return row_to_col


def hungarian(cost) -> list:
    """Minimum-total-cost injective assignment of size min(N, G).

    Returns (query_index, gt_index) pairs sorted by query index. ``cost``
    is a finite 2-d matrix, a block of one that ``build_cost_matrix``
    checked; an empty one gives no pairs.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.shape[0] >= c.shape[1]:
        return sorted((q, g) for g, q in enumerate(_lap_rows_le_cols(c.T)))  # one row per gt
    return list(enumerate(_lap_rows_le_cols(c)))


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
    shape = boxes.shape

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
        full = np.zeros(shape)
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


def detection_loss(per_layer_preds, targets, weights: LossWeights) -> ad.Tensor:
    """Deep-supervised set loss summed over decoder layers, mean over images.

    ``per_layer_preds`` is a list of (logits Tensor [B*N x C], boxes Tensor
    [B*N x 4]), image b owning rows b*N .. (b+1)*N - 1; ``targets`` is a
    list of B (gt classes, gt boxes [G_b x 4]) pairs. Each (layer, image)
    is matched on its own detached row block (``_match_blocks`` builds one
    cost matrix for the whole call); the matches are always computed here,
    and no gradient flows through them. The layers are then
    stacked into one (L*B*N) row block, and the loss is five tape nodes
    whatever L, B and the G_b are: the two row stacks, the focal node, the
    box node and their sum. Matched queries take class target 1 at the
    ground-truth class; all other (query, class) targets are 0. Image b's
    terms are weighted by 1 / (B * max(G_b, 1)), which makes the total the
    mean over images of each image's loss normalized by its G. ``decode``
    gives at least one layer of B*N rows, and every ground-truth box has a
    positive width and height (a rendered box by construction, a loaded one
    by ``load_dataset``'s check), which keeps GIoU's union and hull areas
    positive.
    """
    n_images = len(targets)
    gts = [([int(c) for c in classes],
            np.asarray(boxes, dtype=np.float64).reshape(len(classes), 4))
           for classes, boxes in targets]
    image_weight = np.array([1.0 / (n_images * max(len(c), 1)) for c, _ in gts])

    sizes = [logits.shape[0] // n_images for logits, _ in per_layer_preds]
    matches = _match_blocks(per_layer_preds, gts, sizes, weights)
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
    return ad.add(focal, _box_node(all_boxes, rows, np.array(gt_rows).reshape(-1, 4),
                                   row_weight[rows], weights))
