"""Tests for matching and the detection objective.

Expected values come from independent oracles: direct formula evaluation in
the test body and exhaustive permutation search for the matcher.
"""

import itertools
import math

import numpy as np
import pytest

from mocadet import autodiff as ad
from mocadet import boxes as bx
from mocadet import losses as ls
from mocadet.errors import ValidationError


# -- focal ---------------------------------------------------------------


def _focal(logit, target, alpha=0.25, gamma=2.0):
    """The focal term of one logit through the loss's own (1 x 1) matrix path."""
    with ad.no_grad():
        return ls._focal_matrix(ad.tensor(np.array([[logit]])), np.array([[float(target)]]),
                                alpha, gamma).item()


def test_focal_reduces_to_weighted_ce_at_gamma_zero():
    # oracle: 0.5 * binary cross entropy at p=0.5 (logit 0), target=1 -> 0.5*ln2
    got = _focal(0.0, 1, alpha=0.5, gamma=0.0)
    assert abs(got - 0.5 * math.log(2.0)) < 1e-12


def test_focal_vanishes_for_confident_correct():
    assert _focal(20.0, 1) < 1e-6
    assert _focal(-20.0, 0) < 1e-6


def test_focal_direct_formula_point():
    # oracle: p = 0.9 (logit ln 9): 0.25 * (1-0.9)^2 * (-ln 0.9)
    expected = 0.25 * 0.01 * (-math.log(0.9))
    assert _focal(math.log(9.0), 1, alpha=0.25, gamma=2.0) == pytest.approx(expected, rel=1e-12)


def test_focal_handles_exact_zero_one_by_clamping():
    # the sigmoid saturates to exactly 0 and 1 here
    assert math.isfinite(_focal(-1000.0, 1))
    assert math.isfinite(_focal(1000.0, 0))


# -- giou ----------------------------------------------------------------


def _giou(a, b):
    return bx.giou(np.array([a], dtype=float), np.array([b], dtype=float))[0, 0]


def test_giou_identical_boxes():
    assert _giou([0, 0, 1, 1], [0, 0, 1, 1]) == pytest.approx(1.0, abs=1e-14)


def test_giou_disjoint_hand_value():
    # oracle: IoU 0; hull area 9, union 2 -> 0 - 7/9
    assert _giou([0, 0, 1, 1], [2, 2, 3, 3]) == pytest.approx(-7.0 / 9.0, abs=1e-12)


def test_giou_symmetric_and_bounded():
    rng = np.random.default_rng(5)
    lo = rng.uniform(0, 1, size=(50, 2, 2))
    hi = lo + rng.uniform(0.05, 1, size=(50, 2, 2))
    a = np.concatenate([lo[:, 0], hi[:, 0]], axis=1)
    b = np.concatenate([lo[:, 1], hi[:, 1]], axis=1)
    g = bx.giou(a, b)
    assert g.shape == (50, 50)
    assert np.allclose(g, bx.giou(b, a).T, rtol=0, atol=1e-12)
    assert np.all((-1.0 <= g) & (g <= 1.0))


def test_giou_rejects_degenerate():
    with pytest.raises(ValidationError):
        bx.giou(np.array([[0, 0, 0, 1.0]]), np.array([[0, 0, 1, 1.0]]))
    with pytest.raises(ValidationError):
        bx.giou(np.array([[0, 0, 1, 1.0]]), np.array([[0, 0.5, 1, 0.5]]))


# -- hungarian -----------------------------------------------------------


def _brute_force_min_cost(cost):
    """Exhaustive minimum assignment cost over all injective matchings."""
    n, g = cost.shape
    k = min(n, g)
    best = math.inf
    if n >= g:
        for rows in itertools.permutations(range(n), k):
            best = min(best, sum(cost[rows[j], j] for j in range(k)))
    else:
        for cols in itertools.permutations(range(g), k):
            best = min(best, sum(cost[i, cols[i]] for i in range(k)))
    return best


def test_hungarian_identity_diagonal():
    cost = np.full((4, 4), 10.0)
    np.fill_diagonal(cost, 0.0)
    assert ls.hungarian(cost) == [(0, 0), (1, 1), (2, 2), (3, 3)]


def test_hungarian_all_equal_lexicographic():
    assert ls.hungarian(np.ones((3, 3))) == [(0, 0), (1, 1), (2, 2)]
    # rectangular: 4 queries, 2 targets -> first queries matched in order
    assert ls.hungarian(np.ones((4, 2))) == [(0, 0), (1, 1)]


def test_hungarian_2x2_hand_case():
    # oracle: permutations of [[1,2],[3,1]] -> (0,0)+(1,1)=2 vs (0,1)+(1,0)=5
    pairs = ls.hungarian(np.array([[1.0, 2.0], [3.0, 1.0]]))
    assert pairs == [(0, 0), (1, 1)]
    assert sum((1.0, 1.0)) == 2.0


def test_hungarian_matches_brute_force_1000_seeded():
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        n = int(rng.integers(1, 8))
        g = int(rng.integers(1, 8))
        cost = rng.uniform(-5, 5, size=(n, g))
        pairs = ls.hungarian(cost)
        assert len(pairs) == min(n, g)
        assert len({q for q, _ in pairs}) == len(pairs)
        assert len({j for _, j in pairs}) == len(pairs)
        total = sum(cost[q, j] for q, j in pairs)
        assert total == pytest.approx(_brute_force_min_cost(cost), abs=1e-9), f"trial {trial}"


def test_hungarian_row_shift_invariance():
    rng = np.random.default_rng(77)
    cost = rng.uniform(0, 1, size=(6, 4))
    base = ls.hungarian(cost)
    shifted = cost.copy()
    shifted[2] += 3.3
    assert ls.hungarian(shifted) == base


def test_hungarian_rejects_non_finite():
    with pytest.raises(ValidationError):
        ls.hungarian(np.array([[1.0, np.inf], [0.0, 1.0]]))


# -- cost matrix ----------------------------------------------------------


def test_cost_matrix_perfect_prediction_is_cheapest():
    w = ls.LossWeights()
    gt_boxes = np.array([[0.5, 0.5, 0.2, 0.2]])
    probs = np.array([[0.999, 0.001], [0.5, 0.5], [0.001, 0.999]])
    boxes = np.array([[0.5, 0.5, 0.2, 0.2], [0.3, 0.7, 0.1, 0.4], [0.8, 0.2, 0.3, 0.1]])
    cost = ls.build_cost_matrix(probs, boxes, [0], gt_boxes, w)
    assert cost.shape == (3, 1)
    assert cost[0, 0] == cost[:, 0].min()


def test_cost_matrix_empty_targets():
    w = ls.LossWeights()
    cost = ls.build_cost_matrix(np.full((3, 2), 0.5), np.full((3, 4), 0.5), [], np.zeros((0, 4)), w)
    assert cost.shape == (3, 0)
    assert ls.hungarian(cost) == []


# -- detection loss --------------------------------------------------------


def _make_preds(logits, boxes_raw):
    """One layer of predictions; boxes go through sigmoid inside the tape."""
    lg = ad.param(np.asarray(logits, dtype=float))
    braw = ad.param(np.asarray(boxes_raw, dtype=float))
    return lg, braw


def test_detection_loss_perfect_predictions_near_zero():
    gt_classes = [1]
    gt_boxes = np.array([[0.5, 0.5, 0.25, 0.25]])
    logits = np.array([[-30.0, 30.0], [-30.0, -30.0]])
    # boxes: query 0 exactly on target, query 1 elsewhere
    boxes = np.array([[0.5, 0.5, 0.25, 0.25], [0.1, 0.1, 0.05, 0.05]])
    with ad.no_grad():
        loss = ls.detection_loss([(ad.tensor(logits), ad.tensor(boxes))],
                                 gt_classes, gt_boxes, ls.LossWeights())
    assert loss.item() < 1e-6


def test_detection_loss_empty_image_is_negative_focal_only():
    logits = np.array([[0.4, -0.3], [1.0, 0.2]])
    boxes = np.full((2, 4), 0.5)
    with ad.no_grad():
        loss = ls.detection_loss([(ad.tensor(logits), ad.tensor(boxes))],
                                 [], np.zeros((0, 4)), ls.LossWeights())
    # oracle: sum over entries of (1-alpha) * p^gamma * (-log(1-p))
    p = 1.0 / (1.0 + np.exp(-logits))
    expected = 2.0 * np.sum(0.75 * p ** 2 * (-np.log(1.0 - p)))
    assert loss.item() == pytest.approx(expected, rel=1e-10)


def test_detection_loss_single_pair_hand_composed():
    w = ls.LossWeights()
    logits = np.array([[1.3, -0.7]])
    boxes = np.array([[0.52, 0.48, 0.3, 0.22]])
    gt_boxes = np.array([[0.45, 0.5, 0.35, 0.3]])
    with ad.no_grad():
        loss = ls.detection_loss([(ad.tensor(logits), ad.tensor(boxes))],
                                 [0], gt_boxes, w)

    # independent composition with local formulas
    p = 1.0 / (1.0 + np.exp(-logits[0]))
    fl_pos = 0.25 * (1 - p[0]) ** 2 * (-math.log(p[0]))
    fl_neg = 0.75 * p[1] ** 2 * (-math.log(1 - p[1]))
    l1 = np.abs(boxes[0] - gt_boxes[0]).sum()

    def to_xyxy(b):
        return [b[0] - b[2] / 2, b[1] - b[3] / 2, b[0] + b[2] / 2, b[1] + b[3] / 2]

    a, b = to_xyxy(boxes[0]), to_xyxy(gt_boxes[0])
    iw = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    ih = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = iw * ih
    union = boxes[0][2] * boxes[0][3] + gt_boxes[0][2] * gt_boxes[0][3] - inter
    hull = (max(a[2], b[2]) - min(a[0], b[0])) * (max(a[3], b[3]) - min(a[1], b[1]))
    g = inter / union - (hull - union) / hull
    expected = w.w_focal * (fl_pos + fl_neg) + w.w_l1 * l1 + w.w_giou * (1 - g)
    assert loss.item() == pytest.approx(expected, rel=1e-10)


def test_detection_loss_nonnegative_random():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n, c, g = 5, 3, int(rng.integers(0, 4))
        logits = rng.normal(size=(n, c))
        boxes = rng.uniform(0.2, 0.8, size=(n, 4))
        gt_classes = rng.integers(0, c, size=g).tolist()
        gt_boxes = np.column_stack([rng.uniform(0.3, 0.7, size=(g, 2)),
                                    rng.uniform(0.1, 0.3, size=(g, 2))]) if g else np.zeros((0, 4))
        with ad.no_grad():
            loss = ls.detection_loss([(ad.tensor(logits), ad.tensor(boxes))],
                                     gt_classes, gt_boxes, ls.LossWeights())
        assert loss.item() >= 0.0


def test_detection_loss_gradient_check():
    rng = np.random.default_rng(31)
    n, c = 4, 3
    logits = ad.param(rng.normal(size=(n, c)))
    braw = ad.param(rng.normal(size=(n, 4)) * 0.5)
    gt_classes = [2, 0]
    gt_boxes = np.array([[0.4, 0.4, 0.3, 0.3], [0.7, 0.6, 0.2, 0.25]])
    w = ls.LossWeights()

    with ad.no_grad():
        base_boxes = ad.sigmoid(braw)
        probs = 1.0 / (1.0 + np.exp(-logits.data))
        cost = ls.build_cost_matrix(probs, base_boxes.data, gt_classes, gt_boxes, w)
    frozen = [ls.hungarian(cost)]

    def f():
        return ls.detection_loss([(logits, ad.sigmoid(braw))], gt_classes, gt_boxes,
                                 w, precomputed_matches=frozen)

    report = ad.grad_check(f, [("logits", logits), ("boxes_raw", braw)], h=1e-5, tol=1e-4)
    assert report.passed, report.per_param
