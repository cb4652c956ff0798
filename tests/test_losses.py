"""Tests for matching and the detection objective.

Expected values come from independent oracles: direct formula evaluation in
the test body and exhaustive permutation search for the matcher.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from mocadet import autodiff as ad
from mocadet import boxes as bx
from mocadet import evaluation as ev
from mocadet import losses as ls
from mocadet.detector import DetectorOutput
from mocadet.errors import ValidationError


# -- focal ---------------------------------------------------------------


def _focal(logit, target, alpha=0.25, gamma=2.0):
    """The focal term of one logit through the loss's own focal node."""
    with ad.no_grad():
        return ls._focal_node(ad.constant(np.array([[logit]])), np.array([[float(target)]]),
                              np.ones((1, 1)), alpha, gamma).item()


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


def test_sigmoid_never_returns_the_upper_clamp_bound():
    # the focal pullback masks only the clamp on p: 1 - p is clamped while p
    # is not only at p = 1 - 1e-12 exactly, and no logit gives that value.
    # Steps of 1e-7 move 1 + exp(-x) by about 1e-19, far below its spacing
    # of 2.2e-16, so the scan meets every value the sigmoid returns here.
    bound = 1.0 - 1e-12
    x = math.log(bound / 1e-12) + np.arange(-200_000, 200_000) * 1e-7
    with ad.no_grad():
        s = ad.sigmoid(ad.constant(x)).data
    assert s[0] < bound < s[-1] and np.all(np.diff(s) >= 0)
    assert not (s == bound).any()


def test_saturated_logits_raise_no_overflow_warning():
    # exp(1000) overflows, so the textbook 1 / (1 + exp(-x)) warns at -1000
    logits = ad.param(np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]))
    boxes = ad.param(np.array([[0.5, 0.5, 0.2, 0.2], [0.3, 0.3, 0.1, 0.1]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with ad.Tape():
            loss = ls.detection_loss([(logits, boxes)], [([0], boxes.data[:1])],
                                     ls.LossWeights())
            ad.backward(loss)
        dets = ev.detections_from_output(DetectorOutput(layers=[(logits, boxes)],
                                                        n_images=1), [0])
    assert np.isfinite(loss.item()) and np.all(np.isfinite(logits.grad))
    assert sorted(dets["score"]) == [0.0, 0.0, 1.0, 1.0]


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


def _scalar_lap(cost):
    """The column scan of ``_lap_rows_le_cols`` as scalar loops: first index wins ties."""
    n, m = cost.shape
    u, v = np.zeros(n + 1), np.zeros(m + 1)
    col_to_row = np.full(m + 1, n, dtype=int)
    way = np.zeros(m + 1, dtype=int)
    for i in range(n):
        col_to_row[m] = i
        j0 = m
        minv = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = col_to_row[j0]
            delta, j1 = np.inf, -1
            for j in range(m):
                if used[j]:
                    continue
                cur = cost[i0, j] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta, j1 = minv[j], j
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


def test_lap_matches_scalar_scan_3000_seeded():
    rng = np.random.default_rng(303)
    for trial in range(3000):
        n = int(rng.integers(1, 6))
        cost = rng.uniform(-3, 3, size=(n, int(rng.integers(n, 30))))
        if trial % 3 == 0:
            cost = np.round(cost)  # many ties
        if trial % 7 == 0:
            cost[:] = 0.0
        assert np.array_equal(ls._lap_rows_le_cols(cost), _scalar_lap(cost)), f"trial {trial}"


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
        loss = ls.detection_loss([(ad.constant(logits), ad.constant(boxes))],
                                 [(gt_classes, gt_boxes)], ls.LossWeights())
    assert loss.item() < 1e-6

    # two targets of different classes, two decoder layers with the queries
    # in opposite orders: each layer must match every query to its own target
    gt_classes = [1, 0]
    gt_boxes = np.array([[0.5, 0.5, 0.25, 0.25], [0.2, 0.7, 0.1, 0.3]])
    logits = np.array([[-30.0, 30.0], [30.0, -30.0], [-30.0, -30.0]])
    boxes = np.vstack([gt_boxes, [[0.8, 0.1, 0.05, 0.05]]])
    order = [1, 0, 2]
    layers = [(ad.constant(logits), ad.constant(boxes)),
              (ad.constant(logits[order]), ad.constant(boxes[order]))]
    with ad.no_grad():
        loss = ls.detection_loss(layers, [(gt_classes, gt_boxes)], ls.LossWeights())
    assert loss.item() < 1e-6


def test_detection_loss_empty_image_is_negative_focal_only():
    logits = np.array([[0.4, -0.3], [1.0, 0.2]])
    boxes = np.full((2, 4), 0.5)
    with ad.no_grad():
        loss = ls.detection_loss([(ad.constant(logits), ad.constant(boxes))],
                                 [([], np.zeros((0, 4)))], ls.LossWeights())
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
        loss = ls.detection_loss([(ad.constant(logits), ad.constant(boxes))],
                                 [([0], gt_boxes)], w)

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
            loss = ls.detection_loss([(ad.constant(logits), ad.constant(boxes))],
                                     [(gt_classes, gt_boxes)], ls.LossWeights())
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
        return ls.detection_loss([(logits, ad.sigmoid(braw))], [(gt_classes, gt_boxes)],
                                 w, precomputed_matches=[[m] for m in frozen])

    report = ad.grad_check(f, [("logits", logits), ("boxes_raw", braw)], h=1e-5, tol=1e-4)
    assert report.passed, report.per_param


def test_detection_loss_stacked_layers_equal_sum_of_single_layers():
    # layers of 3, 5 and 4 queries: each layer's rows start after the earlier ones
    rng = np.random.default_rng(17)
    w = ls.LossWeights()
    for g in (0, 1, 3):
        layers = [(ad.param(rng.normal(size=(n, 3))),
                   ad.param(rng.uniform(0.2, 0.8, size=(n, 4)))) for n in (3, 5, 4)]
        gt_classes = rng.integers(0, 3, size=g).tolist()
        gt_boxes = np.column_stack([rng.uniform(0.3, 0.7, size=(g, 2)),
                                    rng.uniform(0.1, 0.3, size=(g, 2))])
        results = []
        for stacked in (True, False):
            ad.zero_grad([t for layer in layers for t in layer])
            with ad.Tape():
                if stacked:
                    loss = ls.detection_loss(layers, [(gt_classes, gt_boxes)], w)
                else:
                    loss = sum(ls.detection_loss([layer], [(gt_classes, gt_boxes)], w)
                               for layer in layers)
                value = loss.item()
                ad.backward(loss)
            results.append((value, [t.grad.copy() for layer in layers for t in layer
                                    if t.grad is not None]))
        (v1, g1), (v2, g2) = results
        assert v1 == pytest.approx(v2, rel=1e-12)
        assert len(g1) == len(g2) == 6
        assert g or not any(a.any() for a in g1[1::2] + g2[1::2])  # no box gradient at G = 0
        for a, b in zip(g1, g2):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


def test_batched_detection_loss_equals_mean_of_single_image_losses():
    # B images as row blocks of every layer, one of them without ground truth
    rng = np.random.default_rng(23)
    w = ls.LossWeights()
    n, c, n_layers = 4, 3, 3
    for g_counts in ([2, 0, 1, 3], [0], [1, 1], [0, 0, 2]):
        b = len(g_counts)
        layers = [(ad.param(rng.normal(size=(b * n, c))),
                   ad.param(rng.uniform(0.2, 0.8, size=(b * n, 4)))) for _ in range(n_layers)]
        targets = [(rng.integers(0, c, size=g).tolist(),
                    np.column_stack([rng.uniform(0.3, 0.7, size=(g, 2)),
                                     rng.uniform(0.1, 0.3, size=(g, 2))])) for g in g_counts]
        params = [t for layer in layers for t in layer]
        results = []
        for batched in (True, False):
            ad.zero_grad(params)
            with ad.Tape():
                if batched:
                    loss = ls.detection_loss(layers, targets, w)
                else:
                    singles = [ls.detection_loss(
                        [(_rows_op(lg, range(i * n, (i + 1) * n)),
                          _rows_op(bx, range(i * n, (i + 1) * n))) for lg, bx in layers],
                        [target], w) for i, target in enumerate(targets)]
                    loss = ad.mul(sum(singles[1:], singles[0]), 1.0 / b)
                value = loss.item()
                ad.backward(loss)
            results.append((value, [t.grad for t in params]))
        (v1, g1), (v2, g2) = results
        assert [a is None for a in g1] == [a is None for a in g2]
        g1, g2 = [a for a in g1 if a is not None], [a for a in g2 if a is not None]
        assert v1 == pytest.approx(v2, rel=1e-12)
        for a, b_ in zip(g1, g2):
            assert np.allclose(a, b_, rtol=1e-12, atol=1e-15)


def test_one_cost_matrix_gives_the_matches_of_per_block_cost_matrices(monkeypatch):
    """Matching from one cost matrix per call equals matching each (layer,
    image) on its own cost matrix: value and every gradient bitwise. The
    layers have 5, 3 and 4 rows per image."""
    rng = np.random.default_rng(41)
    w = ls.LossWeights()
    c, sizes = 4, (5, 3, 4)
    real = ls.build_cost_matrix
    for g_counts in ([0, 1, 3], [3, 1, 1, 2], [1], [0, 0]):
        b = len(g_counts)
        layers = [(ad.param(rng.normal(size=(b * n, c))),
                   ad.param(rng.uniform(0.2, 0.8, size=(b * n, 4)))) for n in sizes]
        targets = [(rng.integers(0, c, size=g).tolist(),
                    np.column_stack([rng.uniform(0.3, 0.7, size=(g, 2)),
                                     rng.uniform(0.1, 0.3, size=(g, 2))])) for g in g_counts]
        per_block = []
        for (logits, boxes), n in zip(layers, sizes):
            probs = 1.0 / (1.0 + np.exp(-logits.data))
            per_block.append([
                ls.hungarian(real(probs[i * n:(i + 1) * n], boxes.data[i * n:(i + 1) * n],
                                  classes, gt, w)) if classes else []
                for i, (classes, gt) in enumerate(targets)])
        params = [t for layer in layers for t in layer]
        calls = []
        monkeypatch.setattr(ls, "build_cost_matrix", lambda *a: calls.append(a) or real(*a))
        results = []
        for matches in (None, per_block):
            ad.zero_grad(params)
            with ad.Tape():
                loss = ls.detection_loss(layers, targets, w, precomputed_matches=matches)
                value = loss.item()
                ad.backward(loss)
            results.append((value, [t.grad for t in params]))
        monkeypatch.undo()
        assert len(calls) == (1 if any(g_counts) else 0)
        (v1, g1), (v2, g2) = results
        assert v1 == v2
        assert all(np.array_equal(a, b_) for a, b_ in zip(g1, g2))


def test_detection_loss_rejects_truth_without_area():
    # GIoU divides by the union and hull areas, which a true box of positive
    # size keeps positive; matches are given, so no cost matrix checks it
    layer = (ad.constant(np.zeros((2, 2))), ad.constant(np.full((2, 4), 0.5)))
    for box in ([0.5, 0.5, 0.0, 0.2], [0.5, 0.5, 0.2, -0.1]):
        with pytest.raises(ValidationError), ad.no_grad():
            ls.detection_loss([layer], [([0], np.array([box]))], ls.LossWeights(),
                              precomputed_matches=[[[(0, 0)]]])


def test_detection_loss_rejects_rows_that_do_not_split_into_images():
    layer = (ad.constant(np.zeros((5, 2))), ad.constant(np.full((5, 4), 0.5)))
    with pytest.raises(ValidationError), ad.no_grad():
        ls.detection_loss([layer], [([], np.zeros((0, 4)))] * 2, ls.LossWeights())


# -- the composed loss, kept as the oracle of the fused nodes ---------------
# Before the loss became two fused nodes it was a graph of elementwise tape
# ops. These are those ops, each one node with the pullback it had then.


def _clip_op(a, lo, hi):
    mask = (a.data >= lo) & (a.data <= hi)
    return ad.node(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))


def _pow_op(a, exponent):
    return ad.node(a.data ** exponent, (a,),
                   lambda g: (g * exponent * a.data ** (exponent - 1.0),))


def _log_op(a):
    return ad.node(np.log(a.data), (a,), lambda g: (g / a.data,))


def _neg_op(a):
    return ad.node(-a.data, (a,), lambda g: (-g,))


def _abs_op(a):
    sign = np.sign(a.data)
    return ad.node(np.abs(a.data), (a,), lambda g: (g * sign,))


def _min_op(a, b):
    take_a = a.data <= b.data  # ties route the gradient to a
    return ad.node(np.minimum(a.data, b.data), (a, b), lambda g: (g * take_a, g * ~take_a))


def _max_op(a, b):
    take_a = a.data >= b.data
    return ad.node(np.maximum(a.data, b.data), (a, b), lambda g: (g * take_a, g * ~take_a))


def _div_op(a, b):
    return ad.node(a.data / b.data, (a, b),
                   lambda g: (g / b.data, -g * a.data / (b.data * b.data)))


def _col_op(a, j):
    def pullback(g):
        full = np.zeros_like(a.data)
        full[:, j:j + 1] = g
        return (full,)

    return ad.node(a.data[:, j:j + 1].copy(), (a,), pullback)


def _rows_op(a, rows):
    rows = list(rows)

    def pullback(g):
        full = np.zeros_like(a.data)
        np.add.at(full, rows, g)
        return (full,)

    return ad.node(a.data[rows], (a,), pullback)


def _one_minus(a):
    return ad.sub(ad.constant(np.ones(a.shape)), a)


def _composed_focal(logits, targets, alpha, gamma, weights):
    p = _clip_op(ad.sigmoid(logits), 1e-12, 1.0 - 1e-12)
    one_minus_p = _clip_op(_one_minus(p), 1e-12, 1.0)
    pos_w = ad.constant(alpha * weights * targets)
    neg_w = ad.constant((1.0 - alpha) * weights * (1.0 - targets))
    pos = ad.mul(ad.mul(_pow_op(one_minus_p, gamma), _neg_op(_log_op(p))), pos_w)
    neg = ad.mul(ad.mul(_pow_op(p, gamma), _neg_op(_log_op(one_minus_p))), neg_w)
    return ad.sum_all(pos + neg)


def _composed_giou(boxes_a, boxes_b):
    def split(b):
        cx, cy, w, h = (_col_op(b, j) for j in range(4))
        return (cx - w * 0.5, cy - h * 0.5, cx + w * 0.5, cy + h * 0.5)

    ax1, ay1, ax2, ay2 = split(boxes_a)
    bx1, by1, bx2, by2 = split(boxes_b)
    iw = ad.relu(_min_op(ax2, bx2) - _max_op(ax1, bx1))
    ih = ad.relu(_min_op(ay2, by2) - _max_op(ay1, by1))
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    hull = (_max_op(ax2, bx2) - _min_op(ax1, bx1)) * (_max_op(ay2, by2) - _min_op(ay1, by1))
    return _div_op(inter, union) - _div_op(hull - union, hull)


def _composed_loss(layers, targets, w, matches):
    """``detection_loss`` with ``precomputed_matches=matches``, assembled from
    the elementwise ops above."""
    n_images = len(targets)
    sizes = [lg.shape[0] // n_images for lg, _ in layers]
    rows, cls, gt_rows, offset = [], [], [], 0
    for li, n in enumerate(sizes):
        for b, (classes, gt_boxes) in enumerate(targets):
            rows += [offset + b * n + q for q, _ in matches[li][b]]
            cls += [classes[j] for _, j in matches[li][b]]
            gt_rows += [gt_boxes[j] for _, j in matches[li][b]]
        offset += n * n_images
    image_weight = np.array([1.0 / (n_images * max(len(c), 1)) for c, _ in targets])
    row_weight = np.concatenate([np.repeat(image_weight, n) for n in sizes])[:, None]
    all_logits = ad.concat_rows([lg for lg, _ in layers])
    all_boxes = ad.concat_rows([bx for _, bx in layers])
    target = np.zeros(all_logits.shape)
    target[rows, cls] = 1.0
    total = _composed_focal(all_logits, target, w.alpha, w.gamma, w.w_focal * row_weight)
    if rows:
        rw = row_weight[rows]
        mb = _rows_op(all_boxes, rows)
        gb = ad.constant(np.array(gt_rows))
        l1 = ad.sum_all(ad.mul(_abs_op(ad.sub(mb, gb)), np.repeat(w.w_l1 * rw, 4, axis=1)))
        giou_term = ad.sum_all(ad.mul(_one_minus(_composed_giou(mb, gb)), w.w_giou * rw))
        total = total + l1 + giou_term
    return total


def _oracle_case(rng, case):
    """(layers, targets, weights) of one seeded batch: 1-3 layers, 1-3 images
    of G = 0, 1 or 3 objects; every fourth case has logits of +-30 and every
    fourth +-1000 (both clamps active), every third has matched predictions
    on exactly their truth boxes, and every fifth puts all boxes on a 1/16
    grid, so predicted and true corners tie."""
    n_layers, n_images = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    n, c = int(rng.integers(3, 7)), int(rng.integers(1, 5))
    targets = []
    for _ in range(n_images):
        g = int(rng.choice([0, 1, 3]))
        targets.append((rng.integers(0, c, size=g).tolist(),
                        np.column_stack([rng.uniform(0.3, 0.7, size=(g, 2)),
                                         rng.uniform(0.1, 0.3, size=(g, 2))])))
    layers = []
    for _ in range(n_layers):
        logits = rng.normal(size=(n_images * n, c)) * 2.0
        if case % 4 >= 2:
            big = 30.0 if case % 4 == 2 else 1000.0
            logits = rng.choice([-big, big, -0.5, 0.5], size=logits.shape)
        boxes = np.column_stack([rng.uniform(0.2, 0.8, size=(n_images * n, 2)),
                                 rng.uniform(0.05, 0.4, size=(n_images * n, 2))])
        if case % 3 == 0:
            for b, (classes, gt_boxes) in enumerate(targets):
                boxes[b * n:b * n + len(classes)] = gt_boxes
        layers.append([logits, boxes])
    if case % 5 == 0:
        layers = [[lg, np.round(bx * 16) / 16] for lg, bx in layers]
        targets = [(classes, np.round(gt_boxes * 16) / 16) for classes, gt_boxes in targets]
    weights = ls.LossWeights(alpha=float(rng.uniform(0.1, 0.9)),
                             gamma=float(rng.choice([0.0, 1.0, 2.0, 2.5])))
    return layers, targets, weights


def test_fused_loss_equals_composed_graph():
    """The two fused nodes against the composed graph they replace: value and
    every gradient within rtol 1e-12, on 300 seeded batches."""
    rng = np.random.default_rng(2026)
    for case in range(300):
        layers, targets, w = _oracle_case(rng, case)
        n_images = len(targets)
        matches = []
        for logits, boxes in layers:
            n = len(logits) // n_images
            probs = 1.0 / (1.0 + np.exp(-np.clip(logits, -700, 700)))
            matches.append([ls.hungarian(ls.build_cost_matrix(
                probs[b * n:(b + 1) * n], boxes[b * n:(b + 1) * n], classes, gt, w))
                if classes else [] for b, (classes, gt) in enumerate(targets)])
        results = []
        for loss_fn in (ls.detection_loss, _composed_loss):
            params = [ad.param(a) for layer in layers for a in layer]
            with ad.Tape():
                loss = loss_fn(list(zip(params[::2], params[1::2])), targets, w, matches)
                ad.backward(loss)
            results.append([loss.data] + [np.zeros(p.shape) if p.grad is None else p.grad
                                          for p in params])
        for got, want in zip(*results):
            assert np.allclose(got, want, rtol=1e-12, atol=0), f"case {case}"
