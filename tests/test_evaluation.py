"""Tests for the COCO-style evaluator, checked against an independent
brute-force PR implementation written with plain loops below."""

import math

import numpy as np
import pytest

from mocadet import autodiff as ad
from mocadet import boxes as bx
from mocadet import evaluation as ev
from mocadet.data import Annotation, Sample
from mocadet.detector import DetectorOutput
from mocadet.errors import ShapeError, ValidationError


def _sample(sid, boxes_classes, modality=0):
    anns = [Annotation(box=b, class_id=c).validate() for b, c in boxes_classes]
    return Sample(image=np.zeros((4, 4)), modality_id=modality, annotations=anns,
                  sample_id=sid)


def _det(sid, cid, box, score):
    """One detection on the sample named ``sid``, as a plain tuple."""
    return sid, cid, box, score


def _array(dets, samples):
    """The ``DETECTION`` array of ``_det`` tuples, ``image`` indexing ``samples``."""
    index = {s.sample_id: i for i, s in enumerate(samples)}
    return np.array([(index[sid], cid, box, score) for sid, cid, box, score in dets],
                    dtype=ev.DETECTION).reshape(-1)


def _report(dets, samples, n_classes, modality_names=(), class_modality=None):
    """``ap_report`` of ``_det`` tuples; by default every class is modality
    0 and no modality is named, so ``per_modality`` is empty."""
    return ev.ap_report(_array(dets, samples), samples, n_classes, modality_names,
                        [0] * n_classes if class_modality is None else class_modality)


# -- iou -------------------------------------------------------------------


def _iou(a, b):
    return bx.iou(np.array([a], dtype=float), np.array([b], dtype=float))[0, 0]


def test_iou_cases():
    assert _iou([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    assert _iou([0, 0, 1, 1], [2, 2, 3, 3]) == 0.0
    # oracle: inter 1x2=2, union 4+4-2=6
    assert _iou([0, 0, 2, 2], [1, 0, 3, 2]) == pytest.approx(2 / 6, abs=1e-12)
    with pytest.raises(ValidationError):
        _iou([0, 0, 0, 1], [0, 0, 1, 1])
    with pytest.raises(ShapeError):
        bx.iou(np.array([0, 0, 1, 1.0]), np.array([[0, 0, 1, 1.0]]))
    # pairwise layout: (N, 4) x (G, 4) -> (N, G), empty sides allowed
    got = bx.iou(np.array([[0, 0, 2, 2], [0, 0, 1, 1.0]]),
                 np.array([[1, 0, 3, 2], [0, 0, 1, 1], [5, 5, 6, 6.0]]))
    assert np.allclose(got, [[2 / 6, 1 / 4, 0], [0, 1, 0]], rtol=0, atol=1e-12)
    assert bx.iou(np.zeros((0, 4)), np.array([[0, 0, 1, 1.0]])).shape == (0, 1)


# -- greedy matching ---------------------------------------------------------


def _match(det_boxes, gt_boxes, gt_ignore=None):
    """Flags at every COCO threshold for cxcywh detections in rank order,
    matched for one area range."""
    ious = bx.iou(bx.cxcywh_to_xyxy(det_boxes), bx.cxcywh_to_xyxy(gt_boxes))
    ignore = [False] * len(gt_boxes) if gt_ignore is None else gt_ignore
    return ev.greedy_match(ious, [ignore])[:, 0].tolist()


def test_match_basic_tp():
    # IoU 0.63: a match up to the .60 threshold only
    flags = _match([(0.5, 0.5, 0.9, 0.7)], [(0.5, 0.5, 1.0, 1.0)])
    assert flags == [[1, 1, 1, 0, 0, 0, 0, 0, 0, 0]]
    # non-ignored truth is preferred even at a lower IoU; the next detection
    # then takes the ignored truth and is flagged -1
    gts = [(0.5, 0.5, 0.5, 0.5), (0.5, 0.5, 0.6, 0.6)]
    flags = _match([(0.5, 0.5, 0.5, 0.5), (0.5, 0.5, 0.5, 0.5)], gts, [True, False])
    assert [row[0] for row in flags] == [1, -1]
    # det 1 has IoU 0.6 with both truths and takes the first; det 2 overlaps
    # only the second (IoU 0.6), so it matches too
    flags = _match([(0.5, 0.5, 0.5, 0.5), (0.75, 0.5, 0.5, 0.5)],
                   [(0.375, 0.5, 0.5, 0.5), (0.625, 0.5, 0.5, 0.5)])
    assert flags == [[1, 1, 1, 0, 0, 0, 0, 0, 0, 0]] * 2


def test_two_detections_one_gt():
    flags = _match([(0.5, 0.5, 1.0, 1.0), (0.5, 0.5, 0.9, 0.9)], [(0.5, 0.5, 1.0, 1.0)])
    assert flags == [[1] * 10, [0] * 10]


def test_iou_exactly_at_threshold_is_tp():
    # det (0,0,1,1) vs gt (0,0,1,0.5): IoU exactly 0.5
    flags = _match([(0.5, 0.5, 1.0, 1.0)], [(0.5, 0.25, 1.0, 0.5)])
    assert flags == [[1, 0, 0, 0, 0, 0, 0, 0, 0, 0]]


def test_greedy_match_of_stacked_ranges_equals_one_range_at_a_time():
    # IoUs on a coarse grid, so ties and on-threshold values occur
    rng = np.random.default_rng(7)
    for _ in range(300):
        d, g, a = (int(v) for v in rng.integers([0, 0, 1], [9, 7, 5]))
        ious = rng.choice([0.0, 0.3, 0.5, 0.55, 0.6, 0.75, 0.9, 1.0], size=(d, g))
        ignore = rng.uniform(size=(a, g)) < 0.4
        got = ev.greedy_match(ious, ignore)
        assert got.shape == (d, a, len(ev.COCO_THRESHOLDS)) and got.dtype == np.int8
        want = np.stack([ev.greedy_match(ious, ignore[k:k + 1])[:, 0] for k in range(a)],
                        axis=1)
        assert np.array_equal(got, want)


# -- average precision --------------------------------------------------------


def _ap_loop(tp_flags, n_gt, tol=1e-12):
    """The scalar 101-point AP loop over one column of kept (0/1) flags,
    walking the envelope and the recall points one element at a time: the
    oracle for the column-wise ``average_precision``."""
    if n_gt == 0:
        return None
    flags = np.asarray(tp_flags, dtype=np.float64)
    if flags.size == 0:
        return 0.0
    tp = np.cumsum(flags)
    fp = np.cumsum(1.0 - flags)
    recall = tp / n_gt
    precision = tp / np.maximum(tp + fp, 1e-12)
    for i in range(precision.size - 2, -1, -1):
        precision[i] = max(precision[i], precision[i + 1])
    out = 0.0
    idx = 0
    for r in np.linspace(0.0, 1.0, 101):
        while idx < recall.size and recall[idx] < r - tol:
            idx += 1
        out += precision[idx] if idx < recall.size else 0.0
    return out / 101.0


def _random_flag_matrices(seed, count):
    """(flags, n_gt) pairs: (D, 10) matrices of -1/0/1 with varied shares,
    empty matrices, all-ignored columns and n_gt = 0 among them."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = int(rng.integers(0, 60)) if i % 10 else 0
        flags = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(d, 10),
                           p=rng.dirichlet(np.ones(3)))
        flags[:, rng.uniform(size=10) < 0.1] = -1
        n_tp = int((flags == 1).sum(axis=0).max(initial=0))
        n_gt = 0 if i % 17 == 0 else n_tp + int(rng.integers(0 if n_tp else 1, 6))
        yield flags, n_gt


def _as_bytes(aps):
    return np.asarray(aps, dtype=np.float64).tobytes()


def test_average_precision_matches_scalar_loop_bitwise():
    for flags, n_gt in _random_flag_matrices(seed=0, count=2000):
        want = [_ap_loop(col[col >= 0], n_gt) for col in flags.T]
        got = ev.average_precision(flags, n_gt)
        if n_gt == 0:
            assert got is None and ev.average_precision(flags[:, :1], n_gt) is None
            continue
        assert _as_bytes(got) == _as_bytes(want), (flags.tolist(), n_gt)
        # a (D, 1) column is the one-column case and returns a list of one float
        one = ev.average_precision(flags[:, 3:4], n_gt)
        assert isinstance(one[0], float) and _as_bytes(one) == _as_bytes(want[3:4])


def test_average_precision_recall_on_a_point_reaches_it(monkeypatch):
    # with recall points at exact fractions, a recall equal to a point must
    # count as reaching it; n_gt of 2, 4, 5, ... puts recalls on the points
    monkeypatch.setattr(ev, "_RECALL_PTS", np.linspace(0.0, 1.0, 101))
    rng = np.random.default_rng(1)
    hits = 0
    for _ in range(300):
        n_gt = int(rng.choice([2, 4, 5, 10, 20]))
        flags = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(30, 10),
                           p=[0.2, 0.4, 0.4])
        flags[np.cumsum(flags == 1, axis=0) > n_gt] = 0
        want = [_ap_loop(col[col >= 0], n_gt, tol=0.0) for col in flags.T]
        assert _as_bytes(ev.average_precision(flags, n_gt)) == _as_bytes(want)
        hits += want != [_ap_loop(col[col >= 0], n_gt, tol=-1e-12) for col in flags.T]
    assert hits > 0  # the cases do put recalls exactly on points


def test_average_precision_of_many_matrices_in_one_call_equals_one_at_a_time(monkeypatch):
    # seeded sets of flag matrices, each with its own n_gt, length and width,
    # empty ones, n_gt = 0 and all-ignored columns among them; scored once
    # with the recall points as they are and once at exact fractions, where
    # recalls fall on points
    cases = list(_random_flag_matrices(seed=3, count=400))
    cases += [(m[:, :4], n) for m, n in _random_flag_matrices(seed=4, count=100)]
    rng = np.random.default_rng(5)
    for n_gt in (2, 4, 5, 10, 20):
        flags = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(30, 10))
        flags[np.cumsum(flags == 1, axis=0) > n_gt] = 0
        cases.append((flags, n_gt))
    for points in (ev._RECALL_PTS, np.linspace(0.0, 1.0, 101)):
        monkeypatch.setattr(ev, "_RECALL_PTS", points)
        tol = 1e-12 if points[0] < 0 else 0.0
        for _ in range(30):
            picked = [cases[i] for i in rng.choice(len(cases), size=int(rng.integers(1, 60)))]
            got = ev.average_precision([m for m, _ in picked], [n for _, n in picked])
            assert len(got) == len(picked)
            for aps, (flags, n_gt) in zip(got, picked):
                one = ev.average_precision(flags, n_gt)
                if n_gt == 0:
                    assert aps is one is None
                    continue
                assert _as_bytes(aps) == _as_bytes(one)
                assert _as_bytes(aps) == _as_bytes([_ap_loop(col[col >= 0], n_gt, tol)
                                                    for col in flags.T])


def _column(flags):
    return np.array(flags, dtype=np.int8).reshape(-1, 1)


def test_average_precision_degenerate_cases():
    assert ev.average_precision(_column([]), 3) == [0.0]
    assert ev.average_precision(_column([1]), 1) == [pytest.approx(1.0)]
    assert ev.average_precision(_column([]), 0) is None
    assert ev.average_precision(_column([-1, -1]), 2) == [0.0]
    assert ev.average_precision(np.zeros((0, 10), dtype=np.int8), 3) == [0.0] * 10
    assert ev.average_precision(_column([-1, 1, 0, 1]), 2) == \
        ev.average_precision(_column([1, 0, 1]), 2)


def test_perfect_single_detection_full_report():
    samples = [_sample("a", [((0.5, 0.5, 0.5, 0.5), 0)])]
    dets = [_det("a", 0, (0.5, 0.5, 0.5, 0.5), 0.9)]
    rep = _report(dets, samples, n_classes=1)
    assert rep.ap == pytest.approx(1.0)
    assert rep.ap50 == pytest.approx(1.0)
    assert rep.ap75 == pytest.approx(1.0)


def test_iou_06_threshold_enumeration():
    # IoU of det vs gt is exactly 0.6: TP at thresholds .50/.55/.60 only
    samples = [_sample("a", [((0.5, 0.5, 1.0, 1.0), 0)])]
    dets = [_det("a", 0, (0.5, 0.3, 1.0, 0.6), 0.9)]
    rep = _report(dets, samples, n_classes=1)
    assert rep.ap == pytest.approx(0.30, abs=1e-9)


def test_non_finite_detection_box_rejected():
    samples = [_sample("a", [((0.5, 0.5, 0.5, 0.5), 0)])]
    for box in [(np.nan, 0.5, 0.5, 0.5), (0.5, -np.inf, 0.5, 0.5),
                (0.5, 0.5, np.inf, 0.5), (0.5, 0.5, 0.5, np.nan)]:
        with pytest.raises(ValidationError):
            _report([_det("a", 0, box, 0.9)], samples, n_classes=1)
    good = _array([_det("a", 0, (0.5, 0.5, 0.5, 0.5), 0.9)], samples)
    # a non-finite score and an empty box
    for field, value in (("score", np.nan), ("score", np.inf), ("box", (0.5, 0.5, 0.0, 0.5)),
                         ("box", (0.5, 0.5, 0.5, -0.1))):
        bad = good.copy()
        bad[field] = value
        with pytest.raises(ValidationError):
            ev.ap_report(bad, samples, 1, [], [0])
    # an image index outside the samples
    for image in (1, -1):
        bad = good.copy()
        bad["image"] = image
        with pytest.raises(ValidationError):
            ev.ap_report(bad, samples, 1, [], [0])
    # anything but a 1-d DETECTION array
    other = np.dtype([("image", np.int64), ("class_id", np.int64),
                      ("box", np.float64, (4,)), ("score", np.float32)])
    for dets in ([(0, 0, (0.5, 0.5, 0.5, 0.5), 0.9)], good.tolist(), good.astype(other),
                 np.zeros((1, 6)), good.reshape(1, 1)):
        with pytest.raises(ValidationError):
            ev.ap_report(dets, samples, 1, [], [0])
    ev.ap_report(good, samples, 1, [], [0])


def test_class_id_outside_the_class_range_rejected():
    # 100 better-scored detections of class 2 would fill the 100-per-image cut
    samples = [_sample("a", [((0.5, 0.5, 0.5, 0.5), 0)])]
    exact = _det("a", 0, (0.5, 0.5, 0.5, 0.5), 0.5)
    assert _report([exact], samples, n_classes=2).ap50 == 1.0
    for cid in (-1, 2, 4):
        with pytest.raises(ValidationError):
            _report([_det("a", cid, (0.3, 0.3, 0.2, 0.2), 0.9)] * 100 + [exact], samples,
                    n_classes=2)
    for cid in (-1, 2):
        bad = [_sample("a", [((0.5, 0.5, 0.5, 0.5), 0), ((0.3, 0.3, 0.2, 0.2), cid)])]
        with pytest.raises(ValidationError):
            _report([exact], bad, n_classes=2)


def test_no_detections_zero_ap():
    samples = [_sample("a", [((0.5, 0.5, 0.5, 0.5), 0)])]
    rep = ev.ap_report(np.zeros(0, dtype=ev.DETECTION), samples, 1, [], [0])
    assert rep.ap == 0.0


# -- independent reference implementation -------------------------------------


def _ref_iou_cxcywh(a, b):
    ax1, ay1, ax2, ay2 = a[0] - a[2] / 2, a[1] - a[3] / 2, a[0] + a[2] / 2, a[1] + a[3] / 2
    bx1, by1, bx2, by2 = b[0] - b[2] / 2, b[1] - b[3] / 2, b[0] + b[2] / 2, b[1] + b[3] / 2
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


_REF_SMALL, _REF_MEDIUM = (32 / 640) ** 2, (96 / 640) ** 2
_REF_AREAS = {None: (0.0, math.inf), "small": (0.0, _REF_SMALL),
              "medium": (_REF_SMALL, _REF_MEDIUM), "large": (_REF_MEDIUM, math.inf)}


def _ref_cells(dets, samples, n_classes, area=None, modality=None):
    """(class, threshold index) -> AP over the images of ``modality`` (all
    if None), with truth outside ``area`` ignored; ``dets`` is a
    ``DETECTION`` array read one record at a time."""
    lo, hi = _REF_AREAS[area]
    thr_list = [round(0.5 + 0.05 * i, 2) for i in range(10)]
    images = [s for s in samples if modality is None or s.modality_id == modality]
    results = {}
    for c in range(n_classes):
        for t_i, thr in enumerate(thr_list):
            n_gt = sum(1 for s in images for a in s.annotations
                       if a.class_id == c and lo <= a.box[2] * a.box[3] < hi)
            if n_gt == 0:
                results[(c, t_i)] = None
                continue
            ranked = []
            for s in images:
                img_dets = [(k, d) for k, d in enumerate(dets)
                            if samples[d["image"]].sample_id == s.sample_id
                            and d["class_id"] == c]
                img_dets.sort(key=lambda kd: -kd[1]["score"])
                matched = set()
                gts = [a.box for a in s.annotations if a.class_id == c]
                for rank, (k, d) in enumerate(img_dets):
                    # best untaken truth with IoU >= thr, first on ties;
                    # truth inside the area range before ignored truth
                    pick = {}
                    for j, g in enumerate(gts):
                        v = _ref_iou_cxcywh(d["box"], g)
                        inside = lo <= g[2] * g[3] < hi
                        if j in matched or v < thr:
                            continue
                        if inside not in pick or v > pick[inside][1]:
                            pick[inside] = (j, v)
                    if True in pick:
                        matched.add(pick[True][0])
                        ranked.append((-d["score"], str(s.sample_id), rank, 1))
                    elif False in pick:
                        matched.add(pick[False][0])  # ignored: dropped from the ranking
                    else:
                        ranked.append((-d["score"], str(s.sample_id), rank, 0))
            ranked.sort(key=lambda r: r[:3])
            tps = [r[3] for r in ranked]
            # explicit PR + 101-pt interpolation
            precisions, recalls = [], []
            tp = fp = 0
            for f in tps:
                tp += f
                fp += 1 - f
                precisions.append(tp / (tp + fp))
                recalls.append(tp / n_gt)
            ap_sum = 0.0
            for ri in range(101):
                r = ri / 100.0
                best_p = 0.0
                for p, rr in zip(precisions, recalls):
                    if rr >= r - 1e-12 and p > best_p:
                        best_p = p
                ap_sum += best_p
            results[(c, t_i)] = ap_sum / 101.0
    return results


def _ref_report(dets, samples, n_classes, modality_names=(), class_modality=None):
    """Brute-force PR evaluation, structured differently from the library."""

    def mean(vals):
        vals = [v for v in vals if v is not None]
        return sum(vals) / len(vals) if vals else None

    classes = range(n_classes)
    cells = _ref_cells(dets, samples, n_classes)
    out = {
        "ap": mean([cells[(c, t)] for c in classes for t in range(10)]),
        "ap50": mean([cells[(c, 0)] for c in classes]),
        "ap75": mean([cells[(c, 5)] for c in classes]),
        "per_class": {str(c): {"ap": mean([cells[(c, t)] for t in range(10)]),
                               "ap50": cells[(c, 0)]} for c in classes},
        "per_modality": {},
    }
    for area in ("small", "medium", "large"):
        area_cells = _ref_cells(dets, samples, n_classes, area=area)
        out[f"ap_{area}"] = mean(list(area_cells.values()))
    for mi, name in enumerate(modality_names):
        mod_cells = _ref_cells(dets, samples, n_classes, modality=mi)
        mine = [c for c in classes if class_modality[c] == mi]
        out["per_modality"][name] = {
            "ap": mean([mod_cells[(c, t)] for c in mine for t in range(10)]),
            "ap50": mean([mod_cells[(c, 0)] for c in mine])}
    return out


def _assert_reports_close(got, want):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want)
        for k in want:
            _assert_reports_close(got[k], want[k])
    elif want is None:
        assert got is None
    else:
        assert got == pytest.approx(want, abs=1e-12)


def _random_fixture(seed):
    """Boxes on a 1/128 grid, so every IoU is a correctly rounded quotient of
    exact areas and detections sit on, just above or just below thresholds;
    scores repeat so ties occur within and across images."""
    rng = np.random.default_rng(seed)
    u = 1.0 / 128
    n_classes = int(rng.integers(1, 4))
    samples, dets = [], []
    for i in range(int(rng.integers(2, 6))):
        sid = f"img{i}"
        anns = []
        for _ in range(int(rng.integers(0, 5))):
            w, h = (2 * int(rng.choice([3, 6, 10, 20, 30])) * u for _ in range(2))
            cx = int(rng.integers(w / u / 2 + 1, 128 - w / u / 2)) * u
            cy = int(rng.integers(h / u / 2 + 1, 128 - h / u / 2)) * u
            anns.append(((cx, cy, w, h), int(rng.integers(0, n_classes))))
        samples.append(_sample(sid, anns, modality=int(rng.integers(0, 2))))
        for _ in range(int(rng.integers(0, 9))):
            if anns and rng.uniform() < 0.75:
                (cx, cy, w, h), c = anns[int(rng.integers(len(anns)))]
                # width scaled to IoU k/20 with the truth, then nudged
                k = int(rng.integers(9, 21))
                wd = max(2 * round(w / u * k / 40), 2) * u
                cx += int(rng.integers(-1, 2)) * u
                if rng.uniform() < 0.15:
                    c = int(rng.integers(0, n_classes))
                box = (cx, cy, wd, h)
            else:
                box = tuple(int(v) * u for v in rng.integers(8, 120, size=2)) + \
                      tuple(2 * int(v) * u for v in rng.integers(1, 20, size=2))
                c = int(rng.integers(0, n_classes))
            score = float(rng.choice([0.2, 0.5, 0.9])) if rng.uniform() < 0.5 \
                else float(rng.uniform())
            dets.append(_det(sid, c, box, score))
    class_modality = [int(rng.integers(0, 2)) for _ in range(n_classes)]
    return samples, dets, n_classes, class_modality


def _three_image_fixture():
    samples = [
        _sample("im1", [((0.3, 0.3, 0.2, 0.2), 0), ((0.7, 0.7, 0.2, 0.2), 0)]),
        _sample("im2", [((0.5, 0.5, 0.4, 0.4), 1)]),
        _sample("im3", []),
    ]
    dets = [
        _det("im1", 0, (0.31, 0.3, 0.2, 0.2), 0.92),   # high IoU on first gt
        _det("im1", 0, (0.62, 0.66, 0.22, 0.2), 0.81),  # moderate IoU on second
        _det("im1", 0, (0.1, 0.9, 0.2, 0.2), 0.40),     # FP
        _det("im2", 1, (0.5, 0.55, 0.4, 0.36), 0.66),   # mid IoU
        _det("im2", 0, (0.5, 0.5, 0.3, 0.3), 0.70),     # wrong class FP
        _det("im3", 1, (0.5, 0.5, 0.2, 0.2), 0.55),     # FP on empty image
    ]
    return samples, dets


def test_report_matches_independent_reference():
    samples, dets = _three_image_fixture()
    rep = _report(dets, samples, n_classes=2)
    ref = _ref_report(_array(dets, samples), samples, n_classes=2)
    assert rep.ap == pytest.approx(ref["ap"], abs=1e-12)
    assert rep.ap50 == pytest.approx(ref["ap50"], abs=1e-12)
    assert rep.ap75 == pytest.approx(ref["ap75"], abs=1e-12)

    # the whole report, area ranges and modalities included
    names = ["m0", "m1"]
    for seed in range(40):
        samples, dets, n_classes, class_modality = _random_fixture(seed)
        rep = _report(dets, samples, n_classes, modality_names=names,
                      class_modality=class_modality)
        ref = _ref_report(_array(dets, samples), samples, n_classes, names, class_modality)
        _assert_reports_close(rep.to_json(), ref)


def test_report_order_invariance():
    samples, dets = _three_image_fixture()
    base = _report(dets, samples, n_classes=2).to_json()
    perm = _report(dets[::-1], samples[::-1], n_classes=2).to_json()
    assert base == perm
    # scores tie across images here, so the pooled order rests on sample ids
    for seed in range(20):
        samples, dets, n_classes, _ = _random_fixture(seed)
        base = _report(dets, samples, n_classes).to_json()
        assert _report(dets, samples[::-1], n_classes).to_json() == base


def test_equal_iou_goes_to_the_first_truth_among_many():
    # the first detection overlaps truths A and B equally (IoU exactly 0.6)
    # and must take A, listed first, so that the second can take B; 40
    # distant truths of both classes come before and after the pair
    grid = [((0.05 + 0.1 * i, 0.05 + 0.9 * j, 0.02, 0.02), (i + j) % 2) for i in range(10)
            for j in range(2)]
    pair = [((0.25, 0.5, 0.25, 0.25), 0), ((0.375, 0.5, 0.25, 0.25), 0)]
    samples = [_sample("a", grid[:4] + pair + grid[4:] + grid)]
    dets = [_det("a", 0, (0.3125, 0.5, 0.25, 0.25), 0.9),
            _det("a", 0, (0.4375, 0.5, 0.25, 0.25), 0.8)]
    rep = _report(dets, samples, n_classes=2)
    _assert_reports_close(rep.to_json(), _ref_report(_array(dets, samples), samples, 2))
    assert rep.ap_large == pytest.approx(0.3)  # both match up to the .60 threshold


def test_ap50_at_least_ap():
    samples, dets = _three_image_fixture()
    rep = _report(dets, samples, n_classes=2)
    assert rep.ap50 >= rep.ap - 1e-12


def test_adding_correct_top_detection_never_decreases_ap():
    samples, dets = _three_image_fixture()
    before = _report(dets, samples, n_classes=2).ap
    extra = _det("im2", 1, (0.5, 0.5, 0.4, 0.4), 0.99)  # exact, highest score
    after = _report(dets + [extra], samples, n_classes=2).ap
    assert after >= before - 1e-12


def test_single_modality_total_equals_modality_ap():
    samples = [_sample("a", [((0.5, 0.5, 0.5, 0.5), 0)], modality=0),
               _sample("b", [((0.4, 0.4, 0.3, 0.3), 1)], modality=0)]
    dets = [_det("a", 0, (0.5, 0.5, 0.5, 0.5), 0.9),
            _det("b", 1, (0.42, 0.4, 0.3, 0.3), 0.8)]
    rep = _report(dets, samples, n_classes=2, modality_names=["only"],
                  class_modality=[0, 0])
    assert rep.per_modality["only"]["ap"] == pytest.approx(rep.ap, abs=1e-12)
    assert rep.per_modality["only"]["ap50"] == pytest.approx(rep.ap50, abs=1e-12)


def test_size_buckets():
    samples = [_sample("a", [((0.2, 0.2, 0.04, 0.04), 0),   # small
                             ((0.5, 0.5, 0.1, 0.1), 0),     # medium
                             ((0.8, 0.7, 0.3, 0.3), 0)])]   # large
    dets = [_det("a", 0, (0.2, 0.2, 0.04, 0.04), 0.9),
            _det("a", 0, (0.5, 0.5, 0.1, 0.1), 0.8),
            _det("a", 0, (0.8, 0.7, 0.3, 0.3), 0.7)]
    rep = _report(dets, samples, n_classes=1)
    assert rep.ap_small == pytest.approx(1.0)
    assert rep.ap_medium == pytest.approx(1.0)
    assert rep.ap_large == pytest.approx(1.0)

    # only-large ground truth: the small/medium buckets have no eligible gt
    samples2 = [_sample("a", [((0.5, 0.5, 0.3, 0.3), 0)])]
    dets2 = [_det("a", 0, (0.5, 0.5, 0.3, 0.3), 0.9)]
    rep2 = _report(dets2, samples2, n_classes=1)
    assert rep2.ap_small is None and rep2.ap_medium is None
    assert rep2.ap_large == pytest.approx(1.0)


def test_protocol_constants_are_cocos_by_value():
    assert ev.MAX_DETS_PER_IMAGE == 100
    assert ev.SMALL_FRAC == (32 / 640) ** 2 and ev.MEDIUM_FRAC == (96 / 640) ** 2


def test_a_truth_exactly_at_a_cutoff_goes_to_the_larger_bucket():
    # 32 px and 96 px squares of a 640 px frame: areas equal to the cutoffs
    at_small, at_medium = (0.25, 0.5, 0.05, 0.05), (0.75, 0.5, 0.15, 0.15)
    assert 0.05 * 0.05 == ev.SMALL_FRAC and 0.15 * 0.15 == ev.MEDIUM_FRAC
    samples = [_sample("a", [(at_small, 0), (at_medium, 0)])]
    dets = [_det("a", 0, at_small, 0.9), _det("a", 0, at_medium, 0.8)]
    rep = _report(dets, samples, n_classes=1)
    assert rep.ap_small is None
    assert rep.ap_medium == pytest.approx(1.0) and rep.ap_large == pytest.approx(1.0)


def test_only_the_first_100_detections_of_an_image_are_ranked():
    # 99 misses, then exact hits on truths A (rank 99) and B (rank 100): the
    # cap keeps the hit on A, at precision 1/100 and recall 1/2, and drops B's
    a, b = (0.25, 0.5, 0.1, 0.1), (0.75, 0.5, 0.1, 0.1)
    samples = [_sample("a", [(a, 0), (b, 0)])]
    misses = [_det("a", 0, (0.005 + 0.01 * i, 0.05, 0.005, 0.005), 0.99 - 0.001 * i)
              for i in range(99)]
    rep = _report(misses + [_det("a", 0, a, 0.5), _det("a", 0, b, 0.4)], samples, n_classes=1)
    # recall points 0, .01, ..., .50 reach the hit on A
    assert rep.ap == pytest.approx(51 * 0.01 / 101, abs=1e-12)
    assert rep.ap50 == pytest.approx(51 * 0.01 / 101, abs=1e-12)


def test_report_csv_shape():
    samples, dets = _three_image_fixture()
    rep = _report(dets, samples, n_classes=2, modality_names=["m0"],
                  class_modality=[0, 0])
    csv = ev.report_csv(rep, ["m0"])
    lines = csv.strip().split("\n")
    assert lines[0].split(",") == ["total_ap", "total_ap50", "m0_ap", "m0_ap50"]
    assert len(lines[1].split(",")) == 4


def test_detections_from_output_splits_image_row_blocks():
    # a 3-image output gives each image the detections of its own row block
    rng = np.random.default_rng(4)
    n, c = 4, 3
    logits = rng.normal(size=(3 * n, c))
    boxes = rng.uniform(0.2, 0.8, size=(3 * n, 4))

    def output(rows, n_images):
        return DetectorOutput(layers=[(ad.constant(logits[rows]), ad.constant(boxes[rows]))],
                              n_images=n_images)

    got = ev.detections_from_output(output(slice(None), 3), [5, 6, 7])
    want = np.concatenate([ev.detections_from_output(output(slice(i * n, (i + 1) * n), 1),
                                                     [5 + i]) for i in range(3)])
    assert got.tobytes() == want.tobytes() and len(got) == 3 * n * c


def _detections_loop(output, images):
    """Each image's detections from a list of (score, class, query) tuples
    sorted by (-score, class, query): the oracle for the lexsort ranking of
    ``detections_from_output``. Scores come from the same ``expit``, which
    has its own test against the closed form."""
    logits, boxes = output.layers[-1]
    probs = ad.expit(logits.data)
    n, c = probs.shape[0] // len(images), probs.shape[1]
    out = []
    for b, image in enumerate(images):
        block = probs[b * n:(b + 1) * n]
        flat = [(float(block[q, k]), int(k), q) for q in range(n) for k in range(c)]
        flat.sort(key=lambda r: (-r[0], r[1], r[2]))
        for score, k, q in flat[:ev.MAX_DETS_PER_IMAGE]:
            out.append((image, k, tuple(float(x) for x in boxes.data[b * n + q]), score))
    return np.array(out, dtype=ev.DETECTION)


@pytest.mark.parametrize("n,c,n_images", [(25, 10, 3), (4, 3, 2), (50, 2, 1), (10, 10, 2)])
def test_detections_from_output_matches_tuple_sort(n, c, n_images):
    # logits from a few values, so scores tie within and across classes and
    # the 100-detection cut falls inside a tie
    rng = np.random.default_rng(n * c + n_images)
    for _ in range(20):
        logits = rng.choice([-2.0, -0.5, 0.0, 0.5, 3.0], size=(n_images * n, c))
        boxes = rng.uniform(0.2, 0.8, size=(n_images * n, 4))
        output = DetectorOutput(layers=[(ad.constant(logits), ad.constant(boxes))],
                                n_images=n_images)
        images = [3 * i + 1 for i in range(n_images)]
        got = ev.detections_from_output(output, images)
        assert got.dtype == ev.DETECTION and got.ndim == 1
        assert got.tobytes() == _detections_loop(output, images).tobytes()
