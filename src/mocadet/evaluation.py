"""COCO-style detection metrics.

Detections travel as one NumPy structured array of dtype ``DETECTION``, one
record per detection: ``image`` (int64, the index of the image in the
``samples`` list given to ``ap_report``), ``class_id`` (int64), ``box``
(4 float64, normalized cxcywh) and ``score`` (float64). Records may come in
any order; ``ap_report`` orders them itself.

Protocol notes (declared here because "standard" hides many choices):
  * thresholds .50:.05:.95; AP is the mean over thresholds and classes of
    per-class 101-point interpolated AP;
  * AP is computed from the true-positive rows alone, every column of a
    report in one call: each (class, area range) and each (class,
    modality) flag matrix, of ten threshold columns. This is bit for bit
    the AP of the whole ranking: a false positive only lowers precision,
    as fl(i / (i + f)) falls as f grows, and an ignored row repeats the
    row before it, so the envelope at a recall point is the largest
    tp / (tp + fp) over the TP rows from the first whose recall reaches
    the point, the same float operations on the same counts. The 101
    interpolated precisions are summed in sequence, in recall order, so
    every value equals that of a one-threshold scalar loop bit for bit;
  * within an image, detections rank by descending score, ties broken by
    record order in the array, and at most 100 per image are kept;
  * per class, detections pool across images sorted by descending score,
    ties broken by sample id (as a string) then by rank in the image, so
    reports are invariant to image enumeration order;
  * greedy matching per image: each detection takes the unmatched same-class
    ground truth with the highest IoU >= threshold (boundary counts as a
    match), truth inside the area range first, the first index on ties;
  * size buckets use COCO's 32^2/96^2 pixel cutoffs rescaled to fractions
    of a 640x640 frame, applied to normalized box areas: ground truth
    outside the bucket is ignored, detections matched to ignored truth are
    dropped from the ranking, and a (class, threshold) cell with no
    eligible truth is excluded from averaging (None if a whole metric has
    no truth anywhere).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .boxes import cxcywh_to_xyxy, iou
from .errors import ValidationError
from .fileio import atomic_write

COCO_THRESHOLDS = tuple(np.round(np.arange(0.50, 0.96, 0.05), 2).tolist())
SMALL_FRAC = (32.0 / 640.0) ** 2
MEDIUM_FRAC = (96.0 / 640.0) ** 2
MAX_DETS_PER_IMAGE = 100
AREA_RANGES = ("all", "small", "medium", "large")
DETECTION = np.dtype([("image", np.int64), ("class_id", np.int64),
                      ("box", np.float64, (4,)), ("score", np.float64)])


# recall points 0, .01, ..., 1, lowered by 1e-12 so that a recall one
# rounding error below a point still reaches it
_RECALL_PTS = np.linspace(0.0, 1.0, 101) - 1e-12


def average_precision(cols, n_gt):
    """101-point interpolated AP from score-ranked flags: 1 TP, 0 FP, -1
    ignored (dropped from the ranking).

    ``cols`` is a list of (D, T) flag matrices, each with its own D and T,
    and ``n_gt`` the list of their counts of eligible truths, all scored in
    one pass. The result holds, per matrix, the list of its T columns' APs,
    or None when its count is 0 (excluded from averages). A column with no
    kept row gives 0.0.
    """
    widths = [m.shape[1] for m in cols]
    counts = np.repeat(np.asarray(n_gt, dtype=np.int64), widths)
    # every column's rows in one flat run, column by column: column c is
    # flat[starts[c]:starts[c + 1]]
    flat = np.concatenate([m.T.ravel() for m in cols])
    starts = np.concatenate([[0], np.cumsum(np.repeat([m.shape[0] for m in cols], widths))])
    # the TP and ignored rows, in column then rank order; the FP rows above
    # one are its rank in its column less its rank among these rows
    at = np.flatnonzero(flat)
    col = np.searchsorted(starts, at, side="right") - 1
    first = np.searchsorted(at, starts[:-1])[col]
    fp = at - starts[col] - (np.arange(at.size) - first)
    is_tp = flat[at] == 1
    through = np.concatenate([[0], np.cumsum(is_tp)])
    tp = through[1:] - through[first]
    rows = is_tp & (counts[col] > 0)
    col, tp, fp = col[rows], tp[rows], fp[rows]
    precision = tp / (tp + fp)
    # a TP row reaches the recall points at or below its recall; the
    # envelope at point p is the best precision of the rows that reach past p
    reached = np.searchsorted(_RECALL_PTS, tp / counts[col], side="right")
    # only the columns with a TP row need the table: the others score 0.0
    live, slot = np.unique(col, return_inverse=True)
    best = np.zeros((_RECALL_PTS.size + 1, live.size))
    np.maximum.at(best, (reached, slot), precision)
    envelope = np.maximum.accumulate(best[:0:-1], axis=0)[::-1]
    ap = np.zeros(counts.size)
    # cumsum adds in sequence; np.sum would add pairwise and round differently
    ap[live] = np.cumsum(envelope, axis=0)[-1] / 101.0
    ap = ap.tolist()
    out, c = [], 0
    for count, width in zip(n_gt, widths):
        out.append(None if count == 0 else ap[c:c + width])
        c += width
    return out


@dataclass
class APReport:
    ap: float | None
    ap50: float | None
    ap75: float | None
    ap_small: float | None
    ap_medium: float | None
    ap_large: float | None
    per_class: dict = field(default_factory=dict)      # class id -> {"ap", "ap50"}
    per_modality: dict = field(default_factory=dict)   # name -> {"ap", "ap50"}

    def to_json(self) -> dict:
        return {
            "ap": self.ap, "ap50": self.ap50, "ap75": self.ap75,
            "ap_small": self.ap_small, "ap_medium": self.ap_medium,
            "ap_large": self.ap_large,
            "per_class": {str(k): v for k, v in sorted(self.per_class.items())},
            "per_modality": self.per_modality,
        }


def greedy_match(ious: np.ndarray, gt_ignore) -> np.ndarray:
    """Greedy matching of one image's detections of one class.

    ``ious`` is (D, G) between score-ranked detections and ground truth;
    ``gt_ignore`` (A, G) marks, for each of A area ranges, the truth outside
    that range. Returns (D, A, T) int8 flags for the T thresholds of
    ``COCO_THRESHOLDS``: 1 TP, 0 FP, -1 matched to ignored truth. Each
    (range, threshold) row is matched on its own: each detection takes the
    untaken truth with the highest IoU >= threshold (boundary counts as a
    match), non-ignored truth first; ties go to the first index.
    """
    ignore = np.asarray(gt_ignore, dtype=bool)
    n_areas, n_thr = ignore.shape[0], len(COCO_THRESHOLDS)
    thresholds = np.tile(COCO_THRESHOLDS, n_areas)[:, None]
    ignore = np.repeat(ignore, n_thr, axis=0)
    rows = np.arange(thresholds.shape[0])
    taken = np.zeros((rows.size, ious.shape[1]), dtype=bool)
    flags = np.zeros((ious.shape[0], rows.size), dtype=np.int8)
    # a detection below the lowest threshold everywhere matches nothing
    for i in np.flatnonzero(ious.max(axis=1, initial=0.0) >= COCO_THRESHOLDS[0]):
        free = ~taken & (ious[i] >= thresholds)
        for flag, eligible in ((1, free & ~ignore), (-1, free & ignore)):
            cand = np.where(eligible, ious[i], -1.0)
            best = cand.argmax(axis=1)
            # ignored truth only at rows where no other truth matched
            hit = (flags[i] == 0) & (cand[rows, best] >= 0.0)
            taken[rows[hit], best[hit]] = True
            flags[i, hit] = flag
    return flags.reshape(-1, n_areas, n_thr)


def _validate(detections, samples) -> None:
    """Raises ValidationError unless ``detections`` is a (D,) ``DETECTION``
    array of valid records for ``samples``."""
    if not isinstance(detections, np.ndarray) or detections.dtype != DETECTION \
            or detections.ndim != 1:
        raise ValidationError("detections must be a 1-d array of dtype evaluation.DETECTION")
    image, box, score = detections["image"], detections["box"], detections["score"]
    if ((image < 0) | (image >= len(samples))).any():
        raise ValidationError(f"detection image index outside the {len(samples)} samples")
    if not (np.isfinite(score).all() and np.isfinite(box).all()) or (box[:, 2:] <= 0).any():
        raise ValidationError("detection scores and boxes must be finite, box sizes positive")


def _mean(vals):
    vals = [v for v in vals if v is not None]
    return float(np.mean(vals)) if vals else None


def ap_report(detections, samples, n_classes: int, modality_names,
              class_modality) -> APReport:
    """Full metric report over an evaluation set.

    ``detections`` is a ``DETECTION`` array whose ``image`` field indexes
    ``samples``. ``class_modality`` maps class id -> modality id, and the
    report breaks AP down by the modalities of ``modality_names``
    (per-modality evaluation restricts to that modality's images and
    classes, mirroring per-sub-dataset reporting).
    Each (image, class) is matched once for every threshold and area range;
    the per-modality AP reuses those flags, since matching never crosses
    images.
    """
    _validate(detections, samples)
    n_images, n_thr = len(samples), len(COCO_THRESHOLDS)

    # rank within each image by descending score, record order on ties
    order = np.lexsort((-detections["score"], detections["image"]))
    image = detections["image"][order]
    rank = np.arange(image.size) - np.searchsorted(image, image)
    keep = rank < MAX_DETS_PER_IMAGE
    dets, rank = detections[order[keep]], rank[keep]

    # ground truth and its (areas, truth) outside mask
    gt_image = np.array([i for i, s in enumerate(samples) for _ in s.annotations], dtype=np.int64)
    gt_class = np.array([a.class_id for s in samples for a in s.annotations], dtype=np.int64)
    gt_box = np.array([a.box for s in samples for a in s.annotations],
                      dtype=np.float64).reshape(-1, 4)
    for what, cls in (("detection", detections["class_id"]), ("truth", gt_class)):
        if ((cls < 0) | (cls >= n_classes)).any():
            raise ValidationError(f"{what} class id outside range({n_classes})")
    area = gt_box[:, 2] * gt_box[:, 3]
    small, medium = area < SMALL_FRAC, area < MEDIUM_FRAC
    outside = ~np.stack([np.ones_like(small), small, medium & ~small, ~medium])
    n_gt = np.stack([np.bincount(gt_class[~out], minlength=n_classes) for out in outside],
                    axis=1)

    # match each (image, class) that has both detections and truth; the
    # detections of a pair stay in rank order, its truth in annotation order
    flags = np.zeros((len(dets), len(AREA_RANGES), n_thr), dtype=np.int8)
    det_key = dets["class_id"] * n_images + dets["image"]
    gt_key = gt_class * n_images + gt_image
    det_order = np.argsort(det_key, kind="stable")
    gt_order = np.argsort(gt_key, kind="stable")
    det_key, gt_key = det_key[det_order], gt_key[gt_order]
    det_xyxy = cxcywh_to_xyxy(dets["box"][det_order])
    gt_xyxy = cxcywh_to_xyxy(gt_box[gt_order])
    for key in set(det_key.tolist()) & set(gt_key.tolist()):
        d0, d1 = np.searchsorted(det_key, key), np.searchsorted(det_key, key, side="right")
        g0, g1 = np.searchsorted(gt_key, key), np.searchsorted(gt_key, key, side="right")
        ious = iou(det_xyxy[d0:d1], gt_xyxy[g0:g1])
        flags[det_order[d0:d1]] = greedy_match(ious, outside[:, gt_order[g0:g1]])

    # pool each class by descending score, then sample id, then rank
    id_rank = np.argsort(sorted(range(n_images), key=lambda i: str(samples[i].sample_id)))
    pool = np.lexsort((rank, id_rank[dets["image"]], -dets["score"], dets["class_id"]))
    flags, pooled = flags[pool], dets[pool]
    bounds = np.searchsorted(pooled["class_id"], np.arange(n_classes + 1))

    # score every (class, area range) and every (class, modality) in one call;
    # a class's modality column keeps the rows of its modality's images
    modality = np.array([s.modality_id for s in samples], dtype=np.int64)
    class_modality = np.asarray(class_modality, dtype=np.int64)
    mine = modality[pooled["image"]] == class_modality[pooled["class_id"]]
    n_gt_modality = np.bincount(gt_class[modality[gt_image] == class_modality[gt_class]],
                                minlength=n_classes)
    cols, counts = [], []
    for c in range(n_classes):
        rows = slice(bounds[c], bounds[c + 1])
        cols += [flags[rows, k] for k in range(len(AREA_RANGES))] + [flags[rows, 0][mine[rows]]]
        counts += [*n_gt[c], n_gt_modality[c]]
    scored = iter(average_precision(cols, counts))
    area_ap, modality_ap = {}, {}
    for c in range(n_classes):
        for k in range(len(AREA_RANGES)):
            area_ap[k, c] = next(scored) or [None] * n_thr
        modality_ap[c] = next(scored) or [None] * n_thr

    classes = range(n_classes)
    t50, t75 = COCO_THRESHOLDS.index(0.5), COCO_THRESHOLDS.index(0.75)
    per_modality = {}
    for mi, mname in enumerate(modality_names):
        mclasses = [c for c in classes if class_modality[c] == mi]
        per_modality[mname] = {
            "ap": _mean([modality_ap[c][t] for t in range(n_thr) for c in mclasses]),
            "ap50": _mean([modality_ap[c][t50] for c in mclasses]),
        }
    bucket = {area: _mean([v for c in classes for v in area_ap[k, c]])
              for k, area in enumerate(AREA_RANGES)}
    return APReport(ap=bucket["all"],
                    ap50=_mean([area_ap[0, c][t50] for c in classes]),
                    ap75=_mean([area_ap[0, c][t75] for c in classes]),
                    ap_small=bucket["small"], ap_medium=bucket["medium"],
                    ap_large=bucket["large"],
                    per_class={c: {"ap": _mean(area_ap[0, c]), "ap50": area_ap[0, c][t50]}
                               for c in classes},
                    per_modality=per_modality)


def detections_from_output(output, images) -> np.ndarray:
    """The last decoder layer's predictions as a ``DETECTION`` array.

    ``images`` gives the ``image`` index of each of the output's images, in
    row-block order, one per image. Each image keeps its
    ``MAX_DETS_PER_IMAGE`` best (query, class) pairs, ranked by score, then
    class, then query.
    """
    images = np.asarray(images, dtype=np.int64)
    logits, boxes = output.layers[-1]
    n_images = output.n_images
    n, c = logits.shape[0] // n_images, logits.shape[1]
    scores = ad.expit(logits.data).reshape(n_images, n * c)
    query, klass = (np.broadcast_to(v, scores.shape) for v in np.divmod(np.arange(n * c), c))
    top = np.lexsort((query, klass, -scores))[:, :MAX_DETS_PER_IMAGE]
    out = np.empty(top.shape, dtype=DETECTION)
    out["image"] = images[:, None]
    out["class_id"] = top % c
    out["box"] = boxes.data[top // c + n * np.arange(n_images)[:, None]]
    out["score"] = np.take_along_axis(scores, top, axis=1)
    return out.reshape(-1)


def report_csv(report: APReport, modality_names) -> str:
    """One-row CSV mirroring a per-modality AP / AP50 table layout."""
    cols = ["total_ap", "total_ap50"]
    vals = [report.ap, report.ap50]
    for m in modality_names:
        cols += [f"{m}_ap", f"{m}_ap50"]
        entry = report.per_modality.get(m, {})
        vals += [entry.get("ap"), entry.get("ap50")]
    fmt = ",".join("" if v is None else f"{100 * v:.2f}" for v in vals)
    return ",".join(cols) + "\n" + fmt + "\n"


def save_report(report: APReport, path) -> None:
    with atomic_write(path) as fh:
        json.dump(report.to_json(), fh, sort_keys=True, indent=1)
