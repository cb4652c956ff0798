"""COCO-style detection metrics.

Protocol notes (declared here because "standard" hides many choices):
  * thresholds .50:.05:.95; AP is the mean over thresholds and classes of
    per-class 101-point interpolated AP;
  * AP is computed column-wise: one call takes the (detections, thresholds)
    flag matrix of a class and returns the AP of all ten thresholds, and
    the 101 interpolated precisions are summed in sequence, in recall
    order, so every value equals that of a one-threshold loop bit for bit;
  * per class, detections pool across images sorted by descending score,
    ties broken by image id then per-image insertion order, so reports are
    invariant to image enumeration order;
  * greedy matching per image: each detection takes the unmatched same-class
    ground truth with the highest IoU >= threshold (boundary counts as a
    match);
  * at most 100 detections per image (by score);
  * size buckets use COCO's 32^2/96^2 pixel cutoffs rescaled to fractions
    of a 640x640 frame, applied to normalized box areas: ground truth
    outside the bucket is ignored, detections matched to ignored truth are
    dropped from the ranking, and a (class, threshold) cell with no
    eligible truth is excluded from averaging (None if a whole metric has
    no truth anywhere).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .boxes import cxcywh_to_xyxy, iou
from .errors import ValidationError
from .fileio import atomic_write

COCO_THRESHOLDS = tuple(np.round(np.arange(0.50, 0.96, 0.05), 2).tolist())
SMALL_FRAC = (32.0 / 640.0) ** 2
MEDIUM_FRAC = (96.0 / 640.0) ** 2
MAX_DETS_PER_IMAGE = 100
AREA_RANGES = ("all", "small", "medium", "large")


@dataclass(frozen=True)
class Detection:
    image_id: str
    class_id: int
    box: tuple  # (cx, cy, w, h) normalized
    score: float

    def validate(self) -> "Detection":
        if not math.isfinite(self.score):
            raise ValidationError("detection score must be finite")
        cx, cy, w, h = self.box
        if not all(map(math.isfinite, self.box)) or w <= 0 or h <= 0:
            raise ValidationError(f"degenerate detection box {self.box}")
        return self


# recall points 0, .01, ..., 1, lowered by 1e-12 so that a recall one
# rounding error below a point still reaches it
_RECALL_PTS = np.linspace(0.0, 1.0, 101) - 1e-12


def average_precision(flags, n_gt: int):
    """101-point interpolated AP from score-ranked flags: 1 TP, 0 FP, -1
    ignored (dropped from the ranking).

    ``flags`` is (D,) or (D, T): the AP of each column, a float for (D,) and
    a list of T floats for (D, T). Returns None when there is no eligible
    ground truth (excluded from averages); a column with no kept row gives
    0.0.
    """
    if n_gt == 0:
        return None
    flags = np.asarray(flags)
    cols = flags[:, None] if flags.ndim == 1 else flags
    # cumsums over all rows equal those of the kept rows at every kept row
    tp = np.cumsum(cols == 1, axis=0)
    fp = np.cumsum(cols == 0, axis=0)
    recall = tp / n_gt
    precision = tp / np.maximum(tp + fp, 1e-12)
    precision[cols == -1] = 0.0
    # precision envelope (monotone non-increasing from the right), plus a
    # zero row for recall points past the last detection
    envelope = np.maximum.accumulate(precision[::-1], axis=0)[::-1]
    envelope = np.concatenate([envelope, np.zeros((1, cols.shape[1]))])
    idx = np.stack([np.searchsorted(recall[:, t], _RECALL_PTS, side="left")
                    for t in range(cols.shape[1])], axis=1)
    picked = envelope[idx, np.arange(cols.shape[1])]
    # cumsum adds in sequence; np.sum would add pairwise and round differently
    ap = np.cumsum(picked, axis=0)[-1] / 101.0
    return ap.tolist() if flags.ndim == 2 else float(ap[0])


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


def _area_bucket(box) -> str:
    a = box[2] * box[3]
    if a < SMALL_FRAC:
        return "small"
    if a < MEDIUM_FRAC:
        return "medium"
    return "large"


def greedy_match(ious: np.ndarray, gt_ignore) -> np.ndarray:
    """Greedy matching of one image's detections of one class.

    ``ious`` is (D, G) between score-ranked detections and ground truth;
    ``gt_ignore`` (G,) marks truth outside the area range. Returns (D, T)
    int8 flags for the T thresholds of ``COCO_THRESHOLDS``: 1 TP, 0 FP, -1
    matched to ignored truth. Each detection takes the untaken truth with
    the highest IoU >= threshold (boundary counts as a match), non-ignored
    truth first; ties go to the first index.
    """
    thresholds = np.asarray(COCO_THRESHOLDS)[:, None]
    ignore = np.asarray(gt_ignore, dtype=bool)
    rows = np.arange(thresholds.shape[0])
    taken = np.zeros((rows.size, ious.shape[1]), dtype=bool)
    flags = np.zeros((ious.shape[0], rows.size), dtype=np.int8)
    # a detection below the lowest threshold everywhere matches nothing
    for i in np.flatnonzero(ious.max(axis=1, initial=0.0) >= thresholds[0, 0]):
        free = ~taken & (ious[i] >= thresholds)
        for flag, eligible in ((1, free & ~ignore), (-1, free & ignore)):
            cand = np.where(eligible, ious[i], -1.0)
            best = cand.argmax(axis=1)
            # ignored truth only at thresholds where no other truth matched
            hit = (flags[i] == 0) & (cand[rows, best] >= 0.0)
            taken[rows[hit], best[hit]] = True
            flags[i, hit] = flag
    return flags


def _ranked_detections(detections, samples) -> dict:
    """Image id -> its detections by descending score (insertion order on
    ties), capped at ``MAX_DETS_PER_IMAGE``."""
    image_ids = {s.sample_id for s in samples}
    if len(image_ids) != len(samples):
        raise ValidationError("duplicate sample ids in evaluation set")
    per_image = {}
    for i, d in enumerate(detections):
        d.validate()
        if d.image_id not in image_ids:
            raise ValidationError(f"detection references unknown image {d.image_id!r}")
        per_image.setdefault(d.image_id, []).append((i, d))
    return {img: [d for _, d in sorted(rows, key=lambda r: (-r[1].score, r[0]))
                  [:MAX_DETS_PER_IMAGE]]
            for img, rows in per_image.items()}


def _mean(vals):
    vals = [v for v in vals if v is not None]
    return float(np.mean(vals)) if vals else None


def ap_report(detections, samples, n_classes: int, modality_names=None,
              class_modality=None) -> APReport:
    """Full metric report over an evaluation set.

    ``class_modality`` maps class id -> modality id for the per-modality
    breakdown (per-modality evaluation restricts to that modality's images
    and classes, mirroring per-sub-dataset reporting). Each (image, class)
    is matched once for every threshold and area range; the per-modality
    AP reuses those flags, since matching never crosses images.
    """
    ranked = _ranked_detections(detections, samples)
    n_areas, n_thr = len(AREA_RANGES), len(COCO_THRESHOLDS)
    by_modality = modality_names is not None and class_modality is not None
    # per class: (pooling key, image modality, (areas, thresholds) flags) of
    # each detection; eligible truth per area range and per image modality
    pooled = [[] for _ in range(n_classes)]
    n_gt = np.zeros((n_classes, n_areas), dtype=int)
    n_gt_modality = {}
    for s in samples:
        img = s.sample_id
        gts, dets = {}, {}
        for a in s.annotations:
            gts.setdefault(a.class_id, []).append(a.box)
        for rank, d in enumerate(ranked.get(img, [])):
            dets.setdefault(d.class_id, []).append((rank, d))
        for c in gts.keys() | dets.keys():
            if not 0 <= c < n_classes:
                continue
            gt_boxes, rows = gts.get(c, []), dets.get(c, [])
            ignore = np.array([[area != "all" and _area_bucket(b) != area for b in gt_boxes]
                               for area in AREA_RANGES], dtype=bool)
            n_gt[c] += (~ignore).sum(axis=1)
            key = (c, s.modality_id)
            n_gt_modality[key] = n_gt_modality.get(key, 0) + len(gt_boxes)
            if not rows:
                continue
            f = np.zeros((len(rows), n_areas, n_thr), dtype=np.int8)
            if gt_boxes:
                ious = iou(cxcywh_to_xyxy([d.box for _, d in rows]),
                           cxcywh_to_xyxy(gt_boxes))
                for k in range(n_areas):
                    f[:, k] = greedy_match(ious, ignore[k])
            pooled[c].extend(((-d.score, str(img), rank), s.modality_id, row)
                             for (rank, d), row in zip(rows, f))

    def class_ap(flags, count):
        ap = average_precision(flags, count)
        return [None] * n_thr if ap is None else ap

    area_ap, modality_ap = {}, {}
    for c in range(n_classes):
        # pool across images by descending score, then image id, then rank
        entries = sorted(pooled[c], key=lambda e: e[0])
        f = np.array([e[2] for e in entries], dtype=np.int8).reshape(-1, n_areas, n_thr)
        for k in range(n_areas):
            area_ap[k, c] = class_ap(f[:, k], n_gt[c, k])
        if by_modality:
            m = class_modality[c]
            in_modality = np.array([e[1] == m for e in entries], dtype=bool)
            modality_ap[c] = class_ap(f[in_modality, 0], n_gt_modality.get((c, m), 0))

    classes = range(n_classes)
    t50, t75 = COCO_THRESHOLDS.index(0.5), COCO_THRESHOLDS.index(0.75)
    per_modality = {}
    if by_modality:
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


def detections_from_output(output, image_ids) -> list:
    """Turn the last decoder layer's predictions into scored detections.

    ``image_ids`` names the output's images in row-block order.
    """
    image_ids = list(image_ids)
    if len(image_ids) != output.n_images:
        raise ValidationError(f"{len(image_ids)} image ids for {output.n_images} images")
    logits, boxes = output.layers[-1]
    n_images = len(image_ids)
    n, c = logits.shape[0] // n_images, logits.shape[1]
    scores = (1.0 / (1.0 + np.exp(-logits.data))).reshape(n_images, n * c)
    # rank each image's (query, class) pairs by score, then class, then query
    query, klass = (np.broadcast_to(v, scores.shape) for v in np.divmod(np.arange(n * c), c))
    top = np.lexsort((query, klass, -scores))[:, :MAX_DETS_PER_IMAGE]
    classes = (top % c).tolist()
    kept_scores = np.take_along_axis(scores, top, axis=1).tolist()
    kept_boxes = boxes.data[top // c + n * np.arange(n_images)[:, None]].tolist()
    return [Detection(image_id=image_id, class_id=k, box=tuple(box), score=score)
            for b, image_id in enumerate(image_ids)
            for k, box, score in zip(classes[b], kept_boxes[b], kept_scores[b])]


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
