"""Property tests for the pairwise box geometry, against a scalar formula
written out below."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mocadet import boxes as bx

_coord = st.floats(0.0, 1.0, allow_nan=False)
_extent = st.floats(1e-3, 1.0, allow_nan=False)
_box = st.builds(lambda x, y, w, h: (x, y, x + w, y + h), _coord, _coord, _extent, _extent)
_box_sets = st.lists(_box, min_size=1, max_size=6).map(np.array)
_settings = settings(max_examples=200, deadline=None, derandomize=True)


def _scalar(a, b):
    """(IoU, GIoU) of two xyxy boxes, one float operation at a time."""
    ax1, ay1, ax2, ay2 = (float(v) for v in a)
    bx1, by1, bx2, by2 = (float(v) for v in b)
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    hull = (max(ax2, bx2) - min(ax1, bx1)) * (max(ay2, by2) - min(ay1, by1))
    return inter / union, inter / union - (hull - union) / hull


@_settings
@given(_box_sets, _box_sets)
@example(np.array([[0.0, 0, 1, 1]]), np.array([[2.0, 2, 3, 3]]))  # disjoint
@example(np.array([[0.0, 0, 2, 2]]), np.array([[1.0, 0, 3, 2]]))  # IoU 2/6
def test_pairwise_equals_scalar_formula(a, b):
    iou, giou = bx.iou(a, b), bx.giou(a, b)
    assert iou.shape == giou.shape == (len(a), len(b))
    for i in range(len(a)):
        for j in range(len(b)):
            assert (iou[i, j], giou[i, j]) == _scalar(a[i], b[j])


@_settings
@given(_box_sets, _box_sets)
def test_iou_and_giou_ranges_and_symmetry(a, b):
    iou, giou = bx.iou(a, b), bx.giou(a, b)
    assert np.array_equal(iou, bx.iou(b, a).T)
    assert np.array_equal(giou, bx.giou(b, a).T)
    assert np.all((0.0 <= iou) & (iou <= 1.0))
    assert np.all((-1.0 - 1e-12 <= giou) & (giou <= 1.0 + 1e-12))
    assert np.all(giou <= iou + 1e-12)
    assert np.all(np.diag(bx.iou(a, a)) == 1.0)
    assert np.all(np.diag(bx.giou(a, a)) == 1.0)
