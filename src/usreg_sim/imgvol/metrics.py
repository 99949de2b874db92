"""Mask similarity metrics and the max-overlap translation search.

Conventions for the ratio metrics, with prediction Y and ground truth G:
precision = |G & Y| / |Y|, recall = |G & Y| / |G|, dice = 2|G & Y| / (|Y| + |G|).
If both masks are empty all three are 1.0; if exactly one is empty, a metric
whose denominator is zero is 0.0.

``prepare_truth`` and ``omia`` import ``scipy.fft`` when first called, so
code that uses only the ratio metrics (registration among it) never loads
it. ``omia_bound`` is a cheap upper bound on ``omia`` from foreground
counts and row and column projections, for skipping predictions that
cannot reach a score already found.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import require_binary


def _counts(pred: np.ndarray, truth: np.ndarray) -> tuple[int, int, int]:
    pred = require_binary(pred, "pred")
    truth = require_binary(truth, "truth")
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    inter = int(np.count_nonzero(pred & truth))
    return inter, int(np.count_nonzero(pred)), int(np.count_nonzero(truth))


def precision(pred: np.ndarray, truth: np.ndarray) -> float:
    inter, n_pred, n_truth = _counts(pred, truth)
    if n_pred == 0:
        return 1.0 if n_truth == 0 else 0.0
    return inter / n_pred


def recall(pred: np.ndarray, truth: np.ndarray) -> float:
    inter, n_pred, n_truth = _counts(pred, truth)
    if n_truth == 0:
        return 1.0 if n_pred == 0 else 0.0
    return inter / n_truth


def dice(pred: np.ndarray, truth: np.ndarray) -> float:
    inter, n_pred, n_truth = _counts(pred, truth)
    if n_pred + n_truth == 0:
        return 1.0
    return 2.0 * inter / (n_pred + n_truth)


@dataclass(frozen=True)
class PreparedTruth:
    """A truth mask readied for many ``omia`` calls; build with ``prepare_truth``.

    ``shape`` is the truth frame, ``fft_shape`` the fixed transform size and
    ``spectrum`` the conjugate single-precision (complex64) ``rfft2`` of the
    truth's content bounding box at that size, or None when the truth is
    empty. Single precision is enough because every correlation value is an
    integer count; ``omia`` states the error bound. ``count`` is the truth's
    foreground pixel count, and ``rows`` and ``cols`` are its per-row and
    per-column pixel counts over the bounding box (empty when the truth is),
    which ``omia_bound`` reads.
    """

    shape: tuple[int, int]
    fft_shape: tuple[int, int]
    spectrum: np.ndarray | None
    count: int
    rows: np.ndarray
    cols: np.ndarray


def prepare_truth(truth: np.ndarray) -> PreparedTruth:
    """Check a 2D binary truth mask and transform its bounding box once.

    The transform size is ``next_fast_len(bbox + frame - 1)`` per axis: a
    prediction is never larger than the truth frame, so every prediction's
    correlation with the box fits without wrapping. The projections are
    held in the smallest unsigned type that fits the frame's longer side.
    """
    from scipy import fft as sp_fft

    truth = require_binary(truth, "truth")
    if truth.ndim != 2:
        raise ValueError("omia expects 2D masks")
    count_type = np.min_scalar_type(max(truth.shape))
    nz = np.nonzero(truth)
    if nz[0].size == 0:
        empty = np.zeros(0, dtype=count_type)
        return PreparedTruth(truth.shape, truth.shape, None, 0, empty, empty)
    box = truth[nz[0].min():nz[0].max() + 1, nz[1].min():nz[1].max() + 1]
    fft_shape = tuple(
        sp_fft.next_fast_len(b + n - 1, real=True) for b, n in zip(box.shape, truth.shape)
    )
    spectrum = np.conj(sp_fft.rfft2(box.astype(np.float32), s=fft_shape))
    rows = np.add.reduce(box, axis=1, dtype=count_type)
    cols = np.add.reduce(box, axis=0, dtype=count_type)
    return PreparedTruth(truth.shape, fft_shape, spectrum, nz[0].size, rows, cols)


def _check_pred(pred: np.ndarray, truth: PreparedTruth) -> np.ndarray:
    pred = require_binary(pred, "pred")
    if pred.ndim != 2:
        raise ValueError("omia expects 2D masks")
    if pred.shape[0] > truth.shape[0] or pred.shape[1] > truth.shape[1]:
        raise ValueError(f"pred {pred.shape} exceeds truth {truth.shape}; pad the truth, not the pred")
    return pred


def omia(pred: np.ndarray, truth: np.ndarray | PreparedTruth) -> int:
    """Largest overlap count achievable by integer-translating the prediction.

    The prediction is conceptually zero-padded to the truth frame and slid
    over every integer (dx, dy); pixels shifted outside the frame drop out.
    Because offsets are unbounded the result depends only on the nonzero
    content, so it is the peak of the cross-correlation of the prediction
    with the truth's content bounding box. The prediction must not be larger
    than the truth along either axis.

    ``truth`` may be a mask or a ``prepare_truth`` result; scoring many
    predictions against one truth should pass it prepared, so its transform
    is computed once. The correlation is circular at the prepared size,
    which is at least box + prediction - 1 along each axis, so no two shifts
    share a cell. Both transforms run in single precision (float32 in,
    complex64 spectra). Each correlation value is an integer count, and the
    rounding error of a cell is of order 6e-8 x log2(size) x the product of
    the two masks' L2 norms: at most about 0.02 even for two full 216x100
    frames (norms sqrt(21600) each), and about 1e-4 at slice-match sizes.
    Every cell therefore lies within 0.5 of its count, so ``rint`` of the
    peak is the exact maximum overlap; counts up to 2**24 are exact in
    float32.
    """
    if not isinstance(truth, PreparedTruth):
        truth = prepare_truth(truth)
    pred = _check_pred(pred, truth)
    if truth.spectrum is None or not pred.any():
        return 0
    from scipy import fft as sp_fft

    spec = sp_fft.rfft2(pred.astype(np.float32), s=truth.fft_shape)
    corr = sp_fft.irfft2(spec * truth.spectrum, s=truth.fft_shape)
    return int(np.rint(corr.max()))


def _projection_bound(p: np.ndarray, t: np.ndarray, total: int) -> int:
    """``max over shifts s of sum_i min(p[i + s], t[i])``, p zero outside its range.

    ``p`` is trimmed to its nonzero run and zero-padded by ``len(t) - 1``
    on both sides; row i of the strided window table is then the padded
    run from i on, so column s pairs every ``t[i]`` with one shift's
    ``p[i + s]``. ``total``, at least every shift's sum, sizes the sum type.
    """
    nz = np.flatnonzero(p)
    run = p[nz[0]:nz[-1] + 1]
    b = t.size
    padded = np.zeros(run.size + 2 * (b - 1), dtype=p.dtype)
    padded[b - 1:b - 1 + run.size] = run
    windows = np.ndarray(
        (b, run.size + b - 1), dtype=p.dtype, buffer=padded, strides=(padded.itemsize,) * 2
    )
    sums = np.add.reduce(np.minimum(windows, t[:, None]), axis=0, dtype=np.min_scalar_type(total))
    return int(sums.max())


def omia_bound(pred: np.ndarray, truth: PreparedTruth, floor: int) -> int:
    """An upper bound on ``omia(pred, truth)``, tightened only while it reaches ``floor``.

    Three stages, each no looser than the one before: the smaller of the
    two foreground counts; then the depth-projection bound, the largest
    ``sum_i min(p[i + s], t[i])`` over shifts s, with p and t the per-row
    pixel counts of the prediction and of the truth (under any translation,
    truth row i overlaps at most that many pixels of the prediction row it
    meets); then the same over per-column counts. The next stage runs only
    while the bound is at least ``floor`` and positive, so a result below
    ``floor`` proves that ``omia`` is below it, and with ``floor`` 0 every
    stage runs on a nonempty pair.
    """
    pred = _check_pred(pred, truth)
    count = min(int(np.count_nonzero(pred)), truth.count)
    bound = count
    for axis, t in ((1, truth.rows), (0, truth.cols)):
        if bound == 0 or bound < floor:
            break
        p = np.add.reduce(pred, axis=axis, dtype=t.dtype)
        bound = min(bound, _projection_bound(p, t, count))
    return bound
