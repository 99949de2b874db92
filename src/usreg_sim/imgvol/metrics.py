"""Mask similarity metrics and the max-overlap translation search.

Conventions for the ratio metrics, with prediction Y and ground truth G:
precision = |G & Y| / |Y|, recall = |G & Y| / |G|, dice = 2|G & Y| / (|Y| + |G|).
If both masks are empty all three are 1.0; if exactly one is empty, a metric
whose denominator is zero is 0.0.

``omia`` scores a prediction by its best overlap under integer
translation; ``prepare_truth`` readies a truth mask for many such scores.
Given a floor, ``omia`` may stop at an upper bound below it, from
foreground counts and row and column projections, for predictions that
cannot reach a score already found. An exact score gathers the truth's
pixels over the few shifts those projections leave open, or, when they
leave more than an FFT's cell count to read, runs an FFT pair in single
precision.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    ``shape`` is the truth frame and ``box`` its content bounding box
    (0x0 when the truth is empty). ``count`` is the truth's foreground
    pixel count, ``rows`` and ``cols`` its per-row and per-column pixel
    counts over the box, and ``pixels`` the (row, column) indices of its
    foreground pixels in the box: ``omia``'s bounds and its gather read
    them. ``fft_shape`` is the transform size of the FFT route.
    ``spectrum`` is the conjugate ``rfft2`` of the box at that size, times
    the size's cell count, in single precision (complex64); it is built
    on first use, so a truth that ``omia`` never scores by FFT never
    builds it. The factor undoes the ``1/N`` that ``omia`` applies to the
    prediction's transform. Single precision is enough because every
    correlation value is an integer count; ``omia`` states the error bound.
    """

    shape: tuple[int, int]
    fft_shape: tuple[int, int]
    box: np.ndarray
    count: int
    rows: np.ndarray
    cols: np.ndarray
    pixels: tuple[np.ndarray, np.ndarray]

    @cached_property
    def spectrum(self) -> np.ndarray:
        spectrum = np.conj(np.fft.rfft2(_padded(self.box, self.fft_shape, np.float64)))
        return (spectrum * (self.fft_shape[0] * self.fft_shape[1])).astype(np.complex64)


def _fft_len(n: int) -> int:
    """The smallest 5-smooth length (``2**a * 3**b * 5**c``) at least ``n``.

    Transforms of such lengths run fastest; it is the length
    ``scipy.fft.next_fast_len(n, real=True)`` gives.
    """
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _padded(mask: np.ndarray, shape: tuple[int, int], dtype) -> np.ndarray:
    """``mask`` in the first rows and columns of a zero array of ``shape``.

    ``rfft2`` gives the same bits on it as on ``mask`` with ``s=shape``, and
    runs faster than through its own padding.
    """
    out = np.zeros(shape, dtype=dtype)
    out[:mask.shape[0], :mask.shape[1]] = mask
    return out


def prepare_truth(truth: np.ndarray) -> PreparedTruth:
    """Check a 2D binary truth mask and find its content box once.

    The transform size is ``_fft_len(box + frame - 1)`` per axis: a
    prediction is never larger than the truth frame, so every prediction's
    correlation with the box fits without wrapping. The projections are
    held in the smallest unsigned type that fits the frame's longer side.
    """
    truth = require_binary(truth, "truth")
    if truth.ndim != 2:
        raise ValueError("omia expects 2D masks")
    count_type = np.min_scalar_type(max(truth.shape))
    nz = np.nonzero(truth)
    if nz[0].size == 0:
        empty = np.zeros(0, dtype=count_type)
        return PreparedTruth(truth.shape, truth.shape, truth[:0, :0], 0, empty, empty, nz)
    box = truth[nz[0].min():nz[0].max() + 1, nz[1].min():nz[1].max() + 1]
    fft_shape = tuple(_fft_len(b + n - 1) for b, n in zip(box.shape, truth.shape))
    rows = np.add.reduce(box, axis=1, dtype=count_type)
    cols = np.add.reduce(box, axis=0, dtype=count_type)
    return PreparedTruth(truth.shape, fft_shape, box, nz[0].size, rows, cols, np.nonzero(box))


def _check_pred(pred: np.ndarray, truth: PreparedTruth) -> np.ndarray:
    pred = require_binary(pred, "pred")
    if pred.ndim != 2:
        raise ValueError("omia expects 2D masks")
    if pred.shape[0] > truth.shape[0] or pred.shape[1] > truth.shape[1]:
        raise ValueError(f"pred {pred.shape} exceeds truth {truth.shape}; pad the truth, not the pred")
    return pred


def _shift_sums(run: np.ndarray, t: np.ndarray, dtype) -> np.ndarray:
    """``sums[k] = sum_i min(q[i + k], t[i])``, q the run zero-padded by ``len(t) - 1`` per side.

    k runs over every shift at which t meets the run. Row i of the strided
    window table is q from i on, so column k pairs every ``t[i]`` with
    ``q[i + k]``.
    """
    b = t.size
    padded = np.zeros(run.size + 2 * (b - 1), dtype=run.dtype)
    padded[b - 1:b - 1 + run.size] = run
    windows = np.ndarray(
        (b, run.size + b - 1), dtype=run.dtype, buffer=padded, strides=(padded.itemsize,) * 2
    )
    return np.add.reduce(np.minimum(windows, t[:, None]), axis=0, dtype=dtype)


def _fft_omia(pred: np.ndarray, truth: PreparedTruth) -> int:
    spec = np.fft.rfft2(_padded(pred, truth.fft_shape, np.float32), norm="forward")
    corr = np.fft.irfft2(spec * truth.spectrum, s=truth.fft_shape)
    return int(np.rint(corr.max()))


def omia(pred: np.ndarray, truth: np.ndarray | PreparedTruth, floor: int = 0) -> int:
    """Largest overlap count achievable by integer-translating the prediction.

    The prediction is conceptually zero-padded to the truth frame and slid
    over every integer (dx, dy); pixels shifted outside the frame drop out.
    Because offsets are unbounded the result depends only on the nonzero
    content, so it is the peak of the cross-correlation of the prediction's
    content box with the truth's. The prediction must not be larger than
    the truth along either axis. ``truth`` may be a mask or a
    ``prepare_truth`` result; scoring many predictions against one truth
    should pass it prepared.

    The result is that exact maximum whenever it is at least ``floor``;
    otherwise it is an upper bound on it below ``floor``, which proves the
    maximum is below ``floor`` (with ``floor`` 0 it is always exact).
    Every value is an integer count; the stages are:

    1. the smaller of the two foreground counts;
    2. the row bound: for each row offset s, ``sum_i min(p[i + s], t[i])``
       with p and t the per-row pixel counts of the prediction and of the
       truth (truth row i overlaps at most that many pixels of the
       prediction row it meets), an upper bound on every shift with that
       row offset; then the same over columns. The smaller of the two
       maxima bounds the result;
    3. the exact overlap at the shift where both bounds peak, raised to
       ``floor``: call it L. Only shifts whose row and column bounds both
       reach L can score above it, and an integer gather of the truth's
       foreground pixels over those shifts scores them exactly. When none
       of them reaches ``floor``, no shift does, and the result is
       ``floor - 1``.

    Each stage runs only while its bound reaches ``floor``; stopping early
    returns that bound. When the gather would read more values than the
    FFT's cell count, an FFT pair scores every shift instead, in single
    precision (float32 in, complex64 spectra): the correlation is circular
    at the prepared size, at least box + prediction - 1 along each axis, so
    no two shifts share a cell. The prediction's forward transform is
    scaled by ``1/N`` (``norm="forward"``, N the size's cell count), which
    the prepared spectrum's factor N cancels: numpy applies the unscaled
    default as a Python int, which selects its complex128 loop, several
    times slower. The rounding error of a cell is of order 6e-8 x
    (log2(size) + 3) x the product of the two masks' L2 norms, the 3 for
    the scalings: at most about 0.03 even for two full 216x100 frames
    (norms sqrt(21600) each). Every cell therefore lies within 0.5 of its
    count, so ``rint`` of the peak is the exact maximum overlap; counts up
    to 2**24 are exact in float32.
    """
    if not isinstance(truth, PreparedTruth):
        truth = prepare_truth(truth)
    pred = _check_pred(pred, truth)
    count = min(int(np.count_nonzero(pred)), truth.count)
    if count == 0 or count < floor:
        return count
    sum_type = np.min_scalar_type(count)
    # the prediction's row and column counts, trimmed to their nonzero runs
    p_rows = np.add.reduce(pred, axis=1, dtype=truth.rows.dtype)
    p_cols = np.add.reduce(pred, axis=0, dtype=truth.cols.dtype)
    (r0, r1), (c0, c1) = ((nz[0], nz[-1] + 1) for nz in map(np.flatnonzero, (p_rows, p_cols)))
    row_sums = _shift_sums(p_rows[r0:r1], truth.rows, sum_type)
    bound = int(row_sums.max())
    if bound < floor:
        return bound
    col_sums = _shift_sums(p_cols[c0:c1], truth.cols, sum_type)
    bound = min(bound, int(col_sums.max()))
    if bound < floor:
        return bound

    # the prediction's content, padded like the runs: shift (k, m) of the
    # sums lays box pixel (i, j) on padded pixel (i + k, j + m)
    bh, bw = truth.box.shape
    padded = np.zeros((r1 - r0 + 2 * (bh - 1), c1 - c0 + 2 * (bw - 1)), dtype=np.uint8)
    padded[bh - 1:bh - 1 + r1 - r0, bw - 1:bw - 1 + c1 - c0] = pred[r0:r1, c0:c1]
    width = padded.shape[1]
    pixels = truth.pixels[0] * width + truth.pixels[1]

    def overlaps(ks: np.ndarray, ms: np.ndarray) -> np.ndarray:
        shifts = (ks[:, None] * width + ms).ravel()
        return np.add.reduce(padded.ravel()[shifts[:, None] + pixels], axis=1, dtype=sum_type)

    peak = int(overlaps(row_sums.argmax(keepdims=True), col_sums.argmax(keepdims=True))[0])
    level = max(floor, peak, 1)
    ks, ms = np.flatnonzero(row_sums >= level), np.flatnonzero(col_sums >= level)
    if ks.size * ms.size * truth.count > truth.fft_shape[0] * truth.fft_shape[1]:
        return _fft_omia(pred, truth)
    best = max(peak, int(overlaps(ks, ms).max()))
    # below the floor, level is the floor: no shift left out reaches it
    return max(best, floor - 1)
