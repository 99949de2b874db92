import numpy as np
import pytest

from usreg_sim.imgvol import dice, metrics, omia, precision, prepare_truth, recall
from usreg_sim.imgvol.metrics import _fft_len, _fft_omia


from _oracles import brute_force_omia, brute_ratio_metrics, reference_omia


def test_worked_example():
    # prediction of 4 pixels, truth of 6 pixels, overlap 3
    pred = np.zeros((4, 4), dtype=np.uint8)
    truth = np.zeros((4, 4), dtype=np.uint8)
    pred[0, 0:4] = 1
    truth[0, 0:3] = 1
    truth[1, 0:3] = 1
    assert precision(pred, truth) == 0.75
    assert recall(pred, truth) == 0.5
    assert dice(pred, truth) == 0.6


def test_matches_brute_force_randomized():
    rng = np.random.default_rng(5)
    for _ in range(60):
        ndim = rng.choice([2, 3])
        shape = tuple(rng.integers(1, 17, size=ndim))
        pred = (rng.random(shape) < rng.uniform(0, 1)).astype(np.uint8)
        truth = (rng.random(shape) < rng.uniform(0, 1)).astype(np.uint8)
        p, r, d = brute_ratio_metrics(pred, truth)
        assert precision(pred, truth) == pytest.approx(float(p), abs=0)
        assert recall(pred, truth) == pytest.approx(float(r), abs=0)
        assert dice(pred, truth) == pytest.approx(float(d), abs=0)


def test_empty_conventions():
    empty = np.zeros((3, 3), dtype=np.uint8)
    full = np.ones((3, 3), dtype=np.uint8)
    assert precision(empty, empty) == 1.0
    assert recall(empty, empty) == 1.0
    assert dice(empty, empty) == 1.0
    assert precision(empty, full) == 0.0
    assert recall(full, empty) == 0.0
    assert dice(empty, full) == 0.0


def test_precision_recall_duality_and_dice_symmetry():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = (rng.random((8, 8)) < 0.5).astype(np.uint8)
        b = (rng.random((8, 8)) < 0.5).astype(np.uint8)
        assert precision(a, b) == recall(b, a)
        assert dice(a, b) == dice(b, a)


def test_validation_errors():
    with pytest.raises(ValueError):
        precision(np.zeros((2, 2), dtype=np.uint8), np.zeros((3, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        dice(np.full((2, 2), 2, dtype=np.uint8), np.zeros((2, 2), dtype=np.uint8))


# --------------------------------------------------------------------- omia



def test_omia_hand_example():
    pred = np.array([[1, 1]], dtype=np.uint8)
    truth = np.zeros((5, 6), dtype=np.uint8)
    truth[2, 3:5] = 1
    assert omia(pred, truth) == 2


def test_omia_self_is_count():
    rng = np.random.default_rng(8)
    m = (rng.random((10, 10)) < 0.3).astype(np.uint8)
    assert omia(m, m) == int(m.sum())


def test_omia_single_pixel():
    truth = np.zeros((6, 6), dtype=np.uint8)
    truth[3, 2] = truth[0, 5] = 1
    pred = np.zeros((6, 6), dtype=np.uint8)
    pred[0, 0] = 1
    assert omia(pred, truth) == 1


def test_omia_empty_cases():
    z = np.zeros((5, 5), dtype=np.uint8)
    o = np.ones((5, 5), dtype=np.uint8)
    assert omia(z, o) == 0
    assert omia(o, z) == 0
    assert omia(z, z) == 0


def test_omia_matches_exhaustive_randomized():
    rng = np.random.default_rng(9)
    for _ in range(100):
        th, tw = rng.integers(2, 17, size=2)
        ph, pw = rng.integers(1, th + 1), rng.integers(1, tw + 1)
        pred = (rng.random((ph, pw)) < rng.uniform(0.1, 0.9)).astype(np.uint8)
        truth = (rng.random((th, tw)) < rng.uniform(0.1, 0.9)).astype(np.uint8)
        assert omia(pred, truth) == brute_force_omia(pred, truth)


def test_omia_bounds_and_translation_invariance():
    rng = np.random.default_rng(10)
    for _ in range(30):
        pred = np.zeros((12, 12), dtype=np.uint8)
        truth = np.zeros((12, 12), dtype=np.uint8)
        pred[2:5, 2:6] = (rng.random((3, 4)) < 0.6).astype(np.uint8)
        truth[4:9, 3:8] = (rng.random((5, 5)) < 0.6).astype(np.uint8)
        score = omia(pred, truth)
        assert score >= int(np.count_nonzero(pred & truth))
        assert score <= min(int(pred.sum()), int(truth.sum()))
        shifted = np.roll(pred, (3, -2), axis=(0, 1))  # content stays inside the frame
        assert omia(shifted, truth) == score


def test_omia_rejects_oversized_pred():
    with pytest.raises(ValueError):
        omia(np.zeros((7, 3), dtype=np.uint8), np.zeros((5, 5), dtype=np.uint8))


def _truth_and_pred_families():
    """A sparse truth and predictions against it: empty, single pixel,
    full-frame noise, a corner piece at the frame edge, a smaller frame,
    then ten random densities."""
    rng = np.random.default_rng(11)
    shape = (23, 14)
    truth = np.zeros(shape, dtype=np.uint8)
    truth[6:15, 3:10] = rng.random((9, 7)) < 0.6

    empty = np.zeros(shape, dtype=np.uint8)
    single = empty.copy()
    single[17, 2] = 1
    noisy = (rng.random(shape) < 0.3).astype(np.uint8)  # content spans the frame
    assert noisy[0].any() and noisy[-1].any() and noisy[:, 0].any() and noisy[:, -1].any()
    edge = empty.copy()
    edge[-4:, -3:] = truth[8:12, 4:7]  # the corner piece of the truth, at the frame corner
    small = (rng.random((5, 9)) < 0.5).astype(np.uint8)  # a pred smaller than the frame
    preds = [empty, single, noisy, edge, small]
    preds += [(rng.random(shape) < rng.uniform(0.05, 0.9)).astype(np.uint8) for _ in range(10)]
    return truth, preds


def test_prepared_truth_scores_many_preds_like_brute_force():
    truth, preds = _truth_and_pred_families()
    prepared = prepare_truth(truth)
    empty, single, noisy = preds[:3]
    for pred in preds:
        assert omia(pred, prepared) == omia(pred, truth) == brute_force_omia(pred, truth)
    assert omia(empty, prepared) == 0 and omia(single, prepared) == 1

    with pytest.raises(ValueError, match="exceeds"):
        omia(np.zeros((24, 14), dtype=np.uint8), prepared)
    with pytest.raises(ValueError, match="exceeds"):
        omia(np.zeros((5, 15), dtype=np.uint8), prepared)
    with pytest.raises(ValueError, match="0 and 1"):
        omia(np.full((5, 5), 2, dtype=np.uint8), prepared)
    with pytest.raises(ValueError, match="2D"):
        omia(np.zeros((2, 2, 2), dtype=np.uint8), prepared)
    assert omia(noisy, prepare_truth(empty)) == 0


def test_single_precision_omia_is_exact_at_dense_extremes():
    # the transforms run in float32; the largest peaks, and the largest
    # rounding error, come from dense masks filling the frame
    rng = np.random.default_rng(13)
    shape = (216, 100)
    full = np.ones(shape, dtype=np.uint8)
    tall = np.zeros(shape, dtype=np.uint8)
    tall[30:187, 40:55] = 1  # a 157x15 box
    single = np.zeros(shape, dtype=np.uint8)
    single[100, 50] = 1
    half = [(rng.random(shape) < 0.5).astype(np.uint8) for _ in range(3)]
    cases = [(full, full), (single, full), (single, tall)]
    cases += [(pred, truth) for pred in half for truth in (full, tall)]
    cases += [(pred, truth) for pred, truth in zip(half, half[1:] + half[:1])]
    for pred, truth in cases:
        want = reference_omia(pred, truth)  # float64 correlation, rint
        assert omia(pred, truth) == omia(pred, prepare_truth(truth)) == want
        assert _fft_omia(pred, prepare_truth(truth)) == want
    assert omia(full, full) == 21600
    assert omia(single, full) == omia(single, tall) == 1
    # on small frames, against the exhaustive integer scan
    for _ in range(20):
        small = tuple(rng.integers(1, 13, size=2))
        truth = np.ones(small, dtype=np.uint8) if rng.random() < 0.5 else (
            (rng.random(small) < 0.5).astype(np.uint8))
        pred = (rng.random(small) < rng.choice([0.5, 1.0])).astype(np.uint8)
        want = brute_force_omia(pred, truth)
        assert omia(pred, truth) == omia(pred, prepare_truth(truth)) == want
        assert _fft_omia(pred, prepare_truth(truth)) == want


def test_fft_len_is_the_5_smooth_length_scipy_picks():
    from scipy import fft as sp_fft

    want = [sp_fft.next_fast_len(n, real=True) for n in range(1, 1025)]
    assert [_fft_len(n) for n in range(1, 1025)] == want


def _exact_or_below(got: int, want: int, floor: int) -> bool:
    """``omia``'s contract with a floor: exact at or above it, else a bound below it."""
    return got == want if want >= floor else want <= got < floor


def test_omia_bound_hand_example():
    # a vertical and a horizontal bar of 5: the counts allow 5, the rows 1
    truth = np.zeros((7, 7), dtype=np.uint8)
    truth[1:6, 3] = 1
    pred = np.zeros((7, 7), dtype=np.uint8)
    pred[2, 1:6] = 1
    prepared = prepare_truth(truth)
    assert (prepared.count, prepared.rows.tolist(), prepared.cols.tolist()) == (5, [1] * 5, [5])
    assert omia(pred, prepared, 0) == omia(pred, prepared, 1) == 1
    # a floor the counts already miss stops before the projections
    assert omia(pred, prepared, 6) == 5
    # one the counts reach stops at the row bound
    assert omia(pred, prepared, 5) == omia(pred, prepared, 2) == 1


def test_omia_bound_is_an_upper_bound_on_every_family():
    truth, preds = _truth_and_pred_families()
    prepared = prepare_truth(truth)
    for pred in preds:
        want = brute_force_omia(pred, truth)
        counts = min(int(pred.sum()), int(truth.sum()))
        for floor in range(counts + 2):
            assert _exact_or_below(omia(pred, prepared, floor), want, floor)
    assert omia(preds[0], prepared, 3) == 0  # empty pred
    assert omia(truth, prepare_truth(np.zeros_like(truth)), 3) == 0
    with pytest.raises(ValueError, match="exceeds"):
        omia(np.zeros((24, 14), dtype=np.uint8), prepared, 1)
    with pytest.raises(ValueError, match="0 and 1"):
        omia(np.full((5, 5), 2, dtype=np.uint8), prepared, 1)
    with pytest.raises(ValueError, match="2D"):
        omia(np.zeros((2, 2, 2), dtype=np.uint8), prepared, 1)


def test_omia_bound_holds_on_full_frames():
    rng = np.random.default_rng(17)
    shape = (216, 100)
    full = np.ones(shape, dtype=np.uint8)
    tube = np.zeros(shape, dtype=np.uint8)
    tube[60:110, 30:70] = 1
    truths = [full, tube, (rng.random(shape) < 0.02).astype(np.uint8)]
    preds = [full, tube.T[:100, :100].copy()]
    preds += [(rng.random(shape) < d).astype(np.uint8) for d in (0.003, 0.05, 0.5)]
    tighter = 0  # pairs where the projections cut below the counts
    for truth in truths:
        prepared = prepare_truth(truth)
        for pred in preds:
            want = reference_omia(pred, truth)
            counts = min(int(pred.sum()), int(truth.sum()))
            for floor in (0, want, want + 1, counts):
                assert _exact_or_below(omia(pred, prepared, floor), want, floor)
            tighter += omia(pred, prepared, counts) < counts
    assert omia(full, prepare_truth(full), 21600) == 21600
    assert tighter >= 4


def _vessel_frame(rng, shape=(216, 100)):
    """A few filled ellipses, like a segmented vein cross-section."""
    rows, cols = np.indices(shape)
    mask = np.zeros(shape, dtype=bool)
    for _ in range(rng.integers(1, 4)):
        r, c = rng.uniform(40, shape[0] - 40), rng.uniform(20, shape[1] - 20)
        a, b = rng.uniform(4, 18, size=2)
        mask |= ((rows - r) / a) ** 2 + ((cols - c) / b) ** 2 <= 1.0
    return mask.astype(np.uint8)


def test_omia_with_a_floor_matches_the_reference_on_both_routes(monkeypatch):
    """Exact at or above the floor, a bound below it, by gather or by FFT."""
    rng = np.random.default_rng(19)
    routes = {"gather": 0, "fft": 0}

    def counting_fft(pred, truth):
        routes["fft"] += 1
        return _fft_omia(pred, truth)

    monkeypatch.setattr(metrics, "_fft_omia", counting_fft)
    shape = (216, 100)
    cases = []
    for _ in range(8):  # sparse vessel-like pairs: a moved, noisy copy
        truth = _vessel_frame(rng)
        pred = np.roll(truth, tuple(rng.integers(-6, 7, size=2)), axis=(0, 1))
        pred = pred ^ (rng.random(shape) < 0.002)
        cases += [(pred, truth), (_vessel_frame(rng), truth)]
    for d in (0.3, 0.5, 0.9):  # dense random pairs
        cases.append(tuple((rng.random(shape) < d).astype(np.uint8) for _ in range(2)))
    full = np.ones(shape, dtype=np.uint8)
    single = np.zeros(shape, dtype=np.uint8)
    single[100, 50] = 1
    cases += [(full, full), (single, full), (full, _vessel_frame(rng))]
    for pred, truth in cases:
        want = reference_omia(pred, truth)
        prepared = prepare_truth(truth)
        counts = min(int(pred.sum()), int(truth.sum()))
        for floor in sorted({0, want // 2, want, want + 1, counts}):
            fft_before = routes["fft"]
            assert _exact_or_below(omia(pred, prepared, floor), want, floor)
            # a score at or above the floor passes every bound: it is exact
            # by the gather unless the FFT ran
            routes["gather"] += 0 < want >= floor and routes["fft"] == fft_before
    assert omia(full, full) == 21600
    assert routes["gather"] >= 20 and routes["fft"] >= 10
