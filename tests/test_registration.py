"""Registration objective and solver tests.

The MI oracle is computed with plain math.log arithmetic from explicit
joint counts, independent of the library's histogram code. The solver's
sparse joint counts are checked bit for bit against the dense reference in
``_oracles``.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from usreg_sim.imgvol import (
    RigidTransform3,
    Volume3,
    centroid,
    compose,
    dice,
    euler_zyx,
    inverse,
    rotation_about,
    rotation_z,
    translation,
    voxel_to_physical,
)
from usreg_sim.phantom import ct_frame_volume, generate_phantom, place_phantom
from usreg_sim.pipeline import harmonize
from usreg_sim import harness, pipeline, registration
from usreg_sim.registration import (
    RegistrationConfig,
    _batch_mi,
    _eval_points,
    _lattice_scorer,
    _make_transform,
    _score_inputs,
    _SparseJointCounts,
    _StencilSupport,
    _theta_maps,
    apply_transform,
    mutual_information,
    register_rigid,
)

from _oracles import (
    _mi_from_counts,
    _pattern_search as serial_pattern_search,
    _theta_map,
    dense_joint_counts,
    reference_apply_transform,
    reference_register_rigid,
    reference_stage_score,
)


def _mi_oracle(n00, n01, n10, n11):
    total = n00 + n01 + n10 + n11
    joint = [[n00 / total, n01 / total], [n10 / total, n11 / total]]
    rows = [joint[0][0] + joint[0][1], joint[1][0] + joint[1][1]]
    cols = [joint[0][0] + joint[1][0], joint[0][1] + joint[1][1]]
    mi = 0.0
    for r in (0, 1):
        for c in (0, 1):
            p = joint[r][c]
            if p > 0:
                mi += p * math.log(p / (rows[r] * cols[c]))
    return mi


def _mi(counts):
    """The package's MI of one 2x2 count table."""
    (mi,) = _batch_mi(np.asarray(counts, dtype=np.float64)[None])
    return mi


def test_mi_matches_hand_joint_counts():
    got = _mi([[400.0, 40.0], [40.0, 32.0]])
    assert got == pytest.approx(_mi_oracle(400, 40, 40, 32), abs=1e-12)
    # frozen via the independent identity MI = H(rows) + H(cols) - H(joint)
    assert got == pytest.approx(0.047695803244, abs=1e-9)


def test_mi_self_is_marginal_entropy():
    rng = np.random.default_rng(4)
    data = (rng.random((8, 8, 8)) < 0.3).astype(np.uint8)
    # content spans the grid, so the scoring lattice is the whole grid
    nz = np.argwhere(data)
    assert (nz.min(axis=0) == 0).all() and (nz.max(axis=0) == 7).all()
    vol = Volume3(data, np.ones(3), np.zeros(3), np.eye(3))
    p1 = data.mean()
    entropy = -(p1 * math.log(p1) + (1 - p1) * math.log(1 - p1))
    (got,) = mutual_information(vol, vol, [RigidTransform3.identity()])
    assert got == pytest.approx(entropy, abs=1e-12)
    assert got > 0


def test_mi_constant_moving_is_zero():
    assert _mi([[440.0, 0.0], [72.0, 0.0]]) == 0.0


def test_mi_empty_overlap_flagged_zero():
    assert _mi(np.zeros((2, 2))) == 0.0


def _random_count_tables(rng, n):
    """(n, 2, 2) partial-volume count tables, with empty cells, rows, columns and tables."""
    counts = rng.integers(0, 2000, (n, 2, 2)) + rng.random((n, 2, 2)) * (rng.random((n, 1, 1)) < 0.7)
    zero = rng.random((n, 2, 2)) < 0.2
    zero[rng.random(n) < 0.1] = True  # empty tables
    zero[rng.random(n) < 0.1, rng.integers(0, 2)] = True  # empty rows
    zero[rng.random(n) < 0.1, :, rng.integers(0, 2)] = True  # empty columns
    counts[zero] = 0.0
    return counts


def test_batch_maps_and_mi_match_the_per_map_oracles():
    # every value the search feeds in: thetas within the bounds, off-grid
    # steps, exact zeros and the bounds themselves
    rng = np.random.default_rng(71)
    init = RigidTransform3(euler_zyx(3.0, -2.0, 1.0), np.array([12.5, -7.25, 3.0]))
    center = np.array([64.3, 95.1, 59.8])
    for size in [1] * 200 + [8] * 100 + [2, 3, 5] * 30:
        thetas = rng.uniform(-1.0, 1.0, (size, 6)) * [20.0, 20.0, 20.0, 10.0, 10.0, 10.0]
        thetas[rng.random((size, 6)) < 0.2] = 0.0
        thetas[rng.random((size, 6)) < 0.05] = 20.0
        a, b = _theta_maps(list(thetas), center, init)
        for theta, a_t, b_t in zip(thetas, a, b):
            want_a, want_b = _theta_map(theta, center, init)
            assert a_t.tobytes() == want_a.tobytes() and b_t.tobytes() == want_b.tobytes()
        if size == 1:
            t = _make_transform(thetas[0], center, init)
            assert t.rotation.tobytes() == a[0].tobytes() and t.translation.tobytes() == b[0].tobytes()
        counts = _random_count_tables(rng, size)
        got = _batch_mi(counts)
        assert [g.tobytes() for g in got] == [np.float64(_mi_from_counts(c)).tobytes() for c in counts]


@pytest.fixture(scope="module")
def annotation():
    return generate_phantom(seed=5).hv_annotation


def _shifted(vol, delta):
    """``vol`` with its physical placement moved by ``delta`` mm; the data is shared."""
    return Volume3(vol.data, vol.spacing, vol.origin + delta, vol.axes)


def _rotation_angle_deg(transform):
    tr = np.trace(transform.rotation)
    return math.degrees(math.acos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0)))


def test_self_registration_returns_identity(annotation):
    t, score = register_rigid(annotation, annotation, cfg=RegistrationConfig(seed=1))
    assert np.linalg.norm(t.translation) <= 1.0  # half a voxel
    assert _rotation_angle_deg(t) <= 0.5
    assert score > 0


def test_translation_recovery_with_centroid_init(annotation):
    shift = np.array([5.0, 0.0, 0.0])
    moving = _shifted(annotation, shift)
    init = translation(-shift)  # centroid init: contents share shape exactly
    t, _ = register_rigid(annotation, moving, init=init, cfg=RegistrationConfig(seed=2))
    probe_pt = np.array([64.0, 95.0, 60.0]) + shift
    err = np.linalg.norm(t.apply(probe_pt) - (probe_pt - shift))
    assert err <= 2.0  # one voxel
    assert _rotation_angle_deg(t) <= 1.0


def test_rotation_translation_recovery_resampled(annotation):
    truth_move = compose(
        translation(np.array([3.0, -2.0, 0.0])),
        rotation_about(rotation_z(4.0), np.array([64.0, 95.0, 60.0])),
    )
    moving = apply_transform(annotation, truth_move, annotation)
    # register moving back onto fixed: truth is the inverse motion
    truth = inverse(truth_move)
    g_fixed = _content_centroid(annotation)
    g_moving = _content_centroid(moving)
    init = translation(g_fixed - g_moving)
    t, _ = register_rigid(annotation, moving, init=init, cfg=RegistrationConfig(seed=3))
    for pt in (np.array([64.0, 95.0, 60.0]), np.array([80.0, 95.0, 62.0])):
        src = truth_move.apply(pt)
        assert np.linalg.norm(t.apply(src) - truth.apply(src)) <= 2.0
    assert abs(_rotation_angle_deg(t) - 4.0) <= 1.0


class _RangeCheckedTable(np.ndarray):
    """A corner-code table that fails any ``take`` outside its bounds and counts its reads.

    ``take`` accepts negative indices, which would read the far end of the
    table, so a read out of range is caught here rather than by numpy.
    """

    reads = 0

    def take(self, indices, *args, **kwargs):
        indices = np.asarray(indices)
        assert indices.size == 0 or (indices.min() >= 0 and indices.max() < self.size)
        type(self).reads += indices.size
        return np.asarray(self).take(indices, *args, **kwargs)


def _range_checked(support):
    return dataclasses.replace(support, code=support.code.view(_RangeCheckedTable))


def _face_mask():
    """A seeded 30% mask whose six faces all hold foreground."""
    mask = (np.random.default_rng(91).random((14, 16, 12)) < 0.3).astype(np.uint8)
    for d in range(3):
        assert mask.take(0, axis=d).any() and mask.take(-1, axis=d).any()
    return mask


def _dense_oracle_case(annotation, case, rng):
    """(fixed, moving, init) of one case of the sparse-vs-dense check."""
    # the acceptance-3 misalignment: moved frame, centroid init
    shift = rng.uniform(-10.0, 10.0, 3)
    g = centroid(annotation)
    move = compose(translation(shift), rotation_about(rotation_z(float(rng.uniform(-5.0, 5.0))), g))
    if case in ("inside", "partial", "disjoint", "stride-3"):
        moving = Volume3(annotation.data.astype(np.float64), annotation.spacing,
                         move.apply(annotation.origin), annotation.axes @ move.rotation.T)
        return annotation, moving, translation(g - centroid(moving))
    if case == "yaw-pitch-45":
        moving = Volume3(annotation.data, annotation.spacing, move.apply(annotation.origin),
                         annotation.axes @ move.rotation.T)
        return annotation, moving, rotation_about(euler_zyx(45.0, 45.0, 0.0), centroid(moving), g - centroid(moving))
    if case == "anisotropic":
        fixed = Volume3(annotation.data, [2.0, 2.0, 3.0], annotation.origin, annotation.axes)
        moving = Volume3(annotation.data, fixed.spacing, move.apply(fixed.origin), fixed.axes @ move.rotation.T)
        return fixed, moving, translation(centroid(fixed) - centroid(moving))
    mask = _face_mask()
    if case == "ties":
        fixed = Volume3(mask, np.full(3, 0.7), np.array([0.3, -1.1, 2.9]), np.eye(3))
        turn = rotation_about(rotation_z(90.0), voxel_to_physical(fixed, [7, 8, 6]))
        return fixed, Volume3(mask, fixed.spacing, turn.apply(fixed.origin), turn.rotation.T), RigidTransform3.identity()
    # faces: the same mask, its frame moved by a sub-voxel offset and a yaw
    fixed = Volume3(mask, np.full(3, 2.0), np.zeros(3), np.eye(3))
    move = rotation_about(rotation_z(4.0), centroid(fixed), [1.3, -0.7, 0.9])
    return fixed, Volume3(mask, fixed.spacing, move.apply(fixed.origin), move.rotation.T), RigidTransform3.identity()


@pytest.mark.parametrize(
    ("case", "stride", "pad", "theta_scale"),
    [
        # refinement lattice, small moves: every point inside the moving extent
        ("inside", 1, 4, [2.0, 2.0, 2.0, 1.0, 1.0, 1.0]),
        # coarse lattice reaches the grid border: partly outside
        ("partial", 2, 12, [20.0, 20.0, 20.0, 10.0, 10.0, 10.0]),
        # translated far past the moving extent: no overlap
        ("disjoint", 2, 12, [0.0, 0.0, 0.0, 10.0, 10.0, 10.0]),
        # init turned 45 deg in yaw and in pitch: slanted candidate boxes
        ("yaw-pitch-45", 1, 4, [2.0, 2.0, 2.0, 1.0, 1.0, 1.0]),
        # a stride-3 lattice scatters from blocks of 27 cells
        ("stride-3", 3, 12, [20.0, 20.0, 20.0, 10.0, 10.0, 10.0]),
        # (2, 2, 3) mm voxels and a turned frame: the shortcut is no scaled rotation
        ("anisotropic", 2, 12, [8.0, 8.0, 8.0, 5.0, 5.0, 5.0]),
        # foreground on all six faces of the moving grid
        ("faces", 1, 4, [2.0, 2.0, 2.0, 2.0, 2.0, 2.0]),
        # turned a quarter about a voxel centre: lattice points on moving voxel centres
        ("ties", 1, 2, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
    ],
)
def test_sparse_joint_counts_match_dense_oracle(annotation, case, stride, pad, theta_scale):
    rng = np.random.default_rng(33)
    fixed, moving, init = _dense_oracle_case(annotation, case, rng)
    center = init.apply(centroid(moving))
    counts = _lattice_scorer(_score_inputs(fixed, moving), [init], np.full(3, pad), stride)
    counts.support = _range_checked(counts.support)
    _RangeCheckedTable.reads = 0
    pts, fvals = counts.pts, counts.fvals
    thetas = rng.uniform(-1.0, 1.0, (12, 6)) * theta_scale
    if case == "disjoint":
        thetas[:, 0] += 500.0
    # scored in pairs, as the pattern search does, and all in one batch
    got = np.concatenate([counts(*_theta_maps(pair, center, init)) for pair in thetas.reshape(6, 2, 6)])
    assert np.array_equal(counts(*_theta_maps(thetas, center, init)), got)
    idx, n_inside = [], []
    for theta, sparse in zip(thetas, got):
        a, b = _theta_map(theta, center, init)
        dense = dense_joint_counts(fvals, moving, (pts - b) @ a)
        assert np.array_equal(sparse, dense)
        idx.append((((pts - b) @ a - moving.origin) @ moving.axes.T) / moving.spacing)
        n_inside.append(dense.sum())
    # each case's precondition: the overlap it is named for, or a partial one
    n_inside = np.array(n_inside)
    partial = (0 < n_inside) & (n_inside < len(pts))
    assert {"inside": n_inside == len(pts), "disjoint": n_inside == 0}.get(case, partial).all()
    if case == "disjoint":
        assert all(_mi(sparse) == 0.0 for sparse in got) and _RangeCheckedTable.reads == 0
        return
    assert (got[:, :, 1].sum(axis=1) > 0).all() and _RangeCheckedTable.reads > 0
    # and the edge it is named for is reached
    idx = np.concatenate(idx)
    if case == "yaw-pitch-45":
        assert _rotation_angle_deg(init) > 55.0
    elif case == "stride-3":
        assert np.array_equal(pts[1] - pts[0], 3 * fixed.spacing[2] * fixed.axes[2])
    elif case == "anisotropic":
        assert len(set(moving.spacing)) == 2 and not np.allclose(moving.axes, fixed.axes)
    elif case == "faces":
        # inside points in the outer half voxel at both ends of an axis sample a face cell
        shape = np.array(moving.shape)
        inside = np.all((idx >= -0.5) & (idx < shape - 0.5), axis=1)
        samples = ndimage.map_coordinates(moving.data.astype(np.float64), idx.T, order=1, mode="grid-constant")
        hit = inside & (samples > 0)
        assert (hit & np.any(idx < 0.0, axis=1)).any() and (hit & np.any(idx > shape - 1.0, axis=1)).any()
    elif case == "ties":
        # on a voxel centre up to rounding, often just below it: floors one apart
        assert np.abs(idx - np.round(idx)).max() < 1e-9 and (idx < np.round(idx)).sum() > 1000


def test_corner_code_samples_match_map_coordinates():
    # a mask with foreground on every face, read at seeded points from two
    # voxels below the grid to two above it: random, on voxel centres, on
    # half-voxel ties (the extent's faces among them) and just off both; a
    # fifth lie within a voxel of 0, where t keeps the low bits that make
    # 1 - (1 - t) differ from t
    rng = np.random.default_rng(93)
    mask = _face_mask()
    shape = np.array(mask.shape)
    support = _range_checked(_StencilSupport.of(np.argwhere(mask), mask.shape))
    n = 60000
    idx = -2.0 + (shape[:, None] + 3.0) * rng.random((3, n))
    idx[:, : n // 5] = rng.uniform(-1.0, 1.0, (3, n // 5))
    kind = rng.integers(0, 5, (3, n))
    half = np.round(idx * 2.0) / 2.0
    idx = np.select([kind == 1, kind == 2, kind == 3], [np.round(idx), half, half + rng.choice([-1e-13, 1e-13], (3, n))], idx)
    assert np.isin(-0.5, idx[0]) and np.isin(shape[0] - 0.5, idx[0])
    _RangeCheckedTable.reads = 0
    hit, frac = support.sample(idx)
    assert _RangeCheckedTable.reads > 0
    want = ndimage.map_coordinates(mask.astype(np.float64), idx, order=1, mode="grid-constant", cval=0.0)
    inside = np.all((idx >= -0.5) & (idx < shape[:, None] - 0.5), axis=0)
    assert np.all(np.diff(hit) > 0) and inside[hit].all()
    # every nonzero sample inside the extent is a hit, with map_coordinates' bits
    assert np.isin(np.flatnonzero(inside & (want != 0)), hit).all()
    assert frac.tobytes() == want[hit].tobytes()
    assert (frac > 0).sum() > 1000 and (frac == 0).any() and (frac == 1).any()
    t = idx - np.floor(idx)
    assert (1.0 - (1.0 - t) != t).any()


def test_exact_route_gives_each_point_the_whole_lattice_bits(annotation):
    # batches mixing one-point blocks, empty blocks and one point in all:
    # every point gets the bits of the whole lattice's matrix-matrix route
    rng = np.random.default_rng(81)
    fixed, moving, init, _ = _acceptance_3_case(annotation, 0)
    center = init.apply(centroid(moving))
    counts = _lattice_scorer(_score_inputs(fixed, moving), [init], np.full(3, 4), 1)
    pts = counts.pts
    thetas = rng.uniform(-1.0, 1.0, (4, 6)) * [2.0, 2.0, 2.0, 1.0, 1.0, 1.0]
    a, b = _theta_maps(thetas, center, init)
    whole = [(((pts - b_t) @ a_t - moving.origin) @ moving.axes.T) / moving.spacing for a_t, b_t in zip(a, b)]
    for _ in range(50):
        sizes = rng.integers(0, 3, 4)
        sizes[rng.integers(0, 4)] = 1
        for sizes in (sizes, np.eye(4, dtype=np.int64)[rng.integers(0, 4)]):
            flat = rng.integers(0, len(pts), sizes.sum())
            want = np.array([whole[t][i] for t, i in zip(np.repeat(np.arange(4), sizes), flat)])
            assert counts._exact(a, b, flat, sizes).tobytes() == want.tobytes()


def test_mutual_information_is_the_solver_score(annotation):
    # acceptance-3 case 0: moved frame, scored at the centroid init and at truth
    rng = np.random.default_rng(33)
    shift = rng.uniform(-10.0, 10.0, 3)
    truth_move = compose(
        translation(shift),
        rotation_about(rotation_z(float(rng.uniform(-5.0, 5.0))), centroid(annotation)),
    )
    moving = Volume3(
        annotation.data, annotation.spacing,
        truth_move.apply(annotation.origin), annotation.axes @ truth_move.rotation.T,
    )
    transforms = [translation(centroid(annotation) - centroid(moving)), inverse(truth_move)]
    got = mutual_information(annotation, moving, transforms)
    # one lattice for all transforms: the refinement level's, at full resolution
    pts, fvals, _ = _eval_points(_score_inputs(annotation, moving), transforms, 4, 1)
    want = [
        _mi_from_counts(dense_joint_counts(fvals, moving, (pts - t.translation) @ t.rotation))
        for t in transforms
    ]
    assert got == want
    assert got[1] > got[0]


def _content_centroid(vol):
    from usreg_sim.imgvol import centroid

    return centroid(vol)


def test_registration_deterministic(annotation):
    moving = _shifted(annotation, np.array([4.0, 3.0, -2.0]))
    cfg = RegistrationConfig(seed=9)
    t1, s1 = register_rigid(annotation, moving, cfg=cfg)
    t2, s2 = register_rigid(annotation, moving, cfg=cfg)
    assert np.array_equal(t1.rotation, t2.rotation)
    assert np.array_equal(t1.translation, t2.translation)
    assert s1 == s2


def test_score_trace_monotone_per_level(annotation):
    moving = _shifted(annotation, np.array([6.0, -4.0, 2.0]))
    _, _, traces = register_rigid(
        annotation, moving, cfg=RegistrationConfig(seed=4), return_trace=True
    )
    assert len(traces) == 2
    for trace in traces:
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))


def test_zero_noise_misalignments_always_improve(annotation):
    rng = np.random.default_rng(12)
    for _ in range(5):
        delta = rng.uniform(-8, 8, size=3)
        moving = _shifted(annotation, delta)
        init = translation(_content_centroid(annotation) - _content_centroid(moving))
        t, _ = register_rigid(annotation, moving, init=init, cfg=RegistrationConfig(seed=7))
        before = dice(apply_transform(moving, init, annotation).data, annotation.data)
        after = dice(apply_transform(moving, t, annotation).data, annotation.data)
        assert after >= before


def _acceptance_3_case(annotation, k):
    """Acceptance check 3's case k: moved frame, centroid init, seed k."""
    rng = np.random.default_rng(33)
    for _ in range(k + 1):
        shift = rng.uniform(-10.0, 10.0, 3)
        yaw = float(rng.uniform(-5.0, 5.0))
    truth_move = compose(translation(shift), rotation_about(rotation_z(yaw), centroid(annotation)))
    moving = Volume3(
        annotation.data, annotation.spacing,
        truth_move.apply(annotation.origin), annotation.axes @ truth_move.rotation.T,
    )
    init = translation(centroid(annotation) - centroid(moving))
    return annotation, moving, init, RegistrationConfig(seed=k)


def _register_yaw7_case():
    """The harmonized pair ``usreg-sim register`` solves for the placed, 7 deg yawed phantom 3."""
    scene = place_phantom(generate_phantom(3), [12.0, -8.0, 0.0], yaw_deg=7.0)
    hu, hc, init = harmonize(ct_frame_volume(scene.hv_annotation, scene.placement), scene.hv_annotation)
    return hu, hc, init, RegistrationConfig()


def test_restarts_win_on_zero_noise_trial_0(monkeypatch):
    """A restart, not the init's own search, wins the coarse stage of a real trial.

    The pair is the harmonized grids and init that ``coordinate_map`` registers
    in zero-noise trial 0 at seed 0. With the 3 restarts the coarse winner
    ends at MI 0.1019 and the final score is 0.08674; with none the init's
    search ends at 0.0996 and the final score is 0.08559, 2.4 mm off in x.
    """
    maps = []

    def recording(*args):
        maps.append((args, pipeline.coordinate_map(*args)))
        return maps[-1][1]

    monkeypatch.setattr(harness, "coordinate_map", recording)
    cfg = harness.SweepConfig(trials=1, noise="zero", epsilons=(2.0,), targets_limit=1, seed=0)
    harness.run_trial(cfg, 0)
    [((hu, hc, init), cmap)] = maps
    t, score, (coarse, _) = register_rigid(hu, hc, init, return_trace=True)
    assert score == cmap.registration["score"] == pytest.approx(0.08674, abs=1e-5)

    monkeypatch.setattr(registration, "_RESTARTS", 0)
    t_alone, score_alone, (coarse_alone, _) = register_rigid(hu, hc, init, return_trace=True)
    assert coarse[-1] > coarse_alone[-1]
    assert score > score_alone == pytest.approx(0.08559, abs=1e-5)
    assert abs(t.translation[0] - t_alone.translation[0]) > 2.0


def test_each_candidate_is_scored_once_with_unchanged_results(annotation, monkeypatch):
    # per scorer instance, the (a, b) bytes of the maps of each call
    scored = {}
    call = _SparseJointCounts.__call__

    def recording_call(self, a, b):
        scored.setdefault(self, []).append([a_t.tobytes() + b_t.tobytes() for a_t, b_t in zip(a, b)])
        return call(self, a, b)

    # per batched search, its starts, steps, results and number of rounds
    searches = []
    search = registration._pattern_search

    def counting_search(score, starts, steps0):
        rounds = [0]

        def counted(thetas):
            rounds[0] += 1
            return score(thetas)

        runs = search(counted, starts, steps0)
        searches.append((starts, steps0, runs, rounds[0]))
        return runs

    monkeypatch.setattr(_SparseJointCounts, "__call__", recording_call)
    monkeypatch.setattr(registration, "_pattern_search", counting_search)
    cases = [_acceptance_3_case(annotation, k) for k in range(3)] + [_register_yaw7_case()]
    for fixed, moving, init, cfg in cases:
        scored.clear()
        searches.clear()
        t, score, traces = register_rigid(fixed, moving, init, cfg, return_trace=True)
        assert len(scored) == 2 and len(searches) == 2  # one scorer and one search per stage
        coarse_lattice = next(iter(scored))
        coarse_calls, fine_calls = scored.values()
        (starts, steps0, coarse_runs, coarse_rounds), _ = searches
        assert len(starts) == 1 + registration._RESTARTS
        # at most one coarse scorer call per round: the four searches share it
        assert len(coarse_calls) <= coarse_rounds
        for calls in scored.values():
            maps = [m for c in calls for m in c]
            assert len(set(maps)) == len(maps)

        scored.clear()
        t_ref, score_ref, traces_ref = reference_register_rigid(fixed, moving, init, cfg)
        ref_coarse_calls, _ = scored.values()
        assert len(coarse_calls) <= 0.4 * len(ref_coarse_calls)
        assert any(len({m for c in calls for m in c}) < sum(map(len, calls)) for calls in scored.values())
        assert t.rotation.tobytes() == t_ref.rotation.tobytes()
        assert t.translation.tobytes() == t_ref.translation.tobytes()
        assert score == score_ref
        assert traces == traces_ref

        # every coarse restart, winner or not, ends as the serial search from
        # its start on the same lattice: a row reads only its own scores
        serial_score = reference_stage_score(coarse_lattice, init.apply(centroid(moving)), init)
        for start, (theta, run_score, trace) in zip(starts, coarse_runs):
            theta_ref, run_score_ref, trace_ref = serial_pattern_search(serial_score, start, steps0)
            assert theta.tobytes() == theta_ref.tobytes()
            assert run_score == run_score_ref
            assert trace == trace_ref


def test_validation_errors(annotation):
    empty = Volume3(
        np.zeros_like(annotation.data), annotation.spacing, annotation.origin, annotation.axes,
    )
    with pytest.raises(ValueError, match="empty"):
        register_rigid(annotation, empty)
    for fixed, moving in ((annotation, empty), (empty, annotation)):
        with pytest.raises(ValueError, match="empty"):
            mutual_information(fixed, moving, [RigidTransform3.identity()])
    with pytest.raises(ValueError, match="harmonized"):
        small = Volume3(np.ones((4, 4, 4), dtype=np.uint8), annotation.spacing,
                        annotation.origin, annotation.axes)
        register_rigid(annotation, small)
    graded = Volume3(annotation.data.astype(np.float32) * 0.5,
                     annotation.spacing, annotation.origin, annotation.axes)
    with pytest.raises(ValueError, match="0 and 1"):
        register_rigid(annotation, graded)
    for fixed, moving in ((annotation, graded), (graded, annotation)):
        with pytest.raises(ValueError, match="0 and 1"):
            mutual_information(fixed, moving, [RigidTransform3.identity()])


def test_apply_transform_identity_roundtrip(annotation):
    out = apply_transform(annotation, RigidTransform3.identity(), annotation)
    assert np.array_equal(out.data, annotation.data)


def test_apply_transform_hands_its_grid_over_without_a_copy(annotation):
    out = apply_transform(annotation, RigidTransform3.identity(), annotation)
    # Volume3 copies writable input, so a view of the filled grid means the
    # output was frozen first and kept
    assert out.data.base is not None
    assert not out.data.flags.writeable


def _closest_tie_approach(moving, transform, like):
    """Smallest distance, in voxels, of any moving index sampled for ``like``
    from a half-voxel tie, with ``reference_apply_transform``'s arithmetic."""
    idx = np.indices(like.data.shape).reshape(3, -1).T.astype(np.float64)
    pts = like.origin + (idx * like.spacing) @ like.axes
    src = inverse(transform).apply(pts)
    sidx = ((src - moving.origin) @ moving.axes.T) / moving.spacing
    return float(np.abs(sidx - np.floor(sidx) - 0.5).min())


def test_apply_transform_matches_reference(annotation):
    rng = np.random.default_rng(51)
    g = centroid(annotation)
    # a grid with rotated axes around the content; ~9% of it lies below the
    # moving extent
    tilted = euler_zyx(20.0, 5.0, -10.0) @ annotation.axes
    like = Volume3(
        np.zeros((40, 36, 40), dtype=np.uint8), annotation.spacing,
        g - np.array([40.0, 36.0, 66.0]) @ tilted, tilted,
    )
    fg = np.argwhere(annotation.data)
    for k in range(12):
        shift = rng.uniform(-12.0, 12.0, 3)
        rot = np.eye(3) if k < 4 else rotation_z(float(rng.uniform(-10.0, 10.0)))
        move = compose(translation(shift), rotation_about(rot, g))
        # tilted grids whose slabs hold one voxel, or one row: the first
        # voxel sits on a moved foreground voxel
        first = move.apply(voxel_to_physical(annotation, fg[rng.integers(len(fg))]))
        tiny = [
            Volume3(np.zeros(shape, dtype=np.uint8), annotation.spacing, first, tilted)
            for shape in ((1, 1, 1), (5, 1, 1), (3, 1, 2), (2, 3, 1))
        ]
        for grid in [annotation, like, *tiny]:
            # the oracle rounds half to even and the package half up, so the
            # two agree only away from half-voxel ties: check that here
            assert _closest_tie_approach(annotation, move, grid) > 1e-9
            got = apply_transform(annotation, move, grid)
            want = reference_apply_transform(annotation, move, grid)
            assert got.data.dtype == want.data.dtype
            assert np.array_equal(got.data, want.data)
            assert got.data.any()


def test_apply_transform_one_voxel_slabs_round_as_the_whole_grid():
    # numpy's one-row product rounds differently from the multi-row one; put
    # every sample within rounding of a half-voxel tie, where that flips the
    # nearest voxel, and compare one-voxel slabs with a column of a wider grid
    rng = np.random.default_rng(61)
    spacing = np.full(3, 2.0)
    moving = Volume3(
        (rng.random((12, 12, 12)) < 0.5).astype(np.uint8), spacing,
        np.array([3.0, -7.0, 11.0]), np.eye(3),
    )
    tilted = euler_zyx(20.0, 5.0, -10.0)
    for _ in range(20):
        origin = rng.uniform(-50.0, 50.0, 3)
        # the inverse map takes like index i to moving index i + c + 0.5
        to_moving = moving.origin + spacing * (rng.integers(1, 6, 3) + 0.5) - origin @ tilted.T
        move = RigidTransform3(tilted.T, -tilted.T @ to_moving)
        wide = apply_transform(moving, move, Volume3(np.zeros((5, 2, 2), np.uint8), spacing, origin, tilted))
        for n0 in (5, 2):
            thin = Volume3(np.zeros((n0, 1, 1), np.uint8), spacing, origin, tilted)
            assert np.array_equal(apply_transform(moving, move, thin).data, wide.data[:n0, :1, :1])


def test_apply_transform_memory_is_one_slab(annotation):
    # the whole-grid route held ~47 MB of (N, 3) float64 temporaries here
    move = rotation_about(rotation_z(4.0), centroid(annotation), [3.0, -2.0, 1.0])
    apply_transform(annotation, move, annotation)  # warm up lazy imports and caches
    tracemalloc.start()
    try:
        apply_transform(annotation, move, annotation)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert annotation.shape == (64, 96, 64)
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"


def test_apply_transform_rounds_half_voxel_ties_up(annotation):
    # a 1 mm shift on the 2 mm grid puts every sample on a half-voxel tie.
    # The package's nearest sampler rounds it up: output voxel i reads moving
    # voxel i + 1, where round-half-to-even would alternate i and i + 1.
    assert np.allclose(annotation.spacing, 2.0) and np.allclose(annotation.axes, np.eye(3))
    out = apply_transform(annotation, translation(np.array([-1.0, 0.0, 0.0])), annotation)
    want = np.zeros_like(annotation.data)
    want[:-1] = annotation.data[1:]
    assert np.array_equal(out.data, want)
