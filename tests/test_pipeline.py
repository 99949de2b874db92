"""Pipeline stage tests: search, acquisition, mapping, matching, judging.

The module-scoped fixtures run the zero-noise pipeline (``noise=None``, no
corruption model) once on a placed phantom; individual tests check each
stage's contract against independent recomputations rather than against
the stage's own bookkeeping.
"""
import dataclasses
import math

import numpy as np
import pytest

from usreg_sim import harness, pipeline
from usreg_sim.imgvol import (
    Volume3,
    compose,
    euler_zyx,
    inverse,
    largest_connected_component,
    metrics,
    omia,
    physical_to_voxel,
    rotation_about,
    sample_at_physical,
    translation,
    voxel_to_physical,
)
from usreg_sim.phantom import (
    PhantomParams,
    ct_frame_volume,
    generate_phantom,
    place_phantom,
    target_grid,
)
from usreg_sim.pipeline import (
    JUDGE_TOL_X_MM,
    SEARCH_CENTER_TOL_PX,
    SEARCH_DETECT_AREA_PX,
    _center_out,
    _target_template,
    coordinate_map,
    frames_for_eps,
    harmonize,
    hv_acquire,
    hv_search,
    judge_success,
    slice_match,
    target_imaging,
)
from usreg_sim.probe import (
    NoiseModel,
    OffSkinError,
    ProbeParams,
    capture_grid,
    capture_us,
    initial_contact,
    move_to,
    segment_branch,
    segment_full,
)

from _oracles import reference_omia

SCENE_OFFSET = np.array([18.0, -12.0, 0.0])


@pytest.fixture(scope="module")
def scene():
    return place_phantom(generate_phantom(3), SCENE_OFFSET)


@pytest.fixture(scope="module")
def contact(scene):
    return initial_contact(scene)


@pytest.fixture(scope="module")
def found(scene, contact):
    result = hv_search(scene, None, contact)
    assert result.success
    return result


@pytest.fixture(scope="module")
def acquired(scene, found):
    return hv_acquire(scene, None, found.position)


@pytest.fixture(scope="module")
def ct_veins(scene):
    return ct_frame_volume(scene.hv_annotation, scene.placement)


@pytest.fixture(scope="module")
def cmap(acquired, ct_veins):
    return coordinate_map(*harmonize(acquired, ct_veins))


# ----------------------------------------------------------------- search


def test_search_detects_and_centers_from_offset_start(scene, contact):
    start = contact + np.array([0.0, 7.0, 0.0])
    result = hv_search(scene, None, start)
    assert result.success
    # verify the exit condition independently of the result's bookkeeping
    pos = move_to(scene, result.position[0], result.position[1])
    mask = segment_branch(capture_us(scene, pos), None)
    comp = largest_connected_component(mask)
    area = comp.sum()
    col = np.argwhere(comp)[:, 0].mean()
    assert area >= SEARCH_DETECT_AREA_PX
    offset = abs(col - ProbeParams.image_shape[0] / 2.0)
    assert offset <= SEARCH_CENTER_TOL_PX
    assert result.final_area == area
    assert result.final_center_offset_px == pytest.approx(offset)


def test_search_failure_when_annotation_empty(scene, contact, monkeypatch):
    old = scene.hv_branch_annotation
    empty = Volume3(np.zeros_like(old.data), old.spacing, old.origin, old.axes)
    bare = dataclasses.replace(scene, hv_branch_annotation=empty)
    xs = []

    def recording_move_to(scene, x, y):
        xs.append(x)
        assert y == contact[1]
        return move_to(scene, x, y)

    monkeypatch.setattr(pipeline, "move_to", recording_move_to)
    result = hv_search(bare, None, contact)
    assert not result.success
    assert result.position is None
    assert result.waypoints_visited == 9  # line pattern, +-20 mm at 5 mm pitch
    # visited center-out, the smaller x of an equidistant pair first
    offsets = [0.0, -5.0, 5.0, -10.0, 10.0, -15.0, 15.0, -20.0, 20.0]
    assert xs == [contact[0] + dx for dx in offsets]
    assert result.final_area == 0.0
    assert math.isnan(result.final_center_offset_px)


def test_search_off_the_skin_is_a_failure_value(scene, contact):
    result = hv_search(scene, None, contact + np.array([0.0, 200.0, 0.0]))
    assert not result.success and result.position is None
    assert result.waypoints_visited == 0 and result.final_area == 0.0
    assert math.isnan(result.final_center_offset_px)


def test_search_centring_off_the_skin_is_a_failure_value(scene, contact, monkeypatch):
    # the start needs centring; its first lateral step leaves the skin
    start = contact + np.array([0.0, 7.0, 0.0])
    moves = []

    def first_step_off_skin(scene, x, y):
        moves.append((x, y))
        if len(moves) == 2:
            raise OffSkinError(f"({x:.1f}, {y:.1f}) is off the skin surface")
        return move_to(scene, x, y)

    monkeypatch.setattr(pipeline, "move_to", first_step_off_skin)
    result = hv_search(scene, None, start)
    assert len(moves) == 2 and moves[1][0] == moves[0][0] and abs(moves[1][1] - moves[0][1]) == 1.0
    assert not result.success and result.position is None and result.waypoints_visited == 1
    # the first frame's, which detected the junction off centre
    pos = move_to(scene, *moves[0])
    comp = largest_connected_component(segment_branch(capture_us(scene, pos), None))
    assert result.final_area == comp.sum() >= SEARCH_DETECT_AREA_PX
    offset = abs(np.argwhere(comp)[:, 0].mean() - ProbeParams.image_shape[0] / 2.0)
    assert result.final_center_offset_px == pytest.approx(offset) and offset > SEARCH_CENTER_TOL_PX


def test_center_out_order():
    assert _center_out(1) == [0]
    assert _center_out(9) == [4, 3, 5, 2, 6, 1, 7, 0, 8]
    order = _center_out(23)
    assert order[:5] == [11, 10, 12, 9, 13] and order[-2:] == [0, 22]
    assert sorted(order) == list(range(23))
    # each equidistant pair comes together, the smaller index first
    assert all(order[i] + order[i + 1] == 22 and order[i] < order[i + 1] for i in range(1, 23, 2))


def test_search_failure_when_threshold_unreachable(scene, contact, monkeypatch):
    monkeypatch.setattr(pipeline, "SEARCH_DETECT_AREA_PX", 1e9)
    result = hv_search(scene, None, contact)
    assert not result.success
    assert result.waypoints_visited == 9
    assert result.final_area > 0  # it saw the vessel, just never enough of it


def _blob_scene(scene, offset_mm):
    """Replace the junction annotation with a 12 mm cube near the contact."""
    vol = scene.hv_branch_annotation
    data = np.zeros_like(vol.data)
    bp = scene.placement.apply(np.asarray(PhantomParams.branch_point, dtype=float))
    center = bp + np.asarray(offset_mm, dtype=np.float64)
    ci, cj, ck = np.rint(physical_to_voxel(vol, center)).astype(int)
    data[ci - 3:ci + 3, cj - 3:cj + 3, ck - 3:ck + 3] = 1
    blob = Volume3(data, vol.spacing, vol.origin, vol.axes)
    return dataclasses.replace(scene, hv_branch_annotation=blob)


def test_search_centering_fails_when_vessel_lost(scene, contact, monkeypatch):
    # a 60 mm bang-bang step flies clean past the 12 mm blob and off it
    tiny = _blob_scene(scene, [0.0, 7.0, -25.0])
    monkeypatch.setattr(pipeline, "SEARCH_STEP_MM", 60.0)
    result = hv_search(tiny, None, contact)
    assert not result.success and result.position is None
    assert result.waypoints_visited == 1
    # the last frame shows no vessel, so it has no centre offset
    assert result.final_area == 0.0
    assert math.isnan(result.final_center_offset_px)


def test_search_centering_fails_when_oscillating(scene, contact, monkeypatch):
    # a 20 mm step overshoots back and forth without ever settling
    tiny = _blob_scene(scene, [0.0, 7.0, -25.0])
    monkeypatch.setattr(pipeline, "SEARCH_STEP_MM", 20.0)
    monkeypatch.setattr(pipeline, "SEARCH_MAX_CENTER_ITERATIONS", 6)
    result = hv_search(tiny, None, contact)
    assert not result.success and result.position is None
    assert result.waypoints_visited == 1
    # the last frame still sees the blob, off centre by more than the tolerance
    assert result.final_area >= pipeline.SEARCH_DETECT_AREA_PX
    assert result.final_center_offset_px > pipeline.SEARCH_CENTER_TOL_PX


# ------------------------------------------------------------ acquisition


def test_acquisition_geometry(scene, acquired, found):
    vol = acquired
    lx = ProbeParams.image_shape[0]
    vx, vy = ProbeParams.pixel_spacing
    assert vol.data.shape == (16, 216, 100)
    assert np.allclose(vol.spacing, [60.0 / 15, vx, vy])
    assert np.allclose(vol.axes, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    # the sweep starts 30 mm before the junction, half an image to the -y side
    first = move_to(scene, found.position[0] - 30.0, found.position[1])
    assert np.array_equal(vol.origin, first - np.array([0, lx * vx / 2.0, 0]))
    last_x = vol.origin[0] + (vol.shape[0] - 1) * vol.spacing[0]
    assert last_x == pytest.approx(found.position[0] + 30.0)


def test_acquisition_first_slice_is_probe_segmentation(scene, found):
    w0 = move_to(scene, found.position[0] - 30.0, found.position[1])
    for noise in (None, NoiseModel(11)):
        stack = hv_acquire(scene, noise, found.position)
        direct = segment_full(capture_us(scene, w0), noise)
        assert np.array_equal(stack.data[0], direct)


def test_acquisition_matches_annotation_at_zero_noise(scene, acquired):
    vol = acquired
    idx = np.stack(np.meshgrid(*(np.arange(n) for n in vol.data.shape), indexing="ij"), axis=-1)
    pts = voxel_to_physical(vol, idx.reshape(-1, 3)).reshape(idx.shape)
    truth = sample_at_physical(scene.hv_annotation, pts)
    assert np.array_equal(vol.data, truth.astype(vol.data.dtype))
    assert vol.data.sum() > 0


# --------------------------------------------------------- coordinate map


def test_coordinate_map_recovers_placement(scene, cmap):
    bp_ct = np.asarray(PhantomParams.branch_point, dtype=float)
    err = cmap.ct_to_physical.apply(bp_ct) - scene.placement.apply(bp_ct)
    assert np.all(np.abs(err) <= 2.0)  # within one harmonized voxel per axis
    d = cmap.registration
    assert list(d) == ["before", "after", "score", "converged"]
    assert d["converged"] is True
    assert d["after"]["dice"] >= d["before"]["dice"]
    assert d["after"]["dice"] >= 0.75
    for key in ("precision", "recall", "dice"):
        assert 0.0 <= d["after"][key] <= 1.0


def test_coordinate_map_identity_when_self_aligned(ct_veins):
    cm = coordinate_map(*harmonize(ct_veins, ct_veins))
    assert np.allclose(cm.ct_to_physical.rotation, np.eye(3), atol=1e-9)
    assert np.allclose(cm.ct_to_physical.translation, 0.0, atol=1e-9)
    assert cm.registration["after"]["dice"] == pytest.approx(1.0)


def test_coordinate_map_validation(ct_veins):
    # the map stage's inputs are checked where they enter it, in harmonize
    empty = Volume3(
        np.zeros_like(ct_veins.data), ct_veins.spacing, ct_veins.origin, ct_veins.axes
    )
    with pytest.raises(ValueError, match="empty"):
        harmonize(empty, ct_veins)
    with pytest.raises(ValueError, match="empty"):
        harmonize(ct_veins, empty)
    shady = Volume3(
        (ct_veins.data * 3).astype(np.uint8), ct_veins.spacing, ct_veins.origin, ct_veins.axes
    )
    with pytest.raises(ValueError):
        harmonize(shady, ct_veins)


def test_coordinate_map_holds_only_the_map(cmap):
    assert [f.name for f in dataclasses.fields(cmap)] == ["ct_to_physical", "registration"]


# ------------------------------------------------------------ slice match


def test_slice_match_exact_map_keeps_estimate(scene, found, ct_veins):
    targets = target_grid()
    lattice_pitch = 20.0 / 21
    for ti in (10, 50, 90):
        truth = scene.placement.apply(targets[ti])
        sm = slice_match(
            scene, None, targets[ti], scene.placement, found.position, ct_veins
        )
        assert np.allclose(sm.mapped, truth)
        assert abs(sm.corrected[0] - truth[0]) <= lattice_pitch
        assert sm.corrected[1] == pytest.approx(truth[1])
        assert sm.corrected[2] == pytest.approx(truth[2])
        assert len(sm.waypoint_xs) == len(sm.scores) == 23
        assert np.all(np.diff(sm.waypoint_xs) > 0)


def test_slice_match_corrects_offset_map(scene, found, ct_veins):
    targets = target_grid()
    bad = compose(translation([3.0, 0.0, 0.0]), scene.placement)
    target = targets[40]  # near the junction, where slices are distinctive
    truth = scene.placement.apply(target)
    sm = slice_match(scene, None, target, bad, found.position, ct_veins)
    assert abs(sm.mapped[0] - truth[0]) == pytest.approx(3.0)
    assert abs(sm.corrected[0] - truth[0]) < 1.0


def test_slice_match_empty_template_falls_back_to_estimate(
    scene, found, ct_veins
):
    # a slice far inferior of the vein tree: nothing to match against
    xs = np.nonzero(ct_veins.data.any(axis=(1, 2)))[0]
    x_lo = ct_veins.origin[0] + ct_veins.spacing[0] * xs.min()
    target = np.array([x_lo - 10.0, 95.0, 58.0])
    sm = slice_match(scene, None, target, scene.placement, found.position, ct_veins)
    assert np.all(sm.scores == 0)
    assert np.array_equal(sm.corrected, sm.mapped)


def _waypoint_omias(scene, noise, sm, branch_pos, template):
    """``omia`` of the frame at every waypoint, each scored exactly."""
    preds = [
        segment_full(capture_us(scene, move_to(scene, float(x), branch_pos[1])), noise)
        for x in sm.waypoint_xs
    ]
    return preds, np.array([omia(pred, template) for pred in preds])


def _first_saturating(exact, count):
    """Center-out rank of the first frame overlapping the whole template, else None."""
    return next((k for k, i in enumerate(_center_out(len(exact))) if exact[i] == count), None)


def _counting_captures(monkeypatch):
    """A list that grows by one per ``segment_full`` call the pipeline makes."""
    calls = []
    segment = pipeline.segment_full
    monkeypatch.setattr(pipeline, "segment_full", lambda *a: calls.append(1) or segment(*a))
    return calls


def test_slice_match_scores_are_exact_or_a_bound_below_the_winner(scene, found, ct_veins):
    noise = NoiseModel(seed=12)
    targets = target_grid()
    bad = compose(translation([2.0, 0.0, 0.0]), scene.placement)
    stopped = 0
    for ti in (40, 55):
        sm = slice_match(scene, noise, targets[ti], bad, found.position, ct_veins)
        template = _target_template(scene, targets[ti], sm.mapped, bad, found.position, ct_veins)
        assert template.any()
        preds, exact = _waypoint_omias(scene, noise, sm, found.position, template)
        count = int(template.sum())
        sat = _first_saturating(exact, count)
        for rank, i in enumerate(_center_out(len(exact))):
            assert exact[i] == reference_omia(preds[i], template)
            if sat is not None and rank > sat:
                # after the first saturating frame: never captured, the count
                assert sm.scores[i] == count
            else:
                # scored: the exact overlap; skipped: a bound that cannot tie the winner
                assert sm.scores[i] == exact[i] or exact[i] < sm.scores[i] < sm.scores.max()
        assert sm.scores.max() == exact.max() > 0
        assert np.any(sm.scores > exact)
        stopped += sat is not None
    assert stopped == 1


def test_slice_match_stops_at_the_first_saturating_frame(scene, found, ct_veins, monkeypatch):
    captures = _counting_captures(monkeypatch)
    noise = NoiseModel(seed=13)
    targets = target_grid()
    bad = compose(translation([2.0, 0.0, 0.0]), scene.placement)
    stops = []
    for ti in (55, 74, 90):
        before = len(captures)
        sm = slice_match(scene, noise, targets[ti], bad, found.position, ct_veins)
        captured = len(captures) - before
        template = _target_template(scene, targets[ti], sm.mapped, bad, found.position, ct_veins)
        _, exact = _waypoint_omias(scene, noise, sm, found.position, template)
        sat = _first_saturating(exact, int(template.sum()))
        assert captured == (len(exact) if sat is None else sat + 1)
        stops.append(sat)
    # one never saturates, one at once, one late
    assert stops[0] is None and stops[1] == 0 and stops[2] > 5

    # an empty template captures no frame, and its zero scores are exact
    xs = np.nonzero(ct_veins.data.any(axis=(1, 2)))[0]
    outside = np.array([ct_veins.origin[0] + ct_veins.spacing[0] * xs.min() - 10.0, 95.0, 58.0])
    before = len(captures)
    sm = slice_match(scene, noise, outside, scene.placement, found.position, ct_veins)
    assert len(captures) == before and np.all(sm.scores == 0)


def _full_grid_template(scene, target_ct, mapped, ct_to_physical, branch_pos, ct_veins):
    """The template as first written: every frame pixel mapped to CT, x set to the target's."""
    pts = capture_grid(move_to(scene, mapped[0], branch_pos[1]))
    pts_ct = inverse(ct_to_physical).apply(pts.reshape(-1, 3)).reshape(pts.shape)
    pts_ct[..., 0] = target_ct[0]
    return sample_at_physical(ct_veins, pts_ct).astype(np.uint8)


@pytest.mark.parametrize("yaw", [0.0, 7.0])
def test_target_template_matches_full_grid_sampling(yaw, monkeypatch):
    # the exact placement and seeded random rigid mis-maps around it; on
    # the unyawed scene the CT axes are exactly the identity
    reads = []
    slab_reader = pipeline.sample_slab
    monkeypatch.setattr(pipeline, "sample_slab", lambda *a: reads.append(a) or slab_reader(*a))
    placed = place_phantom(generate_phantom(3), SCENE_OFFSET, yaw_deg=yaw)
    ct = ct_frame_volume(placed.hv_annotation, placed.placement)
    assert np.array_equal(ct.axes, np.eye(3)) == (yaw == 0.0)
    branch = placed.placement.apply(np.asarray(PhantomParams.branch_point, dtype=np.float64))
    rng = np.random.default_rng(41)
    maps = [placed.placement] + [
        compose(rotation_about(euler_zyx(*rng.normal(0.0, 4.0, 3)), branch, rng.normal(0.0, 3.0, 3)),
                placed.placement)
        for _ in range(5)
    ]
    targets = target_grid()
    nonempty = 0
    for ct_to_physical in maps:
        for ti in rng.choice(len(targets), 10, replace=False):
            mapped = ct_to_physical.apply(targets[ti])
            args = (placed, targets[ti], mapped, ct_to_physical, branch, ct)
            got = _target_template(*args)
            assert got.dtype == np.uint8 and got.shape == ProbeParams.image_shape
            assert np.array_equal(got, _full_grid_template(*args))
            nonempty += bool(got.any())
            # the slab read takes the y and z of the full inverse map, bit for bit
            pts = capture_grid(move_to(placed, mapped[0], branch[1])).reshape(-1, 3)
            full = inverse(ct_to_physical).apply(pts)
            _, x, y, z = reads.pop()
            assert x == targets[ti][0] and np.array_equal(y, full[:, 1]) and np.array_equal(z, full[:, 2])
    assert nonempty >= 40


def _exhaustive_winner(xs, scores, mapped_x):
    """The best score, ties to the waypoint nearest the estimate, then the smaller x."""
    ties = [x for x, s in zip(xs, scores) if s == scores.max()]
    return min(ties, key=lambda x: (round(abs(x - mapped_x), 9), x))


@pytest.mark.parametrize("noise", [NoiseModel(seed=12), NoiseModel(seed=13), None],
                         ids=["seed12", "seed13", "zero"])
def test_slice_match_picks_the_exhaustive_winner(scene, found, ct_veins, noise, monkeypatch):
    captures = _counting_captures(monkeypatch)
    targets = target_grid()
    xs = np.nonzero(ct_veins.data.any(axis=(1, 2)))[0]
    x_lo = ct_veins.origin[0] + ct_veins.spacing[0] * xs.min()
    outside = np.array([x_lo - 10.0, 95.0, 58.0])  # an empty template
    bad = compose(translation([2.0, 0.0, 0.0]), scene.placement)
    cases = [
        (targets[ti], cmap) for ti in (10, 40, 55, 74, 90) for cmap in (scene.placement, bad)
    ]
    pair_ties = 0  # an equidistant pair of waypoints ties at the best
    x_decides = 0  # the winner's mirror ties it: the smaller-x key picked it
    early = 0  # a saturated template stopped the capture before the last frame
    for target, cmap in cases + [(outside, scene.placement)]:
        before = len(captures)
        sm = slice_match(scene, noise, target, cmap, found.position, ct_veins)
        early += 0 < len(captures) - before < len(sm.scores)
        template = _target_template(scene, target, sm.mapped, cmap, found.position, ct_veins)
        _, exact = _waypoint_omias(scene, noise, sm, found.position, template)
        winner = _exhaustive_winner(sm.waypoint_xs, exact, sm.mapped[0])
        assert sm.corrected[0] == winner
        assert np.all(exact <= sm.scores)
        n, w = len(exact), int(np.flatnonzero(sm.waypoint_xs == winner)[0])
        at_best = (exact == exact.max()) & (exact > 0)
        pair_ties += any(at_best[k] and at_best[n - 1 - k] for k in range(n // 2))
        x_decides += w != n // 2 and at_best[n - 1 - w]
    assert pair_ties >= 1
    # at zero noise the estimate itself is always among the tied best
    assert x_decides >= (0 if noise is None else 1)
    assert early >= 1


def test_slice_match_skips_most_fft_pairs_in_a_noisy_trial(monkeypatch):
    counts = {"omia": 0, "fft": 0, "frames": 0}
    captures = _counting_captures(monkeypatch)

    def counting_omia(*args):
        counts["omia"] += 1
        return omia(*args)

    def counting_fft(*args):
        counts["fft"] += 1
        return fft_omia(*args)

    def counting_slice_match(*args):
        sm = slice_match(*args)
        counts["frames"] += len(sm.scores)
        return sm

    fft_omia = metrics._fft_omia
    monkeypatch.setattr(pipeline, "omia", counting_omia)
    monkeypatch.setattr(metrics, "_fft_omia", counting_fft)
    monkeypatch.setattr(harness, "slice_match", counting_slice_match)
    trial = harness.run_trial(harness.SweepConfig(trials=1, targets_limit=15), 0)
    assert trial.search_success and len(trial.targets) == 15
    assert counts["frames"] >= 15 * 22
    # one omia call per frame captured past the acquisition's 16; saturated
    # templates leave frames uncaptured, and few scores need the FFT pair
    assert counts["omia"] == len(captures) - 16 < 0.9 * counts["frames"]
    assert counts["fft"] <= 0.02 * counts["omia"]


# ------------------------------------------- target imaging and judgement


def test_target_imaging_waypoint_positions(scene):
    at = np.array([82.0, 83.0, 0.0])
    positions = target_imaging(scene, at, eps_mm=1.0)
    assert positions.shape == (8, 3)
    assert positions[:, 0].tolist() == pytest.approx(81.0 + np.arange(8) * 0.25)
    assert np.allclose(positions[:, 1], 83.0)
    # the probe rides the skin
    assert positions[:, 2].tolist() == [scene.surface_height(x, y) for x, y, _ in positions]

    still = target_imaging(scene, at, eps_mm=0.0)
    assert still.shape == (8, 3)
    assert np.allclose(still[:, 0], 82.0)


def test_target_imaging_takes_frames_for_eps(scene):
    # the default scan ranges take 8, 8, 8 and 9 frames: 33 per target
    at = np.array([82.0, 83.0, 0.0])
    sweeps = [target_imaging(scene, at, eps) for eps in (1.0, 3.0, 5.0, 9.0)]
    assert [len(s) for s in sweeps] == [frames_for_eps(e) for e in (1.0, 3.0, 5.0, 9.0)]
    assert [len(s) for s in sweeps] == [8, 8, 8, 9]
    for eps, s in zip((1.0, 3.0, 5.0, 9.0), sweeps):
        assert s[0, 0] == 82.0 - eps and s[-1, 0] < 82.0 + eps


def test_target_imaging_validation(scene):
    at = np.array([82.0, 83.0, 0.0])
    with pytest.raises(ValueError):
        target_imaging(scene, at, eps_mm=-0.1)


def test_judge_success_frame_and_fov_conditions(scene):
    assert JUDGE_TOL_X_MM == 2.0
    at = np.array([82.0, 83.0, 0.0])
    positions = target_imaging(scene, at, eps_mm=2.0)
    assert len(positions) == 8
    pos = positions[3]
    inside = pos + np.array([0.5, 3.0, -10.0])
    assert judge_success(positions, inside)
    assert not judge_success(positions, inside + [50.0, 0, 0])  # wrong slice
    assert not judge_success(positions, pos + [0, 45.0, -10.0])  # outside fov laterally
    assert not judge_success(positions, pos + [0, 0, 5.0])  # above the skin
    assert not judge_success(positions, pos + [0, 0, -100.0])  # below imaging depth
    assert not judge_success(np.empty((0, 3)), inside)


def test_judge_success_bounds_are_inclusive():
    """A target on a bound counts as imaged; one ulp past it does not.

    With the probe at the origin each judged quantity (|dx|, lateral
    offset, depth) is a target coordinate itself, so one ulp of the
    coordinate is one ulp of the quantity.
    """
    tol_x = JUDGE_TOL_X_MM
    at_origin = np.zeros((1, 3))
    half = ProbeParams.fov_width / 2.0
    depth = ProbeParams.fov_depth
    for axis, edge in ((0, tol_x), (0, -tol_x), (1, half), (1, -half), (2, 0.0), (2, -depth)):
        on = np.array([0.0, 0.0, -depth / 2.0])
        on[axis] = edge
        past = on.copy()
        past[axis] = np.nextafter(edge, np.copysign(np.inf, edge))  # out of the box
        assert judge_success(at_origin, on), (axis, edge)
        assert not judge_success(at_origin, past), (axis, edge)


def test_frames_for_eps_covers_judging_tolerance():
    assert JUDGE_TOL_X_MM == 2.0
    assert frames_for_eps(1.0) == 8
    assert frames_for_eps(9.0) == 9
    assert frames_for_eps(20.0) == 20
    counts = [frames_for_eps(e) for e in np.linspace(0.5, 24, 40)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    # pitch never exceeds the tolerance, so coverage has no gaps
    for eps in (0.5, 3.0, 9.0, 24.0):
        n = frames_for_eps(eps)
        assert 2.0 * eps / n <= 2.0


def test_a_verdict_is_an_interval_on_the_x_error():
    """A grid target's verdict is ``-eps - tol <= truth.x - est.x <= eps - 2*eps/n + tol``.

    ``tol`` is ``JUDGE_TOL_X_MM`` and ``n`` is ``frames_for_eps(eps)``.
    Waypoint i of n sits at ``est.x - eps + 2*eps*i/n``, so the sweep
    starts at ``est.x - eps`` and stops one pitch short of ``est.x + eps``;
    with a pitch at most ``tol`` the frames' windows leave no gap. Lateral
    and depth errors of a few mm never move a grid target out of view, so
    the field of view never decides. Draws within 1e-9 mm of an end of the
    interval are skipped: there the sum that places a waypoint decides.
    """
    rng = np.random.default_rng(15)
    tol = JUDGE_TOL_X_MM
    grid = target_grid()
    base = generate_phantom(0)
    verdicts = []
    for _ in range(20):
        offset = [rng.uniform(-harness.PLACEMENT_X_MM, harness.PLACEMENT_X_MM),
                  rng.uniform(-harness.PLACEMENT_Y_MM, harness.PLACEMENT_Y_MM), 0.0]
        scene = place_phantom(base, offset, rng.uniform(-10.0, 10.0))
        for _ in range(20):
            truth = scene.placement.apply(grid[rng.integers(len(grid))])
            eps = rng.choice([rng.uniform(0.0, 24.0), *harness.SweepConfig().epsilons])
            n = frames_for_eps(eps)
            lo, hi = -eps - tol, eps - 2.0 * eps / n + tol
            est = truth - [rng.uniform(lo - tol, hi + tol), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)]
            err = truth[0] - est[0]
            if min(abs(err - lo), abs(err - hi)) < 1e-9:
                continue
            verdict = judge_success(target_imaging(scene, est, eps), truth)
            assert verdict == (lo <= err <= hi), (offset, eps, err, lo, hi)
            verdicts.append(verdict)
    assert len(verdicts) > 350 and 0.3 < np.mean(verdicts) < 0.9


def test_unyawed_acquisition_waypoints_share_the_first_height(monkeypatch):
    """At yaw 0 every acquisition waypoint's z equals the first one's, exactly.

    ``hv_acquire`` gives every slice of its stack the first waypoint's
    height. That is exact only while the skin is flat along x, which holds
    at yaw 0 alone (a yawed sweep is ROADMAP item 7's to handle).
    """
    waypoints = []

    def recording_move_to(*args):
        waypoints.append(move_to(*args))
        return waypoints[-1]

    monkeypatch.setattr(pipeline, "move_to", recording_move_to)
    rng = np.random.default_rng(28)
    base = generate_phantom(0)
    for _ in range(4):
        offset = [rng.uniform(-harness.PLACEMENT_X_MM, harness.PLACEMENT_X_MM),
                  rng.uniform(-harness.PLACEMENT_Y_MM, harness.PLACEMENT_Y_MM), 0.0]
        scene = place_phantom(base, offset)
        waypoints.clear()
        hv_acquire(scene, None, scene.footprint_center() + [rng.uniform(-5.0, 5.0), rng.uniform(-15.0, 15.0), 0.0])
        heights = np.array(waypoints)[:, 2]
        assert len(heights) == pipeline.ACQ_SLICES
        assert np.all(heights == heights[0]), (offset, heights - heights[0])


# ----------------------------------------------------------- housekeeping


def test_ct_frame_volume_undoes_placement(scene):
    intrinsic = generate_phantom(3).hv_annotation
    recovered = ct_frame_volume(scene.hv_annotation, scene.placement)
    assert np.allclose(recovered.origin, intrinsic.origin)
    assert np.allclose(recovered.axes, intrinsic.axes)
    assert np.array_equal(recovered.data, intrinsic.data)


def test_search_and_acquisition_deterministic_under_noise(scene, contact):
    noisy = NoiseModel(21)
    r1 = hv_search(scene, noisy, contact)
    r2 = hv_search(scene, noisy, contact)
    assert r1.success and r2.success
    assert np.array_equal(r1.position, r2.position)
    assert r1.waypoints_visited == r2.waypoints_visited
    a1 = hv_acquire(scene, noisy, r1.position)
    a2 = hv_acquire(scene, noisy, r2.position)
    assert np.array_equal(a1.data, a2.data)
    assert np.array_equal(a1.origin, a2.origin)
