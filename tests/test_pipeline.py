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
    largest_connected_component,
    omia,
    physical_to_voxel,
    sample_at_physical,
    translation,
    voxel_to_physical,
)
from usreg_sim.phantom import (
    ct_frame_volume,
    generate_phantom,
    place_phantom,
    target_grid,
)
from usreg_sim.pipeline import (
    JUDGE_TOL_X_MM,
    SEARCH_CENTER_TOL_PX,
    SEARCH_DETECT_AREA_PX,
    _target_template,
    coordinate_map,
    frames_for_eps,
    hv_acquire,
    hv_search,
    judge_success,
    slice_match,
    target_imaging,
)
from usreg_sim.probe import (
    NoiseModel,
    ProbeParams,
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
    return coordinate_map(acquired, ct_veins)


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


def test_search_failure_when_annotation_empty(scene, contact):
    old = scene.hv_branch_annotation
    empty = Volume3(np.zeros_like(old.data), old.spacing, old.origin, old.axes)
    bare = dataclasses.replace(scene, hv_branch_annotation=empty)
    result = hv_search(bare, None, contact)
    assert not result.success
    assert result.position is None
    assert result.waypoints_visited == 9  # line pattern, +-20 mm at 5 mm pitch
    assert result.final_area == 0.0
    assert math.isnan(result.final_center_offset_px)


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
    center = scene.tree.branch_point + np.asarray(offset_mm, dtype=np.float64)
    ci, cj, ck = np.rint(physical_to_voxel(vol, center)).astype(int)
    data[ci - 3:ci + 3, cj - 3:cj + 3, ck - 3:ck + 3] = 1
    blob = Volume3(data, vol.spacing, vol.origin, vol.axes)
    return dataclasses.replace(scene, hv_branch_annotation=blob)


def test_search_centering_raises_when_vessel_lost(scene, contact, monkeypatch):
    # a 60 mm bang-bang step flies clean past the 12 mm blob and off it
    tiny = _blob_scene(scene, [0.0, 7.0, -25.0])
    monkeypatch.setattr(pipeline, "SEARCH_STEP_MM", 60.0)
    with pytest.raises(RuntimeError, match="lost the vessel"):
        hv_search(tiny, None, contact)


def test_search_centering_raises_when_oscillating(scene, contact, monkeypatch):
    # a 20 mm step overshoots back and forth without ever settling
    tiny = _blob_scene(scene, [0.0, 7.0, -25.0])
    monkeypatch.setattr(pipeline, "SEARCH_STEP_MM", 20.0)
    monkeypatch.setattr(pipeline, "SEARCH_MAX_CENTER_ITERATIONS", 6)
    with pytest.raises(RuntimeError, match="did not settle within 6 iterations"):
        hv_search(tiny, None, contact)


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
    bp_ct = np.linalg.solve(
        scene.placement.rotation, scene.tree.branch_point - scene.placement.translation
    )
    err = cmap.ct_to_physical.apply(bp_ct) - scene.tree.branch_point
    assert np.all(np.abs(err) <= 2.0)  # within one harmonized voxel per axis
    d = cmap.registration
    assert list(d) == ["before", "after", "score", "converged"]
    assert d["converged"] is True
    assert d["after"]["dice"] >= d["before"]["dice"]
    assert d["after"]["dice"] >= 0.75
    for key in ("precision", "recall", "dice"):
        assert 0.0 <= d["after"][key] <= 1.0


def test_coordinate_map_identity_when_self_aligned(ct_veins):
    cm = coordinate_map(ct_veins, ct_veins)
    assert np.allclose(cm.ct_to_physical.rotation, np.eye(3), atol=1e-9)
    assert np.allclose(cm.ct_to_physical.translation, 0.0, atol=1e-9)
    assert cm.registration["after"]["dice"] == pytest.approx(1.0)


def test_coordinate_map_validation(ct_veins):
    empty = Volume3(
        np.zeros_like(ct_veins.data), ct_veins.spacing, ct_veins.origin, ct_veins.axes
    )
    with pytest.raises(ValueError, match="empty"):
        coordinate_map(empty, ct_veins)
    with pytest.raises(ValueError, match="empty"):
        coordinate_map(ct_veins, empty)
    shady = Volume3(
        (ct_veins.data * 3).astype(np.uint8), ct_veins.spacing, ct_veins.origin, ct_veins.axes
    )
    with pytest.raises(ValueError):
        coordinate_map(shady, ct_veins)


# ------------------------------------------------------------ slice match


def test_slice_match_exact_map_keeps_estimate(scene, found, ct_veins):
    targets = target_grid(scene)
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
    targets = target_grid(scene)
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


def test_slice_match_scores_are_exact_or_a_bound_below_the_winner(scene, found, ct_veins):
    noise = NoiseModel(seed=12)
    targets = target_grid(scene)
    bad = compose(translation([2.0, 0.0, 0.0]), scene.placement)
    for ti in (40, 55):
        sm = slice_match(scene, noise, targets[ti], bad, found.position, ct_veins)
        template = _target_template(scene, targets[ti], bad, found.position, ct_veins)
        assert template.any()
        preds, exact = _waypoint_omias(scene, noise, sm, found.position, template)
        for pred, want, score in zip(preds, exact, sm.scores):
            assert want == reference_omia(pred, template)
            # scored: the exact overlap; skipped: a bound that cannot tie the winner
            assert score == want or want < score < sm.scores.max()
        assert sm.scores.max() == exact.max() > 0
        assert np.any(sm.scores > exact)


def _exhaustive_winner(xs, scores, mapped_x):
    """The best score, ties to the waypoint nearest the estimate, then the smaller x."""
    ties = [x for x, s in zip(xs, scores) if s == scores.max()]
    return min(ties, key=lambda x: (round(abs(x - mapped_x), 9), x))


@pytest.mark.parametrize("noise", [NoiseModel(seed=12), NoiseModel(seed=13), None],
                         ids=["seed12", "seed13", "zero"])
def test_slice_match_picks_the_exhaustive_winner(scene, found, ct_veins, noise):
    targets = target_grid(scene)
    xs = np.nonzero(ct_veins.data.any(axis=(1, 2)))[0]
    x_lo = ct_veins.origin[0] + ct_veins.spacing[0] * xs.min()
    outside = np.array([x_lo - 10.0, 95.0, 58.0])  # an empty template
    bad = compose(translation([2.0, 0.0, 0.0]), scene.placement)
    cases = [(targets[ti], cmap) for ti in (10, 40, 55, 90) for cmap in (scene.placement, bad)]
    for target, cmap in cases + [(outside, scene.placement)]:
        sm = slice_match(scene, noise, target, cmap, found.position, ct_veins)
        template = _target_template(scene, target, cmap, found.position, ct_veins)
        _, exact = _waypoint_omias(scene, noise, sm, found.position, template)
        assert sm.corrected[0] == _exhaustive_winner(sm.waypoint_xs, exact, sm.mapped[0])
        assert np.all(exact <= sm.scores)


def test_slice_match_skips_most_fft_pairs_in_a_noisy_trial(monkeypatch):
    counts = {"omia": 0, "frames": 0}

    def counting_omia(pred, template):
        counts["omia"] += 1
        return omia(pred, template)

    def counting_slice_match(*args):
        sm = slice_match(*args)
        counts["frames"] += len(sm.scores)
        return sm

    monkeypatch.setattr(pipeline, "omia", counting_omia)
    monkeypatch.setattr(harness, "slice_match", counting_slice_match)
    trial = harness.run_trial(harness.SweepConfig(trials=1, targets_limit=15), 0)
    assert trial.search_success and len(trial.targets) == 15
    assert counts["frames"] >= 15 * 22
    assert counts["omia"] < 0.4 * counts["frames"]


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
