"""Probe contact, axial capture geometry, and the segmentation oracles."""

import dataclasses
import itertools

import numpy as np
import pytest

from usreg_sim import imgvol, pipeline, probe
from usreg_sim.imgvol import Volume3, dice, gather_nearest, physical_to_voxel, sample_at_physical
from usreg_sim.phantom import PhantomParams, generate_phantom, place_phantom
from usreg_sim.pipeline import judge_success, target_imaging
from usreg_sim.probe import (
    NOISE_PRESETS,
    NoiseModel,
    ProbeParams,
    capture_grid,
    capture_us,
    initial_contact,
    move_to,
    segment_branch,
    segment_full,
)

from _oracles import count_components, eager_capture, reference_corrupt, reference_initial_contact

NOISE_DEFAULTS = {name: getattr(NoiseModel, name)
                  for name in ("pixel_flip_rate", "spurious_blob_rate", "blob_size", "morph_jitter")}


def _set_noise(monkeypatch, **values):
    """Set ``NoiseModel``'s corruption values for one test."""
    for name, value in values.items():
        monkeypatch.setattr(NoiseModel, name, value)


@pytest.fixture(scope="module")
def scene():
    return generate_phantom(seed=3)


def test_pixel_origin_geometry(scene):
    pos = move_to(scene, 64.0, 95.0)
    frame = capture_us(scene, pos)
    grid = capture_grid(frame.capture_position)
    truth = segment_full(frame, None)
    vx, vy = ProbeParams.pixel_spacing

    expected = pos + np.array([0.0, -ProbeParams.fov_width / 2.0, 0.0])
    assert np.allclose(grid[0, 0], expected, atol=1e-12)

    # spot-check that pixel values really are samples at the mapped points
    rng = np.random.default_rng(0)
    for _ in range(20):
        j = int(rng.integers(0, ProbeParams.image_shape[0]))
        k = int(rng.integers(0, ProbeParams.image_shape[1]))
        pt = grid[j, k]
        assert np.allclose(pt, expected + np.array([0.0, j * vx, -k * vy]), atol=1e-12)
        assert truth[j, k] == sample_at_physical(scene.hv_annotation, pt)


def test_two_lobe_mask_one_slice_from_branch_point():
    scene = place_phantom(generate_phantom(seed=3), (18.0, -12.0, 0.0))
    bp = scene.placement.apply(np.asarray(PhantomParams.branch_point, dtype=float))
    slice_mm = PhantomParams.spacing_mm
    for dx in (-slice_mm, slice_mm):
        frame = capture_us(scene, move_to(scene, bp[0] + dx, bp[1]))
        comps = count_components(segment_full(frame, None))
        assert comps >= 2, f"expected two lobes at dx={dx}, got {comps} component(s)"


def test_lateral_shift_moves_mask_by_whole_pixels(scene):
    vx = ProbeParams.pixel_spacing[0]
    shift_px = 7
    mask_a = segment_full(capture_us(scene, move_to(scene, 64.0, 95.13)), None)
    mask_b = segment_full(capture_us(scene, move_to(scene, 64.0, 95.13 + shift_px * vx)), None)

    # content must sit safely inside both frames for the overlap comparison
    cols_a = np.nonzero(mask_a.any(axis=1))[0]
    assert cols_a.min() >= shift_px and cols_a.max() < mask_a.shape[0] - shift_px
    assert np.array_equal(mask_b[: -shift_px or None], mask_a[shift_px:])


def test_far_lateral_capture_is_empty(scene):
    frame = capture_us(scene, move_to(scene, 64.0, 165.0))
    assert segment_full(frame, None).sum() == 0
    assert segment_branch(frame, None).sum() == 0


def test_zero_noise_segmentation_is_exact(scene):
    frame = capture_us(scene, move_to(scene, 64.0, 95.0))
    full = segment_full(frame, None)
    branch = segment_branch(frame, None)
    assert full.sum() > 0
    want_full, want_branch = eager_capture(scene, frame.capture_position, shared_grid=False)
    assert np.array_equal(full, want_full)
    assert np.array_equal(branch, want_branch)


def test_segmentation_bit_reproducible(scene):
    frame = capture_us(scene, move_to(scene, 62.0, 96.0))
    noise = NoiseModel(seed=5)
    out1 = segment_full(frame, noise)
    out2 = segment_full(frame, noise)
    assert np.array_equal(out1, out2)

    # a fresh capture of the same plane segments identically
    frame_again = capture_us(scene, move_to(scene, 62.0, 96.0))
    assert np.array_equal(segment_full(frame_again, noise), out1)

    # and the full/branch models draw independent corruption
    out_branch = segment_branch(frame, noise)
    assert not np.array_equal(out_branch, out1)

    other_seed = segment_full(frame, NoiseModel(seed=6))
    assert not np.array_equal(other_seed, out1)


def test_blob_noise_components_stay_small(scene, monkeypatch):
    _set_noise(monkeypatch, pixel_flip_rate=0.0, spurious_blob_rate=2.0, blob_size=(10, 40),
               morph_jitter=0)
    noise = NoiseModel(seed=11)
    area_limit = 160  # detection threshold at this image scale
    for x in np.linspace(40.0, 90.0, 6):
        frame = capture_us(scene, move_to(scene, float(x), 165.0))
        assert segment_full(frame, None).sum() == 0
        labels = _label_sizes(segment_full(frame, noise))
        assert all(size < area_limit for size in labels)


class _PinnedCentres:
    """A seeded generator whose blob-centre draws return ``centres`` in turn.

    ``_corrupt`` draws a blob's row, then its column, as ``integers(0, n)``;
    the area and jitter draws have a nonzero low bound and are answered by
    the generator. Pinned draws still consume one generator draw each.
    """

    def __init__(self, seed, centres):
        self._rng = np.random.default_rng(seed)
        self._coords = itertools.cycle([c for centre in centres for c in centre])

    def integers(self, low, high=None):
        value = self._rng.integers(low, high)
        return next(self._coords) if low == 0 else value

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_corrupt_matches_full_frame_reference(monkeypatch):
    lx, ly = ProbeParams.image_shape
    centres = [
        (0, 0), (0, ly - 1), (lx - 1, 0), (lx - 1, ly - 1),  # corners
        (0, ly // 2), (lx - 1, ly // 2), (lx // 2, 0), (lx // 2, ly - 1),  # edges
        (1, 2), (lx - 3, ly - 2),  # one or two pixels in
    ]
    # the model draws |j| <= 1; morph_jitter=3 also runs 2- and 3-step
    # dilation and erosion against scipy's iterations, and the last model
    # flips pixels after a frame with no blobs. ``_corrupt`` draws the blob
    # count even at rate 0, where ``poisson(0)`` consumes no generator draw,
    # so it matches the oracle that skips it. Every model keeps a nonzero
    # jitter: the pinned generator would answer a zero-width jitter draw.
    models = [
        {},
        dict(pixel_flip_rate=0.0, spurious_blob_rate=6.0, blob_size=(1, 60)),
        dict(pixel_flip_rate=0.0, spurious_blob_rate=0.0, morph_jitter=3),
        dict(pixel_flip_rate=0.05, spurious_blob_rate=0.0, morph_jitter=2),
    ]
    rng = np.random.default_rng(71)
    frames = []
    for seed in range(40):
        sparse = (rng.random((lx, ly)) < 0.02).astype(np.uint8)
        # a dense mask with holes that touches all four frame edges, so
        # erosion must clear the border as scipy's zero border does
        edges = (rng.random((lx, ly)) >= 0.05).astype(np.uint8)
        assert edges[0].any() and edges[-1].any() and edges[:, 0].any() and edges[:, -1].any()
        pinned = centres[seed % len(centres):] + centres[:seed % len(centres)]
        frames += [(seed, sparse, pinned), (seed, edges, pinned)]
    # the jitter is the first draw of a segmentation's generator
    jitters = {int(np.random.default_rng(seed).integers(-3, 4)) for seed in range(40)}
    assert jitters == set(range(-3, 4))
    calls = 0
    for values in models:
        _set_noise(monkeypatch, **{**NOISE_DEFAULTS, **values})
        for seed, mask, pinned in frames:
            for make_rng in (np.random.default_rng, lambda s: _PinnedCentres(s, pinned)):
                got = probe._corrupt(mask, make_rng(seed))
                want = reference_corrupt(mask, NoiseModel(), make_rng(seed))
                assert np.array_equal(got, want)
                calls += 1
    assert calls >= 600


def test_corrupt_jitter_matches_reference_on_small_frames(monkeypatch):
    # frames one or two pixels across are all border: erosion clears them
    _set_noise(monkeypatch, pixel_flip_rate=0.0, spurious_blob_rate=0.0, morph_jitter=3)
    rng = np.random.default_rng(73)
    for shape in ((1, 1), (1, 5), (5, 1), (2, 2), (3, 7)):
        for seed in range(30):
            mask = (rng.random(shape) < rng.uniform(0.2, 1.0)).astype(np.uint8)
            got = probe._corrupt(mask, np.random.default_rng(seed))
            want = reference_corrupt(mask, NoiseModel(), np.random.default_rng(seed))
            assert np.array_equal(got, want)


def _label_sizes(mask):
    from scipy import ndimage

    lab, n = ndimage.label(mask)
    return [int((lab == i).sum()) for i in range(1, n + 1)]


def test_default_noise_dice_band():
    scene = place_phantom(generate_phantom(seed=3), (10.0, -5.0, 0.0))
    bp = scene.placement.apply(np.asarray(PhantomParams.branch_point, dtype=float))
    noise = NoiseModel(seed=7)
    scores = []
    for x in np.linspace(bp[0] - 30.0, bp[0] + 30.0, 64):
        frame = capture_us(scene, move_to(scene, float(x), bp[1]))
        scores.append(dice(segment_full(frame, noise), segment_full(frame, None)))
    mean = float(np.mean(scores))
    assert 0.75 <= mean <= 0.95, f"mean oracle dice {mean:.3f} outside band"


def test_initial_contact_lands_near_branch_point(scene):
    contact = initial_contact(scene)
    bp = np.asarray(PhantomParams.branch_point, dtype=float)
    assert abs(contact[0] - bp[0]) <= 10.0
    assert abs(contact[1] - bp[1]) <= 10.0
    assert contact[2] == pytest.approx(scene.surface_height(contact[0], contact[1]))


def test_initial_contact_translation_equivariant(scene):
    moved = place_phantom(scene, (30.0, -20.0, 0.0))
    base = initial_contact(scene)
    shifted = initial_contact(moved)
    assert np.allclose(shifted, base + np.array([30.0, -20.0, 0.0]), atol=1e-9)


@pytest.mark.parametrize("offset, yaw, want", [
    ((0.0, 0.0, 0.0), 0.0, [63.0, 95.0, 100.0]),
    ((12.0, -8.0, 0.0), 7.0, [62.95281992991428, 93.96965304044988, 100.0]),
    ((-30.0, 20.0, 0.0), -5.0, [41.040061540807486, 109.14768452561336, 100.0]),
], ids=["origin", "yaw7", "yaw-5"])
def test_initial_contact_lands_on_recorded_points(offset, yaw, want):
    """Contact points recorded for phantom seed 0, compared bit for bit."""
    scene = place_phantom(generate_phantom(seed=0), offset, yaw)
    assert initial_contact(scene).tolist() == want


def test_initial_contact_matches_voxel_footprint_oracle():
    """The analytic footprint centre lands where the voxel body's centroid did, bit for bit."""
    rng = np.random.default_rng(11)
    base = generate_phantom(seed=0)
    for i in range(40):
        offset = (rng.uniform(-60.0, 60.0), rng.uniform(-40.0, 40.0), rng.uniform(-5.0, 5.0))
        yaw = (0.0, 10.0, -10.0, rng.uniform(-10.0, 10.0))[i % 4]
        scene = place_phantom(base, offset, yaw)
        assert initial_contact(scene).tobytes() == reference_initial_contact(scene).tobytes()


def test_move_to_off_surface_errors(scene):
    with pytest.raises(ValueError, match="surface"):
        move_to(scene, 64.0, 95.0 + 85.0)


def test_probe_geometry_is_fixed(scene):
    # the constant pixels cover the field of view to within one pixel
    for n, spacing, fov in zip(ProbeParams.image_shape, ProbeParams.pixel_spacing,
                               (ProbeParams.fov_width, ProbeParams.fov_depth)):
        assert n >= 2 and spacing > 0
        assert abs(n * spacing - fov) <= spacing
    with pytest.raises(TypeError):
        ProbeParams(fov_width=1.0)
    with pytest.raises(ValueError, match="3-vector"):
        capture_us(scene, np.zeros(2))


def test_noise_model_is_fixed():
    # the corruption's values are class attributes; an instance holds the seed
    assert [f.name for f in dataclasses.fields(NoiseModel)] == ["seed"]
    assert NOISE_DEFAULTS == dict(pixel_flip_rate=0.003, spurious_blob_rate=1.5,
                                  blob_size=(10, 30), morph_jitter=1)
    with pytest.raises(TypeError):
        NoiseModel(morph_jitter=3)
    # zero noise is no model at all
    assert NOISE_PRESETS["zero"](5) is None
    assert NOISE_PRESETS["default"](5) == NoiseModel(seed=5)


# ------------------------------------------------------ frames and truth


@pytest.mark.parametrize("offset, yaw", [
    ((10.0, -5.0, 0.0), 0.0), ((12.5, -7.0, 3.0), 6.0), ((-8.0, 6.0, -2.0), -10.0)])
def test_segmenters_match_eager_capture(monkeypatch, offset, yaw):
    scene = place_phantom(generate_phantom(seed=3), offset, yaw)
    # a branch annotation with content up to every face, so a frame that reads
    # past an edge differs from one clamped to it
    ann = scene.hv_branch_annotation
    dense = (np.random.default_rng(23).random(ann.shape) < 0.5).astype(np.uint8)
    scene = dataclasses.replace(
        scene, hv_branch_annotation=Volume3(dense, ann.spacing, ann.origin, ann.axes))
    bp = scene.placement.apply(np.asarray(PhantomParams.branch_point, dtype=float))
    rng = np.random.default_rng(17)
    positions = [move_to(scene, bp[0] + dx, bp[1] + dy)
                 for dx in np.linspace(-30.0, 30.0, 10) for dy in (-6.0, 0.0, 6.0)]
    # free-floating probes whose frames hang off the volume on some side
    grid = scene.hv_annotation
    corners = np.array(np.meshgrid(*[(0.0, n) for n in grid.shape], indexing="ij")).reshape(3, -1).T
    box = grid.origin + (corners * grid.spacing) @ grid.axes
    lo, hi = box.min(axis=0), box.max(axis=0)
    for i in range(14):
        x = rng.uniform(lo[0], hi[0])
        y = (lo[1], hi[1])[i % 2] + rng.uniform(-30.0, 30.0)
        z = rng.uniform(lo[2] + 40.0, hi[2] + 40.0)
        positions.append(np.array([x, y, z]))
    # frames wholly outside the volume: in the first slab beyond either x end
    # (index -1 and n on the unyawed scene), beyond either lateral side
    mid = (lo + hi) / 2.0
    half_fov = ProbeParams.fov_width / 2.0
    for x in (lo[0] - 1.5, hi[0]):
        positions.append(np.array([x, mid[1], hi[2]]))
    for y in (lo[1] - half_fov - 3.0, hi[1] + half_fov + 3.0):
        positions.append(np.array([mid[0], y, hi[2]]))
    # half-voxel ties: the slab, the first lateral pixel and the first depth
    # pixel each sit exactly between two voxel centres (on the unyawed scene)
    o, sp = grid.origin, grid.spacing
    for m in (10, 20, 31):
        tie = o + (m + 0.5) * sp
        positions.append(np.array([tie[0], tie[1] + half_fov, tie[2]]))

    calls = []

    def counting_gather(vol, *args, **kwargs):
        calls.append(vol)
        return gather_nearest(vol, *args, **kwargs)

    def no_sampler(*args, **kwargs):
        raise AssertionError("a frame was read through sample_at_physical")

    monkeypatch.setattr(probe, "gather_nearest", counting_gather)
    for module in (imgvol, imgvol.volume):
        monkeypatch.setattr(module, "sample_at_physical", no_sampler)
    partial = with_vessel = 0
    ties = np.zeros(3, dtype=bool)
    for pos in positions:
        frame = capture_us(scene, pos)
        got = (segment_full(frame, None), segment_branch(frame, None))
        for shared_grid in (True, False):
            want = eager_capture(scene, frame.capture_position, shared_grid)
            for name, g, w in zip(("full", "branch"), got, want):
                assert g.dtype == w.dtype, name
                assert np.array_equal(g, w), f"{name} at {pos} (shared_grid={shared_grid})"
        idx = physical_to_voxel(grid, capture_grid(frame.capture_position))
        inside = ((idx > -0.5) & (idx < np.asarray(grid.shape) - 0.5)).all(axis=-1)
        partial += bool(inside.any() and not inside.all())
        with_vessel += bool(got[0].any())
        ties |= (idx - np.floor(idx) == 0.5).reshape(-1, 3).any(axis=0)
    assert len(positions) >= 30
    assert partial >= 10 and with_vessel >= 10, (partial, with_vessel)

    n = len(positions)
    masks = (scene.hv_annotation, scene.hv_branch_annotation)
    # yawed or not, each truth mask is one gather of its own annotation
    assert not hasattr(probe, "sample_at_physical")
    assert len(calls) == 2 * n and all(v is m for v, m in zip(calls, masks * n))
    if yaw == 0.0:
        assert ties.all()

    # an annotation with no voxels reads zeros
    ann = scene.hv_annotation
    empty = dataclasses.replace(
        scene, hv_annotation=Volume3(np.zeros((ann.shape[0], 0, ann.shape[2]), np.uint8),
                                     ann.spacing, ann.origin, ann.axes))
    frame = capture_us(empty, positions[0])
    assert np.array_equal(segment_full(frame, None), np.zeros(ProbeParams.image_shape, np.uint8))


def test_frame_is_immutable(scene):
    pos = move_to(scene, 64.0, 95.0)
    frame = capture_us(scene, pos)
    assert frame._fields == ("scene", "capture_position")
    assert frame.scene is scene and np.array_equal(frame.capture_position, pos)
    assert frame.capture_position is not pos and frame.capture_position.dtype == np.float64
    with pytest.raises(ValueError):
        frame.capture_position[0] = 0.0
    with pytest.raises(AttributeError):
        frame.capture_position = np.zeros(3)
    for noise in (None, NoiseModel(seed=4)):
        for mask in (segment_full(frame, noise), segment_branch(frame, noise)):
            assert mask.dtype == np.uint8 and mask.shape == ProbeParams.image_shape
            with pytest.raises(ValueError):
                mask[0, 0] = 1


@pytest.mark.parametrize("noise", [None, NoiseModel(seed=4)], ids=["zero", "default"])
@pytest.mark.parametrize("segment, field", [(segment_full, "mask_truth"),
                                            (segment_branch, "branch_truth")])
def test_segmentation_samples_only_its_truth(scene, monkeypatch, noise, segment, field):
    # the full truth mask samples the vein annotation, the branch truth the
    # junction-local one
    annotation = {"mask_truth": scene.hv_annotation, "branch_truth": scene.hv_branch_annotation}
    sampled, truth = [], probe._truth

    def counting_truth(vol, position):
        sampled.append(vol)
        return truth(vol, position)

    monkeypatch.setattr(probe, "_truth", counting_truth)
    segment(capture_us(scene, move_to(scene, 62.0, 96.0)), noise)
    assert len(sampled) == 1 and sampled[0] is annotation[field]


def test_judging_targets_captures_nothing(scene, monkeypatch):
    def no_capture(*args, **kwargs):
        raise AssertionError("target imaging captured a frame")

    monkeypatch.setattr(pipeline, "capture_us", no_capture)
    target = move_to(scene, 64.0, 95.0) - np.array([0.0, 0.0, 30.0])
    positions = target_imaging(scene, target, eps_mm=5.0)
    assert judge_success(positions, target)
    # one position sits on the target's slice, well inside the tolerance
    assert np.abs(positions[:, 0] - target[0]).min() <= 1.0
