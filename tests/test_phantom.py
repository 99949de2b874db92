import dataclasses
import hashlib
import json
import math
import pickle
import struct

import numpy as np
import pytest

from _oracles import count_components, point_to_polyline_distance
from usreg_sim.imgvol import inverse, load_volume, physical_to_voxel, voxel_to_physical
from usreg_sim.phantom import (
    PhantomParams,
    PhantomScene,
    VesselBranch,
    _body_volume,
    generate_phantom,
    load_scene,
    place_phantom,
    save_scene,
    target_grid,
    vein_branches,
)

BRANCH_POINT = np.asarray(PhantomParams.branch_point, dtype=np.float64)


@pytest.fixture(scope="module")
def scene():
    return generate_phantom(seed=0)


def test_generation_is_deterministic(scene):
    again = generate_phantom(seed=0)
    np.testing.assert_array_equal(again.hv_annotation.data, scene.hv_annotation.data)
    np.testing.assert_array_equal(again.hv_branch_annotation.data, scene.hv_branch_annotation.data)
    # the seed is recorded on the scene; the geometry does not depend on it
    different = generate_phantom(seed=1)
    assert different.seed == 1
    for name in ("hv_annotation", "hv_branch_annotation"):
        np.testing.assert_array_equal(getattr(different, name).data, getattr(scene, name).data)


def test_geometry_is_built_once_and_read_only(scene):
    # every scene shares the cached arrays, whatever its seed
    again = generate_phantom(seed=9)
    assert again.seed == 9
    for name in ("hv_annotation", "hv_branch_annotation"):
        data = getattr(again, name).data
        assert data is getattr(scene, name).data
        assert not data.flags.writeable
    assert vein_branches() is vein_branches()
    assert all(not br.points.flags.writeable for br in vein_branches())
    # the geometry is fixed: the parameters are class attributes, not fields
    with pytest.raises(TypeError):
        PhantomParams(radius_lhv=3.0)


# sha256 of the phantom's three masks (the body as save_scene rasterises
# it, then the two annotations) and its tree (each branch's points, then
# its radius as a little-endian float64), so a refactor of the generator is
# checked voxel for voxel
PHANTOM_GEOMETRY_DIGEST = "201ecdcf4de274e48ceab8c8b35db5913d120063c53ac694d19072c84411dd48"


def test_phantom_geometry_is_pinned(scene):
    h = hashlib.sha256()
    for vol in (_body_volume(scene), scene.hv_annotation, scene.hv_branch_annotation):
        h.update(vol.data.tobytes())
    for br in vein_branches():
        h.update(br.points.tobytes())
        h.update(struct.pack("<d", br.radius))
    assert h.hexdigest() == PHANTOM_GEOMETRY_DIGEST


def test_annotation_is_exactly_the_tube_set(scene):
    """Marked voxels are within a branch radius of its centerline, and vice versa."""
    sp = PhantomParams.spacing_mm
    ann = scene.hv_annotation.data
    rng = np.random.default_rng(3)

    marked = np.argwhere(ann)
    sample = marked[rng.choice(len(marked), size=300, replace=False)]
    for vox in sample:
        center = vox * sp
        dmin = min(
            point_to_polyline_distance(center, br.points) - br.radius
            for br in vein_branches()
        )
        assert dmin <= 1e-9, f"marked voxel {vox} is outside every tube"

    unmarked_checked = 0
    while unmarked_checked < 300:
        vox = rng.integers(0, scene.hv_annotation.shape, size=3)
        center = vox * sp
        inside = any(
            point_to_polyline_distance(center, br.points) <= br.radius
            for br in vein_branches()
        )
        assert bool(ann[tuple(vox)]) == inside
        unmarked_checked += 1


def test_branch_oracle_is_subset_within_window(scene):
    branch = scene.hv_branch_annotation.data
    ann = scene.hv_annotation.data
    assert (branch <= ann).all()
    assert branch.sum() > 0
    # restricted to the trunk/middle-vein window: extent along x stays within
    # branch_window + radius of the branching point
    sp = PhantomParams.spacing_mm
    xs = np.argwhere(branch)[:, 0] * sp
    bp_x = BRANCH_POINT[0]
    limit = PhantomParams.branch_window_mm + max(PhantomParams.radius_trunk, PhantomParams.radius_mhv)
    assert xs.min() >= bp_x - limit - sp and xs.max() <= bp_x + limit + sp


def test_two_lobe_cross_section_near_branch_point(scene):
    """Within two slices of the branching point some axial slice shows >= 2 lobes."""
    sp = PhantomParams.spacing_mm
    slice_idx = int(round(BRANCH_POINT[0] / sp))
    found = max(
        count_components(scene.hv_annotation.data[slice_idx + d])
        for d in range(-2, 3)
    )
    assert found >= 2


def test_vessels_stay_below_surface(scene):
    sp = PhantomParams.spacing_mm
    for vox in np.argwhere(scene.hv_annotation.data):
        x, y, z = vox * sp
        top = scene.surface_height(x, y)
        assert z < top


def test_surface_height_values(scene):
    p = PhantomParams
    assert scene.surface_height(10.0, p.body_center_y) == pytest.approx(p.body_center_z + p.body_semi_z)
    assert np.isnan(scene.surface_height(10.0, p.body_center_y + p.body_semi_y + 1))


def test_body_mask_is_the_extruded_ellipse(tmp_path, scene):
    """``body.vol`` is the ellipse rasterised on the placed annotation grid."""
    p = PhantomParams
    _, yy, zz = np.indices(p.volume_shape) * p.spacing_mm
    rel_y = (yy - p.body_center_y) / p.body_semi_y
    rel_z = (zz - p.body_center_z) / p.body_semi_z
    # every voxel center inside the (y, z) ellipse, on every x slab
    inside = (rel_y**2 + rel_z**2 <= 1.0).astype(np.uint8)
    for i, (offset, yaw) in enumerate([((0.0, 0.0, 0.0), 0.0), ((14.0, -9.0, 3.0), -7.0)]):
        placed = place_phantom(scene, offset, yaw)
        save_scene(placed, tmp_path / f"scene{i}")
        body = load_volume(tmp_path / f"scene{i}" / "body.vol")
        ann = placed.hv_annotation
        for name in ("spacing", "origin", "axes"):
            assert getattr(body, name).tobytes() == getattr(ann, name).tobytes()
        assert body.data.dtype == np.uint8
        np.testing.assert_array_equal(body.data, inside)
        assert (ann.data <= body.data).all()


def test_tree_records_copy_the_callers_arrays():
    points = np.zeros((3, 3))
    branch = VesselBranch("x", 1.0, points)
    # the caller's array stays writable, and writing it does not reach the record
    assert points.flags.writeable
    points[0, 0] = 5.0
    assert branch.points[0, 0] == 0.0
    assert not branch.points.flags.writeable


def test_placement_consistency():
    base = generate_phantom(seed=2)
    moved = place_phantom(base, offset=(12.5, -7.0, 3.0), yaw_deg=6.0)
    rng = np.random.default_rng(4)
    idx = rng.integers(0, np.array(base.hv_annotation.shape), size=(50, 3))
    np.testing.assert_allclose(
        voxel_to_physical(moved.hv_annotation, idx),
        moved.placement.apply(voxel_to_physical(base.hv_annotation, idx)),
        atol=1e-9,
    )
    # placed surface: height shifts by t_z and follows the yawed footprint
    p0 = BRANCH_POINT
    top0 = base.surface_height(p0[0], p0[1])
    p1 = moved.placement.apply([p0[0], p0[1], top0])
    assert moved.surface_height(p1[0], p1[1]) == pytest.approx(top0 + 3.0, abs=1e-9)


@pytest.mark.parametrize("yaw", [-10.0, -6.5, 0.0, 3.0, 10.0])
def test_placed_annotations_keep_z_exactly_vertical(tmp_path, scene, yaw):
    # a probe frame reads an annotation as y-only row pairs by z-only
    # columns, which takes row 2 and column 2 of its axes to be exactly
    # (0, 0, 1): on a placed scene and on the same scene saved and loaded
    moved = place_phantom(scene, offset=(11.0, -6.0, 2.5), yaw_deg=yaw)
    for placed in (moved, load_scene(save_scene(moved, tmp_path / "scene"))):
        for vol in (placed.hv_annotation, placed.hv_branch_annotation):
            assert vol.axes[2].tolist() == [0.0, 0.0, 1.0]
            assert vol.axes[:, 2].tolist() == [0.0, 0.0, 1.0]


def test_placement_yaw_limit():
    base = generate_phantom(seed=2)
    with pytest.raises(ValueError):
        place_phantom(base, offset=(0, 0, 0), yaw_deg=11.0)


@pytest.mark.parametrize("yaw", [math.nan, math.inf, -math.inf])
def test_placement_rejects_non_finite_yaw(yaw):
    # a NaN yaw fails every comparison, so the limit is written to reject it
    with pytest.raises(ValueError, match="yaw"):
        place_phantom(generate_phantom(seed=2), offset=(0, 0, 0), yaw_deg=yaw)


@pytest.mark.parametrize("offset", [
    (math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, -math.inf),
    (1.0, 2.0), (1.0, 2.0, 3.0, 4.0),
], ids=["nan-x", "inf-y", "-inf-z", "two", "four"])
def test_placement_rejects_offset_not_three_finite_numbers(offset):
    with pytest.raises(ValueError, match="offset must be 3 finite numbers"):
        place_phantom(generate_phantom(seed=2), offset=offset)


def test_target_grid_layout():
    targets = target_grid()
    p = PhantomParams
    assert targets.shape == (p.targets_along * p.targets_across, 3)
    assert len(np.unique(targets[:, 2])) == 1  # single depth
    xs = np.unique(targets[:, 0])
    assert len(xs) == p.targets_along
    steps = np.diff(xs)
    np.testing.assert_allclose(steps, steps[0], atol=1e-9)  # uniform pitch
    assert xs.max() - xs.min() == pytest.approx(p.target_span_x)
    np.testing.assert_allclose(targets[:, :2].mean(axis=0), BRANCH_POINT[:2], atol=1e-9)


def test_target_grid_is_in_ct_frame_after_placement():
    # one read-only lattice per process, built from PhantomParams alone:
    # no placement enters it
    targets = target_grid()
    assert target_grid() is targets
    assert not targets.flags.writeable
    p = PhantomParams
    bp = p.branch_point
    xs = np.linspace(bp[0] - p.target_span_x / 2, bp[0] + p.target_span_x / 2, p.targets_along)
    ys = np.linspace(bp[1] - p.target_span_y / 2, bp[1] + p.target_span_y / 2, p.targets_across)
    want = np.array([[x, y, bp[2] + p.target_depth_offset] for x in xs for y in ys])
    assert targets.tobytes() == want.tobytes()


def test_targets_lie_in_the_ct_volume_below_the_skin(scene):
    # every target is inside the annotation grid and under the skin, in the
    # intrinsic frame and wherever a trial may place the phantom
    targets = target_grid()
    rng = np.random.default_rng(8)
    placements = [((0.0, 0.0, 0.0), 0.0)] + [
        ((rng.uniform(-40.0, 40.0), rng.uniform(-25.0, 25.0), 0.0), rng.uniform(-10.0, 10.0))
        for _ in range(20)
    ]
    last = np.asarray(scene.hv_annotation.shape) - 1
    for offset, yaw in placements:
        placed = place_phantom(scene, offset, yaw)
        phys = placed.placement.apply(targets)
        idx = physical_to_voxel(placed.hv_annotation, phys)
        assert (idx >= 0).all() and (idx <= last).all(), (offset, yaw)
        for x, y, z in phys:
            assert z < placed.surface_height(x, y), (offset, yaw)


def _same_height(got, want):
    return got == want or (math.isnan(got) and math.isnan(want))


# a grid over the yawed scene's footprint and well past its sides
_HEIGHT_GRID = [(x, y) for x in np.linspace(-40.0, 180.0, 23) for y in np.linspace(-20.0, 210.0, 24)]


def test_scene_round_trip(tmp_path, scene):
    """A saved scene loads back bit for bit, whatever its yaw and offset."""
    for i, (offset, yaw) in enumerate([
        ((5.0, 2.0, 0.0), -3.0), ((14.0, -9.0, 3.0), -7.0), ((-30.0, 20.0, -4.5), 9.5), ((0.0, 0.0, 0.0), 0.0),
    ]):
        moved = place_phantom(scene, offset=offset, yaw_deg=yaw)
        path = save_scene(moved, tmp_path / f"scene{i}")
        desc = json.loads(path.read_text())
        # the placement is stored once: no surface block copies it
        assert desc["format_version"] == 4 and "surface" not in desc and "params" not in desc
        back = load_scene(path)
        assert back.seed == moved.seed
        for name in ("rotation", "translation"):
            assert getattr(back.placement, name).tobytes() == getattr(moved.placement, name).tobytes()
        for name in ("hv_annotation", "hv_branch_annotation"):
            got, want = getattr(back, name), getattr(moved, name)
            assert got.data.dtype == np.uint8
            np.testing.assert_array_equal(got.data, want.data)
            assert got.origin.tobytes() == want.origin.tobytes()
            assert got.axes.tobytes() == want.axes.tobytes()
        heights = [(back.surface_height(x, y), moved.surface_height(x, y)) for x, y in _HEIGHT_GRID]
        assert 0 < sum(math.isnan(want) for _, want in heights) < len(heights)
        assert all(_same_height(got, want) for got, want in heights)
        assert desc["targets"] == target_grid().tolist()


def test_saved_tree_is_the_ct_tree_placed(tmp_path, scene):
    """``save_scene`` places the CT-frame branching point and tree, bit for bit."""
    moved = place_phantom(scene, offset=(-13.0, 8.5, 1.5), yaw_deg=-8.0)
    desc = json.loads(save_scene(moved, tmp_path / "scene").read_text())
    assert desc["branch_point"] == moved.placement.apply(BRANCH_POINT).tolist()
    assert desc["targets"] == target_grid().tolist()
    want = [
        {"label": br.label, "radius": br.radius, "points": moved.placement.apply(br.points).tolist()}
        for br in vein_branches()
    ]
    assert desc["tree"] == want


@pytest.mark.parametrize("version", [1, 2, 3])
def test_load_scene_rejects_old_formats(tmp_path, scene, version):
    path = save_scene(scene, tmp_path / "scene")
    desc = json.loads(path.read_text())
    desc["format_version"] = version
    path.write_text(json.dumps(desc))
    with pytest.raises(ValueError, match=f"unsupported scene format {version}"):
        load_scene(path)


_TILT = [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]  # 90 degrees about x
# orthonormal within float tolerance, but the z axis leans by 1e-12
_LEAN = [[1.0, 0.0, 1e-12], [0.0, 1.0, 0.0], [-1e-12, 0.0, 1.0]]


@pytest.mark.parametrize("edit, message", [
    (lambda d: [d], "not a JSON object"),
    (lambda d: {k: v for k, v in d.items() if k != "placement"}, "missing 'placement'"),
    (lambda d: {**d, "placement": "identity"}, "string indices"),
    (lambda d: {**d, "placement": {"rotation": _TILT}}, "missing 'translation'"),
    (lambda d: {**d, "seed": "7"}, "seed must be an integer"),
    (lambda d: {**d, "seed": 7.0}, "seed must be an integer"),
    (lambda d: {**d, "seed": True}, "seed must be an integer"),
    (lambda d: {**d, "placement": {"rotation": _TILT, "translation": [0.0, 0.0, 0.0]}},
     "z axis vertical"),
    (lambda d: {**d, "placement": {"rotation": np.eye(3).tolist(), "translation": [0.0, float("nan"), 0.0]}},
     "translation must be finite"),
    (lambda d: {**d, "placement": {"rotation": np.diag([1.0, float("inf"), 1.0]).tolist(),
                                   "translation": [0.0, 0.0, 0.0]}},
     "rotation and translation must be finite"),
    (lambda d: {**d, "placement": {"rotation": np.eye(3).tolist(), "translation": [1.0, 2.0]}},
     "3-vector"),
    (lambda d: {**d, "placement": {"rotation": _LEAN, "translation": [0.0, 0.0, 0.0]}},
     "z axis vertical"),
], ids=["list", "no-placement", "string-placement", "no-translation", "string-seed", "float-seed",
        "bool-seed", "tilted", "nan-translation", "inf-rotation", "short-translation", "leaning"])
def test_load_scene_rejects_malformed_descriptor(tmp_path, scene, edit, message):
    path = save_scene(scene, tmp_path / "scene")
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=message) as info:
        load_scene(path)
    assert str(path) in str(info.value)


def test_branch_point_index_consistency(scene):
    idx = physical_to_voxel(scene.hv_annotation, BRANCH_POINT)
    assert scene.hv_annotation.data[tuple(np.round(idx).astype(int))] == 1
    ct_frame_bp = inverse(scene.placement).apply(BRANCH_POINT)
    np.testing.assert_allclose(ct_frame_bp, BRANCH_POINT)  # identity placement


def _per_call_height(scene, x, y):
    """The skin height with the placement inverted on every call."""
    q = inverse(scene.placement).apply([float(x), float(y), 0.0])
    p = PhantomParams
    rel = (q[1] - p.body_center_y) / p.body_semi_y
    if abs(rel) >= 1.0:
        return math.nan
    z_intrinsic = p.body_center_z + p.body_semi_z * math.sqrt(1.0 - rel * rel)
    return z_intrinsic + float(scene.placement.translation[2])


@pytest.fixture(scope="module")
def yawed(scene):
    return place_phantom(scene, offset=(14.0, -9.0, 3.0), yaw_deg=-7.0)


def test_surface_height_matches_per_call_inverse(yawed):
    heights = [(yawed.surface_height(x, y), _per_call_height(yawed, x, y)) for x, y in _HEIGHT_GRID]
    off_body = [math.isnan(want) for _, want in heights]
    assert 0 < sum(off_body) < len(heights)
    for (got, want), nan in zip(heights, off_body):
        assert math.isnan(got) if nan else got == want
    # the placement is the one stored copy: the inverse is cached, not a field
    fields = [f.name for f in dataclasses.fields(PhantomScene)]
    assert fields == ["hv_annotation", "hv_branch_annotation", "placement", "seed"]
    assert yawed._to_intrinsic is yawed._to_intrinsic


def test_scene_pickles_for_pool_workers(yawed):
    back = pickle.loads(pickle.dumps(yawed))
    np.testing.assert_array_equal(back.hv_annotation.data, yawed.hv_annotation.data)
    for name in ("rotation", "translation"):
        assert getattr(back.placement, name).tobytes() == getattr(yawed.placement, name).tobytes()
    for x, y in ((100.0, 95.0), (60.0, 20.0), (60.0, 190.0)):
        assert _same_height(back.surface_height(x, y), yawed.surface_height(x, y))
