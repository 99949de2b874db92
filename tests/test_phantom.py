import dataclasses
import hashlib
import json
import math
import pickle
import struct

import numpy as np
import pytest

from _oracles import count_components, point_to_polyline_distance
from usreg_sim.imgvol import inverse, physical_to_voxel, voxel_to_physical
from usreg_sim.phantom import (
    PhantomParams,
    PhantomScene,
    generate_phantom,
    load_scene,
    place_phantom,
    save_scene,
    target_grid,
)


@pytest.fixture(scope="module")
def scene():
    return generate_phantom(seed=0)


def test_generation_is_deterministic(scene):
    again = generate_phantom(seed=0)
    np.testing.assert_array_equal(again.body.data, scene.body.data)
    np.testing.assert_array_equal(again.hv_annotation.data, scene.hv_annotation.data)
    np.testing.assert_array_equal(again.hv_branch_annotation.data, scene.hv_branch_annotation.data)
    # the seed is recorded on the scene; the geometry does not depend on it
    different = generate_phantom(seed=1)
    assert different.seed == 1
    for name in ("body", "hv_annotation", "hv_branch_annotation"):
        np.testing.assert_array_equal(getattr(different, name).data, getattr(scene, name).data)


def test_geometry_is_built_once_and_read_only(scene):
    # every scene shares the cached arrays, whatever its seed
    again = generate_phantom(seed=9)
    assert again.seed == 9
    for name in ("body", "hv_annotation", "hv_branch_annotation"):
        data = getattr(again, name).data
        assert data is getattr(scene, name).data
        assert not data.flags.writeable
    assert all(not br.points.flags.writeable for br in again.tree.branches)
    # the geometry is fixed: the parameters are class attributes, not fields
    with pytest.raises(TypeError):
        PhantomParams(radius_lhv=3.0)


# sha256 of the phantom's three masks and its tree (each branch's points,
# then its radius as a little-endian float64), so a refactor of the
# generator is checked voxel for voxel
PHANTOM_GEOMETRY_DIGEST = "201ecdcf4de274e48ceab8c8b35db5913d120063c53ac694d19072c84411dd48"


def test_phantom_geometry_is_pinned(scene):
    h = hashlib.sha256()
    for vol in (scene.body, scene.hv_annotation, scene.hv_branch_annotation):
        h.update(vol.data.tobytes())
    for br in scene.tree.branches:
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
            for br in scene.tree.branches
        )
        assert dmin <= 1e-9, f"marked voxel {vox} is outside every tube"

    unmarked_checked = 0
    while unmarked_checked < 300:
        vox = rng.integers(0, scene.body.shape, size=3)
        center = vox * sp
        inside = any(
            point_to_polyline_distance(center, br.points) <= br.radius
            for br in scene.tree.branches
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
    bp_x = scene.tree.branch_point[0]
    limit = PhantomParams.branch_window_mm + max(PhantomParams.radius_trunk, PhantomParams.radius_mhv)
    assert xs.min() >= bp_x - limit - sp and xs.max() <= bp_x + limit + sp


def test_two_lobe_cross_section_near_branch_point(scene):
    """Within two slices of the branching point some axial slice shows >= 2 lobes."""
    sp = PhantomParams.spacing_mm
    slice_idx = int(round(scene.tree.branch_point[0] / sp))
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


def test_body_mask_is_the_extruded_ellipse(scene):
    p = PhantomParams
    body = scene.body.data
    assert body.dtype == np.uint8 and set(np.unique(body)) == {0, 1}
    # every voxel center inside the (y, z) ellipse, on every x slab
    _, yy, zz = np.indices(body.shape) * p.spacing_mm
    rel_y = (yy - p.body_center_y) / p.body_semi_y
    rel_z = (zz - p.body_center_z) / p.body_semi_z
    inside = rel_y**2 + rel_z**2 <= 1.0
    np.testing.assert_array_equal(body, inside.astype(np.uint8))
    assert (scene.hv_annotation.data <= body).all()


def test_placement_consistency():
    base = generate_phantom(seed=2)
    moved = place_phantom(base, offset=(12.5, -7.0, 3.0), yaw_deg=6.0)
    rng = np.random.default_rng(4)
    idx = rng.integers(0, np.array(base.body.shape), size=(50, 3))
    np.testing.assert_allclose(
        voxel_to_physical(moved.hv_annotation, idx),
        moved.placement.apply(voxel_to_physical(base.hv_annotation, idx)),
        atol=1e-9,
    )
    np.testing.assert_allclose(
        moved.tree.branch_point,
        moved.placement.apply(base.tree.branch_point),
        atol=1e-12,
    )
    # placed surface: height shifts by t_z and follows the yawed footprint
    p0 = base.tree.branch_point
    top0 = base.surface_height(p0[0], p0[1])
    p1 = moved.placement.apply([p0[0], p0[1], top0])
    assert moved.surface_height(p1[0], p1[1]) == pytest.approx(top0 + 3.0, abs=1e-9)


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


def test_target_grid_layout(scene):
    targets = target_grid(scene)
    p = PhantomParams
    assert targets.shape == (p.targets_along * p.targets_across, 3)
    assert len(np.unique(targets[:, 2])) == 1  # single depth
    xs = np.unique(targets[:, 0])
    assert len(xs) == p.targets_along
    steps = np.diff(xs)
    np.testing.assert_allclose(steps, steps[0], atol=1e-9)  # uniform pitch
    assert xs.max() - xs.min() == pytest.approx(p.target_span_x)
    np.testing.assert_allclose(targets[:, :2].mean(axis=0), scene.tree.branch_point[:2], atol=1e-9)


def test_target_grid_is_in_ct_frame_after_placement():
    base = generate_phantom(seed=2)
    moved = place_phantom(base, offset=(20.0, -10.0, 0.0), yaw_deg=4.0)
    np.testing.assert_allclose(target_grid(moved), target_grid(base), atol=1e-9)


def test_target_grid_rejects_overrun(scene, monkeypatch):
    monkeypatch.setattr(PhantomParams, "target_span_x", 400.0)
    with pytest.raises(ValueError, match="outside the CT volume"):
        target_grid(scene)


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
        for name in ("body", "hv_annotation", "hv_branch_annotation"):
            got, want = getattr(back, name), getattr(moved, name)
            assert got.data.dtype == np.uint8
            np.testing.assert_array_equal(got.data, want.data)
            assert got.origin.tobytes() == want.origin.tobytes()
            assert got.axes.tobytes() == want.axes.tobytes()
        for got, want in zip(back.tree.branches, moved.tree.branches, strict=True):
            assert got.points.tobytes() == want.points.tobytes()
        assert back.tree.branch_point.tobytes() == moved.tree.branch_point.tobytes()
        heights = [(back.surface_height(x, y), moved.surface_height(x, y)) for x, y in _HEIGHT_GRID]
        assert 0 < sum(math.isnan(want) for _, want in heights) < len(heights)
        assert all(_same_height(got, want) for got, want in heights)
        assert target_grid(back).tobytes() == target_grid(moved).tobytes()


@pytest.mark.parametrize("version", [1, 2, 3])
def test_load_scene_rejects_old_formats(tmp_path, scene, version):
    path = save_scene(scene, tmp_path / "scene")
    desc = json.loads(path.read_text())
    desc["format_version"] = version
    path.write_text(json.dumps(desc))
    with pytest.raises(ValueError, match=f"unsupported scene format {version}"):
        load_scene(path)


_TILT = [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]  # 90 degrees about x


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
], ids=["list", "no-placement", "string-placement", "no-translation", "string-seed", "float-seed",
        "bool-seed", "tilted", "nan-translation", "inf-rotation", "short-translation"])
def test_load_scene_rejects_malformed_descriptor(tmp_path, scene, edit, message):
    path = save_scene(scene, tmp_path / "scene")
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=message) as info:
        load_scene(path)
    assert str(path) in str(info.value)


def test_branch_point_index_consistency(scene):
    idx = physical_to_voxel(scene.hv_annotation, scene.tree.branch_point)
    assert scene.hv_annotation.data[tuple(np.round(idx).astype(int))] == 1
    ct_frame_bp = inverse(scene.placement).apply(scene.tree.branch_point)
    np.testing.assert_allclose(ct_frame_bp, scene.tree.branch_point)  # identity placement


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
    assert fields == ["body", "hv_annotation", "hv_branch_annotation", "placement", "tree", "seed"]
    assert yawed._to_intrinsic is yawed._to_intrinsic


def test_scene_pickles_for_pool_workers(yawed):
    back = pickle.loads(pickle.dumps(yawed))
    np.testing.assert_array_equal(back.hv_annotation.data, yawed.hv_annotation.data)
    for name in ("rotation", "translation"):
        assert getattr(back.placement, name).tobytes() == getattr(yawed.placement, name).tobytes()
    for x, y in ((100.0, 95.0), (60.0, 20.0), (60.0, 190.0)):
        assert _same_height(back.surface_height(x, y), yawed.surface_height(x, y))
