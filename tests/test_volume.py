
import numpy as np
import pytest

from usreg_sim.imgvol import (
    Volume3,
    centroid,
    gather_nearest,
    largest_connected_component,
    physical_to_voxel,
    require_binary,
    resample_crop,
    sample_at_physical,
    sample_slab,
    voxel_to_physical,
)

from usreg_sim.phantom import generate_phantom

from _oracles import reference_resample_crop, reference_sample_at_physical

IDENT = np.eye(3)


def make_vol(data, spacing=(1, 1, 1), origin=(0, 0, 0), axes=IDENT):
    return Volume3(np.asarray(data), spacing, origin, axes)


def random_orthonormal(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return q


# ---------------------------------------------------------------- coordinates

def test_voxel_to_physical_identity_axes():
    vol = make_vol(np.zeros((4, 4, 4)), spacing=(1, 2, 3), origin=(10, 0, 0))
    np.testing.assert_allclose(voxel_to_physical(vol, (1, 1, 1)), [11.0, 2.0, 3.0])


def test_voxel_to_physical_flipped_depth_axis():
    # axes (x, y, -z) with origin z=100: stepping 5 voxels along axis 2 descends to 95
    axes = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, -1.0]])
    vol = make_vol(np.zeros((8, 8, 8)), origin=(0, 0, 100), axes=axes)
    np.testing.assert_allclose(voxel_to_physical(vol, (0, 0, 5)), [0.0, 0.0, 95.0])


def test_physical_to_voxel_fractional():
    vol = make_vol(np.zeros((4, 4, 4)))
    np.testing.assert_allclose(physical_to_voxel(vol, (0.5, 0.0, 0.0)), [0.5, 0.0, 0.0])


def test_round_trip_randomized_frames():
    rng = np.random.default_rng(7)
    for _ in range(200):
        axes = random_orthonormal(rng)
        vol = Volume3(
            np.zeros((5, 6, 7), dtype=np.uint8),
            rng.uniform(0.2, 4.0, size=3),
            rng.normal(size=3) * 100,
            axes,
        )
        idx = rng.uniform(0, 4, size=(5, 3))
        back = physical_to_voxel(vol, voxel_to_physical(vol, idx))
        assert np.abs(back - idx).max() < 1e-9


def test_voxel_to_physical_bounds_check():
    vol = make_vol(np.zeros((4, 4, 4)))
    with pytest.raises(IndexError):
        voxel_to_physical(vol, (4, 0, 0))
    with pytest.raises(IndexError):
        voxel_to_physical(vol, (0, -1, 0))


def test_volume_validation():
    with pytest.raises(ValueError):
        make_vol(np.zeros((4, 4, 4)), spacing=(1, 0, 1))
    with pytest.raises(ValueError):
        Volume3(np.zeros((4, 4, 4)), (1, 1, 1), (0, 0, 0), np.eye(3) * 1.5)
    with pytest.raises(ValueError):
        Volume3(np.zeros((4, 4)), (1, 1, 1), (0, 0, 0), IDENT)


@pytest.mark.parametrize("field, bad, why", [
    ("spacing", (1.0, np.inf, 1.0), "must be finite"),
    ("origin", (np.nan, 0.0, 0.0), "must be finite"),
    ("origin", (0.0, -np.inf, 0.0), "must be finite"),
    ("axes", np.full((3, 3), np.nan), "must be finite"),
    ("axes", np.diag([1.0, np.inf, 1.0]), "must be finite"),
    # finite rows whose products overflow: the residual holds NaN
    ("axes", [[1e200, 1e200, 0.0], [1e200, -1e200, 0.0], [0.0, 0.0, 1.0]], "orthogonal"),
])
def test_volume_rejects_non_finite_geometry_or_residual(field, bad, why):
    geometry = {"spacing": (1, 1, 1), "origin": (0, 0, 0), "axes": IDENT, field: bad}
    with pytest.raises(ValueError, match=why):
        Volume3(np.zeros((2, 2, 2)), **geometry)


def test_volume_leaves_the_callers_arrays_writable_and_unshared():
    data = np.zeros((3, 4, 5), dtype=np.uint8)
    sp = np.array([1.0, 2.0, 3.0])
    vol = Volume3(data, sp, (0, 0, 0), IDENT)
    assert data.flags.writeable and sp.flags.writeable
    data[1, 2, 3] = 7
    sp[0] = 9.0
    assert vol.data.max() == 0 and vol.spacing[0] == 1.0
    assert not vol.data.flags.writeable and not vol.spacing.flags.writeable


def test_volume_does_not_follow_writes_to_a_viewed_base():
    base = np.zeros((3, 4, 5), dtype=np.float32)
    geometry = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    vol = Volume3(base[:], geometry[0], geometry[1], IDENT)
    # a read-only view of writable memory is no safer than the memory
    ro = base.view()
    ro.flags.writeable = False
    vol_ro = Volume3(ro, (1, 1, 1), (0, 0, 0), IDENT)
    base[...] = 1.0
    geometry[...] = 5.0
    assert vol.data.max() == 0 and vol_ro.data.max() == 0
    assert vol.spacing.tolist() == [1.0, 1.0, 1.0] and vol.origin.tolist() == [0.0, 0.0, 0.0]


def test_volume_shares_read_only_inputs():
    data = np.zeros((3, 4, 5), dtype=np.uint8)
    data.flags.writeable = False
    vol = Volume3(data, (1, 1, 1), (0, 0, 0), IDENT)
    assert vol.data is data
    moved = Volume3(vol.data, vol.spacing, vol.origin + 1.0, vol.axes)
    assert moved.data is vol.data and moved.spacing is vol.spacing


# ---------------------------------------------------------------- centroid

def test_centroid_l_shape_exact():
    data = np.zeros((3, 3, 3), dtype=np.uint8)
    data[0, 0, 0] = data[1, 0, 0] = data[0, 1, 0] = 1
    np.testing.assert_allclose(centroid(make_vol(data)), [1 / 3, 1 / 3, 0.0])


def test_centroid_respects_geometry():
    data = np.zeros((3, 3, 3), dtype=np.uint8)
    data[1, 1, 1] = 1
    axes = np.array([[0, 1.0, 0], [1.0, 0, 0], [0, 0, -1.0]])
    vol = Volume3(data, (2, 2, 2), (10, 10, 10), axes)
    np.testing.assert_allclose(centroid(vol), voxel_to_physical(vol, (1, 1, 1)))


def test_centroid_empty_errors():
    with pytest.raises(ValueError):
        centroid(make_vol(np.zeros((3, 3, 3), dtype=np.uint8)))
    with pytest.raises(ValueError):
        centroid(make_vol(np.zeros((3, 0, 3), dtype=np.uint8)))


def _centroid_masks():
    rng = np.random.default_rng(41)
    single = np.zeros((5, 6, 7), dtype=np.uint8)
    single[4, 0, 3] = 1
    yield "single", single
    yield "full", np.ones((6, 5, 4), dtype=np.uint8)
    for axis in range(3):
        line = np.zeros((9, 8, 7), dtype=np.uint8)
        index = [2, 5, 6]
        index[axis] = slice(None)
        line[tuple(index)] = 1
        yield f"line{axis}", line
        plane = np.zeros((9, 8, 7), dtype=np.uint8)
        plane[(slice(None),) * axis + (3,)] = 1
        yield f"plane{axis}", plane
    for k, fill in enumerate((0.002, 0.05, 0.5, 0.97)):
        yield f"random{k}", (rng.random((17, 23, 11)) < fill).astype(np.uint8)
    yield "float", (rng.random((8, 9, 10)) < 0.3) * rng.uniform(-2.0, 2.0, (8, 9, 10))
    yield "annotation", generate_phantom(5).hv_annotation.data


@pytest.mark.parametrize(
    "seed, data", [pytest.param(k, data, id=name) for k, (name, data) in enumerate(_centroid_masks())]
)
def test_centroid_matches_argwhere_mean_bit_for_bit(seed, data):
    rng = np.random.default_rng(seed)
    vol = Volume3(data, rng.uniform(0.3, 3.0, 3), rng.normal(scale=40.0, size=3), random_orthonormal(rng))
    want = vol.origin + (np.argwhere(vol.data).mean(axis=0) * vol.spacing) @ vol.axes
    assert np.array_equal(centroid(vol), want)


# ------------------------------------------------- connected components

from _oracles import brute_force_lcc


def test_lcc_keeps_larger_component():
    mask = np.zeros((6, 6, 6), dtype=np.uint8)
    mask[0, 0, 0:5] = 1          # size 5
    mask[3, 3, 0:3] = 1          # size 3
    out = largest_connected_component(mask)
    assert out.sum() == 5
    assert out[0, 0, 2] == 1 and out[3, 3, 1] == 0


def test_lcc_diagonal_is_not_connected():
    mask = np.zeros((4, 4), dtype=np.uint8)
    mask[0, 0] = mask[1, 1] = mask[2, 2] = 1  # diagonal: three separate 4-conn comps
    out = largest_connected_component(mask)
    assert out.sum() == 1
    assert out[0, 0] == 1  # tie broken toward the earliest seed


def test_lcc_matches_brute_force_3d():
    rng = np.random.default_rng(11)
    for _ in range(30):
        mask = (rng.random((7, 8, 6)) < 0.35).astype(np.uint8)
        np.testing.assert_array_equal(largest_connected_component(mask), brute_force_lcc(mask))


def test_lcc_matches_brute_force_2d():
    rng = np.random.default_rng(12)
    for _ in range(30):
        mask = (rng.random((12, 9)) < 0.4).astype(np.uint8)
        np.testing.assert_array_equal(largest_connected_component(mask), brute_force_lcc(mask))


def test_lcc_idempotent_and_empty():
    rng = np.random.default_rng(13)
    mask = (rng.random((8, 8, 8)) < 0.3).astype(np.uint8)
    once = largest_connected_component(mask)
    np.testing.assert_array_equal(largest_connected_component(once), once)
    empty = np.zeros((4, 4), dtype=np.uint8)
    np.testing.assert_array_equal(largest_connected_component(empty), empty)


def _serpentine(rows, cols):
    """Every other row full, joined at alternating ends: one path of maximal length."""
    mask = np.zeros((rows, cols), dtype=np.uint8)
    mask[::2] = 1
    mask[1::4, -1] = 1
    mask[3::4, 0] = 1
    return mask


def test_lcc_matches_brute_force_on_a_serpentine_frame():
    # the longest chain a label must travel in a 216x100 frame, in both
    # orientations, and cut in two so that the lower, later half wins
    snake = _serpentine(216, 100)
    assert snake.sum() == 108 * 100 + 108
    for mask in (snake, np.ascontiguousarray(_serpentine(100, 216).T)):
        out = largest_connected_component(mask)
        np.testing.assert_array_equal(out, mask)
        np.testing.assert_array_equal(out, brute_force_lcc(mask))
    cut = snake.copy()
    cut[105] = 0  # rows 0-104 above (5352 pixels), 106-215 below (5555)
    np.testing.assert_array_equal(largest_connected_component(cut), brute_force_lcc(cut))
    assert largest_connected_component(cut)[:105].sum() == 0


def test_lcc_ties_go_to_the_earliest_first_voxel():
    # equal-size components: the one whose first voxel comes first in scan
    # order wins, even when its other voxels come later than the rival's
    flat = np.zeros((6, 7), dtype=np.uint8)
    flat[0, 5:7] = flat[1, 6] = 1  # first voxel (0, 5), size 3
    flat[1, 0:3] = 1  # first voxel (1, 0), size 3
    vol = np.zeros((4, 5, 6), dtype=np.uint8)
    vol[1:4, 4, 5] = 1  # first voxel (1, 4, 5), size 3
    vol[2, 0, 0:3] = 1  # first voxel (2, 0, 0), size 3
    vol[3, 0, 0] = 1  # joins the second: now size 4, and it wins
    tie3 = vol.copy()
    tie3[3, 0, 0] = 0
    for mask in (flat, tie3, vol):
        np.testing.assert_array_equal(largest_connected_component(mask), brute_force_lcc(mask))
    assert largest_connected_component(flat)[0, 5] == 1
    assert largest_connected_component(tie3)[1, 4, 5] == 1
    assert largest_connected_component(vol)[2, 0, 0] == 1


def test_lcc_largest_component_may_start_late():
    # a small component first in scan order, the largest one starting later
    # and wrapping back above it
    mask = np.zeros((9, 12), dtype=np.uint8)
    mask[0, 0:2] = 1  # size 2, first
    mask[1, 3:12] = mask[0:9, 11] = mask[8, 0:12] = 1  # a large U-turn from (0, 11)
    mask[3:7, 5] = 1  # size 4, inside the turn
    out = largest_connected_component(mask)
    np.testing.assert_array_equal(out, brute_force_lcc(mask))
    assert out[0, 11] == 1 and out[0, 0] == 0 and out[3, 5] == 0
    rng = np.random.default_rng(14)
    for _ in range(20):
        grown = mask | (rng.random(mask.shape) < 0.15).astype(np.uint8)
        np.testing.assert_array_equal(largest_connected_component(grown), brute_force_lcc(grown))


def test_require_binary_rejects_other_values():
    with pytest.raises(ValueError):
        require_binary(np.array([0, 1, 2], dtype=np.uint8))


# ---------------------------------------------------------------- resampling

def test_resample_identity_grid():
    rng = np.random.default_rng(3)
    data = (rng.random((6, 5, 4)) < 0.4).astype(np.uint8)
    vol = make_vol(data)
    center = voxel_to_physical(vol, (np.array(vol.shape) - 1) / 2.0)
    out = resample_crop(vol, (1, 1, 1), vol.shape, center)
    np.testing.assert_array_equal(out.data, data)
    np.testing.assert_allclose(out.origin, vol.origin, atol=1e-12)


def nearest_oracle(vol, target_spacing, target_shape, center):
    """Independent nearest-neighbor resampler using explicit point rounding.

    Half-voxel ties round up, like every nearest sampler of the package.
    """
    target_spacing = np.asarray(target_spacing, float)
    half = (np.asarray(target_shape, float) - 1) / 2
    out_origin = np.asarray(center, float) - (half * target_spacing) @ vol.axes
    out = np.zeros(target_shape, dtype=vol.data.dtype)
    for idx in np.ndindex(*target_shape):
        p = out_origin + (np.asarray(idx, float) * target_spacing) @ vol.axes
        src = ((p - vol.origin) @ vol.axes.T) / vol.spacing
        rounded = np.floor(src + 0.5).astype(int)
        if np.all(rounded >= 0) and np.all(rounded < vol.shape):
            out[idx] = vol.data[tuple(rounded)]
    return out


def test_resample_single_voxel_nearest():
    data = np.zeros((9, 9, 9), dtype=np.uint8)
    data[4, 5, 6] = 1
    vol = make_vol(data)
    p = voxel_to_physical(vol, (4, 5, 6))
    center = voxel_to_physical(vol, (4, 4, 4)) + [0.3, -0.2, 0.1]
    out = resample_crop(vol, (1, 1, 1), (9, 9, 9), center)
    assert out.data.sum() == 1
    hit = np.argwhere(out.data)[0]
    # the single surviving voxel is the output voxel nearest to p
    dists = np.linalg.norm(
        (np.argwhere(np.ones(out.shape)) * out.spacing) @ out.axes + out.origin - p, axis=1
    )
    nearest_idx = np.argwhere(np.ones(out.shape))[np.argmin(dists)]
    np.testing.assert_array_equal(hit, nearest_idx)
    np.testing.assert_array_equal(out.data, nearest_oracle(vol, (1, 1, 1), (9, 9, 9), center))


def test_resample_matches_nearest_oracle_randomized():
    rng = np.random.default_rng(21)
    for _ in range(10):
        data = (rng.random((7, 6, 8)) < 0.4).astype(np.uint8)
        vol = Volume3(data, rng.uniform(0.5, 2.0, 3), rng.normal(size=3) * 5, IDENT)
        shape = tuple(rng.integers(4, 9, size=3))
        spacing = rng.uniform(0.5, 2.5, 3)
        center = rng.normal(size=3) * 4
        out = resample_crop(vol, spacing, shape, center)
        np.testing.assert_array_equal(out.data, nearest_oracle(vol, spacing, shape, center))


def test_resample_half_voxel_ties_round_up():
    # every sample sits half a voxel off a source centre on every axis
    data = (np.random.default_rng(5).random((8, 9, 10)) < 0.5).astype(np.uint8)
    vol = make_vol(data)
    out = resample_crop(vol, (1, 1, 1), (7, 8, 9), (3.5, 4.0, 4.5))
    np.testing.assert_array_equal(out.origin, [0.5, 0.5, 0.5])
    np.testing.assert_array_equal(out.data, nearest_oracle(vol, (1, 1, 1), (7, 8, 9), (3.5, 4.0, 4.5)))


def test_resample_outside_is_zero():
    vol = make_vol(np.ones((4, 4, 4), dtype=np.uint8))
    out = resample_crop(vol, (1, 1, 1), (4, 4, 4), (100.0, 100.0, 100.0))
    assert out.data.sum() == 0


def test_resample_output_center_lands_on_request():
    vol = make_vol(np.zeros((10, 10, 10)))
    center = np.array([3.3, 4.4, 5.5])
    out = resample_crop(vol, (0.7, 0.7, 0.7), (5, 6, 7), center)
    mid = voxel_to_physical(out, (np.array(out.shape) - 1) / 2.0)
    np.testing.assert_allclose(mid, center, atol=1e-12)


def _turned_axes():
    """A frame of signed axis swaps: turned, yet every product stays exact."""
    return np.array([[0.0, 1.0, 0.0], [0.0, 0.0, -1.0], [-1.0, 0.0, 0.0]])


def _resample_cases():
    rng = np.random.default_rng(43)
    for case in range(16):
        dtype = (np.uint8, np.float32)[case % 2]
        shape = tuple(rng.integers(3, 12, size=3))
        data = (rng.random(shape) < 0.4).astype(dtype)
        if dtype == np.float32:
            data *= rng.normal(size=shape).astype(np.float32)
        axes = random_orthonormal(rng) if case % 4 < 2 else _turned_axes()
        vol = Volume3(data, rng.uniform(0.4, 2.5, 3), rng.normal(scale=20.0, size=3), axes)
        # the output spans from well before the first face to past the last
        spacing = rng.uniform(0.3, 3.0, 3)
        out_shape = tuple(rng.integers(2, 30, size=3))
        extent = np.asarray(shape) * vol.spacing
        center = vol.origin + (rng.uniform(-0.4, 1.4, 3) * extent) @ axes
        yield vol, spacing, out_shape, center


def _face_cases():
    """Grids whose samples land on the -0.5 and n - 0.5 faces of every axis."""
    rng = np.random.default_rng(44)
    for dtype in (np.uint8, np.float32):
        for axes in (IDENT, _turned_axes()):
            shape = (4, 5, 6)
            data = (rng.random(shape) * 200 + 1).astype(dtype)
            vol = Volume3(data, (2.0, 0.5, 1.0), (8.0, -3.0, 1.5), axes)
            for step in (1.0, 0.5):
                # source index -0.5 + k * step for k = 0 .. (n / step)
                out_shape = tuple(int(n / step) + 1 for n in shape)
                spacing = step * vol.spacing
                mid_index = -0.5 + (np.asarray(out_shape) - 1) / 2.0 * step
                center = vol.origin + (mid_index * vol.spacing) @ axes
                yield vol, spacing, out_shape, center


@pytest.mark.parametrize("case", list(_resample_cases()) + list(_face_cases()))
def test_resample_matches_map_coordinates_reference(case):
    vol, spacing, out_shape, center = case
    got = resample_crop(vol, spacing, out_shape, center)
    want = reference_resample_crop(vol, spacing, out_shape, center)
    assert got.data.dtype == want.data.dtype and got.shape == want.shape
    assert np.array_equal(got.data, want.data)
    for name in ("spacing", "origin", "axes"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_resample_reads_the_faces_as_ties_rounding_up():
    cases = list(_face_cases())
    for vol, spacing, out_shape, center in cases:
        out = resample_crop(vol, spacing, out_shape, center)
        idx = physical_to_voxel(vol, voxel_to_physical(out, (0, 0, 0)))
        assert np.allclose(idx, -0.5)
        # -0.5 reads voxel 0; n - 0.5 rounds up to n, one past the end
        assert out.data[0, 0, 0] == vol.data[0, 0, 0]
        assert out.data[-1].max() == out.data[:, -1].max() == out.data[:, :, -1].max() == 0


# ---------------------------------------------------------------- sampling

def _plane_frame(rng, vol):
    """A 216x100 pixel plane in random pose, centered so it hangs partly off ``vol``."""
    extent = np.asarray(vol.shape) * vol.spacing
    center = vol.origin + (rng.uniform(-0.3, 1.3, 3) * extent) @ vol.axes
    u, v = random_orthonormal(rng)[:2]
    j = np.arange(216)[:, None, None] * rng.uniform(0.2, 1.5)
    k = np.arange(100)[None, :, None] * rng.uniform(0.2, 1.5)
    return center + (j - 108 * j[1, 0, 0]) * u + (k - 50 * k[0, 1, 0]) * v


@pytest.mark.parametrize("dtype", [np.uint8])
def test_sample_at_physical_matches_reference_sampler(dtype):
    rng = np.random.default_rng(21)
    partial = 0
    for case in range(24):
        axes = random_orthonormal(rng)
        if case % 2:
            axes[2] *= -1.0  # mirror: a left-handed frame
        data = (rng.random((17, 23, 11)) * 2).astype(dtype)
        vol = make_vol(data, rng.uniform(0.5, 3.0, 3), rng.normal(scale=30.0, size=3), axes)
        pts = _plane_frame(rng, vol)
        # the frame, one point, and a short batch
        for p in (pts, pts[7, 3], pts[:5, 9]):
            got = sample_at_physical(vol, p)
            want = reference_sample_at_physical(vol, p)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), f"case {case} shape={p.shape}"
        idx = physical_to_voxel(vol, pts)
        inside = ((idx > -0.5) & (idx < np.asarray(vol.shape) - 0.5)).all(axis=-1)
        partial += bool(inside.any() and not inside.all())
    assert partial >= 12, f"only {partial} frames straddle the volume edge"


def test_sample_at_physical_nearest_rounds_half_up_at_the_edges():
    data = np.arange(1, 3 * 4 * 5 + 1, dtype=np.uint8).reshape(3, 4, 5)
    vol = make_vol(data)
    # ties, one-past-the-end and just-negative indices on every axis
    grid = np.stack(np.meshgrid(*[np.arange(-1.5, n + 1.0, 0.5) for n in data.shape],
                                indexing="ij"), axis=-1)
    got = sample_at_physical(vol, grid)
    assert np.array_equal(got, reference_sample_at_physical(vol, grid))
    assert got[4, 4, 4] == data[1, 1, 1]  # index 0.5 rounds up to 1
    assert got[:2].max() == 0 and got[2].max() > 0  # -1.5 and -1.0 are off, -0.5 rounds to 0
    assert got[-3:].max() == 0  # n - 0.5 rounds up to n, one past the end
    empty = make_vol(np.zeros((0, 4, 5), dtype=np.uint8))
    got = sample_at_physical(empty, grid)
    assert np.array_equal(got, reference_sample_at_physical(empty, grid))


def test_sample_slab_matches_sample_at_physical_at_ties():
    rng = np.random.default_rng(31)
    ties = 0
    for case in range(12):
        shape = tuple(int(n) for n in rng.integers(3, 12, size=3))
        spacing = rng.choice([0.5, 1.0, 1.5], size=3)
        vol = make_vol((rng.random(shape) * 4).astype(np.uint8), spacing, rng.integers(-20, 20, 3) * 0.5)
        # x on every slab's tie and centre, and just outside either end
        for i0 in np.arange(-1.0, shape[0] + 0.5, 0.5):
            x = vol.origin[0] + i0 * spacing[0]
            if case % 2:  # (y, z) on the half-voxel lattice, hanging off every side
                y, z = (vol.origin[k] + rng.integers(-4, 2 * shape[k] + 4, 300) * 0.5 * spacing[k] for k in (1, 2))
            else:
                y, z = (vol.origin[k] + rng.uniform(-2, shape[k] + 1, (30, 10)) * spacing[k] for k in (1, 2))
            got = sample_slab(vol, x, y, z)
            pts = np.stack(np.broadcast_arrays(x, y, z), axis=-1)
            assert got.dtype == np.uint8 and got.shape == y.shape
            assert np.array_equal(got, sample_at_physical(vol, pts))
            ties += int(np.count_nonzero(np.mod((y - vol.origin[1]) / spacing[1], 1.0) == 0.5))
    assert ties > 100
    empty = make_vol(np.zeros((3, 0, 4), dtype=np.uint8))
    assert sample_slab(empty, 1.0, np.zeros(5), np.zeros(5)).tolist() == [0] * 5
    with pytest.raises(ValueError, match="identity"):
        sample_slab(make_vol(np.zeros((2, 2, 2), dtype=np.uint8), axes=random_orthonormal(rng)), 0.0, [0.0], [0.0])


def _gather_axes(rng, n):
    """Index runs along an axis of length ``n``: exact ties at -0.5 and
    n - 0.5 first, then random ascending and descending runs, runs wholly
    outside on either side, and an empty run."""
    yield np.array([-0.5, -0.5 - 1e-9, n - 0.5, n - 0.5 - 1e-9, 0.5, n - 1.5])
    for _ in range(3):
        yield rng.uniform(-3.0, n + 2.0) + np.arange(rng.integers(1, 12)) * rng.uniform(0.1, 2.5)
        yield rng.uniform(-3.0, n + 2.0) - np.arange(rng.integers(1, 12)) * rng.uniform(0.1, 2.5)
    yield np.array([-7.25, -3.0, -0.75])
    yield np.array([n + 0.5, n - 0.5, n + 4.0])
    yield np.empty(0)


def _loose_pairs(rng, n0, n1, k):
    """``k`` random (axis 0, axis 1) index pairs off any lattice: both inside,
    only the first outside, only the second outside, in shuffled order."""

    def inside(n):
        return rng.uniform(-0.5, n - 0.5, k)

    def outside(n):
        below = rng.uniform(-4.0, -0.5, k)  # rounds to -1 or less
        return np.where(rng.random(k) < 0.5, below, n - 1.0 - below)  # rounds to n or more

    pairs = np.concatenate([
        np.column_stack((inside(n0), inside(n1))),
        np.column_stack((outside(n0), inside(n1))),
        np.column_stack((inside(n0), outside(n1))),
    ])
    return rng.permutation(pairs).T


@pytest.mark.parametrize("dtype", [np.uint8, np.float32])
@pytest.mark.parametrize("shape", [(7, 9, 5), (1, 4, 6), (3, 0, 4)])
def test_gather_nearest_matches_reference_sampler(dtype, shape):
    # unit spacing, zero origin and identity axes make a physical point its
    # own voxel index, so the reference sees exactly the gather's indices
    rng = np.random.default_rng(sum(shape) + len(np.dtype(dtype).name))
    vol = make_vol((rng.random(shape) * 5).astype(dtype))
    runs = [list(_gather_axes(rng, n)) for n in shape]
    # the ties on every axis at once, then random picks of one run per axis,
    # each read as the lattice of its axis 0 and axis 1 runs and as loose pairs
    picks = [(0, 0, 0)] + [tuple(rng.integers(len(r)) for r in runs) for _ in range(80)]
    for pick in picks:
        i0, i1, i2 = (r[k] for r, k in zip(runs, pick))
        lattice = (np.repeat(i0, len(i1)), np.tile(i1, len(i0)))
        for p0, p1 in (lattice, _loose_pairs(rng, *shape[:2], int(rng.integers(1, 6)))):
            got = gather_nearest(vol, p0, p1, i2)
            pts = np.stack(np.broadcast_arrays(p0[:, None], p1[:, None], i2[None, :]), axis=-1)
            want = reference_sample_at_physical(vol, pts)
            assert got.dtype == vol.data.dtype and got.shape == (len(p0), len(i2))
            assert np.array_equal(got, want), f"runs {pick}: {p0}, {p1}, {i2}"
            assert got.base is None  # fresh: a caller may freeze it in place
