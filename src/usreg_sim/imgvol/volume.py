"""The volume container with physical-space coordinate algebra.

A volume is a 3D array plus the geometry needed to place every voxel in
millimeter space: per-axis spacing, the physical position of voxel
(0, 0, 0), and three orthonormal axis direction vectors. Voxel (i, j, k)
sits at ``origin + i*s0*a0 + j*s1*a1 + k*s2*a2``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .transform import ORTHO_TOL, RigidTransform3, _freeze, _ortho_residual


@dataclass(frozen=True)
class Volume3:
    """3D image with physical geometry. Immutable after construction.

    Construction copies an input that is writable or views writable memory
    and shares a read-only one, so writing to the caller's arrays never
    changes the volume; a producer that freezes a fresh array first
    (``arr.flags.writeable = False``) hands it over without a copy.

    data : ndarray, shape (n0, n1, n2)
    spacing : mm per voxel along each array axis, all finite and > 0
    origin : finite mm position of voxel (0, 0, 0)
    axes : 3x3, row i is the unit direction of array axis i; rows orthonormal
    """

    data: np.ndarray
    spacing: np.ndarray
    origin: np.ndarray
    axes: np.ndarray

    def __post_init__(self) -> None:
        if np.ndim(self.data) != 3:
            raise ValueError(f"volume data must be 3D, got ndim={np.ndim(self.data)}")
        data = _freeze(self.data)
        spacing = _freeze(self.spacing, np.float64)
        origin = _freeze(self.origin, np.float64)
        axes = _freeze(self.axes, np.float64)
        if spacing.shape != (3,) or origin.shape != (3,) or axes.shape != (3, 3):
            raise ValueError("spacing and origin must be 3-vectors, axes must be 3x3")
        if not all(np.isfinite(v).all() for v in (spacing, origin, axes)):
            raise ValueError("spacing, origin and axes must be finite")
        if not np.all(spacing > 0):
            raise ValueError(f"spacing must be strictly positive, got {spacing}")
        if not _ortho_residual(axes) <= ORTHO_TOL:
            raise ValueError("axis directions must be mutually orthogonal unit vectors")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "axes", axes)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


def require_binary(arr: np.ndarray, name: str = "mask") -> np.ndarray:
    """Validate a {0,1}-valued array and return it as uint8."""
    arr = np.asarray(arr)
    if arr.dtype != np.uint8:
        if not np.isin(arr, (0, 1)).all():
            raise ValueError(f"{name} must contain only 0 and 1")
        return arr.astype(np.uint8)
    if arr.size and arr.max() > 1:
        raise ValueError(f"{name} must contain only 0 and 1")
    return arr


def voxel_to_physical(vol: Volume3, index) -> np.ndarray:
    """Physical mm position of a voxel index (3,) or batch (..., 3): the one index-to-mm map.

    Indices may be fractional but must lie within the array bounds.
    """
    idx = np.asarray(index)
    if idx.shape[-1] != 3:
        raise ValueError("index must have 3 components")
    shape = np.asarray(vol.shape, dtype=np.float64)
    if np.any(idx < 0) or np.any(idx > shape - 1):
        raise IndexError(f"index out of bounds for volume of shape {vol.shape}")
    # the float copy is a temporary, freed before the product allocates
    return vol.origin + (idx.astype(np.float64) * vol.spacing) @ vol.axes


def physical_to_voxel(vol: Volume3, point) -> np.ndarray:
    """Continuous voxel index of a physical point (3,) or batch (..., 3): the one mm-to-index map."""
    pts = np.asarray(point, dtype=np.float64)
    return ((pts - vol.origin) @ vol.axes.T) / vol.spacing


def centroid(vol: Volume3) -> np.ndarray:
    """Physical mm centroid of the nonzero voxels.

    The mean index comes from the per-axis counts of nonzero voxels, not
    from a list of their indices. The counts are float64 sums of 0/1
    values, so they are exact integers whatever order BLAS adds them in;
    the integer index sums are exact too, and the result carries the same
    bits as ``np.argwhere(vol.data).mean(axis=0)`` would give.
    """
    n0, n1, n2 = vol.shape
    nz = (vol.data != 0).astype(np.float64).reshape(n0 * n1, n2)
    per_row = (nz @ np.ones(n2)).astype(np.int64).reshape(n0, n1)
    counts = (
        per_row.sum(axis=1),
        per_row.sum(axis=0),
        (np.ones(n0 * n1) @ nz).astype(np.int64),
    )
    total = counts[0].sum()
    if total == 0:
        raise ValueError("centroid of an empty mask is undefined")
    mean_idx = np.array([c @ np.arange(c.size) for c in counts]) / total
    return voxel_to_physical(vol, mean_idx)


def largest_connected_component(mask: np.ndarray) -> np.ndarray:
    """Keep only the largest face-connected component of a binary array.

    Connectivity is 4-neighborhood in 2D and 6-neighborhood in 3D. Ties go
    to the component whose first voxel comes earliest in scan order, i.e.
    the smallest lexicographic seed. An empty mask is returned unchanged.

    Each foreground voxel is labelled with its rank in scan order. Along
    every axis the voxels fall into runs of face neighbours; each run takes
    its smallest label, then every label jumps to the label of the voxel it
    names (``lab = lab[lab]``) until none moves, and the passes repeat
    until a pass changes nothing. A label only ever names a voxel of the
    same component with a rank no larger, so at the end every voxel holds
    its component's smallest rank, its first voxel in scan order. The
    largest count wins, and a tie goes to the smallest label.
    """
    mask = require_binary(mask)
    fg = mask.ravel() != 0
    if not fg.any():
        return np.zeros_like(mask)
    rank = np.cumsum(fg) - 1
    index = np.arange(mask.size).reshape(mask.shape)
    runs = []
    for ax, n in enumerate(mask.shape):
        # the foreground's flat indices, line by line along ax
        line = np.moveaxis(index, ax, -1).ravel()
        line = line[fg[line]]
        step = math.prod(mask.shape[ax + 1:])
        # a run breaks where the next voxel is not the face neighbour along ax
        starts = np.flatnonzero(np.r_[True, (np.diff(line) != step) | (line[1:] // step % n == 0)])
        runs.append((rank[line], starts, np.diff(np.r_[starts, line.size])))
    lab = np.arange(rank[-1] + 1)
    while True:
        before = lab.copy()
        for members, starts, lengths in runs:
            lab[members] = np.repeat(np.minimum.reduceat(lab[members], starts), lengths)
        while not np.array_equal(jumped := lab[lab], lab):
            lab = jumped
        if np.array_equal(lab, before):
            break
    out = np.zeros(mask.shape, dtype=np.uint8)
    out.flat[np.flatnonzero(fg)[lab == np.bincount(lab).argmax()]] = 1
    return out


def resample_crop(vol: Volume3, target_spacing, target_shape, center) -> Volume3:
    """Resample a volume onto a new grid with the given spacing and shape.

    The output keeps the source axis directions and is centered on
    ``center`` (mm): the mid-point of the output voxel-center lattice lands
    exactly on ``center``. Voxels sampled outside the source extent are 0.
    Sampling is nearest-neighbour and the output keeps the source dtype.

    Output axes equal source axes, so the index map is separable: along
    axis i, output voxel k reads source index ``offset_i + k * ratio_i``.
    ``gather_nearest`` reads the lattice's (axis 0, axis 1) pairs as rows.
    """
    target_spacing = np.asarray(target_spacing, dtype=np.float64)
    target_shape = tuple(int(n) for n in target_shape)
    if len(target_shape) != 3 or any(n < 1 for n in target_shape):
        raise ValueError(f"target_shape must be three positive ints, got {target_shape}")
    if target_spacing.shape != (3,) or not np.all(target_spacing > 0):
        raise ValueError("target_spacing must be a positive 3-vector")
    center = np.asarray(center, dtype=np.float64)

    half = (np.asarray(target_shape, dtype=np.float64) - 1.0) / 2.0
    out_origin = center - (half * target_spacing) @ vol.axes

    offset = physical_to_voxel(vol, out_origin)
    ratio = target_spacing / vol.spacing
    i0, i1, i2 = (o + np.arange(n, dtype=np.float64) * r for o, n, r in zip(offset, target_shape, ratio))
    n0, n1, _ = target_shape
    out = gather_nearest(vol, np.repeat(i0, n1), np.tile(i1, n0), i2)
    out.flags.writeable = False
    return Volume3(out.reshape(target_shape), target_spacing, out_origin, vol.axes)


def gather_nearest(vol: Volume3, i0, i1, i2) -> np.ndarray:
    """Nearest reads of ``vol`` at rows of paired voxel indices by columns of last-axis ones.

    ``i0`` and ``i1`` are equal-length 1-D arrays of fractional indices
    along array axes 0 and 1, read as pairs, and ``i2`` a 1-D array along
    axis 2. Entry ``[j, c]`` of the fresh ``(len(i0), len(i2))`` result,
    in the volume's dtype, reads the nearest voxel of ``(i0[j], i1[j],
    i2[c])``, as ``sample_at_physical`` does, or 0 where any falls outside.
    """
    (n0, out0), (n1, out1), (n2, out2) = (_nearest(i, s) for i, s in zip((i0, i1, i2), vol.shape))
    s0, s1, s2 = vol.shape
    outside = out0 | out1
    rows = n0 * s1 + n1
    held = rows[~outside]
    if s2 == 0 or held.size == 0:  # every read is outside; take() cannot read an empty run
        return np.zeros((len(n0), len(n2)), dtype=vol.data.dtype)
    # read the columns once per flat row of the span the inside pairs fall in, then rows
    lo = held.min()
    span = vol.data.reshape(s0 * s1, s2)[lo : held.max() + 1].take(n2, axis=1, mode="clip")
    out = span.take(rows - lo, axis=0, mode="clip")
    out[outside] = 0
    out[:, out2] = 0
    return out


def sample_slab(vol: Volume3, x: float, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Nearest samples of an axis-aligned volume at physical points (x, y[i], z[i]).

    ``y`` and ``z`` are equal-shape arrays and every point shares ``x``.
    ``vol``'s axes must be the identity to within rounding (``np.allclose``)
    and are read as exactly the identity: a point's index along axis k is
    ``(c - origin[k]) / spacing[k]``, bit for bit ``sample_at_physical``'s
    when the axes are exact. Axes off it by rounding (a yawed scene's CT
    frame) can move only an index within that rounding of a half-voxel tie.
    Points read as in ``sample_at_physical``; the fresh result keeps the volume's dtype.
    """
    if not np.allclose(vol.axes, np.eye(3)):
        raise ValueError("a slab read needs a volume whose axes are the identity")
    y, z = np.asarray(y, dtype=np.float64), np.asarray(z, dtype=np.float64)
    _, n1, n2 = vol.shape
    (slab, off), (i1, out1), (i2, out2) = (
        _nearest((c - vol.origin[k]) / vol.spacing[k], vol.shape[k]) for k, c in enumerate((x, y, z)))
    if off or n1 * n2 == 0:  # take() cannot read an empty slab
        return np.zeros(y.shape, dtype=vol.data.dtype)
    vals = vol.data[slab].take(i1 * n2 + i2, mode="clip")
    vals[out1 | out2] = 0
    return vals


def sample_at_physical(vol: Volume3, points: np.ndarray) -> np.ndarray:
    """Nearest samples of a volume at physical points (..., 3); outside reads 0.

    Each point reads the voxel nearest its ``physical_to_voxel`` index,
    half-voxel ties rounding up. The output keeps the volume's dtype.
    """
    pts = np.asarray(points, dtype=np.float64)
    if vol.data.size == 0:  # every point is outside; take() cannot read an empty array
        return np.zeros(pts.shape[:-1], dtype=vol.data.dtype)
    near, outside = _nearest(physical_to_voxel(vol, pts.reshape(-1, 3)), vol.shape)
    _, n1, n2 = vol.shape
    vals = vol.data.take((near[:, 0] * n1 + near[:, 1]) * n2 + near[:, 2], mode="clip")
    vals[outside.any(axis=1)] = 0
    return vals.reshape(pts.shape[:-1])


def _nearest(index, size):
    """The nearest voxel ``floor(index + 0.5)`` (ties round up) and whether it is outside ``[0, size)``."""
    near = np.floor(np.asarray(index, dtype=np.float64) + 0.5).astype(np.int64)
    # a negative index wraps to a huge unsigned one, so one compare tests both bounds
    return near, near.view(np.uint64) >= np.asarray(size, dtype=np.uint64)


def _moved(vol: Volume3, motion: RigidTransform3) -> Volume3:
    """``vol`` carried by a rigid ``motion``: same voxels, moved origin and turned axes."""
    return Volume3(vol.data, vol.spacing, motion.apply(vol.origin), vol.axes @ motion.rotation.T)
