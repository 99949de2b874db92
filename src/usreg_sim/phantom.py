"""Virtual abdominal phantom: elliptic body, hepatic-vein tree, targets.

The phantom is generated in its own intrinsic frame (identity axes, origin
at zero), which doubles as the CT frame of the preoperative scan. Placing
the phantom on the virtual table applies a yaw-about-z plus translation.
A scene stores that placement once: its skin height and the placed
volumes follow from it. A saved scene directory is an export for other
tools; the package writes it and never reads it back. The placement is
ground truth for evaluation; the pipeline reads it only through the skin
height its probe rides on. The CT side is fixed: the vein tree and the
follow-up target lattice are constants in CT coordinates, built once per
process, and ``save_scene`` places the tree only to write it. The body is
the analytic ``PhantomParams`` ellipse alone; ``save_scene`` rasterises it
only to write ``body.vol``.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .imgvol import (
    RigidTransform3,
    Volume3,
    compose,
    inverse,
    rotation_z,
    save_volume,
    translation,
    voxel_to_physical,
)
from .imgvol.transform import _freeze
from .imgvol.volume import _moved as _moved_volume


class PhantomParams:
    """Geometry of the one phantom (mm units); callers read the class attributes.

    The phantom is masks only, and the tree lies inside the body and below
    its skin.
    """

    volume_shape = (64, 96, 64)
    spacing_mm = 2.0
    # elliptic body cross-section in the (y, z) plane, extruded along x
    body_center_y = 95.0
    body_center_z = 55.0
    body_semi_y = 80.0
    body_semi_z = 45.0
    # vein tree: a trunk running superior from the first branching point,
    # the middle vein running inferior, and two curved lateral branches
    branch_point = (64.0, 95.0, 60.0)
    trunk_length = 34.0
    mhv_length = 38.0
    lhv_angle_deg = 48.0
    rhv_angle_deg = 46.0
    lhv_curve_length = 40.0
    rhv_curve_length = 42.0
    radius_trunk = 5.0
    radius_mhv = 4.5
    radius_lhv = 3.5
    radius_rhv = 4.0
    # arc-length window of the trunk/middle-vein oracle used by branch-aware
    # segmentation, measured along the centerline from the branching point
    branch_window_mm = 25.0
    # follow-up target lattice, centered on the branching point
    target_span_x = 60.0
    target_span_y = 12.0
    target_depth_offset = -2.0
    targets_along = 50
    targets_across = 2


@dataclass(frozen=True)
class VesselBranch:
    label: str
    radius: float
    points: np.ndarray  # (n, 3) polyline, mm

    def __post_init__(self):
        object.__setattr__(self, "points", _freeze(self.points, np.float64))


@dataclass(frozen=True)
class PhantomScene:
    """A generated phantom: placed vein annotations and ground truth.

    The body is the ``PhantomParams`` ellipse, which ``surface_height`` and
    ``footprint_center`` read; the annotations' one grid spans it. ``seed``
    is only a record: the geometry does not depend on it. ``placement``
    maps intrinsic phantom coordinates to scene coordinates; it is a yaw
    about z plus a translation, so the skin stays a heightfield once placed.
    The vein tree and the targets are not held: they are the CT-frame
    constants ``vein_branches()`` and ``target_grid()``.
    """

    hv_annotation: Volume3
    hv_branch_annotation: Volume3
    placement: RigidTransform3
    seed: int

    @functools.cached_property
    def _to_intrinsic(self) -> RigidTransform3:
        # inverted once per scene; held in the instance dict, not a field
        return inverse(self.placement)

    def surface_height(self, x: float, y: float) -> float:
        """Skin height above (x, y) of the placed elliptic body; NaN off the body."""
        q = self._to_intrinsic.apply([float(x), float(y), 0.0])
        rel = (q[1] - PhantomParams.body_center_y) / PhantomParams.body_semi_y
        if abs(rel) >= 1.0:
            return math.nan
        z_intrinsic = (PhantomParams.body_center_z
                       + PhantomParams.body_semi_z * math.sqrt(1.0 - rel * rel))
        return z_intrinsic + float(self.placement.translation[2])

    def footprint_center(self) -> np.ndarray:
        """Placed centroid of the body's top-down voxel footprint, at intrinsic z 0.

        The extruded ellipse covers every x of the annotation grid and is
        symmetric in y, so the centroid is the grid's middle x at ``body_center_y``.
        """
        vol = self.hv_annotation
        middle = [(vol.shape[0] - 1) / 2.0, PhantomParams.body_center_y / vol.spacing[1], 0.0]
        return voxel_to_physical(vol, middle)


def _sample_curve(fn, length_hint: float) -> np.ndarray:
    n = max(8, int(math.ceil(length_hint / 1.5)) + 1)
    t = np.linspace(0.0, 1.0, n)
    return np.stack([fn(v) for v in t])


@functools.cache
def vein_branches() -> tuple[VesselBranch, ...]:
    """The vein tree's branches in CT (intrinsic) coordinates, built once per process."""
    params = PhantomParams
    bp = np.asarray(params.branch_point, dtype=np.float64)

    trunk = _sample_curve(lambda t: bp + t * np.array([params.trunk_length, 2.0, 4.0]), params.trunk_length)
    mhv = _sample_curve(lambda t: bp + t * np.array([-params.mhv_length, -3.0, -5.0]), params.mhv_length)

    # left vein: swoops laterally off the junction, then runs inferior
    a_l = math.radians(params.lhv_angle_deg)
    along = params.lhv_curve_length * math.cos(a_l)
    reach = params.lhv_curve_length * math.sin(a_l)

    def lhv_fn(t):
        return bp + np.array([-along * t * t, reach * t * (1.0 - 0.30 * t), -8.0 * t])

    lhv = _sample_curve(lhv_fn, params.lhv_curve_length)

    # right vein: arches superiorly over the junction before sweeping
    # inferior on the far side, so axial slices right at the junction cut
    # it twice and show the classic two-lobe pattern
    a_r = math.radians(params.rhv_angle_deg)
    lr = params.rhv_curve_length
    ctrl = bp + np.array([0.55 * lr, -0.64 * lr, -2.0])
    tip = bp + np.array([-lr * math.cos(a_r), -lr * math.sin(a_r), -8.0])

    def rhv_fn(t):
        u = 1.0 - t
        return u * u * bp + 2.0 * t * u * ctrl + t * t * tip

    rhv = _sample_curve(rhv_fn, 1.5 * lr)

    return (
        VesselBranch("trunk", params.radius_trunk, trunk),
        VesselBranch("mhv", params.radius_mhv, mhv),
        VesselBranch("lhv", params.radius_lhv, lhv),
        VesselBranch("rhv", params.radius_rhv, rhv),
    )


def _clip_polyline_to_arc(points: np.ndarray, max_arc: float) -> np.ndarray:
    """Prefix of a polyline up to ``max_arc`` mm of cumulative length."""
    steps = np.linalg.norm(np.diff(points, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(steps)])
    if arc[-1] <= max_arc:
        return points
    last = int(np.searchsorted(arc, max_arc))
    frac = (max_arc - arc[last - 1]) / (arc[last] - arc[last - 1])
    end = points[last - 1] + frac * (points[last] - points[last - 1])
    return np.vstack([points[:last], end])


def _rasterize_tubes(branches, shape, spacing: float) -> np.ndarray:
    """Mark every voxel whose center is within a branch radius of its centerline."""
    out = np.zeros(shape, dtype=np.uint8)
    shape = np.asarray(shape)
    for br in branches:
        r = br.radius
        for p, q in zip(br.points[:-1], br.points[1:]):
            lo = np.floor((np.minimum(p, q) - r) / spacing).astype(int)
            hi = np.ceil((np.maximum(p, q) + r) / spacing).astype(int) + 1
            lo = np.clip(lo, 0, shape)
            hi = np.clip(hi, 0, shape)
            if np.any(lo >= hi):
                continue
            ii, jj, kk = np.meshgrid(*[np.arange(lo[a], hi[a]) for a in range(3)], indexing="ij")
            centers = np.stack([ii, jj, kk], axis=-1) * spacing
            d = q - p
            ll = float(d @ d)
            w = centers - p
            if ll > 0:
                tt = np.clip((w @ d) / ll, 0.0, 1.0)
                closest = p + tt[..., None] * d
            else:
                closest = np.broadcast_to(p, centers.shape)
            dist2 = np.sum((centers - closest) ** 2, axis=-1)
            sub = out[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]]
            sub[dist2 <= r * r] = 1
    return out


def generate_phantom(seed: int) -> PhantomScene:
    """The one phantom scene, in its intrinsic frame (placement = identity).

    The geometry is ``PhantomParams`` and does not depend on ``seed``,
    which is only recorded on the scene: it is built once per process and
    shared, read-only, by every scene generated.
    """
    return replace(_phantom_geometry(), seed=seed)


@functools.cache
def _phantom_geometry() -> PhantomScene:
    params = PhantomParams
    shape = params.volume_shape
    sp = params.spacing_mm
    spacing = np.array([sp, sp, sp])
    origin = np.zeros(3)
    axes = np.eye(3)

    branches = vein_branches()
    annotation = _rasterize_tubes(branches, shape, sp)

    oracle_branches = [
        replace(br, points=_clip_polyline_to_arc(br.points, params.branch_window_mm))
        for br in branches if br.label in ("trunk", "mhv")
    ]
    branch_annotation = _rasterize_tubes(oracle_branches, shape, sp)

    # frozen here, so the volumes share these arrays instead of copying them
    for arr in (annotation, branch_annotation, spacing, origin, axes):
        arr.flags.writeable = False
    return PhantomScene(
        hv_annotation=Volume3(annotation, spacing, origin, axes),
        hv_branch_annotation=Volume3(branch_annotation, spacing, origin, axes),
        placement=RigidTransform3.identity(),
        seed=0,
    )


def place_phantom(scene: PhantomScene, offset, yaw_deg: float = 0.0) -> PhantomScene:
    """Move the phantom: yaw about z first, then translate by ``offset`` mm.

    ``offset`` must be 3 finite numbers and ``yaw_deg`` finite with
    magnitude at most 10; anything else is a ValueError.
    """
    offset = np.asarray(offset, dtype=np.float64)
    if offset.shape != (3,) or not np.isfinite(offset).all():
        raise ValueError(f"offset must be 3 finite numbers, got {offset.tolist()}")
    if not abs(yaw_deg) <= 10.0:
        raise ValueError(f"|yaw| must be at most 10 degrees, got {yaw_deg}")
    motion = compose(translation(offset), RigidTransform3(rotation_z(yaw_deg), np.zeros(3)))
    return PhantomScene(
        hv_annotation=_moved_volume(scene.hv_annotation, motion),
        hv_branch_annotation=_moved_volume(scene.hv_branch_annotation, motion),
        placement=compose(motion, scene.placement),
        seed=scene.seed,
    )


def ct_frame_volume(vol: Volume3, placement: RigidTransform3) -> Volume3:
    """Undo a placement: the volume as it sits in the CT (intrinsic) frame."""
    return _moved_volume(vol, inverse(placement))


@functools.cache
def target_grid() -> np.ndarray:
    """Follow-up target lattice in CT (intrinsic) coordinates, shape (n, 3), read-only.

    The lattice is centered on ``PhantomParams.branch_point``, spans the
    ``PhantomParams`` extent along the body axis and laterally, and shares
    one depth. It is built once per process; where a placement puts the
    phantom does not move it.
    """
    p = PhantomParams
    bp = p.branch_point
    xs = np.linspace(bp[0] - p.target_span_x / 2, bp[0] + p.target_span_x / 2, p.targets_along)
    ys = np.linspace(bp[1] - p.target_span_y / 2, bp[1] + p.target_span_y / 2, p.targets_across)
    z = bp[2] + p.target_depth_offset
    return _freeze([[x, y, z] for x in xs for y in ys], np.float64)


# ------------------------------------------------------------- serialization

SCENE_FORMAT_VERSION = 4


def _body_volume(scene: PhantomScene) -> Volume3:
    """The body on the annotation grid: ``uint8`` 1 where a voxel centre is inside the ellipse."""
    p = PhantomParams
    vol = scene.hv_annotation
    yy = np.arange(vol.shape[1]) * p.spacing_mm
    zz = np.arange(vol.shape[2]) * p.spacing_mm
    rel_y = (yy - p.body_center_y) / p.body_semi_y
    rel_z = (zz - p.body_center_z) / p.body_semi_z
    body_yz = (rel_y[:, None] ** 2 + rel_z[None, :] ** 2) <= 1.0
    body = np.broadcast_to(body_yz[None, :, :].astype(np.uint8), vol.shape)
    return Volume3(body, vol.spacing, vol.origin, vol.axes)


def save_scene(scene: PhantomScene, out_dir: str | Path) -> Path:
    """Write body/annotation volumes plus a JSON descriptor; returns the JSON path.

    The directory is an output for other tools: nothing in the package
    reads it back. ``scene.json`` records the seed, the placement, the
    branching point and tree (placed here) and the targets (in CT
    coordinates).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_volume(_body_volume(scene), out / "body.vol")
    save_volume(scene.hv_annotation, out / "hv_annotation.vol")
    save_volume(scene.hv_branch_annotation, out / "hv_branch_annotation.vol")
    desc = {
        "format_version": SCENE_FORMAT_VERSION,
        "seed": scene.seed,
        "placement": {
            "rotation": scene.placement.rotation.tolist(),
            "translation": scene.placement.translation.tolist(),
        },
        "branch_point": scene.placement.apply(PhantomParams.branch_point).tolist(),
        "targets": target_grid().tolist(),
        "tree": [
            {"label": br.label, "radius": br.radius, "points": scene.placement.apply(br.points).tolist()}
            for br in vein_branches()
        ],
        "files": {
            "body": "body.vol",
            "hv_annotation": "hv_annotation.vol",
            "hv_branch_annotation": "hv_branch_annotation.vol",
        },
    }
    path = out / "scene.json"
    path.write_text(json.dumps(desc, indent=1) + "\n")
    return path
