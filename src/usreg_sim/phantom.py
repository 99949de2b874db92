"""Virtual abdominal phantom: body mask, hepatic-vein tree, targets.

The phantom is generated in its own intrinsic frame (identity axes, origin
at zero), which doubles as the CT frame of the preoperative scan. Placing
the phantom on the virtual table applies a yaw-about-z plus translation;
the placement transform is ground truth for evaluation and is never read
by the pipeline itself.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .imgvol import (
    RigidTransform3,
    Volume3,
    compose,
    inverse,
    load_volume,
    physical_to_voxel,
    rotation_z,
    save_volume,
    translation,
)


@dataclass(frozen=True)
class PhantomParams:
    """Geometry of the generated phantom (mm units); it is masks only."""

    volume_shape: tuple[int, int, int] = (64, 96, 64)
    spacing_mm: float = 2.0
    # elliptic body cross-section in the (y, z) plane, extruded along x
    body_center_y: float = 95.0
    body_center_z: float = 55.0
    body_semi_y: float = 80.0
    body_semi_z: float = 45.0
    # vein tree: a trunk running superior from the first branching point,
    # the middle vein running inferior, and two curved lateral branches
    branch_point: tuple[float, float, float] = (64.0, 95.0, 60.0)
    trunk_length: float = 34.0
    mhv_length: float = 38.0
    lhv_angle_deg: float = 48.0
    rhv_angle_deg: float = 46.0
    lhv_curve_length: float = 40.0
    rhv_curve_length: float = 42.0
    radius_trunk: float = 5.0
    radius_mhv: float = 4.5
    radius_lhv: float = 3.5
    radius_rhv: float = 4.0
    # arc-length window of the trunk/middle-vein oracle used by branch-aware
    # segmentation, measured along the centerline from the branching point
    branch_window_mm: float = 25.0
    # follow-up target lattice, centered on the branching point
    target_span_x: float = 60.0
    target_span_y: float = 12.0
    target_depth_offset: float = -2.0
    targets_along: int = 50
    targets_across: int = 2

    def __post_init__(self):
        # JSON gives lists; tuples keep the params hashable, the key of
        # generate_phantom's per-process geometry cache
        for name in ("volume_shape", "branch_point"):
            object.__setattr__(self, name, tuple(getattr(self, name)))


@dataclass(frozen=True)
class VesselBranch:
    label: str
    radius: float
    points: np.ndarray  # (n, 3) polyline, mm

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
            raise ValueError("branch polyline needs at least two 3D points")
        if self.radius <= 0:
            raise ValueError(f"branch {self.label}: radius must be positive")
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        if steps.max() > 2 * self.radius:
            raise ValueError(f"branch {self.label}: polyline step exceeds twice the radius")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class VesselTree:
    branches: tuple[VesselBranch, ...]
    branch_point: np.ndarray

    def __post_init__(self):
        bp = np.ascontiguousarray(self.branch_point, dtype=np.float64)
        for br in self.branches:
            if not np.allclose(br.points[0], bp, atol=1e-9):
                raise ValueError(f"branch {br.label} does not start at the branching point")
        bp.flags.writeable = False
        object.__setattr__(self, "branch_point", bp)

    def branch(self, label: str) -> VesselBranch:
        for br in self.branches:
            if br.label == label:
                return br
        raise KeyError(label)


@dataclass(frozen=True)
class EllipticSurface:
    """Skin heightfield of the extruded elliptic body.

    ``frame`` maps intrinsic phantom coordinates to scene coordinates and
    must keep z vertical (yaw about z plus translation), so the surface
    stays a heightfield after placement. Returns NaN off the body.
    """

    center_y: float
    center_z: float
    semi_y: float
    semi_z: float
    frame: RigidTransform3 = RigidTransform3.identity()

    def __post_init__(self):
        if abs(self.frame.rotation[2, 2] - 1.0) > 1e-9:
            raise ValueError("surface frame must keep the z axis vertical")
        # inverted once; an attribute, not a field, so equality ignores it
        object.__setattr__(self, "_to_intrinsic", inverse(self.frame))

    def __call__(self, x: float, y: float) -> float:
        q = self._to_intrinsic.apply([float(x), float(y), 0.0])
        rel = (q[1] - self.center_y) / self.semi_y
        if abs(rel) >= 1.0:
            return math.nan
        z_intrinsic = self.center_z + self.semi_z * math.sqrt(1.0 - rel * rel)
        return z_intrinsic + float(self.frame.translation[2])


@dataclass(frozen=True)
class PhantomScene:
    """A generated phantom: body mask, vein annotations and ground truth.

    ``body`` is the binary ``uint8`` extruded ellipse. ``seed`` is only a
    record: the geometry does not depend on it.
    """

    body: Volume3
    hv_annotation: Volume3
    hv_branch_annotation: Volume3
    surface_height: EllipticSurface
    placement: RigidTransform3
    tree: VesselTree
    params: PhantomParams
    seed: int


def _sample_curve(fn, length_hint: float) -> np.ndarray:
    n = max(8, int(math.ceil(length_hint / 1.5)) + 1)
    t = np.linspace(0.0, 1.0, n)
    return np.stack([fn(v) for v in t])


def _build_tree(params: PhantomParams) -> VesselTree:
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

    return VesselTree(
        branches=(
            VesselBranch("trunk", params.radius_trunk, trunk),
            VesselBranch("mhv", params.radius_mhv, mhv),
            VesselBranch("lhv", params.radius_lhv, lhv),
            VesselBranch("rhv", params.radius_rhv, rhv),
        ),
        branch_point=bp,
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


def generate_phantom(seed: int, params: PhantomParams | None = None) -> PhantomScene:
    """The phantom scene in its intrinsic frame (placement = identity).

    Bit-for-bit deterministic for given params. The geometry does not
    depend on ``seed``, which is only recorded on the scene: it is built
    once per process for each ``PhantomParams`` and shared, read-only, by
    every scene generated from them. Raises ``ValueError`` for params that
    cannot be built.
    """
    return replace(_phantom_geometry(params or PhantomParams()), seed=seed)


@functools.lru_cache(maxsize=8)
def _phantom_geometry(params: PhantomParams) -> PhantomScene:
    shape = tuple(int(n) for n in params.volume_shape)
    if min(shape) < 16:
        raise ValueError(f"volume_shape too small {shape}; need at least 16 voxels per axis")
    for name in ("radius_trunk", "radius_mhv", "radius_lhv", "radius_rhv"):
        if getattr(params, name) <= 0:
            raise ValueError(f"{name} must be positive")
    if params.spacing_mm <= 0:
        raise ValueError("spacing_mm must be positive")

    sp = params.spacing_mm
    spacing = np.array([sp, sp, sp])
    origin = np.zeros(3)
    axes = np.eye(3)

    tree = _build_tree(params)
    annotation = _rasterize_tubes(tree.branches, shape, sp)

    window = params.branch_window_mm
    oracle_branches = [
        replace(tree.branch("trunk"), points=_clip_polyline_to_arc(tree.branch("trunk").points, window)),
        replace(tree.branch("mhv"), points=_clip_polyline_to_arc(tree.branch("mhv").points, window)),
    ]
    branch_annotation = _rasterize_tubes(oracle_branches, shape, sp)

    yy = np.arange(shape[1]) * sp
    zz = np.arange(shape[2]) * sp
    rel_y = (yy - params.body_center_y) / params.body_semi_y
    rel_z = (zz - params.body_center_z) / params.body_semi_z
    body_yz = (rel_y[:, None] ** 2 + rel_z[None, :] ** 2) <= 1.0
    body = np.broadcast_to(body_yz[None, :, :].astype(np.uint8), shape)

    surface = EllipticSurface(params.body_center_y, params.body_center_z,
                              params.body_semi_y, params.body_semi_z)

    if not (annotation <= body).all():
        raise ValueError("vessel tree pokes outside the body; shrink it or grow the body")
    vox = np.argwhere(annotation)
    rel = (vox[:, 1] * sp - params.body_center_y) / params.body_semi_y
    tops = params.body_center_z + params.body_semi_z * np.sqrt(np.maximum(0.0, 1.0 - rel**2))
    if not np.all(vox[:, 2] * sp < tops):
        raise ValueError("vessel annotation reaches the skin surface")

    # frozen here, so the volumes share these arrays instead of copying them
    for arr in (annotation, branch_annotation, spacing, origin, axes):
        arr.flags.writeable = False
    return PhantomScene(
        body=Volume3(body, spacing, origin, axes),
        hv_annotation=Volume3(annotation, spacing, origin, axes),
        hv_branch_annotation=Volume3(branch_annotation, spacing, origin, axes),
        surface_height=surface,
        placement=RigidTransform3.identity(),
        tree=tree,
        params=params,
        seed=0,
    )


def place_phantom(scene: PhantomScene, offset, yaw_deg: float = 0.0) -> PhantomScene:
    """Move the phantom: yaw about z first, then translate by ``offset`` mm."""
    if abs(yaw_deg) > 10.0:
        raise ValueError(f"|yaw| must be at most 10 degrees, got {yaw_deg}")
    motion = compose(translation(offset), RigidTransform3(rotation_z(yaw_deg), np.zeros(3)))

    def move_vol(vol: Volume3) -> Volume3:
        return Volume3(vol.data, vol.spacing, motion.apply(vol.origin), vol.axes @ motion.rotation.T)

    moved_branches = tuple(
        replace(br, points=motion.apply(br.points)) for br in scene.tree.branches
    )
    return PhantomScene(
        body=move_vol(scene.body),
        hv_annotation=move_vol(scene.hv_annotation),
        hv_branch_annotation=move_vol(scene.hv_branch_annotation),
        surface_height=replace(scene.surface_height, frame=compose(motion, scene.surface_height.frame)),
        placement=compose(motion, scene.placement),
        tree=VesselTree(moved_branches, motion.apply(scene.tree.branch_point)),
        params=scene.params,
        seed=scene.seed,
    )


def ct_frame_volume(vol: Volume3, placement: RigidTransform3) -> Volume3:
    """Undo a placement: the volume as it sits in the CT (intrinsic) frame."""
    inv = inverse(placement)
    return Volume3(vol.data, vol.spacing, inv.apply(vol.origin), vol.axes @ inv.rotation.T)


def target_grid(scene: PhantomScene) -> np.ndarray:
    """Follow-up target lattice in CT (intrinsic) coordinates, shape (n, 3).

    The lattice is centered on the branching point, spans the configured
    extent along the body axis and laterally, and shares one depth. Raises
    if any target leaves the CT volume or the body interior.
    """
    p = scene.params
    bp_ct = inverse(scene.placement).apply(scene.tree.branch_point)
    xs = np.linspace(bp_ct[0] - p.target_span_x / 2, bp_ct[0] + p.target_span_x / 2, p.targets_along)
    ys = np.linspace(bp_ct[1] - p.target_span_y / 2, bp_ct[1] + p.target_span_y / 2, p.targets_across)
    z = bp_ct[2] + p.target_depth_offset
    targets = np.array([[x, y, z] for x in xs for y in ys])

    shape = np.asarray(scene.body.shape)
    for g in targets:
        phys = scene.placement.apply(g)
        idx = physical_to_voxel(scene.body, phys)
        if np.any(idx < 0) or np.any(idx > shape - 1):
            raise ValueError(f"target {g} falls outside the CT volume")
        top = scene.surface_height(phys[0], phys[1])
        if not (phys[2] < top):
            raise ValueError(f"target {g} is not below the body surface")
    return targets


# ------------------------------------------------------------- serialization

SCENE_FORMAT_VERSION = 2


def save_scene(scene: PhantomScene, out_dir: str | Path) -> Path:
    """Write body/annotation volumes plus a JSON descriptor; returns the JSON path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_volume(scene.body, out / "body.vol")
    save_volume(scene.hv_annotation, out / "hv_annotation.vol")
    save_volume(scene.hv_branch_annotation, out / "hv_branch_annotation.vol")
    desc = {
        "format_version": SCENE_FORMAT_VERSION,
        "seed": scene.seed,
        "params": asdict(scene.params),
        "placement": {
            "rotation": scene.placement.rotation.tolist(),
            "translation": scene.placement.translation.tolist(),
        },
        "branch_point": scene.tree.branch_point.tolist(),
        "targets": target_grid(scene).tolist(),
        "surface": {
            "center_y": scene.surface_height.center_y,
            "center_z": scene.surface_height.center_z,
            "semi_y": scene.surface_height.semi_y,
            "semi_z": scene.surface_height.semi_z,
            "frame": {
                "rotation": scene.surface_height.frame.rotation.tolist(),
                "translation": scene.surface_height.frame.translation.tolist(),
            },
        },
        "tree": [
            {"label": br.label, "radius": br.radius, "points": br.points.tolist()}
            for br in scene.tree.branches
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


def _transform_from(d: dict) -> RigidTransform3:
    return RigidTransform3(np.asarray(d["rotation"]), np.asarray(d["translation"]))


def load_scene(path: str | Path) -> PhantomScene:
    path = Path(path)
    if path.is_dir():
        path = path / "scene.json"
    desc = json.loads(path.read_text())
    if desc.get("format_version") != SCENE_FORMAT_VERSION:
        raise ValueError(f"unsupported scene format {desc.get('format_version')}")
    base = path.parent
    params = PhantomParams(**desc["params"])
    tree = VesselTree(
        branches=tuple(
            VesselBranch(b["label"], b["radius"], np.asarray(b["points"])) for b in desc["tree"]
        ),
        branch_point=np.asarray(desc["branch_point"]),
    )
    surf = desc["surface"]
    surface = EllipticSurface(
        surf["center_y"], surf["center_z"], surf["semi_y"], surf["semi_z"],
        frame=_transform_from(surf["frame"]),
    )
    return PhantomScene(
        body=load_volume(base / desc["files"]["body"]),
        hv_annotation=load_volume(base / desc["files"]["hv_annotation"]),
        hv_branch_annotation=load_volume(base / desc["files"]["hv_branch_annotation"]),
        surface_height=surface,
        placement=_transform_from(desc["placement"]),
        tree=tree,
        params=params,
        seed=desc["seed"],
    )
