"""The autonomous follow-up scan pipeline.

Four stages, each a pure function over the scene and probe model:

1. ``hv_search``: step waypoints around the contact point until the
   junction-local segmentation shows a large-enough component, then center
   it laterally with bang-bang feedback.
2. ``hv_acquire``: sweep the probe along the inferior-superior axis and
   stack per-slice segmentations into a binary 3D volume in robot-base
   (physical) coordinates.
3. ``coordinate_map``: ``harmonize`` that volume with the CT-frame annotation,
   align centroids, refine with rigid registration, and return the
   CT-to-physical transform.
4. ``slice_match`` / ``target_imaging`` / ``judge_success``: map a CT
   target into physical space, correct its inferior-superior coordinate by
   overlap scoring against the target's CT slice, then sweep probe
   positions around the corrected point and judge whether the field of
   view at one of them covers the target. The sweep reads no pixels, so
   ``target_imaging`` returns positions, not frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imgvol import (
    RigidTransform3,
    Volume3,
    centroid,
    dice,
    inverse,
    largest_connected_component,
    omia,
    omia_bound,
    precision,
    prepare_truth,
    recall,
    require_binary,
    resample_crop,
    sample_at_physical,
    translation,
)
from .phantom import PhantomScene
from .probe import (
    NoiseModel,
    ProbeParams,
    capture_grid,
    capture_us,
    move_to,
    segment_branch,
    segment_full,
)
from .registration import apply_transform, register_rigid

# the one scan schedule every trial runs; the judging tolerance is half the
# acquisition's slice pitch, the finest x resolution the acquired volume has
ACQ_SLICES = 16
ACQ_LENGTH_MM = 60.0
JUDGE_TOL_X_MM = ACQ_LENGTH_MM / (ACQ_SLICES - 1) / 2.0
MATCH_SPAN_MM = 20.0
MATCH_WAYPOINTS = 21
MIN_FRAMES = 8
# the common registration grid both vein masks are cropped onto
HARMONIZE_SPACING_MM = (2.0, 2.0, 2.0)
HARMONIZE_SHAPE = (48, 40, 24)

# the one vein search every trial runs. The detection threshold is the
# component area at this image scale: the full-resolution threshold of
# 4000 px scaled by the area ratio 216*100 / (1080*500) = 0.04. Centering
# stops within SEARCH_CENTER_TOL_PX of the image center, stepping
# SEARCH_STEP_MM per bang-bang move; the waypoints cover SEARCH_EXTENT_MM
# along x around the start at SEARCH_SPACING_MM pitch, visited center-out.
SEARCH_DETECT_AREA_PX = 160.0
SEARCH_CENTER_TOL_PX = 4.32
SEARCH_STEP_MM = 1.0
SEARCH_EXTENT_MM = 40.0
SEARCH_SPACING_MM = 5.0
SEARCH_MAX_CENTER_ITERATIONS = 200


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the search stage; failure is a value, not an exception."""

    success: bool
    position: np.ndarray | None
    waypoints_visited: int
    final_area: float
    final_center_offset_px: float


@dataclass(frozen=True)
class CoordinateMap:
    """CT-frame to physical-frame rigid map and the trial's registration record.

    ``registration`` is described in ``coordinate_map``. ``hu``, ``hc`` and
    ``init`` are what ``harmonize`` returned: the acquired and the CT masks
    on the common grid, and the centroid init the solver started from.
    """

    ct_to_physical: RigidTransform3
    registration: dict
    hu: Volume3
    hc: Volume3
    init: RigidTransform3


@dataclass(frozen=True)
class SliceMatchResult:
    """One target's slice match, waypoints in increasing x.

    ``scores[i]`` is the ``omia`` of the frame at ``waypoint_xs[i]`` where
    that frame was scored; where it was skipped, it is the frame's
    ``omia_bound``, an upper bound on its ``omia`` and strictly below
    ``scores.max()``, which is always exact.
    """

    corrected: np.ndarray
    mapped: np.ndarray
    waypoint_xs: np.ndarray
    scores: np.ndarray


def _search_offsets() -> list[tuple[float, float]]:
    steps = int(math.floor(SEARCH_EXTENT_MM / 2.0 / SEARCH_SPACING_MM))
    ticks = [k * SEARCH_SPACING_MM for k in range(-steps, steps + 1)]
    offs = [(t, 0.0) for t in ticks]
    # visit center-out so the nearest detection wins, deterministically
    return sorted(offs, key=lambda o: (o[0] ** 2 + o[1] ** 2, o[0], o[1]))


def _largest_component_stats(mask: np.ndarray) -> tuple[float, float]:
    comp = largest_connected_component(mask)
    area = float(comp.sum())
    if area == 0:
        return 0.0, math.nan
    cols = np.argwhere(comp)[:, 0]
    return area, float(cols.mean())


def hv_search(scene: PhantomScene, noise: NoiseModel | None, p0: np.ndarray) -> SearchResult:
    """Find and laterally center the vein junction near the contact point.

    Steps the waypoint pattern around ``p0``; detection fires when the
    largest connected component of the junction-local segmentation reaches
    the area threshold. Bang-bang feedback then steps the probe laterally
    until the component's column centroid sits within tolerance of the
    image center. Exhausting the waypoints returns a failure value; a
    centralization loop that cannot settle raises a non-convergence error.
    """
    p0 = np.asarray(p0, dtype=np.float64)
    center_px = ProbeParams.image_shape[0] / 2.0

    visited = 0
    best_area = 0.0
    for dx, dy in _search_offsets():
        pos = move_to(scene, p0[0] + dx, p0[1] + dy)
        visited += 1
        mask = segment_branch(capture_us(scene, pos), noise)
        area, col = _largest_component_stats(mask)
        best_area = max(best_area, area)
        if area < SEARCH_DETECT_AREA_PX:
            continue

        # detected: center the component laterally
        offset = col - center_px
        for _ in range(SEARCH_MAX_CENTER_ITERATIONS):
            if abs(offset) <= SEARCH_CENTER_TOL_PX:
                return SearchResult(
                    success=True,
                    position=pos,
                    waypoints_visited=visited,
                    final_area=area,
                    final_center_offset_px=abs(offset),
                )
            step = math.copysign(SEARCH_STEP_MM, offset)
            pos = move_to(scene, pos[0], pos[1] + step)
            mask = segment_branch(capture_us(scene, pos), noise)
            area, col = _largest_component_stats(mask)
            if area == 0.0:
                raise RuntimeError(
                    "centralization lost the vessel: empty segmentation while centering"
                )
            offset = col - center_px
        raise RuntimeError(
            f"centralization did not settle within {SEARCH_MAX_CENTER_ITERATIONS} iterations"
        )

    return SearchResult(
        success=False,
        position=None,
        waypoints_visited=visited,
        final_area=best_area,
        final_center_offset_px=math.nan,
    )


def hv_acquire(scene: PhantomScene, noise: NoiseModel | None, branch_pos: np.ndarray) -> Volume3:
    """Sweep ``ACQ_SLICES`` equally spaced axial slices spanning ``ACQ_LENGTH_MM``.

    The sweep is centered on the junction position along the
    inferior-superior axis; slice i is the full-vein segmentation of the
    frame at waypoint i. The returned stack lives in physical coordinates:
    spacing (pitch, lateral, depth) with pitch = length/(slices-1), axis
    directions (+x, +y, -z), and origin at the first waypoint shifted half
    the image width to the -y side. The probe tracks the skin per waypoint;
    the volume grid uses the first waypoint's height (the skin is flat
    along the sweep direction by construction).
    """
    branch_pos = np.asarray(branch_pos, dtype=np.float64)
    pitch = ACQ_LENGTH_MM / (ACQ_SLICES - 1)
    lx, ly = ProbeParams.image_shape
    vx, vy = ProbeParams.pixel_spacing

    waypoints = np.empty((ACQ_SLICES, 3))
    slices = np.empty((ACQ_SLICES, lx, ly), dtype=np.uint8)
    for i in range(ACQ_SLICES):
        x = branch_pos[0] - ACQ_LENGTH_MM / 2.0 + i * pitch
        waypoints[i] = move_to(scene, x, branch_pos[1])
        slices[i] = segment_full(capture_us(scene, waypoints[i]), noise)

    origin = waypoints[0] - np.array([0.0, lx * vx / 2.0, 0.0])
    axes = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
    slices.flags.writeable = False  # handed to the volume without a copy
    return Volume3(slices, np.array([pitch, vx, vy]), origin, axes)


def harmonize(us_veins: Volume3, ct_veins: Volume3):
    """Put both masks on the common registration grid; returns (hu, hc, init).

    Each binary, nonempty mask is cropped onto the ``HARMONIZE_*`` grid
    centered on its own content centroid; ``init`` is the CT -> US centroid
    translation that registration starts from.
    """
    # a float-typed 0/1 mask (an f32 .vol) continues as uint8
    us_veins, ct_veins = (
        Volume3(require_binary(v.data, name), v.spacing, v.origin, v.axes)
        for v, name in ((us_veins, "acquired volume"), (ct_veins, "CT annotation"))
    )
    if us_veins.data.sum() == 0 or ct_veins.data.sum() == 0:
        raise ValueError("cannot map coordinates from an empty mask")

    hu = resample_crop(us_veins, HARMONIZE_SPACING_MM, HARMONIZE_SHAPE, centroid(us_veins))
    hc = resample_crop(ct_veins, HARMONIZE_SPACING_MM, HARMONIZE_SHAPE, centroid(ct_veins))
    if hu.data.sum() == 0 or hc.data.sum() == 0:
        raise ValueError("harmonization produced an empty mask; widen the crop")
    return hu, hc, translation(centroid(hu) - centroid(hc))


def coordinate_map(us_veins: Volume3, ct_veins: Volume3) -> CoordinateMap:
    """Estimate the rigid CT-frame -> physical-frame transform.

    ``harmonize`` puts both inputs on a common grid and aligns their
    centroids; rigid registration with the default ``RegistrationConfig``
    refines that init. The registration record is ``{"before", "after",
    "score", "converged"}``: precision/recall/dice between the acquired
    volume and the CT annotation moved by the init and by the result, the
    solver's final score, and whether the result's Dice is at least the
    init's.
    """
    hu, hc, init = harmonize(us_veins, ct_veins)
    transform, score = register_rigid(hu, hc, init=init)

    before = _overlap_metrics(apply_transform(hc, init, hu).data, hu.data)
    after = _overlap_metrics(apply_transform(hc, transform, hu).data, hu.data)
    registration = {
        "before": before,
        "after": after,
        "score": score,
        "converged": bool(after["dice"] + 1e-12 >= before["dice"]),
    }
    return CoordinateMap(transform, registration, hu, hc, init)


def _overlap_metrics(pred: np.ndarray, truth: np.ndarray) -> dict:
    return {
        "precision": precision(pred, truth),
        "recall": recall(pred, truth),
        "dice": dice(pred, truth),
    }


def _target_template(
    scene: PhantomScene,
    target_ct: np.ndarray,
    ct_to_physical: RigidTransform3,
    branch_pos: np.ndarray,
    ct_veins: Volume3,
) -> np.ndarray:
    """The target's axial CT slice, sampled at probe pixel pitch.

    Sampling happens on the comparison frames' own pixel lattice mapped
    into CT space (x clamped to the target's slice plane). This keeps the
    template phase-aligned with the captured masks: at the true slice the
    two agree pixel for pixel, so the overlap score peaks exactly there
    instead of leaking to any thicker cross-section nearby that merely
    contains the template's shape.
    """
    if not np.allclose(ct_veins.axes, np.eye(3)):
        raise ValueError("CT annotation must be in its intrinsic frame")
    mapped = ct_to_physical.apply(target_ct)
    pts = capture_grid(move_to(scene, mapped[0], branch_pos[1]))
    pts_ct = inverse(ct_to_physical).apply(pts.reshape(-1, 3)).reshape(pts.shape)
    pts_ct[..., 0] = target_ct[0]
    return sample_at_physical(ct_veins, pts_ct).astype(np.uint8)


def slice_match(
    scene: PhantomScene,
    noise: NoiseModel | None,
    target_ct: np.ndarray,
    ct_to_physical: RigidTransform3,
    branch_pos: np.ndarray,
    ct_veins: Volume3,
) -> SliceMatchResult:
    """Correct the mapped target's inferior-superior coordinate.

    Maps the CT target into physical space, then scans waypoints across
    ``MATCH_SPAN_MM`` around the estimate (the lattice plus the estimate
    itself), scoring each captured segmentation against the target's CT
    slice by maximum overlap under integer translation (``omia``, with the
    slice prepared once per target). The best-scoring waypoint wins; ties
    prefer the smallest deviation from the estimate, then the smaller
    coordinate.

    Waypoints are visited nearest the estimate first. A frame whose
    ``omia_bound`` falls strictly below the best score already reached
    cannot win or tie, so its FFT pair is skipped and the bound is stored
    as its score; every frame that could win or tie is scored exactly, so
    the winner is the one exhaustive scoring picks.
    """
    target_ct = np.asarray(target_ct, dtype=np.float64)
    branch_pos = np.asarray(branch_pos, dtype=np.float64)
    mapped = ct_to_physical.apply(target_ct)

    span, n_wp = MATCH_SPAN_MM, MATCH_WAYPOINTS
    xs = [mapped[0] - span / 2.0 + i * span / n_wp for i in range(n_wp + 1)]
    if not any(abs(x - mapped[0]) < 1e-9 for x in xs):
        xs.append(mapped[0])
    xs = np.array(sorted(xs))

    template = prepare_truth(
        _target_template(scene, target_ct, ct_to_physical, branch_pos, ct_veins)
    )
    scores = np.empty(len(xs))
    reached = 0
    for i in sorted(range(len(xs)), key=lambda i: (abs(xs[i] - mapped[0]), xs[i])):
        pos = move_to(scene, float(xs[i]), branch_pos[1])
        pred = segment_full(capture_us(scene, pos), noise)
        bound = omia_bound(pred, template, reached)
        scores[i] = bound if bound < reached else omia(pred, template)
        reached = max(reached, int(scores[i]))

    best = 0
    for i in range(1, len(xs)):
        better = scores[i] > scores[best]
        if not better and scores[i] == scores[best]:
            d_i = abs(xs[i] - mapped[0])
            d_b = abs(xs[best] - mapped[0])
            better = d_i < d_b - 1e-12 or (abs(d_i - d_b) <= 1e-12 and xs[i] < xs[best])
        if better:
            best = i

    corrected = np.array([xs[best], mapped[1], mapped[2]])
    return SliceMatchResult(corrected=corrected, mapped=mapped, waypoint_xs=xs, scores=scores)


def target_imaging(scene: PhantomScene, target_phys: np.ndarray, eps_mm: float) -> np.ndarray:
    """Positions of the waypoints sweeping target.x - eps .. target.x + eps.

    There are n = ``frames_for_eps(eps)`` of them, and waypoint i sits at
    x = target.x - eps + 2*eps*i/n; the probe rides the skin, so frame
    depth starts at the surface, not at the target depth. Returns the
    ``(n, 3)`` probe positions: whether a frame images the target follows
    from its position and field of view alone (``judge_success``), so no
    frame is built.
    """
    if eps_mm < 0:
        raise ValueError("eps_mm must be nonnegative")
    n_frames = frames_for_eps(eps_mm)
    target_phys = np.asarray(target_phys, dtype=np.float64)
    xs = (target_phys[0] - eps_mm + 2.0 * eps_mm * i / n_frames for i in range(n_frames))
    return np.array([move_to(scene, float(x), target_phys[1]) for x in xs])


def judge_success(positions, true_target_physical) -> bool:
    """Did a frame captured at one of ``positions`` image the true target?

    True iff a position's slice coordinate is within ``JUDGE_TOL_X_MM`` of
    the target's and the target's lateral/depth position falls inside the
    field of view of a frame captured there; every bound is inclusive.
    Replaces the original protocol's human visual judgement.
    """
    t = np.asarray(true_target_physical, dtype=np.float64)
    for pos in positions:
        if abs(pos[0] - t[0]) > JUDGE_TOL_X_MM:
            continue
        if abs(t[1] - pos[1]) > ProbeParams.fov_width / 2.0:
            continue
        depth = pos[2] - t[2]
        if 0.0 <= depth <= ProbeParams.fov_depth:
            return True
    return False


def frames_for_eps(eps_mm: float) -> int:
    """Frame count keeping the sweep pitch at or below the judging tolerance.

    2*eps/n <= ``JUDGE_TOL_X_MM`` guarantees gap-free coverage, which makes
    per-target success monotone in the scan range (covered intervals nest
    as eps grows) rather than statistically likely; a sweep has at least
    ``MIN_FRAMES`` frames.
    """
    return max(MIN_FRAMES, int(math.ceil(2.0 * eps_mm / JUDGE_TOL_X_MM)))
