"""The autonomous follow-up scan pipeline.

Four stages, each a pure function over the scene and probe model:

1. ``hv_search``: step waypoints around the contact point until the
   junction-local segmentation shows a large-enough component, then center
   it laterally with bang-bang feedback.
2. ``hv_acquire``: sweep the probe along the inferior-superior axis and
   stack per-slice segmentations into a binary 3D volume in robot-base
   (physical) coordinates.
3. ``harmonize`` / ``coordinate_map``: crop that volume and the CT-frame
   annotation onto a common grid and align their centroids, then refine
   with rigid registration and return the CT-to-physical transform.
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
    precision,
    prepare_truth,
    recall,
    require_binary,
    resample_crop,
    sample_slab,
    translation,
)
from .phantom import PhantomScene
from .probe import (
    NoiseModel,
    OffSkinError,
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

    ``registration`` is described in ``coordinate_map``.
    """

    ct_to_physical: RigidTransform3
    registration: dict


@dataclass(frozen=True)
class SliceMatchResult:
    """One target's slice match, waypoints in increasing x.

    ``scores[i]`` bounds the ``omia`` of the frame at ``waypoint_xs[i]``
    from above, and is exact where it could win or tie: a captured frame
    holds its exact ``omia`` or a bound strictly below the best score
    reached before it; a frame never captured, because an earlier one in
    ``_center_out`` order overlapped the whole template, holds the
    template's pixel count. ``scores.max()`` is always exact and, first in
    ``_center_out`` order, gives ``corrected``.
    """

    corrected: np.ndarray
    mapped: np.ndarray
    waypoint_xs: np.ndarray
    scores: np.ndarray


def _center_out(n: int) -> list[int]:
    """Visiting order of an odd-length row of n waypoints, center-out.

    The middle first, then by distance from it; the smaller x of an
    equidistant pair first. The vein search and slice matching share it.
    """
    return sorted(range(n), key=lambda k: (abs(2 * k - (n - 1)), k))


def _look(scene: PhantomScene, noise: NoiseModel | None, x: float, y: float):
    """Move to (x, y) and segment the junction.

    Returns the position, the largest component's area and its column
    centroid's offset from the image centre (NaN when there is none).
    """
    pos = move_to(scene, x, y)
    comp = largest_connected_component(segment_branch(capture_us(scene, pos), noise))
    area = float(comp.sum())
    if area == 0:
        return pos, 0.0, math.nan
    return pos, area, float(np.argwhere(comp)[:, 0].mean()) - ProbeParams.image_shape[0] / 2.0


def hv_search(scene: PhantomScene, noise: NoiseModel | None, p0: np.ndarray) -> SearchResult:
    """Find and laterally center the vein junction near the contact point.

    Steps along x through the waypoints around ``p0`` in ``_center_out``
    order, so the nearest detection wins; detection fires when the
    largest connected component of the junction-local segmentation reaches
    the area threshold. Bang-bang feedback then steps the probe laterally
    until the component's column centroid sits within tolerance of the
    image center. Exhausting the waypoints returns a failure value with the
    best area seen; so does centring that loses the vessel or does not
    settle, and a move off the skin (``OffSkinError``), each with the last
    frame's area and offset (NaN once the vessel is lost, or before any frame).
    """
    p0 = np.asarray(p0, dtype=np.float64)
    steps = int(math.floor(SEARCH_EXTENT_MM / 2.0 / SEARCH_SPACING_MM))
    ticks = [k * SEARCH_SPACING_MM for k in range(-steps, steps + 1)]
    visited, best_area, settled = 0, 0.0, False
    area, offset = 0.0, math.nan
    try:
        for k in _center_out(len(ticks)):
            pos, area, offset = _look(scene, noise, p0[0] + ticks[k], p0[1])
            visited += 1
            best_area = max(best_area, area)
            if area >= SEARCH_DETECT_AREA_PX:
                break
        else:  # waypoints exhausted
            area, offset = best_area, math.nan
        # detected: bang-bang steps center the component laterally
        for _ in range(SEARCH_MAX_CENTER_ITERATIONS if area >= SEARCH_DETECT_AREA_PX else 0):
            settled = abs(offset) <= SEARCH_CENTER_TOL_PX
            if settled:
                break
            step = math.copysign(SEARCH_STEP_MM, offset)
            pos, area, offset = _look(scene, noise, pos[0], pos[1] + step)
            if area == 0.0:
                break
    except OffSkinError:
        pass  # the search fails where the probe left the skin
    return SearchResult(
        success=settled,
        position=pos if settled else None,
        waypoints_visited=visited,
        final_area=area,
        final_center_offset_px=abs(offset),
    )


def hv_acquire(scene: PhantomScene, noise: NoiseModel | None, branch_pos: np.ndarray) -> Volume3:
    """Sweep ``ACQ_SLICES`` equally spaced axial slices spanning ``ACQ_LENGTH_MM``.

    The sweep is centered on the junction position along the
    inferior-superior axis; slice i is the full-vein segmentation of the
    frame at waypoint i. The returned stack lives in physical coordinates:
    spacing (pitch, lateral, depth) with pitch = length/(slices-1), axis
    directions (+x, +y, -z), and origin at the first waypoint shifted half
    the image width to the -y side. The probe tracks the skin per waypoint;
    the volume grid uses the first waypoint's height for every slice. That
    is exact only at yaw 0, where the skin is flat along x: under yaw it
    slopes along the sweep (up to 0.67 mm over 60 mm at 6 deg, 15 mm off
    the footprint centre).
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


def coordinate_map(hu: Volume3, hc: Volume3, init: RigidTransform3) -> CoordinateMap:
    """Estimate the rigid CT-frame -> physical-frame transform.

    Takes ``harmonize``'s output: the acquired and the CT masks on the
    common grid, and the centroid init. Rigid registration on
    ``register_rigid``'s fixed schedule, seed 0, refines that init. The
    registration record is ``{"before", "after", "score", "converged"}``:
    precision/recall/dice between the acquired volume and the CT
    annotation moved by the init and by the result, the solver's final
    score, and whether the result's Dice is at least the init's.
    """
    transform, score = register_rigid(hu, hc, init=init)

    before = _overlap_metrics(apply_transform(hc, init, hu).data, hu.data)
    after = _overlap_metrics(apply_transform(hc, transform, hu).data, hu.data)
    # Dice is a ratio of voxel counts, so equal overlaps give equal bits
    registration = {
        "before": before,
        "after": after,
        "score": score,
        "converged": bool(after["dice"] >= before["dice"]),
    }
    return CoordinateMap(transform, registration)


def _overlap_metrics(pred: np.ndarray, truth: np.ndarray) -> dict:
    return {
        "precision": precision(pred, truth),
        "recall": recall(pred, truth),
        "dice": dice(pred, truth),
    }


def _target_template(
    scene: PhantomScene,
    target_ct: np.ndarray,
    mapped: np.ndarray,
    ct_to_physical: RigidTransform3,
    branch_pos: np.ndarray,
    ct_veins: Volume3,
) -> np.ndarray:
    """The target's axial CT slice, sampled at probe pixel pitch.

    Sampling happens on the pixel lattice of the frame at the physical
    estimate ``mapped``, moved into CT space (x clamped to the target's
    slice plane). This keeps the template phase-aligned with the captured
    masks: at the true slice the two agree pixel for pixel, so the overlap
    score peaks exactly there instead of leaking to any thicker
    cross-section nearby that merely contains the template's shape.

    Every point's x is the target's, so only the y and z rows of the
    inverse map are computed, by the same product as
    ``inverse(ct_to_physical).apply`` less its x row, and the points are
    read from one CT slab (``sample_slab``).
    """
    pts = capture_grid(move_to(scene, mapped[0], branch_pos[1]))
    to_ct = inverse(ct_to_physical)
    # a C-ordered right operand takes BLAS's faster path; the bits are the same
    yz = pts.reshape(-1, 3) @ to_ct.rotation[1:].T.copy()
    y, z = (yz[:, k] + to_ct.translation[1 + k] for k in (0, 1))
    return sample_slab(ct_veins, target_ct[0], y, z).reshape(pts.shape[:2]).astype(np.uint8)


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
    slice prepared once per target). Waypoints are visited in
    ``_center_out`` order; the first best score in it wins.

    Each frame is scored with the best score already reached as ``omia``'s
    floor: a frame below it cannot win or tie, and keeps the bound ``omia``
    returns. Capture stops once a frame overlaps the whole template (an
    empty template captures none): no later frame can score more, so the
    first best in ``_center_out`` order is already found. The winner is the
    one exhaustive scoring picks.
    """
    target_ct = np.asarray(target_ct, dtype=np.float64)
    branch_pos = np.asarray(branch_pos, dtype=np.float64)
    mapped = ct_to_physical.apply(target_ct)

    span, n_wp = MATCH_SPAN_MM, MATCH_WAYPOINTS
    # an odd count of intervals: no lattice point falls on the estimate
    lattice = [mapped[0] - span / 2.0 + i * span / n_wp for i in range(n_wp + 1)]
    mid = len(lattice) // 2
    xs = np.array(lattice[:mid] + [mapped[0]] + lattice[mid:])

    template = prepare_truth(
        _target_template(scene, target_ct, mapped, ct_to_physical, branch_pos, ct_veins)
    )
    # uncaptured frames keep the template's count, a bound on their score
    scores = np.full(len(xs), float(template.count))
    reached = 0
    order = _center_out(len(xs))
    for i in order:
        if reached == template.count:
            break
        pos = move_to(scene, float(xs[i]), branch_pos[1])
        scores[i] = omia(segment_full(capture_us(scene, pos), noise), template, reached)
        reached = max(reached, int(scores[i]))

    best = max(order, key=scores.__getitem__)
    corrected = np.array([xs[best], mapped[1], mapped[2]])
    return SliceMatchResult(corrected=corrected, mapped=mapped, waypoint_xs=xs, scores=scores)


def target_imaging(scene: PhantomScene, target_phys: np.ndarray, eps_mm: float) -> np.ndarray:
    """Positions of the waypoints sweeping from target.x - eps to one pitch short of target.x + eps.

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

    2*eps/n <= ``JUDGE_TOL_X_MM`` (tol) leaves no gap between the frames'
    windows: a sweep images a target iff its x lies in [est.x - eps - tol,
    est.x + eps - 2*eps/n + tol], which grows with eps, so per-target success
    is monotone in the scan range; a sweep has at least ``MIN_FRAMES`` frames.
    """
    return max(MIN_FRAMES, int(math.ceil(2.0 * eps_mm / JUDGE_TOL_X_MM)))
