"""Independent brute-force reference implementations used across tests.

Everything here is deliberately written the slow, obvious way and never
calls into the package beyond plain numpy (and scipy's trilinear and
nearest samplers and correlation) and the ``imgvol`` containers and
transform algebra, so that package results can be checked against a
second route. There are two exceptions. ``reference_register_rigid``
drives the package's own sparse scorer through the per-map solver below:
it checks the solver's bookkeeping, not the scorer's arithmetic.
``reference_initial_contact`` reads the skin height through the scene:
it checks where the contact lands in (x, y), not the height.
"""
import math
from fractions import Fraction

import numpy as np
from scipy import ndimage, signal

from usreg_sim import registration as reg
from usreg_sim.imgvol import RigidTransform3, Volume3, centroid, euler_zyx, inverse
from usreg_sim.phantom import PhantomParams
from usreg_sim.probe import ProbeParams


def brute_force_lcc(mask):
    """Flood-fill largest component: face connectivity, ties to earliest seed."""
    mask = np.asarray(mask)
    visited = np.zeros(mask.shape, dtype=bool)
    offsets = []
    for ax in range(mask.ndim):
        for d in (-1, 1):
            off = [0] * mask.ndim
            off[ax] = d
            offsets.append(tuple(off))
    best = None
    for seed in np.ndindex(*mask.shape):
        if not mask[seed] or visited[seed]:
            continue
        comp = [seed]
        visited[seed] = True
        queue = [seed]
        while queue:
            cur = queue.pop()
            for off in offsets:
                nxt = tuple(c + o for c, o in zip(cur, off))
                if any(n < 0 or n >= s for n, s in zip(nxt, mask.shape)):
                    continue
                if mask[nxt] and not visited[nxt]:
                    visited[nxt] = True
                    comp.append(nxt)
                    queue.append(nxt)
        if best is None or len(comp) > len(best):
            best = comp  # strict > keeps the earliest seed on ties
    out = np.zeros(mask.shape, dtype=np.uint8)
    if best:
        for v in best:
            out[v] = 1
    return out


def reference_initial_contact(scene):
    """Contact at the centroid of the voxel body's top-down footprint.

    The body is rasterised on the annotation grid (1 where a voxel centre
    is inside the ``PhantomParams`` ellipse, on every x slab); the centroid
    of its columns that hold any body voxel is placed like a grid point,
    and the skin height is read above it.
    """
    p = PhantomParams
    vol = scene.hv_annotation
    _, yy, zz = np.indices(vol.shape) * p.spacing_mm
    body = ((yy - p.body_center_y) / p.body_semi_y) ** 2 + ((zz - p.body_center_z) / p.body_semi_z) ** 2 <= 1.0
    center_idx = np.argwhere(body.any(axis=2)).mean(axis=0)
    anchor = vol.origin + (np.array([center_idx[0], center_idx[1], 0.0]) * vol.spacing) @ vol.axes
    return np.array([anchor[0], anchor[1], scene.surface_height(anchor[0], anchor[1])])


def count_components(mask):
    """Number of face-connected components, by repeated flood fill."""
    mask = np.asarray(mask).copy()
    n = 0
    while mask.any():
        n += 1
        seed = tuple(np.argwhere(mask)[0])
        stack = [seed]
        mask[seed] = 0
        while stack:
            cur = stack.pop()
            for ax in range(mask.ndim):
                for d in (-1, 1):
                    nxt = list(cur)
                    nxt[ax] += d
                    nxt = tuple(nxt)
                    if all(0 <= c < s for c, s in zip(nxt, mask.shape)) and mask[nxt]:
                        mask[nxt] = 0
                        stack.append(nxt)
    return n


def brute_force_omia(pred, truth):
    """Exhaustive translation scan on the zero-padded prediction."""
    truth = np.asarray(truth, dtype=np.uint8)
    padded = np.zeros_like(truth)
    ph, pw = np.asarray(pred).shape
    padded[:ph, :pw] = pred
    th, tw = truth.shape
    best = 0
    for dx in range(-th, th + 1):
        for dy in range(-tw, tw + 1):
            shifted = np.zeros_like(padded)
            src_x = slice(max(0, -dx), min(th, th - dx))
            dst_x = slice(max(0, dx), min(th, th + dx))
            src_y = slice(max(0, -dy), min(tw, tw - dy))
            dst_y = slice(max(0, dy), min(tw, tw + dy))
            shifted[dst_x, dst_y] = padded[src_x, src_y]
            best = max(best, int(np.count_nonzero(shifted & truth)))
    return best


def reference_omia(pred, truth):
    """``omia`` as first written: ``scipy.signal.correlate`` of the two content boxes.

    Unlike ``brute_force_omia`` it is fast enough for full 216x100 frames.
    """
    boxes = []
    for mask in (truth, pred):
        nz = np.nonzero(mask)
        if nz[0].size == 0:
            return 0
        box = np.asarray(mask)[nz[0].min():nz[0].max() + 1, nz[1].min():nz[1].max() + 1]
        boxes.append(box.astype(np.float64))
    return int(np.rint(signal.correlate(boxes[0], boxes[1], mode="full").max()))


def brute_ratio_metrics(pred, truth):
    """Cell-by-cell counting with rational arithmetic."""
    inter = n_pred = n_truth = 0
    for a, b in zip(np.asarray(pred).ravel(), np.asarray(truth).ravel()):
        inter += int(a == 1 and b == 1)
        n_pred += int(a == 1)
        n_truth += int(b == 1)
    prec = Fraction(inter, n_pred) if n_pred else (Fraction(1) if n_truth == 0 else Fraction(0))
    rec = Fraction(inter, n_truth) if n_truth else (Fraction(1) if n_pred == 0 else Fraction(0))
    den = n_pred + n_truth
    dsc = Fraction(2 * inter, den) if den else Fraction(1)
    return prec, rec, dsc


def point_to_polyline_distance(point, polyline):
    """Exact distance from a point to a piecewise-linear centerline."""
    p = np.asarray(point, dtype=float)
    best = np.inf
    pts = np.asarray(polyline, dtype=float)
    for a, b in zip(pts[:-1], pts[1:]):
        d = b - a
        ll = float(d @ d)
        t = np.clip(((p - a) @ d) / ll, 0.0, 1.0) if ll > 0 else 0.0
        best = min(best, float(np.linalg.norm(p - (a + t * d))))
    return best


def dense_joint_counts(fixed_vals, moving, points):
    """2x2 joint histogram of fixed values vs moving mask samples at ``points``.

    The moving mask is sampled with trilinear weights and the fractional
    value is split between the two bins (partial-volume weighting), so the
    histogram varies smoothly under sub-voxel motion instead of jumping at
    nearest-neighbor cell borders. Points outside the moving extent are
    dropped (overlap-only statistics). Returns counts [[n00, n01], [n10, n11]].
    """
    idx = ((points - moving.origin) @ moving.axes.T) / moving.spacing
    shape = moving.data.shape
    inside = (
        (idx[:, 0] >= -0.5) & (idx[:, 0] < shape[0] - 0.5)
        & (idx[:, 1] >= -0.5) & (idx[:, 1] < shape[1] - 0.5)
        & (idx[:, 2] >= -0.5) & (idx[:, 2] < shape[2] - 0.5)
    )
    if not inside.any():
        return np.zeros((2, 2), dtype=np.float64)
    data = moving.data
    if data.dtype != np.float64:
        data = data.astype(np.float64)
    frac = ndimage.map_coordinates(
        data, idx[inside].T, order=1, mode="grid-constant", cval=0.0,
    )
    f = fixed_vals[inside].astype(np.int64)
    counts = np.zeros((2, 2), dtype=np.float64)
    counts[:, 1] = np.bincount(f, weights=frac, minlength=2)
    counts[:, 0] = np.bincount(f, minlength=2) - counts[:, 1]
    return counts


def reference_sample_at_physical(vol, points):
    """The volume sampler as first written: stacked index product, masked gather."""
    pts = np.asarray(points, dtype=np.float64)
    idx = ((pts - vol.origin) @ vol.axes.T) / vol.spacing
    # round-half-up gather, zero outside
    near = np.floor(idx.reshape(-1, 3) + 0.5).astype(np.int64)
    inside = ((near >= 0) & (near < vol.data.shape)).all(axis=1)
    vals = np.zeros(len(near), dtype=vol.data.dtype)
    sel = near[inside]
    vals[inside] = vol.data[sel[:, 0], sel[:, 1], sel[:, 2]]
    return vals.reshape(pts.shape[:-1])


def reference_resample_crop(vol: Volume3, target_spacing, target_shape, center) -> Volume3:
    """``resample_crop`` as first written: ``map_coordinates(order=0)`` on a meshgrid.

    scipy's order-0 sampler reads voxel ``floor(index + 0.5)`` and, in
    ``grid-constant`` mode, 0 for an index that rounds outside the array.
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

    # Output axes equal source axes, so the index map is separable per axis:
    # src_i = offset_i + out_i * (target_spacing_i / spacing_i)
    offset = (vol.axes @ (out_origin - vol.origin)) / vol.spacing
    ratio = target_spacing / vol.spacing
    grids = [offset[i] + np.arange(target_shape[i], dtype=np.float64) * ratio[i] for i in range(3)]
    coords = np.meshgrid(*grids, indexing="ij")

    out = ndimage.map_coordinates(
        vol.data, coords, order=0, mode="grid-constant", cval=0.0, output=vol.data.dtype,
    )
    return Volume3(out, target_spacing, out_origin, vol.axes)


def reference_apply_transform(moving: Volume3, transform: RigidTransform3, like: Volume3) -> Volume3:
    """Resample ``moving`` through the moving->fixed ``transform`` onto ``like``'s grid."""
    shape = like.data.shape
    ii, jj, kk = np.meshgrid(*(np.arange(n) for n in shape), indexing="ij")
    idx = np.stack([ii, jj, kk], axis=-1).reshape(-1, 3).astype(np.float64)
    pts = like.origin + (idx * like.spacing) @ like.axes
    src = inverse(transform).apply(pts)
    sidx = np.rint(((src - moving.origin) @ moving.axes.T) / moving.spacing).astype(np.int64)
    mshape = moving.data.shape
    inside = (
        (sidx[:, 0] >= 0) & (sidx[:, 0] < mshape[0])
        & (sidx[:, 1] >= 0) & (sidx[:, 1] < mshape[1])
        & (sidx[:, 2] >= 0) & (sidx[:, 2] < mshape[2])
    )
    out = np.zeros(len(idx), dtype=moving.data.dtype)
    sel = sidx[inside]
    out[inside] = moving.data[sel[:, 0], sel[:, 1], sel[:, 2]]
    return Volume3(out.reshape(shape), like.spacing, like.origin, like.axes)


def reference_corrupt(mask, noise, rng):
    """The segmentation corruption as first written: each blob over the full frame."""
    out = mask.astype(bool)
    if noise.morph_jitter > 0:
        j = int(rng.integers(-noise.morph_jitter, noise.morph_jitter + 1))
        if j > 0:
            out = ndimage.binary_dilation(out, iterations=j)
        elif j < 0:
            out = ndimage.binary_erosion(out, iterations=-j)
    if noise.spurious_blob_rate > 0:
        lo, hi = noise.blob_size
        n_blobs = int(rng.poisson(noise.spurious_blob_rate))
        lx, ly = out.shape
        for _ in range(n_blobs):
            area = int(rng.integers(lo, hi + 1))
            cj = int(rng.integers(0, lx))
            ck = int(rng.integers(0, ly))
            r = math.sqrt(area / math.pi)
            jj, kk = np.ogrid[:lx, :ly]
            out |= (jj - cj) ** 2 + (kk - ck) ** 2 <= r * r
    if noise.pixel_flip_rate > 0:
        flips = rng.random(out.shape) < noise.pixel_flip_rate
        out ^= flips
    return out.astype(np.uint8)


def _mi_from_counts(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    pr = p.sum(axis=1, keepdims=True)
    pc = p.sum(axis=0, keepdims=True)
    denom = pr @ pc
    nz = p > 0
    return float(np.sum(p[nz] * np.log(p[nz] / denom[nz])))


def _theta_map(theta: np.ndarray, center: np.ndarray, init: RigidTransform3):
    """Rotation matrix and translation vector of the candidate transform.

    Raw arrays for the score loop; equivalent to ``_make_transform`` minus
    the per-call transform-object validation.
    """
    rot = euler_zyx(theta[3], theta[4], theta[5])
    a = rot @ init.rotation
    b = rot @ init.translation + (center - rot @ center) + theta[:3]
    return a, b


def _pattern_search(score_fn, theta0, steps0):
    """Coordinate pattern search; ``score_fn`` scores a list of thetas at once.

    The two candidates of one axis are independent, so they are scored in
    one call; the next axis starts from whichever won. Returns the final
    theta, its score and the best score after each sweep.
    """
    theta = theta0.copy()
    (best,) = score_fn([theta])
    t_step, r_step = steps0
    trace: list[float] = []
    while (t_step >= reg._TOLERANCE[0] or r_step >= reg._TOLERANCE[1]) and len(trace) < reg._MAX_SWEEPS:
        improved = False
        for axis in range(6):
            step = t_step if axis < 3 else r_step
            bound = reg._BOUNDS[0] if axis < 3 else reg._BOUNDS[1]
            best_cand = None
            best_cand_score = best
            cands = []
            for sign in (1.0, -1.0):
                cand = theta.copy()
                cand[axis] = float(np.clip(cand[axis] + sign * step, -bound, bound))
                cands.append(cand)
            for cand, s in zip(cands, score_fn(cands)):
                if s > best_cand_score + 1e-12:
                    best_cand, best_cand_score = cand, s
            if best_cand is not None:
                theta, best = best_cand, best_cand_score
                improved = True
        trace.append(best)
        if not improved:
            t_step *= 0.5
            r_step *= 0.5
    return theta, best, trace


def reference_stage_score(joint_counts, center, init):
    """A stage's score of a list of thetas on the lattice ``joint_counts``, unmemoized.

    Each map is built on its own (``_theta_map``) and each MI computed on
    its own (``_mi_from_counts``); a theta asked for again is scored again.
    """

    def score(thetas):
        maps = [_theta_map(t, center, init) for t in thetas]
        counts = joint_counts(np.array([a for a, _ in maps]), np.array([b for _, b in maps]))
        return [_mi_from_counts(c) for c in counts]

    return score


def reference_register_rigid(fixed, moving, init, cfg):
    """``register_rigid`` as first written: serial searches, every candidate scored.

    Same schedule and sparse scorer as the package solver, but each restart
    runs to its end before the next starts and each stage scores through
    ``reference_stage_score``. Returns (transform, final score, [coarse
    trace, fine trace]).
    """
    masks = reg._score_inputs(fixed, moving)
    center = init.apply(centroid(moving))
    pad = np.ceil(reg._BOUNDS[0] / fixed.spacing).astype(int) + 2

    def stage_scorer(inits, pad_vox, stride):
        return reference_stage_score(reg._lattice_scorer(masks, inits, pad_vox, stride), center, init)

    rng = np.random.default_rng(cfg.seed)
    scale = np.repeat(reg._BOUNDS, 3)
    starts = [np.zeros(6)] + [rng.uniform(-0.5, 0.5, size=6) * scale for _ in range(reg._RESTARTS)]
    coarse = stage_scorer([init], pad, 2)
    theta_best, _, coarse_trace = max(
        (_pattern_search(coarse, start, (4.0, 3.0)) for start in starts), key=lambda run: run[1]
    )
    fine = stage_scorer(
        [init, RigidTransform3(*_theta_map(theta_best, center, init))], np.minimum(pad, reg._REFINE_PAD), 1
    )
    init_score, best_score = fine([np.zeros(6), theta_best])
    if init_score > best_score:
        theta_best = np.zeros(6)
    theta_best, _, fine_trace = _pattern_search(fine, theta_best, (1.0, 1.0))
    (final_score,) = fine([theta_best])
    return RigidTransform3(*_theta_map(theta_best, center, init)), final_score, [coarse_trace, fine_trace]


def _same_grid(a, b):
    return (
        a.data.shape == b.data.shape
        and np.array_equal(a.spacing, b.spacing)
        and np.array_equal(a.origin, b.origin)
        and np.array_equal(a.axes, b.axes)
    )


def eager_capture(scene, position, shared_grid):
    """(mask, branch) of an axial frame, both sampled up front.

    Both routes of the first capture model: ``shared_grid`` computes one
    index array on the vein annotation's grid for both annotations (it
    requires that they share a grid), otherwise each annotation goes
    through the reference sampler.
    """
    lx, ly = ProbeParams.image_shape
    vx, vy = ProbeParams.pixel_spacing
    ys = position[1] - ProbeParams.fov_width / 2.0 + np.arange(lx) * vx
    zs = position[2] - np.arange(ly) * vy
    pts = np.empty((lx, ly, 3), dtype=np.float64)
    pts[..., 0] = position[0]
    pts[..., 1] = ys[:, None]
    pts[..., 2] = zs[None, :]
    ann = scene.hv_annotation
    if not shared_grid:
        mask = reference_sample_at_physical(ann, pts).astype(np.uint8)
        branch = reference_sample_at_physical(scene.hv_branch_annotation, pts).astype(np.uint8)
        return mask, branch
    assert _same_grid(ann, scene.hv_branch_annotation)
    shape = pts.shape[:-1]
    idx = ((pts.reshape(-1, 3) - ann.origin) @ ann.axes.T) / ann.spacing
    near = np.floor(idx + 0.5).astype(np.int64)
    n0, n1, n2 = near[:, 0], near[:, 1], near[:, 2]
    s0, s1, s2 = ann.data.shape
    inside = (n0 >= 0) & (n0 < s0) & (n1 >= 0) & (n1 < s1) & (n2 >= 0) & (n2 < s2)
    sel = near[inside]
    mask = np.zeros(len(near), dtype=np.uint8)
    branch = np.zeros(len(near), dtype=np.uint8)
    mask[inside] = ann.data[sel[:, 0], sel[:, 1], sel[:, 2]]
    branch[inside] = scene.hv_branch_annotation.data[sel[:, 0], sel[:, 1], sel[:, 2]]
    return mask.reshape(shape), branch.reshape(shape)
