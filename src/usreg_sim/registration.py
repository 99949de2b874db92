"""Rigid registration of binary 3D masks.

The solver aligns a moving volume onto a fixed volume by maximizing mutual
information of the voxel-value pairs, using a derivative free coordinate
pattern search with shrinking steps: seeded jittered restarts on a coarse
lattice, then one refinement at full resolution. Both volumes carry their
own origin/axes, so all geometry happens in physical millimeters and the
returned transform maps moving-space points into fixed space.

Each stage is one batched pattern search (``_pattern_search``): the
searches are rows of one loop, and each round scores the candidates of
every live row in one call, so the work around the per-map products
(candidate maps, candidate scatter, row runs, the exact index route, MI)
is done once per round rather than once per map. Each row decides from
its own scores only, so its result is the one it would get alone.

The score is the 2x2 partial-volume joint histogram of fixed lattice values
against the trilinear-sampled moving mask (Maes et al., IEEE TMI 1997). It
is evaluated sparsely but exactly, yet the counts are bit-identical to
sampling the whole lattice. The moving mask is kept as one ``uint8`` table
of corner codes (bit c of cell v: is voxel v + c foreground), and each map
scatters its candidate lattice points from the blocks of that table's
nonzero cells, so the work follows the moving foreground, not the lattice.
One table read per candidate gives both the hit test and the trilinear
sample. The inside counts come from the lattice totals or from row runs.
Each mask is scanned for its foreground once per call. A stage scores each
distinct candidate once and answers repeats from its record.
``mutual_information`` reports this same score for given transforms; it is
the package's only MI estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imgvol import (
    RigidTransform3,
    Volume3,
    centroid,
    inverse,
    physical_to_voxel,
    require_binary,
    sample_at_physical,
    voxel_to_physical,
)

# The one solver schedule. Search bounds and the step size below which a
# stage stops are (mm per translation axis, deg per Euler angle), relative
# to the initial transform; every stage stops after at most _MAX_SWEEPS.
_BOUNDS = (20.0, 10.0)
_TOLERANCE = (0.25, 0.25)
_MAX_SWEEPS = 40
_RESTARTS = 3


@dataclass(frozen=True)
class RegistrationConfig:
    """The seed of the restart jitters; the schedule itself is fixed.

    A stride-2 coarse stage runs the pattern search from the initial
    transform and from 3 seeded restarts, a stride-1 stage refines the
    winner; the search stays within 20 mm / 10 deg of the initial
    transform, halves its steps down to 0.25 mm / 0.25 deg and stops a
    stage after at most 40 sweeps.
    """

    seed: int = 0


# Voxels of slack between the exact and the affine-shortcut moving index; the
# two routes differ by rounding only (~1e-12 voxel), so this never decides.
# The same margin (in lattice indices) widens each block's candidate box.
_INDEX_SLACK = 1e-6


def _rows_product(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``x @ m`` for (N, 3) rows ``x``, a single row evaluated as a pair.

    numpy's matrix-vector product rounds differently from the matrix-matrix
    one that longer inputs take, so one row would get other bits than the
    same row inside a longer block.
    """
    if len(x) == 1:
        return (np.repeat(x, 2, axis=0) @ m)[:1]
    return x @ m


def _inside(idx: np.ndarray, shape) -> np.ndarray:
    """Points whose nearest moving voxel exists (the overlap of the two extents)."""
    return (
        (idx[:, 0] >= -0.5) & (idx[:, 0] < shape[0] - 0.5)
        & (idx[:, 1] >= -0.5) & (idx[:, 1] < shape[1] - 0.5)
        & (idx[:, 2] >= -0.5) & (idx[:, 2] < shape[2] - 0.5)
    )


def _row_spans(base: np.ndarray, step: np.ndarray, boxes: np.ndarray, n: int):
    """Per map, box and lattice row, the run [start, stop) of k in the box.

    Row r of map t runs through ``base[t, :, r] + k * step[t]`` for k in
    [0, n); ``boxes`` is (box, lo/hi, axis), bounds inclusive. A box is
    convex, so each row meets it in one run. Returns (map, box, row) arrays.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / step[:, None]
        k0 = (base / step[:, :, None])[:, None]  # k at which the row meets index 0
        face_lo = boxes[:, 0] * inv
        face_hi = boxes[:, 1] * inv
        first = np.minimum(face_lo, face_hi)[..., None] - k0
        last = np.maximum(face_lo, face_hi)[..., None] - k0
    for t, d in np.argwhere(step == 0.0):  # row parallel to the faces: all or none
        ok = (boxes[:, 0, d, None] <= base[t, d]) & (base[t, d] <= boxes[:, 1, d, None])
        first[t, :, d] = np.where(ok, -np.inf, np.inf)
        last[t, :, d] = -first[t, :, d]
    start = np.minimum(np.maximum(np.ceil(first.max(axis=2)), 0.0), n)
    stop = np.maximum(np.minimum(np.floor(last.min(axis=2)) + 1.0, n), start)
    return start.astype(np.int64), stop.astype(np.int64)


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated aranges: starts[i] .. starts[i] + lengths[i] - 1, in order."""
    shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return shift + np.arange(len(shift))


@dataclass(frozen=True)
class _StencilSupport:
    """The corner codes of a binary mask's trilinear stencils.

    A raveled ``uint8`` table over the cells ``lo`` .. ``lo + shape - 1`` (a
    cell is named by its floor voxel v), read at ``(v - lo) @ strides``: bit
    c of ``code`` is set iff voxel ``v + c`` is foreground, for the corners
    c in ``np.ndindex(2, 2, 2)`` order. So one read tells whether a sample
    whose floor is v can be nonzero, and gives the sample. Every cell with a
    nonzero code lies in the box. ``bounds`` (lo/hi, axis, 1) bounds the
    moving indices that are inside the grid's extent and floor into the box.
    """

    lo: np.ndarray
    shape: np.ndarray
    strides: np.ndarray
    code: np.ndarray
    bounds: np.ndarray

    @classmethod
    def of(cls, fg: np.ndarray, extent) -> "_StencilSupport":
        """The table of the mask on a grid of shape ``extent`` whose foreground voxels are ``fg`` (N, 3)."""
        lo = fg.min(axis=0) - 1
        size = fg.max(axis=0) - lo + 1
        padded = np.zeros(size + 1, dtype=np.uint8)
        padded[tuple((fg - lo).T)] = 1
        code = np.zeros(size, dtype=np.uint8)
        for bit, d in enumerate(np.ndindex(2, 2, 2)):
            code |= padded[d[0]:d[0] + size[0], d[1]:d[1] + size[1], d[2]:d[2] + size[2]] << bit
        strides = np.array([size[1] * size[2], size[2], 1])
        bounds = np.array([np.maximum(lo, -0.5), np.minimum(lo + size, np.asarray(extent) - 0.5)])
        return cls(lo, size, strides, code.ravel(), bounds[:, :, None])

    def block_centers(self, edge: int) -> np.ndarray:
        """Centres (3, K), in table cells, of the ``edge``^3-cell blocks holding a nonzero code."""
        cells = np.unravel_index(np.flatnonzero(self.code), tuple(self.shape))
        blocks = np.zeros(-(-self.shape // edge), dtype=bool)
        blocks[tuple(c // edge for c in cells)] = True
        return np.argwhere(blocks).T * float(edge) + edge / 2.0

    def sample(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The points of ``idx`` (3, N), moving indices, whose sample may be nonzero, and their samples.

        A point qualifies iff it is inside the moving extent and its floor
        cell has a nonzero code; cells outside the table are never read. Its
        sample is ``map_coordinates(mask, order=1, mode="grid-constant")``'s,
        bit for bit, from the same arithmetic: per corner, in order,
        ``(w0 * w1) * w2`` of the axis weights ``1 - t`` (floor voxel) and
        ``1 - (1 - t)`` (ceiling voxel), summed from 0.0. Returns the
        qualifying positions, ascending, and their samples.
        """
        hit = np.flatnonzero(np.all((idx >= self.bounds[0]) & (idx < self.bounds[1]), axis=0))
        x = idx.take(hit, axis=1)
        floor = np.floor(x)
        code = self.code.take(self.strides @ (floor.astype(np.int64) - self.lo[:, None]))
        nonzero = np.flatnonzero(code)
        hit, code = hit.take(nonzero), code.take(nonzero)
        w_floor = 1.0 - (x - floor).take(nonzero, axis=1)
        w = (w_floor, 1.0 - w_floor)
        frac = np.zeros(len(hit))
        for bit, (i, j, k) in enumerate(np.ndindex(2, 2, 2)):
            frac += ((code >> bit) & 1) * (w[i][0] * w[j][1] * w[k][2])
        return hit, frac


class _SparseJointCounts:
    """2x2 partial-volume joint histograms of a fixed lattice vs a binary moving mask.

    Called with candidate maps (``a``, ``b``: fixed point x lies at moving
    point a^T (x - b)), it returns per map the counts [[n00, n01], [n10,
    n11]] equal, bit for bit, to trilinear-sampling the moving mask at every
    lattice point inside the moving extent (partial-volume weighting: a
    sample s adds s to column 1 and 1 - s to column 0 of its fixed value's
    row), without doing so. The lattice is an affine image of its index box
    (the affine shortcut of the moving index, exact up to ``_INDEX_SLACK``):

    - column 1 sums samples only at points whose exact floor is a cell with
      a nonzero corner code (``_StencilSupport``); every other sample is an
      exact zero. The candidates are scattered from the moving stencil: the
      nonzero cells are grouped in blocks of ``stride``^3 cells, and a
      block's candidates are the lattice indices in the bounding box of its
      preimage under the shortcut, widened by the slack. Sorted, they come
      in lattice order, so the weighted bincount adds the same terms in the
      same order. One table read per candidate gives both the hit test and
      the trilinear sample;
    - the inside totals per fixed value are the lattice totals for a map
      that puts all eight lattice corners surely inside the moving extent,
      otherwise prefix-sum differences over the runs of each lattice row
      (fixed i, j) through the extent, one run of k per row.

    Candidates, and points within the slack of a face of the extent, go
    through the exact route.
    """

    def __init__(self, pts, fvals, shape, stride: int, step: np.ndarray, moving: Volume3, support: _StencilSupport):
        self.pts = pts
        self.fvals = fvals
        self.shape = shape
        self.step = step
        self.moving = moving
        self.support = support
        n0, n1, n2 = shape
        self.totals = np.bincount(fvals, minlength=2)
        self.corners = np.array(list(np.ndindex(2, 2, 2))).T * (np.array(shape)[:, None] - 1.0)
        self.row_ij = np.indices((n0, n1), dtype=np.float64).reshape(2, -1)
        self.row_start = np.arange(n0 * n1) * n2
        self.lattice_strides = np.array([n1 * n2, n2, 1])
        self.last = np.array(shape)[:, None] - 1.0
        # fixed-foreground count of row r before k: prefix[r * (n2 + 1) + k]
        prefix = np.zeros((n0 * n1, n2 + 1), dtype=np.int64)
        np.cumsum(fvals.reshape(n0 * n1, n2), axis=1, dtype=np.int64, out=prefix[:, 1:])
        self.prefix = prefix.ravel()
        self.m_shape = np.array(moving.data.shape)
        # the shortcut counts moving voxels from the support table's corner
        self.frame = (moving.origin @ moving.axes.T) / moving.spacing + support.lo
        self.blocks = support.block_centers(stride)
        self.half_block = stride / 2.0
        lo = -0.5 - support.lo
        hi = self.m_shape - 0.5 - support.lo
        self.boxes = np.array([
            [lo + _INDEX_SLACK, hi - _INDEX_SLACK],  # surely inside the extent
            [lo - _INDEX_SLACK, hi + _INDEX_SLACK],  # possibly inside
        ])

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Counts (M, 2, 2) of the M maps stacked as ``a`` (M, 3, 3) and ``b`` (M, 3).

        The work around the per-map products is done once for the batch, and
        each map's counts are the bits a batch of that map alone would get.
        """
        m = (a @ self.moving.axes.T) / self.moving.spacing
        grad = (self.step @ m).transpose(0, 2, 1)  # shortcut index per lattice index
        origin = ((self.pts[0] - b)[:, None] @ m)[:, 0, :, None] - self.frame[:, None]
        weights = self._foreground_weights(a, b, origin, grad)
        corners = origin + grad @ self.corners
        sure = self.boxes[0, :, :, None]
        n_inside = np.tile(self.totals, (len(a), 1))
        part = np.flatnonzero(~np.all((corners >= sure[0]) & (corners <= sure[1]), axis=(1, 2)))
        if len(part):
            base = origin[part] + grad[part, :, :2] @ self.row_ij
            start, stop = _row_spans(base, grad[part, :, 2], self.boxes, self.shape[2])
            n_inside[part] = self._inside_counts(a[part], b[part], start, stop)
        counts = np.zeros((len(a), 2, 2), dtype=np.float64)
        counts[:, :, 1] = weights
        counts[:, :, 0] = n_inside - weights
        return counts

    def _exact(self, a, b, flat, sizes) -> np.ndarray:
        """Exact moving indices of the lattice points ``flat``, ``sizes[t]`` of them per map t.

        Every value the score keeps goes through this one arithmetic route,
        so a subset of the lattice gets the same bits as the whole: per map
        ``(x - b) @ a``, then one ``(y - origin) @ axes.T / spacing`` over all
        maps' points.
        """
        y = self.pts.take(flat, axis=0)
        ends = np.cumsum(sizes)
        for t, (lo, hi) in enumerate(zip(ends - sizes, ends)):
            if hi > lo:
                y[lo:hi] = _rows_product(y[lo:hi] - b[t], a[t])
        y -= self.moving.origin
        idx = _rows_product(y, self.moving.axes.T)
        idx /= self.moving.spacing
        return idx

    def _inside_counts(self, a, b, start, stop) -> np.ndarray:
        row_prefix = np.arange(start.shape[2]) * (self.shape[2] + 1)
        sure0, may0 = start[:, 0], start[:, 1]
        sure1, may1 = stop[:, 0], stop[:, 1]
        sure0 = np.minimum(np.maximum(sure0, may0), may1)
        sure1 = np.minimum(np.maximum(sure1, sure0), may1)
        n_sure = (sure1 - sure0).sum(axis=1)
        sure_fg = (self.prefix.take(row_prefix + sure1) - self.prefix.take(row_prefix + sure0)).sum(axis=1)
        counts = np.stack([n_sure - sure_fg, sure_fg], axis=1)
        # points within the slack of a face: decided exactly
        lengths = np.concatenate([sure0 - may0, may1 - sure1], axis=1)
        if lengths.any():
            starts = np.concatenate([self.row_start + may0, self.row_start + sure1], axis=1)
            edges = _runs(starts.ravel(), lengths.ravel())
            sizes = lengths.sum(axis=1)
            inside = _inside(self._exact(a, b, edges, sizes), self.m_shape)
            which = np.repeat(np.arange(len(a)), sizes)
            fvals = self.fvals[edges]
            counts += np.bincount(2 * which[inside] + fvals[inside], minlength=2 * len(a)).reshape(-1, 2)
        return counts

    def _candidates(self, origin, grad):
        """Per map, in lattice order, the lattice points that may sample a nonzero cell.

        A point whose exact floor is a nonzero cell has its shortcut index
        within the slack of that cell, so inside its block's preimage; the
        preimage's bounding box, widened by the slack, holds the point.
        Returns the flat lattice indices and the count per map.
        """
        n_maps, size = len(grad), self.pts.shape[0]
        inv = np.linalg.inv(grad)  # lattice index per shortcut index
        center = inv @ (self.blocks - origin)  # (M, 3, K)
        reach = np.abs(inv).sum(axis=2)[:, :, None] * self.half_block + _INDEX_SLACK
        lo = np.maximum(np.ceil(center - reach), 0.0)
        count = (np.minimum(np.floor(center + reach), self.last) - lo + 1.0).astype(np.int64)
        first = (lo.astype(np.int64) * self.lattice_strides[:, None]).sum(axis=1)
        first += np.arange(n_maps)[:, None] * size
        # every offset within the widest box, each kept where its block's box holds it
        parts = [np.zeros(0, dtype=np.int64)]
        for o0, o1, o2 in np.ndindex(*count.max(axis=(0, 2), initial=0)):
            fits = (count[:, 0] > o0) & (count[:, 1] > o1) & (count[:, 2] > o2)
            parts.append(first[fits] + (o0 * self.lattice_strides[0] + o1 * self.lattice_strides[1] + o2))
        flat = np.sort(np.concatenate(parts))
        flat = flat[np.diff(flat, prepend=-1) != 0]  # a point in several boxes, once
        which = flat // size
        return flat - which * size, np.bincount(which, minlength=n_maps)

    def _foreground_weights(self, a, b, origin, grad) -> np.ndarray:
        points, sizes = self._candidates(origin, grad)
        idx = np.ascontiguousarray(self._exact(a, b, points, sizes).T)
        hit, frac = self.support.sample(idx)
        bins = 2 * np.repeat(np.arange(len(a)), sizes) + self.fvals.take(points)
        return np.bincount(bins[hit], weights=frac, minlength=2 * len(a)).reshape(-1, 2)


def _batch_mi(counts: np.ndarray) -> np.ndarray:
    """MI of each 2x2 joint count table in ``counts`` (M, 2, 2); 0 for an empty table.

    Empty cells add an exact zero term, so every table sums its four terms
    in the same order whatever its zeros.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / counts.sum(axis=(1, 2))[:, None, None]
        denom = p.sum(axis=2, keepdims=True) * p.sum(axis=1, keepdims=True)
        terms = p * np.log(p / denom)
    return np.where(p > 0, terms, 0.0).sum(axis=(1, 2))


def _content_bbox_in_fixed(vol: Volume3, fg: np.ndarray, to_fixed: RigidTransform3, fixed: Volume3):
    """Index-space bbox (lo, hi inclusive) of vol's content, voxels ``fg``, mapped into fixed."""
    fidx = physical_to_voxel(fixed, to_fixed.apply(voxel_to_physical(vol, fg)))
    return np.floor(fidx.min(axis=0)).astype(int), np.ceil(fidx.max(axis=0)).astype(int)


@dataclass(frozen=True)
class _ScoreInputs:
    """A validated mask pair, the foreground voxel indices of each (scanned once) and the moving table."""

    fixed: Volume3
    moving: Volume3
    fixed_fg: np.ndarray
    moving_fg: np.ndarray
    support: _StencilSupport


def _score_inputs(fixed: Volume3, moving: Volume3) -> _ScoreInputs:
    """Validate a mask pair for scoring and scan each mask for its foreground once."""
    fdata = require_binary(fixed.data, "fixed mask")
    mdata = require_binary(moving.data, "moving mask")
    fixed_fg, moving_fg = np.argwhere(fdata), np.argwhere(mdata)
    if len(fixed_fg) == 0 or len(moving_fg) == 0:
        raise ValueError("cannot register empty masks")
    if fdata.shape != mdata.shape or not np.allclose(fixed.spacing, moving.spacing):
        raise ValueError("volumes must be harmonized to the same shape and spacing")
    return _ScoreInputs(fixed, moving, fixed_fg, moving_fg, _StencilSupport.of(moving_fg, mdata.shape))


def _eval_points(masks: _ScoreInputs, inits, pad_vox: np.ndarray, stride: int):
    """Fixed-grid sample lattice covering both contents plus search margin.

    ``inits`` lists candidate moving->fixed transforms whose mapped content
    must stay inside the lattice. Returns the lattice points (C order), their
    fixed values and the lattice shape.
    """
    fixed = masks.fixed
    lo, hi = _content_bbox_in_fixed(fixed, masks.fixed_fg, RigidTransform3.identity(), fixed)
    for t in inits:
        lo_m, hi_m = _content_bbox_in_fixed(masks.moving, masks.moving_fg, t, fixed)
        lo, hi = np.minimum(lo, lo_m), np.maximum(hi, hi_m)
    lo = np.maximum(lo - pad_vox, 0)
    hi = np.minimum(hi + pad_vox, np.array(fixed.shape) - 1)
    axes_idx = [np.arange(lo[d], hi[d] + 1, stride) for d in range(3)]
    ii, jj, kk = np.meshgrid(*axes_idx, indexing="ij")
    idx = np.stack([ii, jj, kk], axis=-1).reshape(-1, 3)
    pts = voxel_to_physical(fixed, idx)
    fvals = fixed.data[idx[:, 0], idx[:, 1], idx[:, 2]]
    return pts, fvals, ii.shape


# Lattice margin (fixed voxels) of the refinement stage, which stays near
# the coarse winner; ``mutual_information`` scores on the same margin.
_REFINE_PAD = 4


def _lattice_scorer(masks: _ScoreInputs, inits, pad_vox, stride) -> _SparseJointCounts:
    """The sparse 2x2 joint-count scorer on one stage's fixed lattice (``_eval_points``)."""
    pts, fvals, shape = _eval_points(masks, inits, pad_vox, stride)
    step = stride * masks.fixed.spacing[:, None] * masks.fixed.axes
    return _SparseJointCounts(pts, fvals, shape, stride, step, masks.moving, masks.support)


def mutual_information(
    fixed: Volume3, moving: Volume3, transforms: list[RigidTransform3]
) -> list[float]:
    """The solver's MI of the moving mask under each moving->fixed transform.

    The masks must pass ``register_rigid``'s checks. All transforms are
    scored on one full-resolution fixed lattice that covers the fixed
    content and the moving content mapped by each of them, plus the
    refinement stage's margin, so the scores compare with one another.
    """
    scorer = _lattice_scorer(_score_inputs(fixed, moving), transforms, _REFINE_PAD, 1)
    a = np.array([t.rotation for t in transforms])
    b = np.array([t.translation for t in transforms])
    return _batch_mi(scorer(a, b)).tolist()


def _theta_maps(thetas, center: np.ndarray, init: RigidTransform3):
    """Stacked rotations (M, 3, 3) and translations (M, 3) of the candidate transforms.

    Raw arrays for the score loop. Each map gets the bits of ``euler_zyx``
    and the single-map products: scalar ``math`` trig per angle, then the
    same products, stacked.
    """
    rz, ry, rx = [], [], []
    for theta in thetas:
        (cz, sz), (cy, sy), (cx, sx) = ((math.cos(r), math.sin(r)) for r in map(math.radians, theta[3:]))
        rz.append(((cz, -sz, 0.0), (sz, cz, 0.0), (0.0, 0.0, 1.0)))
        ry.append(((cy, 0.0, sy), (0.0, 1.0, 0.0), (-sy, 0.0, cy)))
        rx.append(((1.0, 0.0, 0.0), (0.0, cx, -sx), (0.0, sx, cx)))
    rot = np.array(rz) @ np.array(ry) @ np.array(rx)
    a = rot @ init.rotation
    b = rot @ init.translation + (center - rot @ center) + np.asarray(thetas)[:, :3]
    return a, b


def _make_transform(theta: np.ndarray, center: np.ndarray, init: RigidTransform3) -> RigidTransform3:
    a, b = _theta_maps([theta], center, init)
    return RigidTransform3(a[0], b[0])


def _pattern_search(score, starts, steps0):
    """Coordinate pattern searches from each of ``starts``, as rows of one loop.

    Every live row shares each round's one ``score`` call (thetas in, their
    scores out). The first round scores the starts; then each sweep has one
    round per axis, in which a row asks for its +step and -step candidates,
    clipped to ``_BOUNDS``, and takes one that beats its best by more than
    1e-12, + checked first. A row halves both steps after a sweep with no
    move and stops once both are below ``_TOLERANCE`` or after
    ``_MAX_SWEEPS`` sweeps. A row reads only its own scores, so its result
    is the one it gets alone. Returns per start the final theta, its score
    and the best score after each sweep.
    """
    theta = np.array(starts, dtype=np.float64)
    best = np.array(score(list(theta)))
    steps = np.tile(np.asarray(steps0, dtype=np.float64), (len(theta), 1))
    traces: list[list[float]] = [[] for _ in theta]
    live = np.arange(len(theta))
    for _ in range(_MAX_SWEEPS):
        live = live[(steps[live] >= _TOLERANCE).any(axis=1)]
        if not len(live):
            break
        before = best[live]
        for axis in range(6):
            x, step, bound = theta[live, axis], steps[live, axis // 3], _BOUNDS[axis // 3]
            up, down = np.clip(x + step, -bound, bound), np.clip(x - step, -bound, bound)
            cands = np.repeat(theta[live], 2, axis=0)
            cands[0::2, axis], cands[1::2, axis] = up, down
            s = np.reshape(score(list(cands)), (-1, 2))
            plus = s[:, 0] > best[live] + 1e-12
            top = np.where(plus, s[:, 0], best[live])
            minus = s[:, 1] > top + 1e-12
            theta[live, axis] = np.where(minus, down, np.where(plus, up, x))
            best[live] = np.where(minus, s[:, 1], top)
        for i in live:
            traces[i].append(float(best[i]))
        steps[live[best[live] == before]] *= 0.5  # a move always raises the best
    return [(t, float(b), trace) for t, b, trace in zip(theta, best, traces)]


def register_rigid(
    fixed: Volume3,
    moving: Volume3,
    init: RigidTransform3 | None = None,
    cfg: RegistrationConfig | None = None,
    return_trace: bool = False,
):
    """Find the rigid map (moving space -> fixed space) maximizing the MI score.

    Both masks must be binary, nonempty, and live on grids with identical
    spacing and shape (origins and axes may differ). The result is
    deterministic for a given seed; restart ties keep the lowest index.
    Returns (transform, score); with ``return_trace``, also the two stages'
    best-score-per-sweep traces, coarse first.

    The schedule is fixed. The coarse stage scores a stride-2 fixed lattice
    and runs the pattern search (steps 4 mm / 3 deg) from the initial
    transform and from 3 restarts jittered by ``cfg.seed``; the refinement
    stage scores a stride-1 lattice and runs it (steps 1 mm / 1 deg) from
    the coarse winner or the initial transform, whichever scores higher.
    Each search stays within 20 mm / 10 deg of the initial transform, halves
    its steps down to 0.25 mm / 0.25 deg and stops after at most 40 sweeps.

    Each score is computed sparsely but exactly (see ``_SparseJointCounts``):
    the same counts, bit for bit, as trilinear-sampling the moving mask at
    every point of the stage's fixed lattice, at a cost that follows the
    moving foreground rather than the lattice size. Each stage is one call
    of the batched search (``_pattern_search``): the four coarse searches
    are its rows, and a round's candidates, two per live row, are scored in
    one call. A stage scores each distinct candidate once: a theta asked for
    again (a clipped step, the refinement's start) is answered from the
    stage's record. The final score is the one the refinement ends with.
    Neither changes a result, since a score depends on its map alone and
    each search reads only its own scores.
    """
    cfg = cfg or RegistrationConfig()
    init = init or RigidTransform3.identity()
    masks = _score_inputs(fixed, moving)
    center = init.apply(centroid(moving))
    pad = np.ceil(_BOUNDS[0] / fixed.spacing).astype(int) + 2

    def stage_scorer(inits, pad_vox, stride):
        joint_counts = _lattice_scorer(masks, inits, pad_vox, stride)
        scores: dict[bytes, float] = {}  # theta bytes -> score, per stage

        def score(thetas):
            keys = [t.tobytes() for t in thetas]
            unseen = {k: t for k, t in zip(keys, thetas) if k not in scores}
            if unseen:
                counts = joint_counts(*_theta_maps(list(unseen.values()), center, init))
                scores.update(zip(unseen, _batch_mi(counts).tolist()))
            return [scores[k] for k in keys]

        return score

    rng = np.random.default_rng(cfg.seed)
    scale = np.repeat(_BOUNDS, 3)
    starts = [np.zeros(6)] + [rng.uniform(-0.5, 0.5, size=6) * scale for _ in range(_RESTARTS)]
    coarse = stage_scorer([init], pad, 2)
    # max keeps the first of equal scores: the lowest restart index
    theta_best, _, coarse_trace = max(_pattern_search(coarse, starts, (4.0, 3.0)), key=lambda run: run[1])

    # refinement stays near the coarse winner, so its margin shrinks; it
    # never ends below the plain init: start from whichever scores higher
    fine = stage_scorer([init, _make_transform(theta_best, center, init)], np.minimum(pad, _REFINE_PAD), 1)
    init_score, best_score = fine([np.zeros(6), theta_best])
    if init_score > best_score:
        theta_best = np.zeros(6)
    ((theta_best, final_score, fine_trace),) = _pattern_search(fine, [theta_best], (1.0, 1.0))
    result = _make_transform(theta_best, center, init)
    if return_trace:
        return result, final_score, [coarse_trace, fine_trace]
    return result, final_score


def apply_transform(moving: Volume3, transform: RigidTransform3, like: Volume3) -> Volume3:
    """Resample ``moving`` through the moving->fixed ``transform`` onto ``like``'s grid.

    Nearest-neighbour (``sample_at_physical``: half-voxel ties round up); 0 outside.
    The output is filled one index slab (fixed first index) at a time, so the
    temporaries scale with one slab's ``n1 * n2`` points, not the grid's
    ``n0 * n1 * n2`` (1.2 MB, not 47 MB, on a 64x96x64 grid). A slab of
    one voxel is evaluated as a pair whenever the grid has more: numpy's
    one-row matrix product rounds differently from the multi-row one that
    the whole grid takes.
    """
    n0, n1, n2 = like.shape
    out = np.empty((n0, n1 * n2), dtype=moving.data.dtype)
    to_moving = inverse(transform)
    # every voxel index of one slab, in C order; column 0 is set per slab
    slab = np.zeros((n1 * n2, 3), dtype=np.float64)
    slab[:, 1:] = np.argwhere(np.ones((n1, n2), dtype=bool))
    if len(slab) == 1 and n0 > 1:
        slab = np.repeat(slab, 2, axis=0)
    for i in range(n0):
        slab[:, 0] = i
        pts = to_moving.apply(voxel_to_physical(like, slab))
        out[i] = sample_at_physical(moving, pts)[: n1 * n2]
    out.flags.writeable = False  # handed to the volume without a copy
    return Volume3(out.reshape(like.shape), like.spacing, like.origin, like.axes)
