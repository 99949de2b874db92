"""Virtual robot end-effector and ultrasound imaging model.

The probe is a point transducer that rides on the phantom's skin surface
with a fixed orientation: the image plane is always perpendicular to the
inferior-superior (x) axis, so every captured frame is an axial view. The
geometry is fixed (``ProbeParams``), so the probe's state is just its
position: ``initial_contact`` and ``move_to`` return it as a ``(3,)`` array
and ``capture_us`` takes it. Every mask this module hands out (a frame's
truth masks and the segmentations) is a read-only ``uint8`` array of
``ProbeParams.image_shape``, indexed (lateral, depth).

Capture is pure resampling of the scene's vein annotations, done lazily:
a frame samples each of its fields on first read, so a caller pays only
for the pixels it consumes. A truth mask whose volume axes are exactly the
identity (every scene placed without yaw) is read by ``gather_nearest``:
one slab index for the frame, one row index per lateral pixel and one
column index per depth pixel, which reads the same values as the general
sampler. The learned segmentation networks of the real system
are replaced by ground-truth oracles plus one fixed corruption model.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .imgvol import Volume3, gather_nearest, sample_at_physical
from .phantom import PhantomScene

_IDENTITY = np.eye(3)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class ProbeParams:
    """Geometry of the one transducer; callers read the class attributes.

    ``image_shape`` is (lateral pixels, depth pixels) and ``pixel_spacing``
    is (lateral, depth) mm per pixel; the pixels cover the field of view to
    within one pixel on both axes.
    """

    fov_width = 80.0
    fov_depth = 80.0
    image_shape = (216, 100)
    pixel_spacing = (80.0 / 216.0, 0.8)


@dataclass(frozen=True)
class UltrasoundFrame:
    """One axial capture: the two hidden truth masks of the imaged plane.

    The frame holds only the scene and the capture position. Each of
    ``mask_truth`` and ``branch_truth``, a read-only ``uint8`` array of
    ``ProbeParams.image_shape``, is sampled on
    ``capture_grid(capture_position)`` the first time it is read
    and cached on the frame, so both share one pixel grid. ``mask_truth``
    samples the full vein annotation and ``branch_truth`` the
    junction-local annotation, each through ``gather_nearest`` when that
    annotation's ``axes`` equal the identity exactly and through
    ``sample_at_physical`` otherwise (a yawed placement). Pixel (0, 0)
    sits at ``capture_position - (fov_width/2) * y_hat`` at surface depth,
    the lateral axis runs along +y and the depth axis straight down.
    """

    scene: PhantomScene = field(repr=False)
    capture_position: np.ndarray

    def __post_init__(self) -> None:
        pos = np.array(self.capture_position, dtype=np.float64)
        if pos.shape != (3,):
            raise ValueError("capture_position must be a 3-vector")
        object.__setattr__(self, "capture_position", _read_only(pos))

    @cached_property
    def mask_truth(self) -> np.ndarray:
        return self._sample(self.scene.hv_annotation)

    @cached_property
    def branch_truth(self) -> np.ndarray:
        return self._sample(self.scene.hv_branch_annotation)

    def _sample(self, vol: Volume3) -> np.ndarray:
        if np.array_equal(vol.axes, _IDENTITY):
            # the product with an exact identity rounds nothing, so these
            # are sample_at_physical's indices, split per axis
            ys, zs = _capture_axes(self.capture_position)
            vals = gather_nearest(vol, *(
                (c - o) / s
                for c, o, s in zip((self.capture_position[:1], ys, zs), vol.origin, vol.spacing)
            ))[0]
        else:
            vals = sample_at_physical(vol, capture_grid(self.capture_position))
        return _read_only(vals.astype(np.uint8, copy=False))


@dataclass(frozen=True)
class NoiseModel:
    """The one corruption standing in for network segmentation errors.

    The corruption is fixed; callers read the class attributes.
    ``pixel_flip_rate`` is a per-pixel XOR probability,
    ``spurious_blob_rate`` the expected count of small false-positive discs
    per frame with areas drawn from ``blob_size`` (pixels), and
    ``morph_jitter`` the half-range of a per-frame dilation/erosion draw.
    They are calibrated so the oracle's mean Dice lands in the low 0.8s. An
    instance holds only the seed: output is deterministic given the seed and
    the frame being segmented. No corruption is no model (``None``).
    """

    pixel_flip_rate = 0.003
    spurious_blob_rate = 1.5
    blob_size = (10, 30)
    morph_jitter = 1

    seed: int = 0


# a trial's segmentation noise by preset name, built from the trial's seed
NOISE_PRESETS = {
    "zero": lambda seed: None,
    "default": NoiseModel,
}


def initial_contact(scene: PhantomScene) -> np.ndarray:
    """Land the probe at the centroid of the body's top-down footprint.

    Stands in for the force-controlled descend-and-touch routine: the
    contact point is the (x, y) centroid of the occupied skin footprint at
    surface height.
    """
    footprint = scene.body.data.any(axis=2)
    idx = np.argwhere(footprint)
    if idx.size == 0:
        raise ValueError("cannot make contact: body footprint is empty")
    center_idx = idx.mean(axis=0)
    anchor = scene.body.origin + (
        np.array([center_idx[0], center_idx[1], 0.0]) * scene.body.spacing
    ) @ scene.body.axes
    z = scene.surface_height(anchor[0], anchor[1])
    if math.isnan(z):
        raise ValueError("footprint centroid is off the skin surface")
    return np.array([anchor[0], anchor[1], z])


def move_to(scene: PhantomScene, x: float, y: float) -> np.ndarray:
    """The probe position on the surface above (x, y)."""
    z = scene.surface_height(x, y)
    if math.isnan(z):
        raise ValueError(f"({x:.1f}, {y:.1f}) is off the skin surface")
    return np.array([float(x), float(y), z])


def _capture_axes(position: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The y coordinate of every lateral pixel and the z of every depth pixel."""
    lx, ly = ProbeParams.image_shape
    vx, vy = ProbeParams.pixel_spacing
    ys = position[1] - ProbeParams.fov_width / 2.0 + np.arange(lx) * vx
    zs = position[2] - np.arange(ly) * vy
    return ys, zs


def capture_grid(position: np.ndarray) -> np.ndarray:
    """Physical positions of the fixed probe's pixels in a frame captured at ``position``."""
    lx, ly = ProbeParams.image_shape
    ys, zs = _capture_axes(position)
    pts = np.empty((lx, ly, 3), dtype=np.float64)
    pts[..., 0] = position[0]
    pts[..., 1] = ys[:, None]
    pts[..., 2] = zs[None, :]
    return pts


def capture_us(scene: PhantomScene, position: np.ndarray) -> UltrasoundFrame:
    """Image the axial plane through the probe ``position`` (a 3-vector).

    Nothing is sampled here: the frame samples each truth mask on first
    read, a nearest-neighbour sample of its annotation. Points outside the
    volume read 0.
    """
    return UltrasoundFrame(scene, position)


def _frame_rng(noise: NoiseModel, frame: UltrasoundFrame, tag: str) -> np.random.Generator:
    """Generator keyed on (seed, model tag, capture position, frame shape).

    Re-segmenting the same frame with the same model reproduces the output
    bit for bit, independent of call order, which keeps concurrent trials
    deterministic. The shape is the fixed probe's, so keying samples no
    field of the frame.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(struct.pack("<q", int(noise.seed)))
    h.update(tag.encode("ascii"))
    quantized = np.round(frame.capture_position * 1000.0).astype(np.int64)
    h.update(quantized.tobytes())
    h.update(struct.pack("<qq", *ProbeParams.image_shape))
    return np.random.default_rng(int.from_bytes(h.digest(), "little"))


def _cross_step(mask: np.ndarray, grow: bool) -> np.ndarray:
    """One dilation (``grow``) or erosion of a bool frame by the 4-neighbour cross.

    The frame is padded with one pixel of zeros and each output pixel ORs
    (dilation) or ANDs (erosion) itself with its four neighbours, read as
    shifted slices of the padded frame. This is ``scipy.ndimage.binary_dilation`` /
    ``binary_erosion`` with their default cross structure and
    ``border_value=0``: pixels outside the frame count as 0, so erosion
    clears the frame's border.
    """
    op = np.logical_or if grow else np.logical_and
    padded = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = mask
    out = op(mask, padded[:-2, 1:-1])
    for neighbour in (padded[2:, 1:-1], padded[1:-1, :-2], padded[1:-1, 2:]):
        op(out, neighbour, out=out)
    return out


def _corrupt(mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Segmentation corruption: morphological jitter, spurious blobs, pixel flips.

    A jitter draw j dilates (j > 0) or erodes (j < 0) the mask by |j| steps
    of the 4-neighbour cross, each step a shifted-slice OR/AND over the
    frame (``_cross_step``); |j| steps equal scipy's ``iterations=|j|``
    dilation/erosion with the default structure and a zero border.
    """
    out = mask.astype(bool)
    jitter = NoiseModel.morph_jitter
    j = int(rng.integers(-jitter, jitter + 1))
    for _ in range(abs(j)):
        out = _cross_step(out, grow=j > 0)
    lo, hi = NoiseModel.blob_size
    n_blobs = int(rng.poisson(NoiseModel.spurious_blob_rate))
    lx, ly = out.shape
    for _ in range(n_blobs):
        area = int(rng.integers(lo, hi + 1))
        cj = int(rng.integers(0, lx))
        ck = int(rng.integers(0, ly))
        r = math.sqrt(area / math.pi)
        # the disc's clipped bounding window; every pixel outside it is
        # farther than r from the center
        w = math.ceil(r)
        j0, j1 = max(cj - w, 0), min(cj + w + 1, lx)
        k0, k1 = max(ck - w, 0), min(ck + w + 1, ly)
        jj, kk = np.arange(j0, j1)[:, None], np.arange(k0, k1)[None, :]
        out[j0:j1, k0:k1] |= (jj - cj) ** 2 + (kk - ck) ** 2 <= r * r
    out ^= rng.random(out.shape) < NoiseModel.pixel_flip_rate
    return out.astype(np.uint8)


def _segment(
    frame: UltrasoundFrame, truth: np.ndarray, noise: NoiseModel | None, tag: str
) -> np.ndarray:
    if noise is None:
        return truth
    return _read_only(_corrupt(truth, _frame_rng(noise, frame, tag)))


def segment_full(frame: UltrasoundFrame, noise: NoiseModel | None) -> np.ndarray:
    """Full-vein segmentation: the truth mask, corrupted unless ``noise`` is None."""
    return _segment(frame, frame.mask_truth, noise, "full")


def segment_branch(frame: UltrasoundFrame, noise: NoiseModel | None) -> np.ndarray:
    """Junction-local segmentation: the branch truth under the same model."""
    return _segment(frame, frame.branch_truth, noise, "branch")
