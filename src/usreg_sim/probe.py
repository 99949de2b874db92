"""Virtual robot end-effector and ultrasound imaging model.

The probe is a point transducer that rides on the phantom's skin surface
with a fixed orientation: the image plane is always perpendicular to the
inferior-superior (x) axis, so every captured frame is an axial view. The
geometry is fixed (``ProbeParams``), so the probe's state is just its
position: ``initial_contact`` and ``move_to`` return it as a ``(3,)`` array
and ``capture_us`` takes it. Every mask this module hands out (a
segmentation) is a read-only ``uint8`` array of ``ProbeParams.image_shape``,
indexed (lateral, depth).

A frame is a pose and holds no pixels: ``capture_us`` records the scene
and the capture position, and each segmenter samples the one vein
annotation it reads on the frame's pixel grid when it is called. Every
frame, yawed or not, is read by one ``gather_nearest``: a row index pair
per lateral pixel and a column index per depth pixel. A placement yaws
only about the vertical axis, so the pairs depend on a pixel's y alone and
the columns on its z alone, and they are the general sampler's indices.
The learned segmentation networks of the real system are replaced by
ground-truth oracles plus one fixed corruption model.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .imgvol import Volume3, gather_nearest, physical_to_voxel
from .phantom import PhantomScene


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


class UltrasoundFrame(NamedTuple):
    """One axial capture: the scene and the pose it was captured at.

    ``capture_position`` is a read-only float64 3-vector. The frame holds
    no pixels; its pixel grid is ``capture_grid(capture_position)``: pixel
    (0, 0) sits at ``capture_position - (fov_width/2) * y_hat`` at surface
    depth, the lateral axis runs along +y and the depth axis straight down.
    """

    scene: PhantomScene
    capture_position: np.ndarray


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
    """Land the probe at the centre of the body's top-down footprint.

    Stands in for the force-controlled descend-and-touch routine: the
    contact point is ``scene.footprint_center()``'s (x, y) at surface
    height, which is on the skin whatever the placement.
    """
    x, y, _ = scene.footprint_center()
    return np.array([x, y, scene.surface_height(x, y)])


class OffSkinError(ValueError):
    """A probe move to a point with no skin beneath it."""


def move_to(scene: PhantomScene, x: float, y: float) -> np.ndarray:
    """The probe position on the surface above (x, y); ``OffSkinError`` off the skin."""
    z = scene.surface_height(x, y)
    if math.isnan(z):
        raise OffSkinError(f"({x:.1f}, {y:.1f}) is off the skin surface")
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

    Nothing is sampled here: the frame keeps a read-only copy of the
    position, and each segmenter samples its truth mask from the scene.
    """
    pos = np.array(position, dtype=np.float64)
    if pos.shape != (3,):
        raise ValueError("capture_position must be a 3-vector")
    return UltrasoundFrame(scene, _read_only(pos))


def _truth(vol: Volume3, position: np.ndarray) -> np.ndarray:
    """``vol`` sampled on ``capture_grid(position)``, nearest voxel, 0 outside.

    ``vol``'s third axis must be exactly vertical (row and column 2 of its
    axes are (0, 0, 1)), as on every scene: ``place_phantom`` yaws about z
    only. The z terms of the index product are then exact zeros, so one
    product over the lateral pixels and the depth pixels' z alone give the
    indices of the general sampler's full-grid product, bit for bit.
    """
    ys, zs = _capture_axes(position)
    lateral = np.empty((len(ys), 3))
    lateral[:, 0], lateral[:, 1], lateral[:, 2] = position[0], ys, zs[0]
    i0, i1, _ = physical_to_voxel(vol, lateral).T
    vals = gather_nearest(vol, i0, i1, (zs - vol.origin[2]) / vol.spacing[2])
    return _read_only(vals.astype(np.uint8, copy=False))


def _frame_rng(noise: NoiseModel, position: np.ndarray, tag: str) -> np.random.Generator:
    """Generator keyed on (seed, model tag, capture position, frame shape).

    Re-segmenting the same frame with the same model reproduces the output
    bit for bit, independent of call order, which keeps concurrent trials
    deterministic. The shape is the fixed probe's.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(struct.pack("<q", int(noise.seed)))
    h.update(tag.encode("ascii"))
    quantized = np.round(position * 1000.0).astype(np.int64)
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
    vol: Volume3, position: np.ndarray, noise: NoiseModel | None, tag: str
) -> np.ndarray:
    truth = _truth(vol, position)
    if noise is None:
        return truth
    return _read_only(_corrupt(truth, _frame_rng(noise, position, tag)))


def segment_full(frame: UltrasoundFrame, noise: NoiseModel | None) -> np.ndarray:
    """Full-vein segmentation: the truth mask, corrupted unless ``noise`` is None."""
    return _segment(frame.scene.hv_annotation, frame.capture_position, noise, "full")


def segment_branch(frame: UltrasoundFrame, noise: NoiseModel | None) -> np.ndarray:
    """Junction-local segmentation: the branch truth under the same model."""
    return _segment(frame.scene.hv_branch_annotation, frame.capture_position, noise, "branch")
