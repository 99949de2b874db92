"""Rigid transforms between 3D coordinate frames.

A rigid transform is a proper rotation plus a translation; points map as
``p -> R @ p + t``. Both parts must be finite, and rotations orthonormal
with determinant +1 (reflections are rejected at construction).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ORTHO_TOL = 1e-7


def _freeze(value, dtype=None) -> np.ndarray:
    """``value`` as a read-only C-contiguous array that no other handle can write.

    An array made here (from a list, or by a dtype change or a reordering
    copy) is frozen in place. An input that is writable, or that views
    memory something else can write, is copied, so neither the caller's
    array nor a later write through its base reaches the frozen one. A
    read-only input over read-only memory is shared.
    """
    arr = np.ascontiguousarray(value, dtype=dtype)
    made_here = arr is not value and arr.base is None
    if not made_here and _writable_memory(arr):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _writable_memory(arr: np.ndarray) -> bool:
    """Whether ``arr``, an array it views, or the buffer under them is writable."""
    base = arr
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            return True
        base = base.base
    if base is None:
        return False
    try:
        return not memoryview(base).readonly
    except TypeError:  # not a buffer: assume something can write it
        return True


@dataclass(frozen=True)
class RigidTransform3:
    """Proper rigid motion of 3D space: ``apply(p) = rotation @ p + translation``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        rot = _freeze(self.rotation, np.float64)
        tra = _freeze(self.translation, np.float64)
        if rot.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {rot.shape}")
        if tra.shape != (3,):
            raise ValueError(f"translation must be a 3-vector, got {tra.shape}")
        if not (np.isfinite(rot).all() and np.isfinite(tra).all()):
            raise ValueError("rotation and translation must be finite")
        # a residual that overflowed to NaN fails every comparison, so test for passing
        err = np.abs(rot @ rot.T - np.eye(3)).max()
        if not err <= ORTHO_TOL:
            raise ValueError(f"rotation is not orthonormal (max residual {err:.3e})")
        det = np.linalg.det(rot)
        if not det > 0:
            raise ValueError(f"rotation has negative determinant ({det:.6f}); reflections are not rigid")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map one point (3,) or a batch (..., 3) of points."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.apply(points)

    @staticmethod
    def identity() -> "RigidTransform3":
        return RigidTransform3(np.eye(3), np.zeros(3))


def translation(delta) -> RigidTransform3:
    """Pure translation by ``delta`` (mm)."""
    return RigidTransform3(np.eye(3), np.asarray(delta, dtype=np.float64))


def compose(outer: RigidTransform3, inner: RigidTransform3) -> RigidTransform3:
    """Transform applying ``inner`` first, then ``outer``."""
    return RigidTransform3(
        outer.rotation @ inner.rotation,
        outer.rotation @ inner.translation + outer.translation,
    )


def inverse(t: RigidTransform3) -> RigidTransform3:
    rot_inv = t.rotation.T
    return RigidTransform3(rot_inv, -rot_inv @ t.translation)


def rotation_z(angle_deg: float) -> np.ndarray:
    """Rotation matrix about +z (yaw), angle in degrees."""
    a = math.radians(angle_deg)
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def euler_zyx(yaw_deg: float, pitch_deg: float, roll_deg: float) -> np.ndarray:
    """Rotation matrix for intrinsic z-y-x Euler angles (degrees)."""
    y, p, r = (math.radians(v) for v in (yaw_deg, pitch_deg, roll_deg))
    cz, sz = math.cos(y), math.sin(y)
    cy, sy = math.cos(p), math.sin(p)
    cx, sx = math.cos(r), math.sin(r)
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]], dtype=np.float64)
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]], dtype=np.float64)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]], dtype=np.float64)
    return rz @ ry @ rx


def rotation_about(rotation: np.ndarray, center, extra_translation=(0.0, 0.0, 0.0)) -> RigidTransform3:
    """Rigid transform rotating about ``center`` then translating by ``extra_translation``.

    ``apply(p) = R @ (p - c) + c + t``; the fixed point of the pure rotation is ``center``.
    """
    c = np.asarray(center, dtype=np.float64)
    t = np.asarray(extra_translation, dtype=np.float64)
    rot = np.asarray(rotation, dtype=np.float64)
    return RigidTransform3(rot, c + t - rot @ c)
