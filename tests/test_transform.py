import numpy as np
import pytest

from usreg_sim.imgvol import (
    RigidTransform3,
    compose,
    euler_zyx,
    inverse,
    rotation_about,
    rotation_z,
    translation,
)


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_apply_worked_example():
    # Rz(90) maps (1,0,0) to (0,1,0); adding t=(1,0,0) gives (1,1,0).
    t = RigidTransform3(rotation_z(90.0), [1.0, 0.0, 0.0])
    np.testing.assert_allclose(t.apply([1.0, 0.0, 0.0]), [1.0, 1.0, 0.0], atol=1e-12)


def test_identity_is_noop():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(40, 3))
    np.testing.assert_array_equal(RigidTransform3.identity().apply(pts), pts)


def test_compose_applies_inner_first():
    rng = np.random.default_rng(1)
    a = RigidTransform3(random_rotation(rng), rng.normal(size=3))
    b = RigidTransform3(random_rotation(rng), rng.normal(size=3))
    pts = rng.normal(size=(25, 3))
    np.testing.assert_allclose(compose(a, b).apply(pts), a.apply(b.apply(pts)), atol=1e-12)


def test_inverse_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(100):
        t = RigidTransform3(random_rotation(rng), rng.normal(size=3) * 50)
        pts = rng.normal(size=(10, 3)) * 100
        np.testing.assert_allclose(inverse(t).apply(t.apply(pts)), pts, atol=1e-9)
        back = compose(t, inverse(t))
        np.testing.assert_allclose(back.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(back.translation, 0, atol=1e-9)


def test_reflection_rejected():
    with pytest.raises(ValueError):
        RigidTransform3(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


def test_non_orthonormal_rejected():
    with pytest.raises(ValueError):
        RigidTransform3(np.eye(3) * 2.0, np.zeros(3))


def test_huge_finite_rotation_rejected_without_overflow_warning():
    # finite entries whose products overflow: the residual is inf or NaN,
    # which must fail the check as a ValueError, not escape as a warning
    # (pytest turns a RuntimeWarning into an error)
    rot = np.array([[1e200, 1e200, 0.0], [1e200, -1e200, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="not orthonormal"):
        RigidTransform3(rot, np.zeros(3))


@pytest.mark.parametrize("rotation, translation", [
    (np.full((3, 3), np.nan), np.zeros(3)),
    (np.full((3, 3), np.inf), np.zeros(3)),
    (np.diag([1.0, np.nan, 1.0]), np.zeros(3)),
    (np.diag([-np.inf, 1.0, 1.0]), np.zeros(3)),
    (np.eye(3), [0.0, np.nan, 0.0]),
    (np.eye(3), [np.inf, 0.0, 0.0]),
    (np.eye(3), [0.0, 0.0, -np.inf]),
], ids=["nan-rotation", "inf-rotation", "nan-entry", "inf-entry",
        "nan-translation", "inf-translation", "neg-inf-translation"])
def test_non_finite_rejected(rotation, translation):
    with pytest.raises(ValueError, match="must be finite"):
        RigidTransform3(rotation, translation)


def test_euler_zyx_matches_axis_rotations():
    np.testing.assert_allclose(euler_zyx(90, 0, 0), rotation_z(90), atol=1e-12)
    # yaw-only rotation keeps z fixed
    r = euler_zyx(37.0, 0, 0)
    np.testing.assert_allclose(r @ [0, 0, 1], [0, 0, 1], atol=1e-12)


def test_rotation_about_fixes_center():
    center = np.array([5.0, -3.0, 2.0])
    t = rotation_about(rotation_z(33.0), center)
    np.testing.assert_allclose(t.apply(center), center, atol=1e-12)


def test_translation_factory():
    t = translation([1.0, 2.0, 3.0])
    np.testing.assert_allclose(t.apply([0.0, 0.0, 0.0]), [1.0, 2.0, 3.0])


def test_transform_leaves_the_callers_arrays_writable_and_unshared():
    rot, tra = rotation_z(30.0), np.array([1.0, 2.0, 3.0])
    t = RigidTransform3(rot, tra)
    assert rot.flags.writeable and tra.flags.writeable
    rot[...] = np.eye(3)
    tra[0] = 9.0
    np.testing.assert_array_equal(t.rotation, rotation_z(30.0))
    np.testing.assert_array_equal(t.translation, [1.0, 2.0, 3.0])
    assert not t.rotation.flags.writeable and not t.translation.flags.writeable


def test_transform_does_not_follow_writes_to_a_viewed_base():
    base = np.vstack([rotation_z(30.0), [[1.0, 2.0, 3.0]]])
    t = RigidTransform3(base[:3], base[3])
    ro = base[3].view()
    ro.flags.writeable = False
    t_ro = RigidTransform3(np.eye(3), ro)
    base[...] = 0.0
    np.testing.assert_array_equal(t.rotation, rotation_z(30.0))
    np.testing.assert_array_equal(t.translation, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(t_ro.translation, [1.0, 2.0, 3.0])


def test_transform_shares_read_only_inputs():
    t = rotation_about(rotation_z(12.0), [1.0, 2.0, 3.0])
    again = RigidTransform3(t.rotation, t.translation)
    assert again.rotation is t.rotation and again.translation is t.translation
