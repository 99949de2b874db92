import json
import re

import numpy as np
import pytest

from usreg_sim.imgvol import Volume3, load_volume, save_volume


def test_vol_round_trip_u8(tmp_path):
    rng = np.random.default_rng(0)
    data = (rng.random((5, 6, 7)) < 0.3).astype(np.uint8)
    axes = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, -1.0]])
    vol = Volume3(data, (0.5, 1.0, 2.0), (3.0, -1.0, 10.0), axes)
    path = save_volume(vol, tmp_path / "mask.vol")
    back = load_volume(path)
    np.testing.assert_array_equal(back.data, data)
    assert back.data.dtype == np.uint8
    np.testing.assert_allclose(back.spacing, vol.spacing)
    np.testing.assert_allclose(back.origin, vol.origin)
    np.testing.assert_allclose(back.axes, vol.axes)


def test_vol_round_trip_f32(tmp_path):
    rng = np.random.default_rng(1)
    data = rng.random((4, 4, 4)).astype(np.float32)
    vol = Volume3(data, (1, 1, 1), (0, 0, 0), np.eye(3))
    back = load_volume(save_volume(vol, tmp_path / "img.vol"))
    np.testing.assert_array_equal(back.data, data)
    assert back.data.dtype == np.dtype("<f4")


def test_vol_integer_data_round_trips_within_u8_and_is_refused_outside(tmp_path):
    data = np.array([0, 7, 255, 3], dtype=np.int16).reshape(1, 2, 2)
    back = load_volume(save_volume(Volume3(data, (1, 1, 1), (0, 0, 0), np.eye(3)), tmp_path / "ok.vol"))
    np.testing.assert_array_equal(back.data, data)
    assert back.data.dtype == np.uint8
    # u8 would wrap 300 to 44 and -1 to 255, so neither is written
    for i, bad in enumerate((300, -1)):
        vol = Volume3(np.full((1, 2, 2), bad, dtype=np.int16), (1, 1, 1), (0, 0, 0), np.eye(3))
        path = tmp_path / f"bad{i}.vol"
        with pytest.raises(ValueError, match=f"spans {bad}..{bad}, u8 holds 0..255") as info:
            save_volume(vol, path)
        assert str(path) in str(info.value)
        assert not path.exists()
    # an empty integer volume has no value to range-check
    empty = Volume3(np.zeros((0, 2, 2), dtype=np.int64), (1, 1, 1), (0, 0, 0), np.eye(3))
    assert load_volume(save_volume(empty, tmp_path / "empty.vol")).shape == (0, 2, 2)


def test_vol_bool_data_is_written_as_u8(tmp_path):
    data = np.array([True, False, True, True, False, False, True, False]).reshape(2, 2, 2)
    path = save_volume(Volume3(data, (1, 1, 1), (0, 0, 0), np.eye(3)), tmp_path / "mask.vol")
    header = json.loads(path.read_text())
    assert header["dtype"] == "u8"
    assert (tmp_path / header["data_file"]).read_bytes() == bytes([1, 0, 1, 1, 0, 0, 1, 0])
    back = load_volume(path)
    assert back.data.dtype == np.uint8
    np.testing.assert_array_equal(back.data, data.astype(np.uint8))


def test_vol_header_is_json_with_expected_fields(tmp_path):
    vol = Volume3(np.zeros((2, 3, 4), dtype=np.uint8), (1, 1, 1), (0, 0, 0), np.eye(3))
    path = save_volume(vol, tmp_path / "v.vol")
    header = json.loads(path.read_text())
    assert header["shape"] == [2, 3, 4]
    assert header["dtype"] == "u8"
    assert (tmp_path / header["data_file"]).exists()
    payload = (tmp_path / header["data_file"]).read_bytes()
    assert len(payload) == 2 * 3 * 4


def test_vol_payload_size_mismatch(tmp_path):
    vol = Volume3(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1), (0, 0, 0), np.eye(3))
    path = save_volume(vol, tmp_path / "v.vol")
    header = json.loads(path.read_text())
    (tmp_path / header["data_file"]).write_bytes(b"\x00" * 3)
    with pytest.raises(ValueError):
        load_volume(path)


@pytest.mark.parametrize("key", ["spacing", "origin", "axes"])
def test_vol_header_missing_geometry_key(tmp_path, key):
    vol = Volume3(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1), (0, 0, 0), np.eye(3))
    path = save_volume(vol, tmp_path / "v.vol")
    header = json.loads(path.read_text())
    del header[key]
    path.write_text(json.dumps(header))
    with pytest.raises(ValueError, match=f"malformed volume header .*missing '{key}'"):
        load_volume(path)


@pytest.mark.parametrize("tag", ["u16", "f64", ["u8"]])
def test_vol_header_unknown_dtype_is_named(tmp_path, tag):
    vol = Volume3(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1), (0, 0, 0), np.eye(3))
    path = save_volume(vol, tmp_path / "v.vol")
    header = json.loads(path.read_text())
    path.write_text(json.dumps({**header, "dtype": tag}))
    with pytest.raises(ValueError, match=r"unsupported dtype .*accepted: \['f32', 'u8'\]") as err:
        load_volume(path)
    assert repr(tag) in str(err.value) and "missing" not in str(err.value)


@pytest.mark.parametrize("key, bad, why", [
    ("spacing", [1.0, float("inf"), 1.0], "must be finite"),
    ("origin", [float("nan"), 0.0, 0.0], "must be finite"),
    ("axes", [[float("nan")] * 3] * 3, "must be finite"),
    ("axes", [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], "orthogonal unit vectors"),
])
def test_vol_header_with_bad_geometry_is_named(tmp_path, key, bad, why):
    vol = Volume3(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1), (0, 0, 0), np.eye(3))
    path = save_volume(vol, tmp_path / "v.vol")
    path.write_text(json.dumps({**json.loads(path.read_text()), key: bad}))
    with pytest.raises(ValueError, match=f"malformed volume header {re.escape(str(path))}: .*{why}"):
        load_volume(path)


@pytest.mark.parametrize("shape", [
    [2.7, 2, 2], [2.0, 2, 2], [True, 8, 1], ["2", 2, 2], [-2, -2, 2], "222", {"0": 2},
], ids=["fraction", "float", "bool", "string", "negative", "not-a-list", "object"])
def test_vol_header_shape_must_be_non_negative_json_integers(tmp_path, shape):
    # each of these used to pass through int() and load a volume, or fail elsewhere
    vol = Volume3(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1), (0, 0, 0), np.eye(3))
    path = save_volume(vol, tmp_path / "v.vol")
    path.write_text(json.dumps({**json.loads(path.read_text()), "shape": shape}))
    with pytest.raises(ValueError, match=f"malformed volume header {re.escape(str(path))}: shape must be a list"):
        load_volume(path)


@pytest.mark.parametrize("key, bad", [
    ("spacing", ["1.5", True, 2]),
    ("spacing", [1.0, True, 1.0]),
    ("origin", [True, "0", False]),
    ("origin", ["0", 0.0, 0.0]),
    ("axes", [[True, False, False], [False, True, False], [False, False, True]]),
    ("axes", [["1", 0, 0], [0, 1, 0], [0, 0, 1]]),
], ids=["spacing-string-and-bool", "spacing-bool", "origin-bools", "origin-string", "axes-bools", "axes-string"])
def test_vol_header_geometry_must_be_json_numbers(tmp_path, key, bad):
    # each of these used to be coerced to floats and load a volume
    vol = Volume3(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1), (0, 0, 0), np.eye(3))
    path = save_volume(vol, tmp_path / "v.vol")
    path.write_text(json.dumps({**json.loads(path.read_text()), key: bad}))
    with pytest.raises(ValueError, match=f"malformed volume header {re.escape(str(path))}: {key} must be a list"):
        load_volume(path)


@pytest.mark.parametrize("text, why", [
    (b"", "Expecting value"),
    (b"shape: [2, 2, 2]\n", "Expecting value"),
    (b'{"shape": [2, 2, 2],', "Expecting"),
    (b'{"dtype": "\xff"}', "codec can't decode"),
], ids=["empty", "not-json", "truncated", "not-utf8"])
def test_vol_header_that_is_not_json_is_named(tmp_path, text, why):
    path = tmp_path / "v.vol"
    path.write_bytes(text)
    with pytest.raises(ValueError, match=f"malformed volume header {re.escape(str(path))}: .*{why}"):
        load_volume(path)


def test_vol_missing_header_is_an_os_error_naming_the_file(tmp_path):
    path = tmp_path / "ghost.vol"
    with pytest.raises(FileNotFoundError) as err:
        load_volume(path)
    assert str(path) in str(err.value)
