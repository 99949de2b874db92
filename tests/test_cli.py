"""Command line interface tests, run in-process through ``cli.main``."""

import hashlib
import json

import numpy as np
import pytest

from usreg_sim import harness, pipeline
from usreg_sim.cli import EXIT_CONFIG, EXIT_OK, EXIT_PIPELINE, main
from usreg_sim.harness import SweepConfig
from usreg_sim.imgvol import (
    RigidTransform3, Volume3, inverse, load_volume, resample_crop, save_volume,
)
from usreg_sim.phantom import ct_frame_volume, generate_phantom, load_scene, place_phantom
from usreg_sim.pipeline import harmonize
from usreg_sim.registration import mutual_information

SMALL_CFG = {
    "trials": 1,
    "noise": "zero",
    "epsilons": [2.0, 6.0],
    "targets_limit": 2,
    "seed": 5,
}


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_CFG))
    return path


def test_print_config_is_loadable(capsys):
    assert main(["sweep", "--print-config"]) == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    assert SweepConfig.from_dict(printed) == SweepConfig()


def test_sweep_writes_reports(cfg_file, tmp_path, capsys):
    out = tmp_path / "reports"
    assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    for name in ("trials.csv", "registration.csv", "summary.json", "success_curve.svg", "timings.json"):
        assert (out / name).is_file()
        assert f"wrote {out / name}" in printed
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["trials"] == 1
    assert "search failures" in printed


def test_sweep_overrides_apply(cfg_file, tmp_path, capsys):
    out = tmp_path / "reports"
    code = main([
        "sweep", "--config", str(cfg_file), "--out", str(out),
        "--trials", "2", "--seed", "11",
    ])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["trials"] == 2
    assert summary["config"]["seed"] == 11


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_rejects_worker_count_below_one(cfg_file, tmp_path, capsys, monkeypatch, workers):
    def no_trials(*args, **kwargs):
        raise AssertionError("a rejected worker count ran a trial")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_trials)
    monkeypatch.setattr(harness, "run_trial", no_trials)
    out = tmp_path / "reports"
    code = main(["sweep", "--config", str(cfg_file), "--out", str(out), "--workers", workers])
    assert code == EXIT_CONFIG
    assert "workers must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_requires_out(capsys):
    assert main(["sweep"]) == EXIT_CONFIG
    assert "--out" in capsys.readouterr().err


def test_sweep_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"trials": 0}')
    assert main(["sweep", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"trials": "5"}', '{"seed": "a"}', '{"epsilons": [NaN]}'])
def test_run_trial_rejects_value_of_wrong_type(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["run-trial", "--config", str(bad)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


# a config that sets phantom, search or a placement bound, which are not
# config keys, is a config error before any trial runs: never a traceback
# (exit 1) from a value of the wrong type, nor a trial run with a NaN
# threshold
@pytest.mark.parametrize("text", [
    '{"search": {"max_center_iterations": 2.5}}',
    '{"phantom": {"targets_along": 2.5}}',
    '{"search": {"detect_area_px": NaN}}',
    '{"placement_x_mm": 10.0}',
])
def test_run_trial_rejects_phantom_and_search_overrides(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["run-trial", "--config", str(bad)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: unknown config keys")


def test_run_trial_rejects_epsilon_longer_than_phantom(tmp_path, capsys):
    # a finite scan range past the phantom's length is a config error, not an
    # overflow in the targets stage after the trial has run its map stage
    bad = tmp_path / "bad.json"
    bad.write_text('{"epsilons": [1e308]}')
    assert main(["run-trial", "--config", str(bad)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


def test_run_trial_rejects_negative_index(capsys):
    # a config error before the trial runs, not a pipeline failure (exit 3)
    assert main(["run-trial", "--index", "-1"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: --index: ") and "-1" in captured.err


def test_run_trial_has_no_trials_flag(capsys):
    # one trial reads no trial count, so only sweep takes --trials
    with pytest.raises(SystemExit) as info:
        main(["run-trial", "--trials", "2"])
    assert info.value.code == 2
    assert "unrecognized arguments: --trials 2" in capsys.readouterr().err


def test_sweep_rejects_unparseable_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sweep", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_sweep_rejects_missing_config(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert main(["sweep", "--config", str(missing), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_run_trial_prints_report(cfg_file, capsys):
    assert main(["run-trial", "--config", str(cfg_file), "--index", "0"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["search_success"] is True
    assert len(report["targets"]) == 2
    assert set(report["stage_ms"]) == {"setup", "search", "acquire", "map", "targets"}


# sha256 of the CLI's JSON outputs, so a refactor that must not change
# behaviour is checked byte for byte. Like DEFAULT_SWEEP_DIGESTS in
# test_acceptance.py they hold only for the numpy version pinned in
# .github/workflows/tier1.yml: the outputs print floats whose last bits
# depend on it. RUN_TRIAL_DIGEST and REGISTER_DIGESTS[0.0] held under the
# SkylakeX, Haswell, SandyBridge and Prescott OpenBLAS kernels alike
# (OPENBLAS_CORETYPE); REGISTER_DIGESTS[7.0] registers a yawed pair, holds
# under SkylakeX and Haswell, and fails under SandyBridge and Prescott
# (ROADMAP item 13).
RUN_TRIAL_DIGEST = "4bfd9140dd5e16cd03b552e09ef568af5918899081339386ea1ad8b9929ff045"
REGISTER_DIGESTS = {
    0.0: "09bec731f4699a2c4e40f8b5c45566ed70c7db85a030f1a0e0beb21ee2c33d88",
    7.0: "ca812fa0173e73f41353b535538fd6791886c1fb0d0e395d27f5d4d72c9f487e",
}


def test_run_trial_report_is_pinned(capsys):
    assert main(["run-trial", "--seed", "3", "--index", "1"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    del report["stage_ms"]  # wall-clock times, the one part that varies
    digest = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
    assert digest == RUN_TRIAL_DIGEST


@pytest.mark.parametrize("error", [
    RuntimeError("centralization did not settle within 200 iterations"),
    ValueError("(12.0, 190.0) is off the skin surface"),
], ids=["RuntimeError", "ValueError"])
def test_sweep_pipeline_failure_exits_3(tmp_path, capsys, monkeypatch, error):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(harness, "hv_search", failing)
    out = tmp_path / "reports"
    assert main(["sweep", "--trials", "1", "--out", str(out)]) == EXIT_PIPELINE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(error) in err
    assert not out.exists() or not any(out.iterdir())


def test_run_trial_pipeline_failure_exits_3(capsys, monkeypatch):
    def off_surface(*args, **kwargs):
        raise ValueError("(12.0, 190.0) is off the skin surface")

    monkeypatch.setattr(harness, "hv_search", off_surface)
    assert main(["run-trial"]) == EXIT_PIPELINE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "off the skin surface" in captured.err


def test_run_trial_search_failure_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pipeline, "SEARCH_DETECT_AREA_PX", 1e9)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 1, "noise": "zero", "epsilons": [2.0]}))
    assert main(["run-trial", "--config", str(cfg)]) == EXIT_PIPELINE
    captured = capsys.readouterr()
    assert json.loads(captured.out)["search_success"] is False
    assert "search failed" in captured.err


def _off_skin_slice_match(call: int, offset=None):
    """``slice_match`` whose ``call``-th run starts off the skin.

    With ``offset``, only in the trial whose placement moves the phantom by
    that (x, y), so it picks the same trial in every process of a forked
    pool. The real ``move_to`` raises the error.
    """
    calls = []

    def match(scene, noise, target_ct, ct_to_physical, branch_pos, ct_veins):
        if offset is None or np.allclose(scene.placement.translation[:2], offset, atol=1e-6):
            calls.append(target_ct)
            if len(calls) == call:
                branch_pos = branch_pos + np.array([0.0, 1000.0, 0.0])
        return pipeline.slice_match(scene, noise, target_ct, ct_to_physical, branch_pos, ct_veins)

    return match


def test_sweep_with_an_off_skin_trial_exits_0_with_its_reports(tmp_path, capsys, monkeypatch):
    """A probe move off the skin fails its trial as a value, in a pooled sweep.

    Trial 1's second slice match starts off the skin in a forked worker:
    the sweep exits 0, trial 1 keeps its registration row and writes no
    target rows, and trials 0 and 2 write exactly a clean run's rows.
    """
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_CFG, "trials": 3}))
    run = ["sweep", "--config", str(cfg), "--workers", "2", "--out"]
    assert main(run + [str(tmp_path / "clean")]) == EXIT_OK

    def lines(run, name):
        return (tmp_path / run / name).read_text().splitlines()

    trial_1 = next(row for row in lines("clean", "registration.csv") if row.startswith("1,"))
    offset = [float(v) for v in trial_1.split(",")[2:4]]
    monkeypatch.setattr(harness, "slice_match", _off_skin_slice_match(call=2, offset=offset))
    assert main(run + [str(tmp_path / "faulty")]) == EXIT_OK
    assert "(0 search failures, 1 off the skin after the search)" in capsys.readouterr().out

    clean, faulty = lines("clean", "trials.csv"), lines("faulty", "trials.csv")
    assert faulty == [row for row in clean if not row.startswith("1,")]
    assert len(faulty) == 1 + 2 * SMALL_CFG["targets_limit"] * len(SMALL_CFG["epsilons"])
    assert lines("faulty", "registration.csv") == lines("clean", "registration.csv")
    summary = json.loads((tmp_path / "faulty" / "summary.json").read_text())
    assert summary["n_search_failures"] == 0 and summary["registration"]["trials"] == 3
    assert min(row["min"] for row in summary["success"]) == 0.0
    timings = json.loads((tmp_path / "faulty" / "timings.json").read_text())
    assert [t["index"] for t in timings["trials"]] == [0, 1, 2]
    assert list(timings["trials"][1]["stage_ms"]) == ["setup", "search", "acquire", "map", "targets"]


def test_run_trial_off_skin_after_the_search_exits_3(cfg_file, capsys, monkeypatch):
    monkeypatch.setattr(harness, "slice_match", _off_skin_slice_match(call=1))
    assert main(["run-trial", "--config", str(cfg_file)]) == EXIT_PIPELINE
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["search_success"] is True and report["targets"] == []
    assert report["registration"] is not None
    assert captured.err.count("\n") == 1 and "off the skin" in captured.err


@pytest.fixture(params=[0.0, 7.0], ids=["yaw0", "yaw7"])
def register_pair(request, tmp_path):
    """The phantom-3 annotation in the CT frame (fixed) and placed (moving).

    Also returns the yaw of the placement and the placement itself.
    """
    scene = place_phantom(generate_phantom(3), [12.0, -8.0, 0.0], yaw_deg=request.param)
    fpath, mpath = tmp_path / "fixed.vol", tmp_path / "moving.vol"
    save_volume(ct_frame_volume(scene.hv_annotation, scene.placement), fpath)
    save_volume(scene.hv_annotation, mpath)
    return fpath, mpath, request.param, scene.placement


def test_register_emits_transform(register_pair, capsys):
    fpath, mpath, yaw, placement = register_pair

    assert main(["register", str(fpath), str(mpath)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {
        "rotation", "translation", "score_before", "score_after",
        "dice_before", "dice_after",
    }
    # moving is the placed volume, fixed the same one in the CT frame, so the
    # recovered map is the inverse placement
    truth = inverse(placement)
    assert np.allclose(report["rotation"], truth.rotation, atol=1e-2 if yaw else 1e-9)
    assert np.allclose(report["translation"], truth.translation, atol=2.0)
    if yaw:
        # the centroid init leaves the yaw to the solver
        assert report["dice_after"] > report["dice_before"]
        assert report["score_after"] > report["score_before"]
    else:
        # a pure translation: the centroid init already aligns the grids
        assert report["dice_after"] >= report["dice_before"] - 1e-12
        assert report["score_after"] >= report["score_before"] - 1e-12


def test_register_prints_the_solver_scores(register_pair, capsys):
    fpath, mpath, _, _ = register_pair
    assert main(["register", str(fpath), str(mpath)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    t = RigidTransform3(np.array(report["rotation"]), np.array(report["translation"]))
    hf, hm, init = harmonize(load_volume(fpath), load_volume(mpath))
    before, after = mutual_information(hf, hm, [init, t])
    assert (report["score_before"], report["score_after"]) == (before, after)

    assert main(["register", str(fpath), str(fpath)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["dice_before"] == report["dice_after"] == 1.0
    assert report["score_before"] == report["score_after"]


def test_register_output_is_pinned(register_pair, capsys):
    fpath, mpath, yaw, _ = register_pair
    assert main(["register", str(fpath), str(mpath)]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == REGISTER_DIGESTS[yaw]


def test_register_crops_each_mask_once(register_pair, capsys, monkeypatch):
    fpath, mpath, _, _ = register_pair
    crops = []

    def counting_crop(*args, **kwargs):
        crops.append(args[0].shape)
        return resample_crop(*args, **kwargs)

    monkeypatch.setattr(pipeline, "resample_crop", counting_crop)
    assert main(["register", str(fpath), str(mpath)]) == EXIT_OK
    assert len(crops) == 2


def test_register_accepts_float_masks(register_pair, tmp_path, capsys):
    fpath, mpath, _, _ = register_pair
    assert main(["register", str(fpath), str(mpath)]) == EXIT_OK
    want = json.loads(capsys.readouterr().out)
    paths = []
    for path in (fpath, mpath):
        vol = load_volume(path)
        as_f32 = Volume3(vol.data.astype(np.float32), vol.spacing, vol.origin, vol.axes)
        paths.append(str(save_volume(as_f32, tmp_path / f"f32_{path.name}")))
    assert main(["register", *paths]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == want


def test_register_missing_file_exits_2(tmp_path, capsys):
    ghost = tmp_path / "ghost.vol"
    assert main(["register", str(ghost), str(ghost)]) == EXIT_CONFIG


def test_register_header_without_geometry_exits_2(tmp_path, capsys):
    vol = Volume3(np.ones((2, 2, 2), dtype=np.uint8), (1, 1, 1), (0, 0, 0), np.eye(3))
    path = save_volume(vol, tmp_path / "v.vol")
    header = json.loads(path.read_text())
    del header["axes"]
    path.write_text(json.dumps(header))
    assert main(["register", str(path), str(path)]) == EXIT_CONFIG
    assert "malformed volume header" in capsys.readouterr().err


def test_register_header_of_wrong_type_exits_2(tmp_path, capsys):
    vol = Volume3(np.ones((2, 2, 2), dtype=np.uint8), (1, 1, 1), (0, 0, 0), np.eye(3))
    path = save_volume(vol, tmp_path / "v.vol")
    header = json.loads(path.read_text())
    for name, bad in (("list", [header]), ("dtype", {**header, "dtype": ["u8"]})):
        bad_path = tmp_path / f"{name}.vol"
        bad_path.write_text(json.dumps(bad))
        assert main(["register", str(bad_path), str(path)]) == EXIT_CONFIG, name
        err = capsys.readouterr().err
        assert err.startswith("error: malformed volume header") and err.count("\n") == 1, err


def test_register_header_not_json_exits_2_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.vol"
    bad.write_text("not a header\n")
    assert main(["register", str(bad), str(bad)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed volume header {bad}: ") and err.count("\n") == 1, err


def test_register_nan_origin_exits_2_naming_the_file(tmp_path, capsys):
    vol = Volume3(np.ones((2, 2, 2), dtype=np.uint8), (1, 1, 1), (0, 0, 0), np.eye(3))
    good = save_volume(vol, tmp_path / "good.vol")
    bad = save_volume(vol, tmp_path / "bad.vol")
    bad.write_text(json.dumps({**json.loads(bad.read_text()), "origin": [float("nan"), 0, 0]}))
    assert main(["register", str(good), str(bad)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed volume header {bad}: ") and "finite" in err, err


def test_register_bool_spacing_exits_2_naming_the_file(tmp_path, capsys):
    vol = Volume3(np.ones((2, 2, 2), dtype=np.uint8), (1, 1, 1), (0, 0, 0), np.eye(3))
    good = save_volume(vol, tmp_path / "good.vol")
    bad = save_volume(vol, tmp_path / "bad.vol")
    bad.write_text(json.dumps({**json.loads(bad.read_text()), "spacing": [True, 1, 1]}))
    assert main(["register", str(good), str(bad)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed volume header {bad}: spacing must be a list") and err.count("\n") == 1, err


def test_register_unknown_dtype_exits_2(tmp_path, capsys):
    vol = Volume3(np.ones((2, 2, 2), dtype=np.uint8), (1, 1, 1), (0, 0, 0), np.eye(3))
    path = save_volume(vol, tmp_path / "v.vol")
    path.write_text(json.dumps({**json.loads(path.read_text()), "dtype": "u16"}))
    assert main(["register", str(path), str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unsupported dtype 'u16'" in err and "missing" not in err


def test_phantom_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "scene"
    code = main([
        "phantom", "gen", "--out", str(out), "--seed", "7",
        "--offset-x", "18", "--offset-y", "-12",
    ])
    assert code == EXIT_OK
    scene = load_scene(out)
    assert scene.seed == 7
    assert np.allclose(scene.placement.translation, [18.0, -12.0, 0.0])


@pytest.mark.parametrize("flag, value, name", [
    ("--offset-x", "nan", "offset"),
    ("--offset-y", "inf", "offset"),
    ("--yaw", "nan", "yaw"),
])
def test_phantom_gen_rejects_non_finite_placement(tmp_path, capsys, flag, value, name):
    out = tmp_path / "scene"
    assert main(["phantom", "gen", "--out", str(out), flag, value]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and err.count("\n") == 1
    assert not out.exists()
