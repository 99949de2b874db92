"""The package runs on numpy alone: no entry point loads scipy.

Each check runs in a fresh interpreter: registration (``register_rigid``,
``coordinate_map`` and ``usreg-sim register``), a pooled sweep with its
reports, and ``usreg-sim run-trial``. Only the tests' oracles use scipy.
A fresh interpreter also shows when the shared phantom is built.
"""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import usreg_sim

SRC = Path(usreg_sim.__file__).resolve().parent.parent


def _run(script: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_registration_path_loads_no_scipy(tmp_path):
    out = _run(f"""
        import contextlib, io, json, sys

        import numpy as np
        import usreg_sim, usreg_sim.cli
        from usreg_sim import cli
        from usreg_sim.imgvol import Volume3, save_volume, translation
        from usreg_sim.phantom import ct_frame_volume, generate_phantom, place_phantom
        from usreg_sim.pipeline import coordinate_map, harmonize
        from usreg_sim.registration import RegistrationConfig, register_rigid

        rng = np.random.default_rng(7)
        data = np.zeros((14, 14, 14), dtype=np.uint8)
        data[4:10, 5:9, 3:11] = rng.random((6, 4, 8)) < 0.7
        fixed = Volume3(data, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), np.eye(3))
        moving = Volume3(data, fixed.spacing, fixed.origin + [1.0, -1.0, 0.0], fixed.axes)
        register_rigid(fixed, moving, translation([-1.0, 1.0, 0.0]), RegistrationConfig(seed=0))

        scene = place_phantom(generate_phantom(3), [12.0, -8.0, 0.0], yaw_deg=7.0)
        ct = ct_frame_volume(scene.hv_annotation, scene.placement)
        coordinate_map(*harmonize(scene.hv_annotation, ct))
        save_volume(ct, {str(tmp_path / "fixed.vol")!r})
        save_volume(scene.hv_annotation, {str(tmp_path / "moving.vol")!r})
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["register", {str(tmp_path / "fixed.vol")!r}, {str(tmp_path / "moving.vol")!r}])
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        print(json.dumps({{"code": code, "scipy": loaded}}))
    """)
    assert out == {"code": 0, "scipy": []}


def test_sweep_and_run_trial_load_no_scipy(tmp_path):
    # the pool's workers fork from a parent that holds no scipy module and
    # run the same run_trial that run-trial runs here, in this process
    (tmp_path / "cfg.json").write_text(json.dumps({"targets_limit": 2}))
    out = _run(f"""
        import contextlib, io, json, sys

        from usreg_sim import cli
        from usreg_sim.harness import SweepConfig, emit_reports, run_sweep

        result = run_sweep(SweepConfig(trials=2, targets_limit=2), workers=2)
        emit_reports(result, {str(tmp_path / "reports")!r})
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run-trial", "--config", {str(tmp_path / "cfg.json")!r}, "--index", "1"])
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        print(json.dumps({{"trials": len(result.trials), "code": code, "scipy": loaded}}))
    """)
    assert out == {"trials": 2, "code": 0, "scipy": []}


def test_config_builds_no_phantom_and_a_pooled_sweep_builds_it_before_forking():
    # a config only validates, so parsing one (sweep --print-config) builds
    # nothing; a pooled sweep's parent builds the phantom its workers inherit
    out = _run("""
        import json

        from usreg_sim import phantom
        from usreg_sim.harness import SweepConfig, run_sweep

        cfg = SweepConfig(trials=2, targets_limit=2)
        built = [phantom._phantom_geometry.cache_info().currsize]
        run_sweep(cfg, workers=2)
        built.append(phantom._phantom_geometry.cache_info().currsize)
        print(json.dumps(built))
    """)
    assert out == [0, 1]
