"""Release gate: the nine end-to-end checks the package must pass.

Each test prints a single ``ACCEPTANCE n: PASS`` / ``FAIL`` verdict line
(run ``pytest -s tests/test_acceptance.py`` to see the scorecard) and then
asserts with the measured numbers, so a red run still reports every check.

The checks, in order:

1. precision/recall/dice agree exactly with rational brute-force counting
   on randomized mask pairs plus a worked example, in under a second.
2. the overlap-under-translation score equals an exhaustive offset scan
   on 100 seeded pairs, exactly, in under five seconds.
3. rigid registration recovers seeded misalignments (translation within
   10 mm, yaw within 5 degrees) of the vessel annotation to one voxel and
   one degree in at least 18/20 cases, in under 30 s at 64-class volumes,
   with transforms, scores and traces matching a pinned sha256.
4. with calibrated noise, registration improves the vessel-mask dice in
   at least 95% of 20 end-to-end trials, by at least 0.05 on average.
5. a zero-noise translation-only trial lands at least 95 of 100 targets
   within one acquisition slice spacing, in under 30 s.
6. the default 5-trial noisy sweep yields a success curve that is
   non-decreasing in the scan range, with at least a 10-point spread
   between the widest and narrowest range.
7. the calibrated noise preset keeps the segmentation oracle's mean dice
   against frame truth inside [0.75, 0.95] over 64 frames.
8. two sweeps with identical config produce byte-identical reports.
9. 1000 randomized voxel/physical round-trips and compose/inverse
   identities hold to 1e-9.
"""
import hashlib
import time

import numpy as np

from usreg_sim.harness import SweepConfig, emit_reports, run_sweep, run_trial, success_rates
from usreg_sim.imgvol import (
    Volume3,
    centroid,
    compose,
    dice,
    euler_zyx,
    inverse,
    omia,
    physical_to_voxel,
    precision,
    recall,
    resample_crop,
    rotation_about,
    rotation_z,
    translation,
    voxel_to_physical,
)
from usreg_sim.phantom import PhantomParams, ct_frame_volume, generate_phantom, place_phantom
from usreg_sim.pipeline import HARMONIZE_SHAPE, HARMONIZE_SPACING_MM, hv_acquire, hv_search
from usreg_sim.probe import NOISE_PRESETS, NoiseModel, capture_us, initial_contact, move_to, segment_full
from usreg_sim.registration import RegistrationConfig, apply_transform, register_rigid

from _oracles import brute_force_omia, brute_ratio_metrics


def _verdict(n: int, ok: bool) -> bool:
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_acceptance_1_ratio_metrics_match_rational_oracle():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    exact = True
    for _ in range(50):
        shape = tuple(int(s) for s in rng.integers(2, 17, size=3))
        pred = (rng.random(shape) < rng.uniform(0.05, 0.95)).astype(np.uint8)
        truth = (rng.random(shape) < rng.uniform(0.05, 0.95)).astype(np.uint8)
        bp, br, bd = brute_ratio_metrics(pred, truth)
        exact &= precision(pred, truth) == float(bp)
        exact &= recall(pred, truth) == float(br)
        exact &= dice(pred, truth) == float(bd)
    pred = np.zeros((4, 4), dtype=np.uint8)
    truth = np.zeros((4, 4), dtype=np.uint8)
    pred[0, 0:4] = 1
    truth[0, 0:3] = 1
    truth[1, 0:3] = 1
    worked = (
        precision(pred, truth) == 0.75
        and recall(pred, truth) == 0.5
        and dice(pred, truth) == 0.6
    )
    elapsed = time.perf_counter() - t0
    ok = exact and worked and elapsed < 1.0
    assert _verdict(1, ok), f"exact={exact} worked={worked} elapsed={elapsed:.2f}s"


def test_acceptance_2_overlap_score_matches_exhaustive_scan():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    exact = True
    for _ in range(100):
        th, tw = (int(s) for s in rng.integers(2, 17, size=2))
        ph = int(rng.integers(1, th + 1))
        pw = int(rng.integers(1, tw + 1))
        pred = (rng.random((ph, pw)) < rng.uniform(0.1, 0.9)).astype(np.uint8)
        truth = (rng.random((th, tw)) < rng.uniform(0.1, 0.9)).astype(np.uint8)
        exact &= omia(pred, truth) == brute_force_omia(pred, truth)
    elapsed = time.perf_counter() - t0
    ok = exact and elapsed < 5.0
    assert _verdict(2, ok), f"exact={exact} elapsed={elapsed:.2f}s"


# sha256 over the 20 cases, in order, of each result's rotation, translation
# and score bytes, then its coarse and fine traces as float64 bytes: pins
# the solver's transforms, scores and traces bit for bit. The bits belong
# to numpy 2.4.6, as pinned in CI, and to the OpenBLAS kernel its bundled
# BLAS picks at start-up: SkylakeX on an AVX-512 CPU (OPENBLAS_VERBOSE=2
# prints it). The rotated products round differently under the Haswell,
# SandyBridge and Prescott kernels, and this digest fails under each
# (ROADMAP item 13). No package path loads scipy.
ACCEPTANCE_3_DIGEST = "e7dfced354665e42fda24435b5ce69037c75927c667beeda26a1c3367b4d1d91"


def test_acceptance_3_registration_recovers_seeded_misalignments():
    t0 = time.perf_counter()
    annotation = generate_phantom(seed=5).hv_annotation
    rng = np.random.default_rng(33)
    hits = 0
    cases = []
    digest = hashlib.sha256()
    for k in range(20):
        shift = rng.uniform(-10.0, 10.0, 3)
        yaw = float(rng.uniform(-5.0, 5.0))
        truth_move = compose(
            translation(shift), rotation_about(rotation_z(yaw), centroid(annotation))
        )
        # move the frame, not the samples: the misaligned copy is exact
        moving = Volume3(
            annotation.data,
            annotation.spacing,
            truth_move.apply(annotation.origin),
            annotation.axes @ truth_move.rotation.T,
        )
        init = translation(centroid(annotation) - centroid(moving))
        t, score, traces = register_rigid(
            annotation, moving, init, RegistrationConfig(seed=k), return_trace=True
        )
        for part in (t.rotation, t.translation, np.float64(score), *traces):
            digest.update(np.asarray(part, dtype=np.float64).tobytes())
        truth = inverse(truth_move)
        c = centroid(moving)
        terr = float(np.linalg.norm(t.apply(c) - truth.apply(c)))
        cosang = (np.trace(t.rotation @ truth.rotation.T) - 1.0) / 2.0
        ang = float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
        hits += terr <= 2.0 and ang <= 1.0
        cases.append((terr, ang))
    elapsed = time.perf_counter() - t0
    identical = digest.hexdigest() == ACCEPTANCE_3_DIGEST
    ok = hits >= 18 and elapsed < 30.0 and identical
    assert _verdict(3, ok), (
        f"hits={hits}/20 elapsed={elapsed:.1f}s identical={identical} cases={cases}"
    )


def test_acceptance_4_registration_improves_noisy_alignment():
    rng = np.random.default_rng(2024)
    spacing, shape = HARMONIZE_SPACING_MM, HARMONIZE_SHAPE
    improved = 0
    deltas = []
    for _ in range(20):
        off = [float(rng.uniform(-40, 40)), float(rng.uniform(-25, 25)), 0.0]
        scene = place_phantom(generate_phantom(int(rng.integers(2**31))), off)
        noise = NOISE_PRESETS["default"](int(rng.integers(2**31)))
        search = hv_search(scene, noise, initial_contact(scene))
        acquired = hv_acquire(scene, noise, search.position)
        ct_veins = ct_frame_volume(scene.hv_annotation, scene.placement)
        hu = resample_crop(acquired, spacing, shape, centroid(acquired))
        hc = resample_crop(ct_veins, spacing, shape, centroid(ct_veins))
        base = translation(centroid(hu) - centroid(hc))
        err = compose(
            translation(rng.uniform(-10, 10, 3)),
            rotation_about(rotation_z(float(rng.uniform(-5, 5))), centroid(hc)),
        )
        init = compose(err, base)
        t, _ = register_rigid(hu, hc, init)
        before = dice(apply_transform(hc, init, hu).data, hu.data)
        after = dice(apply_transform(hc, t, hu).data, hu.data)
        improved += after >= before
        deltas.append(after - before)
    mean_delta = float(np.mean(deltas))
    ok = improved >= 19 and mean_delta >= 0.05
    assert _verdict(4, ok), f"improved={improved}/20 mean_delta={mean_delta:.3f}"


def test_acceptance_5_zero_noise_trial_lands_targets():
    t0 = time.perf_counter()
    cfg = SweepConfig(trials=1, noise="zero", epsilons=(4.0,), targets_limit=100, seed=0)
    trial = run_trial(cfg, 0)
    elapsed = time.perf_counter() - t0
    n_close = sum(t.x_err_mm <= 4.0 for t in trial.targets)
    rate = sum(t.successes[0] for t in trial.targets) / len(trial.targets)
    ok = trial.search_success and n_close >= 95 and rate >= 0.95 and elapsed < 30.0
    assert _verdict(5, ok), (
        f"search={trial.search_success} close={n_close}/100 rate={rate:.2f} "
        f"elapsed={elapsed:.1f}s"
    )


# sha256 of the default sweep's reports, so a refactor that must not change
# behaviour is checked byte for byte. Like SERIAL_DIGESTS in test_harness.py
# they hold only for the numpy version pinned in .github/workflows/tier1.yml:
# the reports print floats whose last bits depend on it. The default sweep
# is unrotated, and the digests held under the SkylakeX, Haswell,
# SandyBridge and Prescott OpenBLAS kernels alike (OPENBLAS_CORETYPE).
DEFAULT_SWEEP_DIGESTS = {
    "trials": "f616487e1fe236b57a132378320d0964de62aa3dcd68c30d868a047027623891",
    "registration": "4a5e023125ae08da2df378a72d8805e9a47760e5b3a47961a2e986b9f6668ea5",
    "summary": "11156d6a0577dbbef6f5df137e1445aa237643f670ca3cd51a5da052ffc06876",
    "curve": "f40b24ef245dd7b6b59a93077a3b649926c07ec935415159b2cb6ebcb11faa87",
}


def test_acceptance_6_noisy_success_curve_grows_with_scan_range(tmp_path):
    result = run_sweep(SweepConfig())
    means = [row["mean"] for row in success_rates(result)]
    monotone = all(b >= a for a, b in zip(means, means[1:]))
    spread = means[-1] - means[0]
    ok = monotone and spread >= 0.1
    assert _verdict(6, ok), f"means={[round(m, 3) for m in means]} spread={spread:.3f}"
    reports = emit_reports(result, tmp_path)
    for name, digest in DEFAULT_SWEEP_DIGESTS.items():
        assert hashlib.sha256(reports[name].read_bytes()).hexdigest() == digest, name


def test_acceptance_7_segmentation_oracle_dice_band():
    scene = place_phantom(generate_phantom(seed=3), (10.0, -5.0, 0.0))
    bp = scene.placement.apply(np.asarray(PhantomParams.branch_point, dtype=float))
    noise = NoiseModel(seed=7)
    scores = []
    for x in np.linspace(bp[0] - 30.0, bp[0] + 30.0, 64):
        frame = capture_us(scene, move_to(scene, float(x), bp[1]))
        scores.append(dice(segment_full(frame, noise), segment_full(frame, None)))
    mean = float(np.mean(scores))
    ok = 0.75 <= mean <= 0.95
    assert _verdict(7, ok), f"mean_dice={mean:.3f}"


def test_acceptance_8_identical_configs_give_identical_reports(tmp_path):
    cfg = SweepConfig(trials=2, epsilons=(1.0, 3.0, 5.0, 9.0), targets_limit=5, seed=9)
    paths = []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        paths.append(emit_reports(run_sweep(cfg), out))
    same_trials = paths[0]["trials"].read_bytes() == paths[1]["trials"].read_bytes()
    same_summary = paths[0]["summary"].read_bytes() == paths[1]["summary"].read_bytes()
    ok = same_trials and same_summary
    assert _verdict(8, ok), f"trials.csv identical={same_trials} summary.json identical={same_summary}"


def test_acceptance_9_coordinate_algebra_round_trips():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        spacing = rng.uniform(0.3, 4.0, 3)
        origin = rng.uniform(-100.0, 100.0, 3)
        axes = euler_zyx(*rng.uniform(-180.0, 180.0, 3))
        if rng.random() < 0.5:
            axes = axes.copy()
            axes[2] = -axes[2]  # mirrored stacks are legal volume frames
        shape = tuple(int(s) for s in rng.integers(2, 9, size=3))
        vol = Volume3(np.zeros(shape, dtype=np.uint8), spacing, origin, axes)
        idx = rng.uniform(0.0, np.asarray(shape, dtype=float) - 1.0, size=3)
        back = physical_to_voxel(vol, voxel_to_physical(vol, idx))
        worst = max(worst, float(np.max(np.abs(back - idx))))

        a = compose(
            rotation_about(euler_zyx(*rng.uniform(-90.0, 90.0, 3)), rng.uniform(-20, 20, 3)),
            translation(rng.uniform(-50.0, 50.0, 3)),
        )
        b = rotation_about(euler_zyx(*rng.uniform(-90.0, 90.0, 3)), rng.uniform(-20, 20, 3))
        p = rng.uniform(-100.0, 100.0, 3)
        worst = max(worst, float(np.max(np.abs(compose(a, b).apply(p) - a.apply(b.apply(p))))))
        worst = max(worst, float(np.max(np.abs(inverse(a).apply(a.apply(p)) - p))))
    ok = worst <= 1e-9
    assert _verdict(9, ok), f"worst_residual={worst:.2e}"
