"""The benchmark's workloads: inputs built from a seed, and one timed unit each.

Every workload is a closed loop with a single caller: the next unit starts
when the previous one has returned. Only ``sweep-noisy`` uses more than one
process, a pool of 2 (the core count of the 2-core machine the sizes were
chosen on). The package receives only the generated inputs; seed 0 uses
the acceptance checks' seeds.

Each workload is built at one of three sizes: ``full`` for timed runs,
``traced`` for the traced run (smaller where three traced-and-untraced
units of the full size would take minutes) and ``smoke``, units of a few
seconds for the self-test.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from usreg_sim import harness, registration
from usreg_sim.harness import SweepConfig
from usreg_sim.imgvol import (
    RigidTransform3,
    Volume3,
    centroid,
    compose,
    dice,
    inverse,
    rotation_about,
    rotation_z,
    translation,
)
from usreg_sim.phantom import generate_phantom
from usreg_sim.probe import ProbeParams

GATE_BUDGET_S = 30.0
PROBE_PIXELS = int(np.prod(ProbeParams().image_shape))


@dataclass
class Unit:
    """What one timed unit produced; wall time covers the whole unit."""

    wall_s: float
    busy_ms: float  # summed trial stage time, or summed registration time
    workers: int
    targets: int  # targets judged at every scan range, or centroids re-located
    attempted: int
    failed: int
    success_narrow: float
    success_wide: float
    dice_after: float
    digests: dict[str, str]
    checks: dict
    ok: bool
    stage_ms: list[dict] = field(default_factory=list)  # one dict per trial

    def outputs(self) -> tuple:
        """Everything that must repeat exactly between units on the same inputs."""
        return (
            self.digests, self.targets, self.attempted, self.failed,
            self.success_narrow, self.success_wide, self.dice_after,
        )


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class SweepNoisy:
    """The default noisy sweep, as ``usreg-sim sweep`` runs it: run_sweep then reports.

    The targets stage dominates: ``capture_us`` with segmentation noise on,
    33 ``target_imaging`` frames per target. It is the only workload that
    uses the process pool and writes reports. Four trials of 15 targets
    each, instead of the default five of 100, keep a unit near 15 s while
    averaging over four phantoms.
    """

    name = "sweep-noisy"
    why = "default noisy sweep with reports on a 2-process pool; capture_us and target_imaging dominate"

    def __init__(self, size: str = "full") -> None:
        self.trials = 2 if size == "smoke" else 4
        self.targets_limit = 2 if size == "smoke" else 15
        self.workers = 2

    def build(self, seed: int) -> SweepConfig:
        return SweepConfig(trials=self.trials, targets_limit=self.targets_limit, seed=seed)

    def run(self, cfg: SweepConfig, out_dir: Path, workers: int | None = None) -> Unit:
        workers = workers or self.workers
        t0 = time.perf_counter()
        result = harness.run_sweep(cfg, workers=workers)
        paths = harness.emit_reports(result, out_dir)
        wall = time.perf_counter() - t0

        rates = harness.success_rates(result)
        means = [row["mean"] for row in rates]
        searched = [t for t in result.trials if t.search_success]
        stage_ms = [dict(t.stage_ms) for t in result.trials]
        monotone = all(b >= a for a, b in zip(means, means[1:]))
        return Unit(
            wall_s=wall,
            busy_ms=sum(sum(s.values()) for s in stage_ms),
            workers=workers,
            targets=sum(len(t.targets) for t in searched),
            attempted=len(result.trials),
            failed=len(result.trials) - len(searched),
            success_narrow=means[0],
            success_wide=means[-1],
            dice_after=harness.registration_stats(result)["mean_dice_after"],
            digests={
                name: _sha(paths[name].read_bytes()) for name in ("trials", "summary")
            },
            checks={"success_curve_monotone": monotone},
            ok=monotone and len(searched) == len(result.trials),
            stage_ms=stage_ms,
        )


class TrialZero:
    """Acceptance check 5's trial: zero noise, one 4 mm scan range, 100 targets.

    The same stages as the sweep with the noise model bypassed and only 8
    frames per target, which leaves ``slice_match`` and ``omia`` dominant.
    Its wall time is timed gate 5's.
    """

    name = "trial-zero"
    why = "acceptance-5 zero-noise trial in one process; slice_match and omia dominate, noise is bypassed"

    def __init__(self, size: str = "full") -> None:
        self.targets_limit = 3 if size == "smoke" else 100

    def build(self, seed: int) -> SweepConfig:
        return SweepConfig(
            trials=1, noise="zero", epsilons=(4.0,), targets_limit=self.targets_limit, seed=seed,
        )

    def run(self, cfg: SweepConfig, out_dir: Path, workers: int | None = None) -> Unit:
        t0 = time.perf_counter()
        trial = harness.run_trial(cfg, 0)
        wall = time.perf_counter() - t0

        n = len(trial.targets)
        pitch = harness.ACQ_LENGTH_MM / (harness.ACQ_SLICES - 1)
        within_slice = sum(t.x_err_mm <= pitch for t in trial.targets)
        rate = sum(t.successes[0] for t in trial.targets) / n if n else 0.0
        record = asdict(trial)
        del record["stage_ms"]
        ok = trial.search_success and within_slice >= 0.95 * n and rate >= 0.95
        return Unit(
            wall_s=wall,
            busy_ms=sum(trial.stage_ms.values()),
            workers=1,
            targets=n,
            attempted=1,
            failed=0 if trial.search_success else 1,
            success_narrow=rate,
            success_wide=rate,
            dice_after=trial.registration["after"]["dice"] if trial.registration else 0.0,
            digests={"trial": _sha(json.dumps(record, sort_keys=True).encode())},
            checks={
                "within_slice": f"{within_slice}/{n}",
                "gate5_headroom_s": GATE_BUDGET_S - wall,
            },
            ok=ok,
            stage_ms=[dict(trial.stage_ms)],
        )


@dataclass(frozen=True)
class RegistrationCase:
    moving: Volume3
    init: RigidTransform3
    truth: RigidTransform3  # maps the moving frame back onto the annotation
    cfg: registration.RegistrationConfig


class RegisterRecovery:
    """Acceptance check 3's set: seeded misalignments of the phantom-5 annotation.

    Each case is one serial ``register_rigid`` call on full-resolution clean
    masks (64x96x64, 1244 foreground voxels), so the registration score loop
    is the whole cost and the probe layer is not used. A full unit is the
    gate's 20 cases, timed as the gate times them; a traced unit is the
    first 6.
    """

    name = "register-recovery"
    why = "the 20 acceptance-3 registration cases on large sparse clean masks; the score loop is all the time"
    CASES = {"full": 20, "traced": 6, "smoke": 1}

    def __init__(self, size: str = "full") -> None:
        self.cases = self.CASES[size]

    def build(self, seed: int):
        annotation = generate_phantom(seed=5).hv_annotation
        rng = np.random.default_rng(33 + seed)
        cases = []
        for k in range(self.cases):
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
            cases.append(
                RegistrationCase(
                    moving, init, inverse(truth_move), registration.RegistrationConfig(seed=k)
                )
            )
        return annotation, cases

    def run(self, inputs, out_dir: Path, workers: int | None = None) -> Unit:
        annotation, cases = inputs
        results, case_ms = [], []
        t0 = time.perf_counter()
        for case in cases:
            t = time.perf_counter()
            results.append(
                registration.register_rigid(annotation, case.moving, case.init, case.cfg)
            )
            case_ms.append((time.perf_counter() - t) * 1e3)
        wall = time.perf_counter() - t0

        narrow = wide = 0
        dices = []
        digest = hashlib.sha256()
        for case, (t, score) in zip(cases, results):
            c = centroid(case.moving)
            terr = float(np.linalg.norm(t.apply(c) - case.truth.apply(c)))
            cosang = (np.trace(t.rotation @ case.truth.rotation.T) - 1.0) / 2.0
            ang = float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
            narrow += terr <= 2.0 and ang <= 1.0  # one voxel, one degree
            wide += terr <= 4.0 and ang <= 2.0
            moved = registration.apply_transform(case.moving, t, annotation)
            dices.append(dice(moved.data, annotation.data))
            for arr in (t.rotation, t.translation, np.float64(score)):
                digest.update(np.ascontiguousarray(arr).tobytes())
        n = len(cases)
        checks = {
            "recovered": f"{narrow}/{n}",
            "register_p50_ms": float(np.median(case_ms)),
            "register_samples": n,
        }
        if n == self.CASES["full"]:
            checks["gate3_headroom_s"] = GATE_BUDGET_S - wall
        return Unit(
            wall_s=wall,
            busy_ms=sum(case_ms),
            workers=1,
            targets=n,
            attempted=n,
            failed=n - narrow,
            success_narrow=narrow / n,
            success_wide=wide / n,
            dice_after=float(np.mean(dices)),
            digests={"transforms": digest.hexdigest()},
            checks=checks,
            # gate 3 asks for 18 of 20; the bench asks the same share
            ok=narrow >= 0.9 * n,
        )


WORKLOADS = {w.name: w for w in (SweepNoisy, TrialZero, RegisterRecovery)}
