"""Monte Carlo evaluation harness.

A sweep runs ``trials`` independent end-to-end follow-up scans, each on the
one shared phantom placed at a randomly sampled offset, and judges
per-target success for every scan range in ``epsilons``. Everything is
deterministic given the config: offsets and seeds derive from ``seed``
and the trial index, the noise model keys its corruption off the capture
position, and report files are emitted with fixed ordering and formatting
so a rerun reproduces them byte for byte. Per-stage wall-clock timings ride
along on the in-memory reports and go only into the ``timings.json``
sidecar, which is outside that byte-identical set.

A failed search or a later probe move off the skin fails its trial as a
value: no targets, rate 0, no ``trials.csv`` rows; ``summary.json``'s
``n_search_failures`` counts only the failed searches.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .phantom import PhantomParams, ct_frame_volume, generate_phantom, place_phantom, target_grid
# the scan schedule is pipeline's; summary.json reads JUDGE_TOL_X_MM, and
# benchmarks read ACQ_SLICES and ACQ_LENGTH_MM from this module
from .pipeline import (
    ACQ_LENGTH_MM,
    ACQ_SLICES,
    JUDGE_TOL_X_MM,
    coordinate_map,
    harmonize,
    hv_acquire,
    hv_search,
    judge_success,
    slice_match,
    target_imaging,
)
from .probe import NOISE_PRESETS, OffSkinError, initial_contact

CONFIG_VERSION = 1

# a trial offsets the phantom by up to these distances from the table
# origin, uniformly in x and then in y
PLACEMENT_X_MM = 40.0
PLACEMENT_Y_MM = 25.0
# a scan range longer than the phantom along x images nothing more
MAX_EPS_MM = PhantomParams.volume_shape[0] * PhantomParams.spacing_mm


class ConfigError(ValueError):
    """A sweep config that cannot be run."""


def _is_finite_real(v) -> bool:
    # NaN, the infinities and an int too large for a float all fail the bound
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_count(v) -> bool:
    # a Python or numpy integer; bool subclasses int but counts nothing
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


# the JSON value each config field takes; a value is checked, never coerced,
# so a string, bool or NaN where a number belongs is a config error rather
# than a trial that fails later
_FIELD_KINDS = (
    (("config_version", "trials", "targets_limit", "seed"), "an integer",
     lambda v: isinstance(v, int) and not isinstance(v, bool)),
    (("epsilons",), "a list of finite numbers",
     lambda v: isinstance(v, (list, tuple)) and all(map(_is_finite_real, v))),
    (("noise",), "a preset name", lambda v: isinstance(v, str)),
)


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep needs; serializable and validated on construction.

    ``epsilons`` are the scan ranges in mm, each at most ``MAX_EPS_MM``.
    ``targets_limit`` caps how many grid targets each trial evaluates
    (evenly subsampled); the default covers the whole grid.

    Construction only validates: it builds no phantom. A trial runs on
    numpy alone: no sweep loads scipy.
    """

    trials: int = 5
    noise: str = "default"
    epsilons: tuple[float, ...] = (1.0, 3.0, 5.0, 9.0)
    targets_limit: int = 100
    seed: int = 0
    config_version: int = CONFIG_VERSION

    def __post_init__(self) -> None:
        for names, kind, admits in _FIELD_KINDS:
            for name in names:
                if not admits(getattr(self, name)):
                    raise ConfigError(f"{name} must be {kind}, got {getattr(self, name)!r}")
        if self.config_version != CONFIG_VERSION:
            raise ConfigError(
                f"config version {self.config_version} not supported (expected {CONFIG_VERSION})"
            )
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.noise not in NOISE_PRESETS:
            raise ConfigError(
                f"unknown noise preset {self.noise!r}; options: {sorted(NOISE_PRESETS)}"
            )
        eps = tuple(float(e) for e in self.epsilons)
        if not eps:
            raise ConfigError("epsilons must be nonempty")
        if any(e <= 0 for e in eps):
            raise ConfigError("epsilons must be positive")
        if any(b <= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("epsilons must be strictly ascending")
        if eps[-1] > MAX_EPS_MM:
            raise ConfigError(f"epsilons must be at most {MAX_EPS_MM:g} mm, the phantom's length")
        object.__setattr__(self, "epsilons", eps)
        if self.targets_limit < 1:
            raise ConfigError("targets_limit must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["epsilons"] = list(self.epsilons)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SweepConfig":
        known = set(cls.__dataclass_fields__)
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        return cls(**d)


@dataclass(frozen=True)
class TargetOutcome:
    """One follow-up target: estimates, error, and a verdict per scan range."""

    target_index: int
    mapped: tuple[float, float, float]
    corrected: tuple[float, float, float]
    x_err_mm: float
    mapped_err_mm: float
    successes: tuple[bool, ...]  # aligned with the config's epsilons


@dataclass(frozen=True)
class TrialResult:
    index: int
    phantom_seed: int
    offset_x_mm: float
    offset_y_mm: float
    search_success: bool
    waypoints_visited: int
    registration: dict | None
    targets: tuple[TargetOutcome, ...]
    stage_ms: dict = field(compare=False, default_factory=dict)


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    trials: tuple[TrialResult, ...]
    elapsed_s: float = field(compare=False, default=0.0)


def _pick_targets(n: int, limit: int) -> np.ndarray:
    """Evenly spread ``limit`` indices over ``range(n)``, deterministically."""
    if limit >= n:
        return np.arange(n)
    return np.unique(np.linspace(0, n - 1, limit).round().astype(int))


@contextmanager
def _timed(stage_ms: dict[str, float], name: str):
    """Record the block's wall time in ms as ``stage_ms[name]``, even if it raises."""
    start = time.perf_counter()
    try:
        yield
    finally:
        stage_ms[name] = (time.perf_counter() - start) * 1e3


def run_trial(cfg: SweepConfig, index: int) -> TrialResult:
    """One end-to-end follow-up scan; fully determined by (cfg, index).

    A failed search, or a probe move off the skin (``OffSkinError``) after
    it, is a failed trial with no targets, not a raise; its registration
    record stays if the map stage ran. A negative or non-integer ``index``
    (a bool among them) is a ConfigError.
    """
    if not _is_count(index) or index < 0:
        raise ConfigError(f"trial index must be a nonnegative integer, got {index!r}")
    rng = np.random.default_rng([cfg.seed, index])
    offset_x = float(rng.uniform(-PLACEMENT_X_MM, PLACEMENT_X_MM))
    offset_y = float(rng.uniform(-PLACEMENT_Y_MM, PLACEMENT_Y_MM))
    # the phantom's geometry ignores its seed, but the draw stays: it sets
    # the stream position of noise_seed and registration.csv reports it
    phantom_seed = int(rng.integers(2**31))
    noise_seed = int(rng.integers(2**31))
    noise = NOISE_PRESETS[cfg.noise](noise_seed)
    stage_ms: dict[str, float] = {}
    registration, outcomes = None, []

    with _timed(stage_ms, "setup"):
        scene = place_phantom(generate_phantom(phantom_seed), [offset_x, offset_y, 0.0])
        contact = initial_contact(scene)
    with _timed(stage_ms, "search"):
        search = hv_search(scene, noise, contact)
    try:
        if search.success:
            with _timed(stage_ms, "acquire"):
                acquired = hv_acquire(scene, noise, search.position)
            with _timed(stage_ms, "map"):
                ct_veins = ct_frame_volume(scene.hv_annotation, scene.placement)
                cmap = coordinate_map(*harmonize(acquired, ct_veins))
                registration = cmap.registration
            with _timed(stage_ms, "targets"):
                all_targets = target_grid()
                for ti in _pick_targets(len(all_targets), cfg.targets_limit):
                    target_ct = all_targets[ti]
                    truth = scene.placement.apply(target_ct)
                    sm = slice_match(scene, noise, target_ct, cmap.ct_to_physical, search.position, ct_veins)
                    outcomes.append(
                        TargetOutcome(
                            target_index=int(ti),
                            mapped=tuple(float(v) for v in sm.mapped),
                            corrected=tuple(float(v) for v in sm.corrected),
                            x_err_mm=float(abs(sm.corrected[0] - truth[0])),
                            mapped_err_mm=float(abs(sm.mapped[0] - truth[0])),
                            successes=tuple(
                                judge_success(target_imaging(scene, sm.corrected, eps), truth)
                                for eps in cfg.epsilons
                            ),
                        )
                    )
    except OffSkinError:
        outcomes = []

    return TrialResult(
        index=index,
        phantom_seed=phantom_seed,
        offset_x_mm=offset_x,
        offset_y_mm=offset_y,
        search_success=search.success,
        waypoints_visited=search.waypoints_visited,
        registration=registration,
        targets=tuple(outcomes),
        stage_ms=stage_ms,
    )


def run_sweep(cfg: SweepConfig, workers: int | None = None) -> SweepResult:
    """Run all trials and merge them in index order.

    Trials are independent (each is seeded from [cfg.seed, index]) and
    CPU-bound, so they fan out to a process pool when more than one
    worker is available. ``workers`` defaults to one per CPU; any count is
    capped at the trial count, and one that is not an integer (a bool
    among them) or is below 1 is a ConfigError. Results are identical for
    any worker count. A pooled sweep builds the shared phantom before its
    pool forks, so every worker inherits it.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    elif not _is_count(workers):
        raise ConfigError(f"workers must be an integer, got {workers!r}")
    elif workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    workers = min(workers, cfg.trials)
    start = time.perf_counter()
    if workers == 1:
        trials = tuple(run_trial(cfg, i) for i in range(cfg.trials))
    else:
        generate_phantom(0)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            trials = tuple(pool.map(run_trial, [cfg] * cfg.trials, range(cfg.trials)))
    return SweepResult(config=cfg, trials=trials, elapsed_s=time.perf_counter() - start)


# ---------------------------------------------------------------- reports


def success_rates(result: SweepResult) -> list[dict]:
    """Per-epsilon mean/min/max of per-trial success rates.

    A trial with no targets (a failed search or a move off the skin)
    counts as rate zero across the board; the follow-up scan never finished.
    """
    rows = []
    for k, eps in enumerate(result.config.epsilons):
        rates = []
        for trial in result.trials:
            if not trial.targets:
                rates.append(0.0)
                continue
            rates.append(
                sum(t.successes[k] for t in trial.targets) / len(trial.targets)
            )
        rows.append(
            {
                "eps_mm": eps,
                "mean": sum(rates) / len(rates),
                "min": min(rates),
                "max": max(rates),
            }
        )
    return rows


def registration_stats(result: SweepResult) -> dict:
    """Averaged pre/post registration quality over trials that reached it."""
    regs = [t.registration for t in result.trials if t.registration is not None]
    stats: dict = {"trials": len(regs)}
    for phase in ("before", "after"):
        for metric in ("precision", "recall", "dice"):
            key = f"mean_{metric}_{phase}"
            stats[key] = (
                round(sum(r[phase][metric] for r in regs) / len(regs), 6)
                if regs else None
            )
    stats["converged_fraction"] = (
        round(sum(r["converged"] for r in regs) / len(regs), 6) if regs else None
    )
    return stats


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _trials_csv(result: SweepResult) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([
        "trial", "target", "eps_mm", "success",
        "x_err_mm", "mapped_err_mm", "corrected_x_mm", "mapped_x_mm",
    ])
    for trial in result.trials:
        for t in trial.targets:
            for eps, ok in zip(result.config.epsilons, t.successes):
                w.writerow([
                    trial.index, t.target_index, _fmt(eps), int(ok),
                    _fmt(t.x_err_mm), _fmt(t.mapped_err_mm),
                    _fmt(t.corrected[0]), _fmt(t.mapped[0]),
                ])
    return buf.getvalue()


def _registration_csv(result: SweepResult) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([
        "trial", "phantom_seed", "offset_x_mm", "offset_y_mm",
        "precision_before", "recall_before", "dice_before",
        "precision_after", "recall_after", "dice_after",
        "score", "converged",
    ])
    for trial in result.trials:
        if trial.registration is None:
            continue
        r = trial.registration
        w.writerow([
            trial.index, trial.phantom_seed,
            _fmt(trial.offset_x_mm), _fmt(trial.offset_y_mm),
            _fmt(r["before"]["precision"]), _fmt(r["before"]["recall"]),
            _fmt(r["before"]["dice"]),
            _fmt(r["after"]["precision"]), _fmt(r["after"]["recall"]),
            _fmt(r["after"]["dice"]),
            _fmt(r["score"]), int(r["converged"]),
        ])
    return buf.getvalue()


def _summary_json(result: SweepResult) -> str:
    summary = {
        "config": result.config.to_dict(),
        "n_trials": len(result.trials),
        "n_search_failures": sum(not t.search_success for t in result.trials),
        "judge_tol_x_mm": JUDGE_TOL_X_MM,
        "success": [
            {k: round(v, 6) for k, v in row.items()} for row in success_rates(result)
        ],
        "registration": registration_stats(result),
    }
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def _success_svg(result: SweepResult) -> str:
    """Success rate vs scan range: three polylines for mean, min and max."""
    rows = success_rates(result)
    width, height = 480, 320
    ml, mr, mt, mb = 50, 16, 16, 40
    eps = [r["eps_mm"] for r in rows]
    lo, hi = min(eps), max(eps)
    span = hi - lo if hi > lo else 1.0

    def px(e: float) -> float:
        return ml + (e - lo) / span * (width - ml - mr)

    def py(rate: float) -> float:
        return mt + (1.0 - rate) * (height - mt - mb)

    def poly(key: str, color: str, dash: str = "") -> str:
        pts = " ".join(f"{px(r['eps_mm']):.2f},{py(r[key]):.2f}" for r in rows)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return (
            f'<polyline fill="none" stroke="{color}" stroke-width="2"{extra} '
            f'points="{pts}"/>'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{py(0)}" x2="{width - mr}" y2="{py(0)}" stroke="black"/>',
        f'<line x1="{ml}" y1="{py(0)}" x2="{ml}" y2="{mt}" stroke="black"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{ml - 8}" y="{py(frac):.2f}" font-size="11" '
            f'text-anchor="end" dominant-baseline="middle">{frac:.1f}</text>'
        )
    for e in eps:
        parts.append(
            f'<text x="{px(e):.2f}" y="{height - mb + 16}" font-size="11" '
            f'text-anchor="middle">{e:g}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.2f}" y="{height - 8}" font-size="12" '
        f'text-anchor="middle">scan range (mm)</text>'
    )
    parts.append(poly("min", "#bbbbbb", dash="4 3"))
    parts.append(poly("max", "#bbbbbb", dash="4 3"))
    parts.append(poly("mean", "#3670a9"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _timings_json(result: SweepResult) -> str:
    """Wall-clock sidecar: each trial's ``stage_ms`` and per-stage sum, median, max."""
    stages = dict.fromkeys(name for t in result.trials for name in t.stage_ms)
    per_stage = {}
    for name in stages:
        ms = [t.stage_ms[name] for t in result.trials if name in t.stage_ms]
        per_stage[name] = {
            "sum_ms": round(sum(ms), 3),
            "median_ms": round(float(np.median(ms)), 3),
            "max_ms": round(max(ms), 3),
        }
    timings = {
        "elapsed_s": round(result.elapsed_s, 3),
        "stages": per_stage,
        "trials": [
            {"index": t.index, "stage_ms": {k: round(v, 3) for k, v in t.stage_ms.items()}}
            for t in result.trials
        ],
    }
    return json.dumps(timings, indent=2) + "\n"


def emit_reports(result: SweepResult, out_dir: str | Path) -> dict[str, Path]:
    """Write trials.csv, registration.csv, summary.json, success_curve.svg and timings.json.

    The first four files' bytes depend only on the sweep result, never on
    wall time, so rerunning the same config reproduces them exactly. The
    ``timings.json`` sidecar holds the per-stage wall-clock times and so is
    not part of that byte-identical set.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create report directory {out}: {exc}") from exc
    files = {
        "trials": (out / "trials.csv", _trials_csv(result)),
        "registration": (out / "registration.csv", _registration_csv(result)),
        "summary": (out / "summary.json", _summary_json(result)),
        "curve": (out / "success_curve.svg", _success_svg(result)),
        "timings": (out / "timings.json", _timings_json(result)),
    }
    for path, text in files.values():
        try:
            path.write_text(text)
        except OSError as exc:
            raise OSError(f"cannot write report {path}: {exc}") from exc
    return {name: path for name, (path, _) in files.items()}
