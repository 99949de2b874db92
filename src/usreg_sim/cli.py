"""``usreg-sim``: thin command line front end over the package API.

Subcommands
-----------
sweep        run a Monte Carlo sweep from a JSON config and write reports
run-trial    run one end-to-end trial and print its report as JSON
register     register two binary .vol masks and print the estimated map
phantom gen  generate (and optionally place) a phantom, saved to a directory

Exit codes: 0 success, 2 bad config or input, 3 pipeline failure: a
``run-trial`` trial with no targets (a failed vein search, or a probe move
off the skin after it), or a trial that raises a ``RuntimeError`` or
``ValueError`` in ``run-trial`` or ``sweep``. Timing lines go to stdout
only; report files stay a pure function of the config.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .harness import (
    ConfigError,
    SweepConfig,
    emit_reports,
    run_sweep,
    run_trial,
    success_rates,
)
from .imgvol import load_volume
from .phantom import generate_phantom, place_phantom, save_scene
from .pipeline import coordinate_map, harmonize
from .probe import NOISE_PRESETS
from .registration import mutual_information

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PIPELINE = 3


def _load_config(args: argparse.Namespace) -> SweepConfig:
    """Config file plus command line overrides, revalidated as a whole."""
    if args.config is None:
        cfg = SweepConfig()
    else:
        try:
            raw = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must contain a JSON object")
        cfg = SweepConfig.from_dict(raw)
    overrides = {}
    # only sweep takes --trials: one trial reads no trial count
    if getattr(args, "trials", None) is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.noise_preset is not None:
        overrides["noise"] = args.noise_preset
    if overrides:
        cfg = SweepConfig.from_dict({**cfg.to_dict(), **overrides})
    return cfg


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.print_config:
        print(json.dumps(SweepConfig().to_dict(), indent=2, sort_keys=True))
        return EXIT_OK
    if args.out is None:
        print("sweep: --out is required (or use --print-config)", file=sys.stderr)
        return EXIT_CONFIG
    cfg = _load_config(args)
    try:
        result = run_sweep(cfg, workers=args.workers)
    except ConfigError:
        raise
    except (RuntimeError, ValueError) as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    paths = emit_reports(result, args.out)
    # a trial whose search succeeded ends with no targets only off the skin
    failed = sum(not t.search_success for t in result.trials)
    off_skin = sum(t.search_success and not t.targets for t in result.trials)
    print(f"{cfg.trials} trials in {result.elapsed_s:.1f}s "
          f"({failed} search failures, {off_skin} off the skin after the search)")
    for row in success_rates(result):
        print(f"  eps {row['eps_mm']:g} mm: success mean {row['mean']:.3f} "
              f"(min {row['min']:.3f}, max {row['max']:.3f})")
    for path in paths.values():
        print(f"  wrote {path}")
    return EXIT_OK


def _cmd_run_trial(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    try:
        trial = run_trial(cfg, args.index)
    except ConfigError as exc:
        raise ConfigError(f"--index: {exc}") from exc
    except (RuntimeError, ValueError) as exc:
        print(f"trial {args.index} failed: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    print(json.dumps(asdict(trial), indent=2))
    if not trial.targets:
        case = "vessel search failed" if not trial.search_success else "probe moved off the skin"
        print(f"trial {args.index}: {case}, no targets attempted", file=sys.stderr)
        return EXIT_PIPELINE
    return EXIT_OK


def _cmd_register(args: argparse.Namespace) -> int:
    hu, hc, init = harmonize(load_volume(args.fixed), load_volume(args.moving))
    cmap = coordinate_map(hu, hc, init)
    t = cmap.ct_to_physical
    # the registration objective at the init and at the result, on the
    # harmonized grids the mapping stage registered
    score_before, score_after = mutual_information(hu, hc, [init, t])
    report = {
        "rotation": t.rotation.tolist(),
        "translation": t.translation.tolist(),
        "score_before": score_before,
        "score_after": score_after,
        "dice_before": cmap.registration["before"]["dice"],
        "dice_after": cmap.registration["after"]["dice"],
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _cmd_phantom_gen(args: argparse.Namespace) -> int:
    scene = generate_phantom(args.seed)
    if args.offset_x or args.offset_y or args.yaw:
        scene = place_phantom(scene, [args.offset_x, args.offset_y, 0.0], args.yaw)
    path = save_scene(scene, args.out)
    print(f"wrote {path}")
    return EXIT_OK


def _add_config_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="CFG.json",
                   help="sweep config file (defaults apply when omitted)")
    p.add_argument("--seed", type=int, metavar="S", help="override master seed")
    p.add_argument("--noise-preset", choices=sorted(NOISE_PRESETS),
                   help="override noise preset")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usreg-sim",
        description="Deterministic simulator of autonomous ultrasound liver follow-up.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a Monte Carlo sweep and write reports")
    _add_config_options(p)
    p.add_argument("--trials", type=int, metavar="N", help="override trial count")
    p.add_argument("--out", metavar="DIR", help="report directory")
    p.add_argument(
        "--workers", type=int, default=None,
        help="trial process pool size (default: one per CPU, capped at the trial count)",
    )
    p.add_argument("--print-config", action="store_true",
                   help="print the default config as JSON and exit")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("run-trial", help="run one trial, print its JSON report")
    _add_config_options(p)
    p.add_argument("--index", type=int, default=0, help="trial index (default 0)")
    p.set_defaults(func=_cmd_run_trial)

    p = sub.add_parser("register", help="register two binary .vol masks")
    p.add_argument("fixed", help="fixed mask (.vol)")
    p.add_argument("moving", help="moving mask (.vol)")
    p.set_defaults(func=_cmd_register)

    p = sub.add_parser("phantom", help="phantom utilities")
    psub = p.add_subparsers(dest="phantom_command", required=True)
    g = psub.add_parser("gen", help="generate a phantom scene directory")
    g.add_argument("--out", required=True, metavar="DIR", help="output directory")
    g.add_argument("--seed", type=int, default=0,
                   help="seed recorded in the scene (the geometry does not depend on it)")
    g.add_argument("--offset-x", type=float, default=0.0, help="placement x (mm)")
    g.add_argument("--offset-y", type=float, default=0.0, help="placement y (mm)")
    g.add_argument("--yaw", type=float, default=0.0, help="placement yaw (deg)")
    g.set_defaults(func=_cmd_phantom_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
