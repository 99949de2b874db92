"""usreg-sim benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload sweep-noisy --seed 0 --seconds 50 --trace 0

Run from a checkout that holds ``src/usreg_sim``; the package is imported
from there. With ``--trace 0`` the workload's unit runs back to back,
untraced, at least once and until the unit that ends nearest ``--seconds``,
and the last line of output is a JSON object with every end-to-end metric.
With ``--trace 1`` the (traced-size) unit runs once untraced and twice
traced (in one process), and the metrics are the per-layer ones. Either way the outputs are checked: a mismatch sets
``correct`` to false and the exit code to 1. Full details, including machine
facts and the span dump of a traced run, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 3
TRACED_REPS = 2

# name -> (unit, better); the order is the print order
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "targets_per_s": ("1/s", "higher"),
    "pool_efficiency": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "success_narrow": ("ratio", "higher"),
    "success_wide": ("ratio", "higher"),
    "dice_after": ("ratio", "higher"),
}

_COUNT, _MS = ("count", "lower"), ("ms", "lower")
PER_LAYER = {
    "probe.capture_us.calls": _COUNT,
    "probe.capture_us.ms_per_call": _MS,
    "probe.captures_per_trial": _COUNT,
    "probe.segmented_per_capture": ("ratio", "higher"),
    "probe.pixels_sampled_computed": _COUNT,
    "probe.segment_full.calls": _COUNT,
    "probe.segment_full.ms_per_call": _MS,
    "probe.segment_branch.calls": _COUNT,
    "probe.segment_branch.ms_per_call": _MS,
    "imgvol.omia.calls": _COUNT,
    "imgvol.omia.ms_per_call": _MS,
    "imgvol.resample_crop.ms_per_call": _MS,
    "imgvol.largest_connected_component.ms_per_call": _MS,
    "pipeline.hv_search.ms": _MS,
    "pipeline.hv_search.waypoints": _COUNT,
    "pipeline.hv_acquire.ms": _MS,
    "pipeline.coordinate_map.ms": _MS,
    "pipeline.slice_match.calls": _COUNT,
    "pipeline.slice_match.ms_per_call": _MS,
    "pipeline.slice_match.comparisons_per_target": _COUNT,
    "pipeline.target_imaging.calls": _COUNT,
    "pipeline.target_imaging.ms_per_call": _MS,
    "pipeline.target_imaging.frames": _COUNT,
    "pipeline.judge_success.ms_per_call": _MS,
    "registration.register_rigid.calls": _COUNT,
    "registration.register_rigid.ms_per_call": _MS,
    "registration.sweeps_per_level.L0": _COUNT,
    "registration.sweeps_per_level.L1": _COUNT,
    "harness.run_trial.ms": _MS,
    "harness.stage.setup.ms": _MS,
    "harness.stage.search.ms": _MS,
    "harness.stage.acquire.ms": _MS,
    "harness.stage.map.ms": _MS,
    "harness.stage.targets.ms": _MS,
    "harness.stage_coverage": ("ratio", "higher"),
    "harness.emit_reports.ms": _MS,
    "harness.pool_overhead.ms": _MS,
    "phantom.generate_phantom.ms": _MS,
    "phantom.place_phantom.ms": _MS,
    "phantom.target_grid.ms": _MS,
    "phantom.ct_frame_volume.ms": _MS,
    "phantom.self_ms": _MS,
    "probe.self_ms": _MS,
    "imgvol.self_ms": _MS,
    "registration.self_ms": _MS,
    "pipeline.self_ms": _MS,
    "harness.self_ms": _MS,
    "trace.overhead_ratio": ("ratio", "lower"),
}

STAGES = ("setup", "search", "acquire", "map", "targets")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny units, for the self-test")
    p.add_argument(
        "--setup-only", action="store_true",
        help="print the seconds taken to import the package and build the inputs, then exit",
    )
    return p.parse_args(argv)


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child.

    ``ru_maxrss`` is in KiB on Linux. Forked pool workers share pages with
    this process, so the sum is an upper bound.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def setup_samples(args, first: float) -> list[float]:
    """This process's own set-up time plus that of fresh processes doing the same."""
    samples = [first]
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--smoke"] if args.smoke else [])
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def timed_run(args, workload, inputs, out: Path, setup_first: float):
    units = []
    start = time.perf_counter()
    while True:
        units.append(workload.run(inputs, out / f"rep{len(units)}"))
        elapsed = time.perf_counter() - start
        # one more unit would end further from --seconds than this one did
        if elapsed + statistics.mean(u.wall_s for u in units) / 2 >= args.seconds:
            break
    rss = peak_rss_mb()  # read before the set-up samples add children
    setups = setup_samples(args, setup_first)

    first = units[0]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(u.wall_s for u in units),
        "targets_per_s": statistics.median(u.targets / u.wall_s for u in units),
        "pool_efficiency": statistics.median(
            u.busy_ms / 1e3 / (u.workers * u.wall_s) for u in units
        ),
        "peak_rss_mb": rss,
        "success_narrow": first.success_narrow,
        "success_wide": first.success_wide,
        "dice_after": first.dice_after,
    }
    repeat = all(u.outputs() == first.outputs() for u in units)
    checks = {
        "units": len(units),
        "outputs_repeat": repeat,
        "setup_samples": len(setups),
        "failed_fraction": sum(u.failed for u in units) / sum(u.attempted for u in units),
        **first.checks,
    }
    ok = repeat and all(u.ok for u in units)
    return metrics, checks, ok, units


def layer_metrics(tracer, unit, pool_overhead_ms: float, overhead: float) -> dict:
    """Per-layer numbers for one traced unit; counts are per unit."""
    import workloads

    calls, total = tracer.calls(), tracer.total_ms()

    def per_call(name: str) -> float:
        return total[name] / calls[name] if calls[name] else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    trials = calls["harness.run_trial"]
    captures = calls["probe.capture_us"]
    segmented = calls["probe.segment_full"] + calls["probe.segment_branch"]
    regs = calls["registration.register_rigid"]
    m = {
        "probe.capture_us.calls": captures,
        "probe.capture_us.ms_per_call": per_call("probe.capture_us"),
        "probe.captures_per_trial": ratio(captures, trials),
        "probe.segmented_per_capture": ratio(segmented, captures),
        "probe.pixels_sampled_computed": captures * workloads.PROBE_PIXELS,
        "imgvol.omia.calls": calls["imgvol.omia"],
        "pipeline.hv_search.waypoints": ratio(tracer.counts["waypoints"], calls["pipeline.hv_search"]),
        "pipeline.slice_match.calls": calls["pipeline.slice_match"],
        "pipeline.slice_match.comparisons_per_target": ratio(
            tracer.counts["comparisons"], calls["pipeline.slice_match"]
        ),
        "pipeline.target_imaging.calls": calls["pipeline.target_imaging"],
        "pipeline.target_imaging.frames": tracer.counts["frames"],
        "registration.register_rigid.calls": regs,
        "harness.emit_reports.ms": per_call("harness.emit_reports"),
        "harness.pool_overhead.ms": pool_overhead_ms,
        "trace.overhead_ratio": overhead,
    }
    for name in ("segment_full", "segment_branch"):
        m[f"probe.{name}.calls"] = calls[f"probe.{name}"]
        m[f"probe.{name}.ms_per_call"] = per_call(f"probe.{name}")
    for name in ("omia", "resample_crop", "largest_connected_component"):
        m[f"imgvol.{name}.ms_per_call"] = per_call(f"imgvol.{name}")
    for name in ("hv_search", "hv_acquire", "coordinate_map"):
        m[f"pipeline.{name}.ms"] = per_call(f"pipeline.{name}")
    for name in ("slice_match", "target_imaging", "judge_success"):
        m[f"pipeline.{name}.ms_per_call"] = per_call(f"pipeline.{name}")
    m["registration.register_rigid.ms_per_call"] = per_call("registration.register_rigid")
    for level in (0, 1):
        m[f"registration.sweeps_per_level.L{level}"] = ratio(
            tracer.counts[f"sweeps.L{level}"], regs
        )
    for name in ("generate_phantom", "place_phantom", "target_grid", "ct_frame_volume"):
        m[f"phantom.{name}.ms"] = per_call(f"phantom.{name}")
    run_trial_ms = per_call("harness.run_trial")
    m["harness.run_trial.ms"] = run_trial_ms
    stage_sum = 0.0
    for stage in STAGES:
        ms = ratio(sum(s.get(stage, 0.0) for s in unit.stage_ms), len(unit.stage_ms))
        m[f"harness.stage.{stage}.ms"] = ms
        stage_sum += ms
    m["harness.stage_coverage"] = ratio(stage_sum, run_trial_ms)
    for layer, ms in tracer.self_ms().items():
        m[f"{layer}.self_ms"] = ms
    return m


def traced_run(workload, inputs, out: Path):
    # the untraced unit runs as in a --trace 0 run (sweep-noisy on its pool);
    # the traced ones run in this process, so their outputs must match it
    untraced = workload.run(inputs, out / "untraced")
    pool_overhead_ms = 0.0
    units = [untraced]
    if untraced.workers > 1:
        # wall time beyond the least the trials could take on this pool
        busiest = max(sum(s.values()) for s in untraced.stage_ms)
        balanced = untraced.busy_ms / untraced.workers
        pool_overhead_ms = untraced.wall_s * 1e3 - max(busiest, balanced)
        # pooled trials contend for the cores, so the tracing overhead is
        # taken against an untraced run in one process
        untraced = workload.run(inputs, out / "untraced-1", workers=1)
        units.append(untraced)

    traced = []
    for k in range(TRACED_REPS):
        tracer = tracing.Tracer()
        with tracer:
            unit = workload.run(inputs, out / f"traced{k}", workers=1)
        traced.append((tracer, unit))
    for k, (tracer, _) in enumerate(traced):
        (out / f"spans{k}.json").write_text(json.dumps(tracer.span_records()))

    overhead = statistics.median(u.wall_s for _, u in traced) / untraced.wall_s
    per_rep = [
        layer_metrics(tr, u, pool_overhead_ms, overhead) for tr, u in traced
    ]
    metrics = {
        name: statistics.mean(m[name] for m in per_rep) for name in PER_LAYER
    }
    work = [
        (dict(tr.calls()), dict(tr.counts)) for tr, _ in traced
    ]
    counts_repeat = all(w == work[0] for w in work)
    units += [u for _, u in traced]
    outputs_repeat = all(u.outputs() == units[0].outputs() for u in units)
    checks = {
        "outputs_repeat": outputs_repeat,
        "counts_repeat": counts_repeat,
        "traced_units": len(traced),
        **units[0].checks,
    }
    ok = outputs_repeat and counts_repeat and all(u.ok for u in units)
    return metrics, checks, ok, units


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "usreg_sim" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'usreg_sim'} not found; run from a usreg-sim checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # forked pool workers inherit sys.path; set-up sample processes need this
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )

    t0 = time.perf_counter()
    import usreg_sim
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; options: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "traced" if args.trace else "full"
    workload = workloads.WORKLOADS[args.workload](size)
    inputs = workload.build(args.seed)
    setup_first = time.perf_counter() - t0
    if args.setup_only:
        print(repr(setup_first))
        return 0
    if Path(usreg_sim.__file__).resolve().parent != SRC / "usreg_sim":
        print(f"perfbench: imported usreg_sim from {usreg_sim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if args.trace:
        metrics, checks, ok, units = traced_run(workload, inputs, out)
        spec = PER_LAYER
    else:
        metrics, checks, ok, units = timed_run(args, workload, inputs, out, setup_first)
        spec = END_TO_END

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    facts = machine_facts()
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "machine": facts, "checks": checks,
        "metrics": metrics,
    }
    (out / "result.json").write_text(json.dumps(details, indent=2, sort_keys=True) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, (unit, better) in spec.items():
        print(f"  {name:<48} {metrics[name]:>14.6g} {unit:<6} ({better} is better)")
    print("checks " + " ".join(f"{k}={v}" for k, v in checks.items()))
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, (unit, _) in spec.items()
        },
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
