"""Self-test of the benchmark: a smoke run of every workload, untraced and traced.

    python3 perfbench/selftest.py

Each run uses ``--smoke`` (units of a few seconds) and must exit 0 with
``correct`` true. Its last line must report every metric BENCHMARK.json
lists for its mode, with the unit listed there, and nothing else. Finally
the benchmark must refuse, with a non-zero exit and no result line, to run
from a directory that holds only BENCHMARK.json and the benchmark itself.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
# runnable by hand but not listed in BENCHMARK.json
EXTRA_WORKLOADS = ("trial-zero",)


def fail(msg: str) -> None:
    print(f"SELFTEST FAIL: {msg}")
    sys.exit(1)


def run_bench(script: Path, workload: str, trace: int, cwd: Path):
    cmd = [
        sys.executable, str(script), "--workload", workload, "--seed", "0",
        "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in [w["name"] for w in spec["workloads"]] + list(EXTRA_WORKLOADS):
        for trace in (0, 1):
            done = run_bench(RUN, workload, trace, ROOT)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                fail(f"{label} exited {done.returncode}\n{done.stdout}\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                fail(f"{label}: correct={result['correct']} attempted={result['attempted']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(
                    n for n in set(got) & set(expected[trace]) if got[n] != expected[trace][n]
                )
                fail(f"{label}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
                    fail(f"{label}: {name} is not a number: {m['value']!r}")
            print(f"ok  {label}: {len(got)} metrics")

    bare = ROOT / "perfbench" / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(
        ROOT / "perfbench", bare / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = run_bench(bare / "perfbench" / "run.py", spec["workloads"][0]["name"], 0, bare)
    shutil.rmtree(bare)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        fail(f"ran without the package source: exit {done.returncode}\n{done.stdout}")
    print("ok  refuses to run without src/usreg_sim")
    print("SELFTEST PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
