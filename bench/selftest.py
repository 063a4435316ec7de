#!/usr/bin/env python3
"""Quick self-test of the benchmark itself.

    python3 bench/selftest.py

For every workload in BENCHMARK.json it runs a tiny-size, one-second run
and checks that the run passes and prints every end-to-end metric with the
unit BENCHMARK.json gives; then it plants a wrong expected answer and
checks that the gate fails (exit code 1, ``"correct": false``), and runs
the traced run for the per-layer metrics.  Last it runs the benchmark in a
directory holding only BENCHMARK.json and the benchmark's files, where it
must exit non-zero without a result.  Exit code 0 when all of that holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, *args: str):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def check_metrics(where: str, proc, result, spec: list[dict]) -> list[str]:
    problems = []
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(want):
        problems.append(f"{where}: metrics {sorted(metrics)} != {sorted(want)}")
    for name, unit in want.items():
        got = metrics.get(name, {})
        value = got.get("value")
        if got.get("unit") != unit:
            problems.append(f"{where}: {name} has unit {got.get('unit')!r}, not {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} is not a finite number: {value!r}")
        if not any(line.startswith(f"{name} ") and f" {unit}" in line
                   for line in proc.stdout.splitlines()[:-1]):
            problems.append(f"{where}: no printed line gives {name} with its unit")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tiny = ["--seed", "1", "--seconds", "1", "--tiny"]
    problems: list[str] = []
    for wl in spec["workloads"]:
        name = wl["name"]
        proc, result = run(ROOT, "--workload", name, "--trace", "0", *tiny)
        if proc.returncode != 0 or not result or not result["correct"]:
            problems.append(f"{name}: tiny run failed (exit {proc.returncode}): "
                            f"{proc.stderr[-500:]}")
            continue
        problems += check_metrics(name, proc, result, spec["end_to_end"])
        if not all(m["value"] > 0 for m in result["metrics"].values()):
            problems.append(f"{name}: an end-to-end metric is not positive")
        proc, result = run(ROOT, "--workload", name, "--trace", "0",
                           "--plant-wrong", *tiny)
        if proc.returncode != 1 or not result or result["correct"] or not result["failed"]:
            problems.append(f"{name}: a planted wrong answer did not fail the gate "
                            f"(exit {proc.returncode}, result {result})")
        proc, result = run(ROOT, "--workload", name, "--trace", "1", *tiny)
        if proc.returncode != 0 or not result or not result["correct"]:
            problems.append(f"{name}: traced run failed (exit {proc.returncode}): "
                            f"{proc.stderr[-500:]}")
        else:
            problems += check_metrics(f"{name} traced run", proc, result, spec["per_layer"])
        print(f"{name}: ok", flush=True)

    bare = ROOT / ".bench_out" / f"bare-{os.getpid()}"
    try:
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc, result = run(bare, "--workload", spec["workloads"][0]["name"],
                           "--trace", "0", *tiny)
        if proc.returncode == 0 or result is not None:
            problems.append("without the sources the benchmark did not fail cleanly")
        else:
            print("bare directory: fails as it should", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    print("self-test " + ("passed" if not problems else f"failed: {len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
