"""Determinism self-check for the benchmark.

    python3 bench/selfcheck.py

Runs the traced mode twice at seed 1 for each workload and requires every
count, ratio and byte metric it prints (all per-module metrics except self
times and trace.overhead_ratio) and the stdout digest to be identical.  It
also requires seed 1 to give one corpus digest and seed 2 another.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import corpus

RUN = Path(__file__).resolve().parent / "run.py"
SEED = 1


def traced_run(workload: str) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: traced run failed: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    digest = next(line.split()[1] for line in lines if line.startswith("stdout_sha256 "))
    exact = {}
    for line in lines:
        if line.startswith("module "):
            _, name, value, unit = line.split()
            if unit != "s" and name != "trace.overhead_ratio":
                exact[name] = value
    return result["correct"], exact, digest


def main() -> int:
    problems = []
    work = RUN.parent.parent / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for workload in corpus.WORKLOADS:
            a = corpus.build(workload, SEED, f"{tmp}/{workload}-a")[1]
            b = corpus.build(workload, SEED, f"{tmp}/{workload}-b")[1]
            c = corpus.build(workload, SEED + 1, f"{tmp}/{workload}-c")[1]
            if a != b:
                problems.append(f"{workload}: seed {SEED} gave two corpus digests")
            if a == c:
                problems.append(f"{workload}: seeds {SEED} and {SEED + 1} gave one corpus")
    for workload in corpus.WORKLOADS:
        first, second = traced_run(workload), traced_run(workload)
        for label, run in (("first", first), ("second", second)):
            if not run[0]:
                problems.append(f"{workload}: {label} traced run failed its output checks")
        for name in sorted(first[1]):
            if first[1][name] != second[1].get(name):
                problems.append(f"{workload}: {name} {first[1][name]} != {second[1].get(name)}")
        if first[2] != second[2]:
            problems.append(f"{workload}: stdout digests differ")
        print(f"{workload}: {len(first[1])} counters compared, stdout_sha256 {first[2]}")
    for line in problems:
        print(f"MISMATCH {line}")
    print("determinism self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
