"""Seeded closed-loop benchmark for the rggames engine.

    python3 bench/run.py --workload equilibria --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client, one process, one job at a time: each job is a CLI invocation
through `rggames.cli.main(argv)` (stdout captured) or a public library call,
on inputs that bench/corpus.py writes from the seed.  Every output is checked
against bench/reference.py; a job that raises, exits with the wrong code or
fails its check counts as failed.

--trace 0 makes whole passes over the corpus until --seconds of job time and
prints the end-to-end metrics, from per-job medians of probe-calibrated times
(see calibrate).  --trace 1 runs one untraced pass and one traced pass over
the whole corpus (a fixed job list, so counts repeat exactly), writes the
spans to .bench_work/, and prints every per-module metric (the result object
carries those in PER_LAYER).  The last line of stdout is always one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from time import perf_counter

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 15
# Job times are scaled by (PROBE_REF_S / local probe time) ** PROBE_EXPONENT: the
# host is shared and its speed for interpreted code drifts by tens of percent over
# seconds to minutes, which the probe sees as the jobs do.  0.7 ms is the probe on
# the 2-vCPU host the baseline was taken on, when quiet.  When the host is busy
# the probe slows more than the jobs do: with exponent 1, hardness throughput
# read higher the busier the host; with 0.75, p90 job times read higher the
# busier the host (see bench/NOTES.md).
PROBE_REF_S = 0.7e-3
PROBE_EXPONENT = 0.85
PROBE_WINDOW = 6
# cheap strata whose first job warms every command path before timing starts
WARMUP = {
    "equilibria": ("verify-spl", "potential-spl", "dynamics-spl", "theorem3"),
    "structure": ("consistent-m2L1", "violation-raw", "gadget-L3", "weighted-affine",
                  "violation_to_counterexample", "check_AB_symmetry"),
    "hardness": ("reduce-sat-c3", "verify-sat-c3", "solve-sat-c3", "check-sat-c3",
                 "reduce-pairs", "check-pairs"),
}
# Per-module metrics that go into the result object: those above 0 on every
# workload.  The others read 0 where their module is idle, or count exceptions,
# which is 0 on a correct program; they are printed with these, not returned.
PER_LAYER = (
    "core.strategies.calls", "core.strategies.self_s", "core.private_cost.calls",
    "core.private_cost.self_s", "core.load_of.calls",
    "costs.eval_cost_entry.calls", "costs.eval_cost_entry.self_s",
    "matroid.enumerate_bases.yield",
    "dynamics.verify_pne.calls", "dynamics.verify_pne.self_s",
    "dynamics.brute_force_pne.self_s", "dynamics.brute_force_pne.profiles",
    "cli.main.self_s", "cli.stdout_bytes", "trace.overhead_ratio",
)
# times the import, then the probe in the same fresh interpreter (see import_seconds)
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
    "import rggames.cli, rggames.potential, rggames.reductions; "
    "t = time.perf_counter() - t; from run import probe_seconds; print(t, probe_seconds())"
)


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import rggames from this checkout's src/ only."""
    package = SRC / "rggames"
    if not (package / "__init__.py").is_file():
        die(f"no rggames sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import libjobs
        import rggames.cli
    except Exception as exc:  # any import failure means there is no program to measure
        die(f"cannot import rggames: {exc!r}")
    if Path(rggames.__file__).resolve().parent != package.resolve():
        die(f"imported rggames from {rggames.__file__}, not from {package}")
    return rggames.cli, libjobs.LIBRARY


def import_seconds() -> tuple:
    """Import time of the package in a fresh interpreter, as a CLI user pays it,
    and the probe time in that interpreter just after, which calibrates it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                          cwd=str(ROOT), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        die(f"import probe failed: {proc.stderr.strip()}")
    seconds, probe = map(float, proc.stdout.split())
    return seconds, probe


# --------------------------------------------------------------------- jobs


@dataclass
class Result:
    seconds: float
    code: object
    stdout: str
    value: object
    crash: str | None


class Runner:
    def __init__(self, cli, library, workdir: Path, files: set):
        self.cli, self.library, self.workdir, self.files = cli, library, workdir, files

    def run(self, job: corpus.Job) -> Result:
        code = value = crash = None
        out, err = io.StringIO(), io.StringIO()
        if job.lib is None:
            argv = [str(self.workdir / a) if a in self.files else a for a in job.argv]
            t0 = perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed job, not a benchmark error
                crash = repr(exc)
            dt = perf_counter() - t0
        else:
            t0 = perf_counter()
            try:
                value = self.library[job.lib](str(self.workdir), **job.params)
            except Exception as exc:
                crash = repr(exc)
            dt = perf_counter() - t0
        if crash is None and err.getvalue() and code not in (0, 1):
            crash = err.getvalue().strip()
        return Result(dt, code, out.getvalue(), value, crash)


class Ledger:
    """Checks each job's first run against the corpus; later runs must repeat it byte for byte."""

    def __init__(self, jobs: list):
        self.jobs = jobs
        self.first: dict = {}
        self.stdout_sha = hashlib.sha256()
        self.attempted = 0
        self.failures: list = []

    def record(self, idx: int, res: Result) -> None:
        job = self.jobs[idx]
        self.attempted += 1
        fingerprint = hashlib.sha256(repr((res.code, res.stdout, res.value)).encode()).digest()
        if idx not in self.first:
            self.stdout_sha.update(res.stdout.encode())
            try:
                error = res.crash or job.check(res.code, res.stdout, res.value)
            except Exception as exc:  # malformed output fails this job, not the run
                error = f"check raised {exc!r}"
            self.first[idx] = fingerprint if error is None else None
        elif self.first[idx] is None:
            error = "failed on its first run"
        else:
            error = None if fingerprint == self.first[idx] else "output differs from its first run"
        if error:
            self.failures.append(f"{job.name}: {error}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def interquartile_mean(values: list) -> float:
    """Mean of the middle half."""
    ordered = sorted(values)
    k = len(ordered) // 4
    return statistics.fmean(ordered[k:len(ordered) - k])


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


# -------------------------------------------------------------- workloads


def calibration_kernel() -> float:
    """Seconds for a fixed pure-Python task (Fractions, tuples, dicts): a probe
    of how fast the machine runs interpreted code right now.  The cyclic GC is
    off meanwhile, so the size of the program's heap cannot change the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc, seen = Fraction(0), {}
        for a in range(1, 16):
            for b in range(1, 12):
                acc += Fraction(a, b) * Fraction(b + 1, a + 2)
        for combo in combinations(range(9), 3):
            seen[combo] = tuple(x for x in combo if x % 2)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def probe_seconds(n: int = 2 * PROBE_WINDOW + 1) -> float:
    """Median of n probes."""
    return statistics.median(calibration_kernel() for _ in range(n))


def at_reference(seconds: float, probe: float) -> float:
    """A time measured while the probe took `probe` seconds, at the reference speed."""
    return seconds * (PROBE_REF_S / probe) ** PROBE_EXPONENT


def calibrate(times: list, probes: list, stamps: list) -> list:
    """Scale each job time to the reference speed (see at_reference) by the
    median of the probes taken within one job duration of the job (and at least
    the PROBE_WINDOW nearest on each side), so a long job is judged by the speed
    over a span as long as itself."""
    out = []
    for i, t in enumerate(times):
        lo, hi = max(0, i - PROBE_WINDOW), min(len(probes), i + PROBE_WINDOW + 1)
        while lo > 0 and stamps[lo - 1] >= stamps[i] - t:
            lo -= 1
        while hi < len(probes) and stamps[hi] <= stamps[i] + 2 * t:
            hi += 1
        out.append(at_reference(t, statistics.median(probes[lo:hi])))
    return out


def setup(workload: str, seed: int, workdir: Path, cli, library):
    """Import, corpus generation and warm-up, each repeated SETUP_REPS times;
    returns (jobs, digest, runner, parts) where parts maps each step to the
    (calibrated, raw) interquartile mean of its repeats.  The import is calibrated
    by the probe in its own interpreter, the other steps by the probes on either
    side of them."""
    reps = []
    for _ in range(SETUP_REPS):
        t_import, import_probe = import_seconds()
        before = probe_seconds()
        t0 = perf_counter()
        jobs, digest, files = corpus.build(workload, seed, str(workdir))
        t_corpus = perf_counter() - t0
        between = probe_seconds()
        runner = Runner(cli, library, workdir, files)
        firsts = {}
        for job in jobs:
            firsts.setdefault(job.stratum, job)
        t0 = perf_counter()
        for stratum in WARMUP[workload]:
            runner.run(firsts[stratum])
        t_warm = perf_counter() - t0
        after = probe_seconds()
        reps.append({
            "import": (at_reference(t_import, import_probe), t_import),
            "corpus": (at_reference(t_corpus, statistics.median((before, between))), t_corpus),
            "warm-up": (at_reference(t_warm, statistics.median((between, after))), t_warm),
        })
    parts = {step: tuple(interquartile_mean([rep[step][i] for rep in reps]) for i in (0, 1))
             for step in reps[0]}
    return jobs, digest, runner, parts


def one_pass(jobs, runner: Runner, ledger: Ledger) -> tuple:
    """Runs every job once, each after a calibration probe; returns
    (raw job times, probe times, probe start stamps, stdout bytes)."""
    times, probes, stamps, out_bytes = [], [], [], 0
    for idx, job in enumerate(jobs):
        stamps.append(perf_counter())
        probes.append(calibration_kernel())
        res = runner.run(job)
        ledger.record(idx, res)
        times.append(res.seconds)
        out_bytes += len(res.stdout.encode())
    return times, probes, stamps, out_bytes


def measure(args) -> dict:
    cli, library = import_program()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        jobs, digest, runner, parts = setup(args.workload, args.seed, workdir, cli, library)
        setup_s = sum(cal for cal, _raw in parts.values())
        ledger = Ledger(jobs)
        print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs, "
              f"corpus_sha256 {digest}")
        print(f"setup_s {setup_s:.4f} s (sum of per-step interquartile means of {SETUP_REPS}, "
              "calibrated; "
              + ", ".join(f"{step} {cal:.4f} [{raw:.4f}]" for step, (cal, raw) in parts.items())
              + ")")
        if args.trace:
            metrics = traced(args, jobs, runner, ledger)
        else:
            metrics = untraced(args, jobs, runner, ledger, setup_s)
        print(f"stdout_sha256 {ledger.stdout_sha.hexdigest()} (first run of "
              f"{len(ledger.first)} of {len(jobs)} jobs)")
        for line in ledger.failures[:20]:
            print(f"FAILED {line}")
        return {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def untraced(args, jobs, runner, ledger, setup_s) -> dict:
    """Whole passes until `seconds` of raw job time, so every run measures the
    same job mix.  A job's time is the median of its calibrated runs; throughput
    is jobs per pass over the sum of those medians."""
    raw_passes, probes, stamps = [], [], []
    while sum(map(sum, raw_passes)) < args.seconds:
        times, pass_probes, pass_stamps, _ = one_pass(jobs, runner, ledger)
        raw_passes.append(times)
        probes += pass_probes
        stamps += pass_stamps
    flat = calibrate([t for p in raw_passes for t in p], probes, stamps)
    n, k = len(jobs), len(raw_passes)
    cal_passes = [flat[i:i + n] for i in range(0, len(flat), n)]
    job_s = [statistics.median(runs) for runs in zip(*cal_passes)]
    pass_s = sum(job_s)
    metrics = {
        "jobs_per_s": (n / pass_s, "jobs/s"),
        "job_ms_p50": (statistics.median(job_s) * 1e3, "ms"),
        "job_ms_p90": (percentile(job_s, 90) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    raw_job_s = [statistics.median(runs) for runs in zip(*raw_passes)]
    beyond = sum(1 for t in job_s if t * 1e3 > metrics["job_ms_p90"][0])
    print(f"probe median {statistics.median(probes) * 1e3:.4f} ms over {len(probes)} probes "
          f"(reference {PROBE_REF_S * 1e3:.1f} ms); raw values in brackets")
    print(f"jobs_per_s {n / pass_s:.4f} jobs/s [{n / sum(raw_job_s):.4f}] "
          f"({n} jobs per pass, each the median of {k} runs)")
    print(f"job_ms_p50 {metrics['job_ms_p50'][0]:.4f} ms [{statistics.median(raw_job_s) * 1e3:.4f}] "
          f"(n={n} jobs, each the median of {k} runs)")
    print(f"job_ms_p90 {metrics['job_ms_p90'][0]:.4f} ms [{percentile(raw_job_s, 90) * 1e3:.4f}] "
          f"(n={n} jobs, {beyond} beyond)")
    print(f"fail_frac {ledger.failed / ledger.attempted:.4f} ratio "
          f"({ledger.failed} of {ledger.attempted} job runs)")
    print(f"peak_rss_mb {metrics['peak_rss_mb'][0]:.2f} MiB (n=1 process)")
    return metrics


def traced(args, jobs, runner, ledger) -> dict:
    from tracer import Tracer

    plain, plain_probes, plain_stamps, _ = one_pass(jobs, runner, ledger)
    tracer = Tracer()
    tracer.install()
    try:
        traced_times, traced_probes, traced_stamps, out_bytes = one_pass(jobs, runner, ledger)
    finally:
        tracer.uninstall()
    spans = WORK / f"spans-{args.workload}-{args.seed}.tsv"
    tracer.write_spans(str(spans))
    metrics = tracer.metrics()
    metrics["cli.stdout_bytes"] = (out_bytes, "bytes")
    plain_s = sum(calibrate(plain, plain_probes, plain_stamps))
    traced_s = sum(calibrate(traced_times, traced_probes, traced_stamps))
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    print(f"traced pass: {len(jobs)} jobs, {sum(traced_times):.2f} s traced vs "
          f"{sum(plain):.2f} s untraced (raw); {len(tracer.span_start)} spans in "
          f"{spans.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"module {name} {value!r} {unit}")
    return {name: metrics[name] for name in PER_LAYER}


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in corpus.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            die(f"{workload} run failed: {proc.stderr.strip()}")
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    return merged


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*corpus.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    result = run_all(args) if args.workload == "all" else measure(args)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
