#!/usr/bin/env python3
"""randkp benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload growth-whole --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/`` and nowhere else.  ``--trace 0`` measures the
end-to-end metrics, ``--trace 1`` the per-layer ones (see BENCHMARK.json
and README.md in this directory).  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run record (machine, versions, load, calibration, digest, failures)
goes to standard error and to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(CHECKOUT, "src")
OUT_DIR = os.path.join(CHECKOUT, ".bench_out")
WORK_ROOT = os.path.join(CHECKOUT, ".bench_work")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
WORKLOAD_NAMES = ("growth-whole", "growth-dn", "count-refine64", "crosscheck")
SETUP_ROUNDS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="untraced runs repeat the job until this much time is used")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="minimal input sizes, for the benchmark's own tests")
    p.add_argument("--reference", default=REFERENCE, help="JSON file of reference digests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_randkp() -> float:
    """Import the checkout's package; returns the import time in seconds."""
    pkg = os.path.join(SRC, "randkp")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        raise SystemExit(f"error: no randkp package under {SRC}; run the benchmark inside a full checkout")
    sys.path.insert(0, SRC)
    t = time.perf_counter()
    import randkp  # noqa: F401  (numpy and scipy come with it)
    import randkp.cli  # noqa: F401
    elapsed = time.perf_counter() - t
    if os.path.realpath(os.path.dirname(randkp.__file__)) != os.path.realpath(pkg):
        raise SystemExit(f"error: imported randkp from {randkp.__file__}, not from {pkg}")
    return elapsed


def calibrate() -> float:
    """Median time of a fixed numpy + pure-Python loop that uses no randkp code.

    It tracks how fast the machine runs at the moment, so two runs of the
    same code that differ in time can be told apart from a slower machine.
    """
    import numpy as np

    a = np.random.default_rng(0).random(200_000)
    times = []
    for _ in range(21):
        t = time.perf_counter()
        acc = 0.0
        for i in range(50_000):
            acc += math.sqrt(i)
        np.sort(a)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children (pool workers)."""
    s, c = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child, in MB."""
    s, c = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return (s.ru_maxrss + c.ru_maxrss) / 1024.0


def digest(record) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def machine_record() -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        # the ceiling keeps git from reporting a repository that encloses the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(CHECKOUT))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT, env=env, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "randkp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu_model, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "git_sha": sha,
        "src_sha256": h.hexdigest()[:16],
    }


def measure_jobs(w, seconds: float, jobs: list, failures: list) -> None:
    """Repeat the job until the next one would end past ``seconds``; at least once."""
    t0 = time.perf_counter()
    while True:
        c0, t = cpu_seconds(), time.perf_counter()
        try:
            res = w.job()
        except Exception:
            failures.append(("job", traceback.format_exc()))
            return
        wall = time.perf_counter() - t
        jobs.append((wall, cpu_seconds() - c0, res))
        if time.perf_counter() - t0 + wall > seconds:
            return


def per_layer_metrics(tr, first, levels, overhead_s, calib_s, failed_trials) -> dict:
    tot = tr.totals()

    def get(name, key="s"):
        return tot.get(name, {}).get(key, 0)

    def per(name, key, scale=1e9):
        n = get(name, key)
        return scale * get(name) / n if n else 0.0

    trial_s = tr.durations("montecarlo.run_trial")
    exp_trials = sum(s["work"]["trials"] for s in tr.spans if s["name"] == "montecarlo.run_experiment")
    exp_capacity = sum(s["work"]["workers"] * (s["end"] - s["start"])
                       for s in tr.spans if s["name"] == "montecarlo.run_experiment")
    efficiency = (statistics.fmean(trial_s) * exp_trials / exp_capacity) if trial_s and exp_capacity else 0.0

    # cli.count self time: over the replay's work units (files), where each CLI
    # call runs right before the library calls on the same file
    cli_self = 0.0
    for unit in {s["unit"] for s in tr.spans if s["name"] == "spectral.sandwich_counts"} & \
            {s["unit"] for s in tr.spans if s["name"] == "cli.count"}:
        part = {n: sum(s["end"] - s["start"] for s in tr.spans if s["name"] == n and s["unit"] == unit)
                for n in ("cli.count", "randpot.load_realization", "spectral.sandwich_counts")}
        cli_self += part["cli.count"] - part["randpot.load_realization"] - part["spectral.sandwich_counts"]

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("randpot.sample.s", get("randpot.sample"), "s")
    put("randpot.sample.ns_per_gap", per("randpot.sample", "gaps"), "ns")
    put("randpot.bernoulli_lattice.s", get("randpot.bernoulli_lattice"), "s")
    put("randpot.bernoulli_lattice.ns_per_cell", per("randpot.bernoulli_lattice", "cells"), "ns")
    for n in ("build_realization", "truncate", "load_realization", "save_realization"):
        put(f"randpot.{n}.s", get(f"randpot.{n}"), "s")
    for n, work, unit in (("count_with_bracketed_w", "subpieces", "subpiece"),
                          ("bracket_certificate", "segments", "segment")):
        put(f"spectral.{n}.s", get(f"spectral.{n}"), "s")
        put(f"spectral.{n}.calls", get(f"spectral.{n}", "calls"), "count")
        put(f"spectral.{n}.{work}", get(f"spectral.{n}", work), "count")
        put(f"spectral.{n}.ns_per_{unit}", per(f"spectral.{n}", work), "ns")
    put("spectral.sandwich_counts.s", get("spectral.sandwich_counts"), "s")
    put("spectral.sandwich_counts.calls", get("spectral.sandwich_counts", "calls"), "count")
    put("spectral.refine_level", statistics.fmean(levels) if levels else 0.0, "subpieces")
    put("spectral.refined_share", sum(lv > 4 for lv in levels) / len(levels) if levels else 0.0, "ratio")
    put("spectral.count_negative_exact.s", get("spectral.count_negative_exact"), "s")
    put("spectral.count_negative_exact.calls", get("spectral.count_negative_exact", "calls"), "count")
    put("spectral.count_negative_exact.ns_per_piece", per("spectral.count_negative_exact", "pieces"), "ns")
    put("spectral.fd_inertia_count.s", get("spectral.fd_inertia_count"), "s")
    put("spectral.fd_inertia_count.mesh_points", get("spectral.fd_inertia_count", "mesh_points"), "count")
    put("spectral.fd_inertia_count.ns_per_mesh_point", per("spectral.fd_inertia_count", "mesh_points"), "ns")
    put("spectral.cert_width_sum", first.cert_width_sum if first else 0, "count")
    put("spectral.unconverged", first.unconverged if first else 0, "count")
    put("spectral.dn_gap_sum", first.dn_gap_sum if first else 0, "count")
    for n in ("borderline", "bc_sum", "expectation_bounds"):
        put(f"theory.{n}.s", get(f"theory.{n}"), "s")
    put("montecarlo.run_trial.s.p50", statistics.median(trial_s) if trial_s else 0.0, "s")
    put("montecarlo.run_trial.s.max", max(trial_s) if trial_s else 0.0, "s")
    put("montecarlo.run_trial.n", len(trial_s), "count")
    put("montecarlo.run_experiment.s", get("montecarlo.run_experiment"), "s")
    put("montecarlo.parallel_efficiency", efficiency, "ratio")
    put("montecarlo.trials_failed", failed_trials, "count")
    put("montecarlo.estimate_expected_count.s", get("montecarlo.estimate_expected_count"), "s")
    put("cli.count.s", get("cli.count"), "s")
    put("cli.count.self_s", cli_self, "s")
    put("cli.generate.s", get("cli.generate"), "s")
    put("bench.tracing_overhead_s", overhead_s, "s")
    put("bench.calib_s", calib_s, "s")
    return m


def run(args, import_s: float, workdir: str) -> tuple:
    from tracing import Tracer
    import workloads as wl

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "quick": args.quick, "loadavg_start": os.getloadavg(), **machine_record()}
    calib = [calibrate()]
    tr = Tracer(enabled=bool(args.trace))
    w = wl.WORKLOADS[args.workload](args.seed, args.quick, workdir, tr)
    failures = []  # (work unit, message)
    jobs = []  # (wall s, cpu s, JobResult)
    levels = []

    rounds = []
    overhead_s = 0.0
    # a stage that raises is one failed operation; the run still prints a result
    try:
        for _ in range(1 if args.trace else SETUP_ROUNDS):
            t = time.perf_counter()
            w.setup()
            rounds.append(time.perf_counter() - t)
        if args.trace:
            tr.enabled = False
            measure_jobs(w, 0.0, jobs, failures)
            tr.enabled = True
            measure_jobs(w, 0.0, jobs, failures)
            if len(jobs) == 2:
                overhead_s = jobs[1][0] - jobs[0][0]
                failures += w.replay(jobs[1][2])
                levels = getattr(w, "levels", [])
            probe_dir = os.path.join(workdir, "probe")
            os.makedirs(probe_dir)
            probe_levels = wl.probe_unused_layers(tr, args.seed, probe_dir, os.cpu_count() or 1)
            levels = levels or probe_levels
        else:
            measure_jobs(w, args.seconds, jobs, failures)
    except Exception:
        failures.append(("stage", traceback.format_exc()))
    tr.enabled = False
    calib.append(calibrate())

    # correctness: every check of every job, the repeat digest, the stored digest
    attempted = sum(r.units for _, _, r in jobs) + max(len(jobs) - 1, 0)
    for _, _, r in jobs:
        failures += r.failures
    digests = [digest(r.record) for _, _, r in jobs]
    for k, d in enumerate(digests[1:], start=1):
        if d != digests[0]:
            failures.append((f"job{k}", f"job {k} digest {d} differs from job 0 digest {digests[0]}"))
    ref_key = args.workload + ("@quick" if args.quick else "")
    try:
        with open(args.reference) as fh:
            stored = json.load(fh).get("digests", {}).get(ref_key, {}).get(str(args.seed))
    except (OSError, ValueError) as exc:
        stored = None
        print(f"warning: cannot read reference digests: {exc}", file=sys.stderr)
    if digests and stored is not None:
        attempted += 1
        if stored != digests[0]:
            failures.append(("reference", f"digest {digests[0]} != stored reference {stored}"))
    elif digests:
        print(f"digest {args.workload} seed {args.seed}: {digests[0]} (no stored reference)", file=sys.stderr)
    attempted += sum(unit in ("stage", "job") for unit, _ in failures)
    failed = min(len({unit for unit, _ in failures}), attempted)

    walls = [j[0] for j in jobs]
    record.update({
        "loadavg_end": os.getloadavg(), "calib_s": calib, "import_s": import_s, "setup_rounds_s": rounds,
        "jobs": [{"wall_s": j[0], "cpu_s": j[1]} for j in jobs], "units_per_job": jobs[0][2].units if jobs else 0,
        "digest": digests[0] if digests else None, "reference_digest": stored,
        "fd_near_ties": jobs[0][2].fd_near_ties if jobs else 0,
        "failures": [f"{u}: {msg}" for u, msg in failures[:50]],
    })
    if levels:
        record["refine_levels"] = levels

    if args.trace:
        failed_trials = len({u for u, _ in failures if "/trial" in u}) if args.workload.startswith("growth") else 0
        metrics = per_layer_metrics(tr, jobs[-1][2] if jobs else None, levels, overhead_s,
                                    statistics.median(calib), failed_trials)
        os.makedirs(OUT_DIR, exist_ok=True)
        tr.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        wall = statistics.median(walls) if walls else float("nan")
        units = jobs[0][2].units if jobs else 0
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "work_per_s": {"value": units / wall if walls else 0.0, "unit": "units/s"},
            "setup_s": {"value": import_s + (statistics.median(rounds) if rounds else 0.0), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "cpu_s": {"value": statistics.median(j[1] for j in jobs) if jobs else 0.0, "unit": "s"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_randkp()
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        record, result = run(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record), file=sys.stderr)
    for line in record["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
