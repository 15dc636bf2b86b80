"""Benchmark of the polariton-mbc CLI, run from the repository root:

    python3 bench/run.py --workload coupling_sweep --seed 1 --seconds 30 --trace 0

Builds the workload's CLI invocations from bench/workloads.json and the
seed, times the package import in fresh interpreters (setup_s), then runs
the invocations pass after pass through polariton_mbc.cli.main in one
fresh single-threaded process (bench/worker.py) for --seconds (run_s).
Both times are medians of host-adjusted samples (bench/reference.py);
the raw medians are printed beside them. Every output file is checked
afterwards (bench/checker.py). With --trace 1 the
worker also runs traced passes of the workload and one traced pass of all
eight commands at their default sweeps, and the per-layer metrics are
printed instead of the end-to-end ones. Metric names and units come from
BENCHMARK.json. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checker import KNOWN_DEFECTS, check_invocation
from reference import REFERENCE_S, adjusted, reference_work
from worker import OUTPUTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = "polariton_mbc"
SETUP_SAMPLES = 8  # fresh imports before and again after the workload process
MAX_SECONDS = 60
DEADLINE_S = 170  # the whole run, set-up and checks included
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import polariton_mbc.cli; "
    "print(time.perf_counter() - t)"
)


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def build_invocations(entries, seed_key, out_dir):
    """CLI argument lists for one workload; the seed only moves jittered values."""
    rng = random.Random(seed_key)
    out = []
    for entry in entries:
        sets = dict(entry["set"])
        for key, (lo, hi) in entry.get("jitter", {}).items():
            sets[key] = repr(round(rng.uniform(lo, hi), 6))
        if "centred" in entry:
            # odd point count around the centre keeps a grid point on it
            centre = entry["centred"]["centre"]
            half = round(rng.uniform(*entry["centred"]["half_width"]), 6)
            sets["sweep.start"] = repr(centre - half)
            sets["sweep.stop"] = repr(centre + half)
        argv = [entry["command"], "--out", out_dir]
        if entry.get("svg"):
            argv.append("--svg")
        for key, value in sets.items():
            argv += ["--set", f"{key}={value}"]
        out.append(argv)
    return out


def run_child(label, argv, env, deadline, stdin=None) -> str:
    """Last stdout line of a child process, killed and waited for at the deadline."""
    try:
        proc = subprocess.run(
            argv, input=stdin, stdout=subprocess.PIPE, text=True, env=env,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{label} did not finish within {DEADLINE_S} s") from err
    if proc.returncode != 0:
        raise BenchError(f"{label} exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def judge(passes, invocations, out_dir, seed_key):
    """Check the files on disk and give every invocation of every pass a verdict.

    Returns (attempted, failures) with failures as (command, kind, message).
    The files on disk are the last pass's; a pass whose hashes differ from
    them, or whose exit code is not 0, fails on its own.
    """
    rng = np.random.default_rng(random.Random(seed_key).getrandbits(64))
    problems = {
        argv[0]: check_invocation(argv[0], out_dir, "--svg" in argv, rng)
        for argv in invocations
    }
    final = passes[-1]["files"]
    attempted, failures = 0, []
    for run in passes:
        for argv, code in zip(invocations, run["codes"]):
            command = argv[0]
            attempted += 1
            csvs, svgs = OUTPUTS[command]
            if code != 0:
                failures.append((command, "exit", f"exit code {code}"))
            elif any(run["files"].get(n) != final.get(n) for n in csvs + svgs):
                failures.append((command, "nondeterministic", "output differs between passes"))
            elif problems[command]:
                # report the first problem that is not a recorded defect, if any
                unknown = [p for p in problems[command] if p[0] not in KNOWN_DEFECTS]
                failures.append((command, *(unknown or problems[command])[0]))
    return attempted, failures


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_workload(args, spec, deadline):
    """Set-up samples, the worker's report, and every invocation's verdict."""
    env = child_env()
    seed_key = f"{args.workload}:{args.seed}"
    out_dir = f"{spec['out_dir']}/{args.workload}"
    defaults_dir = f"{spec['out_dir']}/defaults"
    invocations = build_invocations(
        spec["workloads"][args.workload]["commands"], seed_key, out_dir
    )
    plan = {
        "invocations": invocations,
        "out_dir": out_dir,
        "defaults": [[command, "--out", defaults_dir, "--svg"] for command in OUTPUTS],
        "defaults_dir": defaults_dir,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }
    probe = [sys.executable, "-c", IMPORT_PROBE]

    def imports():
        """Import times of fresh interpreters, with the reference work around each."""
        walls, refs = [], [reference_work()]
        for _ in range(SETUP_SAMPLES):
            walls.append(float(run_child("import probe", probe, env, deadline)))
            refs.append(reference_work())
        return walls, refs

    # the first import writes the bytecode caches, which users do not pay again
    run_child("import probe", probe, env, deadline)
    before, before_refs = imports()
    worker = [sys.executable, str(HERE / "worker.py")]
    result = json.loads(run_child("workload process", worker, env, deadline, json.dumps(plan)))
    after, after_refs = imports()
    setup = {
        "raw": before + after,
        "adjusted": adjusted(before, before_refs) + adjusted(after, after_refs),
    }

    passes = [result["warmup"], *result["timed"], *result.get("traced", [])]
    attempted, failures = judge(passes, invocations, out_dir, seed_key)
    if args.trace:
        more, more_failures = judge(
            [result["defaults"]], plan["defaults"], defaults_dir, seed_key
        )
        attempted += more
        failures += more_failures
    return invocations, setup, result, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if not (ROOT / "src" / PACKAGE / "cli.py").is_file():
            raise BenchError(f"no src/{PACKAGE} next to {HERE.name}/: run from a full checkout")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        spec = json.loads((HERE / "workloads.json").read_text())
        if args.workload not in spec["workloads"]:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not 1 <= args.seconds <= MAX_SECONDS:
            raise BenchError(f"--seconds must lie in [1, {MAX_SECONDS}]")
        os.chdir(ROOT)  # output paths, and the CSV headers that echo them, are relative
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
        invocations, setup, result, attempted, failures = run_workload(args, spec, deadline)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2

    walls = {"raw": [p["wall_s"] for p in result["timed"]]}
    walls["adjusted"] = adjusted(walls["raw"], result["refs"])
    values = {
        "setup_s": statistics.median(setup["adjusted"]),
        "run_s": statistics.median(walls["adjusted"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print(f"workload {args.workload}, seed {args.seed}:")
    for argv in invocations:
        print("  polariton-mbc " + " ".join(argv))
    print(f"host speed: reference work median {statistics.median(result['refs']):.4f} s "
          f"against {REFERENCE_S} s; times below are host-adjusted, raw in brackets")
    for name, samples, what in (
        ("setup_s", setup, "fresh imports"), ("run_s", walls, "timed passes")
    ):
        q1, q3 = quartiles(samples["adjusted"])
        print(f"{name:12s} {values[name]:.4f} s   median of {len(samples['adjusted'])} {what} "
              f"(q1 {q1:.4f}, q3 {q3:.4f}) [raw median {statistics.median(samples['raw']):.4f} s]")
    print(f"peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
    print(f"failed_frac  {len(failures) / attempted:.4f}     "
          f"{len(failures)} of {attempted} invocations failed")
    for command, kind, message in sorted(set(failures)):
        label = "known defect" if kind in KNOWN_DEFECTS else "FAILED"
        print(f"  {label} [{kind}] {command}: {message}")

    wanted = bench["end_to_end"]
    if args.trace:
        wanted = bench["per_layer"]
        values = dict(result["layers"])
        traced = statistics.median(p["wall_s"] for p in result["traced"])
        values["trace.overhead_frac"] = traced / statistics.median(walls["raw"]) - 1.0
        expected = spec["default_csv_sha256"]
        got = result["defaults"]["files"]
        same = sum(got.get(name) == digest for name, digest in expected.items())
        values["tables.csv_identical_frac"] = same / len(expected)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    if args.trace:
        print("per-layer metrics (traced run):")
        for m in wanted:
            print(f"  {m['name']:36s} {values[m['name']]!r} {m['unit']}")
    print(json.dumps({
        "correct": all(kind in KNOWN_DEFECTS for _, kind, _ in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
