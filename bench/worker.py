"""Workload process: drives polariton_mbc.cli.main in-process, pass after pass.

Reads a plan (JSON on stdin, built by run.py) and prints one JSON report
as its last stdout line. An untimed warm-up pass comes first; timed
passes follow until the plan's seconds are used, with the reference work
of reference.py run between them to track the host's speed. With tracing on, one
traced pass of the workload and one of all eight commands at their
default sweeps give the per-layer metrics, and a few more traced
workload passes time the tracing overhead. Each pass's output files are
hashed outside the timed region, so run.py can tell whether every pass
wrote the same bytes as the last one, whose files the checker reads.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

from reference import reference_work

MIN_PASSES = 3
TRACED_PASSES = 3

# Files each command writes into its output directory: (csv, svg).
OUTPUTS = {
    "dispersion": (["dispersion.csv"], ["dispersion.svg"]),
    "hopfield": (["hopfield.csv"], ["hopfield.svg"]),
    "resonances": (["resonances.csv"], []),
    "spectrum": (["spectrum.csv"], ["spectrum.svg"]),
    "kappa-sweep": (["kappa_sweep.csv"], ["kappa_sweep.svg"]),
    "figure2": (
        ["fig2_frequencies.csv", "fig2_rates.csv"],
        ["fig2_frequencies.svg", "fig2_rates.svg"],
    ),
    "greens-check": (["greens_check.csv"], []),
    "fluct": (["fluct.csv"], ["fluct.svg"]),
}


def clear(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, name))


def digest(out_dir: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_pass(main, invocations, out_dir):
    """One pass over the invocations: (wall seconds, exit codes, file hashes)."""
    clear(out_dir)
    t0 = time.perf_counter()
    codes = [main(argv) for argv in invocations]
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "codes": codes, "files": digest(out_dir)}


def run(plan: dict) -> dict:
    from polariton_mbc import cli

    invocations, out_dir = plan["invocations"], plan["out_dir"]
    warmup = run_pass(cli.main, invocations, out_dir)
    timed = []
    refs = [reference_work()]
    started = time.perf_counter()
    while len(timed) < MIN_PASSES or time.perf_counter() - started < plan["seconds"]:
        timed.append(run_pass(cli.main, invocations, out_dir))
        refs.append(reference_work())
    report = {"warmup": warmup, "timed": timed, "refs": refs}

    if plan["trace"]:
        from tracer import Tracer, layer_metrics

        with Tracer() as tracer:
            traced = [run_pass(cli.main, invocations, out_dir)]
            report["defaults"] = run_pass(cli.main, plan["defaults"], plan["defaults_dir"])
        report["layers"] = layer_metrics(tracer)
        # more traced passes only to time the tracing overhead
        for _ in range(TRACED_PASSES - 1):
            with Tracer():
                traced.append(run_pass(cli.main, invocations, out_dir))
        report["traced"] = traced

    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return report


if __name__ == "__main__":
    result = run(json.load(sys.stdin))
    sys.stdout.write(json.dumps(result) + "\n")
