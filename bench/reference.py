"""Fixed reference work that measures how fast the host runs right now.

On a shared 2-vCPU virtual machine the single-thread speed of every
process was seen to change by up to 2x over minutes, so raw wall times of
runs made minutes apart are not comparable. Each timed pass and each
import probe is therefore paired with `reference_work` run next to it,
and its time is reported as `wall * REFERENCE_S / reference`
("host-adjusted" seconds: the time on a host where `reference_work`
takes REFERENCE_S). The work mixes what the program spends its time on
(scalar numpy calls from Python loops, vector numpy over a dense grid,
float formatting, plain interpreter work) and does not use the package,
so no change to the program can move it.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.045  # about its time on that VM at full speed (Python 3.11, numpy 2.4)


def reference_work() -> float:
    """Run the fixed work once and return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0j
    for i in range(4500):
        z = np.asarray(1.2 + 1e-4 * i, dtype=complex)
        n = np.sqrt(1.0 + 0.36 / (1.0 - z * z))
        acc += complex(np.where(n.imag < 0.0, -n, n))
    # small blocks, so the work adds nothing to the workload's peak memory
    w = np.linspace(1.2, 3.0, 20_000)
    for block in range(15):
        kl = np.sqrt(1.0 + 0.36 / (1.0 - (w + 1e-9j) ** 2)) * w * (3.0 + block)
        acc += complex(np.sum(np.sin(kl)))
    chars = 0
    for _ in range(9):
        chars += len(",".join(repr(float(v)) for v in w[:5000]))
    total = 0.0
    for i in range(100_000):
        total += (i * 0.5) % 7.0
    if not (np.isfinite(acc) and chars and total):
        raise RuntimeError("reference work went wrong")
    return time.perf_counter() - t0


def adjusted(walls, refs):
    """Host-adjusted times: refs[i] and refs[i + 1] were measured around walls[i]."""
    return [
        wall * 2.0 * REFERENCE_S / (before + after)
        for wall, before, after in zip(walls, refs, refs[1:])
    ]


if __name__ == "__main__":
    reference_work()
    samples = [reference_work() for _ in range(40)]
    print(f"reference_work: median {statistics.median(samples):.4f} s of {len(samples)}")
