"""Property test: the CLI contract of `resonances`, `figure2`, `dispersion`,
`hopfield`, `fluct`, `spectrum` and `kappa-sweep`.

Every run ends in exit 0 with all-finite CSVs, or in exit 1 with nothing
written. The one exit 2 left is `resonances` on a window whose mode
indices pass 2^53, refused with its "floating-point resolution" message.
Each run is stopped by an alarm after 5 s, so a hang fails the example
instead of the suite.
"""

import contextlib
import csv
import io
import math
import os
import signal
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from polariton_mbc.cli import main  # noqa: E402

pytestmark = pytest.mark.skipif(not hasattr(signal, "alarm"), reason="needs SIGALRM")


class Hang(Exception):
    """A run outlived its alarm."""


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: repr(10.0 ** e))


@st.composite
def runs(draw):
    command = draw(st.sampled_from(
        ["resonances", "figure2", "dispersion", "hopfield", "fluct", "spectrum", "kappa-sweep"]
    ))
    keys = {
        "medium.omega_t": log_uniform(-300.0, 300.0),
        "medium.beta4pi": st.one_of(st.just("0"), log_uniform(-320.0, 300.0)),
        "medium.gamma": st.one_of(st.just("0"), log_uniform(-320.0, 300.0)),
        "cavity.lambda_mirror": log_uniform(-300.0, 300.0),
        "cavity.length": log_uniform(-300.0, 300.0),
        "figure2.kappa0_over_wt": log_uniform(-300.0, 300.0),
    }
    argv = [command]
    for key, values in keys.items():
        if draw(st.booleans()):
            argv += ["--set", f"{key}={draw(values)}"]
    start = 10.0 ** draw(st.floats(-320.0, 300.0))
    stop = start * (1.0 + 10.0 ** draw(st.floats(-12.0, 3.0)))
    count = draw(st.integers(2, 2000))
    return argv + ["--set", f"sweep.start={start!r}", "--set", f"sweep.stop={stop!r}",
                   "--set", f"sweep.count={count}"]


def finite_cells(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    for row in rows[1:]:
        for cell in row:
            try:
                value = float(cell)
            except ValueError:  # a branch name
                continue
            if not math.isfinite(value):
                return False
    return True


def stop(signum, frame):
    raise Hang("run did not end within 5 s")


@seed(20261019)
@settings(max_examples=400, deadline=None, database=None)
@given(runs())
def test_every_run_ends_in_a_finite_table_or_a_typed_refusal(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        previous = signal.signal(signal.SIGALRM, stop)
        signal.alarm(5)
        try:
            with contextlib.redirect_stderr(err):
                code = main(argv + ["--out", out])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        written = sorted(os.listdir(out))
        event(f"{argv[0]} exit {code}")
        if code == 0:
            assert written, argv
            assert all(finite_cells(os.path.join(out, name)) for name in written), argv
        elif code == 2:
            assert argv[0] == "resonances", (argv, err.getvalue())
            assert "floating-point resolution" in err.getvalue(), (argv, err.getvalue())
            assert written == []
        else:
            assert code == 1, (argv, code, err.getvalue())
            assert written == [], (argv, written)
