"""Scale covariance of every command, bit for bit.

In natural units nothing sets an absolute frequency scale: a run with
omega_t, gamma and a frequency or wavenumber window multiplied by s, and
the cavity length divided by s, is the same run in other units. For
s = 2^j every multiplication by s is exact, so each CSV cell of the scaled
run must equal the unscaled cell times s^p exactly, p being the column's
power of frequency. That holds as long as no scaled value leaves the
normal doubles, so the range of j is derived, per command and medium,
from every input and every output cell of the unscaled run. greens-check
writes dimensionless check values, which must come out the same, with
the same exit code.
"""

import contextlib
import functools
import io
import math
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from polariton_mbc.cli import main  # noqa: E402
from polariton_mbc.config import SWEEP_DEFAULTS, load_config  # noqa: E402

# power of frequency of each number column; the others are dimensionless
POWERS = {
    "dispersion": {"k": 1, "omega_L": 1, "omega_U": 1},
    "resonances": {"omega": 1, "kappa": 1},
    "spectrum": {"omega": 1},
    "kappa-sweep": {"omega": 1, "kappa_mbc": 1, "kappa0": 1, "kappa_fit": 1},
    "fluct": {"q": 1, "omega_q": 1, "a_comm": -1, "e_comm": 1, "b_comm": 1, "d_comm": 1},
}
# hopfield and figure2 sweep the coupling rabi/omega_t; the rest a frequency or wavenumber
WINDOW_POWER = dict.fromkeys(SWEEP_DEFAULTS, 1) | {"hopfield": 0, "figure2": 0}
CASES = [(command, b4) for command in SWEEP_DEFAULTS for b4 in (0.0, 0.36)]


def run(command, b4, j):
    """(exit code, {file: rows}) of command at s = 2^j, the length left to
    its tuned default, which is exactly the unscaled one over s."""
    cfg = load_config(command)
    p = WINDOW_POWER[command]
    sets = {
        "medium.omega_t": math.ldexp(cfg.medium.omega_t, j),
        "medium.gamma": math.ldexp(cfg.medium.gamma, j),
        "medium.beta4pi": b4,
        "sweep.start": math.ldexp(cfg.sweep_start, j * p),
        "sweep.stop": math.ldexp(cfg.sweep_stop, j * p),
    }
    argv = [command, *(a for key, value in sets.items() for a in ("--set", f"{key}={value!r}"))]
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--out", out])
        tables = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name)) as fh:
                tables[name] = [line.rstrip("\n").split(",") for line in fh if line[0] != "#"]
    return code, tables


def normal_range(scaled):
    """The j for which every (x, p) in scaled keeps x 2^(j p) a normal double."""
    lo, hi = -2000, 2000
    for x, p in scaled:
        if x == 0.0 or p == 0:
            continue
        e = math.frexp(x)[1]  # |x| in [2^(e-1), 2^e): normal while -1021 <= e + j p <= 1024
        a, b = sorted(((-1021 - e) / p, (1024 - e) / p))
        lo, hi = max(lo, math.ceil(a)), min(hi, math.floor(b))
    return lo, hi


@functools.cache
def unscaled(command, b4):
    """The unscaled run and the range of j derived from its inputs and outputs."""
    code, tables = run(command, b4, 0)
    cfg = load_config(command, set_pairs=[f"medium.beta4pi={b4}"])
    p = WINDOW_POWER[command]
    scaled = [(cfg.medium.omega_t, 1), (cfg.medium.gamma, 1), (cfg.cavity().length, -1),
              (cfg.sweep_start, p), (cfg.sweep_stop, p)]
    for rows in tables.values():
        powers = [POWERS.get(command, {}).get(name, 0) for name in rows[0]]
        scaled += [(float(cell), q) for row in rows[1:] for cell, q in zip(row, powers) if q]
    return code, tables, normal_range(scaled)


def assert_covariant(command, b4, j):
    code, tables, (lo, hi) = unscaled(command, b4)
    assert lo <= j <= hi
    got_code, got = run(command, b4, j)
    assert (got_code, sorted(got)) == (code, sorted(tables)), (command, b4, j)
    for name, rows in tables.items():
        assert got[name][0] == rows[0] and len(got[name]) == len(rows), (name, j)
        powers = [POWERS.get(command, {}).get(column, 0) for column in rows[0]]
        for want, cells in zip(rows[1:], got[name][1:]):
            expect = [math.ldexp(float(c), j * q) if q else c for c, q in zip(want, powers)]
            actual = [float(c) if q else c for c, q in zip(cells, powers)]
            assert actual == expect, (name, j, want, cells)


def test_derived_ranges_reach_past_the_old_omega_t_squared_overflow():
    # omega_t**2 left the float range from j = 512 on, where resonances,
    # spectrum and kappa-sweep exited 2 or 1 in a medium
    for command in ("resonances", "spectrum", "kappa-sweep"):
        assert unscaled(command, 0.36)[0] == 0
        for j in (-520, 520):
            assert_covariant(command, 0.36, j)


@seed(20261019)
@settings(max_examples=120, deadline=None, database=None)
@given(st.sampled_from(CASES), st.data())
def test_every_command_is_covariant_under_powers_of_two(case, data):
    lo, hi = unscaled(*case)[2]
    j = data.draw(st.one_of(st.sampled_from([lo, hi]), st.integers(lo, hi)), label="j")
    assert_covariant(*case, j)
