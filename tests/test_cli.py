"""Command-line behavior: outputs, exit codes, config layering, determinism."""

import csv
import dataclasses
import hashlib
import math
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import polariton_mbc
import polariton_mbc.cli as cli
import polariton_mbc.config as config
import polariton_mbc.greens as greens
import polariton_mbc.hopfield as hopfield
import polariton_mbc.iomodel as iomodel
from oracles import exact_branches, exact_modes, reference_csv, ulps_from
from polariton_mbc import BogoliubovProblem, figure2_sweep, find_resonances
from polariton_mbc.cli import _random_transparent, main
from polariton_mbc.config import MAX_SWEEP_COUNT, load_config
from polariton_mbc.errors import ConfigError


def read_csv(path):
    comments, header, rows = [], None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, header, rows


def column(header, rows, name, cast=float):
    i = header.index(name)
    return [cast(r[i]) for r in rows]


def test_resonances_default_finds_the_tuned_fundamental(tmp_path):
    assert main(["resonances", "--out", str(tmp_path)]) == 0
    comments, header, rows = read_csv(tmp_path / "resonances.csv")
    assert header == ["omega", "kappa", "branch", "mode_index"]
    assert len(rows) == 1
    omega, kappa, branch, mode = rows[0]
    assert float(omega) == pytest.approx(1.0, abs=1e-9)
    assert float(kappa) == pytest.approx(1e-2, rel=1e-4)
    assert branch == "bare"
    assert mode == "1"
    # the resolved configuration is echoed into the comment header
    joined = "\n".join(comments)
    assert "polariton-mbc resonances" in joined
    for key in ("medium.omega_t", "cavity.lambda_mirror", "sweep.count", "output.dir"):
        assert key in joined, f"missing {key} in comment header"


def test_dispersion_vacuum_columns(tmp_path):
    assert main(["dispersion", "--out", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "dispersion.csv")
    assert header == ["k", "omega_L", "omega_U", "n_L", "n_U", "vg_L", "vg_U"]
    ks = column(header, rows, "k")
    lo = column(header, rows, "omega_L")
    hi = column(header, rows, "omega_U")
    for k, wl, wu in zip(ks, lo, hi):
        assert wl == pytest.approx(min(k, 1.0), abs=1e-12)
        assert wu == pytest.approx(max(k, 1.0), abs=1e-12)
    assert all(v == 1.0 for v in column(header, rows, "vg_L"))
    assert all(v == 1.0 for v in column(header, rows, "vg_U"))


@pytest.mark.parametrize("beta4pi", ["0", "0.36", "16"])
def test_dispersion_writes_the_limits_at_k_zero(tmp_path, beta4pi):
    # n = k/W is 0/0 on the lower branch at k = 0, where n -> sqrt(1 + 4 pi beta)
    # and v_g -> 1/sqrt(1 + 4 pi beta); the other cells are as before
    argv = ["dispersion", "--set", f"medium.beta4pi={beta4pi}", "--set", "sweep.count=5"]
    assert main(argv + ["--out", str(tmp_path / "a"), "--set", "sweep.start=0"]) == 0
    assert main(argv + ["--out", str(tmp_path / "b"), "--set", "sweep.start=1e-300"]) == 0
    _, header, rows = read_csv(tmp_path / "a" / "dispersion.csv")
    _, _, later = read_csv(tmp_path / "b" / "dispersion.csv")
    b = float(beta4pi)
    at_zero = dict(zip(header, map(float, rows[0])))
    assert at_zero["k"] == 0.0 and at_zero["omega_L"] == 0.0
    assert at_zero["n_L"] == math.sqrt(1.0 + b)
    assert at_zero["vg_L"] == 1.0 / math.sqrt(1.0 + b)
    assert at_zero["omega_U"] == math.sqrt(1.0 + b)
    assert rows[1:] == later[1:]


def test_dispersion_branches_avoid_the_gap(tmp_path):
    assert main([
        "dispersion", "--out", str(tmp_path), "--set", "medium.beta4pi=4.0",
    ]) == 0
    comments, header, rows = read_csv(tmp_path / "dispersion.csv")
    hi_edge = math.sqrt(5.0)
    for name in ("omega_L", "omega_U"):
        for w in column(header, rows, name):
            inside = 1.0 + 1e-12 < w < hi_edge - 1e-12
            assert not inside, f"{name} = {w} falls in the stop band"
    assert max(column(header, rows, "omega_L")) < 1.0 + 1e-12
    assert min(column(header, rows, "omega_U")) > hi_edge - 1e-12
    assert any("medium.beta4pi" in c and "4.0" in c for c in comments)


def test_spectrum_reflection_is_unimodular(tmp_path):
    assert main(["spectrum", "--out", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "spectrum.csv")
    assert len(rows) == 2001
    for v in column(header, rows, "abs_r"):
        assert abs(v - 1.0) < 1e-12


def test_kappa_sweep_vacuum_is_flat(tmp_path):
    assert main(["kappa-sweep", "--out", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "kappa_sweep.csv")
    assert len(rows) == 151
    kmbc = column(header, rows, "kappa_mbc")
    k0 = column(header, rows, "kappa0")
    assert all(a == b for a, b in zip(kmbc, k0))
    # the inverse-square fit is not flat, so the columns must differ
    fit = column(header, rows, "kappa_fit")
    assert max(abs(a - b) for a, b in zip(fit, k0)) > 1e-3 * k0[0]


def test_kappa_sweep_refuses_stop_band_window(tmp_path):
    code = main([
        "kappa-sweep", "--out", str(tmp_path),
        "--set", "medium.beta4pi=1.0", "--set", "sweep.stop=1.2",
    ])
    assert code == 1
    assert not (tmp_path / "kappa_sweep.csv").exists()


def test_figure2_trends_and_layout(tmp_path):
    assert main(["figure2", "--out", str(tmp_path)]) == 0
    _, fh, frows = read_csv(tmp_path / "fig2_frequencies.csv")
    _, rh, rrows = read_csv(tmp_path / "fig2_rates.csv")
    assert fh == ["rabi_over_wt", "omega_L_mbc", "omega_U_mbc", "omega_L_disc", "omega_U_disc"]
    assert rh == ["rabi_over_wt", "kappa_L_mbc", "kappa_U_mbc", "kappa_L_rwa", "kappa_U_rwa"]
    assert len(frows) == 30 and len(rrows) == 30
    up_mbc = column(rh, rrows, "kappa_U_mbc")
    up_rwa = column(rh, rrows, "kappa_U_rwa")
    assert all(b < a for a, b in zip(up_mbc, up_mbc[1:]))
    assert all(b > a for a, b in zip(up_rwa, up_rwa[1:]))
    wu = column(fh, frows, "omega_U_mbc")
    wl = column(fh, frows, "omega_L_mbc")
    assert all(b > a for a, b in zip(wu, wu[1:]))
    assert all(b < a for a, b in zip(wl, wl[1:]))


def test_figure2_is_deterministic(tmp_path):
    assert main(["figure2", "--out", str(tmp_path)]) == 0
    first = {
        name: (tmp_path / name).read_bytes()
        for name in ("fig2_frequencies.csv", "fig2_rates.csv")
    }
    assert main(["figure2", "--out", str(tmp_path)]) == 0
    for name, payload in first.items():
        assert (tmp_path / name).read_bytes() == payload, f"{name} changed on rerun"


def test_greens_check_passes(tmp_path):
    assert main(["greens-check", "--out", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "greens_check.csv")
    assert header == ["check", "value", "tolerance", "status"]
    names = column(header, rows, "check", cast=str)
    assert names == [
        "cross_region_symmetry",
        "ode_residual_outside_source",
        "ode_residual_inside_source",
        "source_jump",
        "membrane_jump",
    ]
    assert all(s == "pass" for s in column(header, rows, "status", cast=str))
    payload = (tmp_path / "greens_check.csv").read_bytes()
    assert main(["greens-check", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "greens_check.csv").read_bytes() == payload


def test_greens_check_deep_in_a_lossy_band(tmp_path):
    # Im(kL) passes the exp() range next to omega_t in this longer cavity;
    # every row still comes out finite and passes
    assert main([
        "greens-check", "--out", str(tmp_path),
        "--set", "medium.beta4pi=16", "--set", "medium.gamma=1e-3",
        "--set", "cavity.length=15",
        "--set", "sweep.start=0.9999", "--set", "sweep.stop=1.0005",
    ]) == 0
    _, header, rows = read_csv(tmp_path / "greens_check.csv")
    assert all(math.isfinite(v) for v in column(header, rows, "value"))
    assert all(s == "pass" for s in column(header, rows, "status", cast=str))


@pytest.mark.parametrize("sets", [[], ["medium.beta4pi=0.36", "medium.gamma=1e-3"]])
def test_membrane_jump_catches_a_perturbed_denominator(tmp_path, monkeypatch, sets):
    # G built on a D that is off by one part in 1e6 still solves the wave
    # equation on each side of the membrane and keeps its source kink and
    # its symmetry; only the membrane condition sees it
    exact = greens._amplitude_kernel

    def perturbed(omega, cfg):
        n, e, den = exact(omega, cfg)
        return n, e, den * (1.0 + 1e-6)

    monkeypatch.setattr(greens, "_amplitude_kernel", perturbed)
    argv = ["greens-check", "--out", str(tmp_path)]
    for pair in sets:
        argv += ["--set", pair]
    assert main(argv) == 2
    _, header, rows = read_csv(tmp_path / "greens_check.csv")
    status = dict(zip(column(header, rows, "check", cast=str),
                      column(header, rows, "status", cast=str)))
    assert [name for name, s in status.items() if s == "fail"] == ["membrane_jump"]


def test_greens_check_refuses_a_window_inside_the_stop_band(tmp_path):
    # no transparent frequency to draw: a configuration error up front,
    # where the rejection sampler used to loop forever
    code = main([
        "greens-check", "--out", str(tmp_path),
        "--set", "medium.beta4pi=0.5",
        "--set", "sweep.start=1.05", "--set", "sweep.stop=1.1",
    ])
    assert code == 1
    assert not (tmp_path / "greens_check.csv").exists()


def test_transparent_draws_on_a_sliver_of_window():
    # 1e-13 of transparent window below the widened band edge: every draw
    # lands there, at once, without running the command
    cfg = load_config("greens-check", set_pairs=[
        "medium.beta4pi=0.5", "sweep.start=0.9999989999999", "sweep.stop=1.1",
    ])
    ws = _random_transparent(np.random.default_rng(1), cfg, 200)
    margin = 1e-6 * cfg.medium.omega_t
    assert ws.shape == (200,)
    assert np.all((ws >= cfg.sweep_start) & (ws < cfg.medium.omega_t - margin))
    # straddling the band, draws fall on both sides and never inside it
    cfg = load_config("greens-check", set_pairs=["medium.beta4pi=0.36"])
    ws = _random_transparent(np.random.default_rng(2), cfg, 500)
    lo, hi = cfg.medium.stop_band()
    assert ws.shape == (500,)
    assert np.all((ws < lo - margin) | (ws > hi + margin))
    assert np.any(ws < lo) and np.any(ws > hi)
    assert np.all((ws >= cfg.sweep_start) & (ws <= cfg.sweep_stop))


@pytest.mark.parametrize(
    "sets",
    [
        [],  # the default greens-check: no coupling
        ["medium.beta4pi=0.36", "sweep.start=0.1", "sweep.stop=0.9"],
        ["medium.beta4pi=0.36", "sweep.start=1.2", "sweep.stop=3.0"],
    ],
)
def test_transparent_draws_of_a_window_clear_of_the_band_are_plain_uniform(sets):
    cfg = load_config("greens-check", set_pairs=sets)
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    ws = _random_transparent(rng, cfg, 300)
    assert ws.tobytes() == ref.uniform(cfg.sweep_start, cfg.sweep_stop, 300).tobytes()
    assert rng.uniform() == ref.uniform()  # and the generator is left in step


@pytest.mark.parametrize("beta4pi", [0.0, 0.36, 2.0, 16.0])
@pytest.mark.parametrize("gamma", [0.0, 1e-9, 1e-3])
def test_greens_check_passes_on_windows_above_the_refusal_bound(tmp_path, beta4pi, gamma):
    # log-uniform windows whose start keeps omega L above 3e-3, twice the
    # refusal bound for vacuum at the default tolerance (a larger index
    # only lowers it), and random mirrors from nearly open to nearly closed
    rng = np.random.default_rng(int(1000 * beta4pi + 1e4 * gamma) + 61)
    for _ in range(3):
        lam = 10 ** rng.uniform(0.0, 3.0)
        sets = [f"medium.beta4pi={beta4pi}", f"medium.gamma={gamma}",
                f"cavity.lambda_mirror={lam!r}"]
        length = load_config("greens-check", set_pairs=sets).cavity().length
        start, stop = map(float, np.sort(10 ** rng.uniform(np.log10(3e-3 / length), 0.7, 2)))
        argv = ["greens-check", "--out", str(tmp_path), "--set", f"sweep.start={start!r}",
                "--set", f"sweep.stop={stop!r}"]
        for pair in sets:
            argv += ["--set", pair]
        assert main(argv) == 0, argv
        _, header, rows = read_csv(tmp_path / "greens_check.csv")
        assert all(s == "pass" for s in column(header, rows, "status", cast=str))


def test_greens_check_refuses_a_window_below_the_refusal_bound(tmp_path, capsys):
    # omega L = 3e-4 at the window's start: no step the guards allow keeps
    # rounding in the residual under 1e-4, whichever frequency is drawn
    code = main([
        "greens-check", "--out", str(tmp_path),
        "--set", "sweep.start=1e-4", "--set", "sweep.stop=3.0",
    ])
    assert code == 1
    assert "no step" in capsys.readouterr().err
    assert not (tmp_path / "greens_check.csv").exists()


@pytest.mark.parametrize(
    "sets, code",
    [
        (["sweep.start=400", "sweep.stop=500"], 0),
        # from omega = 529 (k L = 1.7e3) the 1e-5 L floor on the step leaves
        # more than the tolerance: the window's stop decides, wherever the
        # probe lands (it lands below 529 in [400, 1000])
        (["sweep.start=400", "sweep.stop=1000"], 1),
        (["sweep.start=400", "sweep.stop=3000"], 1),
        (["sweep.start=1000", "sweep.stop=1001"], 1),
        # above the band k grows with omega as in vacuum
        (["medium.beta4pi=0.36", "sweep.start=0.5", "sweep.stop=3000"], 1),
        # the benchmark's window: k L = 1387 at the widened band edge
        (["medium.beta4pi=0.36", "sweep.start=0.095", "sweep.stop=3.05"], 0),
    ],
)
def test_greens_check_window_decides_at_high_kl(tmp_path, capsys, sets, code):
    argv = ["greens-check", "--out", str(tmp_path), "--set", "sweep.count=2"]
    for pair in sets:
        argv += ["--set", pair]
    assert main(argv) == code
    if code == 1:
        assert "cannot check the window at" in capsys.readouterr().err
        assert not (tmp_path / "greens_check.csv").exists()


@pytest.mark.parametrize(
    "beta4pi, start, stop, code",
    [
        (0.36, 1.0 - 3e-6, 1.0 - 1.5e-6, 0),
        (2.0, 1.0 - 1e-5, 1.0 - 1.5e-6, 0),
        (16.0, 1.0 - 1e-3, 1.0 - 1.5e-6, 0),
        # the start resolves (hk = 0.017 at the 1e-5 L step), the probe a
        # fifth of the way to the edge does not (hk = 0.019): the probe is
        # checked with the window, so it is refused up front, by name
        (16.0, 1.0 - 2.96e-5, 1.0 - 1.5e-6, 1),
        # already the start is past that: the window is refused up front
        (16.0, 1.0 - 1e-5, 1.0 - 1.5e-6, 1),
        # unless the window reaches above the band, where k is small again
        (16.0, 1.0 - 1e-5, 5.0, 0),
    ],
)
def test_greens_check_next_to_a_band_edge(
    tmp_path, monkeypatch, capsys, beta4pi, start, stop, code
):
    # windows next to omega_t, where |n| reaches a few thousand: the
    # residual grid never passes 300,000 points, and a probe the 1e-5 L
    # step cannot resolve ends in a StepSizeError. ode_residual builds its
    # grid slab by slab in greens._grid, so that is where the points show
    sizes = []
    exact = greens._grid

    def counting(*args):
        z = exact(*args)
        sizes.append(np.size(z))
        return z

    monkeypatch.setattr(greens, "_grid", counting)
    monkeypatch.setattr(greens, "_SLAB_POINTS", 300_000)  # a residual grid in one call
    assert main([
        "greens-check", "--out", str(tmp_path), "--set", "medium.gamma=0",
        "--set", f"medium.beta4pi={beta4pi}", "--set", "sweep.count=2",
        "--set", f"sweep.start={start!r}", "--set", f"sweep.stop={stop!r}",
    ]) == code
    err = capsys.readouterr().err
    if code == 1:  # named: the start, or the probe where the start resolves
        at = {1.0 - 1e-5: "0.99999", 1.0 - 2.96e-5: "0.999976"}[start]
        assert f"config error: greens-check cannot check the window at {at}: no step in [" in err
        assert not (tmp_path / "greens_check.csv").exists()
    assert max(sizes, default=0) <= 300_000
    if code == 0 and stop < 1.0:
        assert 300_000 in sizes  # each probe below the band needs the smallest step


def test_greens_check_refuses_an_underflowing_omega_l_by_name(tmp_path, capsys):
    # omega L = 1e-350 underflows to 0, where fd_error's rounding term
    # divided by it and escaped as a ZeroDivisionError traceback
    code = main([
        "greens-check", "--out", str(tmp_path), "--set", "cavity.length=1e-200",
        "--set", "sweep.start=1e-150", "--set", "sweep.stop=2e-150",
    ])
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1
    assert "too small to check G by finite differences" in err
    assert os.listdir(tmp_path) == []


def test_greens_check_refuses_an_overflowing_g_by_name(tmp_path, capsys):
    # |G| ~ 1/omega reaches inf at omega = 1e-308, L = 1e307; the writer's
    # generic check named neither G nor the window
    code = main([
        "greens-check", "--out", str(tmp_path), "--set", "cavity.length=1e307",
        "--set", "sweep.start=1e-308", "--set", "sweep.stop=2e-308",
    ])
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1
    assert "G overflows in the window [1e-308, 2e-308] with L = 1e+307" in err
    assert os.listdir(tmp_path) == []


def test_greens_check_symmetry_is_relative_to_the_size_of_g(tmp_path):
    # the default cavity at 4 pi beta = 0.36 in units where omega_t = 1e-4:
    # G grows like 1/omega, and the symmetry check, absolute before, failed
    # at 7.77e-12
    assert main([
        "greens-check", "--out", str(tmp_path), "--set", "medium.omega_t=1e-4",
        "--set", "medium.gamma=1e-13", "--set", "medium.beta4pi=0.36",
        "--set", "cavity.length=32687.474394869972",
        "--set", "sweep.start=1e-5", "--set", "sweep.stop=3e-4",
    ]) == 0
    _, header, rows = read_csv(tmp_path / "greens_check.csv")
    assert float(rows[0][1]) < 1e-15 and rows[0][0] == "cross_region_symmetry"


def test_greens_check_reports_tolerance_failures(tmp_path):
    code = main([
        "greens-check", "--out", str(tmp_path),
        "--set", "tolerances.residual=1e-12",
    ])
    assert code == 2
    # the report is still written so the failure can be inspected
    _, header, rows = read_csv(tmp_path / "greens_check.csv")
    statuses = column(header, rows, "status", cast=str)
    assert "fail" in statuses


def test_fluct_vacuum_weights(tmp_path):
    assert main(["fluct", "--out", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "fluct.csv")
    assert len(rows) == 60
    qs = column(header, rows, "q")
    assert all(n == 1.0 for n in column(header, rows, "n"))
    for q, a in zip(qs, column(header, rows, "a_comm")):
        assert a == pytest.approx(1.0 / (2.0 * q), rel=1e-12)
    for q, e in zip(qs, column(header, rows, "e_comm")):
        assert e == pytest.approx(0.5 * q, rel=1e-12)


def test_fluct_refuses_an_overflowing_weight(tmp_path, capsys):
    # 1 / (2q) overflows at a subnormal first q: a configuration error
    # before any file is written, not an inf in the CSV
    code = main([
        "fluct", "--out", str(tmp_path), "--set", "sweep.start=1e-310",
        "--set", "sweep.stop=1", "--set", "sweep.count=3",
    ])
    assert code == 1
    assert "a_comm is not finite at q = 1e-310" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_fluct_runs_where_only_the_unused_branch_overflows(tmp_path):
    # every q of the default sweep lies on the lower branch, below omega_t;
    # the upper branch, omega_t sqrt(5), overflows and used to refuse the run
    argv = ["fluct", "--out", str(tmp_path),
            "--set", "medium.omega_t=1e308", "--set", "medium.beta4pi=4"]
    assert main(argv) == 0
    _, header, rows = read_csv(tmp_path / "fluct.csv")
    assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row)


def test_hopfield_weights_are_normalized(tmp_path):
    assert main(["hopfield", "--out", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "hopfield.csv")
    assert len(rows) == 30
    for tag in ("L", "U"):
        w2 = column(header, rows, f"w2_{tag}")
        x2 = column(header, rows, f"x2_{tag}")
        y2 = column(header, rows, f"y2_{tag}")
        z2 = column(header, rows, f"z2_{tag}")
        for a, b, c, d in zip(w2, x2, y2, z2):
            assert a + b - c - d == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("start, stop, first_bad", [
    ("1e-163", "1", "1e-163"),  # 4 rabi^2 underflows to 0 at the degeneracy
    ("0.1", "1e160", "5e+159"),  # d^2 + 4 rabi^2 overflows above rabi ~ 6e76
])
def test_hopfield_refuses_couplings_outside_the_float_range(tmp_path, capsys, start, stop, first_bad):
    code = main([
        "hopfield", "--out", str(tmp_path), "--svg", "--set", "sweep.count=3",
        "--set", f"sweep.start={start}", "--set", f"sweep.stop={stop}",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"config error: the two-mode closed forms leave the float range at rabi/omega_t = {first_bad}" in err
    assert os.listdir(tmp_path) == []


def test_figure2_refuses_couplings_outside_the_float_range(tmp_path, capsys):
    # the same refusal as hopfield's: 4 rabi^2 underflows at 1e-163, where
    # the *_rwa rates would otherwise be written as nan
    code = main([
        "figure2", "--out", str(tmp_path), "--svg", "--set", "sweep.start=1e-163",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error: the two-mode closed forms leave the float range at rabi/omega_t = 1e-163" in err
    assert os.listdir(tmp_path) == []


def test_hopfield_keeps_the_decoupled_row(tmp_path):
    assert main([
        "hopfield", "--out", str(tmp_path), "--set", "sweep.start=0",
        "--set", "sweep.stop=1", "--set", "sweep.count=3",
    ]) == 0
    _, header, rows = read_csv(tmp_path / "hopfield.csv")
    first = dict(zip(header, map(float, rows[0])))
    # rabi = 0 at the degeneracy: the photon is the lower mode, the excitation the upper
    assert first == {
        "rabi_over_wt": 0.0, "omega_L": 1.0, "omega_U": 1.0,
        "w2_L": 1.0, "x2_L": 0.0, "y2_L": 0.0, "z2_L": 0.0,
        "w2_U": 0.0, "x2_U": 1.0, "y2_U": 0.0, "z2_U": 0.0,
    }


def test_hopfield_matches_the_per_coupling_loop(tmp_path):
    # the whole-sweep kernel against the eigenvector template evaluated
    # one coupling at a time in 50-digit mpmath: each frequency within
    # one double of the correctly rounded root (1.31 ulps from the exact
    # root at worst, on the lower branch), each weight within 2e-15
    # relative (9.9e-16 at worst)
    pytest.importorskip("mpmath")
    assert main(["hopfield", "--out", str(tmp_path), "--set", "sweep.count=2000"]) == 0
    _, header, rows = read_csv(tmp_path / "hopfield.csv")
    got = np.array(rows, dtype=float)
    assert got.shape == (2000, 11)
    for row in got:
        modes = exact_modes(BogoliubovProblem(1.0, 1.0, row[0]))
        for (omega, *coefficients), cells in zip(modes, (row[[1, 3, 4, 5, 6]], row[[2, 7, 8, 9, 10]])):
            assert abs(cells[0] - float(omega)) <= math.ulp(float(omega)), row[0]
            want = np.array([float(abs(c) ** 2) for c in coefficients])
            assert np.all(np.abs(cells[1:] - want) <= 2e-15 * want), row[0]


def test_sweeps_make_no_per_coupling_hopfield_call(tmp_path, monkeypatch):
    # hopfield_modes is the one way into the two-mode physics; record how
    # many couplings each call covers
    calls = []

    def counted(photon_freq, omega_t, rabi):
        calls.append(np.size(rabi))
        return hopfield.hopfield_modes(photon_freq, omega_t, rabi)

    monkeypatch.setattr(cli, "hopfield_modes", counted)
    monkeypatch.setattr(iomodel, "hopfield_modes", counted)
    assert main(["hopfield", "--out", str(tmp_path), "--set", "sweep.count=200"]) == 0
    assert calls == [200]
    assert main(["figure2", "--out", str(tmp_path), "--set", "sweep.count=50"]) == 0
    assert calls == [200, 50]
    assert len(figure2_sweep(np.linspace(0.05, 1.5, 50), 7.822)) == 50
    assert calls == [200, 50, 50]


def test_config_file_layering_and_set_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "[sweep]\n"
        "start = 0.8\n"
        "stop = 1.2\n"
        "count = 3\n"
        "; alt comment\n"
        "[output]\n"
        "svg = false\n"
    )
    out = tmp_path / "out"
    code = main([
        "spectrum", "--config", str(cfg), "--out", str(out),
        "--set", "sweep.count=5",
    ])
    assert code == 0
    _, header, rows = read_csv(out / "spectrum.csv")
    assert len(rows) == 5  # --set beats the file
    ws = column(header, rows, "omega")
    assert ws[0] == pytest.approx(0.8) and ws[-1] == pytest.approx(1.2)


def test_config_file_with_a_byte_order_mark_reads_as_without(tmp_path):
    # editors such as Windows Notepad save UTF-8 with a leading BOM
    text = "[medium]\nbeta4pi = 0.36\n[sweep]\nstart = 0.1\nstop = 4.0\ncount = 7\n"
    bodies = []
    for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
        (tmp_path / f"{name}.cfg").write_bytes(data)
        out = tmp_path / name
        assert main(["dispersion", "--config", str(tmp_path / f"{name}.cfg"),
                     "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "dispersion.csv")
        bodies.append((header, rows))
    assert bodies[1] == bodies[0]
    assert len(bodies[0][1]) == 7 and float(bodies[0][1][-1][0]) == 4.0


def test_config_file_that_is_not_utf8_is_refused_by_name(tmp_path, capsys):
    # Windows Notepad can also save UTF-16, which begins with a 0xff 0xfe BOM
    path = tmp_path / "u16.cfg"
    path.write_bytes("[medium]\nbeta4pi = 0.36\n".encode("utf-16"))
    assert main(["dispersion", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "not UTF-8" in err, err
    assert not (tmp_path / "out").exists()


def test_hardest_to_resolve_frequencies_of_a_window():
    # the least-k start of each transparent part, and the stop where it
    # lies above the widened band; e is the widened upper edge as the
    # code forms it (the literal sqrt(1.36) + 1e-6 is one ulp above it)
    e = math.sqrt(1.0 + 0.36) + 1e-6
    cases = [
        ("0", 0.1, 3.0, [0.1, 3.0]),
        ("0.36", 0.1, 0.9, [0.1]),
        ("0.36", 1.2, 3.0, [1.2, 3.0]),
        ("0.36", 0.1, 3.0, [0.1, 3.0]),
        ("0.36", 1.0000005, 3.0, [e, 3.0]),
        ("0.36", 0.1, e, [0.1]),
        ("0.36", 0.1, math.nextafter(e, math.inf), [0.1, math.nextafter(e, math.inf)]),
    ]
    for beta4pi, start, stop, expected in cases:
        cfg = load_config("greens-check", set_pairs=[
            f"medium.beta4pi={beta4pi}", f"sweep.start={start!r}", f"sweep.stop={stop!r}",
        ])
        assert cli._hardest_to_resolve(cfg, cfg.cavity()) == expected, (beta4pi, start, stop)


def test_config_error_paths(tmp_path):
    out = str(tmp_path)
    assert main(["spectrum", "--out", out, "--set", "nosuch.key=1"]) == 1
    assert main(["spectrum", "--out", out, "--set", "sweep.count=banana"]) == 1
    assert main(["spectrum", "--out", out, "--set", "sweepcount"]) == 1
    assert main(["spectrum", "--out", out, "--config", str(tmp_path / "gone.cfg")]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("count = 3\n")  # key before any [section]
    assert main(["spectrum", "--out", out, "--config", str(bad)]) == 1
    # invalid numeric domain: empty sweep, and one past the largest sweep
    assert main(["spectrum", "--out", out, "--set", "sweep.count=1"]) == 1
    too_many = f"sweep.count={MAX_SWEEP_COUNT + 1}"
    assert main(["spectrum", "--out", out, "--set", too_many]) == 1
    assert not (tmp_path / "spectrum.csv").exists()
    with pytest.raises(ConfigError, match="at most"):
        load_config("dispersion", set_pairs=[too_many])
    largest = load_config("dispersion", set_pairs=[f"sweep.count={MAX_SWEEP_COUNT}"])
    assert largest.sweep_count == MAX_SWEEP_COUNT


def test_header_echoes_every_key_in_table_order():
    # the bench checker parses these lines back; every rendering rule shows:
    # None as auto, a bool as true/false, a str as is, a number as repr
    cfg = load_config("figure2", set_pairs=[
        "cavity.length=none", "figure2.kappa0_over_wt=auto",
        "output.svg=on", "sweep.count=7",
    ])
    assert cfg.resolved() == [
        "medium.omega_t = 1.0",
        "medium.beta4pi = 0.0",
        "medium.gamma = 1e-09",
        "cavity.lambda_mirror = 7.822",
        "cavity.length = auto",
        "sweep.start = 0.05",
        "sweep.stop = 1.5",
        "sweep.count = 7",
        "output.dir = .",
        "output.svg = true",
        "figure2.kappa0_over_wt = auto",
        "tolerances.coefficient = 1e-12",
        "tolerances.residual = 0.0001",
    ]
    # the attributes hold the same parsed values
    assert (cfg.lambda_mirror, cfg.length, cfg.sweep_start, cfg.sweep_stop) == (
        7.822, None, 0.05, 1.5)
    assert (cfg.sweep_count, cfg.out_dir, cfg.svg, cfg.kappa0_over_wt) == (7, ".", True, None)
    assert (cfg.tol_coefficient, cfg.tol_residual) == (1e-12, 1e-4)


def test_successive_main_calls_do_not_share_overrides(tmp_path):
    # the parser is built once per process; what one call sets must not
    # reach the next
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["spectrum", "--out", str(first), "--svg", "--set", "sweep.count=5"]) == 0
    assert main(["spectrum", "--out", str(second)]) == 0
    assert len(read_csv(first / "spectrum.csv")[2]) == 5
    assert len(read_csv(second / "spectrum.csv")[2]) == 2001
    assert sorted(os.listdir(second)) == ["spectrum.csv"]
    comments = read_csv(second / "spectrum.csv")[0]
    assert not any("count = 5" in line for line in comments)


def test_io_error_exit_code(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert main(["spectrum", "--out", str(blocker)]) == 3


def test_argparse_exit_codes(capsys):
    assert main(["--help"]) == 0
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_svg_outputs_are_valid_xml(tmp_path):
    assert main(["spectrum", "--out", str(tmp_path), "--svg"]) == 0
    svg = tmp_path / "spectrum.svg"
    assert svg.exists()
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    assert main(["figure2", "--out", str(tmp_path), "--svg"]) == 0
    for name in ("fig2_frequencies.svg", "fig2_rates.svg"):
        root = ET.fromstring((tmp_path / name).read_text())
        assert root.tag.endswith("svg")
    # svg can also be switched on from the config layer
    assert main([
        "dispersion", "--out", str(tmp_path), "--set", "output.svg=true",
    ]) == 0
    assert (tmp_path / "dispersion.svg").exists()


def test_failed_plot_leaves_no_svg(tmp_path, capsys):
    # gamma = 0 puts the pole on the first grid point, where the index is
    # infinite: refused before anything is computed or written
    code = main([
        "spectrum", "--out", str(tmp_path), "--svg",
        "--set", "medium.gamma=0", "--set", "medium.beta4pi=0.36",
        "--set", "sweep.start=1.0", "--set", "sweep.stop=1.1",
    ])
    assert code == 1
    assert "omega_t = 1" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
    # vacuum has no pole, and the same grid is plotted
    assert main([
        "spectrum", "--out", str(tmp_path), "--svg",
        "--set", "medium.gamma=0", "--set", "sweep.start=1.0", "--set", "sweep.stop=1.1",
    ]) == 0
    assert (tmp_path / "spectrum.svg").exists()


def test_infinite_plot_value_is_a_typed_error(tmp_path, capsys):
    # 1 / (2q) overflows to inf at a subnormal first q
    code = main([
        "fluct", "--out", str(tmp_path), "--svg",
        "--set", "sweep.start=1e-310", "--set", "sweep.stop=1",
    ])
    assert code == 1
    assert "'vector potential'" in capsys.readouterr().err
    assert not (tmp_path / "fluct.svg").exists()


# sha256 of each default command's CSV without its '#' comment lines (which
# echo the output path): the bytes every change to the numerics must keep
DEFAULT_CSV_BODIES = {
    "dispersion.csv": "6889e62b27867f77cc2be5a18c0626709ee57d5053e570799840d9611b81debd",
    "fig2_frequencies.csv": "c920aeeec487255adb9a59b2b01efb78f5beaf71960a9114980d607533559c1e",
    "fig2_rates.csv": "a02c20d0750ad9d6e3d07a92fd704084b213f21ae114b01909f80a632ac13dc4",
    "fluct.csv": "d2160213f43336dad3f2496eb70ece62c93270a2bcf66042a52302c8e286ecaf",
    "greens_check.csv": "19efa6d959b4b784f57594593030f5e297199592a1e877258232b7e8e115d6a4",
    "hopfield.csv": "e6530cc80d0fa98164f21c2574e4aa7303ef515a9ff2be7ec27985059a5b3297",
    "kappa_sweep.csv": "7cceabaaa002a0c7191761c2175708eb0a4f356f1ed71bf980d7a741435aebcd",
    "resonances.csv": "ff82531b6866bb5200855cc4a40141fc21fd32e8774249ddc302ccdd5571070c",
    "spectrum.csv": "3467adb7c198e74adbdf5006127e5cbc9b258bb75aaf9066291797049da6125c",
}


def test_default_outputs_keep_their_bytes(tmp_path):
    for command in (
        "dispersion", "hopfield", "resonances", "spectrum",
        "kappa-sweep", "figure2", "greens-check", "fluct",
    ):
        assert main([command, "--out", str(tmp_path)]) == 0, command
    assert sorted(os.listdir(tmp_path)) == sorted(DEFAULT_CSV_BODIES)
    for name, digest in DEFAULT_CSV_BODIES.items():
        with open(tmp_path / name, "rb") as fh:
            body = b"".join(line for line in fh if not line.startswith(b"#"))
        assert hashlib.sha256(body).hexdigest() == digest, name


# sha256 of each SVG the six plotting commands write at their default
# sweeps with --svg, taken before the commands handed their writing to main
DEFAULT_SVG_BYTES = {
    "dispersion.svg": "bd1730f4e0af2ebd766c5d651b7034bfc2c06cc76aeb6c43a06c6a9bee0cb1ac",
    "fig2_frequencies.svg": "114635cf1e823a6d0f47da4d3dbdc95a8a67e9e7f0ae848d38e34a441f8e68dc",
    "fig2_rates.svg": "46efe6d2622cd3fe8f9e0e88564500bf046d2ff8939e2b9559ae4ccb266479c3",
    "fluct.svg": "9f9e2ec0e65de9ce4d9d44068603042e3d212dcc0d43c8c18f7d80210eab682c",
    "hopfield.svg": "f9d8ec474ee613ea29f99104cf411ec67058890c9dd9f4613ee6a4bc18cc2aaa",
    "kappa_sweep.svg": "b7d7f34c9fdb048d22c073391581ceb4303444bf5af547d5fbcbf139a14f9159",
    "spectrum.svg": "29c22266a5d31c07dcca79fc51fc874542d7a66799318fd25013249a48c4adfe",
}


def test_default_plots_keep_their_bytes(tmp_path):
    for command in ("dispersion", "hopfield", "spectrum", "kappa-sweep", "figure2", "fluct"):
        assert main([command, "--out", str(tmp_path), "--svg"]) == 0, command
    assert sorted(p.name for p in tmp_path.glob("*.svg")) == sorted(DEFAULT_SVG_BYTES)
    for name, digest in DEFAULT_SVG_BYTES.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# sha256 of the CSV bodies of the two largest root solves: resonances at
# the bench's mode_ladder size (1,240 roots on the upper branch) and figure2
# over 200 couplings (400 roots), taken with the roots bisected to the end
LARGE_CSV_BODIES = {
    ("resonances", "--set", "medium.beta4pi=0.36", "--set", "cavity.length=200",
     "--set", "sweep.start=1.2", "--set", "sweep.stop=20", "--set", "sweep.count=100000"): {
        "resonances.csv": "3510712cdf4de9862598a4f0179923d16daac272d3695784acf55ef7f24a517a",
    },
    ("figure2", "--set", "sweep.count=200"): {
        "fig2_frequencies.csv": "4e9683e226e30efdec448a6baa5dcf7dfd492afe33b1dd2429f1eb75c89f2419",
        "fig2_rates.csv": "cd6633ab728bb51dcc400a5503ad5424b11a5e615e2a0b3cbbd4fd9074e0dcb4",
    },
}


@pytest.mark.parametrize("argv", list(LARGE_CSV_BODIES), ids=lambda argv: argv[0])
def test_large_root_outputs_keep_their_bytes(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    for name, digest in LARGE_CSV_BODIES[argv].items():
        with open(tmp_path / name, "rb") as fh:
            body = b"".join(line for line in fh if not line.startswith(b"#"))
        assert hashlib.sha256(body).hexdigest() == digest, name


@pytest.mark.parametrize(
    "argv, code, written",
    [
        (["figure2", "--set", "figure2.kappa0_over_wt=1.7e308"], 1, []),
        (["figure2", "--svg", "--set", "figure2.kappa0_over_wt=1.7e308"], 1, []),
        # in vacuum W = max(k, omega_t) and n = v_g = 1 stay finite past (k/omega_t)**2
        (["dispersion", "--set", "sweep.stop=1e155"], 0, ["dispersion.csv"]),
        (["kappa-sweep", "--set", "cavity.lambda_mirror=1e-160"], 1, []),
        (["greens-check", "--set", "tolerances.residual=1e-12"], 2, ["greens_check.csv"]),
        (["greens-check", "--set", "sweep.stop=inf"], 1, []),
        (["greens-check", "--set", "sweep.start=-1e308", "--set", "sweep.stop=1e308"], 1, []),
        (["spectrum", "--set", "medium.gamma=nan"], 1, []),
        (["kappa-sweep", "--set", "cavity.length=inf"], 1, []),
        (["resonances", "--set", "medium.beta4pi=inf"], 1, []),
        (["fluct", "--set", "medium.beta4pi=inf"], 1, []),
        (["figure2", "--set", "cavity.lambda_mirror=inf"], 1, []),
        (["greens-check", "--set", "sweep.start=0"], 1, []),
        (["greens-check", "--set", "sweep.start=-1"], 1, []),
        # the upper branch omega_t sqrt(5) overflows
        (["dispersion", "--set", "medium.omega_t=1e308", "--set", "medium.beta4pi=4"], 1, []),
        (["fluct", "--set", "medium.omega_t=1e308", "--set", "medium.beta4pi=4",
          "--set", "sweep.start=1e308", "--set", "sweep.stop=1.7e308"], 1, []),
        # (k/omega_t)**2 overflows, in vacuum harmlessly
        (["dispersion", "--set", "medium.omega_t=1e-154"], 0, ["dispersion.csv"]),
        (["fluct", "--set", "medium.beta4pi=0.36", "--set", "sweep.stop=1e155",
          "--set", "sweep.count=3"], 1, []),
    ],
    ids=["figure2-rate-overflow", "figure2-rate-overflow-svg", "dispersion-huge-k",
         "kappa-sweep-tiny-mirror", "greens-check-tolerance", "greens-check-infinite-stop",
         "greens-check-span-overflow", "spectrum-nan-gamma", "kappa-sweep-infinite-length",
         "resonances-infinite-beta", "fluct-infinite-beta", "figure2-perfect-mirror",
         "greens-check-zero-start", "greens-check-negative-start",
         "dispersion-huge-omega-t", "fluct-huge-omega-t", "dispersion-quartic-overflow",
         "fluct-huge-q"],
)
def test_refused_runs_write_nothing_but_a_failing_check(tmp_path, capsys, argv, code, written):
    # every check runs before the first file is opened; only greens-check
    # writes its table on a failure, to show which check failed. The two
    # vacuum dispersion runs are the ones no longer refused
    assert main(argv + ["--out", str(tmp_path)]) == code
    assert sorted(os.listdir(tmp_path)) == written
    err = capsys.readouterr().err
    assert err.startswith("polariton-mbc: ") and err.count("\n") == 1 if code else err == ""
    if not code:
        _, _, rows = read_csv(tmp_path / written[0])
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)


def worst_ulps_against_mpmath(path):
    """The largest distance, in ulps, of each number column of a
    dispersion.csv or fluct.csv from `exact_branches` at its configuration;
    fluct's weights are checked against the powers of the exact index."""
    mpmath = pytest.importorskip("mpmath")
    comments, header, rows = read_csv(path)
    setting = dict(c[2:].split(" = ", 1) for c in comments if " = " in c)
    wt, b4 = float(setting["medium.omega_t"]), float(setting["medium.beta4pi"])
    worst = dict.fromkeys(header[1:], 0.0)
    for row in rows:
        x, *cells = map(float, row)
        exact = exact_branches(x, wt, b4)
        with mpmath.workdps(50):
            if header[0] == "k":  # both branches
                want = [exact[0][0], exact[1][0], exact[0][2], exact[1][2], exact[0][3], exact[1][3]]
            else:  # the branch fluct picks, lower below omega_t
                w, _, n, _ = exact[x >= wt]
                want = [w, n, 1 / (2 * x * n), x / (2 * n**3), x / (2 * n), x * n / 2]
        for name, got, value in zip(header[1:], cells, want):
            worst[name] = max(worst[name], ulps_from(got, value))
    return worst


# each used to exit 2 or 1: a root rounded onto its band edge, or the
# quartic's fourth powers overflowed long before the roots do
@pytest.mark.parametrize("argv", [
    ["dispersion", "--set", "medium.beta4pi=0.36", "--set", "sweep.start=1e-8"],
    ["dispersion", "--set", "medium.beta4pi=0.36", "--set", "sweep.stop=1e8"],
    ["dispersion", "--set", "medium.beta4pi=1e-12"],
    ["fluct", "--set", "medium.beta4pi=1e-308"],
    ["dispersion", "--set", "medium.omega_t=1e308"],
    ["dispersion", "--set", "medium.omega_t=1e308", "--set", "medium.beta4pi=0.36"],
    ["dispersion", "--set", "medium.omega_t=1e154"],
    ["dispersion", "--set", "medium.omega_t=1e154", "--set", "medium.beta4pi=0.36"],
    ["fluct", "--set", "medium.omega_t=1e308", "--set", "medium.beta4pi=0.36"],
    ["fluct", "--set", "medium.omega_t=1e154", "--set", "medium.beta4pi=0.36"],
    ["fluct", "--set", "medium.beta4pi=0.36", "--set", "sweep.stop=1e78", "--set", "sweep.count=3"],
], ids=["dispersion-upper-edge", "dispersion-lower-edge", "dispersion-narrow-band",
        "fluct-narrow-band", "dispersion-huge-omega-t", "dispersion-huge-omega-t-medium",
        "dispersion-quartic-overflow", "dispersion-quartic-overflow-medium",
        "fluct-huge-omega-t", "fluct-quartic-overflow", "fluct-huge-q"])
def test_runs_at_band_edges_and_huge_scales_match_mpmath(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    # measured at worst: 1.19 ulps in omega, 2.03 in n, 3.82 in v_g and
    # 3.36 in a commutator weight
    worst = worst_ulps_against_mpmath(tmp_path / f"{argv[0]}.csv")
    bounds = {"omega": 1.5, "n": 3.0, "vg": 5.0, "a": 5.0, "e": 5.0, "b": 5.0, "d": 5.0}
    assert all(value <= bounds[name.split("_")[0]] for name, value in worst.items()), worst


def test_couplings_next_to_the_degeneracy_keep_their_splitting(tmp_path):
    # hopfield at rabi = 1e-10 wrote omega_L = omega_U = 1.0 with photon
    # weight 0.0 on both modes, and figure2 at rabi = 1e-9 omega_L_disc =
    # omega_U_disc = 1.0
    pytest.importorskip("mpmath")
    sweep = ["--set", "sweep.stop=1e-6", "--set", "sweep.count=3"]
    assert main(["hopfield", "--out", str(tmp_path), "--set", "sweep.start=1e-10", *sweep]) == 0
    assert main(["figure2", "--out", str(tmp_path), "--set", "sweep.start=1e-9", *sweep]) == 0
    _, header, rows = read_csv(tmp_path / "hopfield.csv")
    first = dict(zip(header, map(float, rows[0])))
    assert (first["omega_L"], first["omega_U"]) == (0.9999999999, 1.0000000001)
    assert (first["w2_L"], first["x2_U"]) == (0.49999999995, 0.49999999994999983)
    _, header, rows = read_csv(tmp_path / "fig2_frequencies.csv")
    for row in rows:
        cells = dict(zip(header, map(float, row)))
        modes = exact_modes(BogoliubovProblem(1.0, 1.0, cells["rabi_over_wt"]))
        for tag, (omega, *_) in zip("LU", modes):
            assert abs(cells[f"omega_{tag}_disc"] - float(omega)) <= math.ulp(float(omega))


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_number_key_at_an_extreme_runs_or_is_refused(tmp_path, capsys, command):
    # each key read as a number, set alone to a value outside most domains:
    # the run writes its outputs, or refuses with exit 1, one message and no file
    keys = [key for key, (_, read) in config._KEYS.items() if read in (float, config._auto_float)]
    wrong = []
    for key in keys:
        for value in ("nan", "inf", "-inf", "0", "-1"):
            out = tmp_path / f"{key}={value}"
            out.mkdir()
            code = main([command, "--out", str(out), "--set", f"{key}={value}"])
            err = capsys.readouterr().err
            refused = (
                code == 1 and err.startswith("polariton-mbc: ") and err.count("\n") == 1
                and not os.listdir(out)
            )
            if not (code == 0 or refused):
                wrong.append((key, value, code, err))
    assert wrong == []


def test_figure2_names_the_first_non_finite_cell(tmp_path, capsys):
    assert main([
        "figure2", "--out", str(tmp_path), "--set", "figure2.kappa0_over_wt=1.7e308",
    ]) == 1
    assert capsys.readouterr().err == (
        "polariton-mbc: config error: fig2_rates.csv: kappa_U_rwa is not finite "
        "at rabi_over_wt = 1.1 (curve 'kappa_U (photon weight)')\n"
    )


def test_cavity_whose_bare_rate_overflows_is_refused(tmp_path, capsys):
    # lambda_mirror**2 * length underflows to 0: 2 / 0 used to escape as a
    # ZeroDivisionError traceback
    code = main([
        "kappa-sweep", "--out", str(tmp_path),
        "--set", "cavity.lambda_mirror=1e-160", "--set", "cavity.length=1e-160",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error: lambda_mirror = 1e-160 with length = 1e-160" in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_bench_tracer_still_sees_both_writers(tmp_path, monkeypatch):
    # bench/tracer.py finds tables.write_csv, SweepTable.write_csv and the
    # command table by name; one traced run must count rows and points
    from polariton_mbc import tables

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from tracer import Tracer, layer_metrics

    before = (tables.write_csv, tables.SweepTable.__dict__["write_csv"], dict(cli._COMMANDS))
    with Tracer() as tracer:
        assert main(["figure2", "--out", str(tmp_path), "--svg"]) == 0
    metrics = layer_metrics(tracer)
    assert metrics["tables.rows_written"] == 60
    assert metrics["svgplot.points_plotted"] > 0
    assert metrics["cli.figure2.total_s"] > 0
    after = (tables.write_csv, tables.SweepTable.__dict__["write_csv"], dict(cli._COMMANDS))
    assert after == before


def test_bench_checker_passes_every_default_output(tmp_path, monkeypatch):
    # bench/checker.py re-derives sampled rows with tests/oracles.py; a
    # change to either that it would report as incorrect fails here
    here = Path(__file__).resolve().parent
    monkeypatch.syspath_prepend(str(here.parent / "bench"))
    monkeypatch.syspath_prepend(str(here))
    from checker import check_invocation

    rng = np.random.default_rng(0)
    for command in cli._COMMANDS:
        out = tmp_path / command
        assert main([command, "--out", str(out), "--svg"]) == 0, command
        assert check_invocation(command, str(out), True, rng) == [], command


def _child_env():
    """os.environ with PYTHONPATH leading to this process's polariton_mbc,
    so a child imports it, not whatever copy (if any) it would find on its own."""
    package_root = Path(polariton_mbc.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(package_root), env.get("PYTHONPATH")) if p
    )
    return env


def test_module_and_script_entry_points(tmp_path):
    env = _child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "polariton_mbc.cli", "resonances", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "resonances.csv").exists()

    # the console script as pyproject.toml declares it, started the way the
    # wrapper that pip generates for it starts it
    tomllib = pytest.importorskip("tomllib" if sys.version_info >= (3, 11) else "tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, attr = scripts["polariton-mbc"].split(":")
    wrapper = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv[0] = 'polariton-mbc'\n"
        f"sys.exit({attr}())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "dispersion" in proc.stdout


def test_cli_import_leaves_test_only_packages_unloaded():
    # every run pays for what importing the CLI loads; these stay test-only,
    # and numpy.random loads only when greens-check draws its frequencies
    test_only = ("numpy.random", "scipy", "mpmath", "hypothesis", "pytest")
    probe = (
        "import sys, polariton_mbc.cli\n"
        f"print(sorted(m for m in {test_only!r} if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.skipif(
    shutil.which("polariton-mbc") is None,
    reason="console script polariton-mbc not on PATH (pip install -e . puts it there)",
)
def test_installed_console_script():
    script = shutil.which("polariton-mbc")
    proc = subprocess.run([script, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "dispersion" in proc.stdout


def test_resonances_refuse_a_window_inside_the_stop_band(tmp_path, capsys):
    # the window, not the root solver, is at fault: exit 1 as for
    # greens-check and kappa-sweep
    code = main([
        "resonances", "--out", str(tmp_path), "--set", "medium.beta4pi=0.36",
        "--set", "sweep.start=1.01", "--set", "sweep.stop=1.1",
    ])
    assert code == 1
    assert "config error: resonances window" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_resonance_mode_indices_past_float_resolution_exit_two(tmp_path, capsys):
    # at L = 1e300 consecutive mode indices are no longer distinct doubles
    code = main(["resonances", "--out", str(tmp_path), "--set", "cavity.length=1e300"])
    assert code == 2
    assert "floating-point resolution" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_resonances_sharing_a_double_are_refused_by_name(tmp_path, capsys):
    # 1e7 omega_t long, modes pile up below the band edge closer than the
    # doubles there: two roots round to the window's bottom
    code = main([
        "resonances", "--out", str(tmp_path), "--set", "medium.beta4pi=0.36",
        "--set", "cavity.length=1e7", "--set", "sweep.start=0.999999998",
        "--set", "sweep.stop=0.999999999",
    ])
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1
    assert ("resonances window: modes 30197526958 and 30197526959 share the double "
            "omega = 0.999999998") in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("beta4pi", ["1e-6", "1e-4", "0.01", "0.36", "2", "16"])
def test_resonances_default_window_runs_across_couplings(tmp_path, beta4pi):
    # the default window straddles the stop band; up to 2,000 lower-branch
    # modes pile up below omega_t, each root certified by its sign change
    assert main(["resonances", "--out", str(tmp_path),
                 "--set", f"medium.beta4pi={beta4pi}"]) == 0
    with open(tmp_path / "resonances.csv") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))[1:]
    assert 0 < len(rows) <= 2000
    if float(beta4pi) >= 0.01:
        assert len(rows) == 2000
    assert all(math.isfinite(float(cell)) for row in rows for cell in row[:2])
    lower = [int(row[3]) for row in rows if row[2] == "lower"]
    assert lower == list(range(lower[0], lower[0] + len(lower)))


# (beta4pi, start, stop, length): one leg in vacuum, then windows across the
# stop band, whose lower leg ends in the modes piled up at the band edge, and
# a vacuum window between the tuned cavity's m = 0 and m = 1 roots
RESONANCE_WINDOWS = [
    ("0", 0.5, 60.0, 1.0), ("0.36", 0.5, 8.0, 1.0), ("16", 0.2, 12.0, 0.5),
    ("0", 0.5, 0.6, "auto"),
]


@pytest.mark.parametrize("cap", ["none", "one", "inside-first-leg", "first-leg"])
@pytest.mark.parametrize("beta4pi,start,stop,length", RESONANCE_WINDOWS)
def test_resonance_table_matches_find_resonances_cell_for_cell(tmp_path, beta4pi, start,
                                                              stop, length, cap):
    # the resonances table holds find_resonances' columns cell for cell,
    # also where sweep.count cuts a leg short, ends exactly at the end of
    # the first one, or the window holds no root and only the header is
    # written; the columns are equal-length float64, float64, str, int64
    cfg = load_config("resonances", set_pairs=[
        f"medium.beta4pi={beta4pi}", f"sweep.start={start}", f"sweep.stop={stop}",
        f"cavity.length={length}",
    ])
    window, cavity = (cfg.sweep_start, cfg.sweep_stop), cfg.cavity()
    every = find_resonances(cavity, window)
    first_leg = int(np.sum(every.branch == every.branch[:1]))
    count = {"none": len(every.omega) + 1, "one": 1, "inside-first-leg": first_leg // 2,
             "first-leg": first_leg}[cap]
    cfg = dataclasses.replace(cfg, sweep_count=count)  # 1 is below what load_config takes
    found = find_resonances(cavity, window, max_count=count)
    for column, whole in zip(found, every):
        assert column.tolist() == whole[:count].tolist()
    assert [column.shape for column in found] == [(min(count, len(every.omega)),)] * 4
    dtypes = found.omega.dtype, found.kappa.dtype, found.branch.dtype.kind, found.mode_index.dtype
    assert dtypes == (np.float64, np.float64, "U", np.int64)
    assert beta4pi == "0" or len(set(every.branch.tolist())) == 2
    assert (length == "auto") is (len(every.omega) == 0)
    [out] = cli.cmd_resonances(cfg)
    names = ["omega", "kappa", "branch", "mode_index"]
    rows = list(zip(found.omega.tolist(), found.kappa.tolist(), found.branch.tolist(),
                    [str(m) for m in found.mode_index.tolist()]))
    assert out.table.names == names
    assert list(zip(*(out.table.array(name).tolist() for name in names))) == rows
    out.table.write_csv(tmp_path / "r.csv", ["c"])
    expected = reference_csv(names, rows, ["c"]).encode("utf-8")
    assert (tmp_path / "r.csv").read_bytes() == expected


def test_resonances_command_goes_through_find_resonances(tmp_path, monkeypatch):
    # the command solves through the public find_resonances, once per
    # run, so that what wraps that name sees every resonance solve
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return find_resonances(*args, **kwargs)

    monkeypatch.setattr(cli, "find_resonances", spy)
    for beta4pi in ("0", "0.36"):
        calls.clear()
        assert main(["resonances", "--out", str(tmp_path),
                     "--set", f"medium.beta4pi={beta4pi}"]) == 0
        assert len(calls) == 1


def test_resonances_refuse_a_cavity_too_short_for_unique_roots(tmp_path, capsys):
    # L Lambda omega_t = 0.5: one root per mode bracket is not guaranteed
    code = main([
        "resonances", "--out", str(tmp_path), "--set", "medium.beta4pi=0.36",
        "--set", "cavity.length=0.25", "--set", "cavity.lambda_mirror=2",
    ])
    assert code == 1
    assert "length * lambda_mirror * omega_t > 1" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_resonances_refuse_a_mirror_whose_square_overflows(tmp_path, capsys):
    # the rates divide by lambda_mirror**2, which overflows above about 1.3e154
    code = main([
        "resonances", "--out", str(tmp_path), "--set", "cavity.lambda_mirror=1e300",
        "--set", "sweep.start=1.2", "--set", "sweep.stop=1.2001",
    ])
    assert code == 1
    assert "config error: lambda_mirror = 1e+300" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_greens_check_medium_variants(tmp_path):
    # the checks hold in a polariton medium and with absorption on
    code = main([
        "greens-check", "--out", str(tmp_path),
        "--set", "medium.beta4pi=1.44", "--set", "medium.gamma=1e-4",
    ])
    assert code == 0
    _, header, rows = read_csv(tmp_path / "greens_check.csv")
    assert all(s == "pass" for s in column(header, rows, "status", cast=str))
