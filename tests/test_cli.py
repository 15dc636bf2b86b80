"""Command-line behavior: outputs, exit codes, config layering, determinism."""

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
import polariton_mbc.greens as greens
import polariton_mbc.hopfield as hopfield
from oracles import looped_hopfield_rows
from polariton_mbc import figure2_sweep
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
    "beta4pi, start, stop, code",
    [
        (0.36, 1.0 - 3e-6, 1.0 - 1.5e-6, 0),
        (2.0, 1.0 - 1e-5, 1.0 - 1.5e-6, 0),
        (16.0, 1.0 - 1e-3, 1.0 - 1.5e-6, 0),
        # the start resolves (hk = 0.017 at the 1e-5 L step), the probe a
        # fifth of the way to the edge does not (hk = 0.019): refused by name
        (16.0, 1.0 - 2.96e-5, 1.0 - 1.5e-6, 2),
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
    # step cannot resolve ends in a StepSizeError
    sizes = []
    exact = greens.green_function

    def counting(z, *args):
        sizes.append(np.size(z))
        return exact(z, *args)

    monkeypatch.setattr(greens, "green_function", counting)
    assert main([
        "greens-check", "--out", str(tmp_path), "--set", "medium.gamma=0",
        "--set", f"medium.beta4pi={beta4pi}", "--set", "sweep.count=2",
        "--set", f"sweep.start={start!r}", "--set", f"sweep.stop={stop!r}",
    ]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert "numerical failure: no step" in err
        assert not (tmp_path / "greens_check.csv").exists()
    if code == 1:
        assert "cannot check the window" in err
    assert max(sizes, default=0) <= 300_000
    if code == 0 and stop < 1.0:
        assert 300_000 in sizes  # each probe below the band needs the smallest step


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
    ("0.1", "1e160", "5e+159"),  # s^2 overflows above rabi ~ 1e77
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
    # the whole-sweep kernel squares by multiplication, the scalar loop by
    # pow: at most one ulp apart in any cell
    assert main(["hopfield", "--out", str(tmp_path), "--set", "sweep.count=2000"]) == 0
    _, header, rows = read_csv(tmp_path / "hopfield.csv")
    got = np.array(rows, dtype=float)
    want = np.array(looped_hopfield_rows(got[:, 0]))
    assert got.shape == want.shape == (2000, 11)
    assert np.all(np.sign(got) == np.sign(want))
    assert np.max(np.abs(got.view(np.int64) - want.view(np.int64))) <= 1


def test_sweeps_make_no_per_coupling_hopfield_call(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-coupling call into hopfield")

    monkeypatch.setattr(hopfield, "diagonalize", refuse)
    monkeypatch.setattr(hopfield, "eigenfrequencies", refuse)
    assert main(["hopfield", "--out", str(tmp_path), "--set", "sweep.count=200"]) == 0
    assert main(["figure2", "--out", str(tmp_path), "--set", "sweep.count=50"]) == 0
    assert len(figure2_sweep(np.linspace(0.05, 1.5, 50), 7.822)) == 50


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
    "dispersion.csv": "43ecceb8476fe84ff2f95509efccfa8bf6078d19102448aa496ff1bdf4bb5cf4",
    "fig2_frequencies.csv": "58f4d357461827496aabc8aa79bae22d9113c44d2081325f77c9bcd7e09a5c55",
    "fig2_rates.csv": "6331091672b91c6d2976e80ca6f12cdc166e79957cc2820966a7e355abab9923",
    "fluct.csv": "d2160213f43336dad3f2496eb70ece62c93270a2bcf66042a52302c8e286ecaf",
    "greens_check.csv": "fe69aca69ed10021b611f0e565ef768cb56b0f755fab9c708af0df568de46838",
    "hopfield.csv": "9518d5bf6950d3d522e6eb18bc99d1fec883ee330931a5d3cb56df1e1251fac1",
    "kappa_sweep.csv": "7cceabaaa002a0c7191761c2175708eb0a4f356f1ed71bf980d7a741435aebcd",
    "resonances.csv": "661973c7aa8558c7707133ab329ceb00b6bd9fa3baf7cb9f491ec5f8bbabe268",
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


def test_module_and_script_entry_points(tmp_path):
    # the children import the same polariton_mbc as this process, not
    # whatever copy (if any) the interpreter would find on its own
    package_root = Path(polariton_mbc.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(package_root), env.get("PYTHONPATH")) if p
    )
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


def test_resonance_scan_failure_exits_two(tmp_path):
    # a window pressed against the band edge holds a mode (47, near
    # omega = 0.99991) whose root cannot be certified
    code = main([
        "resonances", "--out", str(tmp_path),
        "--set", "medium.beta4pi=0.36", "--set", "sweep.stop=0.99999",
    ])
    assert code == 2


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
