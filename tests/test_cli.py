"""Command-line behavior: outputs, exit codes, config layering, determinism."""

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
        "reflection_coefficient",
        "transfer_coefficient",
        "cross_region_symmetry",
        "ode_residual_outside_source",
        "ode_residual_inside_source",
        "source_jump",
    ]
    assert all(s == "pass" for s in column(header, rows, "status", cast=str))
    payload = (tmp_path / "greens_check.csv").read_bytes()
    assert main(["greens-check", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "greens_check.csv").read_bytes() == payload


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


def test_resonance_scan_failure_exits_two(tmp_path):
    # a window pressed against the band edge cannot be resolved
    code = main([
        "resonances", "--out", str(tmp_path),
        "--set", "medium.beta4pi=0.36", "--set", "sweep.stop=0.9999",
    ])
    assert code == 2


def test_greens_check_medium_variants(tmp_path):
    # the checks hold in a polariton medium and with absorption on
    code = main([
        "greens-check", "--out", str(tmp_path),
        "--set", "medium.beta4pi=1.44", "--set", "medium.gamma=1e-4",
    ])
    assert code == 0
    _, header, rows = read_csv(tmp_path / "greens_check.csv")
    assert all(s == "pass" for s in column(header, rows, "status", cast=str))
