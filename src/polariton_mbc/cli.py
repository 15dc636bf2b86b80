"""Command-line front end: sweeps to CSV files plus optional SVG plots.

Every command reads the layered configuration (defaults, then an
optional --config file, then --set overrides), runs one computation,
and returns its outputs: tables, each with an optional plot. main then
refuses any non-finite table cell, lays out the plots, and only then
opens files: the SVGs first, then each CSV under a comment header that
carries the fully resolved configuration, each streamed in chunks. Exit
codes: 0 success, 1 configuration error, 2 numerical-tolerance failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from typing import NamedTuple

import numpy as np

from .cavity import CavityConfig, amplitudes, find_resonances, kappa_bare, kappa_mbc
from .config import RunConfig, load_config
from .dielectric import MediumParams, _bulk_branches, _transparent
from .errors import ConfigError, PolaritonError, StepSizeError, StopBandError, ToleranceError
from .fluct import FieldCommutators, solve_omega_q
from .greens import _wavenumber, delta_jump, fd_step, green_function, membrane_jump
from .greens import ode_residual
from .hopfield import hopfield_modes, weight
from .iomodel import _tuned, figure2_sweep, kappa_fit
from .svgplot import layout, write_svg
from .tables import SweepTable

_GREENS_SEED = 20260817
# greens-check draws no frequency within this many omega_t of the stop band
_BAND_MARGIN = 1e-6


class Plot(NamedTuple):
    """(label, x, y, style) curves, x and y each the name of a column of
    the output's table or the values themselves, with the plot's labels."""

    series: list
    title: str
    xlabel: str
    ylabel: str


class Output(NamedTuple):
    """<stem>.csv, written from table, and with --svg <stem>.svg from plot."""

    stem: str
    table: SweepTable
    plot: Plot | None = None


def cmd_dispersion(cfg: RunConfig) -> list[Output]:
    """Bulk branch frequencies, index, and group velocity over a wavenumber sweep."""
    ks = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_count)
    w, n, vg = _bulk_branches(ks, cfg.medium)
    names = ["omega_L", "omega_U", "n_L", "n_U", "vg_L", "vg_U"]
    table = SweepTable([("k", ks), *zip(names, [*w, *n, *vg])])
    plot = Plot([
        ("lower branch", "k", "omega_L", "solid"),
        ("upper branch", "k", "omega_U", "solid"),
        ("light line", "k", "k", "dotted"),
    ], "bulk polariton dispersion", "wavenumber k (omega_t/c)", "frequency (omega_t)")
    return [Output("dispersion", table, plot)]


def cmd_hopfield(cfg: RunConfig) -> list[Output]:
    """Two-mode eigenfrequencies and mode weights over a coupling sweep.

    One `hopfield_modes` call in units of omega_t covers the sweep. A
    coupling whose closed forms leave the float range is refused with a
    configuration error.
    """
    grid = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_count)
    modes = hopfield_modes(1.0, 1.0, grid)
    modes.require_finite(grid)
    cols = {"omega_L": modes.omega[0], "omega_U": modes.omega[1]}
    for i, tag in enumerate("LU"):
        for part in "wxyz":
            cols[f"{part}2_{tag}"] = weight(getattr(modes, part)[i])
    plot = Plot([
        ("omega_L", "rabi_over_wt", "omega_L", "solid"),
        ("omega_U", "rabi_over_wt", "omega_U", "solid"),
        ("photon weight L", "rabi_over_wt", "w2_L", "dashed"),
        ("photon weight U", "rabi_over_wt", "w2_U", "dashed"),
    ], "two-mode polariton branches at resonance", "rabi / omega_t",
        "frequency (omega_t) / weight")
    return [Output("hopfield", SweepTable([("rabi_over_wt", grid), *cols.items()]), plot)]


def cmd_resonances(cfg: RunConfig) -> list[Output]:
    """Cavity resonances in a frequency window, ascending; count caps the number of roots."""
    cavity = cfg.cavity()
    window = (cfg.sweep_start, cfg.sweep_stop)
    try:
        omega, kappa, branch, modes = find_resonances(cavity, window, cfg.sweep_count)
    except StopBandError as err:  # the window, not the solver, is at fault
        raise ConfigError(f"resonances window: {err}") from err
    for i in np.flatnonzero(omega[1:] == omega[:-1])[:1]:  # modes piled up at a band edge
        raise ConfigError(f"resonances window: modes {modes[i]} and {modes[i + 1]} "
                          f"share the double omega = {omega[i].item()!r}")
    return [Output("resonances", SweepTable([
        ("omega", omega), ("kappa", kappa), ("branch", branch), ("mode_index", modes.astype(str)),
    ]))]


def cmd_spectrum(cfg: RunConfig) -> list[Output]:
    """Intracavity intensity and reflected amplitude over a frequency sweep.

    A lossless medium (gamma = 0, beta4pi > 0) has an infinite index at
    omega_t, so a grid point there is refused with a configuration error.
    """
    cavity = cfg.cavity()
    med = cfg.medium
    ws = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_count)
    if med.gamma == 0.0 and med.beta4pi > 0.0 and np.any(ws == med.omega_t):
        raise ConfigError(
            f"spectrum grid hits omega_t = {med.omega_t:g}, where the lossless "
            "index is infinite; set medium.gamma > 0 or move the grid off omega_t"
        )
    t, r = amplitudes(ws, cavity)
    table = SweepTable([
        ("omega", ws),
        ("t2", np.abs(t) ** 2),
        ("re_r", r.real),
        ("im_r", r.imag),
        ("abs_r", np.abs(r)),
    ])
    plot = Plot([("intracavity |T|^2", "omega", "t2", "solid")],
                "cavity spectrum", "frequency (omega_t)", "|T|^2")
    return [Output("spectrum", table, plot)]


def cmd_kappa_sweep(cfg: RunConfig) -> list[Output]:
    """Boundary-condition rate vs frequency against the inverse-square fit."""
    cavity = cfg.cavity()
    med = cfg.medium
    ws = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_count)
    try:
        kappa = kappa_mbc(ws, cavity)
    except StopBandError as err:
        raise ConfigError(f"kappa-sweep window crosses the stop band {med.stop_band()}; "
                          "split the sweep into transparent windows") from err
    k0 = kappa_bare(cavity)
    table = SweepTable([
        ("omega", ws),
        ("kappa_mbc", kappa),
        ("kappa0", np.full(ws.shape, k0)),
        ("kappa_fit", kappa_fit(ws, k0, med.omega_t)),
    ])
    plot = Plot([
        ("kappa_mbc", "omega", "kappa_mbc", "solid"),
        ("inverse-square fit", "omega", "kappa_fit", "dashed"),
        ("kappa0", "omega", "kappa0", "dotted"),
    ], "dissipation rate vs frequency", "frequency (omega_t)", "kappa (omega_t)")
    return [Output("kappa_sweep", table, plot)]


def cmd_figure2(cfg: RunConfig) -> list[Output]:
    """Both dissipation-rate prescriptions over a coupling sweep (two files)."""
    grid = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_count)
    lam, k0 = cfg.lambda_mirror, cfg.kappa0_over_wt
    table = figure2_sweep(grid, lam, k0)
    k0 = _tuned(lam)[1] if k0 is None else k0  # figure2_sweep's default
    axis = table.array("rabi_over_wt")

    def part(stem, quantity, other, legend, title, ylabel, extra):
        """quantity_L and _U by the boundary condition (solid) and by the
        `other` prescription (dashed), against the coupling."""
        curves = [
            (f"{quantity}_{tag} ({how})", "rabi_over_wt", f"{quantity}_{tag}_{suffix}", style)
            for suffix, how, style in [("mbc", "boundary", "solid"), (other, legend, "dashed")]
            for tag in "LU"
        ]
        names = ["rabi_over_wt"] + [c[2] for c in curves]
        return Output(stem, SweepTable([(n, table.array(n)) for n in names]),
                      Plot(curves + extra, title, "rabi / omega_t", ylabel))

    return [
        part("fig2_frequencies", "omega", "disc", "discrete",
             "polariton frequencies", "frequency (omega_t)", []),
        part("fig2_rates", "kappa", "rwa", "photon weight", "dissipation rates",
             "kappa (omega_t)", [("kappa0", [axis[0], axis[-1]], [k0, k0], "dotted")]),
    ]


def _random_transparent(rng, cfg: RunConfig, count: int) -> np.ndarray:
    """Random frequencies in the sweep window, outside the stop band, in
    units of omega_t.

    Uniform over the transparent parts of the window, drawn directly from
    its one or two parts in a single call to rng, however thin they are.
    A window that does not reach the band gets the same draws as
    rng.uniform(start, stop, count).
    """
    med = cfg.medium
    start, stop = cfg.sweep_start, cfg.sweep_stop
    parts, (edge_lo, edge_hi) = _transparent(start, stop, med.beta4pi, _BAND_MARGIN)
    if not parts:
        lo, hi = med.stop_band()
        raise ConfigError(
            f"greens-check window [{start:g}, {stop:g}] lies inside the stop band "
            f"[{lo:g}, {hi:g}] widened by {_BAND_MARGIN:g}: nothing to draw"
        )
    below = parts[0][1] - start if parts[0][1] <= edge_lo else 0.0  # width under the band
    u = rng.uniform(0.0, sum(b - a for a, b in parts), size=count)
    # rounding can carry a draw onto a band edge; keep it strictly outside
    low = np.minimum(start + u, np.nextafter(edge_lo, -np.inf))
    high = np.maximum(parts[-1][0] + (u - below), np.nextafter(edge_hi, np.inf))
    return np.where(u < below, low, high)


def _hardest_to_resolve(cfg: RunConfig, cavity: CavityConfig) -> list[float]:
    """The frequencies, in units of omega_t, a step must resolve for every
    draw of the window to be checkable: the start of a transparent part
    with the smallest `greens._wavenumber`, where rounding limits the step
    (k grows along each branch), and, in vacuum or above the band, the
    stop, where the 1e-5 L floor on the step does. Below the band the
    probe decides."""
    stop = cfg.sweep_stop
    parts, (_, edge_hi) = _transparent(cfg.sweep_start, stop, cfg.medium.beta4pi, _BAND_MARGIN)
    least = min((a for a, _ in parts), key=lambda w: _wavenumber(w, cavity))
    return [least, stop] if stop > edge_hi else [least]


def cmd_greens_check(cfg: RunConfig) -> list[Output]:
    """Check the Green's function against its defining properties.

    Returns one row per check (value, tolerance, pass/fail); if any check
    fails it raises a tolerance error that carries the table, which is
    written all the same and exits with code 2. A window with a frequency
    of `_hardest_to_resolve`, or a probe, that no finite-difference step
    can check within the residual tolerance is refused first, with a
    configuration error, as is a window that does not start above zero
    frequency. Every check runs in units of omega_t.
    """
    wt, med = cfg.medium.omega_t, cfg.medium
    cfg = dataclasses.replace(  # every check value is dimensionless: check in units of omega_t
        cfg, medium=MediumParams(1.0, med.beta4pi, med.gamma / wt),
        length=None if cfg.length is None else cfg.length * wt,
        sweep_start=cfg.sweep_start / wt, sweep_stop=cfg.sweep_stop / wt)
    if not 0.0 < cfg.sweep_start < cfg.sweep_stop < np.inf:
        raise ConfigError(f"greens-check window must lie in (0, inf) in units of omega_t = "
                          f"{wt:g}, got [{cfg.sweep_start:g}, {cfg.sweep_stop:g}]")
    cavity = cfg.cavity()
    length = cavity.length
    tol_c, tol_r = cfg.tol_coefficient, cfg.tol_residual
    # the sources sit at 0.37 L and -0.45 L: 0.37 L from the nearest boundary
    clearance = 0.37 * length
    rng = np.random.default_rng(_GREENS_SEED)
    ws = _random_transparent(rng, cfg, max(cfg.sweep_count, 2))
    w_probe = float(ws[0])
    for w in [*_hardest_to_resolve(cfg, cavity), w_probe]:  # h is the probe's step
        try:
            h = fd_step(w, cavity, clearance, tol_r)
        except StepSizeError as err:
            raise ConfigError(f"greens-check cannot check the window at {w:g}: {err}") from err

    # piecewise evaluation consistency: G(z, z') = G(z', z) across regions;
    # draws as (z_in, z_out) pairs, one pair per frequency in turn, measured
    # against the largest |G| drawn, as G scales like 1/omega
    u = rng.uniform([0.1, 0.1], [0.9, 1.9], size=(ws.size, 2))
    z_in, z_out = u[:, 0] * length, -u[:, 1] * length
    pair = green_function(np.stack([z_out, z_in]), np.stack([z_in, z_out]), ws, cavity)
    if not np.all(np.isfinite(pair)):  # |G| ~ 1/omega
        raise ConfigError(f"greens-check: G overflows in the window [{cfg.sweep_start:g}, "
                          f"{cfg.sweep_stop:g}] with L = {length:g}, in units of omega_t = {wt:g}")
    dev_s = float(np.max(np.abs(np.subtract(*pair))) / np.max(np.abs(pair)))

    resid_out, resid_in = ode_residual([-0.45 * length, 0.37 * length], w_probe, cavity, h).tolist()
    jump_dev = abs(delta_jump(0.37 * length, w_probe, cavity, h) + 1.0)
    membrane_dev = max(
        membrane_jump(zp, w_probe, cavity, h) for zp in (-0.45 * length, 0.37 * length)
    )

    checks = [
        ("cross_region_symmetry", dev_s, tol_c),
        ("ode_residual_outside_source", resid_out, tol_r),
        ("ode_residual_inside_source", resid_in, tol_r),
        ("source_jump", jump_dev, tol_r),
        ("membrane_jump", membrane_dev, tol_r),
    ]
    status = ["pass" if value < tol else "fail" for _, value, tol in checks]
    columns = zip(["check", "value", "tolerance"], zip(*checks))
    outputs = [Output("greens_check", SweepTable([*columns, ("status", status)]))]
    failed = [name for (name, _, _), s in zip(checks, status) if s == "fail"]
    if failed:
        raise ToleranceError("greens-check failures: " + ", ".join(failed), outputs)
    return outputs


def cmd_fluct(cfg: RunConfig) -> list[Output]:
    """Field commutator weights along a vacuum-wavenumber sweep."""
    qs = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_count)
    omega_q = solve_omega_q(qs, cfg.medium)
    n = qs / omega_q
    weights = vars(FieldCommutators.at_index(qs, n))
    table = SweepTable([("q", qs), ("omega_q", omega_q), ("n", n), *weights.items()])
    fields = ["vector potential", "electric field", "magnetic field", "displacement field"]
    plot = Plot([(label, "q", name, "solid") for label, name in zip(fields, weights)],
                "equal-time commutator weights", "vacuum wavenumber q", "commutator weight")
    return [Output("fluct", table, plot)]


_COMMANDS = {
    "dispersion": (cmd_dispersion, "bulk dispersion, index, and group velocity"),
    "hopfield": (cmd_hopfield, "two-mode eigenfrequencies and weights vs coupling"),
    "resonances": (cmd_resonances, "cavity resonance frequencies and rates"),
    "spectrum": (cmd_spectrum, "intracavity and reflected spectra"),
    "kappa-sweep": (cmd_kappa_sweep, "dissipation rate vs frequency with fit"),
    "figure2": (cmd_figure2, "rate comparison sweep (two prescriptions)"),
    "greens-check": (cmd_greens_check, "Green's function self-checks"),
    "fluct": (cmd_fluct, "field commutator weights in the medium"),
}


def _require_finite(out: Output) -> None:
    """Raise ConfigError at the first non-finite cell of out's table,
    naming the file, the column, the axis value and the curves drawn
    from that column."""
    axis = out.table.names[0]
    for name in out.table.names:
        values = out.table.array(name)
        if values.dtype.kind != "f" or np.all(np.isfinite(values)):
            continue
        at = out.table.array(axis)[np.argmin(np.isfinite(values))]
        curves = [
            repr(label) for label, *xy, _ in (out.plot.series if out.plot else ())
            if name in [v for v in xy if isinstance(v, str)]
        ]
        drawn = f" (curve {', '.join(curves)})" if curves else ""
        where = at if isinstance(at, str) else f"{at:g}"
        raise ConfigError(f"{out.stem}.csv: {name} is not finite at {axis} = {where}{drawn}")


def _layout(out: Output, out_dir: str):
    """(path, curves, laid-out document) of out's plot, its named columns looked up."""
    curves = [
        (label, *(out.table.array(v) if isinstance(v, str) else v for v in xy), style)
        for label, *xy, style in out.plot.series
    ]
    svg = layout(curves, out.plot.title, out.plot.xlabel, out.plot.ylabel)
    return os.path.join(out_dir, f"{out.stem}.svg"), curves, svg


def _write(cfg: RunConfig, command: str, outputs) -> None:
    """Check every table and lay out every plot before any file is opened;
    then stream the SVGs to their files, and then the CSVs.

    A refused table or a plot that fails leaves no file.
    """
    for out in outputs:
        _require_finite(out)
    for svg in [_layout(out, cfg.out_dir) for out in outputs if cfg.svg and out.plot]:
        write_svg(*svg)
    comments = [f"polariton-mbc {command}", *cfg.resolved()]
    for out in outputs:
        out.table.write_csv(os.path.join(cfg.out_dir, f"{out.stem}.csv"), comments)


def _run(cfg: RunConfig, command: str) -> None:
    """Run one command and write its outputs, or, on a tolerance
    failure, the outputs the error carries before it propagates."""
    func = _COMMANDS[command][0]
    try:
        # what leaves the float range is refused by name, not warned about
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            outputs = func(cfg)
    except ToleranceError as err:
        _write(cfg, command, err.outputs)
        raise
    _write(cfg, command, outputs)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused:
    parse_args leaves it unchanged, and import stays cheap."""
    parser = argparse.ArgumentParser(
        prog="polariton-mbc",
        description="Open-cavity polariton spectra and dissipation rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="FILE", help="key=value config file")
        p.add_argument(
            "--set",
            metavar="KEY=VALUE",
            action="append",
            default=[],
            dest="overrides",
            help="override one config key (section.key=value), repeatable",
        )
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--svg", action="store_true", default=None,
                       help="also write SVG plots")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return 0 if code == 0 else 1

    try:
        cfg = load_config(
            args.command, args.config, args.overrides, args.out, args.svg
        )
        os.makedirs(cfg.out_dir, exist_ok=True)
        if not os.access(cfg.out_dir, os.W_OK):
            raise OSError(f"output directory {cfg.out_dir!r} is not writable")
        _run(cfg, args.command)
    except (ConfigError, ValueError) as err:
        print(f"polariton-mbc: config error: {err}", file=sys.stderr)
        return 1
    except ToleranceError as err:
        print(f"polariton-mbc: tolerance failure: {err}", file=sys.stderr)
        return 2
    except PolaritonError as err:
        print(f"polariton-mbc: numerical failure: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"polariton-mbc: i/o error: {err}", file=sys.stderr)
        return 3
    return 0

if __name__ == "__main__":
    sys.exit(main())
