"""Command-line front end: sweeps to CSV files plus optional SVG plots.

Every command reads the layered configuration (defaults, then an
optional --config file, then --set overrides), runs one computation,
and writes CSV files whose comment header carries the fully resolved
configuration. Exit codes: 0 success, 1 configuration error,
2 numerical-tolerance failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .cavity import (
    CavityConfig,
    intracavity_transfer,
    find_resonances,
    kappa_bare,
    kappa_mbc,
    reflection,
    tuned_length,
)
from .config import RunConfig, load_config
from .dielectric import MediumParams, bulk_dispersion, group_velocity, in_stop_band
from .dielectric import refractive_index
from .errors import ConfigError, PolaritonError, StepSizeError, StopBandError
from .errors import ToleranceError
from .fluct import FieldCommutators, solve_omega_q
from .greens import delta_jump, fd_step, green_function, membrane_jump, ode_residual
from .hopfield import hopfield_modes, weight
from .iomodel import figure2_sweep, kappa_fit
from .svgplot import write_svg
from .tables import SweepTable, write_csv

_GREENS_SEED = 20260817
# greens-check draws no frequency within this many omega_t of the stop band
_BAND_MARGIN = 1e-6


def _comments(cfg: RunConfig, command: str) -> list[str]:
    return [f"polariton-mbc {command}", *cfg.resolved()]


def _csv_path(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg.out_dir, name)


def cmd_dispersion(cfg: RunConfig) -> None:
    """Bulk branch frequencies, index, and group velocity over a wavenumber sweep."""
    med = cfg.medium
    ks = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_count)
    wl, wu = bulk_dispersion(ks, med)
    loss0 = med.lossless()
    n_l = np.asarray(refractive_index(wl, loss0)).real
    n_u = np.asarray(refractive_index(wu, loss0)).real
    vg_l = np.asarray(group_velocity(wl, med))
    vg_u = np.asarray(group_velocity(wu, med))
    table = SweepTable(
        [
            ("k", ks),
            ("omega_L", wl),
            ("omega_U", wu),
            ("n_L", n_l),
            ("n_U", n_u),
            ("vg_L", vg_l),
            ("vg_U", vg_u),
        ]
    )
    table.write_csv(_csv_path(cfg, "dispersion.csv"), _comments(cfg, "dispersion"))
    if cfg.svg:
        write_svg(
            _csv_path(cfg, "dispersion.svg"),
            [
                ("lower branch", ks, wl, "solid"),
                ("upper branch", ks, wu, "solid"),
                ("light line", ks, ks, "dotted"),
            ],
            title="bulk polariton dispersion",
            xlabel="wavenumber k (omega_t/c)",
            ylabel="frequency (omega_t)",
        )


def cmd_hopfield(cfg: RunConfig) -> None:
    """Two-mode eigenfrequencies and mode weights over a coupling sweep.

    One `hopfield_modes` call covers the sweep. A coupling whose closed
    forms leave the float range is refused with a configuration error
    before any file is written.
    """
    wt = cfg.medium.omega_t
    grid = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_count)
    modes = hopfield_modes(wt, wt, grid * wt)
    modes.require_finite(grid)
    cols = {"omega_L": modes.omega[0] / wt, "omega_U": modes.omega[1] / wt}
    for i, tag in enumerate("LU"):
        for part in "wxyz":
            cols[f"{part}2_{tag}"] = weight(getattr(modes, part)[i])
    table = SweepTable([("rabi_over_wt", grid), *cols.items()])
    table.write_csv(_csv_path(cfg, "hopfield.csv"), _comments(cfg, "hopfield"))
    if cfg.svg:
        write_svg(
            _csv_path(cfg, "hopfield.svg"),
            [
                ("omega_L", grid, cols["omega_L"], "solid"),
                ("omega_U", grid, cols["omega_U"], "solid"),
                ("photon weight L", grid, cols["w2_L"], "dashed"),
                ("photon weight U", grid, cols["w2_U"], "dashed"),
            ],
            title="two-mode polariton branches at resonance",
            xlabel="rabi / omega_t",
            ylabel="frequency (omega_t) / weight",
        )


def cmd_resonances(cfg: RunConfig) -> None:
    """Cavity resonances in a frequency window, ascending; count caps the number of roots."""
    cavity = cfg.cavity()
    window = (cfg.sweep_start, cfg.sweep_stop)
    try:
        found = find_resonances(cavity, window, max_count=cfg.sweep_count)
    except StopBandError as err:  # the window, not the solver, is at fault
        raise ConfigError(f"resonances window: {err}") from err
    rows = [(res.omega, res.kappa, str(res.branch), res.mode_index) for res in found]
    write_csv(
        _csv_path(cfg, "resonances.csv"),
        ["omega", "kappa", "branch", "mode_index"],
        rows,
        _comments(cfg, "resonances"),
    )


def cmd_spectrum(cfg: RunConfig) -> None:
    """Intracavity intensity and reflected amplitude over a frequency sweep.

    A lossless medium (gamma = 0, beta4pi > 0) has an infinite index at
    omega_t, so a grid point there is refused with a configuration error
    before any file is written.
    """
    cavity = cfg.cavity()
    med = cfg.medium
    ws = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_count)
    if med.gamma == 0.0 and med.beta4pi > 0.0 and np.any(ws == med.omega_t):
        raise ConfigError(
            f"spectrum grid hits omega_t = {med.omega_t:g}, where the lossless "
            "index is infinite; set medium.gamma > 0 or move the grid off omega_t"
        )
    t = np.asarray(intracavity_transfer(ws, cavity))
    r = np.asarray(reflection(ws, cavity))
    table = SweepTable(
        [
            ("omega", ws),
            ("t2", np.abs(t) ** 2),
            ("re_r", r.real),
            ("im_r", r.imag),
            ("abs_r", np.abs(r)),
        ]
    )
    table.write_csv(_csv_path(cfg, "spectrum.csv"), _comments(cfg, "spectrum"))
    if cfg.svg:
        write_svg(
            _csv_path(cfg, "spectrum.svg"),
            [("intracavity |T|^2", ws, np.abs(t) ** 2, "solid")],
            title="cavity spectrum",
            xlabel="frequency (omega_t)",
            ylabel="|T|^2",
        )


def cmd_kappa_sweep(cfg: RunConfig) -> None:
    """Boundary-condition rate vs frequency against the inverse-square fit."""
    cavity = cfg.cavity()
    med = cfg.medium
    ws = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_count)
    if np.any(in_stop_band(ws, med)):
        raise ConfigError(
            "kappa-sweep window crosses the stop band "
            f"{med.stop_band()}; split the sweep into transparent windows"
        )
    k0 = kappa_bare(cavity)
    kmbc = np.asarray(kappa_mbc(ws, cavity))
    fit = np.asarray(kappa_fit(ws, k0, med.omega_t))
    table = SweepTable(
        [
            ("omega", ws),
            ("kappa_mbc", kmbc),
            ("kappa0", np.full(ws.shape, k0)),
            ("kappa_fit", fit),
        ]
    )
    table.write_csv(_csv_path(cfg, "kappa_sweep.csv"), _comments(cfg, "kappa-sweep"))
    if cfg.svg:
        write_svg(
            _csv_path(cfg, "kappa_sweep.svg"),
            [
                ("kappa_mbc", ws, kmbc, "solid"),
                ("inverse-square fit", ws, fit, "dashed"),
                ("kappa0", ws, np.full(ws.shape, k0), "dotted"),
            ],
            title="dissipation rate vs frequency",
            xlabel="frequency (omega_t)",
            ylabel="kappa (omega_t)",
        )


def cmd_figure2(cfg: RunConfig) -> None:
    """Both dissipation-rate prescriptions over a coupling sweep (two files)."""
    grid = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_count)
    lam, k0 = cfg.lambda_mirror, cfg.kappa0_over_wt
    if k0 is None:  # figure2_sweep's default: the tuned empty cavity at omega_t = 1
        bare = MediumParams()
        k0 = kappa_bare(CavityConfig(tuned_length(lam, bare), lam, bare))
    table = figure2_sweep(grid, lam, k0)
    axis = table.column("rabi_over_wt")
    freq_cols = ["omega_L_mbc", "omega_U_mbc", "omega_L_disc", "omega_U_disc"]
    rate_cols = ["kappa_L_mbc", "kappa_U_mbc", "kappa_L_rwa", "kappa_U_rwa"]
    freqs = SweepTable(
        [("rabi_over_wt", axis)] + [(n, table.column(n)) for n in freq_cols]
    )
    rates = SweepTable(
        [("rabi_over_wt", axis)] + [(n, table.column(n)) for n in rate_cols]
    )
    comments = _comments(cfg, "figure2")
    freqs.write_csv(_csv_path(cfg, "fig2_frequencies.csv"), comments)
    rates.write_csv(_csv_path(cfg, "fig2_rates.csv"), comments)
    if cfg.svg:
        write_svg(
            _csv_path(cfg, "fig2_frequencies.svg"),
            [
                ("omega_L (boundary)", axis, table.column("omega_L_mbc"), "solid"),
                ("omega_U (boundary)", axis, table.column("omega_U_mbc"), "solid"),
                ("omega_L (discrete)", axis, table.column("omega_L_disc"), "dashed"),
                ("omega_U (discrete)", axis, table.column("omega_U_disc"), "dashed"),
            ],
            title="polariton frequencies",
            xlabel="rabi / omega_t",
            ylabel="frequency (omega_t)",
        )
        write_svg(
            _csv_path(cfg, "fig2_rates.svg"),
            [
                ("kappa_L (boundary)", axis, table.column("kappa_L_mbc"), "solid"),
                ("kappa_U (boundary)", axis, table.column("kappa_U_mbc"), "solid"),
                ("kappa_L (photon weight)", axis, table.column("kappa_L_rwa"), "dashed"),
                ("kappa_U (photon weight)", axis, table.column("kappa_U_rwa"), "dashed"),
                ("kappa0", [axis[0], axis[-1]], [k0, k0], "dotted"),
            ],
            title="dissipation rates",
            xlabel="rabi / omega_t",
            ylabel="kappa (omega_t)",
        )


def _random_transparent(rng, cfg: RunConfig, count: int) -> np.ndarray:
    """Random frequencies in the sweep window, outside the stop band.

    Uniform over the transparent part of the window, drawn directly from
    its one or two sub-intervals in a single call to rng, however thin
    they are. A window that does not reach the band gets the same draws
    as rng.uniform(start, stop, count).
    """
    med = cfg.medium
    start, stop = cfg.sweep_start, cfg.sweep_stop
    if med.beta4pi == 0.0:
        return rng.uniform(start, stop, size=count)
    margin = _BAND_MARGIN * med.omega_t
    lo, hi = med.stop_band()
    edge_lo, edge_hi = lo - margin, hi + margin
    if edge_lo <= start and stop <= edge_hi:
        raise ConfigError(
            f"greens-check window [{start:g}, {stop:g}] lies inside the stop band "
            f"[{lo:g}, {hi:g}] widened by {margin:g}: nothing to draw"
        )
    below = max(0.0, min(stop, edge_lo) - start)  # width of [start, edge_lo)
    upper = max(start, edge_hi)
    above = max(0.0, stop - upper)  # width of (edge_hi, stop)
    u = rng.uniform(0.0, below + above, size=count)
    # rounding can carry a draw onto a band edge; keep it strictly outside
    low = np.minimum(start + u, np.nextafter(edge_lo, -np.inf))
    high = np.maximum(upper + (u - below), np.nextafter(edge_hi, np.inf))
    return np.where(u < below, low, high)


def _least_resolved(cfg: RunConfig) -> float:
    """The frequency `_random_transparent` can draw with the smallest
    k = max(|n omega|, omega), the one a finite-difference step resolves
    least: the start of one of the window's transparent parts, as k grows
    along each branch."""
    med = cfg.medium
    start, stop = cfg.sweep_start, cfg.sweep_stop
    margin = _BAND_MARGIN * med.omega_t
    lo, hi = med.stop_band()
    if med.beta4pi == 0.0 or stop <= hi + margin:
        return start
    if start >= lo - margin:
        return max(start, hi + margin)
    return min(
        (start, hi + margin),
        key=lambda w: max(abs(refractive_index(w, med) * w), w),
    )


def cmd_greens_check(cfg: RunConfig) -> None:
    """Check the Green's function against its defining properties.

    Writes one row per check (value, tolerance, pass/fail) and raises a
    tolerance error if any check fails, which exits with code 2. A window
    whose least resolved frequency no finite-difference step can check
    within the residual tolerance is refused first, with a configuration
    error.
    """
    cavity = cfg.cavity()
    length = cavity.length
    tol_c, tol_r = cfg.tol_coefficient, cfg.tol_residual
    # the sources sit at 0.37 L and -0.45 L: 0.37 L from the nearest boundary
    clearance = 0.37 * length
    rng = np.random.default_rng(_GREENS_SEED)
    ws = _random_transparent(rng, cfg, max(cfg.sweep_count, 2))
    w_least = _least_resolved(cfg)
    try:
        fd_step(w_least, cavity, clearance, tol_r)
    except StepSizeError as err:
        raise ConfigError(
            f"greens-check cannot check the window at {w_least:g}: {err}"
        ) from err

    # piecewise evaluation consistency: G(z, z') = G(z', z) across regions;
    # draws as (z_in, z_out) pairs, one pair per frequency in turn
    u = rng.uniform([0.1, 0.1], [0.9, 1.9], size=(ws.size, 2))
    z_in, z_out = u[:, 0] * length, -u[:, 1] * length
    swapped = green_function(z_out, z_in, ws, cavity) - green_function(z_in, z_out, ws, cavity)
    dev_s = float(np.max(np.abs(swapped)))

    w_probe = float(ws[0])
    h = fd_step(w_probe, cavity, clearance, tol_r)
    resid_out = ode_residual(-0.45 * length, w_probe, cavity, h)
    resid_in = ode_residual(0.37 * length, w_probe, cavity, h)
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
    rows = [
        (name, value, tol, "pass" if value < tol else "fail")
        for name, value, tol in checks
    ]
    write_csv(
        _csv_path(cfg, "greens_check.csv"),
        ["check", "value", "tolerance", "status"],
        rows,
        _comments(cfg, "greens-check"),
    )
    failed = [name for name, value, tol in checks if not value < tol]
    if failed:
        raise ToleranceError(
            "greens-check failures: " + ", ".join(failed)
        )


# fluct's weights and the field each belongs to, in plot order
_FLUCT_FIELDS = {
    "a_comm": "vector potential",
    "e_comm": "electric field",
    "b_comm": "magnetic field",
    "d_comm": "displacement field",
}


def cmd_fluct(cfg: RunConfig) -> None:
    """Field commutator weights along a vacuum-wavenumber sweep.

    A weight that overflows (1/(2q n) at a subnormal q) is refused with a
    configuration error before any file is written.
    """
    med = cfg.medium
    qs = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_count)
    omega_q = solve_omega_q(qs, med)
    n = refractive_index(omega_q, med.lossless()).real
    with np.errstate(over="ignore"):  # refused below, by name
        weights = vars(FieldCommutators.at_index(qs, n))
    for name, values in weights.items():
        bad = ~np.isfinite(values)
        if np.any(bad):
            raise ConfigError(
                f"the {_FLUCT_FIELDS[name]!r} weight {name} is not finite at "
                f"q = {qs[bad][0]:g}; start the sweep where it is"
            )
    table = SweepTable([("q", qs), ("omega_q", omega_q), ("n", n), *weights.items()])
    table.write_csv(_csv_path(cfg, "fluct.csv"), _comments(cfg, "fluct"))
    if cfg.svg:
        write_svg(
            _csv_path(cfg, "fluct.svg"),
            [(label, qs, weights[name], "solid") for name, label in _FLUCT_FIELDS.items()],
            title="equal-time commutator weights",
            xlabel="vacuum wavenumber q",
            ylabel="commutator weight",
        )


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
    except ConfigError as err:
        print(f"polariton-mbc: config error: {err}", file=sys.stderr)
        return 1

    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        if not os.access(cfg.out_dir, os.W_OK):
            raise OSError(f"output directory {cfg.out_dir!r} is not writable")
    except OSError as err:
        print(f"polariton-mbc: i/o error: {err}", file=sys.stderr)
        return 3

    func = _COMMANDS[args.command][0]
    try:
        func(cfg)
    except ConfigError as err:
        print(f"polariton-mbc: config error: {err}", file=sys.stderr)
        return 1
    except ToleranceError as err:
        print(f"polariton-mbc: tolerance failure: {err}", file=sys.stderr)
        return 2
    except PolaritonError as err:
        print(f"polariton-mbc: numerical failure: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"polariton-mbc: config error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"polariton-mbc: i/o error: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
