"""Output checks, run after the workload process has ended.

Each command's files are read back and compared with references that do
not go through the package's formulas: a Lorentz index written here,
closed forms for rates and commutator weights, and the independent
oracles of tests/oracles.py (dense 4x4 eigensolve, matched boundary-value
solve) on a seeded sample of rows. A check returns a list of problems,
each a (kind, message) pair; an empty list means the invocation passed.
Kinds in KNOWN_DEFECTS still count as failed invocations, but they are
recorded defects of the program, so they do not make a run incorrect.
"""

from __future__ import annotations

import math
import os
import sys
import xml.etree.ElementTree as ET

import numpy as np

from worker import OUTPUTS

RESIDUAL_TOL = 1e-9  # |tan(n W L) - n/Lambda| at a reported root
REL_TOL = 1e-9  # closed-form columns against the formulas below
ORACLE_TOL = 1e-9  # sampled rows against tests/oracles.py
SAMPLE_ROWS = 200

LOG_MAX = math.log(sys.float_info.max)

KNOWN_DEFECTS = {
    "stop_band_overflow": (
        "spectrum writes a non-finite row where complex sin(kL) overflows "
        "deep in the stop band (omega at omega_t with gamma > 0) and still exits 0"
    ),
}
STRING_COLUMNS = {"branch", "check", "status"}
SVG_NS = "{http://www.w3.org/2000/svg}"


def lorentz_index(omega, omega_t, beta4pi, gamma=0.0):
    """n = sqrt(1 + 4 pi beta wt^2 / (wt^2 - (w + i gamma)^2)) with Im n >= 0."""
    z = np.asarray(omega, dtype=complex) + 1j * gamma
    wt2 = omega_t * omega_t
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = np.where(beta4pi == 0.0, 1.0, 1.0 + beta4pi * wt2 / (wt2 - z * z))
    n = np.sqrt(eps.astype(complex))
    return np.where(n.imag < 0.0, -n, n)


def group_velocity(omega, omega_t, beta4pi):
    u = (np.asarray(omega, dtype=float) / omega_t) ** 2
    n = lorentz_index(omega, omega_t, beta4pi).real
    d2 = (u - 1.0) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(beta4pi == 0.0, 1.0, n * d2 / (d2 + beta4pi))


class Table:
    """One CSV as written by the CLI: resolved config, header, rows of strings."""

    def __init__(self, path):
        self.path = path
        self.config: dict[str, str] = {}
        self.rows: list[list[str]] = []
        self.names: list[str] = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if line.startswith("# "):
                    key, sep, value = line[2:].partition(" = ")
                    if sep:
                        self.config[key] = value
                elif not self.names:
                    self.names = line.split(",")
                else:
                    self.rows.append(line.split(","))

    def __len__(self):
        return len(self.rows)

    def col(self, name):
        i = self.names.index(name)
        return np.array([float(row[i]) for row in self.rows])

    def text(self, name):
        i = self.names.index(name)
        return [row[i] for row in self.rows]

    def num(self, key):
        return float(self.config[key])

    def medium(self):
        return (
            self.num("medium.omega_t"),
            self.num("medium.beta4pi"),
            self.num("medium.gamma"),
        )

    def length(self):
        if self.config["cavity.length"] == "auto":
            lam = self.num("cavity.lambda_mirror")
            return (math.pi + math.atan(1.0 / lam)) / self.num("medium.omega_t")
        return self.num("cavity.length")

    def nonfinite_rows(self):
        numeric = [n for n in self.names if n not in STRING_COLUMNS]
        if not numeric or not self.rows:
            return np.zeros(0, dtype=int)
        values = np.column_stack([self.col(n) for n in numeric])
        return np.flatnonzero(~np.isfinite(values).all(axis=1))


def _close(problems, label, got, want, rtol, atol=0.0):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = np.abs(got - want)
    bad = ~(err <= atol + rtol * np.abs(want))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        problems.append((
            "mismatch",
            f"{label}: {int(bad.sum())} rows off, first at row {i} "
            f"(got {got.flat[i]!r}, want {want.flat[i]!r})",
        ))


def _sample(rng, count, exclude=()):
    rows = np.setdiff1d(np.arange(count), np.asarray(exclude, dtype=int))
    if len(rows) <= SAMPLE_ROWS:
        return rows
    return np.sort(rng.choice(rows, size=SAMPLE_ROWS, replace=False))


def _finite(problems, table):
    bad = table.nonfinite_rows()
    if len(bad):
        problems.append((
            "nonfinite",
            f"{os.path.basename(table.path)}: {len(bad)} rows with non-finite "
            f"cells, first at row {int(bad[0])}",
        ))
    return bad


def _resonance_residual(problems, label, omega, n, length, lam):
    phase = n * omega * length
    resid = np.abs(np.tan(phase) - n / lam)
    bad = ~(resid < RESIDUAL_TOL)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        problems.append((
            "residual",
            f"{label}: {int(bad.sum())} roots with |tan(nWL) - n/Lambda| >= "
            f"{RESIDUAL_TOL:g}, first at row {i} ({resid[i]:.3g})",
        ))
    return np.floor(phase / math.pi).astype(int)


def check_dispersion(out_dir, rng):
    table = Table(os.path.join(out_dir, "dispersion.csv"))
    problems = []
    _finite(problems, table)
    wt, b4, _ = table.medium()
    k = table.col("k")
    for tag in ("L", "U"):
        w = table.col(f"omega_{tag}")
        if b4 == 0.0:
            # no oscillator: the branches are the light line and omega_t
            pick = np.minimum if tag == "L" else np.maximum
            _close(problems, f"omega_{tag}", w, pick(k, wt), REL_TOL)
            continue
        n = lorentz_index(w, wt, b4).real
        _close(problems, f"n_{tag} * omega_{tag} = k", n * w, k, REL_TOL)
        _close(problems, f"n_{tag}", table.col(f"n_{tag}"), n, REL_TOL)
        _close(problems, f"vg_{tag}", table.col(f"vg_{tag}"), group_velocity(w, wt, b4), REL_TOL)
    return problems


def check_hopfield(out_dir, rng):
    from oracles import dense_modes
    from polariton_mbc import BogoliubovProblem

    table = Table(os.path.join(out_dir, "hopfield.csv"))
    problems = []
    bad = _finite(problems, table)
    wt = table.num("medium.omega_t")
    rabi = table.col("rabi_over_wt")
    cols = {n: table.col(n) for n in table.names}
    for i in _sample(rng, len(table), bad):
        freqs, vecs = dense_modes(BogoliubovProblem(wt, wt, rabi[i] * wt))
        for j, tag in enumerate(("L", "U")):
            _close(problems, f"omega_{tag} row {i}", cols[f"omega_{tag}"][i] * wt,
                   freqs[j], ORACLE_TOL)
            weights = np.abs(vecs[j]) ** 2
            for part, w in zip("wxyz", weights):
                _close(problems, f"{part}2_{tag} row {i}", cols[f"{part}2_{tag}"][i],
                       w, 0.0, ORACLE_TOL)
    return problems


def check_figure2(out_dir, rng):
    from oracles import dense_modes
    from polariton_mbc import BogoliubovProblem

    freqs = Table(os.path.join(out_dir, "fig2_frequencies.csv"))
    rates = Table(os.path.join(out_dir, "fig2_rates.csv"))
    problems = []
    bad = np.union1d(_finite(problems, freqs), _finite(problems, rates))
    rabi = freqs.col("rabi_over_wt")
    _close(problems, "rate table axis", rates.col("rabi_over_wt"), rabi, 0.0)
    lam = freqs.num("cavity.lambda_mirror")
    # figure2_sweep works at omega_t = 1 with the cavity tuned to it
    length = math.pi + math.atan(1.0 / lam)
    k0 = freqs.config["figure2.kappa0_over_wt"]
    k0 = 2.0 / (lam * lam * length) if k0 == "auto" else float(k0)
    b4 = 4.0 * rabi * rabi
    for tag in ("L", "U"):
        w = freqs.col(f"omega_{tag}_mbc")
        n = lorentz_index(w, 1.0, b4).real
        m = _resonance_residual(problems, f"omega_{tag}_mbc", w, n, length, lam)
        if np.any(m != 1):
            problems.append(("mode_index", f"omega_{tag}_mbc: mode index not 1 in "
                             f"{int(np.sum(m != 1))} rows"))
        kappa = 2.0 * n * group_velocity(w, 1.0, b4) / (lam * lam * length)
        _close(problems, f"kappa_{tag}_mbc", rates.col(f"kappa_{tag}_mbc"), kappa, REL_TOL)
    disc = {tag: freqs.col(f"omega_{tag}_disc") for tag in ("L", "U")}
    rwa = {tag: rates.col(f"kappa_{tag}_rwa") for tag in ("L", "U")}
    for i in _sample(rng, len(freqs), bad):
        modes, vecs = dense_modes(BogoliubovProblem(photon_freq=1.0, rabi=rabi[i]))
        for j, tag in enumerate(("L", "U")):
            _close(problems, f"omega_{tag}_disc row {i}", disc[tag][i], modes[j], ORACLE_TOL)
            _close(problems, f"kappa_{tag}_rwa row {i}", rwa[tag][i],
                   abs(vecs[j][0]) ** 2 * k0, ORACLE_TOL)
    return problems


def check_resonances(out_dir, rng):
    table = Table(os.path.join(out_dir, "resonances.csv"))
    problems = []
    _finite(problems, table)
    if not len(table):
        return problems + [("empty", "resonances.csv has no roots")]
    wt, b4, _ = table.medium()
    lam, length = table.num("cavity.lambda_mirror"), table.length()
    w = table.col("omega")
    n = lorentz_index(w, wt, b4).real
    m = _resonance_residual(problems, "omega", w, n, length, lam)
    mode = table.col("mode_index").astype(int)
    if np.any(m != mode):
        problems.append(("mode_index", f"{int(np.sum(m != mode))} mode indices "
                         "disagree with floor(nWL/pi)"))
    if np.any(np.diff(w) <= 0.0):
        problems.append(("order", "roots are not ascending"))
    branch = np.array(table.text("branch"))
    want = np.where(b4 == 0.0, "bare", np.where(w < wt, "lower", "upper"))
    if np.any(branch != want):
        problems.append(("branch", f"{int(np.sum(branch != want))} branch labels wrong"))
    for leg in np.unique(want):
        steps = np.diff(mode[want == leg])
        if np.any(steps != 1):
            problems.append(("mode_index", f"{leg} branch: mode indices not consecutive"))
    kappa = 2.0 * n * group_velocity(w, wt, b4) / (lam * lam * length)
    _close(problems, "kappa", table.col("kappa"), kappa, REL_TOL)
    return problems


def check_spectrum(out_dir, rng):
    from oracles import matched_green
    from polariton_mbc import CavityConfig, MediumParams

    table = Table(os.path.join(out_dir, "spectrum.csv"))
    problems = []
    wt, b4, gamma = table.medium()
    lam, length = table.num("cavity.lambda_mirror"), table.length()
    w = table.col("omega")
    bad = table.nonfinite_rows()
    if len(bad):
        n = lorentz_index(w[bad], wt, b4, gamma)
        # the terms of T's denominator (1 - i Lambda) sin kL + i n cos kL are
        # at most (1 + Lambda + 2|n|) e^|Im kL| / 2: past the float range
        # the row can only come out non-finite
        log_bound = np.abs((n * w[bad] * length).imag) + np.log((1 + lam + 2 * np.abs(n)) / 2)
        overflow = log_bound > LOG_MAX
        if overflow.any():
            rows = ", ".join(repr(float(x)) for x in w[bad][overflow][:3])
            problems.append(("stop_band_overflow", f"{int(overflow.sum())} non-finite "
                             f"rows where sin(kL) terms overflow, omega = {rows}"))
        if not overflow.all():
            problems.append(("nonfinite", f"{int((~overflow).sum())} other non-finite rows"))
    t2, re_r, im_r = table.col("t2"), table.col("re_r"), table.col("im_r")
    keep = np.ones(len(table), dtype=bool)
    keep[bad] = False
    _close(problems, "abs_r", table.col("abs_r")[keep], np.hypot(re_r, im_r)[keep], REL_TOL)
    cfg = CavityConfig(length, lam, MediumParams(wt, b4, gamma))
    for i in _sample(rng, len(table), bad):
        q = complex(w[i])
        k = complex(lorentz_index(w[i], wt, b4, gamma)) * q
        green = matched_green(0.0, w[i], cfg)
        # source at the membrane: G = e^{-iqz}(1 + r)/(-2iq) outside and
        # T sin(k(L - z))/(-2iq) inside
        z_out = -0.5 * length
        r = complex(green(z_out)) * (-2j * q) * np.exp(1j * q * z_out) - 1.0
        z_in = max((length / 3.0, length / 2.0), key=lambda z: abs(np.sin(k * (length - z))))
        t = complex(green(z_in)) * (-2j * q) / np.sin(k * (length - z_in))
        _close(problems, f"t2 row {i}", t2[i], abs(t) ** 2, ORACLE_TOL, 1e-300)
        _close(problems, f"r row {i}", abs(complex(re_r[i], im_r[i]) - r), 0.0, 0.0, ORACLE_TOL)
    return problems


def check_kappa_sweep(out_dir, rng):
    table = Table(os.path.join(out_dir, "kappa_sweep.csv"))
    problems = []
    _finite(problems, table)
    wt, b4, _ = table.medium()
    lam, length = table.num("cavity.lambda_mirror"), table.length()
    w = table.col("omega")
    k0 = 2.0 / (lam * lam * length)
    n = lorentz_index(w, wt, b4).real
    _close(problems, "kappa_mbc", table.col("kappa_mbc"),
           2.0 * n * group_velocity(w, wt, b4) / (lam * lam * length), REL_TOL)
    _close(problems, "kappa0", table.col("kappa0"), np.full(w.shape, k0), REL_TOL)
    _close(problems, "kappa_fit", table.col("kappa_fit"), k0 / (1.0 + (w / wt) ** 2), REL_TOL)
    return problems


def check_greens(out_dir, rng):
    table = Table(os.path.join(out_dir, "greens_check.csv"))
    problems = []
    _finite(problems, table)
    if not len(table):
        return problems + [("empty", "greens_check.csv has no checks")]
    for name, value, tol, status in zip(
        table.text("check"), table.col("value"), table.col("tolerance"), table.text("status")
    ):
        if status != "pass" or not value < tol:
            problems.append(("self_check", f"{name}: {value!r} against {tol!r} ({status})"))
    return problems


def check_fluct(out_dir, rng):
    table = Table(os.path.join(out_dir, "fluct.csv"))
    problems = []
    _finite(problems, table)
    wt, b4, _ = table.medium()
    q, w, n_col = table.col("q"), table.col("omega_q"), table.col("n")
    n = lorentz_index(w, wt, b4).real
    _close(problems, "n", n_col, n, REL_TOL)
    _close(problems, "n(omega_q) * omega_q = q", n * w, q, REL_TOL)
    _close(problems, "a_comm", table.col("a_comm"), 1.0 / (2.0 * q * n_col), REL_TOL)
    _close(problems, "e_comm", table.col("e_comm"), 0.5 * q / n_col**3, REL_TOL)
    _close(problems, "b_comm", table.col("b_comm"), 0.5 * q / n_col, REL_TOL)
    _close(problems, "d_comm", table.col("d_comm"), 0.5 * q * n_col, REL_TOL)
    return problems


CHECKS = {
    "dispersion": check_dispersion,
    "hopfield": check_hopfield,
    "resonances": check_resonances,
    "spectrum": check_spectrum,
    "kappa-sweep": check_kappa_sweep,
    "figure2": check_figure2,
    "greens-check": check_greens,
    "fluct": check_fluct,
}


def check_svg(path, csv_rows, csv_kinds):
    """Well-formed plot with one point per CSV row on every full-length curve."""
    name = os.path.basename(path)
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as err:
        return [("svg", f"{name}: not well-formed XML ({err})")]
    lines = root.findall(f"{SVG_NS}polyline")
    if not lines:
        return [("svg", f"{name}: no curves")]
    problems = []
    nonfinite = 0
    for line in lines:
        pts = line.get("points", "").split()
        if len(pts) not in (2, csv_rows):  # two-point curves are reference levels
            problems.append(("svg", f"{name}: curve with {len(pts)} points for {csv_rows} rows"))
        coords = np.array([float(v) for p in pts for v in p.split(",")])
        nonfinite += int((~np.isfinite(coords.reshape(-1, 2))).any(axis=1).sum())
    if nonfinite:
        # non-finite CSV cells reach the plot; they share the CSV's cause
        kind = "stop_band_overflow" if csv_kinds == {"stop_band_overflow"} else "nonfinite"
        problems.append((kind, f"{name}: {nonfinite} non-finite points"))
    return problems


def check_invocation(command, out_dir, svg, rng):
    """Problems in the files one invocation of `command` wrote into out_dir."""
    csvs, svgs = OUTPUTS[command]
    expected = csvs + (svgs if svg else [])
    missing = [n for n in expected if not os.path.isfile(os.path.join(out_dir, n))]
    if missing:
        return [("missing", f"{command}: no {', '.join(missing)}")]
    try:
        problems = CHECKS[command](out_dir, rng)
    except (ValueError, KeyError, IndexError) as err:
        return [("unreadable", f"{command}: {type(err).__name__}: {err}")]
    if svg:
        kinds = {kind for kind, _ in problems if kind in ("nonfinite", "stop_band_overflow")}
        for name in svgs:
            rows = len(Table(os.path.join(out_dir, name[:-4] + ".csv")))
            problems += check_svg(os.path.join(out_dir, name), rows, kinds)
    return problems
