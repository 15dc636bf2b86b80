"""End-to-end gate for the package's headline numbers and invariants.

Each test checks one deliverable at its stated tolerance, enforces a
wall-clock budget measured with time.perf_counter, and prints exactly
one [PASS]/[FAIL] line (visible with pytest -s, or on failure).
"""

import math
import time

import numpy as np

from oracles import (
    bosonic_norm,
    dense_modes,
    lorentzian_extract,
    matched_green,
    mode_vector,
    output_amplitude,
)
from polariton_mbc import (
    BogoliubovProblem,
    CavityConfig,
    MediumParams,
    SweepTable,
    amplitudes,
    figure2_sweep,
    find_resonances,
    green_function,
    hopfield_modes,
    in_stop_band,
    kappa_bare,
    kappa_fit,
    mode_commutators,
    ode_residual,
    refractive_index,
    solve_omega_q,
    tuned_length,
)

MEDIA = (
    MediumParams(omega_t=1.0, beta4pi=0.0, gamma=0.0),
    MediumParams(omega_t=1.0, beta4pi=0.36, gamma=0.0),
    MediumParams(omega_t=1.0, beta4pi=4 * math.pi, gamma=1e-3),
    MediumParams(omega_t=1.0, beta4pi=2.0, gamma=2e-2),
)


def report(ok: bool, name: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def tuned_cavity(lam: float, med: MediumParams) -> CavityConfig:
    return CavityConfig(length=tuned_length(lam, med), lambda_mirror=lam, medium=med)


def random_problem(rng) -> BogoliubovProblem:
    return BogoliubovProblem(
        photon_freq=rng.uniform(0.1, 3.0),
        omega_t=rng.uniform(0.5, 2.0),
        rabi=rng.uniform(0.01, 1.5),
    )


def mode_windows(med: MediumParams):
    # first-mode search windows on both sides of the stop band, from the
    # roots of the tuned characteristic quadratic x^2 - (2 + b4) x + 1
    b4 = med.beta4pi
    if b4 == 0.0:
        return [(0.9, 1.1)]
    s = 2.0 + b4
    disc = math.sqrt(s * s - 4.0)
    est_u = math.sqrt(0.5 * (s + disc))
    est_l = 1.0 / est_u
    wl = med.omega_longitudinal
    return [
        (0.5 * est_l, 1.0 - 0.25 * (1.0 - est_l)),
        (wl + min(1e-3, 0.5 * (est_u - wl)), max(4.0, 1.3 * est_u)),
    ]


# the ultrastrong sweep is shared by two tests; build it once and keep
# the wall time of the build so the first consumer can enforce it
_SWEEP = {}


def ultrastrong_table():
    if "tab" not in _SWEEP:
        t0 = time.perf_counter()
        _SWEEP["tab"] = figure2_sweep(np.linspace(0.2, 1.5, 30).tolist(), 50.0)
        _SWEEP["dt"] = time.perf_counter() - t0
    return _SWEEP["tab"], _SWEEP["dt"]


def test_bare_cavity_rate_is_one_percent_of_omega_t():
    med = MediumParams(omega_t=1.0, beta4pi=0.0, gamma=0.0)
    tuned_cavity(7.822, med)  # warm up allocations outside the timed region
    t0 = time.perf_counter()
    k0 = kappa_bare(tuned_cavity(7.822, med))
    dt = time.perf_counter() - t0
    dev = abs(k0 - 1.0e-2) / 1.0e-2
    report(
        dev < 1e-4 and dt < 1e-3,
        "bare-cavity rate",
        f"kappa0={k0:.6e} dev={dev:.2e} ({dt * 1e3:.2f} ms)",
    )


def test_weak_coupling_splitting_and_half_kappa_rates():
    t0 = time.perf_counter()
    tab = figure2_sweep([0.05], 7.822)
    dt = time.perf_counter() - t0
    k0 = kappa_bare(tuned_cavity(7.822, MediumParams(omega_t=1.0, beta4pi=0.0)))
    freq_dev = max(
        abs(tab.array("omega_L_mbc").item(0) - 0.95) / 0.95,
        abs(tab.array("omega_L_disc").item(0) - 0.95) / 0.95,
        abs(tab.array("omega_U_mbc").item(0) - 1.05) / 1.05,
        abs(tab.array("omega_U_disc").item(0) - 1.05) / 1.05,
    )
    rate_dev = max(
        abs(tab.array(name).item(0) - 0.5 * k0) / (0.5 * k0)
        for name in ("kappa_L_mbc", "kappa_U_mbc", "kappa_L_rwa", "kappa_U_rwa")
    )
    report(
        freq_dev < 0.01 and rate_dev < 0.10 and dt < 0.1,
        "weak-coupling limits",
        f"freq dev={freq_dev:.2e} rate dev={rate_dev:.2e} ({dt * 1e3:.1f} ms)",
    )


def test_ultrastrong_rate_trends_diverge_between_routes():
    tab, dt = ultrastrong_table()
    k0 = kappa_bare(tuned_cavity(50.0, MediumParams(omega_t=1.0, beta4pi=0.0)))
    ku_mbc = tab.array("kappa_U_mbc")
    ku_rwa = tab.array("kappa_U_rwa")
    down = bool(np.all(np.diff(ku_mbc) < 0.0))
    up = bool(np.all(np.diff(ku_rwa) > 0.0))
    kl_end = tab.array("kappa_L_mbc").item(-1)
    kl_rwa_end = tab.array("kappa_L_rwa").item(-1)
    end_dev = abs(kl_end - k0) / k0
    rwa_ratio = kl_rwa_end / k0
    report(
        down and up and end_dev < 0.15 and rwa_ratio < 0.4 and dt < 5.0,
        "opposite rate trends",
        f"mbc_U down={down} rwa_U up={up} lower-end dev={end_dev:.3f} "
        f"rwa ratio={rwa_ratio:.3f} ({dt:.2f} s)",
    )


def test_rates_follow_inverse_square_frequency_fit():
    tab, _ = ultrastrong_table()
    k0 = kappa_bare(tuned_cavity(50.0, MediumParams(omega_t=1.0, beta4pi=0.0)))
    worst = 0.0
    for branch in ("L", "U"):
        w = tab.array(f"omega_{branch}_mbc")
        k = tab.array(f"kappa_{branch}_mbc")
        fit = kappa_fit(w, k0)
        worst = max(worst, float(np.max(np.abs(k - fit) / fit)))
    report(worst < 0.02, "inverse-square fit", f"max dev={worst:.3e}")


def test_closed_forms_match_dense_eigensolver_in_bulk():
    rng = np.random.default_rng(71)
    t0 = time.perf_counter()
    worst_f = 0.0
    worst_v = 0.0
    for _ in range(1000):
        prob = random_problem(rng)
        freqs, vecs = dense_modes(prob)
        m = hopfield_modes(prob.photon_freq, prob.omega_t, prob.rabi)
        worst_f = max(
            worst_f,
            abs(m.omega[0, 0] - freqs[0]) / freqs[0],
            abs(m.omega[1, 0] - freqs[1]) / freqs[1],
        )
        worst_v = max(
            worst_v,
            float(np.max(np.abs(mode_vector(m, 0) - vecs[0]))),
            float(np.max(np.abs(mode_vector(m, 1) - vecs[1]))),
        )
    dt = time.perf_counter() - t0
    report(
        worst_f < 1e-10 and worst_v < 1e-9 and dt < 1.0,
        "closed forms vs dense eigensolver",
        f"freq dev={worst_f:.2e} vector dev={worst_v:.2e} over 1000 draws ({dt:.2f} s)",
    )


def test_transmission_linewidths_match_rate_formula():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for b4 in (0.0, math.pi, 4 * math.pi):
        med = MediumParams(omega_t=1.0, beta4pi=b4, gamma=0.0)
        cfg = tuned_cavity(50.0, med)
        for window in mode_windows(med):
            found = find_resonances(cfg, window, max_count=1)
            (omega,), (kappa,) = found.omega.tolist(), found.kappa.tolist()
            ws = np.linspace(omega - 6 * kappa, omega + 6 * kappa, 2001)
            t2 = np.abs(amplitudes(ws, cfg)[0]) ** 2
            _, fwhm = lorentzian_extract(
                SweepTable([("omega", ws.tolist()), ("t2", t2.tolist())])
            )
            worst = max(worst, abs(fwhm - kappa) / kappa)
            count += 1
    dt = time.perf_counter() - t0
    report(
        worst < 0.02 and dt < 2.0,
        "linewidth vs rate formula",
        f"max dev={worst:.3e} over {count} lines ({dt:.2f} s)",
    )


def test_green_function_cross_checks():
    rng = np.random.default_rng(73)
    t0 = time.perf_counter()

    # finite-difference residual of the wave equation away from the kinks
    worst_ode = 0.0
    for med in MEDIA:
        cfg = tuned_cavity(7.822, med)
        h = 1e-4 * cfg.length
        for w, frac in ((0.45, 0.35), (2.3, 0.62), (0.83, -1.7)):
            if med.gamma == 0.0 and in_stop_band(w, med):
                continue
            worst_ode = max(worst_ode, ode_residual(frac * cfg.length, w, cfg, h))

    # source-observer swap symmetry across the membrane, plus agreement
    # with an independently matched boundary-value solve
    worst_rec = 0.0
    worst_bvp = 0.0
    for med in MEDIA:
        cfg = tuned_cavity(7.822, med)
        count = 0
        while count < 50:
            w = float(rng.uniform(0.1, 3.0))
            if med.gamma == 0.0 and in_stop_band(w, med):
                continue
            count += 1
            za = float(rng.uniform(-4.0 * cfg.length, 0.0))
            zb = float(rng.uniform(0.0, cfg.length))
            gab = green_function(za, zb, w, cfg)
            gba = green_function(zb, za, w, cfg)
            worst_rec = max(worst_rec, abs(gab - gba) / max(1.0, abs(gab)))
            if count % 5 == 0:
                zs = np.concatenate(
                    [rng.uniform(-5 * cfg.length, 0.0, 4), rng.uniform(0.0, cfg.length, 4)]
                )
                ref = matched_green(zb, w, cfg)(zs)
                got = green_function(zs, zb, w, cfg)
                scale = float(np.max(np.abs(ref)))
                worst_bvp = max(worst_bvp, float(np.max(np.abs(got - ref))) / scale)

    dt = time.perf_counter() - t0
    report(
        worst_ode < 1e-4
        and worst_rec < 1e-12
        and worst_bvp < 1e-10
        and dt < 10.0,
        "point-source response cross-checks",
        f"ode resid={worst_ode:.1e} "
        f"swap dev={worst_rec:.1e} bvp dev={worst_bvp:.1e} ({dt:.2f} s)",
    )


def test_unitarity_of_reflection_and_input_output():
    rng = np.random.default_rng(79)
    t0 = time.perf_counter()

    worst_r = 0.0
    for med in (MEDIA[0], MEDIA[1]):
        cfg = tuned_cavity(7.822, med)
        wl = med.omega_longitudinal
        lower = rng.uniform(0.05, 0.995 * med.omega_t, 2500)
        upper = rng.uniform(1.01 * wl, 3.5, 2500)
        ws = np.concatenate([lower, upper])
        worst_r = max(worst_r, float(np.max(np.abs(np.abs(amplitudes(ws, cfg)[1]) - 1.0))))

    ws = rng.uniform(0.5, 1.5, 10_000)  # one resonance: omega = 1, kappa = 1e-2
    worst_io = float(np.max(np.abs(np.abs(output_amplitude(ws, [1.0], [1e-2])) - 1.0)))

    dt = time.perf_counter() - t0
    report(
        worst_r < 1e-12 and worst_io < 1e-12 and dt < 1.0,
        "unitarity suites",
        f"|r|-1 max={worst_r:.1e} |a_out|-1 max={worst_io:.1e} "
        f"over 2x10^4 samples ({dt:.2f} s)",
    )


def test_normalization_sum_rules_and_commutator_slopes():
    rng = np.random.default_rng(83)
    t0 = time.perf_counter()

    worst_norm = 0.0
    worst_sum = 0.0
    for _ in range(400):
        prob = random_problem(rng)
        m = hopfield_modes(prob.photon_freq, prob.omega_t, prob.rabi)
        worst_norm = max(worst_norm, abs(bosonic_norm(m, 0) - 1.0), abs(bosonic_norm(m, 1) - 1.0))
        (w_lo, w_hi), (x_lo, x_hi) = m.w[:, 0], m.x[:, 0]
        (y_lo, y_hi), (z_lo, z_hi) = m.y[:, 0], m.z[:, 0]
        w_sum = abs(w_lo) ** 2 - abs(y_lo) ** 2 + abs(w_hi) ** 2 - abs(y_hi) ** 2
        x_sum = abs(x_lo) ** 2 - abs(z_lo) ** 2 + abs(x_hi) ** 2 - abs(z_hi) ** 2
        worst_sum = max(worst_sum, abs(w_sum - 1.0), abs(x_sum - 1.0))

    q = 0.8
    logs = {"a": [], "e": [], "b": [], "d": []}
    logn = []
    for b4 in np.geomspace(0.5, 50.0, 25):
        med = MediumParams(omega_t=1.0, beta4pi=float(b4), gamma=0.0)
        w = solve_omega_q(q, med, "lower")
        logn.append(math.log(refractive_index(w, med).real))
        c = mode_commutators(q, med, "lower")
        for key, val in (("a", c.a_comm), ("e", c.e_comm), ("b", c.b_comm), ("d", c.d_comm)):
            logs[key].append(math.log(val))
    slope_dev = 0.0
    for key, target in (("a", -1.0), ("e", -3.0), ("b", -1.0), ("d", 1.0)):
        slope = float(np.polyfit(logn, logs[key], 1)[0])
        slope_dev = max(slope_dev, abs(slope - target))

    dt = time.perf_counter() - t0
    report(
        worst_norm < 1e-12 and worst_sum < 1e-12 and slope_dev < 0.02 and dt < 2.0,
        "structural invariants",
        f"norm dev={worst_norm:.1e} sum-rule dev={worst_sum:.1e} "
        f"slope dev={slope_dev:.3f} ({dt:.2f} s)",
    )
