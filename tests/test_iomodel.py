"""One-pole oracle against the exact r, rate rescalings, coupling sweep."""

import math

import numpy as np
import pytest

from oracles import (
    exact_mode_root,
    output_amplitude,
    polariton_response,
    scanned_fundamentals,
)
from polariton_mbc import (
    BogoliubovProblem,
    CavityConfig,
    MediumParams,
    amplitudes,
    figure2_sweep,
    find_resonances,
    hopfield_modes,
    kappa_bare,
    kappa_fit,
    kappa_rwa,
    tuned_length,
    weight,
)
from polariton_mbc.cli import main

W0, K0 = 1.0, 1e-2  # one resonance's omega and kappa


def test_response_peak_and_width():
    # |p|^2 is a Lorentzian: peak 4/kappa on resonance, half max at +/- kappa/2
    peak = abs(polariton_response(W0, W0, K0)) ** 2
    assert peak == pytest.approx(4.0 / K0, rel=1e-12)
    half = abs(polariton_response(W0 + 0.5 * K0, W0, K0)) ** 2
    assert half == pytest.approx(0.5 * peak, rel=1e-12)
    half = abs(polariton_response(W0 - 0.5 * K0, W0, K0)) ** 2
    assert half == pytest.approx(0.5 * peak, rel=1e-12)


def test_response_integral_is_two_pi():
    # the line area is fixed by the decay rate alone
    ws = np.linspace(W0 - 400 * K0, W0 + 400 * K0, 400001)
    y = np.abs(polariton_response(ws, W0, K0)) ** 2
    area = float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(ws)))
    # the clipped tails carry about 2 kappa / (400 kappa) of the area
    assert area == pytest.approx(2.0 * math.pi, rel=2e-3)


def test_response_validates_kappa():
    with pytest.raises(ValueError):
        polariton_response(1.0, 1.0, 0.0)


def test_output_is_pure_phase_for_a_single_mode():
    rng = np.random.default_rng(61)
    ws = W0 + K0 * rng.uniform(-2000.0, 2000.0, 10000)
    out = output_amplitude(ws, [W0], [K0])
    assert np.max(np.abs(np.abs(out) - 1.0)) < 1e-12


def test_output_limits_and_winding():
    # +1 on resonance, -1 far away, and a full 2 pi of phase across the line
    assert output_amplitude(W0, [W0], [K0]) == pytest.approx(1.0 + 0j, abs=1e-12)
    assert output_amplitude(W0 + 1e6 * K0, [W0], [K0]) == pytest.approx(-1.0 + 0j, abs=1e-3)
    ws = np.linspace(W0 - 500 * K0, W0 + 500 * K0, 20001)
    phases = np.unwrap(np.angle(output_amplitude(ws, [W0], [K0])))
    total = abs(phases[-1] - phases[0])
    assert total == pytest.approx(2.0 * math.pi, abs=0.02)


def test_two_distant_modes_superpose():
    # a second mode at omega = 2 with the same kappa
    out = output_amplitude(np.array([1.0, 2.0]), [W0, 2.0], [K0, 1e-2])
    # on either resonance the other mode contributes at order kappa/separation
    assert abs(out[0] - 1.0) < 0.05
    assert abs(out[1] - 1.0) < 0.05


# (4 pi beta, Lambda, L or None for the tuned length, window), all at gamma = 0
ONE_POLE_CASES = [
    (0.0, 200.0, None, (0.5, 2.5)),
    (0.36, 200.0, 20.0, (0.3, 0.9)),
    (0.36, 200.0, 20.0, (1.3, 2.0)),
    (4.0, 1e3, 5.0, (0.2, 0.9)),
    (0.36, 1e4, 20.0, (1.3, 2.0)),
]


def one_pole_miss(cfg, omega, kappa, width):
    """Largest drift of r / (one-pole output of the given width) from its
    value at the root omega, over omega +/- 5 kappa."""
    ws = omega + kappa * np.linspace(-5.0, 5.0, 201)
    ratio = amplitudes(ws, cfg)[1] / output_amplitude(ws, [omega], [width])
    return float(np.max(np.abs(ratio - ratio[100])))


@pytest.mark.parametrize("beta4pi, lam, length, window", ONE_POLE_CASES)
def test_exact_reflection_has_the_one_pole_line_of_kappa_mbc(beta4pi, lam, length, window):
    # the input-output relation: across +/- 5 kappa of a good-cavity root
    # the exact r is the unimodular one-pole output of width kappa_mbc
    # times a constant phase, up to O(1/Lambda); a rate 2% off misses
    med = MediumParams(beta4pi=beta4pi, gamma=0.0)
    cfg = CavityConfig(length or tuned_length(lam, med), lam, med)
    roots = find_resonances(cfg, window)
    assert len(roots.omega) >= 2
    for res in zip(roots.omega.tolist(), roots.kappa.tolist()):
        omega, kappa = res
        assert one_pole_miss(cfg, omega, kappa, kappa) <= 2.5 / lam, res
        assert one_pole_miss(cfg, omega, kappa, 1.02 * kappa) > 1.5e-2, res


def test_kappa_rwa_is_photon_weight_rescaling():
    prob = BogoliubovProblem(photon_freq=1.0, omega_t=1.0, rabi=0.8)
    m = hopfield_modes(prob.photon_freq, prob.omega_t, prob.rabi)
    k0 = 1e-2
    rwa = kappa_rwa(m, k0)
    assert rwa[0, 0] == pytest.approx(weight(m.w[0, 0]) * k0, rel=1e-15)
    assert rwa[1, 0] == pytest.approx(weight(m.w[1, 0]) * k0, rel=1e-15)
    with pytest.raises(ValueError):
        kappa_rwa(m, 0.0)


def test_kappa_fit_formula():
    assert kappa_fit(1.0, 1e-2) == pytest.approx(5e-3, rel=1e-15)
    assert kappa_fit(0.0, 1e-2) == pytest.approx(1e-2, rel=1e-15)
    ws = np.array([0.5, 1.0, 2.0])
    got = kappa_fit(ws, 2e-2, omega_t=2.0)
    expect = 2e-2 / (1.0 + (ws / 2.0) ** 2)
    assert np.max(np.abs(got - expect)) < 1e-17


def test_sweep_weak_coupling_splits_symmetrically():
    tab = figure2_sweep([0.05], 7.822)
    row = {name: tab.array(name).item(0) for name in tab.names}
    assert row["rabi_over_wt"] == 0.05
    # both routes put the lines close to omega_t -/+ rabi
    assert row["omega_L_mbc"] == pytest.approx(0.95, rel=1e-2)
    assert row["omega_U_mbc"] == pytest.approx(1.05, rel=1e-2)
    assert row["omega_L_disc"] == pytest.approx(0.95, rel=2e-3)
    assert row["omega_U_disc"] == pytest.approx(1.05, rel=2e-3)
    # all four rates sit near the even split kappa0/2
    med = MediumParams()
    cav = CavityConfig(length=tuned_length(7.822, med), lambda_mirror=7.822, medium=med)
    k0 = kappa_bare(cav)
    for key in ("kappa_L_mbc", "kappa_U_mbc", "kappa_L_rwa", "kappa_U_rwa"):
        assert row[key] == pytest.approx(0.5 * k0, rel=0.1), key


def test_sweep_column_layout():
    tab = figure2_sweep([0.3, 0.7], 7.822)
    assert tab.names == [
        "rabi_over_wt",
        "omega_L_mbc",
        "omega_U_mbc",
        "omega_L_disc",
        "omega_U_disc",
        "kappa_L_mbc",
        "kappa_U_mbc",
        "kappa_L_rwa",
        "kappa_U_rwa",
    ]
    assert len(tab) == 2


def test_sweep_routes_agree_on_the_upper_line_into_ultrastrong():
    # boundary-condition and single-mode frequencies track each other
    # within a few percent up to rabi ~ omega_t
    tab = figure2_sweep(np.linspace(0.1, 1.0, 10), 7.822)
    mbc = tab.array("omega_U_mbc")
    disc = tab.array("omega_U_disc")
    assert np.max(np.abs(mbc - disc) / disc) < 0.05
    lower_mbc = tab.array("omega_L_mbc")
    lower_disc = tab.array("omega_L_disc")
    assert np.max(np.abs(lower_mbc - lower_disc) / lower_disc) < 0.05


def test_sweep_rates_split_between_models_at_strong_coupling():
    # the two dissipation-rate prescriptions diverge from each other as
    # the coupling grows: that disagreement is the point of the table
    tab = figure2_sweep(np.linspace(0.2, 1.5, 8), 7.822)
    up_mbc = tab.array("kappa_U_mbc")
    up_rwa = tab.array("kappa_U_rwa")
    assert np.all(np.diff(up_mbc) < 0.0)
    assert np.all(np.diff(up_rwa) > 0.0)
    assert up_rwa[-1] > 10.0 * up_mbc[-1]


def test_sweep_explicit_kappa0_scales_rwa_rates():
    base = figure2_sweep([0.5], 7.822)
    doubled = figure2_sweep([0.5], 7.822, kappa0=2.0 * kappa_bare(
        CavityConfig(
            length=tuned_length(7.822, MediumParams()),
            lambda_mirror=7.822,
            medium=MediumParams(),
        )
    ))
    for key in ("kappa_L_rwa", "kappa_U_rwa"):
        assert doubled.array(key).item(0) == pytest.approx(
            2.0 * base.array(key).item(0), rel=1e-12
        )
    # boundary-condition rates do not depend on the bare-rate input
    for key in ("kappa_L_mbc", "kappa_U_mbc"):
        assert doubled.array(key).item(0) == pytest.approx(base.array(key).item(0), rel=1e-12)


def test_sweep_validation():
    with pytest.raises(ValueError):
        figure2_sweep([], 7.822)
    with pytest.raises(ValueError):
        figure2_sweep([0.5, 0.4], 7.822)
    with pytest.raises(ValueError):
        figure2_sweep([0.0, 0.5], 7.822)
    with pytest.raises(ValueError):
        figure2_sweep([0.5], 3.0)
    with pytest.raises(ValueError, match="finite"):
        figure2_sweep([0.5], math.inf)


@pytest.mark.parametrize("lam", [5.0, 7.822, 50.0, 1e3])
def test_sweep_matches_per_coupling_scans(lam):
    # analytic brackets and one batched bisection against scanned_fundamentals'
    # own sign-change scan per coupling and branch; below rabi = 3e-7 the
    # lower bracket's top rounds onto omega_t
    grid = np.concatenate([[1e-8, 1e-7, 3e-7, 1e-6, 1e-5], np.linspace(0.01, 2.0, 25)])
    tab = figure2_sweep(grid, lam)
    for i, rabi in enumerate(grid):
        scanned = scanned_fundamentals(float(rabi), lam)
        for j, tag in enumerate("LU"):
            omega = tab.array(f"omega_{tag}_mbc").item(i)
            kappa = tab.array(f"kappa_{tag}_mbc").item(i)
            assert omega == pytest.approx(scanned.omega[j], rel=1e-11), (rabi, tag)
            # kappa goes through (W^2 - 1)^2 against 4 rabi^2, so below
            # rabi = 0.01 the rounding of W^2 - 1 next to omega_t, not the
            # root, costs it digits: a relative error of eps W/rabi
            if rabi >= 0.01:
                assert kappa == pytest.approx(scanned.kappa[j], rel=1e-10), (rabi, tag)


def test_sweep_and_hopfield_refuse_the_same_couplings(tmp_path, capsys):
    # the m = 1 roots exist at every coupling, so figure2 refuses exactly
    # the couplings whose two-mode closed forms leave the float range
    rng = np.random.default_rng(19)
    codes = []
    for rabi in (10.0 ** rng.uniform(-320.0, 100.0, 40)).tolist():
        sweep = ["--set", f"sweep.start={rabi!r}", "--set", f"sweep.stop={2.0 * rabi!r}",
                 "--set", "sweep.count=3"]
        pair = [main([command, "--out", str(tmp_path), *sweep])
                for command in ("figure2", "hopfield")]
        assert pair[0] == pair[1], (rabi, capsys.readouterr().err)
        codes.append(pair[0])
    assert set(codes) == {0, 1}
    # at rabi = 1e8 and Lambda = 5 the lower root sits 3e-8 below the pole
    # of tan(qL), where f's sign is lost; the phase has no pole
    tab = figure2_sweep([0.5, 1e8], 5.0)
    assert all(np.isfinite(tab.array(name)).all() for name in tab.names)


@pytest.mark.parametrize("lam", [5.0, 7.822, 1e3])
def test_sweep_roots_match_mpmath_from_weak_to_deep_strong_coupling(lam):
    # log-uniform couplings over 16 decades: the phase is rounded to a few
    # ulps of qL, which puts W within 2 ulps on both branches
    pytest.importorskip("mpmath")
    grid = np.sort(10.0 ** np.random.default_rng(23).uniform(-12.0, 4.0, 12))
    tab = figure2_sweep(grid, lam)
    bare = MediumParams(gamma=0.0)
    for i, rabi in enumerate(grid.tolist()):
        cfg = CavityConfig(tuned_length(lam, bare), lam,
                           MediumParams(beta4pi=4.0 * rabi * rabi, gamma=0.0))
        for tag, upper in (("L", False), ("U", True)):
            omega = tab.array(f"omega_{tag}_mbc").item(i)
            exact = exact_mode_root(1, cfg, upper)
            assert abs(omega - exact) <= 2.0 * math.ulp(omega), (rabi, tag)
