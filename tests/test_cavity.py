"""Open cavity: scattering amplitudes, resonance search, rate formulas."""

import math

import numpy as np
import pytest

from oracles import good_cavity_ratio, lorentzian_prefactor, scanned_resonances
from polariton_mbc import (
    Branch,
    CavityConfig,
    MediumParams,
    PeakExtractionError,
    ResonanceScanError,
    StopBandError,
    SweepTable,
    bulk_dispersion,
    find_resonances,
    group_velocity,
    in_stop_band,
    intracavity_transfer,
    kappa_bare,
    kappa_mbc,
    lorentzian_extract,
    reflection,
    refractive_index,
    tuned_length,
)

LAM = 7.822


def make_cavity(beta4pi=0.0, gamma=0.0, lam=LAM, omega_t=1.0):
    med = MediumParams(omega_t=omega_t, beta4pi=beta4pi, gamma=gamma)
    return CavityConfig(length=tuned_length(lam, med), lambda_mirror=lam, medium=med)


def test_tuned_length_value():
    cfg = make_cavity()
    assert cfg.length == pytest.approx(math.pi + math.atan(1.0 / LAM), rel=1e-15)
    # a better mirror needs less tuning offset
    assert tuned_length(1e6, cfg.medium) == pytest.approx(math.pi, rel=1e-6)


def test_empty_cavity_fundamental():
    cfg = make_cavity()
    found = find_resonances(cfg, (0.5, 1.5))
    assert len(found) == 1
    res = found[0]
    assert res.omega == pytest.approx(1.0, abs=1e-9)
    assert res.mode_index == 1
    assert res.branch is Branch.BARE
    assert res.kappa == pytest.approx(kappa_bare(cfg), rel=1e-9)
    # the tuned bare rate at this mirror comes out at 1e-2
    assert kappa_bare(cfg) == pytest.approx(1e-2, rel=1e-4)


def test_resonance_condition_holds_at_roots():
    # every reported root must satisfy tan(n w L) = n / Lambda
    cfg = make_cavity(beta4pi=2.0)
    wl = cfg.medium.omega_longitudinal
    roots = []
    roots += find_resonances(cfg, (0.3, 0.97))
    roots += find_resonances(cfg, (wl + 0.01, 4.0))
    assert len(roots) >= 3
    for res in roots:
        n = refractive_index(res.omega, cfg.medium).real
        resid = math.tan(n * res.omega * cfg.length) - n / cfg.lambda_mirror
        assert abs(resid) < 1e-8, f"condition residual {resid} at {res.omega}"
        assert res.branch is (Branch.LOWER if res.omega < 1.0 else Branch.UPPER)


def test_resonances_ascend_with_consecutive_mode_indices():
    cfg = make_cavity(beta4pi=0.36)
    found = find_resonances(cfg, (0.5, 0.98))
    oms = [r.omega for r in found]
    assert oms == sorted(oms)
    assert [r.mode_index for r in found] == [1, 2, 3]
    assert oms[0] == pytest.approx(0.750377, abs=2e-6)
    assert oms[1] == pytest.approx(0.946795, abs=2e-6)
    assert oms[2] == pytest.approx(0.978305, abs=2e-6)


def test_window_near_band_edge_resolves_every_mode():
    # lower-branch roots crowd against omega_t, where a 6000-cell scan
    # skips modes; each mode's own bracket resolves all 19, as does a
    # scan 30 times finer
    cfg = make_cavity(beta4pi=0.36)
    found = find_resonances(cfg, (0.5, 0.9995))
    assert [r.mode_index for r in found] == list(range(1, 20))
    scanned = scanned_resonances(cfg, (0.5, 0.9995), subintervals=200_000)
    assert [r.mode_index for r in scanned] == list(range(1, 20))
    for res, ref in zip(found, scanned):
        assert abs(res.omega - ref.omega) < 1e-12, (res, ref)


def test_uncertifiable_mode_fails_loudly_and_names_the_mode():
    # mode 47 sits 9e-5 below omega_t, where tan(n W L) = n/Lambda cannot
    # be met to 1e-9 in floating point; the modes below it are not
    # returned without it
    cfg = make_cavity(beta4pi=0.36)
    with pytest.raises(ResonanceScanError, match="mode 47 has no root"):
        find_resonances(cfg, (0.5, 0.99999))
    assert len(find_resonances(cfg, (0.5, 0.99999), max_count=46)) == 46


def test_mode_indices_past_float_resolution_fail_loudly():
    # past 2^53 consecutive mode indices are no longer distinct floats;
    # the window holds roots, so an empty answer would be wrong
    cfg = CavityConfig(1e300, LAM, MediumParams(gamma=0.0))
    with pytest.raises(ResonanceScanError, match="floating-point resolution"):
        find_resonances(cfg, (0.5, 1.5))


@pytest.mark.parametrize("beta4pi", [0.36, 16.0])
def test_cavity_too_short_for_one_root_per_bracket_is_refused(beta4pi):
    # tan(qL) outgrows n/Lambda only where L Lambda omega_t > 1
    med = MediumParams(omega_t=2.0, beta4pi=beta4pi, gamma=0.0)
    with pytest.raises(ValueError, match="lambda_mirror"):
        find_resonances(CavityConfig(0.25, 2.0, med), (0.1, 1.9))
    cfg = CavityConfig(0.2500001, 2.0, med)
    found = find_resonances(cfg, (0.1, 1.9))
    assert found and [r.mode_index for r in found] == list(range(len(found)))
    for res in found:
        n = refractive_index(res.omega, med).real
        assert abs(math.tan(n * res.omega * cfg.length) - n / 2.0) < 1e-9


def test_max_count_truncates():
    cfg = make_cavity(beta4pi=0.36)
    found = find_resonances(cfg, (0.5, 0.98), max_count=2)
    assert [r.mode_index for r in found] == [1, 2]


def test_sub_fundamental_mode_exists():
    # below the fundamental there is a low-frequency root with m = 0
    cfg = make_cavity()
    found = find_resonances(cfg, (0.005, 0.5))
    assert len(found) == 1
    res = found[0]
    assert res.mode_index == 0
    # for the bare cavity it sits where tan(wL) = 1/Lambda
    assert res.omega == pytest.approx(math.atan(1.0 / LAM) / cfg.length, rel=1e-6)


@pytest.mark.parametrize(
    "beta4pi, length, window, subintervals",
    [
        (0.0, None, (0.005, 5.0), 5000),
        (0.36, None, (0.5, 0.98), 3000),
        (0.36, None, (1.2, 4.0), 3000),
        (2.0, None, (0.3, 0.97), 3000),
        (2.0, None, (1.8, 4.0), 3000),
        (0.0, 200.0, (0.5, 2.0), 20000),
        (0.36, 200.0, (1.2, 3.0), 20000),
        (2.0, 200.0, (0.2, 0.8), 20000),
        (0.36, 200.0, (1.2, 20.0), 100000),  # 1,240 roots
    ],
)
def test_batched_polish_matches_brentq_on_each_cell(beta4pi, length, window, subintervals):
    # every root must be the one an independent solver finds in its own
    # mode bracket, n W L in (m pi, (m + 1/2) pi) clipped to the window,
    # and the scan oracle with `subintervals` cells must find the same
    # modes, within the 1e-12 omega_t stopping width; the windows lie
    # inside one transparent leg
    optimize = pytest.importorskip("scipy.optimize")
    cfg = make_cavity(beta4pi=beta4pi)
    if length is not None:
        cfg = CavityConfig(length=length, lambda_mirror=LAM, medium=cfg.medium)
    found = find_resonances(cfg, window)
    assert len(found) >= 2
    scanned = scanned_resonances(cfg, window, subintervals)
    assert [r.mode_index for r in found] == [r.mode_index for r in scanned]
    for res, ref in zip(found, scanned):
        assert abs(res.omega - ref.omega) < 1e-12 * cfg.medium.omega_t, (res, ref)

    def f(w):
        n = refractive_index(w, cfg.medium).real
        return math.tan(n * w * cfg.length) - n / cfg.lambda_mirror

    def to_omega(q):
        if beta4pi == 0.0:
            return q
        return bulk_dispersion(q, cfg.medium)[0 if window[1] < 1.0 else 1]

    for res in found:
        m = res.mode_index
        lo = max(window[0], to_omega(m * math.pi / cfg.length))
        hi = min(window[1], to_omega(((m + 0.5) * math.pi - 1e-6) / cfg.length))
        ref = optimize.brentq(f, lo, hi, xtol=1e-15)
        assert abs(res.omega - ref) < 1e-12 * cfg.medium.omega_t, (res, ref)


def test_exact_grid_hit_is_reported_once():
    # choose Lambda so that f = tan(w L) - 1/Lambda is exactly 0 at a
    # window end; the root must come back as itself, once, whether it is
    # the first or the last point of the window
    w0 = 0.9613
    length = tuned_length(LAM, MediumParams())
    cfg = CavityConfig(length=length, lambda_mirror=1.0 / math.tan(w0 * length),
                       medium=MediumParams(gamma=0.0))
    assert math.tan(w0 * length) - 1.0 / cfg.lambda_mirror == 0.0
    for window in ((w0, w0 + 0.3), (w0 - 0.3, w0)):
        found = find_resonances(cfg, window)
        assert [(r.omega, r.mode_index) for r in found] == [(w0, 1)], window


def test_window_validation_and_stop_band():
    cfg = make_cavity(beta4pi=1.0)
    with pytest.raises(ValueError):
        find_resonances(cfg, (1.5, 0.5))
    # a window entirely inside the stop band cannot hold resonances
    with pytest.raises(StopBandError):
        find_resonances(cfg, (1.01, 1.40))


def test_window_reaching_into_band_is_clipped_to_transparency():
    cfg = make_cavity(beta4pi=0.36)
    wl = cfg.medium.omega_longitudinal
    # a window that starts inside the band only searches above it
    found = find_resonances(cfg, (1.01, wl + 0.9))
    assert len(found) >= 1
    for res in found:
        assert res.omega > wl
        assert not in_stop_band(res.omega, cfg.medium)
        assert res.branch is Branch.UPPER


def test_straddling_window_fails_loudly_at_the_edge():
    # clipping a straddling window puts the lower leg right against
    # omega_t where the roots accumulate faster than floating point
    # resolves them, and silently dropping modes would be worse than
    # refusing
    cfg = make_cavity(beta4pi=0.36)
    wl = cfg.medium.omega_longitudinal
    with pytest.raises(ResonanceScanError):
        find_resonances(cfg, (0.5, wl + 0.8))


def test_reflection_is_unimodular_without_absorption():
    rng = np.random.default_rng(41)
    for b4 in (0.0, 0.36, 2.0, 4 * math.pi):
        cfg = make_cavity(beta4pi=b4)
        count = 0
        while count < 200:
            w = rng.uniform(0.05, 4.0)
            if in_stop_band(w, cfg.medium):
                continue
            count += 1
            assert abs(abs(reflection(w, cfg)) - 1.0) < 1e-12, f"|r| != 1 at {w}"


def test_absorption_pulls_reflection_below_one():
    cfg = make_cavity(beta4pi=1.0, gamma=1e-3)
    # near the matter resonance a lossy medium eats part of the field
    assert abs(reflection(0.98, cfg)) < 1.0 - 1e-4


def test_reflection_transfer_consistency():
    rng = np.random.default_rng(43)
    cfg = make_cavity(beta4pi=0.7, gamma=1e-4)
    for w in rng.uniform(0.05, 3.5, 200):
        n = refractive_index(w, cfg.medium)
        kl = n * w * cfg.length
        expect = intracavity_transfer(w, cfg) * np.sin(kl) - 1.0
        assert reflection(w, cfg) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("beta4pi", [0.36, 4.0, 16.0])
def test_array_amplitudes_equal_the_scalar_loop_to_the_bit(beta4pi):
    # with a complex index, numpy rounds complex products of scalars and
    # of arrays differently; a frequency's T and r must not depend on it
    rng = np.random.default_rng(int(10 * beta4pi) + 57)
    cfg = make_cavity(beta4pi=beta4pi, gamma=1e-9)
    ws = rng.uniform(0.05, 3.5, 4000)
    ws = ws[~in_stop_band(ws, cfg.medium)]
    for amplitude in (intracavity_transfer, reflection):
        one_by_one = np.array([amplitude(float(w), cfg) for w in ws])
        assert amplitude(ws, cfg).tobytes() == one_by_one.tobytes(), amplitude
        assert type(amplitude(float(ws[0]), cfg)) is complex


@pytest.mark.parametrize("beta4pi", [0.36, 4.0, 16.0])
def test_amplitudes_stay_finite_deep_in_the_stop_band(beta4pi):
    # next to omega_t at gamma = 1e-9, |n| reaches 1e4 and Im(kL) passes
    # the exp() range; T decays there instead of overflowing
    cfg = make_cavity(beta4pi=beta4pi, gamma=1e-9)
    ws = np.linspace(0.9, 1.1, 50_001)
    t, r = intracavity_transfer(ws, cfg), reflection(ws, cfg)
    assert np.all(np.isfinite(t)) and np.all(np.isfinite(r))
    assert np.all(np.abs(r) <= 1.0 + 1e-12)


def test_scattering_accepts_arrays():
    cfg = make_cavity(beta4pi=0.5)
    ws = np.linspace(0.1, 0.9, 64)
    t_arr = intracavity_transfer(ws, cfg)
    r_arr = reflection(ws, cfg)
    assert t_arr.shape == ws.shape and r_arr.shape == ws.shape
    for i in (0, 17, 63):
        assert t_arr[i] == pytest.approx(intracavity_transfer(float(ws[i]), cfg))
        assert r_arr[i] == pytest.approx(reflection(float(ws[i]), cfg))


def test_kappa_mbc_collapses_to_bare_rate_in_vacuum():
    cfg = make_cavity()
    k0 = 2.0 / (LAM**2 * cfg.length)
    assert kappa_bare(cfg) == pytest.approx(k0, rel=1e-15)
    rng = np.random.default_rng(45)
    for w in rng.uniform(0.1, 3.0, 50):
        assert kappa_mbc(float(w), cfg) == pytest.approx(k0, rel=1e-12)


def test_kappa_mbc_formula():
    cfg = make_cavity(beta4pi=1.3)
    for w in (0.4, 0.8, 2.2, 3.0):
        n = refractive_index(w, cfg.medium).real
        vg = group_velocity(w, cfg.medium)
        expect = 2.0 * n * vg / (LAM**2 * cfg.length)
        assert kappa_mbc(w, cfg) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(StopBandError):
        kappa_mbc(1.2, cfg)


def test_rate_matches_linewidth_of_transfer_peak():
    # the dissipation rate of a resonance should be the FWHM of the
    # |T|^2 line it produces; the rate formula is the leading
    # good-cavity result, so check it where the cavity is good
    cfg = make_cavity(beta4pi=0.36, lam=50.0)
    res = find_resonances(cfg, (0.5, 0.9))[0]
    ws = np.linspace(res.omega - 6 * res.kappa, res.omega + 6 * res.kappa, 1601)
    t2 = np.abs(intracavity_transfer(ws, cfg)) ** 2
    center, fwhm = lorentzian_extract(SweepTable([("omega", ws.tolist()), ("t2", t2.tolist())]))
    assert center == pytest.approx(res.omega, abs=0.05 * res.kappa)
    assert fwhm == pytest.approx(res.kappa, rel=2e-3)


def test_lorentzian_prefactor_gives_peak_height():
    cfg = make_cavity(beta4pi=0.36, lam=50.0)
    res = find_resonances(cfg, (0.5, 0.9))[0]
    pref = lorentzian_prefactor(res.omega, cfg)
    peak = abs(intracavity_transfer(res.omega, cfg)) ** 2
    assert peak == pytest.approx(4.0 * pref**2 / res.kappa, rel=5e-3)


def test_lorentzian_extract_on_synthetic_line():
    center, width, amp = 1.37, 3.2e-3, 5.0
    ws = np.linspace(center - 8 * width, center + 8 * width, 3001)
    vals = amp / (1.0 + ((ws - center) / (0.5 * width)) ** 2)
    got_center, got_fwhm = lorentzian_extract(
        SweepTable([("omega", ws.tolist()), ("value", vals.tolist())])
    )
    assert got_center == pytest.approx(center, rel=1e-9)
    # linear interpolation of the half crossings carries an O(h^2) bias
    assert got_fwhm == pytest.approx(width, rel=1e-4)


def test_lorentzian_extract_rejects_unbracketed_peaks():
    ws = np.linspace(0.0, 1.0, 101)
    # monotone data: the maximum sits on the boundary
    vals = np.exp(ws)
    with pytest.raises(PeakExtractionError):
        lorentzian_extract(SweepTable([("omega", ws.tolist()), ("v", vals.tolist())]))
    # peak inside but the half level never crossed on the right
    vals = 1.0 / (1.0 + ((ws - 0.9) / 0.4) ** 2)
    with pytest.raises(PeakExtractionError):
        lorentzian_extract(SweepTable([("omega", ws.tolist()), ("v", vals.tolist())]))


def test_good_cavity_ratio():
    cfg = make_cavity(beta4pi=3.0)
    w = 0.5
    n = abs(refractive_index(w, cfg.medium))
    assert good_cavity_ratio(cfg, w) == pytest.approx(LAM / n, rel=1e-15)


def test_cavity_config_validation():
    med = MediumParams()
    with pytest.raises(ValueError):
        CavityConfig(length=0.0, lambda_mirror=LAM, medium=med)
    with pytest.raises(ValueError):
        CavityConfig(length=1.0, lambda_mirror=0.0, medium=med)
    with pytest.raises(ValueError, match="square overflows"):
        CavityConfig(length=1.0, lambda_mirror=1.4e154, medium=med)
    CavityConfig(length=1.0, lambda_mirror=1.3e154, medium=med)
