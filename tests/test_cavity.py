"""Open cavity: scattering amplitudes, resonance search, rate formulas."""

import math
from unittest import mock

import numpy as np
import pytest

from oracles import (
    exact_mode_root,
    good_cavity_ratio,
    lorentzian_extract,
    lorentzian_prefactor,
    scanned_resonances,
)
from polariton_mbc import cavity
from polariton_mbc import (
    CavityConfig,
    MediumParams,
    ResonanceScanError,
    StopBandError,
    SweepTable,
    amplitudes,
    bulk_dispersion,
    find_resonances,
    group_velocity,
    in_stop_band,
    kappa_bare,
    kappa_mbc,
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
    assert len(found.omega) == 1
    assert found.omega[0] == pytest.approx(1.0, abs=1e-9)
    assert found.mode_index[0] == 1
    assert found.branch[0] == "bare"
    assert found.kappa[0] == pytest.approx(kappa_bare(cfg), rel=1e-9)
    # the tuned bare rate at this mirror comes out at 1e-2
    assert kappa_bare(cfg) == pytest.approx(1e-2, rel=1e-4)


def test_resonance_condition_holds_at_roots():
    # every reported root must satisfy tan(n w L) = n / Lambda
    cfg = make_cavity(beta4pi=2.0)
    wl = cfg.medium.omega_longitudinal
    roots = []
    for window in ((0.3, 0.97), (wl + 0.01, 4.0)):
        found = find_resonances(cfg, window)
        roots += zip(found.omega.tolist(), found.branch.tolist())
    assert len(roots) >= 3
    for omega, branch in roots:
        n = refractive_index(omega, cfg.medium).real
        resid = math.tan(n * omega * cfg.length) - n / cfg.lambda_mirror
        assert abs(resid) < 1e-8, f"condition residual {resid} at {omega}"
        assert branch == ("lower" if omega < 1.0 else "upper")


def test_resonances_ascend_with_consecutive_mode_indices():
    cfg = make_cavity(beta4pi=0.36)
    found = find_resonances(cfg, (0.5, 0.98))
    oms = found.omega.tolist()
    assert oms == sorted(oms)
    assert found.mode_index.tolist() == [1, 2, 3]
    assert oms[0] == pytest.approx(0.750377, abs=2e-6)
    assert oms[1] == pytest.approx(0.946795, abs=2e-6)
    assert oms[2] == pytest.approx(0.978305, abs=2e-6)


def test_window_near_band_edge_resolves_every_mode():
    # lower-branch roots crowd against omega_t, where a 6000-cell scan
    # skips modes; each mode's own bracket resolves all 19, as does a
    # scan 30 times finer
    cfg = make_cavity(beta4pi=0.36)
    found = find_resonances(cfg, (0.5, 0.9995))
    assert found.mode_index.tolist() == list(range(1, 20))
    scanned = scanned_resonances(cfg, (0.5, 0.9995), subintervals=200_000)
    assert scanned.mode_index.tolist() == list(range(1, 20))
    for res, ref in zip(found.omega.tolist(), scanned.omega.tolist()):
        assert abs(res - ref) < 1e-12, (res, ref)


def test_modes_piling_up_at_the_band_edge_match_mpmath():
    # the lower-branch modes crowd against omega_t: mode 47 sits 9e-5
    # below it, mode 2000 5e-8 below; one ulp of omega moves f there by
    # more than 1e-9, so only the sign change can certify the root
    pytest.importorskip("mpmath")
    cfg = make_cavity(beta4pi=0.36, gamma=0.0)
    found = find_resonances(cfg, (0.5, 1.5), max_count=2000)
    assert found.mode_index.tolist() == list(range(1, 2001))
    assert all(branch == "lower" for branch in found.branch.tolist())
    for m in (1, 10, 46, 47, 100, 500, 1000, 1999):
        omega = found.omega[m - 1].item()
        assert abs(omega - exact_mode_root(m, cfg)) <= math.ulp(omega), m


def test_upper_modes_next_to_a_narrow_stop_band_match_mpmath():
    # at 4 pi beta = 1e-6 the first two upper modes sit within 1e-6 of
    # omega_L, where the bracket ends come from the band-edge detunings
    # of the bulk quartic; a sign-change scan misses both, and says so
    pytest.importorskip("mpmath")
    cfg = CavityConfig(10.0, 1.0, MediumParams(omega_t=1.0, beta4pi=1e-6, gamma=0.0))
    found = find_resonances(cfg, (1.0, 2.0))
    assert found.branch[:3].tolist() == ["upper"] * 3
    assert found.mode_index[:3].tolist() == [1, 2, 3]
    assert found.omega[:2].tolist() == [1.0000005687215308, 1.0000009509339587]
    for omega, m in zip(found.omega[:2].tolist(), found.mode_index[:2].tolist()):
        assert omega == float(exact_mode_root(m, cfg, upper=True))
    for cells in (20_000, 80_000):
        with pytest.raises(ResonanceScanError, match="between mode 0 and mode 3"):
            scanned_resonances(cfg, (1.0, 2.0), cells)


def test_mode_indices_past_float_resolution_fail_loudly():
    # past 2^53 consecutive mode indices are no longer distinct floats;
    # the window holds roots, so an empty answer would be wrong
    cfg = CavityConfig(1e300, LAM, MediumParams(gamma=0.0))
    with pytest.raises(ResonanceScanError, match="floating-point resolution"):
        find_resonances(cfg, (0.5, 1.5))


@pytest.mark.parametrize("lam", [1e12, 1e13])
def test_roots_within_rounding_of_their_bracket_bottom_are_certified(lam):
    # n/Lambda < 1e-12 puts each root within rounding of qL = m pi, where
    # n W L / pi can round to just below m at the root
    found = find_resonances(make_cavity(lam=lam), (0.5, 20.0))
    ref = find_resonances(make_cavity(lam=1e11), (0.5, 20.0))
    assert found.mode_index.tolist() == ref.mode_index.tolist() == list(range(1, 21))
    for res, r in zip(found.omega.tolist(), ref.omega.tolist()):
        assert abs(res - r) < 1e-10 * r


@pytest.mark.parametrize("g, ends, root", [
    # g on x* - 4 ... x* + 4 ulps; the bracket ends in ulps from x*; the
    # root's offset from x*, None where the window does not certify it
    ([-5, -4, -3, -2, 1, 2, 3, 4, 5], (-9, 9), 0),  # |g(v)| < |g(u)|: v
    ([-5, -4, -3, -1, 1, 2, 3, 4, 5], (-9, 9), -1),  # a tie: u
    ([-5, -4, -3, -2, -1, -1, -2, -3, -4], (-9, 9), None),  # no change
    ([5, 4, 3, 2, 1, 1, 2, 3, 4], (-9, 9), None),
    ([1, -1, -2, -3, -4, -5, -6, -7, -8], (-9, 9), None),  # one falling change
    ([1, -1, -2, -1, 1, 2, 3, 4, 5], (-9, 9), None),  # two changes
    ([-3, -2, 1, -1, 1, 2, 3, 4, 5], (-9, 9), None),  # three
    ([5, 4, 3, 2, 1, 1, 2, 3, 4], (-2, 9), -1),  # the bottom's known sign, then g > 0
    ([-5, -4, -3, -2, -1, 1, 2, 3, 4], (0, 9), 1),  # x* is the bottom: |g| = inf there
    ([-5, -4, -3, -2, -1, -1, -2, -3, -4], (-9, 2), 1),  # the top's known sign
])
def test_certificate_takes_one_rising_sign_change_and_the_bisected_end(g, ends, root):
    x = np.array([1.5])
    a, b = ((x.view(np.int64) + k).view(float) for k in ends)

    def phase(y, *_):
        return np.array([float(g[int(y.view(np.int64)[0] - x.view(np.int64)[0]) + 4])])

    with mock.patch.object(cavity, "_phase", phase):
        w, certified = cavity._certify(x, a, b, 0.0, 1.0, 1.0, 0.0)
    assert bool(certified[0]) is (root is not None)
    if root is not None:
        assert int(w.view(np.int64)[0] - x.view(np.int64)[0]) == root


@pytest.mark.parametrize("beta4pi", [0.36, 16.0])
def test_cavity_too_short_for_one_root_per_bracket_is_refused(beta4pi):
    # tan(qL) outgrows n/Lambda only where L Lambda omega_t > 1
    med = MediumParams(omega_t=2.0, beta4pi=beta4pi, gamma=0.0)
    with pytest.raises(ValueError, match="lambda_mirror"):
        find_resonances(CavityConfig(0.25, 2.0, med), (0.1, 1.9))
    cfg = CavityConfig(0.2500001, 2.0, med)
    found = find_resonances(cfg, (0.1, 1.9))
    modes = found.mode_index.tolist()
    assert modes and modes == list(range(len(modes)))
    for omega in found.omega.tolist():
        n = refractive_index(omega, med).real
        assert abs(math.tan(n * omega * cfg.length) - n / 2.0) < 1e-9


def test_max_count_truncates():
    cfg = make_cavity(beta4pi=0.36)
    found = find_resonances(cfg, (0.5, 0.98), max_count=2)
    assert found.mode_index.tolist() == [1, 2]


def test_sub_fundamental_mode_exists():
    # below the fundamental there is a low-frequency root with m = 0
    cfg = make_cavity()
    found = find_resonances(cfg, (0.005, 0.5))
    assert len(found.omega) == 1
    assert found.mode_index[0] == 0
    # for the bare cavity it sits where tan(wL) = 1/Lambda
    assert found.omega[0] == pytest.approx(math.atan(1.0 / LAM) / cfg.length, rel=1e-6)


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
    # modes, within 1e-12 omega_t; the windows lie inside one
    # transparent leg
    optimize = pytest.importorskip("scipy.optimize")
    cfg = make_cavity(beta4pi=beta4pi)
    if length is not None:
        cfg = CavityConfig(length=length, lambda_mirror=LAM, medium=cfg.medium)
    found = find_resonances(cfg, window)
    assert len(found.omega) >= 2
    scanned = scanned_resonances(cfg, window, subintervals)
    assert found.mode_index.tolist() == scanned.mode_index.tolist()
    for res, ref in zip(found.omega.tolist(), scanned.omega.tolist()):
        assert abs(res - ref) < 1e-12 * cfg.medium.omega_t, (res, ref)

    def f(w):
        n = refractive_index(w, cfg.medium).real
        return math.tan(n * w * cfg.length) - n / cfg.lambda_mirror

    def to_omega(q):
        if beta4pi == 0.0:
            return q
        return bulk_dispersion(q, cfg.medium)[0 if window[1] < 1.0 else 1]

    for res, m in zip(found.omega.tolist(), found.mode_index.tolist()):
        lo = max(window[0], to_omega(m * math.pi / cfg.length))
        hi = min(window[1], to_omega(((m + 0.5) * math.pi - 1e-6) / cfg.length))
        ref = optimize.brentq(f, lo, hi, xtol=1e-15)
        assert abs(res - ref) < 1e-12 * cfg.medium.omega_t, (res, ref)


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
        assert found.omega.tolist() == [w0], window
        assert found.mode_index.tolist() == [1], window


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
    assert len(found.omega) >= 1
    for omega, branch in zip(found.omega.tolist(), found.branch.tolist()):
        assert omega > wl
        assert not in_stop_band(omega, cfg.medium)
        assert branch == "upper"


def test_straddling_window_returns_every_mode_up_to_the_edge_margins():
    # the lower leg ends 1e-9 omega_t below omega_t, where about 14,000
    # modes have piled up; every one of them comes back, then the upper
    # modes from 1e-9 omega_t above omega_longitudinal
    cfg = make_cavity(beta4pi=0.36)
    wl = cfg.medium.omega_longitudinal
    found = find_resonances(cfg, (0.5, wl + 0.8))
    branch = found.branch.tolist()
    lower = branch.count("lower")
    assert branch == ["lower"] * lower + ["upper"] * (len(branch) - lower)
    assert found.mode_index[:lower].tolist() == list(range(1, lower + 1))
    edge = 1.0 - 1e-9
    n = refractive_index(edge, cfg.medium).real
    assert lower in (math.floor(n * edge * cfg.length / math.pi) - 1,
                     math.floor(n * edge * cfg.length / math.pi))
    assert lower > 10_000 and found.omega[lower - 1] < edge
    omegas = found.omega.tolist()
    assert omegas == sorted(omegas) and len(set(omegas)) == len(omegas)
    for column, alone in zip(found, find_resonances(cfg, (1.2, wl + 0.8))):
        assert column[lower:].tolist() == alone.tolist()
    assert found.omega[lower] > wl + 1e-9


@pytest.mark.parametrize("lam, top_mode", [(1e15, 20), (1e16, 19)])
def test_near_ideal_mirrors_return_every_mode_in_the_window(lam, top_mode):
    # n/Lambda is below the rounding of tan(m pi), so f's computed sign at
    # a bracket bottom is noise; the phase's is known. At 1e16 the tuned
    # L rounds below pi and mode 20's exact root lies above 20. The phase
    # rounds n W L and m pi to a few ulps of m pi, up to 2 ulps of W here
    pytest.importorskip("mpmath")
    cfg = make_cavity(lam=lam, gamma=0.0)
    found = find_resonances(cfg, (0.5, 20.0))
    assert found.mode_index.tolist() == list(range(1, top_mode + 1))
    for omega, m in zip(found.omega.tolist(), found.mode_index.tolist()):
        exact = exact_mode_root(m, cfg)
        assert abs(omega - exact) <= 2.0 * math.ulp(omega), (omega, m)
    assert (exact_mode_root(20, cfg) > 20.0) is (top_mode == 19)


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
            assert abs(abs(amplitudes(w, cfg)[1]) - 1.0) < 1e-12, f"|r| != 1 at {w}"


def test_absorption_pulls_reflection_below_one():
    cfg = make_cavity(beta4pi=1.0, gamma=1e-3)
    # near the matter resonance a lossy medium eats part of the field
    assert abs(amplitudes(0.98, cfg)[1]) < 1.0 - 1e-4


def test_reflection_transfer_consistency():
    rng = np.random.default_rng(43)
    cfg = make_cavity(beta4pi=0.7, gamma=1e-4)
    for w in rng.uniform(0.05, 3.5, 200):
        n = refractive_index(w, cfg.medium)
        kl = n * w * cfg.length
        t, r = amplitudes(w, cfg)
        assert r == pytest.approx(t * np.sin(kl) - 1.0, rel=1e-12)


@pytest.mark.parametrize("beta4pi", [0.36, 4.0, 16.0])
def test_array_amplitudes_equal_the_scalar_loop_to_the_bit(beta4pi):
    # with a complex index, numpy rounds complex products of scalars and
    # of arrays differently; a frequency's T and r must not depend on it
    rng = np.random.default_rng(int(10 * beta4pi) + 57)
    cfg = make_cavity(beta4pi=beta4pi, gamma=1e-9)
    ws = rng.uniform(0.05, 3.5, 4000)
    ws = ws[~in_stop_band(ws, cfg.medium)]
    one_by_one = np.array([amplitudes(float(w), cfg) for w in ws]).T
    for name, array, loop in zip("Tr", amplitudes(ws, cfg), one_by_one):
        assert array.tobytes() == loop.tobytes(), name
    assert all(type(a) is complex for a in amplitudes(float(ws[0]), cfg))


@pytest.mark.parametrize("beta4pi", [0.36, 4.0, 16.0])
def test_amplitudes_stay_finite_deep_in_the_stop_band(beta4pi):
    # next to omega_t at gamma = 1e-9, |n| reaches 1e4 and Im(kL) passes
    # the exp() range; T decays there instead of overflowing
    cfg = make_cavity(beta4pi=beta4pi, gamma=1e-9)
    ws = np.linspace(0.9, 1.1, 50_001)
    t, r = amplitudes(ws, cfg)
    assert np.all(np.isfinite(t)) and np.all(np.isfinite(r))
    assert np.all(np.abs(r) <= 1.0 + 1e-12)


def test_scattering_accepts_arrays():
    cfg = make_cavity(beta4pi=0.5)
    ws = np.linspace(0.1, 0.9, 64)
    t_arr, r_arr = amplitudes(ws, cfg)
    assert t_arr.shape == ws.shape and r_arr.shape == ws.shape
    for i in (0, 17, 63):
        t, r = amplitudes(float(ws[i]), cfg)
        assert t_arr[i] == pytest.approx(t)
        assert r_arr[i] == pytest.approx(r)


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


def test_nonpositive_omega_is_refused_by_name():
    # both public callers of the check get a message that names omega
    cfg = make_cavity(beta4pi=0.36)
    for omega in (-1.0, 0.0, np.array([0.5, 0.0])):
        with pytest.raises(ValueError, match=r"^omega must be positive$"):
            group_velocity(omega, cfg.medium)
        with pytest.raises(ValueError, match=r"^omega must be positive$"):
            kappa_mbc(omega, cfg)


def test_rate_matches_linewidth_of_transfer_peak():
    # the dissipation rate of a resonance should be the FWHM of the
    # |T|^2 line it produces; the rate formula is the leading
    # good-cavity result, so check it where the cavity is good
    cfg = make_cavity(beta4pi=0.36, lam=50.0)
    found = find_resonances(cfg, (0.5, 0.9))
    omega, kappa = found.omega[0].item(), found.kappa[0].item()
    ws = np.linspace(omega - 6 * kappa, omega + 6 * kappa, 1601)
    t2 = np.abs(amplitudes(ws, cfg)[0]) ** 2
    center, fwhm = lorentzian_extract(SweepTable([("omega", ws.tolist()), ("t2", t2.tolist())]))
    assert center == pytest.approx(omega, abs=0.05 * kappa)
    assert fwhm == pytest.approx(kappa, rel=2e-3)


def test_lorentzian_prefactor_gives_peak_height():
    cfg = make_cavity(beta4pi=0.36, lam=50.0)
    found = find_resonances(cfg, (0.5, 0.9))
    omega, kappa = found.omega[0].item(), found.kappa[0].item()
    pref = lorentzian_prefactor(omega, cfg)
    peak = abs(amplitudes(omega, cfg)[0]) ** 2
    assert peak == pytest.approx(4.0 * pref**2 / kappa, rel=5e-3)


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
    with pytest.raises(ValueError, match="peak touches the grid boundary"):
        lorentzian_extract(SweepTable([("omega", ws.tolist()), ("v", vals.tolist())]))
    # peak inside but the half level never crossed on the right
    vals = 1.0 / (1.0 + ((ws - 0.9) / 0.4) ** 2)
    with pytest.raises(ValueError, match="half-maximum crossing not bracketed"):
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
    with pytest.raises(ValueError, match="finite"):
        CavityConfig(length=math.inf, lambda_mirror=LAM, medium=med)
    CavityConfig(length=1.0, lambda_mirror=math.inf, medium=med)  # a perfect mirror
    with pytest.raises(ValueError):
        CavityConfig(length=1.0, lambda_mirror=0.0, medium=med)
    with pytest.raises(ValueError, match="square overflows"):
        CavityConfig(length=1.0, lambda_mirror=1.4e154, medium=med)
    CavityConfig(length=1.0, lambda_mirror=1.3e154, medium=med)
    # 2 / (lambda**2 L) overflows, or lambda**2 L underflows to 0
    for lam, length in [(1e-160, 1.0), (1e-160, 1e-160), (1e-100, 1e-109)]:
        with pytest.raises(ValueError, match="bare rate"):
            CavityConfig(length=length, lambda_mirror=lam, medium=med)
    CavityConfig(length=1e-100, lambda_mirror=1e-100, medium=med)
