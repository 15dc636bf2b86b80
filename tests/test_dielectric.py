"""Medium response: dielectric function, index, group velocity, bulk branches."""

import math
import re

import numpy as np
import pytest

from oracles import exact_branches, medium_rabi, ulps_from
from polariton_mbc import (
    MediumParams,
    StopBandError,
    bulk_dispersion,
    epsilon,
    group_velocity,
    in_stop_band,
    refractive_index,
)
from polariton_mbc.dielectric import _branches, _bulk_branches


def test_epsilon_known_values():
    med = MediumParams(omega_t=1.0, beta4pi=4.0, gamma=0.0)
    # static value 1 + 4pi*beta, and a hand-evaluated point
    assert epsilon(0.0, med) == pytest.approx(5.0, rel=1e-15)
    assert epsilon(0.5, med) == pytest.approx(1.0 + 4.0 / 0.75, rel=1e-15)
    # far above the resonance the medium looks like vacuum
    assert abs(epsilon(1e4, med) - 1.0) < 1e-6


def test_epsilon_vacuum_is_exactly_one_everywhere():
    med = MediumParams(omega_t=1.0, beta4pi=0.0, gamma=0.0)
    ws = np.linspace(0.0, 3.0, 301)  # grid includes omega_t itself
    eps = epsilon(ws, med)
    assert np.all(eps == 1.0)


def test_epsilon_pole_sentinel_without_damping():
    med = MediumParams(omega_t=1.0, beta4pi=1.0, gamma=0.0)
    assert not np.isfinite(epsilon(1.0, med))
    # any damping regularizes the pole
    damped = MediumParams(omega_t=1.0, beta4pi=1.0, gamma=1e-6)
    assert np.isfinite(epsilon(1.0, damped))


def test_epsilon_damping_sign_gives_absorption():
    med = MediumParams(omega_t=1.0, beta4pi=2.0, gamma=1e-3)
    rng = np.random.default_rng(3)
    for w in rng.uniform(0.05, 3.0, 200):
        assert epsilon(w, med).imag > 0.0, f"Im eps < 0 at omega={w}"


def test_refractive_index_squares_back_to_epsilon():
    rng = np.random.default_rng(5)
    for _ in range(200):
        med = MediumParams(
            omega_t=rng.uniform(0.5, 2.0),
            beta4pi=rng.uniform(0.0, 20.0),
            gamma=rng.uniform(0.0, 0.1),
        )
        w = rng.uniform(0.01, 4.0)
        n = refractive_index(w, med)
        assert n.imag >= 0.0
        assert n * n == pytest.approx(epsilon(w, med), rel=1e-12)


def test_index_purely_imaginary_in_stop_band():
    med = MediumParams(omega_t=1.0, beta4pi=3.0, gamma=0.0)
    lo, hi = med.stop_band()
    ws = np.linspace(lo + 1e-6, hi - 1e-6, 50)
    n = refractive_index(ws, med)
    assert np.all(n.real == 0.0)
    assert np.all(n.imag > 0.0)


def test_wavenumber_is_index_times_frequency():
    # the medium wavenumber k = n(omega) omega squares to eps omega**2 on
    # the causal branch, Im k >= 0
    med = MediumParams(omega_t=1.0, beta4pi=1.5, gamma=1e-4)
    rng = np.random.default_rng(7)
    for w in rng.uniform(0.05, 3.0, 100):
        k = refractive_index(w, med) * w
        assert k * k == pytest.approx(epsilon(w, med) * w * w, rel=1e-14)
        assert k.imag >= 0.0


def test_stop_band_edges_and_vacuum():
    med = MediumParams(omega_t=1.0, beta4pi=3.0, gamma=0.0)
    assert med.omega_longitudinal == pytest.approx(2.0, rel=1e-15)
    # the band is closed: both edges count as inside
    assert in_stop_band(1.0, med)
    assert in_stop_band(2.0, med)
    assert not in_stop_band(1.0 - 1e-9, med)
    assert not in_stop_band(2.0 + 1e-9, med)
    vac = MediumParams(omega_t=1.0, beta4pi=0.0, gamma=0.0)
    assert not in_stop_band(1.0, vac)


def test_group_velocity_matches_numeric_derivative():
    # vg should equal 1 / d(n*omega)/domega computed by central difference
    rng = np.random.default_rng(9)
    h = 1e-6
    for _ in range(150):
        med = MediumParams(omega_t=1.0, beta4pi=rng.uniform(0.1, 15.0), gamma=0.0)
        lo, hi = med.stop_band()
        if rng.random() < 0.5:
            w = rng.uniform(0.05, lo - 0.01)
        else:
            w = rng.uniform(hi + 0.01, 5.0)
        k_up, k_down = (refractive_index(v, med) * v for v in (w + h, w - h))
        dk = (k_up.real - k_down.real) / (2 * h)
        vg = group_velocity(w, med)
        assert vg == pytest.approx(1.0 / dk, rel=1e-6), f"vg mismatch at omega={w}"
        assert 0.0 < vg <= 1.0


def test_group_velocity_scalar_and_array_agree_to_the_bit():
    rng = np.random.default_rng(17)
    for b4 in (0.36, 2.0, 16.0):
        med = MediumParams(omega_t=1.0, beta4pi=b4, gamma=0.0)
        lo, hi = med.stop_band()
        ws = np.concatenate([
            rng.uniform(0.05, lo - 1e-6, 1000),  # lower branch
            rng.uniform(hi + 1e-6, 6.0, 1000),  # upper branch
            [0.9218566239752919],
        ])
        array = group_velocity(ws, med)
        scalar = np.array([group_velocity(float(w), med) for w in ws])
        assert array.tobytes() == scalar.tobytes(), f"4 pi beta = {b4}"


@pytest.mark.parametrize("gamma", [0.0, 1e-9, 1e-3])
def test_epsilon_and_index_scalar_and_array_agree_to_the_bit(gamma):
    # with damping, eps squares the complex omega + i gamma; numpy rounds
    # that product differently for scalars and inside array loops
    rng = np.random.default_rng(19)
    ws = rng.uniform(0.05, 4.0, 4000)
    for b4 in (0.0, 0.36, 2.0, 16.0):
        med = MediumParams(omega_t=1.0, beta4pi=b4, gamma=gamma)
        for func in (epsilon, refractive_index):
            array = func(ws, med)
            scalar = np.array([func(float(w), med) for w in ws])
            assert array.tobytes() == scalar.tobytes(), (func.__name__, b4)
            assert type(func(float(ws[0]), med)) is complex


def test_group_velocity_limits():
    med = MediumParams(omega_t=1.0, beta4pi=4.0, gamma=0.0)
    # low-frequency limit is the static index slope, 1/sqrt(1+4pi*beta)
    assert group_velocity(1e-8, med) == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-6)
    # far above the resonance the medium is transparent vacuum
    assert group_velocity(1e6, med) == pytest.approx(1.0, rel=1e-6)
    vac = MediumParams(omega_t=1.0, beta4pi=0.0, gamma=0.0)
    ws = np.linspace(0.01, 3.0, 100)  # includes the would-be resonance
    assert np.all(group_velocity(ws, vac) == 1.0)


def test_group_velocity_rejects_stop_band_and_bad_input():
    med = MediumParams(omega_t=1.0, beta4pi=2.0, gamma=0.0)
    with pytest.raises(StopBandError):
        group_velocity(1.0, med)
    with pytest.raises(StopBandError):
        group_velocity(0.5 * (1.0 + med.omega_longitudinal), med)
    with pytest.raises(ValueError):
        group_velocity(0.0, med)
    with pytest.raises(ValueError):
        group_velocity(-1.0, med)


def test_bulk_dispersion_vacuum_degenerates_to_light_and_flat_lines():
    vac = MediumParams(omega_t=1.0, beta4pi=0.0, gamma=0.0)
    ks = np.linspace(0.01, 3.0, 50)
    for k in ks:
        lo, hi = bulk_dispersion(float(k), vac)
        assert lo == pytest.approx(min(k, 1.0), abs=1e-12)
        assert hi == pytest.approx(max(k, 1.0), abs=1e-12)


def test_bulk_dispersion_roots_satisfy_transverse_condition():
    # each branch frequency must satisfy omega^2 eps(omega) = k^2
    rng = np.random.default_rng(13)
    for _ in range(300):
        med = MediumParams(omega_t=rng.uniform(0.5, 2.0), beta4pi=rng.uniform(0.01, 20.0), gamma=0.0)
        k = rng.uniform(0.01, 6.0)
        lo, hi = bulk_dispersion(k, med)
        for w in (lo, hi):
            resid = abs(w * w * epsilon(w, med).real - k * k)
            assert resid < 1e-10 * max(1.0, k * k), f"residual {resid} at k={k}"
        assert lo < med.omega_t, "lower branch must stay below the resonance"
        assert hi > med.omega_longitudinal, "upper branch must start above the band"


def test_bulk_dispersion_branches_bracket_stop_band():
    med = MediumParams(omega_t=1.0, beta4pi=5.0, gamma=0.0)
    ks = np.linspace(1e-3, 10.0, 400)
    los, his = zip(*(bulk_dispersion(float(k), med) for k in ks))
    los, his = np.array(los), np.array(his)
    assert np.all(los < 1.0)
    assert np.all(his > med.omega_longitudinal)
    # lower branch grows with k and saturates at omega_t, upper tends to light line
    assert np.all(np.diff(los) > 0.0)
    assert np.all(np.diff(his) > 0.0)
    assert his[-1] == pytest.approx(ks[-1], rel=0.05)


def test_bulk_dispersion_validates_wavenumber():
    med = MediumParams(omega_t=1.0, beta4pi=1.0, gamma=0.0)
    with pytest.raises(ValueError):
        bulk_dispersion(-0.1, med)


@pytest.mark.parametrize("beta4pi", [0.0, 0.36])
def test_bulk_dispersion_refuses_wavenumbers_that_overflow(beta4pi):
    # (k/omega_t)^2 overflows from k ~ 1.34e154: refused by name, without
    # a RuntimeWarning on the way; below that the roots are finite, where
    # the quartic's (k^2 + omega_L^2)^2 used to overflow from k ~ 1.2e77.
    # In vacuum nothing overflows: W = (min(k, omega_t), max(k, omega_t))
    med = MediumParams(omega_t=1.0, beta4pi=beta4pi, gamma=0.0)
    lo, hi = bulk_dispersion(np.array([1.0, 1e76, 1e78, 1e154]), med)
    assert np.all(np.isfinite(hi)) and np.all(lo > 0.0)
    assert hi[3] == 1e154 and lo[3] == 1.0
    if beta4pi == 0.0:
        assert bulk_dispersion(1e155, med) == (1.0, 1e155)
        assert bulk_dispersion(1e308, med) == (1.0, 1e308)
        return
    for ks, first in [([1.0, 1e78, 1e155], "1e+155"), ([1e155], "1e+155"), (1e200, "1e+200")]:
        with pytest.raises(ValueError, match=re.escape(f"k = {first} is too large")):
            bulk_dispersion(ks, med)


@pytest.mark.parametrize("omega_t", [1e78, 1e154, 1e308])
def test_bulk_dispersion_at_a_huge_omega_t_matches_mpmath(omega_t):
    # omega_longitudinal**4 used to overflow the quartic and refuse every k;
    # the detunings never form it. The upper branch overflows, and is
    # refused, only once omega_t sqrt(1 + 4 pi beta) leaves the float range
    pytest.importorskip("mpmath")
    med = MediumParams(omega_t=omega_t, beta4pi=0.36, gamma=0.0)
    for k in (0.01, 0.5 * omega_t, omega_t, 1.3 * omega_t):
        for got, (want, *_) in zip(bulk_dispersion(k, med), exact_branches(k, omega_t, 0.36)):
            assert abs(got - float(want)) <= math.ulp(float(want)), k
    with pytest.raises(ValueError, match="upper branch frequency overflows"):
        bulk_dispersion(0.01, MediumParams(omega_t=1e308, beta4pi=4.0, gamma=0.0))


def _ulps_from_mpmath(k, b4, worst):
    """Record in worst the largest distances of `_branches` and
    `_bulk_branches` from `exact_branches` at (k, b4), omega_t = 1: W from
    the correctly rounded root, d, n and v_g from the exact values."""
    w, d = _branches(k, b4)
    _, n, vg = _bulk_branches(k, MediumParams(omega_t=1.0, beta4pi=b4, gamma=0.0))
    for j, exact in enumerate(exact_branches(k, 1.0, b4)):
        got = (w[j], d[j], n[j], vg[j])
        rounded = abs(w[j] - float(exact[0])) / math.ulp(float(exact[0]))
        for name, value in zip("Wdnv", (rounded, *map(ulps_from, got[1:], exact[1:]))):
            worst[name] = max(worst[name], (float(value), k, b4))


def test_branches_match_mpmath_on_both_branches():
    # log-uniform q = k/omega_t in [1e-8, 1e8] and 4 pi beta in [1e-12, 1e4].
    # Measured at worst over these draws: W one double from the correctly
    # rounded root; d 2.37 ulps (q = 1.2e-6, 4 pi beta = 7.3e-5); n 1.89
    # ulps (q = 2.8e-8, 3.3e-10); v_g 4.12 ulps (q = 4.9e-6, 3.7e-4)
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(89)
    worst = dict.fromkeys("Wdnv", (0.0,))
    for k, b4 in zip(10.0 ** rng.uniform(-8.0, 8.0, 1500), 10.0 ** rng.uniform(-12.0, 4.0, 1500)):
        _ulps_from_mpmath(k, b4, worst)
    assert worst["W"][0] <= 1.0 and worst["d"][0] <= 3.0, worst
    assert worst["n"][0] <= 3.0 and worst["v"][0] <= 5.0, worst
    # vacuum: the light line and omega_t, n = v_g = 1 on both
    ks = np.array([1e-8, 0.3, 0.7071, 0.99, 1.0, 1.01, 2.5, 1e8])
    (lo, hi), n, vg = _bulk_branches(ks, MediumParams(omega_t=1.0, beta4pi=0.0, gamma=0.0))
    assert np.all(lo == np.minimum(ks, 1.0)) and np.all(hi == np.maximum(ks, 1.0))
    assert np.all(n == 1.0) and np.all(vg == 1.0)


def test_medium_params_validation():
    with pytest.raises(ValueError):
        MediumParams(omega_t=0.0, beta4pi=1.0, gamma=0.0)
    with pytest.raises(ValueError):
        MediumParams(omega_t=1.0, beta4pi=-0.5, gamma=0.0)
    with pytest.raises(ValueError):
        MediumParams(omega_t=1.0, beta4pi=1.0, gamma=-1e-9)
    # NaN fails every comparison, so each check is written as not x >= 0
    with pytest.raises(ValueError, match="beta4pi"):
        MediumParams(omega_t=1.0, beta4pi=math.nan, gamma=0.0)
    with pytest.raises(ValueError, match="gamma"):
        MediumParams(omega_t=1.0, beta4pi=1.0, gamma=math.nan)
    # an infinite value is input, not a numerical failure downstream
    with pytest.raises(ValueError, match="omega_t must be positive and finite"):
        MediumParams(omega_t=math.inf, beta4pi=1.0, gamma=0.0)
    with pytest.raises(ValueError, match="beta4pi must be non-negative and finite"):
        MediumParams(omega_t=1.0, beta4pi=math.inf, gamma=0.0)
    with pytest.raises(ValueError, match="gamma must be non-negative and finite"):
        MediumParams(omega_t=1.0, beta4pi=1.0, gamma=math.inf)


def test_rabi_and_beta_round_trip():
    med = MediumParams(omega_t=2.0, beta4pi=4.0, gamma=0.0)
    # 4pi*beta = 4 rabi^2 / omega_t^2 so rabi = omega_t * sqrt(4pi*beta) / 2
    assert medium_rabi(med) == pytest.approx(2.0 * 2.0 / 2.0, rel=1e-15)
