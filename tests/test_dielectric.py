"""Medium response: dielectric function, index, group velocity, bulk branches."""

import math

import numpy as np
import pytest

from polariton_mbc import (
    MediumParams,
    StopBandError,
    bulk_dispersion,
    epsilon,
    group_velocity,
    in_stop_band,
    refractive_index,
    wavenumber,
)


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
    med = MediumParams(omega_t=1.0, beta4pi=1.5, gamma=1e-4)
    rng = np.random.default_rng(7)
    for w in rng.uniform(0.05, 3.0, 100):
        assert wavenumber(w, med) == pytest.approx(refractive_index(w, med) * w, rel=1e-15)


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
        dk = (wavenumber(w + h, med).real - wavenumber(w - h, med).real) / (2 * h)
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


def test_medium_params_validation():
    with pytest.raises(ValueError):
        MediumParams(omega_t=0.0, beta4pi=1.0, gamma=0.0)
    with pytest.raises(ValueError):
        MediumParams(omega_t=1.0, beta4pi=-0.5, gamma=0.0)
    with pytest.raises(ValueError):
        MediumParams(omega_t=1.0, beta4pi=1.0, gamma=-1e-9)


def test_rabi_and_beta_round_trip():
    med = MediumParams(omega_t=2.0, beta4pi=4.0, gamma=0.0)
    # 4pi*beta = 4 rabi^2 / omega_t^2 so rabi = omega_t * sqrt(4pi*beta) / 2
    assert med.rabi == pytest.approx(2.0 * 2.0 / 2.0, rel=1e-15)
