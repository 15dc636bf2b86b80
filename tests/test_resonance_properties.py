"""Property tests: find_resonances over random media, cavities and windows,
and the mode-root solver against bisection to the last double.

Every find_resonances call must end in one of two ways: roots with
consecutive mode indices per branch that agree with the scan oracle
wherever a scan resolves the window, or a StopBandError for a window
inside the stop band. Every root `cavity._mode_roots` returns inside its
window must be the double that `cavity._bisect` returns on its bracket.
"""

import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, event, example, given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import scanned_resonances  # noqa: E402
from polariton_mbc import cavity  # noqa: E402
from polariton_mbc import (  # noqa: E402
    CavityConfig,
    MediumParams,
    ResonanceScanError,
    StopBandError,
    find_resonances,
    refractive_index,
)


@st.composite
def resonance_problems(draw):
    omega_t = draw(st.floats(0.5, 2.0))
    beta4pi = draw(st.one_of(st.just(0.0), st.floats(0.0, 16.0)))
    lam = 10.0 ** draw(st.floats(-0.3, 3.0))
    length = 10.0 ** draw(st.floats(-1.0, 2.5)) / omega_t
    assume(length * lam * omega_t > 1.0)  # one root per mode bracket
    lo = omega_t * 10.0 ** draw(st.floats(-3.0, 0.7))
    hi = lo * (1.0 + 10.0 ** draw(st.floats(-3.0, 1.0)))
    max_count = draw(st.integers(1, 2000))
    med = MediumParams(omega_t=omega_t, beta4pi=beta4pi, gamma=0.0)
    return CavityConfig(length, lam, med), (lo, hi), max_count


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None)
@given(resonance_problems())
def test_roots_are_certified_consecutive_and_match_the_scan(problem):
    cfg, window, max_count = problem
    try:
        found = find_resonances(cfg, window, max_count)
    except StopBandError as err:
        event(type(err).__name__)
        return
    assert len(found.omega) <= max_count
    omegas = found.omega.tolist()
    assert omegas == sorted(omegas)
    assert all(window[0] <= w <= window[1] for w in omegas)

    def f(w):
        n = refractive_index(w, cfg.medium).real
        return math.tan(n * w * cfg.length) - n / cfg.lambda_mirror

    for omega, m in zip(omegas, found.mode_index.tolist()):
        # |f| < 1e-9 where a double meets it; next to omega_t one ulp of
        # omega can move f by more, and f changes sign across the root
        below, above = np.nextafter(omega, 0.0), np.nextafter(omega, math.inf)
        assert abs(f(omega)) < 1e-9 or f(below) < 0.0 < f(above), (omega, m)
        n = refractive_index(omega, cfg.medium).real
        assert math.floor(n * omega * cfg.length / math.pi) == m
    for branch in set(found.branch.tolist()):
        modes = found.mode_index[found.branch == branch].tolist()
        assert modes == list(range(modes[0], modes[0] + len(modes)))

    # a scan resolves the window where refining its grid 4x changes
    # nothing: a cell holding two roots and a pole between them shows no
    # crossing and need not leave a gap in the mode indices
    try:
        scanned = scanned_resonances(cfg, window, 20_000, max_count)
        finer = scanned_resonances(cfg, window, 80_000, max_count)
    except ResonanceScanError:  # two crossings shared a scan cell
        event("scan unresolved")
        return
    if scanned.mode_index.tolist() != finer.mode_index.tolist():
        event("scan unresolved")
        return
    event("compared with the scan" if found.omega.size else "no root, as the scan")
    assert found.branch.tolist() == scanned.branch.tolist()
    assert found.mode_index.tolist() == scanned.mode_index.tolist()
    for res, ref in zip(omegas, scanned.omega.tolist()):
        assert abs(res - ref) < 1e-12 * cfg.medium.omega_t, (res, ref)


def _leg(b4, upper, lo, hi, length):
    """find_resonances' modes on one transparent leg [lo, hi] of the branch."""
    ends = np.array([lo, hi])
    m_lo, m_hi = np.floor(cavity._lossless_index(ends, b4) * ends * length / math.pi)
    return np.arange(int(m_lo), int(m_hi) + 1)


@st.composite
def mode_ladders(draw):
    """(m, length, lambda_mirror, beta4pi, upper, lo, hi) for `_mode_roots`:
    up to 400 modes in vacuum or a medium up to 4 pi beta = 16 on either
    branch, the lowest anywhere up to the band edge, with or without a
    window that clips the outer brackets."""
    b4 = draw(st.one_of(st.just(0.0), st.floats(-3.0, math.log10(16.0)).map(lambda e: 10.0**e)))
    lam = 10.0 ** draw(st.floats(-0.5, 6.0))
    length = 10.0 ** draw(st.floats(-0.5, 2.5))
    assume(b4 == 0.0 or length * lam > 1.0)  # one root per mode bracket
    upper = b4 > 0.0 and draw(st.booleans())
    m = draw(st.integers(0, 10**7)) + np.arange(draw(st.integers(1, 400)))
    a, b, _ = cavity._brackets(m, length, lam, b4, upper, 0.0, math.inf)
    lo, hi = 0.0, math.inf
    if draw(st.booleans()):  # a window inside the ladder's span
        span = b[-1] - a[0]
        lo, hi = a[0] + draw(st.floats(0.0, 0.5)) * span, b[-1] - draw(st.floats(0.0, 0.5)) * span
    return m, length, lam, b4, upper, lo, hi


@st.composite
def figure2_families(draw):
    """figure2_sweep's m = 1 roots: tuned L, both branches, rabi 1e-12 ... 1e4."""
    lam = 10.0 ** draw(st.floats(math.log10(5.0), 6.0))
    rabi = 10.0 ** np.array(draw(st.lists(st.floats(-12.0, 4.0), min_size=1, max_size=50)))
    b4 = 4.0 * np.square(rabi)[:, None]
    return 1, math.pi + math.atan(1.0 / lam), lam, b4, [False, True], 0.0, math.inf


# the 4 pi beta = 16, Lambda = 1e6, L = 3.27 ladder, on which a fixed-point
# iteration of the phase did not settle: every mode of each transparent
# leg from omega = 0.1 omega_t to 20 omega_t, band margins as find_resonances'
_UNSETTLED = [
    (_leg(16.0, upper, lo, hi, 3.27), 3.27, 1e6, 16.0, upper, lo, hi)
    for upper, lo, hi in ((False, 0.1, 1.0 - 1e-9), (True, math.sqrt(17.0) + 1e-9, 20.0))
]


@seed(20261022)
@settings(max_examples=300, deadline=None, database=None)
@example(_UNSETTLED[0])
@example(_UNSETTLED[1])
@given(st.one_of(mode_ladders(), figure2_families()))
def test_mode_roots_are_the_doubles_bisection_returns(problem):
    m, length, lam, b4, upper, lo, hi = problem
    with mock.patch.object(cavity, "_bisect", wraps=cavity._bisect) as fallback:
        w, n, inside = cavity._mode_roots(m, length, lam, b4, upper, lo, hi)
    a, b, bracketed = cavity._brackets(m, length, lam, b4, upper, lo, hi)
    want = cavity._bisect(a, b, m * math.pi, length, lam, b4)
    assert np.array_equal(inside, bracketed)
    assert np.array_equal(w[inside].view(np.int64), want[inside].view(np.int64))
    assert np.array_equal(n[inside], cavity._lossless_index(want, b4)[inside])
    bisected = sum(np.size(call.args[0]) for call in fallback.call_args_list)
    event("no root bisected" if not bisected else "some roots bisected", bisected / inside.size)


@seed(20261023)
@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(mode_ladders(), figure2_families()), st.integers(-16, 16), st.integers(0, 2**32))
def test_predictions_off_by_ulps_or_unsettled_still_give_the_bisected_root(problem, ulps, mask):
    # x* moved by up to 16 doubles and a random half called unsettled: the
    # certificate must reject what it cannot vouch for, and the bisection
    # of exactly those brackets must return the same doubles
    m, length, lam, b4, upper, lo, hi = problem
    predict = cavity._predict

    def moved(*args):
        x, _ = predict(*args)
        x = (np.ascontiguousarray(x).view(np.int64) + ulps).view(float)
        return x, np.random.default_rng(mask).random(x.shape) < 0.5

    with mock.patch.object(cavity, "_predict", moved):
        w, _, inside = cavity._mode_roots(m, length, lam, b4, upper, lo, hi)
    a, b, _ = cavity._brackets(m, length, lam, b4, upper, lo, hi)
    want = cavity._bisect(a, b, m * math.pi, length, lam, b4)
    assert np.array_equal(w[inside].view(np.int64), want[inside].view(np.int64))
    event("moved past the window" if abs(ulps) > cavity._WINDOW else "moved within the window")
