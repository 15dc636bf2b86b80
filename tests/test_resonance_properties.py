"""Property test: find_resonances over random media, cavities and windows.

Every call must end in one of two ways: roots with consecutive mode
indices per branch that agree with the scan oracle wherever a scan
resolves the window, or a StopBandError for a window inside the stop band.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, event, given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import scanned_resonances  # noqa: E402
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
