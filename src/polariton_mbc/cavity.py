"""Delta-mirror cavity: boundary-condition spectra, resonances, dissipation rate.

The cavity occupies 0 < z < L with a perfect mirror at z = L and a thin
partially transparent mirror at z = 0 characterized by the dimensionless
parameter Lambda (large Lambda = good cavity). Inside is the polariton
medium of `dielectric`; outside is vacuum.

Conventions (c = 1): an incoming unit wave from z < 0 produces the
intracavity standing-wave amplitude T and the reflected amplitude r;
`amplitudes` is the one entry point for both. `find_resonances` returns
the roots in a window of

    tan(n(W) * W * L) = n(W) / Lambda

as the columns omega, kappa, branch and mode_index of one `Resonances`;
kappa is the boundary-condition dissipation rate

    kappa_mbc(W) = 2 * n(W) * v_g(W) / (Lambda**2 * L).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dielectric import MediumParams, _branches, _group_velocity, _lossless_index
from .dielectric import _propagating, _refractive_index, _unwrap
from .errors import ResonanceScanError, StopBandError

__all__ = [
    "CavityConfig",
    "Resonances",
    "amplitudes",
    "find_resonances",
    "kappa_mbc",
    "kappa_bare",
    "tuned_length",
]


@dataclass(frozen=True)
class CavityConfig:
    """Cavity length, front-mirror transparency parameter, and the enclosed medium."""

    length: float
    lambda_mirror: float
    medium: MediumParams

    def __post_init__(self):
        if not 0 < self.length < math.inf:
            raise ValueError("length must be positive and finite")
        if not self.lambda_mirror > 0:
            raise ValueError("lambda_mirror must be positive")
        try:
            finite = math.isfinite(kappa_bare(self))
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            raise ValueError(
                f"lambda_mirror = {self.lambda_mirror!r} with length = {self.length!r} "
                "is out of range: its square overflows or the bare rate "
                "2 / (lambda_mirror**2 * length) is not finite"
            )


class Resonances(NamedTuple):
    """Cavity resonances as equal-length columns, ascending in omega.

    omega (float64) is mode m's root of tan(n W L) = n/Lambda to within a
    double or two and kappa (float64) its kappa_mbc; branch (str) is
    "lower", "upper" or "bare" (the medium is empty); mode_index (int64) is
    m: the root's phase n W L lies in [m pi, (m + 1/2) pi]. The tuned
    fundamental has m = 1; a sub-fundamental m = 0 root exists near
    W ~ 1/(Lambda*L) and is reported when a search window includes it.
    """

    omega: np.ndarray
    kappa: np.ndarray
    branch: np.ndarray
    mode_index: np.ndarray


def _amplitude_kernel(omega, cfg: CavityConfig):
    """n, e = exp(i k L) and D = (1 - i*Lambda)(e^2 - 1) - n (e^2 + 1), k = n omega.

    D is the one denominator of the membrane boundary conditions, shared
    by T, r and the Green's function. Im n >= 0 keeps |e| <= 1, so no
    term overflows. At least 1-d, as in dielectric._epsilon, so that a
    scalar omega rounds as it does inside an array.
    """
    p = cfg.medium
    x = np.array(omega, dtype=complex, ndmin=1) / p.omega_t
    n = _refractive_index(x, p.beta4pi, p.gamma / p.omega_t)
    e = np.exp(1j * (cfg.length * p.omega_t) * (n * x))  # the phase n omega L, in units of omega_t
    e2 = e * e
    return n, e, (1.0 - 1j * cfg.lambda_mirror) * (e2 - 1.0) - n * (e2 + 1.0)


def amplitudes(omega, cfg: CavityConfig):
    """(T, r) = (4i e / D, 2 (e^2 - 1) / D - 1) from one kernel evaluation.

    Per unit incoming amplitude the cavity field is T sin(k(L - z)) and
    r = T sin(k L) - 1; for real n, r = -e^2 conj(D) / D, so |r| = 1 with
    gamma = 0 in a transparency window. Both stay finite in the stop band.
    """
    _, e, den = _amplitude_kernel(omega, cfg)
    t, r = 4j * e / den, 2.0 * (e * e - 1.0) / den - 1.0
    return tuple(_unwrap(a.reshape(np.shape(omega)), complex) for a in (t, r))


def tuned_length(lambda_mirror: float, medium: MediumParams) -> float:
    """Shortest length past one half-wave that puts the bare m = 1 mode at omega_t.

    L = (pi + arctan(1/Lambda)) / omega_t; tends to pi/omega_t for an
    ideal mirror.
    """
    if not lambda_mirror > 0:
        raise ValueError("lambda_mirror must be positive")
    return (math.pi + math.atan(1.0 / lambda_mirror)) / medium.omega_t


def kappa_mbc(omega, cfg: CavityConfig):
    """Boundary-condition dissipation rate 2 n v_g / (Lambda**2 L) at gamma = 0,
    for a scalar or an array omega; StopBandError in the stop band."""
    p = cfg.medium
    x, n = _propagating(omega, p)
    kappa = _kappa(x, n, p.beta4pi, cfg.lambda_mirror, cfg.length * p.omega_t)
    return _unwrap(kappa * p.omega_t, float)


def _kappa(x, n, beta4pi, lambda_mirror, length):
    """kappa_mbc/omega_t at x = W/omega_t, index n and length = L omega_t."""
    vg = _group_velocity(n, (x - 1.0) * (x + 1.0), beta4pi)
    return 2.0 * n * vg / (lambda_mirror**2 * length)


def kappa_bare(cfg: CavityConfig) -> float:
    """Empty-cavity rate kappa_0 = 2 / (Lambda**2 L)."""
    return 2.0 / (cfg.lambda_mirror**2 * cfg.length)


def _mode_roots(m, length, lambda_mirror, beta4pi, upper, lo=0.0, hi=math.inf):
    """Mode m's root of tan(n x L) = n/Lambda on one branch: (x, n, inside).

    In units of omega_t: x = W/omega_t, length = L omega_t, and [lo, hi]
    clips the bracket in x. The root is the zero of the pole-free phase
    g = n x L - m pi - atan(n/Lambda) on qL in [m pi, (m + 1/2) pi], q = n x,
    which rises strictly while L Lambda > 1 (dn/dq < 1), from
    -atan(n/Lambda) < 0 to pi/2 - atan(n/Lambda) > 0: known signs, not
    computed ones. `_branches` maps the ends to x on the lower or, where
    `upper`, the upper branch; m, beta4pi and upper broadcast together, at
    gamma = 0. A clipped end gets a sign test on f = tan(n x L) -
    n/Lambda, which has g's sign: `inside` is False where the root lies
    outside [lo, hi], and an end where f is exactly 0 is the root.

    All brackets are bisected at once until no midpoint splits them; the
    end with the smaller computed |g| (inf if never evaluated) is the root.
    Ends change in place only where live, so each root is the one a scalar
    loop on its own bracket returns. A nan or inf only compares: no warning.
    """

    def index(w):
        return _lossless_index(w, beta4pi)

    bottom, top = m * math.pi / length, (m + 0.5) * math.pi / length
    if np.ndim(beta4pi) or beta4pi > 0.0:  # else vacuum, W = q
        bottom, top = (
            np.where(upper, *_branches(q, beta4pi)[0][::-1]) for q in (bottom, top)
        )
    a, b = np.maximum(bottom, lo), np.minimum(top, hi)
    inside, clip_a, clip_b = a <= b, bottom < lo, top > hi
    with np.errstate(all="ignore"):
        if np.any(clip_a) or np.any(clip_b):  # f only where an end is clipped
            fa, fb = (np.tan(index(w) * w * length) - index(w) / lambda_mirror for w in (a, b))
            inside &= ~(clip_a & (fa > 0.0)) & ~(clip_b & (fb < 0.0))
            a, b = np.where(clip_b & (fb == 0.0), b, a), np.where(clip_a & (fa == 0.0), a, b)
        a, b, mpi = np.array(a, dtype=float), np.array(b, dtype=float), m * math.pi
        ra, rb, live = np.full_like(a, math.inf), np.full_like(a, math.inf), np.ones_like(a, bool)
        while True:
            mid = 0.5 * (a + b)
            live &= (mid > a) & (mid < b)  # else at floating-point resolution
            if not live.any():
                break
            n = index(mid)
            g = n * mid * length - mpi - np.arctan(n / lambda_mirror)
            to_b, g = live & (g >= 0.0), np.abs(g)
            for end, r, to in ((b, rb, to_b), (a, ra, live ^ to_b)):  # in place
                np.copyto(end, mid, where=to)
                np.copyto(r, g, where=to)
    w = np.where(ra <= rb, a, b)
    return w, index(w), inside


def find_resonances(cfg: CavityConfig, omega_range: tuple[float, float],
                    max_count: int | None = None) -> Resonances:
    """All roots of tan(n W L) = n/Lambda in omega_range, ascending, as columns.

    On each transparent leg (the stop band is skipped) every mode m from
    floor(n W L/pi) at the leg's bottom to that at its top is solved in
    its own bracket by one `_mode_roots` call, and the rates come from
    the index it returns. Every mode in the window comes back, up to the
    1e-9 omega_t margin at each band edge, each root a double or two from
    the exact one. At most `max_count` roots are returned, and none past
    them is checked. A window whose mode indices pass 2^53 raises
    ResonanceScanError. A medium needs L Lambda omega_t > 1, else
    ValueError. gamma plays no part: the roots are those at gamma = 0.
    """
    lo, hi = omega_range
    if not (lo < hi):
        raise ValueError("empty frequency range")
    if not lo > 0:
        raise ValueError("range must be positive")
    p = cfg.medium
    wt, b, length = p.omega_t, p.beta4pi, cfg.length * p.omega_t
    if b > 0.0 and not length * cfg.lambda_mirror > 1.0:
        raise ValueError("one root per mode needs length * lambda_mirror * omega_t > 1")
    x_lo, x_hi = lo / wt, hi / wt
    legs = [(x_lo, x_hi)] if b == 0.0 else [  # skip the stop band
        (x_lo, min(x_hi, 1.0 - 1e-9)), (max(x_lo, math.sqrt(1.0 + b) + 1e-9), x_hi)]
    legs = [leg for leg in legs if leg[1] > leg[0]]
    if not legs:
        raise StopBandError(f"range [{lo:g}, {hi:g}] lies inside the stop band {p.stop_band()}")

    found, columns = 0, []
    for leg in legs:
        upper = leg[0] > 1.0
        ends = np.array(leg)
        n = _lossless_index(ends, b)
        m_lo, m_hi = np.floor(n * ends * length / math.pi)
        if not m_hi < 2.0**53:  # else consecutive mode indices are not distinct floats
            raise ResonanceScanError(f"mode index {m_hi:g} exceeds floating-point resolution")
        if max_count is not None:  # one spare: the first root may lie below the leg
            m_hi = min(m_hi, m_lo + max_count - found)
        modes = np.arange(int(m_lo), int(m_hi) + 1)
        x, n, inside = _mode_roots(modes, length, cfg.lambda_mirror, b, upper, *leg)
        take = np.flatnonzero(inside)[: None if max_count is None else max_count - found]
        x, n, found = x[take], n[take], found + len(take)
        branch = "bare" if b == 0.0 else "upper" if upper else "lower"
        columns.append((x * wt, _kappa(x, n, b, cfg.lambda_mirror, length) * wt,
                        np.repeat(branch, len(take)), modes[take]))
    return Resonances(*map(np.concatenate, zip(*columns)))
