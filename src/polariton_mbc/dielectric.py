"""Lorentz-oscillator medium: dielectric function and bulk dispersion helpers.

Natural units are used throughout the package: c = hbar = eps0 = 1, and
frequencies are quoted in units of the transverse excitation frequency
(omega_t = 1 by default). The private kernels take omega/omega_t,
k/omega_t and gamma/omega_t; the public functions convert once on the way
in and once on the way out. Frequency arguments accept scalars or numpy
arrays and the return value matches the input shape. `_lossless_index`
is the real part of the one complex index, `_refractive_index`, at
gamma = 0, bit for bit in real arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StopBandError

__all__ = [
    "MediumParams",
    "epsilon",
    "refractive_index",
    "wavenumber",
    "group_velocity",
    "in_stop_band",
    "bulk_dispersion",
]


@dataclass(frozen=True)
class MediumParams:
    """Parameters of the polariton medium.

    omega_t
        Transverse excitation frequency, > 0. Acts as the natural
        frequency unit (default 1.0).
    beta4pi
        Dimensionless light-matter coupling written as 4*pi*beta, >= 0.
    gamma
        Small numerical damping standing in for the positive
        infinitesimal in the retarded response. Default 1e-9 (in units
        of omega_t = 1), small enough to be invisible at the package
        tolerances while keeping the pole off the real axis. Functions
        that require the strict loss-less limit evaluate at gamma = 0
        internally and say so in their docstrings.
    """

    omega_t: float = 1.0
    beta4pi: float = 0.0
    gamma: float = 1e-9

    def __post_init__(self):
        if not 0 < self.omega_t < math.inf:
            raise ValueError("omega_t must be positive and finite")
        if not 0 <= self.beta4pi < math.inf:
            raise ValueError("beta4pi must be non-negative and finite")
        if not 0 <= self.gamma < math.inf:
            raise ValueError("gamma must be non-negative and finite")

    @property
    def omega_longitudinal(self) -> float:
        """Zero of the loss-less dielectric function, omega_t*sqrt(1 + 4*pi*beta)."""
        return self.omega_t * math.sqrt(1.0 + self.beta4pi)

    def stop_band(self) -> tuple[float, float]:
        """The (omega_t, omega_longitudinal) window with no propagating bulk mode."""
        return (self.omega_t, self.omega_longitudinal)


def _unwrap(x, kind):
    """x as a Python `kind` (complex, float, bool) if it is 0-d, else as is."""
    return kind(x) if x.ndim == 0 else x


def _epsilon(x, beta4pi, gamma):
    """The one Lorentz eps at x = omega/omega_t and gamma/omega_t; broadcasts
    over x and an array of beta4pi."""
    # at least 1-d: numpy rounds complex products of scalars and of arrays
    # (fused multiply-adds) differently, and an omega must not depend on it
    z = np.array(x, dtype=complex, ndmin=1) + 1j * gamma
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = 1.0 + beta4pi / (1.0 - z * z)
    # no oscillator: eps is 1 everywhere, including at omega_t where the
    # formula evaluates 0 * inf; np.where only for an array of couplings,
    # as it triples the cost of a scalar call and adds a full-size copy
    if isinstance(beta4pi, np.ndarray):
        eps = np.where(beta4pi == 0.0, 1.0 + 0.0j, eps)
    elif beta4pi == 0.0:
        eps = np.ones_like(z)
    return eps.reshape(()) if np.ndim(x) == 0 and np.ndim(beta4pi) == 0 else eps


def _refractive_index(x, beta4pi, gamma):
    """refractive_index at x = omega/omega_t and gamma/omega_t, as an array."""
    n = np.sqrt(_epsilon(x, beta4pi, gamma))
    return np.where(n.imag < 0.0, -n, n)


def _lossless_index(x, beta4pi):
    """_refractive_index(x, beta4pi, 0.0).real bit for bit: sqrt(max(eps, 0)),
    eps = 1 + beta4pi (1/(1 - x**2)) as numpy divides by 1 - x**2 + 0j (not
    beta4pi/(1 - x**2), an ulp off), and 1 where beta4pi = 0."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        n = np.sqrt(np.maximum(1.0 + beta4pi * (1.0 / (1.0 - x * x)), 0.0))
    return np.where(np.asarray(beta4pi) == 0.0, 1.0, n)


def _group_velocity(n, d, beta4pi, other=None):
    """v_g = n d**2/(d**2 + 4 pi beta) at index n and band-edge detuning d.

    d = (W/omega_t)**2 - 1, and other = -4 pi beta/d is the other branch's d
    at the same wavenumber: v_g = n d/(d - other), which cannot overflow.
    `_branches` computes other on its own, which keeps v_g a few ulps from
    exact where -4 pi beta/d would double the error of d. 1 in vacuum.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        vg = n * (d / (d - (-beta4pi / d if other is None else other)))
    return np.where(np.asarray(beta4pi) == 0.0, 1.0, vg)


def _branches(q, beta4pi):
    """W/omega_t and d = (W/omega_t)**2 - 1 of both branches (lower, upper) at q = k/omega_t.

    With b = beta4pi, the lower d is the negative root of
    d**2 + ((1 - q**2) - b) d - b = 0 and the upper e = d - b the positive
    root of e**2 + ((1 - q**2) + b) e - b q**2 = 0, each the larger root or
    the product of the roots over it, so nothing nearly equal is subtracted.
    W/omega_t = sqrt(1 + d), or q sqrt(1/(1 + d_upper)) far below the band
    (d < -1/2). Broadcasts; no checks: an overflowing q**2 gives inf.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gap = (1.0 - q) * (1.0 + q)  # 1 - q**2, not rounding q**2 next to q = 1
        # x**2 + 2 h x - c = 0 has the roots -h - r and c / (r - h), r = hypot(h, c**0.5)
        h = 0.5 * (gap - beta4pi)
        r = np.hypot(h, np.sqrt(beta4pi))
        d_lo = np.where(h >= 0.0, -(r + h), beta4pi / (h - r))
        h = 0.5 * (gap + beta4pi)
        r = np.hypot(h, np.sqrt(beta4pi) * q)
        d_up = beta4pi + np.where(h <= 0.0, r - h, beta4pi / (r + h) * (q * q))
        far = q * np.sqrt(1.0 / (1.0 + d_up))  # where 1 + d would lose W
        w_lo = np.where(d_lo < -0.5, far, np.sqrt(1.0 + d_lo))
        return np.stack([w_lo, np.sqrt(1.0 + d_up)]), np.stack([d_lo, d_up])


def _bulk_branches(k, p: MediumParams):
    """W, n = k/W and v_g of both branches (lower, upper) at wavenumbers k >= 0.

    W is omega_t times `_branches` at k/omega_t, but k sqrt(1/(1 + d_upper))
    far below the band, from k itself, as k/omega_t may have underflowed.
    In vacuum W = min(k, omega_t), max(k, omega_t) and n = v_g = 1 at every
    k. At k = 0 the lower branch's n = k/W = 0/0 is its limit
    sqrt(1 + 4 pi beta), v_g 1/n. Unchecked: in a medium W is inf where it
    overflows, on both branches where (k/omega_t)**2 does.
    """
    kk = np.asarray(k, dtype=float)
    if np.any(kk < 0.0):
        raise ValueError("wavenumber must be non-negative")
    x, d = _branches(kk / p.omega_t, p.beta4pi)
    with np.errstate(over="ignore", invalid="ignore"):  # k = 0: n = 0/0 on the lower branch
        lower = np.where(d[0] < -0.5, kk * np.sqrt(1.0 / (1.0 + d[1])), x[0] * p.omega_t)
        w = np.stack([np.where(np.isfinite(x[1]), lower, np.inf), x[1] * p.omega_t])
        if p.beta4pi == 0.0:  # also where _branches' upper root overflows
            w = np.stack([np.minimum(kk, p.omega_t), np.maximum(kk, p.omega_t)])
        n = kk / w if p.beta4pi else np.ones_like(w)
    vg = _group_velocity(n, d, p.beta4pi, d[::-1])
    n0 = _lossless_index(0.0, p.beta4pi)  # the lower branch's limits at k = 0
    n[0], vg[0] = np.where(kk == 0.0, n0, n[0]), np.where(kk == 0.0, 1.0 / n0, vg[0])
    return w, n, vg


def epsilon(omega, p: MediumParams):
    """Complex dielectric function of the medium.

    eps(omega) = 1 + 4*pi*beta * omega_t**2 / (omega_t**2 - (omega + i*gamma)**2)

    Total in complex arithmetic. Hitting the pole exactly (gamma = 0 and
    omega = omega_t) returns a non-finite value (the inf sentinel);
    callers that can reach the pole must check np.isfinite.
    """
    return _unwrap(_epsilon(np.divide(omega, p.omega_t), p.beta4pi, p.gamma / p.omega_t), complex)


def refractive_index(omega, p: MediumParams):
    """Square root of epsilon on the branch with Im n >= 0.

    The branch describes decaying (causal) waves; when Im n = 0 exactly
    the real part is taken >= 0. In the stop band at gamma = 0 the
    result is purely imaginary.
    """
    n = _refractive_index(np.divide(omega, p.omega_t), p.beta4pi, p.gamma / p.omega_t)
    return _unwrap(n, complex)


def wavenumber(omega, p: MediumParams):
    """Medium wavenumber k = n(omega) * omega (c = 1)."""
    k = np.asarray(refractive_index(omega, p)) * np.asarray(omega, dtype=complex)
    return _unwrap(k, complex)


def in_stop_band(omega, p: MediumParams):
    """True where omega lies in the closed stop band [omega_t, omega_longitudinal].

    The band edges themselves are included: the index diverges at
    omega_t and the group velocity vanishes at both edges, so neither
    supports a propagating bulk mode. Always False for beta4pi = 0.
    """
    if p.beta4pi == 0.0:
        return np.zeros(np.shape(omega), dtype=bool) if np.ndim(omega) else False
    w = np.asarray(omega, dtype=float)
    inside = (w >= p.omega_t) & (w <= p.omega_longitudinal)
    return _unwrap(inside, bool)


def group_velocity(omega, p: MediumParams):
    """Group velocity on a propagating branch, evaluated at gamma = 0.

    Closed form (c = 1):

        v_g = n(omega) * (u - 1)**2 / ((u - 1)**2 + 4*pi*beta),   u = (omega/omega_t)**2

    which equals 1/(d(n*omega)/domega) along the dispersion; the test
    suite keeps the finite-difference derivative as an independent
    check. Satisfies 0 < v_g <= 1 and tends to 1/sqrt(1 + 4*pi*beta)
    as omega -> 0 and to 0 at the band edges.

    Raises StopBandError if omega lies in the stop band (band edges
    included), where no propagating mode exists.
    """
    x, n = _propagating(omega, p)
    return _unwrap(_group_velocity(n, (x - 1.0) * (x + 1.0), p.beta4pi), float)


def _propagating(omega, p: MediumParams):
    """x = omega/omega_t and the index n there at gamma = 0, refusing
    omega <= 0 and, with StopBandError, omega in the stop band."""
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError("omega must be positive")
    if np.any(in_stop_band(w, p)):
        lo, hi = p.stop_band()
        raise StopBandError(f"omega inside the stop band [{lo:g}, {hi:g}]: no propagating mode")
    x = w / p.omega_t
    return x, _lossless_index(x, p.beta4pi)


def bulk_dispersion(k, p: MediumParams):
    """Both branch frequencies (omega_lower, omega_upper) at wavenumber k.

    The roots of omega**2 eps(omega) = k**2 at gamma = 0, the quartic
    omega**4 - omega**2 (k**2 + omega_long**2) + k**2 omega_t**2 = 0, from
    the band-edge detunings of `_branches`. The lower branch saturates at
    omega_t from below as k grows; the upper branch starts at
    omega_longitudinal for k = 0. For beta = 0 they are min(k, omega_t) and
    max(k, omega_t) at every finite k. Raises ValueError for k < 0 and, in
    a medium, where (k/omega_t)**2 or omega_upper overflows.
    """
    w, _, _ = _bulk_branches(k, p)
    _require_finite(k, w[1], "upper branch")
    return _unwrap(w[0], float), _unwrap(w[1], float)


def _require_finite(k, w, branch):
    """ValueError naming the first wavenumber k whose frequency w is not finite."""
    bad = np.asarray(k, dtype=float)[~np.isfinite(w)]
    if bad.size:
        raise ValueError(f"wavenumber k = {bad.flat[0]:g} is too large: "
                         f"(k/omega_t)**2 or the {branch} frequency overflows")
