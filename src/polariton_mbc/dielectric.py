"""Lorentz-oscillator medium: dielectric function and bulk dispersion helpers.

Natural units are used throughout the package: c = hbar = eps0 = 1, and
frequencies are quoted in units of the transverse excitation frequency
(omega_t = 1 by default). Frequency arguments accept scalars or numpy
arrays and the return value matches the input shape.
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
        if not self.omega_t > 0:
            raise ValueError("omega_t must be positive")
        if self.beta4pi < 0:
            raise ValueError("beta4pi must be non-negative")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")

    @property
    def omega_longitudinal(self) -> float:
        """Zero of the loss-less dielectric function, omega_t*sqrt(1 + 4*pi*beta)."""
        return self.omega_t * math.sqrt(1.0 + self.beta4pi)

    @property
    def rabi(self) -> float:
        """Vacuum Rabi frequency omega_t*sqrt(4*pi*beta)/2."""
        return 0.5 * self.omega_t * math.sqrt(self.beta4pi)

    def stop_band(self) -> tuple[float, float]:
        """The (omega_t, omega_longitudinal) window with no propagating bulk mode."""
        return (self.omega_t, self.omega_longitudinal)

    def lossless(self) -> "MediumParams":
        """Copy of these parameters with gamma set to exactly zero."""
        if self.gamma == 0.0:
            return self
        return MediumParams(self.omega_t, self.beta4pi, 0.0)


def _unwrap(x, kind):
    """x as a Python `kind` (complex, float, bool) if it is 0-d, else as is."""
    return kind(x) if x.ndim == 0 else x


def _epsilon(omega, omega_t, beta4pi, gamma):
    """The one Lorentz eps(omega); broadcasts over omega and an array of beta4pi."""
    z = np.asarray(omega, dtype=complex) + 1j * gamma
    wt2 = omega_t * omega_t
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = 1.0 + beta4pi * wt2 / (wt2 - z * z)
    # no oscillator: eps is 1 everywhere, including at omega_t where the
    # formula evaluates 0 * inf; np.where only for an array of couplings,
    # as it triples the cost of a scalar call and adds a full-size copy
    if isinstance(beta4pi, np.ndarray):
        return np.where(beta4pi == 0.0, 1.0 + 0.0j, eps)
    return np.ones_like(z) if beta4pi == 0.0 else eps


def _refractive_index(omega, omega_t, beta4pi, gamma):
    """refractive_index as an array, broadcast over omega and beta4pi."""
    n = np.sqrt(_epsilon(omega, omega_t, beta4pi, gamma))
    return np.where(n.imag < 0.0, -n, n)


def _group_velocity(omega, omega_t, beta4pi):
    """group_velocity as an array, broadcast over omega and beta4pi; no checks."""
    w = np.asarray(omega, dtype=float)
    # squares by multiplication: ** 2 on a numpy scalar goes through pow()
    # and can differ in the last digit from the same omega inside an array
    r = w / omega_t
    d = r * r - 1.0  # u - 1 with u = (omega/omega_t)**2
    d2 = d * d
    n = _refractive_index(w, omega_t, beta4pi, 0.0).real
    with np.errstate(invalid="ignore"):
        vg = n * d2 / (d2 + beta4pi)
    # vacuum: 1, also at omega_t where the closed form is 0/0
    if isinstance(beta4pi, np.ndarray):
        return np.where(beta4pi == 0.0, 1.0, vg)
    return np.ones_like(w) if beta4pi == 0.0 else vg


def _branches(k, omega_t, omega_longitudinal):
    """bulk_dispersion broadcast over k and omega_longitudinal; no checks."""
    wt2 = omega_t * omega_t
    s = k * k + omega_longitudinal ** 2
    big = s + np.sqrt(s * s - 4.0 * k * k * wt2)
    return math.sqrt(2.0) * k * omega_t / np.sqrt(big), np.sqrt(0.5 * big)


def epsilon(omega, p: MediumParams):
    """Complex dielectric function of the medium.

    eps(omega) = 1 + 4*pi*beta * omega_t**2 / (omega_t**2 - (omega + i*gamma)**2)

    Total in complex arithmetic. Hitting the pole exactly (gamma = 0 and
    omega = omega_t) returns a non-finite value (the inf sentinel);
    callers that can reach the pole must check np.isfinite.
    """
    return _unwrap(_epsilon(omega, p.omega_t, p.beta4pi, p.gamma), complex)


def refractive_index(omega, p: MediumParams):
    """Square root of epsilon on the branch with Im n >= 0.

    The branch describes decaying (causal) waves; when Im n = 0 exactly
    the real part is taken >= 0. In the stop band at gamma = 0 the
    result is purely imaginary.
    """
    return _unwrap(_refractive_index(omega, p.omega_t, p.beta4pi, p.gamma), complex)


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
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError("group_velocity needs omega > 0")
    if np.any(in_stop_band(w, p)):
        lo, hi = p.stop_band()
        raise StopBandError(
            f"omega inside the stop band [{lo:g}, {hi:g}]: no propagating mode"
        )
    return _unwrap(_group_velocity(w, p.omega_t, p.beta4pi), float)


def bulk_dispersion(k, p: MediumParams):
    """Both branch frequencies (omega_lower, omega_upper) at wavenumber k.

    Solves omega**2 * eps(omega) = k**2 at gamma = 0, i.e. the quartic

        omega**4 - omega**2 (k**2 + omega_long**2) + k**2 omega_t**2 = 0.

    The lower branch saturates at omega_t from below as k grows; the
    upper branch starts at omega_longitudinal for k = 0. For beta = 0
    this degenerates to min(k, omega_t) and max(k, omega_t). Written in
    product form so small roots keep full relative accuracy.
    """
    kk = np.asarray(k, dtype=float)
    if np.any(kk < 0.0):
        raise ValueError("wavenumber must be non-negative")
    lower, upper = _branches(kk, p.omega_t, p.omega_longitudinal)
    if upper.ndim == 0:
        return float(lower), float(upper)
    return lower, upper
