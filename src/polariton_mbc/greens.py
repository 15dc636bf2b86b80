"""One-dimensional Green's function of the mirror-terminated cavity.

Independent oracle for the boundary-condition solution in `cavity`:
the same scattering amplitudes fall out of the piecewise Green's
function of

    -[d^2/dz^2 + omega^2 eps(z, omega)] G(z, z') = delta(z - z')

with eps = 1 for z < 0 (region 1), the medium dielectric function for
0 < z < L (region 2), and G = 0 at the perfect mirror z = L. The
closed forms below are written directly from the two-sided matching
recipe, so agreement with `cavity.reflection` and
`cavity.intracavity_transfer` is a genuine cross-check of two
derivations, not a tautology.

All formulas use c = 1; `ode_residual` verifies the defining equation
by central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityConfig
from .dielectric import _unwrap, epsilon, refractive_index
from .errors import StepSizeError

__all__ = [
    "GreenCoefficients",
    "green_coefficients",
    "green_function",
    "ode_residual",
    "delta_jump",
]


@dataclass(frozen=True)
class GreenCoefficients:
    """Scattering coefficients entering the piecewise Green's function.

    g_r21: reflection back into region 1 of a region-1 source.
    g_t21: transmission of a region-1 source into the cavity.
    g_t12: transmission of a cavity source out into region 1;
           equals n(omega) * g_t21 by reciprocity.
    """

    g_r21: complex
    g_t21: complex
    g_t12: complex


def _cmul(a, b):
    """a * b by the textbook formula, as scalars round it; numpy's complex
    vector loops may fuse it into FMAs and round an array differently."""
    out = np.asarray(a.real * b.real - a.imag * b.imag, dtype=complex)
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def green_coefficients(omega, cfg: CavityConfig) -> GreenCoefficients:
    """Closed-form coefficients at a scalar or an array omega (omega != 0).

    g_r21 = {(1 + i*Lambda) sin(kL) - i n cos(kL)} / D
    g_t21 = 2 / D
    g_t12 = n * g_t21
    with D = (1 - i*Lambda) sin(kL) + i n cos(kL). Each element comes
    out the same as a scalar call at that frequency, to the bit.
    """
    w = np.asarray(omega)
    if np.any(w == 0):
        raise ValueError("green_coefficients needs omega != 0")
    a = 1.0 - 1j * cfg.lambda_mirror
    n = np.asarray(refractive_index(w, cfg.medium))
    kl = n * w * cfg.length
    s, c = np.sin(kl), np.cos(kl)
    i_n_c = _cmul(1j * n, c)
    den = _cmul(a, s) + i_n_c
    g_t21 = 2.0 / den
    g_r21 = (_cmul(a.conjugate(), s) - i_n_c) / den
    g_t12 = _cmul(n, g_t21)
    return GreenCoefficients(*(_unwrap(g, complex) for g in (g_r21, g_t21, g_t12)))


def green_function(z, zprime: float, omega, cfg: CavityConfig):
    """G(z, z') of the defining equation above; z may be a numpy array.

    Region rule: z <= 0 is region 1 (vacuum), 0 < z <= L is region 2
    (the cavity medium); at the perfect mirror z = L the function
    vanishes through its sin(k(L - z)) factor. Points and sources must
    satisfy z, z' in [-5L, L].
    """
    L = cfg.length
    z = np.asarray(z, dtype=float)
    if np.any(z < -5.0 * L) or np.any(z > L) or not (-5.0 * L <= zprime <= L):
        raise ValueError("green_function is defined for z, z' in [-5L, L]")
    q = complex(omega)  # vacuum wavenumber, c = 1
    n = refractive_index(omega, cfg.medium)
    kp = n * q
    co = green_coefficients(omega, cfg)

    if zprime <= 0.0:
        # source in region 1
        g1 = (
            np.exp(1j * q * np.abs(z - zprime))
            + np.exp(-1j * q * z) * co.g_r21 * np.exp(-1j * q * zprime)
        ) / (-2j * q)
        g2 = (
            np.sin(kp * (L - z)) * co.g_t21 * np.exp(-1j * q * zprime)
        ) / (-2j * q)
    else:
        # source inside the cavity
        g1 = (
            np.exp(-1j * q * z) * co.g_t12 * np.sin(kp * (L - zprime))
        ) / (-2j * kp)
        lam = cfg.lambda_mirror
        den = (1.0 - 1j * lam) * np.sin(kp * L) + 1j * n * np.cos(kp * L)
        back = 2j * np.exp(1j * kp * L) * (1.0 - 1j * lam - n) / den
        g2 = (
            np.exp(1j * kp * np.abs(z - zprime))
            - np.exp(-1j * kp * (z - L)) * np.exp(-1j * kp * (zprime - L))
            + back * np.sin(kp * (L - z)) * np.sin(kp * (L - zprime))
        ) / (-2j * kp)
    return _unwrap(np.where(z <= 0.0, g1, g2), complex)


def _check_step(omega, zprime: float, cfg: CavityConfig, h: float):
    L = cfg.length
    if h > 1e-4 * L:
        raise StepSizeError(f"step h = {h:g} exceeds 1e-4 * L = {1e-4 * L:g}")
    kp = abs(refractive_index(omega, cfg.medium) * omega)
    if h * max(kp, abs(omega)) > 0.1:
        raise StepSizeError(
            f"step h = {h:g} does not resolve the wave (h*k = {h * kp:g} > 0.1)"
        )
    for b in (0.0, L):
        if abs(zprime - b) < 10.0 * h:
            raise StepSizeError(f"source z' = {zprime:g} within 10h of boundary {b:g}")


def ode_residual(zprime: float, omega: float, cfg: CavityConfig, h: float) -> float:
    """Max finite-difference residual of the defining wave equation.

    Evaluates G on a uniform grid over [-2L, L] and forms the central
    second difference, excluding points within 3h of the source, the
    membrane at z = 0, and the mirror at z = L. Returns

        max |G'' + omega^2 eps(z) G|  /  max |omega^2 eps(z) G|

    normalized by the largest source-term magnitude on the grid (a
    pointwise quotient is ill-conditioned at the nodes of the standing
    wave). Expect O(h^2 k^2) from truncation plus eps/(h^2 k^2) from
    rounding: ~2e-7 at h = 1e-5 L for an empty cavity.
    """
    _check_step(omega, zprime, cfg, h)
    L = cfg.length
    z = np.arange(-2.0 * L, L - 0.5 * h, h)
    g = green_function(z, zprime, omega, cfg)
    d2 = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / (h * h)
    zi = z[1:-1]
    eps_z = np.where(zi <= 0.0, 1.0 + 0.0j, epsilon(omega, cfg.medium))
    source = omega * omega * eps_z * g[1:-1]
    keep = (
        (np.abs(zi - zprime) >= 3.0 * h)
        & (np.abs(zi) >= 3.0 * h)
        & (np.abs(zi - L) >= 3.0 * h)
    )
    resid = np.abs(d2 + source)[keep]
    scale = float(np.max(np.abs(source[keep])))
    return float(np.max(resid)) / scale


def delta_jump(zprime: float, omega: float, cfg: CavityConfig, h: float) -> float:
    """One-sided-difference jump of dG/dz across the source (should be -1).

    Second-order stencils on either side of z', never straddling it.
    """
    _check_step(omega, zprime, cfg, h)
    gm2, gm1, g0, gp1, gp2 = (
        green_function(zprime + k * h, zprime, omega, cfg) for k in (-2, -1, 0, 1, 2)
    )
    right = (-3.0 * g0 + 4.0 * gp1 - gp2) / (2.0 * h)
    left = (3.0 * g0 - 4.0 * gm1 + gm2) / (2.0 * h)
    return (right - left).real
