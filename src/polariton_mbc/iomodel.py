"""Input-output layer: the rate comparison of the two prescriptions.

Two prescriptions for the dissipation rate of a polariton resonance are
computed side by side:

* the boundary-condition rate `cavity.kappa_mbc`, evaluated at the
  resonance frequency found from the full transcendental condition, and
* the photon-weight rescaling kappa_rwa = |w|^2 * kappa0, built from the
  discrete two-mode diagonalization in `hopfield`.

`figure2_sweep` tabulates both routes over a grid of coupling strengths
so their opposite trends in the ultrastrong regime are visible in one
table. All quantities are expressed in units of the excitation
frequency (omega_t = 1, c = 1). The one-pole input-output model is the
tests' oracle for kappa_mbc against the exact r of `cavity.amplitudes`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .cavity import CavityConfig, _kappa, _mode_roots, kappa_bare, tuned_length
from .dielectric import MediumParams, _unwrap
from .hopfield import HopfieldModes, hopfield_modes, weight
from .tables import SweepTable

__all__ = [
    "kappa_rwa",
    "kappa_fit",
    "figure2_sweep",
]


def kappa_rwa(modes: HopfieldModes, kappa0: float):
    """Photon-weight rescaling of the bare rate: |w|^2 * kappa0, per mode."""
    if not kappa0 > 0:
        raise ValueError("kappa0 must be positive")
    return weight(modes.w) * kappa0


def kappa_fit(omega, kappa0: float, omega_t: float = 1.0):
    """Inverse-square frequency fit kappa0 / (1 + (omega/omega_t)^2).

    Good-cavity approximation to the boundary-condition rate along the
    tuned-resonance curve; exact where n(W)*W = omega_t holds.
    """
    w = np.asarray(omega, dtype=float) / omega_t
    out = kappa0 / (1.0 + w * w)
    return _unwrap(out, float)


def _tuned(lambda_mirror: float) -> tuple[float, float]:
    """Length and kappa_bare of the empty cavity tuned to omega_t = 1."""
    length = tuned_length(lambda_mirror, MediumParams())
    return length, kappa_bare(CavityConfig(length, lambda_mirror, MediumParams()))


def figure2_sweep(
    rabi_grid: Sequence[float],
    lambda_mirror: float,
    kappa0: float | None = None,
) -> SweepTable:
    """Polariton frequencies and rates from both routes over a coupling sweep.

    For each rabi (in units of omega_t): the medium gets 4*pi*beta =
    4*rabi^2, the cavity length L stays tuned so the empty fundamental
    sits at omega_t, and the two m = 1 resonances on either side of the
    stop band give the *_mbc columns. The two-mode problem with
    photon_freq = omega_t gives the *_disc frequencies and the
    |w|^2-rescaled rates, all couplings in one `hopfield_modes` call.
    kappa0 defaults to kappa_bare of the tuned cavity.

    L does not depend on the coupling, so every (coupling, branch) root
    is the m = 1 root of `cavity._mode_roots`, all solved in one call, a
    double or two from the exact root; the tuned L Lambda > 1 for Lambda
    >= 5 makes it unique. A coupling whose two-mode closed forms leave the
    float range raises ValueError, as does a perfect mirror (Lambda = inf),
    whose m = 1 roots sit on their bracket bottom qL = pi.

    Columns: rabi_over_wt, omega_L_mbc, omega_U_mbc, omega_L_disc,
    omega_U_disc, kappa_L_mbc, kappa_U_mbc, kappa_L_rwa, kappa_U_rwa.
    """
    grid = np.asarray(rabi_grid, dtype=float)
    if grid.ndim != 1 or not grid.size or grid[0] <= 0.0:
        raise ValueError("rabi_grid must be positive")
    if np.any(grid[1:] <= grid[:-1]):
        raise ValueError("rabi_grid must be strictly increasing")
    if not 5.0 <= lambda_mirror < math.inf:
        raise ValueError("lambda_mirror must be finite and in the good-cavity regime (>= 5)")

    length, k_bare = _tuned(lambda_mirror)
    modes = hopfield_modes(1.0, 1.0, grid)
    modes.require_finite(grid)
    b4 = 4.0 * np.square(grid)[:, None]  # (coupling, 1) against (branch,) below
    w, n, _ = _mode_roots(1, length, lambda_mirror, b4, [False, True])
    kappa = _kappa(w, n, b4, lambda_mirror, length)
    rwa = kappa_rwa(modes, k_bare if kappa0 is None else kappa0)
    pairs = {"omega_{}_mbc": w.T, "omega_{}_disc": modes.omega, "kappa_{}_mbc": kappa.T,
             "kappa_{}_rwa": rwa}  # name: (lower, upper)
    return SweepTable([("rabi_over_wt", grid)] + [
        (name.format(tag), col) for name, cols in pairs.items() for tag, col in zip("LU", cols)
    ])
