"""Bogoliubov diagonalization of the light-matter Hamiltonian.

One photon mode (a bulk plane wave or a discrete cavity mode) couples
to one matter excitation, with counter-rotating and diamagnetic terms
kept. The positive-frequency eigenmodes are the lower and upper
polaritons; their (w, x, y, z) coefficients weigh the photon,
excitation, anti-photon and anti-excitation operators.

The one entry point is an array kernel, `hopfield_modes`: closed forms for
both eigenfrequencies and eigenvectors over a whole array of couplings,
with the decoupled case rabi = 0 resolved per element. A coupling sweep
is one call. The test suite re-derives everything from a dense
eigensolve of the 4x4 Bogoliubov matrix (tests/oracles.py) so that the
two routes stay independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dielectric import _branches

__all__ = ["BogoliubovProblem", "HopfieldModes", "hopfield_modes", "weight"]


def _coupling4pi(g, c):
    """4 pi beta_eff = 4 g**2 c at g = rabi/omega_t and c = photon_freq/omega_t."""
    return 4.0 * g * g * c


@dataclass(frozen=True)
class BogoliubovProblem:
    """One photon mode coupled to one matter excitation.

    photon_freq
        Bare photon frequency: c|k| for a bulk plane wave, or the bare
        cavity frequency for a discrete mode.
    omega_t
        Transverse excitation frequency.
    rabi
        Coupling strength (vacuum Rabi frequency of this mode), >= 0.
    """

    photon_freq: float
    omega_t: float = 1.0
    rabi: float = 0.0

    def __post_init__(self):
        if not self.photon_freq > 0:
            raise ValueError("photon_freq must be positive")
        if not self.omega_t > 0:
            raise ValueError("omega_t must be positive")
        if not self.rabi >= 0:
            raise ValueError("rabi must be non-negative")

    @property
    def diamagnetic(self) -> float:
        """Coefficient of the squared-vector-potential term, pinned to rabi**2/omega_t."""
        return self.rabi * self.rabi / self.omega_t

    @property
    def coupling4pi(self) -> float:
        """Effective 4*pi*beta reproducing this problem's spectrum.

        4 * rabi**2 * photon_freq / omega_t**3; reduces to the bulk
        medium value 4*rabi**2/omega_t**2 on resonance
        photon_freq = omega_t.
        """
        return _coupling4pi(self.rabi / self.omega_t, self.photon_freq / self.omega_t)


class HopfieldModes(NamedTuple):
    """Both polariton modes over an array of couplings.

    Each field has shape (2, *shape): index 0 is the lower branch and 1
    the upper one. omega is real; w, x, y and z are complex. Phase
    convention: w is real positive on both branches, and the excitation
    amplitude is x = -i*sqrt(pi*beta_eff)*(1 + omega/omega_t) on the
    lower branch (the upper branch flips the overall sign). (A
    NamedTuple: defining a frozen dataclass costs about 1 ms of import
    time.)
    """

    omega: np.ndarray
    w: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    @property
    def finite(self) -> np.ndarray:
        """Per coupling, whether both modes' frequencies and coefficients are finite."""
        return np.isfinite(tuple(self)).all(axis=(0, 1))

    def require_finite(self, rabi_over_wt) -> None:
        """Raise ValueError naming the first coupling that is not `finite`."""
        bad = np.atleast_1d(rabi_over_wt)[~self.finite]
        if bad.size:
            raise ValueError(
                f"the two-mode closed forms leave the float range at rabi/omega_t = {bad[0]:g}"
            )


def hopfield_modes(photon_freq, omega_t, rabi) -> HopfieldModes:
    """Closed-form frequencies and Hopfield coefficients of both modes.

    rabi is taken as an at-least-1-d array; photon_freq and omega_t
    broadcast against it. In units of omega_t, with c = photon_freq/omega_t,
    each frequency rw = omega/omega_t and its band-edge detuning d = rw**2 - 1
    are `dielectric._branches` at q = c and 4*pi*beta = coupling4pi: the
    two-mode problem's quartic is the bulk one. Each eigenvector follows
    from a template at rw, with 1 - rw and rw - c written through d, and an
    overall minus sign on the upper branch so that w stays real positive.

    Where rabi = 0 the photon-like mode has w = 1 and the excitation-like
    mode x = +i or -i, the rabi -> 0 limit on either side of the crossing;
    at the degeneracy photon_freq = omega_t the photon-like mode is the
    lower one. A coupling whose closed forms leave the float range (4
    rabi**2 underflowing at the degeneracy, d**2 overflowing above rabi ~
    6e76 omega_t) gets non-finite entries; see `HopfieldModes.finite`.
    """
    wc = np.asarray(photon_freq, dtype=float)
    wt = np.asarray(omega_t, dtype=float)
    g = np.atleast_1d(np.asarray(rabi, dtype=float))
    if not ((wc > 0).all() and (wt > 0).all() and (g >= 0).all()):
        raise ValueError("need photon_freq > 0, omega_t > 0 and rabi >= 0")
    with np.errstate(all="ignore"):  # out-of-range couplings show in .finite
        c = wc / wt
        g4 = _coupling4pi(g / wt, c)
        rw, d = _branches(c, g4)
        sq = 0.5 * np.sqrt(g4)  # sqrt(pi * beta_eff)
        norm = rw * (d * d + g4)  # inf is an overflow, not a zero weight
        root = np.sqrt(np.where(np.isinf(norm), np.nan, norm))
        sign = np.array([1.0, -1.0]).reshape((2,) + (1,) * g4.ndim)
        scale = 0.5 / np.sqrt(c)
        # -sign d = |d|, 1 - rw = -d/(1 + rw), rw - c = rw**2 g4/(d (rw + c))
        w = (np.abs(d) * (rw + c) * scale / root).astype(complex)
        x = -1j * (sign * sq * (1.0 + rw) / root)
        y = (-sign * g4 * rw * (rw / (rw + c)) * scale / root).astype(complex)
        z = 1j * (sign * sq * d / ((1.0 + rw) * root))
    omega = rw * wt
    off = g == 0.0
    if off.any():
        below = np.broadcast_to(wc <= wt, g4.shape)  # the photon-like mode is lower
        omega = np.where(off, [np.where(below, wc, wt), np.where(below, wt, wc)], omega)
        w = np.where(off, [below, ~below], w)
        x = np.where(off, [np.where(below, 0j, -1j), np.where(below, 1j, 0j)], x)
        y, z = np.where(off, 0j, y), np.where(off, 0j, z)
    return HopfieldModes(omega, w, x, y, z)


def weight(amplitude):
    """|amplitude|**2, squared by one multiplication, for scalars and arrays alike."""
    a = abs(amplitude)
    return a * a
