"""Bogoliubov diagonalization of the light-matter Hamiltonian.

One photon mode (a bulk plane wave or a discrete cavity mode) couples
to one matter excitation, with counter-rotating and diamagnetic terms
kept. The positive-frequency eigenmodes are the lower and upper
polaritons; their (w, x, y, z) coefficients weigh the photon,
excitation, anti-photon and anti-excitation operators.

The public path below uses closed forms for both eigenfrequencies and
eigenvectors. The test suite re-derives everything from a dense
eigensolve of `bogoliubov_matrix` so that the two routes stay
independent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Branch",
    "BogoliubovProblem",
    "HopfieldMode",
    "bogoliubov_matrix",
    "eigenfrequencies",
    "diagonalize",
    "photon_weight",
]


class Branch(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"
    BARE = "bare"  # used by cavity resonances when the medium is empty

    def __str__(self):
        return self.value


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
        if self.rabi < 0:
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
        return 4.0 * self.rabi * self.rabi * self.photon_freq / self.omega_t**3


@dataclass(frozen=True)
class HopfieldMode:
    """One positive-frequency polariton eigenmode."""

    branch: Branch
    omega: float
    w: complex
    x: complex
    y: complex
    z: complex

    def vector(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=complex)

    @property
    def norm(self) -> float:
        """Bosonic normalization |w|^2 + |x|^2 - |y|^2 - |z|^2 (should be 1)."""
        return (
            abs(self.w) ** 2 + abs(self.x) ** 2 - abs(self.y) ** 2 - abs(self.z) ** 2
        )


def bogoliubov_matrix(prob: BogoliubovProblem) -> np.ndarray:
    """The 4x4 non-Hermitian matrix of the eigenproblem M v = omega v.

    Basis order (photon, excitation, anti-photon, anti-excitation);
    the spectrum consists of the two polariton frequencies and their
    negatives.
    """
    wc, wt, g = prob.photon_freq, prob.omega_t, prob.rabi
    a2 = 2.0 * prob.diamagnetic
    return np.array(
        [
            [wc + a2, -1j * g, -a2, -1j * g],
            [1j * g, wt, -1j * g, 0.0],
            [a2, -1j * g, -wc - a2, -1j * g],
            [-1j * g, 0.0, 1j * g, -wt],
        ],
        dtype=complex,
    )


def eigenfrequencies(prob: BogoliubovProblem) -> tuple[float, float]:
    """Closed-form (omega_lower, omega_upper), both positive.

    Roots of  omega**4 - omega**2 (omega_c**2 + omega_t**2 + g) +
    omega_c**2 omega_t**2 = 0  with g = coupling4pi * omega_t**2.
    The lower root is computed from the product of roots to avoid
    cancellation when photon_freq is small.
    """
    r = (prob.photon_freq / prob.omega_t) ** 2
    s = 1.0 + prob.coupling4pi + r
    disc = math.sqrt(s * s - 4.0 * r)
    upper = prob.omega_t * math.sqrt(0.5 * (s + disc))
    lower = prob.omega_t * math.sqrt(2.0 * r / (s + disc))
    return lower, upper


def _closed_form_mode(branch: Branch, omega: float, sign: float, prob: BogoliubovProblem) -> HopfieldMode:
    # template for the eigenvector at eigenfrequency omega; the upper
    # branch carries an overall minus sign so that w stays real positive
    wt, wc = prob.omega_t, prob.photon_freq
    g4 = prob.coupling4pi
    sq = 0.5 * math.sqrt(g4)  # sqrt(pi * beta_eff)
    rw = omega / wt
    d = 1.0 - rw * rw
    pref = sign / math.sqrt(rw * (d * d + g4))
    scale = math.sqrt(wt / wc) / (2.0 * wt)
    w = pref * d * (omega + wc) * scale
    x = pref * (-1j) * sq * (1.0 + rw)
    y = pref * d * (omega - wc) * scale
    z = pref * (-1j) * sq * (1.0 - rw)
    return HopfieldMode(branch, omega, complex(w), complex(x), complex(y), complex(z))


def diagonalize(prob: BogoliubovProblem) -> tuple[HopfieldMode, HopfieldMode]:
    """Both polariton modes with closed-form Hopfield coefficients.

    Phase convention: w is real positive on both branches, and the
    excitation amplitude is x = -i*sqrt(pi*beta_eff)*(1 + omega/omega_t)
    on the lower branch (the upper branch flips the overall sign).

    The decoupled case rabi = 0 is resolved explicitly: the photon-like
    mode has w = 1 and the excitation-like mode has x = +i or -i,
    matching the rabi -> 0 limit of the closed forms on either side of
    the crossing. At the exact degeneracy photon_freq = omega_t the
    photon-like mode is labeled Lower.
    """
    if prob.rabi == 0.0:
        photon_is_lower = prob.photon_freq <= prob.omega_t
        exc_x = 1j if photon_is_lower else -1j
        photon = HopfieldMode(
            Branch.LOWER if photon_is_lower else Branch.UPPER,
            prob.photon_freq,
            1.0 + 0j, 0j, 0j, 0j,
        )
        exc = HopfieldMode(
            Branch.UPPER if photon_is_lower else Branch.LOWER,
            prob.omega_t,
            0j, exc_x, 0j, 0j,
        )
        return (photon, exc) if photon_is_lower else (exc, photon)

    lo, hi = eigenfrequencies(prob)
    return (
        _closed_form_mode(Branch.LOWER, lo, +1.0, prob),
        _closed_form_mode(Branch.UPPER, hi, -1.0, prob),
    )


def photon_weight(mode: HopfieldMode) -> float:
    """|w|^2, the photon content entering the number-conserving dissipation rate."""
    return abs(mode.w) ** 2
