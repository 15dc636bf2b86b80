"""Equal-time field commutators inside a loss-less dielectric.

For a mode of vacuum wavenumber q the dispersion is solved
self-consistently, Omega_q = q / n(Omega_q). Squared, n(W) W = q is the
bulk quartic W^2 eps(W) = q^2 of `dielectric.bulk_dispersion`, so
Omega_q is its closed-form root on the chosen branch, for one q or a
whole array at once. The commutator weights of the vector potential,
electric field, magnetic field, and displacement field pick up powers
n^-1, n^-3, n^-1, n^+1 of the index at Omega_q relative to their vacuum
values (natural units: hbar = eps0 = c = 1 and unit quantization area,
so the vacuum weights are 1/(2q) for the potential and q/2 for the
three fields).

The position-resolved pieces split by propagation direction: the
forward kernel `forward_commutator_decay` is exp(+i Re k (z - z')) damped
by exp(-Im k |z - z'|); the backward kernel is its conjugate, which is the
forward kernel with z and z' exchanged. Forward-plus with
backward-minus operators commute identically for z < z' (nothing has
propagated between them), which is structural and carries no numerics.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dielectric import MediumParams, _bulk_branches, _require_finite, _unwrap, refractive_index
from .errors import BranchError

__all__ = [
    "FieldCommutators",
    "solve_omega_q",
    "mode_commutators",
    "forward_commutator_decay",
]


@dataclass(frozen=True)
class FieldCommutators:
    """Equal-time mode commutator weights at a wavenumber q, or along an array of q.

    a_comm: vector potential, vacuum value 1/(2q), scales as n^-1.
    e_comm: electric field, vacuum value q/2, scales as n^-3.
    b_comm: magnetic field, vacuum value q/2, scales as n^-1.
    d_comm: displacement field, vacuum value q/2, scales as n^+1.
    """

    a_comm: float
    e_comm: float
    b_comm: float
    d_comm: float

    @classmethod
    def at_index(cls, q, n) -> "FieldCommutators":
        """The weights at vacuum wavenumber q and real index n, scalars or arrays.

        1/(2 q n) is taken as 0.5/(q n) and q/n^3 as q/n/n/n, which round
        alike for both and do not overflow where the weight is a double.
        """
        return cls(0.5 / (q * n), 0.5 * q / n / n / n, 0.5 * q / n, 0.5 * q * n)


def solve_omega_q(q, p: MediumParams, branch: str = "auto"):
    """Self-consistent mode frequency: the root of n(W) * W = q, shaped like q.

    The q <-> W map is monotonic on each propagating branch, so the
    branch picks the solution: "lower" lives below omega_t, "upper"
    above the stop band. "auto" chooses per element, lower for
    q < omega_t and upper otherwise. The root is `bulk_dispersion`'s at
    gamma = 0 (q itself in vacuum); it may round onto a band edge, where
    the index is q/W all the same. Raises BranchError for the upper branch
    below omega_t in vacuum, and ValueError where (q/omega_t)**2 or the
    branch it returns overflows: the other one may.
    """
    qq = np.array(q, dtype=float)
    if not np.all(qq > 0):
        raise ValueError("q must be positive")
    if branch not in ("lower", "upper", "auto"):
        raise ValueError(f"unknown branch {branch!r}")
    if p.beta4pi == 0.0:
        if branch == "upper" and np.any(qq < p.omega_t):
            raise BranchError("no upper branch in vacuum (beta = 0) below omega_t")
        return _unwrap(qq, float)
    lower = qq < p.omega_t if branch == "auto" else np.full(qq.shape, branch == "lower")
    w = np.where(lower, *_bulk_branches(qq, p)[0])
    _require_finite(qq, w, "returned branch")
    return _unwrap(w, float)


def mode_commutators(q, p: MediumParams, branch: str = "auto") -> FieldCommutators:
    """The four equal-time commutator weights at vacuum wavenumber q (or array).

    Takes the index n = q/Omega_q at the self-consistent Omega_q on the
    chosen propagating branch (see solve_omega_q) and applies the printed
    powers: n^-1, n^-3, n^-1, n^+1 on A, E, B, D.
    """
    q = _unwrap(np.asarray(q, dtype=float), float)
    return FieldCommutators.at_index(q, q / solve_omega_q(q, p, branch))


def forward_commutator_decay(
    z: float, zprime: float, omega: float, p: MediumParams
) -> complex:
    """Position-resolved forward commutator kernel in an absorbing medium.

    (1/(4 pi omega)) * (Re n / |n|^2) * exp(i Re k (z - z') - Im k |z - z'|)
    with k = n(omega) * omega. Coincident points give the real positive
    local weight; the modulus decays exponentially with rate Im k.
    Requires gamma > 0 (the decay length diverges as 1/gamma).
    """
    if not omega > 0:
        raise ValueError("omega must be positive")
    if not p.gamma > 0:
        raise ValueError("forward_commutator_decay needs an absorbing medium")
    n = refractive_index(omega, p)
    k = n * omega
    weight = (n.real / abs(n) ** 2) / (4.0 * math.pi * omega)
    dz = z - zprime
    return weight * cmath.exp(1j * k.real * dz - k.imag * abs(dz))

