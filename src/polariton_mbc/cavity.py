"""Delta-mirror cavity: boundary-condition spectra, resonances, dissipation rate.

The cavity occupies 0 < z < L with a perfect mirror at z = L and a thin
partially transparent mirror at z = 0 characterized by the dimensionless
parameter Lambda (large Lambda = good cavity). Inside is the polariton
medium of `dielectric`; outside is vacuum.

Conventions (c = 1): an incoming unit wave from z < 0 produces the
intracavity standing-wave amplitude `intracavity_transfer` and the
reflected amplitude `reflection`. Resonances solve

    tan(n(W) * W * L) = n(W) / Lambda

and each carries the boundary-condition dissipation rate

    kappa_mbc(W) = 2 * n(W) * v_g(W) / (Lambda**2 * L).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dielectric import MediumParams, _branches, _refractive_index, _unwrap
from .dielectric import group_velocity, refractive_index
from .errors import PeakExtractionError, ResonanceScanError, StopBandError
from .hopfield import Branch
from .tables import SweepTable

__all__ = [
    "CavityConfig",
    "Resonance",
    "intracavity_transfer",
    "reflection",
    "find_resonances",
    "kappa_mbc",
    "kappa_bare",
    "tuned_length",
    "lorentzian_extract",
]


@dataclass(frozen=True)
class CavityConfig:
    """Cavity length, front-mirror transparency parameter, and the enclosed medium."""

    length: float
    lambda_mirror: float
    medium: MediumParams

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError("length must be positive")
        if not self.lambda_mirror > 0:
            raise ValueError("lambda_mirror must be positive")
        try:
            self.lambda_mirror**2  # as kappa_mbc and kappa_bare square it
        except OverflowError:
            raise ValueError(
                f"lambda_mirror = {self.lambda_mirror!r} is too large: its square overflows"
            ) from None


@dataclass(frozen=True)
class Resonance:
    """A cavity resonance: center frequency, dissipation rate, branch, mode index.

    mode_index counts the tan branch, m = floor(n*W*L/pi) at the root.
    The tuned fundamental has m = 1; a sub-fundamental m = 0 root exists
    near W ~ 1/(Lambda*L) and is reported as such when a search window
    includes it.
    """

    omega: float
    kappa: float
    branch: Branch
    mode_index: int


def _amplitude_kernel(omega, cfg: CavityConfig):
    """n, e = exp(i k L) and D = (1 - i*Lambda)(e^2 - 1) - n (e^2 + 1), k = n omega.

    D is the one denominator of the membrane boundary conditions, shared
    by T, r and the Green's function. Im n >= 0 keeps |e| <= 1, so no
    term overflows. At least 1-d, as in dielectric._epsilon, so that a
    scalar omega rounds as it does inside an array.
    """
    w = np.array(omega, dtype=complex, ndmin=1)
    p = cfg.medium
    n = _refractive_index(w, p.omega_t, p.beta4pi, p.gamma)
    e = np.exp(1j * cfg.length * (n * w))
    e2 = e * e
    return n, e, (1.0 - 1j * cfg.lambda_mirror) * (e2 - 1.0) - n * (e2 + 1.0)


def intracavity_transfer(omega, cfg: CavityConfig):
    """Intracavity amplitude per unit incoming amplitude, T(w) = 4i e / D.

    This is 2 / {(1 - i*Lambda) sin(k L) + i n cos(k L)} divided through
    by e^{-ikL}, which stays finite deep in the stop band; the field in
    the cavity is T sin(k(L - z)). |T| peaks at the resonances. If n is
    non-finite (gamma = 0 exactly at the pole) the non-finite sentinel
    propagates to the result.
    """
    _, e, den = _amplitude_kernel(omega, cfg)
    return _unwrap((4j * e / den).reshape(np.shape(omega)), complex)


def reflection(omega, cfg: CavityConfig):
    """Reflected amplitude r(w) = T(w) sin(k L) - 1 = 2 (e^2 - 1) / D - 1.

    For real n this is -e^2 conj(D) / D, so |r| = 1 with gamma = 0 in a
    transparency window: the loss-less cavity with a perfect back mirror
    returns all the energy. Absorption (gamma > 0, beta4pi > 0) pulls
    |r| below 1 near the excitation resonance.
    """
    _, e, den = _amplitude_kernel(omega, cfg)
    return _unwrap((2.0 * (e * e - 1.0) / den - 1.0).reshape(np.shape(omega)), complex)


def tuned_length(lambda_mirror: float, medium: MediumParams) -> float:
    """Shortest length past one half-wave that puts the bare m = 1 mode at omega_t.

    L = (pi + arctan(1/Lambda)) / omega_t; tends to pi/omega_t for an
    ideal mirror.
    """
    if not lambda_mirror > 0:
        raise ValueError("lambda_mirror must be positive")
    return (math.pi + math.atan(1.0 / lambda_mirror)) / medium.omega_t


def kappa_mbc(omega, cfg: CavityConfig):
    """Boundary-condition dissipation rate 2 n v_g / (Lambda**2 L), gamma = 0.

    Takes a scalar or an array omega. Raises StopBandError (propagated
    from group_velocity) if any omega lies in the stop band.
    """
    p = cfg.medium.lossless()
    n = refractive_index(omega, p).real
    vg = group_velocity(omega, p)
    return 2.0 * n * vg / (cfg.lambda_mirror**2 * cfg.length)


def kappa_bare(cfg: CavityConfig) -> float:
    """Empty-cavity rate kappa_0 = 2 / (Lambda**2 L)."""
    return 2.0 / (cfg.lambda_mirror**2 * cfg.length)


def _bisect(f, a, b, tol: float):
    """Bisect an elementwise f on every bracket [a, b] at once.

    Per element: halve until narrower than tol with |f| < 1e-9 at an end,
    or until the midpoint no longer splits it; return the end with the
    smaller |f|. Finished elements stay frozen, so each root is the one a
    scalar loop on its own bracket returns.
    """
    fa, fb = f(a), f(b)
    live = np.ones(np.shape(a), dtype=bool)
    for _ in range(120):
        mid = 0.5 * (a + b)
        live &= (mid > a) & (mid < b)  # else at floating-point resolution
        if not live.any():
            break
        fm = f(mid)
        left = fa * fm <= 0.0
        to_b, to_a = live & left, live & ~left
        b, fb = np.where(to_b, mid, b), np.where(to_b, fm, fb)
        a, fa = np.where(to_a, mid, a), np.where(to_a, fm, fa)
        live &= ~((b - a < tol) & (np.minimum(np.abs(fa), np.abs(fb)) < 1e-9))
    return np.where(np.abs(fa) <= np.abs(fb), a, b)


def _mode_roots(m, length, lambda_mirror, omega_t, beta4pi, upper, lo=0.0, hi=math.inf):
    """Mode m's root of tan(n W L) = n/Lambda on one branch: (W, n, inside, certified).

    The root has qL in (m pi, (m + 1/2) pi), q = n(W) W, where tan runs
    from 0 to +inf; the top stops 1e-6 short of the pole, where rounding
    loses the sign of tan. `_branches` maps both ends to W on the lower
    or, where `upper`, the upper branch (W = q in vacuum), and [lo, hi]
    clips them. `inside` is False where a clipped end shows the root
    outside [lo, hi] (f > 0 at a clipped bottom, f < 0 at a clipped top).
    All brackets are bisected at once to |dW| < 1e-12 omega_t, at gamma =
    0; m, beta4pi and upper broadcast together.

    While L Lambda omega_t > 1, f = tan(qL) - n/Lambda increases strictly
    in each bracket: d tan(qL)/dq >= L, while dn/dq = 4 pi beta W /
    ((u - 1)^2 + 4 pi beta), u = W^2 (omega_t = 1), stays below its sup
    1/omega_t at the lower band edge. So `certified`, |f| < 1e-9 at a W
    with floor(n W L/pi) = m, identifies the bracket's one root, and an
    unclipped end needs no sign test: next to omega_t f is not defined.
    """

    def f(w):
        n = _refractive_index(w, omega_t, beta4pi, 0.0).real
        return np.tan(n * w * length) - n / lambda_mirror

    bottom, top = m * math.pi / length, ((m + 0.5) * math.pi - 1e-6) / length
    if np.ndim(beta4pi) or beta4pi > 0.0:  # else vacuum, W = q
        omega_l = omega_t * np.sqrt(1.0 + beta4pi)
        bottom, top = (
            np.where(upper, *_branches(q, omega_t, omega_l)[::-1]) for q in (bottom, top)
        )
    a, b = np.maximum(bottom, lo), np.minimum(top, hi)
    with np.errstate(invalid="ignore"):  # f(omega_t) = tan(inf) - inf
        inside = a <= b
        if np.any(bottom < lo) or np.any(top > hi):  # f only where an end is clipped
            inside &= ~((bottom < lo) & (f(a) > 0.0)) & ~((top > hi) & (f(b) < 0.0))
        w = _bisect(f, a, b, 1e-12 * omega_t)
        n = _refractive_index(w, omega_t, beta4pi, 0.0).real
        certified = (np.abs(f(w)) < 1e-9) & (np.floor(n * w * length / math.pi) == m)
    return w, n, inside, certified


def find_resonances(
    cfg: CavityConfig,
    omega_range: tuple[float, float],
    max_count: int | None = None,
) -> list[Resonance]:
    """All roots of tan(n W L) = n/Lambda in omega_range, ascending.

    On each transparent leg (the stop band is skipped) every mode m from
    floor(n W L/pi) at the leg's bottom to that at its top is solved in
    its own bracket by one `_mode_roots` call, and the rates come from
    one kappa_mbc call. At most `max_count` roots are returned, and none
    past them is checked. A root in the window that cannot be certified
    raises ResonanceScanError naming its mode, as happens next to
    omega_t where the lower-branch modes pile up; none is dropped. A
    medium needs L Lambda omega_t > 1, else ValueError.
    """
    lo, hi = omega_range
    if not (lo < hi):
        raise ValueError("empty frequency range")
    if not lo > 0:
        raise ValueError("range must be positive")
    p = cfg.medium.lossless()
    if p.beta4pi > 0.0 and not cfg.length * cfg.lambda_mirror * p.omega_t > 1.0:
        raise ValueError("one root per mode needs length * lambda_mirror * omega_t > 1")
    legs = [(lo, hi)]
    if p.beta4pi > 0.0:  # skip the stop band
        wt, wl = p.stop_band()
        edge = 1e-9 * p.omega_t
        legs = [(lo, min(hi, wt - edge)), (max(lo, wl + edge), hi)]
    legs = [(a, b) for a, b in legs if b > a]
    if not legs:
        raise StopBandError(
            f"range [{lo:g}, {hi:g}] lies inside the stop band {p.stop_band()}"
        )

    found: list[Resonance] = []
    for leg in legs:
        upper = leg[0] > p.omega_t
        ends = np.array(leg)
        n = _refractive_index(ends, p.omega_t, p.beta4pi, 0.0).real
        m_lo, m_hi = np.floor(n * ends * cfg.length / math.pi)
        if not m_hi < 2.0**53:  # else consecutive mode indices are not distinct floats
            raise ResonanceScanError(f"mode index {m_hi:g} exceeds floating-point resolution")
        if max_count is not None:  # one spare: the first root may lie below the leg
            m_hi = min(m_hi, m_lo + max_count - len(found))
        modes = np.arange(int(m_lo), int(m_hi) + 1)
        roots, _, inside, certified = _mode_roots(
            modes, cfg.length, cfg.lambda_mirror, p.omega_t, p.beta4pi, upper, *leg
        )
        take = np.flatnonzero(inside)[: None if max_count is None else max_count - len(found)]
        roots, modes, certified = roots[take], modes[take], certified[take]
        if not certified.all():
            j = int(np.argmin(certified))
            raise ResonanceScanError(
                f"mode {modes[j]} has no root with |f| < 1e-9 and mode index "
                f"{modes[j]} near omega = {roots[j]:g}"
            )
        branch = Branch.BARE if p.beta4pi == 0.0 else Branch.UPPER if upper else Branch.LOWER
        for root, kappa, m in zip(roots, kappa_mbc(roots, cfg), modes):
            found.append(Resonance(float(root), float(kappa), branch, int(m)))
    return found


def lorentzian_extract(spectrum: SweepTable) -> tuple[float, float]:
    """Peak center and FWHM of a sampled line |T|^2 -> (omega_c, kappa).

    Expects a table whose first column is the frequency axis and whose
    second column is the intensity, covering one isolated peak with
    enough points (>= 50 across >= 6 half-widths) for interpolation.
    The center comes from a parabola through the three samples around
    the maximum; the width from linear interpolation of the half-maximum
    crossings. Raises PeakExtractionError if the peak touches the grid
    boundary or a half-maximum crossing is not bracketed.
    """
    names = spectrum.names
    w = np.asarray(spectrum.column(names[0]))
    y = np.asarray(spectrum.column(names[1]))
    i = int(np.argmax(y))
    if i == 0 or i == len(y) - 1:
        raise PeakExtractionError("peak touches the grid boundary")
    # parabolic refinement of the vertex
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        raise PeakExtractionError("flat-top peak, cannot interpolate the center")
    shift = 0.5 * (y0 - y2) / denom
    center = w[i] + shift * (w[i + 1] - w[i])
    peak = y1 - 0.25 * (y0 - y2) * shift
    half = 0.5 * peak

    def crossing(direction: int) -> float:
        j = i
        while 0 <= j + direction < len(y):
            j += direction
            if y[j] < half:
                # linear interpolation between j and j-direction
                a, b = j - direction, j
                frac = (y[a] - half) / (y[a] - y[b])
                return float(w[a] + frac * (w[b] - w[a]))
        raise PeakExtractionError("half-maximum crossing not bracketed by the grid")

    left = crossing(-1)
    right = crossing(+1)
    return float(center), right - left
