"""One-dimensional Green's function of the mirror-terminated cavity.

G(z, z') solves

    -[d^2/dz^2 + omega^2 eps(z, omega)] G(z, z') = delta(z - z')

with eps = 1 for z < 0 (region 1), the medium dielectric function for
0 < z < L (region 2), and G = 0 at the perfect mirror z = L. Its closed
form divides by the membrane denominator D of `cavity`, the one behind
r and T, so comparing G with those amplitudes would compare D with
itself. The checks here use only the defining properties, by finite
differences: `ode_residual` (the wave equation in both regions),
`delta_jump` (the unit kink at the source) and `membrane_jump` (the
kink G'(0+) - G'(0-) = -Lambda omega G(0) at the membrane). With
G(L) = 0 they fix G without the shared formula.

All formulas use c = 1.
"""

from __future__ import annotations

import math

import numpy as np

from .cavity import CavityConfig, _amplitude_kernel
from .dielectric import _unwrap, epsilon, refractive_index
from .errors import StepSizeError

__all__ = [
    "green_function",
    "ode_residual",
    "delta_jump",
    "membrane_jump",
    "fd_error",
    "fd_step",
]


def green_function(z, zprime, omega, cfg: CavityConfig):
    """G(z, z') of the defining equation above, at omega != 0.

    With k = n omega, D from `cavity` and s(y) = e^{ik(2L - y)} - e^{iky}
    = 2i e^{ikL} sin(k(L - y)), so that T sin(k(L - y)) = 2 s(y)/D, -2i G is

        source, field in region 1: [e^{i omega|z - z'|} - b + 2 s(0) b / D] / omega
        source in 1, field in 2:   2 s(z) e^{-i omega z'} / (D omega)
        source in 2, field in 1:   2 n e^{-i omega z} s(z') / (D k)
        source, field in 2:  [e^{ik|z - z'|} - e^{ik(2L - z - z')} + c s(z) s(z')] / k

    with b = e^{-i omega(z + z')} and c = (1 - i*Lambda - n)/D. The first
    line is r = 2 s(0)/D - 1 written out: 1 + r is O(1/Lambda), so
    forming r and adding 1 back would leave G there only about Lambda eps
    of relative accuracy. No exponential grows, as Im k >= 0, so G stays
    finite deep in the stop band.

    z, zprime and omega broadcast together, so one call can evaluate a
    grid for one source or many (z, z', omega) triples at once. Region
    rule: z <= 0 is region 1 (vacuum), 0 < z <= L is region 2 (the
    cavity medium), and likewise for the source; at the perfect mirror
    z = L the function vanishes as s(L) = 0. Each point is evaluated by
    the formula of its own pair of regions only. Points and sources must
    satisfy z, z' in [-5L, L].
    """
    L = cfg.length
    z, zp = np.asarray(z, dtype=float)[()], np.asarray(zprime, dtype=float)[()]
    if np.any(z < -5.0 * L) or np.any(z > L) or np.any(zp < -5.0 * L) or np.any(zp > L):
        raise ValueError("green_function is defined for z, z' in [-5L, L]")
    if np.any(np.asarray(omega) == 0):
        raise ValueError("green_function needs omega != 0")
    shape = np.broadcast_shapes(z.shape, zp.shape, np.shape(omega))
    q, kp, n, den = _kernel(omega, cfg)

    def at(x, mask):
        """x on the points of mask; a scalar stays one."""
        return x if np.ndim(x) == 0 else np.broadcast_to(x, shape)[mask]

    out = np.empty(shape, dtype=complex)
    field_out, source_out = z <= 0.0, zp <= 0.0
    for src in (True, False):
        for fld in (True, False):
            mask = np.broadcast_to((source_out == src) & (field_out == fld), shape)
            if mask.any():
                terms = (at(x, mask) for x in (q, kp, n, den))
                out[mask] = _region(at(z, mask), at(zp, mask), src, fld, *terms, cfg)
    return _unwrap(out, complex)


def _kernel(omega, cfg: CavityConfig):
    """omega, k = n omega, n and D of G's formulas, shaped like omega: a
    scalar omega gives numpy scalars."""
    q = np.asarray(omega, dtype=complex)  # vacuum wavenumber, c = 1
    n, _, den = (x.reshape(q.shape) for x in _amplitude_kernel(omega, cfg))
    return tuple(x[()] for x in (q, n * q, n, den))


def _standing(y, k, L):
    """s(y) = e^{ik(2L - y)} - e^{iky}."""
    return np.exp(1j * k * (2.0 * L - y)) - np.exp(1j * k * y)


def _region(x, y, src, fld, w, k, n, d, cfg: CavityConfig, sx=None):
    """G at field points x for sources y, all in regions src and fld (True
    for z <= 0), by `green_function`'s formula for that pair; sx is s(x),
    computed here when not given."""
    L = cfg.length
    if not fld and sx is None:
        sx = _standing(x, k, L)
    if src and fld:
        back = np.exp(-1j * w * (x + y))
        g = (np.exp(1j * w * np.abs(x - y)) - back + 2.0 * _standing(0.0, k, L) / d * back) / w
    elif fld:
        g = 2.0 * n * np.exp(-1j * w * x) * _standing(y, k, L) / (d * k)
    elif src:
        g = 2.0 * sx * np.exp(-1j * w * y) / (d * w)
    else:
        c = (1.0 - 1j * cfg.lambda_mirror - n) / d
        g = np.exp(1j * k * np.abs(x - y)) - np.exp(1j * k * (2.0 * L - x - y))
        g = (g + c * sx * _standing(y, k, L)) / k
    return g / -2j


# interior grid points per slab of ode_residual: its transients peak at
# 0.60 MB (tracemalloc), for one source or two, at any step
_SLAB_POINTS = 4096

# smallest finite-difference step, in units of L: it keeps ode_residual's
# grid over [-2L, L] at 300,000 points or fewer
_MIN_STEP = 1e-5


def _wavenumber(omega, cfg: CavityConfig) -> float:
    """max(|n omega|, omega): the fastest phase a grid must resolve."""
    return max(abs(refractive_index(omega, cfg.medium) * omega), abs(omega))


def _rounding(omega, cfg: CavityConfig) -> float:
    """R of the rounding term R/(hk)^2 of `fd_error`, refused where it overflows."""
    wl = abs(omega * cfg.length)
    if not wl > 2.0 / np.finfo(float).max:
        raise StepSizeError(f"omega L = {wl:g} is too small to check G by finite differences")
    return 2.0 * np.finfo(float).eps * (5.0 + 1.0 / wl)


def _check_step(omega, zprime, cfg: CavityConfig, h: float):
    """Refuse a step that does not resolve the wave, or a source, or an
    array of them, within 10h of the membrane or the mirror."""
    hk = h * _wavenumber(omega, cfg)
    if hk > 0.1:
        raise StepSizeError(f"step h = {h:g} does not resolve the wave (h*k = {hk:g} > 0.1)")
    for y in np.ravel(zprime).tolist():
        for b in (0.0, cfg.length):
            # divided as fd_step divides its cap, so that h = clearance/10 passes
            if abs(y - b) / 10.0 < h:
                raise StepSizeError(f"source z' = {y:g} within 10h of boundary {b:g}")


def fd_error(omega: float, cfg: CavityConfig, h: float) -> float:
    """The error `ode_residual` and the kink checks leave at step h for the exact G.

    (hk)^2/3 + 2 eps (5 + 1/(omega L)) / (hk)^2 with k = max(|n omega|,
    omega). The first term is the truncation error of `delta_jump`'s
    one-sided stencils, (hk)^2/3 times |G'(z'+) + G'(z'-)|, which stayed
    at or below 1 in every case measured, resonances included; it is four
    times `ode_residual`'s. The second is `ode_residual`'s rounding error,
    explained in its docstring; `delta_jump`'s is smaller.
    """
    hk = h * _wavenumber(omega, cfg)
    return hk * hk / 3.0 + _rounding(omega, cfg) / hk / hk


def fd_step(omega: float, cfg: CavityConfig, clearance: float, tol: float) -> float:
    """Step h for `ode_residual`, `delta_jump` and `membrane_jump` at omega.

    The h that minimizes `fd_error`, hk = (3 R)^(1/4), which is 3e-4 for
    omega L >= 1 and grows slowly below. It is kept within
    [1e-5 L, clearance/10]: the lower end bounds ode_residual's grid at
    300,000 points, the upper end keeps every source that is at least
    `clearance` from the membrane and the mirror 10h away from them.
    Raises `StepSizeError` when one of the two ends moves h so far that
    `fd_error` exceeds tol: at low frequency (omega L below about 1.5e-3
    at the default tolerance), where the step cannot grow enough to keep
    rounding small, or next to a band edge, where |n| is so large that
    1e-5 L no longer resolves the wave.
    """
    k = _wavenumber(omega, cfg)
    best = (3.0 * _rounding(omega, cfg)) ** 0.25 / k
    h = min(max(best, _MIN_STEP * cfg.length), clearance / 10.0)
    if h != best and fd_error(omega, cfg, h) > tol:
        raise StepSizeError(
            f"no step in [{_MIN_STEP * cfg.length:g}, {clearance / 10.0:g}] "
            f"resolves omega = {omega:g} (k L = {k * cfg.length:g}) within {tol:g}: "
            f"the nearest, h = {h:g}, leaves about {fd_error(omega, cfg, h):.2g}"
        )
    return h


def ode_residual(zprime, omega: float, cfg: CavityConfig, h: float):
    """Max finite-difference residual of the defining wave equation.

    zprime is one source or an array of them; the result is a float, or
    an array of zprime's shape. Evaluates G on a uniform grid over
    [-2L, L], _SLAB_POINTS points at a time, in one pass for all sources:
    each slab, and s(z) on its medium part, is formed once. Forms the
    central second difference, excluding points within 3h of the source,
    the membrane at z = 0, and the mirror at z = L. Returns per source

        max |G'' + omega^2 eps(z) G|  /  max |omega^2 eps(z) G|

    normalized by the largest source-term magnitude on the grid (a
    pointwise quotient is ill-conditioned at the nodes of the standing
    wave). With k = max(|n omega|, omega), expect about

        (hk)^2 / 12  +  2 eps (5 + 1/(omega L)) / (hk)^2.

    The first term is the truncation error of the central second
    difference; it holds to a few percent once it dominates. The second
    is rounding: three values of G, each with a relative error of a few
    eps, differenced and divided by h^2. In vacuum G is the difference
    of two terms of size 1/omega, so its relative error grows like
    1/(omega L) once omega L < 1. That term is an envelope fitted to
    measured residuals (4 pi beta up to 16, gamma up to 1e-3): wherever
    a residual came out above 1e-5 the sum was at or above it, and
    elsewhere at most 25x below it. `fd_step` picks the h that keeps
    the larger error of this check and of `delta_jump` smallest (see
    `fd_error`): hk = 3e-4 for omega L >= 1, where the residual comes
    out between 1e-8 and 1e-6. A fixed h = 1e-5 L instead leaves a
    rounding term near 1e-4 at omega L = 0.3.
    """
    _check_step(omega, zprime, cfg, h)
    L, zps = cfg.length, np.asarray(zprime, dtype=float)
    w, k, n, d = _kernel(omega, cfg)
    start, eps = -2.0 * L, epsilon(omega, cfg.medium)
    delta = (start + h) - start  # np.arange(start, L - h/2, h)[i] is start + i delta
    m = math.ceil((L - 0.5 * h - start) / h) - 2  # interior points 1..m of that grid

    def near(c):
        """Interior indices within 3h of c: they sort next to it."""
        lo = min(max(math.floor((c - start) / delta) - 9, 0), m)
        j = np.arange(lo, min(lo + 18, m))
        return j[~(np.abs(_grid(start, delta, j + 1) - c) >= 3.0 * h)]

    drops = [np.concatenate([near(c) for c in (y, 0.0, L)]) for y in zps.flat]
    resid, scale = np.zeros(zps.size), np.zeros(zps.size)
    for s in range(0, m, _SLAB_POINTS):  # interior points s.., and one more on either side
        z = _grid(start, delta, np.arange(s, min(s + _SLAB_POINTS, m) + 2))
        v = np.searchsorted(z, 0.0, "right")  # z[:v] <= 0 is vacuum, z[v:] medium
        sz, vacuum = _standing(z[v:], k, L), min(max(v - 1, 0), z.size - 2)
        for i, y in enumerate(zps.flat):
            g = np.empty(z.size, dtype=complex)
            g[:v] = _region(z[:v], y, y <= 0.0, True, w, k, n, d, cfg)
            g[v:] = _region(z[v:], y, y <= 0.0, False, w, k, n, d, cfg, sz)
            d2 = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / h / h  # h * h may leave the float range
            source = eps * g[1:-1]
            source[:vacuum] = g[1:vacuum + 1]  # eps = 1 at z <= 0
            source = omega * (omega * source)  # omega G is O(1); omega**2 may not be
            r, a = np.abs(np.add(d2, source, out=d2)), np.abs(source)
            here = drops[i][(drops[i] >= s) & (drops[i] < s + d2.size)] - s
            r[here] = a[here] = 0.0  # a 0 moves no max of |values|
            resid[i], scale[i] = np.maximum(resid[i], np.max(r)), np.maximum(scale[i], np.max(a))
    return _unwrap((resid / scale).reshape(zps.shape), float)


def _grid(start: float, delta: float, i):
    """Points i of ode_residual's grid, without the grid: start + i delta."""
    return start + i * delta


def _kink(z0: float, zprime: float, omega: float, cfg: CavityConfig, h: float):
    """G(z0) and dG/dz on either side of z0, by second-order one-sided
    stencils that never straddle z0."""
    stencil = z0 + h * np.arange(-2, 3)
    gm2, gm1, g0, gp1, gp2 = green_function(stencil, zprime, omega, cfg).tolist()
    right = (-3.0 * g0 + 4.0 * gp1 - gp2) / (2.0 * h)
    left = (3.0 * g0 - 4.0 * gm1 + gm2) / (2.0 * h)
    return g0, left, right


def delta_jump(zprime: float, omega: float, cfg: CavityConfig, h: float) -> float:
    """One-sided-difference jump of dG/dz across the source (should be -1)."""
    _check_step(omega, zprime, cfg, h)
    _, left, right = _kink(zprime, zprime, omega, cfg, h)
    return (right - left).real


def membrane_jump(zprime: float, omega: float, cfg: CavityConfig, h: float) -> float:
    """Miss of G'(0+) - G'(0-) = -Lambda omega G(0), relative to |G'(0+)| + |G'(0-)|.

    By the one-sided stencils of `delta_jump`, whose truncation error
    relative to those two slopes is at most the (hk)^2/3 of `fd_error`.
    The step G would have if discontinuous at z = 0 enters divided by h.
    """
    _check_step(omega, zprime, cfg, h)
    g0, left, right = _kink(0.0, zprime, omega, cfg, h)
    return abs(right - left + cfg.lambda_mirror * omega * g0) / (abs(right) + abs(left))
