"""Minimal self-contained SVG line plots (no plotting dependency).

Emits SVG 1.1 documents with axes, ticks, polyline curves, and a small
legend. Three stroke styles are understood: "solid" for primary curves,
"dashed" for comparison curves, "dotted" for reference lines.

Polyline points are printed by floatfmt.points_text, as '{:.2f}' prints
each coordinate: hundredths from rint(100 |v|) wherever that is
certified, and str.format for non-finite values, |v| >= 999999 and
coordinates within 1e-6 of a .xx5 tie.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .floatfmt import points_text

__all__ = ["line_plot", "write_svg"]

_DASH = {"solid": None, "dashed": "6,4", "dotted": "2,3"}
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _nice_step(span: float, target: int) -> float:
    raw = span / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = _nice_step(hi - lo, target)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        if t + step == t:  # the step is below the spacing of doubles at t
            break
        t += step
    return out


def _check_range(curves, k: int, axis: str, lo: float, hi: float) -> None:
    """Raise ValueError, naming the series at fault, if [lo, hi] has no finite span."""
    if math.isfinite(hi - lo):
        return
    own = [(c[0], c[k].tolist()) for c in curves]
    bad = [label for label, v in own if v and not math.isfinite(max(v) - min(v))]
    names = ", ".join(map(repr, bad or [label for label, _ in own]))
    raise ValueError(f"series {names}: no finite {axis} axis range")


def _span(values) -> tuple[float, float]:
    """(min, max) as Python's min and max take them over the joined
    values: a NaN in first position makes both NaN, a later NaN is ignored."""
    v = np.concatenate(values)
    if np.isnan(v[0]):
        return float(v[0]), float(v[0])
    return float(np.fmin.reduce(v)), float(np.fmax.reduce(v))


def _fmt(v: float) -> str:
    return f"{v:g}"


def line_plot(
    series: Sequence[tuple[str, Sequence[float], Sequence[float], str]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    width: int = 640,
    height: int = 440,
) -> str:
    """Render (label, xs, ys, style) curves to an SVG document string."""
    if not series:
        raise ValueError("nothing to plot")
    for label, xs, ys, _ in series:
        if len(xs) != len(ys):
            raise ValueError(f"series {label!r}: x and y lengths differ")
    curves = [
        (label, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), style)
        for label, xs, ys, style in series
    ]
    if not sum(xs.size for _, xs, _, _ in curves):
        raise ValueError("empty series")
    x0, x1 = _span([xs for _, xs, _, _ in curves])
    y0, y1 = _span([ys for _, _, ys, _ in curves])
    if x1 <= x0:
        x0, x1 = x0 - 0.5, x0 + 0.5
    if y1 <= y0:
        pad = 0.5 if y0 == 0 else 0.1 * abs(y0)
        y0, y1 = y0 - pad, y1 + pad
    ypad = 0.06 * (y1 - y0)
    y0, y1 = y0 - ypad, y1 + ypad
    _check_range(curves, 1, "x", x0, x1)
    _check_range(curves, 2, "y", y0, y1)

    ml, mr, mt, mb = 78, 18, 34, 52
    pw, ph = width - ml - mr, height - mt - mb

    # scalars for the ticks, arrays for the curves: the same operations in
    # the same order, so a point lands on the same double either way
    def px(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def py(y):
        return mt + (y1 - y) / (y1 - y0) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    font = 'font-family="sans-serif" font-size="12"'
    for t in _ticks(x0, x1):
        X = px(t)
        out.append(
            f'<line x1="{X:.1f}" y1="{mt + ph}" x2="{X:.1f}" '
            f'y2="{mt + ph + 5}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{X:.1f}" y="{mt + ph + 18}" {font} '
            f'text-anchor="middle">{_fmt(t)}</text>'
        )
    for t in _ticks(y0, y1):
        Y = py(t)
        out.append(
            f'<line x1="{ml - 5}" y1="{Y:.1f}" x2="{ml}" y2="{Y:.1f}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{ml - 8}" y="{Y + 4:.1f}" {font} '
            f'text-anchor="end">{_fmt(t)}</text>'
        )
    if title:
        out.append(
            f'<text x="{width / 2:.0f}" y="20" font-family="sans-serif" '
            f'font-size="15" text-anchor="middle">{title}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{ml + pw / 2:.0f}" y="{height - 12}" {font} '
            f'text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        yc = mt + ph / 2
        out.append(
            f'<text x="16" y="{yc:.0f}" {font} text-anchor="middle" '
            f'transform="rotate(-90 16 {yc:.0f})">{ylabel}</text>'
        )

    for i, (label, xs, ys, style) in enumerate(curves):
        color = _COLORS[i % len(_COLORS)]
        dash = _DASH.get(style)
        if style not in _DASH:
            raise ValueError(f"unknown line style {style!r}")
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        # silent, as for Python floats: overflow to inf, NaN from inf - inf
        with np.errstate(over="ignore", invalid="ignore"):
            X, Y = px(xs), py(ys)
        pts = points_text(X, Y)
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.6"'
            f'{dash_attr} points="{pts}"/>'
        )
        # legend entry
        ly = mt + 14 + 16 * i
        lx = ml + pw - 150
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 26}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.6"{dash_attr}/>'
        )
        out.append(f'<text x="{lx + 32}" y="{ly}" {font}>{label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(path, series, **kwargs) -> None:
    """Render with line_plot, then write; a plot that fails leaves no file."""
    text = line_plot(series, **kwargs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
