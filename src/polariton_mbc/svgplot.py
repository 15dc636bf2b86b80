"""Minimal self-contained SVG line plots (no plotting dependency).

`layout` checks the curves and builds the axes, ticks, labels and legend
before any file opens; `write_svg` streams the document, each curve's
points mapped and printed _CHUNK_POINTS at a time, and `line_plot` joins
the same chunks into a string. Styles: "solid", "dashed", "dotted".

Points print as '{:.2f}' prints each coordinate (floatfmt._hundredths):
hundredths from rint(100 |v|) wherever that is certified, and str.format
for non-finite values, |v| >= 999999 and coordinates within 1e-6 of a
.xx5 tie. Both steps are elementwise, so chunking moves no byte.
"""

from __future__ import annotations

import math

import numpy as np

from .floatfmt import _hundredths

__all__ = ["layout", "line_plot", "write_svg"]

_DASH = {"solid": None, "dashed": "6,4", "dotted": "2,3"}
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
# points per chunk: bounds the transient arrays of a curve's points to about 1 MB
_CHUNK_POINTS = 8192


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
    spans = [(c[0], _span([c[k]])) for c in curves if c[k].size]
    bad = [label for label, (a, b) in spans if not math.isfinite(b - a)]
    names = ", ".join(map(repr, bad or [c[0] for c in curves]))
    raise ValueError(f"series {names}: no finite {axis} axis range")


def _span(values) -> tuple[float, float]:
    """(min, max) as Python's min and max take them over the joined
    values: a NaN in first position makes both NaN, a later NaN is ignored."""
    values = [v for v in values if v.size]
    if np.isnan(values[0][0]):
        return float(values[0][0]), float(values[0][0])
    lo = np.fmin.reduce([np.fmin.reduce(v) for v in values])
    return float(lo), float(np.fmax.reduce([np.fmax.reduce(v) for v in values]))


def _fmt(v: float) -> str:
    return f"{v:g}"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def layout(series, title="", xlabel="", ylabel="", width=640, height=440) -> list:
    """Check (label, xs, ys, style) curves and lay out their SVG document:
    its text parts, with an (xs, ys, px, py) curve where its points go."""
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
            f'font-size="15" text-anchor="middle">{_escape(title)}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{ml + pw / 2:.0f}" y="{height - 12}" {font} '
            f'text-anchor="middle">{_escape(xlabel)}</text>'
        )
    if ylabel:
        yc = mt + ph / 2
        out.append(
            f'<text x="16" y="{yc:.0f}" {font} text-anchor="middle" '
            f'transform="rotate(-90 16 {yc:.0f})">{_escape(ylabel)}</text>'
        )

    parts = []
    for i, (label, xs, ys, style) in enumerate(curves):
        color = _COLORS[i % len(_COLORS)]
        dash = _DASH.get(style)
        if style not in _DASH:
            raise ValueError(f"unknown line style {style!r}")
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.6"'
            f'{dash_attr} points="'
        )
        parts += ["\n".join(out), (xs, ys, px, py)]
        # the polyline's end, then its legend entry
        ly = mt + 14 + 16 * i
        lx = ml + pw - 150
        out = [
            '"/>',
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 26}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.6"{dash_attr}/>',
            f'<text x="{lx + 32}" y="{ly}" {font}>{_escape(label)}</text>',
        ]

    parts.append("\n".join(out + ["</svg>\n"]))
    return parts


def _chunks(parts):
    """The document's bytes: text parts whole, curves a chunk of points at a time."""
    for part in parts:
        if isinstance(part, str):
            yield part.encode()
            continue
        xs, ys, px, py = part
        for s in range(0, xs.size, _CHUNK_POINTS):
            # silent, as for Python floats: overflow to inf, NaN from inf - inf
            with np.errstate(over="ignore", invalid="ignore"):
                xy = np.stack([px(xs[s:s + _CHUNK_POINTS]), py(ys[s:s + _CHUNK_POINTS])], 1)
            text = _hundredths(xy.ravel())
            yield memoryview(text)[1:] if s == 0 else text


def line_plot(series, title="", xlabel="", ylabel="", width=640, height=440) -> str:
    """Render (label, xs, ys, style) curves to an SVG document string."""
    return b"".join(_chunks(layout(series, title, xlabel, ylabel, width, height))).decode()


def write_svg(path, series, svg: list | None = None, **kwargs) -> None:
    """Stream the plot of series to path: svg, the parts layout already
    made from series and kwargs, or else laid out first. A plot that
    fails its checks leaves no file."""
    if svg is None:
        svg = layout(series, **kwargs)
    with open(path, "wb") as fh:
        fh.writelines(_chunks(svg))
