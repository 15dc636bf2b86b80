"""Span tracer that instruments polariton_mbc from outside the package.

`Tracer` wraps every public function of the traced modules at every
name bound to it: the defining module, each module that imported it
with `from .x import y`, the package namespace, the `cli._COMMANDS`
table and the `SweepTable.write_csv` method. Each call records one span
(name, start, end, parent span) in memory; `restore` puts the original
objects back. `layer_metrics` derives self times and the per-layer
counters from the recorded spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import re
import sys
import time
from array import array

import numpy as np

PACKAGE = "polariton_mbc"
LAYERS = (
    "dielectric", "hopfield", "cavity", "iomodel", "greens",
    "fluct", "tables", "svgplot", "config", "cli",
)
# Called once per CSV cell: a span per cell would dominate the trace.
# Its cost is inside the tables.write_csv span.
UNTRACED = frozenset({"tables.format_value"})

_NONFINITE_CELL = re.compile(rb"(?:^|,)(?:-?inf|nan)(?=,|$)", re.MULTILINE)


def _first_arg_size(args, kwargs, result):
    return getattr(args[0], "size", 1)  # numpy arrays; Python scalars count once


def _result_len(args, kwargs, result):
    return len(result)


def _first_arg(args, kwargs, result):
    return args[0]


def _svg_extra(args, kwargs, result):
    path, series = args[0], args[1]
    return path, sum(len(xs) for _, xs, _, _ in series)


# What each span keeps besides its timing; looked up by span name.
_EXTRA = {
    "cavity.intracavity_transfer": _first_arg_size,
    "cavity.reflection": _first_arg_size,
    "cavity.find_resonances": _result_len,
    "iomodel.figure2_sweep": _result_len,
    "greens.green_function": _first_arg_size,
    "tables.write_csv": _first_arg,
    "svgplot.write_svg": _svg_extra,
}


def _extra_for(name):
    if name.startswith("dielectric."):
        return _first_arg_size  # frequency or wavenumber points evaluated
    return _EXTRA.get(name)


class Tracer:
    """In-memory span recorder; use as a context manager around traced calls."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra: list = []
        self._stack: list[int] = []
        self._patches: list = []
        self.commands: dict[str, str] = {}  # cli span name -> command name

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        extra = _extra_for(name)
        stack, now = self._stack, time.perf_counter
        name_id, parent, start, end, extras = (
            self.name_id, self.parent, self.start, self.end, self.extra
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            extras.append(None)
            stack.append(idx)
            start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = now()
                stack.pop()
            if extra is not None:
                extras[idx] = extra(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = {
            layer: sys.modules.get(f"{PACKAGE}.{layer}") for layer in LAYERS
        }
        missing = [layer for layer, mod in modules.items() if mod is None]
        if missing:
            raise RuntimeError(f"import {PACKAGE}.cli before tracing: {missing}")
        wrappers = {}  # id(original) -> wrapper, which keeps its original alive
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name not in UNTRACED:
                    wrappers[id(obj)] = self._wrap(name, obj)
        bound = [
            mod for key, mod in sys.modules.items()
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for mod in bound:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

        cli = modules["cli"]
        table = cli._COMMANDS
        for command, (func, help_text) in list(table.items()):
            self.commands[f"cli.{func.__name__}"] = command
            self._patches.append((table, command, (func, help_text)))
            table[command] = (wrappers[id(func)], help_text)

        sweep_table = modules["tables"].SweepTable
        method = sweep_table.__dict__["write_csv"]
        self._patches.append((sweep_table, "write_csv", method))
        sweep_table.write_csv = self._wrap("tables.SweepTable.write_csv", method)
        return self

    def restore(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def spans(self):
        """Arrays (name_id, parent, duration, self_time) over all recorded spans."""
        nid = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        covered = np.zeros_like(dur)
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return nid, parent, dur, dur - covered


def _nearest(parent, is_scope):
    """Index of each span's nearest ancestor-or-self inside the scope, else -1."""
    anc = np.where(is_scope, np.arange(len(parent)), parent)
    while True:
        climb = (anc >= 0) & ~is_scope[np.maximum(anc, 0)]
        if not climb.any():
            return anc
        anc[climb] = parent[anc[climb]]


def _file_stats(paths):
    rows = size = nonfinite = 0
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        size += len(data)
        body = [ln for ln in data.split(b"\n")[:-1] if not ln.startswith(b"#")]
        rows += max(len(body) - 1, 0)  # minus the header line
        nonfinite += len(_NONFINITE_CELL.findall(data))
    return rows, size, nonfinite


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counters and times derived from the recorded spans."""
    nid, parent, dur, self_t = tracer.spans()
    names = tracer.names
    ids = {name: i for i, name in enumerate(names)}
    extras = tracer.extra

    def mask(*span_names):
        wanted = [ids[n] for n in span_names if n in ids]
        return np.isin(nid, wanted)

    def layer_mask(layer):
        return np.isin(nid, [i for i, n in enumerate(names) if n.startswith(layer + ".")])

    def sizes(m):
        # a span whose call raised has no extra
        return np.array([extras[i] or 0 for i in np.flatnonzero(m)], dtype=np.int64)

    index = mask("dielectric.refractive_index")
    index_pts = sizes(index)
    fr = mask("cavity.find_resonances")
    under_fr = _nearest(parent, fr) >= 0
    roots = int(sizes(fr).sum())
    fr_index = index & under_fr
    fr_index_pts = sizes(fr_index)
    amp = mask("cavity.intracavity_transfer", "cavity.reflection")
    amp_outer = amp & ~(np.where(parent >= 0, amp[np.maximum(parent, 0)], False))
    f2 = mask("iomodel.figure2_sweep")
    f2_roots = int(sizes(fr & (_nearest(parent, f2) >= 0)).sum())
    solve = mask("fluct.solve_omega_q")
    solve_calls = int(solve.sum())
    solve_index = int((index & (_nearest(parent, solve) >= 0)).sum())
    csv_paths = [extras[i] for i in np.flatnonzero(mask("tables.write_csv")) if extras[i]]
    rows, csv_bytes, nonfinite = _file_stats(csv_paths)
    svg = [extras[i] for i in np.flatnonzero(mask("svgplot.write_svg")) if extras[i]]
    svg_bytes = sum(os.path.getsize(path) for path, _ in svg)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "dielectric.refractive_index.calls": int(index.sum()),
        "dielectric.scalar_calls": int((index_pts == 1).sum()),
        "dielectric.points": int(index_pts.sum()),
        "dielectric.self_s": float(self_t[layer_mask("dielectric")].sum()),
        "cavity.find_resonances.calls": int(fr.sum()),
        "cavity.find_resonances.total_s": float(dur[fr].sum()),
        "cavity.roots_found": roots,
        "cavity.scan_points": int(fr_index_pts[fr_index_pts > 1].sum()),
        "cavity.polish_evals": int((fr_index_pts == 1).sum()),
        "cavity.index_evals_per_root": ratio(int(fr_index.sum()), roots),
        "cavity.amplitude.points": int(sizes(amp_outer).sum()),
        "cavity.amplitude.self_s": float(self_t[amp].sum()),
        "cavity.kappa_mbc.calls": int(mask("cavity.kappa_mbc").sum()),
        "iomodel.figure2_sweep.total_s": float(dur[f2].sum()),
        "iomodel.useful_root_frac": ratio(2 * int(sizes(f2).sum()), f2_roots),
        "hopfield.diagonalize.calls": int(mask("hopfield.diagonalize").sum()),
        "hopfield.self_s": float(self_t[layer_mask("hopfield")].sum()),
        "fluct.solve_omega_q.calls": solve_calls,
        "fluct.index_evals_per_solve": ratio(solve_index, solve_calls),
        "fluct.self_s": float(self_t[layer_mask("fluct")].sum()),
        "greens.green_function.points": int(sizes(mask("greens.green_function")).sum()),
        "greens.green_coefficients.calls": int(mask("greens.green_coefficients").sum()),
        "greens.ode_residual.total_s": float(dur[mask("greens.ode_residual")].sum()),
        "greens.self_s": float(self_t[layer_mask("greens")].sum()),
        "tables.write_csv.total_s": float(dur[mask("tables.write_csv")].sum()),
        "tables.rows_written": rows,
        "tables.bytes_written": csv_bytes,
        "tables.nonfinite_cells": nonfinite,
        "svgplot.write_svg.total_s": float(dur[mask("svgplot.write_svg")].sum()),
        "svgplot.points_plotted": sum(points for _, points in svg),
        "svgplot.bytes_written": svg_bytes,
        "config.load_config.total_s": float(dur[mask("config.load_config")].sum()),
    }
    for span_name, command in tracer.commands.items():
        out[f"cli.{command}.total_s"] = float(dur[mask(span_name)].sum())
    out["cli.self_s"] = float(self_t[layer_mask("cli")].sum())
    return out
