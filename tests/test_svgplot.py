"""String-built SVG plots: structure, legend, styles, file output."""

import math
import signal
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from polariton_mbc.svgplot import line_plot, write_svg


def test_plot_is_valid_svg_with_one_polyline_per_series():
    xs = np.linspace(0.0, 1.0, 20)
    text = line_plot(
        [
            ("first", xs, np.sin(xs), "solid"),
            ("second", xs, np.cos(xs), "dashed"),
            ("third", xs, xs * 0.5, "dotted"),
        ],
        title="demo",
        xlabel="x",
        ylabel="y",
    )
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    body = text
    assert body.count("<polyline") >= 3
    for label in ("first", "second", "third"):
        assert label in body
    assert "demo" in body and ">x<" in body and ">y<" in body
    # dashed and dotted styles show up as dash arrays
    assert 'stroke-dasharray="6,4"' in body
    assert 'stroke-dasharray="2,3"' in body


def test_flat_series_and_single_point_do_not_divide_by_zero():
    text = line_plot([("flat", [0.0, 1.0], [2.0, 2.0], "solid")])
    ET.fromstring(text)
    text = line_plot([("dot", [1.0], [1.0], "solid")])
    ET.fromstring(text)


def test_write_svg_creates_the_file(tmp_path):
    path = tmp_path / "plot.svg"
    write_svg(path, [("s", [0, 1], [0, 1], "solid")], title="t")
    assert path.exists()
    ET.fromstring(path.read_text())


def test_series_validation():
    with pytest.raises(ValueError):
        line_plot([])
    with pytest.raises(ValueError):
        line_plot([("bad", [0, 1], [0], "solid")])
    with pytest.raises(ValueError):
        line_plot([("bad", [0, 1], [0, 1], "wavy")])


@pytest.mark.parametrize("ys, label", [
    ([math.nan, 1.0], "first"),  # a NaN first poisons Python min/max
    ([1.0, math.inf], "second"),
    ([-1.7e308, 1e307], "first"),  # finite, but the span overflows
])
def test_non_finite_axis_range_names_the_series(ys, label):
    series = [
        (name, [0.0, 1.0], ys if name == label else [0.0, 1.0], "solid")
        for name in ("first", "second")
    ]
    with pytest.raises(ValueError, match=f"series '{label}'"):
        line_plot(series)


def test_failed_plot_writes_no_file(tmp_path):
    path = tmp_path / "plot.svg"
    with pytest.raises(ValueError):
        write_svg(path, [("s", [0.0, 1.0], [math.inf, 1.0], "solid")])
    assert not path.exists()


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
def test_ticks_below_the_spacing_of_doubles_do_not_loop():
    # at 1e16 doubles are 2 apart, so a tick step of 1 never advances;
    # the alarm turns a regression into a failure instead of a hang
    def stop(signum, frame):
        raise TimeoutError("tick loop did not end")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        text = line_plot([("far", [1e16, 1e16 + 4.0], [0.0, 1.0], "solid")])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    ET.fromstring(text)
