"""SVG plots: structure, legend, styles, escaping, streamed file output."""

import math
import re
import signal
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from oracles import reference_polylines
from polariton_mbc import svgplot
from polariton_mbc.svgplot import line_plot, write_svg

CHUNK = svgplot._CHUNK_POINTS


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


def test_markup_in_labels_is_escaped_and_reads_back_unchanged():
    labels = {"title": "x<y", "xlabel": "p & q", "ylabel": "r > s <&>"}
    text = line_plot([("a<b & c", [0, 1], [0, 1], "solid")], **labels)
    texts = [el.text for el in ET.fromstring(text).iter() if el.tag.endswith("text")]
    assert set(labels.values()) | {"a<b & c"} <= set(texts)


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_streamed_file_is_the_point_by_point_rendering_across_chunks(tmp_path, n):
    # x pixels 78 + x/544*544 on a 1/40 px grid: .xx5 ties, exact or a
    # rounding away; y pixels up to 2e6, past '{:.2f}'s 999999 cut-over
    xs = np.arange(n) / 40.0
    xs[-1] = 544.0
    ya, yb = np.sin(xs), np.cos(xs)
    ya[[i for i in (n // 2, CHUNK) if 0 < i < n]] = math.nan  # later, and opening a chunk
    yb[0] = math.nan  # first of its curve, not of the joined values
    series = [("a", xs, ya, "solid"), ("b", xs, yb, "dashed")]
    path = tmp_path / "plot.svg"
    write_svg(path, series, height=2_000_086)
    text = line_plot(series, height=2_000_086)
    assert path.read_bytes() == text.encode()
    points = re.findall(r'<polyline [^>]*points="([^"]*)"', text)
    assert points == reference_polylines(series, height=2_000_086)[1]
    assert max(float(p.rpartition(",")[2]) for p in points[0].split()) >= 999999


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_chunks_print_every_coordinate_as_format_does(n):
    rng = np.random.default_rng(n)
    v = rng.choice([math.inf, -math.inf, math.nan, 2.675, -0.125, 1e6 + 0.005, -999999.0], 2 * n)
    v[::3] = rng.uniform(-2e6, 2e6, v[::3].size)
    xs, ys = v[::2], v[1::2]
    text = b"".join(svgplot._chunks([(xs, ys, np.positive, np.positive)])).decode()
    assert text == " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs.tolist(), ys.tolist()))


def test_plot_memory_does_not_grow_with_the_point_count(tmp_path):
    peaks = []
    for n in (10**5, 10**6):
        xs = np.linspace(0.0, 1.0, n)
        ys = np.sin(40.0 * xs)
        tracemalloc.start()
        try:
            write_svg(tmp_path / "plot.svg", [("a", xs, ys, "solid")])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_refused_plot_costs_no_more_memory_than_a_written_one(tmp_path):
    # naming the series at fault reduces each curve in numpy, without
    # turning a million points into a list
    xs = np.linspace(0.0, 1.0, 10**6)
    ys = np.sin(40.0 * xs)
    bad = ys.copy()
    bad[-1] = math.inf
    peaks = []
    for y, raises in ((ys, False), (bad, True)):
        tracemalloc.start()
        try:
            if raises:
                with pytest.raises(ValueError, match="series 'a': no finite y axis range"):
                    write_svg(tmp_path / "bad.svg", [("a", xs, y, "solid")])
            else:
                write_svg(tmp_path / "plot.svg", [("a", xs, y, "solid")])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks
    assert not (tmp_path / "bad.svg").exists()


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
