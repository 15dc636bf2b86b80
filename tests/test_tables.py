"""SweepTable's input contract and the CSV and SVG writers against oracles."""

import re

import numpy as np
import pytest

from oracles import reference_csv, reference_polylines
from polariton_mbc import floatfmt
from polariton_mbc.svgplot import line_plot
from polariton_mbc.tables import _BLOCK_CELLS, SweepTable, write_csv

B = _BLOCK_CELLS // 5  # rows per CSV block of the five-column tables below
SPECIALS = [
    float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e16, 1e-5, 3, -7, 0.1,
]


def _kernel_edges():
    """Where the CSV kernel decides: either side of repr's layout switches
    (1e-4 and 1e-5, 1e16) and of the range it certifies (1e-10, 1e16),
    powers of two, and doubles next to a tie of their 15-, 16- and
    17-digit roundings (the decimal one digit longer, ending in 5)."""
    rng = np.random.default_rng(5)
    bounds = [1e-4, 1e-5, 1e-10, 1e15, 1e16]
    out = bounds + [float(np.nextafter(b, d)) for b in bounds for d in (0.0, np.inf)]
    out += [2.0**e for e in (-34, -33, -14, -1, 10, 52, 53, 54)]
    # 16 digits just inside or outside the rounding interval, by less than
    # y's rounding error: the kernel's margin sends these to repr
    out += [
        1802780.1484011181, 1.570343982308677, 0.017093247925583768,
        7047717.1508352375, 1.8758247647228551e-06, 0.0054814605864575636,
        11680.044782303179, 1.4735300465139511e-06, 0.0051295262304201766,
        7561.2355118766945, 17.28772334346049, 7.495941711713081e-08,
    ]
    for digits in (15, 16, 17):
        for _ in range(40):
            mantissa = int(rng.integers(10 ** (digits - 1), 10**digits))
            v = float(f"{mantissa}5e{int(rng.integers(-12 - digits, 3))}")
            out += [v, float(np.nextafter(v, 0.0)), float(np.nextafter(v, np.inf))]
    return out


EDGES = _kernel_edges()


def mixed_column(rng, n):
    """Specials, kernel edges, normal draws and random bit patterns
    (subnormals included), seeded."""
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
    out = []
    for i in range(n):
        r = rng.random()
        if r < 0.2:
            out.append(SPECIALS[rng.integers(len(SPECIALS))])
        elif r < 0.4:
            out.append(EDGES[rng.integers(len(EDGES))] * (-1) ** int(rng.integers(2)))
        elif r < 0.6:
            out.append(float(rng.normal()))
        else:
            out.append(float(bits[i]))
    return out


@pytest.mark.parametrize(
    "values",
    [
        [0.0, None, 2.0],
        [[0.0], [1.0]],
        [0.0, [1.0, 2.0]],
        np.zeros((3, 2)),
        3.0,
        [0.0, 1.0 + 2.0j],
    ],
    ids=["none", "nested", "ragged", "2d", "scalar", "python-complex"],
)
def test_columns_refuse_what_float_refuses(values):
    with pytest.raises(TypeError):
        SweepTable([("x", values)])
    with pytest.raises(TypeError):
        SweepTable([("x", [0.0, 1.0, 2.0]), ("y", values)])


def test_numpy_complex_column_warns_and_keeps_the_real_part():
    with pytest.warns(np.exceptions.ComplexWarning):
        table = SweepTable([("x", np.array([0.0, 1.0 + 2.0j]))])
    assert table.column("x") == [0.0, 1.0]


def test_columns_are_copies_read_back_as_python_floats():
    xs = np.array([0.0, 0.5, 1.0])
    table = SweepTable([("x", xs), ("y", [1, True, 2.5])])
    xs[0] = -1.0
    assert table.column("x") == [0.0, 0.5, 1.0]
    assert table.column("y") == [1.0, 1.0, 2.5]
    assert all(type(v) is float for row in table.rows() for v in row)
    assert list(table.rows()) == [(0.0, 1.0), (0.5, 1.0), (1.0, 2.5)]


def test_axis_must_increase_but_nan_compares_neither_way():
    assert len(SweepTable([("x", [0.0, float("nan"), -1.0])])) == 3
    for axis in ([0.0, 1.0, 1.0], [1.0, 0.0]):
        with pytest.raises(ValueError):
            SweepTable([("x", axis)])
    with pytest.raises(ValueError):
        SweepTable([("x", [0.0, 1.0]), ("y", [0.0])])


# tables shorter than a block, then one, two and four blocks
@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 775, B, B + 1, 3 * B + 7])
def test_sweep_table_csv_matches_cell_by_cell_rendering(tmp_path, monkeypatch, n):
    rng = np.random.default_rng(1000 + n)
    axis = (np.arange(n) * 0.37 - 5.0).tolist()
    sweep = np.linspace(0.9050505, 1.0949495, n)  # a jittered benchmark grid
    cols = [axis] + [mixed_column(rng, n) for _ in range(3)] + [sweep]
    names = ["x", "a", "b", "c", "omega"]
    comments = ["polariton-mbc test", "sweep.count = 3"]
    table = SweepTable(list(zip(names, cols)))
    # the seed stored float(v) for every cell, so ints come out as floats
    rows = zip(*([float(v) for v in col] for col in cols))
    expected = reference_csv(names, rows, comments).encode("utf-8")
    table.write_csv(tmp_path / "t.csv", comments)
    assert (tmp_path / "t.csv").read_bytes() == expected
    # where long double is too short to certify, repr prints every cell
    monkeypatch.setattr(floatfmt, "_EXACT_SCALE", False)
    table.write_csv(tmp_path / "t.csv", comments)
    assert (tmp_path / "t.csv").read_bytes() == expected


def test_row_csv_matches_cell_by_cell_rendering(tmp_path):
    rng = np.random.default_rng(7)
    floats = mixed_column(rng, 40)
    rows = [
        (v, np.float64(v), "lower" if i % 2 else "upper", i - 3, i % 3 == 0)
        for i, v in enumerate(floats)
    ]
    names = ["omega", "kappa", "branch", "mode_index", "flag"]
    write_csv(tmp_path / "r.csv", names, rows, ["c"])
    expected = reference_csv(names, rows, ["c"])
    assert (tmp_path / "r.csv").read_bytes() == expected.encode("utf-8")


def _series_cases():
    rng = np.random.default_rng(42)
    nan = float("nan")

    def ys(n):
        # finite values of moderate size, with NaNs anywhere but first
        pool = [v for v in mixed_column(rng, 4 * n) if abs(v) < 1e100]
        out = np.array(pool[:n])
        out[1 + rng.integers(n - 1, size=3)] = nan
        return out

    smooth = np.linspace(-1.0, 3.0, 300)
    finite = [v for v in SPECIALS if np.isfinite(v)]
    return {
        "smooth": [("a", smooth, np.sin(smooth), "solid"), ("b", smooth, smooth**2, "dashed")],
        "specials-finite": [
            ("a", np.arange(len(finite)), finite, "solid"),
            ("b", [0, 2, 5], [1e-5, -0.0, 5e-324], "dotted"),
        ],
        "nan-not-first": [("a", smooth, np.where(smooth > 1.0, nan, np.cos(smooth)), "solid")],
        "nan-first-of-second": [
            ("a", smooth[:17], smooth[:17], "solid"),
            ("b", smooth[:17], np.r_[nan, smooth[1:17]], "dashed"),
        ],
        "nan-first": [("a", smooth[:5], np.r_[nan, smooth[1:5]], "solid")],
        "inf": [("a", [0.0, 1.0, 2.0], [1.0, float("inf"), 2.0], "solid")],
        "bits": [("a", np.sort(rng.normal(size=B + 1)), ys(B + 1), "solid")],
        "flat-zero": [("a", [1, 2, 3], [-0.0, 0.0, -0.0], "solid")],
        "flat": [("a", [2.0, 2.0], [1e16, 1e16], "solid")],
        "single": [("a", [1], [5], "solid")],
        "big-small": [("a", [1e-5, 1.0, 1e16], [1e16, 1e-5, 3], "solid")],
        # x pixels 78 + x on a 1/40 px grid: every other one a .xx5 tie,
        # exact on odd multiples of 1/8 and a rounding away elsewhere
        "ties": [("a", np.arange(21761) / 40.0, np.arange(21761) % 7, "solid")],
        # more points than one formatting chunk, as the benchmark plots them
        "sweep": [
            ("a", np.linspace(0.905, 1.095, 20001), np.cos(np.linspace(0, 40, 20001)) ** 2, "solid"),
            ("b", np.linspace(0.905, 1.095, 20001), np.full(20001, 0.3), "dotted"),
        ],
    }


@pytest.mark.parametrize("case", sorted(_series_cases()))
def test_polylines_match_point_by_point_rendering(case):
    series = _series_cases()[case]
    ranges, expected = reference_polylines(series)
    if not np.all(np.isfinite(ranges)):
        # the tick layout cannot place a NaN or infinite range
        with pytest.raises((ValueError, OverflowError)):
            line_plot(series)
        return
    text = line_plot(series)
    assert re.findall(r'<polyline [^>]*points="([^"]*)"', text) == expected
