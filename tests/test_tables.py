"""SweepTable's input contract and the CSV and SVG writers against oracles."""

import builtins
import re
import tracemalloc

import numpy as np
import pytest

from oracles import reference_csv, reference_polylines
import polariton_mbc.tables as tables
from polariton_mbc import floatfmt
from polariton_mbc.cli import cmd_dispersion
from polariton_mbc.config import load_config
from polariton_mbc.tables import _BLOCK_CELLS, SweepTable, write_csv

B = _BLOCK_CELLS // 5  # rows per CSV block of the five-column tables below
B0 = 4096 // 5  # the same at 4,096-cell blocks, the size before: more cases
SPECIALS = [
    float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e16, 1e-5, 3, -7, 0.1,
]


def _kernel_edges():
    """Where the CSV kernel decides: either side of repr's layout switches
    (1e-4 and 1e-5, 1e16) and of the range it certifies (1e-10, 1e16),
    powers of two, doubles next to a tie of their 15-, 16- and 17-digit
    roundings (the decimal one digit longer, ending in 5), and shorter
    answers whose scaled value ties at the 17th digit."""
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
    # 16 digits or fewer where y = |x| 10**k, scaled into [1e16, 1e17) in
    # long double as the kernel scales it, has a fraction of exactly 1/2
    # or one ulp either side: the tie with 1/2 decides only a 17-digit
    # answer. A smooth sweep holds about 1% of them.
    for sweep in (np.linspace(0.2, 0.95, 20001), np.linspace(1.05, 30.0, 20001) ** -2):
        k = 16 - np.floor(np.log10(sweep))
        y = sweep.astype(np.longdouble) * np.longdouble(10) ** k
        tie = np.abs(y - np.floor(y) - 0.5) <= np.spacing(y)
        short = [v for v in sweep[tie].tolist() if len(repr(v).replace(".", "").strip("0")) <= 16]
        out += rng.choice(short, size=min(len(short), 40), replace=False).tolist()
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
    assert table.array("x").tolist() == [0.0, 1.0]


def test_columns_are_copies_read_back_as_python_floats():
    xs = np.array([0.0, 0.5, 1.0])
    table = SweepTable([("x", xs), ("y", [1, True, 2.5])])
    xs[0] = -1.0
    assert table.array("x").tolist() == [0.0, 0.5, 1.0]
    assert table.array("y").tolist() == [1.0, 1.0, 2.5]
    rows = list(zip(*(table.array(name).tolist() for name in table.names)))
    assert all(type(v) is float for row in rows for v in row)
    assert rows == [(0.0, 1.0), (0.5, 1.0), (1.0, 2.5)]


def test_axis_must_increase_but_nan_compares_neither_way():
    assert len(SweepTable([("x", [0.0, float("nan"), -1.0])])) == 3
    for axis in ([0.0, 1.0, 1.0], [1.0, 0.0]):
        with pytest.raises(ValueError):
            SweepTable([("x", axis)])
    with pytest.raises(ValueError):
        SweepTable([("x", [0.0, 1.0]), ("y", [0.0])])


# tables shorter than a block, then one, two and four blocks
@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 775, B0, B0 + 1, 3 * B0 + 7, B, B + 1, 3 * B + 7])
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


@pytest.mark.skipif(not floatfmt._EXACT_SCALE, reason="repr prints every cell")
def test_few_dispersion_cells_go_to_repr(tmp_path, monkeypatch):
    # the bulk dispersion table of a 50,000-point benchmark sweep: the
    # kernel leaves at most 0.5% of its cells to repr
    cfg = load_config("dispersion", set_pairs=[
        "medium.beta4pi=0.36", "sweep.count=50000", "sweep.start=0.01", "sweep.stop=3.0",
    ])
    [output] = cmd_dispersion(cfg)
    calls = []

    def counting(v):
        calls.append(v)
        return builtins.repr(v)

    monkeypatch.setattr(floatfmt, "repr", counting, raising=False)
    output.table.write_csv(tmp_path / "dispersion.csv")
    cells = len(output.table) * len(output.table.names)
    assert len(calls) <= 0.005 * cells, f"{len(calls)} of {cells} cells went to repr"


def test_kernel_prints_every_double_near_its_bit_boundaries_as_repr():
    # the ulps h and m come from exponent bits, which step at 2**e, and the
    # scaled value is range-tested on its integer part, whose bounds 1e16
    # and 1e17 sit next to powers of ten: every double within 2 ulps of
    # both, of both signs, prints as repr prints it
    centres = np.array([2.0**e for e in range(-34, 57)] + [10.0**j for j in range(-10, 17)])
    near = (centres.view(np.int64)[:, None] + np.arange(-2, 3)).view(np.float64).ravel()
    x = np.concatenate([near, -near])
    for cols in (1, 5):
        block = x.reshape(-1, cols)
        expected = "".join(",".join(map(repr, row)) + "\n" for row in block.tolist())
        assert floatfmt.repr_rows(block) == expected.encode()


# cells the CSV kernel leaves to repr
REPR_CELLS = [0.0, -0.0, float("nan"), float("inf"), 2.0, 1e-300, 5e-324]


@pytest.mark.parametrize("n", [0, 1, B0, B0 + 1, B, B + 1])
def test_text_columns_match_cell_by_cell_rendering(tmp_path, monkeypatch, n):
    # text cells are written as they are, between floats printed as repr;
    # a text axis need not increase. Text goes into the kernel's override
    # slots: non-ASCII, wider than any number, next to cells repr prints
    rng = np.random.default_rng(7 + n)
    names = ["check", "omega", "branch", "kappa", "mode_index"]
    cols = [
        [f"check_{(7 * i) % 11}" for i in range(n)],
        mixed_column(rng, n),
        ["lower" if i % 2 else "ünter-λ" if i % 3 else "x" * (41 + i % 5) for i in range(n)],
        [REPR_CELLS[i % len(REPR_CELLS)] for i in range(n)],
        [str(i - 3) for i in range(n)],
    ]
    table = SweepTable(list(zip(names, cols)))
    assert table.array("branch").tolist() == cols[2]
    # numeric columns are stored as floats, so ints come out as floats
    cols[1], cols[3] = ([float(v) for v in col] for col in (cols[1], cols[3]))
    expected = reference_csv(names, zip(*cols), ["c"]).encode("utf-8")
    calls = []

    def counting(v):
        calls.append(v)
        return builtins.repr(v)

    monkeypatch.setattr(floatfmt, "repr", counting, raising=False)
    # repr prints number cells only, never a text cell's stand-in, also
    # where long double is too short and repr prints every number cell
    for exact_scale in (floatfmt._EXACT_SCALE, False):
        monkeypatch.setattr(floatfmt, "_EXACT_SCALE", exact_scale)
        calls.clear()
        write_csv(tmp_path / "r.csv", table, ["c"])
        assert (tmp_path / "r.csv").read_bytes() == expected
        assert len(calls) <= 2 * n and (exact_scale or len(calls) == 2 * n)
    with pytest.raises(ValueError):
        SweepTable([("x", [1.0, 0.0]), ("label", ["a", "b"])])


@pytest.mark.parametrize("n", [1, 2048, 2049, _BLOCK_CELLS // 2, _BLOCK_CELLS // 2 + 1])
def test_text_only_tables_match_cell_by_cell_rendering(tmp_path, n):
    names = ["label", "note"]
    cols = [[f"é{i}" for i in range(n)], ["" if i % 4 else "a,b" * (i % 9) for i in range(n)]]
    write_csv(tmp_path / "t.csv", SweepTable(list(zip(names, cols))))
    expected = reference_csv(names, zip(*cols)).encode("utf-8")
    assert (tmp_path / "t.csv").read_bytes() == expected


def test_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    # a block prints each cell on its own: any block size gives the
    # per-row join, here with text columns, cells repr prints (0.0, a
    # power of two, 1e-300) and a run of exponent-form cells across the
    # edges of 4,096- and 6,144-cell blocks (rows 1024, 1536 and 2048)
    n = 3000
    value = np.linspace(0.5, 2.5, n)
    value[1000:2800] = np.linspace(1e-9, 9e-5, 1800)
    value[::7] = [(0.0, 0.125, 1e-300)[i % 3] for i in range(len(value[::7]))]
    names = ["omega", "branch", "value", "mode"]
    cols = [np.linspace(1.0, 2.0, n).tolist(), ["lower", "ünter"] * (n // 2), value.tolist(),
            [str(i) for i in range(n)]]
    expected = reference_csv(names, zip(*cols), ["c"]).encode("utf-8")
    table = SweepTable(list(zip(names, cols)))
    for cells in (5, 4096, 6144):
        monkeypatch.setattr(tables, "_BLOCK_CELLS", cells)
        write_csv(tmp_path / "t.csv", table, ["c"])
        assert (tmp_path / "t.csv").read_bytes() == expected, cells


@pytest.mark.parametrize("top", [640.0, 999.994, 999.996, 1234.5678, 999998.0])
def test_coordinates_print_as_format_with_and_without_a_thousands_word(top):
    # the thousands word is left out where no coordinate rounds to 1000
    v = np.r_[np.random.default_rng(3).uniform(-640.0, 640.0, 999), top]
    expected = "".join(f"{' ,'[i % 2]}{c:.2f}" for i, c in enumerate(v.tolist()))
    assert floatfmt._hundredths(v) == expected.encode()


def _traced_peak(f, *args):
    """Bytes f(*args) holds at its peak, by tracemalloc, after a warm-up call."""
    f(*args)
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernels_hold_bounded_memory_per_block():
    # a 6,144-cell block of 7 columns with exponent cells, as _csv_blocks
    # cuts it, peaks at about 110 bytes a cell (650 KiB); the 4,096-cell
    # blocks before held 802 KiB. A chunk of 16,384 SVG coordinates below
    # 1000 peaks at about 1,121 KiB (1,185 with a thousands word)
    rng = np.random.default_rng(2)
    block = rng.uniform(0.5, 3.0, (_BLOCK_CELLS // 7, 7))
    block[:, 3] = rng.uniform(1e-9, 9e-5, len(block))
    assert _traced_peak(floatfmt.repr_rows, block) <= 802 * 1024
    assert _traced_peak(floatfmt._hundredths, rng.uniform(0.0, 640.0, 16384)) <= 1185 * 1024


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
def test_polylines_match_point_by_point_rendering(svg_text, case):
    series = _series_cases()[case]
    ranges, expected = reference_polylines(series)
    if not np.all(np.isfinite(ranges)):
        # the tick layout cannot place a NaN or infinite range
        with pytest.raises((ValueError, OverflowError)):
            svg_text(series)
        return
    text = svg_text(series)
    assert re.findall(r'<polyline [^>]*points="([^"]*)"', text) == expected
