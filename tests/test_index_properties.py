"""Property test: the real lossless index equals the real part of the complex one, bit for bit.

`dielectric._lossless_index` is what the resonance solver, kappa_mbc and
group_velocity read; `_refractive_index(x, b, 0.0).real` is the one
complex index it stands in for. Any difference, even the sign of a zero,
would move the default CSVs.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from polariton_mbc.dielectric import _lossless_index, _refractive_index  # noqa: E402


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def stepped(v, steps):
    """The positive double v moved by `steps` ulps."""
    return float((np.array([v]).view(np.int64) + steps).view(np.float64)[0])


@st.composite
def problems(draw):
    """(x, beta4pi): x an array of frequencies in units of omega_t, beta4pi
    zero, a scalar or an array broadcasting with x."""
    b = draw(st.one_of(st.just(0.0), log_uniform(-320.0, 300.0), log_uniform(-3.0, 3.0)))
    edge = float(np.sqrt(1.0 + b))
    point = st.one_of(
        log_uniform(-300.0, 300.0),
        st.just(1.0),
        st.floats(1.0, edge) if edge > 1.0 else st.just(1.0),  # the stop band
        st.integers(-4, 4).map(lambda s: stepped(edge, s)),
        st.integers(-4, 4).map(lambda s: stepped(1.0, s)),
    )
    x = np.array(draw(st.lists(point, min_size=1, max_size=20)))
    shape = draw(st.sampled_from(["scalar", "array", "mixed"]))
    if shape == "array":
        b = np.full(x.shape, b)
    elif shape == "mixed":
        b = np.array(draw(st.lists(st.sampled_from([0.0, b]), min_size=x.size,
                                   max_size=x.size)))
    return x, b


@seed(20261020)
@settings(max_examples=400, deadline=None, database=None)
@given(problems())
def test_lossless_index_is_the_real_part_of_the_complex_index_bit_for_bit(problem):
    x, b = problem
    n = _lossless_index(x, b)  # RuntimeWarning is an error here: it must stay silent
    with np.errstate(all="ignore"):
        expected = _refractive_index(x, b, 0.0).real
    assert np.asarray(n, dtype=float).view(np.uint64).tolist() == \
        np.asarray(expected).view(np.uint64).tolist(), (x, b, n, expected)
