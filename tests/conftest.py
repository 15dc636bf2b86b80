"""Fixtures shared by the test modules."""

import pytest

from polariton_mbc.svgplot import write_svg


@pytest.fixture
def svg_text(tmp_path):
    """A function that streams (label, xs, ys, style) curves to a file with
    write_svg, taking its layout keywords, and returns the document's text."""

    def render(series, **kwargs):
        path = tmp_path / "plot.svg"
        write_svg(path, series, **kwargs)
        return path.read_bytes().decode()

    return render
