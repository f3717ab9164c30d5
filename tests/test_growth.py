"""Growth gates on the series path, from executed-line counts.

Each gate counts the line events of every Python frame (stdlib frames
included) under `sys.settrace` while one entry point runs at N and at 2N, in
this process, and bounds the ratio of the two counts.  Only ratios are
gated, never counts, which change with the CPython version.  Both entry
points build sigma_1 by trial division, about N^1.5 work: their ratio from
N = 1000 to 2000 reads about 2.35-2.38, where quadratic growth would read
about 4.
"""

from __future__ import annotations

import sys

import pytest

from pillowcase import potential, qseries

N = 1000
MAX_RATIO = 3.0


def _lines_executed(fn, n: int) -> int:
    count = 0

    def on_line(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return on_line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: on_line)
    try:
        fn(n)
    finally:
        sys.settrace(previous)
    return count


@pytest.mark.parametrize(
    "fn", [qseries.f2_series, potential.st_reference_potential], ids=lambda fn: fn.__name__
)
def test_line_count_grows_below_quadratic(fn):
    small, large = _lines_executed(fn, N), _lines_executed(fn, 2 * N)
    assert large / small < MAX_RATIO, (small, large)
