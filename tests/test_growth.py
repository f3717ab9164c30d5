"""Growth gates on the series path, from executed-line counts.

Each gate counts the line events of every Python frame (stdlib frames
included) under `sys.settrace` while one entry point runs at each size in
`SIZES`, in this process, and bounds the ratio of each count to the one
before it.  Only ratios are gated, never counts, which change with the
CPython version.  Both entry points build sigma_1 by trial division, about
N^1.5 work: their ratio reads about 2.35-2.38 from N = 1000 to 2000 and
about 2.40 from 2000 to 4000, where quadratic growth would read about 4.
A quadratic term's share of the count grows with N, so the second pair
trips on a smaller one than the first.
"""

from __future__ import annotations

import sys

import pytest

from pillowcase import potential, qseries

SIZES = (1000, 2000, 4000)
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
    counts = [_lines_executed(fn, n) for n in SIZES]
    ratios = [large / small for small, large in zip(counts, counts[1:])]
    assert max(ratios) < MAX_RATIO, (counts, ratios)
