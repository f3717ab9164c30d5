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

The same share makes the ratio itself rise from one pair to the next, which
shows a quadratic term long before either ratio nears 4.  So the rise from
the first ratio to the second is gated too: the clean code rises by about
0.04 (0.036 and 0.044), while a loop of (N/10)^2/2 steps planted in
`f2_series` rises by 0.10-0.12 (ratios 2.54 -> 2.66 and 2.46 -> 2.56), and
one of (N/7)^2/2 steps by 0.15-0.18, with both ratios under `MAX_RATIO`.
"""

from __future__ import annotations

import sys

import pytest

from pillowcase import potential, qseries

SIZES = (1000, 2000, 4000)
MAX_RATIO = 3.0
MAX_RISE = 0.07


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
    assert ratios[1] - ratios[0] < MAX_RISE, (counts, ratios)
