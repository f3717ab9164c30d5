"""Growth gates on the series path, from executed-line counts.

Each gate counts the line events of every Python frame (stdlib frames
included) under `sys.settrace` while one entry point runs at each size in
`SIZES`, in this process, and bounds the ratio of each count to the one
before it.  Only ratios are gated, never counts, which change with the
CPython version.  Both entry points build sigma_1 by trial division once
per truncation (the divisor table is memoised, and each count starts from a
cold one), about N^1.5 work beside a linear part: on CPython 3.11 the ratio
reads 2.350 (`f2_series`) and 2.268 (`st_reference_potential`) from N = 2000
to 4000 and 2.392 and 2.322 from 4000 to 8000, where quadratic growth would
read about 4.  A quadratic term's share of the count grows with N, so the
second pair trips on a smaller one than the first.

The same share makes the ratio itself rise from one pair to the next, which
shows a quadratic term long before either ratio nears 4.  So the rise from
the first ratio to the second is gated too: the clean code rises by 0.041
and 0.055 (the linear part's falling share lifts the second), while a loop
planted in `f2_series` rises by 0.139 and 0.149 at (N/20)^2/2 steps, 0.090
and 0.101 at (N/30)^2/2 and 0.072 and 0.083 at (N/40)^2/2.  Each size counts
in under a quarter of a second.
"""

from __future__ import annotations

import sys
from functools import partial

import pytest

from pillowcase import lattice, potential, qseries

SIZES = (2000, 4000, 8000)
MAX_RATIO = 3.0
MAX_RISE = 0.07


def _lines_executed(fn, n: int, monkeypatch) -> int:
    # `divisor_series` memoises its table by (trunc, sigma1).  A sigma1 object
    # made just now cannot equal the key of any table built before, so every
    # count starts cold whatever ran earlier; `partial` adds no Python frame.
    monkeypatch.setattr(qseries, "sigma1", partial(lattice.sigma1))
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
def test_line_count_grows_below_quadratic(fn, monkeypatch):
    counts = [_lines_executed(fn, n, monkeypatch) for n in SIZES]
    ratios = [large / small for small, large in zip(counts, counts[1:])]
    assert max(ratios) < MAX_RATIO, (counts, ratios)
    assert ratios[1] - ratios[0] < MAX_RISE, (counts, ratios)
