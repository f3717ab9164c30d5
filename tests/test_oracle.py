from __future__ import annotations

import ast
import json
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from pillowcase import cli, lattice, oracle, orbi
from pillowcase.lattice import HnfLattice, sigma1
from pillowcase.oracle import (
    INSERTION_PARITY_TABLE,
    correlator_crosscheck,
    image_table_check,
    lumpsum_check,
    orbit_agreement_check,
    rh_uniqueness_check,
)
from pillowcase.orbi import OrbiPoint

X1, X2, X3, X4 = OrbiPoint

# A bool is an int that equals 1 and a float would only fail inside range():
# every entry check refuses both as it refuses a degree out of range.
NOT_INTS = (True, 2.0)


# ---------------------------------------------------------------------------
# matrix orbit census
# ---------------------------------------------------------------------------


def test_orbit_agreement_check():
    result = orbit_agreement_check(8)
    assert result.ok
    for dmax in (0, oracle.SL2_EXHAUSTIVE_MAX + 1, *NOT_INTS):
        with pytest.raises(ValueError):
            orbit_agreement_check(dmax)


def test_orbit_agreement_catches_hnf_reduce_off_by_one(monkeypatch):
    real = lattice.hnf_reduce

    def shifted(basis):
        lat = real(basis)
        return HnfLattice(lat.h, (lat.m + 1) % lat.h, lat.g)

    argv = ["verify", "--suite", "oracle", "--max-degree", "12"]
    assert cli.main(argv) == 0
    monkeypatch.setattr(lattice, "hnf_reduce", shifted)
    assert cli.main(argv) == 1
    result = orbit_agreement_check(12)
    assert not result.ok and result.counterexample["d"] == 2


def test_orbit_agreement_compares_sets_not_counts(monkeypatch):
    # A listing of the right length with one sublattice twice is caught.
    real = lattice.enumerate_sublattices
    monkeypatch.setattr(lattice, "enumerate_sublattices", lambda d: real(d)[:-1] + real(d)[:1])
    result = orbit_agreement_check(4)
    assert not result.ok
    assert result.counterexample["d"] == 2
    assert result.counterexample["unmatched"] == [{"h": 2, "m": 1, "g": 1, "d": 2}]


def test_orbit_scan_meets_matrices_as_the_four_entry_scan_does():
    # Solving for delta must keep the first matrix met in each orbit, and the
    # orbits in the order first met: hnf_reduce is checked on that matrix.
    for d in range(1, 7):
        first = {}
        for alpha, beta, gamma, delta in product(range(-d, d + 1), repeat=4):
            if alpha * delta - beta * gamma == d:
                form = oracle._reduce_columns(alpha, beta, gamma, delta)
                first.setdefault(form, (alpha, beta, gamma, delta))
        assert list(oracle._orbit_representatives(d).items()) == list(first.items())


def test_orbit_walk_reduces_each_solution_once_in_order(monkeypatch):
    # The walk skips the (alpha, beta, gamma) that solve nothing, so it must
    # reduce exactly the determinant-d matrices of [-d, d]^4, each once, in
    # the order a scan of every (alpha, beta, gamma) solving for delta meets them.
    real = oracle._reduce_columns
    reduced = []

    def counted(*matrix):
        reduced.append(matrix)
        return real(*matrix)

    monkeypatch.setattr(oracle, "_reduce_columns", counted)
    total = 0
    for d in range(1, 13):
        reduced.clear()
        oracle._orbit_representatives(d)
        total += len(reduced)
        if d > 10:
            continue
        span = range(-d, d + 1)
        scan = []
        for alpha, beta, gamma in product(span, repeat=3):
            if alpha:
                delta, rest = divmod(d + beta * gamma, alpha)
                if not rest and -d <= delta <= d:
                    scan.append((alpha, beta, gamma, delta))
            elif beta * gamma == -d:
                scan.extend((alpha, beta, gamma, delta) for delta in span)
        assert reduced == scan
        # alpha = 0, beta = 0 and negative entries all occur; a pair whose gcd
        # does not divide d (say alpha = beta = 2 at odd d) must add nothing.
        assert any(m[0] == 0 for m in scan) and any(m[1] == 0 for m in scan)
        assert any(min(m) < 0 for m in scan)
    assert total == 12_876


# ---------------------------------------------------------------------------
# corner classification
# ---------------------------------------------------------------------------


def test_parity_table_has_all_eight_cases():
    assert sorted(INSERTION_PARITY_TABLE) == [
        (g, h, m) for g in (0, 1) for h in (0, 1) for m in (0, 1)
    ]
    # odd-index covers hit three distinct corners, even-index ones never do
    for (g, h, m), images in INSERTION_PARITY_TABLE.items():
        if g == h == 1:
            assert sorted(images) == [X2, X3, X4]
        else:
            assert len(set(images)) <= 2


def test_corner_of_reduces_mod_one_and_refuses_other_points():
    # A doubled coordinate is halved and reduced once; the corner rule then
    # names reduced points only.
    half = oracle._half_mod_one
    assert oracle._corner_of(half(3), half(-1)) is X3
    assert oracle._corner_of(half(-4), half(5)) is X4
    assert half(3) == (1, 2) and half(-4) == (0, 1)
    with pytest.raises(ValueError, match=r"\(1/3, 0\) is not a half-period point"):
        oracle._corner_of((1, 3), (0, 1))
    with pytest.raises(ValueError, match=r"\(3/2, 1/2\) is not"):
        oracle._corner_of((3, 2), (1, 2))


def test_image_table_check_halves_each_coordinate_once_per_call(monkeypatch):
    real = oracle._half_mod_one
    halved = []

    def counted(a):
        halved.append(a)
        return real(a)

    monkeypatch.setattr(oracle, "_half_mod_one", counted)
    coordinates = {0}
    for d in range(1, 31):
        for lat in lattice.enumerate_sublattices(d):
            coordinates |= {lat.h, lat.h + lat.m, lat.m, lat.g}
    for _ in range(2):  # the memo is the call's own, so a second call halves again
        halved.clear()
        assert image_table_check(30).ok
        assert sorted(halved) == sorted(coordinates)


def test_image_table_check_passes():
    result = image_table_check(30)
    assert result.ok
    assert result.details["lattices"] == sum(sigma1(d) for d in range(1, 31))


def test_image_table_check_rejects_bad_range():
    for dmax in (0, oracle.PARITY_EXHAUSTIVE_MAX + 1, *NOT_INTS):
        with pytest.raises(ValueError):
            image_table_check(dmax)


def _swap_x3_x4(images):
    swap = {X3: X4, X4: X3}
    return tuple(swap.get(p, p) for p in images)


def test_image_table_check_catches_swapped_table(monkeypatch):
    bad = {key: _swap_x3_x4(images) for key, images in INSERTION_PARITY_TABLE.items()}
    monkeypatch.setattr(oracle, "INSERTION_PARITY_TABLE", bad)
    result = image_table_check(10)
    assert not result.ok
    assert result.counterexample["d"] == 1


def test_image_table_check_sees_a_fault_at_one_lattice(monkeypatch):
    # Corners are reduced once per point, but every lattice is still compared.
    real = orbi.classify_images

    def wrong_at_one(lat):
        images = real(lat)
        return _swap_x3_x4(images) if (lat.h, lat.m, lat.g) == (10, 7, 3) else images

    monkeypatch.setattr(orbi, "classify_images", wrong_at_one)
    result = image_table_check(30)
    assert not result.ok
    cex = result.counterexample
    assert (cex["d"], cex["h"], cex["m"], cex["g"]) == (30, 10, 7, 3)


def test_image_table_check_reads_the_corner_names_on_each_call(monkeypatch):
    assert image_table_check(10).ok
    swapped = {point: _swap_x3_x4((corner,))[0] for point, corner in oracle._CORNER_BY_POINT.items()}
    monkeypatch.setattr(oracle, "_CORNER_BY_POINT", swapped)
    result = image_table_check(10)
    assert not result.ok
    assert result.counterexample["d"] == 1


# ---------------------------------------------------------------------------
# closed forms and the lump sum
# ---------------------------------------------------------------------------


def test_correlator_crosscheck_passes():
    result = correlator_crosscheck(20)
    assert result.ok
    assert result.details["classes_checked"] == 35 * 20


def test_crosscheck_evaluates_each_closed_form_once_per_shape(monkeypatch):
    real = oracle._closed_form_count
    calls = []

    def counted(shape, d, sigma):
        calls.append((shape, d))
        return real(shape, d, sigma)

    monkeypatch.setattr(oracle, "_closed_form_count", counted)
    result = correlator_crosscheck(20)
    assert result.ok and result.details["classes_checked"] == 35 * 20
    shapes = [(1, 1, 1, 1), (1, 1, 2), (1, 3), (2, 2), (4,)]
    assert sorted(calls) == sorted((shape, d) for shape in shapes for d in range(1, 21))


def test_crosscheck_catches_dropped_reordering(monkeypatch):
    kept = tuple(t for t in orbi.MARKING_PERMUTATIONS if t != (2, 4, 3))
    monkeypatch.setattr(orbi, "MARKING_PERMUTATIONS", kept)
    result = correlator_crosscheck(6)
    assert not result.ok
    assert result.counterexample["d"] <= 3


def test_lumpsum_check_passes():
    assert lumpsum_check(40).ok


def test_lumpsum_catches_dropped_reordering(monkeypatch):
    kept = tuple(t for t in orbi.MARKING_PERMUTATIONS if t != (2, 4, 3))
    monkeypatch.setattr(orbi, "MARKING_PERMUTATIONS", kept)
    result = lumpsum_check(5)
    assert not result.ok
    assert result.counterexample["d"] == 1


def test_check_range_validation():
    for check in (correlator_crosscheck, lumpsum_check):
        for dmax in (0, oracle.DIVISOR_SUM_MAX + 1, *NOT_INTS):
            with pytest.raises(ValueError):
                check(dmax)


# ---------------------------------------------------------------------------
# branching data census
# ---------------------------------------------------------------------------


def test_rh_uniqueness_small_degrees():
    for dmax in range(1, 7):
        result = rh_uniqueness_check(dmax)
        assert result.ok
        assert result.details["degrees"] == dmax
        assert result.details["solutions"] > 0


def test_rh_solution_counts():
    # odd degree forces a bijective corner assignment: 24 profiles; even
    # degree pairs the marked points over two corners: 36 profiles at d = 2.
    # The check sums over d = 1..dmax, so a degree's own count is a difference.
    assert rh_uniqueness_check(1).details["solutions"] == 24
    assert rh_uniqueness_check(2).details["solutions"] == 24 + 36
    totals = [0] + [rh_uniqueness_check(dmax).details["solutions"] for dmax in range(1, 7)]
    assert [b - a for a, b in zip(totals, totals[1:])] == [24, 36, 24, 40, 24, 40]


def test_rh_walks_each_fiber_size_pattern_once_per_degree(monkeypatch):
    # 256 corner assignments share 35 ordered patterns of fiber sizes.
    real = oracle._profiles_within
    budgets = []

    def counted(fiber_lists, budget):
        budgets.append(budget)
        return real(fiber_lists, budget)

    monkeypatch.setattr(oracle, "_profiles_within", counted)
    totals = [0]
    for dmax in range(1, 7):
        budgets.clear()
        totals.append(rh_uniqueness_check(dmax).details["solutions"])
        walks = Counter(budgets)
        assert sorted(walks) == [2 * d - 2 for d in range(1, dmax + 1)]
        assert max(walks.values()) <= 35
    assert [b - a for a, b in zip(totals, totals[1:])] == [24, 36, 24, 40, 24, 40]


def test_rh_counterexample_names_the_markers_of_the_failing_assignment(monkeypatch):
    # A faked second profile for two marked points over one corner at d = 2
    # first fails at assignment (1, 1, 2, 2), in the second profile of its
    # walk: marked points 3 and 4 over corner 2, point 3 of order 3.  Fiber
    # sizes (2, 2, 0, 0) are not sorted, so this pins the fibers' order too.
    fiber_solutions = oracle._fiber_solutions

    def patched(n_marked, d):
        extra = [((1, 0), (), 0, False)] if (n_marked, d) == (2, 2) else []
        return fiber_solutions(n_marked, d) + extra

    monkeypatch.setattr(oracle, "_fiber_solutions", patched)
    assert rh_uniqueness_check(1).ok
    result = rh_uniqueness_check(4)
    assert not result.ok
    assert result.counterexample == {
        "d": 2,
        "assignment": [1, 1, 2, 2],
        "marked_orders": [1, 1, 3, 1],
        "even_orders": [[], [], [2], [2]],
    }


def test_rh_checks_every_degree_up_to_dmax(capsys, monkeypatch):
    # One marked point over a corner at d = 3 may also ramify to order 3,
    # with a faked excess of 1: beside three unramified fibers (excess 1
    # each) the total 4 stays within 2d - 2, so the profile is admitted.
    fiber_solutions = oracle._fiber_solutions

    def patched(n_marked, d):
        extra = [((1,), (), 1, False)] if (n_marked, d) == (1, 3) else []
        return fiber_solutions(n_marked, d) + extra

    monkeypatch.setattr(oracle, "_fiber_solutions", patched)
    assert rh_uniqueness_check(2).ok
    result = rh_uniqueness_check(5)
    assert not result.ok
    assert result.counterexample["d"] == 3
    assert sorted(result.counterexample["marked_orders"]) == [1, 1, 1, 3]
    argv = ["verify", "--suite", "rh", "--max-degree", "5", "--format", "json"]
    assert cli.main(argv) == 1
    (record,) = json.loads(capsys.readouterr().out)
    assert record == {
        "suite": "rh",
        "label": "rh (d <= 5)",
        "ok": False,
        "details": {},
        "counterexample": result.counterexample,
    }


def _admitted(fiber_lists, budget):
    return [combo for combo in product(*fiber_lists) if sum(sol[2] for sol in combo) <= budget]


def test_rh_pruned_walk_yields_the_admitted_product_in_order():
    for d in range(1, 8):
        by_size = {n: oracle._fiber_solutions(n, d) for n in range(5)}
        for assignment in product(range(4), repeat=4):
            lists = [by_size[assignment.count(t)] for t in range(4)]
            assert list(oracle._profiles_within(lists, 2 * d - 2)) == _admitted(lists, 2 * d - 2)


def test_rh_pruned_walk_does_not_rely_on_sorted_excesses():
    # Excesses out of order in every list, and an empty list admits nothing.
    lists = [
        [("a", (), 3, False), ("b", (), 0, True), ("c", (), 2, False)],
        [("d", (), 1, False), ("e", (), 4, False), ("f", (), 0, True)],
        [("g", (), 2, False), ("h", (), 1, False)],
    ]
    for budget in range(-1, 10):
        assert list(oracle._profiles_within(lists, budget)) == _admitted(lists, budget)
    assert [c[0][0] + c[1][0] + c[2][0] for c in oracle._profiles_within(lists, 3)] == [
        "bdg", "bdh", "bfg", "bfh", "cfh"
    ]
    assert list(oracle._profiles_within(lists + [[]], 10)) == []


def test_rh_range():
    for d in (0, oracle.RH_EXHAUSTIVE_MAX + 1, *NOT_INTS):
        with pytest.raises(ValueError):
            rh_uniqueness_check(d)


# ---------------------------------------------------------------------------
# independence
# ---------------------------------------------------------------------------

# What oracle.py may take from the package it checks: the objects under test
# and the value classes they use.  Whole modules may be imported only to read
# the listed attributes.
ORACLE_MAY_IMPORT = {
    ("lattice", "Basis2"),
    ("lattice", "HnfLattice"),
    ("lattice", "_Value"),
    ("lattice", "enumerate_sublattices"),
    ("lattice", "hnf_reduce"),
    ("lattice", "sigma1"),
    ("orbi", "OrbiPoint"),
}
ORACLE_MAY_READ = {"orbi": {"classify_images", "correlator", "total_count_series"}}


def test_oracle_takes_only_its_objects_under_test_from_the_package():
    """The oracle's hard limit, read off its source with `ast`.

    Function-local imports count as well.  A check routed through, say,
    `lattice.divisors` or `orbi._cover_census` would check that code against
    itself, and this test fails.  Widening an allowlist above needs a
    CHANGES.md line that names the new object under test.
    """
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    imported, modules = set(), {}  # (module, name); bound name -> whole module
    for node in nodes:
        if isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "pillowcase" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "pillowcase"):
            assert node.level <= 1
            module = node.module if node.level else node.module.partition(".")[2]
            for alias in node.names:
                if module:
                    imported.add((module, alias.name))
                else:
                    modules[alias.asname or alias.name] = alias.name
    assert not ({module for module, _ in imported} | set(modules.values())) & {"qseries", "potential"}
    assert imported <= ORACLE_MAY_IMPORT
    assert set(modules.values()) <= set(ORACLE_MAY_READ)
    for bound, module in modules.items():
        reads = [
            node.attr
            for node in nodes
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == bound
        ]
        assert set(reads) <= ORACLE_MAY_READ[module]
        # the module's name is used only to read one of those attributes
        assert sum(isinstance(node, ast.Name) and node.id == bound for node in nodes) == len(reads)
