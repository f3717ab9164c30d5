"""The six value classes: frozen and compared by their fields.

`Basis2`, `HnfLattice`, `Monomial`, `Potential`, `PotentialDiff` and
`CheckResult` print as they always have.  All but `CheckResult` hash by their
fields as they always have; `CheckResult` holds a dict and cannot be hashed.
Every copy or unpickle is rebuilt through the class's checked constructor.
"""

from __future__ import annotations

import copy
import pickle
from collections.abc import Hashable
from fractions import Fraction

import pytest

from pillowcase.lattice import Basis2, HnfLattice
from pillowcase.oracle import CheckResult
from pillowcase.potential import Monomial, Potential, PotentialDiff
from pillowcase.qseries import QSeries

MONO = Monomial((0, 1, 1, 1, 1))
POTENTIAL = Potential(Fraction(1, 2), {MONO: QSeries((0, 1, Fraction(1, 3)))}, 2)

# repr and hash, as printed by the dataclass versions of these classes (64-bit CPython).
PINNED = [
    (Basis2((2, 1), (0, 3)), "Basis2(v1=(2, 1), v2=(0, 3))", 2340959361804903301),
    (HnfLattice(2, 1, 3), "HnfLattice(h=2, m=1, g=3)", -5685243413837761780),
    (MONO, "Monomial(exponents=(0, 1, 1, 1, 1))", 8523380663077927934),
    (
        POTENTIAL,
        "Potential(log_term=Fraction(1, 2), terms=mappingproxy({Monomial(exponents=(0, 1, 1, 1, 1)):"
        " QSeries((Fraction(0, 1), Fraction(1, 1), Fraction(1, 3)))}), trunc=2)",
        -7902476771687435047,
    ),
    (
        PotentialDiff(MONO, 2, Fraction(1, 3), Fraction(2, 3)),
        "PotentialDiff(monomial=Monomial(exponents=(0, 1, 1, 1, 1)), degree=2,"
        " lhs=Fraction(1, 3), rhs=Fraction(2, 3))",
        -2155002321994928528,
    ),
]
# One of each class, for the checks every class shares.
VALUES = [value for value, _, _ in PINNED] + [CheckResult(True, details={"degrees": 3})]
IDS = [type(value).__name__ for value in VALUES]


@pytest.mark.parametrize("value, text, digest", PINNED, ids=IDS[:-1])
def test_repr_and_hash_are_pinned(value, text, digest):
    assert repr(value) == text
    assert hash(value) == digest


def test_check_result_prints_its_fields_and_cannot_be_hashed():
    verdict = CheckResult(False, {"d": 3})
    assert repr(verdict) == "CheckResult(ok=False, counterexample={'d': 3}, details={})"
    assert repr(CheckResult(True, details={"degrees": 3})) == (
        "CheckResult(ok=True, counterexample=None, details={'degrees': 3})"
    )
    assert CheckResult(True).details is not CheckResult(True).details
    with pytest.raises(TypeError, match="unhashable type: 'CheckResult'"):
        hash(verdict)
    assert not isinstance(verdict, Hashable)


@pytest.mark.parametrize(
    "roundtrip",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize(
    "value", [HnfLattice(2, 1, 3), MONO, POTENTIAL], ids=["HnfLattice", "Monomial", "Potential"]
)
def test_copies_and_unpickles_call_the_constructor(monkeypatch, roundtrip, value):
    cls = type(value)
    checked = cls.__init__
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args)
        checked(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    twin = roundtrip(value)
    assert len(calls) == 1
    assert type(twin) is cls and twin == value and hash(twin) == hash(value)


def test_a_hand_built_pickle_is_checked():
    # GLOBAL HnfLattice, MARK, INT 2, INT 2, INT 1, TUPLE, REDUCE, STOP.
    payload = b"cpillowcase.lattice\nHnfLattice\n(I2\nI2\nI1\ntR."
    assert pickle.loads(payload.replace(b"I2\nI2", b"I2\nI1")) == HnfLattice(2, 1, 1)
    with pytest.raises(ValueError, match=r"^need m < h, got m=2, h=2$"):
        pickle.loads(payload)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value):
    name = type(value).__match_args__[0]
    before = getattr(value, name)
    with pytest.raises(AttributeError, match=rf"^cannot assign to field '{name}'$"):
        setattr(value, name, before)
    with pytest.raises(AttributeError, match=rf"^cannot delete field '{name}'$"):
        delattr(value, name)
    assert getattr(value, name) is before


def test_lattice_fields_live_in_slots():
    # The census builds one HnfLattice per sublattice, so it carries no instance dict.
    lattice = HnfLattice(2, 1, 3)
    assert HnfLattice.__slots__ == ("h", "m", "g")
    with pytest.raises(TypeError):
        vars(lattice)
    with pytest.raises(AttributeError):
        lattice.extra = 1
    with pytest.raises(AttributeError):
        object.__setattr__(lattice, "extra", 1)
    assert (lattice.h, lattice.m, lattice.g, lattice.d) == (2, 1, 3, 6)


def test_order_is_by_fields_and_only_within_one_class():
    assert HnfLattice(1, 0, 6) < HnfLattice(2, 0, 3) <= HnfLattice(2, 0, 3) < HnfLattice(2, 1, 3)
    assert Monomial((0, 0, 0, 0, 4)) < MONO and MONO >= MONO and MONO > Monomial((0, 0, 0, 0, 4))
    assert HnfLattice(2, 1, 3).__lt__(MONO) is NotImplemented
    assert HnfLattice(2, 1, 3).__eq__((2, 1, 3)) is NotImplemented
    with pytest.raises(TypeError):
        HnfLattice(2, 1, 3) < MONO
    with pytest.raises(TypeError):
        Basis2((1, 0), (0, 1)) < Basis2((1, 0), (0, 2))
