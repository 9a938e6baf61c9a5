"""The immutable value types behave as the frozen dataclasses they replace.

Each case builds two instances from equal fields.  They must be equal with
equal hashes, refuse assignment, differ from the tuple of their fields, and
print exactly as the dataclass printed (the strings below were recorded from
the dataclass version).  ``Letter`` is the exception: one object per letter,
compared and hashed by identity.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from ncprob.cumulant_calculus import MomentSequence
from ncprob.moment_space import (
    GeneratorSymbol,
    Letter,
    factor_state_from_json,
)
from ncprob.nc_lattice import Partition
from ncprob.scalar import ONE, ZERO, ComplexRational
from ncprob.verification import FreenessReport, GramMatrix, PositivityResult

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def a():
    return Letter(GeneratorSymbol("a", True), False, "A1")


def u_star():
    return Letter(GeneratorSymbol("u"), True, "A2")


def gram():
    return GramMatrix(("1", "a"), ((ONE, ZERO), (ZERO, ONE)))


GRAM_REPR = (
    "GramMatrix(labels=('1', 'a'), entries=((ComplexRational(1), ComplexRational(0)), "
    "(ComplexRational(0), ComplexRational(1))))"
)

CASES = {
    "ComplexRational": (
        lambda: ComplexRational(Fraction(1, 2), Fraction(-1, 3)),
        "ComplexRational(1/2-1/3 i)",
    ),
    "GeneratorSymbol": (
        lambda: GeneratorSymbol("a", True),
        "GeneratorSymbol(name='a', selfadjoint=True)",
    ),
    "Partition": (lambda: Partition.of(4, [[1, 4], [2, 3]]), "Partition({1,4}{2,3})"),
    "MomentSequence": (
        lambda: MomentSequence.of([0, 1]),
        "MomentSequence(values=(ComplexRational(0), ComplexRational(1)))",
    ),
    "FreenessReport": (
        lambda: FreenessReport("moments", 2, 3, (("a u", ComplexRational(Fraction(1, 2))),)),
        "FreenessReport(mode='moments', max_degree=2, checked_words=3, "
        "violations=(('a u', ComplexRational(1/2)),))",
    ),
    "GramMatrix": (gram, GRAM_REPR),
    "PositivityResult": (
        lambda: PositivityResult(False, (Fraction(1),), (ONE, -ONE), gram(), True),
        "PositivityResult(psd=False, pivots=(Fraction(1, 1),), "
        "witness=(ComplexRational(1), ComplexRational(-1)), "
        f"gram={GRAM_REPR}, schur_consistent=True)",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_value_type_contract(name):
    make, text = CASES[name]
    x, y = make(), make()
    assert type(x).__name__ == name and x is not y
    assert not hasattr(x, "__dict__")
    fields = tuple(getattr(x, f) for f in type(x).__slots__)
    for field, value in zip(type(x).__slots__, fields):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(x, field, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(x, field)
    assert x == y and not x != y and hash(x) == hash(y) == hash(fields)
    assert x != fields and fields != x
    assert repr(x) == text


def test_letter_is_one_object_per_letter():
    # Letter keeps the contract above but for identity: equal fields give
    # the same object, which hashes as an object does, not as its fields.
    x, y = u_star(), u_star()
    assert type(x) is Letter and x is y
    assert Letter.__eq__ is object.__eq__ and Letter.__hash__ is object.__hash__
    assert not hasattr(x, "__dict__") and getattr(x, "_hash", None) is None
    fields = tuple(getattr(x, f) for f in Letter.__slots__)
    for field, value in zip(Letter.__slots__, fields):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(x, field, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(x, field)
    assert x == y and not x != y
    assert x != fields and fields != x
    assert repr(x) == (
        "Letter(generator=GeneratorSymbol(name='u', selfadjoint=False), starred=True, "
        "factor='A2')"
    )
    g = GeneratorSymbol("a", True)
    assert Letter(g, True, "A1") is Letter(g, False, "A1") is a()
    spec = json.loads((GOLDEN_INPUTS / "factor_u.json").read_text())
    first, second = factor_state_from_json(spec), factor_state_from_json(spec)
    assert first is not second
    assert all(l is m for l, m in zip(first.letters(), second.letters(), strict=True))
    assert Letter(GeneratorSymbol("u"), True, "A1") is first.letters()[1]


def test_value_types_differ_by_class_and_fields():
    assert ComplexRational(Fraction(1)) != Fraction(1)
    assert ComplexRational(Fraction(1)) != ComplexRational(Fraction(1), Fraction(1))
    assert ComplexRational() == ZERO
    assert GeneratorSymbol("a") != GeneratorSymbol("a", True)


def test_letter_of_a_selfadjoint_generator_drops_its_star():
    g = GeneratorSymbol("a", selfadjoint=True)
    assert Letter(g, True, "A1") == Letter(g, False, "A1")
    assert Letter(g, True, "A1").starred is False
    assert Letter(GeneratorSymbol("u"), True, "A1").starred is True
