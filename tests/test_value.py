"""The immutable value types behave as the frozen dataclasses they replace.

Each case builds two instances from equal fields.  They must be equal with
equal hashes, refuse assignment, differ from the tuple of their fields, and
print exactly as the dataclass printed (the strings below were recorded from
the dataclass version).
"""

from fractions import Fraction

import pytest

from ncprob.cumulant_calculus import MomentSequence
from ncprob.free_product import TensorWord
from ncprob.moment_space import EMPTY_WORD, GeneratorSymbol, Letter, Polynomial, Word
from ncprob.nc_lattice import Partition
from ncprob.scalar import ONE, ZERO, ComplexRational
from ncprob.verification import FreenessReport, GramMatrix, PositivityResult


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
    "Letter": (
        u_star,
        "Letter(generator=GeneratorSymbol(name='u', selfadjoint=False), starred=True, "
        "factor='A2')",
    ),
    "Word": (lambda: Word((a(), u_star())), "Word(a u*)"),
    "Partition": (lambda: Partition.of(4, [[1, 4], [2, 3]]), "Partition({1,4}{2,3})"),
    "MomentSequence": (
        lambda: MomentSequence.of([0, 1]),
        "MomentSequence(values=(ComplexRational(0), ComplexRational(1)))",
    ),
    "TensorWord": (
        lambda: TensorWord((
            ("A1", Polynomial.from_letter(a())),
            ("A2", Polynomial.from_letter(u_star()) - Polynomial.monomial(EMPTY_WORD, 2)),
        )),
        "TensorWord([(1) a]@A1 (x) [(-2) 1 + (1) u*]@A2)",
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


def test_value_types_differ_by_class_and_fields():
    assert ComplexRational(Fraction(1)) != Fraction(1)
    assert ComplexRational(Fraction(1)) != ComplexRational(Fraction(1), Fraction(1))
    assert Word((a(),)) != Word((a(), a()))
    assert Word() == EMPTY_WORD and Word().letters == ()
    assert ComplexRational() == ZERO
    assert GeneratorSymbol("a") != GeneratorSymbol("a", True)


def test_letter_of_a_selfadjoint_generator_drops_its_star():
    g = GeneratorSymbol("a", selfadjoint=True)
    assert Letter(g, True, "A1") == Letter(g, False, "A1")
    assert Letter(g, True, "A1").starred is False
    assert Letter(GeneratorSymbol("u"), True, "A1").starred is True
