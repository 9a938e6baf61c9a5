import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ncprob.free_product import ProductSpace
from ncprob.moment_space import (
    FactorState,
    GeneratorSymbol,
    Letter,
    all_words,
    canonical_moment_key,
    star_word,
)
from ncprob.scalar import ComplexRational

SPECS = Path(__file__).resolve().parent.parent / "specs"


def assert_refused(make, error: type, message: str) -> None:
    """``make()`` raises exactly the class ``error``, with exactly ``message``."""
    with pytest.raises(error) as info:
        make()
    assert (info.type, str(info.value)) == (error, message)


def semicircle_factor(index: str, name: str, degree_bound: int = 6) -> FactorState:
    """The standard semicircle: m_k is Catalan(k/2) for even k, 0 for odd k."""
    g = GeneratorSymbol(name, selfadjoint=True)
    letter = Letter(g, False, index)
    moments = {
        (letter,) * k: ComplexRational.of(
            0 if k % 2 else math.comb(k, k // 2) // (k // 2 + 1)
        )
        for k in range(1, degree_bound + 1)
    }
    return FactorState(index, degree_bound, [g], moments)


def small_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-2, 2), rng.randint(1, 3))


def small_scalar(rng: random.Random, complex_ok: bool = True) -> ComplexRational:
    re = small_fraction(rng)
    im = small_fraction(rng) if complex_ok else Fraction(0)
    return ComplexRational(re, im)


def random_factor_state(
    rng: random.Random,
    index: str,
    names: tuple[str, ...] = ("a",),
    degree_bound: int = 4,
    selfadjoint: bool | tuple[bool, ...] = True,
) -> FactorState:
    """A random star-consistent (not necessarily positive) factor state;
    ``selfadjoint`` is one flag for every name, or a tuple of one per name."""
    flags = (selfadjoint,) * len(names) if isinstance(selfadjoint, bool) else selfadjoint
    generators = [GeneratorSymbol(n, selfadjoint=s) for n, s in zip(names, flags)]
    letters = []
    for g in generators:
        letters.append(Letter(g, False, index))
        if not g.selfadjoint:
            letters.append(Letter(g, True, index))
    moments = {}
    for word in all_words(letters, degree_bound):
        if not word:
            continue
        key, _ = canonical_moment_key(word)
        if key in moments:
            continue
        value = small_scalar(rng, complex_ok=not all(flags))
        if key == star_word(key):
            value = ComplexRational(value.re)
        moments[key] = value
    return FactorState(index, degree_bound, generators, moments)


def random_product_space(
    rng: random.Random, factor_count: int = 2, degree_bound: int = 4
) -> ProductSpace:
    names = "abc"
    factors = [
        random_factor_state(rng, f"A{i + 1}", (names[i],), degree_bound)
        for i in range(factor_count)
    ]
    return ProductSpace(factors)


def measure_factor_state(
    rng: random.Random, index: str, name: str, degree_bound: int
) -> FactorState:
    """A positive factor state: moments of a finite atomic measure."""
    atoms = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3)]
    weights = [Fraction(rng.randint(1, 3)) for _ in atoms]
    total = sum(weights)
    weights = [w / total for w in weights]
    g = GeneratorSymbol(name, selfadjoint=True)
    letter = Letter(g, False, index)
    moments = {}
    for k in range(1, degree_bound + 1):
        mk = sum((w * a**k for w, a in zip(weights, atoms)), Fraction(0))
        moments[(letter,) * k] = ComplexRational(mk)
    return FactorState(index, degree_bound, [g], moments)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260809)


@pytest.fixture
def two_semicircles() -> ProductSpace:
    return ProductSpace([semicircle_factor("A1", "a"), semicircle_factor("A2", "b")])
