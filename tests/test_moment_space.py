import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncprob.errors import (
    FactorMismatchError,
    SpecFormatError,
    TruncationError,
    ValidationError,
)
from ncprob.moment_space import (
    EMPTY_WORD,
    FactorState,
    GeneratorSymbol,
    Letter,
    Polynomial,
    Word,
    all_words,
    factor_state_from_json,
    parse_word,
)
from ncprob.nc_lattice import Partition, enumerate_nc
from ncprob.scalar import ONE, ZERO, ComplexRational

from conftest import random_factor_state, semicircle_factor
from nc_oracles import center, eval_phi_pi, one_block, singletons, words_up_to


def letters_of(state):
    return state.letters()


# -- words and star -------------------------------------------------------------


def test_letter_normalization():
    g = GeneratorSymbol("a", selfadjoint=True)
    assert Letter(g, True, "A").starred is False
    h = GeneratorSymbol("u")
    assert Letter(h, True, "A").starred is True
    assert Letter(h, False, "A").star() == Letter(h, True, "A")


def test_generator_named_1_is_refused():
    # "1" is the text of the identity word, so such a letter could never load.
    with pytest.raises(ValidationError, match="1 denotes the identity"):
        GeneratorSymbol("1")


def test_word_star_reverses_and_flips():
    u = GeneratorSymbol("u")
    v = GeneratorSymbol("v")
    lu, lv = Letter(u, False, "A"), Letter(v, False, "A")
    w = Word((lu, lv))
    assert w.star() == Word((lv.star(), lu.star()))
    assert EMPTY_WORD.star() == EMPTY_WORD
    assert w.star().star() == w


def test_polynomial_algebra():
    u = GeneratorSymbol("u")
    lu = Letter(u, False, "A")
    p = Polynomial.from_letter(lu)
    q = Polynomial.one()
    assert (p + q) - q == p
    assert (p * q) == p
    assert p - p == Polynomial()
    assert dict(((p + q) * (p + q)).items())[Word((lu, lu))] == ONE
    assert 2 * p == p + p
    # star is an antihomomorphism with conjugated coefficients
    z = ComplexRational(Fraction(1, 2), Fraction(1, 3))
    r = Polynomial({Word((lu,)): z})
    assert r.star() == Polynomial({Word((lu.star(),)): z.conjugate()})
    assert (p * r).star() == r.star() * p.star()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from([0, 1]), min_size=0, max_size=4))
def test_star_involution_on_words(pattern):
    u = GeneratorSymbol("u")
    lu = Letter(u, False, "A")
    w = Word(tuple(lu if b else lu.star() for b in pattern))
    assert w.star().star() == w


# -- factor states ---------------------------------------------------------------


def test_validation_requires_totality():
    g = GeneratorSymbol("a", selfadjoint=True)
    la = Letter(g, False, "A")
    with pytest.raises(ValidationError, match="missing moment"):
        FactorState("A", 2, [g], {Word((la,)): ZERO})


def test_validation_rejects_conflicting_star_entries():
    u = GeneratorSymbol("u")
    lu = Letter(u, False, "A")
    base = {
        Word((lu,)): ZERO,
        Word((lu.star(),)): ZERO,
        Word((lu, lu)): ZERO,
        Word((lu.star(), lu.star())): ONE,  # should equal conj of previous
        Word((lu, lu.star())): ONE,
        Word((lu.star(), lu)): ONE,
    }
    with pytest.raises(ValidationError, match="conflicting"):
        FactorState("A", 2, [u.__class__("u")], base)


def test_validation_rejects_complex_selfpaired_moment():
    u = GeneratorSymbol("u")
    lu = Letter(u, False, "A")
    moments = {
        Word((lu,)): ZERO,
        Word((lu.star(),)): ZERO,
        Word((lu, lu)): ZERO,
        Word((lu, lu.star())): ComplexRational.parse("i"),  # (u u*)* = u u*
        Word((lu.star(), lu)): ONE,
    }
    with pytest.raises(ValidationError, match="must be real"):
        FactorState("A", 2, [u], moments)


def test_star_compatibility_holds_on_random_states(rng):
    state = random_factor_state(rng, "A", ("u",), 3, selfadjoint=False)
    for word in words_up_to(state, 3):
        assert state.phi_word(word.star()) == state.phi_word(word).conjugate()


def test_phi_autofills_star_conjugates():
    u = GeneratorSymbol("u")
    lu = Letter(u, False, "A")
    z = ComplexRational.parse("1/2+1/3 i")
    moments = {
        Word((lu,)): z,
        Word((lu, lu)): ZERO,
        Word((lu, lu.star())): ONE,
        Word((lu.star(), lu)): ONE,
    }
    state = FactorState("A", 2, [u], moments)
    assert state.phi_word(Word((lu.star(),))) == z.conjugate()
    assert state.phi_word(Word((lu.star(), lu.star()))) == ZERO


# -- evaluation -------------------------------------------------------------------


def test_eval_phi_n_examples():
    state = semicircle_factor("A1", "a")
    one = Polynomial.one()
    assert state.eval_phi_n([one, one, one]) == ONE
    a = Polynomial.from_letter(state.letter("a"))
    assert state.eval_phi_n([a]) == ZERO
    centered = center(state, a)
    assert state.eval_phi_n([centered, centered]) == ONE


def test_eval_phi_pi_examples():
    state = semicircle_factor("A1", "a")
    la = state.letter("a")
    letters = (la, la, la)
    assert eval_phi_pi(state, one_block(3), letters) == state.phi_word(
        Word(letters)
    )
    assert eval_phi_pi(state, singletons(3), letters) == ZERO
    pi = Partition.of(3, [[1, 3], [2]])
    assert eval_phi_pi(state, pi, letters) == state.phi_word(
        Word((la, la))
    ) * state.phi_word(Word((la,)))


def test_eval_phi_pi_is_blockwise_product(rng):
    state = random_factor_state(rng, "A", ("u",), 5, selfadjoint=False)
    ls = state.letters()
    for n in (2, 3, 4):
        for pi in enumerate_nc(n):
            tup = tuple(rng.choice(ls) for _ in range(n))
            expected = ONE
            for block in pi.blocks:
                expected = expected * state.eval_phi_n(
                    [Polynomial.from_letter(tup[i - 1]) for i in block]
                )
            assert eval_phi_pi(state, pi, tup) == expected


def test_eval_phi_n_is_multilinear(rng):
    state = random_factor_state(rng, "A", ("a",), 4)
    la = state.letter("a")
    p = Polynomial.from_letter(la)
    q = center(state, p * p)
    c = ComplexRational(Fraction(2, 3), Fraction(-1, 2))
    lhs = state.eval_phi_n([p, c * p + q, p])
    rhs = c * state.eval_phi_n([p, p, p]) + state.eval_phi_n([p, q, p])
    assert lhs == rhs


def test_centering():
    state = semicircle_factor("A1", "a")
    assert center(state, Polynomial.one()) == Polynomial()
    a = Polynomial.from_letter(state.letter("a"))
    centered = center(state, a * a)
    assert state.phi_poly(centered) == ZERO
    assert center(state, centered) == centered


def test_errors():
    state = semicircle_factor("A1", "a", degree_bound=3)
    la = state.letter("a")
    with pytest.raises(TruncationError) as err:
        state.phi_word(Word((la,) * 4))
    assert err.value.word == "a a a a"
    other = Letter(GeneratorSymbol("b", selfadjoint=True), False, "A2")
    with pytest.raises(FactorMismatchError):
        state.phi_word(Word((other,)))


# -- JSON -------------------------------------------------------------------------


def good_spec():
    return {
        "factor": "A1",
        "degree_bound": 2,
        "generators": [{"name": "a", "selfadjoint": True}],
        "moments": {"a": "0", "a a": "1"},
    }


def test_factor_state_from_json():
    state = factor_state_from_json(good_spec())
    assert state.factor == "A1"
    la = state.letter("a")
    assert state.phi_word(Word((la, la))) == ONE
    # starred selfadjoint letters normalize away
    assert parse_word("a*", {"a": la}) == Word((la,))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s.pop("factor"),
        lambda s: s.update(degree_bound="2"),
        lambda s: s.update(generators=[{"selfadjoint": True}]),
        lambda s: s.update(moments={"a": "0", "a a": "1", "c": "0"}),
        lambda s: s.update(moments={"a": "0", "a a": "nope"}),
        lambda s: s.update(moments={"a": "0"}),
        lambda s: s.update(moments={"a": "0", "a a": "1", "a a a": "0"}),
        lambda s: s.update(moments={"a": "0", "a a": "1", "a* a*": "2"}),
        lambda s: s.update(degree_bound=True, moments={"a": "0"}),
        lambda s: s.update(generators=[{"name": 5}]),
        lambda s: s.update(generators=7),
        lambda s: s.update(generators=[{"name": "a", "selfadjoint": "false"}]),
    ],
)
def test_factor_state_from_json_rejects(mutate):
    spec = good_spec()
    mutate(spec)
    with pytest.raises(SpecFormatError):
        factor_state_from_json(spec)


def test_all_words_enumeration():
    g = GeneratorSymbol("u")
    lu = Letter(g, False, "A")
    words = list(all_words([lu, lu.star()], 2))
    assert len(words) == 1 + 2 + 4
    assert words[0] == EMPTY_WORD
