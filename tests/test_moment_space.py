import json
import re
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
    FactorState,
    GeneratorSymbol,
    Letter,
    all_words,
    cumulant_table_from_json,
    factor_state_from_json,
    parse_word,
    star_word,
    word_sort_key,
    word_text,
)
from ncprob.nc_lattice import Partition, enumerate_nc
from ncprob.scalar import ONE, ZERO, ComplexRational

from conftest import assert_refused, random_factor_state, semicircle_factor
from nc_oracles import (
    Polynomial,
    center,
    eval_phi_n,
    eval_phi_pi,
    one_block,
    singletons,
    words_up_to,
)


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
    w = (lu, lv)
    assert star_word(w) == (lv.star(), lu.star())
    assert star_word(()) == ()
    assert star_word(star_word(w)) == w
    # Each letter keeps its one star partner, so a starred word holds it.
    assert all(s is l.star() for s, l in zip(star_word(w), reversed(w), strict=True))
    assert lu.star().star() is lu and star_word(w)[1] is lu.star()


def test_word_text_and_order():
    a = Letter(GeneratorSymbol("a", selfadjoint=True), False, "A")
    lu = Letter(GeneratorSymbol("u"), False, "A")
    assert word_text(()) == "1"
    assert word_text((a, lu.star(), lu)) == "a u* u"
    # shortest first, then letter by letter: factor, name, starred
    words = [(lu.star(),), (a, a), (), (lu,), (a,)]
    assert sorted(words, key=word_sort_key) == [(), (a,), (lu,), (lu.star(),), (a, a)]


def test_polynomial_algebra():
    u = GeneratorSymbol("u")
    lu = Letter(u, False, "A")
    p = Polynomial.from_letter(lu)
    q = Polynomial.monomial(())
    assert (p + q) - q == p
    assert (p * q) == p
    assert p - p == Polynomial()
    assert dict(((p + q) * (p + q)).items())[(lu, lu)] == ONE
    assert 2 * p == p + p
    # star is an antihomomorphism with conjugated coefficients
    z = ComplexRational(Fraction(1, 2), Fraction(1, 3))
    r = Polynomial({(lu,): z})
    assert r.star() == Polynomial({(lu.star(),): z.conjugate()})
    assert (p * r).star() == r.star() * p.star()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from([0, 1]), min_size=0, max_size=4))
def test_star_involution_on_words(pattern):
    u = GeneratorSymbol("u")
    lu = Letter(u, False, "A")
    w = tuple(lu if b else lu.star() for b in pattern)
    assert star_word(star_word(w)) == w


# -- factor states ---------------------------------------------------------------


def test_validation_requires_totality():
    g = GeneratorSymbol("a", selfadjoint=True)
    la = Letter(g, False, "A")
    with pytest.raises(ValidationError, match="missing moment"):
        FactorState("A", 2, [g], {(la,): ZERO})


def test_validation_rejects_conflicting_star_entries():
    u = GeneratorSymbol("u")
    lu = Letter(u, False, "A")
    base = {
        (lu,): ZERO,
        (lu.star(),): ZERO,
        (lu, lu): ZERO,
        (lu.star(), lu.star()): ONE,  # should equal conj of previous
        (lu, lu.star()): ONE,
        (lu.star(), lu): ONE,
    }
    with pytest.raises(ValidationError, match="conflicting"):
        FactorState("A", 2, [u.__class__("u")], base)
    # The message names the canonical word of {w, w*} and gives both values
    # in its orientation, the earlier one first, whichever word came first.
    z = ComplexRational.parse("1+i")
    uu, usus = (lu, lu), (lu.star(), lu.star())
    for first, second, values in [(uu, usus, "1+1 i vs 1-1 i"), (usus, uu, "1-1 i vs 1+1 i")]:
        moments = {w: v for w, v in base.items() if w not in (uu, usus)}
        moments[first] = moments[second] = z
        with pytest.raises(ValidationError, match=(
            rf"^factor 'A': conflicting moments for 'u u' \({re.escape(values)}\)$"
        )):
            FactorState("A", 2, [u], moments)


def test_validation_rejects_complex_selfpaired_moment():
    u = GeneratorSymbol("u")
    lu = Letter(u, False, "A")
    moments = {
        (lu,): ZERO,
        (lu.star(),): ZERO,
        (lu, lu): ZERO,
        (lu, lu.star()): ComplexRational.parse("i"),  # (u u*)* = u u*
        (lu.star(), lu): ONE,
    }
    with pytest.raises(ValidationError, match=r"^factor 'A': phi\(u u\*\) must be real, got 1 i$"):
        FactorState("A", 2, [u], moments)


def test_star_compatibility_holds_on_random_states(rng):
    state = random_factor_state(rng, "A", ("u",), 3, selfadjoint=False)
    for word in words_up_to(state, 3):
        assert state.phi_word(star_word(word)) == state.phi_word(word).conjugate()


def test_phi_autofills_star_conjugates():
    u = GeneratorSymbol("u")
    lu = Letter(u, False, "A")
    z = ComplexRational.parse("1/2+1/3 i")
    moments = {
        (lu,): z,
        (lu, lu): ZERO,
        (lu, lu.star()): ONE,
        (lu.star(), lu): ONE,
    }
    state = FactorState("A", 2, [u], moments)
    assert state.phi_word((lu.star(),)) == z.conjugate()
    assert state.phi_word((lu.star(), lu.star())) == ZERO


# -- evaluation -------------------------------------------------------------------


def test_eval_phi_n_examples():
    state = semicircle_factor("A1", "a")
    one = Polynomial.monomial(())
    assert eval_phi_n(state, [one, one, one]) == ONE
    a = Polynomial.from_letter(state.letter("a"))
    assert eval_phi_n(state, [a]) == ZERO
    centered = center(state, a)
    assert eval_phi_n(state, [centered, centered]) == ONE


def test_eval_phi_pi_examples():
    state = semicircle_factor("A1", "a")
    la = state.letter("a")
    letters = (la, la, la)
    assert eval_phi_pi(state, one_block(3), letters) == state.phi_word(letters)
    assert eval_phi_pi(state, singletons(3), letters) == ZERO
    pi = Partition.of(3, [[1, 3], [2]])
    assert eval_phi_pi(state, pi, letters) == state.phi_word((la, la)) * state.phi_word((la,))


def test_eval_phi_pi_is_blockwise_product(rng):
    state = random_factor_state(rng, "A", ("u",), 5, selfadjoint=False)
    ls = state.letters()
    for n in (2, 3, 4):
        for pi in enumerate_nc(n):
            tup = tuple(rng.choice(ls) for _ in range(n))
            expected = ONE
            for block in pi.blocks:
                expected = expected * eval_phi_n(
                    state, [Polynomial.from_letter(tup[i - 1]) for i in block]
                )
            assert eval_phi_pi(state, pi, tup) == expected


def test_eval_phi_n_is_multilinear(rng):
    state = random_factor_state(rng, "A", ("a",), 4)
    la = state.letter("a")
    p = Polynomial.from_letter(la)
    q = center(state, p * p)
    c = ComplexRational(Fraction(2, 3), Fraction(-1, 2))
    lhs = eval_phi_n(state, [p, c * p + q, p])
    rhs = c * eval_phi_n(state, [p, p, p]) + eval_phi_n(state, [p, q, p])
    assert lhs == rhs


def test_centering():
    state = semicircle_factor("A1", "a")
    assert center(state, Polynomial.monomial(())) == Polynomial()
    a = Polynomial.from_letter(state.letter("a"))
    centered = center(state, a * a)
    assert eval_phi_n(state, [centered]) == ZERO
    assert center(state, centered) == centered


def test_errors():
    state = semicircle_factor("A1", "a", degree_bound=3)
    la = state.letter("a")
    with pytest.raises(TruncationError) as err:
        state.phi_word((la,) * 4)
    assert str(err.value) == "word 'a a a a' exceeds degree bound 3 of factor 'A1'"
    other = Letter(GeneratorSymbol("b", selfadjoint=True), False, "A2")
    with pytest.raises(FactorMismatchError):
        state.phi_word((other,))


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
    assert state.phi_word((la, la)) == ONE
    # starred selfadjoint letters normalize away
    assert parse_word("a*", {"a": la}) == (la,)


def test_a_loaded_factor_shares_one_letter_object_per_letter():
    # A selfadjoint a, whose star is itself, beside a u with a distinct u*;
    # 0 is a valid moment table once every word is given.
    names = ("a", "u", "u*")
    spec = {"factor": "A1", "degree_bound": 2,
            "generators": [{"name": "a", "selfadjoint": True}, {"name": "u"}],
            "moments": {" ".join(w): "0" for w in
                        [(x,) for x in names] + [(x, y) for x in names for y in names]}}
    state = factor_state_from_json(spec)
    la, lu, lu_star = state.letters()
    assert state.letter("a") is la and la.star() is la
    assert state.letter("u") is lu and lu.star() is lu_star and lu_star.star() is lu
    table_letters = {id(l) for word in state._moments for l in word}
    assert table_letters == {id(la), id(lu), id(lu_star)}


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
    assert words[0] == ()


@pytest.mark.parametrize("make, message", [
    (lambda: FactorState("A1", 0, [GeneratorSymbol("a", True)], {}),
     "degree bound must be >= 1, got 0"),
    (lambda: semicircle_factor("A1", "a").letter("zz"),
     "no generator 'zz' in factor 'A1'"),
    (lambda: FactorState("A1", 1, [], {}), "factor 'A1' has no generators"),
    (lambda: FactorState("A1", 1, [GeneratorSymbol("a", True)] * 2, {}),
     "duplicate generator names in factor 'A1'"),
], ids=["degree-bound-0", "unknown-generator", "no-generators", "duplicate-names"])
def test_factor_state_refusals(make, message):
    assert_refused(make, ValidationError, message)


@pytest.mark.parametrize("generators, message", [
    ([], "factor 'A' has no generators"),
    ([{"name": "a"}, {"name": "a", "selfadjoint": True}],
     "duplicate generator names in factor 'A'"),
    ([{"name": "a b"}], "bad generator name 'a b'"),
    ([{"name": "1"}], "bad generator name '1': 1 denotes the identity"),
], ids=["no-generators", "duplicate-names", "bad-name", "name-1"])
@pytest.mark.parametrize("key, load", [
    ("moments", factor_state_from_json), ("cumulants", cumulant_table_from_json),
], ids=["moments", "cumulants"])
def test_spec_loaders_refuse_a_generator_list_as_a_format_error(generators, message, key, load):
    spec = {"factor": "A", "degree_bound": 1, "generators": generators, key: {}}
    assert_refused(lambda: load(spec), SpecFormatError, message)
