import json
import random
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncprob import verification
from ncprob.cumulant_calculus import first_block_cumulant, letter_table
from ncprob.errors import (
    FactorMismatchError,
    SizeOutOfRangeError,
    TruncationError,
    ValidationError,
)
from ncprob.free_product import (
    FreeElement,
    ProductSpace,
    TensorWord,
    product_space_from_json,
)
from ncprob.moment_space import (
    EMPTY_WORD,
    FactorState,
    GeneratorSymbol,
    Letter,
    Polynomial,
    Word,
    all_words,
    canonical_moment_key,
    factor_state_from_json,
)
from ncprob.scalar import ComplexRational as CR
from ncprob.scalar import ONE, ZERO, ComplexRational
from ncprob.verification import (
    ExplicitJointState,
    GramMatrix,
    check_freeness_cumulants,
    check_freeness_moments,
    check_positivity,
    ldlt_psd,
    variance_factorization,
)

from conftest import (
    assert_refused,
    measure_factor_state,
    random_factor_state,
    random_product_space,
    semicircle_factor,
    small_scalar,
)
from nc_oracles import (
    alternating_slots_by_brute_force,
    center,
    centered_word_basis,
    eval_phi_n,
    lattice_sum,
    ldlt_psd_by_recursion,
    phi_of_centered_product_by_terms,
    plain_word_gram,
)


def scalar(x) -> ComplexRational:
    return ComplexRational.of(Fraction(x))


# -- counterexample joint states -----------------------------------------------


def nonfree_coupling():
    """phi(a deg b deg) = 1 although both letters are centered."""
    ga = GeneratorSymbol("a", selfadjoint=True)
    gb = GeneratorSymbol("b", selfadjoint=True)
    la, lb = Letter(ga, False, "A1"), Letter(gb, False, "A2")
    moments = {Word((la,)): ZERO, Word((lb,)): ZERO}
    for pair in iproduct((la, lb), repeat=2):
        moments[Word(pair)] = ONE
    return ExplicitJointState({"A1": [ga], "A2": [gb]}, 2, moments)


def classically_independent():
    """phi factorizes over letter counts: independence, but not freeness."""
    ga = GeneratorSymbol("a", selfadjoint=True)
    gb = GeneratorSymbol("b", selfadjoint=True)
    la, lb = Letter(ga, False, "A1"), Letter(gb, False, "A2")
    marginal = {0: ONE, 1: ZERO, 2: ONE, 3: ZERO, 4: ONE}  # Bernoulli(+-1, 1/2)
    moments = {}
    for n in range(1, 5):
        for tup in iproduct((la, lb), repeat=n):
            counts = {"A1": 0, "A2": 0}
            for l in tup:
                counts[l.factor] += 1
            moments[Word(tup)] = marginal[counts["A1"]] * marginal[counts["A2"]]
    return ExplicitJointState({"A1": [ga], "A2": [gb]}, 4, moments)


# -- freeness checks -------------------------------------------------------------


def test_constructed_space_is_free(two_semicircles):
    r_m = check_freeness_moments(two_semicircles, 4)
    r_c = check_freeness_cumulants(two_semicircles, 4)
    assert r_m.ok and r_c.ok
    assert r_m.checked_words > 0 and r_c.checked_words > 0


def test_single_factor_is_vacuously_free(rng):
    space = random_product_space(rng, 1, 4)
    r_c = check_freeness_cumulants(space, 4)
    assert r_c.ok and r_c.checked_words == 0  # no mixed tuples exist
    r_m = check_freeness_moments(space, 4)
    assert r_m.ok  # single centered slots all have phi = 0


def test_nonfree_coupling_detected():
    joint = nonfree_coupling()
    r_m = check_freeness_moments(joint, 2)
    assert not r_m.ok
    assert ("(a)° (b)°", ONE) in r_m.violations
    r_c = check_freeness_cumulants(joint, 2)
    assert not r_c.ok
    assert ("a b", ONE) in r_c.violations


def test_explicit_joint_state_rejects_an_unknown_generator():
    joint = nonfree_coupling()
    zz = Letter(GeneratorSymbol("zz", selfadjoint=True), False, "A1")
    with pytest.raises(ValidationError):
        joint.state_eval((zz,))


def test_explicit_joint_state_rejects_an_unknown_factor():
    with pytest.raises(FactorMismatchError):
        nonfree_coupling().factor_state("A9")


def test_freeness_checks_reject_a_factor_state():
    state = semicircle_factor("A1", "a", 4)
    for check in (check_freeness_moments, check_freeness_cumulants):
        with pytest.raises(ValidationError, match="as a joint state"):
            check(state, 2)


def test_explicit_copy_of_a_product_space_matches_it(rng):
    # The joint table of a + u read off the space's own state_eval on every
    # letter word of degree <= N: both checks, the joint cumulants and the
    # marginals must agree with the space itself.
    n = 5
    space = ProductSpace([
        random_factor_state(rng, "A1", ("a",), n),
        random_factor_state(rng, "A2", ("u",), n, selfadjoint=False),
    ])
    ls = [l for i in sorted(space.factors) for l in space.factor_state(i).letters()]
    moments = {w: space.state_eval(w.letters) for w in all_words(ls, n) if w.degree}
    joint = ExplicitJointState(
        {i: state.generators for i, state in space.factors.items()}, n, moments
    )
    for check in (check_freeness_moments, check_freeness_cumulants):
        report = check(joint, n)
        assert report.checked_words > 0
        assert report.to_json() == check(space, n).to_json()
    for k in range(1, 5):
        for tup in iproduct(ls, repeat=k):
            assert first_block_cumulant(tup, joint.state_eval, {}) == (
                first_block_cumulant(tup, space.state_eval, {})
            )
    assert sorted(joint.factors) == sorted(space.factors)
    for i, state in space.factors.items():
        for w in all_words(state.letters(), n):
            assert joint.factor_state(i).phi_word(w) == state.phi_word(w)


def test_classical_independence_is_not_freeness():
    joint = classically_independent()
    la = joint.factor_state("A1").letters()[0]
    lb = joint.factor_state("A2").letters()[0]
    # mixed fourth cumulant: only 1_4 contributes, phi(abab) = 1
    assert first_block_cumulant((la, lb, la, lb), joint.state_eval, {}) == ONE
    assert joint.state_eval(iter([la, lb, la, lb])) == joint.state_eval([la, lb, la, lb]) == ONE
    r_c = check_freeness_cumulants(joint, 4)
    assert not r_c.ok
    assert ("a b a b", ONE) in r_c.violations
    assert not check_freeness_moments(joint, 4).ok


def random_joint_state(rng, degree_bound, a1_names=("a",)):
    """Random star-consistent joint moments of selfadjoint ``a1_names`` (factor
    A1, listed in that order) and u, u* (A2): not free in general."""
    gens = {"A1": [GeneratorSymbol(name, selfadjoint=True) for name in a1_names],
            "A2": [GeneratorSymbol("u", selfadjoint=False)]}
    ls = [Letter(g, starred, index) for index, gs in gens.items() for g in gs
          for starred in (False, True)[: 1 + (not g.selfadjoint)]]
    moments = {}
    for n in range(1, degree_bound + 1):
        for tup in iproduct(ls, repeat=n):
            key, _ = canonical_moment_key(Word(tup))
            if key not in moments:
                value = small_scalar(rng)
                moments[key] = CR(value.re) if key == key.star() else value
    return ExplicitJointState(gens, degree_bound, moments)


def test_joint_kappa_matches_lattice_sum(rng):
    cases = [(random_joint_state(rng, 4), 4), (nonfree_coupling(), 2),
             (classically_independent(), 4),
             (random_product_space(rng, 2, 5), 5)]
    for joint, n_max in cases:
        ls = [l for i in sorted(joint.factors) for l in joint.factor_state(i).letters()]
        for n in range(1, n_max + 1):
            for tup in iproduct(ls, repeat=n):
                expected = lattice_sum(
                    n,
                    lambda block: joint.state_eval(tuple(tup[i - 1] for i in block)),
                    weighted=True,
                )
                assert first_block_cumulant(tup, joint.state_eval, {}) == expected


def test_freeness_cumulants_matches_per_tuple_joint_kappa(rng):
    # One kernel memo for the whole check: the same violations, in the same
    # order, as a fresh kernel memo per letter tuple.  Letters go in spec
    # order, so A1 listed as [b, a] walks b before a, unlike sorted words.
    for a1_names in (("a",), ("b", "a")):
        joint = random_joint_state(rng, 4, a1_names)
        ls = [l for i in sorted(joint.factors) for l in joint.factor_state(i).letters()]
        assert [l.text() for l in ls] == [*a1_names, "u", "u*"]
        expected = []
        for n in range(2, 5):
            for tup in iproduct(ls, repeat=n):
                if len({l.factor for l in tup}) > 1:
                    value = first_block_cumulant(tup, joint.state_eval, {})
                    if value:
                        expected.append((" ".join(l.text() for l in tup), value))
        assert len(expected) > 50
        assert check_freeness_cumulants(joint, 4).violations == tuple(expected)


def test_freeness_cumulants_fills_only_the_mixed_tuples(monkeypatch):
    # Semicircle a + Haar u, N = 6, d = 6: the check reaches the pure tuples
    # only as sub-tuples, 2,617 state evaluations for 960 mixed tuples.  A
    # fill of every tuple, pure ones of order up to 6 included, makes 2,878.
    def counted_space():
        space = product_space_from_json(
            json.loads((GOLDEN_INPUTS / "semicircle_and_haar_u_6.json").read_text())
        )
        exact = space.state_eval
        calls = []

        def counting(letters):
            calls.append(1)
            return exact(letters)

        monkeypatch.setattr(space, "state_eval", counting)
        return space, calls

    space, calls = counted_space()
    assert check_freeness_cumulants(space, 6).checked_words == 960
    assert len(calls) == 2617
    space, calls = counted_space()
    letters = [l for i in sorted(space.factors) for l in space.factor_state(i).letters()]
    full = letter_table(letters, 6, first_block_cumulant, space.state_eval)
    assert len(full) == 1092 and len(calls) == 2878


def test_centered_product_nested_matches_term_list(monkeypatch, rng):
    # Every alternating slot tuple up to degree 4 on random non-free joint
    # states: the nested expansion gives the term list's value, from the same
    # state_eval calls in the same order.
    for _ in range(3):
        joint = random_joint_state(rng, 4)
        exact = joint.state_eval
        calls = []

        def record(letters):
            calls.append(tuple(letters))
            return exact(letters)

        monkeypatch.setattr(joint, "state_eval", record)
        slot_tuples = list(verification._alternating_slot_sequences(joint, 4))
        assert len(slot_tuples) > 50
        for slots in slot_tuples:
            calls.clear()
            expected = phi_of_centered_product_by_terms(joint, slots)
            oracle_calls = list(calls)
            calls.clear()
            assert verification._phi_of_centered_product(joint, slots) == expected
            assert calls == oracle_calls


@pytest.mark.parametrize("max_degree", [1, 2, 3, 4])
def test_slot_sequences_match_brute_force_oracle(rng, max_degree):
    # Three factors, the middle one a non-selfadjoint u: slots over u, u*.
    space = ProductSpace([
        random_factor_state(rng, "A1", ("a",)),
        random_factor_state(rng, "A2", ("u",), selfadjoint=False),
        random_factor_state(rng, "A3", ("b",)),
    ])
    slot_tuples = list(verification._alternating_slot_sequences(space, max_degree))
    assert slot_tuples == alternating_slots_by_brute_force(space, max_degree)
    assert {index for slots in slot_tuples for index, _ in slots} == {"A1", "A2", "A3"}


def test_freeness_checks_reject_negative_degree(two_semicircles):
    for check in (check_freeness_moments, check_freeness_cumulants):
        with pytest.raises(ValidationError):
            check(two_semicircles, -1)


def test_freeness_cumulants_past_the_cap_is_refused_before_any_work():
    # Mixed cumulants of order 13 are past the enumeration cap: the check
    # refuses them before it evaluates the state on a single word.
    def fail(letters):
        raise AssertionError("evaluated the state before the size check")

    for bound in (13, 14):
        space = ProductSpace(
            [semicircle_factor("A1", "a", bound), semicircle_factor("A2", "b", bound)]
        )
        space.state_eval = fail
        message = rf"^n must be within 1\.\.12, got {bound}$"
        with pytest.raises(SizeOutOfRangeError, match=message):
            check_freeness_cumulants(space, bound)
    # No mixed tuple exists on one factor, or below order 2, so nothing is
    # computed and nothing refused.
    one_factor = ProductSpace([semicircle_factor("A1", "a", 13)])
    two_factors = ProductSpace([semicircle_factor("A1", "a"), semicircle_factor("A2", "b")])
    for space, max_degree in ((one_factor, 13), (two_factors, 0), (two_factors, 1)):
        report = check_freeness_cumulants(space, max_degree)
        assert report.ok and report.checked_words == 0


def test_perturbed_product_fails_both_ways(two_semicircles):
    # copy the constructed joint moments, then set one alternating moment to 1
    la = two_semicircles.factor_state("A1").letters()[0]
    lb = two_semicircles.factor_state("A2").letters()[0]
    moments = {}
    for n in range(1, 5):
        for tup in iproduct((la, lb), repeat=n):
            moments[Word(tup)] = two_semicircles.state_eval(tup)
    # star-consistency forces phi(b a) = conj(phi(a b))
    moments[Word((la, lb))] = ONE
    moments[Word((lb, la))] = ONE
    ga = two_semicircles.factor_state("A1").generators[0]
    gb = two_semicircles.factor_state("A2").generators[0]
    joint = ExplicitJointState({"A1": [ga], "A2": [gb]}, 4, moments)
    assert not check_freeness_moments(joint, 4).ok
    assert not check_freeness_cumulants(joint, 4).ok


def test_report_serialization(two_semicircles):
    report = check_freeness_moments(two_semicircles, 3)
    data = report.to_json()
    assert data["mode"] == "moments"
    assert data["max_degree"] == 3
    assert data["violations"] == []
    with pytest.raises(TruncationError):
        check_freeness_moments(two_semicircles, 9)


def test_equivalence_on_random_spaces(rng):
    for factor_count in (2, 3):
        for _ in range(5):
            space = random_product_space(rng, factor_count, 4)
            assert check_freeness_moments(space, 4).ok
            assert check_freeness_cumulants(space, 4).ok


# -- variance factorization -------------------------------------------------------


def tensor_word_of_letters(space, pattern):
    components = []
    for index in pattern:
        state = space.factor_state(index)
        la = state.letters()[0]
        components.append((index, center(state, Polynomial.from_letter(la))))
    return TensorWord(tuple(components))


def test_variance_factorization_matches_grouped_route(rng):
    space = random_product_space(rng, 2, 6)
    patterns = [("A1",), ("A2",), ("A1", "A2"), ("A2", "A1"), ("A1", "A2", "A1")]
    for pa in patterns:
        for pb in patterns:
            a = tensor_word_of_letters(space, pa)
            b = tensor_word_of_letters(space, pb)
            direct = variance_factorization(space, a, b, {})
            general = space.kappa_elements(
                [FreeElement.from_word(a).star(), FreeElement.from_word(b)]
            )
            assert direct == general
            if pa != pb:
                assert direct == ZERO


def test_variance_factorization_on_a_non_tracial_factor(rng):
    # phi(u u*) != phi(u* u), so kappa_2(x, y) != kappa_2(y, x) in general:
    # every same-pattern pair of the centered basis, d = 2.
    u_state = random_factor_state(rng, "A2", ("u",), 4, selfadjoint=False)
    lu = u_state.letter("u")
    assert u_state.phi_word(Word((lu, lu.star()))) != u_state.phi_word(Word((lu.star(), lu)))
    space = ProductSpace([semicircle_factor("A1", "a", 4), u_state])
    words = centered_word_basis(space, 2)
    pairs = 0
    for ws in words:
        for wt in words:
            if [f for f, _ in ws.components] == [f for f, _ in wt.components]:
                pairs += 1
                assert variance_factorization(space, ws, wt, {}) == space.kappa_elements(
                    [FreeElement.from_word(ws).star(), FreeElement.from_word(wt)]
                )
    assert pairs > 20


def test_variance_factorization_mismatched_lengths(two_semicircles):
    a = tensor_word_of_letters(two_semicircles, ("A1",))
    b = tensor_word_of_letters(two_semicircles, ("A1", "A2"))
    assert variance_factorization(two_semicircles, a, b, {}) == ZERO


def test_variance_single_slot_is_phi_of_product(rng):
    # k = l = 1, same factor: kappa_2(a*, b) = phi(a* b) on centered a, b
    space = random_product_space(rng, 2, 4)
    state = space.factor_state("A1")
    la = state.letters()[0]
    a0 = center(state, Polynomial.from_letter(la))
    b0 = center(state, Polynomial.from_letter(la) * Polynomial.from_letter(la))
    value = variance_factorization(
        space, TensorWord((("A1", a0),)), TensorWord((("A1", b0),)), {}
    )
    assert value == eval_phi_n(state, [a0.star(), b0])


def test_variance_self_pairing_nonnegative(rng):
    space = ProductSpace(
        [measure_factor_state(rng, "A1", "a", 6), measure_factor_state(rng, "A2", "b", 6)]
    )
    for pattern in [("A1",), ("A1", "A2"), ("A2", "A1")]:
        w = tensor_word_of_letters(space, pattern)
        value = variance_factorization(space, w, w, {})
        assert value.is_real() and value.re >= 0


def test_kappa2_decomposes_over_patterns(rng):
    # kappa_2(x*, x) = sum over words of kappa_2 restricted to same-pattern
    # pairs: cross-pattern and constant terms vanish exactly
    space = random_product_space(rng, 2, 6)
    words = [
        tensor_word_of_letters(space, ("A1",)),
        tensor_word_of_letters(space, ("A2",)),
        tensor_word_of_letters(space, ("A1", "A2")),
        tensor_word_of_letters(space, ("A2", "A1")),
    ]
    coeffs = [scalar("1/2"), scalar(2), scalar("-1/3"), scalar(1)]
    x = FreeElement(scalar("3/2"), dict(zip(words, coeffs)))
    total = space.kappa_elements([x.star(), x])
    expected = ZERO
    for w, c in zip(words, coeffs):
        expected = expected + c.conjugate() * c * space.kappa_elements(
            [FreeElement.from_word(w).star(), FreeElement.from_word(w)]
        )
    assert total == expected


# -- exact LDL* --------------------------------------------------------------------


def as_matrix(rows):
    return tuple(tuple(scalar(x) for x in row) for row in rows)


def witness_value(matrix, witness):
    n = len(matrix)
    total = ZERO
    for s in range(n):
        for t in range(n):
            total = total + witness[s].conjugate() * matrix[s][t] * witness[t]
    return total


def test_ldlt_on_identity():
    psd, pivots, witness = ldlt_psd(as_matrix([[1, 0], [0, 1]]))
    assert psd and witness is None
    assert list(pivots) == [1, 1]


def test_ldlt_negative_eigenvalue():
    matrix = as_matrix([[1, 2], [2, 1]])
    psd, _, witness = ldlt_psd(matrix)
    assert not psd
    assert witness_value(matrix, witness).re < 0


def test_ldlt_zero_diagonal_indefinite():
    matrix = as_matrix([[0, 1], [1, 0]])
    psd, _, witness = ldlt_psd(matrix)
    assert not psd
    assert witness_value(matrix, witness).re < 0


def test_ldlt_zero_matrix_and_semidefinite():
    psd, pivots, _ = ldlt_psd(as_matrix([[0, 0], [0, 0]]))
    assert psd and list(pivots) == [0, 0]
    # rank-1 PSD with a zero pivot along the way
    matrix = as_matrix([[1, 1], [1, 1]])
    psd, pivots, _ = ldlt_psd(matrix)
    assert psd and list(pivots) == [1, 0]


def test_ldlt_complex_hermitian():
    i = CR.parse("i")
    matrix = (
        (scalar(2), i),
        (-i, scalar(1)),
    )
    psd, pivots, witness = ldlt_psd(matrix)
    assert psd and witness is None
    flipped = (
        (scalar(2), 3 * i),
        (-3 * i, scalar(1)),
    )
    psd, _, witness = ldlt_psd(flipped)
    assert not psd
    assert witness_value(flipped, witness).re < 0


small_rationals = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
small_scalars = st.builds(CR, small_rationals, small_rationals)


@st.composite
def permuted_block_hermitian(draw):
    """A Hermitian block-diagonal matrix, its basis order permuted.

    Each block is a Gram of random vectors (PSD, possibly singular), a random
    Hermitian block (its diagonal may be negative or 0), or one with a zero
    diagonal and nonzero entries off it.
    """
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    n = sum(sizes)
    mat = [[ZERO] * n for _ in range(n)]
    start = 0
    for size in sizes:
        block = range(start, start + size)
        kind = draw(st.sampled_from(["gram", "hermitian", "zero_diagonal"]))
        if kind == "gram":
            rank = draw(st.integers(0, size))
            vecs = {i: draw(st.lists(small_scalars, min_size=rank, max_size=rank)) for i in block}
            for i in block:
                for j in block:
                    mat[i][j] = sum(
                        (x.conjugate() * y for x, y in zip(vecs[i], vecs[j])), ZERO
                    )
        else:
            for i in block:
                if kind == "hermitian":
                    mat[i][i] = CR(draw(small_rationals))
                for j in block:
                    if i < j:
                        x = draw(small_scalars)
                        if kind == "zero_diagonal" and not x:
                            x = ONE
                        mat[i][j], mat[j][i] = x, x.conjugate()
        start += size
    order = draw(st.permutations(range(n)))
    return tuple(tuple(mat[s][t] for t in order) for s in order)


@settings(deadline=None, max_examples=200)
@given(matrix=permuted_block_hermitian())
def test_ldlt_matches_the_recursive_oracle(matrix):
    result = ldlt_psd(matrix)
    assert result == ldlt_psd_by_recursion(matrix)
    psd, _, witness = result
    if not psd:
        assert witness_value(matrix, witness).re < 0


def test_ldlt_is_iterative():
    # 1,099 pivots, then a negative diagonal whose witness is lifted back
    # through all of them: past the default recursion limit of 1,000.
    n = 1100
    matrix = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = ONE
    matrix[n - 1][n - 1] = -ONE
    psd, pivots, witness = ldlt_psd(matrix)
    assert not psd and pivots == ()
    assert witness == (ZERO,) * (n - 1) + (ONE,)


def test_ldlt_rejects_a_non_real_diagonal_after_a_pivot():
    i = CR.parse("i")
    matrix = ((ONE, ONE, ZERO), (i, ONE, ZERO), (ZERO, ZERO, ONE))
    with pytest.raises(RuntimeError, match="non-real diagonal"):
        ldlt_psd(matrix)
    with pytest.raises(RuntimeError, match="non-real diagonal"):
        ldlt_psd_by_recursion(matrix)


def test_gram_matrix_must_be_hermitian():
    with pytest.raises(RuntimeError):
        GramMatrix(("x", "y"), as_matrix([[1, 2], [3, 1]]))


# -- positivity of states --------------------------------------------------------------


def test_positivity_trivial_basis(two_semicircles):
    result = check_positivity(two_semicircles, 0)
    assert result.psd
    assert result.gram.labels == ("1",)
    assert result.gram.entries[0][0] == ONE


def test_semicircle_factor_positive():
    state = semicircle_factor("A1", "a")
    result = check_positivity(ProductSpace([state]), 3)
    assert result.psd and result.witness is None
    assert all(p >= 0 for p in result.pivots)


def test_negative_factor_state_witness():
    g = GeneratorSymbol("g", selfadjoint=True)
    lg = Letter(g, False, "F")
    state = {
        Word((lg,)): ZERO,
        Word((lg, lg)): scalar(-1),
    }
    factor = FactorState("F", 2, [g], state)
    result = check_positivity(ProductSpace([factor]), 1)
    assert not result.psd
    assert result.witness is not None
    assert witness_value(result.gram.entries, result.witness).re < 0


def test_product_positivity_and_schur(two_semicircles):
    result = check_positivity(two_semicircles, 2)
    assert result.psd
    assert result.schur_consistent is True
    assert all(p >= 0 for p in result.pivots)


def test_positive_factors_give_positive_product(rng):
    for factor_count in (2, 3):
        factors = [
            measure_factor_state(rng, f"A{i + 1}", "abc"[i], 4)
            for i in range(factor_count)
        ]
        for state in factors:
            assert check_positivity(ProductSpace([state]), 2).psd
        space = ProductSpace(factors)
        result = check_positivity(space, 2)
        assert result.psd
        assert result.schur_consistent is True


def test_positivity_degree_guard(two_semicircles):
    with pytest.raises(TruncationError):
        check_positivity(two_semicircles, 4)  # 2 * 4 > 6


def test_positivity_json(two_semicircles):
    data = check_positivity(two_semicircles, 1).to_json()
    assert data["psd"] is True
    assert data["witness"] is None
    assert data["schur_consistent"] is True
    assert data["basis"][0] == "1"


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


@pytest.mark.parametrize(
    "spec", [None, "semicircle_and_haar_u.json", "not_psd_u.json"]
)
def test_gram_matches_multiply_oracle(two_semicircles, spec):
    # Oracle: multiply b_s* and b_t in the algebra, then apply the state.
    # The a/u spaces put a non-selfadjoint factor in the basis, so star()
    # reverses several components with conjugated coefficients.
    space = (
        two_semicircles
        if spec is None
        else product_space_from_json(json.loads((GOLDEN_INPUTS / spec).read_text()))
    )
    result = check_positivity(space, 2)
    words = centered_word_basis(space, 2)
    basis = [FreeElement.one()] + [FreeElement.from_word(w) for w in words]
    assert len(result.gram.entries) == len(basis)
    for bs, row in zip(basis, result.gram.entries):
        for bt, entry in zip(basis, row):
            assert entry == space.state_eval(space.multiply(bs.star(), bt))


def test_positivity_rejects_a_joint_moment_table():
    with pytest.raises(ValidationError, match="cannot treat"):
        check_positivity(nonfree_coupling(), 1)


def test_positivity_rejects_a_bare_factor_state():
    with pytest.raises(ValidationError, match="as a product space"):
        check_positivity(semicircle_factor("A1", "a"), 1)


def one_factor_cases():
    rng = random.Random(20261018)
    for k in range(4):
        yield f"measure{k}", measure_factor_state(rng, "A1", "a", 6)
    for k in range(6):
        yield f"selfadjoint{k}", random_factor_state(rng, "A1", ("a", "b")[: 1 + k % 2], 4)
    for k in range(4):
        yield f"u{k}", random_factor_state(rng, "A1", ("u",), 4, selfadjoint=False)
    spec = json.loads((GOLDEN_INPUTS / "not_psd.json").read_text())
    yield "not_psd", factor_state_from_json(spec)


def test_one_factor_positivity_matches_plain_word_gram():
    # The unit and the centered words span the plain words of degree <= d,
    # so both Grams are PSD or neither is; each witness fails its own Gram.
    verdicts = set()
    for name, state in one_factor_cases():
        for d in range(state.degree_bound // 2 + 1):
            result = check_positivity(ProductSpace([state]), d)
            plain = plain_word_gram(state, d)
            psd, _, witness = ldlt_psd(plain)
            assert result.psd == psd, (name, d)
            verdicts.add(psd)
            if not psd:
                assert witness_value(plain, witness).re < 0
                assert witness_value(result.gram.entries, result.witness).re < 0
    assert verdicts == {True, False}


@pytest.mark.parametrize("s, t", [(0, 1), (1, 2)])
def test_gram_entry_across_patterns_must_be_zero(monkeypatch, two_semicircles, s, t):
    # Corrupt phi(b_s* b_t) and phi(b_t* b_s) alike, so the Gram stays
    # Hermitian: (1, a°) or (a°, b°), both exactly 0 by Lemma 3.
    words = centered_word_basis(two_semicircles, 1)
    right = [()] + [w.components for w in words]
    left = [()] + [w.star().components for w in words]
    bad = {left[s] + right[t], left[t] + right[s]}
    exact = ProductSpace.state_eval
    monkeypatch.setattr(
        ProductSpace,
        "state_eval",
        lambda self, args: exact(self, args) + (ONE if tuple(args) in bad else ZERO),
    )
    labels = ["1"] + [w.text() for w in words]
    with pytest.raises(RuntimeError, match="internal error") as info:
        check_positivity(two_semicircles, 1)
    assert f"({labels[s]}, {labels[t]})" in str(info.value)


def test_gram_entry_across_patterns_raises_after_a_kappa2_mismatch(
    monkeypatch, two_semicircles
):
    # Basis 1, a°, b°: a wrong factor kappa_2 makes (a°, a°) a mismatch, which
    # row a° meets before the corrupted (a°, b°).  The internal error wins.
    words = centered_word_basis(two_semicircles, 1)
    a, b = (w.components for w in words)
    bad = {words[0].star().components + b, words[1].star().components + a}
    exact_state = ProductSpace.state_eval
    monkeypatch.setattr(
        ProductSpace,
        "state_eval",
        lambda self, args: exact_state(self, args) + (ONE if tuple(args) in bad else ZERO),
    )
    exact_kappa2 = verification._factor_kappa2
    monkeypatch.setattr(
        verification, "_factor_kappa2",
        lambda state, x, y: exact_kappa2(state, x, y) + ONE,
    )
    with pytest.raises(RuntimeError) as info:
        check_positivity(two_semicircles, 1)
    assert str(info.value) == (
        f"internal error: Gram entry ({words[0].text()}, {words[1].text()}) "
        "across factor patterns is 1, not 0"
    )


def test_schur_check_computes_each_slot_kappa2_once(monkeypatch):
    # Semicircle a + Haar u, N = 6, d = 3: the side check reaches 205 distinct
    # (factor, left slot, right slot) triples, and computes each one once.
    exact = verification._factor_kappa2
    calls = []

    def counting(state, left, right):
        calls.append((state.factor, left, right))
        return exact(state, left, right)

    monkeypatch.setattr(verification, "_factor_kappa2", counting)
    space = product_space_from_json(
        json.loads((GOLDEN_INPUTS / "semicircle_and_haar_u_6.json").read_text())
    )
    assert check_positivity(space, 3).schur_consistent is True
    assert len(calls) == len(set(calls)) == 205


def test_positivity_matches_atoms_by_identity(monkeypatch):
    # Semicircle a + Haar u, N = 6, d = 3: the rows b_s* take the space's own
    # centered words, so no memo hit compares two polynomials by value.
    space = product_space_from_json(
        json.loads((GOLDEN_INPUTS / "semicircle_and_haar_u_6.json").read_text())
    )
    exact = Polynomial.__eq__
    calls = []

    def counting(self, other):
        calls.append(1)
        return exact(self, other)

    monkeypatch.setattr(Polynomial, "__eq__", counting)
    assert check_positivity(space, 3).psd is True
    assert calls == []
    assert Polynomial.monomial(EMPTY_WORD) == Polynomial.monomial(EMPTY_WORD)
    assert calls == [1]


def test_centered_word_basis_degrees(two_semicircles):
    words = centered_word_basis(two_semicircles, 2)
    assert all(w.degree <= 2 for w in words)
    # 2 letters of degree 1, 2 squares, 2 alternating length-2 patterns
    assert len(words) == 6


@pytest.mark.parametrize("make, error, message", [
    (lambda: ExplicitJointState({"A1": [GeneratorSymbol("a", True)]}, 0, {}),
     ValidationError, "degree bound must be >= 1"),
    (lambda: nonfree_coupling().state_eval(
        (nonfree_coupling().factor_state("A1").letter("a"),) * 3),
     TruncationError, "word 'a a a' exceeds degree bound 2"),
    (lambda: nonfree_coupling().state_eval(["x"]), ValidationError,
     "cannot interpret 'x' as a pure product argument"),
    (lambda: nonfree_coupling().state_eval([[1]]), ValidationError,
     "cannot interpret [1] as a pure product argument"),
    (lambda: GramMatrix(("1", "x"), ((ONE,), (ONE,))), ValidationError,
     "Gram matrix must be square over its basis"),
], ids=["joint-degree-bound-0", "joint-past-the-bound", "joint-not-a-letter",
        "joint-unhashable", "gram-not-square"])
def test_joint_state_and_gram_refusals(make, error, message):
    assert_refused(make, error, message)
