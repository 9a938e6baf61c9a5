import random
import re
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncprob import cumulant_calculus
from ncprob.cumulant_calculus import (
    MomentSequence,
    cumulants_from_moment_sequence,
    first_block_cumulant,
    first_block_moment,
    free_convolve_additive,
    letter_table,
    moment_sequence_from_cumulants,
)
from ncprob.errors import (
    DimensionMismatchError,
    SizeOutOfRangeError,
    SpecFormatError,
    TruncationError,
    ValidationError,
)
from ncprob.free_product import ProductSpace
from ncprob.moment_space import (
    FactorState,
    GeneratorSymbol,
    Letter,
    Polynomial,
    Word,
    cumulant_table_from_json,
)
from ncprob.nc_lattice import Partition, enumerate_nc, moebius
from ncprob.scalar import ONE, ZERO, ComplexRational

from conftest import (
    assert_refused,
    measure_factor_state,
    random_factor_state,
    semicircle_factor,
    small_fraction,
)
from nc_oracles import (
    eval_phi_n,
    kappa_n,
    kappa_pi_via_moebius,
    kappa_words,
    lattice_sum,
    one_block,
    singletons,
)


# -- independent scalar oracle: nested first-block recursion --------------------
# m_n = sum_{s=1..n} kappa_s * sum_{n_1+...+n_s = n-s} prod_j m_{n_j}
# (condition on the block of 1 in a non-crossing partition; no lattice
# enumeration involved).


def oracle_moments_from_cumulants(kappas, N):
    ms = {0: Fraction(1)}

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    for n in range(1, N + 1):
        total = Fraction(0)
        for s in range(1, n + 1):
            inner = Fraction(0)
            for combo in compositions(n - s, s):
                term = Fraction(1)
                for piece in combo:
                    term *= ms[piece]
                inner += term
            total += kappas[s - 1] * inner
        ms[n] = total
    return [ms[k] for k in range(1, N + 1)]


def oracle_cumulants_from_moments(moments):
    # invert the recursion above degree by degree
    kappas = []
    for n in range(1, len(moments) + 1):
        probe = oracle_moments_from_cumulants(kappas + [Fraction(0)], n)
        kappas.append(moments[n - 1] - probe[n - 1])
    return kappas


def test_oracle_self_consistency():
    ks = [Fraction(0), Fraction(1)] + [Fraction(0)] * 4
    assert oracle_moments_from_cumulants(ks, 6) == [0, 1, 0, 2, 0, 5]


# -- kappa_n ---------------------------------------------------------------------


def test_kappa_order_one_is_phi(rng):
    state = random_factor_state(rng, "A", ("u",), 3, selfadjoint=False)
    for l in state.letters():
        assert kappa_n(state, (l,)) == state.phi_word(Word((l,)))


def test_kappa_order_two_formula(rng):
    state = random_factor_state(rng, "A", ("u", "v"), 3, selfadjoint=False)
    ls = state.letters()
    for a in ls:
        for b in ls:
            expected = state.phi_word(Word((a, b))) - state.phi_word(
                Word((a,))
            ) * state.phi_word(Word((b,)))
            assert kappa_n(state, (a, b)) == expected


def test_semicircle_cumulants():
    state = semicircle_factor("A1", "a")
    la = state.letter("a")
    values = [kappa_n(state, (la,) * n) for n in range(1, 7)]
    assert values == [ZERO, ONE, ZERO, ZERO, ZERO, ZERO]


def test_kappa_errors():
    state = semicircle_factor("A1", "a", degree_bound=3)
    la = state.letter("a")
    with pytest.raises(TruncationError):
        kappa_n(state, (la,) * 4)
    with pytest.raises(ValidationError):
        kappa_n(state, ())


# -- kappa_pi, as kappa_pure_pi of the one-factor space -----------------------------


def test_kappa_pi_special_partitions(rng):
    state = random_factor_state(rng, "A", ("a",), 4)
    space = ProductSpace([state])
    la = state.letter("a")
    tup = (la,) * 4
    assert space.kappa_pure_pi(one_block(4), tup) == kappa_n(state, tup)
    expected_bottom = ONE
    for _ in range(4):
        expected_bottom = expected_bottom * kappa_n(state, (la,))
    assert space.kappa_pure_pi(singletons(4), tup) == expected_bottom
    nested = Partition.of(4, [[1, 4], [2, 3]])
    assert space.kappa_pure_pi(nested, tup) == kappa_n(state, (la, la)) * kappa_n(
        state, (la, la)
    )


def test_kappa_pi_two_forms_agree(rng):
    state = random_factor_state(rng, "A", ("u",), 4, selfadjoint=False)
    space = ProductSpace([state])
    ls = state.letters()
    for n in (1, 2, 3, 4):
        tup = tuple(rng.choice(ls) for _ in range(n))
        for pi in enumerate_nc(n):
            assert space.kappa_pure_pi(pi, tup) == kappa_pi_via_moebius(state, pi, tup)


def test_kappa_pi_dimension_error(rng):
    state = random_factor_state(rng, "A", ("a",), 4)
    la = state.letter("a")
    with pytest.raises(DimensionMismatchError):
        ProductSpace([state]).kappa_pure_pi(one_block(3), (la, la))


# -- moment reconstruction -----------------------------------------------------------


def test_moments_from_kappa1_only():
    g = GeneratorSymbol("a", selfadjoint=True)
    la = Letter(g, False, "A")
    c = ComplexRational.of(Fraction(2, 3))
    kappas = {(la,) * n: (c if n == 1 else ZERO) for n in range(1, 5)}
    for n in range(1, 5):
        expected = ONE
        for _ in range(n):
            expected = expected * c
        assert first_block_moment((la,) * n, kappas.__getitem__, {}) == expected


def test_moments_from_kappa2_only_gives_catalan():
    g = GeneratorSymbol("a", selfadjoint=True)
    la = Letter(g, False, "A")
    kappas = {(la,) * n: (ONE if n == 2 else ZERO) for n in range(1, 7)}
    values = [first_block_moment((la,) * n, kappas.__getitem__, {}) for n in range(1, 7)]
    assert values == [ZERO, ONE, ZERO, ComplexRational.of(2), ZERO, ComplexRational.of(5)]


def test_round_trip_moments_to_cumulants(rng):
    for _ in range(6):
        state = random_factor_state(rng, "A", ("u",), 4, selfadjoint=False)
        ls = state.letters()
        kappas = {
            tup: kappa_n(state, tup)
            for n in range(1, 5)
            for tup in iproduct(ls, repeat=n)
        }
        for n in range(1, 5):
            for _ in range(4):
                tup = tuple(rng.choice(ls) for _ in range(n))
                phi = state.phi_word(Word(tup))
                assert first_block_moment(tup, kappas.__getitem__, {}) == phi


@pytest.mark.parametrize("word, order", [("1", 0), ("u u* u", 3)], ids=["1", "u u* u"])
def test_cumulant_table_from_json_names_a_word_it_cannot_read(word, order):
    spec = cumulant_spec()
    spec["cumulants"][word] = "1"
    with pytest.raises(SpecFormatError, match=(
        f"^cumulant word '{re.escape(word)}' has order {order}, "
        r"outside 1\.\.2 of factor 'A'$"
    )):
        cumulant_table_from_json(spec)


def test_unital_cumulants_vanish(rng):
    # kappa_1(1) = 1 and kappa_n(..., 1, ...) = 0 for n >= 2
    state = random_factor_state(rng, "A", ("a",), 4)
    la = state.letter("a")
    one = Word()
    assert kappa_words(state, (one,)) == ONE
    assert kappa_words(state, (one, one)) == ZERO
    for position in range(3):
        words = [Word((la,))] * 3
        words[position] = one
        assert kappa_words(state, tuple(words)) == ZERO


def test_shift_relation(rng):
    # replacing a by a + c 1 shifts kappa_1 by c and fixes kappa_n, n >= 2
    state = random_factor_state(rng, "A", ("a",), 5)
    la = state.letter("a")
    c = small_fraction(rng)
    shifted_poly = Polynomial.from_letter(la) + Polynomial.monomial(
        Word(), ComplexRational.of(c)
    )
    shifted_moments = {}
    for k in range(1, 6):
        shifted_moments[Word((la,) * k)] = eval_phi_n(state, [shifted_poly] * k)
    shifted = FactorState("A", 5, state.generators, shifted_moments)
    assert kappa_n(shifted, (la,)) == kappa_n(state, (la,)) + ComplexRational.of(c)
    for n in range(2, 6):
        assert kappa_n(shifted, (la,) * n) == kappa_n(state, (la,) * n)


def test_homogeneity(rng):
    # kappa_n(c_1 a, ..., c_n a) = c_1...c_n kappa_n(a): evaluate the Moebius
    # sum on the scaled polynomials directly and compare.
    state = random_factor_state(rng, "A", ("a",), 4)
    la = state.letter("a")
    a = Polynomial.from_letter(la)
    for n in (1, 2, 3, 4):
        cs = [ComplexRational(small_fraction(rng), small_fraction(rng)) for _ in range(n)]
        args = [c * a for c in cs]
        top = one_block(n)
        lhs = ZERO
        for sigma in enumerate_nc(n):
            term = ONE
            for block in sigma.blocks:
                term = term * eval_phi_n(state, [args[i - 1] for i in block])
            lhs = lhs + term * moebius(sigma, top)
        rhs = kappa_n(state, (la,) * n)
        for c in cs:
            rhs = rhs * c
        assert lhs == rhs


# -- scalar sequences and free convolution -------------------------------------------


def test_moment_sequence_validation():
    with pytest.raises(ValidationError):
        MomentSequence(())
    seq = MomentSequence.of([0, 1])
    assert seq.m(0) == ONE
    with pytest.raises(TruncationError):
        seq.m(3)


def test_scalar_conversions_match_oracle(rng):
    for _ in range(10):
        moments = [small_fraction(rng) for _ in range(5)]
        seq = MomentSequence.of([ComplexRational(m) for m in moments])
        kappas = cumulants_from_moment_sequence(seq)
        expected = oracle_cumulants_from_moments(moments)
        assert [k.re for k in kappas] == expected
        back = moment_sequence_from_cumulants(kappas)
        assert back.values == seq.values


def test_convolution_examples():
    semi = MomentSequence.of([0, 1, 0, 2, 0, 5])
    out = free_convolve_additive(semi, semi)
    assert [v.re for v in out.values] == [0, 2, 0, 8, 0, 40]
    bern = MomentSequence.of([0, 1, 0, 1])
    arcsine = free_convolve_additive(bern, bern)
    assert [v.re for v in arcsine.values] == [0, 2, 0, 6]


def test_convolution_point_mass_shift(rng):
    c = Fraction(3, 2)
    delta = MomentSequence.of([ComplexRational(c**k) for k in range(1, 5)])
    moments = [small_fraction(rng) for _ in range(4)]
    x = MomentSequence.of([ComplexRational(m) for m in moments])
    out = free_convolve_additive(delta, x)
    kx = oracle_cumulants_from_moments(moments)
    shifted = [kx[0] + c] + kx[1:]
    assert [v.re for v in out.values] == oracle_moments_from_cumulants(shifted, 4)


def test_convolution_commutative_associative(rng):
    seqs = []
    for _ in range(3):
        seqs.append(MomentSequence.of([ComplexRational(small_fraction(rng)) for _ in range(4)]))
    x, y, z = seqs
    assert free_convolve_additive(x, y).values == free_convolve_additive(y, x).values
    lhs = free_convolve_additive(free_convolve_additive(x, y), z)
    rhs = free_convolve_additive(x, free_convolve_additive(y, z))
    assert lhs.values == rhs.values


def moments_of(state):
    """The moment sequence of a one-letter factor state."""
    (letter,) = state.letters()
    return MomentSequence.of(
        [state.phi_word(Word((letter,) * k)) for k in range(1, state.degree_bound + 1)]
    )


def sum_moments_by_product_state(fa, fb):
    """phi((a + b)^n) for n <= N in the free product of the two factors: the
    product state summed over the 2^n words in a and b."""
    (la,), (lb,) = fa.letters(), fb.letters()
    space = ProductSpace([fa, fb])
    out = []
    for n in range(1, fa.degree_bound + 1):
        total = ZERO
        for word in iproduct((la, lb), repeat=n):
            total = total + space.state_eval(word)
        out.append(total)
    return tuple(out)


def test_convolution_matches_the_product_state(rng):
    fa = measure_factor_state(rng, "A", "a", 8)
    fb = measure_factor_state(rng, "B", "b", 8)
    out = free_convolve_additive(moments_of(fa), moments_of(fb))
    assert out.values == sum_moments_by_product_state(fa, fb)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
def test_convolution_matches_the_product_state_on_random_measures(seed, n):
    rng = random.Random(seed)
    fa = measure_factor_state(rng, "A", "a", n)
    fb = measure_factor_state(rng, "B", "b", n)
    out = free_convolve_additive(moments_of(fa), moments_of(fb))
    assert out.values == sum_moments_by_product_state(fa, fb)


def test_convolution_errors():
    with pytest.raises(DimensionMismatchError):
        free_convolve_additive(MomentSequence.of([0, 1]), MomentSequence.of([0, 1, 0]))
    with pytest.raises(ValidationError):
        free_convolve_additive(
            MomentSequence.of([ComplexRational.parse("i"), ZERO]),
            MomentSequence.of([0, 1]),
        )
    # 13 moments are past the cap, but a mismatch or a complex moment is
    # still reported first.
    long = [0, 1] * 6 + [0]
    with pytest.raises(DimensionMismatchError):
        free_convolve_additive(MomentSequence.of(long), MomentSequence.of(long[:12]))
    with pytest.raises(ValidationError, match="real moments"):
        free_convolve_additive(
            MomentSequence.of([ComplexRational.parse("i")] + long[1:]),
            MomentSequence.of(long),
        )
    with pytest.raises(SizeOutOfRangeError, match="got 13"):
        free_convolve_additive(MomentSequence.of(long), MomentSequence.of(long))


# -- the NC(n) sum oracle and the cumulant-table loader ------------------------------


def test_lattice_sum_counts_and_moebius_identity():
    for n in range(1, 9):
        assert lattice_sum(n, lambda block: ONE, weighted=False) == ComplexRational.of(
            len(enumerate_nc(n))
        )
        # sum over sigma of mu(sigma, 1_n) is 0 unless the lattice is a point
        expected = ONE if n == 1 else ZERO
        assert lattice_sum(n, lambda block: ONE, weighted=True) == expected


def test_lattice_sum_range():
    with pytest.raises(ValidationError):
        lattice_sum(0, lambda block: ONE, weighted=True)
    with pytest.raises(SizeOutOfRangeError):
        lattice_sum(13, lambda block: ONE, weighted=False)
    la = Letter(GeneratorSymbol("a", selfadjoint=True), False, "A")
    with pytest.raises(SizeOutOfRangeError):
        first_block_moment((la,) * 13, {(la,) * 13: ONE}.__getitem__, {})
    with pytest.raises(ValidationError):
        first_block_moment((), lambda block: ONE, {})
    with pytest.raises(SizeOutOfRangeError):
        first_block_moment(tuple(range(1, 14)), lambda block: ONE, {})
    with pytest.raises(ValidationError):
        first_block_cumulant((), lambda sub: ONE, {})
    with pytest.raises(SizeOutOfRangeError):
        first_block_cumulant((la,) * 13, lambda sub: ONE, {})
    with pytest.raises(SizeOutOfRangeError):
        kappa_n(semicircle_factor("A", "a"), (la,) * 13)


def test_lattice_sum_raises_from_the_top_block_first():
    seen = []

    def block_value(block):
        seen.append(block)
        raise TruncationError("stop")

    with pytest.raises(TruncationError):
        lattice_sum(4, block_value, weighted=True)
    assert seen == [(1, 2, 3, 4)]
    seen.clear()
    with pytest.raises(TruncationError):
        first_block_moment((1, 2, 3, 4), block_value, {})
    assert seen == [(1, 2, 3, 4)]
    seen.clear()
    with pytest.raises(TruncationError):
        first_block_moment((1, 2, 3, 4), block_value, {}, colour=lambda p: "abab"[p - 1])
    assert seen == [(1, 3)]
    seen.clear()
    with pytest.raises(TruncationError):
        first_block_cumulant("wxyz", block_value, {})
    assert seen == [tuple("wxyz")]


# -- the first-block recursion against the lattice sum -------------------------------


def seeded_values(seed, choices=None):
    """A function of a hashable key to a small scalar fixed by (seed, key).

    The scalar is drawn from ``choices``, or else is a small rational that is
    zero about a third of the time.
    """
    memo = {}

    def value(key):
        if key not in memo:
            rng = random.Random(f"{seed}:{key}")
            if choices is not None:
                memo[key] = ComplexRational.of(rng.choice(choices))
            elif rng.random() < 0.3:
                memo[key] = ZERO
            else:
                memo[key] = ComplexRational(small_fraction(rng))
        return memo[key]

    return value


def outcome(compute):
    try:
        return compute()
    except TruncationError:
        return "raised"


@settings(deadline=None, max_examples=60)
@given(
    colours=st.lists(st.sampled_from("ab"), min_size=1, max_size=9),
    seed=st.integers(0, 10**6),
)
def test_first_block_moment_matches_lattice_sum(colours, seed):
    n = len(colours)
    value = seeded_values(seed)

    def block_value(block):
        if len({colours[i - 1] for i in block}) > 1:
            return ZERO
        return value(block)

    expected = lattice_sum(n, block_value, weighted=False)
    positions = tuple(range(1, n + 1))
    assert first_block_moment(positions, block_value, {}) == expected
    assert first_block_moment(
        positions, block_value, {}, colour=lambda p: colours[p - 1]
    ) == expected


@settings(deadline=None, max_examples=60)
@given(
    colours=st.lists(st.sampled_from("ab"), min_size=1, max_size=9),
    seed=st.integers(0, 10**6),
)
def test_first_block_moment_raises_where_lattice_sum_does(colours, seed):
    # Zero and mixed blocks stop terms, and a few blocks away from position 1
    # raise, so whether a sum raises depends on which blocks it reaches.  A
    # gap that cancels to zero is rare here; test_free_product pins one.
    n = len(colours)
    value = seeded_values(seed, choices=(-1, 0, 1))
    raises = seeded_values(f"raise:{seed}", choices=(0,) * 9 + (1,))

    def block_value(block):
        if len({colours[i - 1] for i in block}) > 1:
            return ZERO
        if block[0] > 1 and raises(block):
            raise TruncationError("block reached")
        return value(block)

    expected = outcome(lambda: lattice_sum(n, block_value, weighted=False))
    positions = tuple(range(1, n + 1))
    assert outcome(lambda: first_block_moment(
        positions, block_value, {}, colour=lambda p: colours[p - 1]
    )) == expected


@settings(deadline=None, max_examples=30)
@given(
    args=st.lists(st.sampled_from("xyz"), min_size=1, max_size=9),
    seed=st.integers(0, 10**6),
)
def test_first_block_cumulant_matches_lattice_sum(args, seed):
    phi = seeded_values(seed)
    expected = lattice_sum(
        len(args), lambda block: phi(tuple(args[i - 1] for i in block)), weighted=True
    )
    assert first_block_cumulant(args, phi, {}) == expected


def test_kappa_words_match_lattice_sum_exhaustively(rng):
    state = random_factor_state(rng, "A", ("u",), 7, selfadjoint=False)
    ls = state.letters()

    def oracle(words):
        return lattice_sum(
            len(words),
            lambda block: state.phi_word(
                Word(tuple(l for i in block for l in words[i - 1].letters))
            ),
            weighted=True,
        )

    tuples = [t for n in range(1, 7) for t in iproduct(ls, repeat=n)]
    tuples += [tuple(rng.choice(ls) for _ in range(7)) for _ in range(8)]
    for tup in tuples:
        assert kappa_n(state, tup) == oracle([Word((l,)) for l in tup])
    words = [Word(()), Word((ls[0],)), Word((ls[1], ls[0]))]
    for n in range(1, 4):
        for tup in iproduct(words, repeat=n):
            if sum(w.degree for w in tup) <= 7:
                assert kappa_words(state, tup) == oracle(tup)


def test_self_filling_table_matches_fresh_kappa_n(rng):
    # Longest tuples first, so most shorter values come from the shared memo.
    state = random_factor_state(rng, "A", ("u",), 6, selfadjoint=False)
    kappas = {}
    ls = state.letters()
    for n in range(6, 0, -1):
        for tup in iproduct(ls, repeat=n):
            value = first_block_cumulant(
                tup, lambda sub: state.phi_word(Word(sub)), kappas
            )
            assert value == kappa_n(state, tup)


def recording_kernel(calls):
    """A kernel that records (tuple, given, memo) and returns the tuple's length."""
    def kernel(t, given, memo):
        calls.append((t, given, memo))
        return ComplexRational.of(len(t))

    return kernel


@pytest.mark.parametrize("top", [0, 13, -1])
def test_letter_table_refuses_top_outside_the_cap_before_any_kernel_call(top):
    calls = []
    message = rf"^n must be within 1\.\.12, got {top}$"
    with pytest.raises(SizeOutOfRangeError, match=message):
        letter_table("ab", top, recording_kernel(calls), None)
    assert calls == []


def test_letter_table_goes_shortest_first_in_product_order():
    calls = []
    table = letter_table("ba", 3, recording_kernel(calls), None)
    expected = [t for n in (1, 2, 3) for t in iproduct("ba", repeat=n)]
    assert [t for t, _, _ in calls] == list(table) == expected
    assert expected[:3] == [("b",), ("a",), ("b", "b")]
    assert all(value == ComplexRational.of(len(t)) for t, value in table.items())


def test_letter_table_passes_one_memo_and_the_given_to_every_call():
    calls = []
    given = object()
    letter_table("xyz", 2, recording_kernel(calls), given)
    assert len(calls) == 3 + 9
    memo = calls[0][2]
    assert memo == {}
    assert all(g is given and m is memo for _, g, m in calls)


def test_letter_table_runs_the_kernel_only_on_tuples_keep_accepts():
    calls = []
    table = letter_table("ab", 3, recording_kernel(calls), None,
                         keep=lambda t: "a" in t and "b" in t)
    expected = [t for n in (2, 3) for t in iproduct("ab", repeat=n) if len(set(t)) == 2]
    assert [t for t, _, _ in calls] == list(table) == expected


def test_moments_from_cumulants_match_lattice_sum_exhaustively(rng):
    g = GeneratorSymbol("u", selfadjoint=False)
    ls = (Letter(g, False, "A"), Letter(g, True, "A"))
    kappas = {
        tup: ComplexRational(small_fraction(rng), small_fraction(rng))
        for n in range(1, 8)
        for tup in iproduct(ls, repeat=n)
    }
    tuples = [t for t in kappas if len(t) <= 6]
    tuples += [tuple(rng.choice(ls) for _ in range(7)) for _ in range(8)]
    for tup in tuples:
        expected = lattice_sum(
            len(tup),
            lambda block: kappas[tuple(tup[i - 1] for i in block)],
            weighted=False,
        )
        assert first_block_moment(tup, kappas.__getitem__, {}) == expected


def test_moment_sequence_from_cumulants_matches_lattice_sum(rng):
    for _ in range(2):
        kappas = [ComplexRational(small_fraction(rng)) for _ in range(9)]
        expected = [
            lattice_sum(n, lambda block: kappas[len(block) - 1], weighted=False)
            for n in range(1, 10)
        ]
        assert list(moment_sequence_from_cumulants(kappas).values) == expected


def test_cumulants_from_moment_sequence_match_first_block_kernel(rng):
    # The kernel on (0,)*n, with one memo for every n, is the route the NC(n)
    # sum can be swapped for; pin that both give the same values.
    draws = (
        lambda: ComplexRational.of(rng.randint(-3, 3)),
        lambda: ComplexRational(small_fraction(rng)),
        lambda: ComplexRational(small_fraction(rng), small_fraction(rng)),
    )
    for case in range(40):
        n_max = rng.randint(1, 8)
        values = [draws[case % 3]() for _ in range(n_max)]
        if case % 2:
            values[rng.randrange(n_max)] = ZERO
        seq = MomentSequence.of(values)
        kappas = {}
        expected = tuple(
            first_block_cumulant((0,) * n, lambda sub: seq.m(len(sub)), kappas)
            for n in range(1, n_max + 1)
        )
        assert cumulants_from_moment_sequence(seq) == expected


def test_empty_moment_sequence_message():
    with pytest.raises(ValidationError, match="at least one moment"):
        MomentSequence.of([])
    with pytest.raises(ValidationError, match="at least one cumulant"):
        moment_sequence_from_cumulants([])


def test_empty_cumulant_sequence_is_refused_before_the_size_check(monkeypatch):
    def fail(n):
        raise AssertionError("the size was checked first")

    monkeypatch.setattr(cumulant_calculus, "check_lattice_size", fail)
    with pytest.raises(ValidationError, match="^need at least one cumulant, got none$"):
        moment_sequence_from_cumulants(())


def cumulant_spec():
    return {
        "factor": "A",
        "degree_bound": 2,
        "generators": [{"name": "u", "selfadjoint": False}],
        "cumulants": {"u": "1", "u*": "1", "u u": "0", "u u*": "1", "u* u": "2",
                      "u* u*": "0"},
    }


def test_cumulant_table_from_json():
    factor, degree_bound, letters, kappas = cumulant_table_from_json(cumulant_spec())
    assert (factor, degree_bound) == ("A", 2)
    lu, lus = letters
    assert (lu.text(), lus.text()) == ("u", "u*")
    assert set(kappas) == {(lu,), (lus,), (lu, lu), (lu, lus), (lus, lu), (lus, lus)}
    # phi(u u*) = kappa(u u*) + kappa(u) kappa(u*)
    assert first_block_moment((lu, lus), kappas.__getitem__, {}) == ComplexRational.of(2)


@pytest.mark.parametrize("word", ["u", "u* u", "u* u*"])
def test_cumulant_table_from_json_refuses_a_missing_word(word):
    spec = cumulant_spec()
    del spec["cumulants"][word]
    with pytest.raises(
        SpecFormatError,
        match=f"^factor 'A': missing cumulant for word '{re.escape(word)}' "
        r"\(degree bound 2\)$",
    ):
        cumulant_table_from_json(spec)


@pytest.mark.parametrize("given, message", [
    ({"u": "1", "u*": "5"}, "kappa('u*') = 5 is not the conjugate of kappa('u') = 1"),
    ({"u": "1+i", "u*": "1+i"},
     "kappa('u*') = 1+1 i is not the conjugate of kappa('u') = 1+1 i"),
    ({"u u*": "i"}, "kappa('u u*') = 1 i is not the conjugate of kappa('u u*') = 1 i"),
], ids=["real-pair", "complex-pair", "self-star"])
def test_cumulant_table_from_json_refuses_star_inconsistent_values(given, message):
    spec = cumulant_spec()
    spec["cumulants"].update(given)
    with pytest.raises(SpecFormatError, match=f"^factor 'A': {re.escape(message)}$"):
        cumulant_table_from_json(spec)
    # Checked after the orders and before totality, so those messages stand.
    spec["cumulants"]["1"] = "1"
    with pytest.raises(SpecFormatError, match="has order 0"):
        cumulant_table_from_json(spec)
    del spec["cumulants"]["1"], spec["cumulants"]["u u"]
    with pytest.raises(SpecFormatError, match=f"^factor 'A': {re.escape(message)}$"):
        cumulant_table_from_json(spec)


def test_cumulant_table_from_json_takes_conjugate_values():
    spec = cumulant_spec()
    spec["cumulants"].update({"u": "1+i", "u*": "1-i", "u u": "2 i", "u* u*": "-2 i"})
    _, _, (lu, lus), kappas = cumulant_table_from_json(spec)
    assert kappas[lus, lus] == kappas[lu, lu].conjugate()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s.pop("cumulants"),
        lambda s: s.update(degree_bound=True),
        lambda s: s.update(degree_bound="2"),
        lambda s: s.update(degree_bound=0),
        lambda s: s.update(factor=1),
        lambda s: s.update(generators=[{"selfadjoint": False}]),
        lambda s: s.update(generators=[{"name": 5}]),
        lambda s: s.update(cumulants=["u"]),
        lambda s: s.update(cumulants={"v": "1"}),
        lambda s: s.update(cumulants={"u": 1}),
    ],
)
def test_cumulant_table_from_json_rejects(mutate):
    spec = cumulant_spec()
    mutate(spec)
    with pytest.raises(SpecFormatError):
        cumulant_table_from_json(spec)


def test_moment_past_the_bound_is_refused():
    assert_refused(
        lambda: MomentSequence.of([0, 1]).m(3), TruncationError,
        "moment m_3 outside bound 2",
    )
