import json
import random
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncprob.cumulant_calculus import (
    MomentSequence,
    cumulants_from_moment_sequence,
    first_block_cumulant,
    first_block_moment,
)
from ncprob.errors import (
    DimensionMismatchError,
    FactorMismatchError,
    NCProbError,
    SizeOutOfRangeError,
    SpecFormatError,
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
)
from ncprob.nc_lattice import Partition, enumerate_nc, kreweras
from ncprob.scalar import ONE, ZERO, ComplexRational

from conftest import (
    assert_refused,
    measure_factor_state,
    random_factor_state,
    random_product_space,
    semicircle_factor,
    small_scalar,
)
from nc_oracles import (
    GroupedWord,
    center,
    centered_word_basis,
    embed_letter,
    kappa_base_atoms,
    kappa_base_atoms_by_kernel,
    kappa_n,
    kappa_pi_products,
    kappa_products,
    lattice_sum,
    one_block,
    singletons,
)
from nc_oracles import kappa_elements as nc_kappa_elements, words_up_to


def letters(space):
    out = []
    for index in sorted(space.factors):
        out.extend(space.factor_state(index).letters())
    return out


def random_element(rng, space, size=2):
    """A random element built from embedded letters via algebra operations."""
    ls = letters(space)
    total = FreeElement(small_scalar(rng, complex_ok=False))
    for _ in range(size):
        word_len = rng.randint(1, 2)
        piece = FreeElement.one()
        for _ in range(word_len):
            piece = space.multiply(piece, embed_letter(space, rng.choice(ls)))
        total = total + piece.scale(small_scalar(rng, complex_ok=False))
    return total


# -- embedding --------------------------------------------------------------------


def test_embed_identity(two_semicircles):
    assert two_semicircles.embed("A1", Polynomial.monomial(EMPTY_WORD)) == FreeElement.one()


def test_embed_letter_structure(two_semicircles):
    state = two_semicircles.factor_state("A1")
    la = state.letter("a")
    element = embed_letter(two_semicircles, la)
    centered = center(state, Polynomial.from_letter(la))
    assert element.scalar == state.phi_word(Word((la,)))
    assert element.words == {TensorWord((("A1", centered),)): ONE}
    assert two_semicircles.normal_form(element) == element


def test_embed_respects_star(rng):
    state = random_factor_state(rng, "A1", ("u",), 4, selfadjoint=False)
    other = random_factor_state(rng, "A2", ("v",), 4, selfadjoint=False)
    space = ProductSpace([state, other])
    lu = state.letter("u")
    p = Polynomial.from_letter(lu) * Polynomial.from_letter(lu.star())
    p = p + Polynomial.monomial(EMPTY_WORD)
    assert space.embed("A1", p.star()) == space.embed("A1", p).star()


def test_embed_is_multiplicative(rng):
    state = random_factor_state(rng, "A1", ("u",), 4, selfadjoint=False)
    other = random_factor_state(rng, "A2", ("v",), 4)
    space = ProductSpace([state, other])
    lu = state.letter("u")
    p = Polynomial.from_letter(lu)
    q = Polynomial.from_letter(lu.star())
    lhs = space.multiply(space.embed("A1", p), space.embed("A1", q))
    assert lhs == space.embed("A1", p * q)


def test_embed_errors(two_semicircles):
    with pytest.raises(Exception):
        two_semicircles.embed("nope", Polynomial.monomial(EMPTY_WORD))
    la = two_semicircles.factor_state("A1").letter("a")
    with pytest.raises(TruncationError):
        two_semicircles.embed("A1", Polynomial.monomial(Word((la,) * 7)))


# -- multiplication -----------------------------------------------------------------


def test_unit_laws(rng):
    space = random_product_space(rng, 2, 4)
    x = random_element(rng, space)
    assert space.multiply(x, FreeElement.one()) == x
    assert space.multiply(FreeElement.one(), x) == x


def test_four_term_expansion():
    # the worked two-factor product, with the scalar on the first centered
    # term equal to the plain mean of the second variable
    f1 = random_factor_state(random.Random(1), "B1", ("c",), 4)
    f2 = random_factor_state(random.Random(2), "B2", ("d",), 4)
    space = ProductSpace([f1, f2])
    lc, ld = f1.letter("c"), f2.letter("d")
    pc, pd = Polynomial.from_letter(lc), Polynomial.from_letter(ld)
    phi1 = f1.phi_word(Word((lc,)))
    phi2 = f2.phi_word(Word((ld,)))
    c_centered = center(f1, pc)
    d_centered = center(f2, pd)
    expected = FreeElement(
        phi1 * phi2,
        {
            TensorWord((("B2", d_centered),)): phi1,
            TensorWord((("B1", c_centered),)): phi2,
            TensorWord((("B1", c_centered), ("B2", d_centered))): ONE,
        },
    )
    got = space.multiply(space.embed("B1", pc), space.embed("B2", pd))
    assert got == expected


def test_non_centered_component_is_rejected(two_semicircles):
    # phi(a a) = 1, so a a is not centered: it is no tensor-word component.
    la = two_semicircles.factor_state("A1").letter("a")
    aa = Polynomial.from_letter(la) * Polynomial.from_letter(la)
    x = FreeElement.from_word(TensorWord((("A1", aa),)))
    with pytest.raises(ValidationError, match="not centered"):
        two_semicircles.normal_form(x)
    with pytest.raises(ValidationError, match="not centered"):
        two_semicircles.multiply(FreeElement.one(), x)
    with pytest.raises(ValidationError, match="not centered"):
        two_semicircles.multiply(x, FreeElement.one())


def test_reduction_rule_merges_boundary(two_semicircles):
    space = two_semicircles
    f1, f2 = space.factor_state("A1"), space.factor_state("A2")
    la, lb = f1.letter("a"), f2.letter("b")
    a0 = center(f1, Polynomial.from_letter(la))
    b0 = center(f2, Polynomial.from_letter(lb))
    w_ab = FreeElement.from_word(TensorWord((("A1", a0), ("A2", b0))))
    w_ba = FreeElement.from_word(TensorWord((("A2", b0), ("A1", a0))))
    got = space.multiply(w_ab, w_ba)
    # (a° (x) b°)(b° (x) a°) = a° (x) (b b)° (x) a° + phi(b b) (a a)° + phi(b b) phi(a a) 1
    bb_centered = center(f2, Polynomial.from_letter(lb) * Polynomial.from_letter(lb))
    aa_centered = center(f1, Polynomial.from_letter(la) * Polynomial.from_letter(la))
    expected = FreeElement(
        ONE,  # phi(bb) * phi(aa) = 1
        {
            TensorWord((("A1", a0), ("A2", bb_centered), ("A1", a0))): ONE,
            TensorWord((("A1", aa_centered),)): ONE,
        },
    )
    assert got == expected
    assert space.normal_form(got) == got


def test_multiply_associative(rng):
    for factor_count in (2, 3):
        space = random_product_space(rng, factor_count, 6)
        for _ in range(3):
            x = random_element(rng, space)
            y = random_element(rng, space)
            z = random_element(rng, space)
            lhs = space.multiply(space.multiply(x, y), z)
            rhs = space.multiply(x, space.multiply(y, z))
            assert lhs == rhs


def test_star_is_antiautomorphism(rng):
    space = random_product_space(rng, 2, 6)
    x = random_element(rng, space)
    y = random_element(rng, space)
    assert space.multiply(x, y).star() == space.multiply(y.star(), x.star())
    assert x.star().star() == x
    assert FreeElement.one().star() == FreeElement.one()


def test_star_reverses_tensor_words(two_semicircles):
    f1 = two_semicircles.factor_state("A1")
    f2 = two_semicircles.factor_state("A2")
    a0 = center(f1, Polynomial.from_letter(f1.letter("a")))
    b0 = center(f2, Polynomial.from_letter(f2.letter("b")))
    w = TensorWord((("A1", a0), ("A2", b0)))
    assert w.star() == TensorWord((("A2", b0.star()), ("A1", a0.star())))


def test_multiply_degree_overflow():
    space = ProductSpace(
        [semicircle_factor("A1", "a", 2), semicircle_factor("A2", "b", 2)]
    )
    f1 = space.factor_state("A1")
    la = f1.letter("a")
    aa = center(f1, Polynomial.from_letter(la) * Polynomial.from_letter(la))
    x = FreeElement.from_word(TensorWord((("A1", aa),)))
    with pytest.raises(TruncationError):
        space.multiply(x, x)


# -- tensor word and grouped word invariants ------------------------------------------


def test_tensor_word_validation(two_semicircles):
    f1 = two_semicircles.factor_state("A1")
    a0 = center(f1, Polynomial.from_letter(f1.letter("a")))
    with pytest.raises(ValidationError):
        TensorWord(())
    with pytest.raises(ValidationError):
        TensorWord((("A1", a0), ("A1", a0)))
    with pytest.raises(ValidationError):
        TensorWord((("A1", Polynomial()),))


def test_grouped_word_validation(two_semicircles):
    la = two_semicircles.factor_state("A1").letter("a")
    lb = two_semicircles.factor_state("A2").letter("b")
    gw = GroupedWord((la, lb, la), (2, 3))
    assert gw.groups() == ((la, lb), (la,))
    assert gw.sigma_interval() == Partition.of(3, [[1, 2], [3]])
    with pytest.raises(ValidationError):
        GroupedWord((la, la), (2,))  # same factor adjacent within a group
    with pytest.raises(ValidationError):
        GroupedWord((la, lb), (1,))  # boundary does not reach the end
    with pytest.raises(ValidationError):
        GroupedWord((), ())


# -- cumulant functions -----------------------------------------------------------------


def test_kappa_base_examples(two_semicircles, rng):
    space = two_semicircles
    la = space.factor_state("A1").letter("a")
    lb = space.factor_state("A2").letter("b")
    assert space.kappa_base([la, lb]) == ZERO
    assert space.kappa_base([la, la]) == kappa_n(space.factor_state("A1"), (la, la))
    assert space.kappa_elements([FreeElement.one()]) == ONE
    with pytest.raises(ValidationError):
        space.kappa_base([])


def test_unknown_generator_of_a_known_factor_raises(two_semicircles):
    space = two_semicircles
    la = space.factor_state("A1").letter("a")
    zz = Letter(GeneratorSymbol("zz", selfadjoint=True), False, "A1")
    with pytest.raises(ValidationError):
        space.state_eval([la, zz])
    with pytest.raises(ValidationError):
        space.kappa_base([zz, la])
    with pytest.raises(ValidationError):
        space.factor_state("A1").phi_word(Word((zz,)))


def test_letter_of_an_unknown_factor_raises_in_kappa_base_as_in_the_state(two_semicircles):
    space = two_semicircles
    la = space.factor_state("A1").letter("a")
    zz = Letter(GeneratorSymbol("zz", selfadjoint=True), False, "Z")
    with pytest.raises(FactorMismatchError):
        space.state_eval([la, zz])
    with pytest.raises(FactorMismatchError):
        space.kappa_base([la, zz])
    with pytest.raises(FactorMismatchError):
        space.kappa_pure_pi(singletons(2), [la, zz])


def test_kappa_base_restricted_multilinearity(rng):
    space = random_product_space(rng, 2, 4)
    index = sorted(space.factors)[0]
    state = space.factor_state(index)
    la = state.letters()[0]
    p = Polynomial.from_letter(la)
    q = center(state, p * p)
    c = small_scalar(rng)
    # kappa_2(p, c p + q) = c kappa_2(p, p) + kappa_2(p, q), computed through
    # the element route
    def k2(x, y):
        return space.kappa_elements(
            [space.embed(index, x), space.embed(index, y)]
        )

    assert k2(p, c * p + q) == c * k2(p, p) + k2(p, q)


def test_kappa_pure_pi_examples(two_semicircles):
    space = two_semicircles
    la = space.factor_state("A1").letter("a")
    lb = space.factor_state("A2").letter("b")
    mixed = (la, lb, lb, la)
    assert space.kappa_pure_pi(one_block(4), mixed) == ZERO
    bottom_value = space.kappa_pure_pi(singletons(4), mixed)
    assert bottom_value == ZERO  # centered letters: kappa_1 = 0
    pi = Partition.of(4, [[1, 4], [2, 3]])
    expected = space.kappa_base([la, la]) * space.kappa_base([lb, lb])
    assert space.kappa_pure_pi(pi, mixed) == expected
    with pytest.raises(DimensionMismatchError):
        space.kappa_pure_pi(one_block(3), mixed)


def test_kappa_products_single_letter_groups(two_semicircles):
    # groups of size one: the join condition forces pi = 1_n, so the grouped
    # cumulant collapses to kappa_base
    space = two_semicircles
    la = space.factor_state("A1").letter("a")
    lb = space.factor_state("A2").letter("b")
    for tup in [(la,), (la, lb), (la, la), (la, lb, la)]:
        gw = GroupedWord(tup, tuple(range(1, len(tup) + 1)))
        assert kappa_products(space, gw) == space.kappa_base(tup)


def test_kappa_products_single_group_is_phi(two_semicircles):
    # m = 1: no join constraint, the sum over all of NC(n) is the state value
    space = two_semicircles
    la = space.factor_state("A1").letter("a")
    lb = space.factor_state("A2").letter("b")
    for tup in [(la, lb), (la, lb, la), (la, lb, la, lb)]:
        gw = GroupedWord(tup, (len(tup),))
        assert kappa_products(space, gw) == space.state_eval(tup)


def test_kappa_unit_slots_vanish(rng):
    # kappa_2(1, w) = kappa_2(w, 1) = 0 for alternating words w
    space = random_product_space(rng, 2, 4)
    ls = letters(space)
    one = FreeElement.one()
    for pattern in iproduct(ls, repeat=2):
        if pattern[0].factor == pattern[1].factor:
            continue
        w = space.multiply(
            embed_letter(space, pattern[0]), embed_letter(space, pattern[1])
        )
        assert space.kappa_elements([one, w]) == ZERO
        assert space.kappa_elements([w, one]) == ZERO


def test_kappa_pi_products_examples(two_semicircles):
    space = two_semicircles
    la = space.factor_state("A1").letter("a")
    lb = space.factor_state("A2").letter("b")
    gw = GroupedWord((la, lb, la, lb), (2, 4))
    assert kappa_pi_products(space, one_block(2), gw) == kappa_products(space, gw)
    split = kappa_pi_products(space, singletons(2), gw)
    g1 = GroupedWord((la, lb), (2,))
    assert split == kappa_products(space, g1) * kappa_products(space, g1)
    # two groups from two different single factors: every admissible pi has a
    # mixed block, so the value is 0
    gw2 = GroupedWord((la, lb), (1, 2))
    assert kappa_pi_products(space, one_block(2), gw2) == ZERO
    with pytest.raises(DimensionMismatchError):
        kappa_pi_products(space, one_block(3), gw)


def a_plus_u_space(rng, degree_bound):
    return ProductSpace([
        random_factor_state(rng, "A1", ("a",), degree_bound),
        random_factor_state(rng, "A2", ("u",), degree_bound, selfadjoint=False),
    ])


def random_free_element(rng, basis, max_degree):
    """A scalar part plus up to two basis words of degree <= max_degree."""
    words = [w for w in basis if w.degree <= max_degree]
    chosen = rng.sample(words, min(len(words), rng.randint(0, 2)))
    scalar = small_scalar(rng) if chosen else ComplexRational.of(rng.choice((1, -2)))
    return FreeElement(scalar, {w: small_scalar(rng) for w in chosen})


def truncated_or_value(compute):
    try:
        return compute()
    except TruncationError:
        return "raised"


def test_kappa_elements_matches_join_sum_on_every_basis_pair(rng):
    # kappa_2(b_s*, b_t) over all of centered_word_basis, d = 3, N = 6:
    # the first-block kernel against the sum over pi with pi v sigma = 1_n
    space = a_plus_u_space(rng, 6)
    elements = [FreeElement.from_word(w) for w in centered_word_basis(space, 3)]
    for xs in elements:
        for xt in elements:
            args = [xs.star(), xt]
            assert space.kappa_elements(args) == nc_kappa_elements(space, args)


KAPPA_SPACE = a_plus_u_space(random.Random(20261018), 6)
KAPPA_BASIS = centered_word_basis(KAPPA_SPACE, 3)


@settings(deadline=None, max_examples=40)
@given(
    degrees=st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(
        lambda ds: sum(ds) <= 6
    ),
    seed=st.integers(0, 10**6),
)
def test_kappa_elements_matches_join_sum_within_bound(degrees, seed):
    rng = random.Random(seed)
    args = [random_free_element(rng, KAPPA_BASIS, d) for d in degrees]
    assert KAPPA_SPACE.kappa_elements(args) == nc_kappa_elements(KAPPA_SPACE, args)


def test_kappa_base_atoms_matches_word_expansion_on_basis_pairs(rng):
    # Every pure atom tuple the state reaches on the Gram entries of
    # centered_word_basis (d = 3, N = 6), with the space's memos: the
    # library's route against the expansion into all word tuples, units too.
    space = a_plus_u_space(rng, 6)
    words = centered_word_basis(space, 3)
    for ws in words:
        for wt in words:
            space.state_eval(ws.star().components + wt.components)
    pure = [a for a in space._kappa_base_memo if len({f for f, _ in a}) == 1]
    assert len(pure) > 100
    for atoms in pure:
        assert space._kappa_base_atoms(atoms) == kappa_base_atoms(space, atoms)


def random_polynomial(rng, state, degree):
    """Up to three words of degree <= ``degree``, one of them of that degree."""
    words = list(words_up_to(state, degree))
    chosen = [rng.choice([w for w in words if w.degree == degree])]
    chosen += [rng.choice(words) for _ in range(rng.randint(0, 2))]
    return Polynomial({w: small_scalar(rng) for w in chosen})


@settings(deadline=None, max_examples=40)
@given(
    degrees=st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(
        lambda ds: sum(ds) <= 6
    ),
    index=st.sampled_from(("A1", "A2")),
    seed=st.integers(0, 10**6),
)
def test_kappa_base_atoms_matches_word_expansion_within_bound(degrees, index, seed):
    rng = random.Random(seed)
    state = KAPPA_SPACE.factor_state(index)
    atoms = tuple((index, random_polynomial(rng, state, d)) for d in degrees)
    assert KAPPA_SPACE._kappa_base_atoms(atoms) == kappa_base_atoms(KAPPA_SPACE, atoms)


def atoms_with_units(space, index):
    """The unit, a pure scalar, each letter plain, centered and as 3 x + 1,
    and each centered word of degree 2, of one factor."""
    state = space.factor_state(index)
    one = Polynomial.monomial(EMPTY_WORD)
    out = [one, Polynomial.monomial(EMPTY_WORD, -2)]
    for word in words_up_to(state, 2):
        if word.degree == 1:
            out += [Polynomial.monomial(word), Polynomial.monomial(word, 3) + one]
        if word.degree:
            out.append(space.centered_word(index, word))
    return [(index, p) for p in out]


def test_kappa_base_atoms_matches_atom_kernel_exhaustively(rng):
    # Every pure tuple of up to three atoms within N = 3, over letters, centered
    # words, words plus the unit and pure scalars: the word-tuple kernel with
    # unit terms dropped against the kernel on the polynomials themselves.
    space = a_plus_u_space(rng, 3)
    checked = 0
    for index in ("A1", "A2"):
        pool = atoms_with_units(space, index)
        tuples = [()]
        for _ in range(3):
            tuples = [t + (a,) for t in tuples for a in pool
                      if sum(p.degree for _, p in t) + a[1].degree <= 3]
            for atoms in tuples:
                assert space._kappa_base_atoms(atoms) == kappa_base_atoms_by_kernel(
                    space, atoms
                )
                checked += 1
    assert checked > 1000


@settings(deadline=None, max_examples=60)
@given(
    degrees=st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(
        lambda ds: sum(ds) <= 6
    ),
    index=st.sampled_from(("A1", "A2")),
    seed=st.integers(0, 10**6),
)
def test_kappa_base_atoms_matches_atom_kernel_within_bound(degrees, index, seed):
    # Random polynomials, unit terms and pure scalars among them.
    rng = random.Random(seed)
    state = KAPPA_SPACE.factor_state(index)
    atoms = tuple((index, random_polynomial(rng, state, d)) for d in degrees)
    expected = kappa_base_atoms_by_kernel(KAPPA_SPACE, atoms)
    assert KAPPA_SPACE._kappa_base_atoms(atoms) == expected


def test_kappa_base_atoms_past_bound_raises_or_agrees(rng):
    # Past the bound the atom kernel raises on the top word of the product.
    # The word route raises on the same degree, except that a pure scalar
    # among n >= 2 atoms has no non-unit word, and its cumulant is 0.
    space = a_plus_u_space(rng, 4)
    raised = 0
    for _ in range(200):
        index = rng.choice(("A1", "A2"))
        state = space.factor_state(index)
        atoms = tuple(
            (index, random_polynomial(rng, state, rng.randint(0, 3)))
            for _ in range(rng.randint(2, 4))
        )
        degrees = [p.degree for _, p in atoms]
        if sum(degrees) <= 4:
            continue
        new = truncated_or_value(lambda: space._kappa_base_atoms(atoms))
        old = truncated_or_value(lambda: kappa_base_atoms_by_kernel(space, atoms))
        if 0 in degrees:
            assert new in (ZERO, old)
        else:
            assert new == old == "raised"
            raised += 1
    assert raised > 20


def test_centered_words_are_handed_out_once(rng):
    space = a_plus_u_space(rng, 4)
    for index in ("A1", "A2"):
        for word in words_up_to(space.factor_state(index), 2):
            if word.degree:
                assert space.centered_word(index, word) is space.centered_word(index, word)


def test_kappa_elements_past_bound_raises_or_agrees(rng):
    # Past the degree bound the two routes evaluate different moments, so one
    # may raise where the other returns a value; when both return a value it
    # is the same.
    space = a_plus_u_space(rng, 4)
    basis = centered_word_basis(space, 3)
    both = raised = 0
    for _ in range(200):
        args = [random_free_element(rng, basis, 3) for _ in range(rng.randint(2, 4))]
        if sum(max((w.degree for w in x.words), default=0) for x in args) <= 4:
            continue
        new = truncated_or_value(lambda: space.kappa_elements(args))
        old = truncated_or_value(lambda: nc_kappa_elements(space, args))
        if "raised" in (new, old):
            raised += 1
        else:
            assert new == old
            both += 1
    assert both and raised


# -- the state ---------------------------------------------------------------------------


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
A_PLUS_U_SPECS = [
    json.loads((GOLDEN_INPUTS / f"{name}.json").read_text(encoding="utf-8"))
    for name in ("semicircle_and_u", "semicircle_and_haar_u", "semicircle_and_haar_u_6")
]


def state_outcome(space, text):
    try:
        return space.state_eval(space.parse_letters(text))
    except NCProbError as exc:
        return type(exc).__name__, str(exc)


@settings(deadline=None, max_examples=30)
@given(spec=st.sampled_from(A_PLUS_U_SPECS), data=st.data())
def test_shared_state_memo_matches_a_fresh_space(spec, data):
    # Words past the degree bound raise on some of their blocks, so a word
    # evaluated after others must raise, or not, exactly as on its own.
    shared = product_space_from_json(spec)
    length = shared.degree_bound + 3
    words = data.draw(st.lists(
        st.lists(st.sampled_from(["a", "u", "u*"]), min_size=1, max_size=length),
        min_size=1, max_size=12,
    ))
    for word in words:
        text = " ".join(word)
        fresh = product_space_from_json(spec)
        assert state_outcome(shared, text) == state_outcome(fresh, text)


def test_each_letter_is_one_atom_per_space(two_semicircles):
    space = two_semicircles
    la = space.factor_state("A1").letter("a")
    first = space._as_atoms([la, la])
    assert first[0] is first[1] is space._as_atoms([Letter(la.generator, False, "A1")])[0]


def test_a_warm_memo_bypasses_no_refusal(two_semicircles):
    space = two_semicircles
    la, lb = space.factor_state("A1").letter("a"), space.factor_state("A2").letter("b")
    for word in ([la], [la, lb], [la, lb, la], [lb, la] * 3):
        space.state_eval(word)
    zz = GeneratorSymbol("zz", selfadjoint=True)
    assert_refused(lambda: space.state_eval([la, lb] * 6 + [la]), SizeOutOfRangeError,
                   "n must be within 1..12, got 13")
    assert_refused(lambda: space.state_eval([la, Letter(zz, False, "A1")]), ValidationError,
                   "no generator 'zz' in factor 'A1'")
    assert_refused(lambda: space.state_eval([la, Letter(zz, False, "Z")]), FactorMismatchError,
                   "unknown factor 'Z'")
    assert_refused(lambda: space.state_eval([la, lb, [1]]), ValidationError,
                   "cannot interpret [1] as a pure product argument")


def test_a_repeated_word_is_read_from_the_memo(monkeypatch, two_semicircles):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return first_block_moment(*args, **kwargs)

    monkeypatch.setattr("ncprob.free_product.first_block_moment", counting)
    space = two_semicircles
    la, lb = space.factor_state("A1").letter("a"), space.factor_state("A2").letter("b")
    word = [la, lb, lb, la, lb, lb]
    assert space.state_eval(word) == ONE
    assert len(calls) == 1
    assert space.state_eval(tuple(word)) == ONE
    assert space.state_eval([lb, lb]) == ONE  # a gap of the block {1, 4}
    assert len(calls) == 1


def test_state_eval_takes_a_one_pass_iterator(two_semicircles):
    space = two_semicircles
    la, lb = space.factor_state("A1").letter("a"), space.factor_state("A2").letter("b")
    word = [la, la, lb, lb, la, la]
    pairs = [(l.factor, Polynomial.from_letter(l)) for l in word]
    two = ComplexRational.of(2)
    assert space.state_eval(iter(word)) == space.state_eval(iter(pairs)) == two
    assert space.state_eval(word) == space.state_eval(pairs) == two


def test_misses_fill_the_state_memo_as_before():
    # Every word of degree <= 5 over a, u, u* on a + Haar u at N = 6: each
    # word and each of its gaps is one entry, 363 in all.
    space = product_space_from_json(
        json.loads((GOLDEN_INPUTS / "semicircle_and_haar_u_6.json").read_text())
    )
    letters = [space.resolve_letter(name) for name in ("a", "u", "u*")]
    for n in range(1, 6):
        for word in iproduct(letters, repeat=n):
            space.state_eval(word)
    assert len(space._phi_memo) == 363


def test_state_restricts_to_factors(rng):
    space = random_product_space(rng, 3, 4)
    for index in space.factors:
        state = space.factor_state(index)
        for word in words_up_to(state, 4):
            if word.degree == 0:
                continue
            embedded = space.embed(index, Polynomial.monomial(word))
            assert space.state_eval(embedded) == state.phi_word(word)


def test_state_examples(two_semicircles):
    space = two_semicircles
    la = space.factor_state("A1").letter("a")
    lb = space.factor_state("A2").letter("b")
    assert space.state_eval(FreeElement.one()) == ONE
    assert space.state_eval([la, lb, la, lb]) == ZERO
    assert space.state_eval([la, la, lb, lb]) == ONE
    assert space.state_eval([la, lb, lb, la]) == ONE


def test_state_two_routes_agree(rng):
    space = random_product_space(rng, 2, 6)
    ls = letters(space)
    for n in range(1, 5):
        for _ in range(5):
            tup = tuple(rng.choice(ls) for _ in range(n))
            direct = space.state_eval(tup)
            element = FreeElement.one()
            for l in tup:
                element = space.multiply(element, embed_letter(space, l))
            assert direct == space.state_eval(element)


@pytest.mark.parametrize("layout,max_length", [
    ((("A1", "a", True), ("A2", "b", True)), 7),
    ((("A1", "a", True), ("A2", "u", False)), 6),
])
def test_state_matches_nc_sum_exhaustively(rng, layout, max_length):
    # The first-block recursion against the sum over NC(n) of kappa_pure_pi,
    # on every word up to the given length; the blockwise product is written
    # out with kappa_base memoized per block, which keeps the run short.
    space = ProductSpace([
        random_factor_state(rng, index, (name,), max_length, selfadjoint=sa)
        for index, name, sa in layout
    ])
    ls = letters(space)
    base = {}
    for n in range(1, max_length + 1):
        partitions = [[tuple(i - 1 for i in b) for b in pi.blocks] for pi in enumerate_nc(n)]
        for tup in iproduct(ls, repeat=n):
            expected = ZERO
            for blocks in partitions:
                term = ONE
                for block in blocks:
                    sub = tuple(tup[i] for i in block)
                    value = base.get(sub)
                    if value is None:
                        value = base[sub] = space.kappa_base(sub)
                    term = term * value
                    if term.is_zero():
                        break
                else:
                    expected = expected + term
            assert space.state_eval(tup) == expected


def test_state_raises_where_the_nc_sum_does():
    # phi(c c) = 0 although kappa(c) kappa(c) = 1: a gap that cancels to zero
    # must not hide the over-long b block behind it.
    def factor(index, name, moments):
        g = GeneratorSymbol(name, selfadjoint=True)
        letter = Letter(g, False, index)
        state = FactorState(
            index, 3, [g], {Word((letter,) * k): m for k, m in enumerate(moments, 1)}
        )
        return state, letter

    (fa, a), (fb, b), (fc, c) = (
        factor("A", "a", [0, 1, 0]), factor("B", "b", [1, 2, 3]), factor("C", "c", [1, 0, 5])
    )
    space = ProductSpace([fa, fb, fc])
    word = (a, c, c, a, b, b, b, b)
    with pytest.raises(TruncationError):
        lattice_sum(8, lambda block: space.kappa_base([word[i - 1] for i in block]), False)
    with pytest.raises(TruncationError):
        space.state_eval(word)
    assert space.state_eval((c, c, a, b, b, b, b)) == ZERO


def kreweras_moment(fa, fb, n):
    """phi(a b a b ... a b), n of each, for a free from b, as the sum over pi
    in NC(n) of kappa_pi[a] phi_K(pi)[b] (Nica & Speicher, Lecture 14)."""
    (la,), (lb,) = fa.letters(), fb.letters()
    kappa_a = cumulants_from_moment_sequence(
        MomentSequence.of([fa.phi_word(Word((la,) * k)) for k in range(1, n + 1)])
    )
    m_b = [fb.phi_word(Word((lb,) * k)) for k in range(1, n + 1)]
    total = ZERO
    for pi in enumerate_nc(n):
        term = ONE
        for block in pi.blocks:
            term = term * kappa_a[len(block) - 1]
        for block in kreweras(pi).blocks:
            term = term * m_b[len(block) - 1]
        total = total + term
    return total


def alternating_moment(fa, fb, n):
    """phi(a b a b ... a b), n of each, from the product state."""
    (la,), (lb,) = fa.letters(), fb.letters()
    return ProductSpace([fa, fb]).state_eval((la, lb) * n)


@pytest.mark.parametrize("n", range(1, 7))
def test_state_matches_the_kreweras_formula(rng, n):
    for _ in range(2):  # two pairs of measures, the same for every n
        fa = measure_factor_state(rng, "A1", "a", 2 * n)
        fb = measure_factor_state(rng, "A2", "b", 2 * n)
        assert alternating_moment(fa, fb, n) == kreweras_moment(fa, fb, n)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
def test_state_matches_the_kreweras_formula_on_random_measures(seed, n):
    rng = random.Random(seed)
    fa = measure_factor_state(rng, "A1", "a", 2 * n)
    fb = measure_factor_state(rng, "A2", "b", 2 * n)
    assert alternating_moment(fa, fb, n) == kreweras_moment(fa, fb, n)


def test_centered_tensor_words_are_null(rng):
    space = random_product_space(rng, 2, 5)
    indices = sorted(space.factors)
    for pattern_len in (1, 2, 3):
        for pattern in iproduct(indices, repeat=pattern_len):
            if any(a == b for a, b in zip(pattern, pattern[1:])):
                continue
            components = []
            for index in pattern:
                state = space.factor_state(index)
                la = state.letters()[0]
                components.append((index, center(state, Polynomial.from_letter(la))))
            word = FreeElement.from_word(TensorWord(tuple(components)))
            assert space.state_eval(word) == ZERO


def test_master_self_consistency(rng):
    # kappa recomputed from the constructed phi by Moebius inversion equals
    # the constructed kappa, on all letter tuples of small degree
    space = random_product_space(rng, 2, 4)
    ls = letters(space)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            tup = tuple(rng.choice(ls) for _ in range(n))
            reconstructed = first_block_cumulant(tup, space.state_eval, {})
            constructed = space.kappa_elements(
                [embed_letter(space, l) for l in tup]
            )
            assert reconstructed == constructed


# -- loading ---------------------------------------------------------------------------


def make_product_spec():
    def factor(idx, name):
        return {
            "factor": idx,
            "degree_bound": 2,
            "generators": [{"name": name, "selfadjoint": True}],
            "moments": {name: "0", f"{name} {name}": "1"},
        }

    return {"degree_bound": 2, "factors": [factor("A1", "a"), factor("A2", "b")]}


def test_product_space_from_json():
    space = product_space_from_json(make_product_spec())
    assert sorted(space.factors) == ["A1", "A2"]
    assert space.degree_bound == 2
    assert space.resolve_letter("a").factor == "A1"
    assert space.resolve_letter("b*").factor == "A2"
    with pytest.raises(SpecFormatError):
        space.resolve_letter("zz")


def test_resolve_letter_refuses_a_name_two_factors_share():
    # Specs are refused before this (below), so only a space built in the
    # library reaches it.
    space = ProductSpace([semicircle_factor("A1", "a", 2), semicircle_factor("A2", "a", 2)])
    with pytest.raises(
        SpecFormatError, match=r"^letter 'a' is ambiguous across factors \['A1', 'A2'\]$"
    ):
        space.parse_letters("a a*")
    spec = make_product_spec()
    spec["factors"][1] = dict(spec["factors"][0], factor="A2")
    with pytest.raises(SpecFormatError, match="generator 'a' appears in factors"):
        product_space_from_json(spec)


def bool_degree_bound(spec):
    # JSON true must not pass as the integer 1 these degree-1 factors declare.
    spec["degree_bound"] = True
    for f in spec["factors"]:
        f.update(degree_bound=1, moments={f["generators"][0]["name"]: "0"})


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s.pop("factors"),
        lambda s: s.update(degree_bound=3),
        lambda s: s["factors"].append(dict(s["factors"][0])),
        lambda s: s["factors"][1].update(
            generators=[{"name": "a", "selfadjoint": True}],
            moments={"a": "0", "a a": "1"},
        ),
        bool_degree_bound,
    ],
)
def test_product_space_from_json_rejects(mutate):
    spec = make_product_spec()
    mutate(spec)
    with pytest.raises(SpecFormatError):
        product_space_from_json(spec)


@pytest.mark.parametrize("make, error, message", [
    (lambda: ProductSpace([]), ValidationError,
     "a product space needs at least one factor"),
    (lambda: ProductSpace([semicircle_factor("A", "a", 2), semicircle_factor("A", "b", 2)]),
     ValidationError, "duplicate factor indices in ['A', 'A']"),
    (lambda: ProductSpace([semicircle_factor("A1", "a", 1), semicircle_factor("A2", "b", 2)]),
     DimensionMismatchError, "factors must share one degree bound, got [1, 2]"),
    (lambda: ProductSpace([semicircle_factor("A1", "a")]).centered_word("A1", EMPTY_WORD),
     ValidationError, "the empty word has no centered basis vector"),
    (lambda: ProductSpace([semicircle_factor("A1", "a")]).state_eval(["a"]),
     ValidationError, "cannot interpret 'a' as a pure product argument"),
    (lambda: ProductSpace([semicircle_factor("A1", "a")]).state_eval([[1]]),
     ValidationError, "cannot interpret [1] as a pure product argument"),
    (lambda: ProductSpace([semicircle_factor("A1", "a")]).state_eval([{}]),
     ValidationError, "cannot interpret {} as a pure product argument"),
    (lambda: ProductSpace([semicircle_factor("A1", "a")]).kappa_elements([]),
     ValidationError, "kappa_elements needs at least one argument"),
    (lambda: product_space_from_json([]), SpecFormatError,
     "product spec must be a JSON object"),
    (lambda: product_space_from_json({"degree_bound": 2, "factors": []}),
     SpecFormatError, "'factors' must be a non-empty list"),
], ids=["no-factor", "duplicate-index", "mixed-bounds", "centered-unit",
        "bad-state-argument", "unhashable-state-argument", "dict-state-argument",
        "kappa-of-nothing", "spec-not-an-object", "no-factors"])
def test_product_space_refusals(make, error, message):
    assert_refused(make, error, message)


def test_loading_a_spec_compares_no_letters_by_value(monkeypatch):
    # Each letter is one object, and self-adjointness is read back from the
    # moment table, so loading semicircle a + Haar u at N = 8 runs no
    # Letter.__eq__.
    spec = json.loads((GOLDEN_INPUTS / "semicircle_and_haar_u_8.json").read_text())
    exact = Letter.__eq__
    calls = []

    def counting(self, other):
        calls.append(1)
        return exact(self, other)

    monkeypatch.setattr(Letter, "__eq__", counting)
    product_space_from_json(spec)
    assert calls == []
    g = GeneratorSymbol("u")
    assert Letter(g, False, "A2") == Letter(g, False, "A2")
    assert calls == [1]
