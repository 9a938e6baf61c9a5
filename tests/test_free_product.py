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
    _factor_of,
    product_space_from_json,
    star_slots,
)
from ncprob.moment_space import (
    FactorState,
    GeneratorSymbol,
    Letter,
)
from ncprob.nc_lattice import Partition, enumerate_nc
from ncprob.scalar import ONE, ZERO, ComplexRational
from ncprob.verification import centered_basis

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
    Polynomial,
    as_pairs,
    center,
    embed_letter,
    embed_polynomial,
    kappa_base,
    kappa_base_atoms,
    kappa_base_atoms_by_kernel,
    kappa_base_atoms_by_slots,
    kappa_elements_by_kernel,
    kappa_n,
    kappa_pi_products,
    kappa_products,
    kappa_pure_pi,
    kreweras,
    lattice_sum,
    multiply_by_polynomials,
    one_block,
    singletons,
    word_element,
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
        piece = FreeElement(ONE)
        for _ in range(word_len):
            piece = space.multiply(piece, embed_letter(space, rng.choice(ls)))
        total = total + piece.scale(small_scalar(rng, complex_ok=False))
    return total


# -- embedding --------------------------------------------------------------------


def test_embed_identity(two_semicircles):
    assert two_semicircles.embed("A1", {(): ONE}) == FreeElement(ONE)


def test_embed_letter_structure(two_semicircles):
    state = two_semicircles.factor_state("A1")
    la = state.letter("a")
    element = embed_letter(two_semicircles, la)
    assert element.scalar == state.phi_word((la,))
    assert element.words == {(("A1", (la,)),): ONE}


def test_embed_respects_star(rng):
    state = random_factor_state(rng, "A1", ("u",), 4, selfadjoint=False)
    other = random_factor_state(rng, "A2", ("v",), 4, selfadjoint=False)
    space = ProductSpace([state, other])
    lu = state.letter("u")
    p = Polynomial.from_letter(lu) * Polynomial.from_letter(lu.star())
    p = p + Polynomial.monomial(())
    assert embed_polynomial(space, "A1", p.star()) == embed_polynomial(space, "A1", p).star()


def test_embed_is_multiplicative(rng):
    state = random_factor_state(rng, "A1", ("u",), 4, selfadjoint=False)
    other = random_factor_state(rng, "A2", ("v",), 4)
    space = ProductSpace([state, other])
    lu = state.letter("u")
    p = Polynomial.from_letter(lu)
    q = Polynomial.from_letter(lu.star())
    lhs = space.multiply(embed_polynomial(space, "A1", p), embed_polynomial(space, "A1", q))
    assert lhs == embed_polynomial(space, "A1", p * q)


def test_embed_errors(two_semicircles):
    with pytest.raises(Exception):
        two_semicircles.embed("nope", {(): ONE})
    la = two_semicircles.factor_state("A1").letter("a")
    with pytest.raises(TruncationError):
        two_semicircles.embed("A1", {(la,) * 7: ONE})


# -- multiplication -----------------------------------------------------------------


def test_unit_laws(rng):
    space = random_product_space(rng, 2, 4)
    x = random_element(rng, space)
    assert space.multiply(x, FreeElement(ONE)) == x
    assert space.multiply(FreeElement(ONE), x) == x


def test_four_term_expansion():
    # the worked two-factor product, with the scalar on the first centered
    # term equal to the plain mean of the second variable
    f1 = random_factor_state(random.Random(1), "B1", ("c",), 4)
    f2 = random_factor_state(random.Random(2), "B2", ("d",), 4)
    space = ProductSpace([f1, f2])
    lc, ld = f1.letter("c"), f2.letter("d")
    phi1 = f1.phi_word((lc,))
    phi2 = f2.phi_word((ld,))
    expected = FreeElement(
        phi1 * phi2,
        {
            (("B2", (ld,)),): phi1,
            (("B1", (lc,)),): phi2,
            (("B1", (lc,)), ("B2", (ld,))): ONE,
        },
    )
    got = space.multiply(space.embed("B1", {(lc,): ONE}), space.embed("B2", {(ld,): ONE}))
    assert got == expected


def test_reduction_rule_merges_boundary(two_semicircles):
    space = two_semicircles
    la, lb = space.factor_state("A1").letter("a"), space.factor_state("A2").letter("b")
    w_ab = word_element((("A1", (la,)), ("A2", (lb,))))
    w_ba = word_element((("A2", (lb,)), ("A1", (la,))))
    got = space.multiply(w_ab, w_ba)
    # (a° (x) b°)(b° (x) a°) = a° (x) (b b)° (x) a° + phi(b b) (a a)° + phi(b b) phi(a a) 1
    expected = FreeElement(
        ONE,  # phi(bb) * phi(aa) = 1
        {
            (("A1", (la,)), ("A2", (lb, lb)), ("A1", (la,))): ONE,
            (("A1", (la, la)),): ONE,
        },
    )
    assert got == expected


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
    assert FreeElement(ONE).star() == FreeElement(ONE)


def test_star_reverses_tensor_words(rng):
    # (a° (u u u*)°)* = (u u* u*)° a°, with the coefficient conjugated
    space = a_plus_u_space(rng, 4)
    la, lu = space.factor_state("A1").letter("a"), space.factor_state("A2").letter("u")
    c = ComplexRational(Fraction(1, 2), Fraction(1))
    x = FreeElement(ONE, {(("A1", (la,)), ("A2", (lu, lu, lu.star()))): c})
    slots = (("A2", (lu, lu.star(), lu.star())), ("A1", (la,)))
    assert x.star() == FreeElement(ONE, {slots: c.conjugate()})


def test_free_element_text_lists_words_in_word_order():
    # b° is inserted first; the text lists a° first, by the words.
    ga, gb = GeneratorSymbol("a", selfadjoint=True), GeneratorSymbol("b", selfadjoint=True)
    la, lb = Letter(ga, False, "A1"), Letter(gb, False, "A1")
    x = FreeElement(ZERO, {(("A1", (lb,)),): ONE, (("A1", (la,)),): ONE})
    assert x.text() == "(1) (a)° + (1) (b)°"


def test_multiply_degree_overflow():
    space = ProductSpace(
        [semicircle_factor("A1", "a", 2), semicircle_factor("A2", "b", 2)]
    )
    la = space.factor_state("A1").letter("a")
    x = word_element((("A1", (la, la)),))
    assert_refused(lambda: space.multiply(x, x), TruncationError,
                   "word 'a a a a' exceeds degree bound 2 of factor 'A1'")


def product_outcome(multiply, space, x, y):
    try:
        return multiply(space, x, y)
    except TruncationError as exc:
        return str(exc)


@settings(deadline=None, max_examples=20)
@given(
    flags=st.lists(st.booleans(), min_size=1, max_size=3),
    degree_bound=st.sampled_from((6, 3)),
    seed=st.integers(0, 10**6),
)
def test_multiply_matches_the_polynomial_route(flags, degree_bound, seed):
    # Every pair of one- and two-slot basis words of degree <= 3, over one to
    # three factors, each a selfadjoint a or a u with its star: the merge rule
    # against the product of centered polynomials.  At N = 6 every product
    # fits; at N = 3 some exceed the bound, and both routes raise alike.
    rng = random.Random(seed)
    space = ProductSpace([
        random_factor_state(rng, f"A{k + 1}", ("abc"[k],), degree_bound, selfadjoint=sa)
        for k, sa in enumerate(flags)
    ])
    words = [word_element(w) for w in centered_basis(space, 3) if len(w) <= 2]
    raised = 0
    for x in words:
        for y in words:
            new = product_outcome(ProductSpace.multiply, space, x, y)
            assert new == product_outcome(multiply_by_polynomials, space, x, y)
            raised += isinstance(new, str)
    assert (raised > 0) == (degree_bound == 3)


# -- tensor word and grouped word invariants ------------------------------------------


def test_tensor_word_validation(two_semicircles):
    la = two_semicircles.factor_state("A1").letter("a")
    for slots, message in [
        ((), "tensor word must have at least one slot"),
        ((("A1", (la,)), ("A1", (la,))), "adjacent slots share factor 'A1'"),
        ((("A1", ()),), "the unit word is no tensor word slot"),
    ]:
        assert_refused(lambda: FreeElement(ZERO, {slots: ZERO}), ValidationError, message)


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
    assert kappa_base(space, [la, lb]) == ZERO
    assert kappa_base(space, [la, la]) == kappa_n(space.factor_state("A1"), (la, la))
    assert kappa_elements_by_kernel(space, [FreeElement(ONE)]) == ONE
    with pytest.raises(ValidationError):
        kappa_base(space, [])


def test_unknown_generator_of_a_known_factor_raises(two_semicircles):
    space = two_semicircles
    la = space.factor_state("A1").letter("a")
    zz = Letter(GeneratorSymbol("zz", selfadjoint=True), False, "A1")
    with pytest.raises(ValidationError):
        space.state_eval([la, zz])
    with pytest.raises(ValidationError):
        kappa_base(space, [zz, la])
    with pytest.raises(ValidationError):
        space.factor_state("A1").phi_word((zz,))


def test_letter_of_an_unknown_factor_raises_in_kappa_base_as_in_the_state(two_semicircles):
    space = two_semicircles
    la = space.factor_state("A1").letter("a")
    zz = Letter(GeneratorSymbol("zz", selfadjoint=True), False, "Z")
    with pytest.raises(FactorMismatchError):
        space.state_eval([la, zz])
    with pytest.raises(FactorMismatchError):
        kappa_base(space, [la, zz])
    with pytest.raises(FactorMismatchError):
        kappa_pure_pi(space, singletons(2), [la, zz])


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
        return kappa_elements_by_kernel(
            space, [embed_polynomial(space, index, x), embed_polynomial(space, index, y)]
        )

    assert k2(p, c * p + q) == c * k2(p, p) + k2(p, q)


def test_kappa_pure_pi_examples(two_semicircles):
    space = two_semicircles
    la = space.factor_state("A1").letter("a")
    lb = space.factor_state("A2").letter("b")
    mixed = (la, lb, lb, la)
    assert kappa_pure_pi(space, one_block(4), mixed) == ZERO
    bottom_value = kappa_pure_pi(space, singletons(4), mixed)
    assert bottom_value == ZERO  # centered letters: kappa_1 = 0
    pi = Partition.of(4, [[1, 4], [2, 3]])
    expected = kappa_base(space, [la, la]) * kappa_base(space, [lb, lb])
    assert kappa_pure_pi(space, pi, mixed) == expected
    with pytest.raises(DimensionMismatchError):
        kappa_pure_pi(space, one_block(3), mixed)


def test_kappa_products_single_letter_groups(two_semicircles):
    # groups of size one: the join condition forces pi = 1_n, so the grouped
    # cumulant collapses to kappa_base
    space = two_semicircles
    la = space.factor_state("A1").letter("a")
    lb = space.factor_state("A2").letter("b")
    for tup in [(la,), (la, lb), (la, la), (la, lb, la)]:
        gw = GroupedWord(tup, tuple(range(1, len(tup) + 1)))
        assert kappa_products(space, gw) == kappa_base(space, tup)


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
    one = FreeElement(ONE)
    for pattern in iproduct(ls, repeat=2):
        if pattern[0].factor == pattern[1].factor:
            continue
        w = space.multiply(
            embed_letter(space, pattern[0]), embed_letter(space, pattern[1])
        )
        assert kappa_elements_by_kernel(space, [one, w]) == ZERO
        assert kappa_elements_by_kernel(space, [w, one]) == ZERO


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


def slots_degree(slots):
    return sum(len(w) for _, w in slots)


def poly_degree(p):
    return max((len(w) for w, _ in p.items()), default=0)


def random_free_element(rng, basis, max_degree):
    """A scalar part plus up to two basis words of degree <= max_degree."""
    words = [w for w in basis if slots_degree(w) <= max_degree]
    chosen = rng.sample(words, min(len(words), rng.randint(0, 2)))
    scalar = small_scalar(rng) if chosen else ComplexRational.of(rng.choice((1, -2)))
    return FreeElement(scalar, {w: small_scalar(rng) for w in chosen})


def truncated_or_value(compute):
    try:
        return compute()
    except TruncationError:
        return "raised"


def test_kappa_elements_matches_join_sum_on_every_basis_pair(rng):
    # kappa_2(b_s*, b_t) over all of centered_basis, d = 3, N = 6:
    # the first-block kernel against the sum over pi with pi v sigma = 1_n
    space = a_plus_u_space(rng, 6)
    elements = [word_element(w) for w in centered_basis(space, 3)]
    for xs in elements:
        for xt in elements:
            args = [xs.star(), xt]
            assert kappa_elements_by_kernel(space, args) == nc_kappa_elements(space, args)


KAPPA_SPACE = a_plus_u_space(random.Random(20261018), 6)
KAPPA_BASIS = centered_basis(KAPPA_SPACE, 3)


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
    assert kappa_elements_by_kernel(KAPPA_SPACE, args) == nc_kappa_elements(KAPPA_SPACE, args)


def test_kappa_base_atoms_matches_word_expansion_on_basis_pairs(rng):
    # Every pure atom tuple the state reaches on the Gram entries of
    # centered_basis (d = 3, N = 6) and on every word of degree <= 4
    # over a, u, u*, with the space's memos: the library's route against the
    # expansion of each slot's centered polynomial into all word tuples,
    # units too.  A letter is its own atom.
    space = a_plus_u_space(rng, 6)
    words = centered_basis(space, 3)
    for ws in words:
        for wt in words:
            space.state_eval(star_slots(ws) + wt)
    letters = [l for state in space.factors.values() for l in state.letters()]
    for n in range(1, 5):
        for word in iproduct(letters, repeat=n):
            space.state_eval(word)
    pure = [a for a in space._kappa_base_memo if len({_factor_of(x) for x in a}) == 1]
    lettered = [a for a in pure if all(isinstance(l, Letter) for l in a)]
    assert len(pure) - len(lettered) > 100 and len(lettered) > 20
    for atoms in pure:
        assert space._kappa_base_atoms(atoms) == kappa_base_atoms(space, as_pairs(space, atoms))


def random_polynomial(rng, state, degree):
    """Up to three words of degree <= ``degree``, one of them of that degree."""
    words = list(words_up_to(state, degree))
    chosen = [rng.choice([w for w in words if len(w) == degree])]
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
    # Random polynomials through the state's cumulant on their slots against
    # the expansion into all word tuples, units too.
    rng = random.Random(seed)
    state = KAPPA_SPACE.factor_state(index)
    atoms = tuple((index, random_polynomial(rng, state, d)) for d in degrees)
    assert kappa_base_atoms_by_slots(KAPPA_SPACE, atoms) == kappa_base_atoms(KAPPA_SPACE, atoms)


def atoms_with_units(space, index):
    """The unit, a pure scalar, each letter plain, centered and as 3 x + 1,
    and each centered word of degree 2, of one factor."""
    state = space.factor_state(index)
    one = Polynomial.monomial(())
    out = [one, Polynomial.monomial((), -2)]
    for word in words_up_to(state, 2):
        if len(word) == 1:
            out += [Polynomial.monomial(word), Polynomial.monomial(word, 3) + one]
        if word:
            out.append(center(state, Polynomial.monomial(word)))
    return [(index, p) for p in out]


def state_atoms(space, index):
    """Each letter of one factor, and the slot of each of its words of degree <= 2."""
    state = space.factor_state(index)
    return list(state.letters()) + [(index, w) for w in words_up_to(state, 2) if w]


def atom_degree(atom):
    return 1 if isinstance(atom, Letter) else len(atom[1])


def tuples_within(pool, degree, top):
    """Every tuple of one to three atoms of ``pool`` of total ``degree`` <= top."""
    tuples, out = [()], []
    for _ in range(3):
        tuples = [t + (a,) for t in tuples for a in pool
                  if sum(map(degree, t)) + degree(a) <= top]
        out += tuples
    return out


def test_kappa_base_atoms_matches_atom_kernel_exhaustively(rng):
    # Every pure tuple of up to three atoms within N = 3 against the kernel on
    # the polynomials themselves: the state's own atoms, letters and slots
    # mixed; and polynomials over letters, centered words, words plus the
    # unit and pure scalars, through the state's cumulant on their slots.
    space = a_plus_u_space(rng, 3)
    checked = 0
    for index in ("A1", "A2"):
        for atoms in tuples_within(state_atoms(space, index), atom_degree, 3):
            expected = kappa_base_atoms_by_kernel(space, as_pairs(space, atoms))
            assert space._kappa_base_atoms(atoms) == expected
            checked += 1
        pool = atoms_with_units(space, index)
        for atoms in tuples_within(pool, lambda a: poly_degree(a[1]), 3):
            expected = kappa_base_atoms_by_kernel(space, atoms)
            assert kappa_base_atoms_by_slots(space, atoms) == expected
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
    # Random polynomials, unit terms and pure scalars among them, through the
    # state's cumulant on their slots.
    rng = random.Random(seed)
    state = KAPPA_SPACE.factor_state(index)
    atoms = tuple((index, random_polynomial(rng, state, d)) for d in degrees)
    expected = kappa_base_atoms_by_kernel(KAPPA_SPACE, atoms)
    assert kappa_base_atoms_by_slots(KAPPA_SPACE, atoms) == expected


def test_kappa_base_atoms_past_bound_raises_or_agrees(rng):
    # Past the bound the atom kernel raises on the top word of the product.
    # The state's cumulant on the slots raises on the same degree, except
    # that a pure scalar among n >= 2 atoms has no slot, and its cumulant is 0.
    space = a_plus_u_space(rng, 4)
    raised = 0
    for _ in range(200):
        index = rng.choice(("A1", "A2"))
        state = space.factor_state(index)
        atoms = tuple(
            (index, random_polynomial(rng, state, rng.randint(0, 3)))
            for _ in range(rng.randint(2, 4))
        )
        degrees = [poly_degree(p) for _, p in atoms]
        if sum(degrees) <= 4:
            continue
        new = truncated_or_value(lambda: kappa_base_atoms_by_slots(space, atoms))
        old = truncated_or_value(lambda: kappa_base_atoms_by_kernel(space, atoms))
        if 0 in degrees:
            assert new in (ZERO, old)
        else:
            assert new == old == "raised"
            raised += 1
    assert raised > 20


def count_state_calls(monkeypatch):
    """The names of the state's _as_atoms and kernel calls, in order."""
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ProductSpace, "_as_atoms", counting("atoms", ProductSpace._as_atoms))
    monkeypatch.setattr("ncprob.free_product.first_block_moment",
                        counting("kernel", first_block_moment))
    return calls


def test_a_repeated_slot_tuple_is_read_from_the_memo(monkeypatch, rng):
    # A slot tuple, the caller's own or an equal one built anew, is checked
    # and run once; a repeat is one _phi_memo hit.
    space = a_plus_u_space(rng, 4)
    la, lu = space.factor_state("A1").letter("a"), space.factor_state("A2").letter("u")
    calls = count_state_calls(monkeypatch)
    slots = (("A1", (la,)), ("A2", (lu, lu.star())), ("A1", (la,)))
    value = space.state_eval(slots)
    assert calls == ["atoms", "kernel"] and slots in space._phi_memo
    again = tuple((f, w) for f, w in slots)
    assert again is not slots and space.state_eval(again) == space.state_eval(slots) == value
    assert calls == ["atoms", "kernel"]


def test_kappa_elements_past_bound_raises_or_agrees(rng):
    # Past the degree bound the two routes evaluate different moments, so one
    # may raise where the other returns a value; when both return a value it
    # is the same.
    space = a_plus_u_space(rng, 4)
    basis = centered_basis(space, 3)
    both = raised = 0
    for _ in range(200):
        args = [random_free_element(rng, basis, 3) for _ in range(rng.randint(2, 4))]
        if sum(max(map(slots_degree, x.words), default=0) for x in args) <= 4:
            continue
        new = truncated_or_value(lambda: kappa_elements_by_kernel(space, args))
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
    # A known letter is its own atom, so a tuple of them is its own atom tuple.
    space = two_semicircles
    la, lb = space.factor_state("A1").letter("a"), space.factor_state("A2").letter("b")
    word = (la, lb, Letter(la.generator, False, "A1"))
    assert space._as_atoms(word) is word and word[0] is word[2] is la
    atoms = space._as_atoms(list(word))
    assert atoms == word and all(a is l for a, l in zip(atoms, word))


def test_a_warm_memo_bypasses_no_refusal(two_semicircles):
    space = two_semicircles
    la, lb = space.factor_state("A1").letter("a"), space.factor_state("A2").letter("b")
    for word in ([la], [la, lb], [la, lb, la], [lb, la] * 3):
        space.state_eval(word)
        space.state_eval(tuple(word))
    zz = GeneratorSymbol("zz", selfadjoint=True)
    # The memo is read first for a tuple; (la, lb, [1]) does not hash.
    for form in (list, tuple):
        assert_refused(lambda: space.state_eval(form([la, lb] * 6 + [la])),
                       SizeOutOfRangeError, "n must be within 1..12, got 13")
        assert_refused(lambda: space.state_eval(form([la, Letter(zz, False, "A1")])),
                       ValidationError, "no generator 'zz' in factor 'A1'")
        assert_refused(lambda: space.state_eval(form([la, Letter(zz, False, "Z")])),
                       FactorMismatchError, "unknown factor 'Z'")
        assert_refused(lambda: space.state_eval(form([la, lb, [1]])), ValidationError,
                       "cannot interpret [1] as a pure product argument")


@pytest.mark.parametrize("as_element", [True, False], ids=["element", "slot-tuple"])
def test_a_bad_slot_is_refused_before_the_kernel(two_semicircles, as_element):
    # The kernel reads no moment of a lone slot, kappa_1(w°) being 0, so each
    # slot is checked first: past the bound, off its factor, of no factor;
    # also when a good slot of the same word or factor is known already.
    space = two_semicircles
    la = space.factor_state("A1").letter("a")
    # phi(a° (a^5)°) = phi(a^6) - phi(a) phi(a^5) = 5
    assert space.state_eval((("A1", (la,)), ("A1", (la,) * 5))) == ComplexRational.of(5)
    for slots, error, message in [
        ((("A1", (la,) * 7),), TruncationError,
         "word 'a a a a a a a' exceeds degree bound 6 of factor 'A1'"),
        ((("A1", (la,)), ("A2", (la,))), FactorMismatchError,
         "letter 'a' belongs to factor 'A1', not 'A2'"),
        ((("Z", (la,)),), FactorMismatchError, "unknown factor 'Z'"),
    ]:
        arg = word_element(slots) if as_element else slots
        assert_refused(lambda: space.state_eval(arg), error, message)


def split_state(space, word, split):
    """phi of ``word`` with each letter l at a ``split`` position written as
    l° + phi(l) 1, l° its slot: the sum over the positions that take the mean."""
    total = ZERO
    for means in iproduct((False, True), repeat=len(word)):
        if any(m and not c for m, c in zip(means, split)):
            continue
        coeff, atoms = ONE, []
        for l, c, m in zip(word, split, means):
            if m:
                coeff = coeff * space.factor_state(l.factor).phi_word((l,))
            else:
                atoms.append((l.factor, (l,)) if c else l)
        total = total + coeff * space.state_eval(tuple(atoms))
    return total


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_letters_slots_and_a_mix_give_one_state(seed, data):
    # One word as letters, and split into slots and means at every position
    # or at some: equal values on fresh spaces and on one space whose memo
    # they share.
    space = a_plus_u_space(random.Random(seed), 4)
    letters = [l for state in space.factors.values() for l in state.letters()]
    word = data.draw(st.lists(st.sampled_from(letters), min_size=1, max_size=4))
    mixed = data.draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    forms = [[False] * len(word), [True] * len(word), mixed]
    cold = [split_state(a_plus_u_space(random.Random(seed), 4), word, f) for f in forms]
    warm = [split_state(space, word, f) for f in forms + forms]
    assert cold[0] == space.state_eval(tuple(word))
    assert all(v == cold[0] for v in cold + warm)


def test_a_repeated_word_is_read_from_the_memo(monkeypatch, two_semicircles):
    # A repeated tuple of letters, the caller's own or an equal one, makes no
    # _as_atoms or kernel call; a list does not hash, so it is checked before
    # the memo is read.
    calls = count_state_calls(monkeypatch)
    space = two_semicircles
    la, lb = space.factor_state("A1").letter("a"), space.factor_state("A2").letter("b")
    word = (la, lb, lb, la, lb, lb)
    assert space.state_eval(word) == ONE
    assert calls == ["atoms", "kernel"]
    assert space.state_eval(word) == space.state_eval(tuple(list(word))) == ONE
    assert space.state_eval((lb, lb)) == ONE  # a gap of the block {1, 4}
    assert calls == ["atoms", "kernel"]
    assert space.state_eval(list(word)) == ONE
    assert calls == ["atoms", "kernel", "atoms"]


def test_state_eval_takes_a_one_pass_iterator(two_semicircles):
    space = two_semicircles
    la, lb = space.factor_state("A1").letter("a"), space.factor_state("A2").letter("b")
    word = [la, la, lb, lb, la, la]
    # phi((a a)° b b (a a)°) = phi(a a b b a a) - phi(a a b b) - phi(b b a a) + phi(b b)
    atoms = [("A1", (la, la)), lb, lb, ("A1", (la, la))]
    two = ComplexRational.of(2)
    assert space.state_eval(iter(word)) == space.state_eval(word) == two
    assert space.state_eval(iter(atoms)) == space.state_eval(atoms) == ONE


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
            if not word:
                continue
            embedded = space.embed(index, {word: ONE})
            assert space.state_eval(embedded) == state.phi_word(word)


def test_state_examples(two_semicircles):
    space = two_semicircles
    la = space.factor_state("A1").letter("a")
    lb = space.factor_state("A2").letter("b")
    assert space.state_eval(FreeElement(ONE)) == ONE
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
            element = FreeElement(ONE)
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
                        value = base[sub] = kappa_base(space, sub)
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
            index, 3, [g], {(letter,) * k: m for k, m in enumerate(moments, 1)}
        )
        return state, letter

    (fa, a), (fb, b), (fc, c) = (
        factor("A", "a", [0, 1, 0]), factor("B", "b", [1, 2, 3]), factor("C", "c", [1, 0, 5])
    )
    space = ProductSpace([fa, fb, fc])
    word = (a, c, c, a, b, b, b, b)
    with pytest.raises(TruncationError):
        lattice_sum(8, lambda block: kappa_base(space, [word[i - 1] for i in block]), False)
    with pytest.raises(TruncationError):
        space.state_eval(word)
    assert space.state_eval((c, c, a, b, b, b, b)) == ZERO


def kreweras_moment(fa, fb, n):
    """phi(a b a b ... a b), n of each, for a free from b, as the sum over pi
    in NC(n) of kappa_pi[a] phi_K(pi)[b] (Nica & Speicher, Lecture 14)."""
    (la,), (lb,) = fa.letters(), fb.letters()
    kappa_a = cumulants_from_moment_sequence(
        MomentSequence.of([fa.phi_word((la,) * k) for k in range(1, n + 1)])
    )
    m_b = [fb.phi_word((lb,) * k) for k in range(1, n + 1)]
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
            slots = tuple((index, space.factor_state(index).letters()[:1]) for index in pattern)
            word = word_element(slots)
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
            constructed = kappa_elements_by_kernel(
                space, [embed_letter(space, l) for l in tup]
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
    (lambda: ProductSpace([semicircle_factor("A1", "a")]).state_eval([("A1", ())]),
     ValidationError, "cannot interpret ('A1', ()) as a pure product argument"),
    (lambda: ProductSpace([semicircle_factor("A1", "a")]).state_eval([("A1", ([1],))]),
     ValidationError, "cannot interpret ('A1', ([1],)) as a pure product argument"),
    (lambda: ProductSpace([semicircle_factor("A1", "a")]).state_eval([("A1", ("a",))]),
     ValidationError, "cannot interpret ('A1', ('a',)) as a pure product argument"),
    (lambda: ProductSpace([semicircle_factor("A1", "a")]).state_eval(["a"]),
     ValidationError, "cannot interpret 'a' as a pure product argument"),
    (lambda: ProductSpace([semicircle_factor("A1", "a")]).state_eval([[1]]),
     ValidationError, "cannot interpret [1] as a pure product argument"),
    (lambda: ProductSpace([semicircle_factor("A1", "a")]).state_eval([{}]),
     ValidationError, "cannot interpret {} as a pure product argument"),
    (lambda: kappa_elements_by_kernel(ProductSpace([semicircle_factor("A1", "a")]), []),
     ValidationError, "kappa_elements needs at least one argument"),
    (lambda: product_space_from_json([]), SpecFormatError,
     "product spec must be a JSON object"),
    (lambda: product_space_from_json({"degree_bound": 2, "factors": []}),
     SpecFormatError, "'factors' must be a non-empty list"),
], ids=["no-factor", "duplicate-index", "mixed-bounds", "centered-unit",
        "unhashable-slot-word", "slot-of-names", "bad-state-argument", "unhashable-state-argument", "dict-state-argument",
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
