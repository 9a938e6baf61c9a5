"""Slow, obviously correct routes, kept as oracles for the library's kernels.

The library computes the cumulants of factor states and of products by the
first-block recursion (``cumulant_calculus.first_block_cumulant``).  These
are the routes it is checked against, and the NC(n) join the tests use:

* ``lattice_sum``            - the NC(n) sum itself: over sigma in NC(n) of
                               the blockwise product, weighted by
                               mu(sigma, 1_n) for cumulants (Moebius
                               inversion); the oracle for both first-block
                               kernels;
* ``kappa_pi_via_moebius``   - kappa_pi of a factor state, which
                               ``kappa_pure_pi`` (below) computes on
                               ``ProductSpace([state])``, as the Moebius sum
                               of phi_sigma over sigma in [0_n, pi];
* ``kappa_products``         - the cumulant of grouped products as the sum of
                               kappa_pi over all pi in NC(n) whose join with
                               the group interval partition is 1_n (Nica &
                               Speicher, Theorem 11.12);
* ``kappa_pi_products``      - its blockwise extension over groups;
* ``kappa_elements``         - cumulants of free-product elements, by
                               multilinear expansion into the unit and tensor
                               words, each term by the join-constrained sum on
                               the words' slots as centered polynomials;
* ``kappa_elements_by_kernel`` - the same cumulants, each term by the
                               first-block kernel on the groups, with the
                               state on their concatenated slots as phi;
* ``multiply_by_polynomials`` - the product of free-product elements through
                               the centered ``Polynomial``s of the slots: the
                               boundary pair's product, its phi, and the
                               centered rest expanded into slots again;
* ``kappa_base_atoms``       - the pure cumulant of (factor, polynomial)
                               atoms, by multilinear expansion into word
                               tuples, units included, each one
                               ``kappa_words`` (below) of the factor;
* ``kappa_base_atoms_by_kernel`` - the same cumulant by the first-block
                               kernel on the atoms themselves, with phi of a
                               sub-tuple ``eval_phi_n`` of its polynomials;
* ``kappa_base_atoms_by_slots`` - the same cumulant through the state's own
                               on slots: each polynomial split into its mean
                               and its non-unit words' slots;
* ``letter_table_by_kernel`` - a whole table of cumulants or moments of
                               letter tuples, by the dense first-block kernel
                               on every tuple, which visits every block;
* ``phi_of_centered_product_by_terms`` - phi of an alternating product of
                               centered monomials, expanded into the list of
                               all (coefficient, joint word) terms first;
* ``alternating_slots_by_brute_force`` - the freeness checks' alternating
                               (factor, word) slot tuples, filtered from all
                               slot tuples of each length, then sorted into
                               depth-first order;
* ``join_nc_by_rescan``      - the package's only NC(n) join, merging one
                               crossing pair of blocks per rescan of all
                               pairs; ``admissible_tops`` uses it, and the
                               join-law tests check it;
* ``ldlt_psd_by_recursion``  - the exact PSD decision by pivoted LDL*, copying
                               the whole Schur complement at every pivot and
                               recursing on it;
* ``enumerate_nc_by_rgs``    - NC(n) as restricted-growth strings from a stack
                               walk, each rebuilt into a partition;
* ``plain_word_gram``        - a factor's Gram phi(w_s* w_t) over its plain
                               words of degree <= d, whose PSD verdict the
                               one-factor product Gram must give.

Helpers serve the tests where the library has no method of its own:

* ``Polynomial``, a finite combination of words with exact coefficients,
  with its sum, product, star and text: the factor algebra, which the
  library reads only as {word: coefficient} terms (``ProductSpace.embed``);
* on factor states: ``eval_phi_pi``, the multiplicative extension phi_pi;
  ``eval_phi_n``, phi of a product of polynomials; ``words_up_to``, every
  word of a factor up to a degree; ``center``, p - phi(p) 1;
  ``kappa_words``, the joint cumulant of factor words by the first-block
  kernel; and ``kappa_n``, its case of one-letter words;
* on NC(n): ``singletons`` (0_n), ``one_block`` (1_n),
  ``partition_from_rgs``, and ``kreweras``, the Kreweras complement;
* on product spaces: ``embed_letter`` and ``embed_polynomial``, a letter or
  a polynomial of one factor as an algebra element; ``as_pairs``, the
  state's atoms as (factor, polynomial) pairs; and the space's base
  cumulant on letters, ``kappa_base``, with its blockwise extension
  ``kappa_pure_pi``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, product as iter_product
from typing import Callable, Iterator, Mapping, Sequence

from ncprob.cumulant_calculus import first_block_cumulant
from ncprob.errors import DimensionMismatchError, TruncationError, ValidationError
from ncprob.free_product import FreeElement, ProductSpace
from ncprob.moment_space import (
    FactorState,
    Letter,
    Word,
    all_words,
    star_word,
    word_sort_key,
    word_text,
)
from ncprob.nc_lattice import (
    Partition,
    _kreweras_cycles,
    check_lattice_size,
    enumerate_nc,
    is_noncrossing,
    leq,
    moebius,
    moebius_to_top,
)
from ncprob.scalar import ONE, ZERO, ComplexRational

class Polynomial:
    """A finite linear combination of words with exact scalar coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, ComplexRational] | None = None):
        cleaned: dict[Word, ComplexRational] = {}
        for word, coeff in (terms or {}).items():
            value = ComplexRational.of(coeff)
            if value:
                cleaned[word] = value
        self._terms = cleaned

    @classmethod
    def monomial(cls, word: Word, coeff=1) -> "Polynomial":
        return cls({word: coeff})

    @classmethod
    def from_letter(cls, letter: Letter) -> "Polynomial":
        return cls.monomial((letter,))

    def items(self) -> Iterator[tuple[Word, ComplexRational]]:
        """Terms in deterministic (degree, letters) order."""
        return iter(sorted(self._terms.items(), key=lambda kv: word_sort_key(kv[0])))

    def is_zero(self) -> bool:
        return not self._terms

    def star(self) -> "Polynomial":
        return Polynomial({star_word(w): c.conjugate() for w, c in self._terms.items()})

    def __add__(self, other: "Polynomial") -> "Polynomial":
        merged = dict(self._terms)
        for word, coeff in other._terms.items():
            merged[word] = merged.get(word, ZERO) + coeff
        return Polynomial(merged)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial({w: -c for w, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out: dict[Word, ComplexRational] = {}
            for wa, ca in self._terms.items():
                for wb, cb in other._terms.items():
                    out[wa + wb] = out.get(wa + wb, ZERO) + ca * cb
            return Polynomial(out)
        scalar = ComplexRational.of(other)
        return Polynomial({w: c * scalar for w, c in self._terms.items()})

    def __rmul__(self, other):
        return self * other  # a scalar commutes

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def text(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(f"({c}) {word_text(w)}" for w, c in self.items())

    def __repr__(self) -> str:
        return f"Polynomial({self.text()})"


# The unit as a grouped-word atom: a slot with no factor.
UNIT_ATOM = (None, Polynomial.monomial(()))


def lattice_sum(
    n: int,
    block_value: Callable[[tuple[int, ...]], ComplexRational],
    weighted: bool,
) -> ComplexRational:
    """Sum over sigma in NC(n) of the product of block_value over sigma's blocks,
    each term times mu(sigma, 1_n) when ``weighted``.

    A term stops at its first zero factor.  sigma = 1_n comes first, so any
    error its single block raises is raised before other blocks are tried.
    """
    if n < 1:
        raise ValidationError("cumulants need at least one argument")
    check_lattice_size(n)
    total = ZERO
    for sigma in enumerate_nc(n):
        term = ONE
        for block in sigma.blocks:
            term = term * block_value(block)
            if term.is_zero():
                break
        else:
            total = total + (term * moebius_to_top(sigma) if weighted else term)
    return total


def kappa_pi_via_moebius(
    state: FactorState, pi: Partition, letters: Sequence[Letter]
) -> ComplexRational:
    """kappa_pi as a Moebius sum over [0_n, pi]."""
    if len(letters) != pi.n:
        raise DimensionMismatchError(
            f"partition of {pi.n} elements applied to {len(letters)} letters"
        )
    total = ZERO
    for sigma in enumerate_nc(pi.n):
        if not leq(sigma, pi):
            continue
        total = total + eval_phi_pi(state, sigma, letters) * moebius(sigma, pi)
    return total


def eval_phi_pi(
    state: FactorState, pi: Partition, letters: Sequence[Letter]
) -> ComplexRational:
    """Multiplicative extension: product over blocks, order preserved."""
    if len(letters) != pi.n:
        raise ValidationError(
            f"partition of {pi.n} elements applied to {len(letters)} letters"
        )
    total = ONE
    for block in pi.blocks:
        total = total * state.phi_word(tuple(letters[i - 1] for i in block))
    return total


def eval_phi_n(state: FactorState, args: Sequence[Polynomial]) -> ComplexRational:
    """phi(a_1 a_2 ... a_n): multiply the polynomials, sum coeff * moment."""
    product = Polynomial.monomial(())
    for p in args:
        product = product * p
    total = ZERO
    for word, coeff in product.items():
        total = total + coeff * state.phi_word(word)
    return total


def words_up_to(state: FactorState, max_degree: int) -> Iterator[Word]:
    if max_degree > state.degree_bound:
        raise TruncationError(
            f"degree {max_degree} exceeds bound {state.degree_bound}"
        )
    return all_words(state.letters(), max_degree)


def center(state: FactorState, p: Polynomial) -> Polynomial:
    """p - phi(p) 1; afterwards phi of it is 0 exactly."""
    return p - Polynomial.monomial((), eval_phi_n(state, [p]))


def kappa_words(state: FactorState, words: Sequence[Word]) -> ComplexRational:
    """Joint free cumulant of a tuple of factor words, by the first-block kernel.

    Words may be empty (the identity); the total degree of every block
    evaluation must stay within the state's bound.
    """
    return first_block_cumulant(words, lambda sub: state.phi_word(sum(sub, ())), {})


def kappa_n(state: FactorState, letters: Sequence[Letter]) -> ComplexRational:
    """kappa_n(a_1, ..., a_n) for single-letter arguments."""
    return kappa_words(state, [(l,) for l in letters])


def singletons(n: int) -> Partition:
    """0_n, the bottom of NC(n)."""
    return interval_partition((1,) * n)


def one_block(n: int) -> Partition:
    """1_n, the top of NC(n)."""
    return interval_partition((n,))


def partition_from_rgs(rgs: Sequence[int]) -> Partition:
    """The partition whose element k lies in block ``rgs[k - 1]``."""
    blocks: dict[int, list[int]] = {}
    for pos, label in enumerate(rgs, start=1):
        blocks.setdefault(label, []).append(pos)
    return Partition.of(len(rgs), blocks.values())


def embed_letter(space: ProductSpace, letter: Letter) -> FreeElement:
    """One letter as an element of the free product."""
    return space.embed(letter.factor, {(letter,): ONE})


def word_element(slots: tuple[tuple[str, Word], ...]) -> FreeElement:
    """One tensor word, by its (factor, word) slots, as an algebra element."""
    return FreeElement(ZERO, {slots: ONE})


def embed_polynomial(space: ProductSpace, index: str, p: Polynomial) -> FreeElement:
    """A polynomial of factor ``index`` as an element of the free product."""
    return space.embed(index, dict(p.items()))


@dataclass(frozen=True)
class GroupedWord:
    """A flat letter sequence cut into groups by boundary indices.

    ``boundaries`` are the strictly increasing cut points s_1 < ... < s_m
    with s_m = len(letters); group j holds letters s_{j-1}+1 .. s_j.  Within
    a group adjacent letters must come from different factors.
    """

    letters: tuple[Letter, ...]
    boundaries: tuple[int, ...]

    def __post_init__(self):
        if not self.letters:
            raise ValidationError("grouped word must contain letters")
        bounds = self.boundaries
        if (
            not bounds
            or list(bounds) != sorted(set(bounds))
            or bounds[0] < 1
            or bounds[-1] != len(self.letters)
        ):
            raise ValidationError(
                f"boundaries {bounds} invalid for {len(self.letters)} letters"
            )
        for group in self.groups():
            for left, right in zip(group, group[1:]):
                if left.factor == right.factor:
                    raise ValidationError(
                        f"letters {left.text()} {right.text()} of factor "
                        f"{left.factor!r} are adjacent within a group"
                    )

    def groups(self) -> tuple[tuple[Letter, ...], ...]:
        starts = (0, *self.boundaries[:-1])
        return tuple(
            self.letters[start:stop] for start, stop in zip(starts, self.boundaries)
        )

    def sigma_interval(self) -> Partition:
        """The interval partition {{1..s_1}, {s_1+1..s_2}, ...}."""
        return interval_partition(tuple(len(g) for g in self.groups()))


def interval_partition(sizes: Sequence[int]) -> Partition:
    """The interval partition of 1..sum(sizes) into consecutive runs of ``sizes``."""
    blocks = []
    start = 0
    for size in sizes:
        blocks.append(range(start + 1, start + size + 1))
        start += size
    return Partition.of(start, blocks)


@cache
def admissible_tops(sizes: tuple[int, ...]) -> tuple[Partition, ...]:
    """All pi in NC(sum sizes) whose join with the interval partition is full."""
    n = sum(sizes)
    sigma = interval_partition(sizes)
    top = one_block(n)
    return tuple(pi for pi in enumerate_nc(n) if join_nc_by_rescan(pi, sigma) == top)


def _kappa_base(space: ProductSpace, atoms: tuple) -> ComplexRational:
    # The factor cumulant of a block, 0 when it straddles two factors.  Unit
    # atoms take the block's factor; a block of units alone is kappa_1(1) = 1
    # or, longer, 0.
    present = {f for f, _ in atoms if f is not None}
    if len(present) > 1:
        return ZERO
    if not present:
        return ONE if len(atoms) == 1 else ZERO
    factor = present.pop()
    return kappa_base_atoms(space, tuple((factor, p) for _, p in atoms))


@cache
def kappa_base_atoms(space: ProductSpace, atoms: tuple) -> ComplexRational:
    """The factor cumulant of same-factor (factor, polynomial) atoms, expanded
    multilinearly into word tuples; 0 when the atoms straddle two factors.
    Memoized per space and atom tuple."""
    present = {f for f, _ in atoms}
    if len(present) > 1:
        return ZERO
    state = space.factor_state(present.pop())
    total = ZERO
    for combo in iter_product(*(tuple(p.items()) for _, p in atoms)):
        coeff = ONE
        for _, c in combo:
            coeff = coeff * c
        total = total + coeff * kappa_words(state, tuple(w for w, _ in combo))
    return total


def kappa_base_atoms_by_kernel(space: ProductSpace, atoms: tuple) -> ComplexRational:
    """The factor cumulant of (factor, polynomial) atoms by the first-block
    kernel on the atoms, phi of a sub-tuple being ``eval_phi_n`` of its
    polynomials; 0 when the atoms straddle two factors."""
    present = {f for f, _ in atoms}
    if len(present) > 1:
        return ZERO
    state = space.factor_state(present.pop())
    return first_block_cumulant(
        atoms, lambda sub: eval_phi_n(state, [p for _, p in sub]), {}
    )


def kappa_base_atoms_by_slots(space: ProductSpace, atoms: tuple) -> ComplexRational:
    """The factor cumulant of same-factor (factor, polynomial) atoms through
    the state's cumulant on slots: p = phi(p) 1 + sum_w c_w w° over its
    non-unit words, kappa_1(1) = 1, and kappa_n, n >= 2, is 0 on the unit, so
    only a single atom keeps its mean."""
    total = ZERO
    if len(atoms) == 1:
        index, p = atoms[0]
        total = eval_phi_n(space.factor_state(index), [p])  # the mean: phi(p) kappa_1(1)
    choices = [[((f, w), c) for w, c in p.items() if w] for f, p in atoms]
    for combo in iter_product(*choices):
        coeff = ONE
        for _, c in combo:
            coeff = coeff * c
        total = total + coeff * space._kappa_base_atoms(tuple(slot for slot, _ in combo))
    return total


def letter_table_by_kernel(
    letters: Sequence, top: int, kernel: Callable, given: Callable
) -> dict[tuple, ComplexRational]:
    """``kernel(t, given, memo)`` on every tuple t of 1..``top`` ``letters``,
    shortest first, in ``itertools.product`` order within a length, with one
    memo: the dense first-block kernel on each tuple, every block visited."""
    memo: dict = {}
    return {
        t: kernel(t, given, memo)
        for n in range(1, top + 1)
        for t in iter_product(letters, repeat=n)
    }


def phi_of_centered_product_by_terms(
    joint, slots: Sequence[tuple[str, Word]]
) -> ComplexRational:
    """phi of prod_j (w_j - phi_j(w_j) 1) on a joint state: expand slot by slot
    into (coefficient, joint word) terms, the word before the mean within each
    slot, then sum coefficient * phi(word) in that order."""
    terms: list[tuple[ComplexRational, tuple[Letter, ...]]] = [(ONE, ())]
    for index, word in slots:
        minus_mean = -joint.factor_state(index).phi_word(word)
        expanded = []
        for coeff, letters in terms:
            expanded.append((coeff, letters + word))
            if minus_mean:
                expanded.append((minus_mean * coeff, letters))
        terms = expanded
    total = ZERO
    for coeff, letters in terms:
        total = total + coeff * joint.state_eval(letters)
    return total


def alternating_slots_by_brute_force(
    joint, max_degree: int
) -> list[tuple[tuple[str, Word], ...]]:
    """Every alternating tuple of (factor, non-unit word) slots of total degree
    <= max_degree, depth first: slots rank by factor in sorted order, then by
    word in ``all_words`` order, and a tuple comes before its extensions."""
    slots = [
        (index, word)
        for index in sorted(joint.factors)
        for word in all_words(joint.factor_state(index).letters(), max_degree)
        if word
    ]
    rank = {slot: k for k, slot in enumerate(slots)}
    found = []
    for length in range(1, max_degree + 1):
        # each slot leaves at least one degree for every later one
        short = [s for s in slots if len(s[1]) <= max_degree - length + 1]
        for tup in iter_product(short, repeat=length):
            if sum(len(w) for _, w in tup) <= max_degree and all(
                x[0] != y[0] for x, y in zip(tup, tup[1:])
            ):
                found.append(tup)
    return sorted(found, key=lambda tup: [rank[s] for s in tup])


def kappa_products_atoms(space: ProductSpace, groups: Sequence[tuple]) -> ComplexRational:
    """The join-constrained sum over NC(n) for groups of (factor, polynomial) atoms."""
    atoms = tuple(a for group in groups for a in group)
    sizes = tuple(len(group) for group in groups)
    total = ZERO
    for pi in admissible_tops(sizes):
        term = ONE
        for block in pi.blocks:
            term = term * _kappa_base(space, tuple(atoms[i - 1] for i in block))
            if term.is_zero():
                break
        total = total + term
    return total


def as_pairs(space: ProductSpace, atoms: Sequence) -> tuple:
    """The state's atoms as (factor, polynomial) pairs: a letter is its
    one-letter word, and a slot (f, w) the centered w - phi_f(w) 1."""
    return tuple(
        (a.factor, Polynomial.from_letter(a)) if isinstance(a, Letter)
        else (a[0], center(space.factor_state(a[0]), Polynomial.monomial(a[1])))
        for a in atoms
    )


def kappa_products(space: ProductSpace, gw: GroupedWord) -> ComplexRational:
    """Cumulant of the grouped products: the join-constrained lattice sum."""
    return kappa_products_atoms(space, [as_pairs(space, g) for g in gw.groups()])


def kappa_pi_products(
    space: ProductSpace, pi: Partition, gw: GroupedWord
) -> ComplexRational:
    """Blockwise extension over groups, order preserved within blocks."""
    group_atoms = [as_pairs(space, g) for g in gw.groups()]
    if pi.n != len(group_atoms):
        raise DimensionMismatchError(
            f"partition of {pi.n} applied to {len(group_atoms)} groups"
        )
    total = ONE
    for block in pi.blocks:
        total = total * kappa_products_atoms(space, [group_atoms[i - 1] for i in block])
        if total.is_zero():
            break
    return total


def kappa_base(space: ProductSpace, letters: Sequence[Letter]) -> ComplexRational:
    """Factor cumulant if all letters share a factor, otherwise 0: the state's
    own base cumulant on the letters' atoms."""
    if not letters:
        raise ValidationError("kappa_base needs at least one letter")
    return space._kappa_base_atoms(space._as_atoms(letters))


def kappa_pure_pi(
    space: ProductSpace, pi: Partition, letters: Sequence[Letter]
) -> ComplexRational:
    """Blockwise multiplicative extension of kappa_base."""
    if len(letters) != pi.n:
        raise DimensionMismatchError(
            f"partition of {pi.n} applied to {len(letters)} letters"
        )
    atoms = space._as_atoms(letters)
    total = ONE
    for block in pi.blocks:
        total = total * space._kappa_base_atoms(tuple(atoms[i - 1] for i in block))
        if total.is_zero():
            break
    return total


def kappa_elements_by_kernel(
    space: ProductSpace, args: Sequence[FreeElement]
) -> ComplexRational:
    """kappa_m on arbitrary elements, by multilinear expansion.

    Each argument splits into its scalar part (a unit slot) and its tensor
    words.  A term of the expansion is the cumulant of m grouped products:
    the first-block kernel on the groups, each a word's slots, with phi of a
    sub-tuple the state on its groups' slots, concatenated.  A unit slot is
    the empty group, on which phi is 1.

    Within the degree bound this equals ``kappa_elements``, the sum over pi
    in NC(n) whose join with the group interval partition is 1_n (Nica &
    Speicher, Theorem 11.12).  Past the bound the two routes evaluate
    different moments, so either may raise TruncationError where the other
    returns a value; where both return a value, it is the same.
    """
    if not args:
        raise ValidationError("kappa_elements needs at least one argument")
    total = ZERO
    for combo in iter_product(*(element.terms() for element in args)):
        coeff = ONE
        for c, _ in combo:
            coeff = coeff * c
        total = total + coeff * first_block_cumulant(
            tuple(slots for _, slots in combo),
            lambda sub: space.state_eval(tuple(a for group in sub for a in group)),
            {},
        )
    return total


def kappa_elements(space: ProductSpace, args: Sequence[FreeElement]) -> ComplexRational:
    """kappa_m on arbitrary elements: each argument splits into its scalar part
    (a unit slot) and its tensor words (whose slots, as centered polynomials,
    become the group's atoms), and each term is the join-constrained sum."""
    if not args:
        raise ValidationError("kappa_elements needs at least one argument")
    expansions = []
    for element in args:
        choices = []
        if element.scalar:
            choices.append((element.scalar, (UNIT_ATOM,)))
        for slots, coeff in element.words.items():
            choices.append((coeff, as_pairs(space, slots)))
        expansions.append(choices)
    total = ZERO
    for combo in iter_product(*expansions):
        coeff = ONE
        for c, _ in combo:
            coeff = coeff * c
        if coeff:
            total = total + coeff * kappa_products_atoms(
                space, [group for _, group in combo]
            )
    return total


def multiply_by_polynomials(
    space: ProductSpace, x: FreeElement, y: FreeElement
) -> FreeElement:
    """x y with each slot its centered ``Polynomial``: where two boundary
    slots share a factor, their product p q splits into phi(p q) 1, which
    multiplies the shorter words on each side, and the centered rest, which
    expands over its non-unit words into slots again."""
    total = FreeElement()
    for cx, left in x.terms():
        for cy, right in y.terms():
            product = _multiply_centered(
                space, as_pairs(space, left), as_pairs(space, right)
            )
            total = total + product.scale(cx * cy)
    return total


def _multiply_centered(space: ProductSpace, left: tuple, right: tuple) -> FreeElement:
    if not left and not right:
        return FreeElement(ONE)
    if not left or not right or left[-1][0] != right[0][0]:
        return _expand_centered(left + right)
    (factor, p), (_, q) = left[-1], right[0]
    merged = p * q
    value = eval_phi_n(space.factor_state(factor), [merged])  # raises past the degree bound
    centered = merged - Polynomial.monomial((), value)
    out = FreeElement()
    if not centered.is_zero():
        out = out + _expand_centered(left[:-1] + ((factor, centered),) + right[1:])
    if value:
        out = out + _multiply_centered(space, left[:-1], right[1:]).scale(value)
    return out


def _expand_centered(components: tuple) -> FreeElement:
    # A centered p = sum_w c_w w is sum_w c_w w° over its non-unit words w,
    # so a product of centered polynomials expands multilinearly into slots.
    words: dict = {}
    choices = [[(f, w, c) for w, c in p.items() if w] for f, p in components]
    for combo in iter_product(*choices):
        coeff = ONE
        for _, _, c in combo:
            coeff = coeff * c
        slots = tuple((f, w) for f, w, _ in combo)
        words[slots] = words.get(slots, ZERO) + coeff
    return FreeElement(ZERO, words)


def _blocks_cross(left: tuple[int, ...], right: tuple[int, ...]) -> bool:
    # Two blocks cross exactly when their elements alternate along the line
    # at least four times (pattern B C B C).
    merged = sorted([(x, 0) for x in left] + [(x, 1) for x in right])
    switches = 0
    last = merged[0][1]
    for _, owner in merged[1:]:
        if owner != last:
            switches += 1
            last = owner
    return switches >= 3


def join_nc_by_rescan(sigma: Partition, pi: Partition) -> Partition:
    """The NC(n) join: the set-partition join, then merge one crossing pair of
    blocks at a time, rescanning all pairs after every merge."""
    n = sigma.n
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for p in (sigma, pi):
        for block in p.blocks:
            for x in block[1:]:
                union(block[0], x)

    def current_blocks() -> list[tuple[int, ...]]:
        groups: dict[int, list[int]] = {}
        for x in range(1, n + 1):
            groups.setdefault(find(x), []).append(x)
        return [tuple(b) for b in groups.values()]

    blocks = current_blocks()
    merged = True
    while merged:
        merged = False
        for left, right in combinations(blocks, 2):
            if _blocks_cross(left, right):
                union(left[0], right[0])
                blocks = current_blocks()
                merged = True
                break
    return Partition.of(n, blocks)


def kreweras(sigma: Partition) -> Partition:
    """The Kreweras complement K(sigma) of a non-crossing partition: the
    cycles of sigma^-1 1_n, reading each block as the cycle of its elements
    in increasing order."""
    if not is_noncrossing(sigma):
        raise ValidationError(f"{sigma} is crossing")
    top = (tuple(range(1, sigma.n + 1)),)
    return Partition.of(sigma.n, _kreweras_cycles(sigma.n, sigma.blocks, top))


def ldlt_psd_by_recursion(
    entries: Sequence[Sequence[ComplexRational]],
) -> tuple[bool, tuple[Fraction, ...], tuple[ComplexRational, ...] | None]:
    """Exact PSD decision by pivoted LDL* over the rationals.

    Returns (psd, pivots, witness); the witness x satisfies x* M x < 0.
    """
    mat = [list(row) for row in entries]
    n = len(mat)
    for i in range(n):
        if not mat[i][i].is_real():
            raise RuntimeError("internal error: non-real diagonal in LDL*")
    pivot = next((i for i in range(n) if mat[i][i].re > 0), None)
    if pivot is None:
        negative = next((i for i in range(n) if mat[i][i].re < 0), None)
        if negative is not None:
            witness = [ZERO] * n
            witness[negative] = ONE
            return False, (), tuple(witness)
        for i in range(n):
            for j in range(i + 1, n):
                if mat[i][j]:
                    # zero diagonal but m_ij != 0: x = e_i - conj(m_ij) e_j
                    # gives x* M x = -2 |m_ij|^2 < 0
                    witness = [ZERO] * n
                    witness[i] = ONE
                    witness[j] = -mat[i][j].conjugate()
                    return False, (), tuple(witness)
        return True, (Fraction(0),) * n, None
    d = mat[pivot][pivot]
    rest = [i for i in range(n) if i != pivot]
    sub = []
    for a in rest:
        scale = mat[a][pivot] / d
        sub.append([mat[a][b] - scale * mat[pivot][b] for b in rest])
    psd, pivots, sub_witness = ldlt_psd_by_recursion(sub)
    if psd:
        return True, (d.re,) + pivots, None
    witness = [ZERO] * n
    acc = ZERO
    for k, b in enumerate(rest):
        witness[b] = sub_witness[k]
        acc = acc + mat[pivot][b] * sub_witness[k]
    witness[pivot] = -(acc / d)
    return False, (), tuple(witness)


def enumerate_nc_by_rgs(n: int) -> tuple[Partition, ...]:
    """All of NC(n), in lexicographic restricted-growth-string order."""
    return tuple(_trusted_from_rgs(r) for r in _iter_nc_rgs(n))


def _trusted_from_rgs(rgs: tuple[int, ...]) -> Partition:
    # Labels of a restricted-growth string appear in order of least element
    # and positions are visited ascending, so the blocks come out canonical;
    # only strings from _iter_nc_rgs reach here, so validation is skipped.
    blocks: list[list[int]] = [[] for _ in range(max(rgs) + 1)]
    for pos, label in enumerate(rgs, start=1):
        blocks[label].append(pos)
    p = object.__new__(Partition)
    object.__setattr__(p, "n", len(rgs))
    object.__setattr__(p, "blocks", tuple(tuple(b) for b in blocks))
    return p


def _iter_nc_rgs(n: int) -> Iterator[tuple[int, ...]]:
    # Non-crossing partitions are exactly the partitions buildable with a
    # stack of open blocks: element k either joins an open block (closing
    # every block opened after it) or opens a new one.  Open blocks carry
    # ascending labels bottom-to-top, so trying them bottom-up and then a
    # fresh label yields restricted-growth strings in lexicographic order.
    rgs = [0] * n

    def walk(pos: int, stack: tuple[int, ...], next_label: int) -> Iterator[tuple[int, ...]]:
        if pos == n:
            yield tuple(rgs)
            return
        for depth in range(len(stack)):
            rgs[pos] = stack[depth]
            yield from walk(pos + 1, stack[: depth + 1], next_label)
        rgs[pos] = next_label
        yield from walk(pos + 1, stack + (next_label,), next_label + 1)

    yield from walk(0, (), 0)


def plain_word_gram(
    state: FactorState, basis_degree: int
) -> tuple[tuple[ComplexRational, ...], ...]:
    """The entries phi(w_s* w_t) over every word of degree <= basis_degree.

    The words span the same space as the unit and the centered words, so
    this Gram is PSD exactly when ``check_positivity`` on the one-factor
    product space finds its Gram PSD.
    """
    basis = sorted(all_words(state.letters(), basis_degree), key=word_sort_key)
    return tuple(
        tuple(state.phi_word(star_word(ws) + wt) for wt in basis) for ws in basis
    )
