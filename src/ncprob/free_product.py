"""The free product of factor spaces, built cumulant-first.

The algebra is spanned by a unit plus reduced tensor words: alternating
sequences of centered factor polynomials.  Multiplication concatenates and,
when boundary factors coincide, merges the boundary pair into its centered
part plus a scalar times the recursively reduced shorter product.

Cumulant functions are layered exactly as they are defined:

* ``kappa_base``     - pure tuples: the factor cumulant, or 0 when the
                       arguments straddle two factors;
* ``kappa_pure_pi``  - blockwise multiplicative extension of the above;
* ``state_eval``     - the state, phi(a_1..a_n) = sum over sigma in NC(n) of
                       the blockwise base-cumulant product;
* ``kappa_elements`` - arbitrary algebra elements, by multilinear expansion
                       into unit/tensor-word slots, each term the cumulant of
                       grouped products read off the state.

An atom is a (factor, polynomial) pair, and each letter is one atom built
with the space.  Mixed cumulants vanish, so the state is the first-block
kernel (``cumulant_calculus.first_block_moment``) on the atoms, over blocks
inside the first atom's factor, with ``_phi_memo`` as its memo, whose hits
are read before the kernel is entered.  A pure cumulant of one atom is its
phi; of n >= 2 atoms it is multilinear and 0 on the unit, so it sums the
first-block kernel (``cumulant_calculus.first_block_cumulant``) over tuples
of non-unit words, with phi of their concatenation and ``_word_kappa_memo``
as its memo.  One polynomial per centered (factor, word) makes the memos
match by identity.  A cumulant of grouped products is the same kernel on the
groups, with the state of their concatenation as phi and a fresh memo per
term.  Everything is exact; the memos are plain per-instance dicts.
"""

from __future__ import annotations

from itertools import product as iter_product
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .cumulant_calculus import first_block_cumulant, first_block_moment
from .errors import (
    DimensionMismatchError,
    FactorMismatchError,
    SpecFormatError,
    ValidationError,
)
from .moment_space import (
    EMPTY_WORD,
    FactorState,
    Letter,
    Polynomial,
    Word,
    check_degree_bound,
    factor_state_from_json,
)
from .nc_lattice import Partition
from .scalar import ONE, ZERO, ComplexRational
from .value import Value

Atom = tuple[str, Polynomial]


class TensorWord(Value):
    """An alternating tensor word of (factor, centered polynomial) components."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[tuple[str, Polynomial], ...]):
        if not components:
            raise ValidationError("tensor word must have at least one component")
        previous = None
        for factor, poly in components:
            if factor == previous:
                raise ValidationError(
                    f"adjacent components share factor {factor!r}"
                )
            if poly.is_zero():
                raise ValidationError("zero component in tensor word")
            previous = factor
        object.__setattr__(self, "components", components)

    @property
    def degree(self) -> int:
        return sum(poly.degree for _, poly in self.components)

    def star(self) -> "TensorWord":
        return TensorWord(
            tuple((f, p.star()) for f, p in reversed(self.components))
        )

    def sort_key(self) -> tuple:
        return (
            self.degree,
            len(self.components),
            tuple(
                (f, tuple((w.sort_key(), str(c)) for w, c in p.items()))
                for f, p in self.components
            ),
        )

    def text(self) -> str:
        return " (x) ".join(f"[{p.text()}]@{f}" for f, p in self.components)

    def __repr__(self) -> str:
        return f"TensorWord({self.text()})"


class FreeElement:
    """scalar * 1  plus  a combination of reduced tensor words."""

    __slots__ = ("scalar", "words")

    def __init__(
        self,
        scalar: ComplexRational = ZERO,
        words: Mapping[TensorWord, ComplexRational] | None = None,
    ):
        self.scalar = scalar if scalar.__class__ is ComplexRational else ComplexRational.of(scalar)
        cleaned: dict[TensorWord, ComplexRational] = {}
        for word, coeff in (words or {}).items():
            value = coeff if coeff.__class__ is ComplexRational else ComplexRational.of(coeff)
            if value:
                cleaned[word] = value
        self.words = cleaned

    @classmethod
    def one(cls) -> "FreeElement":
        return cls(ONE)

    @classmethod
    def from_word(
        cls, word: TensorWord, coeff: ComplexRational = ONE
    ) -> "FreeElement":
        return cls(ZERO, {word: coeff})

    def items(self) -> list[tuple[TensorWord, ComplexRational]]:
        return sorted(self.words.items(), key=lambda kv: kv[0].sort_key())

    def terms(self) -> list[tuple[ComplexRational, tuple[Atom, ...]]]:
        """(coefficient, components) of each term; the unit's components are ()."""
        unit = [(self.scalar, ())] if self.scalar else []
        return unit + [(c, w.components) for w, c in self.words.items()]

    def __add__(self, other: "FreeElement") -> "FreeElement":
        if not isinstance(other, FreeElement):
            return NotImplemented
        merged = dict(self.words)
        for word, coeff in other.words.items():
            merged[word] = merged.get(word, ZERO) + coeff
        return FreeElement(self.scalar + other.scalar, merged)

    def scale(self, c: ComplexRational) -> "FreeElement":
        c = ComplexRational.of(c)
        return FreeElement(self.scalar * c, {w: x * c for w, x in self.words.items()})

    def star(self) -> "FreeElement":
        return FreeElement(
            self.scalar.conjugate(),
            {w.star(): c.conjugate() for w, c in self.words.items()},
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FreeElement)
            and self.scalar == other.scalar
            and self.words == other.words
        )

    __hash__ = None  # mutable mapping inside; equality is structural

    def text(self) -> str:
        parts = []
        if self.scalar or not self.words:
            parts.append(f"({self.scalar}) 1")
        for word, coeff in self.items():
            parts.append(f"({coeff}) {word.text()}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"FreeElement({self.text()})"


class ProductSpace:
    """The free product of validated factor states with one degree bound."""

    def __init__(self, factors: Sequence[FactorState]):
        if not factors:
            raise ValidationError("a product space needs at least one factor")
        indices = [f.factor for f in factors]
        if len(set(indices)) != len(indices):
            raise ValidationError(f"duplicate factor indices in {indices}")
        bounds = {f.degree_bound for f in factors}
        if len(bounds) != 1:
            raise DimensionMismatchError(
                f"factors must share one degree bound, got {sorted(bounds)}"
            )
        self.factors: dict[str, FactorState] = {f.factor: f for f in factors}
        self.degree_bound = bounds.pop()
        self._letter_atoms: dict[Letter, Atom] = {
            letter: (f.factor, Polynomial.from_letter(letter))
            for f in factors
            for letter in f.letters()
        }
        self._centered: dict[tuple[str, Word], Polynomial] = {}
        self._kappa_base_memo: dict[tuple[Atom, ...], ComplexRational] = {}
        self._word_kappa_memo: dict[tuple[Word, ...], ComplexRational] = {}
        self._phi_memo: dict[tuple[Atom, ...], tuple[ComplexRational, bool]] = {}

    # -- elements ---------------------------------------------------------

    def factor_state(self, index: str) -> FactorState:
        try:
            return self.factors[index]
        except KeyError:
            raise FactorMismatchError(f"unknown factor {index!r}") from None

    def centered_word(self, index: str, word: Word) -> Polynomial:
        """The centered basis vector w - phi_i(w) 1, one object per (factor, word)."""
        poly = self._centered.get((index, word))
        if poly is None:
            if word.degree == 0:
                raise ValidationError("the empty word has no centered basis vector")
            value = self.factor_state(index).phi_word(word)
            poly = self._centered[index, word] = Polynomial({word: ONE, EMPTY_WORD: -value})
        return poly

    def _expand_to_basis(
        self, components: tuple[tuple[str, Polynomial], ...]
    ) -> FreeElement:
        # A centered polynomial p with word coefficients c_w equals
        # sum_w c_w (w - phi(w) 1), so tensor words expand multilinearly into
        # the canonical basis of centered single-word components.  This is
        # the unique normal form: structural equality of normalized elements
        # decides equality in the algebra.
        slot_choices = []
        for index, poly in components:
            if self.factor_state(index).phi_poly(poly):
                raise ValidationError(
                    f"component {poly.text()!r} is not centered in {index!r}"
                )
            choices = [
                (coeff, (index, word))
                for word, coeff in poly.items()
                if word.degree > 0
            ]
            slot_choices.append(choices)
        total = FreeElement()
        for combo in iter_product(*slot_choices):
            coeff = ONE
            slots = []
            for c, (index, word) in combo:
                coeff = coeff * c
                slots.append((index, self.centered_word(index, word)))
            if coeff:
                total = total + FreeElement.from_word(TensorWord(tuple(slots)), coeff)
        return total

    def normal_form(self, x: FreeElement) -> FreeElement:
        """Re-express x over the canonical centered-word basis."""
        total = FreeElement(x.scalar)
        for word, coeff in x.words.items():
            total = total + self._expand_to_basis(word.components).scale(coeff)
        return total

    def embed(self, index: str, p: Polynomial) -> FreeElement:
        """phi_i(p) * 1  plus the centered part as length-1 tensor words."""
        state = self.factor_state(index)
        value = state.phi_poly(p)
        centered = p - Polynomial.monomial(EMPTY_WORD, value)
        if centered.is_zero():
            return FreeElement(value)
        return FreeElement(value) + self._expand_to_basis(((index, centered),))

    def multiply(self, x: FreeElement, y: FreeElement) -> FreeElement:
        """Bilinear extension of concatenation-and-reduction, in normal form."""
        left_terms, right_terms = self.normal_form(x).terms(), self.normal_form(y).terms()
        total = FreeElement()
        for cx, left in left_terms:
            for cy, right in right_terms:
                total = total + self._multiply_components(left, right).scale(cx * cy)
        return total

    def _multiply_components(
        self,
        left: tuple[tuple[str, Polynomial], ...],
        right: tuple[tuple[str, Polynomial], ...],
    ) -> FreeElement:
        if not left and not right:
            return FreeElement.one()
        if not left or not right or left[-1][0] != right[0][0]:
            return self._expand_to_basis(left + right)
        (factor, poly_left), (_, poly_right) = left[-1], right[0]
        merged = poly_left * poly_right
        value = self.factor_state(factor).phi_poly(merged)  # raises past the degree bound
        centered = merged - Polynomial.monomial(EMPTY_WORD, value)
        out = FreeElement()
        if not centered.is_zero():
            out = out + self._expand_to_basis(left[:-1] + ((factor, centered),) + right[1:])
        if value:
            out = out + self._multiply_components(left[:-1], right[1:]).scale(value)
        return out

    # -- cumulant functions -----------------------------------------------

    def _kappa_base_atoms(self, atoms: tuple[Atom, ...]) -> ComplexRational:
        value = self._kappa_base_memo.get(atoms)
        if value is not None:
            return value
        present = {f for f, _ in atoms}
        value = ZERO  # mixed cumulants vanish
        if len(present) == 1 and len(atoms) == 1:
            value = self.factor_state(present.pop()).phi_poly(atoms[0][1])
        elif len(present) == 1:
            # kappa_n, n >= 2, is multilinear and 0 on the unit: expand over words
            state = self.factor_state(present.pop())
            for combo in iter_product(*([t for t in p.items() if t[0].degree] for _, p in atoms)):
                term = first_block_cumulant(
                    tuple(w for w, _ in combo),
                    lambda sub: state.phi_word(Word(tuple(l for w in sub for l in w.letters))),
                    self._word_kappa_memo,
                )
                for _, c in combo:
                    if term.is_zero():
                        break
                    term = term * c
                else:
                    value = value + term
        self._kappa_base_memo[atoms] = value
        return value

    def kappa_base(self, letters: Sequence[Letter]) -> ComplexRational:
        """Factor cumulant if all letters share a factor, otherwise 0."""
        if not letters:
            raise ValidationError("kappa_base needs at least one letter")
        return self._kappa_base_atoms(self._as_atoms(letters))

    def kappa_pure_pi(
        self, pi: Partition, letters: Sequence[Letter]
    ) -> ComplexRational:
        """Blockwise multiplicative extension of kappa_base."""
        if len(letters) != pi.n:
            raise DimensionMismatchError(
                f"partition of {pi.n} applied to {len(letters)} letters"
            )
        atoms = self._as_atoms(letters)
        total = ONE
        for block in pi.blocks:
            total = total * self._kappa_base_atoms(tuple(atoms[i - 1] for i in block))
            if total.is_zero():
                break
        return total

    def kappa_elements(self, args: Sequence[FreeElement]) -> ComplexRational:
        """kappa_m on arbitrary elements, by multilinear expansion.

        Each argument splits into its scalar part (a unit slot) and its
        tensor words.  A term of the expansion is the cumulant of m grouped
        products: the first-block kernel on the groups, with phi of a
        sub-tuple the state on its groups' components, concatenated.  A unit
        slot is the empty group, on which phi is 1.

        Within the degree bound this equals the sum over pi in NC(n) whose
        join with the group interval partition is 1_n (Nica & Speicher,
        Theorem 11.12), kept in the tests as the oracle.  Past the bound the
        two routes evaluate different moments, so either may raise
        TruncationError where the other returns a value; where both return
        a value, it is the same.
        """
        if not args:
            raise ValidationError("kappa_elements needs at least one argument")
        total = ZERO
        for combo in iter_product(*(element.terms() for element in args)):
            coeff = ONE
            for c, _ in combo:
                coeff = coeff * c
            total = total + coeff * first_block_cumulant(
                tuple(group for _, group in combo),
                lambda sub: self._phi_atoms(tuple(a for group in sub for a in group)),
                {},
            )
        return total

    # -- the state ---------------------------------------------------------

    def _phi_atoms(self, atoms: tuple[Atom, ...]) -> ComplexRational:
        if (hit := self._phi_memo.get(atoms)) is not None:  # a hit skips the kernel's setup
            return hit[0]
        if not atoms:
            return ONE
        return first_block_moment(
            atoms, self._kappa_base_atoms, self._phi_memo, colour=itemgetter(0)
        )

    def state_eval(
        self,
        x: FreeElement | Sequence[Letter] | Sequence[tuple[str, Polynomial]],
    ) -> ComplexRational:
        """The constructed state phi, memoized per sub-tuple of atoms.

        For a flat product of pure arguments (letters, or (factor,
        polynomial) pairs) this is the sum over NC(n) of blockwise base
        cumulants, by the first-block recursion on their atoms; for a
        FreeElement, the scalar part plus that sum on each tensor word's
        components.  A memoized tuple is read before the kernel is entered.
        """
        if isinstance(x, FreeElement):
            total = ZERO
            for coeff, components in x.terms():
                total = total + coeff * self._phi_atoms(components)
            return total
        return self._phi_atoms(self._as_atoms(x))

    def _as_atoms(self, args: Iterable) -> tuple[Atom, ...]:
        try:  # all letters: one pass in C; pairs skip it
            if args[0].__class__ is Letter:
                if None not in (atoms := tuple(map(self._letter_atoms.get, args))):
                    return atoms
        except (LookupError, TypeError):  # empty, not indexable, or an unhashable argument
            pass
        atoms = []
        for arg in args:
            if isinstance(arg, Letter):
                atom = self._letter_atoms.get(arg)
                if atom is None:
                    self.factor_state(arg.factor)
                    raise ValidationError(f"no generator {arg.name!r} in factor {arg.factor!r}")
                atoms.append(atom)
            elif isinstance(arg, tuple) and len(arg) == 2 and isinstance(arg[1], Polynomial):
                self.factor_state(arg[0])
                atoms.append((arg[0], arg[1]))
            else:
                raise ValidationError(f"cannot interpret {arg!r} as a pure product argument")
        return tuple(atoms)

    # -- letter resolution --------------------------------------------------

    def resolve_letter(self, name: str) -> Letter:
        """Find the unique factor owning generator ``name``."""
        starred = name.endswith("*")
        base = name[:-1] if starred else name
        hits = [
            state.letter(base)
            for state in self.factors.values()
            if any(g.name == base for g in state.generators)
        ]
        if not hits:
            raise SpecFormatError(f"unknown letter {name!r}")
        if len(hits) > 1:
            raise SpecFormatError(
                f"letter {base!r} is ambiguous across factors "
                f"{[l.factor for l in hits]}"
            )
        return hits[0].star() if starred else hits[0]

    def parse_letters(self, text: str) -> tuple[Letter, ...]:
        tokens = text.split()
        if not tokens:
            raise SpecFormatError("empty word")
        return tuple(self.resolve_letter(tok) for tok in tokens)

    def __repr__(self) -> str:
        return (
            f"ProductSpace({sorted(self.factors)}, N={self.degree_bound})"
        )


def product_space_from_json(obj: object) -> ProductSpace:
    """Load the JSON product spec.

    Schema::

        {"degree_bound": N, "factors": [<factor spec>, ...]}

    Factor degree bounds must all equal the product bound, and generator
    names must be unique across factors so command-line words resolve.
    """
    if not isinstance(obj, dict):
        raise SpecFormatError("product spec must be a JSON object")
    try:
        degree_bound = obj["degree_bound"]
        factors_raw = obj["factors"]
    except KeyError as exc:
        raise SpecFormatError(f"product spec missing key {exc.args[0]!r}") from exc
    check_degree_bound(degree_bound)
    if not isinstance(factors_raw, list) or not factors_raw:
        raise SpecFormatError("'factors' must be a non-empty list")
    factors = [factor_state_from_json(f) for f in factors_raw]
    for f in factors:
        if f.degree_bound != degree_bound:
            raise SpecFormatError(
                f"factor {f.factor!r} has degree bound {f.degree_bound}, "
                f"product declares {degree_bound}"
            )
    names: dict[str, str] = {}
    for f in factors:
        for g in f.generators:
            if g.name in names:
                raise SpecFormatError(
                    f"generator {g.name!r} appears in factors "
                    f"{names[g.name]!r} and {f.factor!r}"
                )
            names[g.name] = f.factor
    try:
        return ProductSpace(factors)
    except (ValidationError, DimensionMismatchError) as exc:
        raise SpecFormatError(str(exc)) from exc
