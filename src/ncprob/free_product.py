"""The free product of factor spaces, built cumulant-first.

The algebra is spanned by the unit and the alternating products of centered
factor monomials w° = w - phi_i(w) 1 (Nica & Speicher, Lecture 6), each a
tuple of (factor, word) slots, so every element is in normal form.
Multiplication concatenates and, where the boundary slots share a factor,
merges them by v° w° = (vw)° - phi(w) v° - phi(v) w° + (phi(vw) - phi(v)
phi(w)) 1, recursing on the scalar term.

The state phi(a_1..a_n) is the sum over sigma in NC(n) of the blockwise
product of base cumulants: a factor's own on a pure block, 0 on a block that
straddles two factors.  Cumulants of elements are oracles in the tests.

An atom is a letter of the space, which is its own atom, or a (factor,
word) slot, which stands for w°; both hash in C.  Mixed cumulants vanish, so
the state is the first-block kernel (``cumulant_calculus.first_block_moment``)
on the atoms, over blocks inside the first atom's factor, with ``_phi_memo``
as its memo.  The memo holds checked tuples only, and a caller's tuple is
read from it before it is checked, so a repeated tuple is one dict lookup;
a slot is checked once, by reading its moment, and then kept in ``_slots``.
A pure cumulant of letters is the first-block kernel
(``cumulant_calculus.first_block_cumulant``) on them with the factor's phi
and ``_kappa_base_memo`` as its memo.  With a slot among them: kappa_1(w°)
= phi(w°) = 0, and kappa_n, n >= 2, is 0 when an argument is the unit
(Lecture 11), so kappa_n(w_1°, ..., w_n°) = kappa_n(w_1, ..., w_n), the same
kernel on the words, with the factor's phi of their concatenated letters and
``_word_kappa_memo``, keyed by those tuples of letter tuples, as its memo.
Everything is exact; the memos are plain per-instance dicts.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .cumulant_calculus import first_block_cumulant, first_block_moment
from .errors import (
    DimensionMismatchError,
    FactorMismatchError,
    SpecFormatError,
    ValidationError,
)
from .moment_space import (
    FactorState,
    Letter,
    Word,
    check_degree_bound,
    factor_state_from_json,
    star_word,
    word_sort_key,
    word_text,
)
from .scalar import ONE, ZERO, ComplexRational

Atom = Letter | tuple[str, Word]  # a letter, or a (factor, word) slot for w°
Slots = tuple[tuple[str, Word], ...]  # a centered tensor word's (factor, word) slots


def _factor_of(atom: Atom) -> str:
    return atom.factor if atom.__class__ is Letter else atom[0]


def slots_sort_key(slots: Slots) -> tuple:
    """Degree, number of slots, then each slot's factor and word: the order
    of the positivity basis and of ``FreeElement.items``."""
    degree = sum(len(w) for _, w in slots)
    return degree, len(slots), tuple((f, word_sort_key(w)) for f, w in slots)


def star_slots(slots: Slots) -> Slots:
    """The slots of the starred word: (v° w°)* = (w*)° (v*)°."""
    return tuple((f, star_word(w)) for f, w in reversed(slots))


def slots_text(slots: Slots) -> str:
    """The centered product as ``(a)° (u u*)°``."""
    return " ".join(f"({word_text(w)})°" for _, w in slots)


def _check_slots(slots: Slots) -> None:
    if not slots:
        raise ValidationError("tensor word must have at least one slot")
    previous = None
    for factor, word in slots:
        if factor == previous:
            raise ValidationError(f"adjacent slots share factor {factor!r}")
        if not word:
            raise ValidationError("the unit word is no tensor word slot")
        previous = factor


class FreeElement:
    """scalar * 1  plus  a combination of centered tensor words, by their slots."""

    __slots__ = ("scalar", "words")

    def __init__(
        self,
        scalar: ComplexRational = ZERO,
        words: Mapping[Slots, ComplexRational] | None = None,
    ):
        self.scalar = scalar if scalar.__class__ is ComplexRational else ComplexRational.of(scalar)
        cleaned: dict[Slots, ComplexRational] = {}
        for slots, coeff in (words or {}).items():
            _check_slots(slots)
            value = coeff if coeff.__class__ is ComplexRational else ComplexRational.of(coeff)
            if value:
                cleaned[slots] = value
        self.words = cleaned

    def items(self) -> list[tuple[Slots, ComplexRational]]:
        return sorted(self.words.items(), key=lambda kv: slots_sort_key(kv[0]))

    def terms(self) -> list[tuple[ComplexRational, Slots]]:
        """(coefficient, slots) of each term; the unit's slots are ()."""
        unit = [(self.scalar, ())] if self.scalar else []
        return unit + [(c, slots) for slots, c in self.words.items()]

    def __add__(self, other: "FreeElement") -> "FreeElement":
        if not isinstance(other, FreeElement):
            return NotImplemented
        merged = dict(self.words)
        for slots, coeff in other.words.items():
            merged[slots] = merged.get(slots, ZERO) + coeff
        return FreeElement(self.scalar + other.scalar, merged)

    def scale(self, c: ComplexRational) -> "FreeElement":
        c = ComplexRational.of(c)
        return FreeElement(self.scalar * c, {w: x * c for w, x in self.words.items()})

    def star(self) -> "FreeElement":
        return FreeElement(
            self.scalar.conjugate(),
            {star_slots(slots): c.conjugate() for slots, c in self.words.items()},
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
        for slots, coeff in self.items():
            parts.append(f"({coeff}) {slots_text(slots)}")
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
        self._letters = frozenset(l for f in factors for l in f.letters())
        self._kappa_base_memo: dict[tuple[Atom, ...], ComplexRational] = {}
        self._word_kappa_memo: dict[tuple[Word, ...], ComplexRational] = {}
        self._phi_memo: dict[tuple[Atom, ...], tuple[ComplexRational, bool]] = {}
        self._slots: set[tuple[str, Word]] = set()  # the slots _is_slot has checked

    # -- elements ---------------------------------------------------------

    def factor_state(self, index: str) -> FactorState:
        try:
            return self.factors[index]
        except KeyError:
            raise FactorMismatchError(f"unknown factor {index!r}") from None

    def embed(self, index: str, terms: Mapping[Word, ComplexRational]) -> FreeElement:
        """p = sum_w c_w w, given as its {word: c_w} terms, as phi_i(p) * 1
        plus c_w (w)° for each non-unit word w, since w = w° + phi_i(w) 1."""
        state = self.factor_state(index)
        value = ZERO
        for w, c in terms.items():  # exact, so the order is free
            value = value + state.phi_word(w) * c
        return FreeElement(value, {((index, w),): c for w, c in terms.items() if w})

    def multiply(self, x: FreeElement, y: FreeElement) -> FreeElement:
        """Bilinear extension of concatenation-and-merge on the slot tuples,
        summed into one {slots: coefficient} dict, the unit under ()."""
        words: dict[Slots, ComplexRational] = {}
        for cx, left in x.terms():
            for cy, right in y.terms():
                self._multiply_slots(left, right, cx * cy, words)
        return FreeElement(words.pop((), ZERO), words)

    def _multiply_slots(
        self, left: Slots, right: Slots, coeff: ComplexRational, words: dict
    ) -> None:
        if not left or not right or left[-1][0] != right[0][0]:
            slots = left + right
            words[slots] = words.get(slots, ZERO) + coeff
            return
        # v° w° = (vw)° - phi(w) v° - phi(v) w° + (phi(vw) - phi(v) phi(w)) 1
        (factor, v), (_, w) = left[-1], right[0]
        state = self.factor_state(factor)
        mv, mw = state.phi_word(v), state.phi_word(w)
        value = state.phi_word(v + w) - mv * mw  # raises past the degree bound
        head, tail = left[:-1], right[1:]
        for word, c in ((v + w, ONE), (v, -mw), (w, -mv)):  # v = w adds up
            slots = head + ((factor, word),) + tail
            words[slots] = words.get(slots, ZERO) + coeff * c
        if value:
            self._multiply_slots(head, tail, coeff * value, words)

    # -- cumulant functions -----------------------------------------------

    def _kappa_base_atoms(self, atoms: tuple[Atom, ...]) -> ComplexRational:
        value = self._kappa_base_memo.get(atoms)
        if value is not None:
            return value
        present = {_factor_of(a) for a in atoms}
        state = self.factor_state(present.pop()) if len(present) == 1 else None
        if state is None:
            value = ZERO  # mixed cumulants vanish
        elif all(a.__class__ is Letter for a in atoms):  # the kernel fills this memo
            return first_block_cumulant(atoms, state.phi_word, self._kappa_base_memo)
        elif len(atoms) == 1:
            value = ZERO  # kappa_1(w°) = phi(w°) = 0
        else:
            # kappa_n, n >= 2, is 0 when an argument is the unit, so the means
            # drop out; a letter reads as its one-letter word
            value = first_block_cumulant(
                tuple((a,) if a.__class__ is Letter else a[1] for a in atoms),
                lambda sub: state.phi_word(sum(sub, ())),
                self._word_kappa_memo,
            )
        self._kappa_base_memo[atoms] = value
        return value

    # -- the state ---------------------------------------------------------

    def _phi_atoms(self, atoms: tuple[Atom, ...]) -> ComplexRational:
        if (hit := self._phi_memo.get(atoms)) is not None:  # a hit skips the kernel's setup
            return hit[0]
        if not atoms:
            return ONE
        return first_block_moment(
            atoms, self._kappa_base_atoms, self._phi_memo, colour=_factor_of
        )

    def state_eval(
        self,
        x: FreeElement | Sequence[Atom],
    ) -> ComplexRational:
        """The constructed state phi, memoized per sub-tuple of atoms.

        For a flat product of pure arguments (letters, or (factor, word)
        slots, each standing for w°) this is the sum over NC(n) of blockwise
        base cumulants, by the first-block recursion on their atoms; for a
        FreeElement, the scalar part plus that sum on each tensor word's
        slots.  The caller's own tuple is looked up in the memo first, which
        holds checked tuples only; anything else, an unhashable argument
        included, is checked before the kernel is entered.
        """
        try:
            if (hit := self._phi_memo.get(x)) is not None:  # a tuple of atoms hashes in C
                return hit[0]
        except TypeError:  # unhashable: a FreeElement, or refused below
            pass
        if isinstance(x, FreeElement):
            total = ZERO
            for coeff, slots in x.terms():
                total = total + coeff * self._phi_atoms(self._as_atoms(slots))
            return total
        return self._phi_atoms(self._as_atoms(x))

    def _as_atoms(self, args: Iterable) -> tuple[Atom, ...]:
        atoms = []
        for arg in args:
            if isinstance(arg, Letter):
                if arg not in self._letters:
                    self.factor_state(arg.factor)
                    raise ValidationError(f"no generator {arg.name!r} in factor {arg.factor!r}")
                atoms.append(arg)
            elif self._is_slot(arg):
                atoms.append(arg)
            else:
                raise ValidationError(f"cannot interpret {arg!r} as a pure product argument")
        atoms = tuple(atoms)
        return args if atoms == args else atoms  # an equal caller's tuple keys the memo itself

    def _is_slot(self, arg: object) -> bool:
        # A (factor, word) slot, checked at its first call by reading its
        # moment, as the kernel reads none of a lone slot: an unknown factor,
        # a letter of another factor and a word past the bound are refused.
        try:
            if arg in self._slots:  # a slot hashes in C
                return True
        except TypeError:  # unhashable, so no slot
            return False
        if not (
            isinstance(arg, tuple) and len(arg) == 2 and isinstance(arg[1], tuple)
            and arg[1] and all(l.__class__ is Letter for l in arg[1])
        ):
            return False
        self.factor_state(arg[0]).phi_word(arg[1])
        self._slots.add(arg)
        return True

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
