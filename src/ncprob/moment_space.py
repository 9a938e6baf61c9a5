"""Factor *-probability spaces presented by generators and truncated moments.

A factor is a set of generator symbols plus a moment functional phi given on
every word of degree <= N (the factor's degree bound).  Each letter, a
generator or its star in one factor, is one object, compared and hashed by
identity, and ``generator_letters`` is the one place a generator list
becomes letters.  A word is a plain tuple of letters, () the unit, so it
hashes in C and keys every moment and cumulant table as it is;
``star_word``, ``word_text`` and ``word_sort_key`` give its star, its text
and its order.  Star structure is normalized at construction: starred
selfadjoint letters are rewritten unstarred, a conflict between phi(w) and
phi(w*) is reported under one canonical key of {w, w*}, and the table holds
phi(w*) = conj(phi(w)) beside phi(w).  States are immutable after
validation.  A factor spec's given free cumulants load as a plain dict of
word -> kappa, checked to hold every tuple of order 1..N and no
other, for the first-block moment kernel of ``cumulant_calculus`` to read.

Positivity of a factor state is NOT assumed here; ``verification`` checks it.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from .errors import (
    FactorMismatchError,
    SpecFormatError,
    TruncationError,
    ValidationError,
)
from .scalar import ONE, ComplexRational, RationalLike
from .value import Value


class GeneratorSymbol(Value):
    __slots__ = ("name", "selfadjoint")

    def __init__(self, name: str, selfadjoint: bool = False):
        if not name or any(c in name for c in "* \t\n{},"):
            raise ValidationError(f"bad generator name {name!r}")
        if name == "1":
            raise ValidationError("bad generator name '1': 1 denotes the identity")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "selfadjoint", selfadjoint)


class _Cached(Value):
    """A value type that caches its star partner.  The cache is this class's
    slot, so a subclass's ``__slots__`` lists its fields alone, as ``repr``
    reads them."""

    __slots__ = ("_star",)

    def star(self):
        partner = getattr(self, "_star", None)  # unset until the first call
        if partner is None:
            partner = self._build_star()
            object.__setattr__(self, "_star", partner)
            object.__setattr__(partner, "_star", self)
        return partner


class Letter(_Cached):
    """A generator or its star, tagged with its factor index.  There is one
    object per (generator, starred unless selfadjoint, factor), made at the
    first call, so letters compare and hash by identity."""

    __slots__ = ("generator", "starred", "factor")
    _made: dict[tuple, "Letter"] = {}

    def __new__(cls, generator: GeneratorSymbol, starred: bool, factor: str):
        key = (generator, starred and not generator.selfadjoint, factor)
        letter = cls._made.get(key)
        if letter is None:
            letter = cls._made[key] = object.__new__(cls)
            for name, value in zip(cls.__slots__, key):
                object.__setattr__(letter, name, value)
        return letter

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def _build_star(self) -> "Letter":
        if self.generator.selfadjoint:
            return self
        return Letter(self.generator, not self.starred, self.factor)

    @property
    def name(self) -> str:
        return self.generator.name

    def text(self) -> str:
        return self.name + ("*" if self.starred else "")

    def sort_key(self) -> tuple:
        return (self.factor, self.name, self.starred)


# A monomial is a tuple of letters; the empty tuple is the identity.
Word = tuple[Letter, ...]


def star_word(word: Word) -> Word:
    return tuple(l.star() for l in reversed(word))


def word_text(word: Word) -> str:
    return " ".join(l.text() for l in word) if word else "1"


def word_sort_key(word: Word) -> tuple:
    return (len(word), tuple(l.sort_key() for l in word))


def canonical_moment_key(word: Word) -> tuple[Word, bool]:
    """The stored representative of {w, w*} and whether it is the star of w."""
    starred = star_word(word)
    if word_sort_key(starred) < word_sort_key(word):
        return starred, True
    return word, False


def normalize_moments(
    entries: Mapping[Word, ComplexRational],
    letters: Sequence[Letter],
    degree_bound: int,
    context: str,
) -> dict[Word, ComplexRational]:
    """Build a moment table and check the FactorState invariants.

    Rejects conflicts between w and w*, forces phi(1) = 1, requires phi(w)
    real when w* = w, and requires totality: every word of degree <=
    degree_bound over ``letters`` must be covered.  The table holds both w
    and w* (with phi(w*) = conj(phi(w))), so a moment is one lookup.
    """
    if entries.get((), ONE) != ONE:
        raise ValidationError(f"{context}: phi(1) must be 1")
    table: dict[Word, ComplexRational] = {(): ONE}
    for word, value in entries.items():
        if table.get(word, value) != value:
            key, conjugated = canonical_moment_key(word)
            stored = value.conjugate() if conjugated else value
            raise ValidationError(
                f"{context}: conflicting moments for {word_text(key)!r} "
                f"({table[key]} vs {stored})"
            )
        table[word] = value
        table[star_word(word)] = value.conjugate()
        if table[word] is not value and not value.is_real():  # phi(w*) replaced phi(w)
            raise ValidationError(
                f"{context}: phi({word_text(word)}) must be real, got {value}"
            )
    for word in all_words(letters, degree_bound):
        if word not in table:
            raise ValidationError(
                f"{context}: missing moment for word {word_text(word)!r} "
                f"(degree bound {degree_bound})"
            )
    return table


def generator_letters(
    factor: str, generators: tuple[GeneratorSymbol, ...]
) -> tuple[Letter, ...]:
    """Each generator's letter, followed by its star unless it is selfadjoint.
    The one place a generator list becomes letters, so every loader refuses
    an empty list and a duplicated name here."""
    names = [g.name for g in generators]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate generator names in factor {factor!r}")
    if not generators:
        raise ValidationError(f"factor {factor!r} has no generators")
    out = []
    for g in generators:
        out.append(letter := Letter(g, False, factor))
        if not g.selfadjoint:
            out.append(letter.star())
    return tuple(out)


def all_words(letters: Sequence[Letter], max_degree: int) -> Iterator[Word]:
    """Every word of degree 0..max_degree over ``letters``, shortest first."""
    ordered = sorted(set(letters), key=Letter.sort_key)
    stack: list[tuple[Letter, ...]] = [()]
    yield ()
    for _ in range(max_degree):
        stack = [prefix + (l,) for prefix in stack for l in ordered]
        yield from stack


class FactorState:
    """A truncated moment functional phi on one factor's words."""

    def __init__(
        self,
        factor: str,
        degree_bound: int,
        generators: Sequence[GeneratorSymbol],
        moments: Mapping[Word, ComplexRational | RationalLike],
    ):
        if degree_bound < 1:
            raise ValidationError(f"degree bound must be >= 1, got {degree_bound}")
        self.factor = factor
        self.degree_bound = degree_bound
        self.generators = tuple(generators)
        self._letters = generator_letters(factor, self.generators)
        entries = {}
        for word, value in moments.items():
            self._check_word(word)
            entries[word] = (
                value if value.__class__ is ComplexRational else ComplexRational.of(value)
            )
        self._moments = normalize_moments(
            entries, self._letters, degree_bound, f"factor {factor!r}"
        )

    def letters(self) -> tuple[Letter, ...]:
        return self._letters

    def letter(self, name: str) -> Letter:
        for l in self._letters:
            if l.name == name:
                return l  # the unstarred letter comes first
        raise ValidationError(f"no generator {name!r} in factor {self.factor!r}")

    def _check_word(self, word: Word) -> None:
        for l in word:
            if l.factor != self.factor:
                raise FactorMismatchError(
                    f"letter {l.text()!r} belongs to factor {l.factor!r}, "
                    f"not {self.factor!r}"
                )
        if len(word) > self.degree_bound:
            raise TruncationError(
                f"word {word_text(word)!r} exceeds degree bound {self.degree_bound} "
                f"of factor {self.factor!r}"
            )

    def phi_word(self, word: Word) -> ComplexRational:
        value = self._moments.get(word)
        if value is None:  # every stored word passed _check_word
            self._check_word(word)
            raise ValidationError(
                f"word {word_text(word)!r} is not over factor {self.factor!r}"
            )
        return value

    def __repr__(self) -> str:
        return (
            f"FactorState({self.factor!r}, N={self.degree_bound}, "
            f"generators={[g.name for g in self.generators]})"
        )


def parse_word(text: str, letters_by_name: Mapping[str, Letter]) -> Word:
    """Parse a space-separated word; a trailing ``*`` marks a starred letter."""
    tokens = text.split()
    if tokens == ["1"]:
        return ()
    out = []
    for token in tokens:
        starred = token.endswith("*")
        name = token[:-1] if starred else token
        base = letters_by_name.get(name)
        if base is None:
            raise SpecFormatError(f"unknown letter {token!r} in word {text!r}")
        out.append(base.star() if starred else base)
    if not out:
        raise SpecFormatError(f"empty word text {text!r}")
    return tuple(out)


def factor_state_from_json(obj: object) -> FactorState:
    """Load the JSON factor spec.

    Schema::

        {"factor": "A1", "degree_bound": 4,
         "generators": [{"name": "a", "selfadjoint": true}],
         "moments": {"a": "0", "a a": "1", ...}}

    Scalars are strings like ``"-3/2"`` or ``"1/2+1/3 i"``; decimals are
    read exactly.  Words are space-separated letter names, ``"a*"`` starred.
    """
    factor, degree_bound, generators, moments = parse_factor_spec(obj, "moments")
    try:
        return FactorState(factor, degree_bound, generators, moments)
    except (ValidationError, FactorMismatchError, TruncationError) as exc:
        raise SpecFormatError(str(exc)) from exc


def cumulant_table_from_json(
    obj: object,
) -> tuple[str, int, tuple[Letter, ...], dict[tuple[Letter, ...], ComplexRational]]:
    """Load a factor's cumulant table: its factor, degree bound, letters, and
    the given kappa values keyed by letter tuple.

    The schema is the factor spec of ``factor_state_from_json`` with a
    ``"cumulants"`` object of word -> scalar in place of ``"moments"``, which
    must hold every word of order 1..N, as the moments must, and no other;
    kappa(w*) must be conj kappa(w).
    """
    factor, degree_bound, generators, values = parse_factor_spec(obj, "cumulants")
    for word in values:
        if not 1 <= len(word) <= degree_bound:
            raise SpecFormatError(
                f"cumulant word {word_text(word)!r} has order {len(word)}, "
                f"outside 1..{degree_bound} of factor {factor!r}"
            )
    for word, value in values.items():  # kappa(w*) = conj kappa(w)
        starred = values.get(star_word(word), value.conjugate())
        if starred != value.conjugate():
            raise SpecFormatError(
                f"factor {factor!r}: kappa({word_text(star_word(word))!r}) = {starred} is not "
                f"the conjugate of kappa({word_text(word)!r}) = {value}"
            )
    letters = generator_letters(factor, generators)
    for word in all_words(letters, degree_bound):
        if word and word not in values:
            raise SpecFormatError(
                f"factor {factor!r}: missing cumulant for word {word_text(word)!r} "
                f"(degree bound {degree_bound})"
            )
    return factor, degree_bound, letters, values


def parse_factor_spec(
    obj: object, table_key: str
) -> tuple[str, int, tuple[GeneratorSymbol, ...], dict[Word, ComplexRational]]:
    """Read the factor, degree bound, generators and word -> scalar table of a
    factor spec whose table sits under ``table_key``."""
    if not isinstance(obj, dict):
        raise SpecFormatError("factor spec must be a JSON object")
    try:
        factor = obj["factor"]
        degree_bound = obj["degree_bound"]
        generators_raw = obj["generators"]
        table_raw = obj[table_key]
    except KeyError as exc:
        raise SpecFormatError(f"factor spec missing key {exc.args[0]!r}") from exc
    if not isinstance(factor, str):
        raise SpecFormatError("'factor' must be a string")
    check_degree_bound(degree_bound)
    if not isinstance(generators_raw, list):
        raise SpecFormatError("'generators' must be a list")
    generators = []
    try:  # a bad name or generator list is a format fault of the spec
        for idx, g in enumerate(generators_raw):
            if not isinstance(g, dict) or "name" not in g:
                raise SpecFormatError(f"generator #{idx} must be {{'name': ..}}")
            if not isinstance(g["name"], str):
                raise SpecFormatError(f"generator #{idx}: 'name' must be a string")
            selfadjoint = g.get("selfadjoint", False)
            if not isinstance(selfadjoint, bool):
                raise SpecFormatError(
                    f"generator #{idx}: 'selfadjoint' must be true or false"
                )
            generators.append(GeneratorSymbol(g["name"], selfadjoint))
        generators = tuple(generators)
        letters = generator_letters(factor, generators)
    except ValidationError as exc:
        raise SpecFormatError(str(exc)) from exc
    letters_by_name = {l.name: l for l in letters if not l.starred}
    if not isinstance(table_raw, dict):
        raise SpecFormatError(f"{table_key!r} must be an object of word -> scalar")
    table: dict[Word, ComplexRational] = {}
    for text, scalar_text in table_raw.items():
        word = parse_word(text, letters_by_name)
        if not isinstance(scalar_text, str):
            raise SpecFormatError(
                f"{table_key} entry of {text!r} must be a scalar string"
            )
        value = ComplexRational.parse(scalar_text)
        if word in table and table[word] != value:
            raise SpecFormatError(
                f"conflicting entries for word {word_text(word)!r} "
                f"(keys normalize via selfadjoint flags)"
            )
        table[word] = value
    return factor, degree_bound, generators, table


def check_degree_bound(value: object) -> None:
    """A JSON degree bound must be a positive integer; JSON true is not 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SpecFormatError("'degree_bound' must be a positive integer")
