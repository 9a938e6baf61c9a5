"""Factor *-probability spaces presented by generators and truncated moments.

A factor is a set of generator symbols plus a moment functional phi given on
every word of degree <= N (the factor's degree bound).  Star structure is
normalized at construction: starred selfadjoint letters are rewritten
unstarred, each {w, w*} orbit is checked under one canonical key, and the
table holds phi(w*) = conj(phi(w)) beside phi(w).  States are immutable
after validation.

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
from .scalar import ONE, ZERO, ComplexRational, RationalLike, _coerce
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

    def __hash__(self) -> int:
        return hash((self.name, self.selfadjoint))


class Letter(Value):
    """A generator or its star, tagged with its factor index."""

    __slots__ = ("generator", "starred", "factor")

    def __init__(self, generator: GeneratorSymbol, starred: bool, factor: str):
        if generator.selfadjoint and starred:
            starred = False
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "starred", starred)
        object.__setattr__(self, "factor", factor)

    def __eq__(self, other):
        if other.__class__ is Letter:
            return (self.generator, self.starred, self.factor) == (
                other.generator, other.starred, other.factor)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.generator, self.starred, self.factor))

    def star(self) -> "Letter":
        return Letter(self.generator, not self.starred, self.factor)

    @property
    def name(self) -> str:
        return self.generator.name

    def text(self) -> str:
        return self.name + ("*" if self.starred else "")

    def sort_key(self) -> tuple:
        return (self.factor, self.name, self.starred)


class Word(Value):
    """A monomial in letters; the empty word is the identity."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[Letter, ...] = ()):
        object.__setattr__(self, "letters", letters)

    def __eq__(self, other):
        if other.__class__ is Word:
            return self.letters == other.letters
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.letters,))

    @property
    def degree(self) -> int:
        return len(self.letters)

    def star(self) -> "Word":
        return Word(tuple(l.star() for l in reversed(self.letters)))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def text(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(l.text() for l in self.letters)

    def sort_key(self) -> tuple:
        return (len(self.letters), tuple(l.sort_key() for l in self.letters))

    def __repr__(self) -> str:
        return f"Word({self.text()})"


EMPTY_WORD = Word()


class Polynomial:
    """A finite linear combination of words with exact scalar coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Word, ComplexRational | RationalLike] | None = None):
        cleaned: dict[Word, ComplexRational] = {}
        for word, coeff in (terms or {}).items():
            value = ComplexRational.of(coeff)
            if value:
                cleaned[word] = value
        self._terms = cleaned
        self._hash: int | None = None

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({EMPTY_WORD: ONE})

    @classmethod
    def monomial(cls, word: Word, coeff: ComplexRational | RationalLike = 1) -> "Polynomial":
        return cls({word: ComplexRational.of(coeff)})

    @classmethod
    def from_letter(cls, letter: Letter) -> "Polynomial":
        return cls.monomial(Word((letter,)))

    def items(self) -> Iterator[tuple[Word, ComplexRational]]:
        """Terms in deterministic (degree, letters) order."""
        return iter(sorted(self._terms.items(), key=lambda kv: kv[0].sort_key()))

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int:
        return max((w.degree for w in self._terms), default=0)

    def star(self) -> "Polynomial":
        return Polynomial({w.star(): c.conjugate() for w, c in self._terms.items()})

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        merged = dict(self._terms)
        for word, coeff in other._terms.items():
            merged[word] = merged.get(word, ZERO) + coeff
        return Polynomial(merged)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial({w: -c for w, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out: dict[Word, ComplexRational] = {}
            for wa, ca in self._terms.items():
                for wb, cb in other._terms.items():
                    word = wa * wb
                    out[word] = out.get(word, ZERO) + ca * cb
            return Polynomial(out)
        scalar = _coerce(other)
        if scalar is None:
            return NotImplemented
        return Polynomial({w: c * scalar for w, c in self._terms.items()})

    def __rmul__(self, other):
        scalar = _coerce(other)
        if scalar is None:
            return NotImplemented
        return self * scalar

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def text(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for word, coeff in self.items():
            parts.append(f"({coeff}) {word.text()}" if word.letters else f"({coeff}) 1")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.text()})"


def canonical_moment_key(word: Word) -> tuple[Word, bool]:
    """The stored representative of {w, w*} and whether it is the star of w."""
    starred = word.star()
    if starred.sort_key() < word.sort_key():
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
    table: dict[Word, ComplexRational] = {EMPTY_WORD: ONE}
    for word, value in entries.items():
        key, conjugated = canonical_moment_key(word)
        stored = value.conjugate() if conjugated else value
        if key in table and table[key] != stored:
            raise ValidationError(
                f"{context}: conflicting moments for {key.text()!r} "
                f"({table[key]} vs {stored})"
            )
        if key == key.star() and not stored.is_real():
            raise ValidationError(
                f"{context}: phi({key.text()}) must be real, got {stored}"
            )
        table[key] = stored
    if table[EMPTY_WORD] != ONE:
        raise ValidationError(f"{context}: phi(1) must be 1")
    for key, value in list(table.items()):
        table[key.star()] = value.conjugate()
    for word in all_words(letters, degree_bound):
        if word not in table:
            raise ValidationError(
                f"{context}: missing moment for word {word.text()!r} "
                f"(degree bound {degree_bound})"
            )
    return table


def generator_letters(
    factor: str, generators: Sequence[GeneratorSymbol]
) -> tuple[Letter, ...]:
    """Each generator's letter, followed by its star unless it is selfadjoint."""
    out = []
    for g in generators:
        out.append(Letter(g, False, factor))
        if not g.selfadjoint:
            out.append(Letter(g, True, factor))
    return tuple(out)


def all_words(letters: Sequence[Letter], max_degree: int) -> Iterator[Word]:
    """Every word of degree 0..max_degree over ``letters``, shortest first."""
    ordered = sorted(set(letters), key=Letter.sort_key)
    stack: list[tuple[Letter, ...]] = [()]
    yield EMPTY_WORD
    for _ in range(max_degree):
        stack = [prefix + (l,) for prefix in stack for l in ordered]
        for tup in stack:
            yield Word(tup)


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
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate generator names in factor {factor!r}")
        if not generators:
            raise ValidationError(f"factor {factor!r} has no generators")
        self.factor = factor
        self.degree_bound = degree_bound
        self.generators = tuple(generators)
        entries = {}
        for word, value in moments.items():
            self._check_word(word)
            entries[word] = ComplexRational.of(value)
        self._moments = normalize_moments(
            entries, self.letters(), degree_bound, f"factor {factor!r}"
        )

    def letters(self) -> tuple[Letter, ...]:
        return generator_letters(self.factor, self.generators)

    def letter(self, name: str) -> Letter:
        for g in self.generators:
            if g.name == name:
                return Letter(g, False, self.factor)
        raise ValidationError(f"no generator {name!r} in factor {self.factor!r}")

    def _check_word(self, word: Word) -> None:
        for l in word.letters:
            if l.factor != self.factor:
                raise FactorMismatchError(
                    f"letter {l.text()!r} belongs to factor {l.factor!r}, "
                    f"not {self.factor!r}"
                )
        if word.degree > self.degree_bound:
            raise TruncationError(
                f"word {word.text()!r} exceeds degree bound {self.degree_bound} "
                f"of factor {self.factor!r}",
                word=word.text(),
            )

    def phi_word(self, word: Word) -> ComplexRational:
        self._check_word(word)
        try:
            return self._moments[word]
        except KeyError:
            raise ValidationError(
                f"word {word.text()!r} is not over factor {self.factor!r}"
            ) from None

    def phi_poly(self, p: Polynomial) -> ComplexRational:
        total = ZERO
        for word, coeff in p._terms.items():  # exact, so the order is free
            total = total + coeff * self.phi_word(word)
        return total

    def eval_phi_n(self, args: Sequence[Polynomial]) -> ComplexRational:
        """phi(a_1 a_2 ... a_n): multiply the polynomials, sum coeff * moment."""
        product = Polynomial.one()
        for p in args:
            product = product * p
        return self.phi_poly(product)

    def __repr__(self) -> str:
        return (
            f"FactorState({self.factor!r}, N={self.degree_bound}, "
            f"generators={[g.name for g in self.generators]})"
        )


def parse_word(text: str, letters_by_name: Mapping[str, Letter]) -> Word:
    """Parse a space-separated word; a trailing ``*`` marks a starred letter."""
    tokens = text.split()
    if tokens == ["1"]:
        return EMPTY_WORD
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
    return Word(tuple(out))


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


def parse_factor_spec(
    obj: object, table_key: str
) -> tuple[str, int, list[GeneratorSymbol], dict[Word, ComplexRational]]:
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
    letters_by_name = {}
    for g in generators:
        letters_by_name[g.name] = Letter(g, False, factor)
    if not isinstance(table_raw, dict):
        raise SpecFormatError(f"{table_key!r} must be an object of word -> scalar")
    table: dict[Word, ComplexRational] = {}
    for word_text, scalar_text in table_raw.items():
        word = parse_word(word_text, letters_by_name)
        if not isinstance(scalar_text, str):
            raise SpecFormatError(
                f"{table_key} entry of {word_text!r} must be a scalar string"
            )
        value = ComplexRational.parse(scalar_text)
        if word in table and table[word] != value:
            raise SpecFormatError(
                f"conflicting entries for word {word.text()!r} "
                f"(keys normalize via selfadjoint flags)"
            )
        table[word] = value
    return factor, degree_bound, generators, table


def check_degree_bound(value: object) -> None:
    """A JSON degree bound must be a positive integer; JSON true is not 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SpecFormatError("'degree_bound' must be a positive integer")
