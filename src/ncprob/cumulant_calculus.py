"""Moment <-> free-cumulant conversion on a single factor, and free additive
convolution of scalar moment sequences.

The two directions are implemented independently and never derived from one
another, so round-trip tests are meaningful:

* cumulants from moments:  kappa_n(a_1..a_n) = sum over sigma in NC(n) of
  phi_sigma[a_1..a_n] * mu(sigma, 1_n);
* moments from cumulants:  phi(a_1..a_n) = sum over sigma in NC(n) of
  kappa_sigma[a_1..a_n],

with kappa_sigma / phi_sigma the multiplicative (blockwise, order-preserving)
extensions.  Both are instances of ``lattice_sum``, which is bounded by the
enumeration cap ``nc_lattice.MAX_ENUM_N``.  Everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .errors import (
    DimensionMismatchError,
    TruncationError,
    ValidationError,
)
from .moment_space import (
    FactorState,
    Letter,
    Word,
    generator_letters,
    parse_factor_spec,
)
from .nc_lattice import Partition, enumerate_nc, leq, moebius, moebius_to_top
from .scalar import ONE, ZERO, ComplexRational


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


def kappa_words(state: FactorState, words: Sequence[Word]) -> ComplexRational:
    """Joint free cumulant of a tuple of factor words, by Moebius inversion.

    Words may be empty (the identity); the total degree of every block
    evaluation must stay within the state's bound.
    """
    return lattice_sum(
        len(words),
        lambda block: state.phi_word(
            Word(tuple(l for i in block for l in words[i - 1].letters))
        ),
        weighted=True,
    )


def kappa_n(state: FactorState, letters: Sequence[Letter]) -> ComplexRational:
    """kappa_n(a_1, ..., a_n) for single-letter arguments."""
    return kappa_words(state, [Word((l,)) for l in letters])


def kappa_pi(
    state: FactorState, pi: Partition, letters: Sequence[Letter]
) -> ComplexRational:
    """Multiplicative extension: product of kappa over pi's blocks."""
    if len(letters) != pi.n:
        raise DimensionMismatchError(
            f"partition of {pi.n} elements applied to {len(letters)} letters"
        )
    total = ONE
    for block in pi.blocks:
        total = total * kappa_n(state, [letters[i - 1] for i in block])
    return total


def kappa_pi_via_moebius(
    state: FactorState, pi: Partition, letters: Sequence[Letter]
) -> ComplexRational:
    """The same kappa_pi as a Moebius sum over [0_n, pi].

    Implemented separately from the block-product form; the two are asserted
    equal in the test suite.
    """
    if len(letters) != pi.n:
        raise DimensionMismatchError(
            f"partition of {pi.n} elements applied to {len(letters)} letters"
        )
    total = ZERO
    for sigma in enumerate_nc(pi.n):
        if not leq(sigma, pi):
            continue
        total = total + state.eval_phi_pi(sigma, letters) * moebius(sigma, pi)
    return total


class CumulantTable:
    """kappa values of one factor, keyed by letter tuples of length <= N.

    Either backed by a FactorState (values computed lazily via Moebius
    inversion and memoized) or given explicitly.
    """

    def __init__(
        self,
        factor: str,
        degree_bound: int,
        *,
        state: FactorState | None = None,
        values: Mapping[tuple[Letter, ...], ComplexRational] | None = None,
    ):
        if (state is None) == (values is None):
            raise ValidationError("provide exactly one of state= or values=")
        self.factor = factor
        self.degree_bound = degree_bound
        self._state = state
        self._values: dict[tuple[Letter, ...], ComplexRational] = dict(values or {})

    @classmethod
    def from_state(cls, state: FactorState) -> "CumulantTable":
        return cls(state.factor, state.degree_bound, state=state)

    @classmethod
    def from_values(
        cls,
        factor: str,
        degree_bound: int,
        values: Mapping[tuple[Letter, ...], ComplexRational],
    ) -> "CumulantTable":
        return cls(factor, degree_bound, values=values)

    def value(self, letters: tuple[Letter, ...]) -> ComplexRational:
        if not letters or len(letters) > self.degree_bound:
            raise TruncationError(
                f"cumulant order {len(letters)} outside 1..{self.degree_bound}"
            )
        value = self._values.get(letters)
        if value is None:
            if self._state is None:
                raise ValidationError(
                    f"no cumulant value for letters {' '.join(l.text() for l in letters)!r}"
                )
            value = self._values[letters] = kappa_n(self._state, letters)
        return value


def cumulant_table_from_json(
    obj: object,
) -> tuple[CumulantTable, tuple[Letter, ...]]:
    """Load a factor's cumulant table and its letters.

    The schema is the factor spec of ``factor_state_from_json`` with a
    ``"cumulants"`` object of word -> scalar in place of ``"moments"``.
    """
    factor, degree_bound, generators, values = parse_factor_spec(obj, "cumulants")
    table = CumulantTable.from_values(
        factor, degree_bound, {word.letters: v for word, v in values.items()}
    )
    return table, generator_letters(factor, generators)


def moments_from_cumulants(
    table: CumulantTable, letters: Sequence[Letter]
) -> ComplexRational:
    """phi(a_1...a_n) = sum over sigma in NC(n) of the blockwise kappa product."""
    return lattice_sum(
        len(letters),
        lambda block: table.value(tuple(letters[i - 1] for i in block)),
        weighted=False,
    )


@dataclass(frozen=True)
class MomentSequence:
    """Moments m_1..m_N of a single selfadjoint variable."""

    degree_bound: int
    values: tuple[ComplexRational, ...]

    def __post_init__(self):
        if not self.values:
            raise ValidationError("need at least one moment, got none")
        if len(self.values) != self.degree_bound:
            raise ValidationError(
                f"need exactly {self.degree_bound} moments, got {len(self.values)}"
            )

    @classmethod
    def of(cls, values: Sequence[ComplexRational | int]) -> "MomentSequence":
        vals = tuple(ComplexRational.of(v) for v in values)
        return cls(len(vals), vals)

    def m(self, k: int) -> ComplexRational:
        if k == 0:
            return ONE
        if not 1 <= k <= self.degree_bound:
            raise TruncationError(f"moment m_{k} outside bound {self.degree_bound}")
        return self.values[k - 1]


def cumulants_from_moment_sequence(seq: MomentSequence) -> tuple[ComplexRational, ...]:
    """(kappa_1, ..., kappa_N) of a single variable, via Moebius inversion."""
    return tuple(
        lattice_sum(n, lambda block: seq.m(len(block)), weighted=True)
        for n in range(1, seq.degree_bound + 1)
    )


def moment_sequence_from_cumulants(
    cumulants: Sequence[ComplexRational],
) -> MomentSequence:
    """Rebuild m_1..m_N from (kappa_1, ..., kappa_N) by the lattice sum."""
    kappas = [ComplexRational.of(c) for c in cumulants]
    return MomentSequence.of([
        lattice_sum(n, lambda block: kappas[len(block) - 1], weighted=False)
        for n in range(1, len(kappas) + 1)
    ])


def free_convolve_additive(x: MomentSequence, y: MomentSequence) -> MomentSequence:
    """Moments of the free sum: cumulants add, then invert back to moments."""
    if x.degree_bound != y.degree_bound:
        raise DimensionMismatchError(
            f"degree bounds differ: {x.degree_bound} vs {y.degree_bound}"
        )
    for seq in (x, y):
        bad = [v for v in seq.values if not v.is_real()]
        if bad:
            raise ValidationError(
                f"free convolution needs real moments, got {bad[0]}"
            )
    kx = cumulants_from_moment_sequence(x)
    ky = cumulants_from_moment_sequence(y)
    return moment_sequence_from_cumulants([a + b for a, b in zip(kx, ky)])
