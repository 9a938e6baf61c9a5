"""Moment <-> free-cumulant conversion on a single factor, and free additive
convolution of scalar moment sequences.

The conversions expand over the block V that contains the first argument
(Nica & Speicher, Lecture 11):

    phi(a_1..a_n) = sum over V containing 1 of kappa(a_V) * prod phi(gap),

where the gaps are the runs of positions between consecutive elements of V
and after its last one.  ``first_block_moment`` evaluates the right-hand
side, memoized on intervals; ``first_block_cumulant`` solves the identity for
its term V = {1..n}.  A cumulant of n arguments costs at most 3^(n-1) terms,
and a moment at most 2^(n-1) per interval, against Catalan(n) terms for a sum
over NC(n).

The kernel keeps no cumulant memo of its own: it fills the dict its caller
passes, keyed by argument tuples.  A ``CumulantTable`` passes its values, so
every sub-tuple of every letter tuple is computed once per table; one-off
callers pass ``{}``.

``lattice_sum`` is that sum: over sigma in NC(n) of the blockwise product,
weighted by mu(sigma, 1_n) for cumulants (Moebius inversion).  Its one
caller in the library is ``cumulants_from_moment_sequence``; the tests
compare both recursions with it, and keep the other NC(n) sums (the Moebius
form of kappa_pi, the join-constrained sum for products as arguments) as
oracles in ``tests/nc_oracles.py``.  All three are bounded by the
enumeration cap ``nc_lattice.MAX_ENUM_N``.  Everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence, TypeVar

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
from .nc_lattice import (
    Partition,
    check_lattice_size,
    enumerate_nc,
    moebius_to_top,
)
from .scalar import ONE, ZERO, ComplexRational

Arg = TypeVar("Arg", bound=Hashable)


def _check_arity(n: int) -> None:
    if n < 1:
        raise ValidationError("cumulants need at least one argument")
    check_lattice_size(n)


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
    _check_arity(n)
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


def first_block_moment(
    n: int,
    block_value: Callable[[tuple[int, ...]], ComplexRational],
    colours: Sequence[Hashable] | None = None,
) -> ComplexRational:
    """The unweighted ``lattice_sum(n, block_value)``, by the first-block recursion.

    phi on the interval i..j is the sum over blocks V = (i, ...) within it of
    block_value(V) times phi over V's gaps.  With ``colours``, V keeps to the
    positions coloured like i; the caller promises that block_value is zero,
    and raises nothing, on every block of mixed colours.

    A block is evaluated exactly when ``lattice_sum`` would evaluate it: the
    full block comes first, and a term stops at a zero block or at a gap none
    of whose partitions has only nonzero blocks.  So the same blocks raise.
    """
    _check_arity(n)
    memo: dict[tuple[int, int], tuple[ComplexRational, bool]] = {}

    def phi(i: int, j: int) -> tuple[ComplexRational, bool]:
        # (value, whether some partition of i..j has only nonzero blocks)
        if i > j:
            return ONE, True
        hit = memo.get((i, j))
        if hit is not None:
            return hit
        same = [
            p for p in range(i + 1, j + 1)
            if colours is None or colours[p - 1] == colours[i - 1]
        ]
        total, reached = ZERO, False
        for mask in range((1 << len(same)) - 1, -1, -1):
            block = (i,) + tuple(p for k, p in enumerate(same) if mask >> k & 1)
            term = block_value(block)
            if term.is_zero():
                continue
            for left, right in zip(block, block[1:] + (j + 1,)):
                value, gap_reached = phi(left + 1, right - 1)
                if not gap_reached:
                    break
                term = term * value
            else:
                total, reached = total + term, True
        memo[(i, j)] = total, reached
        return total, reached

    return phi(1, n)[0]


def first_block_cumulant(
    args: Sequence[Arg],
    phi: Callable[[tuple[Arg, ...]], ComplexRational],
    kappas: dict[tuple[Arg, ...], ComplexRational],
) -> ComplexRational:
    """The weighted ``lattice_sum`` of phi on sub-tuples, by the first-block recursion.

    kappa(args) = phi(args) - sum over proper V containing the first argument
    of kappa(args_V) * phi over V's gaps.  phi(args) is evaluated first, so
    any error it raises comes first, as in ``lattice_sum``; a term stops at its
    first zero factor.  ``kappas`` is the caller's cumulant memo: it is read
    and filled with the cumulant of every sub-tuple reached, so it must only
    ever hold values for this phi.  phi is memoized for this call alone.
    """
    _check_arity(len(args))
    moments: dict[tuple[Arg, ...], ComplexRational] = {}

    def moment(sub: tuple[Arg, ...]) -> ComplexRational:
        value = moments.get(sub)
        if value is None:
            value = moments[sub] = phi(sub)
        return value

    def kappa(sub: tuple[Arg, ...]) -> ComplexRational:
        value = kappas.get(sub)
        if value is not None:
            return value
        value = moment(sub)
        m = len(sub)
        for mask in range((1 << (m - 1)) - 2, -1, -1):
            block = (0,) + tuple(p for p in range(1, m) if mask >> (p - 1) & 1)
            term = kappa(tuple(sub[p] for p in block))
            for left, right in zip(block, block[1:] + (m,)):
                if term.is_zero():
                    break
                if right > left + 1:
                    term = term * moment(sub[left + 1 : right])
            else:
                value = value - term
        kappas[sub] = value
        return value

    return kappa(tuple(args))


def kappa_words(state: FactorState, words: Sequence[Word]) -> ComplexRational:
    """Joint free cumulant of a tuple of factor words, by the first-block recursion.

    Words may be empty (the identity); the total degree of every block
    evaluation must stay within the state's bound.
    """
    return first_block_cumulant(
        words,
        lambda sub: state.phi_word(Word(tuple(l for w in sub for l in w.letters))),
        {},
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


class CumulantTable:
    """kappa values of one factor, keyed by letter tuples of length <= N.

    Either backed by a FactorState or given explicitly.  A state-backed table
    computes a missing value by the first-block kernel on its letters, with
    the table's own values as the kernel's memo, so the cumulants of all
    sub-tuples stay in the table too.
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
            state = self._state
            value = first_block_cumulant(
                letters, lambda sub: state.phi_word(Word(sub)), self._values
            )
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
    return first_block_moment(
        len(letters), lambda block: table.value(tuple(letters[i - 1] for i in block))
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
    """Rebuild m_1..m_N from (kappa_1, ..., kappa_N) by the first-block recursion."""
    kappas = [ComplexRational.of(c) for c in cumulants]
    return MomentSequence.of([
        first_block_moment(n, lambda block: kappas[len(block) - 1])
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
