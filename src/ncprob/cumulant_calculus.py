"""Moment <-> free-cumulant conversion on a single factor, and free additive
convolution of scalar moment sequences.

The conversions expand over the block V that contains the first argument
(Nica & Speicher, Lecture 11):

    phi(a_1..a_n) = sum over V containing 1 of kappa(a_V) * prod phi(gap),

where the gaps are the runs of positions between consecutive elements of V
and after its last one.  ``first_block_moment`` evaluates the right-hand
side; ``first_block_cumulant`` solves the identity for its term V = {1..n}.
A cumulant of n arguments costs at most 3^(n-1) terms, and a moment at most
2^(n-1) per sub-tuple, against Catalan(n) terms for a sum over NC(n).

Both kernels recurse on argument sub-tuples and keep no memo of their own:
each fills the dict its caller passes, keyed by argument tuples.  The
``cumulants`` and ``moments`` commands pass one dict for a whole table, a
``ProductSpace`` its state memo, so each sub-tuple is computed once per table
or space; one-off callers pass {}.  A ``CumulantTable`` only holds given
values, for ``first_block_moment`` to read.

``cumulants_from_moment_sequence`` sums over NC(n) directly: kappa_n is the
sum over sigma of mu(sigma, 1_n) times the moments of sigma's blocks
(Moebius inversion).  The general NC(n) sum, which the tests compare both
kernels with, is an oracle in ``tests/nc_oracles.py``.  All routes are
bounded by the enumeration cap ``nc_lattice.MAX_ENUM_N``.  Everything is
exact.
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping, Sequence, TypeVar

from .errors import (
    DimensionMismatchError,
    TruncationError,
    ValidationError,
)
from .moment_space import Letter, generator_letters, parse_factor_spec
from .nc_lattice import check_lattice_size, enumerate_nc, moebius_to_top
from .scalar import ONE, ZERO, ComplexRational
from .value import Value

Arg = TypeVar("Arg", bound=Hashable)


def _check_arity(n: int) -> None:
    if n < 1:
        raise ValidationError("cumulants need at least one argument")
    check_lattice_size(n)


def first_block_moment(
    args: Sequence[Arg],
    kappa: Callable[[tuple[Arg, ...]], ComplexRational],
    phis: dict[tuple[Arg, ...], tuple[ComplexRational, bool]],
    colour: Callable[[Arg], Hashable] | None = None,
) -> ComplexRational:
    """The NC(n) sum of the blockwise kappa product, by the first-block recursion.

    phi(args) is the sum over blocks V containing the first argument of
    kappa(args_V) times phi over V's gaps.  With ``colour``, V keeps to the
    arguments coloured like the first; the caller promises that kappa is
    zero, and raises nothing, on every tuple of mixed colours.  ``phis`` is
    the caller's memo of (phi, whether some partition has only nonzero
    blocks) per sub-tuple, read and filled, so it must hold values for this
    kappa and colour only.

    A block is evaluated exactly when the NC(n) sum (an oracle in
    ``tests/nc_oracles.py``) would evaluate it: the full block comes first,
    and a term stops at a zero block or at a gap none of whose partitions has
    only nonzero blocks.  So the same blocks raise.
    """
    _check_arity(len(args))

    def phi(sub: tuple[Arg, ...]) -> tuple[ComplexRational, bool]:
        hit = phis.get(sub)
        if hit is not None:
            return hit
        m = len(sub)
        first = colour(sub[0]) if colour is not None else None
        same = [p for p in range(1, m) if colour is None or colour(sub[p]) == first]
        total, reached = ZERO, False
        for mask in range((1 << len(same)) - 1, -1, -1):
            block = (0,) + tuple(p for k, p in enumerate(same) if mask >> k & 1)
            term = kappa(tuple(sub[p] for p in block))
            if term.is_zero():
                continue
            for left, right in zip(block, block[1:] + (m,)):
                if right == left + 1:
                    continue
                value, gap_reached = phi(sub[left + 1 : right])
                if not gap_reached:
                    break
                term = term * value
            else:
                total, reached = total + term, True
        phis[sub] = total, reached
        return total, reached

    return phi(tuple(args))[0]


def first_block_cumulant(
    args: Sequence[Arg],
    phi: Callable[[tuple[Arg, ...]], ComplexRational],
    kappas: dict[tuple[Arg, ...], ComplexRational],
) -> ComplexRational:
    """The NC(n) sum of mu(sigma, 1_n) times the blockwise phi product, by the
    first-block recursion.

    kappa(args) = phi(args) - sum over proper V containing the first argument
    of kappa(args_V) * phi over V's gaps.  phi(args) is evaluated first, so
    any error it raises comes first, as in the NC(n) sum (an oracle in
    ``tests/nc_oracles.py``); a term stops at its first zero factor.
    ``kappas`` is the caller's cumulant memo: it is read and filled with the
    cumulant of every sub-tuple reached, so it must only ever hold values for
    this phi.  phi is memoized for this call alone.
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


class CumulantTable:
    """Given kappa values of one factor, keyed by letter tuples of length <= N.

    ``value`` reads a stored cumulant; the table computes nothing.
    """

    def __init__(
        self,
        factor: str,
        degree_bound: int,
        values: Mapping[tuple[Letter, ...], ComplexRational],
    ):
        self.factor = factor
        self.degree_bound = degree_bound
        self._values = dict(values)

    def value(self, letters: tuple[Letter, ...]) -> ComplexRational:
        if not letters or len(letters) > self.degree_bound:
            raise TruncationError(
                f"cumulant order {len(letters)} outside 1..{self.degree_bound}"
            )
        value = self._values.get(letters)
        if value is None:
            raise ValidationError(
                f"no cumulant value for letters {' '.join(l.text() for l in letters)!r}"
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
    table = CumulantTable(
        factor, degree_bound, {word.letters: v for word, v in values.items()}
    )
    return table, generator_letters(factor, generators)


class MomentSequence(Value):
    """Moments m_1..m_N of a single selfadjoint variable."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[ComplexRational, ...]):
        if not values:
            raise ValidationError("need at least one moment, got none")
        object.__setattr__(self, "values", values)

    @property
    def degree_bound(self) -> int:
        return len(self.values)

    @classmethod
    def of(cls, values: Sequence[ComplexRational | int]) -> "MomentSequence":
        return cls(tuple(ComplexRational.of(v) for v in values))

    def m(self, k: int) -> ComplexRational:
        if k == 0:
            return ONE
        if not 1 <= k <= self.degree_bound:
            raise TruncationError(f"moment m_{k} outside bound {self.degree_bound}")
        return self.values[k - 1]


def cumulants_from_moment_sequence(seq: MomentSequence) -> tuple[ComplexRational, ...]:
    """(kappa_1, ..., kappa_N) of a single variable, via Moebius inversion.

    kappa_n is the sum over sigma in NC(n) of mu(sigma, 1_n) times the product
    of m_|V| over sigma's blocks V; a term stops at its first zero moment.
    N past the enumeration cap is refused before any cumulant is computed.
    """
    check_lattice_size(seq.degree_bound)
    kappas = []
    for n in range(1, seq.degree_bound + 1):
        total = ZERO
        for sigma in enumerate_nc(n):
            term = ONE
            for block in sigma.blocks:
                term = term * seq.m(len(block))
                if term.is_zero():
                    break
            else:
                total = total + term * moebius_to_top(sigma)
        kappas.append(total)
    return tuple(kappas)


def moment_sequence_from_cumulants(
    cumulants: Sequence[ComplexRational],
) -> MomentSequence:
    """Rebuild m_1..m_N from (kappa_1, ..., kappa_N) by the first-block recursion.

    N past the enumeration cap is refused before any moment is computed; an
    empty sequence is refused by ``MomentSequence``.
    """
    kappas = [ComplexRational.of(c) for c in cumulants]
    if kappas:
        check_lattice_size(len(kappas))
    phis: dict[tuple[int, ...], tuple[ComplexRational, bool]] = {}
    return MomentSequence.of([
        first_block_moment((0,) * n, lambda block: kappas[len(block) - 1], phis)
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
