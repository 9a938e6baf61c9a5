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

Both kernels recurse on argument sub-tuples and fill the dict their caller
passes, keyed by argument tuples, so each sub-tuple is computed once per dict;
a ``ProductSpace`` passes its memos.  Neither kernel memoizes its given
function: on a tuple of letters, phi and kappa are one dict lookup already.
``letter_table`` fills a whole table (``cumulants`` and ``moments`` on a factor
spec, ``moment_sequence_from_cumulants``, ``check_freeness_cumulants``) by a
sparse walk of the identity, only over the blocks on the prefixes of the
nonzero kappa, which freeness makes few: a Haar unitary has 12 of 8,190 at
N = 12.

``cumulants_from_moment_sequence`` sums over NC(n) directly: kappa_n is the
sum over sigma of mu(sigma, 1_n) times the moments of sigma's blocks
(Moebius inversion).  It keeps no memo, nor runs through ``letter_table``,
which made it about 5x faster: either would let the benchmark's ``session``
fit more passes, and its peak RSS, which grows with the passes, would read
higher (ROADMAP item 1).  The NC(n) sum that the tests compare both kernels
with is an oracle in ``tests/nc_oracles.py``.  All routes are bounded by the
enumeration cap ``nc_lattice.MAX_ENUM_N``.  Everything is exact.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Hashable, Sequence, TypeVar

from .errors import DimensionMismatchError, TruncationError, ValidationError
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
    this phi.
    """
    _check_arity(len(args))

    def kappa(sub: tuple[Arg, ...]) -> ComplexRational:
        value = kappas.get(sub)
        if value is not None:
            return value
        value = phi(sub)
        m = len(sub)
        for mask in range((1 << (m - 1)) - 2, -1, -1):
            block = (0,) + tuple(p for p in range(1, m) if mask >> (p - 1) & 1)
            term = kappa(tuple(sub[p] for p in block))
            for left, right in zip(block, block[1:] + (m,)):
                if term.is_zero():
                    break
                if right > left + 1:
                    term = term * phi(sub[left + 1 : right])
            else:
                value = value - term
        kappas[sub] = value
        return value

    return kappa(tuple(args))


def letter_table(
    letters: Sequence[Arg], top: int, kernel: Callable, given: Callable,
    keep: Callable[[tuple[Arg, ...]], bool] | None = None,
) -> dict[tuple[Arg, ...], ComplexRational]:
    """The value of ``kernel`` (``first_block_cumulant`` or ``first_block_moment``)
    on every tuple t of 1..``top`` ``letters`` that ``keep`` accepts, shortest
    first, in ``itertools.product`` order within a length; ``top`` past the cap
    is refused before any call of ``given``.  Every tuple below ``top`` is
    filled, kept or not, so a block off the prefixes of the nonzero kappa found
    so far has kappa 0.  The proper blocks' terms, gaps read from the table, are
    subtracted from phi(t) = ``given(t)``, or added to kappa(t) = ``given(t)``."""
    check_lattice_size(top)
    moments = kernel is first_block_moment
    phis, kappas, prefixes, table = {}, {}, set(), {}  # kappas: the nonzero ones

    def rest(t: tuple, key: tuple, last: int) -> ComplexRational | None:
        # The terms of the blocks of t that start with one of letters ``key``
        # ending at ``last``: that block, then each extension on the prefixes by
        # a later q, times the gap before q (a zero gap ends them); None if none.
        total = kappas.get(key)
        if total is not None and last < len(t) - 1:
            total = total * phis[t[last + 1 :]]
        for q in range(last + 1, len(t)):
            if (longer := key + (t[q],)) not in prefixes:
                continue
            gap = phis[t[last + 1 : q]] if q > last + 1 else ONE
            if gap and (term := rest(t, longer, q)) is not None:
                term = term if gap is ONE else term * gap
                total = term if total is None else total + term
        return total

    for n in range(1, top + 1):
        for t in product(letters, repeat=n):
            kept = keep is None or keep(t)
            if n == top and not kept:
                continue
            first = given(t)  # t is off the prefixes, so ``rest`` skips its full block
            blocks = rest(t, t[:1], 0) if t[:1] in prefixes else None
            value = first if blocks is None else (first + blocks if moments else first - blocks)
            phis[t], kappa = (value, first) if moments else (first, value)
            if kappa:
                kappas[t] = kappa
                prefixes.update(t[:k] for k in range(1, n + 1))
            if kept:
                table[t] = value
    return table


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

    An empty sequence is refused, and N past the enumeration cap is refused
    before any moment is computed.
    """
    kappas = [ComplexRational.of(c) for c in cumulants]
    if not kappas:
        raise ValidationError("need at least one cumulant, got none")
    table = letter_table(
        (0,), len(kappas), first_block_moment, lambda block: kappas[len(block) - 1]
    )
    return MomentSequence(tuple(table.values()))


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
