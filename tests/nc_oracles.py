"""Slow, obviously correct routes, kept as oracles for the library's kernels.

The library computes every cumulant by the first-block recursion
(``cumulant_calculus.first_block_cumulant``), and the NC(n) join by one
stack scan.  These are the routes they are checked against:

* ``kappa_pi_via_moebius``   - kappa_pi of a factor state as the Moebius sum
                               of phi_sigma over sigma in [0_n, pi];
* ``kappa_products``         - the cumulant of grouped products as the sum of
                               kappa_pi over all pi in NC(n) whose join with
                               the group interval partition is 1_n (Nica &
                               Speicher, Theorem 11.12);
* ``kappa_pi_products``      - its blockwise extension over groups;
* ``kappa_elements``         - cumulants of free-product elements, by
                               multilinear expansion into unit and tensor-word
                               slots, each term by the join-constrained sum;
* ``kappa_base_atoms``       - the pure cumulant of (factor, polynomial)
                               atoms, by multilinear expansion into word
                               tuples, each one ``kappa_words`` of the factor;
* ``join_nc_by_rescan``      - the NC(n) join, merging one crossing pair of
                               blocks per rescan of all pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product as iter_product
from typing import Sequence

from ncprob import (
    DimensionMismatchError,
    FactorState,
    FreeElement,
    Letter,
    Partition,
    Polynomial,
    ProductSpace,
    ValidationError,
    enumerate_nc,
    kappa_words,
    leq,
    moebius,
)
from ncprob.scalar import ONE, ZERO, ComplexRational

# The unit as a grouped-word atom: a slot with no factor.
UNIT_ATOM = (None, Polynomial.one())


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
        total = total + state.eval_phi_pi(sigma, letters) * moebius(sigma, pi)
    return total


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

    @property
    def group_count(self) -> int:
        return len(self.boundaries)

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
    top = Partition.top(n)
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


def _letter_atoms(letters: Sequence[Letter]) -> tuple:
    return tuple((l.factor, Polynomial.from_letter(l)) for l in letters)


def kappa_products(space: ProductSpace, gw: GroupedWord) -> ComplexRational:
    """Cumulant of the grouped products: the join-constrained lattice sum."""
    return kappa_products_atoms(space, [_letter_atoms(g) for g in gw.groups()])


def kappa_pi_products(
    space: ProductSpace, pi: Partition, gw: GroupedWord
) -> ComplexRational:
    """Blockwise extension over groups, order preserved within blocks."""
    group_atoms = [_letter_atoms(g) for g in gw.groups()]
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


def kappa_elements(space: ProductSpace, args: Sequence[FreeElement]) -> ComplexRational:
    """kappa_m on arbitrary elements: each argument splits into its scalar part
    (a unit slot) and its tensor words (whose components become the group's
    slots), and each term is the join-constrained sum."""
    if not args:
        raise ValidationError("kappa_elements needs at least one argument")
    expansions = []
    for element in args:
        choices = []
        if element.scalar:
            choices.append((element.scalar, (UNIT_ATOM,)))
        for word, coeff in element.words.items():
            choices.append((coeff, tuple(word.components)))
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
