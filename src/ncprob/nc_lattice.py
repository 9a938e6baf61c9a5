"""The lattice NC(n) of non-crossing partitions of {1..n}.

Partitions are kept in canonical form (blocks ascending, sorted by least
element) so equality and hashing are structural.  One walk of 1..n with a
stack of open blocks lists NC(n) in lexicographic order of the
restricted-growth string: it starts at the one-block partition ``1_n`` and
ends at the all-singletons partition ``0_n``.  The walk hands on its leaves
in batches of ``NC_BATCH`` and has two leaf forms: ``enumerate_nc`` grows
block tuples and collects ``Partition`` objects, and ``nc_text_batches``
grows block texts and passes on each partition's text, the concatenation of
its ``block_text``s, with no ``Partition`` built and no list of all texts.
The enumeration cap is ``MAX_ENUM_N`` = 12 (Catalan(12) = 208012).

The partial order is reverse refinement.  The Moebius function is the
closed form (Nica & Speicher, Lectures 9-10): every interval [s, p] is a
product of full lattices NC(k), one per block of the relative Kreweras
complement, and mu(0_k, 1_k) = (-1)^(k-1) Catalan(k-1), so

    mu(s, p) = product over blocks B of p, over blocks W of K(s|B),
               of (-1)^(|W|-1) Catalan(|W|-1),

with s|B the restriction of s to B relabelled 1..|B|.  Reading each block as
the cycle of its elements in increasing order, the blocks of every K(s|B)
together are the cycles of the permutation s^-1 p, so mu costs O(n).  All
values are immutable.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    OrderViolationError,
    SizeOutOfRangeError,
    SpecFormatError,
    ValidationError,
)
from .value import Value

MAX_ENUM_N = 12
NC_BATCH = 4096  # leaves per batch the walk hands on

_nc_cache: dict[int, tuple["Partition", ...]] = {}


class Partition(Value):
    """A set partition of {1..n} in canonical form."""

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks: tuple[tuple[int, ...], ...]):
        if n < 1:
            raise ValidationError(f"ground-set size must be positive, got {n}")
        seen: set[int] = set()
        count = 0
        previous_min = 0
        for block in blocks:
            if not block:
                raise ValidationError("empty block")
            if any(x >= y for x, y in zip(block, block[1:])):
                raise ValidationError(f"block {block} not strictly ascending")
            if block[0] <= previous_min:
                raise ValidationError("blocks not sorted by least element")
            previous_min = block[0]
            seen.update(block)
            count += len(block)
        if count != n or seen != set(range(1, n + 1)):
            raise ValidationError(f"blocks {blocks} do not partition {{1..{n}}}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def of(cls, n: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else 0))
        return cls(n, canon)

    def rgs(self) -> tuple[int, ...]:
        """Restricted-growth string: label of each element's block, labels by first appearance."""
        out = [0] * self.n
        for label, block in enumerate(self.blocks):
            for x in block:
                out[x - 1] = label
        return tuple(out)

    def __str__(self) -> str:
        return "".join(map(block_text, self.blocks))

    def __repr__(self) -> str:
        return f"Partition({self})"


def block_text(block: tuple[int, ...]) -> str:
    """One block's text, e.g. ``"{1,3}"``; a partition's text joins its blocks'."""
    return "{" + ",".join(map(str, block)) + "}"


def parse_partition(text: str) -> Partition:
    """Parse the canonical text form, e.g. ``"{1,3}{2}{4}"``.

    Whitespace is allowed anywhere; the blocks must cover {1..n} for the
    implied n = largest element.
    """
    s = "".join(text.split())
    if not s.startswith("{") or not s.endswith("}"):
        raise SpecFormatError(f"partition text must be {{...}}{{...}} blocks: {text!r}")
    blocks: list[tuple[int, ...]] = []
    for chunk in s[1:-1].split("}{"):
        if not chunk:
            raise SpecFormatError(f"empty block in {text!r}")
        try:
            block = tuple(int(tok) for tok in chunk.split(","))
        except ValueError as exc:
            raise SpecFormatError(f"bad block {chunk!r} in {text!r}") from exc
        blocks.append(block)
    n = max(max(b) for b in blocks)
    try:
        return Partition.of(n, blocks)
    except ValidationError as exc:
        raise SpecFormatError(f"not a partition of {{1..{n}}}: {text!r}") from exc


def is_noncrossing(p: Partition) -> bool:
    """True iff no quadruple i<j<k<l has {i,k} and {j,l} in two distinct blocks.

    One scan of 1..n with a stack of open blocks: a block opens at its least
    element and closes at its largest, and every element in between must
    find its block on top.  A block C above B at a later element x of B was
    opened after B's previous element and closes after x, so B and C cross.
    """
    stack: list[int] = []
    for x, label in enumerate(p.rgs(), start=1):
        block = p.blocks[label]
        if x == block[0]:
            stack.append(label)
        elif stack[-1] != label:
            return False
        if x == block[-1]:
            stack.pop()
    return True


def leq(sigma: Partition, pi: Partition) -> bool:
    """Reverse refinement: every block of sigma lies inside one block of pi."""
    if sigma.n != pi.n:
        raise DimensionMismatchError(f"ground sets differ: {sigma.n} vs {pi.n}")
    owner = pi.rgs()
    for block in sigma.blocks:
        target = owner[block[0] - 1]
        for x in block[1:]:
            if owner[x - 1] != target:
                return False
    return True


def check_lattice_size(n: int) -> None:
    """Refuse a ground set outside 1..MAX_ENUM_N."""
    if n < 1 or n > MAX_ENUM_N:
        raise SizeOutOfRangeError(
            f"n must be within 1..{MAX_ENUM_N}, got {n}"
        )


def enumerate_nc(n: int) -> tuple[Partition, ...]:
    """All of NC(n), in lexicographic restricted-growth-string order.

    The walk's tuple form: each block tuple is built once per walk node and
    shared by every partition below it.  The count is the n-th Catalan
    number.  Results are cached per n.
    """
    check_lattice_size(n)
    cached = _nc_cache.get(n)
    if cached is not None:
        return cached
    singletons = [(k,) for k in range(n + 1)]

    def leaf(blocks: list[tuple[int, ...]]) -> Partition:
        p = object.__new__(Partition)  # canonical by construction: no validation
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "blocks", tuple(blocks))
        return p

    found: list[Partition] = []
    _walk_nc(n, singletons, singletons, leaf, found.extend)
    cached = _nc_cache[n] = tuple(found)
    return cached


def nc_text_batches(n: int, sink: Callable[[list[str]], object]) -> None:
    """Hand ``[str(p) for p in enumerate_nc(n)]`` to ``sink`` in order, in
    lists of at most ``NC_BATCH`` texts, by the walk's text form, which
    builds no ``Partition``.  A block's text grows without its closing brace,
    so ``"{1,3"`` grows by 5 in one concatenation, as a tuple does."""
    check_lattice_size(n)
    opened = ["{%d" % k for k in range(n + 1)]
    grown = [",%d" % k for k in range(n + 1)]
    _walk_nc(n, opened, grown, lambda blocks: "}".join(blocks) + "}", sink)


def _walk_nc(
    n: int, opened: Sequence, grown: Sequence, leaf: Callable, sink: Callable
) -> None:
    # Non-crossing partitions are exactly those built by one scan of 1..n
    # with a stack of open blocks: element k either joins an open block,
    # closing every block opened after it, or opens a new one.  Trying the
    # open blocks bottom-up and then a fresh one gives the lexicographic
    # order.  A block opens at k as opened[k] and grows by k to
    # block + grown[k]; leaf(blocks) makes a partition's record, and sink
    # takes each full batch of records, then what is left.
    size = NC_BATCH
    batch: list = []
    blocks: list = []  # sorted by least element

    def walk(k: int, stack: tuple[int, ...]) -> None:
        nonlocal batch
        if k > n:
            batch.append(leaf(blocks))
            if len(batch) == size:
                sink(batch)
                batch = []
            return
        grow = grown[k]
        for depth, i in enumerate(stack):
            block = blocks[i]
            blocks[i] = block + grow
            walk(k + 1, stack[: depth + 1])
            blocks[i] = block
        blocks.append(opened[k])
        walk(k + 1, stack + (len(blocks) - 1,))
        blocks.pop()

    walk(1, ())
    if batch:
        sink(batch)


def catalan(n: int) -> int:
    if n < 0:
        raise SizeOutOfRangeError(f"Catalan index must be non-negative, got {n}")
    return math.comb(2 * n, n) // (n + 1)


def moebius(sigma: Partition, pi: Partition) -> int:
    """mu(sigma, pi) on NC(n) in closed form.

    The pair must share its ground set, both must be non-crossing, and
    sigma <= pi; the checks run in that order.  mu(pi, pi) = 1.
    """
    if sigma.n != pi.n:
        raise DimensionMismatchError(f"ground sets differ: {sigma.n} vs {pi.n}")
    for p in (sigma, pi):
        if not is_noncrossing(p):
            raise ValidationError(f"{p} is crossing")
    if not leq(sigma, pi):
        raise OrderViolationError(f"{sigma} is not below {pi}")
    return _closed_form_moebius(sigma.n, sigma.blocks, pi.blocks)


def moebius_to_top(sigma: Partition) -> int:
    """mu(sigma, 1_n) in closed form, for sigma already known to be in NC(n)."""
    return _closed_form_moebius(sigma.n, sigma.blocks, (tuple(range(1, sigma.n + 1)),))


def _kreweras_cycles(
    n: int, lower: Iterable[tuple[int, ...]], upper: Iterable[tuple[int, ...]]
) -> list[list[int]]:
    # Read every block, in increasing order, as a cycle of a permutation.  For
    # lower <= upper the cycles of lower^-1 upper are the blocks of the
    # relative Kreweras complement of lower in upper; for upper = 1_n that is
    # i -> lower^-1(i mod n + 1).
    step = [0] * (n + 1)
    for block in upper:
        for x, y in zip(block, block[1:] + block[:1]):
            step[x] = y
    back = [0] * (n + 1)
    for block in lower:
        for x, y in zip(block, block[1:] + block[:1]):
            back[y] = x
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = back[step[i]]
        if cycle:
            cycles.append(cycle)
    return cycles


def _closed_form_moebius(
    n: int, lower: Iterable[tuple[int, ...]], upper: Iterable[tuple[int, ...]]
) -> int:
    # [lower, upper] is isomorphic to the product of the full lattices NC(|W|)
    # over the blocks W of the relative Kreweras complement.
    value = 1
    for cycle in _kreweras_cycles(n, lower, upper):
        k = len(cycle)
        value *= catalan(k - 1) if k % 2 else -catalan(k - 1)
    return value
