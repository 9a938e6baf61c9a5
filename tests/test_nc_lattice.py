import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncprob.errors import (
    DimensionMismatchError,
    OrderViolationError,
    SizeOutOfRangeError,
    SpecFormatError,
    ValidationError,
)
from ncprob.nc_lattice import (
    NC_BATCH,
    Partition,
    catalan,
    enumerate_nc,
    is_noncrossing,
    leq,
    moebius,
    moebius_to_top,
    nc_text_batches,
    parse_partition,
)

from conftest import assert_refused
from nc_oracles import (
    enumerate_nc_by_rgs,
    join_nc_by_rescan,
    kreweras,
    one_block,
    partition_from_rgs,
    singletons,
)


# -- independent oracles -------------------------------------------------------


def all_set_partitions(n):
    """Brute-force: every restricted growth string of length n."""
    if n == 0:
        return
    def extend(rgs):
        if len(rgs) == n:
            yield tuple(rgs)
            return
        for label in range(max(rgs) + 2):
            yield from extend(rgs + [label])
    for rgs in extend([0]):
        yield partition_from_rgs(rgs)


def has_crossing_quadruple(p):
    """Direct quadruple scan, independent of the pairwise block check."""
    owner = {}
    for idx, block in enumerate(p.blocks):
        for x in block:
            owner[x] = idx
    for i, j, k, l in combinations(range(1, p.n + 1), 4):
        if owner[i] == owner[k] and owner[j] == owner[l] and owner[i] != owner[j]:
            return True
    return False


def catalan_formula(n):
    return math.comb(2 * n, n) // (n + 1)


def recursive_moebius(n):
    """{(sigma, pi): mu} over every comparable pair of NC(n), by the defining
    recursion mu(s, s) = 1 and sum over s <= t <= p of mu(s, t) = 0 for s < p."""
    elems = enumerate_nc(n)
    mu = {}
    for sigma in elems:
        # Finer partitions have more blocks, so this order is a linear
        # extension of the interval above sigma.
        ups = sorted((t for t in elems if leq(sigma, t)), key=lambda t: -len(t.blocks))
        for k, pi in enumerate(ups):
            if pi == sigma:
                mu[sigma, pi] = 1
            else:
                mu[sigma, pi] = -sum(
                    mu[sigma, t] for t in ups[:k] if leq(t, pi)
                )
    return mu


# -- enumeration ----------------------------------------------------------------


def test_singleton_ground_set():
    assert enumerate_nc(1) == (one_block(1),)


def test_n3_partitions():
    texts = {str(p) for p in enumerate_nc(3)}
    assert texts == {"{1}{2}{3}", "{1,2}{3}", "{1,3}{2}", "{1}{2,3}", "{1,2,3}"}


def test_n4_count_and_absent_crossing():
    parts = enumerate_nc(4)
    assert len(parts) == 14
    assert Partition.of(4, [[1, 3], [2, 4]]) not in parts


@pytest.mark.parametrize("n", range(1, 13))
def test_counts_match_catalan(n):
    assert len(enumerate_nc(n)) == catalan_formula(n)


@pytest.mark.parametrize("n", range(1, 11))
def test_enumeration_equals_rgs_oracle(n):
    walked = enumerate_nc(n)
    expected = enumerate_nc_by_rgs(n)
    assert isinstance(walked, tuple) and len(walked) == len(expected)
    for p, q in zip(walked, expected):
        assert (p.n, p.blocks) == (q.n, q.blocks)


def nc_texts(n):
    """The texts ``nc_text_batches`` hands on, collected into one list."""
    texts = []
    nc_text_batches(n, texts.extend)
    return texts


@pytest.mark.parametrize("n", range(1, 12))
def test_nc_texts_equal_the_partition_texts(n):
    texts = nc_texts(n)
    assert texts == [str(p) for p in enumerate_nc(n)]
    assert texts == [str(p) for p in enumerate_nc_by_rgs(n)]


def test_nc_texts_count_and_cap():
    for n in range(1, 13):
        assert len(nc_texts(n)) == catalan_formula(n)
    for n in (0, 13):
        with pytest.raises(SizeOutOfRangeError, match=f"got {n}"):
            nc_texts(n)


def test_nc_text_batches_are_full_but_the_last():
    sizes = []
    nc_text_batches(12, lambda batch: sizes.append(len(batch)))
    full, rest = divmod(catalan_formula(12), NC_BATCH)
    assert sizes == [NC_BATCH] * full + [rest]


def test_partition_is_slotted_frozen_and_hashable():
    p = Partition.of(4, [[1, 4], [2, 3]])
    assert not hasattr(p, "__dict__")
    with pytest.raises(AttributeError, match="cannot assign to field 'n'"):
        p.n = 5
    with pytest.raises(AttributeError, match="cannot assign to field 'blocks'"):
        p.blocks = ((1, 2, 3, 4),)
    q = parse_partition("{1,4}{2,3}")
    assert p == q and p is not q and hash(p) == hash(q)
    assert p != one_block(4)
    walked = enumerate_nc(4)
    assert q in walked and len({p, q, *walked}) == len(walked)


@pytest.mark.parametrize("n", range(1, 7))
def test_matches_brute_force_filter(n):
    expected = {p for p in all_set_partitions(n) if not has_crossing_quadruple(p)}
    assert set(enumerate_nc(n)) == expected


def test_enumeration_order_is_rgs_lex():
    for n in (3, 4, 5):
        strings = [p.rgs() for p in enumerate_nc(n)]
        assert strings == sorted(strings)
        assert len(set(strings)) == len(strings)


@pytest.mark.parametrize("n", range(1, 10))
def test_enumeration_equals_validated_construction(n):
    strings = [p.rgs() for p in enumerate_nc(n)]
    assert list(enumerate_nc(n)) == [partition_from_rgs(r) for r in strings]
    assert all(is_noncrossing(p) for p in enumerate_nc(n))


def test_size_out_of_range():
    with pytest.raises(SizeOutOfRangeError):
        enumerate_nc(0)
    with pytest.raises(SizeOutOfRangeError):
        enumerate_nc(13)


# -- crossing predicate ----------------------------------------------------------


def test_is_noncrossing_examples():
    assert not is_noncrossing(Partition.of(4, [[1, 3], [2, 4]]))
    assert is_noncrossing(Partition.of(4, [[1, 4], [2, 3]]))
    for n in range(1, 8):
        assert is_noncrossing(one_block(n))


@pytest.mark.parametrize("n", range(1, 7))
def test_is_noncrossing_matches_quadruple_scan(n):
    for p in all_set_partitions(n):
        assert is_noncrossing(p) == (not has_crossing_quadruple(p))


def test_partition_validation():
    with pytest.raises(ValidationError):
        Partition.of(3, [[1, 2]])  # not covering
    with pytest.raises(ValidationError):
        Partition.of(3, [[1, 2], [2, 3]])  # overlap
    with pytest.raises(ValidationError):
        Partition.of(2, [[1], [2], [3]])  # out of range


# -- order and join ---------------------------------------------------------------


def test_leq_examples():
    assert leq(Partition.of(3, [[1, 2], [3]]), one_block(3))
    assert not leq(Partition.of(3, [[1, 2], [3]]), Partition.of(3, [[1, 3], [2]]))
    for p in enumerate_nc(4):
        assert leq(singletons(4), p)
    with pytest.raises(DimensionMismatchError):
        leq(singletons(2), singletons(3))


def test_leq_is_partial_order_exhaustive():
    for n in (2, 3, 4):
        elems = enumerate_nc(n)
        for p in elems:
            assert leq(p, p)
        for p in elems:
            for q in elems:
                if leq(p, q) and leq(q, p):
                    assert p == q
                for r in elems:
                    if leq(p, q) and leq(q, r):
                        assert leq(p, r)


def test_join_examples():
    for p in enumerate_nc(4):
        assert join_nc_by_rescan(singletons(4), p) == p
    forced = join_nc_by_rescan(
        Partition.of(4, [[1, 3], [2], [4]]), Partition.of(4, [[2, 4], [1], [3]])
    )
    assert forced == one_block(4)
    disjoint = join_nc_by_rescan(
        Partition.of(4, [[1, 2], [3], [4]]), Partition.of(4, [[3, 4], [1], [2]])
    )
    assert disjoint == Partition.of(4, [[1, 2], [3, 4]])


def test_join_laws_exhaustive():
    for n in (3, 4):
        elems = enumerate_nc(n)
        for p in elems:
            assert join_nc_by_rescan(p, p) == p
            for q in elems:
                j = join_nc_by_rescan(p, q)
                assert j == join_nc_by_rescan(q, p)
                assert leq(p, j) and leq(q, j)
                assert is_noncrossing(j)
                # least upper bound: nothing strictly smaller works
                for r in elems:
                    if leq(p, r) and leq(q, r):
                        assert leq(j, r)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5).flatmap(
    lambda n: st.tuples(
        st.sampled_from(enumerate_nc(n)),
        st.sampled_from(enumerate_nc(n)),
        st.sampled_from(enumerate_nc(n)),
    )
))
def test_join_associative(triple):
    p, q, r = triple
    join = join_nc_by_rescan
    assert join(join(p, q), r) == join(p, join(q, r))


def test_join_of_interleaved_pairs():
    # {1,3}{5,7}... with {2,4}{6,8}...: each quadruple 4k+1..4k+4 merges.
    n = 320
    odd = Partition.of(
        n, [[x, x + 2] for x in range(1, n, 4)] + [[x] for x in range(2, n + 1, 2)]
    )
    even = Partition.of(
        n, [[x, x + 2] for x in range(2, n, 4)] + [[x] for x in range(1, n, 2)]
    )
    expected = Partition.of(n, [range(x, x + 4) for x in range(1, n, 4)])
    assert join_nc_by_rescan(odd, even) == expected


# -- Moebius -----------------------------------------------------------------------


def test_moebius_base_and_small():
    for p in enumerate_nc(4):
        assert moebius(p, p) == 1
    assert moebius(singletons(2), one_block(2)) == -1


@pytest.mark.parametrize("n", range(1, 7))
def test_moebius_full_interval_formula(n):
    expected = (-1) ** (n - 1) * catalan_formula(n - 1)
    assert moebius(singletons(n), one_block(n)) == expected


@pytest.mark.parametrize("n", range(2, 6))
def test_moebius_defining_identity(n):
    elems = enumerate_nc(n)
    for sigma in elems:
        for pi in elems:
            if sigma != pi and leq(sigma, pi):
                total = sum(
                    moebius(sigma, tau)
                    for tau in elems
                    if leq(sigma, tau) and leq(tau, pi)
                )
                assert total == 0


@pytest.mark.parametrize("n", range(1, 8))
def test_moebius_matches_defining_recursion(n):
    expected = recursive_moebius(n)
    if n == 7:
        assert len(expected) == 7752
    for (sigma, pi), value in expected.items():
        assert moebius(sigma, pi) == value
    top = one_block(n)
    for sigma in enumerate_nc(n):
        assert moebius_to_top(sigma) == expected[sigma, top]


@pytest.mark.parametrize("n", range(1, 7))
def test_kreweras_is_an_anti_isomorphism(n):
    elems = enumerate_nc(n)
    complement = {sigma: kreweras(sigma) for sigma in elems}
    assert set(complement.values()) == set(elems)
    for sigma in elems:
        assert len(complement[sigma].blocks) == n + 1 - len(sigma.blocks)
        for pi in elems:
            assert leq(sigma, pi) == leq(complement[pi], complement[sigma])


def test_kreweras_examples():
    assert kreweras(singletons(4)) == one_block(4)
    assert kreweras(one_block(4)) == singletons(4)
    assert kreweras(Partition.of(3, [[1, 2], [3]])) == Partition.of(3, [[1], [2, 3]])
    with pytest.raises(ValidationError):
        kreweras(Partition.of(4, [[1, 3], [2, 4]]))


def test_moebius_errors():
    with pytest.raises(OrderViolationError):
        moebius(one_block(3), singletons(3))
    with pytest.raises(DimensionMismatchError):
        moebius(singletons(2), one_block(3))
    with pytest.raises(ValidationError):
        moebius(Partition.of(4, [[1, 3], [2, 4]]), one_block(4))


# -- text form ----------------------------------------------------------------------


def test_parse_and_format():
    p = parse_partition("{1,3}{2}{4}")
    assert p == Partition.of(4, [[1, 3], [2], [4]])
    assert str(p) == "{1,3}{2}{4}"
    assert parse_partition(" { 1 , 3 } { 2 } { 4 } ") == p


@pytest.mark.parametrize("text", ["", "{1,3}{4}", "{}", "{0,1}", "{1,1}", "1,2", "{a}"])
def test_parse_rejects(text):
    with pytest.raises(SpecFormatError):
        parse_partition(text)


def test_catalan_helper():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


@pytest.mark.parametrize("make, error, message", [
    (lambda: Partition(0, ()), ValidationError, "ground-set size must be positive, got 0"),
    (lambda: Partition.of(2, [(1, 2), ()]), ValidationError, "empty block"),
    (lambda: catalan(-1), SizeOutOfRangeError, "Catalan index must be non-negative, got -1"),
], ids=["empty-ground-set", "empty-block", "negative-catalan"])
def test_lattice_refusals(make, error, message):
    assert_refused(make, error, message)
