"""Partition container, hooks, tableau counting, and the text grammar."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmkostka import partitions as partitions_module
from cmkostka import schur
from cmkostka.partitions import (
    BoundExceeded,
    Cell,
    GammaPartition,
    Partition,
    PartitionParseError,
    enumerate_gamma_partitions,
    enumerate_partitions,
    gamma_dimension,
    hook_lengths,
    major_index,
    multinomial,
    parse_gamma_partition,
    parse_partition,
    standard_tableaux,
    syt_count,
    syt_enumerate,
)


@st.composite
def partitions(draw, max_size=12):
    n = draw(st.integers(min_value=0, max_value=max_size))
    parts = []
    remaining = n
    cap = n
    while remaining > 0:
        p = draw(st.integers(min_value=1, max_value=min(cap, remaining)))
        parts.append(p)
        cap = p
        remaining -= p
    return Partition(parts)


def euler_partition_count(n):
    """Pentagonal-number recurrence, kept independent of the enumerator."""
    counts = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * counts[m - g1]
            if g2 <= m:
                total += sign * counts[m - g2]
            k += 1
        counts.append(total)
    return counts[n]


def test_constructor_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition((3, 4))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((-1,))
    with pytest.raises(TypeError):
        Partition((2.7, 1))
    with pytest.raises(TypeError):
        Partition((2.0, 1))


def test_partition_is_immutable_and_hashable():
    lam = Partition((3, 1))
    with pytest.raises(AttributeError):
        lam.parts = (2,)
    assert {lam: 1}[Partition((3, 1))] == 1


def test_enumeration_order_for_four():
    got = [lam.parts for lam in enumerate_partitions(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    # n is a count: with 4 in the cache, 4.0 is still refused, not read as 4
    for n in (4.0, Fraction(4), "4"):
        with pytest.raises(TypeError):
            enumerate_partitions(n)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        enumerate_partitions(-1)


def test_enumeration_counts_match_pentagonal_recurrence():
    for n in range(31):
        assert len(enumerate_partitions(n)) == euler_partition_count(n)


def test_cells_and_hooks_of_a_small_shape():
    lam = Partition((3, 1))
    assert list(lam.cells()) == [Cell(0, 0), Cell(0, 1), Cell(0, 2), Cell(1, 0)]
    assert lam.hook(0, 0) == 4
    assert hook_lengths(lam) == (4, 2, 1, 1)
    # negative indices must not wrap round to the last row or column
    for row, col in ((1, 1), (2, 0), (-1, 0), (0, -1), (-1, -1)):
        with pytest.raises(ValueError, match="outside diagram"):
            lam.hook(row, col)


def test_conjugate_golden():
    assert Partition((3, 1)).conjugate().parts == (2, 1, 1)
    assert Partition(()).conjugate() == Partition(())


def test_padded_increasing():
    assert Partition((2, 1)).padded_increasing(3) == (0, 1, 2)
    assert Partition(()).padded_increasing(2) == (0, 0)
    with pytest.raises(ValueError):
        Partition((2, 1)).padded_increasing(1)


def test_grow_and_shrink_are_reciprocal():
    for n in range(6):
        for lam in enumerate_partitions(n):
            for mu in lam.grow():
                assert mu.size == n + 1
                assert lam in mu.shrink()


def test_syt_count_golden_values():
    assert syt_count(Partition(())) == 1
    assert syt_count(Partition((2, 1))) == 2
    assert syt_count(Partition((2, 2))) == 2
    assert syt_count(Partition((3, 2, 1))) == 16
    assert syt_count(Partition((5,))) == 1


def test_syt_enumerate_refuses_large_shapes():
    with pytest.raises(BoundExceeded, match="^shape of size 11 exceeds enumeration bound 10$"):
        syt_enumerate(Partition((6, 5)))
    assert syt_enumerate(Partition((5, 5))) == syt_count(Partition((5, 5)))


def test_syt_enumerate_takes_no_bound():
    with pytest.raises(TypeError):
        syt_enumerate(Partition((2,)), max_size=10)


def test_standard_tableaux_listing_and_major_index():
    rows = sorted(standard_tableaux(Partition((2, 1))))
    assert rows == [(0, 0, 1), (0, 1, 0)]
    assert major_index((0, 0, 1)) == 2
    assert major_index((0, 1, 0)) == 1
    assert major_index(()) == 0


def test_standard_tableaux_count_agrees():
    for n in range(7):
        for lam in enumerate_partitions(n):
            assert sum(1 for _ in standard_tableaux(lam)) == syt_count(lam)


def test_multinomial():
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(3, (3, 0)) == 1
    with pytest.raises(ValueError):
        multinomial(4, (2, 1))


def test_gamma_partition_basics():
    gp = GammaPartition((Partition((1,)), Partition((1,))))
    assert gp.N == 2 and gp.size == 2
    assert gamma_dimension(gp) == 2
    assert str(gp) == "1;1"
    swapped = gp.permuted((1, 0))
    assert swapped == gp
    with pytest.raises(AttributeError, match="^GammaPartition is immutable$"):
        gp.components = ()
    with pytest.raises(TypeError):
        GammaPartition(((1,),))
    with pytest.raises(ValueError, match="need at least one component"):
        GammaPartition(())
    three = GammaPartition((Partition((2,)), Partition(()), Partition((1, 1))))
    assert str(three.permuted((2, 0, 1))) == "1,1;2;-"
    for perm in ((0,), (0, 0, 0), (0, 1, 3), (0, 1, 2, 3), (), (2, 1, -1)):
        with pytest.raises(ValueError, match="not a permutation"):
            three.permuted(perm)


def _assert_same_partition(lam):
    checked = Partition(lam.parts)
    assert lam == checked and hash(lam) == hash(checked) and lam.size == checked.size
    assert type(lam.parts) is tuple


def _assert_same_gamma(gp):
    checked = GammaPartition(tuple(Partition(c.parts) for c in gp.components))
    assert gp == checked and hash(gp) == hash(checked) and gp.size == checked.size
    for component in gp.components:
        _assert_same_partition(component)


def test_trusted_producers_match_the_checking_constructors():
    for n in range(11):
        for lam in enumerate_partitions(n):
            _assert_same_partition(lam)
            _assert_same_partition(lam.conjugate())
            for mu in lam.grow() + lam.shrink():
                _assert_same_partition(mu)
    for N in (1, 2, 3):
        for n in range(7):
            for gp in enumerate_gamma_partitions(N, n):
                _assert_same_gamma(gp)
                _assert_same_gamma(gp.permuted(tuple(reversed(range(N)))))
                for successor in schur._wreath_successors(gp):
                    _assert_same_gamma(successor)


def test_enumerations_hand_out_fresh_lists():
    first = enumerate_gamma_partitions(2, 3)
    expected = list(first)
    first.clear()
    assert enumerate_gamma_partitions(2, 3) == expected
    plain = enumerate_partitions(4)
    plain.pop()
    assert len(enumerate_partitions(4)) == 5


def test_gamma_enumeration_count_via_convolution():
    # The number of N-tuples with total size n is the N-fold convolution
    # of the partition counts, computed here from scratch.
    p = [euler_partition_count(k) for k in range(7)]
    for N in range(1, 5):
        counts = [1] + [0] * 6
        for _ in range(N):
            counts = [sum(counts[k - j] * p[j] for j in range(k + 1)) for k in range(7)]
        for n in range(7):
            assert len(enumerate_gamma_partitions(N, n)) == counts[n]


def test_gamma_enumeration_first_and_last():
    tuples = enumerate_gamma_partitions(2, 2)
    assert str(tuples[0]) == "2;-"
    assert str(tuples[-1]) == "-;1,1"
    assert len(set(tuples)) == len(tuples)
    # N and n are counts: anything but an int is refused, not coerced
    for N, n in ((2.0, 2), (Fraction(2), 2), (2, 2.0), (2, Fraction(2)), ("2", 2)):
        with pytest.raises(TypeError):
            enumerate_gamma_partitions(N, n)
    for N, n, reason in ((0, 1, "N must be positive"), (1, -1, "n must be nonnegative")):
        with pytest.raises(ValueError, match=reason):
            enumerate_gamma_partitions(N, n)


def test_enumeration_is_strictly_decreasing():
    # reverse-lexicographic with no repeats
    for n in range(26):
        parts = enumerate_partitions(n)
        assert all(b.parts < a.parts for a, b in zip(parts, parts[1:]))


def test_gamma_enumeration_order():
    # compositions with the first slot largest first, then each slot's
    # partitions in enumeration order, the last slot varying fastest
    position = {lam: i for n in range(9) for i, lam in enumerate(enumerate_partitions(n))}
    for N in range(1, 5):
        for n in range(9):
            labels = enumerate_gamma_partitions(N, n)
            assert len(set(labels)) == len(labels)
            keys = [(tuple(-c.size for c in gp.components), tuple(position[c] for c in gp.components))
                    for gp in labels]
            assert keys == sorted(keys)


def test_parse_partition_golden():
    assert parse_partition("3,1,1").parts == (3, 1, 1)
    assert parse_partition("-") == Partition(())
    assert parse_partition("") == Partition(())
    assert parse_partition(" 4,2 ").parts == (4, 2)


def test_parse_partition_errors_carry_position():
    with pytest.raises(PartitionParseError) as err:
        parse_partition("3,x")
    assert err.value.position == 2
    with pytest.raises(PartitionParseError):
        parse_partition("1,3")
    with pytest.raises(PartitionParseError) as err:
        parse_partition("2,0")
    assert err.value.position == 2
    for text in ("2,0", "2,-1"):
        with pytest.raises(PartitionParseError, match="parts must be positive"):
            parse_partition(text)
    # text that int() would reread as another number is refused at its part
    for text, position, token in [
        ("1_0", 0, "1_0"),
        ("+3,1", 0, "+3"),
        ("\u0663,\u0661", 0, "\u0663"),
        ("03", 0, "03"),
        ("3, 02", 2, " 02"),
        ("-0", 0, "-0"),
    ]:
        with pytest.raises(PartitionParseError) as err:
            parse_partition(text)
        assert (err.value.reason, err.value.position) == (f"expected an integer part, got {token!r}", position)
    with pytest.raises(PartitionParseError) as err:
        parse_gamma_partition("2,1;-;+1")
    assert (err.value.reason, err.value.position) == ("expected an integer part, got '+1'", 6)
    for text, parts in [(" 4,2 ", (4, 2)), ("3, 1", (3, 1)), ("-", ()), ("", ())]:
        assert parse_partition(text).parts == parts


def test_parse_errors_carry_their_reason():
    with pytest.raises(PartitionParseError) as err:
        parse_partition("3,x")
    assert err.value.reason == "expected an integer part, got 'x'"
    assert str(err.value) == "expected an integer part, got 'x' (at position 2)"
    with pytest.raises(PartitionParseError) as err:
        parse_gamma_partition("2;1,bad")
    assert err.value.reason == "expected an integer part, got 'bad'"
    assert str(err.value) == "expected an integer part, got 'bad' (at position 4)"
    with pytest.raises(PartitionParseError) as err:
        parse_gamma_partition("2,1;-;1,2")
    assert err.value.reason == "parts must be weakly decreasing, got 2 after 1"
    assert err.value.position == 8


def test_parse_gamma_partition():
    gp = parse_gamma_partition("2,1;-;1")
    assert [c.parts for c in gp.components] == [(2, 1), (), (1,)]
    with pytest.raises(PartitionParseError) as err:
        parse_gamma_partition("2;1,bad")
    assert err.value.position == 4


def test_partition_text_round_trip():
    for n in range(7):
        for lam in enumerate_partitions(n):
            assert parse_partition(str(lam)) == lam


@given(partitions())
def test_conjugate_is_an_involution(lam):
    assert lam.conjugate().conjugate() == lam


def test_labels_survive_pickle_and_deepcopy():
    for label in (Partition(()), Partition((3, 1, 1)), GammaPartition((Partition((2, 1)), Partition(())))):
        for copied in (pickle.loads(pickle.dumps(label)), copy.deepcopy(label)):
            assert copied == label and type(copied) is type(label)


def _per_cell_hooks(lam):
    return tuple(sorted((lam.hook(r, c) for r, c in lam.cells()), reverse=True))


def test_hook_lengths_match_per_cell_hooks():
    # hook_lengths reads every hook off the conjugate in one pass;
    # Partition.hook counts each arm and leg on its own
    for n in range(13):
        for lam in enumerate_partitions(n):
            assert hook_lengths(lam) == _per_cell_hooks(lam)


@given(partitions())
def test_hook_multiset_size_and_sum(lam):
    hooks = hook_lengths(lam)
    assert len(hooks) == lam.size
    expected = lam.weighted_size() + lam.conjugate().weighted_size() + lam.size
    assert sum(hooks) == expected


@given(partitions())
def test_conjugate_weighted_size_from_binomials(lam):
    assert lam.conjugate().weighted_size() == sum(p * (p - 1) // 2 for p in lam.parts)


def test_hook_cache_serves_a_conjugate_pair_in_either_order():
    # from a cold cache, whichever of lambda and its transpose comes second
    # reads the hooks computed for the first: one hit in either order; a
    # self-conjugate shape takes the direct path, one miss and one hit
    for n in range(13):
        for lam in enumerate_partitions(n):
            mu = lam.conjugate()
            expected = _per_cell_hooks(lam)
            for first, second in ((mu, lam), (lam, mu)):
                partitions_module._hook_lengths.cache_clear()
                assert hook_lengths(first) == expected
                assert hook_lengths(second) == expected
                info = partitions_module._hook_lengths.cache_info()
                assert info.hits == 1
                assert info.misses == (1 if mu == lam else 2)
