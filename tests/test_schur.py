"""Expansion of powers of the first power sum, plain and wreath."""

from math import factorial

import pytest

from cmkostka.partitions import (
    BoundExceeded,
    GammaPartition,
    Partition,
    enumerate_gamma_partitions,
    enumerate_partitions,
)
from cmkostka.schur import expand_p1n, expand_p1n_wreath, multiplicity_identity_check


def _pieri_expansion(start, successors, n):
    """Reference: apply n Pieri steps to the label start, with no level shared between calls."""
    coeffs = {start: 1}
    for _ in range(n):
        nxt = {}
        get = nxt.get
        for label, m in coeffs.items():
            for mu in successors(label):
                nxt[mu] = get(mu, 0) + m
        coeffs = nxt
    return coeffs


def _wreath_successors(gp):
    # through the checking constructor, not the package's unchecked builder
    slots = gp.components
    return [GammaPartition(slots[:chi] + (mu,) + slots[chi + 1:]) for chi, part in enumerate(slots) for mu in part.grow()]


def test_expansions_match_the_step_by_step_reference():
    for n in range(1, 9):
        coefficients = expand_p1n(n).coefficients
        assert coefficients == _pieri_expansion(Partition(()), Partition.grow, n)
        assert set(coefficients) == set(enumerate_partitions(n))
    for N, top in ((1, 5), (2, 5), (3, 5), (4, 4)):
        start = GammaPartition((Partition(()),) * N)
        for n in range(1, top + 1):
            assert expand_p1n_wreath(N, n).coefficients == _pieri_expansion(start, _wreath_successors, n)


def test_expansions_hand_out_fresh_coefficients():
    for expand, args in ((expand_p1n, (4,)), (expand_p1n_wreath, (2, 3))):
        first = expand(*args)
        expected = dict(first.coefficients)
        for label in list(first.coefficients):
            first.coefficients[label] += 7
        first.coefficients.clear()
        assert expand(*args).coefficients == expected
    # a lower level is shared by the next one up, and its copies stay untouched too
    expand_p1n(5).coefficients.clear()
    assert expand_p1n(6).sum_of_squares() == factorial(6)


def test_expansion_counts_are_ints():
    for N in (2.0, 2.5):
        with pytest.raises(TypeError):
            expand_p1n_wreath(N, 2)
    for n in (2.0, 2.5):
        with pytest.raises(TypeError):
            expand_p1n(n)
        with pytest.raises(TypeError):
            expand_p1n_wreath(2, n)


def test_expand_three_golden():
    expansion = expand_p1n(3)
    got = {lam.parts: m for lam, m in expansion.coefficients.items()}
    assert got == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}


def test_expand_one_and_bad_input():
    assert expand_p1n(1).coefficients == {Partition((1,)): 1}
    with pytest.raises(ValueError):
        expand_p1n(0)


def test_staircase_coefficient_in_sixth_power():
    expansion = expand_p1n(6)
    assert expansion.coefficients[Partition((3, 2, 1))] == 16


def test_wreath_expansion_golden():
    expansion = expand_p1n_wreath(2, 2)
    got = {str(gp): m for gp, m in expansion.coefficients.items()}
    assert got == {"2;-": 1, "1,1;-": 1, "1;1": 2, "-;2": 1, "-;1,1": 1}


def test_wreath_coefficients_cover_all_labels():
    for N in (2, 3):
        for n in (1, 2, 3):
            expansion = expand_p1n_wreath(N, n)
            assert set(expansion.coefficients) == set(enumerate_gamma_partitions(N, n))


def test_wreath_bad_input():
    with pytest.raises(ValueError):
        expand_p1n_wreath(0, 2)
    with pytest.raises(ValueError):
        expand_p1n_wreath(2, 0)


def test_multiplicity_identity_check_enforces_bounds():
    # the cap is (4, 6): one past it on either side raises BoundExceeded,
    # which callers that catch ValueError still catch
    assert issubclass(BoundExceeded, ValueError)
    for N, n in ((5, 2), (2, 7), (5, 7), (5, 0), (1, 7)):
        with pytest.raises(BoundExceeded, match=rf"^bounds exceeded: N={N} n={n} beyond \(4, 6\)$"):
            multiplicity_identity_check(N, n)
    assert multiplicity_identity_check(4, 6) and multiplicity_identity_check(1, 6)
    # within the bounds, a count that is not an int is refused, not coerced
    for N, n in ((2.0, 3), (2, 3.0)):
        with pytest.raises(TypeError):
            multiplicity_identity_check(N, n)


def test_wreath_single_component_matches_plain():
    plain = expand_p1n(5)
    wreath = expand_p1n_wreath(1, 5)
    as_plain = {gp.components[0]: m for gp, m in wreath.coefficients.items()}
    assert as_plain == plain.coefficients
