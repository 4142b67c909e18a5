"""Laurent polynomial ring, exact division, and the canonical renderings."""

import copy
import pickle
import time
from fractions import Fraction
from math import gcd, prod

import pytest
from _oracles import one_minus_quotient
from hypothesis import example, given
from hypothesis import strategies as st

from cmkostka import qpoly
from cmkostka.qpoly import (
    LaurentPoly,
    NonExactDivision,
    evaluate_at_one,
    exact_divide,
    geometric_product_series,
    one_minus_q,
    qfactorial_product,
    qmultinomial,
    substitute_inverse,
)

laurent_polys = st.builds(
    LaurentPoly,
    st.dictionaries(
        st.integers(min_value=-8, max_value=8),
        st.integers(min_value=-9, max_value=9),
        max_size=6,
    ),
)


def test_zero_one_term():
    assert not LaurentPoly()
    assert not LaurentPoly({})
    assert not LaurentPoly({1: 0})
    assert LaurentPoly({0: 1}).coeffs == {0: 1}
    assert LaurentPoly({-2: 3, 5: 0}).coeffs == {-2: 3}


def test_immutability():
    p = LaurentPoly({0: 1})
    with pytest.raises(AttributeError):
        p.coeffs = {}


@pytest.mark.parametrize("build", [lambda: LaurentPoly({0: 1, 2: -3}), lambda: one_minus_q(2) * one_minus_q(1)])
def test_coefficients_are_read_only(build):
    # both builders, the validating constructor and the trusted product path,
    # hand out a read-only view of the exponent -> coefficient map
    p = build()
    before = dict(p.coeffs)
    with pytest.raises(TypeError):
        p.coeffs[5] = 9
    with pytest.raises(TypeError):
        del p.coeffs[0]
    with pytest.raises(AttributeError):
        p.coeffs.clear()
    assert p.coeffs == before and before == p.coeffs
    assert p == LaurentPoly(before) and hash(p) == hash(LaurentPoly(before))
    for copied in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert copied == p and dict(copied.coeffs) == before
    assert repr(p) == f"LaurentPoly({before!r})"


@given(laurent_polys)
def test_pickle_and_deepcopy_round_trip(a):
    for copied in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert copied == a and copied.coeffs is not a.coeffs


def test_addition_cancels():
    p = LaurentPoly({0: 1, 1: 2})
    q = LaurentPoly({1: -2, 3: 4})
    assert (p + q).coeffs == {0: 1, 3: 4}
    assert not p + LaurentPoly({0: -1, 1: -2})


def test_multiplication_golden():
    one_plus_q = LaurentPoly({0: 1, 1: 1})
    assert (one_plus_q * one_minus_q(1)).coeffs == {0: 1, 2: -1}
    assert (one_plus_q * one_plus_q).coeffs == {0: 1, 1: 2, 2: 1}
    assert one_plus_q * LaurentPoly({0: 1}) == one_plus_q


def _dense_convolution(a, b):
    """a * b as an exponent map, by convolving dense coefficient lists: each
    factor is q^low times a polynomial in q^g, g the gcd of the exponent gaps
    of both factors, and the two lists of that polynomial's coefficients are
    convolved.  Shares no code with LaurentPoly.__mul__."""
    if not a or not b:
        return {}
    a_low, b_low = a.min_exponent(), b.min_exponent()
    g = gcd(*(e - a_low for e in a.coeffs), *(e - b_low for e in b.coeffs)) or 1
    xs, ys = ([p.coeffs.get(low + g * i, 0) for i in range((p.max_exponent() - low) // g + 1)]
              for p, low in ((a, a_low), (b, b_low)))
    out = [0] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i + j] += x * y
    return {a_low + b_low + g * k: c for k, c in enumerate(out) if c}


def _assert_product_matches_oracle(a, b):
    product = a * b
    expected = LaurentPoly(_dense_convolution(a, b))
    assert product == expected
    assert hash(product) == hash(expected)
    assert all(type(c) is int and c != 0 for c in product.coeffs.values())
    return product


def _dense(n, start=0, coeff=lambda i: i + 1):
    """n consecutive terms from q^start."""
    return LaurentPoly({start + i: coeff(i) for i in range(n)})


@pytest.mark.parametrize("k", [1, 5, 8, 9, 30])
def test_product_cancellation(k):
    run = LaurentPoly({i: 1 for i in range(k + 1)})
    assert _assert_product_matches_oracle(run, one_minus_q(1)) == LaurentPoly({0: 1, k + 1: -1})
    # the product keeps only 1 - q^(k+1) times c
    c = _dense(12)
    product = _assert_product_matches_oracle(run, one_minus_q(1) * c)
    assert product == c + c * LaurentPoly({k + 1: -1})


@pytest.mark.parametrize("t", [9, 12, 31])
@pytest.mark.parametrize("m", [2**5 - 1, 2**5, 2**64 - 1, 2**64, 10**40], ids=["2^5-1", "2^5", "2^64-1", "2^64", "10^40"])
def test_product_coefficient_bound_is_tight(t, m):
    # the middle coefficient t * m^2 is exactly min(terms) * max|a| * max|b|
    a = LaurentPoly({i: m for i in range(t)})
    assert _assert_product_matches_oracle(a, a).coeffs[t - 1] == t * m * m
    negated = LaurentPoly({i: -m for i in range(t)})
    assert _assert_product_matches_oracle(negated, a).coeffs[t - 1] == -t * m * m


wide_laurent_polys = st.builds(
    LaurentPoly,
    st.dictionaries(
        st.integers(min_value=-20, max_value=60),
        st.one_of(st.integers(min_value=-3, max_value=3), st.integers(min_value=-(10**40), max_value=10**40)),
        max_size=40,
    ),
)


@given(wide_laurent_polys, wide_laurent_polys)
@example(LaurentPoly(), _dense(30))
@example(LaurentPoly({3: -7}), _dense(30))
@example(_dense(9), _dense(9, start=-5, coeff=lambda i: (-1) ** i * 10**30))
def test_product_matches_schoolbook_oracle(a, b):
    _assert_product_matches_oracle(a, b)
    _assert_product_matches_oracle(b, a)


def test_sparse_wide_product_takes_the_schoolbook_path():
    # twenty terms each, 10^5 apart: the double loop visits the 400 term
    # pairs and never walks the two-million-wide exponent span
    a = LaurentPoly({10**5 * i: (-1) ** i * (i + 1) for i in range(20)})
    b = LaurentPoly({10**5 * i - 7: 3 * i + 1 for i in range(20)})
    start = time.perf_counter()
    _assert_product_matches_oracle(a, b)
    _assert_product_matches_oracle(b, a)
    assert time.perf_counter() - start < 1.0


def test_shift_truncate_exponents():
    p = LaurentPoly({-1: 1, 2: 3})
    assert (p * LaurentPoly({2: 1})).coeffs == {1: 1, 4: 3}
    assert p.truncated(1).coeffs == {-1: 1}
    assert p.min_exponent() == -1 and p.max_exponent() == 2
    for extreme in (LaurentPoly().min_exponent, LaurentPoly().max_exponent):
        with pytest.raises(ValueError, match="zero polynomial has no exponents"):
            extreme()


def test_qfactorial_product_golden():
    assert qfactorial_product(0) == LaurentPoly({0: 1})
    assert qfactorial_product(3).coeffs == {0: 1, 1: -1, 2: -1, 4: 1, 5: 1, 6: -1}
    with pytest.raises(ValueError):
        qfactorial_product(-1)


def test_one_minus_q_edge_cases():
    assert not one_minus_q(0)
    assert one_minus_q(-2) == LaurentPoly({0: 1, -2: -1})
    assert one_minus_q(2) == LaurentPoly({0: 1, 2: -1})
    # warm cache: an inexact argument equal to a cached key is still refused
    for k in (2.0, Fraction(2)):
        with pytest.raises(TypeError):
            one_minus_q(k)


def test_qfactorial_and_qmultinomial_validate_on_a_warm_cache():
    qfactorial_product(3)
    qmultinomial(3, [1, 2])
    for call in (lambda: qfactorial_product(3.0), lambda: qfactorial_product(Fraction(3)),
                 lambda: qmultinomial(3, [1.0, 2]), lambda: qmultinomial(Fraction(3), [1, 2])):
        with pytest.raises(TypeError):
            call()
    for call in (lambda: qfactorial_product(-1), lambda: qmultinomial(-1, [-1]),
                 lambda: qmultinomial(3, [4, -1]), lambda: qmultinomial(3, [1, 1]),
                 lambda: qmultinomial(3, [])):
        with pytest.raises(ValueError):
            call()


def _fresh_qfactorial(n):
    """(1-q)...(1-q^n) built from new factors, bypassing every cache."""
    return prod((LaurentPoly({0: 1, i: -1}) for i in range(1, n + 1)), start=LaurentPoly({0: 1}))


def _weak_compositions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _weak_compositions(n - first, parts - 1):
            yield (first,) + rest


@pytest.mark.parametrize("cache", ["cold", "warm"])
def test_cached_q_factorials_and_multinomials_match_fresh_products(cache):
    if cache == "cold":
        for cached in (qpoly._qfactorial_product, qpoly._qmultinomial):
            cached.cache_clear()
    for n in range(11):
        assert qfactorial_product(n) == _fresh_qfactorial(n)
        for parts in (1, 2, 3):
            for sizes in _weak_compositions(n, parts):
                den = prod(map(_fresh_qfactorial, sizes), start=LaurentPoly({0: 1}))
                assert qmultinomial(n, sizes) == exact_divide(_fresh_qfactorial(n), den)
                assert qmultinomial(n, list(sizes)) == qmultinomial(n, sizes[::-1])
    assert qpoly._qmultinomial.cache_info().hits > 0


def test_rendering_golden():
    assert str(LaurentPoly({-1: 1, 0: 2, 1: 1})) == "q^-1 + 2 + q"
    assert str(LaurentPoly()) == "0"
    assert str(LaurentPoly({0: 1, 1: -1})) == "1 - q"
    assert str(LaurentPoly({2: -1})) == "-q^2"
    assert str(LaurentPoly({0: -2, 2: 3})) == "-2 + 3*q^2"
    assert str(LaurentPoly({1: 1})) == "q"


def test_json_dict_round_trip_and_order():
    p = LaurentPoly({3: 5, -2: -7, 0: 1})
    data = p.to_json_dict()
    assert list(data.keys()) == ["-2", "0", "3"]
    assert data == {"-2": "-7", "0": "1", "3": "5"}
    assert LaurentPoly({int(e): int(c) for e, c in data.items()}) == p


def test_exact_divide_golden():
    num = one_minus_q(3)
    assert exact_divide(num, one_minus_q(1)).coeffs == {0: 1, 1: 1, 2: 1}
    assert not exact_divide(LaurentPoly(), num)


def test_exact_divide_with_laurent_shift():
    a = one_minus_q(3) * LaurentPoly({-2: 1})
    b = one_minus_q(1) * LaurentPoly({1: 1})
    assert exact_divide(a, b).coeffs == {-3: 1, -2: 1, -1: 1}


def test_exact_divide_failures():
    with pytest.raises(NonExactDivision) as err:
        exact_divide(one_minus_q(3), one_minus_q(2))
    assert err.value.remainder
    with pytest.raises(ZeroDivisionError):
        exact_divide(LaurentPoly({0: 1}), LaurentPoly())


def test_non_integer_quotient_is_rejected():
    with pytest.raises(NonExactDivision):
        exact_divide(LaurentPoly({0: 1}), LaurentPoly({0: 2}))


def _fraction_exact_divide(a, b):
    """Long division over the rationals on exponent maps, highest term first
    by max(): the earlier exact_divide, kept as an oracle for the dense walk."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return LaurentPoly()
    shift = a.min_exponent() - b.min_exponent()
    num = {e - a.min_exponent(): Fraction(c) for e, c in a.coeffs.items()}
    den = {e - b.min_exponent(): Fraction(c) for e, c in b.coeffs.items()}
    deg_den = max(den)
    lead_den = den[deg_den]
    quotient = {}
    while num:
        deg_num = max(num)
        if deg_num < deg_den:
            break
        factor = num[deg_num] / lead_den
        pos = deg_num - deg_den
        quotient[pos] = factor
        for e, c in den.items():
            tgt = e + pos
            s = num.get(tgt, Fraction(0)) - factor * c
            if s == 0:
                num.pop(tgt, None)
            else:
                num[tgt] = s
    if num:
        raise NonExactDivision(f"division left remainder with exponents {sorted(num)}", num)
    if any(c.denominator != 1 for c in quotient.values()):
        raise NonExactDivision("quotient has non-integer coefficients", {})
    return LaurentPoly({e + shift: int(c) for e, c in quotient.items()})


def _division_outcome(divide, a, b):
    """The quotient, or the failure's class ("remainder" or "non-integer
    quotient"), message and remainder map."""
    try:
        return divide(a, b)
    except NonExactDivision as err:
        kind = "remainder" if err.remainder else "non-integer quotient"
        return kind, str(err), err.remainder


def test_exact_divide_failure_classes_are_pinned():
    # (q^2 + 1) / (2q + 1) leaves 5/4 at q^0; 1 / 2 divides with no remainder
    # but not over the integers.
    a, b = LaurentPoly({0: 1, 2: 1}), LaurentPoly({0: 1, 1: 2})
    assert _division_outcome(exact_divide, a, b) == (
        "remainder",
        "division left remainder with exponents [0]",
        {0: Fraction(5, 4)},
    )
    half = (LaurentPoly({0: 1}), LaurentPoly({0: 2}))
    assert _division_outcome(exact_divide, *half) == (
        "non-integer quotient",
        "quotient has non-integer coefficients",
        {},
    )
    for pair in ((a, b), half):
        assert _division_outcome(exact_divide, *pair) == _division_outcome(_fraction_exact_divide, *pair)


def _with_leading(poly, lead):
    """poly with its top coefficient replaced by lead (the monomial lead if poly is zero)."""
    coeffs = dict(poly.coeffs) or {0: 0}
    coeffs[max(coeffs)] = lead
    return LaurentPoly(coeffs)


@given(laurent_polys, laurent_polys, st.sampled_from([1, -1, 2, -3, 4]))
def test_exact_divide_matches_fraction_oracle_on_exact_quotients(a, b, lead):
    b = _with_leading(b, lead)
    assert exact_divide(a * b, b) == _fraction_exact_divide(a * b, b) == a


@given(laurent_polys, laurent_polys, st.sampled_from([1, -1, 2, -3, 4]))
def test_exact_divide_fails_like_fraction_oracle(a, b, lead):
    b = _with_leading(b, lead)
    assert _division_outcome(exact_divide, a, b) == _division_outcome(_fraction_exact_divide, a, b)


def test_exact_divide_agrees_with_oracle_on_q_multinomial_divisions():
    for n in range(9):
        top = qfactorial_product(n)
        for lam in range(n + 1):
            den = qfactorial_product(lam) * qfactorial_product(n - lam)
            assert exact_divide(top, den) == _fraction_exact_divide(top, den)
        den = qfactorial_product(n + 1)
        assert _division_outcome(exact_divide, top, den) == _division_outcome(_fraction_exact_divide, top, den)


def test_non_integers_are_rejected_not_coerced():
    with pytest.raises(TypeError):
        LaurentPoly({0: Fraction(1, 2)})
    with pytest.raises(TypeError):
        LaurentPoly({1.9: 3})
    with pytest.raises(TypeError):
        LaurentPoly({0: 2.0})


def test_one_minus_quotient_golden():
    assert one_minus_quotient([], []) == LaurentPoly({0: 1})
    assert one_minus_quotient([1, 2, 3], [1, 2, 3]) == LaurentPoly({0: 1})
    assert one_minus_quotient([3], [1]).coeffs == {0: 1, 1: 1, 2: 1}
    assert one_minus_quotient([2], []) == one_minus_q(2)
    # Gaussian binomial [4 choose 2]
    assert one_minus_quotient([1, 2, 3, 4], [1, 2, 1, 2]).coeffs == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}


def test_one_minus_quotient_drops_zero_coefficients():
    # (1 - q^2)(1 - q^3): the q^1 and q^4 coefficients are zero
    assert one_minus_quotient([2, 3], []).coeffs == {0: 1, 2: -1, 3: -1, 5: 1}


def test_one_minus_quotient_rejects_non_exact_division():
    with pytest.raises(NonExactDivision) as err:
        one_minus_quotient([1, 2, 3], [3, 2, 2])
    assert err.value.remainder
    with pytest.raises(NonExactDivision):
        one_minus_quotient([], [1])
    with pytest.raises(ValueError):
        one_minus_quotient([0], [])


@given(
    st.lists(st.integers(min_value=1, max_value=6), max_size=5),
    st.lists(st.integers(min_value=1, max_value=6), max_size=5),
)
def test_one_minus_quotient_matches_long_division(tops, bottoms):
    num = prod(map(one_minus_q, tops), start=LaurentPoly({0: 1}))
    den = prod(map(one_minus_q, bottoms), start=LaurentPoly({0: 1}))
    try:
        expected = exact_divide(num, den)
    except NonExactDivision:
        with pytest.raises(NonExactDivision):
            one_minus_quotient(tops, bottoms)
    else:
        assert one_minus_quotient(tops, bottoms) == expected


def test_substitute_inverse_and_palindromes():
    p = LaurentPoly({-1: 1, 0: 2, 1: 1})
    assert substitute_inverse(p) == p
    assert p.is_palindromic()
    assert not one_minus_q(1).is_palindromic()


def test_evaluate_at_one():
    assert evaluate_at_one(LaurentPoly({-3: 2, 5: 4})) == 6
    assert evaluate_at_one(LaurentPoly()) == 0


def test_qmultinomial_golden():
    assert qmultinomial(2, (1, 1)).coeffs == {0: 1, 1: 1}
    assert qmultinomial(4, (2, 2)).coeffs == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
    assert qmultinomial(3, (3,)) == LaurentPoly({0: 1})
    with pytest.raises(ValueError):
        qmultinomial(3, (1, 1))


def test_qmultinomial_value_at_one_is_multinomial():
    assert evaluate_at_one(qmultinomial(6, (3, 2, 1))) == 60


def test_geometric_product_series_golden():
    ones = geometric_product_series((1,), 5)
    assert ones.coeffs == {k: 1 for k in range(6)}
    two_parts = geometric_product_series((1, 2), 4)
    assert two_parts.coeffs == {0: 1, 1: 1, 2: 2, 3: 2, 4: 3}
    with pytest.raises(ValueError):
        geometric_product_series((0,), 3)
    with pytest.raises(ValueError):
        geometric_product_series((1,), -1)


@given(st.lists(st.integers(min_value=1, max_value=7), max_size=6), st.integers(min_value=0, max_value=20))
def test_geometric_product_series_inverts_the_factors(exponents, order):
    factors = prod(map(one_minus_q, exponents), start=LaurentPoly({0: 1}))
    assert (geometric_product_series(exponents, order) * factors).truncated(order) == LaurentPoly({0: 1})


def test_truncated_refuses_an_inexact_order():
    with pytest.raises(TypeError):
        LaurentPoly({0: 1, 1: 1}).truncated(0.5)


@given(laurent_polys, laurent_polys)
def test_ring_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(laurent_polys, laurent_polys, laurent_polys)
def test_ring_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(laurent_polys, laurent_polys)
def test_division_recovers_factor(a, b):
    if not b:
        return
    assert exact_divide(a * b, b) == a


@given(laurent_polys)
def test_inverse_substitution_is_involutive(a):
    assert substitute_inverse(substitute_inverse(a)) == a


@given(wide_laurent_polys)
def test_inverse_substitution_is_canonical(a):
    inverse = substitute_inverse(a)
    assert inverse.coeffs == {-e: c for e, c in a.coeffs.items()}
    assert 0 not in inverse.coeffs.values()


@given(laurent_polys, laurent_polys)
def test_inverse_substitution_is_a_ring_map(a, b):
    assert substitute_inverse(a * b) == substitute_inverse(a) * substitute_inverse(b)
    assert substitute_inverse(a + b) == substitute_inverse(a) + substitute_inverse(b)


@given(laurent_polys, laurent_polys)
def test_evaluation_at_one_is_a_ring_map(a, b):
    assert evaluate_at_one(a * b) == evaluate_at_one(a) * evaluate_at_one(b)
    assert evaluate_at_one(a + b) == evaluate_at_one(a) + evaluate_at_one(b)
