"""Exact Laurent polynomials in one variable q with integer coefficients.

Coefficients are Python ints (arbitrary precision), stored sparsely as an
exponent -> coefficient map with no zero entries, for every operation.  A
product is the schoolbook double loop over the terms.  Division is exact or
it raises; there is no floating point anywhere.  The q-factorials and the
q-multinomials are each built once, in bounded caches read only after
operator.index has validated the arguments.
"""

from fractions import Fraction
from functools import lru_cache
from operator import index
from types import MappingProxyType


class NonExactDivision(ArithmeticError):
    """Division left a nonzero remainder or a non-integer quotient.

    remainder holds the offending remainder as an exponent -> coefficient map
    (empty when the failure is a fractional quotient).
    """

    def __init__(self, message, remainder):
        super().__init__(message)
        self.remainder = dict(remainder)


class LaurentPoly:
    """Sparse Laurent polynomial over the integers, immutable: coeffs is a
    read-only exponent -> coefficient mapping."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for exp, c in coeffs.items():
                c = index(c)
                if c != 0:
                    clean[index(exp)] = c
        object.__setattr__(self, "coeffs", MappingProxyType(clean))

    @staticmethod
    def _from_ints(coeffs):
        """The polynomial holding coeffs, an exponent -> int map with no zero
        values, taken as it is: no copy and no validation."""
        poly = object.__new__(LaurentPoly)
        object.__setattr__(poly, "coeffs", MappingProxyType(coeffs))
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not by setting slots
        return LaurentPoly, (self.coeffs.copy(),)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = self.coeffs.copy()
        for exp, c in other.coeffs.items():
            s = out.get(exp, 0) + c
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
        return LaurentPoly(out)

    def __mul__(self, other):
        """The product, by the schoolbook double loop over the terms; stored
        sparsely, like its factors."""
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return LaurentPoly._from_ints(out)

    def min_exponent(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self.coeffs)

    def max_exponent(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self.coeffs)

    def truncated(self, order):
        """Drop all terms with exponent > order."""
        order = index(order)
        return LaurentPoly({e: c for e, c in self.coeffs.items() if e <= order})

    def is_palindromic(self):
        """Fixed by q -> 1/q."""
        return self == substitute_inverse(self)

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for exp in sorted(self.coeffs):
            c = self.coeffs[exp]
            mag = abs(c)
            if exp == 0:
                body = str(mag)
            elif exp == 1:
                body = "q" if mag == 1 else f"{mag}*q"
            else:
                body = f"q^{exp}" if mag == 1 else f"{mag}*q^{exp}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"LaurentPoly({self.coeffs.copy()!r})"

    def to_json_dict(self):
        """Exponents and coefficients as decimal strings, ascending exponent order."""
        return {str(e): str(self.coeffs[e]) for e in sorted(self.coeffs)}


# The q-factorial and q-multinomial caches below are bounded, and each
# public function validates its arguments with operator.index before the
# lookup, so 2.0 or Fraction(2) raises TypeError on a warm cache as on a
# cold one rather than hitting the entry for 2.


def one_minus_q(k):
    """1 - q^k; the zero polynomial for k = 0."""
    k = index(k)
    return LaurentPoly._from_ints({0: 1, k: -1} if k else {})


def qfactorial_product(n):
    """(1-q)(1-q^2)...(1-q^n); the empty product for n = 0."""
    n = index(n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _qfactorial_product(n)


@lru_cache(maxsize=64)
def _qfactorial_product(n):
    result = LaurentPoly({0: 1})
    for i in range(1, n + 1):
        result = result * one_minus_q(i)
    return result


def exact_divide(a, b):
    """The Laurent polynomial c with a = b * c, or raise NonExactDivision.

    Both operands are normalized by their minimal exponents and the division
    is classical long division on a dense coefficient list of the dividend,
    walking its degrees downward: the quotient term at position k clears the
    dividend's coefficient at k + deg b.  When the divisor's leading
    coefficient is 1 or -1 every step stays in the integers; any other
    divisor runs the same walk over the rationals.  A remainder is reported
    before a non-integer quotient, and the exponent offset is restored at
    the end.
    """
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return LaurentPoly()
    a_min, b_min = a.min_exponent(), b.min_exponent()
    num = [0] * (a.max_exponent() - a_min + 1)
    for e, c in a.coeffs.items():
        num[e - a_min] = c
    den = [(e - b_min, c) for e, c in b.coeffs.items()]
    deg_den = b.max_exponent() - b_min
    lead = b.coeffs[b_min + deg_den]
    unit = lead in (1, -1)
    quotient = {}
    for pos in range(len(num) - 1 - deg_den, -1, -1):
        c = num[pos + deg_den]
        if c:
            # c / lead: for lead = +1 or -1 that is c * lead, an integer
            factor = quotient[pos] = c * lead if unit else Fraction(c, lead)
            for e, d in den:
                num[e + pos] -= factor * d
    remainder = {e: c for e, c in enumerate(num[:deg_den]) if c}
    if remainder:
        raise NonExactDivision(
            f"division left remainder with exponents {sorted(remainder)}", remainder
        )
    if any(c.denominator != 1 for c in quotient.values()):
        raise NonExactDivision("quotient has non-integer coefficients", {})
    shift = a_min - b_min
    return LaurentPoly({e + shift: int(c) for e, c in quotient.items()})


def substitute_inverse(a):
    """Replace q by 1/q: negate every exponent."""
    return LaurentPoly._from_ints({-e: c for e, c in a.coeffs.items()})


def evaluate_at_one(a):
    """Value at q = 1: the sum of all coefficients."""
    return sum(a.coeffs.values())


def qmultinomial(n, sizes):
    """Gaussian multinomial coefficient as a genuine polynomial.

    Equals qfactorial_product(n) divided by the product of component
    qfactorial_products; the sizes must be nonnegative and sum to n.  The
    result depends only on the multiset of sizes, and is cached on it.
    """
    n = index(n)
    key = tuple(sorted(map(index, sizes)))
    if key and key[0] < 0:
        raise ValueError(f"sizes {sizes} must be nonnegative")
    if sum(key) != n:
        raise ValueError(f"sizes {sizes} do not sum to {n}")
    return _qmultinomial(key)


@lru_cache(maxsize=1024)
def _qmultinomial(sizes):
    den = LaurentPoly({0: 1})
    for s in sizes:
        den = den * _qfactorial_product(s)
    return exact_divide(_qfactorial_product(sum(sizes)), den)


def geometric_product_series(exponents, order):
    """Truncation of prod over e of 1/(1 - q^e) through q^order.

    Every e must be positive; the result is an ordinary polynomial holding the
    coefficients of the formal power series up to the given order.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs = [1] + [0] * order
    for e in exponents:
        if e < 1:
            raise ValueError(f"geometric factors need positive exponents, got {e}")
        # multiply by 1/(1 - q^e): c[k] += c[k - e] in increasing k
        for k in range(e, order + 1):
            coeffs[k] += coeffs[k - e]
    return LaurentPoly(dict(enumerate(coeffs)))
