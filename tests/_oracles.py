"""Dense oracles shared by the test modules, kept out of the package."""

from collections import Counter

from cmkostka.qpoly import LaurentPoly, NonExactDivision


def one_minus_quotient(tops, bottoms):
    """prod over t in tops of (1 - q^t), divided exactly by prod over b in
    bottoms of (1 - q^b), or raise NonExactDivision.

    Factors shared by the two multisets cancel first.  The rest is integer
    arithmetic on a dense coefficient list: multiplying by 1 - q^t is
    c[k] -= c[k-t], and dividing by 1 - q^b is c[k] += c[k-b] in increasing k,
    which is exact when the top b coefficients then vanish.
    """
    count = Counter(tops)
    count.subtract(bottoms)
    if any(e < 1 for e in count):
        raise ValueError(f"exponents must be positive, got {sorted(count)}")
    coeffs = [1] + [0] * sum(e * m for e, m in count.items() if m > 0)
    deg = 0
    for t in count.elements():
        deg += t
        for k in range(deg, t - 1, -1):
            coeffs[k] -= coeffs[k - t]
    for b, m in count.items():
        for _ in range(-m):
            for k in range(b, deg + 1):
                coeffs[k] += coeffs[k - b]
            left = {k: coeffs[k] for k in range(max(deg - b + 1, 0), deg + 1) if coeffs[k]}
            if left:
                raise NonExactDivision(f"1 - q^{b} leaves remainder with exponents {sorted(left)}", left)
            deg -= b
    return LaurentPoly({k: c for k, c in enumerate(coeffs[: deg + 1]) if c})
