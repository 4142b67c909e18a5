"""Kostka polynomials, their wreath generalization, and torus weight data.

The normalization used throughout: K has constant term 1, and the weight of
the line spanned by z^a under the contracting torus action is -a.

The hook formula sees only a label's hook multiset, so everything here is
keyed on _hook_key's multiset and held in two bounded caches.
_hook_kostka holds the Kostka polynomial with the integer word it is read
from; kostka and kostka_wreath read it.  _hook_character holds the
(kostka, character, dimension) payload of a report, built from the first
cache's entry; only character reads it.  Labels with one hook multiset
(conjugates, wreath labels that differ only in slot order) therefore
receive the same LaurentPoly objects, which are immutable.
"""

import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import factorial, prod

from .partitions import GammaPartition, Partition, hook_lengths
from .qpoly import LaurentPoly, NonExactDivision, geometric_product_series, qfactorial_product


@dataclass(frozen=True, slots=True)
class CharacterReport:
    """Kostka polynomial, fiber character, and dimension for one label.

    The character is kostka times its image under q -> 1/q, hence palindromic,
    and its value at q = 1 is the square of the dimension.  Frozen and
    slotted: a report has no __dict__ and takes no weak references.
    """

    label: object  # Partition or GammaPartition
    kostka: LaurentPoly
    character: LaurentPoly
    dimension: int


# The report's own slot descriptors, which _report sets directly in place
# of the frozen dataclass's __init__.
_set_label = CharacterReport.label.__set__
_set_kostka = CharacterReport.kostka.__set__
_set_character = CharacterReport.character.__set__
_set_dimension = CharacterReport.dimension.__set__


def _report(label, payload):
    """The CharacterReport of label over payload, a (kostka, character,
    dimension) triple: equal to CharacterReport(label, *payload)."""
    report = object.__new__(CharacterReport)
    _set_label(report, label)
    _set_kostka(report, payload[0])
    _set_character(report, payload[1])
    _set_dimension(report, payload[2])
    return report


def _hook_key(label):
    """The hook multiset as a decreasing tuple: all the hook formula sees of
    a label.  Its length, the hook count, is the label's size n.

    The hooks are those of the cells of a Partition, as hook_lengths returns
    them, or those of every component of a GammaPartition, the components'
    hook_lengths tuples joined and sorted once; anything else raises
    TypeError.
    """
    if isinstance(label, Partition):
        return hook_lengths(label)
    if isinstance(label, GammaPartition):
        hooks = []
        for component in label.components:
            hooks += hook_lengths(component)
        hooks.sort(reverse=True)
        return tuple(hooks)
    raise TypeError(f"expected Partition or GammaPartition, got {type(label).__name__}")


# to_bytes writes the words little-endian; memoryview.cast reads native order
_CAST_WORDS = sys.byteorder == "little"


@lru_cache(maxsize=1024)
def _repunit_word(m, bits):
    """The q-integer [m] = 1 + q + ... + q^(m-1) at q = 2^bits."""
    return ((1 << bits * m) - 1) // ((1 << bits) - 1)


@lru_cache(maxsize=64)
def _qfactorial_word(n, bits):
    """The q-factorial [n]! = [1][2]...[n] at q = 2^bits."""
    return prod(map(_repunit_word, range(2, n + 1), repeat(bits)))


def _words(value, bits, count):
    """The list of the count base-2^bits digits of the int value, lowest
    first, for 0 <= value < 2^(bits * count): one memoryview cast for
    bits = 64, else one int.from_bytes per digit."""
    raw = value.to_bytes(count * bits // 8, "little")
    if bits == 64 and _CAST_WORDS:
        return memoryview(raw).cast("Q").tolist()
    step = bits // 8
    return [int.from_bytes(raw[i : i + step], "little") for i in range(0, len(raw), step)]


def _poly(words, low):
    """The polynomial with coefficient words[i] at q^(low + i), zeros dropped."""
    coeffs = dict(zip(range(low, low + len(words)), words))
    if 0 in words:
        coeffs = {e: c for e, c in coeffs.items() if c}
    return LaurentPoly._from_ints(coeffs)


@lru_cache(maxsize=4096)
def _hook_kostka(hooks):
    """(kostka, word, bits, deg, d) for K = [n]! / prod over hooks h of [h],
    n the number of hooks and [m] = 1 + q + ... + q^(m-1), with
    word = K(2^bits), or raise NonExactDivision when the word fails its
    certificate.  K is (1-q)...(1-q^n) / prod (1 - q^h), deg =
    n(n-1)/2 - sum (h - 1) is its degree and d = n! / prod h its value at 1.

    A multiset passes the guard when each hook is at least 1, d is an
    integer and deg >= 0.  bits is then the least multiple of 64 with
    2^bits > max(n!, d^2), which is 64 for every partition of n <= 20 and
    every label the CLI batch caps admit, and word is the quotient of one
    exact divmod of the cached [n]! word by the product of the cached [h]
    words.  That quotient has at most deg + 1 digits in base 2^bits: each
    coefficient of [n]! is at most n! < 2^bits, so with D = n(n-1)/2,
    [n]!(2^bits) < 2^(bits (D + 1)); each [h](2^bits) >= 2^(bits (h - 1));
    so the quotient is below 2^(bits (D + 1 - sum (h - 1))), which is
    2^(bits (deg + 1)).
    One _words call unpacks those deg + 1 digits, and the word is accepted
    only with a zero remainder and a digit sum equal to d.  Then the digits
    are the coefficients of a polynomial K with nonnegative coefficients and
    K(1) = d, so each coefficient of K * prod [h] is at most d * prod h =
    n! < 2^bits, as is each of [n]!.  Neither side carries at q = 2^bits and
    both take the value [n]!(2^bits) there, so K * prod [h] = [n]! as
    polynomials: K is the exact quotient, built from those same digits.

    Every label's hooks pass.  For a partition of n, K is the generating
    function of its standard tableaux by major index, shifted to constant
    term 1 (the q-hook length formula, Stanley, Enumerative Combinatorics 2,
    7.21.5): a polynomial with nonnegative coefficients summing to the
    tableau count d.  For a wreath label whose components have sizes
    n_1, ..., n_N, K is the q-multinomial [n]! / ([n_1]! ... [n_N]!), whose
    coefficients count words by inversions, times each component's own
    such quotient: again nonnegative, with value at 1 the multinomial times
    the components' tableau counts, which is d.  Each coefficient is then
    at most d < 2^bits, so the word's digits are K's coefficients and the
    certificate holds.  Other multisets can fail: 3,3,1,1 fails the guard,
    2,2,2,1 leaves a remainder, and 5,4,3,3,2,2 has the quotient
    1 - q + q^2, whose negative coefficient shows as borrowed digits.

    The character needs no further check: each coefficient of K^2 is at
    most K(1)^2 = d^2 < 2^bits, so the digits of word^2 are those of K^2.
    K is palindromic of degree deg, because each [m] is, so
    K(q) K(1/q) = q^-deg K(q)^2.
    """
    n = len(hooks)
    if min(hooks, default=1) >= 1:
        top = factorial(n)
        d, r = divmod(top, prod(hooks))
        deg = n * (n + 1) // 2 - sum(hooks)
        if not r and deg >= 0:
            bits = -(-max(top, d * d).bit_length() // 64) * 64
            word, r = divmod(_qfactorial_word(n, bits), prod(map(_repunit_word, hooks, repeat(bits))))
            if not r:
                digits = _words(word, bits, deg + 1)
                if sum(digits) == d:
                    return _poly(digits, 0), word, bits, deg, d
    raise NonExactDivision(f"hooks {hooks}: no label has these hooks; the word fails its certificate", {})


@lru_cache(maxsize=4096)
def _hook_character(hooks):
    # (kostka, character, dimension): the fields of a report after its label
    k, word, bits, deg, d = _hook_kostka(hooks)
    return k, _poly(_words(word * word, bits, 2 * deg + 1), -deg), d


def kostka(label):
    """Kostka polynomial of a label, normalized to constant term 1.

    (1-q)...(1-q^n) divided exactly by prod over cells of (1 - q^hook), with n
    the number of cells; a GammaPartition's cells are those of all its
    components.
    """
    return _hook_kostka(_hook_key(label))[0]


def kostka_wreath(gp):
    """Wreath Kostka polynomial of an N-tuple of partitions; the same formula as kostka."""
    return _hook_kostka(_hook_key(gp))[0]


def character(label):
    """Zero-fiber character report for a Partition or GammaPartition label.

    One hook key, one cache read and one report: the Kostka polynomial, the
    character and the dimension are held together per hook multiset in a
    bounded cache, so labels sharing a multiset (conjugates, slot-permuted
    wreath labels) receive the same immutable objects.  The report is built
    by _report, and equals CharacterReport(label, kostka, character,
    dimension).
    """
    return _report(label, _hook_character(_hook_key(label)))


def fixed_point_exponents(lam):
    """Monomial exponents spanning the torus-fixed subspace attached to the partition.

    With n the partition's size and its parts padded increasing to length n,
    the exponents are 2n - l_i - i for i = 1..n; they are n distinct values
    in [0, 2n-1].  Anything but a Partition raises TypeError.
    """
    if not isinstance(lam, Partition):
        raise TypeError(f"expected Partition, got {type(lam).__name__}")
    n = lam.size
    return {2 * n - l_i - i for i, l_i in enumerate(lam.padded_increasing(n), 1)}


def tangent_weights(lam):
    """Torus weights on the tangent space of the Schubert cell at its fixed point.

    One Hom line from each basis exponent a to every non-basis exponent b
    with a < b <= 2n-1, of weight a - b.  Returns the multiset as an
    increasing tuple of exactly n strictly negative integers.  Anything but
    a Partition raises TypeError.
    """
    basis = fixed_point_exponents(lam)
    n = lam.size
    return tuple(sorted(a - b for a in basis for b in range(a + 1, 2 * n) if b not in basis))


def completion_character_check(lam, order, hooks=None):
    """Check, through q^order, that the hook geometric series times
    (1-q)...(1-q^n) reproduces the Kostka polynomial.

    hooks overrides the diagram's hook multiset (forcing a failure is useful
    for exercising the reporting path); the genuine multiset always passes.
    Anything but a Partition raises TypeError.
    """
    if not isinstance(lam, Partition):
        raise TypeError(f"expected Partition, got {type(lam).__name__}")
    if order < 1:
        raise ValueError("order must be positive")
    if hooks is None:
        hooks = hook_lengths(lam)
    n = lam.size
    series = geometric_product_series(hooks, order)
    lhs = (series * qfactorial_product(n)).truncated(order)
    rhs = kostka(lam).truncated(order)
    return lhs == rhs
