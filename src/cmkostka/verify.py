"""One-shot verification suite: every module invariant as a named check.

Each check is a generator: it yields once per work item as it starts it,
returns a detail naming the offending label and both sides at the first
falsified identity, and returns nothing when every item holds.  The runner
_counted counts the yields, so each registry entry is an eager callable that
does all of the check's work and returns (items, detail), detail "" on a
pass.  _counted also sets the check's registry name on the limits it
passes, and a randomized check draws from lim.rng(), a private generator
seeded from the seed and that name, so results do not depend on execution
order and no check spells its own name.  A check that raises counts as
failed, with 0 items and the exception named in its detail.
"""

import operator
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import permutations
from math import factorial

from .characters import (
    _hook_kostka,
    character,
    completion_character_check,
    fixed_point_exponents,
    kostka,
    kostka_wreath,
    tangent_weights,
)
from .cm import (
    CMPointRegular,
    RationalMatrix,
    component_line,
    cstar_act,
    involution,
    monomial_subspace,
    poly_from_roots,
    poly_mul,
    schubert_profile,
    verify_cm,
    wilson_embed,
    wilson_representative,
)
from .partitions import (
    _SYT_ENUMERATION_BOUND,
    enumerate_gamma_partitions,
    enumerate_partitions,
    gamma_dimension,
    hook_lengths,
    major_index,
    standard_tableaux,
    syt_count,
    syt_enumerate,
)
from .qpoly import (
    LaurentPoly,
    evaluate_at_one,
    exact_divide,
    qmultinomial,
    substitute_inverse,
)
from .schur import _MAX_N, _MAX_n, expand_p1n, expand_p1n_wreath, multiplicity_identity_check


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check: item count and, on failure, what broke."""

    name: str
    passed: bool
    items: int
    detail: str = ""


@dataclass(frozen=True)
class _Limits:
    n: int | None
    N: int | None
    seed: int
    corrupt_hooks: bool
    name: str = ""  # the running check's registry name, set by _counted

    def cap_n(self, default):
        return default if self.n is None else min(default, self.n)

    def cap_N(self, default):
        return default if self.N is None else min(default, self.N)

    def rng(self):
        return random.Random(f"{self.seed}:{self.name}")


# Random matrix pairs drawn by each rank-one check.
_SAMPLES = 200


def _partitions_up_to(bound):
    for n in range(bound + 1):
        yield from enumerate_partitions(n)


def _check_hook_count_and_sum(lim):
    for lam in _partitions_up_to(lim.cap_n(10)):
        yield
        hooks = hook_lengths(lam)
        expected = lam.weighted_size() + lam.conjugate().weighted_size() + lam.size
        if len(hooks) != lam.size or sum(hooks) != expected:
            return f"lambda={lam}: hooks {hooks} vs size {lam.size}, sum {sum(hooks)} != {expected}"


def _cell_hooks(lam):
    """The hook multiset as a decreasing tuple, read cell by cell through
    Partition.hook.  A diagram and its transpose share one entry of the hook
    cache, so the conjugation checks take this side off the cache."""
    return tuple(sorted((lam.hook(r, c) for r, p in enumerate(lam.parts) for c in range(p)), reverse=True))


def _check_hook_conjugation(lim):
    """The conjugation oracle: each shape's cached hooks against its
    transpose's hooks read cell by cell."""
    for lam in _partitions_up_to(lim.cap_n(10)):
        yield
        hooks, transposed = hook_lengths(lam), _cell_hooks(lam.conjugate())
        if hooks != transposed:
            return f"lambda={lam}: hooks {hooks} != conjugate hooks {transposed}"


def _check_tableau_count_oracle(lim):
    for lam in _partitions_up_to(lim.cap_n(_SYT_ENUMERATION_BOUND)):
        yield
        formula = syt_count(lam)
        enumerated = syt_enumerate(lam)
        if formula != enumerated:
            return f"lambda={lam}: hook formula {formula} != corner recursion {enumerated}"


def _check_tableau_square_sum(lim):
    for n in range(lim.cap_n(10) + 1):
        yield
        total = sum(syt_count(lam) ** 2 for lam in enumerate_partitions(n))
        if total != factorial(n):
            return f"n={n}: sum of squared tableau counts {total} != {factorial(n)}"


def _check_wreath_order_sum(lim):
    for N in range(1, lim.cap_N(4) + 1):
        for n in range(lim.cap_n(6) + 1):
            yield
            total = sum(gamma_dimension(gp) ** 2 for gp in enumerate_gamma_partitions(N, n))
            expected = N**n * factorial(n)
            if total != expected:
                return f"N={N} n={n}: sum of squared dimensions {total} != {expected}"


def _random_laurent(rng, nonzero=False):
    while True:
        support = rng.sample(range(-6, 7), rng.randint(1, 4))
        poly = LaurentPoly({e: rng.randint(-5, 5) for e in support})
        if poly or not nonzero:
            return poly


def _check_division_round_trip(lim):
    rng = lim.rng()
    for _ in range(60):
        yield
        a = _random_laurent(rng)
        b = _random_laurent(rng, nonzero=True)
        if exact_divide(a * b, b) != a:
            return f"(a*b)/b != a for a = {a}, b = {b}"


def _check_inverse_substitution(lim):
    rng = lim.rng()
    for _ in range(60):
        yield
        a = _random_laurent(rng)
        b = _random_laurent(rng)
        if substitute_inverse(substitute_inverse(a)) != a:
            return f"double inversion changed {a}"
        if substitute_inverse(a * b) != substitute_inverse(a) * substitute_inverse(b):
            return f"inversion not multiplicative on a = {a}, b = {b}"
        if substitute_inverse(a + b) != substitute_inverse(a) + substitute_inverse(b):
            return f"inversion not additive on a = {a}, b = {b}"


def _check_evaluation_multiplicative(lim):
    rng = lim.rng()
    for _ in range(60):
        yield
        a = _random_laurent(rng)
        b = _random_laurent(rng)
        if evaluate_at_one(a * b) != evaluate_at_one(a) * evaluate_at_one(b):
            return f"value at 1 not multiplicative on a = {a}, b = {b}"


def _check_tangent_negated_hooks(lim):
    for lam in _partitions_up_to(lim.cap_n(8)):
        yield
        weights = tangent_weights(lam)
        negated = tuple(sorted(-h for h in hook_lengths(lam)))
        if weights != negated:
            return f"lambda={lam}: tangent weights {weights} != negated hooks {negated}"


def _check_tangent_sign_split(lim):
    for lam in _partitions_up_to(lim.cap_n(8)):
        yield
        weights = tangent_weights(lam)
        if any(w >= 0 for w in weights):
            return f"lambda={lam}: nonnegative tangent weight in {weights}"


def _check_kostka_normalization(lim):
    for lam in _partitions_up_to(lim.cap_n(10)):
        yield
        k = kostka(lam)
        if k.coeffs.get(0) != 1 or k.min_exponent() != 0:
            return f"lambda={lam}: constant term of {k} is not 1"
        if any(c < 0 for c in k.coeffs.values()):
            return f"lambda={lam}: negative coefficient in {k}"


def _check_kostka_dimension(lim):
    for lam in _partitions_up_to(lim.cap_n(10)):
        yield
        value = evaluate_at_one(kostka(lam))
        expected = syt_count(lam)
        if value != expected:
            return f"lambda={lam}: value at 1 is {value}, tableau count {expected}"


def _check_kostka_conjugation(lim):
    """The conjugate's polynomial is read under the key of its cell-by-cell
    hooks: one cache read when those agree with lambda's cached hooks."""
    for lam in _partitions_up_to(lim.cap_n(10)):
        yield
        mu = lam.conjugate()
        if kostka(lam) != _hook_kostka(_cell_hooks(mu))[0]:
            return f"lambda={lam}: polynomial differs from conjugate's"


def _check_kostka_major_index(lim):
    for lam in _partitions_up_to(lim.cap_n(7)):
        yield
        shift = lam.weighted_size()
        counts = {}
        for rows in standard_tableaux(lam):
            e = major_index(rows) - shift
            counts[e] = counts.get(e, 0) + 1
        oracle = LaurentPoly(counts)
        k = kostka(lam)
        if k != oracle:
            return f"lambda={lam}: {k} != major-index polynomial {oracle}"


def _check_wreath_kostka_factorization(lim):
    for N in range(1, lim.cap_N(3) + 1):
        for n in range(lim.cap_n(6) + 1):
            for gp in enumerate_gamma_partitions(N, n):
                yield
                sizes = [c.size for c in gp.components]
                product = qmultinomial(n, sizes)
                for comp in gp.components:
                    product = product * kostka(comp)
                whole = kostka_wreath(gp)
                if whole != product:
                    return f"Lambda={gp}: {whole} != factored form {product}"


def _check_character_palindrome_square(lim):
    for lam in _partitions_up_to(lim.cap_n(10)):
        yield
        report = character(lam)
        if not report.character.is_palindromic():
            return f"lambda={lam}: character {report.character} not palindromic"
        if evaluate_at_one(report.character) != report.dimension**2:
            return (
                f"lambda={lam}: character at 1 is {evaluate_at_one(report.character)},"
                f" dimension squared {report.dimension ** 2}"
            )


def _check_completion_series(lim):
    for lam in _partitions_up_to(lim.cap_n(6)):
        if lam.size == 0:
            continue
        yield
        order = 2 * lam.size + 6
        hooks = None
        if lim.corrupt_hooks:
            genuine = hook_lengths(lam)
            hooks = (genuine[0] + 1,) + genuine[1:]
        if not completion_character_check(lam, order, hooks=hooks):
            return (
                f"lambda={lam}: truncated hook series times the q-factorial"
                f" disagrees with the polynomial through order {order}"
            )


def _check_multiplicity_hook_oracle(lim):
    for n in range(1, lim.cap_n(8) + 1):
        expansion = expand_p1n(n)
        for lam in enumerate_partitions(n):
            yield
            m = expansion.coefficients.get(lam, 0)
            expected = syt_count(lam)
            if m != expected:
                return f"lambda={lam}: path count {m} != hook formula {expected}"


def _check_multiplicity_square_sum(lim):
    for n in range(1, lim.cap_n(8) + 1):
        yield
        total = expand_p1n(n).sum_of_squares()
        if total != factorial(n):
            return f"n={n}: sum of squared multiplicities {total} != {factorial(n)}"


def _check_wreath_multiplicity_square_sum(lim):
    for N in range(1, lim.cap_N(3) + 1):
        for n in range(1, lim.cap_n(5) + 1):
            yield
            total = expand_p1n_wreath(N, n).sum_of_squares()
            expected = N**n * factorial(n)
            if total != expected:
                return f"N={N} n={n}: sum of squared multiplicities {total} != {expected}"


def _check_wreath_slot_symmetry(lim):
    for N in range(2, lim.cap_N(3) + 1):
        for n in range(1, lim.cap_n(5) + 1):
            expansion = expand_p1n_wreath(N, n)
            for perm in permutations(range(N)):
                yield
                relabeled = {gp.permuted(perm): m for gp, m in expansion.coefficients.items()}
                if relabeled != expansion.coefficients:
                    return f"N={N} n={n}: slot permutation {perm} changed the expansion"


def _check_wreath_dimension_chain(lim):
    for N in range(1, lim.cap_N(_MAX_N) + 1):
        for n in range(lim.cap_n(_MAX_n) + 1):
            yield
            if not multiplicity_identity_check(N, n):
                return f"N={N} n={n}: dimension bookkeeping failed"


def _y_label(point):
    return f"y={[str(v) for v in point.y]}"


def _random_points(rng, count, max_n):
    # every value the ranges allow is built once, then drawn by the same rng calls
    low = -4 * max_n - 4
    numerators = range(low, 4 * max_n + 5)
    ys = {den: [Fraction(v, den) for v in numerators] for den in (1, 2, 3)}
    alphas = {(v, den): Fraction(v, den) for v in range(-9, 10) for den in (1, 2, 3)}
    points = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        row = ys[rng.choice((1, 2, 3))]
        y = [row[v - low] for v in rng.sample(numerators, n)]
        alpha = [alphas[rng.randint(-9, 9), rng.choice((1, 2, 3))] for _ in range(n)]
        points.append(CMPointRegular(y, alpha))
    return points


def _check_rank_one_random_points(lim):
    rng = lim.rng()
    for point in _random_points(rng, _SAMPLES, lim.cap_n(12)):
        yield
        ok, m, witness = verify_cm(*wilson_representative(point))
        if not ok:
            return f"{_y_label(point)}: commutator plus identity has rank {m.rank()}"
        column, row = witness
        if RationalMatrix([column]).transpose() @ RationalMatrix([row]) != m:
            return f"{_y_label(point)}: witness does not factor the matrix"


def _check_scaling_preserves_rank_one(lim):
    rng = lim.rng()
    for point in _random_points(rng, _SAMPLES, lim.cap_n(12)):
        yield
        x, y = wilson_representative(point)
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.choice((1, 2, 3)))
        if not verify_cm(*cstar_act(c, x, y))[0]:
            return f"{_y_label(point)}, c={c}: scaling broke the rank-one condition"


def _check_involution_preserves_rank_one(lim):
    rng = lim.rng()
    for point in _random_points(rng, _SAMPLES, lim.cap_n(12)):
        yield
        x, y = wilson_representative(point)
        swapped = involution(x, y)
        if not verify_cm(*swapped)[0]:
            return f"{_y_label(point)}: involution broke the rank-one condition"
        xi, yi = involution(*swapped)
        if xi != x or yi != y:
            return f"{_y_label(point)}: applying the involution twice changed the pair"


def _check_eigenvalue_polynomial(lim):
    rng = lim.rng()
    for point in _random_points(rng, _SAMPLES, lim.cap_n(12)):
        yield
        char_y = RationalMatrix.diagonal(point.y).charpoly()  # the normal form's Y
        expected = poly_from_roots(point.y)
        if char_y != expected:
            return f"{_y_label(point)}: characteristic polynomial mismatch"


def _check_profile_round_trip(lim):
    for n in range(1, lim.cap_n(6) + 1):
        for lam in enumerate_partitions(n):
            yield
            exponents = fixed_point_exponents(lam)
            subspace = monomial_subspace(exponents, 2 * n)
            recovered = schubert_profile(subspace)
            if recovered != lam:
                return f"lambda={lam}: profile of its fixed subspace came back as {recovered}"


def _check_embedding_component_lines(lim):
    rng = lim.rng()
    for point in _random_points(rng, 30, lim.cap_n(5)):
        embedded = wilson_embed(point)
        for y_i, a_i in zip(point.y, point.alpha):
            yield
            line = component_line(embedded, y_i)
            if line != (Fraction(1), -a_i):
                return f"y_i={y_i}: projected line ({line[0]}, {line[1]}) != (1, {-a_i})"


def _check_embedding_block_factorization(lim):
    rng = lim.rng()
    max_n = lim.cap_n(4)
    for _ in range(20):
        yield
        m = rng.randint(1, max_n)
        k = rng.randint(1, max_n)
        den = rng.choice((1, 2))
        numerators = rng.sample(range(-30, 31), m + k)
        first, second = (
            CMPointRegular([Fraction(v, den) for v in part], [Fraction(rng.randint(-6, 6)) for _ in part])
            for part in (numerators[:m], numerators[m:])
        )
        joint = wilson_embed(CMPointRegular(first.y + second.y, first.alpha + second.alpha))
        factors = [wilson_embed(first), wilson_embed(second)]
        if joint.ideal != tuple(poly_mul(list(factors[0].ideal), list(factors[1].ideal))):
            return f"{_y_label(first)} and {_y_label(second)}: joint ideal is not the product of the two factors"
        for part, small in zip((first, second), factors):
            for y_i in part.y:
                if component_line(joint, y_i) != component_line(small, y_i):
                    return f"component line at {y_i} differs between joint and factor embeddings"


def _counted(name, check):
    """The registry entry for a check generator: run it under its registry
    name to its end, return (items, detail)."""

    def run(lim):
        steps, items = check(replace(lim, name=name)), 0
        try:
            while True:
                next(steps)
                items += 1
        except StopIteration as stop:
            return items, stop.value or ""

    return run


_REGISTRY = tuple((name, _counted(name, check)) for name, check in (
    ("hook-count-and-sum", _check_hook_count_and_sum),
    ("hook-conjugation-invariance", _check_hook_conjugation),
    ("tableau-count-oracle", _check_tableau_count_oracle),
    ("tableau-square-sum", _check_tableau_square_sum),
    ("wreath-order-sum", _check_wreath_order_sum),
    ("division-round-trip", _check_division_round_trip),
    ("inverse-substitution", _check_inverse_substitution),
    ("evaluation-multiplicative", _check_evaluation_multiplicative),
    ("tangent-weights-negated-hooks", _check_tangent_negated_hooks),
    ("tangent-weights-sign-split", _check_tangent_sign_split),
    ("kostka-normalization", _check_kostka_normalization),
    ("kostka-dimension-at-one", _check_kostka_dimension),
    ("kostka-conjugation-invariance", _check_kostka_conjugation),
    ("kostka-major-index-oracle", _check_kostka_major_index),
    ("wreath-kostka-factorization", _check_wreath_kostka_factorization),
    ("character-palindrome-square", _check_character_palindrome_square),
    ("completion-series-consistency", _check_completion_series),
    ("multiplicity-hook-oracle", _check_multiplicity_hook_oracle),
    ("multiplicity-square-sum", _check_multiplicity_square_sum),
    ("wreath-multiplicity-square-sum", _check_wreath_multiplicity_square_sum),
    ("wreath-slot-symmetry", _check_wreath_slot_symmetry),
    ("wreath-dimension-chain", _check_wreath_dimension_chain),
    ("rank-one-random-points", _check_rank_one_random_points),
    ("scaling-preserves-rank-one", _check_scaling_preserves_rank_one),
    ("involution-preserves-rank-one", _check_involution_preserves_rank_one),
    ("eigenvalue-polynomial-match", _check_eigenvalue_polynomial),
    ("profile-round-trip", _check_profile_round_trip),
    ("embedding-component-lines", _check_embedding_component_lines),
    ("embedding-block-factorization", _check_embedding_block_factorization),
))


def _positive_or_none(name, value):
    """None, or value as a positive int; anything else raises TypeError or ValueError."""
    try:
        value = None if value is None else operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be a positive integer or None, got {value!r}") from None
    if value is not None and value < 1:
        raise ValueError(f"{name} must be a positive integer or None, got {value}")
    return value


def check_names():
    return tuple(name for name, _ in _REGISTRY)


def run_checks(names=None, n=None, N=None, seed=0, corrupt_hooks=False):
    """Run the named checks (all by default) and return their results in registry order.

    names is None or an iterable of check names, such as a list or tuple; a
    bare str raises TypeError.  Every check runs to min(its default size, n)
    and min(its default component count, N), so a limit can only lower a
    check's sizes.  A check that raises is reported as failed; the remaining
    checks still run.  Arguments are validated before any check runs: n and N
    must be None or a positive integer and seed an int, else TypeError or
    ValueError.
    """
    if isinstance(names, str):
        raise TypeError(f"names must be an iterable of check names, not the str {names!r}")
    if not isinstance(seed, int):
        raise TypeError(f"seed must be an int, got {seed!r}")
    lim = _Limits(n=_positive_or_none("n", n), N=_positive_or_none("N", N), seed=seed, corrupt_hooks=corrupt_hooks)
    if names is not None:
        names = set(names)  # read once, so a one-shot iterator selects every name it yields
        unknown = names - set(check_names())
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
    selected = [(name, fn) for name, fn in _REGISTRY if names is None or name in names]
    results = []
    for name, fn in selected:
        try:
            items, detail = fn(lim)
        except Exception as err:
            items, detail = 0, f"raised {type(err).__name__}: {err}"
        results.append(CheckResult(name=name, passed=not detail, items=items, detail=detail))
    return results
