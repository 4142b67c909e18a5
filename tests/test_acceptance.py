"""Acceptance suite: one test per criterion, each timed against its budget.

Each criterion is a thin call into the code that owns its check: named
checks of the verify registry at their default limits, or
`schur.multiplicity_identity_check`.  Criterion 6 and the embedding half of
criterion 7 keep their own seeded inputs: no registry check calls
`projections`, which also computes X's characteristic polynomial, or checks
the lines of a joint embedding against their defining congruences.  Every
test records a single pass/fail line (shown in the terminal summary) and
then asserts, so a falsified identity and a blown time budget are both
visible in the same place.
"""

import random
from fractions import Fraction
from time import perf_counter

from cmkostka.cm import (
    CMPointRegular,
    component_line,
    cstar_act,
    involution,
    poly_from_roots,
    poly_mul,
    projections,
    verify_cm,
    wilson_embed,
    wilson_representative,
)
from cmkostka.partitions import enumerate_gamma_partitions
from cmkostka.schur import multiplicity_identity_check
from cmkostka.verify import run_checks

SEED = 20260817


def _registry(*names):
    """Run the named checks at default limits: the first one's item count and every failure."""
    results = {r.name: r for r in run_checks(names=names)}
    failures = [f"{r.name}: {r.detail}" for r in results.values() if not r.passed]
    return results[names[0]].items, failures


def _finish(record, number, title, budget, started, items, failures):
    elapsed = perf_counter() - started
    ok = not failures and elapsed < budget
    status = "PASS" if ok else "FAIL"
    record(
        f"criterion {number}, {title}: {status}"
        f" ({items} items, {elapsed:.2f}s, budget {budget:.0f}s)"
    )
    assert not failures, failures[:3]
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_main_character_values(acceptance_report):
    started = perf_counter()
    items, failures = _registry("character-palindrome-square", "kostka-dimension-at-one")
    _finish(acceptance_report, 1, "main-theorem character values", 5.0, started, items, failures)


def test_criterion_2_tangent_weights_are_negated_hooks(acceptance_report):
    started = perf_counter()
    items, failures = _registry("tangent-weights-negated-hooks")
    _finish(acceptance_report, 2, "tangent weights equal negated hooks", 5.0, started, items, failures)


def test_criterion_3_kostka_exactness_and_positivity(acceptance_report):
    started = perf_counter()
    items, failures = _registry("kostka-normalization", "kostka-dimension-at-one", "tableau-count-oracle")
    _finish(acceptance_report, 3, "Kostka exactness and positivity", 30.0, started, items, failures)


def test_criterion_4_multiplicity_identities(acceptance_report):
    started = perf_counter()
    items, failures = _registry("multiplicity-hook-oracle", "multiplicity-square-sum")
    _finish(acceptance_report, 4, "power-sum multiplicity identities", 10.0, started, items, failures)


def test_criterion_5_wreath_identities(acceptance_report):
    started = perf_counter()
    _, failures = _registry("wreath-order-sum")
    grid = [(N, n) for N in range(1, 5) for n in range(7)]
    items = sum(1 for N, n in grid for _ in enumerate_gamma_partitions(N, n))
    failures += [f"N={N} n={n}: dimension bookkeeping failed" for N, n in grid if not multiplicity_identity_check(N, n)]
    _finish(acceptance_report, 5, "wreath dimension identities", 60.0, started, items, failures)


def test_criterion_6_rank_one_matrix_pairs(acceptance_report):
    started = perf_counter()
    failures = []
    rng = random.Random(SEED)
    items = 0
    for _ in range(200):
        items += 1
        n = rng.randint(1, 12)
        den = rng.choice((1, 2, 3))
        numerators = rng.sample(range(-60, 61), n)
        point = CMPointRegular(
            [Fraction(v, den) for v in numerators],
            [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n)],
        )
        x, y = wilson_representative(point)
        ok, m, witness = verify_cm(x, y)
        if not ok:
            failures.append(f"n={n}: rank is not one")
            continue
        column, row = witness
        if any(column[i] * row[j] != m.entries[i][j] for i in range(n) for j in range(n)):
            failures.append(f"n={n}: witness does not factor the matrix")
        if not verify_cm(*involution(x, y))[0]:
            failures.append(f"n={n}: involution broke the condition")
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.choice((1, 2)))
        if not verify_cm(*cstar_act(c, x, y))[0]:
            failures.append(f"n={n}: scaling by {c} broke the condition")
        if projections(x, y)[1] != poly_from_roots(point.y):
            failures.append(f"n={n}: eigenvalue polynomial mismatch")
    _finish(acceptance_report, 6, "rank-one matrix pairs at size <= 12", 60.0, started, items, failures)


def test_criterion_7_profile_and_embedding_round_trips(acceptance_report):
    started = perf_counter()
    items, failures = _registry("profile-round-trip")
    rng = random.Random(SEED)
    for _ in range(25):
        items += 1
        m = rng.randint(1, 3)
        k = rng.randint(1, 3)
        numerators = rng.sample(range(-25, 26), m + k)
        first = CMPointRegular(numerators[:m], [rng.randint(-5, 5) for _ in range(m)])
        second = CMPointRegular(numerators[m:], [rng.randint(-5, 5) for _ in range(k)])
        joint = wilson_embed(CMPointRegular(first.y + second.y, first.alpha + second.alpha))
        for part in (first, second):
            small = wilson_embed(part)
            for y_i, a_i in zip(part.y, part.alpha):
                if component_line(joint, y_i) != (1, Fraction(-a_i)):
                    failures.append(f"line at {y_i} differs from its defining congruence")
                if component_line(joint, y_i) != component_line(small, y_i):
                    failures.append(f"line at {y_i} differs between joint and factor")
        expected = tuple(poly_mul(list(wilson_embed(first).ideal), list(wilson_embed(second).ideal)))
        if joint.ideal != expected:
            failures.append("joint ideal is not the product of the factors")
    _finish(acceptance_report, 7, "profile and embedding round trips", 30.0, started, items, failures)


def test_criterion_8_major_index_oracle(acceptance_report):
    started = perf_counter()
    items, failures = _registry("kostka-major-index-oracle")
    _finish(acceptance_report, 8, "major-index oracle", 30.0, started, items, failures)
