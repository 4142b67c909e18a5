"""Exact matrix pairs, the rank-one condition, and the Grassmannian embedding."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmkostka import cm
from cmkostka.cm import (
    CMPointRegular,
    DimensionMismatch,
    DuplicateEigenvalue,
    EmbeddedPoint,
    NotInAnyCell,
    RationalMatrix,
    ZeroScalar,
    commutator_plus_identity,
    component_line,
    cstar_act,
    involution,
    monomial_subspace,
    poly_eval,
    poly_eval_derivative,
    poly_from_roots,
    poly_mul,
    projections,
    schubert_profile,
    verify_cm,
    wilson_embed,
    wilson_representative,
)
from cmkostka.characters import fixed_point_exponents
from cmkostka.partitions import Partition, enumerate_partitions


@st.composite
def rational_matrices(draw, max_n=8, n=None):
    """Square rational matrices, general or with a singular, nilpotent or diagonal shape."""
    if n is None:
        n = draw(st.integers(min_value=1, max_value=max_n))
    kind = draw(st.sampled_from(("general", "singular", "nilpotent", "diagonal")))
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if kind == "singular":
        rows[-1] = [3 * x for x in rows[0]]
    elif kind == "nilpotent":
        rows = [[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
    elif kind == "diagonal":
        rows = [[x if j == i else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
    return RationalMatrix(rows)


@st.composite
def regular_points(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    numerators = draw(
        st.lists(st.integers(min_value=-20, max_value=20), min_size=n, max_size=n, unique=True)
    )
    den = draw(st.sampled_from((1, 2, 3)))
    alpha = draw(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=n, max_size=n
        )
    )
    return CMPointRegular([Fraction(v, den) for v in numerators], alpha)


@st.composite
def matrix_pairs(draw, max_n=6):
    """Two square rational matrices of one size, each of any shape."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    return draw(rational_matrices(n=n)), draw(rational_matrices(n=n))


def _seeded_point(rng, n):
    """A regular point whose eigenvalues and alphas have mixed denominators up to 7."""
    y = set()
    while len(y) < n:
        y.add(Fraction(rng.randint(-60, 60), rng.randint(1, 7)))
    y = sorted(y)
    rng.shuffle(y)
    return CMPointRegular(y, [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)])


# -- RationalMatrix


def test_matrix_constructor_validation():
    with pytest.raises(ValueError):
        RationalMatrix([])
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [3]])
    m = RationalMatrix([[1, Fraction(1, 2)]])
    with pytest.raises(AttributeError):
        m.entries = ()


def test_matrix_arithmetic_golden():
    a = RationalMatrix([[1, 2], [3, 4]])
    b = RationalMatrix([[0, 1], [1, 0]])
    assert (a + b).entries == RationalMatrix([[1, 3], [4, 4]]).entries
    assert (a - b).entries == RationalMatrix([[1, 1], [2, 4]]).entries
    assert (a @ b).entries == RationalMatrix([[2, 1], [4, 3]]).entries
    assert a.transpose().entries == RationalMatrix([[1, 3], [2, 4]]).entries
    assert a.trace() == 5
    assert a.scaled(Fraction(1, 2)).entries == RationalMatrix(
        [[Fraction(1, 2), 1], [Fraction(3, 2), 2]]
    ).entries


def test_matrix_dimension_errors():
    a = RationalMatrix([[1, 2]])
    b = RationalMatrix([[1], [2]])
    with pytest.raises(DimensionMismatch):
        a + b
    with pytest.raises(DimensionMismatch):
        a @ a
    with pytest.raises(DimensionMismatch):
        a.trace()
    with pytest.raises(DimensionMismatch):
        a.charpoly()


def test_rank_golden():
    assert RationalMatrix.identity(5).rank() == 5
    assert RationalMatrix([[0]]).rank() == 0
    assert RationalMatrix([[1, 2], [2, 4]]).rank() == 1
    assert RationalMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]).rank() == 1
    assert RationalMatrix([[1, 2], [3, 4]]).rank() == 2
    assert RationalMatrix([[1, 2, 3], [4, 5, 6]]).rank() == 2


def test_nullspace_golden():
    basis = RationalMatrix([[1, 2], [2, 4]]).nullspace()
    assert basis == [(Fraction(-2), Fraction(1))]
    assert RationalMatrix.identity(3).nullspace() == []
    wide = RationalMatrix([[1, 0, 1]])
    assert wide.nullspace() == [(Fraction(0), Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0), Fraction(1))]


def test_charpoly_golden():
    assert RationalMatrix.diagonal([0, 1]).charpoly() == (0, -1, 1)
    assert RationalMatrix([[0, -1], [1, 0]]).charpoly() == (1, 0, 1)
    assert RationalMatrix.identity(2).charpoly() == (1, -2, 1)
    nilpotent = RationalMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert nilpotent.charpoly() == (0, 0, 0, 1)


def test_charpoly_roots_are_eigenvalues():
    m = RationalMatrix([[2, 1], [0, Fraction(1, 3)]])
    coeffs = m.charpoly()
    for root in (Fraction(2), Fraction(1, 3)):
        assert poly_eval(list(coeffs), root) == 0


def test_inexact_inputs_are_rejected_not_coerced():
    x, y = wilson_representative(CMPointRegular([0, 1], [0, 0]))
    embedded = wilson_embed(CMPointRegular([0, 1], [0, 0]))
    for bad in (0.1, "1/3", 1.0, None, 1j):
        with pytest.raises(TypeError):
            RationalMatrix([[1, bad]])
        with pytest.raises(TypeError):
            RationalMatrix.diagonal([bad])
        with pytest.raises(TypeError):
            CMPointRegular([0, bad], [0, 0])
        with pytest.raises(TypeError):
            CMPointRegular([0, 1], [bad, 0])
        with pytest.raises(TypeError):
            EmbeddedPoint((bad, 1), RationalMatrix([[1], [0]]))
        with pytest.raises(TypeError):
            cstar_act(bad, x, y)
        with pytest.raises(TypeError):
            x.scaled(bad)
        with pytest.raises(TypeError):
            poly_from_roots([0, bad])
        with pytest.raises(TypeError):
            component_line(embedded, bad)
    # Fraction and int, bool included, are exact and accepted
    assert RationalMatrix([[True, Fraction(1, 2)]]).entries == ((1, Fraction(1, 2)),)
    assert CMPointRegular([False, 1], [Fraction(1, 3), 2]).y == (0, 1)
    assert poly_from_roots([True]) == (-1, 1)
    assert component_line(embedded, 1) == (1, 0)


# -- points and the rank-one condition


def test_point_validation():
    with pytest.raises(DuplicateEigenvalue):
        CMPointRegular([0, 0], [1, 2])
    with pytest.raises(ValueError):
        CMPointRegular([0, 1], [1])
    with pytest.raises(ValueError):
        CMPointRegular([], [])
    p = CMPointRegular([0, 1], [0, 0])
    with pytest.raises(AttributeError):
        p.y = (5,)


def test_point_concatenation():
    joint = CMPointRegular([0], [1]).concatenated(CMPointRegular([1], [2]))
    assert joint.y == (0, 1) and joint.alpha == (1, 2)
    with pytest.raises(DuplicateEigenvalue):
        CMPointRegular([0], [1]).concatenated(CMPointRegular([0], [2]))


def test_wilson_representative_golden():
    x, y = wilson_representative(CMPointRegular([0, 1], [0, 0]))
    assert x.entries == RationalMatrix([[0, -1], [1, 0]]).entries
    assert y.entries == RationalMatrix.diagonal([0, 1]).entries

    x1, y1 = wilson_representative(CMPointRegular([5], [Fraction(1, 2)]))
    assert x1.entries == ((Fraction(1, 2),),)
    assert y1.entries == ((Fraction(5),),)

    x3, _ = wilson_representative(CMPointRegular([0, 1, 2], [0, 0, 0]))
    assert x3.entries[0][2] == Fraction(-1, 2)


def test_verify_cm_trivial_sizes():
    ok, m, witness = verify_cm(RationalMatrix([[0]]), RationalMatrix([[0]]))
    assert ok and m.entries == ((1,),) and witness == ((Fraction(1),), (Fraction(1),))
    ok, m, witness = verify_cm(RationalMatrix.diagonal([0, 0]), RationalMatrix.diagonal([0, 0]))
    assert not ok and witness is None and m.entries == RationalMatrix.identity(2).entries


def test_verify_cm_on_normal_form():
    x, y = wilson_representative(CMPointRegular([0, 1], [0, 0]))
    ok, m, witness = verify_cm(x, y)
    assert ok
    assert m.entries == ((1, 1), (1, 1))
    column, row = witness
    for i in range(2):
        for j in range(2):
            assert column[i] * row[j] == m.entries[i][j]


def test_rank_one_holds_beyond_two_points():
    """Three or more distinct eigenvalues is where a wrong commutator
    orientation would be exposed; sizes one and two cannot tell."""
    for n in (3, 4, 7):
        point = CMPointRegular(list(range(n)), [Fraction(k, 3) for k in range(n)])
        ok, m, _ = verify_cm(*wilson_representative(point))
        assert ok
        assert m.rank() == 1


def test_commutator_dimension_error():
    with pytest.raises(DimensionMismatch):
        commutator_plus_identity(RationalMatrix([[1, 2]]), RationalMatrix([[1]]))


def test_cstar_action():
    x, y = wilson_representative(CMPointRegular([0, 1], [0, 0]))
    xs, ys = cstar_act(2, x, y)
    assert xs.entries == x.scaled(Fraction(1, 2)).entries
    assert ys.entries == y.scaled(2).entries
    assert commutator_plus_identity(xs, ys).entries == commutator_plus_identity(x, y).entries
    xn, yn = cstar_act(-1, x, y)
    assert xn.entries == x.scaled(-1).entries and yn.entries == y.scaled(-1).entries
    with pytest.raises(ZeroScalar):
        cstar_act(0, x, y)


def test_involution_golden_and_preservation():
    x, y = wilson_representative(CMPointRegular([0, 1], [0, 0]))
    yi, xi = involution(x, y)
    assert yi.entries == RationalMatrix.diagonal([0, 1]).entries
    assert xi.entries == RationalMatrix([[0, 1], [-1, 0]]).entries
    assert involution(yi, xi) == (x, y)
    assert verify_cm(yi, xi)[0]
    with pytest.raises(DimensionMismatch):
        involution(RationalMatrix([[1, 2]]), RationalMatrix([[1, 2]]))


def test_projections_golden():
    x, y = wilson_representative(CMPointRegular([0, 1], [0, 0]))
    char_x, char_y = projections(x, y)
    assert char_x == (1, 0, 1)
    assert char_y == (0, -1, 1)
    assert char_y == poly_from_roots([0, 1])


# -- polynomial helpers


def test_poly_helpers():
    cubic = poly_from_roots([0, 1, 2])
    assert cubic == (0, 2, -3, 1)
    assert poly_eval(list(cubic), Fraction(3)) == 6
    assert poly_eval_derivative([1, 0, 1], Fraction(2)) == 4
    assert poly_mul([1, 1], [1, -1]) == [1, 0, -1]


# -- embedding


def test_embed_single_point():
    a = Fraction(3, 2)
    embedded = wilson_embed(CMPointRegular([0], [a]))
    assert embedded.ideal == (0, 1)
    assert embedded.subspace.entries == ((1,), (-a,))
    assert component_line(embedded, 0) == (1, -a)


def test_embed_two_points_congruences():
    point = CMPointRegular([0, 1], [0, 0])
    embedded = wilson_embed(point)
    assert embedded.ideal == (0, -1, 1)
    for j, (y_i, a_i) in enumerate(zip(point.y, point.alpha)):
        w = [embedded.subspace.entries[r][j] for r in range(4)]
        assert poly_eval(w, y_i) == 1
        assert poly_eval_derivative(w, y_i) == -a_i
        other = point.y[1 - j]
        assert poly_eval(w, other) == 0
        assert poly_eval_derivative(w, other) == 0


def test_embed_component_lines_general():
    point = CMPointRegular([0, 1, Fraction(5, 2)], [Fraction(1, 2), -2, 0])
    embedded = wilson_embed(point)
    assert embedded.subspace.rank() == 3
    for y_i, a_i in zip(point.y, point.alpha):
        assert component_line(embedded, y_i) == (1, -a_i)


def test_embed_block_factorization():
    first = CMPointRegular([0, 2], [1, -1])
    second = CMPointRegular([1], [Fraction(1, 2)])
    joint = wilson_embed(first.concatenated(second))
    assert joint.ideal == tuple(
        poly_mul(list(wilson_embed(first).ideal), list(wilson_embed(second).ideal))
    )
    for part in (first, second):
        small = wilson_embed(part)
        for y_i in part.y:
            assert component_line(joint, y_i) == component_line(small, y_i)


def test_embedded_point_validation():
    with pytest.raises(ValueError):
        EmbeddedPoint((0, 2), RationalMatrix([[1], [0]]))
    with pytest.raises(ValueError):
        EmbeddedPoint((0, 1), RationalMatrix([[1], [0], [0]]))
    with pytest.raises(ValueError):
        EmbeddedPoint((0, -1, 1), RationalMatrix([[1, 2], [0, 0], [0, 0], [0, 0]]))


def test_embedded_point_is_immutable():
    point = wilson_embed(CMPointRegular([0, Fraction(1, 2)], [1, Fraction(-2, 3)]))
    for name in ("ideal", "subspace", "_columns"):
        with pytest.raises(AttributeError):
            setattr(point, name, ())
    with pytest.raises(AttributeError):
        point.extra = 1


def test_component_line_errors():
    degenerate = EmbeddedPoint(
        (0, -1, 1),
        RationalMatrix([[0, 0], [0, 0], [1, 0], [0, 1]]),
    )
    with pytest.raises(ValueError):
        component_line(degenerate, Fraction(1, 2))
    with pytest.raises(ValueError):
        component_line(degenerate, 0)
    with pytest.raises(ValueError):
        component_line(degenerate, 1)
    embedded = wilson_embed(CMPointRegular([0, Fraction(1, 2)], [1, Fraction(2, 3)]))
    for not_a_root in (Fraction(1, 3), 2, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="not a root"):
            component_line(embedded, not_a_root)


# -- Schubert profiles


def test_monomial_subspace_golden():
    m = monomial_subspace({5, 3, 1}, 6)
    assert m.rows == 6 and m.cols == 3
    assert [r for r in range(6) if m.entries[r][0] == 1] == [5]
    with pytest.raises(ValueError):
        monomial_subspace({6}, 6)


def test_profile_round_trips():
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            subspace = monomial_subspace(fixed_point_exponents(lam), 2 * n)
            assert schubert_profile(subspace) == lam


def test_profile_of_top_monomials_is_empty():
    assert schubert_profile(monomial_subspace({2, 3}, 4)) == Partition(())
    assert schubert_profile(monomial_subspace({3, 4, 5}, 6)) == Partition(())


def test_profile_of_mixed_subspace():
    # span{1 + z^3, z + z^2} meets the flag first at step 3, then at step 4
    w = RationalMatrix([[1, 0], [0, 1], [0, 1], [1, 0]])
    assert schubert_profile(w) == Partition((2, 2))


def _stacked_rank_profile(subspace):
    """Profile by the definition: dim(W meet F_j) = n + j - rank([W | F_j]) for every j."""
    n, ambient = subspace.cols, subspace.rows
    jumps, prev = [], 0
    for j in range(1, ambient + 1):
        stacked = RationalMatrix(
            [list(subspace.entries[r]) + [int(r == ambient - t) for t in range(1, j + 1)]
             for r in range(ambient)]
        )
        d = n + j - stacked.rank()
        if d == prev + 1:
            jumps.append(j)
        prev = d
    increasing = [jumps[i] - (i + 1) for i in range(n)]
    return Partition(tuple(p for p in reversed(increasing) if p > 0))


def test_profile_matches_stacked_rank_oracle():
    rng = random.Random(2001)
    profiles = set()
    compared = 0
    while compared < 150:
        n = rng.randint(1, 5)
        # each column starts at a random exponent, so every cell gets hit
        columns = []
        for _ in range(n):
            low = rng.randrange(2 * n)
            columns.append([rng.randint(-3, 3) if r >= low and rng.random() < 0.6 else 0
                            for r in range(2 * n)])
        subspace = RationalMatrix([[col[r] for col in columns] for r in range(2 * n)])
        if subspace.rank() != n:
            with pytest.raises(NotInAnyCell):
                schubert_profile(subspace)
            continue
        expected = _stacked_rank_profile(subspace)
        assert schubert_profile(subspace) == expected
        profiles.add(expected)
        compared += 1
    assert len(profiles) > 20


def test_profile_errors():
    with pytest.raises(DimensionMismatch):
        schubert_profile(RationalMatrix([[1], [0], [0]]))
    with pytest.raises(NotInAnyCell):
        schubert_profile(RationalMatrix([[1, 1], [0, 0], [0, 0], [0, 0]]))


def test_synthetic_division_by_a_non_root_raises():
    assert cm._divide_by_root([-1, 0, 1], 1) == [1, 1]
    with pytest.raises(ArithmeticError):
        cm._divide_by_root([1, 0, 1], 1)
    with pytest.raises(ArithmeticError):
        cm._divide_by_root([-4, 0, 1], -3)


# -- test-only oracles: the Fraction kernels the integer ones replaced


def _trace_recurrence_charpoly(a):
    """det(zI - A) by the trace recurrence run directly on the Fraction matrix."""
    n = a.rows
    ident = RationalMatrix.identity(n)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = ident
    for k in range(1, n + 1):
        am = a @ m
        c = -am.trace() / k
        coeffs[n - k] = c
        if k < n:
            m = am + ident.scaled(c)
    return tuple(coeffs)


def _per_column_embed(point):
    """(ideal, subspace entries) with each P_i built by n - 1 polynomial products."""
    y, alpha, n = point.y, point.alpha, point.n
    columns = []
    for i in range(n):
        p_i = [Fraction(1)]
        for j in range(n):
            if j != i:
                factor = [-y[j], Fraction(1)]
                p_i = poly_mul(p_i, poly_mul(factor, factor))
        a = poly_eval(p_i, y[i])
        b = poly_eval_derivative(p_i, y[i])
        v = -(alpha[i] / a + b / (a * a))
        w = poly_mul(p_i, [1 / a - v * y[i], v])
        columns.append(w + [Fraction(0)] * (2 * n - len(w)))
    return poly_from_roots(y), tuple(tuple(col[r] for col in columns) for r in range(2 * n))


def _fraction_commutator(x, y):
    """YX - XY + Id from Fraction matrix products."""
    return (y @ x) - (x @ y) + RationalMatrix.identity(x.rows)


def _fraction_normal_form(point):
    """The X entries of the normal form: alpha_i on the diagonal, 1/(y_i - y_j) off it."""
    y, alpha, n = point.y, point.alpha, point.n
    return tuple(tuple(alpha[i] if i == j else 1 / (y[i] - y[j]) for j in range(n)) for i in range(n))


def _fraction_horner_line(point, y_i):
    """The normalized (value, derivative) line by Fraction Horner passes per column."""
    lines = set()
    for col in zip(*point.subspace.entries):
        val, der = poly_eval(list(col), y_i), poly_eval_derivative(list(col), y_i)
        if val != 0 or der != 0:
            scale = val if val != 0 else der
            lines.add((val / scale, der / scale))
    assert len(lines) == 1
    return lines.pop()


@settings(deadline=None, max_examples=60)
@given(rational_matrices())
def test_charpoly_matches_fraction_trace_recurrence(a):
    assert a.charpoly() == _trace_recurrence_charpoly(a)


def _border_zero_shapes(rng, n):
    """Matrices whose border row or column in the Berkowitz recurrence vanishes at some step:
    lower and upper triangular, block upper and block lower triangular, and a general
    matrix with one zero border row and one zero border column at chosen steps."""
    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    def shaped(keep):
        return RationalMatrix([[entry() if keep(i, j) else 0 for j in range(n)] for i in range(n)])

    h = n // 2
    row_step, col_step = rng.randrange(n), rng.randrange(n)
    return [
        shaped(lambda i, j: j <= i),
        shaped(lambda i, j: j >= i),
        shaped(lambda i, j: i < h or j >= h),
        shaped(lambda i, j: i >= h or j < h),
        shaped(lambda i, j: not (i == row_step and j < i) and not (j == col_step and i < j)),
    ]


def test_charpoly_matches_oracle_on_fixed_shapes():
    rng = random.Random(2005)
    shapes = [RationalMatrix([[Fraction(-7, 3)]]), RationalMatrix([[0]]),
              RationalMatrix.diagonal([Fraction(1, 2), Fraction(1, 2), -3]),
              RationalMatrix([[0, Fraction(1, 4), 5], [0, 0, Fraction(2, 9)], [0, 0, 0]]),
              RationalMatrix([[1, 2, 3], [2, 4, 6], [Fraction(1, 5), 0, 1]])]
    for _ in range(40):
        n = rng.randint(1, 8)
        shapes.append(RationalMatrix(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)] for _ in range(n)]
        ))
    for n in (2, 3, 5, 8):
        shapes.extend(_border_zero_shapes(rng, n))
    for a in shapes:
        assert a.charpoly() == _trace_recurrence_charpoly(a)
    # triangular: the characteristic polynomial is the product over the diagonal
    for a in _border_zero_shapes(rng, 6)[:2]:
        assert a.charpoly() == poly_from_roots([a.entries[i][i] for i in range(6)])


def test_charpoly_matches_oracles_on_large_normal_forms():
    """The cm-pairs sizes, where the integer entries grow largest."""
    rng = random.Random(2016)
    for n in (12, 16, 20):
        x, y = wilson_representative(_seeded_point(rng, n))
        assert x.charpoly() == _trace_recurrence_charpoly(x)
        assert y.charpoly() == _trace_recurrence_charpoly(y)


def test_charpoly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    rng = random.Random(2006)
    matrices = []
    for _ in range(25):
        n = rng.randint(1, 6)
        matrices.append(RationalMatrix(
            [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
        ))
    # X of normal forms at the cm-pairs sizes, where the integer entries grow largest
    matrices += [wilson_representative(_seeded_point(rng, n))[0] for n in (12, 16, 20)]
    for a in matrices:
        expected = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a.entries]).charpoly(z)
        assert a.charpoly() == tuple(Fraction(int(c.p), int(c.q)) for c in reversed(expected.all_coeffs()))


@settings(deadline=None, max_examples=40)
@given(regular_points(max_n=8))
def test_embedding_matches_per_column_oracle(point):
    embedded = wilson_embed(point)
    assert (embedded.ideal, embedded.subspace.entries) == _per_column_embed(point)
    for y_i in point.y:
        assert component_line(embedded, y_i) == _fraction_horner_line(embedded, y_i)


def test_embedding_matches_per_column_oracle_at_large_sizes():
    rng = random.Random(2012)
    for n in (12, 16, 20):
        point = _seeded_point(rng, n)
        embedded = wilson_embed(point)
        assert (embedded.ideal, embedded.subspace.entries) == _per_column_embed(point)
        for y_i in point.y:
            assert component_line(embedded, y_i) == _fraction_horner_line(embedded, y_i)


@settings(deadline=None, max_examples=40)
@given(matrix_pairs())
def test_commutator_matches_fraction_products(pair):
    x, y = pair
    assert commutator_plus_identity(x, y) == _fraction_commutator(x, y)


def test_commutator_matches_fraction_products_on_normal_forms():
    rng = random.Random(2013)
    for n in (1, 2, 5, 9, 13):
        x, y = wilson_representative(_seeded_point(rng, n))
        for pair in ((x, y), involution(x, y), cstar_act(Fraction(-3, 2), x, y)):
            assert commutator_plus_identity(*pair) == _fraction_commutator(*pair)


def test_normal_form_matches_fraction_differences():
    rng = random.Random(2014)
    for n in (1, 2, 3, 7, 12, 20):
        point = _seeded_point(rng, n)
        x, y = wilson_representative(point)
        assert x.entries == _fraction_normal_form(point)
        assert y == RationalMatrix.diagonal(point.y)


@settings(deadline=None, max_examples=40)
@given(
    rational_matrices(max_n=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.sampled_from([(1, 0), (0, 1), (2, Fraction(-1, 3))]),
)
def test_component_line_matches_fraction_horner(a, root, line):
    """Column j is (j + 1)(val + der (z - root)) + (z - root)^2 r_j with r_j row j of a,
    so every column projects onto the line (val, der) at the root."""
    n = a.rows
    val, der = line
    square = poly_mul([-root, 1], [-root, 1])
    columns = []
    for j, row in enumerate(a.entries):
        col = (poly_mul(square, list(row)) + [0] * n)[: 2 * n]
        col[0] += (j + 1) * (val - der * root)
        col[1] += (j + 1) * der
        columns.append(col)
    subspace = RationalMatrix([[col[r] for col in columns] for r in range(2 * n)])
    assume(subspace.rank() == n)
    embedded = EmbeddedPoint(poly_from_roots([root + k for k in range(n)]), subspace)
    assert component_line(embedded, root) == _fraction_horner_line(embedded, root)


# -- the full-column-rank certificate and its exact fallback


def _rank_calls(monkeypatch):
    calls = []
    exact = RationalMatrix.rank

    def spy(self):
        calls.append((self.rows, self.cols))
        return exact(self)

    monkeypatch.setattr(RationalMatrix, "rank", spy)
    return calls


def test_full_rank_certificate_skips_exact_rank(monkeypatch):
    calls = _rank_calls(monkeypatch)
    wilson_embed(CMPointRegular([0, 1, Fraction(5, 2)], [Fraction(1, 2), -2, 0]))
    assert calls == []


def test_column_zero_mod_p_falls_back_and_is_accepted(monkeypatch):
    calls = _rank_calls(monkeypatch)
    EmbeddedPoint((0, 1), RationalMatrix([[cm._PRIME], [0]]))
    assert calls == [(2, 1)]


def test_denominator_divisible_by_p_is_certified_without_fallback(monkeypatch):
    # column-cleared to the integers (1, p): a pivot mod p, no modular inverse needed
    calls = _rank_calls(monkeypatch)
    EmbeddedPoint((0, 1), RationalMatrix([[Fraction(1, cm._PRIME)], [1]]))
    assert calls == []


def test_column_cleared_to_zero_mod_p_falls_back_and_is_accepted(monkeypatch):
    # column-cleared to the integers (p, 0), which vanish mod p
    calls = _rank_calls(monkeypatch)
    EmbeddedPoint((0, 1), RationalMatrix([[Fraction(cm._PRIME, 3)], [0]]))
    assert calls == [(2, 1)]


def test_dependent_columns_fall_back_and_are_rejected(monkeypatch):
    calls = _rank_calls(monkeypatch)
    dependent = RationalMatrix([[1, 2], [Fraction(1, 3), Fraction(2, 3)], [0, 0], [5, 10]])
    with pytest.raises(ValueError, match="linearly independent"):
        EmbeddedPoint((0, -1, 1), dependent)
    assert calls == [(4, 2)]


@settings(deadline=None, max_examples=60)
@given(rational_matrices(max_n=6))
def test_full_rank_verdict_matches_exact_rank(a):
    # a square matrix over a zero block is a 2n x n subspace of the same rank
    n = a.rows
    subspace = RationalMatrix([list(row) for row in a.entries] + [[0] * n for _ in range(n)])
    assert cm._full_column_rank(subspace) == (a.rank() == n)


# -- randomized properties


@settings(deadline=None, max_examples=40)
@given(regular_points())
def test_normal_form_always_rank_one(point):
    x, y = wilson_representative(point)
    ok, m, witness = verify_cm(x, y)
    assert ok
    column, row = witness
    assert all(
        column[i] * row[j] == m.entries[i][j] for i in range(m.rows) for j in range(m.cols)
    )


@settings(deadline=None, max_examples=40)
@given(regular_points())
def test_transforms_preserve_rank_one(point):
    x, y = wilson_representative(point)
    assert verify_cm(*involution(x, y))[0]
    assert verify_cm(*cstar_act(Fraction(3, 2), x, y))[0]
    _, char_y = projections(x, y)
    assert char_y == poly_from_roots(point.y)


@settings(deadline=None, max_examples=25)
@given(regular_points(max_n=3))
def test_embedding_lines_and_rank(point):
    embedded = wilson_embed(point)
    assert embedded.subspace.rank() == point.n
    for y_i, a_i in zip(point.y, point.alpha):
        assert component_line(embedded, y_i) == (1, -a_i)
