"""Exact matrix pairs, the rank-one condition, and the Grassmannian embedding."""

import copy
import math
import pickle
import random
import unittest.mock
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


# zero often, and every fraction of absolute value at most 9 and denominator at most 7
_ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(min_value=-63, max_value=63), st.integers(min_value=1, max_value=7)),
)
_NONZERO = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9).filter(bool), st.integers(min_value=1, max_value=7)
)


def _fractions(bound, max_denominator):
    """Every fraction of absolute value at most bound and denominator at most
    max_denominator, and some larger ones: numerators up to bound times
    max_denominator over each denominator.  Drawing the two integers is
    several times faster than hypothesis's own fraction strategy."""
    top = bound * max_denominator
    return st.builds(
        Fraction, st.integers(min_value=-top, max_value=top), st.integers(min_value=1, max_value=max_denominator)
    )


@st.composite
def grids(draw, rows, cols):
    """Fraction grids of one shape: general, dense (no zeros), mixed (zeros at
    random positions), zero, diagonal (zero off i == j), nilpotent (zero on
    and below the diagonal) or singular (the last row 3 times the first)."""
    kind = draw(st.sampled_from(("general", "dense", "mixed", "zero", "diagonal", "nilpotent", "singular")))
    entry = _NONZERO if kind in ("dense", "mixed") else _ENTRY
    grid = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    if kind == "mixed":
        keep = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
        grid = [[x if keep[i * cols + j] else Fraction(0) for j, x in enumerate(row)] for i, row in enumerate(grid)]
    elif kind == "zero":
        grid = [[Fraction(0)] * cols for _ in range(rows)]
    elif kind == "diagonal":
        grid = [[x if i == j else Fraction(0) for j, x in enumerate(row)] for i, row in enumerate(grid)]
    elif kind == "nilpotent":
        grid = [[x if j > i else Fraction(0) for j, x in enumerate(row)] for i, row in enumerate(grid)]
    elif kind == "singular":
        grid[-1] = [3 * x for x in grid[0]]
    return grid


@st.composite
def rational_matrices(draw, max_n=8):
    """Square rational matrices of every kind grids draws."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    return RationalMatrix(draw(grids(n, n)))


@st.composite
def regular_points(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    numerators = draw(
        st.lists(st.integers(min_value=-20, max_value=20), min_size=n, max_size=n, unique=True)
    )
    den = draw(st.sampled_from((1, 2, 3)))
    alpha = draw(st.lists(_fractions(5, 4), min_size=n, max_size=n))
    return CMPointRegular([Fraction(v, den) for v in numerators], alpha)


def _seeded_point(rng, n):
    """A regular point whose eigenvalues and alphas have mixed denominators up to 7."""
    y = set()
    while len(y) < n:
        y.add(Fraction(rng.randint(-60, 60), rng.randint(1, 7)))
    y = sorted(y)
    rng.shuffle(y)
    return CMPointRegular(y, [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)])


def _seeded_points(seed, sizes):
    """One seeded point of each size, all drawn from one generator."""
    rng = random.Random(seed)
    return [_seeded_point(rng, n) for n in sizes]


def poly_eval(coeffs, x):
    """Fraction Horner value of a low-to-high coefficient list at x."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_eval_derivative(coeffs, x):
    """Fraction Horner value of the derivative at x."""
    acc = Fraction(0)
    for k in range(len(coeffs) - 1, 0, -1):
        acc = acc * x + k * coeffs[k]
    return acc


# -- RationalMatrix


def test_matrix_constructor_validation():
    # the public constructor, the diagonal builders and the trusted integer
    # path all refuse an empty matrix with the one message _hold raises
    for build in (
        lambda: RationalMatrix([]),
        lambda: RationalMatrix.diagonal([]),
        lambda: RationalMatrix._from_ints(1, []),
        lambda: RationalMatrix._from_ints(6, []),
    ):
        with pytest.raises(ValueError, match="^matrix needs at least one row$"):
            build()
    with pytest.raises(ValueError, match="^ragged rows$"):
        RationalMatrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="^ragged rows$"):
        RationalMatrix([[], [3]])
    # a bad entry is refused before the shape is looked at
    with pytest.raises(TypeError):
        RationalMatrix([[1, 2], [0.5]])
    m = RationalMatrix([[1, Fraction(1, 2)]])
    with pytest.raises(AttributeError):
        m.entries = ()


def test_matrix_constructor_refuses_zero_columns():
    for build in (
        lambda: RationalMatrix([[]]),
        lambda: RationalMatrix([[], []]),
        lambda: RationalMatrix._from_ints(1, [[]]),
        lambda: RationalMatrix._from_ints(1, [[], []]),
    ):
        with pytest.raises(ValueError, match="^matrix needs at least one column$"):
            build()


def test_matrix_arithmetic_golden():
    a = RationalMatrix([[1, 2], [3, 4]])
    b = RationalMatrix([[0, 1], [1, 0]])
    assert (a @ b).entries == RationalMatrix([[2, 1], [4, 3]]).entries
    assert a.transpose().entries == RationalMatrix([[1, 3], [2, 4]]).entries
    assert a.scaled(Fraction(1, 2)).entries == RationalMatrix(
        [[Fraction(1, 2), 1], [Fraction(3, 2), 2]]
    ).entries
    assert repr(a.scaled(Fraction(-1, 2))) == "RationalMatrix([['-1/2', '-1'], ['-3/2', '-2']])"


def test_matrix_dimension_errors():
    a = RationalMatrix([[1, 2]])
    with pytest.raises(DimensionMismatch):
        a @ a
    with pytest.raises(DimensionMismatch):
        a.charpoly()


@st.composite
def operand_grids(draw):
    """Grids a of shape r x k and b of shape k x m, 1x1 and non-square included."""
    r, k, m = (draw(st.integers(min_value=1, max_value=6)) for _ in range(3))
    return draw(grids(r, k)), draw(grids(k, m))


def _same_matrix(m, expected):
    """m has exactly the Fraction entries expected, and equals and hashes like
    the matrix the public constructor builds from them."""
    expected = tuple(tuple(row) for row in expected)
    built = RationalMatrix(expected)
    assert m.entries == expected and (m.rows, m.cols) == (len(expected), len(expected[0]))
    assert m == built and hash(m) == hash(built)


@settings(deadline=None, max_examples=150)
@given(operand_grids(), _fractions(5, 6))
def test_matrix_operations_match_fraction_arithmetic(operands, c):
    a_grid, _ = operands
    a = RationalMatrix(a_grid)
    _same_matrix(a, a_grid)
    for scalar in (c, -c, 0, -1, 2):
        _same_matrix(a.scaled(scalar), [[scalar * x for x in r] for r in a_grid])
    _same_matrix(a.transpose(), list(zip(*a_grid)))
    diag = a_grid[0]
    n = len(diag)
    _same_matrix(RationalMatrix.diagonal(diag), [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
    _same_matrix(RationalMatrix.diagonal([1] * n), [[int(i == j) for j in range(n)] for i in range(n)])


def test_integer_form_is_canonical_across_routes():
    half = RationalMatrix([[Fraction(1, 2), Fraction(-3, 2)]])
    _same_matrix(RationalMatrix([[2]]) @ half, [[1, -3]])
    _same_matrix(half.scaled(4), [[2, -6]])
    _same_matrix(half.scaled(0), [[0, 0]])
    _same_matrix(RationalMatrix._from_ints(6, [[2, -4], [0, 6]]), [[Fraction(1, 3), Fraction(-2, 3)], [0, 1]])
    assert half != RationalMatrix([[1, -3]]) and half != half.entries


def _schoolbook(a_grid, b_grid):
    """The Fraction product of two grids, one dot product per entry."""
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b_grid)] for row in a_grid]


def _schoolbook_commutator(x_grid, y_grid):
    """YX - XY + Id on Fraction grids."""
    yx, xy = _schoolbook(y_grid, x_grid), _schoolbook(x_grid, y_grid)
    return [[u - v + (i == j) for j, (u, v) in enumerate(zip(r, s))] for i, (r, s) in enumerate(zip(yx, xy))]


@settings(deadline=None, max_examples=150)
@given(operand_grids())
def test_products_match_fraction_schoolbook(operands):
    a_grid, b_grid = operands
    _same_matrix(RationalMatrix(a_grid) @ RationalMatrix(b_grid), _schoolbook(a_grid, b_grid))


_SQUARE_GRID_PAIRS = st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(grids(n, n), grids(n, n)))


def _same_commutator(x, y, x_grid, y_grid):
    _same_matrix(commutator_plus_identity(x, y), _schoolbook_commutator(x_grid, y_grid))


def _same_image_commutators(x_grid, y_grid):
    """The commutators of the involution image (Y^T, X^T) and the C* image
    (X / c, c Y) of the pair, against those of the grids they should hold."""
    x, y = RationalMatrix(x_grid), RationalMatrix(y_grid)
    c = Fraction(-3, 2)
    _same_commutator(*involution(x, y), list(zip(*y_grid)), list(zip(*x_grid)))
    x_image, y_image = [[v / c for v in row] for row in x_grid], [[c * v for v in row] for row in y_grid]
    _same_commutator(*cstar_act(c, x, y), x_image, y_image)


@settings(deadline=None, max_examples=100)
@given(_SQUARE_GRID_PAIRS)
def test_commutators_match_fraction_schoolbook(square_grids):
    x_grid, y_grid = square_grids
    x, y = RationalMatrix(x_grid), RationalMatrix(y_grid)
    _same_commutator(x, y, x_grid, y_grid)
    _same_commutator(y, x, y_grid, x_grid)


@settings(deadline=None, max_examples=100)
@given(_SQUARE_GRID_PAIRS)
def test_commutator_matches_fraction_products(square_grids):
    _same_image_commutators(*square_grids)


def test_commutator_matches_fraction_products_on_normal_forms():
    for point in _seeded_points(2013, (1, 2, 5, 9, 13)):
        x, y = wilson_representative(point)
        _same_commutator(x, y, x.entries, y.entries)
        _same_commutator(y, x, y.entries, x.entries)
        _same_image_commutators(x.entries, y.entries)


def test_commutator_of_a_diagonal_factor_takes_no_product(monkeypatch):
    calls = []
    product = cm._int_product

    def spy(a, b):
        calls.append((a, b))
        return product(a, b)

    monkeypatch.setattr(cm, "_int_product", spy)
    rng = random.Random(2018)
    x, y = wilson_representative(_seeded_point(rng, 6))
    dense = RationalMatrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(6)] for _ in range(6)])
    # Y diagonal in the normal form, X diagonal after the involution: both entrywise
    for pair in ((x, y), involution(x, y)):
        _same_matrix(commutator_plus_identity(*pair), _schoolbook_commutator(pair[0].entries, pair[1].entries))
    assert calls == []
    # no diagonal factor: the two products YX and XY
    _same_matrix(commutator_plus_identity(x, dense), _schoolbook_commutator(x.entries, dense.entries))
    assert calls == [(dense._ints, x._ints), (x._ints, dense._ints)]
    # an outer product scales the row of its right factor
    calls.clear()
    column, row = RationalMatrix([[1, -2, 3]]).transpose(), RationalMatrix([[4, 5, Fraction(1, 6)]])
    _same_matrix(column @ row, _schoolbook(column.entries, row.entries))
    assert calls == [(column._ints, row._ints)]


def test_rank_golden():
    assert RationalMatrix.diagonal([1] * 5).rank() == 5
    assert RationalMatrix([[0]]).rank() == 0
    assert RationalMatrix([[1, 2], [2, 4]]).rank() == 1
    assert RationalMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]).rank() == 1
    assert RationalMatrix([[1, 2], [3, 4]]).rank() == 2
    assert RationalMatrix([[1, 2, 3], [4, 5, 6]]).rank() == 2


def _fraction_pivot_columns(a):
    """Pivot columns by Fraction Gaussian elimination, the first nonzero entry pivoting."""
    m = [list(row) for row in a.entries]
    pivots = []
    for c in range(a.cols):
        r = len(pivots)
        pivot = next((i for i in range(r, a.rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, a.rows):
            f = m[i][c] / m[r][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


def _pivot_shapes(rng):
    """Square, wide and tall rational matrices: general, sparse, all zero, with
    zero columns, with a dependent middle column, and products of rank at most 1 and 2."""
    def draw(rows, cols):
        return [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(cols)] for _ in range(rows)]

    shapes = []
    for rows, cols in ((1, 1), (3, 3), (6, 6), (2, 5), (3, 8), (5, 2), (8, 3), (4, 9), (9, 4)):
        dependent = draw(rows, cols)
        if cols >= 3:
            for row in dependent:
                row[cols // 2] = 2 * row[0] - row[1] / 3
        shapes += [RationalMatrix(e) for e in (
            draw(rows, cols),
            [[x if rng.random() < 0.3 else 0 for x in row] for row in draw(rows, cols)],  # sparse
            [[0 if j in (0, cols // 2) else x for j, x in enumerate(row)] for row in draw(rows, cols)],
            dependent,
            [[0] * cols for _ in range(rows)],
        )]
        shapes += [RationalMatrix(draw(rows, k)) @ RationalMatrix(draw(k, cols)) for k in (1, 2)]
    return shapes


def _with_large_contents(a):
    """a with its first row times 2^200 and its last row over 3^120: rows whose
    integers carry a large common content."""
    rows = [list(row) for row in a.entries]
    rows[0] = [x * 2**200 for x in rows[0]]
    rows[-1] = [x / 3**120 for x in rows[-1]]
    return RationalMatrix(rows)


def test_pivot_columns_match_fraction_elimination():
    rng = random.Random(2020)
    # the basis columns schubert_profile reads as rows, at the north star's sizes n = 12 and 20
    embedded = [wilson_embed(_seeded_point(rng, n)).subspace.transpose() for n in (12, 20)]
    # an embedded basis whose columns get denominators from 1 to 7^110
    subspace = wilson_embed(_seeded_point(rng, 12)).subspace
    spread = subspace @ RationalMatrix.diagonal([Fraction(5 ** (3 * j), 7 ** (10 * j)) for j in range(12)])
    shapes = _pivot_shapes(rng)
    # rows that are zero from the start or become zero after a step: rank-one
    # outer products (a zero entry of the column makes a zero row between
    # nonzero rows), all ones, duplicated rows around a zero row, and zero
    for rows, cols in ((1, 4), (4, 1), (5, 5), (7, 3), (3, 7)):
        column = [Fraction(rng.randint(1, 6), rng.randint(1, 5)) for _ in range(rows)]
        column[rows // 2] = 0
        row = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(cols)]
        shapes.append(RationalMatrix([[u * v for v in row] for u in column]))
    shapes += [RationalMatrix(e) for e in (
        [[1] * 5 for _ in range(4)],
        [[1, 2, 3], [0, 0, 0], [4, 5, 6]],
        [[0, 2, -1], [0, 2, -1], [0, 0, 0], [3, 1, 1], [0, -4, 2], [3, 1, 1]],
        [[0] * 4 for _ in range(3)],
    )]
    shapes += [_with_large_contents(a) for a in shapes if a.rows > 1] + [spread.transpose()]
    skipped = 0
    for a in shapes + embedded:
        expected = _fraction_pivot_columns(a)
        assert cm._pivot_columns(a._ints) == expected
        assert a.rank() == len(expected)
        skipped += expected != list(range(len(expected)))
    # the shapes do make the pivots skip columns, not only stop early
    assert skipped > 10
    assert [a.rank() for a in embedded] == [12, 20]


def test_rank_eliminates_along_the_shorter_side(monkeypatch):
    rng = random.Random(2031)
    shapes = [a for a in _pivot_shapes(rng) if a.rows != a.cols]
    # tall 2n x n embedded bases over one common denominator
    shapes += [wilson_embed(_seeded_point(rng, n)).subspace for n in (6, 12)]
    for a in shapes:
        assert a.rank() == a.transpose().rank() == len(_fraction_pivot_columns(a))
    eliminated = _pivot_calls(monkeypatch)
    for a in shapes:
        a.rank()
        a.transpose().rank()
    assert len(eliminated) == 2 * len(shapes)
    assert all(rows < cols for rows, cols in eliminated)


def test_charpoly_golden():
    assert RationalMatrix.diagonal([0, 1]).charpoly() == (0, -1, 1)
    assert RationalMatrix([[0, -1], [1, 0]]).charpoly() == (1, 0, 1)
    assert RationalMatrix.diagonal([1] * 2).charpoly() == (1, -2, 1)
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
    for y in ((Fraction(2, 4), Fraction(1, 2)), (1, Fraction(1)), (True, 1)):
        with pytest.raises(DuplicateEigenvalue):
            CMPointRegular(y, [0, 0])
    with pytest.raises(ValueError):
        CMPointRegular([0, 1], [1])
    with pytest.raises(ValueError):
        CMPointRegular([], [])
    p = CMPointRegular([0, 1], [0, 0])
    with pytest.raises(AttributeError):
        p.y = (5,)


def _joint(first, second):
    """The point on the union of two points' eigenvalues, as embedding-block-factorization builds it."""
    return CMPointRegular(first.y + second.y, first.alpha + second.alpha)


def test_point_concatenation():
    joint = _joint(CMPointRegular([0], [1]), CMPointRegular([1], [2]))
    assert joint.y == (0, 1) and joint.alpha == (1, 2)
    with pytest.raises(DuplicateEigenvalue):
        _joint(CMPointRegular([0], [1]), CMPointRegular([0], [2]))


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
    assert not ok and witness is None and m.entries == RationalMatrix.diagonal([1] * 2).entries


def test_verify_cm_on_normal_form():
    x, y = wilson_representative(CMPointRegular([0, 1], [0, 0]))
    ok, m, witness = verify_cm(x, y)
    assert ok
    assert m.entries == ((1, 1), (1, 1))
    column, row = witness
    for i in range(2):
        for j in range(2):
            assert column[i] * row[j] == m.entries[i][j]
    # the all-ones witness of a larger normal form is one Fraction per distinct value
    ok, m, (column, row) = verify_cm(*wilson_representative(CMPointRegular([0, 1, 3, Fraction(-1, 2), 7], [1] * 5)))
    assert ok and column == row == (Fraction(1),) * 5
    assert len(set(map(id, column))) == len(set(map(id, row))) == 1


def test_verify_cm_compares_rows_from_column_zero():
    # YX - XY + I = [[0, 1], [-1, 2]] has rank two; its first nonzero row
    # starts at column 1, and the rows agree in proportion from there on
    x, y = RationalMatrix([[-1, -1], [-1, -1]]), RationalMatrix([[-1, 0], [-1, 0]])
    ok, m, witness = verify_cm(x, y)
    assert m.entries == ((0, 1), (-1, 2))
    assert (ok, witness) == (False, None)


@st.composite
def rank_at_most_two_matrices(draw):
    """Square matrices that are zero, one integer outer product u v^T, or a
    sum of two, over a drawn common denominator."""
    n = draw(st.integers(min_value=1, max_value=6))
    vector = st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n)
    rows = [[0] * n for _ in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        u, v = draw(vector), draw(vector)
        rows = [[x + a * b for x, b in zip(row, v)] for row, a in zip(rows, u)]
    return RationalMatrix(rows).scaled(draw(st.sampled_from((1, Fraction(1, 3), Fraction(5, 2)))))


@settings(deadline=None, max_examples=150)
@given(rank_at_most_two_matrices())
def test_rank_one_verdict_matches_exact_rank(m):
    with unittest.mock.patch.object(cm, "commutator_plus_identity", lambda x, y: m):
        ok, held, witness = verify_cm(None, None)
    assert held is m and ok == (m.rank() == 1)
    if ok:
        column, row = witness
        assert all(column[i] * row[j] == v for i, r in enumerate(m.entries) for j, v in enumerate(r))
    else:
        assert witness is None


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
    with pytest.raises(DimensionMismatch, match="need equal square matrices, got 1x2 and 3x3"):
        cstar_act(2, RationalMatrix([[1, 2]]), RationalMatrix.diagonal([1] * 3))
    # the scalar is checked before the shapes
    with pytest.raises(TypeError):
        cstar_act(1.5, RationalMatrix([[1, 2]]), RationalMatrix.diagonal([1] * 3))
    with pytest.raises(ZeroScalar):
        cstar_act(0, RationalMatrix([[1, 2]]), RationalMatrix.diagonal([1] * 3))


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
    with pytest.raises(DimensionMismatch, match="need equal square matrices, got 2x2 and 3x3"):
        projections(x, RationalMatrix.diagonal([1] * 3))


def _hook_fixed_pair(n, l):
    """The closed-form fixed pair of the hook (n - l, 1^l), basis e_0..e_{n-1}
    ordered by content -l..n-l-1: X e_k = e_{k+1} and Y e_{k+1} = c_k e_k,
    with c_k = -(k + 1) for k < l and c_k = n - 1 - k for k >= l."""
    x = [[int(i == k + 1) for k in range(n)] for i in range(n)]
    y = [[0] * n for _ in range(n)]
    for k in range(n - 1):
        y[k][k + 1] = -(k + 1) if k < l else n - 1 - k
    return RationalMatrix(x), RationalMatrix(y)


def test_hook_fixed_pairs_are_nilpotent_rank_one_and_cstar_fixed():
    pairs = 0
    for n in range(1, 13):
        for l in range(n):
            x, y = _hook_fixed_pair(n, l)
            assert x.charpoly() == y.charpoly() == (0,) * n + (1,)
            # YX - XY + I = n e_l e_l^t
            expected = RationalMatrix([[n if i == j == l else 0 for j in range(n)] for i in range(n)])
            assert commutator_plus_identity(x, y) == expected
            ok, m, witness = verify_cm(x, y)
            assert ok and m == expected
            column, row = witness
            assert RationalMatrix([column]).transpose() @ RationalMatrix([row]) == expected
            # the torus acts by conjugation with g = diag(c^-k), so the pair is fixed
            for c in (Fraction(2), Fraction(-1, 3)):
                g = RationalMatrix.diagonal([c**-k for k in range(n)])
                g_inverse = RationalMatrix.diagonal([c**k for k in range(n)])
                assert cstar_act(c, x, y) == (g @ x @ g_inverse, g @ y @ g_inverse)
            pairs += 1
    assert pairs == 78


# -- polynomial helpers


def test_poly_helpers():
    cubic = poly_from_roots([0, 1, 2])
    assert cubic == (0, 2, -3, 1)
    assert poly_eval(list(cubic), Fraction(3)) == 6
    assert poly_eval_derivative([1, 0, 1], Fraction(2)) == 4
    assert poly_mul([1, 1], [1, -1]) == [1, 0, -1]


def _fraction_root_product(roots):
    """prod (z - r) by the Fraction convolution loop, low-to-high coefficients."""
    out = [Fraction(1)]
    for r in roots:
        step = [Fraction(0)] * (len(out) + 1)
        for k, c in enumerate(out):
            step[k] -= c * r
            step[k + 1] += c
        out = step
    return tuple(out)


@settings(deadline=None, max_examples=100)
@given(st.lists(_fractions(20, 12), max_size=9))
def test_poly_from_roots_matches_fraction_product(roots):
    coeffs = poly_from_roots(roots)
    assert coeffs == _fraction_root_product(roots)
    assert all(type(c) is Fraction for c in coeffs)


def test_poly_from_roots_edge_cases_and_embedding_ideal():
    assert poly_from_roots([]) == (1,) and type(poly_from_roots([])[0]) is Fraction
    mixed = [2, True, False, -3, Fraction(-5, 6), Fraction(7, 4)]
    assert poly_from_roots(mixed) == _fraction_root_product([Fraction(r) for r in mixed])
    rng = random.Random(2015)
    for n in (1, 2, 5, 12, 20):
        point = _seeded_point(rng, n)
        assert wilson_embed(point).ideal == poly_from_roots(point.y)


def test_fraction_ideal_is_built_on_first_read():
    point = CMPointRegular([Fraction(1, 2), Fraction(-2, 3), 4], [1, 0, Fraction(-1, 2)])
    embedded = wilson_embed(point)
    assert embedded.n == 3
    ideal = embedded.ideal
    assert ideal == poly_from_roots(point.y)
    assert all(type(c) is Fraction for c in ideal)
    rebuilt = EmbeddedPoint(ideal, embedded.subspace)
    assert rebuilt.ideal == ideal and rebuilt.n == 3


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
    joint = wilson_embed(_joint(first, second))
    assert joint.ideal == tuple(
        poly_mul(list(wilson_embed(first).ideal), list(wilson_embed(second).ideal))
    )
    for part in (first, second):
        small = wilson_embed(part)
        for y_i in part.y:
            assert component_line(joint, y_i) == component_line(small, y_i)


def _clones(value):
    return copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))


def test_cm_types_copy_and_pickle_through_their_constructors():
    rng = random.Random(2040)
    point = _seeded_point(rng, 5)
    x, y = wilson_representative(point)
    for matrix in (x, y, RationalMatrix([[Fraction(1, 2), -3]]), x.transpose() @ y):
        for clone in _clones(matrix):
            assert type(clone) is RationalMatrix and clone == matrix and hash(clone) == hash(matrix)
            assert clone.entries == matrix.entries and clone._ints == matrix._ints
    for clone in _clones(point):
        assert type(clone) is CMPointRegular and (clone.y, clone.alpha) == (point.y, point.alpha)
        with pytest.raises(AttributeError):
            clone.y = ()
    embedded = wilson_embed(point)
    for original in (embedded, EmbeddedPoint(embedded.ideal, embedded.subspace)):
        for clone in _clones(original):
            # a copy is rebuilt through the public constructor and its echelon
            assert type(clone) is EmbeddedPoint and clone._images is None
            assert clone.ideal == embedded.ideal and clone.subspace == embedded.subspace
            for y_i in point.y:
                assert component_line(clone, y_i) == component_line(embedded, y_i)


def test_public_constructor_holds_the_embedding_form():
    rng = random.Random(2020)
    for n in (1, 3, 8):
        point = _seeded_point(rng, n)
        embedded = wilson_embed(point)
        rebuilt = EmbeddedPoint(embedded.ideal, embedded.subspace)
        _holds_one_form(rebuilt, embedded.subspace.entries, 1)
        assert rebuilt.subspace == embedded.subspace and rebuilt.ideal == embedded.ideal
        for y_i, alpha_i in zip(point.y, point.alpha):
            assert component_line(rebuilt, y_i) == component_line(embedded, y_i) == (1, -alpha_i)


def test_embedded_point_validation():
    with pytest.raises(ValueError):
        EmbeddedPoint((0, 2), RationalMatrix([[1], [0]]))
    with pytest.raises(ValueError):
        EmbeddedPoint((0, 1), RationalMatrix([[1], [0], [0]]))
    with pytest.raises(ValueError):
        EmbeddedPoint((0, -1, 1), RationalMatrix([[1, 2], [0, 0], [0, 0], [0, 0]]))


def test_embedded_point_is_immutable():
    point = wilson_embed(CMPointRegular([0, Fraction(1, 2)], [1, Fraction(-2, 3)]))
    for name in ("ideal", "subspace", "_scale", "_columns", "_dens", "_ideal_ints", "_images"):
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
    # at 1/4, r = 2 * 1/4 = 1/2 has the numerator of the held root 1
    for not_a_root in (Fraction(1, 3), 2, Fraction(-1, 2), Fraction(1, 4)):
        with pytest.raises(ValueError, match="not a root"):
            component_line(embedded, not_a_root)


# -- Schubert profiles


def test_monomial_subspace_refuses_no_exponents():
    with pytest.raises(ValueError, match="need at least one exponent"):
        monomial_subspace([], 2)


def test_monomial_subspace_refuses_repeated_exponents():
    # [1, 1] would be a 4x2 "basis" of rank 1, which no profile exists for
    with pytest.raises(ValueError, match="repeated exponent"):
        monomial_subspace([1, 1], 4)
    with pytest.raises(ValueError, match="repeated exponent"):
        monomial_subspace((5, 3, 5), 6)


def test_monomial_subspace_golden():
    m = monomial_subspace({5, 3, 1}, 6)
    assert m.rows == 6 and m.cols == 3
    assert [r for r in range(6) if m.entries[r][0] == 1] == [5]
    with pytest.raises(ValueError):
        monomial_subspace({6}, 6)
    for exponents in ([3.0, 1.0], ["3", "1"], [3, Fraction(1)]):
        with pytest.raises(TypeError):
            monomial_subspace(exponents, 4)


def test_profile_of_top_monomials_is_empty():
    assert schubert_profile(monomial_subspace({2, 3}, 4)) == Partition(())
    assert schubert_profile(monomial_subspace({3, 4, 5}, 6)) == Partition(())


def test_profile_of_mixed_subspace():
    # span{1 + z^3, z + z^2} meets the flag first at step 3, then at step 4
    w = RationalMatrix([[1, 0], [0, 1], [0, 1], [1, 0]])
    assert schubert_profile(w) == Partition((2, 2))


def _meet_profile(subspace):
    """Profile by the definition, from dim(W meet F_j) for every j, or None
    when the basis columns are dependent.  F_j is spanned by the top j
    monomials, so a vector of W lies in it when its other 2n - j coordinates
    vanish: dim(W meet F_j) = n - rank of the basis's first 2n - j rows."""
    n, ambient = subspace.cols, subspace.rows
    if subspace.rank() != n:
        return None
    jumps, prev = [], 0
    for j in range(1, ambient + 1):
        d = n - (RationalMatrix(subspace.entries[: ambient - j]).rank() if j < ambient else 0)
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
        expected = _meet_profile(subspace)
        if expected is None:
            with pytest.raises(NotInAnyCell):
                schubert_profile(subspace)
            continue
        assert schubert_profile(subspace) == expected
        profiles.add(expected)
        compared += 1
    assert len(profiles) > 20


def test_profile_errors():
    with pytest.raises(DimensionMismatch):
        schubert_profile(RationalMatrix([[1], [0], [0]]))
    with pytest.raises(NotInAnyCell):
        schubert_profile(RationalMatrix([[1, 1], [0, 0], [0, 0], [0, 0]]))


def _synthetic_division(coeffs, r):
    """(quotient, remainder) of an integer polynomial by w - r, low to high."""
    quotient, acc = [], 0
    for c in reversed(coeffs):
        quotient.append(acc)
        acc = acc * r + c
    return quotient[:0:-1], acc


def test_double_root_division_matches_two_synthetic_divisions():
    rng = random.Random(2022)
    for _ in range(200):
        r = rng.randint(-30, 30)
        q = [rng.randint(-50, 50) for _ in range(rng.randint(1, 12))]
        p = poly_mul(poly_mul(q, [-r, 1]), [-r, 1])
        once, rem_once = _synthetic_division(p, r)
        twice, rem_twice = _synthetic_division(once, r)
        assert rem_once == rem_twice == 0
        assert cm._divide_by_double_root(p, r) == twice == q
    assert cm._divide_by_double_root([1, -2, 1], 1) == [1]


def test_synthetic_division_by_a_non_root_raises():
    """Double-root division raises at a non-root and at a simple root."""
    for coeffs, r, message in (
        ([2, -3, 1], 1, None),  # (w - 1)(w - 2): a simple root
        ([-2, 0, 0, 1], 1, None),  # not a root
        ([1, 0, 1], 0, None),  # not a root
        # (w - 3)^2 at -3: not a root, and the factor prints as w + 3
        (poly_mul([-3, 1], [-3, 1]), -3, r"^division by \(w \+ 3\)\^2 left remainders \(36, -12\)$"),
    ):
        with pytest.raises(ArithmeticError, match=message):
            cm._divide_by_double_root(coeffs, r)


def test_prime_is_prime_and_one_digit():
    p = cm._PRIME
    assert 2**29 < p < 2**30
    assert all(p % k for k in range(2, math.isqrt(p) + 1))


# -- test-only oracles: kernels of their own on Fraction or int grids


def _trace_recurrence_charpoly(a):
    """det(zI - A) by the Faddeev-LeVerrier trace recurrence on plain int lists.

    The Fraction entries are cleared by their least common denominator d, so
    B = d A is an integer matrix.  With M_1 = I, c_(n-k) = -tr(B M_k) / k and
    M_(k+1) = B M_k + c_(n-k) I, every c is an integer and every trace divides
    exactly by k.  det(zI - A) = d^-n det(dz I - B), so coefficient j of A's
    polynomial is c_j / d^(n-j).  Reads the entries alone, no matrix operation.
    """
    grid = a.entries
    n = len(grid)
    d = math.lcm(*(x.denominator for row in grid for x in row))
    b = [[x.numerator * (d // x.denominator) for x in row] for row in grid]
    coeffs = [0] * n + [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        columns = list(zip(*m))
        bm = [[sum(u * v for u, v in zip(row, column)) for column in columns] for row in b]
        c, remainder = divmod(-sum(bm[i][i] for i in range(n)), k)
        assert remainder == 0
        coeffs[n - k] = c
        m = [[v + c * (i == j) for j, v in enumerate(row)] for i, row in enumerate(bm)]
    return tuple(Fraction(c, d ** (n - j)) for j, c in enumerate(coeffs))


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


def _fraction_cleared_columns(matrix):
    """Each Fraction column times the least common multiple of its denominators,
    and those multiples."""
    columns, dens = [], []
    for column in zip(*matrix.entries):
        d = math.lcm(*(x.denominator for x in column))
        columns.append(tuple(int(x * d) for x in column))
        dens.append(d)
    return tuple(columns), tuple(dens)


def _holds_one_form(embedded, subspace_entries, scale):
    """The point holds the scale s, and its columns h over their denominators d
    are polynomials in w = s z: each column is reduced, and h_k s^k / d is
    entry k of the Fraction column of subspace_entries.  Its ideal integers
    are proportional to s^n ideal(w / s)."""
    assert embedded._scale == scale
    columns = tuple(zip(*subspace_entries))
    assert len(embedded._columns) == len(embedded._dens) == len(columns)
    for h, d, column in zip(embedded._columns, embedded._dens, columns):
        assert d > 0 and math.gcd(d, *h) == 1
        assert tuple(Fraction(h_k * scale**k, d) for k, h_k in enumerate(h)) == column
    ints, n = embedded._ideal_ints, embedded.n
    assert tuple(Fraction(v, ints[-1] * scale ** (n - k)) for k, v in enumerate(ints)) == embedded.ideal


def _wilson_scale(point):
    """The common denominator of the eigenvalues."""
    return math.lcm(*(v.denominator for v in point.y))


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


def _one_sided_border_zeros(rng, n, steps, side):
    """A matrix whose Berkowitz border row (side "row") or border column
    (side "column") vanishes at each of the given steps while the other
    border stays nonzero there."""
    def entry():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))

    grid = [[entry() for _ in range(n)] for _ in range(n)]
    for k in steps:
        for j in range(k):
            if side == "row":
                grid[k][j] = 0
            else:
                grid[j][k] = 0
    for k in steps:
        # keep the other border at step k nonzero, whatever later steps zeroed
        if k and side == "row":
            grid[0][k] = entry()
        elif k:
            grid[k][0] = entry()
    return RationalMatrix(grid)


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
        assert a.charpoly() == poly_from_roots([a.entries[i][i] for i in range(6)]) == _trace_recurrence_charpoly(a)


def test_charpoly_with_one_border_zero_matches_trace_recurrence():
    rng = random.Random(2031)
    for n in (2, 5, 9, 14, 20):
        steps = sorted(rng.sample(range(1, n), min(n - 1, 4)))
        for side in ("row", "column"):
            a = _one_sided_border_zeros(rng, n, steps, side)
            for k in steps:
                zeros = (not any(a._ints[k][:k]), not any(row[k] for row in a._ints[:k]))
                assert zeros == (side == "row", side == "column")
            assert a.charpoly() == _trace_recurrence_charpoly(a)


def test_charpoly_matches_oracles_on_large_normal_forms():
    """The cm-pairs sizes, where the integer entries grow largest."""
    for point in _seeded_points(2016, (12, 16, 20)):
        for a in wilson_representative(point):
            assert a.charpoly() == _trace_recurrence_charpoly(a)


def test_triangular_charpoly_at_size_30_is_the_diagonal_product():
    rng = random.Random(2032)
    n = 30
    diagonal = [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(n)]
    upper = [[diagonal[i] if i == j else Fraction(rng.randint(-9, 9), rng.randint(1, 7)) if j > i else 0
              for j in range(n)] for i in range(n)]
    for a in (RationalMatrix.diagonal(diagonal), RationalMatrix(upper), RationalMatrix(upper).transpose()):
        assert a.charpoly() == _fraction_root_product(diagonal)


def test_eigenvalue_check_compares_two_independent_computations(monkeypatch, capsys):
    """A wrong root product must fail eigenvalue-polynomial-match: charpoly
    does not read _root_product, so the check's two sides part ways."""
    from cmkostka.cli import main

    genuine = cm._root_product

    def wrong(a):
        q = genuine(a)
        return [q[0] + 1] + q[1:]

    monkeypatch.setattr(cm, "_root_product", wrong)
    code = main(["verify-all", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL eigenvalue-polynomial-match" in out
    assert RationalMatrix.diagonal([1, 2, 3]).charpoly() == (-6, 11, -6, 1)


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


def _same_embedding(point):
    embedded = wilson_embed(point)
    ideal, entries = _per_column_embed(point)
    _holds_one_form(embedded, entries, _wilson_scale(point))
    assert embedded.ideal == ideal
    _same_matrix(embedded.subspace, entries)
    for y_i in point.y:
        assert component_line(embedded, y_i) == _fraction_horner_line(embedded, y_i)


@settings(deadline=None, max_examples=40)
@given(regular_points(max_n=8))
def test_embedding_matches_per_column_oracle(point):
    _same_embedding(point)


def test_embedding_matches_per_column_oracle_at_large_sizes():
    for point in _seeded_points(2012, (12, 16, 20)):
        _same_embedding(point)


# both forms are held without a gcd pass: they must already be the reduced ones
_NORMAL_FORM_POINTS = (
    _seeded_points(2014, (1, 2, 3, 7, 12, 20)) + _seeded_points(2033, (1, 2, 3, 5, 8, 12, 20))
    + [CMPointRegular(list(range(-3, 4)), [0] * 7)]
)


def test_normal_form_matches_fraction_differences():
    for point in _NORMAL_FORM_POINTS:
        _same_matrix(wilson_representative(point)[0], _fraction_normal_form(point))


def test_wilson_y_is_the_diagonal_of_the_eigenvalues():
    for point in _NORMAL_FORM_POINTS:
        _, y = wilson_representative(point)
        assert y == RationalMatrix.diagonal(point.y)
        _same_matrix(y, [[y_i if i == j else 0 for j in range(point.n)] for i, y_i in enumerate(point.y)])


@settings(deadline=None, max_examples=40)
@given(
    rational_matrices(max_n=4),
    _fractions(5, 6),
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
    _holds_one_form(embedded, subspace.entries, 1)
    assert embedded.subspace == subspace
    assert component_line(embedded, root) == _fraction_horner_line(embedded, root)


def test_component_line_takes_both_horner_branches(monkeypatch):
    passes = []
    horner = cm._value_and_derivative

    def spy(coeffs, a, b=1):
        passes.append(b)
        return horner(coeffs, a, b)

    monkeypatch.setattr(cm, "_value_and_derivative", spy)
    # eigenvalue denominators 2 and 3: the scale is 6, so every held root is an integer
    point = CMPointRegular([Fraction(1, 2), Fraction(-2, 3), 4, Fraction(5, 6)], [Fraction(1, 3), -2, Fraction(7, 2), 0])
    embedded = wilson_embed(point)
    assert embedded._scale == 6
    assert list(embedded._images) == [3, -4, 24, 5]
    # per root, one pass for A and B in wilson_embed, and the root test and the image in _hold
    assert passes == [1] * 12
    for y_i, alpha_i in zip(point.y, point.alpha):
        passes.clear()
        assert component_line(embedded, y_i) == _fraction_horner_line(embedded, y_i) == (1, -alpha_i)
        assert passes == []  # the held image, with no pass
    # the public constructor holds scale 1, so the root 5/2 stays a fraction
    point = CMPointRegular([Fraction(5, 2), Fraction(1, 3)], [Fraction(-3, 4), 2])
    wilson = wilson_embed(point)
    rebuilt = EmbeddedPoint(wilson.ideal, wilson.subspace)
    assert rebuilt._images is None
    for y_i, alpha_i in zip(point.y, point.alpha):
        passes.clear()
        assert component_line(rebuilt, y_i) == _fraction_horner_line(rebuilt, y_i) == (1, -alpha_i)
        assert passes == [y_i.denominator] * 3  # the root test and one pass per column


# -- the Wilson certificate: one support identity per column, at its own root


def _wilson_parts(point):
    """The embedding of the point and the integer roots in w and Q^2 that
    wilson_embed holds it with."""
    embedded = wilson_embed(point)
    roots = [int(y_i * embedded._scale) for y_i in point.y]
    return embedded, roots, poly_mul(embedded._ideal_ints, embedded._ideal_ints)


def _rehold(embedded, columns, roots, square):
    """A new point from the embedding's integers with the given columns,
    certified at the given roots."""
    return object.__new__(EmbeddedPoint)._hold(
        embedded._scale, embedded._ideal_ints, tuple(zip(embedded._dens, columns)), roots, square
    )


def _in_its_block(column, roots, i):
    """Power-sum oracle: the integer column vanishes to order two at every
    root but roots[i], and its value or derivative at roots[i] is nonzero."""

    def value(r):
        return sum(c * r**k for k, c in enumerate(column))

    def derivative(r):
        return sum(k * c * r ** (k - 1) for k, c in enumerate(column) if k)

    others = (r for j, r in enumerate(roots) if j != i)
    return (value(roots[i]), derivative(roots[i])) != (0, 0) and all(value(r) == derivative(r) == 0 for r in others)


CERTIFIED_POINTS = [
    CMPointRegular([Fraction(7, 3)], [Fraction(-5, 2)]),
    CMPointRegular([Fraction(-3, 2), 4], [1, Fraction(2, 3)]),
    CMPointRegular([0, Fraction(5, 2)], [Fraction(1, 4), -3]),
    # eigenvalue denominators 2 and 3, with 0 among them
    CMPointRegular([Fraction(1, 2), 0, Fraction(-2, 3), 5], [Fraction(1, 3), -2, Fraction(7, 2), 0]),
    _seeded_point(random.Random(2023), 12),
    CMPointRegular([Fraction(k - 6, 1 + k % 2) for k in range(12)], [Fraction(k, 3) for k in range(12)]),
]


@pytest.mark.parametrize("point", CERTIFIED_POINTS, ids=["n=1", "n=2", "n=2-zero", "n=4-zero", "n=12", "n=12-zero"])
def test_certificate_refuses_every_column_that_leaves_its_block(point):
    embedded, roots, square = _wilson_parts(point)
    columns = embedded._columns
    assert _rehold(embedded, columns, roots, square)._images == embedded._images
    n, kept = point.n, 0
    for i, column in enumerate(columns):
        for k in range(2 * n):
            for bump in (1, -1):
                bumped = column[:k] + (column[k] + bump,) + column[k + 1 :]
                changed = columns[:i] + (bumped,) + columns[i + 1 :]
                if _in_its_block(bumped, roots, i):
                    kept += 1
                    _rehold(embedded, changed, roots, square)
                else:
                    with pytest.raises(ValueError):
                        _rehold(embedded, changed, roots, square)
    # Only a column whose other roots' squares leave no room changes by a
    # monomial and stays in its block: every linear column at n = 1, and the
    # w^2, w^3 bumps of the column at the nonzero root when the other is 0.
    assert kept == {1: 4, 2: 4 if 0 in roots else 0}.get(n, 0)


@pytest.mark.parametrize("point", CERTIFIED_POINTS[1:], ids=["n=2", "n=2-zero", "n=4-zero", "n=12", "n=12-zero"])
def test_certificate_refuses_wrong_roots(point):
    embedded, roots, square = _wilson_parts(point)
    columns = embedded._columns
    swapped = [roots[1], roots[0], *roots[2:]]
    non_root = next(r for r in range(-200, 200) if r not in roots)
    for wrong in (swapped, [roots[0], roots[0], *roots[2:]], [non_root, *roots[1:]], roots[:-1], roots + [non_root]):
        with pytest.raises(ValueError):
            _rehold(embedded, columns, wrong, square)
    for wrong_square in (square[:-1] + [2], square + [0]):
        with pytest.raises(ValueError):
            _rehold(embedded, columns, roots, wrong_square)
    # a square off by a constant has the same quotients and nonzero remainders
    with pytest.raises(ValueError):
        _rehold(embedded, columns, roots, [square[0] + 1, *square[1:]])
    # a repeated root whose two columns both lie in its block
    quotient = tuple(cm._divide_by_double_root(square, roots[0])) + (0,)
    with pytest.raises(ValueError, match="distinct"):
        _rehold(embedded, (columns[0], quotient, *columns[2:]), [roots[0], roots[0], *roots[2:]], square)
    # the right square with an ideal it is not the square of
    ints = embedded._ideal_ints
    with pytest.raises(ValueError, match="not a root of the ideal"):
        object.__new__(EmbeddedPoint)._hold(
            embedded._scale, [ints[0] + 1, *ints[1:]], tuple(zip(embedded._dens, columns)), roots, square
        )


def test_certificate_at_one_point_has_the_constant_quotient():
    # n = 1: Q^2 / (w - a)^2 is the constant 1, so the column is its own linear factor
    point = CMPointRegular([Fraction(-4, 3)], [Fraction(2, 5)])
    embedded, roots, square = _wilson_parts(point)
    assert roots == [-4] and square == [16, 8, 1]
    (column,) = embedded._columns
    assert len(column) == 2
    assert embedded._images == {-4: cm._value_and_derivative(column, -4)}
    # any nonzero linear column is independent, even one vanishing at the root
    assert _rehold(embedded, ((4, 1),), roots, square)._images == {-4: (0, 1)}
    with pytest.raises(ValueError, match="projects to zero"):
        _rehold(embedded, ((0, 0),), roots, square)
    with pytest.raises(ValueError, match=r"^column at -4 is not Q\^2 / \(w \+ 4\)\^2 times a linear factor$"):
        _rehold(embedded, ((1, 2, 3),), roots, square)


def test_held_images_match_fraction_horner_at_every_root():
    rng = random.Random(2024)
    for n in range(1, 21):
        point = _seeded_point(rng, n)
        embedded = wilson_embed(point)
        s = embedded._scale
        roots = [int(y_k * s) for y_k in point.y]
        assert list(embedded._images) == roots
        assert embedded.subspace.rank() == n
        for j, (column, y_j) in enumerate(zip(zip(*embedded.subspace.entries), point.y)):
            # the held image in w over the column's denominator, d/dz = s d/dw
            val, der = embedded._images[roots[j]]
            d = embedded._dens[j]
            assert (Fraction(val, d), Fraction(s * der, d)) == (
                poly_eval(list(column), y_j),
                poly_eval_derivative(list(column), y_j),
            )
            # the image at every other root is (0, 0)
            assert _in_its_block(embedded._columns[j], roots, j)


# -- the full-column-rank certificate and its exact fallback


def _pivot_calls(monkeypatch):
    """The shapes (rows, columns) of the integer rows that each exact
    elimination runs on, recorded by a spy on cm._pivot_columns."""
    calls = []
    exact = cm._pivot_columns

    def spy(rows):
        rows = list(rows)
        calls.append((len(rows), len(rows[0])))
        return exact(rows)

    monkeypatch.setattr(cm, "_pivot_columns", spy)
    return calls


def test_full_rank_certificate_skips_exact_rank(monkeypatch):
    calls = _pivot_calls(monkeypatch)
    wilson_embed(CMPointRegular([0, 1, Fraction(5, 2)], [Fraction(1, 2), -2, 0]))
    assert calls == []


def test_column_zero_mod_p_falls_back_and_is_accepted(monkeypatch):
    calls = _pivot_calls(monkeypatch)
    EmbeddedPoint((0, 1), RationalMatrix([[cm._PRIME], [0]]))
    assert calls == [(1, 2)]


def test_denominator_divisible_by_p_is_certified_without_fallback(monkeypatch):
    # column-cleared to the integers (1, p): a pivot mod p, no modular inverse needed
    calls = _pivot_calls(monkeypatch)
    EmbeddedPoint((0, 1), RationalMatrix([[Fraction(1, cm._PRIME)], [1]]))
    assert calls == []


def test_column_cleared_to_zero_mod_p_falls_back_and_is_accepted(monkeypatch):
    # column-cleared to the integers (p, 0), which vanish mod p
    calls = _pivot_calls(monkeypatch)
    EmbeddedPoint((0, 1), RationalMatrix([[Fraction(cm._PRIME, 3)], [0]]))
    assert calls == [(1, 2)]


def test_dependent_columns_fall_back_and_are_rejected(monkeypatch):
    calls = _pivot_calls(monkeypatch)
    dependent = RationalMatrix([[1, 2], [Fraction(1, 3), Fraction(2, 3)], [0, 0], [5, 10]])
    with pytest.raises(ValueError, match="linearly independent"):
        EmbeddedPoint((0, -1, 1), dependent)
    assert calls == [(2, 4)]


@settings(deadline=None, max_examples=60)
@given(rational_matrices(max_n=6))
def test_full_rank_verdict_matches_exact_rank(a):
    # a square matrix over a zero block is a 2n x n subspace of the same rank
    n = a.rows
    subspace = RationalMatrix([list(row) for row in a.entries] + [[0] * n for _ in range(n)])
    columns, _ = _fraction_cleared_columns(subspace)
    assert cm._full_column_rank(columns) == (a.rank() == n)


# -- the big-cell certificate for Schubert profiles and its exact fallback


def _point_with_zero_eigenvalue(rng, n):
    """A regular point with 0 among its eigenvalues and -1 not among them."""
    pool = [Fraction(v, d) for v in range(-40, 41) for d in (1, 2, 3) if Fraction(v, d) not in (0, -1)]
    y = [Fraction(0)] + rng.sample(sorted(set(pool)), n - 1)
    rng.shuffle(y)
    return CMPointRegular(y, [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)])


def test_zero_eigenvalue_takes_the_exact_path_and_shifting_restores_the_big_cell(monkeypatch):
    rng = random.Random(2019)
    for n in range(2, 11):
        point = _point_with_zero_eigenvalue(rng, n)
        shifted = CMPointRegular([v + 1 for v in point.y], point.alpha)
        with_zero, without_zero = wilson_embed(point).subspace, wilson_embed(shifted).subspace
        expected_zero, expected_big = _meet_profile(with_zero), _meet_profile(without_zero)
        calls = _pivot_calls(monkeypatch)
        assert schubert_profile(with_zero) == expected_zero == Partition((n,) + (n - 1,) * (n - 1))
        assert calls == [(n, 2 * n)]
        calls.clear()
        assert schubert_profile(without_zero) == expected_big == Partition((n,) * n)
        assert calls == []
        monkeypatch.undo()


def test_big_cell_singular_mod_p_falls_back_to_exact_elimination(monkeypatch):
    p = cm._PRIME
    calls = _pivot_calls(monkeypatch)
    # top blocks diag(p, 1) and [[1, 1], [1, 1 + p]] vanish modulo p, not over the rationals
    for subspace in (
        RationalMatrix([[p, 0], [0, 1], [1, 0], [0, 1]]),
        RationalMatrix([[1, 1], [1, 1 + p], [0, 0], [5, 0]]),
        RationalMatrix([[Fraction(p, 7)], [1]]),
    ):
        calls.clear()
        n = subspace.cols
        assert schubert_profile(subspace) == Partition((n,) * n)
        assert calls == [(n, 2 * n)]
    # singular over the rationals too: the exact path finds the smaller cell
    calls.clear()
    assert schubert_profile(RationalMatrix([[1, 2], [2, 4], [0, 1], [0, 0]])) == Partition((2, 1))
    assert calls == [(2, 4)]


@st.composite
def half_dimensional_bases(draw, max_n=6):
    """2n x n bases: general, columns starting at random exponents, with a dependent
    column, or with the top block scaled by the prime (singular modulo it)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    kind = draw(st.sampled_from(("general", "staggered", "dependent", "scaled")))
    entry = st.one_of(st.just(Fraction(0)), _NONZERO)
    columns = draw(st.lists(st.lists(entry, min_size=2 * n, max_size=2 * n), min_size=n, max_size=n))
    if kind == "staggered":
        lows = draw(st.lists(st.integers(min_value=0, max_value=2 * n - 1), min_size=n, max_size=n))
        columns = [[x if r >= low else Fraction(0) for r, x in enumerate(col)] for col, low in zip(columns, lows)]
    elif kind == "dependent":
        c = draw(_fractions(3, 3))
        columns[-1] = [c * x for x in columns[0]]
    rows = [[col[r] for col in columns] for r in range(2 * n)]
    if kind == "scaled":
        rows[:n] = [[cm._PRIME * x for x in row] for row in rows[:n]]
    return RationalMatrix(rows)


@settings(deadline=None, max_examples=120)
@given(half_dimensional_bases())
def test_certified_profile_matches_exact_profile(subspace):
    expected = _meet_profile(subspace)
    if expected is None:
        with pytest.raises(NotInAnyCell):
            schubert_profile(subspace)
    else:
        assert schubert_profile(subspace) == expected


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
