"""Exact rational matrix pairs satisfying the rank-one commutator condition.

Everything here is computed over the rationals with no tolerances, and the
kernels run on integers after clearing denominators: one fraction-free
(Bareiss) elimination on denominator-cleared integer rows gives the pivot
columns that both matrix rank and the Schubert profile read, the
commutator on the cleared X and Y, characteristic polynomials by
division-free Berkowitz on the cleared matrix, and the Grassmannian
embedding by explicit congruence solving at each eigenvalue, over the common
denominator of the eigenvalues.  An embedded subspace's full column rank is
certified modulo the prime 2^61 - 1 from its column-cleared integers (rank
can only drop modulo a prime), with exact elimination as the fallback only
when a column finds no pivot there.  Entries and scalars must be Fraction or
int; anything else raises TypeError rather than being coerced.
"""

from fractions import Fraction
from math import lcm
from operator import add, mul, sub

from .partitions import Partition


class DuplicateEigenvalue(ValueError):
    """Two prescribed eigenvalues coincide; the regular form needs them distinct."""


class DimensionMismatch(ValueError):
    """Matrix shapes do not fit the requested operation."""


class ZeroScalar(ValueError):
    """The torus only acts by nonzero scalars."""


class NotInAnyCell(RuntimeError):
    """No flag-intersection profile exists: the basis columns are dependent."""


_PRIME = 2**61 - 1


def _frac(x):
    """x as a Fraction; only Fraction and int (bool included) are exact inputs."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a Fraction or an int, got {type(x).__name__} {x!r}")


def _cleared(entries):
    """Common denominator d of the rational rows and the integer rows d * entries."""
    d = lcm(*(x.denominator for row in entries for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in entries]


class RationalMatrix:
    """Dense matrix of exact rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(_frac(x) for x in row) for row in entries)
        if not entries:
            raise ValueError("matrix needs at least one row")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @staticmethod
    def identity(n):
        return RationalMatrix.diagonal([1] * n)

    @staticmethod
    def diagonal(values):
        values = [_frac(v) for v in values]
        n = len(values)
        return RationalMatrix(
            [[values[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"RationalMatrix({[list(map(str, row)) for row in self.entries]})"

    def _entrywise(self, other, op, symbol):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(f"{self.rows}x{self.cols} {symbol} {other.rows}x{other.cols}")
        return RationalMatrix([map(op, row, other_row) for row, other_row in zip(self.entries, other.entries)])

    def __add__(self, other):
        return self._entrywise(other, add, "+")

    def __sub__(self, other):
        return self._entrywise(other, sub, "-")

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            row = [Fraction(0)] * other.cols
            for k in range(self.cols):
                a = self.entries[i][k]
                if a == 0:
                    continue
                other_row = other.entries[k]
                for j in range(other.cols):
                    if other_row[j]:
                        row[j] += a * other_row[j]
            out.append(row)
        return RationalMatrix(out)

    def scaled(self, c):
        c = _frac(c)
        return RationalMatrix([[c * x for x in row] for row in self.entries])

    def transpose(self):
        return RationalMatrix(zip(*self.entries))

    def trace(self):
        if self.rows != self.cols:
            raise DimensionMismatch("trace of a non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), Fraction(0))

    def _pivot_columns(self):
        """Pivot columns of the row echelon form, by fraction-free (Bareiss)
        elimination with partial pivoting on the row-cleared integers.

        Column c is a pivot exactly when it is independent of the columns
        before it, so the list does not depend on which rows pivot.
        """
        m = [_cleared([row])[1][0] for row in self.entries]  # scaling rows keeps the pivots
        rows, cols = self.rows, self.cols
        pivots = []
        prev = 1
        for c in range(cols):
            r = len(pivots)
            if r == rows:
                break
            pivot = max(range(r, rows), key=lambda i: abs(m[i][c]))
            if m[pivot][c] == 0:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            for i in range(r + 1, rows):
                for j in range(c + 1, cols):
                    m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
                m[i][c] = 0
            prev = m[r][c]
            pivots.append(c)
        return pivots

    def rank(self):
        """Exact rank: the number of Bareiss pivot columns."""
        return len(self._pivot_columns())

    def charpoly(self):
        """Monic characteristic polynomial det(zI - A), coefficients low to high.

        Division-free Berkowitz on the integer matrix B = d A, d the common
        denominator.  Write the leading (k+1) x (k+1) block of B as the k x k
        block B_k bordered by the column c, the row r and the corner b; then
        det(zI - B_{k+1}) is the lower-triangular Toeplitz matrix with first
        column (1, -b, -r c, -r B_k c, ..., -r B_k^(k-1) c) times
        det(zI - B_k), so step k costs k - 1 integer matrix-vector products.
        Since det(zI - A) = d^-n det(dz I - B), coefficient j is c_j / d^(n-j).
        """
        if self.rows != self.cols:
            raise DimensionMismatch("characteristic polynomial of a non-square matrix")
        d, b = _cleared(self.entries)
        poly = [1]  # det(zI - B_k), coefficients high to low
        for k, row in enumerate(b):
            # v has k entries, so map(mul, ..., v) reads only the first k of a row
            leading = b[:k]
            v = [b_i[k] for b_i in leading]
            toeplitz = [1, -row[k]]
            for j in range(k):
                if j:
                    v = [sum(map(mul, b_i, v)) for b_i in leading]
                toeplitz.append(-sum(map(mul, row, v)))
            poly = [sum(map(mul, poly, toeplitz[i::-1])) for i in range(k + 2)]
        return tuple(Fraction(c, d ** j) for j, c in enumerate(poly))[::-1]


def _cleared_columns(matrix):
    """Each column cleared to integers over its own common denominator."""
    return tuple(tuple(_cleared([column])[1][0]) for column in zip(*matrix.entries))


def _full_column_rank(matrix, columns):
    """Whether the columns are linearly independent over the rationals.

    Fraction-free elimination modulo the prime 2^61 - 1 on the
    column-cleared integers certifies full rank, since scaling a column
    keeps the rank and rank can only drop modulo a prime.  When a column
    finds no pivot there, the exact rank decides.
    """
    rows = [[x % _PRIME for x in row] for row in zip(*columns)]
    for c in range(matrix.cols):
        pivot = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if pivot is None:
            return matrix.rank() == matrix.cols
        rows[c], rows[pivot] = rows[pivot], rows[c]
        lead = rows[c]
        p = lead[c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [(a * p - f * b) % _PRIME for a, b in zip(rows[i], lead)]
    return True


class CMPointRegular:
    """Distinct eigenvalues y_1..y_n and diagonal parameters alpha_1..alpha_n."""

    __slots__ = ("y", "alpha")

    def __init__(self, y, alpha):
        y = tuple(_frac(v) for v in y)
        alpha = tuple(_frac(v) for v in alpha)
        if len(y) != len(alpha):
            raise ValueError(f"{len(y)} eigenvalues but {len(alpha)} parameters")
        if not y:
            raise ValueError("need at least one point")
        if len(set(y)) != len(y):
            raise DuplicateEigenvalue(f"eigenvalues must be pairwise distinct: {[str(v) for v in y]}")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "alpha", alpha)

    def __setattr__(self, name, value):
        raise AttributeError("CMPointRegular is immutable")

    @property
    def n(self):
        return len(self.y)

    def concatenated(self, other):
        """Join with another point; the supports must stay disjoint."""
        return CMPointRegular(self.y + other.y, self.alpha + other.alpha)


class EmbeddedPoint:
    """A codimension-n ideal (monic, as low-to-high coefficients) together with
    an n-dimensional subspace of the 2n-dimensional quotient, columns in the
    monomial basis 1, z, ..., z^(2n-1).  Each column is also kept cleared to
    integers over its own common denominator."""

    __slots__ = ("ideal", "subspace", "_columns")

    def __init__(self, ideal, subspace):
        ideal = tuple(_frac(c) for c in ideal)
        if not ideal or ideal[-1] != 1:
            raise ValueError("ideal generator must be monic")
        n = len(ideal) - 1
        if subspace.rows != 2 * n or subspace.cols != n:
            raise ValueError(f"subspace must be {2 * n}x{n}, got {subspace.rows}x{subspace.cols}")
        columns = _cleared_columns(subspace)
        if not _full_column_rank(subspace, columns):
            raise ValueError("subspace columns must be linearly independent")
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "subspace", subspace)
        object.__setattr__(self, "_columns", columns)

    def __setattr__(self, name, value):
        raise AttributeError("EmbeddedPoint is immutable")

    @property
    def n(self):
        return len(self.ideal) - 1


def wilson_representative(point):
    """Normal form (X, Y) of a regular point: Y diagonal, X with reciprocal
    eigenvalue differences off the diagonal and the alphas on it.  With d the
    common denominator of the eigenvalues and a_i = d y_i, x_ij = d/(a_i - a_j)."""
    d, (a,) = _cleared([point.y])
    x_rows = [
        [point.alpha[i] if i == j else Fraction(d, a_i - a_j) for j, a_j in enumerate(a)]
        for i, a_i in enumerate(a)
    ]
    return RationalMatrix(x_rows), RationalMatrix.diagonal(point.y)


def commutator_plus_identity(x, y):
    """YX - XY + Id, the matrix whose rank-one condition cuts out the space.

    The orientation matters: with the normal form (x_ij = 1/(y_i - y_j),
    Y diagonal) this is the all-ones matrix, visibly of rank one, while the
    opposite order has full rank as soon as n is at least 3.  X and Y are
    cleared to the integer matrices dx X and dy Y, whose commutator is
    dx dy (YX - XY).
    """
    if x.rows != x.cols or y.rows != y.cols or x.rows != y.rows:
        raise DimensionMismatch(f"need equal square matrices, got {x.rows}x{x.cols} and {y.rows}x{y.cols}")
    dx, x_rows = _cleared(x.entries)
    dy, y_rows = _cleared(y.entries)
    scale = dx * dy
    x_cols, y_cols = list(zip(*x_rows)), list(zip(*y_rows))
    return RationalMatrix(
        [
            [
                Fraction(
                    sum(map(mul, y_row, x_col)) - sum(map(mul, x_row, y_col)) + (scale if i == j else 0),
                    scale,
                )
                for j, (x_col, y_col) in enumerate(zip(x_cols, y_cols))
            ]
            for i, (x_row, y_row) in enumerate(zip(x_rows, y_rows))
        ]
    )


def verify_cm(x, y):
    """Check that YX - XY + Id has rank exactly one.

    Returns (ok, m, witness): m is the commutator-plus-identity matrix and
    witness is a (column, row) pair with m = column * row when ok.
    """
    m = commutator_plus_identity(x, y)
    if m.rank() != 1:
        return False, m, None
    pivot_row = next(i for i in range(m.rows) if any(m.entries[i]))
    row = m.entries[pivot_row]
    pivot_col = next(j for j in range(m.cols) if row[j] != 0)
    column = tuple(m.entries[i][pivot_col] / row[pivot_col] for i in range(m.rows))
    return True, m, (column, row)


def cstar_act(c, x, y):
    """Scale the pair: X by 1/c and Y by c; c must be nonzero."""
    c = _frac(c)
    if c == 0:
        raise ZeroScalar("torus scalars must be nonzero")
    return x.scaled(1 / c), y.scaled(c)


def involution(x, y):
    """Swap the pair through transposition: (X, Y) -> (Y^t, X^t)."""
    if x.rows != x.cols or y.rows != y.cols or x.rows != y.rows:
        raise DimensionMismatch(f"need equal square matrices, got {x.rows}x{x.cols} and {y.rows}x{y.cols}")
    return y.transpose(), x.transpose()


def projections(x, y):
    """Characteristic polynomials of X and Y, each as low-to-high coefficients."""
    return x.charpoly(), y.charpoly()


# -- dense univariate polynomials over the rationals, low-to-high coefficient lists


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def poly_from_roots(roots):
    """Monic polynomial with the given roots, low-to-high coefficients."""
    out = [Fraction(1)]
    for r in roots:
        out = poly_mul(out, [-_frac(r), Fraction(1)])
    return tuple(out)


def _divide_by_root(coeffs, r):
    """Quotient of an integer polynomial by (w - r) by synthetic division.

    Raises ArithmeticError unless r is a root.
    """
    out = [0] * (len(coeffs) - 1)
    acc = 0
    for k in range(len(coeffs) - 1, 0, -1):
        acc = acc * r + coeffs[k]
        out[k - 1] = acc
    remainder = acc * r + coeffs[0]
    if remainder:
        raise ArithmeticError(f"synthetic division by w - {r} left remainder {remainder}")
    return out


def _scaled_value_and_derivative(coeffs, a, b):
    """b^m p(a/b) and b^m p'(a/b) for integer coefficients of p, m = len - 1."""
    val, der, b_power = 0, 0, 1
    for c in reversed(coeffs):
        der = der * a + val
        val = val * a + c * b_power
        b_power *= b
    return val, der * b


def wilson_embed(point):
    """Embed a regular point into the relative Grassmannian.

    The ideal is the product of (z - y_i).  The i-th basis vector is the
    unique polynomial of degree < 2n congruent to 1 - alpha_i (z - y_i)
    modulo (z - y_i)^2 and to zero modulo (z - y_j)^2 for j != i; it is
    built directly as P_i * g_i where P_i is the product of the other
    squared factors and g_i is the inverse-linear correction at y_i.

    The work runs on integers in w = D z, D the common denominator of the
    eigenvalues and a_i = D y_i: Q(w) = prod (w - a_j), and each
    R_i = Q^2 / (w - a_i)^2 comes from two synthetic divisions.  With
    A = R_i(a_i), B = R_i'(a_i) and alpha_i = s/t, column i is
    R_i(w) (A D t - (s A + B D t)(w - a_i)) / (A^2 D t), so its z^k
    coefficient is h_k D^k / (A^2 D t); ideal coefficient k is q_k / D^(n-k).
    """
    n = point.n
    d, (a,) = _cleared([point.y])
    d_powers = [d**k for k in range(2 * n)]
    q = [1]
    for r in a:
        q = [lo - r * hi for lo, hi in zip([0] + q, q + [0])]
    square = [0] * (2 * n + 1)
    for i, qi in enumerate(q):
        for j, qj in enumerate(q):
            square[i + j] += qi * qj
    columns = []
    for a_i, alpha_i in zip(a, point.alpha):
        r_i = _divide_by_root(_divide_by_root(square, a_i), a_i)
        big_a, big_b = _scaled_value_and_derivative(r_i, a_i, 1)  # A is nonzero
        dt = d * alpha_i.denominator
        slope = alpha_i.numerator * big_a + big_b * dt
        constant = big_a * dt + slope * a_i  # h = R_i(w) (constant - slope w)
        h = [constant * lo - slope * hi for lo, hi in zip(r_i + [0], [0] + r_i)]
        den = big_a * big_a * dt
        columns.append([Fraction(h_k * d_k, den) for h_k, d_k in zip(h, d_powers)])
    ideal = tuple(Fraction(q_k, d_powers[n - k]) for k, q_k in enumerate(q))
    return EmbeddedPoint(ideal, RationalMatrix(list(zip(*columns))))


def component_line(point, y_i):
    """Project the subspace into the square of the maximal ideal quotient at y_i.

    Returns the projected line as a normalized pair (value, derivative) in the
    basis 1, (z - y_i); y_i must be a root of the ideal.  With y_i = a/b, one
    integer Horner pass over each of the point's column-cleared integer
    columns gives b^m (p(a/b), p'(a/b)); the column's common denominator and
    b^m cancel in the normalized line.  The root test runs the same pass on
    the integer-cleared ideal.
    """
    y_i = _frac(y_i)
    a, b = y_i.numerator, y_i.denominator
    _, (ideal,) = _cleared([point.ideal])
    if _scaled_value_and_derivative(ideal, a, b)[0]:
        raise ValueError(f"{y_i} is not a root of the ideal")
    images = []
    for coeffs in point._columns:
        val, der = _scaled_value_and_derivative(coeffs, a, b)
        if val or der:
            images.append((val, der))
    if not images:
        raise ValueError(f"subspace projects to zero at {y_i}")
    lead_val, lead_der = images[0]
    if any(val * lead_der != der * lead_val for val, der in images[1:]):
        raise ValueError(f"projection at {y_i} is not a line")
    scale = lead_val if lead_val != 0 else lead_der
    return Fraction(lead_val, scale), Fraction(lead_der, scale)


def monomial_subspace(exponents, ambient):
    """Coordinate subspace spanned by the given monomial exponents, as a basis matrix."""
    exps = sorted(exponents, reverse=True)
    if any(e < 0 or e >= ambient for e in exps):
        raise ValueError(f"exponents {exps} outside ambient degree {ambient}")
    return RationalMatrix(
        [[Fraction(1) if e == r else Fraction(0) for e in exps] for r in range(ambient)]
    )


def schubert_profile(subspace):
    """Flag-intersection profile of a half-dimensional subspace.

    The flag step j is spanned by the top j monomials; the profile entry l_i
    is j_i - i where j_i is the first step meeting the subspace in dimension
    i.  Returned with zero entries dropped, as a standard Partition.
    """
    if subspace.rows != 2 * subspace.cols:
        raise DimensionMismatch(
            f"need an n-dimensional subspace of a 2n-dimensional space, got {subspace.rows}x{subspace.cols}"
        )
    n = subspace.cols
    # dim(W meet F_j) counts the Bareiss pivots p >= 2n - j, so step j is a jump
    # exactly when 2n - j is a pivot column of the transposed basis.
    pivots = subspace.transpose()._pivot_columns()
    if len(pivots) != n:
        raise NotInAnyCell("basis columns are dependent")
    jumps = sorted(2 * n - p for p in pivots)
    increasing = [jumps[i] - (i + 1) for i in range(n)]
    return Partition(tuple(p for p in reversed(increasing) if p > 0))
