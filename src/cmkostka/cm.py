"""Exact rational matrix pairs satisfying the rank-one commutator condition.

Everything here is computed over the rationals with no tolerances.  Entries
and scalars must be Fraction or int; anything else raises TypeError rather
than being coerced.  Two immutable types carry the work, each built in one
place, its _hold, which checks its invariants:
- RationalMatrix holds one reduced integer form, which its kernels read and
  write: products, the commutator YX - XY + Id, Bareiss elimination, whose
  pivot columns give rank and the Schubert profile, and Berkowitz
  characteristic polynomials;
- EmbeddedPoint holds an ideal and a subspace basis as integer polynomials
  in w = s z, and certifies the columns' full rank without exact
  elimination: at each column's own root for a Wilson embedding, by a row
  echelon modulo a prime otherwise.
Each kernel's docstring gives its mechanism and its cost.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import index, mul, sub

from .partitions import Partition


class DuplicateEigenvalue(ValueError):
    """Two prescribed eigenvalues coincide; the regular form needs them distinct."""


class DimensionMismatch(ValueError):
    """Matrix shapes do not fit the requested operation."""


class ZeroScalar(ValueError):
    """The torus only acts by nonzero scalars."""


class NotInAnyCell(RuntimeError):
    """No flag-intersection profile exists: the basis columns are dependent."""


_PRIME = 2**30 - 35  # the largest prime below 2^30


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
    """Dense matrix of exact rationals, held in one integer form.

    The matrix is stored as a positive common denominator _den and a tuple
    of integer rows _ints, entries _ints[i][j] / _den, reduced so that _den
    and all the integers share no factor.  That form is unique, so equality
    and hashing compare it directly.  The kernels read and write the
    integers; the Fraction rows in entries are built on first read and kept.
    """

    __slots__ = ("rows", "cols", "_den", "_ints", "_entries")

    def __init__(self, entries):
        entries = tuple(tuple(_frac(x) for x in row) for row in entries)
        if len(set(map(len, entries))) > 1:
            raise ValueError("ragged rows")
        # the least common denominator of reduced fractions shares no factor
        # with all of the cleared numerators, so this form is already reduced
        den, ints = _cleared(entries)
        self._hold(den, tuple(map(tuple, ints)), entries)

    @staticmethod
    def _from_ints(den, rows):
        """The matrix with entries rows[i][j] / den for a positive integer den,
        rows an iterable of equal-length integer rows."""
        rows = tuple(map(tuple, rows))
        if den != 1:
            g = gcd(den, *chain.from_iterable(rows))
            if g != 1:
                den //= g
                rows = tuple([tuple([v // g for v in row]) for row in rows])
        return object.__new__(RationalMatrix)._hold(den, rows, None)

    def _hold(self, den, ints, entries):
        """Set the slots from the reduced integer form: den, the tuple of
        equal-length integer tuples ints, and the Fraction rows entries, or
        None to build them on first read; return the matrix.  Every matrix
        is built here, and here alone its shape is checked: at least one row
        and one column.  Callers that already hold a reduced form call it
        directly."""
        if not ints:
            raise ValueError("matrix needs at least one row")
        if not ints[0]:
            raise ValueError("matrix needs at least one column")
        object.__setattr__(self, "rows", len(ints))
        object.__setattr__(self, "cols", len(ints[0]))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_entries", entries)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not by setting slots
        return RationalMatrix, (self.entries,)

    @property
    def entries(self):
        """The entries as a tuple of Fraction rows."""
        entries = self._entries
        if entries is None:
            den = self._den
            entries = tuple(tuple(Fraction(v, den) for v in row) for row in self._ints)
            object.__setattr__(self, "_entries", entries)
        return entries

    @staticmethod
    def diagonal(values):
        d, (a,) = _cleared([[_frac(v) for v in values]])
        return RationalMatrix._diagonal(d, a)

    @staticmethod
    def _diagonal(d, a):
        """The diagonal matrix with entries a_i / d, for a positive integer d
        with gcd(d, a_1, ..., a_n) = 1: d and the integers a share no factor,
        so (d, a) is already the reduced form, as _cleared returns it."""
        zeros = (0,) * len(a)
        ints = tuple(zeros[:i] + (a_i,) + zeros[i + 1 :] for i, a_i in enumerate(a))
        return object.__new__(RationalMatrix)._hold(d, ints, None)

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self._den == other._den and self._ints == other._ints

    def __hash__(self):
        return hash((self._den, self._ints))

    def __repr__(self):
        return f"RationalMatrix({[list(map(str, row)) for row in self.entries]})"

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return RationalMatrix._from_ints(self._den * other._den, _int_product(self._ints, other._ints))

    def scaled(self, c):
        c = _frac(c)
        s = c.numerator
        return RationalMatrix._from_ints(self._den * c.denominator, [[s * v for v in row] for row in self._ints])

    def transpose(self):
        # the transpose of a reduced form is reduced
        return object.__new__(RationalMatrix)._hold(self._den, tuple(zip(*self._ints)), None)

    def _pivot_columns(self):
        """Pivot columns of the row echelon form, by fraction-free (Bareiss)
        elimination with partial pivoting on the integer rows, each first
        divided by its content (the gcd of its entries).

        Column c is a pivot exactly when it is independent of the columns
        before it, so the list does not depend on which rows pivot, and
        scaling a row keeps it.  A row that is zero, at the start or after
        an elimination step, can never pivot, so it is dropped: the pivot
        rows and columns stay the same, and a rank-one matrix stops after
        its first step.
        """
        m = []
        for row in self._ints:
            g = gcd(*row)
            if g:
                m.append([v // g for v in row] if g > 1 else list(row))
        cols = self.cols
        pivots = []
        prev = 1
        for c in range(cols):
            r = len(pivots)
            if r == len(m):
                break
            pivot = max(range(r, len(m)), key=lambda i: abs(m[i][c]))
            if m[pivot][c] == 0:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            for i in range(r + 1, len(m)):
                for j in range(c + 1, cols):
                    m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
                m[i][c] = 0
            m[r + 1 :] = [row for row in m[r + 1 :] if any(row)]
            prev = m[r][c]
            pivots.append(c)
        return pivots

    def rank(self):
        """Exact rank: the number of Bareiss pivot columns of the matrix, or
        of its transpose when it has more rows than columns.  Rank is
        unchanged under transposition, and the elimination then runs along
        the shorter side."""
        return len((self.transpose() if self.rows > self.cols else self)._pivot_columns())

    def charpoly(self):
        """Monic characteristic polynomial det(zI - A), coefficients low to high.

        Division-free Berkowitz on the integer matrix B = d A, d the common
        denominator.  Write the leading (k+1) x (k+1) block of B as the k x k
        block B_k bordered by the column c, the row r and the corner b; then
        det(zI - B_{k+1}) is the lower-triangular Toeplitz matrix with first
        column (1, -b, -r c, -r B_k c, ..., -r B_k^(k-1) c) times
        det(zI - B_k), so step k costs k - 1 integer matrix-vector products.
        When c or r is zero, every r B_k^j c vanishes and step k is the O(k)
        product with z - b; triangular and block-triangular matrices take
        that step at every border they zero.
        Since det(zI - A) = d^-n det(dz I - B), coefficient j is c_j / d^(n-j).
        """
        if self.rows != self.cols:
            raise DimensionMismatch("characteristic polynomial of a non-square matrix")
        d, b = self._den, self._ints
        poly = [1]  # det(zI - B_k), coefficients high to low
        for k, row in enumerate(b):
            # v has k entries, so map(mul, ..., v) reads only the first k of a row
            leading = b[:k]
            v = [b_i[k] for b_i in leading]
            corner = row[k]
            if not any(v) or not any(row[:k]):
                poly = [hi - corner * lo for hi, lo in zip(poly + [0], [0] + poly)]
                continue
            toeplitz = [1, -corner]
            for j in range(k):
                if j:
                    v = [sum(map(mul, b_i, v)) for b_i in leading]
                toeplitz.append(-sum(map(mul, row, v)))
            poly = [sum(map(mul, poly, toeplitz[i::-1])) for i in range(k + 2)]
        return tuple(Fraction(c, d ** j) for j, c in enumerate(poly))[::-1]


def _int_product(a, b):
    """Integer rows of the product of the integer rows a (r x k) and b (k x m).

    An outer product (k = 1) is the one row of b scaled by each entry of a.
    Otherwise every entry is one dot product of a row of a with a column of
    b; zeros are not skipped.  The one caller with a sparse factor, the
    commutator of a pair with a diagonal factor, builds its entries without
    a product.
    """
    if len(b) == 1:
        (b_row,) = b
        return [[a_k * v for v in b_row] for (a_k,) in a]
    columns = list(zip(*b))
    return [[sum(map(mul, row, column)) for column in columns] for row in a]


def _independent_rows_mod_p(rows, need):
    """Indices of the integer rows, taken in order, that are independent of
    the rows before them modulo the prime _PRIME; stops at need of them.

    An incremental row echelon form: each new row is reduced against the
    leads found so far, and a row left nonzero becomes a lead, scaled so that
    its first nonzero entry, its pivot, is 1.  A lead is zero before its
    pivot and every later lead is zero at it, so a reduction touches only
    the entries after the pivot.  The reductions of one row skip the modulus
    and the row is reduced once at the end; after k of them an entry stays
    below (k + 1) p^2.  Rank can only drop modulo a prime, so rows found
    independent here are independent over the rationals too.  The prime is
    below 2^30, so every residue is one CPython digit.
    """
    leads = []  # (pivot column, the lead's entries after it)
    found = []
    for i, row in enumerate(rows):
        r = [v % _PRIME for v in row]
        for c, tail in leads:
            f = r[c] % _PRIME
            if f:
                r[c] = 0
                r[c + 1 :] = [v - f * w for v, w in zip(r[c + 1 :], tail)]
        r = [v % _PRIME for v in r]
        c = next((j for j, v in enumerate(r) if v), None)
        if c is None:
            continue
        inverse = pow(r[c], -1, _PRIME)
        leads.append((c, [v * inverse % _PRIME for v in r[c + 1 :]]))
        found.append(i)
        if len(found) == need:
            break
    return found


def _full_column_rank(columns):
    """Whether the integer columns are linearly independent over the rationals.

    The columns are independent when as many of their rows are independent
    modulo the prime.  When fewer are, the exact rank decides.
    """
    n = len(columns)
    if len(_independent_rows_mod_p(zip(*columns), n)) == n:
        return True
    return RationalMatrix._from_ints(1, zip(*columns)).rank() == n


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
        # reduced fractions are equal exactly when their (numerator, denominator) pairs are
        if len({(v.numerator, v.denominator) for v in y}) != len(y):
            raise DuplicateEigenvalue(f"eigenvalues must be pairwise distinct: {[str(v) for v in y]}")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "alpha", alpha)

    def __setattr__(self, name, value):
        raise AttributeError("CMPointRegular is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not by setting slots
        return CMPointRegular, (self.y, self.alpha)

    @property
    def n(self):
        return len(self.y)


class EmbeddedPoint:
    """A codimension-n ideal (monic, as low-to-high coefficients) together with
    an n-dimensional subspace of the 2n-dimensional quotient, columns in the
    monomial basis 1, z, ..., z^(2n-1).

    The point is held in the coordinate w = s z, for a positive integer
    scale s: integers ideal_ints proportional to the coefficients of
    s^n I(w / s), I the ideal, and each basis column as integers h_k over
    its own denominator d, sharing no factor with it, so that the column's
    z^k coefficient is h_k s^k / d.  wilson_embed takes s = D, the common
    denominator of the eigenvalues, so that every root of its ideal is an
    integer in w; the public constructor takes s = 1.  The Fraction ideal
    and the subspace matrix in z are built on first read and kept; the
    public constructor keeps the ones it was given.  A Wilson point also
    keeps, per root a of its ideal in w, the image (h(a), h'(a)) of the one
    column that does not vanish to order two there; a point from the public
    constructor keeps None.  Both the public constructor and wilson_embed
    build the point through _hold.
    """

    __slots__ = ("_ideal", "_scale", "_ideal_ints", "_columns", "_dens", "_subspace", "_images")

    def __init__(self, ideal, subspace):
        ideal = tuple(_frac(c) for c in ideal)
        if not ideal or ideal[-1] != 1:
            raise ValueError("ideal generator must be monic")
        n = len(ideal) - 1
        if subspace.rows != 2 * n or subspace.cols != n:
            raise ValueError(f"subspace must be {2 * n}x{n}, got {subspace.rows}x{subspace.cols}")
        _, (ideal_ints,) = _cleared([ideal])
        den, columns = subspace._den, []
        for column in zip(*subspace._ints):
            g = gcd(den, *column)
            columns.append((den // g, tuple(v // g for v in column)))
        self._hold(1, ideal_ints, columns, ideal, subspace)

    def _hold(self, scale, ideal_ints, columns, ideal, subspace, roots=None, square=None):
        """Set the slots and return the point: the scale s, integers
        ideal_ints proportional to s^n ideal(w / s), the basis columns in w
        as reduced (denominator, integer column) pairs, and the Fraction
        ideal and the subspace matrix, or None to build them on first read.
        Every point is built here, and here alone the columns' full rank is
        checked.

        Without roots, the mod-p row echelon certifies it, and exact rank
        decides when the echelon fails.  With roots, the integer roots a_i
        of the ideal in w, one per column and in column order, and square,
        the integers of Q^2 for Q = prod (w - a_i), _wilson_images certifies
        each column at its own root and the point keeps its images there.
        """
        dens, columns = zip(*columns)
        if roots is None:
            if not _full_column_rank(columns):
                raise ValueError("subspace columns must be linearly independent")
            images = None
        else:
            images = _wilson_images(ideal_ints, columns, roots, square)
        object.__setattr__(self, "_ideal", ideal)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_ideal_ints", ideal_ints)
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_dens", dens)
        object.__setattr__(self, "_subspace", subspace)
        object.__setattr__(self, "_images", images)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("EmbeddedPoint is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the public constructor, so a copied
        # Wilson point certifies its columns by the row echelon
        return EmbeddedPoint, (self.ideal, self.subspace)

    @property
    def n(self):
        return len(self._ideal_ints) - 1

    @property
    def ideal(self):
        """The monic ideal generator in z, as low-to-high Fraction coefficients.

        With c the integers held for s^n I(w / s) up to a factor, coefficient
        k is c_k / (c_n s^(n-k)).
        """
        ideal = self._ideal
        if ideal is None:
            ints, s = self._ideal_ints, self._scale
            n, lead = len(ints) - 1, ints[-1]
            ideal = tuple(Fraction(c_k, lead * s ** (n - k)) for k, c_k in enumerate(ints))
            object.__setattr__(self, "_ideal", ideal)
        return ideal

    @property
    def subspace(self):
        """The basis as one matrix, columns in the monomial basis of z.

        Entry (k, j) is h_k s^k / d_j for column j; the matrix is built over
        L = lcm(d_j), column j scaled by L / d_j, and reduced once by
        RationalMatrix._from_ints.
        """
        subspace = self._subspace
        if subspace is None:
            den = lcm(*self._dens)
            s_powers = [self._scale**k for k in range(2 * self.n)]
            columns = []
            for column, d in zip(self._columns, self._dens):
                multiplier = den // d
                columns.append([v * s_k * multiplier for v, s_k in zip(column, s_powers)])
            subspace = RationalMatrix._from_ints(den, zip(*columns))
            object.__setattr__(self, "_subspace", subspace)
        return subspace


def wilson_representative(point):
    """Normal form (X, Y) of a regular point: Y diagonal, X with reciprocal
    eigenvalue differences off the diagonal and the alphas on it.  With d the
    common denominator of the eigenvalues and a_i = d y_i, x_ij = d/(a_i - a_j).
    X is built as integers over den, the least common multiple of the alphas'
    denominators and of each (a_i - a_j) / gcd(d, a_i - a_j), the reduced
    denominator of x_ij: its entries are den d / (a_i - a_j) and den alpha_i.
    Being the least common multiple of the reduced denominators, den shares
    no factor with all of those integers, so the form is held as built.  The
    entries below the diagonal are divided out once and negated above it,
    x_ji = -x_ij.  Y is built from the same d and a_i, without clearing y
    again."""
    d, (a,) = _cleared([point.y])
    alpha = point.alpha
    n = len(a)
    den = lcm(
        *(alpha_i.denominator for alpha_i in alpha),
        *[(a_i - a_j) // gcd(d, a_i - a_j) for i, a_i in enumerate(a) for a_j in a[:i]],
    )
    dd = den * d
    x_rows = [[dd // (a_i - a_j) for a_j in a[:i]] for i, a_i in enumerate(a)]
    for i, (row, alpha_i) in enumerate(zip(x_rows, alpha)):
        row.append(alpha_i.numerator * (den // alpha_i.denominator))
        row.extend([-x_rows[j][i] for j in range(i + 1, n)])
    x = object.__new__(RationalMatrix)._hold(den, tuple(map(tuple, x_rows)), None)
    return x, RationalMatrix._diagonal(d, a)


def _check_pair(x, y):
    """Refuse a matrix pair unless both are square of one size."""
    if x.rows != x.cols or y.rows != y.cols or x.rows != y.rows:
        raise DimensionMismatch(f"need equal square matrices, got {x.rows}x{x.cols} and {y.rows}x{y.cols}")


def commutator_plus_identity(x, y):
    """YX - XY + Id, the matrix whose rank-one condition cuts out the space.

    The orientation matters: with the normal form (x_ij = 1/(y_i - y_j),
    Y diagonal) this is the all-ones matrix, visibly of rank one, while the
    opposite order has full rank as soon as n is at least 3.  X and Y are
    held as the integer matrices dx X and dy Y, whose commutator is
    dx dy (YX - XY).  When dy Y is the diagonal matrix (d_i), entry ij of
    that commutator is (d_i - d_j) x_ij, read off the integer rows of X with
    no product; when dx X is diagonal, the same holds with the rows of Y and
    the signs of the d_i flipped.  So the normal form costs O(n^2); any
    other pair takes the two products.
    """
    _check_pair(x, y)
    scale = x._den * y._den
    if _is_diagonal(y._ints):
        d, other = [row[i] for i, row in enumerate(y._ints)], x._ints
    elif _is_diagonal(x._ints):
        d, other = [-row[i] for i, row in enumerate(x._ints)], y._ints
    else:
        d = None
    if d is None:
        m = [list(map(sub, u, v)) for u, v in zip(_int_product(y._ints, x._ints), _int_product(x._ints, y._ints))]
    else:
        m = [[(d_i - d_j) * v for d_j, v in zip(d, row)] for d_i, row in zip(d, other)]
    for i, row in enumerate(m):
        row[i] += scale
    return RationalMatrix._from_ints(scale, m)


def _is_diagonal(ints):
    """Whether the square integer rows are zero off the diagonal."""
    return not any(any(row[:i]) or any(row[i + 1 :]) for i, row in enumerate(ints))


def verify_cm(x, y):
    """Check that YX - XY + Id has rank exactly one.

    Returns (ok, m, witness): m is the commutator-plus-identity matrix and
    witness is a (column, row) pair with m = column * row when ok: row is
    the first nonzero row of m and column divides column c of m by the row's
    first nonzero entry, both read off m's integer rows, with one Fraction
    per distinct value.

    No elimination runs: m has rank one exactly when it has a nonzero row
    irow and every row r satisfies r * irow[c] == irow * r[c], c the first
    nonzero column of irow, which says that r is r[c] / irow[c] times irow.
    """
    m = commutator_plus_identity(x, y)
    den, ints = m._den, m._ints
    irow = next((row for row in ints if any(row)), None)
    if irow is None:
        return False, m, None
    c = next(j for j, v in enumerate(irow) if v)
    pivot = irow[c]
    for row in ints:
        t = row[c]
        if row != irow and any(v * pivot != u * t for v, u in zip(row, irow)):
            return False, m, None
    return True, m, (_fractions([r[c] for r in ints], pivot), _fractions(irow, den))


def _fractions(numerators, den):
    """The tuple of Fraction(v, den) over the integers v, one Fraction built
    per distinct v."""
    made = {v: Fraction(v, den) for v in set(numerators)}
    return tuple([made[v] for v in numerators])


def cstar_act(c, x, y):
    """Scale the pair: X by 1/c and Y by c; c must be nonzero."""
    c = _frac(c)
    if c == 0:
        raise ZeroScalar("torus scalars must be nonzero")
    _check_pair(x, y)
    return x.scaled(1 / c), y.scaled(c)


def involution(x, y):
    """Swap the pair through transposition: (X, Y) -> (Y^t, X^t)."""
    _check_pair(x, y)
    return y.transpose(), x.transpose()


def projections(x, y):
    """Characteristic polynomials of X and Y, each as low-to-high coefficients."""
    _check_pair(x, y)
    return x.charpoly(), y.charpoly()


# -- dense univariate polynomials over the rationals, low-to-high coefficient lists


def poly_mul(a, b):
    """The product; its coefficients are integers when both factors' are."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _root_product(a):
    """Integer coefficients of prod (w - a_i), low to high."""
    q = [1]
    for r in a:
        q = [lo - r * hi for lo, hi in zip([0] + q, q + [0])]
    return q


def poly_from_roots(roots):
    """Monic polynomial with the given roots, low-to-high coefficients.

    With d the common denominator of the roots and a_i = d r_i, the product
    of (z - r_i) is d^-n prod (w - a_i) at w = d z, so coefficient k is
    q_k / d^(n-k).
    """
    d, (a,) = _cleared([[_frac(r) for r in roots]])
    n = len(a)
    return tuple(Fraction(q_k, d ** (n - k)) for k, q_k in enumerate(_root_product(a)))


def _w_minus(a):
    """The linear factor w - a as failure details print it: w + 3 at a = -3."""
    return f"w - {a}" if a >= 0 else f"w + {-a}"


def _divide_by_double_root(coeffs, r):
    """Quotient of an integer polynomial by (w - r)^2, as two synthetic
    divisions by w - r in one pass: the second division takes each quotient
    coefficient of the first as it is made, high to low.

    Raises ArithmeticError unless r is a root of multiplicity at least two.
    """
    out = [0] * (len(coeffs) - 2)
    first = second = 0
    for k in range(len(coeffs) - 1, 1, -1):
        first = first * r + coeffs[k]
        second = second * r + first
        out[k - 2] = second
    first = first * r + coeffs[1]
    remainders = (first * r + coeffs[0], second * r + first)
    if any(remainders):
        raise ArithmeticError(f"division by ({_w_minus(r)})^2 left remainders {remainders}")
    return out


def _value_and_derivative(coeffs, a, b=1):
    """b^m p(a/b) and b^m p'(a/b) for integer coefficients of p, m = len - 1;
    at an integer point (b = 1), p(a) and p'(a) by two multiplications per
    coefficient."""
    val = der = 0
    if b == 1:
        for c in reversed(coeffs):
            der = der * a + val
            val = val * a + c
        return val, der
    b_power = 1
    for c in reversed(coeffs):
        der = der * a + val
        val = val * a + c * b_power
        b_power *= b
    return val, der * b


def _wilson_images(ideal_ints, columns, roots, square):
    """Certify that the integer columns h_i in w, column i paired with
    roots[i], are linearly independent, and return their images
    {a_i: (h_i(a_i), h_i'(a_i))} at their own roots.

    Raises ValueError unless, with n = len(roots):
    1. the roots are distinct and each is a root of ideal_ints, of degree
       n, so the ideal is Q = prod (w - a_i) up to a factor;
    2. square is monic of degree 2n, there is one column of 2n
       coefficients per root, and for each column square = (w - a_i)^2 R_i
       with no remainder and h_i = R_i l_i for a linear l_i, checked by
       _is_quotient_times_linear at O(n) products per column;
    3. each column's image at its own root is nonzero.
    Checks 1 and 3 take one Horner pass per root.
    By 2, square is monic of degree 2n and divisible by every (w - a_i)^2,
    so square = Q^2, and h_i = l_i Q^2 / (w - a_i)^2 vanishes to order two
    at every other root.  Values and derivatives at n distinct points
    determine a polynomial of degree < 2n (Hermite interpolation), and they
    send column i to root i's pair of coordinates alone, where by 3 its
    image is nonzero, so the columns are independent.  The division is the
    certificate's own, so a fault in the division wilson_embed builds its
    columns from cannot pass it.
    """
    n = len(roots)
    if len(set(roots)) != n or len(ideal_ints) != n + 1 or not ideal_ints[-1]:
        raise ValueError(f"roots {roots} are not {len(ideal_ints) - 1} distinct roots of the ideal")
    for a in roots:
        if _value_and_derivative(ideal_ints, a)[0]:
            raise ValueError(f"{a} is not a root of the ideal")
    if len(columns) != n or len(square) != 2 * n + 1 or square[-1] != 1:
        raise ValueError("need one column per root and a monic square of degree 2n")
    images = {}
    for h, a in zip(columns, roots):
        if len(h) != 2 * n or not _is_quotient_times_linear(h, square, a):
            raise ValueError(f"column at {a} is not Q^2 / ({_w_minus(a)})^2 times a linear factor")
        image = _value_and_derivative(h, a)
        if image == (0, 0):
            raise ValueError(f"column at {a} projects to zero there")
        images[a] = image
    return images


def _is_quotient_times_linear(h, square, a):
    """Whether square = (w - a)^2 R with no remainder and h = R l for a
    linear l, for integer coefficients h, one fewer than square's, and a
    monic square.

    R comes from two synthetic divisions by w - a in one pass, high to low,
    as in _divide_by_double_root, and each coefficient of h is compared with
    R l as the coefficients of R are made.  R is monic with next coefficient
    square_(m-1) + 2a, m = deg square, so l = constant + slope w is read off
    the top two coefficients of h.
    """
    slope = h[-1]
    constant = h[-2] - (square[-2] + 2 * a) * slope
    first = quotient = upper = 0
    for k in range(len(square) - 1, 1, -1):
        first = first * a + square[k]
        quotient = quotient * a + first  # R_(k-2), and upper is R_(k-1)
        if h[k - 1] != constant * upper + slope * quotient:
            return False
        upper = quotient
    first = first * a + square[1]
    return not (first * a + square[0] or quotient * a + first) and h[0] == constant * quotient


def wilson_embed(point):
    """Embed a regular point into the relative Grassmannian.

    The ideal is the product of (z - y_i).  The i-th basis vector is the
    unique polynomial of degree < 2n congruent to 1 - alpha_i (z - y_i)
    modulo (z - y_i)^2 and to zero modulo (z - y_j)^2 for j != i; it is
    built directly as P_i * g_i where P_i is the product of the other
    squared factors and g_i is the inverse-linear correction at y_i.

    The work runs on integers in w = D z, D the common denominator of the
    eigenvalues and a_i = D y_i, and the point is held there with scale D:
    Q(w) = prod (w - a_j) is the ideal's integers, and each
    R_i = Q^2 / (w - a_i)^2 comes from one pass of double-root division.
    With A = R_i(a_i), B = R_i'(a_i) and alpha_i = u/t, column i is
    R_i(w) (A D t - (u A + B D t)(w - a_i)) / (A^2 D t).  R_i is monic, so
    by Gauss's lemma the content of that integer column is the content of
    its linear factor, and the column is reduced by dividing the linear
    factor and the denominator by their gcd.  The point is held with the
    roots a_i and Q^2, so _hold certifies each column at its own root, with
    no row echelon, and keeps its image there for component_line.
    """
    d, (a,) = _cleared([point.y])
    q = _root_product(a)
    square = poly_mul(q, q)
    columns = []
    for a_i, alpha_i in zip(a, point.alpha):
        r_i = _divide_by_double_root(square, a_i)
        big_a, big_b = _value_and_derivative(r_i, a_i)  # A is nonzero
        dt = d * alpha_i.denominator
        slope = alpha_i.numerator * big_a + big_b * dt
        constant = big_a * dt + slope * a_i  # h = R_i(w) (constant - slope w)
        den = big_a * big_a * dt
        g = gcd(den, constant, slope)
        if g > 1:
            den, constant, slope = den // g, constant // g, slope // g
        columns.append((den, tuple([constant * lo - slope * hi for lo, hi in zip(r_i + [0], [0] + r_i)])))
    return object.__new__(EmbeddedPoint)._hold(d, q, columns, None, None, a, square)


def component_line(point, y_i):
    """Project the subspace into the square of the maximal ideal quotient at y_i.

    Returns the projected line as a normalized pair (value, derivative) in the
    basis 1, (z - y_i); y_i must be a root of the ideal.  The point's columns
    are polynomials h in w = s z, so the line at y_i is (h(r), s h'(r)) at
    r = s y_i, the column's denominator cancelling in the normalized line.
    On a Wilson point the roots are the keys of its images: r must be an
    integer key, and the line is that key's image, with no Horner pass, since
    the certificate in _hold shows every other column's image there is zero.
    On a point from the public constructor, with r = a/b, each column takes
    one Horner pass giving b^m (h(r), h'(r)), b^m cancelling as well, and the
    root test runs the same pass on the integers the point holds for its
    ideal.
    """
    y_i = _frac(y_i)
    s = point._scale
    g = gcd(s, y_i.denominator)
    a, b = y_i.numerator * (s // g), y_i.denominator // g  # r = a/b in lowest terms
    if point._images is not None:
        image = point._images.get(a) if b == 1 else None
        if image is None:
            raise ValueError(f"{y_i} is not a root of the ideal")
        lead_val, lead_der = image
    else:
        if _value_and_derivative(point._ideal_ints, a, b)[0]:
            raise ValueError(f"{y_i} is not a root of the ideal")
        images = []
        for coeffs in point._columns:
            val, der = _value_and_derivative(coeffs, a, b)
            if val or der:
                images.append((val, der))
        if not images:
            raise ValueError(f"subspace projects to zero at {y_i}")
        lead_val, lead_der = images[0]
        if any(val * lead_der != der * lead_val for val, der in images[1:]):
            raise ValueError(f"projection at {y_i} is not a line")
    lead_der *= s  # d/dz = s d/dw
    scale = lead_val if lead_val != 0 else lead_der
    return Fraction(lead_val, scale), Fraction(lead_der, scale)


def monomial_subspace(exponents, ambient):
    """Coordinate subspace spanned by the given monomial exponents, as a basis matrix.

    Each exponent must be an int (TypeError otherwise) in 0 <= e < ambient,
    there must be at least one, and no two may be equal.
    """
    exps = sorted(map(index, exponents), reverse=True)
    if not exps:
        raise ValueError("need at least one exponent")
    if any(e < 0 or e >= ambient for e in exps):
        raise ValueError(f"exponents {exps} outside ambient degree {ambient}")
    if len(set(exps)) != len(exps):
        raise ValueError(f"repeated exponent in {exps}")
    return RationalMatrix._from_ints(1, [[int(e == r) for e in exps] for r in range(ambient)])


def schubert_profile(subspace):
    """Flag-intersection profile of a half-dimensional subspace.

    The flag step j is spanned by the top j monomials; the profile entry l_i
    is j_i - i where j_i is the first step meeting the subspace in dimension
    i.  Returned with zero entries dropped, as a standard Partition.

    The big cell n^n, where the coefficients of 1, ..., z^(n-1) form a
    nonsingular block, is certified by the mod-p row echelon.  When the
    echelon fails, as it does for a Wilson point with 0 among its
    eigenvalues, the jumps are read off the Bareiss pivot columns of the
    transposed basis.
    """
    if subspace.rows != 2 * subspace.cols:
        raise DimensionMismatch(
            f"need an n-dimensional subspace of a 2n-dimensional space, got {subspace.rows}x{subspace.cols}"
        )
    n = subspace.cols
    # The top n x n block (the coefficients of 1, ..., z^(n-1)) is nonsingular
    # exactly when W misses F_n, the big cell; nonsingular modulo the prime
    # certifies it over the rationals.
    if len(_independent_rows_mod_p(subspace._ints[:n], n)) == n:
        return Partition((n,) * n)
    # dim(W meet F_j) counts the Bareiss pivots p >= 2n - j, so step j is a jump
    # exactly when 2n - j is a pivot column of the transposed basis.
    pivots = subspace.transpose()._pivot_columns()
    if len(pivots) != n:
        raise NotInAnyCell("basis columns are dependent")
    jumps = sorted(2 * n - p for p in pivots)
    increasing = [jumps[i] - (i + 1) for i in range(n)]
    return Partition(tuple(p for p in reversed(increasing) if p > 0))
