"""Integer partitions, Young diagrams, hooks, and tableau counting.

Partitions are stored with parts in weakly decreasing order.  The
torus-weight formulas elsewhere in this package want the same data as a
weakly increasing sequence padded with zeros to a fixed length; use
``Partition.padded_increasing`` for that view.

Each label type has one builder, its ``_hold``, which only sets the slots.
The public constructors check outside input and then call it; producers
whose parts come from a label that is already valid (``grow``, ``shrink``,
``conjugate``, the enumerators, ``permuted`` and the wreath Pieri step in
``schur``) call it directly.  Pickle and copy rebuild a label through its
public constructor.  The partitions of n, the wreath labels of (N, n) and
the hook multiset of each parts tuple are each built once, in bounded
caches keyed on those plain values, never on a label.  The enumerators
return a fresh list on every call.
"""

import operator
import re
from functools import lru_cache
from itertools import product
from math import factorial, prod


class BoundExceeded(ValueError):
    """Raised when an enumeration is asked to run past its configured size cap."""


class PartitionParseError(ValueError):
    """Bad partition text; carries the reason and the character position of the offending token."""

    def __init__(self, reason, position):
        super().__init__(f"{reason} (at position {position})")
        self.reason = reason
        self.position = position


def _immutable(self, *args):
    """The refusal each value type binds as its __setattr__ and __delattr__."""
    raise AttributeError(f"{type(self).__name__} is immutable")


class Partition:
    """A weakly decreasing sequence of positive integers.

    Immutable and hashable; the empty sequence is the unique partition of 0.
    """

    __slots__ = ("parts", "size")

    def __init__(self, parts=()):
        parts = tuple(operator.index(p) for p in parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"parts must be positive, got {p} in {parts}")
            if i > 0 and parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        self._hold(parts)

    def _hold(self, parts):
        """Set the slots from parts, a weakly decreasing tuple of positive
        ints, unchecked; return the partition."""
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "size", sum(parts))
        return self

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not by setting slots
        return Partition, (self.parts,)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({self.parts})"

    def __str__(self):
        return ",".join(str(p) for p in self.parts) if self.parts else "-"

    def conjugate(self):
        """Transpose of the Young diagram."""
        return _new_partition(_conjugate_parts(self.parts))

    def hook(self, row, col):
        """Hook length of the cell: arm + leg + 1."""
        if row < 0 or col < 0 or row >= len(self.parts) or col >= self.parts[row]:
            raise ValueError(f"cell ({row},{col}) outside diagram {self.parts}")
        arm = self.parts[row] - col - 1
        leg = sum(1 for r in range(row + 1, len(self.parts)) if self.parts[r] > col)
        return arm + leg + 1

    def weighted_size(self):
        """Sum of (row index) over all cells, rows counted from 0; the classical n(lambda)."""
        return sum(r * p for r, p in enumerate(self.parts))

    def padded_increasing(self, length):
        """Parts in weakly increasing order, zero-padded on the left to the given length."""
        if length < len(self.parts):
            raise ValueError(f"cannot pad {self.parts} to length {length}")
        return (0,) * (length - len(self.parts)) + tuple(reversed(self.parts))

    def grow(self):
        """Partitions obtained by adding one cell (successors in Young's lattice)."""
        parts = self.parts
        out = []
        for r in range(len(parts)):
            if r == 0 or parts[r - 1] > parts[r]:
                out.append(_new_partition(parts[:r] + (parts[r] + 1,) + parts[r + 1:]))
        out.append(_new_partition(parts + (1,)))
        return out

    def shrink(self):
        """Partitions obtained by removing one corner cell."""
        parts = self.parts
        out = []
        for r in range(len(parts)):
            if r == len(parts) - 1 or parts[r] > parts[r + 1]:
                if parts[r] == 1:
                    out.append(_new_partition(parts[:r] + parts[r + 1:]))
                else:
                    out.append(_new_partition(parts[:r] + (parts[r] - 1,) + parts[r + 1:]))
        return out


def _new_partition(parts):
    """The Partition over parts, a weakly decreasing tuple of positive ints, unchecked."""
    return object.__new__(Partition)._hold(parts)


def _conjugate_parts(parts):
    cols = [0] * (parts[0] if parts else 0)
    for p in parts:
        for c in range(p):
            cols[c] += 1
    return tuple(cols)


class GammaPartition:
    """An N-tuple of partitions, indexed by the characters 0..N-1 of a cyclic group."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("need at least one component")
        for c in components:
            if not isinstance(c, Partition):
                raise TypeError(f"components must be Partition, got {type(c).__name__}")
        self._hold(components)

    def _hold(self, components):
        """Set the slot from components, a nonempty tuple of Partitions,
        unchecked; return the label."""
        object.__setattr__(self, "components", components)
        return self

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return GammaPartition, (self.components,)

    @property
    def N(self):
        return len(self.components)

    @property
    def size(self):
        return sum(c.size for c in self.components)

    def __eq__(self, other):
        return isinstance(other, GammaPartition) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"GammaPartition({self.components!r})"

    def __str__(self):
        return ";".join(str(c) for c in self.components)

    def permuted(self, perm):
        """Reindex the component slots by perm, a permutation of range(N):
        slot i of the result is component perm[i]."""
        if sorted(perm) != list(range(self.N)):
            raise ValueError(f"{perm} is not a permutation of the {self.N} component slots")
        return _new_gamma(tuple(self.components[i] for i in perm))


def _new_gamma(components):
    """The GammaPartition over components, a nonempty tuple of Partitions, unchecked."""
    return object.__new__(GammaPartition)._hold(components)


def _partition_tuples(n, largest):
    # Partitions of n into parts of at most largest, in reverse-lexicographic
    # order: the biggest first part first, (1,...,1) last.
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partition_tuples(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=64)
def _partitions_of(n):
    return tuple(map(_new_partition, _partition_tuples(n, n)))


def enumerate_partitions(n):
    """All partitions of n in reverse-lexicographic order; n must be an int."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_partitions_of(n))


def hook_lengths(lam):
    """Multiset of hook lengths of the diagram, as a decreasing tuple."""
    return _hook_lengths(lam.parts)


@lru_cache(maxsize=4096)
def _hook_lengths(parts):
    """The hook multiset of parts as a decreasing tuple.

    A diagram and its transpose have one hook multiset, computed once from
    the larger of the two parts tuples: the smaller reads the larger's
    entry, so whichever of a conjugate pair comes second finds it cached.
    A self-conjugate shape takes the direct path.  One pass reads every hook
    off the conjugate: h(r, c) = lam_r - c + lam'_c - r - 1.
    """
    columns = _conjugate_parts(parts)
    if columns > parts:
        return _hook_lengths(columns)
    return tuple(sorted((p - c + columns[c] - r - 1 for r, p in enumerate(parts) for c in range(p)), reverse=True))


def syt_count(lam):
    """Number of standard Young tableaux of the shape, by the hook length formula."""
    hooks = hook_lengths(lam)
    return factorial(lam.size) // prod(hooks)


@lru_cache(maxsize=None)
def _corner_removal_count(parts):
    """The tableau count of the shape parts, by corner removal.  The cache
    has no bound, but syt_enumerate's bound limits it to the 139 shapes of
    at most 10 cells."""
    if not parts:
        return 1
    return sum(_corner_removal_count(mu.parts) for mu in _new_partition(parts).shrink())


# the largest shape syt_enumerate counts, equal to tableau-count-oracle's cap
_SYT_ENUMERATION_BOUND = 10


def syt_enumerate(lam):
    """Count standard tableaux by recursive corner removal.

    Independent of the hook formula; refuses shapes of more than
    _SYT_ENUMERATION_BOUND cells.
    """
    if lam.size > _SYT_ENUMERATION_BOUND:
        raise BoundExceeded(f"shape of size {lam.size} exceeds enumeration bound {_SYT_ENUMERATION_BOUND}")
    return _corner_removal_count(lam.parts)


def standard_tableaux(lam):
    """Yield each standard tableau of the shape as a tuple rows, rows[v] = row of value v+1."""
    parts = lam.parts
    n = lam.size
    fill = [0] * len(parts)
    rows = []

    def rec(v):
        if v == n:
            yield tuple(rows)
            return
        for r in range(len(parts)):
            if fill[r] < parts[r] and (r == 0 or fill[r - 1] > fill[r]):
                fill[r] += 1
                rows.append(r)
                yield from rec(v + 1)
                fill[r] -= 1
                rows.pop()

    yield from rec(0)


def major_index(rows):
    """maj of a standard tableau given as a row sequence: sum of descents.

    Value i is a descent when i+1 sits in a strictly lower row than i.
    """
    return sum(i + 1 for i in range(len(rows) - 1) if rows[i + 1] > rows[i])


def multinomial(n, sizes):
    """n! / prod(sizes!), exact; sizes must sum to n."""
    if sum(sizes) != n:
        raise ValueError(f"sizes {sizes} do not sum to {n}")
    return factorial(n) // prod(factorial(s) for s in sizes)


def gamma_dimension(gp):
    """Dimension attached to a GammaPartition: multinomial(n; sizes) times component SYT counts."""
    sizes = [c.size for c in gp.components]
    return multinomial(gp.size, sizes) * prod(syt_count(c) for c in gp.components)


def _compositions(n, slots):
    # First slot runs from n down to 0; deterministic order for golden tests.
    if slots == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _compositions(n - first, slots - 1):
            yield (first,) + rest


def enumerate_gamma_partitions(N, n):
    """All N-tuples of partitions with total size n, each exactly once.

    N and n must be ints (TypeError otherwise), N positive and n nonnegative.
    """
    N, n = operator.index(N), operator.index(n)
    if N < 1:
        raise ValueError("N must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_gamma_partitions_of(N, n))


@lru_cache(maxsize=64)
def _gamma_partitions_of(N, n):
    return tuple(_new_gamma(t) for comp in _compositions(n, N) for t in product(*map(_partitions_of, comp)))


# str(k) for an int k: no sign on zero, no leading zeros, ASCII digits only
_DECIMAL = re.compile(r"0|-?[1-9][0-9]*")


def parse_partition(text):
    """Parse comma-separated decreasing parts, e.g. "3,1,1"; "-" or "" is the empty partition.

    Each part, less the spaces around it, must be written as str writes an
    int: "03", "+3", "1_0" and non-ASCII digits are refused, not reread.
    """
    stripped = text.strip()
    if stripped in ("", "-"):
        return Partition(())
    parts = []
    pos = 0
    for token in stripped.split(","):
        if not _DECIMAL.fullmatch(token.strip()):
            raise PartitionParseError(f"expected an integer part, got {token!r}", pos)
        value = int(token)
        if value < 1:
            raise PartitionParseError(f"parts must be positive, got {value}", pos)
        if parts and parts[-1] < value:
            raise PartitionParseError(f"parts must be weakly decreasing, got {value} after {parts[-1]}", pos)
        parts.append(value)
        pos += len(token) + 1
    return Partition(parts)


def parse_gamma_partition(text):
    """Parse semicolon-separated components, empty component written "-", e.g. "2,1;-;1"."""
    components = []
    pos = 0
    for chunk in text.split(";"):
        try:
            components.append(parse_partition(chunk))
        except PartitionParseError as err:
            raise PartitionParseError(err.reason, pos + err.position) from None
        pos += len(chunk) + 1
    return GammaPartition(components)
