"""Schur-basis expansion of powers of the first power sum.

The expansion is computed by iterated Pieri steps, i.e. by counting paths in
Young's lattice (or in a product of N copies of it), which keeps the hook
length formula available as an independent oracle for the coefficients.
Each level of path counts is built once, from the level below it, and kept
in a bounded cache keyed on (N, n); every expansion holds a fresh copy of
its level, so a caller may change its coefficients freely.
"""

import operator
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .characters import kostka_wreath
from .partitions import (
    BoundExceeded,
    GammaPartition,
    Partition,
    _new_gamma,
    enumerate_gamma_partitions,
    gamma_dimension,
    hook_lengths,
)
from .qpoly import evaluate_at_one


@dataclass(frozen=True)
class SchurExpansion:
    """Coefficients of the n-th power of the first power sum in the Schur basis."""

    n: int
    coefficients: dict  # Partition or GammaPartition -> positive int

    def sum_of_squares(self):
        return sum(m * m for m in self.coefficients.values())


def _wreath_successors(gp):
    slots = gp.components
    return [_new_gamma(slots[:chi] + (mu,) + slots[chi + 1:]) for chi, part in enumerate(slots) for mu in part.grow()]


@lru_cache(maxsize=128)
def _pieri_level(N, n):
    """Level n of Pieri steps from the empty label: each label of size n with
    its number of paths.  N is None for partitions, else the component count
    of the wreath labels.  Shared between calls, so never handed out."""
    if n == 0:
        return {Partition(()) if N is None else GammaPartition((Partition(()),) * N): 1}
    successors = Partition.grow if N is None else _wreath_successors
    level = {}
    get = level.get
    for label, m in _pieri_level(N, n - 1).items():
        for mu in successors(label):
            level[mu] = get(mu, 0) + m
    return level


def expand_p1n(n):
    """Expand the n-th power of p_1 over Schur functions by iterated Pieri steps."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be positive")
    return SchurExpansion(n, dict(_pieri_level(None, n)))


def expand_p1n_wreath(N, n):
    """Expand (p_{1,0} + ... + p_{1,N-1})^n over products of component Schur functions.

    Each Pieri step adds one cell to one of the N components.
    """
    N, n = operator.index(N), operator.index(n)
    if N < 1:
        raise ValueError("N must be positive")
    if n < 1:
        raise ValueError("n must be positive")
    return SchurExpansion(n, dict(_pieri_level(N, n)))


_MAX_N, _MAX_n = 4, 6  # largest N and n that multiplicity_identity_check accepts


def multiplicity_identity_check(N, n):
    """Check the dimension bookkeeping on every N-tuple label of total size n.

    For each label: n! divided by the product of all component hooks must be
    an exact integer, equal to the multinomial times the component tableau
    counts, and equal to the wreath Kostka polynomial at q = 1.
    """
    if N > _MAX_N or n > _MAX_n:
        raise BoundExceeded(f"bounds exceeded: N={N} n={n} beyond ({_MAX_N}, {_MAX_n})")
    for gp in enumerate_gamma_partitions(N, n):
        hook_prod = 1
        for comp in gp.components:
            for h in hook_lengths(comp):
                hook_prod *= h
        quotient, rem = divmod(factorial(n), hook_prod)
        if rem != 0:
            return False
        if quotient != gamma_dimension(gp):
            return False
        if quotient != evaluate_at_one(kostka_wreath(gp)):
            return False
    return True
