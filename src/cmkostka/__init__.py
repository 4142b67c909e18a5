"""Exact combinatorics of Calogero-Moser zero fibers.

Partitions and their wreath analogues, graded Kostka polynomials, fixed-point
tangent weights, symmetric-function multiplicities, and exact rational matrix
pairs with the rank-one commutator condition.
"""

from types import ModuleType as _ModuleType

from .partitions import (
    BoundExceeded,
    GammaPartition,
    Partition,
    PartitionParseError,
    enumerate_gamma_partitions,
    enumerate_partitions,
    gamma_dimension,
    hook_lengths,
    major_index,
    multinomial,
    parse_gamma_partition,
    parse_partition,
    standard_tableaux,
    syt_count,
    syt_enumerate,
)
from .qpoly import (
    LaurentPoly,
    NonExactDivision,
    evaluate_at_one,
    exact_divide,
    geometric_product_series,
    one_minus_q,
    qfactorial_product,
    qmultinomial,
    substitute_inverse,
)
from .characters import (
    CharacterReport,
    character,
    completion_character_check,
    fixed_point_exponents,
    kostka,
    kostka_wreath,
    tangent_weights,
)
from .schur import (
    SchurExpansion,
    expand_p1n,
    expand_p1n_wreath,
    multiplicity_identity_check,
)
from .cm import (
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
    projections,
    schubert_profile,
    verify_cm,
    wilson_embed,
    wilson_representative,
)
from .verify import CheckResult, run_checks

__all__ = [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)]
