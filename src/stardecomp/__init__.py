"""Decompositions of isometries, partial isometries and contractions over
concrete matrix *-rings: exact rationals, complex floats and prime fields.
"""

from .domains import (
    COMPLEX,
    RATIONAL,
    ComplexDomain,
    GFDomain,
    RationalDomain,
    ScalarDomain,
    TolerancePolicy,
    complex_domain,
    rational_domain,
)
from .elements import Element, ElementClass, classify, from_rows, identity, zero
from .engine import (
    DecompositionReport,
    EngineConfig,
    corollary_check,
    halmos_wallen,
    hw_pair_doubly,
    hw_pair_product,
    largest_doubly_commuting,
    largest_product_ppi,
    maximality_probe,
    nfl,
    nfl_pair_doubly,
    reducing_fixpoint,
    slocinski,
    weak_bishift,
    wold,
)
from .errors import (
    AxiomViolationError,
    DomainMismatchError,
    EmptyFamilyError,
    ImproperInvolutionError,
    IndeterminateError,
    InternalInconsistencyError,
    MalformedElementError,
    PreconditionError,
    SpecFileError,
    StarDecompError,
    StructuralAnomalyError,
    TruncationTooSmallError,
)
from .exactrings import (
    AxiomReport,
    axiom_probe,
    construct_gf_ring,
    is_positive,
    positivity_cone,
)
from .oracle import brute_hw_classify, brute_unitary_part, truncation_convergence_probe
from .projections import (
    Projection,
    ProjectionBasis,
    from_basis,
    from_element,
    left_projection,
    proj_inf,
    proj_leq,
    proj_sup,
    right_annihilator_projection,
)
from .shiftmodel import (
    Adjoint,
    BackShift,
    Compose,
    DirectSum,
    GridShift,
    Shift,
    Trunc,
    Truncation,
    Unitary,
    compose,
    direct_sum,
    ground_truth_hw,
    ground_truth_wold,
    pair_instances,
    shift_power,
    truncate,
    unitary,
)

__version__ = "0.1.0"
