"""Decompositions of isometries, partial isometries and contractions over
concrete matrix *-rings: exact rationals, complex floats and prime fields.

The public names are resolved on first use (PEP 562), so ``import
stardecomp`` loads no submodule and a command pays only for the modules it
uses; ``from stardecomp import X`` works for every name in ``__all__``.
"""

import importlib

_EXPORTS = {
    "domains": (
        "COMPLEX", "RATIONAL", "ComplexDomain", "GFDomain", "RationalDomain", "ScalarDomain",
        "TolerancePolicy", "complex_domain", "rational_domain",
    ),
    "elements": ("Element", "ElementClass", "classify", "from_rows", "identity", "zero"),
    "engine": (
        "DecompositionReport", "EngineConfig", "corollary_check", "halmos_wallen",
        "hw_pair_doubly", "hw_pair_product", "largest_doubly_commuting", "largest_product_ppi",
        "maximality_probe", "nfl", "nfl_pair_doubly", "reducing_fixpoint", "slocinski",
        "weak_bishift", "wold",
    ),
    "errors": (
        "AxiomViolationError", "DomainMismatchError", "EmptyFamilyError",
        "ImproperInvolutionError", "IndeterminateError", "InternalInconsistencyError",
        "MalformedElementError", "PreconditionError", "SpecFileError", "StarDecompError",
        "StructuralAnomalyError", "TruncationTooSmallError",
    ),
    "exactrings": ("AxiomReport", "axiom_probe", "construct_gf_ring", "is_positive",
                   "positivity_cone"),
    "oracle": ("brute_hw_classify", "brute_unitary_part", "truncation_convergence_probe"),
    "projections": (
        "Projection", "ProjectionBasis", "from_basis", "from_element", "left_projection",
        "proj_inf", "proj_leq", "proj_sup", "right_annihilator_projection",
    ),
    "shiftmodel": (
        "Adjoint", "BackShift", "Compose", "DirectSum", "GridShift", "Shift", "Trunc",
        "Truncation", "Unitary", "compose", "direct_sum", "ground_truth_hw", "ground_truth_wold",
        "pair_instances", "shift_power", "truncate", "unitary",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
