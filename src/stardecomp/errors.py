"""Exception hierarchy shared by the whole package."""


class StarDecompError(Exception):
    """Base class for all package errors."""


class MalformedElementError(StarDecompError):
    """Input is not a square matrix over a recognised scalar domain."""


class DomainMismatchError(StarDecompError):
    """Operands live in different scalar domains or have different sizes."""


class EmptyFamilyError(StarDecompError):
    """A lattice operation received an empty family of projections."""


class PreconditionError(StarDecompError):
    """A documented operation precondition does not hold.

    The message names the violated predicate.
    """


class ImproperInvolutionError(StarDecompError):
    """The transpose involution on M_dim(F_p) is not proper for this (p, dim)."""


class AxiomViolationError(PreconditionError):
    """The ring is neither smooth nor antisymmetric, so the contraction
    decomposition is refused."""


class IndeterminateError(StarDecompError):
    """An infimum / series did not stabilise within the configured cap."""


class TruncationTooSmallError(StarDecompError):
    """Requested truncation size cannot hold the finite segments."""


class InternalInconsistencyError(StarDecompError):
    """Two routes that must agree produced different answers.

    This is always a bug signal (or a tolerance failure), never swallowed.
    """


class StructuralAnomalyError(StarDecompError):
    """A brute-force classification failed to exhibit the expected structure."""


class SpecFileError(StarDecompError):
    """An operator spec file failed to parse or validate."""
