"""Scalar domains: one object per domain, owning every domain-dependent choice.

The decompositions need only the Baer *-ring operations, so the package asks
its domain object instead of branching on the domain.  Each class owns its
scalars, matrix storage, adjoint, equality (exact, or within a tolerance),
positivity with the closed-form order axioms of its cone {sum of x* x}, and
the spec-file text of a scalar.  ``ScalarDomain`` holds the object-array
code shared by ``RationalDomain`` and ``GFDomain(p, dim)``;
``ComplexDomain(tol)`` stores complex128 arrays.  numpy is imported by the
storage methods that use it, so a closed-form answer about a domain (its
order axioms, its cone) never loads it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import ImproperInvolutionError, PreconditionError

if TYPE_CHECKING:
    import numpy as np

_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^\s*({_NUM})\s*(?:([+-])\s*({_NUM})?\s*i)?\s*$")


class InexactNumberError(ValueError):
    """A JSON number that an exact domain could only take by truncating it."""


@dataclass(frozen=True)
class TolerancePolicy:
    """All floating-point cutoffs used by the complex domain.

    eps_rank: relative singular-value cutoff for rank decisions.
    eps_eq:   projection / element equality tolerance.
    eps_psd:  eigenvalue floor for the positivity test.
    """

    eps_rank: float = 1e-10
    eps_eq: float = 1e-8
    eps_psd: float = 1e-9

    def __post_init__(self):
        if not (self.eps_rank > 0 and self.eps_eq > 0 and self.eps_psd > 0):
            raise ValueError("all tolerances must be strictly positive")


class ScalarDomain:
    """Base of the domains, with the exact domains' code.  Subclasses supply
    coerce, format and __repr__; p and dim are set for GF, tol for complex."""

    exact = True
    dtype = object
    # order axioms of the positive cone; the default is the rational PSD cone
    antisymmetric = True
    smooth = False
    symmetric_cone = False  # True when the cone is every symmetric matrix
    fraction_hint = 'write a fraction as a string, e.g. "1/2"'

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def inv(self, value):
        return self.one() / value

    def parse(self, raw):
        """A spec-file scalar.  A fractional JSON number is refused, not
        truncated, because coerce would drop its fractional part."""
        if isinstance(raw, float) and not raw.is_integer():
            raise InexactNumberError(f"not an integer; {self.fraction_hint}")
        return self.coerce(raw)

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        import numpy as np

        return np.full((rows, cols), self.zero(), dtype=self.dtype)

    def eye(self, n: int) -> np.ndarray:
        import numpy as np

        out = self.zeros(n, n)
        np.fill_diagonal(out, self.one())
        return out

    def array(self, rows) -> np.ndarray:
        import numpy as np

        return np.array([[self.coerce(v) for v in r] for r in rows], dtype=self.dtype)

    def normalize(self, mat: np.ndarray) -> np.ndarray:
        return mat

    def adjoint(self, mat: np.ndarray) -> np.ndarray:
        return mat.T.copy()

    def norm(self, mat: np.ndarray) -> float:
        """Frobenius norm (of the floats of the entries for exact domains)."""
        import numpy as np

        return float(np.sqrt(sum(float(v) ** 2 for v in mat.flat)))

    def is_zero(self, mat: np.ndarray) -> bool:
        import numpy as np

        return bool(np.all(mat == self.zero()))

    def residual_tol(self, dim: int) -> float:
        return 0.0

    def is_positive(self, e) -> bool:
        from .exactrings import is_positive

        return is_positive(e)


@dataclass(frozen=True)
class RationalDomain(ScalarDomain):
    """Exact rationals, transpose involution; the PSD cone is not smooth."""

    p = dim = tol = None

    def coerce(self, value):
        return Fraction(value)

    def format(self, value):
        return str(value)

    def __repr__(self):
        return "rational"


@dataclass(frozen=True)
class GFDomain(ScalarDomain):
    """M_dim(F_p), transpose involution; the size is part of the domain.

    By Chevalley–Warning the involution is proper iff dim == 1, or dim == 2
    and -1 is a non-square (p % 4 == 3).  The positive cone is every
    symmetric matrix: never antisymmetric, and the squares only over F_2.
    """

    p: int
    dim: int
    tol = None
    antisymmetric = False
    symmetric_cone = True
    fraction_hint = "gf entries are integers"

    def __post_init__(self):
        p, dim = self.p, self.dim
        if p < 2 or any(p % k == 0 for k in range(2, int(p**0.5) + 1)):
            raise PreconditionError(f"{p} is not prime")
        if dim < 1:
            raise PreconditionError("dim must be positive")
        if dim == 1 or (dim == 2 and p % 4 == 3):
            return
        if dim == 2:
            reason = f"-1 is a square mod {p}, so 1 + c^2 = 0 for some c"
        else:
            reason = f"every sum of {dim} squares is isotropic over F_{p} (Chevalley-Warning)"
        raise ImproperInvolutionError(
            f"involution on M_{dim}(F_{p}) is improper: {reason}, "
            "so some nonzero row v has v v^T = 0"
        )

    @property
    def smooth(self) -> bool:
        return self.p == 2

    def coerce(self, value):
        return int(value) % self.p

    def inv(self, value):
        return pow(int(value), self.p - 2, self.p)

    def normalize(self, mat: np.ndarray) -> np.ndarray:
        import numpy as np

        return np.vectorize(lambda v: int(v) % self.p, otypes=[object])(mat)

    def format(self, value):
        return int(value)

    def __repr__(self):
        return f"gf({self.p},dim={self.dim})"


@dataclass(frozen=True)
class ComplexDomain(ScalarDomain):
    """complex128, conjugate transpose; the PSD cone has square roots (smooth)."""

    tol: TolerancePolicy = field(default_factory=TolerancePolicy)
    p = dim = None
    exact = False
    dtype = complex
    smooth = True

    def coerce(self, value):
        return complex(value)

    def parse(self, raw):
        if isinstance(raw, (int, float)):
            return complex(raw)
        m = _COMPLEX_RE.match(str(raw))
        if not m:
            raise ValueError(raw)
        imag = 0.0
        if m.group(2):
            imag = float(m.group(3)) if m.group(3) else 1.0
            if m.group(2) == "-":
                imag = -imag
        return complex(float(m.group(1)), imag)

    def format(self, value):
        v = complex(value)
        sign = "+" if v.imag >= 0 else "-"
        return f"{v.real:.17g}{sign}{abs(v.imag):.17g} i"

    def adjoint(self, mat: np.ndarray) -> np.ndarray:
        """mat*, C-ordered, conjugated straight into one new array."""
        import numpy as np

        return np.conjugate(mat.T, order="C")

    def norm(self, mat: np.ndarray) -> float:
        import numpy as np

        return float(np.linalg.norm(mat))

    def is_zero(self, mat: np.ndarray) -> bool:
        return self.norm(mat) <= self.residual_tol(mat.shape[0])

    def residual_tol(self, dim: int) -> float:
        return self.tol.eps_eq * dim

    def is_positive(self, e) -> bool:
        from .floatring import is_positive_float

        return is_positive_float(e)

    def __repr__(self):
        return "complex-float"


def rational_domain() -> RationalDomain:
    return RationalDomain()


def complex_domain(tol: TolerancePolicy | None = None) -> ComplexDomain:
    return ComplexDomain(tol or TolerancePolicy())


RATIONAL = rational_domain()
COMPLEX = complex_domain()
