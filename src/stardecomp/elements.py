"""Elements of the concrete matrix *-rings and their classification."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domains import ScalarDomain
from .errors import DomainMismatchError, MalformedElementError


def _describe(x) -> str:
    tol = x.domain.tol
    if tol is None:
        return f"{x.domain}/{x.dim}"
    return (f"{x.domain}(eps_rank={tol.eps_rank:g}, eps_eq={tol.eps_eq:g}, "
            f"eps_psd={tol.eps_psd:g})/{x.dim}")


def check_match(a, b):
    """Raise DomainMismatchError unless a and b, elements or projections,
    share one domain and one size.  Only their domain and dim are read, so
    a masked projection is checked by its mask's size, with no element
    formed.  `Element._check` is this function."""
    # the identity test first: nearly every pair shares one domain
    # object, and the dataclass __eq__ compares field by field
    if a.domain is not b.domain and a.domain != b.domain or a.dim != b.dim:
        raise DomainMismatchError(f"{_describe(a)} vs {_describe(b)}")


@dataclass(frozen=True)
class Element:
    """A square matrix over a declared scalar domain.

    Every domain-dependent step (entry reduction, the adjoint, equality,
    positivity) is the domain object's; in every implemented domain the
    involution is proper (a a* = 0 forces a = 0).
    """

    domain: ScalarDomain
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = self.mat
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise MalformedElementError(f"expected a nonempty square matrix, got shape {m.shape}")
        if self.domain.dim is not None and self.domain.dim != m.shape[0]:
            raise MalformedElementError(
                f"GF domain is for {self.domain.dim}x{self.domain.dim} matrices, got {m.shape[0]}"
            )
        m.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def _wrap(self, mat: np.ndarray) -> "Element":
        return Element(self.domain, self.domain.normalize(mat))

    _check = check_match

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return self._wrap(self.mat + other.mat)

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return self._wrap(self.mat - other.mat)

    def __neg__(self) -> "Element":
        return self._wrap(-self.mat)

    def __matmul__(self, other: "Element") -> "Element":
        self._check(other)
        return self._wrap(self.mat @ other.mat)

    def star(self) -> "Element":
        return Element(self.domain, self.domain.adjoint(self.mat))

    def power(self, n: int) -> "Element":
        """x^n by repeated squaring; the product starts at the first set bit's
        factor rather than at the identity, so no matmul is a multiply by 1."""
        if n < 0:
            raise ValueError("negative powers are not defined")
        if n == 0:
            return identity(self.domain, self.dim)
        out = None
        base = self
        while True:
            if n & 1:
                out = base if out is None else out @ base
            n >>= 1
            if not n:
                return out
            base = base @ base

    def is_zero(self) -> bool:
        return self.domain.is_zero(self.mat)

    def norm(self) -> float:
        """Frobenius norm (floats of the entries for exact domains)."""
        return self.domain.norm(self.mat)

    def equals(self, other: "Element") -> bool:
        self._check(other)
        return (self - other).is_zero()


def from_rows(domain: ScalarDomain, rows) -> Element:
    """Build an Element from nested scalars, coercing into the domain."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise MalformedElementError("rows of unequal length")
    return Element(domain, domain.array(rows))


def identity(domain: ScalarDomain, dim: int) -> Element:
    return Element(domain, domain.eye(dim))


def zero(domain: ScalarDomain, dim: int) -> Element:
    return Element(domain, domain.zeros(dim, dim))


@dataclass(frozen=True)
class ElementClass:
    """Truth values of the defining identities for one element."""

    projection: bool
    partial_isometry: bool
    isometry: bool
    co_isometry: bool
    unitary: bool
    power_partial_isometry: bool
    contraction: bool

    def flags(self) -> dict:
        return {
            "projection": self.projection,
            "partial-isometry": self.partial_isometry,
            "isometry": self.isometry,
            "co-isometry": self.co_isometry,
            "unitary": self.unitary,
            "power-partial-isometry": self.power_partial_isometry,
            "contraction": self.contraction,
        }


def is_partial_isometry(a: Element) -> bool:
    return (a @ a.star() @ a).equals(a)


def classify(a: Element, n_max: int) -> ElementClass:
    """Evaluate every classification identity, exactly or within tolerance.

    power-partial-isometry checks x^n (x^n)* x^n = x^n for 1 <= n <= n_max.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    one = identity(a.domain, a.dim)
    astar = a.star()
    proj = a.equals(astar) and (a @ a).equals(a)
    pi = is_partial_isometry(a)
    iso = (astar @ a).equals(one)
    coiso = (a @ astar).equals(one)
    ppi = pi
    if pi:
        pw = a
        for _ in range(2, n_max + 1):
            pw = pw @ a
            if not is_partial_isometry(pw):
                ppi = False
                break
    # positivity of 1 - x*x decides the contraction flag
    contraction = a.domain.is_positive(one - astar @ a)
    return ElementClass(
        projection=proj,
        partial_isometry=pi,
        isometry=iso,
        co_isometry=coiso,
        unitary=iso and coiso,
        power_partial_isometry=ppi,
        contraction=contraction,
    )
