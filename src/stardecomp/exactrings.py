"""Exact scalar domains: rational positivity and finite-field closed forms.

Rational positivity is decided by an exact symmetric factorisation (a PSD
rational matrix is a finite sum of rational v v^T, so PSD coincides with
the sum-of-squares cone).  Every finite-field answer is a closed form:

- the transpose involution on M_dim(F_p) is proper only for dim == 1 and
  for dim == 2 with p % 4 == 3;
- the positive cone is exactly the symmetric matrices, so it is a subspace
  (never antisymmetric) and F_p positivity is a symmetry test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import DomainKind, ScalarDomain
from .elements import Element, from_rows
from .errors import ImproperInvolutionError, PreconditionError


def _require_proper(p: int, dim: int):
    """Raise unless no nonzero row v of F_p^dim has v v^T = 0.

    By Chevalley–Warning every quadratic form in three or more variables
    over F_p is isotropic; x^2 + y^2 is anisotropic iff -1 is a non-square,
    i.e. p % 4 == 3.
    """
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


def construct_gf_ring(p: int, dim: int) -> ScalarDomain:
    """Domain for M_dim(F_p) with transpose involution.

    Rejects (p, dim) whenever the involution fails to be proper, i.e. some
    nonzero row vector v has v v^T = 0 (a vanishing sum of dim squares).
    """
    if p < 2 or any(p % k == 0 for k in range(2, int(p**0.5) + 1)):
        raise PreconditionError(f"{p} is not prime")
    if dim < 1:
        raise PreconditionError("dim must be positive")
    _require_proper(p, dim)
    return ScalarDomain(DomainKind.GF, p=p, dim=dim)


@dataclass(frozen=True)
class ConeCounts:
    """Sizes of the positive cone of M_dim(F_p) and of its squares {x^T x}."""

    cone_size: int
    square_count: int


def positivity_cone(domain: ScalarDomain) -> ConeCounts:
    """Closed-form counts for the additive closure of {x^T x} in M_dim(F_p).

    Congruence-diagonalise a symmetric a = P^T D P; each diagonal
    coefficient d_i is a sum of d_i ones, and e_i e_i^T is a square, so the
    cone is all p^(dim(dim+1)/2) symmetric matrices.  The squares are the
    squares of F_p for dim == 1, and (p^3 + p) / 2 matrices for dim == 2:
    every singular symmetric matrix plus the nonsingular ones congruent to
    the identity.
    """
    if domain.kind is not DomainKind.GF:
        raise PreconditionError("cone counts are only available for gf rings")
    p, dim = domain.p, domain.dim
    _require_proper(p, dim)
    if dim == 1:
        squares = 2 if p == 2 else (p + 1) // 2
    else:
        squares = (p**3 + p) // 2
    return ConeCounts(cone_size=p ** (dim * (dim + 1) // 2), square_count=squares)


def _rational_psd(e: Element) -> bool:
    """Exact PSD test by symmetric pivoting (Schur-complement elimination)."""
    m = e.mat.copy()
    idx = list(range(e.dim))
    while idx:
        pivot = next((i for i in idx if m[i, i] != 0), None)
        if pivot is None:
            # all remaining diagonal entries are zero: PSD forces the block to vanish
            return all(m[i, j] == 0 for i in idx for j in idx)
        if m[pivot, pivot] < 0:
            return False
        d = m[pivot, pivot]
        idx.remove(pivot)
        col = {i: m[i, pivot] for i in idx}
        for i in idx:
            for j in idx:
                m[i, j] = m[i, j] - col[i] * col[j] / d
    return True


def is_positive(a: Element) -> bool:
    """Membership in the positive cone {sum of x* x} of the exact domains."""
    if a.domain.kind is DomainKind.COMPLEX:
        raise PreconditionError("use floatring.is_positive_float for the complex domain")
    if not a.equals(a.star()):
        return False
    # over F_p the cone is every symmetric matrix (see positivity_cone)
    return a.domain.kind is DomainKind.GF or _rational_psd(a)


@dataclass(frozen=True)
class AxiomReport:
    proper: bool
    antisymmetric: bool
    smooth: bool


def _rational_smooth_witness(dim: int) -> Element:
    # diag(2,1,...,1) is PSD but not x^T x: its discriminant 2 is not a
    # rational square, so the form is not rationally congruent to I_dim.
    rows = [[2 if i == j == 0 else int(i == j) for j in range(dim)] for i in range(dim)]
    return from_rows(ScalarDomain(DomainKind.RATIONAL), rows)


def axiom_probe(domain: ScalarDomain, dim: int | None = None, rng=None) -> AxiomReport:
    """Report the order axioms of the positivity cone: proper / antisymmetric / smooth.

    Finite fields are decided by the closed forms of positivity_cone: the
    cone is a subspace, so it holds -k with every k, and it equals the
    squares only over F_2.  The rational and float outcomes are analytic
    facts, spot-checked on random samples.
    """
    if domain.kind is DomainKind.GF:
        _require_proper(domain.p, domain.dim)
        return AxiomReport(proper=True, antisymmetric=False, smooth=domain.p == 2)
    if domain.kind is DomainKind.COMPLEX:
        # PSD cone is proper; every PSD matrix has a square root
        return AxiomReport(proper=True, antisymmetric=True, smooth=True)
    dim = dim or 1
    rng = rng or np.random.default_rng(0)
    witness = _rational_smooth_witness(dim)
    if not is_positive(witness):
        raise PreconditionError("smoothness witness failed its positivity spot-check")
    for _ in range(25):
        x = from_rows(domain, rng.integers(-3, 4, size=(dim, dim)).tolist())
        sq = x.star() @ x
        if sq.equals(witness):
            raise PreconditionError("smoothness witness spot-check failed")
        if not is_positive(sq):
            raise PreconditionError("antisymmetry spot-check failed: x^T x not positive")
        if not sq.is_zero() and is_positive(-sq):
            raise PreconditionError("antisymmetry spot-check failed: proper cone violated")
    return AxiomReport(proper=True, antisymmetric=True, smooth=False)
