"""Exact positive cones: rational positivity and finite-field closed forms.

Rational positivity is decided by an exact symmetric factorisation (a PSD
rational matrix is a finite sum of rational v v^T, so PSD coincides with
the sum-of-squares cone).  Every finite-field answer is a closed form: the
positive cone is exactly the symmetric matrices, so it is a subspace (never
antisymmetric) and F_p positivity is a symmetry test.  Properness of the
F_p involution is checked where a GFDomain is constructed (see domains).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .domains import GFDomain, ScalarDomain
from .errors import PreconditionError

if TYPE_CHECKING:
    from .elements import Element


def construct_gf_ring(p: int, dim: int) -> GFDomain:
    """Domain for M_dim(F_p) with transpose involution; rejects (p, dim) when
    some nonzero row v has v v^T = 0 (a vanishing sum of dim squares)."""
    return GFDomain(p, dim)


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
    if not isinstance(domain, GFDomain):
        raise PreconditionError("cone counts are only available for gf rings")
    p, dim = domain.p, domain.dim
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
    if not a.domain.exact:
        raise PreconditionError("use floatring.is_positive_float for the complex domain")
    if not a.equals(a.star()):
        return False
    # over F_p the cone is every symmetric matrix (see positivity_cone)
    return a.domain.symmetric_cone or _rational_psd(a)


@dataclass(frozen=True)
class AxiomReport:
    proper: bool
    antisymmetric: bool
    smooth: bool


def axiom_probe(domain: ScalarDomain, dim: int | None = None) -> AxiomReport:
    """Report the order axioms of the positivity cone: proper / antisymmetric / smooth.

    Each domain states its axioms in closed form (see domains).  The
    rational claim, antisymmetric but not smooth, is spot-checked on random
    dim x dim squares x^T x.
    """
    if dim is not None and dim < 1:
        raise PreconditionError("dim must be positive")
    report = AxiomReport(proper=True, antisymmetric=domain.antisymmetric, smooth=domain.smooth)
    if not report.antisymmetric or report.smooth:
        return report
    import numpy as np

    from .elements import from_rows

    dim = dim or 1
    rng = np.random.default_rng(0)
    # diag(2,1,...,1) is PSD but not x^T x: its discriminant 2 is not a
    # rational square, so the form is not rationally congruent to I_dim.
    rows = [[2 if i == j == 0 else int(i == j) for j in range(dim)] for i in range(dim)]
    witness = from_rows(domain, rows)
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
    return report
