"""The projection lattice: left projections, order, meet/join, annihilators.

A projection carries its element together with a cached range basis; every
lattice operation goes through the subspace primitives so that exact and
floating domains share one code path.  A coordinate projection, a sum of
diagonal matrix units, is fixed by its mask: its range basis is the
identity's columns in the mask (`coordinate_projection`), so the identity,
zero, the shift model's probe windows and its ground truths are built with
no product and no factorisation.  Every intersection of kernels is one
right annihilator R(S) = pA, the Baer axiom, built as one kernel of the
elements of S stacked (`right_annihilator_projection`).  The complement
1 - p comes from p's range basis B: its range is ker p = ker B*, for
floats the unit columns off B's lone entries beside the trailing columns
of a complete QR of the rest (`subspaces.complement`), and the kernel of
the thin B* when exact, so the dense p is never factorised.  A float
projection keeps the basis C of its complement wherever its construction
had one (`from_basis`): 1 - p keeps B, and p keeps that complement basis
when built beside its complement.  A product with a projection
goes through `Projection.product`, through the thinner of B and C, and pq
through the lower-rank factor (`pair_product`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import subspaces
from .domains import ScalarDomain
from .elements import Element, classify, identity
from .errors import EmptyFamilyError, PreconditionError


@dataclass(frozen=True)
class Projection:
    """A self-adjoint idempotent with a cached basis of its range and, for
    floats where the construction had one, an orthonormal basis of the
    range of 1 - p."""

    element: Element
    range_basis: np.ndarray = field(repr=False)
    complement_basis: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def domain(self) -> ScalarDomain:
        return self.element.domain

    @property
    def dim(self) -> int:
        return self.element.dim

    @property
    def rank(self) -> int:
        return self.range_basis.shape[1]

    @property
    def thin(self) -> bool:
        """A float projection of rank below dim/2: products go through its
        range basis."""
        return not self.domain.exact and 2 * self.rank < self.dim

    def product(self, a: Element, side: str = "both") -> Element:
        """p a (side "left"), a p ("right") or p a p ("both").

        A thin projection goes through its range basis B: B (B* a),
        (a B) B* and B (B* a B) B*, thin products that cost O(dim² rank)
        where the dense ones cost O(dim³).  A float projection whose
        complement basis C is thinner than B goes through C: p a = a - C (C* a),
        a p = a - (a C) C*, and p a p as the one after the other.  Exact
        domains and the rest take the dense products.
        """
        p = self.element
        p._check(a)
        comp = self.complement_basis
        if self.thin:
            b = self.range_basis
            bh = b.conj().T
            if side == "left":
                mat = b @ (bh @ a.mat)
            elif side == "right":
                mat = (a.mat @ b) @ bh
            else:
                mat = b @ ((bh @ (a.mat @ b)) @ bh)
        elif comp is not None and comp.shape[1] < self.rank:
            ch = comp.conj().T
            mat = a.mat
            if side != "right":
                mat = mat - comp @ (ch @ mat)
            if side != "left":
                mat = mat - (mat @ comp) @ ch
        elif side == "left":
            return p @ a
        else:
            return a @ p if side == "right" else p @ a @ p
        return Element(self.domain, mat)

    def complement(self) -> "Projection":
        """1 - p, from the range basis B alone: the range of 1 - p is
        ker p = ker B* (`subspaces.complement`), and B is kept as the
        complement basis of 1 - p."""
        comp = subspaces.complement(self.domain, self.range_basis)
        return from_basis(self.domain, comp, self.range_basis)

    def equals(self, other: "Projection") -> bool:
        return self.element.equals(other.element)


def from_basis(domain: ScalarDomain, basis: np.ndarray,
               complement: np.ndarray | None = None) -> Projection:
    """The projection onto span(basis).  A float caller that holds an
    orthonormal basis C of the orthogonal complement passes it as
    complement: the projection keeps it for its products and is built as
    1 - C C* when C is the thinner; a float basis of the whole space has
    the empty complement, so its projection is the identity.  Exact
    domains keep no complement."""
    if domain.exact:
        complement = None
    elif complement is None and basis.shape[1] == basis.shape[0]:
        complement = basis[:, :0]
    if complement is not None and complement.shape[1] < basis.shape[1]:
        mat = domain.eye(basis.shape[0]) - subspaces.proj_matrix(domain, complement)
    else:
        mat = subspaces.proj_matrix(domain, basis)
    return Projection(Element(domain, mat), basis, complement)


def from_element(e: Element) -> Projection:
    """Wrap an element that is already (close to) a projection."""
    if not all(d.is_zero() for d in projection_defects(e)):
        raise PreconditionError("element is not a projection")
    basis = subspaces.orth(e.domain, e.mat)
    return Projection(e, basis)


def projection_defects(e: Element) -> tuple:
    """e² - e and e* - e: e is a projection when both vanish."""
    return e @ e - e, e.star() - e


def pair_product(p: Projection, q: Projection) -> Element:
    """p q through the basis of the lower-rank factor (`Projection.product`);
    pq = 0 is the orthogonality of p and q."""
    return p.product(q.element, "left") if p.rank <= q.rank else q.product(p.element, "right")


def coordinate_projection(domain: ScalarDomain, keep) -> Projection:
    """diag(keep) in the domain's scalars: the sum of the matrix units e_ii
    with keep[i] true.  Its range basis is the identity's columns where keep
    holds, read off the mask with no arithmetic."""
    keep = np.asarray(keep, dtype=bool)
    eye = domain.eye(keep.size)
    mat = eye.copy()
    mat[~keep, ~keep] = domain.zero()
    return Projection(Element(domain, mat), eye[:, keep])


def zero_projection(domain: ScalarDomain, dim: int) -> Projection:
    return coordinate_projection(domain, np.zeros(dim, dtype=bool))


def identity_projection(domain: ScalarDomain, dim: int) -> Projection:
    return coordinate_projection(domain, np.ones(dim, dtype=bool))


def left_projection(a: Element) -> Projection:
    """[a]: the smallest projection with [a] a = a (range projection).

    Satisfies the annihilator law  b a = 0  iff  b [a] = 0.
    """
    basis = subspaces.orth(a.domain, a.mat)
    return from_basis(a.domain, basis)


def proj_leq(p: Projection, q: Projection) -> bool:
    """p <= q in the sense p q = p."""
    return pair_product(p, q).equals(p.element)


def proj_inf(family: Sequence[Projection]) -> Projection:
    """Largest projection below every member (range intersection)."""
    family = list(family)
    if not family:
        raise EmptyFamilyError("proj_inf of an empty family")
    first = family[0]
    basis = first.range_basis
    for p in family[1:]:
        first.element._check(p.element)
        basis = subspaces.intersect(first.domain, basis, p.range_basis)
    return from_basis(first.domain, basis)


def proj_sup(family: Sequence[Projection]) -> Projection:
    """Smallest projection above every member (span of the union)."""
    family = list(family)
    if not family:
        raise EmptyFamilyError("proj_sup of an empty family")
    first = family[0]
    for p in family[1:]:
        first.element._check(p.element)
    joined = np.concatenate([p.range_basis for p in family], axis=1)
    return from_basis(first.domain, subspaces.orth(first.domain, joined))


def right_annihilator_projection(elements: Sequence[Element]) -> Projection:
    """The projection p with R(S) = p A, i.e. range(p) = ∩ ker(s): one
    kernel of the elements of S stacked."""
    elements = list(elements)
    if not elements:
        raise EmptyFamilyError("annihilator of an empty set")
    for s in elements[1:]:
        elements[0]._check(s)
    domain = elements[0].domain
    stacked = np.concatenate([s.mat for s in elements])
    return from_basis(domain, subspaces.nullspace(domain, stacked))


def key_identity_check(x: Element, q: Projection) -> bool:
    """[x q] = x q x* for an isometry x."""
    if not classify(x, 1).isometry:
        raise PreconditionError("key identity requires an isometry")
    xq = q.product(x, "right")
    return left_projection(xq).element.equals(xq @ x.star())


@dataclass(frozen=True)
class ProjectionBasis:
    """A labelled, pairwise-orthogonal family of projections summing to 1."""

    members: tuple  # of (label, Projection)

    def labels(self):
        return [lbl for lbl, _ in self.members]

    def __getitem__(self, label: str) -> Projection:
        for lbl, p in self.members:
            if lbl == label:
                return p
        raise KeyError(label)

    def residuals(self) -> dict:
        """Orthogonality and sum-to-one residuals (Frobenius norms)."""
        out = {}
        items = list(self.members)
        total = None
        for i, (li, pi) in enumerate(items):
            total = pi.element if total is None else total + pi.element
            for lj, pj in items[i + 1 :]:
                out[f"orth[{li},{lj}]"] = pair_product(pi, pj).norm()
        one = identity(items[0][1].domain, items[0][1].dim)
        out["sum_to_one"] = (total - one).norm()
        return out

    def verify(self, tol: float | None = None) -> bool:
        if tol is None:
            first = self.members[0][1]
            tol = first.domain.residual_tol(first.dim)
        return all(v <= tol for v in self.residuals().values())
