"""The projection lattice: left projections, order, meet/join, annihilators.

A projection carries its element together with a cached range basis; every
lattice operation on projections other than float coordinate ones (below)
goes through the subspace primitives, so that exact and floating domains
share one code path.  A coordinate projection, a sum of
diagonal matrix units, is fixed by its mask: its range basis is the
identity's columns in the mask (`coordinate_projection`), so the identity,
zero, the shift model's probe windows and its ground truths are built with
no product and no factorisation.  Every intersection of kernels is one
right annihilator R(S) = pA, the Baer axiom, built as one kernel of the
elements of S stacked (`right_annihilator_projection`).  The complement
1 - p comes from p's range basis B: its range is ker p = ker B*, one
kernel of the thin B* in every domain (`subspaces.complement`), so the
dense p is never factorised.

A float coordinate projection is held as its 0/1 mask (`masked`): by
`coordinate_projection`, and by `from_basis` for a basis with one nonzero
per column at distinct rows (`coordinate_mask`), which spans exactly the
coordinates of its rows whatever its phases.  Coordinate projections
commute, so their lattice is Boolean (Berberian 1972): a product keeps
rows or columns of the other factor, meets, joins and complements are
AND, OR and NOT, and the residuals of a basis of them are mask counts.
Its element and range basis are formed only when read, and its domain
and size check reads the mask's size (`Projection._check`).  Every other
projection, and every exact one, multiplies as its dense element
(`Projection.product`); exact domains keep no mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import subspaces
from .domains import ScalarDomain
from .elements import Element, check_match, classify, identity
from .errors import EmptyFamilyError, PreconditionError


@dataclass(frozen=True)
class Projection:
    """A self-adjoint idempotent with a cached basis of its range.

    A float coordinate projection also carries its mask: the 0/1 diagonal
    of the element, which is then that diagonal exactly.  Its products,
    meets, joins, complement and basis residuals are index operations on
    the mask, with no arithmetic."""

    element: Element
    range_basis: np.ndarray = field(repr=False)
    mask: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def domain(self) -> ScalarDomain:
        return self.element.domain

    @property
    def dim(self) -> int:
        return self.element.dim

    @property
    def rank(self) -> int:
        return self.range_basis.shape[1]

    # the domain and size check against an element or projection: a
    # masked p reads its size off its mask, with no element formed
    _check = check_match

    def product(self, a: Element, side: str = "both") -> Element:
        """p a (side "left"), a p ("right") or p a p ("both").

        A masked projection keeps a's rows (left), columns (right) or both
        in its mask and zeroes the others, which is the dense product with
        the 0/1 diagonal exactly.  Every other projection takes the dense
        products with its element.
        """
        self._check(a)
        if self.mask is None:
            p = self.element
            if side == "left":
                return p @ a
            return a @ p if side == "right" else p @ a @ p
        m = self.mask
        keep = (m[:, None] if side == "left" else m[None, :] if side == "right"
                else m[:, None] & m[None, :])
        return Element(self.domain, np.where(keep, a.mat, 0))

    def complement(self) -> "Projection":
        """1 - p, from the range basis B alone: the range of 1 - p is
        ker p = ker B* (`subspaces.complement`).  A masked p gives the
        masked 1 - p, the other coordinates."""
        if self.mask is not None:
            return masked(self.domain, ~self.mask)
        return from_basis(self.domain, subspaces.complement(self.domain, self.range_basis))

    def equals(self, other: "Projection") -> bool:
        return self.element.equals(other.element)


class _Masked(Projection):
    """A float coordinate projection held as its mask: the element, the
    0/1 diagonal, and the range basis, the identity's columns in the mask
    unless a basis or a function forming one was given, are formed on
    first use, so a masked projection that only enters index operations
    allocates neither."""

    def __init__(self, domain: ScalarDomain, mask: np.ndarray,
                 basis: np.ndarray | Callable[[], np.ndarray] | None):
        mask.setflags(write=False)
        for name, value in (("mask", mask), ("_domain", domain), ("_basis", basis),
                            ("_element", None), ("_rank", int(np.count_nonzero(mask)))):
            object.__setattr__(self, name, value)

    @property
    def element(self) -> Element:
        if self._element is None:
            n = self.mask.size
            idx = np.flatnonzero(self.mask)
            mat = np.zeros((n, n), dtype=complex)
            mat[idx, idx] = 1
            object.__setattr__(self, "_element", Element(self._domain, mat))
        return self._element

    @property
    def range_basis(self) -> np.ndarray:
        if callable(self._basis):
            object.__setattr__(self, "_basis", self._basis())
        elif self._basis is None:
            idx = np.flatnonzero(self.mask)
            basis = np.zeros((self.mask.size, idx.size), dtype=complex)
            basis[idx, np.arange(idx.size)] = 1
            object.__setattr__(self, "_basis", basis)
        return self._basis

    @property
    def domain(self) -> ScalarDomain:
        return self._domain

    @property
    def dim(self) -> int:
        return self.mask.size

    @property
    def rank(self) -> int:
        return self._rank


def masked(domain: ScalarDomain, mask: np.ndarray,
           basis: np.ndarray | Callable[[], np.ndarray] | None = None) -> Projection:
    """The float coordinate projection diag(mask), with basis as its range
    basis (the identity's columns in the mask when None, and the result of
    calling it, on first read, when it is a function); its products go
    through the mask."""
    return _Masked(domain, mask, basis)


def coordinate_mask(basis: np.ndarray) -> np.ndarray | None:
    """The rows of a float basis with one nonzero per column at distinct
    rows, as a mask, or None for any other basis.  Such a basis spans the
    coordinate subspace of those rows whatever its entries."""
    counts, rows, _ = subspaces.column_entries(basis)
    if not (counts == 1).all():
        return None
    mask = np.zeros(basis.shape[0], dtype=bool)
    mask[rows] = True
    return mask if np.count_nonzero(mask) == rows.size else None


def from_basis(domain: ScalarDomain, basis: np.ndarray) -> Projection:
    """The projection onto span(basis).  A float basis with one nonzero per
    column at distinct rows spans a coordinate subspace, whatever the
    phases of its entries, so its projection is the masked 0/1 diagonal
    (`coordinate_mask`), with no product.  Any other basis gives the
    dense projection (`subspaces.proj_matrix`); exact domains keep no
    mask."""
    if not domain.exact:
        mask = coordinate_mask(basis)
        if mask is not None:
            return masked(domain, mask, basis)
    return Projection(Element(domain, subspaces.proj_matrix(domain, basis)), basis)


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
    """p q through a masked factor's mask, else the dense product
    (`Projection.product`); pq = 0 is the orthogonality of p and q."""
    if p.mask is None and q.mask is not None:
        return q.product(p.element, "right")
    return p.product(q.element, "left")


def coordinate_projection(domain: ScalarDomain, keep) -> Projection:
    """diag(keep) in the domain's scalars: the sum of the matrix units e_ii
    with keep[i] true.  Its range basis is the identity's columns where keep
    holds, read off the mask with no arithmetic; a float one keeps the mask
    (`masked`)."""
    keep = np.asarray(keep, dtype=bool)
    if not domain.exact:
        return masked(domain, keep.copy())
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
    """Largest projection below every member (range intersection); the
    AND of the masks when every member is masked."""
    family = list(family)
    if not family:
        raise EmptyFamilyError("proj_inf of an empty family")
    first = family[0]
    for p in family[1:]:
        first._check(p)
    if all(p.mask is not None for p in family):
        return masked(first.domain, np.logical_and.reduce([p.mask for p in family]))
    basis = first.range_basis
    for p in family[1:]:
        basis = subspaces.intersect(first.domain, basis, p.range_basis)
    return from_basis(first.domain, basis)


def proj_sup(family: Sequence[Projection]) -> Projection:
    """Smallest projection above every member (span of the union); the OR
    of the masks when every member is masked."""
    family = list(family)
    if not family:
        raise EmptyFamilyError("proj_sup of an empty family")
    first = family[0]
    for p in family[1:]:
        first._check(p)
    if all(p.mask is not None for p in family):
        return masked(first.domain, np.logical_or.reduce([p.mask for p in family]))
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
        """Orthogonality and sum-to-one residuals (Frobenius norms).  For
        masked members they are read off the masks: ‖pq‖ is the square root
        of the number of coordinates in both masks, and Σp - 1 is the
        diagonal of how many masks hold each coordinate, less one."""
        out = {}
        items = list(self.members)
        masks = [p.mask for _, p in items]
        if all(m is not None for m in masks):
            for i, (li, mi) in enumerate(zip(self.labels(), masks)):
                for lj, mj in zip(self.labels()[i + 1:], masks[i + 1:]):
                    out[f"orth[{li},{lj}]"] = float(np.sqrt(np.count_nonzero(mi & mj)))
            cover = np.sum(masks, axis=0) - 1
            out["sum_to_one"] = float(np.sqrt(np.dot(cover, cover)))
            return out
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
