"""Per-domain subspace primitives: bases, projections, kernels, meets.

Exact domains keep (non-orthogonal) pivot-column bases and build
projections through the Gram matrix; the complex domain keeps orthonormal
SVD bases with a relative rank cutoff.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .domains import DomainKind, ScalarDomain


def _rank_cut(s: np.ndarray, eps_rank: float) -> int:
    if s.size == 0:
        return 0
    # relative cutoff with an absolute floor: every operator handled here has
    # norm O(1), so singular values below eps_rank are noise even when the
    # whole matrix is numerically zero
    return int(np.sum(s > eps_rank * max(float(s[0]), 1.0)))


def empty_basis(domain: ScalarDomain, n: int) -> np.ndarray:
    if domain.kind is DomainKind.COMPLEX:
        return np.zeros((n, 0), dtype=complex)
    return np.empty((n, 0), dtype=object)


def orth(domain: ScalarDomain, mat: np.ndarray) -> np.ndarray:
    """Basis of the column space of mat (orthonormal for floats)."""
    if domain.kind is DomainKind.COMPLEX:
        if mat.shape[1] == 0:
            return mat.astype(complex)
        u, s, _ = np.linalg.svd(mat, full_matrices=False)
        return u[:, : _rank_cut(s, domain.tol.eps_rank)]
    return linalg.column_space(domain, mat)


def dim_of(basis: np.ndarray) -> int:
    return basis.shape[1]


def proj_matrix(domain: ScalarDomain, basis: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto span(basis)."""
    n = basis.shape[0]
    if domain.kind is DomainKind.COMPLEX:
        return basis @ basis.conj().T if basis.shape[1] else np.zeros((n, n), dtype=complex)
    if basis.shape[1] == 0:
        return linalg.zeros(domain, n, n)
    gram = linalg.normalize(domain, basis.T @ basis)
    ginv_bt = linalg.solve(domain, gram, linalg.normalize(domain, basis.T.copy()))
    return linalg.normalize(domain, basis @ ginv_bt)


def nullspace(domain: ScalarDomain, mat: np.ndarray) -> np.ndarray:
    if domain.kind is DomainKind.COMPLEX:
        u, s, vh = np.linalg.svd(mat)
        r = _rank_cut(s, domain.tol.eps_rank)
        return vh[r:].conj().T
    return linalg.nullspace(domain, mat)


def intersect(domain: ScalarDomain, b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Basis of span(b1) ∩ span(b2)."""
    if b1.shape[1] == 0 or b2.shape[1] == 0:
        return empty_basis(domain, b1.shape[0])
    stacked = np.concatenate([b1, -b2], axis=1)
    ker = nullspace(domain, stacked)
    if ker.shape[1] == 0:
        return empty_basis(domain, b1.shape[0])
    return orth(domain, b1 @ ker[: b1.shape[1]])


def preimage(domain: ScalarDomain, op: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Basis of {v : op v ∈ span(basis)}."""
    n = op.shape[0]
    comp = (np.eye(n, dtype=complex) if domain.kind is DomainKind.COMPLEX else linalg.eye(domain, n))
    comp = comp - proj_matrix(domain, basis)
    if domain.exact:
        comp = linalg.normalize(domain, comp)
    return nullspace(domain, comp @ op)

