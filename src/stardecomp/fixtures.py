"""Randomised test instances for the concrete rings.

Rational orthogonal matrices come from Givens rotations with Pythagorean-
triple cosines, so every entry stays an exact Fraction; conjugating a
block-diagonal model by one of these preserves the transpose involution
and therefore every *-identity of the model.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .domains import RATIONAL, ScalarDomain, complex_domain
from .elements import Element
from .errors import PreconditionError

_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))


def _givens(dim: int, i: int, j: int, c: Fraction, s: Fraction) -> np.ndarray:
    g = RATIONAL.eye(dim)
    g[i, i] = c
    g[j, j] = c
    g[i, j] = -s
    g[j, i] = s
    return g


def rational_orthogonal(dim: int, rng) -> Element:
    """Random special-orthogonal rational matrix (exact Q Q^T = 1)."""
    if dim < 1:
        raise PreconditionError("dim must be positive")
    q = RATIONAL.eye(dim)
    if dim == 1:
        if rng.integers(2):
            q[0, 0] = Fraction(-1)
        return Element(RATIONAL, q)
    for _ in range(2 * dim):
        a, b, c = _TRIPLES[rng.integers(len(_TRIPLES))]
        i, j = rng.choice(dim, size=2, replace=False)
        q = q @ _givens(dim, int(i), int(j), Fraction(a, c), Fraction(b, c))
    perm = rng.permutation(dim)
    signs = rng.integers(2, size=dim)
    pmat = RATIONAL.zeros(dim, dim)
    for col, row in enumerate(perm):
        pmat[int(row), col] = Fraction(-1 if signs[col] else 1)
    return Element(RATIONAL, q @ pmat)


def _jordan_block(dim: int) -> np.ndarray:
    j = RATIONAL.zeros(dim, dim)
    for i in range(dim - 1):
        j[i + 1, i] = Fraction(1)
    return j


def _random_partition(total: int, rng) -> list:
    parts = []
    left = total
    while left:
        size = int(rng.integers(1, min(left, 3) + 1))
        parts.append(size)
        left -= size
    return parts


def random_ppi(dim: int, rng, unitary_rank: int | None = None) -> Element:
    """Random rational power partial isometry: unitary ⊕ chains, conjugated."""
    if unitary_rank is None:
        unitary_rank = int(rng.integers(0, dim + 1))
    if not 0 <= unitary_rank <= dim:
        raise PreconditionError("unitary_rank out of range")
    blocks = []
    if unitary_rank:
        blocks.append(rational_orthogonal(unitary_rank, rng).mat)
    for size in _random_partition(dim - unitary_rank, rng):
        blocks.append(_jordan_block(size))
    mat = RATIONAL.zeros(dim, dim)
    at = 0
    for b in blocks:
        d = b.shape[0]
        mat[at : at + d, at : at + d] = b
        at += d
    q = rational_orthogonal(dim, rng)
    return q @ Element(RATIONAL, mat) @ q.star()


def random_contraction(dim: int, rng, unitary_rank: int | None = None) -> Element:
    """Random rational contraction: unitary ⊕ strictly damped blocks."""
    if unitary_rank is None:
        unitary_rank = int(rng.integers(0, dim + 1))
    mat = RATIONAL.zeros(dim, dim)
    if unitary_rank:
        mat[:unitary_rank, :unitary_rank] = rational_orthogonal(unitary_rank, rng).mat
    at = unitary_rank
    while at < dim:
        size = int(rng.integers(1, min(dim - at, 3) + 1))
        damp = Fraction(int(rng.integers(0, 3)), 4)  # 0, 1/4 or 1/2
        block = rational_orthogonal(size, rng).mat * damp
        mat[at : at + size, at : at + size] = block
        at += size
    q = rational_orthogonal(dim, rng)
    return q @ Element(RATIONAL, mat) @ q.star()


def commuting_orthogonal_pair(dim: int, rng) -> tuple:
    """Two commuting rational orthogonal matrices (rotations in shared planes)."""
    if dim < 2:
        raise PreconditionError("need dim >= 2")
    q1 = RATIONAL.eye(dim)
    q2 = RATIONAL.eye(dim)
    for i in range(0, dim - 1, 2):
        a1, b1, c1 = _TRIPLES[rng.integers(len(_TRIPLES))]
        a2, b2, c2 = _TRIPLES[rng.integers(len(_TRIPLES))]
        q1 = q1 @ _givens(dim, i, i + 1, Fraction(a1, c1), Fraction(b1, c1))
        q2 = q2 @ _givens(dim, i, i + 1, Fraction(a2, c2), Fraction(b2, c2))
    q = rational_orthogonal(dim, rng)
    e1 = q @ Element(RATIONAL, q1) @ q.star()
    e2 = q @ Element(RATIONAL, q2) @ q.star()
    return e1, e2


def random_complex_unitary(dim: int, rng, tol=None) -> Element:
    """Haar-ish random unitary via QR with phase fixing."""
    domain = complex_domain(tol)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return Element(domain, q)


def gf_signed_permutation(domain: ScalarDomain, rng) -> Element:
    """Random orthogonal element of M_dim(F_p) of signed-permutation form."""
    dim = domain.dim
    mat = domain.zeros(dim, dim)
    perm = rng.permutation(dim)
    for col, row in enumerate(perm):
        mat[int(row), col] = domain.coerce(-1 if rng.integers(2) else 1)
    return Element(domain, mat)

