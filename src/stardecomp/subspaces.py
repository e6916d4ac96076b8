"""Subspace primitives: bases, projections, kernels, meets.

Only the algorithm depends on the domain here: exact domains keep pivot-
column bases and build projections through the Gram matrix; the complex
domain keeps orthonormal bases, from SVDs with a relative rank cutoff, and
skips the SVD wherever its outcome is already known.  The cokernel peels
off the lone entries of its matrix, whose singular values and vectors are
read off with no arithmetic, so only the rest takes an SVD, and only when
it has a nonzero entry; on a truncated shift model that is the unitary
blocks beside the shifts' zero boundary lines.
The complement of a span is one kernel of the basis' adjoint in every
domain.  `entries` reads a matrix's nonzeros in one scan: the count, row
and entry of each column and row (`Entries`), which the adjoint shares
with its axes swapped.  The engine reads it once per operator, for its
gathered products, Gram blocks, walked series and gradings, the
cokernel's lone entries, window rows included, and `component_labels`,
the connected components of the coordinates, for its PPI precondition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .domains import ScalarDomain

_EPS = np.finfo(float).eps


def _cut(top: float, eps_rank: float) -> float:
    # relative cutoff with an absolute floor: every operator handled here has
    # norm O(1), so singular values below eps_rank are noise even when the
    # whole matrix is numerically zero
    return eps_rank * max(top, 1.0)


def _rank_cut(s: np.ndarray, eps_rank: float) -> int:
    if s.size == 0:
        return 0
    return int(np.sum(s > _cut(float(s[0]), eps_rank)))


def orth(domain: ScalarDomain, mat: np.ndarray) -> np.ndarray:
    """Basis of the column space of mat (orthonormal for floats).  A float
    matrix whose Frobenius norm is below eps_rank takes no SVD."""
    if domain.exact:
        return linalg.column_space(domain, mat)
    if mat.shape[1] == 0:
        return mat.astype(complex)
    if np.linalg.norm(mat) < domain.tol.eps_rank:
        # σ₁ <= ‖mat‖_F, so the SVD would keep no singular value
        return np.zeros((mat.shape[0], 0), dtype=np.result_type(mat.dtype, np.float32))
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, : _rank_cut(s, domain.tol.eps_rank)]


def _orthonormal(mat: np.ndarray) -> bool:
    """True when mat* mat is within dim·ε of the identity in Frobenius norm,
    dim the number of rows: roundoff of an orthonormal block.  For one
    column the Gram matrix is the scalar v*v, tested as |v*v - 1| with no
    matrix formed."""
    if mat.shape[1] == 1:
        return abs(np.vdot(mat, mat) - 1) <= mat.shape[0] * _EPS
    gram = mat.conj().T @ mat
    gram.flat[:: gram.shape[0] + 1] -= 1
    return np.sqrt(np.vdot(gram, gram).real) <= mat.shape[0] * _EPS


def unit_moduli(vals: np.ndarray, dim: int) -> bool:
    """`_orthonormal`'s predicate for the columns vals_k e_(r_k) at
    distinct rows of dim rows: their Gram matrix is diag(|vals|²), so the
    test is ‖|vals|² - 1‖ <= dim·ε on the entries alone, with no matrix
    formed.  A non-finite defect fails."""
    defect = vals.real ** 2 + vals.imag ** 2 - 1
    return bool(np.sqrt(np.dot(defect, defect)) <= dim * _EPS)


def own_basis(domain: ScalarDomain, mat: np.ndarray) -> np.ndarray:
    """A basis of the column space of mat that is mat itself where mat
    already is one, and orth(mat) otherwise.

    A float mat whose Gram matrix is within dim·ε of the identity has every
    singular value within dim·ε of 1, so orth would keep every column and
    its U would span what mat spans; mat is then taken as it is, with no
    SVD.  Exact domains always take orth(mat).
    """
    if not domain.exact and mat.shape[1] and _orthonormal(mat):
        return mat
    return orth(domain, mat)


def proj_matrix(domain: ScalarDomain, basis: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto span(basis)."""
    n = basis.shape[0]
    if basis.shape[1] == 0:
        return domain.zeros(n, n)
    if not domain.exact:
        return basis @ basis.conj().T
    if basis.shape[1] == n:  # a basis of the whole space
        return domain.eye(n)
    gram = domain.normalize(basis.T @ basis)
    ginv_bt = linalg.solve(domain, gram, domain.normalize(basis.T.copy()))
    return domain.normalize(basis @ ginv_bt)


@dataclass(frozen=True)
class Entries:
    """The nonzeros of a matrix, read in one scan (`entries`): their
    coordinates i, j, and for each column the number of its nonzeros, the
    row of one of them and the entry there (row 0 and its zero entry for a
    zero column), so that a column with at most one nonzero is
    vals·e_rows; and the same for each row.  The adjoint's record is this
    one with the axes swapped and, in the complex domain, the entries
    conjugated (`star`), with no scan of the adjoint."""

    i: np.ndarray
    j: np.ndarray
    counts: np.ndarray
    rows: np.ndarray
    vals: np.ndarray
    row_counts: np.ndarray
    cols: np.ndarray
    row_vals: np.ndarray

    def star(self, conjugate: bool) -> "Entries":
        conj = np.conj if conjugate else (lambda v: v)
        return Entries(self.j, self.i, self.row_counts, self.cols, conj(self.row_vals),
                       self.counts, self.rows, conj(self.vals))


def entries(mat: np.ndarray) -> Entries:
    """The record of mat's nonzeros (`Entries`).  A complex mat is compared
    with 0 as the floats of its real and imaginary parts, and each nonzero
    entry keeps one of their flat indices."""
    m, n = mat.shape
    if mat.dtype.kind == "c":
        flat = np.flatnonzero(np.ascontiguousarray(mat).view(mat.real.dtype) != 0) >> 1
        first = np.ones(flat.size, dtype=bool)
        first[1:] = flat[1:] != flat[:-1]
        flat = flat[first]
    else:
        flat = np.flatnonzero(mat != 0)
    i, j = np.divmod(flat, n)
    rows = np.zeros(n, dtype=np.intp)
    rows[j] = i
    cols = np.zeros(m, dtype=np.intp)
    cols[i] = j
    at = (lambda r, c: mat[r, c]) if mat.size else (lambda r, c: np.zeros(r.size, mat.dtype))
    return Entries(i, j, np.bincount(j, minlength=n), rows, at(rows, np.arange(n)),
                   np.bincount(i, minlength=m), cols, at(np.arange(m), cols))


def column_entries(mat: np.ndarray) -> tuple:
    """(counts, rows, vals): the number of nonzeros in each column of mat,
    and the row and value of the column's first nonzero (row 0 and its
    entry, 0, for a zero column).  Where counts is 1 the column is
    vals·e_rows, and where it is 0 as well.  For a basis, whose rows are
    not read, this is cheaper than its `entries`."""
    nz = mat != 0
    rows = nz.argmax(axis=0)
    return nz.sum(axis=0), rows, mat[rows, np.arange(mat.shape[1])]


def component_labels(e: Entries) -> np.ndarray:
    """The connected components of a square matrix's coordinates, i and j
    joined where its (i, j) entry is nonzero (its record e), as each
    coordinate's label: the least coordinate of its component.  The matrix
    and its adjoint both map the coordinates of a component into
    themselves, so each spans a reducing subspace.

    Label propagation: each round lowers every edge's two ends to the
    smaller label (`np.minimum.at`) and then follows labels to their own
    labels until none moves (pointer jumping, `lab = lab[lab]`).  Labels
    only fall and always name a coordinate of the same component, so a
    round that moves none is the fixpoint."""
    i, j = e.i, e.j
    lab = np.arange(e.counts.size)
    while True:
        old = lab.copy()
        np.minimum.at(lab, i, old[j])
        np.minimum.at(lab, j, old[i])
        while not np.array_equal(up := lab[lab], lab):
            lab = up
        if np.array_equal(lab, old):
            return lab


def cokernel(domain: ScalarDomain, mat: np.ndarray, record: Entries | None = None,
             keep: np.ndarray | None = None) -> np.ndarray:
    """Basis of ker mat*, the range of 1 - [mat]; with keep, a 0/1 mask of
    mat's rows, the basis of ker mat[keep]* put back in the full space
    with zeros off keep.

    Exact domains take the rref kernel of mat[keep]*.  Floats take the left
    singular vectors of mat[keep] past the rank, and not the right singular
    vectors of its adjoint: on a truncated shift those carry a roundoff
    tail that decays geometrically into subnormal range, which the
    wandering series then multiplies through every block.

    Only the non-lone rest of a float mat[keep] takes an SVD.  Up to row
    and column permutations it is diag(x_ij) ⊕ rest, x_ij its lone entries,
    the nonzeros alone in their row and alone among their column's
    nonzeros in keep, so its singular values are the |x_ij| beside those of
    rest, and row i of a lone entry is a left singular vector.  They are
    read off mat's record (`entries`, scanned here when none is given),
    with no copy of mat[keep].  The rank cut is `_rank_cut`'s,
    eps_rank·max(σ₁, 1) with σ₁ the largest over both parts; a lone entry
    at or below it gives e_i.  Zero rows and columns stay in rest, so a
    matrix with no lone entry is one rest: a truncated shift is all lone
    entries but its two boundary lines.  A rest with no nonzero entry, such
    as those lines, takes no SVD: its cokernel is its coordinate rows, the
    identity, which is also the U LAPACK returns for a zero matrix (a -0.0
    entry can flip a column's sign there, which spans the same line).
    """
    if domain.exact:
        basis = linalg.nullspace(domain, domain.adjoint(mat if keep is None else mat[keep]))
        if keep is None:
            return basis
        out = domain.zeros(mat.shape[0], basis.shape[1])
        out[keep] = basis
        return out
    inside = np.ones(mat.shape[0], dtype=bool) if keep is None else keep
    e = record if record is not None else entries(mat)
    in_keep = e.counts if keep is None else np.bincount(e.j[keep[e.i]], minlength=mat.shape[1])
    lone_rows = inside & (e.row_counts == 1)
    lone_rows[lone_rows] = in_keep[e.cols[lone_rows]] == 1
    rows = np.flatnonzero(lone_rows)
    rest_rows = inside & ~lone_rows
    rest_cols = np.ones(mat.shape[1], dtype=bool)
    rest_cols[e.cols[rows]] = False
    rest = mat[np.ix_(rest_rows, rest_cols)]
    if rest.any():
        u, s, _ = np.linalg.svd(rest)
    else:
        u, s = np.eye(rest.shape[0], dtype=np.result_type(rest.dtype, np.float32)), np.zeros(0)
    lone = np.abs(e.row_vals[rows])
    cut = _cut(float(max(s.max(initial=0.0), lone.max(initial=0.0))), domain.tol.eps_rank)
    small = rows[lone <= cut]
    rank = int(np.sum(s > cut))
    out = np.zeros((mat.shape[0], small.size + u.shape[1] - rank), dtype=u.dtype)
    out[small, np.arange(small.size)] = 1
    out[rest_rows, small.size:] = u[:, rank:]
    return out


def complement(domain: ScalarDomain, basis: np.ndarray) -> np.ndarray:
    """Basis of the orthogonal complement of span(basis), the range of
    1 - p for p the projection onto span(basis).

    That range is ker p = ker basis*, so every domain takes one kernel of
    the thin basis* (`nullspace`) and never forms p: the rref kernel when
    exact, orthonormal right singular vectors for floats.
    """
    return nullspace(domain, domain.adjoint(basis))


def coordinates(domain: ScalarDomain, basis: np.ndarray, mat: np.ndarray,
                orthonormal: bool = False) -> np.ndarray:
    """Coordinates in basis of the projection of mat's columns onto
    span(basis): the solution c of the normal equations
    (basis* basis) c = basis* mat, or basis* mat alone when the caller
    knows a float basis to be orthonormal."""
    bh = domain.adjoint(basis)
    rhs = domain.normalize(bh @ mat)
    if orthonormal and not domain.exact:
        return rhs
    gram = domain.normalize(bh @ basis)
    return linalg.solve(domain, gram, rhs) if domain.exact else np.linalg.solve(gram, rhs)


def nullspace(domain: ScalarDomain, mat: np.ndarray) -> np.ndarray:
    """Basis of ker mat: rref free columns for exact domains, for floats the
    right singular vectors past the rank (orthonormal).  A float matrix
    whose Frobenius norm is below eps_rank takes no SVD: its kernel is
    everything, with the identity as basis.  A float matrix with at least
    as many rows as columns takes the thin SVD, whose V is already
    complete; only a wide one needs the full V."""
    if domain.exact:
        return linalg.nullspace(domain, mat)
    if np.linalg.norm(mat) < domain.tol.eps_rank:
        # σ₁ <= ‖mat‖_F, so the SVD would cut every singular value
        return np.eye(mat.shape[1], dtype=np.result_type(mat.dtype, np.float32))
    _, s, vh = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    return vh[_rank_cut(s, domain.tol.eps_rank):].conj().T


def intersect(domain: ScalarDomain, b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Basis of span(b1) ∩ span(b2).

    Exact domains take the kernel of the stacked matrix [b1, -b2].  Float
    bases are orthonormal, and the meet is b1 ker((1 - b2 b2*) b1): the
    singular values of (1 - b2 b2*) b1 are the sines of the principal
    angles θ between the spans (Björck & Golub 1973), so one thin SVD gives
    the meet, already orthonormal.  A direction is kept when
    sin θ <= eps_rank; the stacked kernel cut at √2·sin(θ/2) instead.  When
    (1 - b2 b2*) b1 is below eps_rank in Frobenius norm, span(b1) lies in
    span(b2) and b1 is returned with no SVD.
    """
    if b1.shape[1] == 0 or b2.shape[1] == 0:
        return domain.zeros(b1.shape[0], 0)
    if domain.exact:
        ker = nullspace(domain, np.concatenate([b1, -b2], axis=1))
        if ker.shape[1] == 0:
            return domain.zeros(b1.shape[0], 0)
        return orth(domain, b1 @ ker[: b1.shape[1]])
    off = b1 - b2 @ (b2.conj().T @ b1)
    if np.linalg.norm(off) < domain.tol.eps_rank:
        return b1
    return b1 @ nullspace(domain, off)


def preimage(domain: ScalarDomain, op: np.ndarray, comp: np.ndarray,
             within: np.ndarray, star: bool = False) -> np.ndarray:
    """Basis of {v ∈ span(within) : comp op v = 0}, or of op* with star.

    With comp = 1 - [basis] these are the vectors of span(within) that op
    maps into span(basis); one kernel of the thin matrix comp op within.
    A boolean comp is the mask of a 0/1 diagonal 1 - [basis], a coordinate
    one: comp op within is then zero but for op's rows in the mask, and
    the kernel is that of those rows of op times within.  With star, op*
    is never formed: its rows in the mask are op's columns there, adjoint,
    and a dense comp takes (within* op)*, the same thin op* within.  An
    orthonormal `within` gives an orthonormal result.
    """
    if within.shape[1] == 0:
        return within
    if comp.dtype == bool:
        rows = domain.adjoint(op[:, comp]) if star else op[comp]
        ker = nullspace(domain, rows @ within)
    else:
        image = domain.adjoint(domain.adjoint(within) @ op) if star else op @ within
        ker = nullspace(domain, comp @ image)
    return domain.normalize(within @ ker)
