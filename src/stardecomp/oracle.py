"""Independent brute-force checks used to cross-validate the engine.

Everything here is built directly on exact kernel/column-space
elimination, deliberately avoiding the projection lattice and chain
machinery of the engine, so that agreement between the two is meaningful
evidence.  Inputs must be exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .domains import ScalarDomain
from .elements import Element
from .errors import PreconditionError, StructuralAnomalyError

UNITARY_DIM_GUARD = 8
CHAIN_DIM_GUARD = 6


def _rank(domain: ScalarDomain, mat: np.ndarray) -> int:
    return linalg.column_space(domain, mat).shape[1]


def _membership_rows(domain: ScalarDomain, basis: np.ndarray) -> np.ndarray:
    """Rows A with  v in col(basis)  iff  A v = 0."""
    return linalg.nullspace(domain, basis.T).T


def _stack_null(domain: ScalarDomain, mats) -> np.ndarray:
    return linalg.nullspace(domain, np.concatenate(list(mats), axis=0))


def brute_unitary_part(x: Element) -> np.ndarray:
    """Basis of the largest reducing subspace on which x acts unitarily.

    Intersects the kernels of 1 - x^{*n} x^n and 1 - x^n x^{*n} for all
    n up to the dimension, then shrinks to the largest subspace invariant
    under both x and x*.  Small dimensions only.
    """
    if x.dim > UNITARY_DIM_GUARD:
        raise PreconditionError(f"brute_unitary_part is guarded to dim <= {UNITARY_DIM_GUARD}")
    if not x.domain.exact:
        raise PreconditionError("brute_unitary_part requires an exact domain")
    domain = x.domain
    one = domain.eye(x.dim)
    conditions = []
    fwd = x.mat
    bwd = x.star().mat
    for _ in range(x.dim):
        lhs1 = domain.normalize(one - domain.adjoint(fwd) @ fwd)
        lhs2 = domain.normalize(one - domain.adjoint(bwd) @ bwd)
        conditions.extend([lhs1, lhs2])
        fwd = fwd @ x.mat
        bwd = bwd @ x.star().mat
    basis = _stack_null(domain, conditions)
    # shrink to the joint x / x* invariant core
    while basis.shape[1] > 0:
        rows = _membership_rows(domain, basis)
        m1 = domain.normalize(rows @ x.mat)
        m2 = domain.normalize(rows @ x.star().mat)
        nxt = _stack_null(domain, [rows, m1, m2])
        if nxt.shape[1] == basis.shape[1]:
            break
        basis = nxt
    return basis


@dataclass(frozen=True)
class ChainReport:
    """Brute-force structure of a power partial isometry in finite dimension."""

    u_rank: int
    chain_lengths: tuple  # sorted descending, one entry per truncated-shift chain
    t_rank: int


def brute_hw_classify(x: Element) -> ChainReport:
    """Decompose a PPI into a unitary part plus truncated-shift chains.

    Chain starts of exact length l span  ker(x*) ∩ ker(x^l) ∩ range(x^{*(l-1)});
    each extracted chain is verified by the exact walk-back relation
    x* x^j v = x^{j-1} v.  Failure to exhaust the space is a structural
    anomaly, never silently ignored.
    """
    if x.dim > CHAIN_DIM_GUARD:
        raise PreconditionError(f"brute_hw_classify is guarded to dim <= {CHAIN_DIM_GUARD}")
    if not x.domain.exact:
        raise PreconditionError("brute_hw_classify requires an exact domain")
    domain = x.domain
    u_basis = brute_unitary_part(x)
    u_rank = u_basis.shape[1]

    xs = x.star()
    chain_vectors = [u_basis]
    chain_lengths = []
    for length in range(x.dim, 0, -1):
        xl = x.power(length)
        back = xs.power(length - 1)
        start_range = linalg.column_space(domain, back.mat)
        conds = [xs.mat, xl.mat]
        rows = _membership_rows(domain, start_range)
        if rows.shape[0]:
            conds.append(rows)
        starts = _stack_null(domain, conds)
        for k in range(starts.shape[1]):
            v = starts[:, k : k + 1]
            chain = [v]
            for _ in range(length - 1):
                chain.append(linalg.normalize(domain, x.mat @ chain[-1]))
            if all(c == domain.zero() for c in chain[-1].flat):
                raise StructuralAnomalyError("chain terminated early")
            if any(c != domain.zero() for c in linalg.normalize(domain, x.mat @ chain[-1]).flat):
                raise StructuralAnomalyError("chain failed to terminate")
            for j in range(1, length):
                walked = linalg.normalize(domain, xs.mat @ chain[j])
                if not np.array_equal(walked, chain[j - 1]):
                    raise StructuralAnomalyError("walk-back relation failed on a chain")
            chain_vectors.extend(chain)
            chain_lengths.append(length)
    joined = np.concatenate(chain_vectors, axis=1)
    if _rank(domain, joined) != x.dim or joined.shape[1] != x.dim:
        raise StructuralAnomalyError(
            f"chains + unitary part span rank {_rank(domain, joined)} of {x.dim}"
        )
    return ChainReport(
        u_rank=u_rank,
        chain_lengths=tuple(sorted(chain_lengths, reverse=True)),
        t_rank=x.dim - u_rank,
    )


def truncation_convergence_probe(expr, sizes, n_max: int = 16):
    """Wold projections of truncations at growing sizes, compared pairwise.

    Runs the engine on each truncation and reports, for consecutive sizes,
    the largest entry deviation of the unitary projection on the smaller
    probe window.  Stable values certify that the window is trustworthy.
    """
    from .engine import EngineConfig, wold
    from .shiftmodel import embedding_indices, truncate

    sizes = sorted(sizes)
    results = []
    mats = {}
    windows = {}
    for n in sizes:
        tr = truncate(expr, n, n_max=n_max)
        rep = wold(tr.element, EngineConfig(n_max=n_max, window=tr.window))
        mats[n] = rep.basis["u"].element.mat
        windows[n] = np.real(np.diag(tr.window.element.mat)) > 0.5
    for prev, cur in zip(sizes, sizes[1:]):
        i_small, i_big = embedding_indices(expr, prev, cur)
        sub = mats[cur][np.ix_(i_big, i_big)]
        mask = windows[prev]
        diff = (mats[prev] - sub)[np.ix_(mask, mask)]
        results.append({"n": cur, "delta_prev": float(np.abs(diff).max()) if diff.size else 0.0})
    return results
