"""Exact dense Gaussian elimination over the rational and prime-field domains.

Matrices are numpy object arrays; the domain object supplies the scalars,
the storage and the reduction of computed entries, so only the elimination
lives here.  Exactness is what matters, not speed, at the sizes used.
"""

from __future__ import annotations

import numpy as np

from .domains import ScalarDomain


def normalize(domain: ScalarDomain, mat: np.ndarray) -> np.ndarray:
    """The domain's canonical entries; every elimination step goes through here."""
    return domain.normalize(mat)


def rref(domain: ScalarDomain, mat: np.ndarray):
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    m = normalize(domain, mat.copy())
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pr = next((i for i in range(r, rows) if m[i, c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = domain.inv(m[r, c])
        m[r] = normalize(domain, m[r] * inv)
        for i in range(rows):
            if i != r and m[i, c] != 0:
                m[i] = normalize(domain, m[i] - m[i, c] * m[r])
        pivots.append(c)
        r += 1
    return m, pivots


def nullspace(domain: ScalarDomain, mat: np.ndarray) -> np.ndarray:
    """Basis of the right kernel, returned as columns (n x k)."""
    r, pivots = rref(domain, mat)
    rows, cols = mat.shape
    free = [c for c in range(cols) if c not in pivots]
    basis = domain.zeros(cols, len(free))
    for j, fc in enumerate(free):
        basis[fc, j] = domain.one()
        for i, pc in enumerate(pivots):
            basis[pc, j] = -r[i, fc]
    return normalize(domain, basis)


def column_space(domain: ScalarDomain, mat: np.ndarray) -> np.ndarray:
    """Pivot columns of the original matrix, as an (n x r) basis."""
    _, pivots = rref(domain, mat)
    if not pivots:
        return domain.zeros(mat.shape[0], 0)
    return normalize(domain, mat[:, pivots].copy())


def solve(domain: ScalarDomain, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for square invertible a (exact).  b may be a matrix."""
    n = a.shape[0]
    aug = np.concatenate([a, b], axis=1)
    r, pivots = rref(domain, aug)
    if pivots[:n] != list(range(n)):
        raise np.linalg.LinAlgError("singular exact system")
    return r[:, n:]
