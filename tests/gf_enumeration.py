"""Brute-force reference for the finite-field rings M_dim(F_p).

Enumerates vectors and matrices with numpy and closes {x^T x} under
addition, independently of the closed forms in stardecomp.exactrings.
Meant for p <= 11 (p^(dim^2) elements are materialised at once).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def _digits(p: int, n: int) -> np.ndarray:
    """All p^n vectors of F_p^n, one per row, in lexicographic order."""
    return (np.arange(p**n)[:, None] // p ** np.arange(n - 1, -1, -1)) % p


def proper(p: int, dim: int) -> bool:
    """True iff no nonzero v in F_p^dim has v v^T = 0."""
    vs = _digits(p, dim)
    return not np.any((vs[1:] ** 2).sum(axis=1) % p == 0)


def elements(p: int, dim: int) -> np.ndarray:
    """Every element of M_dim(F_p), shape (p^(dim^2), dim, dim)."""
    return _digits(p, dim * dim).reshape(-1, dim, dim)


@dataclass(frozen=True)
class Cone:
    """The enumerated positive cone, as sets of row-major entry tuples."""

    p: int
    members: frozenset
    squares: frozenset

    @property
    def antisymmetric(self) -> bool:
        """No nonzero k with -k also in the cone."""
        return not any(any(k) and tuple(-v % self.p for v in k) in self.members
                       for k in self.members)

    @property
    def smooth(self) -> bool:
        """Every positive element is a single square x^T x."""
        return self.members == self.squares


@lru_cache(maxsize=None)
def cone(p: int, dim: int) -> Cone:
    """Fixpoint of C0 = {x^T x} under C -> C ∪ (C + C0), grown by frontier.

    Matrices are indexed by their row-major entries read as base-p digits,
    so row k of `elements(p, dim)` is the matrix with index k.
    """
    d2 = dim * dim
    xs = elements(p, dim)
    table = xs.reshape(-1, d2)
    weights = p ** np.arange(d2 - 1, -1, -1)
    squares = np.unique((np.einsum("nki,nkj->nij", xs, xs).reshape(-1, d2) % p) @ weights)
    in_cone = np.zeros(len(table), dtype=bool)
    in_cone[squares] = True
    frontier = squares
    while frontier.size:
        sums = ((table[frontier][:, None, :] + table[squares][None, :, :]) % p) @ weights
        frontier = np.unique(sums[~in_cone[sums]])
        in_cone[frontier] = True
    return Cone(p, _entry_set(table[in_cone]), _entry_set(table[squares]))


def _entry_set(rows: np.ndarray) -> frozenset:
    return frozenset(map(tuple, rows.tolist()))
