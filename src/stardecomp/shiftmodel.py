"""Constructor algebra for the infinite-dimensional model operators.

Expressions are built from unitary blocks, unilateral/backward shifts,
truncated shifts, direct sums, compositions and the two quarter-plane grid
generators.  `truncate` realises an expression as a complex matrix; results
of downstream decompositions are trusted only on the probe window, because
truncation corrupts at most one tail coordinate per applied power.

The truncated layout at size n puts the segments of `space` one after
another.  Each coordinate of a segment has a row, a column and a depth
(`_coords`), and its offset within the segment is row·n + col.  A finite
segment of dimension d is one row of d columns, all of depth 0; a tail of
multiplicity m is m rows of n columns, of depth col; the grid is n rows of n
columns, of depth max(row, col).  The probe window of width w holds the
coordinates of depth < w.  The window and the segment ground truths are
coordinate projections, sums of diagonal matrix units, so each is read off
its mask with no factorisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .domains import ScalarDomain, complex_domain
from .elements import Element
from .errors import PreconditionError, TruncationTooSmallError
from .projections import Projection, coordinate_projection


@dataclass(frozen=True)
class Unitary:
    mat: tuple  # rows of complex entries, kept hashable

    def matrix(self) -> np.ndarray:
        return np.array(self.mat, dtype=complex)


@dataclass(frozen=True)
class Shift:
    mult: int = 1


@dataclass(frozen=True)
class BackShift:
    mult: int = 1


@dataclass(frozen=True)
class Trunc:
    n: int


@dataclass(frozen=True)
class DirectSum:
    terms: tuple


@dataclass(frozen=True)
class Compose:
    f: "OperatorExpr"
    g: "OperatorExpr"


@dataclass(frozen=True)
class Adjoint:
    inner: "OperatorExpr"


@dataclass(frozen=True)
class GridShift:
    axis: int  # 1 or 2


OperatorExpr = Union[Unitary, Shift, BackShift, Trunc, DirectSum, Compose, Adjoint, GridShift]


def unitary(rows) -> Unitary:
    u = np.array(rows, dtype=complex)
    if not np.allclose(u.conj().T @ u, np.eye(u.shape[0])):
        raise PreconditionError("Unitary block is not unitary")
    return Unitary(tuple(tuple(row) for row in u))


def direct_sum(*terms: OperatorExpr) -> DirectSum:
    return DirectSum(tuple(terms))


def compose(*factors: OperatorExpr) -> OperatorExpr:
    out = factors[0]
    for f in factors[1:]:
        out = Compose(out, f)
    return out


def shift_power(k: int, mult: int = 1) -> OperatorExpr:
    return compose(*([Shift(mult)] * k))


# segment kinds: ("finite", d) | ("tail", m) | ("grid",)


def space(e: OperatorExpr) -> tuple:
    if isinstance(e, Unitary):
        return (("finite", len(e.mat)),)
    if isinstance(e, Trunc):
        return (("finite", e.n),)
    if isinstance(e, (Shift, BackShift)):
        return (("tail", e.mult),)
    if isinstance(e, GridShift):
        return (("grid",),)
    if isinstance(e, DirectSum):
        return sum((space(t) for t in e.terms), ())
    if isinstance(e, Adjoint):
        return space(e.inner)
    if isinstance(e, Compose):
        sf, sg = space(e.f), space(e.g)
        if sf != sg:
            raise PreconditionError("Compose requires identical space descriptors")
        return sf
    raise PreconditionError(f"unknown expression node {e!r}")


def _coords(seg: tuple, n: int):
    """Row, column and depth of every coordinate of one segment at size n."""
    if seg[0] == "finite":
        col = np.arange(seg[1])
        return 0 * col, col, 0 * col
    row, col = np.divmod(np.arange((seg[1] if seg[0] == "tail" else n) * n), n)
    return row, col, (col if seg[0] == "tail" else np.maximum(row, col))


def _sizes(e: OperatorExpr, n: int) -> list:
    return [len(_coords(s, n)[0]) for s in space(e)]


def total_dim(e: OperatorExpr, n: int) -> int:
    return sum(_sizes(e, n))


def _matrix(e: OperatorExpr, n: int) -> np.ndarray:
    if isinstance(e, Unitary):
        return e.matrix()
    if isinstance(e, Trunc):
        return np.eye(e.n, k=-1, dtype=complex)
    if isinstance(e, (Shift, BackShift)):
        step = np.eye(n, k=-1 if isinstance(e, Shift) else 1, dtype=complex)
        return np.kron(np.eye(e.mult), step)
    if isinstance(e, GridShift):
        step, eye = np.eye(n, k=-1, dtype=complex), np.eye(n)
        return np.kron(step, eye) if e.axis == 1 else np.kron(eye, step)
    if isinstance(e, DirectSum):
        return _block_diag([_matrix(t, n) for t in e.terms])
    if isinstance(e, Compose):
        space(e)  # validates descriptors
        return _matrix(e.f, n) @ _matrix(e.g, n)
    if isinstance(e, Adjoint):
        return _matrix(e.inner, n).conj().T
    raise PreconditionError(f"unknown expression node {e!r}")


def _block_diag(blocks) -> np.ndarray:
    dim = sum(b.shape[0] for b in blocks)
    out = np.zeros((dim, dim), dtype=complex)
    at = 0
    for b in blocks:
        d = b.shape[0]
        out[at : at + d, at : at + d] = b
        at += d
    return out


@dataclass(frozen=True)
class Truncation:
    element: Element
    window: Projection
    w: int
    n: int


def truncate(e: OperatorExpr, n: int, n_max: int = 16, window: int | None = None,
             domain: ScalarDomain | None = None) -> Truncation:
    """Numeric realisation on the truncated basis, with its probe window.

    Each shift tail keeps its first n coordinates and kills the last basis
    vector; the window holds the coordinates of depth < w, with w at most
    n - n_max (the region truncation cannot corrupt within n_max powers).
    The window is a coordinate projection, built from its depth mask with
    no product and no factorisation (`coordinate_projection`).  The
    realisation is complex: an exact domain raises PreconditionError.
    """
    segs = space(e)
    finite_dims = [s[1] for s in segs if s[0] == "finite"]
    if finite_dims and n < 2 * max(finite_dims):
        raise TruncationTooSmallError(f"n={n} < twice the largest finite segment")
    if n <= n_max:
        raise TruncationTooSmallError(
            f"truncation {n} must exceed n_max {n_max} (--truncation > --nmax)")
    w = window if window is not None else n - n_max
    if w < 1 or w > n - n_max:
        raise TruncationTooSmallError(f"window {w} outside the trusted range 1..{n - n_max}")
    domain = domain or complex_domain()
    if domain.exact:
        raise PreconditionError(f"truncate realises expressions over the complex field, not {domain}")
    elem = Element(domain, _matrix(e, n))
    depth = np.concatenate([_coords(s, n)[2] for s in segs])
    return Truncation(element=elem, window=coordinate_projection(domain, depth < w), w=w, n=n)


@dataclass(frozen=True)
class GroundTruth:
    """Exact segment-indicator projections for a constructor expression."""

    labels: tuple  # one label per segment
    projections: dict  # label -> Projection


def _hw_labels(e: OperatorExpr) -> tuple:
    if isinstance(e, Unitary):
        return ("u",)
    if isinstance(e, (Shift, GridShift)):
        return ("s",)
    if isinstance(e, BackShift):
        return ("b",)
    if isinstance(e, Trunc):
        return ("t",)
    if isinstance(e, DirectSum):
        return sum((_hw_labels(t) for t in e.terms), ())
    if isinstance(e, Adjoint):
        swap = {"u": "u", "s": "b", "b": "s", "t": "t"}
        return tuple(swap[l] for l in _hw_labels(e.inner))
    if isinstance(e, Compose):
        lf, lg = _hw_labels(e.f), _hw_labels(e.g)
        if any(l in ("b", "t") for l in lf + lg):
            raise PreconditionError("composition ground truth only covers isometry segments")
        return tuple("u" if a == b == "u" else "s" for a, b in zip(lf, lg))
    raise PreconditionError(f"unknown expression node {e!r}")


def _indicator_truth(e: OperatorExpr, labels: tuple, label_set: tuple, n: int) -> GroundTruth:
    per_coord = np.repeat(labels, _sizes(e, n))
    dom = complex_domain()
    projections = {lbl: coordinate_projection(dom, per_coord == lbl) for lbl in label_set}
    return GroundTruth(labels=labels, projections=projections)


def ground_truth_wold(e: OperatorExpr, n: int) -> GroundTruth:
    """Exact Wold projections {u, s} as segment indicators (truncated layout)."""
    labels = _hw_labels(e)
    if not set(labels) <= {"u", "s"}:
        raise PreconditionError(f"not an isometry expression: its segments are {labels}")
    return _indicator_truth(e, labels, ("u", "s"), n)


def ground_truth_hw(e: OperatorExpr, n: int) -> GroundTruth:
    """Exact four-part projections {u, s, b, t} as segment indicators."""
    return _indicator_truth(e, _hw_labels(e), ("u", "s", "b", "t"), n)


_U2X2 = ((0.6 + 0.8j, 0), (0, -1))
_U2X2B = ((1j, 0), (0, 0.8 + 0.6j))


def pair_instances(name: str):
    """Documented catalog of commuting expression pairs."""
    catalog = {
        "grid": (GridShift(1), GridShift(2)),
        "equal-shift": (Shift(1), Shift(1)),
        "powers": (shift_power(2), shift_power(3)),
        "unitary-pair": (Unitary(_U2X2), Unitary(_U2X2B)),
        "mixed": (
            direct_sum(Unitary(_U2X2), Shift(1)),
            direct_sum(Unitary(_U2X2B), Shift(1)),
        ),
    }
    if name not in catalog:
        raise KeyError(f"unknown pair instance {name!r}; choose from {sorted(catalog)}")
    return catalog[name]


def embedding_indices(e: OperatorExpr, n_small: int, n_big: int):
    """Coordinate maps identifying the n_small layout inside the n_big one."""
    idx_big, at = [], 0
    for seg, size in zip(space(e), _sizes(e, n_big)):
        row, col, _ = _coords(seg, n_small)
        idx_big.append(at + row * n_big + col)
        at += size
    return np.arange(total_dim(e, n_small)), np.concatenate(idx_big)
