"""All decomposition algorithms, each emitting a report with certificates.

Infinite infima and series are replaced by stabilisation detection, and no
range chain ∧ₙ[xⁿ] is walked: every such infimum is Wold's identity or a
meet.  Nor is any range projection [yⁿ] taken of a power: for a power
partial isometry ker y*ⁿ is the first n blocks of y's wandering series
(Halmos & Wallen 1970), so the product-PPI constraint reads [x1ⁿ] and
[x2*ⁿ] off two series (`_series_prefixes`).  For an isometry the unitary
part ∧[xⁿ] equals 1 - s, s the wandering series Σ xⁿ[ker x*] (Wold's
identity), so `_wold_parts` takes u as the complement of the series' basis.
The series also grades the shift corner: p x p maps each block Bₖ into Bₖ₊₁
and the last block to 0, so it is nilpotent and ∧[(pxp)ⁿ] = 0; the
certificate measures what lies off that grading (`_grading_res`),
beside x being isometric on s.  A float matrix whose Frobenius norm is
below the rank cutoff takes no SVD, since σ₁ <= ‖·‖_F, and x*x and xx*
are formed at most once per operator, and in the float preconditions
not at all.

Each method call builds one context (`_Ctx`) and runs every fixpoint in
it; a method composed of others (`hw_pair_doubly`, `nfl_pair_doubly`,
`corollary_check`) runs their bodies (`_halmos_wallen`, `_nfl`,
`_slocinski`) in its own context.  The context reads one record per
operator, from one scan of its nonzeros (`subspaces.entries`): the
count, row and entry of each column and of each row.  On the shift model
every operator is a weighted partial map beside a small unitary block,
and the record says which columns are which.  It serves x* as well, with
its axes swapped (`_Ctx.star`), so x* is never scanned, and every
consumer takes the same single path: columns with at most one nonzero
are read off the record, and only crowded columns touch the dense
matrix.
- A product a x is gathered along x's one-nonzero columns (`_Ctx.mul`):
  such a column c·e_r maps to a[:, r]·c, the dense sum's one nonzero
  term, so only x's other columns take a GEMM; the commutators and
  Słociński's x1 x2 are formed so.
- The isometry block (x*x)[J, J] - 1 of the float precondition and of a
  masked corner is |c|² - 1 on a column c·e_r alone in its row, -1 on a
  zero column, and a thin Gram product of the other columns in J alone
  (`_gram_res`), with no x*x.
- The series' seed ker x* is one cokernel whose lone entries, the window
  rows' included, are peeled off the record (`subspaces.cokernel`): a
  truncated shift model's SVD is of its unitary blocks beside the shifts'
  zero boundary lines, and with no unitary block it takes none.
- On the shift model nearly every series step maps a coordinate vector to
  another along a one-nonzero column of x, so a float series of
  coordinate columns is walked along those columns (`_walk`), by
  pointer jumping on their successor map (Wyllie 1979) with no step per
  column.  It is walked whole or not at all: a series the walk cannot
  take to its end takes the dense steps from its seed, with no hand-over
  between the two.  A walked series is all lone unit columns at distinct rows, so it
  spans the coordinates of those rows.  It carries only its record, the
  rows, entries and block level of its columns (`_Series`): its
  projection is masked there, its complement is the other coordinates,
  and its grading is read off x's record in O(L), with no product or
  gather; its basis and blocks are formed only when read.
- x* is formed only where a dense product or a series of x* needs it.
  The co-isometry block (x x*)[J, J] - 1 reads x*'s record, x's swapped,
  and x's rows (`_gram_res`), and the reducing fixpoint's preimages under
  x* read x's columns, adjoint (`subspaces.preimage`).  So on the shift
  model `wold` forms no dim × dim complex array, `halmos_wallen` forms
  x* once, for its g series, and the pair methods form only the products
  of their commutator check and Słociński's x1 x2 (`_Ctx.mul`).

Commuting projections form a Boolean lattice, p ∧ q = pq, p ∨ q =
p + q - pq and 1 - p (Berberian 1972), and coordinate projections, sums
of diagonal units e_ii, all commute.  So a float coordinate projection
carries its 0/1 mask (`projections.masked`), and its products, meets,
joins, complement and basis residuals are index operations on it; even
its size check reads the mask's length, with no dense element formed.  Its
certificates are read off index blocks of x with the same windowed
Frobenius norms as the dense defects: x p - p x is the entries x_ij with
m_i ≠ m_j, (1 - p) x p those from the mask to outside it, and
p x*x p - p is (x*x)[J, J] - 1 for J the mask ∧ the window, read off x's
record (`_commute_res`, `_invariance_res`, `_isometry_res`); each mask's
window coordinates are split once per call (`_Ctx.split`).  pq of two
masked projections is their AND, a projection exactly.  Every Wold part, Halmos–Wallen part,
Słociński seed and their fixpoints on the shift model are masked.

The pair methods read their infima off the Wold parts of x1 and x2
(Słociński 1980; Popovici 2004).  A Słociński block p <= s_x that
commutes with x has (pxp)ⁿ = p (s_x x s_x)ⁿ p, so it is certified by x
being isometric on p and commuting with it, beside x commuting with s_x
and s_x's grading, both measured once per operator.  Weak bi-shift's
p_uu = ∧[(x1 x2)ⁿ] is the reducing fixpoint of u1 ∧ u2, as p_us and p_su
are of u1 ∧ s2 and s1 ∧ u2: the unitary part of x1 x2 reduces both
isometries and makes both unitary, and conversely.  Its m_us =
∧ₙ x1ⁿ W_us is the meet W_us ∧ u1, since x1* maps W_us ∩ u1 into itself
(x2* x1* = x1* x2*), and likewise m_su = W_su ∧ u2.  Its p_ws =
1 - p_uu - p_us - p_su is the complement of the join p_uu ∨ p_us ∨ p_su
in every domain: NOT(m_uu ∨ m_us ∨ m_su) with no arithmetic when the
three are masked, and one kernel of the join's B* otherwise, with no SVD
of the dense sum.

The reducing fixpoints, the weak bi-shift wandering subspaces and the NFL
unitary part are one lattice operation, the largest projection below some
e whose range the given matrices map into itself (`_invariant_core`): the
operators and their adjoints below e, a below ker b* (b's peeled
cokernel), and x, x* below ker(1 - x*x) ∧ ker(1 - xx*).  Each sweep is one
preimage kernel per matrix inside what is left, and one repeated rank, or
rank 0 or dim, marks the fixpoint.  At rank 0 or dim, 1 - p is the
identity or 0, so p is returned with no sweep, as Słociński's ss seed is
on the grid pair, where it is the whole space.  The wandering series
ends when its term vanishes; a float step or final join whose Gram
matrix is within dim·ε of the identity is its own orthonormal basis and
takes no SVD, and a walked series, whose Gram matrix is diagonal, is
tested once as ‖|c|² - 1‖ <= dim·ε on all its entries c.
Each checked identity is one defect built on `Projection.product`:
x p - p x, (1 - p) x p, p x*x p - p, pq (`pair_product`) and pq being a
projection (`projection_defects`); conditions test it with ctx.ok and
certificates measure it with ctx.wres, or a masked projection's index
blocks against the same tolerance.  A projection that is not masked,
exact or float, multiplies as its dense element.  The float PPI
precondition splits x into its connected components, each a reducing
subspace (join i and j where x_ij ≠ 0): on a monomial component, at most
one nonzero in every row and column, each power is a partial map with
distinct rows and its defect is read in closed form with no power formed,
and only the other components take xⁿ (xⁿ)* xⁿ - xⁿ, on the window's rows
and columns alone; on the shift model that is the unitary block.  The
iteration cap is max(n_max, dim + 1), and a series or core still moving
at the cap raises IndeterminateError instead of silently truncating.
Certificate residuals are measured after compression to the probe window
when the input came from a truncated symbolic operator; a grading residual
is read on the whole space, which can only be stricter.  The window is a 0/1
diagonal, so the compression w e w is the entrywise product of e with the
mask w wᵀ, which is exact.

Every intersection of kernels is one right annihilator R(S), one kernel of
the elements of S stacked (`right_annihilator_projection`): the start
R({1 - x*x, 1 - xx*}), the doubly-commuting seed and the product-PPI
constraint.  A complement 1 - p is ker B* for B the range basis of p
(`Projection.complement`), one kernel of the thin B* in every domain,
with no kernel of the dense p.

Two constructions are shared.  Halmos–Wallen and the product-PPI split are
one series split (`_series_split`), applied to y = x and to y = x1 x2: the
wandering series f = Σ yⁿ(ker y* ∩ W) and g = Σ y*ⁿ(ker y ∩ W) seeded in
the probe window W (the whole space when there is none) give t = f ∧ g,
s = f ∧ (1 - t), b = g ∧ (1 - t) and u = 1 - (f ∨ g), the wandering-
subspace form of the Halmos–Wallen parts.  The seeds stay in the window
because a truncated shift and its adjoint are both nilpotent: each kills
the boundary vector at the end of its tail, and a series seeded there
would run back over the whole tail and put it in t, as the range chains
of y and y* did.  f and g are met as bases, and neither projection is
formed unless it is returned as s or b; when both series are walked the
four parts are the coordinate sets F ∩ G, F ∖ G, G ∖ F and the rest of
their rows F and G, masked.  The corners s and b are
certified by x (or x*) being isometric on them and by the gradings of f
and g, t by f's grading, with no range chain, power or dense projection
difference.
The doubly-commuting pair methods for PPIs and for contractions share one
product basis (`_product_basis`) of meets of the two single-operator
splits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import subspaces
from .domains import ScalarDomain
from .elements import Element, identity
from .errors import (
    AxiomViolationError,
    IndeterminateError,
    InternalInconsistencyError,
    PreconditionError,
)
from .projections import (
    Projection,
    ProjectionBasis,
    from_basis,
    identity_projection,
    left_projection,
    masked,
    pair_product,
    proj_inf,
    proj_leq,
    proj_sup,
    projection_defects,
    right_annihilator_projection,
    zero_projection,
)


@dataclass(frozen=True)
class EngineConfig:
    """n_max: the power horizon of the certificates and the least
    iteration cap (see `_Ctx`).
    window: the probe window, a 0/1 diagonal projection on the operator's
    space (as `shiftmodel.truncate` builds it); a method given any other
    window raises PreconditionError."""

    n_max: int = 16
    window: Projection | None = None

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")


@dataclass
class DecompositionReport:
    method: str
    basis: ProjectionBasis | None
    block_classes: dict
    certificates: dict
    condition_vector: tuple | None = None
    holds: bool | None = None
    extras: dict = field(default_factory=dict)

    def max_residual(self) -> float:
        return max(self.certificates.values(), default=0.0)


class _Ctx:
    """Shared state of one method call: domain, window mask and the
    window's coordinates (keep), chain cap, the EngineConfig (the default
    one when a method is given none), the Gram products, and what is read
    once per operator or mask: each operator's adjoint, its record
    (`subspaces.entries`) and component labels, and each mask's split of
    the window.  A method builds one and hands it to every fixpoint it
    runs, so the window is checked once per call, with vectorised
    comparisons of its diagonal, or none for a masked window, whose element
    is its mask's diagonal by construction and whose size is read off its
    mask.  Nothing in it outlives the call."""

    def __init__(self, x: Element, cfg: EngineConfig | None = None):
        self.domain = x.domain
        self.dim = x.dim
        self.cfg = cfg if cfg is not None else EngineConfig()
        self.cap = max(self.cfg.n_max, self.dim + 1)
        self.tol = self.domain.residual_tol(self.dim)
        self.mask = None
        self.keep = None
        self._grams = {}
        self._read = {}
        self._adjoint_of = {}
        window = self.cfg.window
        if window is not None:
            x._check(window)
            self.keep = window.mask  # a masked window is float and 0/1 by construction
            if self.keep is None:
                mat = window.element.mat
                diag = np.diagonal(mat)
                self.keep = diag == 1
                if not (np.array_equal(mat, np.diag(diag)) and (self.keep | (diag == 0)).all()):
                    raise PreconditionError("the probe window must be a 0/1 diagonal projection")
            # a float window masks with booleans: x·1 and x·0 are the
            # products with the complex diagonal's 1 and 0, bit for bit
            self.mask = np.outer(diag, diag) if self.domain.exact else np.outer(self.keep, self.keep)

    @cached_property
    def one(self) -> Element:
        return identity(self.domain, self.dim)

    @cached_property
    def window_coords(self) -> np.ndarray:
        """The window's coordinates, every coordinate with no window."""
        return np.arange(self.dim) if self.keep is None else np.flatnonzero(self.keep)

    def compress(self, e: Element) -> Element:
        """w e w for the window w, as the entrywise product with the mask."""
        if self.mask is None:
            return e
        return Element(self.domain, e.mat * self.mask)

    def gram(self, x: Element, star: bool = False) -> Element:
        """x* x, or x x* with star, formed once per operator.  Each entry
        holds x itself, so x's id cannot pass to another operator."""
        key = (id(x), star)
        if key not in self._grams:
            self._grams[key] = (x, x @ self.star(x) if star else self.mul(self.star(x), x))
        return self._grams[key][1]

    def _held(self, obj, what: str, read) -> object:
        """read(), read once per operator or mask and held with obj, as in
        `gram`; only obj and the result are kept, so the context holds no
        reference to itself and is freed with the call."""
        key = (id(obj), what)
        if key not in self._read:
            self._read[key] = (obj, read())
        return self._read[key][1]

    def star(self, x: Element) -> Element:
        """x*, formed once per operator; its record is x's, read off with
        the axes swapped (`entries`)."""
        adjoint = self._held(x, "star", x.star)
        self._adjoint_of[id(adjoint)] = x
        return adjoint

    def entries(self, x: Element, star: bool = False) -> subspaces.Entries:
        """The record of the operator x (`subspaces.entries`), from one scan
        of x, or with star the record of x*, x's with the axes swapped,
        with no x* formed or scanned; an adjoint that `star` formed reads
        its operator's so."""
        if star:
            return self._held(x, "star entries",
                              lambda: self.entries(x).star(conjugate=not self.domain.exact))
        of = self._adjoint_of.get(id(x))
        if of is not None:
            return self.entries(of, star=True)
        return self._held(x, "entries", lambda: subspaces.entries(x.mat))

    def labels(self, x: Element) -> np.ndarray:
        """`subspaces.component_labels` of the operator x."""
        return self._held(x, "labels", lambda: subspaces.component_labels(self.entries(x)))

    def mul(self, a: Element, x: Element) -> Element:
        """a x, gathered along x's one-nonzero columns.

        Column j of x that is c·e_r maps to a[:, r]·c: the dense product's
        sum for it has that one nonzero term, so the column is the same, bit
        for bit where c is real (a complex c can round its one product
        differently from BLAS).  A zero column of x has c = 0
        (`subspaces.entries`) and gives a zero column; the other columns
        take a dense product."""
        a._check(x)
        e = self.entries(x)
        out = a.mat[:, e.rows] * e.vals
        dense = e.counts > 1
        if dense.any():
            out[:, dense] = a.mat @ x.mat[:, dense]
        return Element(self.domain, self.domain.normalize(out))

    def split(self, mask: np.ndarray) -> tuple:
        """The window's coordinates in the mask and outside it, held per
        mask (masks are read-only)."""
        keep = np.ones_like(mask) if self.keep is None else self.keep
        return self._held(mask, "split", lambda: (np.flatnonzero(mask & keep),
                                                  np.flatnonzero(keep & ~mask)))

    def wres(self, e: Element) -> float:
        return self.compress(e).norm()

    def ok(self, e: Element) -> bool:
        return self.compress(e).is_zero()

    def commute_ok(self, a: Element, b: Element) -> bool:
        return self.ok(self.mul(a, b) - self.mul(b, a))


def _cokernel(ctx: _Ctx, y: Element, window: bool = False) -> np.ndarray:
    """Basis of ker y*, or with window of ker y* ∩ W for W the probe
    window (the whole space when there is none), peeled off y's record
    (`subspaces.cokernel`): the float basis is left singular vectors of
    y's window rows, not a kernel of y*, whose roundoff tail the series
    would carry into subnormal blocks."""
    record = None if ctx.domain.exact else ctx.entries(y)
    return subspaces.cokernel(ctx.domain, y.mat, record, ctx.keep if window else None)


class _Series:
    """A wandering series: a basis of its sum, its blocks B₀, B₁, …, where
    Bₖ₊₁ is a basis of x Bₖ, and its record, None unless it was walked.

    A walked series (`_walk`) holds its record alone: the rows, entries and
    block levels of its columns vals_k e_(rows_k).  Its basis, those
    columns side by side, and its blocks, their slices by level, are
    formed only when read, with the bits an eager build gives, so a call
    that reads its projection, grading and split off the record forms no
    dim × L array."""

    def __init__(self, basis: np.ndarray | None, blocks: list | None,
                 record: tuple | None = None, dim: int = 0):
        self.record, self.dim = record, dim
        if record is None:  # set here, so the properties below are not read
            self.basis, self.blocks = basis, blocks

    @cached_property
    def basis(self) -> np.ndarray:
        rows, vals, _ = self.record
        basis = np.zeros((self.dim, rows.size), dtype=complex)
        basis[rows, np.arange(rows.size)] = vals
        return basis

    @cached_property
    def blocks(self) -> list:
        edges = [0, *np.cumsum(np.bincount(self.record[2])).tolist()]
        return [self.basis[:, a:b] for a, b in zip(edges, edges[1:])]


def _wandering_series(ctx: _Ctx, x: Element, term: np.ndarray) -> _Series:
    """The stabilised orthogonal series sum of [x^n (1 - [x])], from a
    basis term of the range of 1 - [x] (`_Series`): a basis of the sum and
    its blocks B₀, B₁, …, where Bₖ₊₁ is a basis of x Bₖ and the last
    block's image has rank 0.

    A float series whose seed is coordinate columns c·e_j is walked whole
    or not at all.  Walked to its end (`_walk`), it is lone unit columns at
    distinct rows, its own orthonormal basis, and carries only its record,
    the rows, entries and block levels of its columns, so that its
    projection, its grading and the series split are read off it as
    coordinates.  Any other series, and every exact one, takes the dense
    steps from its seed, with record None.  An isometry maps an
    orthonormal block to an orthonormal block, and the blocks are mutually
    orthogonal, so each float step x term and the final join are their own
    bases (`subspaces.own_basis`) unless roundoff or the truncation
    boundary has moved them off; only those take an SVD."""
    dom = ctx.domain
    if not dom.exact and term.shape[1]:
        counts, rows, vals = subspaces.column_entries(term)
        record = _walk(ctx, x, rows, vals) if (counts == 1).all() else None
        if record is not None:
            return _Series(None, None, record, ctx.dim)
    pieces = []
    for _ in range(ctx.cap + 1):
        if term.shape[1] == 0:
            joined = np.concatenate(pieces, axis=1) if pieces else dom.zeros(ctx.dim, 0)
            return _Series(subspaces.own_basis(dom, joined), pieces)
        pieces.append(term)
        term = subspaces.own_basis(dom, x.mat @ term)
    raise IndeterminateError("wandering series did not terminate within the cap")


def _walk(ctx: _Ctx, x: Element, rows: np.ndarray, vals: np.ndarray) -> tuple | None:
    """The record (rows, vals, level) of the float series from the seed
    vals_k e_(rows_k) walked to its end: its columns are vals_k e_(rows_k)
    in blocks numbered by level.  None where the dense steps would not
    keep the walked blocks as they are: a walked column of x has more than
    one nonzero, a row repeats anywhere in the series, or the entries fail
    `_orthonormal`'s predicate (`subspaces.unit_moduli`).

    Where column j of x has one nonzero x_ij, x maps c·e_j to c·x_ij·e_i,
    and where it has none, to 0, which is dropped.  So each coordinate's
    successor is the row of its column's one nonzero, an end slot past the
    last coordinate for a zero column, or a crowded slot for a column of
    more than one, read off x's record; both slots are their own
    successors.  Pointer jumping (Wyllie 1979) squares the successor map
    and lays out the chain from each seed twice as deep per round, one row
    of coordinates per seed, until every chain has reached a slot or the
    horizon of min(cap, dim) + 1 blocks, with no step per column.  Block
    by block, those coordinates are the series' rows: one that repeats or
    has a crowded column ends the walk with None, as the stepped loop does
    at its block, and a chain still going at the horizon raises at the cap
    where the dense steps do (a longer chain without a repeated row cannot
    exist).  The entries are the products along each chain in order
    (`np.multiply.accumulate`), the stepped loop's own products."""
    e = ctx.entries(x)
    n = ctx.dim
    succ = np.append(np.where(e.counts == 1, e.rows, n + (e.counts > 1)), [n, n + 1])
    horizon = min(ctx.cap, n) + 1
    chains = rows[:, None]
    while chains.shape[1] < horizon and chains[:, -1].min() < n:
        chains = np.concatenate([chains, succ[chains]], axis=1)
        succ = succ[succ]
    chains = chains[:, :horizon]
    alive = chains < n
    walked = chains.T[alive.T]
    if (np.bincount(walked, minlength=n) > 1).any() or (e.counts[walked] > 1).any():
        return None
    if alive[:, -1].any():
        raise IndeterminateError("wandering series did not terminate within the cap")
    factors = np.append(e.vals, np.ones(2, dtype=e.vals.dtype))[chains[:, :-1]]
    products = np.multiply.accumulate(np.concatenate([vals[:, None], factors], axis=1), axis=1)
    entries = products.T[alive.T]
    if not subspaces.unit_moduli(entries, n):
        return None
    return walked, entries, np.repeat(np.arange(alive.shape[1]), alive.sum(axis=0))


def _invariant_core(ctx: _Ctx, mats: list, p: Projection, what: str) -> Projection:
    """Largest projection <= p whose range every listed matrix maps into
    itself, each given as (mat, star) for mat or, with star, its adjoint,
    which is never formed (`subspaces.preimage`).

    Subspace iteration M <- M ∩ (∩_a a^{-1} M); the rank falls by at least
    one per sweep until the fixpoint, so a repeated rank, or rank 0 or dim,
    marks it: at rank 0 and dim, 1 - [M] is the identity or 0, every
    matrix maps M into itself, and p is returned as it is with no product
    or kernel.  Each sweep forms 1 - [M] once, or for a masked M takes the
    rows outside the mask, and meets one matrix's preimage at a time, as
    one kernel inside the part of M kept so far.  A core still moving
    after ctx.cap sweeps raises IndeterminateError.
    """
    for _ in range(ctx.cap):
        if p.rank in (0, ctx.dim):
            return p
        comp = ~p.mask if p.mask is not None else (ctx.one - p.element).mat
        nxt = p.range_basis
        for m, star in mats:
            nxt = subspaces.preimage(ctx.domain, m, comp, nxt, star)
        if nxt.shape[1] == p.rank:
            return p
        p = from_basis(ctx.domain, nxt)
    raise IndeterminateError(f"{what} did not stabilise within the cap")


def _reducing_fixpoint(ctx: _Ctx, ops: list, e: Projection) -> Projection:
    mats = [(a.mat, star) for star in (False, True) for a in ops]
    return _invariant_core(ctx, mats, e, "reducing fixpoint")


def reducing_fixpoint(ops: list, e: Projection, cfg: EngineConfig | None = None) -> Projection:
    """Largest projection <= e commuting with every listed operator: the
    invariant core of e under the operators and their adjoints.  The pair
    methods run it in their own context (`_reducing_fixpoint`); an e of
    rank 0 or dim is returned as it is."""
    return _reducing_fixpoint(_Ctx(e.element, cfg), ops, e)


def _require(cond: bool, message: str):
    if not cond:
        raise PreconditionError(message)


def _isometry_on_window(ctx: _Ctx, x: Element) -> bool:
    """x* x = 1 on the window; for floats ‖(x* x)[K, K] - 1‖ within the
    tolerance, K the window's coordinates, read off x's record with no
    Gram product (`_gram_res`)."""
    if ctx.domain.exact:
        return ctx.ok(_isometry_defect(ctx, x))
    return _gram_res(ctx, x, ctx.window_coords) <= ctx.tol


def _gram_res(ctx: _Ctx, x: Element, idx: np.ndarray, star: bool = False) -> float:
    """‖(x* x)[idx, idx] - 1‖, or ‖(x x*)[idx, idx] - 1‖ with star, read off
    the record of x (of x* with star, x's swapped, so x* is not formed).

    A column c·e_r that is the only nonzero of its row r is orthogonal to
    every other column, so its row and column of x* x hold |c|² on the
    diagonal alone, and those of a zero column are 0: they add (|c|² - 1)²
    and 1 to the square.  Only the other columns in idx take a thin Gram
    product, among themselves; with star those columns of x* are x's rows,
    conjugated."""
    e = ctx.entries(x, star)
    counts = e.counts[idx]
    lone = (counts == 1) & (e.row_counts[e.rows[idx]] == 1)
    c = e.vals[idx[lone]]
    defect = c.real ** 2 + c.imag ** 2 - 1
    square = np.dot(defect, defect) + np.count_nonzero(counts == 0)
    rest = idx[~lone & (counts > 0)]
    if rest.size:
        part = x.mat[rest].conj().T if star else x.mat[:, rest]
        g = part.conj().T @ part
        g.flat[:: rest.size + 1] -= 1
        square += np.vdot(g, g).real
    return float(np.sqrt(square))


def _ppi_on_window(ctx: _Ctx, x: Element) -> bool:
    """xⁿ (xⁿ)* xⁿ = xⁿ on the window for n <= min(n_max, dim).

    Exact inputs take the dense defect.  A float x is the direct sum of
    its components (`_Ctx.labels`), so xⁿ and the windowed defect
    w (P P* P - P) w, P = xⁿ, split over them: each n tests the Frobenius
    norm of both parts together against eps_eq·dim, as the dense defect
    is tested.  A component whose rows and columns each hold at most one
    nonzero is monomial, and is read in closed form with no power formed
    (`_monomial_ppi_defects`).  The other components D take the windowed
    defect on x[D, D]: with window coordinates k (every coordinate with
    no window), (P[k] P*) P[:, k] - P[k, k], formed from the window rows
    and columns of P alone, each power gathered along x's one-nonzero
    columns."""
    top = min(ctx.cfg.n_max, ctx.dim)
    if ctx.domain.exact:
        pw = x
        for n in range(top):
            if n:
                pw = ctx.mul(pw, x)
            if not ctx.ok(pw @ pw.star() @ pw - pw):
                return False
        return True
    e = ctx.entries(x)
    labels = ctx.labels(x)
    crowded = (e.counts > 1) | (e.row_counts > 1)
    flagged = np.zeros(ctx.dim, dtype=bool)
    flagged[labels[crowded]] = True
    dense = flagged[labels]
    keep = np.ones(ctx.dim, dtype=bool) if ctx.keep is None else ctx.keep
    defects = _monomial_ppi_defects(ctx, x, ~dense, keep, top)
    tol = ctx.domain.residual_tol(ctx.dim)
    if not dense.any():
        return bool((np.sqrt(defects) <= tol).all())
    idx = np.flatnonzero(dense)
    k = keep[idx]
    xd = Element(ctx.domain, x.mat[np.ix_(idx, idx)])
    pw = xd
    for n in range(top):
        if n:
            pw = ctx.mul(pw, xd)
        p = pw.mat
        rows = p[k]
        part = ctx.domain.norm((rows @ p.conj().T) @ p[:, k] - rows[:, k])
        if not np.sqrt(defects[n] + part * part) <= tol:
            return False
    return True


def _monomial_ppi_defects(ctx: _Ctx, x: Element, mono: np.ndarray, keep: np.ndarray,
                          top: int) -> np.ndarray:
    """‖w (P P* P - P) w‖² for P = xⁿ on the monomial coordinates, n = 1
    … top, w the 0/1 diagonal keep.

    There column j of x is c_j e_(r_j), or zero, and no two share a row,
    so P is a partial map with distinct rows: its column j is p_j e_(r_j)
    with r_j and p_j followed along x's columns n times, so
    P* P = diag(|p_j|²) and the defect's column j is
    p_j (|p_j|² - 1) e_(r_j).  Its windowed square norm is the sum of
    |p_j|² (|p_j|² - 1)² over window columns j whose row r_j is in the
    window: index gathers only, with no product.  A zero column maps to a
    sink slot past the last coordinate, whose factor 0 keeps it zero."""
    e = ctx.entries(x)
    sink = ctx.dim
    nxt = np.append(np.where(e.counts > 0, e.rows, sink), sink)
    fac = np.append(e.vals, 0)
    inside = np.append(keep, False)
    cols = np.flatnonzero(mono)
    r, p = cols, np.ones(cols.size, dtype=fac.dtype)
    rs, ps = [], []
    for _ in range(top):
        p = p * fac[r]
        r = nxt[r]
        rs.append(r)
        ps.append(p)
    a2 = np.abs(np.array(ps)) ** 2
    return np.where(inside[np.array(rs)] & keep[cols], a2 * (a2 - 1) ** 2, 0).sum(axis=1)


def _isometry_defect(ctx: _Ctx, x: Element, p: Projection | None = None,
                     star: bool = False) -> Element:
    """p x* x p - p: x is an isometry on the corner p (x* is, p x x* p - p,
    with star); x* x - 1 with no corner.

    The compression form p x* p x p - p differs from it by
    p x* (1 - p) x p = D* D, with D the invariance defect (1 - p) x p, so
    beside an invariance certificate the two are equally strict."""
    gram = ctx.gram(x, star)
    return gram - ctx.one if p is None else p.product(gram) - p.element


def _invariance_defect(x: Element, p: Projection) -> Element:
    """(1 - p) x p: the range of p is x-invariant."""
    xp = p.product(x, "right")
    return xp - p.product(xp, "left")


def _commute_defect(x: Element, p: Projection) -> Element:
    """x p - p x."""
    return p.product(x, "right") - p.product(x, "left")


def _isometry_res(ctx: _Ctx, x: Element, p: Projection, star: bool = False) -> float:
    """‖w (p x* x p - p) w‖ for the window w.  For a masked p it is
    ‖(x* x)[J, J] - 1‖ (x x* with star), J the window's coordinates in the
    mask, read off x's record and x's columns (rows with star) in J
    alone (`_gram_res`)."""
    if p.mask is None:
        return ctx.wres(_isometry_defect(ctx, x, p, star))
    return _gram_res(ctx, x, ctx.split(p.mask)[0], star)


def _off_mask_res(ctx: _Ctx, x: Element, mask: np.ndarray, both: bool) -> float:
    """‖w (1 - p) x p w‖, or with both ‖w (x p - p x) w‖, for the masked
    p = diag(mask): the entries x_ij from the window's coordinates j in the
    mask to those i outside it, and with both back, where x p - p x is
    x_ij (m_j - m_i)."""
    inside, outside = ctx.split(mask)
    res = np.linalg.norm(x.mat[outside[:, None], inside])
    if both:
        res = np.hypot(res, np.linalg.norm(x.mat[inside[:, None], outside]))
    return float(res)


def _commute_res(ctx: _Ctx, x: Element, p: Projection) -> float:
    if p.mask is not None:
        return _off_mask_res(ctx, x, p.mask, both=True)
    return ctx.wres(_commute_defect(x, p))


def _invariance_res(ctx: _Ctx, x: Element, p: Projection) -> float:
    if p.mask is not None:
        return _off_mask_res(ctx, x, p.mask, both=False)
    return ctx.wres(_invariance_defect(x, p))


def _sum_res(ctx: _Ctx, parts: list) -> float:
    """‖w (Σ p - 1) w‖; for masked parts the diagonal of how many masks
    hold each window coordinate, less one."""
    masks = [p.mask for p in parts]
    if any(m is None for m in masks):
        return ctx.wres(sum((p.element for p in parts[1:]), parts[0].element) - ctx.one)
    cover = np.sum(masks, axis=0) - 1
    if ctx.keep is not None:
        cover = cover[ctx.keep]
    return float(np.sqrt(np.dot(cover, cover)))


def _mask_res(ctx: _Ctx, mask: np.ndarray) -> float:
    """‖w diag(mask) w‖: the square root of the number of window
    coordinates in the mask."""
    return float(np.sqrt(np.count_nonzero(mask if ctx.keep is None else mask & ctx.keep)))


def _orth_res(ctx: _Ctx, p: Projection, q: Projection) -> float:
    """‖w pq w‖; for masked p and q, pq is the AND of their masks."""
    if p.mask is None or q.mask is None:
        return ctx.wres(pair_product(p, q))
    return _mask_res(ctx, p.mask & q.mask)


def _commutes(ctx: _Ctx, x: Element, p: Projection) -> bool:
    """x p = p x on the window: the exact zero test when exact, the
    residual within the tolerance (what ctx.ok tests) for floats."""
    if ctx.domain.exact:
        return ctx.ok(_commute_defect(x, p))
    return _commute_res(ctx, x, p) <= ctx.tol


def _invariant(ctx: _Ctx, x: Element, p: Projection) -> bool:
    """(1 - p) x p = 0 on the window, tested as `_commutes` is."""
    if ctx.domain.exact:
        return ctx.ok(_invariance_defect(x, p))
    return _invariance_res(ctx, x, p) <= ctx.tol


def _corner_unitary_res(ctx: _Ctx, x: Element, p: Projection) -> float:
    return max(_isometry_res(ctx, x, p), _isometry_res(ctx, x, p, star=True))


def _grading_res(ctx: _Ctx, x: Element, series: _Series) -> float:
    """Residual of the grading of the corner p x p by the blocks B₀, …, B_L
    of a series (`_wandering_series`), which side by side span the range
    of p.

    If p x p maps each Bₖ into Bₖ₊₁ and B_L to 0, then (p x p)^(L+1) = 0,
    so ∧[(pxp)ⁿ] = 0 with no power formed.  In the coordinates G of
    p x p on the blocks (G = B*(x B) for an orthonormal float B) the
    grading is G's block subdiagonal; the residual is what lies off it,
    the images p x Bₖ outside Bₖ₊₁ and p x B_L.  Only the thin products
    x B and B*(x B) are formed.  A series walked to its end carries its
    record, its columns c_k e_(r_k) at distinct rows, so G is gathered
    instead: x B = x[:, r] c and G = conj(c) (x B)[r, :], the same full
    matrix with no product, since every term a GEMM would add is a
    product with an exact zero.  The grading comes from x's own action
    wherever the series ran, so the residual is read on the whole space.
    Those entries are read off x's record (`_Ctx.entries`): the column at
    a series row r_b that is c·e_t has its one entry at the series row t,
    if t is one, and only columns of more than one nonzero are gathered
    from x, so a walked series, whose columns of x have at most one,
    reads O(L) entries with no gather, and neither its basis nor its
    blocks are formed.
    """
    if series.record is None:
        blocks = series.blocks
        if not blocks:
            return 0.0
        level = np.repeat(np.arange(len(blocks)), [b.shape[1] for b in blocks])
        joined = np.concatenate(blocks, axis=1)
        g = subspaces.coordinates(ctx.domain, joined, x.mat @ joined,
                                  orthonormal=np.array_equal(joined, series.basis))
        g[level[:, None] == level[None, :] + 1] = ctx.domain.zero()
        return ctx.domain.norm(g)
    rows, vals, level = series.record
    e = ctx.entries(x)
    at = np.full(ctx.dim, -1)
    at[rows] = np.arange(rows.size)
    counts = e.counts[rows]
    one = np.flatnonzero(counts == 1)
    into = at[e.rows[rows[one]]]
    b, a = one[into >= 0], into[into >= 0]
    off = (e.vals[rows[b]] * vals[b] * vals[a].conj())[level[a] != level[b] + 1]
    crowded = np.flatnonzero(counts > 1)
    g = x.mat[rows[:, None], rows[crowded]] * vals[crowded] * vals.conj()[:, None]
    g[level[:, None] == level[crowded] + 1] = 0
    return float(np.hypot(np.linalg.norm(off), np.linalg.norm(g)))


# ---------------------------------------------------------------- Wold


def _wold_parts(ctx: _Ctx, x: Element):
    """The unitary part, the shift part and the shift part's series
    (`_wandering_series`).

    The shift part is the wandering series Σ xⁿ[ker x*] from one cokernel
    of x (`subspaces.cokernel`).  By Wold's identity u = ∧[xⁿ] = 1 - s, the
    unitary part is its complement, taken from the series' own basis
    (`Projection.complement`) with no range chain.  A series walked to its
    end spans the coordinates of its record's rows, so s is masked there,
    read off the record with no scan of the basis, which is formed only
    when s's range basis is read, and u is the other coordinates."""
    dom = ctx.domain
    series = _wandering_series(ctx, x, _cokernel(ctx, x))
    p_s = (from_basis(dom, series.basis) if series.record is None
           else masked(dom, _rows_mask(ctx, series.record[0]), lambda: series.basis))
    return p_s.complement(), p_s, series


def _rows_mask(ctx: _Ctx, rows: np.ndarray) -> np.ndarray:
    mask = np.zeros(ctx.dim, dtype=bool)
    mask[rows] = True
    return mask


def wold(x: Element, cfg: EngineConfig | None = None) -> DecompositionReport:
    """Split an isometry into its unitary and unilateral-shift parts.

    u = 1 - s holds by construction, so `sum_to_one` and `orth` read
    roundoff only; the evidence is `unitary_corner`, the commutation
    certificates and `shift_corner`: x is isometric on s, and the series'
    grading proves the corner nilpotent (`_grading_res`)."""
    ctx = _Ctx(x, cfg)
    _require(_isometry_on_window(ctx, x), "wold requires an isometry (on the probe window)")
    p_u, p_s, series = _wold_parts(ctx, x)
    certificates = {
        "sum_to_one": _sum_res(ctx, [p_u, p_s]),
        "orth": _orth_res(ctx, p_u, p_s),
        "commute_u": _commute_res(ctx, x, p_u),
        "commute_s": _commute_res(ctx, x, p_s),
        "unitary_corner": _corner_unitary_res(ctx, x, p_u),
        "shift_corner": max(_isometry_res(ctx, x, p_s),
                             _grading_res(ctx, x, series)),
    }
    return DecompositionReport(
        method="wold",
        basis=ProjectionBasis((("u", p_u), ("s", p_s))),
        block_classes={"u": "unitary", "s": "unilateral-shift"},
        certificates=certificates,
    )


# ---------------------------------------------------- Slocinski pairs


def slocinski(x1: Element, x2: Element, cfg: EngineConfig | None = None) -> DecompositionReport:
    """Evaluate the six equivalent fourfold-decomposition conditions.

    All six are computed independently (c3 and c5 share the value of
    their common first clause); disagreement is a hard internal error.
    When they hold, the emitted basis is {p_uu, p_us, p_su, p_ss} with
    per-coordinate block certificates.
    """
    return _slocinski(_Ctx(x1, cfg), x1, x2)


def _slocinski(ctx: _Ctx, x1: Element, x2: Element) -> DecompositionReport:
    _require(_isometry_on_window(ctx, x1) and _isometry_on_window(ctx, x2),
             "slocinski requires two isometries")
    _require(ctx.commute_ok(x1, x2), "slocinski requires a commuting pair")
    pu1, ps1, series1 = _wold_parts(ctx, x1)
    pu2, ps2, series2 = _wold_parts(ctx, x2)
    parts1 = {"u": pu1, "s": ps1}
    parts2 = {"u": pu2, "s": ps2}

    seeds = {a + b: proj_inf([parts1[a], parts2[b]]) for a in "us" for b in "us"}
    fixpoints = {k: _reducing_fixpoint(ctx, [x1, x2], seed) for k, seed in seeds.items()}

    if ctx.domain.exact:
        total = sum((fixpoints[k].element for k in ("us", "su", "ss")), fixpoints["uu"].element)
        c1 = ctx.ok(total - ctx.one)
    else:
        c1 = _sum_res(ctx, list(fixpoints.values())) <= ctx.tol

    c2 = all(_product_is_fixpoint(ctx, parts1[a], parts2[b], fixpoints[a + b])
             for a in "us" for b in "us")

    # x1 commutes with x2's parts: the first clause of both c3 and c5
    x1_commutes = all(_commutes(ctx, x1, parts2[a]) for a in "us")
    c3 = x1_commutes and all(_commutes(ctx, x2, parts1[a]) for a in "us")
    c4 = _invariant(ctx, x2, ps1) and _invariant(ctx, x1, ps2)
    c5 = x1_commutes and (_commutes_with_product(ctx, x2, pu1, ps2)
                          or _commutes_with_product(ctx, x2, ps1, ps2))
    x12 = ctx.mul(x1, x2)
    c6 = _invariant(ctx, x12, ps1) and _invariant(ctx, x12, ps2)

    vector = (c1, c2, c3, c4, c5, c6)
    if len(set(vector)) != 1:
        raise InternalInconsistencyError(f"six-condition disagreement: {vector}")
    holds = vector[0]

    if not holds:
        return DecompositionReport(
            method="slocinski", basis=None, block_classes={}, certificates={},
            condition_vector=vector, holds=False,
        )

    # a shift block p <= s_x that commutes with x has (pxp)ⁿ = p (s_x x s_x)ⁿ p,
    # so x commuting with s_x and s_x's grading, once per operator, make it
    # nilpotent beside x being isometric on p and commuting with it
    graded1, graded2 = (max(_commute_res(ctx, x, ps), _grading_res(ctx, x, series))
                        if ps.rank else 0.0
                        for x, ps, series in ((x1, ps1, series1), (x2, ps2, series2)))
    members = []
    block_classes = {}
    certificates = {}
    for a in "us":
        for b in "us":
            label = a + b
            p = seeds[label]
            members.append((label, p))
            block_classes[label] = {"x1": "unitary" if a == "u" else "unilateral-shift",
                                    "x2": "unitary" if b == "u" else "unilateral-shift"}
            if p.rank:
                certificates[f"block[{label}]"] = max(
                    _corner_unitary_res(ctx, x, p) if kind == "u"
                    else max(_isometry_res(ctx, x, p), _commute_res(ctx, x, p), graded)
                    for x, kind, graded in ((x1, a, graded1), (x2, b, graded2))
                )
    basis = ProjectionBasis(tuple(members))
    certificates.update({f"basis_{k}": v for k, v in basis.residuals().items()})
    return DecompositionReport(
        method="slocinski", basis=basis, block_classes=block_classes,
        certificates=certificates, condition_vector=vector, holds=True,
    )


def _product_is_fixpoint(ctx: _Ctx, p: Projection, q: Projection, fix: Projection) -> bool:
    """pq is a projection and equals fix, on the window.  pq of two masked
    projections is their AND, a projection exactly, and pq - fix for a
    masked fix is the 0/1 diagonal of the XOR of the AND with fix's mask."""
    if p.mask is not None and q.mask is not None and fix.mask is not None:
        return _mask_res(ctx, (p.mask & q.mask) ^ fix.mask) <= ctx.tol
    prod = pair_product(p, q)
    return all(ctx.ok(d) for d in (*projection_defects(prod), prod - fix.element))


def _commutes_with_product(ctx: _Ctx, x: Element, p: Projection, q: Projection) -> bool:
    """x commutes with pq on the window; for masked p and q, pq is their
    masked meet."""
    if p.mask is not None and q.mask is not None:
        return _commutes(ctx, x, proj_inf([p, q]))
    return ctx.commute_ok(x, pair_product(p, q))


def corollary_check(x1: Element, x2: Element, cfg: EngineConfig | None = None) -> bool:
    """holds(x1,x2) must equal holds(x1, x1 x2) and holds(x2, x1 x2)."""
    ctx = _Ctx(x1, cfg)
    x12 = x1 @ x2
    direct = _slocinski(ctx, x1, x2).holds
    via = _slocinski(ctx, x1, x12).holds and _slocinski(ctx, x2, x12).holds
    if direct != via:
        raise InternalInconsistencyError(
            f"corollary violated: pair={direct} but product-pairs={via}"
        )
    return direct


def _mixed_wandering(ctx: _Ctx, a: Element, b: Element) -> Projection:
    """inf over n of (1 - [a^{*n} b]), i.e. the chain K_n = ∩_{k<n} ker(b* a^k).

    K_(n+1) = K_1 ∩ a^{-1} K_n equals the sweep M <- M ∩ a^{-1} M from
    M = K_1 term by term, so the infimum is the a-invariant core of K_1.
    K_1 = ker b* is b's cokernel (`subspaces.cokernel`), which peels b's
    lone entries, so only b's non-lone rest takes an SVD.
    """
    k1 = from_basis(ctx.domain, _cokernel(ctx, b))
    return _invariant_core(ctx, [(a.mat, False)], k1, "mixed wandering subspace")


def weak_bishift(x1: Element, x2: Element, cfg: EngineConfig | None = None) -> DecompositionReport:
    """The fourfold basis {p_uu, p_us, p_su, p_ws} that always exists.

    p_ws = 1 - p_uu - p_us - p_su is the complement of the join of the
    other three, one kernel of its basis' adjoint, with no SVD of the dense
    sum.  On the shift model p_uu, p_us, p_su, p_ws, W_us, W_su, m_us and
    m_su are masked coordinate projections, so p_ws is the NOT of the OR
    of three masks and every certificate is an index block of x1 or x2."""
    ctx = _Ctx(x1, cfg)
    _require(_isometry_on_window(ctx, x1) and _isometry_on_window(ctx, x2),
             "weak_bishift requires two isometries")
    _require(ctx.commute_ok(x1, x2), "weak_bishift requires a commuting pair")

    w_us = _mixed_wandering(ctx, x1, x2)
    w_su = _mixed_wandering(ctx, x2, x1)

    pu1, ps1, _ = _wold_parts(ctx, x1)
    pu2, ps2, _ = _wold_parts(ctx, x2)
    # p_uu = ∧[(x1 x2)ⁿ] is the reducing fixpoint of u1 ∧ u2, as in Słociński
    p_uu = _reducing_fixpoint(ctx, [x1, x2], proj_inf([pu1, pu2]))
    p_us = _reducing_fixpoint(ctx, [x1, x2], proj_inf([pu1, ps2]))
    p_su = _reducing_fixpoint(ctx, [x1, x2], proj_inf([ps1, pu2]))
    p_ws = proj_sup([p_uu, p_us, p_su]).complement()

    # ∧ₙ x1ⁿ W_us = W_us ∧ u1, and ∧ₙ x2ⁿ W_su = W_su ∧ u2
    m_us = proj_inf([w_us, pu1])
    m_su = proj_inf([w_su, pu2])
    certificates = {
        "w_us_invariant": _invariance_res(ctx, x1, w_us),
        "w_su_invariant": _invariance_res(ctx, x2, w_su),
        "w_us_isometry_corner": _isometry_res(ctx, x1, w_us),
        "w_su_isometry_corner": _isometry_res(ctx, x2, w_su),
        "shift_x1_w_us": _orth_res(ctx, p_ws, m_us),
        "shift_x2_w_su": _orth_res(ctx, p_ws, m_su),
    }
    basis = ProjectionBasis((("uu", p_uu), ("us", p_us), ("su", p_su), ("ws", p_ws)))
    certificates.update({f"basis_{k}": v for k, v in basis.residuals().items()})
    block_classes = {
        "uu": {"x1": "unitary", "x2": "unitary"},
        "us": {"x1": "unitary", "x2": "unilateral-shift"},
        "su": {"x1": "unilateral-shift", "x2": "unitary"},
        "ws": {"pair": "weak-bi-shift"},
    }
    return DecompositionReport(
        method="weak-bishift", basis=basis, block_classes=block_classes,
        certificates=certificates,
        extras={"w_us": w_us, "w_su": w_su},
    )


# ------------------------------------------------------ Halmos-Wallen


def _without(ctx: _Ctx, basis: np.ndarray, t_basis: np.ndarray) -> np.ndarray:
    """A basis of span(basis) ∧ (1 - t) for t <= span(basis), t_basis t's
    range basis: the vectors B c with T* B c = 0, one kernel of the small
    matrix T* B; basis itself when t = 0."""
    if t_basis.shape[1] == 0:
        return basis
    dom = ctx.domain
    ker = subspaces.nullspace(dom, dom.normalize(dom.adjoint(t_basis) @ basis))
    return dom.normalize(basis @ ker)


def _series_split(ctx: _Ctx, y: Element) -> tuple:
    """The fourfold split by the wandering series of y and of y*, seeded in
    the probe window W (Halmos & Wallen 1970).

    f = Σ yⁿ(ker y* ∩ W) and g = Σ y*ⁿ(ker y ∩ W) give t = f ∧ g,
    s = f ∧ (1 - t), b = g ∧ (1 - t) and u = 1 - (f ∨ g), the complement
    of f's and b's bases side by side, since g = b + t and t <= f.  These
    are Halmos–Wallen's u, s, b, t for a power partial isometry y, and the
    product-PPI u, is, cis, t for y = x1 x2.  Returns the four parts and
    the series f and g (`_wandering_series`), whose gradings certify the
    non-unitary corners.  f and g are met as bases
    (`subspaces.intersect`); neither projection is formed unless it is s
    or b, which happens when t = 0.  When both series were walked to their
    end, f and g are the coordinates of their records' rows F and G, and
    the four parts are the masked coordinate sets F ∩ G, F ∖ G, G ∖ F and
    the rest, with no meet or kernel.  Seeded in the window, neither
    series starts at the truncation boundary, where a truncated shift and
    its adjoint both end.
    """
    dom = ctx.domain
    y_star = ctx.star(y)
    f = _wandering_series(ctx, y, _cokernel(ctx, y, window=True))
    g = _wandering_series(ctx, y_star, _cokernel(ctx, y_star, window=True))
    if f.record is not None and g.record is not None:
        fm, gm = _rows_mask(ctx, f.record[0]), _rows_mask(ctx, g.record[0])
        parts = (masked(dom, ~(fm | gm)), masked(dom, fm & ~gm), masked(dom, gm & ~fm),
                 masked(dom, fm & gm))
        return parts, f, g
    f_basis, g_basis = f.basis, g.basis
    t_basis = subspaces.intersect(dom, f_basis, g_basis)
    s_basis, b_basis = _without(ctx, f_basis, t_basis), _without(ctx, g_basis, t_basis)
    rest = subspaces.complement(dom, np.concatenate([f_basis, b_basis], axis=1))
    parts = (from_basis(dom, rest), from_basis(dom, s_basis), from_basis(dom, b_basis),
             from_basis(dom, t_basis))
    return parts, f, g


def halmos_wallen(x: Element, cfg: EngineConfig | None = None) -> DecompositionReport:
    """Fourfold split of a power partial isometry: {u, s, b, t}.

    s, b and t are corners of the series f = s + t and g = b + t: x is
    isometric on s and x* on b, and the gradings of f under x and of g
    under x* make those corners nilpotent.  t lies in f and commutes with
    x, so (t x t)ⁿ = t (f x f)ⁿ t and f's grading certifies t as well."""
    return _halmos_wallen(_Ctx(x, cfg), x)


def _halmos_wallen(ctx: _Ctx, x: Element) -> DecompositionReport:
    _require(_ppi_on_window(ctx, x), "halmos_wallen requires a power partial isometry")
    (p_u, p_s, p_b, p_t), f, g = _series_split(ctx, x)
    basis = ProjectionBasis((("u", p_u), ("s", p_s), ("b", p_b), ("t", p_t)))
    certificates = {f"basis_{k}": v for k, v in basis.residuals().items()}
    for lbl, p in basis.members:
        certificates[f"commute[{lbl}]"] = _commute_res(ctx, x, p)
    f_res = _grading_res(ctx, x, f)
    if p_u.rank:
        certificates["block[u]"] = _corner_unitary_res(ctx, x, p_u)
    if p_s.rank:
        certificates["block[s]"] = max(_isometry_res(ctx, x, p_s), f_res)
    if p_b.rank:
        certificates["block[b]"] = max(_isometry_res(ctx, x, p_b, star=True),
                                       _grading_res(ctx, ctx.star(x), g))
    if p_t.rank:
        certificates["block[t]"] = f_res
    block_classes = {"u": "unitary", "s": "unilateral-shift",
                     "b": "backward-shift", "t": "truncated-shifts"}
    return DecompositionReport(
        method="hw", basis=basis, block_classes=block_classes, certificates=certificates,
    )


def _product_basis(ctx: _Ctx, method: str, rep1: DecompositionReport,
                   rep2: DecompositionReport, sep: str) -> DecompositionReport:
    """The product basis {p ∧ q} of two single-operator splits of a doubly
    commuting pair, labelled l1 sep l2 and classed by each factor's block.
    Each certificate checks that pq is a projection, so that p ∧ q = pq."""
    members = []
    block_classes = {}
    certificates = {}
    for l1, p in rep1.basis.members:
        for l2, q in rep2.basis.members:
            label = f"{l1}{sep}{l2}"
            # pq of two masked projections is their AND, a projection exactly
            exact = p.mask is not None and q.mask is not None
            certificates[f"projection[{label}]"] = 0.0 if exact else max(
                ctx.wres(d) for d in projection_defects(pair_product(p, q)))
            members.append((label, proj_inf([p, q])))
            block_classes[label] = {"x1": rep1.block_classes[l1], "x2": rep2.block_classes[l2]}
    basis = ProjectionBasis(tuple(members))
    certificates.update({f"basis_{k}": v for k, v in basis.residuals().items()})
    return DecompositionReport(method=method, basis=basis, block_classes=block_classes,
                               certificates=certificates)


def hw_pair_doubly(x1: Element, x2: Element, cfg: EngineConfig | None = None) -> DecompositionReport:
    """Sixteen-fold product basis for a doubly commuting pair of PPIs."""
    ctx = _Ctx(x1, cfg)
    _require(ctx.commute_ok(x1, x2) and ctx.commute_ok(x1, x2.star()),
             "hw_pair_doubly requires a doubly commuting pair")
    rep1, rep2 = _halmos_wallen(ctx, x1), _halmos_wallen(ctx, x2)
    return _product_basis(ctx, "hw-pair-doubly", rep1, rep2, ".")


def _lemma_certificates(ctx: _Ctx, x1: Element, x2: Element) -> dict:
    """Residuals of the two power-walking identities behind the product-PPI
    theorem, [x*] xⁿ⁻¹ [x*ⁿ] = xⁿ⁻¹ [x*ⁿ] (lemmaA1) and
    [x* [yⁿ]] [yⁿ⁻¹] = [x* [yⁿ]] for y = x1 x2 (lemmaA2), reported as
    evidence on the pair; the series split does not use them."""
    out = {}
    top = min(ctx.cfg.n_max, ctx.dim)
    for label, x in (("x1", x1), ("x2", x2)):
        x_star = x.star()
        lp_star = left_projection(x_star)
        xn1 = None  # x^(n-1); None for x^0 = 1, which multiplies nothing
        xsn = x_star  # (x*)^n
        for n in range(1, top + 1):
            if n > 1:
                xn1 = x if xn1 is None else xn1 @ x
                xsn = xsn @ x_star
            lp_n = left_projection(xsn)
            moved = lp_n.element if xn1 is None else lp_n.product(xn1, "right")
            out[f"lemmaA1[{label},n={n}]"] = ctx.wres(lp_star.product(moved, "left") - moved)
    # [y^n] for n = 0..top, y = x1 x2; shared by both labels
    y = x1 @ x2
    lp_y = [identity_projection(ctx.domain, ctx.dim)]
    yn = y
    for n in range(top):
        if n:
            yn = yn @ y
        lp_y.append(left_projection(yn))
    for label, x in (("x1", x1), ("x2", x2)):
        x_star = x.star()
        for n in range(1, top + 1):
            lhs = left_projection(lp_y[n].product(x_star, "right"))
            out[f"lemmaA2[{label},n={n}]"] = ctx.wres(pair_product(lhs, lp_y[n - 1]) - lhs.element)
    return out


def hw_pair_product(x1: Element, x2: Element, cfg: EngineConfig | None = None) -> DecompositionReport:
    """Basis {p_u, p_is, p_cis, p_t} for commuting PPIs with PPI product."""
    ctx = _Ctx(x1, cfg)
    _require(ctx.commute_ok(x1, x2), "hw_pair_product requires a commuting pair")
    _require(_ppi_on_window(ctx, x1) and _ppi_on_window(ctx, x2),
             "hw_pair_product requires power partial isometries")
    y = x1 @ x2
    if not _ppi_on_window(ctx, y):
        raise PreconditionError(
            "x1 x2 is not a power partial isometry; use largest_product_ppi to find "
            "the corner where the decomposition applies"
        )
    (p_u, p_is, p_cis, p_t), f, _ = _series_split(ctx, y)
    basis = ProjectionBasis((("u", p_u), ("is", p_is), ("cis", p_cis), ("t", p_t)))
    certificates = {f"basis_{k}": v for k, v in basis.residuals().items()}
    certificates.update(_lemma_certificates(ctx, x1, x2))
    if p_u.rank:
        certificates["block[u]"] = max(_corner_unitary_res(ctx, x1, p_u),
                                       _corner_unitary_res(ctx, x2, p_u))
    if p_is.rank:
        certificates["block[is]"] = max(_isometry_res(ctx, x, p_is) for x in (x1, x2))
    if p_cis.rank:
        certificates["block[cis]"] = max(_isometry_res(ctx, x, p_cis, star=True) for x in (x1, x2))
    if p_t.rank:
        # t lies in the series f and, with no commute certificate here,
        # its commutation with y is checked beside f's grading
        certificates["block[t]"] = max(_grading_res(ctx, y, f), _commute_res(ctx, y, p_t))
    literal_agrees = proj_leq(p_u, proj_sup([p_is, p_cis])) if p_u.rank else True
    block_classes = {"u": "unitary pair", "is": "isometry pair",
                     "cis": "co-isometry pair", "t": "product truncated-shifts"}
    return DecompositionReport(
        method="hw-pair-product", basis=basis, block_classes=block_classes,
        certificates=certificates,
        extras={"literal_sup_agrees": literal_agrees},
    )


def _series_prefixes(ctx: _Ctx, y: Element) -> list:
    """The projections Pₙ onto the first n blocks B₀ ⊕ … ⊕ Bₙ₋₁ of y's
    wandering series Σ yᵏ(ker y*), n = 1 … L for its L blocks, or the zero
    projection alone when the series is empty.

    For a power partial isometry y these blocks span ker y*ⁿ (Halmos &
    Wallen 1970), so [yⁿ] = 1 - Pₙ, with no power of y formed; past the
    last block ker y*ⁿ is the whole series.  A float prefix is its own
    basis unless roundoff has moved it off (`subspaces.own_basis`), as the
    series' join is."""
    dom = ctx.domain
    blocks = _wandering_series(ctx, y, _cokernel(ctx, y)).blocks
    return [from_basis(dom, subspaces.own_basis(dom, np.concatenate(blocks[:n], axis=1)))
            for n in range(1, len(blocks) + 1)] or [zero_projection(dom, ctx.dim)]


def _product_ppi_constraint(ctx: _Ctx, x1: Element, x2: Element) -> Projection:
    """∩_n (1 - [[x1^n][x2*^n] - [x2*^n][x1^n]]) over the commutator defects,
    with no power formed and no range projection taken of one.

    With [x1ⁿ] = 1 - Pₙ and [x2*ⁿ] = 1 - Qₙ, Pₙ and Qₙ the prefixes of the
    wandering series of x1 and of x2* (`_series_prefixes`, the Halmos–Wallen
    identity ker y*ⁿ = B₀ ⊕ … ⊕ Bₙ₋₁), the defect at n is PₙQₙ - QₙPₙ.
    Once n passes the last block of both series both prefixes are whole
    series and the defects repeat, so n runs to the longer series' length,
    and to 1 when both are empty.  Each defect d is skew-adjoint, so
    1 - [d] is ker d* = ker d, and the constraint is the one right
    annihilator R of all the defects, a single stacked kernel.  A series
    still moving at the cap raises IndeterminateError.
    """
    f, g = _series_prefixes(ctx, x1), _series_prefixes(ctx, ctx.star(x2))
    pairs = ((f[min(n, len(f) - 1)], g[min(n, len(g) - 1)]) for n in range(max(len(f), len(g))))
    return right_annihilator_projection([pair_product(p, q) - pair_product(q, p)
                                         for p, q in pairs])


def largest_product_ppi(x1: Element, x2: Element, cfg: EngineConfig | None = None) -> Projection:
    """Largest commuting projection whose corner makes x1 x2 a PPI."""
    ctx = _Ctx(x1, cfg)
    _require(ctx.commute_ok(x1, x2), "largest_product_ppi requires a commuting pair")
    _require(_ppi_on_window(ctx, x1) and _ppi_on_window(ctx, x2),
             "largest_product_ppi requires power partial isometries")
    p = _reducing_fixpoint(ctx, [x1, x2], _product_ppi_constraint(ctx, x1, x2))
    if not _ppi_on_window(ctx, p.product(x1 @ x2)):
        raise InternalInconsistencyError("compressed product failed its PPI certificate")
    return p


# ------------------------------------------------------- contractions


def _axiom_gate(domain: ScalarDomain):
    """Refuse a domain whose positive cone is neither smooth nor antisymmetric."""
    if not (domain.smooth or domain.antisymmetric):
        raise AxiomViolationError(
            f"{domain} is neither smooth nor antisymmetric; the unitary/completely-"
            "non-unitary split is not available"
        )


def _nfl_unitary_part(ctx: _Ctx, x: Element) -> Projection:
    """∩_n ker(1 - x*^n x^n) ∩ ker(1 - x^n x*^n), the largest projection
    reducing x on which x is unitary.

    A reducing subspace makes x unitary exactly when it lies in
    R({1 - x*x, 1 - xx*}), one kernel of the two stacked, so the part is
    the core of that meet under x and x*.
    """
    meet = right_annihilator_projection([ctx.one - ctx.gram(x), ctx.one - ctx.gram(x, star=True)])
    return _invariant_core(ctx, [(x.mat, False), (x.mat, True)], meet, "nfl unitary part")


def nfl(x: Element, cfg: EngineConfig | None = None) -> DecompositionReport:
    """Unitary / completely-non-unitary split of a contraction."""
    return _nfl(_Ctx(x, cfg), x)


def _nfl(ctx: _Ctx, x: Element) -> DecompositionReport:
    _axiom_gate(ctx.domain)
    positive = ctx.domain.is_positive
    _require(positive(ctx.one - ctx.gram(x)) and positive(ctx.one - ctx.gram(x, star=True)),
             "nfl requires a contraction (1 - x*x and 1 - xx* positive)")
    p_u = _nfl_unitary_part(ctx, x)
    p_c = p_u.complement()
    certificates = {
        "commute_u": _commute_res(ctx, x, p_u),
        "unitary_corner": _corner_unitary_res(ctx, x, p_u) if p_u.rank else 0.0,
        "cnu_corner": _corner_cnu_res(ctx, x, p_c) if p_c.rank else 0.0,
    }
    basis = ProjectionBasis((("u", p_u), ("c", p_c)))
    certificates.update({f"basis_{k}": v for k, v in basis.residuals().items()})
    return DecompositionReport(
        method="nfl", basis=basis,
        block_classes={"u": "unitary", "c": "completely-non-unitary"},
        certificates=certificates,
    )


def _corner_cnu_res(ctx: _Ctx, x: Element, p_c: Projection) -> float:
    """Residual norm of the unitary part of the compression to p_c.

    y = p_c x p_c vanishes off p_c, so 1 - y*y is the identity there and
    the meet the invariant core starts from already lies in p_c.
    """
    return ctx.wres(_nfl_unitary_part(ctx, p_c.product(x)).element)


def nfl_pair_doubly(x1: Element, x2: Element, cfg: EngineConfig | None = None) -> DecompositionReport:
    """Fourfold product basis for a doubly commuting pair of contractions."""
    ctx = _Ctx(x1, cfg)
    _require(ctx.commute_ok(x1, x2) and ctx.commute_ok(x1, x2.star()),
             "nfl_pair_doubly requires a doubly commuting pair")
    return _product_basis(ctx, "nfl-pair", _nfl(ctx, x1), _nfl(ctx, x2), "")


def largest_doubly_commuting(x1: Element, x2: Element, cfg: EngineConfig | None = None) -> Projection:
    """Largest commuting projection whose corner makes the pair doubly commute."""
    ctx = _Ctx(x1, cfg)
    _require(ctx.commute_ok(x1, x2), "largest_doubly_commuting requires a commuting pair")
    # 1 - [x2 x1* - x1* x2] is R of its adjoint, the defect checked below
    defect = x1 @ x2.star() - x2.star() @ x1
    p = _reducing_fixpoint(ctx, [x1, x2], right_annihilator_projection([defect]))
    if not (ctx.ok(p.product(defect)) and ctx.ok(p.product(x1 @ x2 - x2 @ x1))):
        raise InternalInconsistencyError("compression failed its doubly-commuting certificate")
    return p


# -------------------------------------------------- maximality probes


def maximality_probe(p: Projection, ops: list, predicate, rng, tries: int = 20) -> bool:
    """Try rank-one enlargements p ∨ [v] along random complement directions.

    v is the complement 1 - p applied to integers drawn from [-9, 9], the
    same draws in every domain, and each candidate is one orth of p's range
    basis next to v; a v that adds no rank is skipped.  Returns True when no
    enlargement both commutes with every op and passes the predicate (i.e.
    p survives falsification).
    """
    domain = p.domain
    comp = p.complement()
    if comp.rank == 0:
        return True
    for _ in range(tries):
        raw = np.array([domain.coerce(int(c)) for c in rng.integers(-9, 10, size=p.dim)],
                       dtype=domain.dtype)
        v = comp.element.mat @ raw
        basis = subspaces.orth(domain, np.column_stack([p.range_basis, v]))
        if basis.shape[1] == p.rank:
            continue
        cand = from_basis(domain, basis)
        if all(_commute_defect(a, cand).is_zero() for a in ops) and predicate(cand):
            return False
    return True
