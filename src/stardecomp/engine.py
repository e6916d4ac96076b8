"""All decomposition algorithms, each emitting a report with certificates.

Infinite infima and series are replaced by stabilisation detection, and no
range chain ∧ₙ[xⁿ] is walked: every such infimum is Wold's identity or a
meet.  For an isometry the unitary part ∧[xⁿ] equals 1 - s, s the
wandering series Σ xⁿ[ker x*] (Wold's identity), so `_wold_parts` takes u
as the complement of the series' basis.  The series also grades the shift
corner: p x p maps each block Bₖ into Bₖ₊₁ and the last block to 0, so it
is nilpotent and ∧[(pxp)ⁿ] = 0; the certificate measures what lies off
that grading with thin products only (`_grading_res`), beside x being
isometric on s.  A float matrix whose Frobenius norm is below the rank
cutoff takes no SVD, since σ₁ <= ‖·‖_F, and x*x and xx* are formed once
per operator.

The pair methods read their infima off the Wold parts of x1 and x2
(Słociński 1980; Popovici 2004).  A Słociński block p <= s_x that
commutes with x has (pxp)ⁿ = p (s_x x s_x)ⁿ p, so it is certified by x
being isometric on p and commuting with it, beside x commuting with s_x
and s_x's grading, both measured once per operator.  Weak bi-shift's
p_uu = ∧[(x1 x2)ⁿ] is the reducing fixpoint of u1 ∧ u2, as p_us and p_su
are of u1 ∧ s2 and s1 ∧ u2: the unitary part of x1 x2 reduces both
isometries and makes both unitary, and conversely.  Its m_us =
∧ₙ x1ⁿ W_us is the meet W_us ∧ u1, since x1* maps W_us ∩ u1 into itself
(x2* x1* = x1* x2*), and likewise m_su = W_su ∧ u2.

The reducing fixpoints, the weak bi-shift wandering subspaces and the NFL
unitary part are one lattice operation, the largest projection below some
e whose range the given matrices map into itself (`_invariant_core`): the
operators and their adjoints below e, a below ker b*, and x, x* below
ker(1 - x*x) ∧ ker(1 - xx*).  Each sweep is one preimage kernel per matrix
inside what is left, and one repeated rank marks the fixpoint, as it does
for the nested product-PPI range pairs.  The wandering series ends when
its term vanishes; a float step or final join whose Gram matrix is within
dim·ε of the identity is its own orthonormal basis and takes no SVD.
Each checked identity is one defect built on `Projection.product`:
x p - p x, (1 - p) x p, p x*x p - p, pq (`pair_product`) and pq being a
projection (`projection_defects`); conditions test it with ctx.ok and
certificates measure it with ctx.wres.  A float projection of rank below
dim/2 multiplies through its range basis.  The iteration cap is
max(n_max, dim + 1), and a series, core or chain still moving at the cap
raises IndeterminateError instead of silently truncating.  Certificate
residuals are measured after compression to the probe window when the
input came from a truncated symbolic operator; a grading residual is read
on the whole space, which can only be stricter.  The window is a 0/1
diagonal, so the compression w e w is the entrywise product of e with the
mask w wᵀ, which is exact.

Every intersection of kernels is one right annihilator R(S), one kernel of
the elements of S stacked (`right_annihilator_projection`): the starts
ker b* = R({b*}) and R({1 - x*x, 1 - xx*}), the doubly-commuting seed and
the product-PPI constraint.  A complement 1 - p is ker B* for B the range
basis of p (`Projection.complement`), with no kernel of the dense p.

Two constructions are shared.  Halmos–Wallen and the product-PPI split are
one series split (`_series_split`), applied to y = x and to y = x1 x2: the
wandering series f = Σ yⁿ(ker y* ∩ W) and g = Σ y*ⁿ(ker y ∩ W) seeded in
the probe window W (the whole space when there is none) give t = f ∧ g,
s = f ∧ (1 - t), b = g ∧ (1 - t) and u = 1 - (f ∨ g), the wandering-
subspace form of the Halmos–Wallen parts.  The seeds stay in the window
because a truncated shift and its adjoint are both nilpotent: each kills
the boundary vector at the end of its tail, and a series seeded there
would run back over the whole tail and put it in t, as the range chains
of y and y* did.  The corners s and b are certified by x (or x*) being
isometric on them and by the gradings of f and g, t by f's grading, with
no range chain, power or dense projection difference.
The doubly-commuting pair methods for PPIs and for contractions share one
product basis (`_product_basis`) of meets of the two single-operator
splits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    from_element,
    identity_projection,
    left_projection,
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
    """Shared state: domain, window mask and the window's coordinates
    (keep), chain cap, the EngineConfig (the default one when a method is
    given none) and the Gram products."""

    def __init__(self, x: Element, cfg: EngineConfig | None = None):
        self.domain = x.domain
        self.dim = x.dim
        self.cfg = cfg if cfg is not None else EngineConfig()
        self.cap = max(self.cfg.n_max, self.dim + 1)
        self.one = identity(self.domain, self.dim)
        self.mask = None
        self.keep = None
        self._grams = {}
        if self.cfg.window is not None:
            window = self.cfg.window.element
            x._check(window)
            diag = np.diagonal(window.mat)
            if not (np.array_equal(window.mat, np.diag(diag))
                    and all(v == 0 or v == 1 for v in diag)):
                raise PreconditionError("the probe window must be a 0/1 diagonal projection")
            self.mask = np.outer(diag, diag)
            self.keep = np.array([v == 1 for v in diag], dtype=bool)

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
            self._grams[key] = (x, x @ x.star() if star else x.star() @ x)
        return self._grams[key][1]

    def wres(self, e: Element) -> float:
        return self.compress(e).norm()

    def ok(self, e: Element) -> bool:
        return self.compress(e).is_zero()

    def commute_ok(self, a: Element, b: Element) -> bool:
        return self.ok(a @ b - b @ a)


def _wandering_series(ctx: _Ctx, x: Element, term: np.ndarray) -> tuple:
    """Stabilised orthogonal series sum of [x^n (1 - [x])], from a basis
    term of the range of 1 - [x], with its blocks B₀, B₁, …: Bₖ₊₁ is a
    basis of x Bₖ, and the last block's image has rank 0.

    An isometry maps an orthonormal block to an orthonormal block, and the
    blocks are mutually orthogonal, so each float step x term and the final
    join are their own bases (`subspaces.own_basis`) unless roundoff or the
    truncation boundary has moved them off; only those take an SVD."""
    pieces = []
    for _ in range(ctx.cap + 1):
        if term.shape[1] == 0:
            joined = np.concatenate(pieces, axis=1) if pieces else ctx.domain.zeros(ctx.dim, 0)
            return from_basis(ctx.domain, subspaces.own_basis(ctx.domain, joined)), pieces
        pieces.append(term)
        term = subspaces.own_basis(ctx.domain, x.mat @ term)
    raise IndeterminateError("wandering series did not terminate within the cap")


def _invariant_core(ctx: _Ctx, mats: list, p: Projection, what: str) -> Projection:
    """Largest projection <= p whose range every listed matrix maps into itself.

    Subspace iteration M <- M ∩ (∩_a a^{-1} M); the rank falls by at least
    one per sweep until the fixpoint, so a repeated rank (or rank 0) marks
    it.  Each sweep forms 1 - [M] once and meets one matrix's preimage at a
    time, as one kernel inside the part of M kept so far.  A core still
    moving after ctx.cap sweeps raises IndeterminateError.
    """
    for _ in range(ctx.cap):
        if p.rank == 0:
            return zero_projection(ctx.domain, ctx.dim)
        comp = (ctx.one - p.element).mat
        nxt = p.range_basis
        for m in mats:
            nxt = subspaces.preimage(ctx.domain, m, comp, nxt)
        if nxt.shape[1] == p.rank:
            return p
        p = from_basis(ctx.domain, nxt)
    raise IndeterminateError(f"{what} did not stabilise within the cap")


def reducing_fixpoint(ops: list, e: Projection, cfg: EngineConfig | None = None) -> Projection:
    """Largest projection <= e commuting with every listed operator: the
    invariant core of e under the operators and their adjoints."""
    mats = [a.mat for a in ops] + [a.star().mat for a in ops]
    return _invariant_core(_Ctx(e.element, cfg), mats, e, "reducing fixpoint")


def _require(cond: bool, message: str):
    if not cond:
        raise PreconditionError(message)


def _isometry_on_window(ctx: _Ctx, x: Element) -> bool:
    return ctx.ok(_isometry_defect(ctx, x))


def _ppi_on_window(ctx: _Ctx, x: Element) -> bool:
    pw = x
    for n in range(1, min(ctx.cfg.n_max, ctx.dim) + 1):
        if n > 1:
            pw = pw @ x
        if not ctx.ok(pw @ pw.star() @ pw - pw):
            return False
    return True


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
    return ctx.wres(_isometry_defect(ctx, x, p, star))


def _commute_res(ctx: _Ctx, x: Element, p: Projection) -> float:
    return ctx.wres(_commute_defect(x, p))


def _corner_unitary_res(ctx: _Ctx, x: Element, p: Projection) -> float:
    return max(_isometry_res(ctx, x, p), _isometry_res(ctx, x, p, star=True))


def _grading_res(ctx: _Ctx, x: Element, p: Projection, blocks: list) -> float:
    """Residual of the grading of the corner p x p by its series blocks
    B₀, …, B_L, which side by side span the range of p.

    If p x p maps each Bₖ into Bₖ₊₁ and B_L to 0, then (p x p)^(L+1) = 0,
    so ∧[(pxp)ⁿ] = 0 with no power formed.  In the coordinates G of
    p x p on the blocks (G = B*(x B) for an orthonormal float B) the
    grading is G's block subdiagonal; the residual is what lies off it,
    the images p x Bₖ outside Bₖ₊₁ and p x B_L.  Only the thin products
    x B and B*(x B) are formed.  The grading comes from x's own action
    wherever the series ran, so the residual is read on the whole space.
    """
    if not blocks:
        return 0.0
    joined = np.concatenate(blocks, axis=1)
    g = subspaces.coordinates(ctx.domain, joined, x.mat @ joined,
                              orthonormal=np.array_equal(joined, p.range_basis))
    edges = np.cumsum([0] + [b.shape[1] for b in blocks])
    for k in range(len(blocks) - 1):
        g[edges[k + 1]:edges[k + 2], edges[k]:edges[k + 1]] = ctx.domain.zero()
    return ctx.domain.norm(g)


# ---------------------------------------------------------------- Wold


def _wold_parts(ctx: _Ctx, x: Element):
    """The unitary part, the shift part and the shift part's series blocks.

    The shift part is the wandering series Σ xⁿ[ker x*] from one cokernel
    of x (`subspaces.cokernel`).  By Wold's identity u = ∧[xⁿ] = 1 - s, the
    unitary part is its complement, taken from the series' own basis
    (`Projection.complement`) with no range chain."""
    p_s, blocks = _wandering_series(ctx, x, subspaces.cokernel(ctx.domain, x.mat))
    return p_s.complement(), p_s, blocks


def wold(x: Element, cfg: EngineConfig | None = None) -> DecompositionReport:
    """Split an isometry into its unitary and unilateral-shift parts.

    u = 1 - s holds by construction, so `sum_to_one` and `orth` read
    roundoff only; the evidence is `unitary_corner`, the commutation
    certificates and `shift_corner`: x is isometric on s, and the series'
    grading proves the corner nilpotent (`_grading_res`)."""
    ctx = _Ctx(x, cfg)
    _require(_isometry_on_window(ctx, x), "wold requires an isometry (on the probe window)")
    p_u, p_s, blocks = _wold_parts(ctx, x)
    certificates = {
        "sum_to_one": ctx.wres(p_u.element + p_s.element - ctx.one),
        "orth": ctx.wres(pair_product(p_u, p_s)),
        "commute_u": _commute_res(ctx, x, p_u),
        "commute_s": _commute_res(ctx, x, p_s),
        "unitary_corner": _corner_unitary_res(ctx, x, p_u),
        "shift_corner": max(_isometry_res(ctx, x, p_s), _grading_res(ctx, x, p_s, blocks)),
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
    ctx = _Ctx(x1, cfg)
    _require(_isometry_on_window(ctx, x1) and _isometry_on_window(ctx, x2),
             "slocinski requires two isometries")
    _require(ctx.commute_ok(x1, x2), "slocinski requires a commuting pair")
    pu1, ps1, blocks1 = _wold_parts(ctx, x1)
    pu2, ps2, blocks2 = _wold_parts(ctx, x2)
    parts1 = {"u": pu1, "s": ps1}
    parts2 = {"u": pu2, "s": ps2}

    seeds = {a + b: proj_inf([parts1[a], parts2[b]]) for a in "us" for b in "us"}
    fixpoints = {k: reducing_fixpoint([x1, x2], seed, ctx.cfg) for k, seed in seeds.items()}

    total = sum((fixpoints[k].element for k in ("us", "su", "ss")), fixpoints["uu"].element)
    c1 = ctx.ok(total - ctx.one)

    c2 = True
    for a in "us":
        for b in "us":
            prod = pair_product(parts1[a], parts2[b])
            defects = (*projection_defects(prod), prod - fixpoints[a + b].element)
            c2 = c2 and all(ctx.ok(d) for d in defects)

    # x1 commutes with x2's parts: the first clause of both c3 and c5
    x1_commutes = all(ctx.ok(_commute_defect(x1, parts2[a])) for a in "us")
    c3 = x1_commutes and all(ctx.ok(_commute_defect(x2, parts1[a])) for a in "us")
    c4 = ctx.ok(_invariance_defect(x2, ps1)) and ctx.ok(_invariance_defect(x1, ps2))
    c5 = x1_commutes and (
        ctx.commute_ok(x2, pu1.element @ ps2.element)
        or ctx.commute_ok(x2, ps1.element @ ps2.element)
    )
    x12 = x1 @ x2
    c6 = ctx.ok(_invariance_defect(x12, ps1)) and ctx.ok(_invariance_defect(x12, ps2))

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
    graded1, graded2 = (max(_commute_res(ctx, x, ps), _grading_res(ctx, x, ps, blocks))
                        if ps.rank else 0.0
                        for x, ps, blocks in ((x1, ps1, blocks1), (x2, ps2, blocks2)))
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


def corollary_check(x1: Element, x2: Element, cfg: EngineConfig | None = None) -> bool:
    """holds(x1,x2) must equal holds(x1, x1 x2) and holds(x2, x1 x2)."""
    x12 = x1 @ x2
    direct = slocinski(x1, x2, cfg).holds
    via = slocinski(x1, x12, cfg).holds and slocinski(x2, x12, cfg).holds
    if direct != via:
        raise InternalInconsistencyError(
            f"corollary violated: pair={direct} but product-pairs={via}"
        )
    return direct


def _mixed_wandering(ctx: _Ctx, a: Element, b: Element) -> Projection:
    """inf over n of (1 - [a^{*n} b]), i.e. the chain K_n = ∩_{k<n} ker(b* a^k).

    K_(n+1) = K_1 ∩ a^{-1} K_n equals the sweep M <- M ∩ a^{-1} M from
    M = K_1 term by term, so the infimum is the a-invariant core of K_1.
    """
    return _invariant_core(ctx, [a.mat], right_annihilator_projection([b.star()]),
                           "mixed wandering subspace")


def weak_bishift(x1: Element, x2: Element, cfg: EngineConfig | None = None) -> DecompositionReport:
    """The fourfold basis {p_uu, p_us, p_su, p_ws} that always exists."""
    ctx = _Ctx(x1, cfg)
    _require(_isometry_on_window(ctx, x1) and _isometry_on_window(ctx, x2),
             "weak_bishift requires two isometries")
    _require(ctx.commute_ok(x1, x2), "weak_bishift requires a commuting pair")

    w_us = _mixed_wandering(ctx, x1, x2)
    w_su = _mixed_wandering(ctx, x2, x1)

    pu1, ps1, _ = _wold_parts(ctx, x1)
    pu2, ps2, _ = _wold_parts(ctx, x2)
    # p_uu = ∧[(x1 x2)ⁿ] is the reducing fixpoint of u1 ∧ u2, as in Słociński
    p_uu = reducing_fixpoint([x1, x2], proj_inf([pu1, pu2]), ctx.cfg)
    p_us = reducing_fixpoint([x1, x2], proj_inf([pu1, ps2]), ctx.cfg)
    p_su = reducing_fixpoint([x1, x2], proj_inf([ps1, pu2]), ctx.cfg)
    p_ws = from_element(ctx.one - (p_uu.element + p_us.element + p_su.element))

    # ∧ₙ x1ⁿ W_us = W_us ∧ u1, and ∧ₙ x2ⁿ W_su = W_su ∧ u2
    m_us = proj_inf([w_us, pu1])
    m_su = proj_inf([w_su, pu2])
    certificates = {
        "w_us_invariant": ctx.wres(_invariance_defect(x1, w_us)),
        "w_su_invariant": ctx.wres(_invariance_defect(x2, w_su)),
        "w_us_isometry_corner": _isometry_res(ctx, x1, w_us),
        "w_su_isometry_corner": _isometry_res(ctx, x2, w_su),
        "shift_product": ctx.wres(pair_product(p_ws, p_uu)),
        "shift_x1_w_us": ctx.wres(pair_product(p_ws, m_us)),
        "shift_x2_w_su": ctx.wres(pair_product(p_ws, m_su)),
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


def _window_cokernel(ctx: _Ctx, y: Element) -> np.ndarray:
    """Basis of ker y* ∩ W, W the probe window (the whole space when there
    is none): the cokernel of y's window rows, put back in the full space
    with zeros off the window.  As in `_wold_parts` the float basis is the
    left singular vectors of y (`subspaces.cokernel`), not a kernel of y*,
    whose roundoff tail the series would carry into subnormal blocks."""
    if ctx.keep is None:
        return subspaces.cokernel(ctx.domain, y.mat)
    rows = subspaces.cokernel(ctx.domain, y.mat[ctx.keep])
    seed = ctx.domain.zeros(ctx.dim, rows.shape[1])
    seed[ctx.keep] = rows
    return seed


def _without(ctx: _Ctx, p: Projection, t: Projection) -> Projection:
    """p ∧ (1 - t) for t <= p: the vectors B c of p's range with T* B c = 0,
    one kernel of the small matrix T* B; p itself when t = 0."""
    if t.rank == 0:
        return p
    dom = ctx.domain
    ker = subspaces.nullspace(dom, dom.normalize(dom.adjoint(t.range_basis) @ p.range_basis))
    return from_basis(dom, dom.normalize(p.range_basis @ ker))


def _series_split(ctx: _Ctx, y: Element) -> tuple:
    """The fourfold split by the wandering series of y and of y*, seeded in
    the probe window W (Halmos & Wallen 1970).

    f = Σ yⁿ(ker y* ∩ W) and g = Σ y*ⁿ(ker y ∩ W) give t = f ∧ g,
    s = f ∧ (1 - t), b = g ∧ (1 - t) and u = 1 - (f ∨ g), the complement
    of f's and b's bases side by side, since g = b + t and t <= f.  These
    are Halmos–Wallen's u, s, b, t for a power partial isometry y, and the
    product-PPI u, is, cis, t for y = x1 x2.  Returns the four parts and
    the series (f, its blocks) and (g, its blocks), whose gradings certify
    the non-unitary corners.  Seeded in the window, neither series starts
    at the truncation boundary, where a truncated shift and its adjoint
    both end.
    """
    y_star = y.star()
    p_f, f_blocks = _wandering_series(ctx, y, _window_cokernel(ctx, y))
    p_g, g_blocks = _wandering_series(ctx, y_star, _window_cokernel(ctx, y_star))
    p_t = proj_inf([p_f, p_g])
    p_s, p_b = _without(ctx, p_f, p_t), _without(ctx, p_g, p_t)
    rest = subspaces.complement(ctx.domain, np.concatenate([p_f.range_basis, p_b.range_basis],
                                                          axis=1))
    return (from_basis(ctx.domain, rest), p_s, p_b, p_t), (p_f, f_blocks), (p_g, g_blocks)


def halmos_wallen(x: Element, cfg: EngineConfig | None = None) -> DecompositionReport:
    """Fourfold split of a power partial isometry: {u, s, b, t}.

    s, b and t are corners of the series f = s + t and g = b + t: x is
    isometric on s and x* on b, and the gradings of f under x and of g
    under x* make those corners nilpotent.  t lies in f and commutes with
    x, so (t x t)ⁿ = t (f x f)ⁿ t and f's grading certifies t as well."""
    ctx = _Ctx(x, cfg)
    _require(_ppi_on_window(ctx, x), "halmos_wallen requires a power partial isometry")
    (p_u, p_s, p_b, p_t), f, g = _series_split(ctx, x)
    basis = ProjectionBasis((("u", p_u), ("s", p_s), ("b", p_b), ("t", p_t)))
    certificates = {f"basis_{k}": v for k, v in basis.residuals().items()}
    for lbl, p in basis.members:
        certificates[f"commute[{lbl}]"] = _commute_res(ctx, x, p)
    f_res = _grading_res(ctx, x, *f)
    if p_u.rank:
        certificates["block[u]"] = _corner_unitary_res(ctx, x, p_u)
    if p_s.rank:
        certificates["block[s]"] = max(_isometry_res(ctx, x, p_s), f_res)
    if p_b.rank:
        certificates["block[b]"] = max(_isometry_res(ctx, x, p_b, star=True),
                                       _grading_res(ctx, x.star(), *g))
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
            certificates[f"projection[{label}]"] = max(
                ctx.wres(d) for d in projection_defects(pair_product(p, q))
            )
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
    rep1, rep2 = halmos_wallen(x1, ctx.cfg), halmos_wallen(x2, ctx.cfg)
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
        certificates["block[t]"] = max(_grading_res(ctx, y, *f), _commute_res(ctx, y, p_t))
    literal_agrees = proj_leq(p_u, proj_sup([p_is, p_cis])) if p_u.rank else True
    block_classes = {"u": "unitary pair", "is": "isometry pair",
                     "cis": "co-isometry pair", "t": "product truncated-shifts"}
    return DecompositionReport(
        method="hw-pair-product", basis=basis, block_classes=block_classes,
        certificates=certificates,
        extras={"literal_sup_agrees": literal_agrees},
    )


def _product_ppi_constraint(ctx: _Ctx, x1: Element, x2: Element) -> Projection:
    """∩_n (1 - [[x1^n][x2*^n] - [x2*^n][x1^n]]) over the commutator defects.

    [x1^n] and [x2*^n] are decreasing chains, so once both ranks repeat
    the defects repeat too and the constraint is fixed.  Each defect d is
    skew-adjoint, so 1 - [d] is ker d* = ker d, and the constraint is the
    one right annihilator R of all the defects, a single stacked kernel.
    """
    defects = []
    x2_star = x2.star()
    fwd, bwd = x1, x2_star
    ranks = None
    for n in range(ctx.cap):
        if n:
            fwd = fwd @ x1
            bwd = bwd @ x2_star
        pn = left_projection(fwd)
        qn = left_projection(bwd)
        if (pn.rank, qn.rank) == ranks:
            return right_annihilator_projection(defects)
        ranks = (pn.rank, qn.rank)
        defects.append(pn.element @ qn.element - qn.element @ pn.element)
    raise IndeterminateError("product-PPI constraint chains did not stabilise within the cap")


def largest_product_ppi(x1: Element, x2: Element, cfg: EngineConfig | None = None) -> Projection:
    """Largest commuting projection whose corner makes x1 x2 a PPI."""
    ctx = _Ctx(x1, cfg)
    _require(ctx.commute_ok(x1, x2), "largest_product_ppi requires a commuting pair")
    _require(_ppi_on_window(ctx, x1) and _ppi_on_window(ctx, x2),
             "largest_product_ppi requires power partial isometries")
    p = reducing_fixpoint([x1, x2], _product_ppi_constraint(ctx, x1, x2), ctx.cfg)
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
    return _invariant_core(ctx, [x.mat, x.star().mat], meet, "nfl unitary part")


def nfl(x: Element, cfg: EngineConfig | None = None) -> DecompositionReport:
    """Unitary / completely-non-unitary split of a contraction."""
    ctx = _Ctx(x, cfg)
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
    return _product_basis(ctx, "nfl-pair", nfl(x1, ctx.cfg), nfl(x2, ctx.cfg), "")


def largest_doubly_commuting(x1: Element, x2: Element, cfg: EngineConfig | None = None) -> Projection:
    """Largest commuting projection whose corner makes the pair doubly commute."""
    ctx = _Ctx(x1, cfg)
    _require(ctx.commute_ok(x1, x2), "largest_doubly_commuting requires a commuting pair")
    # 1 - [x2 x1* - x1* x2] is R of its adjoint, the defect checked below
    defect = x1 @ x2.star() - x2.star() @ x1
    p = reducing_fixpoint([x1, x2], right_annihilator_projection([defect]), ctx.cfg)
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
