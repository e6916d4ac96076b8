"""All decomposition algorithms, each emitting a report with certificates.

Infinite infima and series are replaced by stabilisation detection.  A
range chain ∧ₙ[xⁿ] is constant from some index k ≤ dim on (Fitting's
lemma).  It is walked in doubling steps: the basis spans x^(2^j - 1) of the
start and moves by x^(2^j), kept by squaring.  The first step that keeps
the rank shows x injective there, so the chain is fixed; this takes at most
⌈log₂(k + 1)⌉ + 1 factorisations.  The weak bi-shift wandering subspaces
and the NFL kernels form nested chains, so one repeated rank marks their
fixpoint; the wandering series ends when its term vanishes.  The iteration
cap is max(n_max, dim + 1), and a chain still moving at the cap raises
IndeterminateError instead of silently truncating.
Certificate residuals are measured after compression to the probe window
when the input came from a truncated symbolic operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import subspaces
from .domains import DomainKind, ScalarDomain
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
    proj_inf,
    proj_leq,
    proj_sup,
    zero_projection,
)


@dataclass(frozen=True)
class EngineConfig:
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
    """Shared state: domain, tolerance, window compression, chain cap."""

    def __init__(self, x: Element, cfg: EngineConfig):
        self.domain = x.domain
        self.dim = x.dim
        self.cfg = cfg
        self.window = cfg.window.element if cfg.window is not None else None
        if self.domain.exact:
            self.tol = 0.0
        else:
            self.tol = self.domain.tol.eps_eq * self.dim
        self.cap = max(cfg.n_max, self.dim + 1)
        self.one = identity(self.domain, self.dim)

    def compress(self, e: Element) -> Element:
        if self.window is None:
            return e
        return self.window @ e @ self.window

    def wres(self, e: Element) -> float:
        return self.compress(e).norm()

    def ok(self, e: Element) -> bool:
        if self.domain.exact and self.window is None:
            return e.is_zero()
        return self.wres(e) <= self.tol

    def commute_ok(self, a: Element, b: Element) -> bool:
        return self.ok(a @ b - b @ a)

    def invariant_ok(self, p: Projection, x: Element) -> bool:
        xp = x @ p.element
        return self.ok(xp - p.element @ xp)


def _range_chain_inf(ctx: _Ctx, x: Element, start: np.ndarray | None = None) -> Projection:
    """Stabilised infimum of the decreasing chain of ranges of x^n (start).

    basis spans x^step (start) with step = 2^j - 1; one step applies
    pw = x^(2^j).  If pw keeps the rank of basis, x is injective on it and
    the chain is fixed from step on.
    """
    basis = start if start is not None else ctx.one.mat
    pw = x
    step = 0
    while True:
        nxt = subspaces.orth(ctx.domain, pw.mat @ basis)
        if subspaces.dim_of(nxt) == subspaces.dim_of(basis):
            return from_basis(ctx.domain, ctx.dim, nxt)
        if step >= ctx.cap:
            raise IndeterminateError("range chain did not stabilise within the cap")
        basis = nxt
        step = 2 * step + 1
        pw = pw @ pw


def _wandering_series(ctx: _Ctx, x: Element) -> Projection:
    """Stabilised orthogonal series sum of [x^n (1 - [x])]."""
    term = subspaces.nullspace(ctx.domain, x.star().mat)  # range of 1 - [x]
    pieces = []
    for _ in range(ctx.cap + 1):
        if subspaces.dim_of(term) == 0:
            joined = (
                np.concatenate(pieces, axis=1)
                if pieces
                else subspaces.empty_basis(ctx.domain, ctx.dim)
            )
            return from_basis(ctx.domain, ctx.dim, subspaces.orth(ctx.domain, joined))
        pieces.append(term)
        term = subspaces.orth(ctx.domain, x.mat @ term)
    raise IndeterminateError("wandering series did not terminate within the cap")


def _complement_of_range(ctx: _Ctx, a: Element) -> Projection:
    """1 - [a], realised as the projection onto ker(a*)."""
    return from_basis(ctx.domain, ctx.dim, subspaces.nullspace(ctx.domain, a.star().mat))


def _kernel_projection(ctx: _Ctx, a: Element) -> Projection:
    return from_basis(ctx.domain, ctx.dim, subspaces.nullspace(ctx.domain, a.mat))


def _difference_projection(ctx: _Ctx, big: Projection, small: Projection) -> Projection:
    """big - small for small <= big, returned as a checked projection."""
    return from_element(big.element - small.element)


def reducing_fixpoint(ops: list, e: Projection, cfg: EngineConfig | None = None) -> Projection:
    """Largest projection <= e commuting with every listed operator.

    Subspace iteration M <- M ∩ (∩_a a^{-1} M) over ops and their adjoints;
    rank strictly decreases until the fixpoint, so termination is immediate.
    """
    ctx = _Ctx(e.element, cfg or EngineConfig())
    allops = [a.mat for a in ops] + [a.star().mat for a in ops]
    basis = e.range_basis
    while True:
        if subspaces.dim_of(basis) == 0:
            return zero_projection(ctx.domain, ctx.dim)
        nxt = basis
        for m in allops:
            nxt = subspaces.intersect(ctx.domain, nxt, subspaces.preimage(ctx.domain, m, basis))
        if subspaces.dim_of(nxt) == subspaces.dim_of(basis):
            return from_basis(ctx.domain, ctx.dim, nxt)
        basis = nxt


def _require(cond: bool, message: str):
    if not cond:
        raise PreconditionError(message)


def _isometry_on_window(ctx: _Ctx, x: Element) -> bool:
    return ctx.ok(x.star() @ x - ctx.one)


def _ppi_on_window(ctx: _Ctx, x: Element) -> bool:
    pw = x
    for n in range(1, min(ctx.cfg.n_max, ctx.dim) + 1):
        if n > 1:
            pw = pw @ x
        if not ctx.ok(pw @ pw.star() @ pw - pw):
            return False
    return True


def _corner_unitary_res(ctx: _Ctx, x: Element, p: Projection) -> float:
    pe = p.element
    return max(
        ctx.wres(pe @ x.star() @ x @ pe - pe),
        ctx.wres(pe @ x @ x.star() @ pe - pe),
    )


def _corner_shift_res(ctx: _Ctx, x: Element, p: Projection) -> float:
    """Residual of the pure-shift certificate inf [ (xp)^n ] = 0 in the corner."""
    y = p.element @ x @ p.element
    inf_proj = _range_chain_inf(ctx, y, start=p.range_basis)
    return max(ctx.wres(p.element @ x.star() @ x @ p.element - p.element), ctx.wres(inf_proj.element))


def _corner_backshift_res(ctx: _Ctx, x: Element, p: Projection) -> float:
    return _corner_shift_res(ctx, x.star(), p)


def _corner_truncated_res(ctx: _Ctx, x: Element, p: Projection) -> float:
    y = p.element @ x @ p.element
    fwd = _range_chain_inf(ctx, y, start=p.range_basis)
    bwd = _range_chain_inf(ctx, y.star(), start=p.range_basis)
    return max(ctx.wres(fwd.element), ctx.wres(bwd.element))


# ---------------------------------------------------------------- Wold


def wold(x: Element, cfg: EngineConfig | None = None) -> DecompositionReport:
    """Split an isometry into its unitary and unilateral-shift parts."""
    cfg = cfg or EngineConfig()
    ctx = _Ctx(x, cfg)
    _require(_isometry_on_window(ctx, x), "wold requires an isometry (on the probe window)")
    p_u = _range_chain_inf(ctx, x)
    p_s = _wandering_series(ctx, x)
    certificates = {
        "sum_to_one": ctx.wres(p_u.element + p_s.element - ctx.one),
        "orth": ctx.wres(p_u.element @ p_s.element),
        "commute_u": ctx.wres(x @ p_u.element - p_u.element @ x),
        "commute_s": ctx.wres(x @ p_s.element - p_s.element @ x),
        "unitary_corner": _corner_unitary_res(ctx, x, p_u),
        "shift_corner": _corner_shift_res(ctx, x, p_s),
    }
    return DecompositionReport(
        method="wold",
        basis=ProjectionBasis((("u", p_u), ("s", p_s))),
        block_classes={"u": "unitary", "s": "unilateral-shift"},
        certificates=certificates,
    )


# ---------------------------------------------------- Slocinski pairs


def _wold_parts(ctx: _Ctx, x: Element, cfg: EngineConfig):
    rep = wold(x, cfg)
    return rep.basis["u"], rep.basis["s"]


def slocinski(x1: Element, x2: Element, cfg: EngineConfig | None = None) -> DecompositionReport:
    """Evaluate the six equivalent fourfold-decomposition conditions.

    All six are computed independently; disagreement is a hard internal
    error.  When they hold, the emitted basis is {p_uu, p_us, p_su, p_ss}
    with per-coordinate block certificates.
    """
    cfg = cfg or EngineConfig()
    ctx = _Ctx(x1, cfg)
    _require(_isometry_on_window(ctx, x1) and _isometry_on_window(ctx, x2),
             "slocinski requires two isometries")
    _require(ctx.commute_ok(x1, x2), "slocinski requires a commuting pair")
    pu1, ps1 = _wold_parts(ctx, x1, cfg)
    pu2, ps2 = _wold_parts(ctx, x2, cfg)
    parts1 = {"u": pu1, "s": ps1}
    parts2 = {"u": pu2, "s": ps2}

    fixpoints = {}
    for a in "us":
        for b in "us":
            seed = proj_inf([parts1[a], parts2[b]])
            fixpoints[a + b] = reducing_fixpoint([x1, x2], seed, cfg)

    total = sum((fixpoints[k].element for k in ("us", "su", "ss")), fixpoints["uu"].element)
    c1 = ctx.ok(total - ctx.one)

    c2 = True
    for a in "us":
        for b in "us":
            prod = parts1[a].element @ parts2[b].element
            c2 = c2 and ctx.ok(prod @ prod - prod) and ctx.ok(prod.star() - prod)
            c2 = c2 and ctx.ok(prod - fixpoints[a + b].element)

    c3 = all(ctx.commute_ok(x1, parts2[a].element) for a in "us") and all(
        ctx.commute_ok(x2, parts1[a].element) for a in "us"
    )
    c4 = ctx.invariant_ok(ps1, x2) and ctx.invariant_ok(ps2, x1)
    c5 = all(ctx.commute_ok(x1, parts2[a].element) for a in "us") and (
        ctx.commute_ok(x2, pu1.element @ ps2.element)
        or ctx.commute_ok(x2, ps1.element @ ps2.element)
    )
    x12 = x1 @ x2
    c6 = ctx.invariant_ok(ps1, x12) and ctx.invariant_ok(ps2, x12)

    vector = (c1, c2, c3, c4, c5, c6)
    if len(set(vector)) != 1:
        raise InternalInconsistencyError(f"six-condition disagreement: {vector}")
    holds = vector[0]

    if not holds:
        return DecompositionReport(
            method="slocinski", basis=None, block_classes={}, certificates={},
            condition_vector=vector, holds=False,
        )

    members = []
    block_classes = {}
    certificates = {}
    for a in "us":
        for b in "us":
            label = a + b
            p = proj_inf([parts1[a], parts2[b]])
            members.append((label, p))
            block_classes[label] = {"x1": "unitary" if a == "u" else "unilateral-shift",
                                    "x2": "unitary" if b == "u" else "unilateral-shift"}
            if p.rank:
                res1 = _corner_unitary_res(ctx, x1, p) if a == "u" else _corner_shift_res(ctx, x1, p)
                res2 = _corner_unitary_res(ctx, x2, p) if b == "u" else _corner_shift_res(ctx, x2, p)
                certificates[f"block[{label}]"] = max(res1, res2)
    basis = ProjectionBasis(tuple(members))
    certificates.update({f"basis_{k}": v for k, v in basis.residuals().items()})
    return DecompositionReport(
        method="slocinski", basis=basis, block_classes=block_classes,
        certificates=certificates, condition_vector=vector, holds=True,
    )


def corollary_check(x1: Element, x2: Element, cfg: EngineConfig | None = None) -> bool:
    """holds(x1,x2) must equal holds(x1, x1 x2) and holds(x2, x1 x2)."""
    cfg = cfg or EngineConfig()
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

    K_(n+1) = K_1 ∩ a^{-1} K_n, so one repeated rank means the chain is fixed.
    """
    a_star = a.star()
    y = b
    acc = _complement_of_range(ctx, b)
    for _ in range(ctx.cap):
        y = a_star @ y
        nxt = proj_inf([acc, _complement_of_range(ctx, y)])
        if nxt.rank == acc.rank:
            return nxt
        acc = nxt
    raise IndeterminateError("mixed wandering subspace did not stabilise within the cap")


def weak_bishift(x1: Element, x2: Element, cfg: EngineConfig | None = None) -> DecompositionReport:
    """The fourfold basis {p_uu, p_us, p_su, p_ws} that always exists."""
    cfg = cfg or EngineConfig()
    ctx = _Ctx(x1, cfg)
    _require(_isometry_on_window(ctx, x1) and _isometry_on_window(ctx, x2),
             "weak_bishift requires two isometries")
    _require(ctx.commute_ok(x1, x2), "weak_bishift requires a commuting pair")

    w_us = _mixed_wandering(ctx, x1, x2)
    w_su = _mixed_wandering(ctx, x2, x1)

    pu1, ps1 = _wold_parts(ctx, x1, cfg)
    pu2, ps2 = _wold_parts(ctx, x2, cfg)
    x12 = x1 @ x2
    p_uu = _range_chain_inf(ctx, x12)
    p_us = reducing_fixpoint([x1, x2], proj_inf([pu1, ps2]), cfg)
    p_su = reducing_fixpoint([x1, x2], proj_inf([ps1, pu2]), cfg)
    p_ws = from_element(ctx.one - (p_uu.element + p_us.element + p_su.element))

    m_us = _range_chain_inf(ctx, x1, start=w_us.range_basis)
    m_su = _range_chain_inf(ctx, x2, start=w_su.range_basis)
    we, pe = w_us.element, p_ws.element
    certificates = {
        "w_us_invariant": ctx.wres(x1 @ we - we @ x1 @ we),
        "w_su_invariant": ctx.wres(x2 @ w_su.element - w_su.element @ x2 @ w_su.element),
        "w_us_isometry_corner": ctx.wres(we @ x1.star() @ we @ x1 @ we - we),
        "w_su_isometry_corner": ctx.wres(
            w_su.element @ x2.star() @ w_su.element @ x2 @ w_su.element - w_su.element
        ),
        "shift_product": ctx.wres(pe @ p_uu.element),
        "shift_x1_w_us": ctx.wres(pe @ m_us.element),
        "shift_x2_w_su": ctx.wres(pe @ m_su.element),
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


def halmos_wallen(x: Element, cfg: EngineConfig | None = None) -> DecompositionReport:
    """Fourfold split of a power partial isometry: {u, s, b, t}."""
    cfg = cfg or EngineConfig()
    ctx = _Ctx(x, cfg)
    _require(_ppi_on_window(ctx, x), "halmos_wallen requires a power partial isometry")
    i_fwd = _range_chain_inf(ctx, x)
    i_bwd = _range_chain_inf(ctx, x.star())
    p_u = proj_inf([i_fwd, i_bwd])
    p_s = _difference_projection(ctx, i_bwd, p_u)
    p_b = _difference_projection(ctx, i_fwd, p_u)
    p_t = from_element(ctx.one - (i_fwd.element + i_bwd.element - p_u.element))
    basis = ProjectionBasis((("u", p_u), ("s", p_s), ("b", p_b), ("t", p_t)))
    certificates = {f"basis_{k}": v for k, v in basis.residuals().items()}
    for lbl, p in basis.members:
        certificates[f"commute[{lbl}]"] = ctx.wres(x @ p.element - p.element @ x)
    corner = {
        "u": _corner_unitary_res,
        "s": _corner_shift_res,
        "b": _corner_backshift_res,
        "t": _corner_truncated_res,
    }
    for lbl, p in basis.members:
        if p.rank:
            certificates[f"block[{lbl}]"] = corner[lbl](ctx, x, p)
    block_classes = {"u": "unitary", "s": "unilateral-shift",
                     "b": "backward-shift", "t": "truncated-shifts"}
    return DecompositionReport(
        method="hw", basis=basis, block_classes=block_classes, certificates=certificates,
    )


def hw_pair_doubly(x1: Element, x2: Element, cfg: EngineConfig | None = None) -> DecompositionReport:
    """Sixteen-fold product basis for a doubly commuting pair of PPIs."""
    cfg = cfg or EngineConfig()
    ctx = _Ctx(x1, cfg)
    _require(ctx.commute_ok(x1, x2) and ctx.commute_ok(x1, x2.star()),
             "hw_pair_doubly requires a doubly commuting pair")
    rep1 = halmos_wallen(x1, cfg)
    rep2 = halmos_wallen(x2, cfg)
    members = []
    block_classes = {}
    certificates = {}
    names = {"u": "unitary", "s": "unilateral-shift", "b": "backward-shift", "t": "truncated-shifts"}
    for l1, p in rep1.basis.members:
        for l2, q in rep2.basis.members:
            label = f"{l1}.{l2}"
            prod = p.element @ q.element
            certificates[f"projection[{label}]"] = max(
                ctx.wres(prod @ prod - prod), ctx.wres(prod.star() - prod)
            )
            members.append((label, proj_inf([p, q])))
            block_classes[label] = {"x1": names[l1], "x2": names[l2]}
    basis = ProjectionBasis(tuple(members))
    certificates.update({f"basis_{k}": v for k, v in basis.residuals().items()})
    return DecompositionReport(
        method="hw-pair-doubly", basis=basis, block_classes=block_classes,
        certificates=certificates,
    )


def _lemma_certificates(ctx: _Ctx, x1: Element, x2: Element) -> dict:
    """Residuals of the two power-walking identities used by the pair split."""
    out = {}
    top = min(ctx.cfg.n_max, ctx.dim)
    for label, x in (("x1", x1), ("x2", x2)):
        x_star = x.star()
        lp_star = left_projection(x_star).element
        xn1 = ctx.one  # x^(n-1)
        xsn = x_star  # (x*)^n
        for n in range(1, top + 1):
            if n > 1:
                xn1 = xn1 @ x
                xsn = xsn @ x_star
            lp_n = left_projection(xsn).element
            out[f"lemmaA1[{label},n={n}]"] = ctx.wres(lp_star @ xn1 @ lp_n - xn1 @ lp_n)
    # [y^n] for n = 0..top, y = x1 x2; shared by both labels
    y = x1 @ x2
    lp_y = [left_projection(ctx.one).element]
    yn = ctx.one
    for _ in range(top):
        yn = yn @ y
        lp_y.append(left_projection(yn).element)
    for label, x in (("x1", x1), ("x2", x2)):
        x_star = x.star()
        for n in range(1, top + 1):
            lhs = left_projection(x_star @ lp_y[n]).element
            out[f"lemmaA2[{label},n={n}]"] = ctx.wres(lhs @ lp_y[n - 1] - lhs)
    return out


def hw_pair_product(x1: Element, x2: Element, cfg: EngineConfig | None = None) -> DecompositionReport:
    """Basis {p_u, p_is, p_cis, p_t} for commuting PPIs with PPI product."""
    cfg = cfg or EngineConfig()
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
    t_cis = _range_chain_inf(ctx, y)
    t_is = _range_chain_inf(ctx, y.star())
    p_u = proj_inf([t_is, t_cis])
    p_is = _difference_projection(ctx, t_is, p_u)
    p_cis = _difference_projection(ctx, t_cis, p_u)
    p_t = from_element(ctx.one - (t_is.element + t_cis.element - p_u.element))
    basis = ProjectionBasis((("u", p_u), ("is", p_is), ("cis", p_cis), ("t", p_t)))
    certificates = {f"basis_{k}": v for k, v in basis.residuals().items()}
    certificates.update(_lemma_certificates(ctx, x1, x2))
    if p_u.rank:
        certificates["block[u]"] = max(_corner_unitary_res(ctx, x1, p_u),
                                       _corner_unitary_res(ctx, x2, p_u))
    if p_is.rank:
        certificates["block[is]"] = max(
            ctx.wres(p_is.element @ x.star() @ x @ p_is.element - p_is.element) for x in (x1, x2)
        )
    if p_cis.rank:
        certificates["block[cis]"] = max(
            ctx.wres(p_cis.element @ x @ x.star() @ p_cis.element - p_cis.element) for x in (x1, x2)
        )
    if p_t.rank:
        certificates["block[t]"] = _corner_truncated_res(ctx, y, p_t)
    literal_agrees = proj_leq(p_u, proj_sup([p_is, p_cis])) if p_u.rank else True
    block_classes = {"u": "unitary pair", "is": "isometry pair",
                     "cis": "co-isometry pair", "t": "product truncated-shifts"}
    return DecompositionReport(
        method="hw-pair-product", basis=basis, block_classes=block_classes,
        certificates=certificates,
        extras={"literal_sup_agrees": literal_agrees},
    )


def largest_product_ppi(x1: Element, x2: Element, cfg: EngineConfig | None = None) -> Projection:
    """Largest commuting projection whose corner makes x1 x2 a PPI."""
    cfg = cfg or EngineConfig()
    ctx = _Ctx(x1, cfg)
    _require(ctx.commute_ok(x1, x2), "largest_product_ppi requires a commuting pair")
    _require(_ppi_on_window(ctx, x1) and _ppi_on_window(ctx, x2),
             "largest_product_ppi requires power partial isometries")
    constraint = identity_projection(ctx.domain, ctx.dim)
    for n in range(1, ctx.cap + 1):
        pn = left_projection(x1.power(n)).element
        qn = left_projection(x2.star().power(n)).element
        defect = pn @ qn - qn @ pn
        constraint = proj_inf([constraint, _complement_of_range(ctx, defect)])
    p = reducing_fixpoint([x1, x2], constraint, cfg)
    y = p.element @ x1 @ x2 @ p.element
    pw = y
    for n in range(1, min(ctx.cfg.n_max, ctx.dim) + 1):
        if n > 1:
            pw = pw @ y
        if not ctx.ok(pw @ pw.star() @ pw - pw):
            raise InternalInconsistencyError("compressed product failed its PPI certificate")
    return p


# ------------------------------------------------------- contractions


def _axiom_gate(domain: ScalarDomain):
    if domain.kind is DomainKind.GF:
        from .exactrings import axiom_probe

        report = axiom_probe(domain)
        if not (report.smooth or report.antisymmetric):
            raise AxiomViolationError(
                f"{domain} is neither smooth nor antisymmetric; the unitary/completely-"
                "non-unitary split is not available"
            )


def _positive(e: Element) -> bool:
    if e.domain.kind is DomainKind.COMPLEX:
        from .floatring import is_positive_float

        return is_positive_float(e)
    from .exactrings import is_positive

    return is_positive(e)


def _nfl_unitary_part(ctx: _Ctx, x: Element) -> Projection:
    """∩_n K+_n ∩ K-_n with K+_n = ker(1 - x*^n x^n), K-_n = ker(1 - x^n x*^n).

    For a contraction both chains are nested and K+_(n+1) = K+_1 ∩ x^{-1} K+_n
    (likewise K-), so once both ranks repeat neither chain moves again.
    """
    p_u = identity_projection(ctx.domain, ctx.dim)
    x_star = x.star()
    fwd = ctx.one
    bwd = ctx.one
    ranks = None
    for _ in range(1, ctx.cap + 1):
        fwd = fwd @ x
        bwd = bwd @ x_star
        q_pos = _kernel_projection(ctx, ctx.one - fwd.star() @ fwd)
        q_neg = _kernel_projection(ctx, ctx.one - bwd.star() @ bwd)
        if (q_pos.rank, q_neg.rank) == ranks:
            return p_u
        ranks = (q_pos.rank, q_neg.rank)
        p_u = proj_inf([p_u, q_pos, q_neg])
        if p_u.rank == 0:
            return p_u
    raise IndeterminateError("nfl kernel chains did not stabilise within the cap")


def nfl(x: Element, cfg: EngineConfig | None = None) -> DecompositionReport:
    """Unitary / completely-non-unitary split of a contraction."""
    cfg = cfg or EngineConfig()
    ctx = _Ctx(x, cfg)
    _axiom_gate(ctx.domain)
    _require(_positive(ctx.one - x.star() @ x) and _positive(ctx.one - x @ x.star()),
             "nfl requires a contraction (1 - x*x and 1 - xx* positive)")
    p_u = _nfl_unitary_part(ctx, x)
    p_c = p_u.complement()
    certificates = {
        "commute_u": ctx.wres(x @ p_u.element - p_u.element @ x),
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
    """Residual norm of the unitary part of the compression to p_c."""
    y = p_c.element @ x @ p_c.element
    part = p_c.range_basis
    fwd = y
    bwd = y.star()
    for _ in range(1, ctx.cap + 1):
        k_pos = subspaces.nullspace(ctx.domain, (p_c.element - fwd.star() @ fwd).mat)
        k_neg = subspaces.nullspace(ctx.domain, (p_c.element - bwd.star() @ bwd).mat)
        part = subspaces.intersect(ctx.domain, part, k_pos)
        part = subspaces.intersect(ctx.domain, part, k_neg)
        if subspaces.dim_of(part) == 0:
            return 0.0
        fwd = fwd @ y
        bwd = bwd @ y.star()
    return ctx.wres(from_basis(ctx.domain, ctx.dim, part).element)


def nfl_pair_doubly(x1: Element, x2: Element, cfg: EngineConfig | None = None) -> DecompositionReport:
    """Fourfold product basis for a doubly commuting pair of contractions."""
    cfg = cfg or EngineConfig()
    ctx = _Ctx(x1, cfg)
    _require(ctx.commute_ok(x1, x2) and ctx.commute_ok(x1, x2.star()),
             "nfl_pair_doubly requires a doubly commuting pair")
    rep1 = nfl(x1, cfg)
    rep2 = nfl(x2, cfg)
    members = []
    block_classes = {}
    certificates = {}
    names = {"u": "unitary", "c": "completely-non-unitary"}
    for l1, p in rep1.basis.members:
        for l2, q in rep2.basis.members:
            label = l1 + l2
            prod = p.element @ q.element
            certificates[f"projection[{label}]"] = max(
                ctx.wres(prod @ prod - prod), ctx.wres(prod.star() - prod)
            )
            members.append((label, proj_inf([p, q])))
            block_classes[label] = {"x1": names[l1], "x2": names[l2]}
    basis = ProjectionBasis(tuple(members))
    certificates.update({f"basis_{k}": v for k, v in basis.residuals().items()})
    return DecompositionReport(
        method="nfl-pair", basis=basis, block_classes=block_classes, certificates=certificates,
    )


def largest_doubly_commuting(x1: Element, x2: Element, cfg: EngineConfig | None = None) -> Projection:
    """Largest commuting projection whose corner makes the pair doubly commute."""
    cfg = cfg or EngineConfig()
    ctx = _Ctx(x1, cfg)
    _require(ctx.commute_ok(x1, x2), "largest_doubly_commuting requires a commuting pair")
    defect = x2 @ x1.star() - x1.star() @ x2
    e = _complement_of_range(ctx, defect)
    p = reducing_fixpoint([x1, x2], e, cfg)
    pe = p.element
    if not (ctx.ok(pe @ (x1 @ x2.star() - x2.star() @ x1) @ pe)
            and ctx.ok(pe @ (x1 @ x2 - x2 @ x1) @ pe)):
        raise InternalInconsistencyError("compression failed its doubly-commuting certificate")
    return p


# -------------------------------------------------- maximality probes


def maximality_probe(p: Projection, ops: list, predicate, rng, tries: int = 20) -> bool:
    """Try rank-one enlargements of p along random complement directions.

    Returns True when no enlargement both commutes with every op and passes
    the predicate (i.e. p survives falsification).
    """
    domain = p.domain
    comp = p.complement()
    if comp.rank == 0:
        return True
    for _ in range(tries):
        if domain.kind is DomainKind.COMPLEX:
            v = comp.element.mat @ (rng.standard_normal(p.dim) + 1j * rng.standard_normal(p.dim))
            nrm = np.vdot(v, v).real
            if nrm < 1e-12:
                continue
            cand_mat = p.element.mat + np.outer(v, v.conj()) / nrm
        else:
            raw = np.array([domain.coerce(int(c)) for c in rng.integers(-9, 10, size=p.dim)],
                           dtype=object)
            v = comp.element.mat @ raw
            nrm = sum(c * c for c in v)
            if domain.kind is DomainKind.GF:
                if nrm % domain.p == 0:
                    continue
                cand_mat = p.element.mat + np.outer(v, v) * domain.inv(nrm)
            else:
                if nrm == 0:
                    continue
                cand_mat = p.element.mat + np.outer(v, v) / nrm
        try:
            cand = from_element(Element(domain, cand_mat))
        except PreconditionError:
            continue
        if all((a @ cand.element).equals(cand.element @ a) for a in ops) and predicate(cand):
            return False
    return True
