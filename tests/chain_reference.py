"""Stepped reference versions of the engine's stabilised chains.

Each function walks its chain one index at a time, and runs on to the cap
where the engine stops at a detected fixpoint.  The stepped range chain
∧[xⁿ] (`stepped_range_chain_inf`) is the reference for every infimum the
engine reads off Wold's parts instead: the Wold unitary part, where the
engine takes the complement of the shift part; a series corner, certified
by the range chain of p x p where the engine reads the series' grading
(and, for a Słociński block p <= s_x, the grading of s_x); weak
bi-shift's p_uu, the chain of x1 x2, where the engine takes the reducing
fixpoint of u1 ∧ u2; and its m_us and m_su, the chains of x1 from W_us
and of x2 from W_su, where the engine takes the meets W_us ∧ u1 and
W_su ∧ u2.  The Halmos–Wallen and product-PPI
split is built from the range chains of y and of y*, where the engine takes
two wandering series seeded in the probe window; the chain split is the
reference on exact inputs only, since on a truncation a shift and its
adjoint are both nilpotent and every tail lands in t.  The lemma residuals
and the product-PPI constraint take every power from Element.power (the
engine reads the constraint's range projections off two wandering
series), and
the cnu corner keeps its own kernel loop instead of reusing the NFL one.
The reducing fixpoint meets each operator's full preimage with the
subspace, and the PPI precondition forms every power of x whole, where the
engine reads x's monomial components in closed form.

The float subspace steps have references of their own: the wandering
series takes one orth per step, the meet is the kernel of the stacked
matrix [b1, -b2] followed by an orth, every float kernel comes from the
full SVD, the mixed wandering subspace carries the power a*ⁿb and meets
its kernel at every step, and projection products are dense.
`subspace_step_references` swaps in these alone; `reference_engine` swaps
in every reference, so a whole decomposition can be run both ways and
compared.  Every reference replaces a helper that some method calls, so
each is reached by one of the two routes.
"""

from __future__ import annotations

import numpy as np

from stardecomp import engine, linalg, subspaces
from stardecomp.errors import IndeterminateError
from stardecomp.projections import (
    Projection,
    from_basis,
    from_element,
    identity_projection,
    left_projection,
    proj_inf,
    right_annihilator_projection,
    zero_projection,
)


def stepped_range_chain_inf(ctx, x, start=None):
    """One factorisation per chain index: basis <- orth(x @ basis)."""
    basis = start if start is not None else subspaces.orth(ctx.domain, ctx.one.mat)
    for _ in range(ctx.cap + 1):
        nxt = subspaces.orth(ctx.domain, x.mat @ basis)
        if nxt.shape[1] == basis.shape[1]:
            return from_basis(ctx.domain, nxt)
        basis = nxt
    raise IndeterminateError("range chain did not stabilise within the cap")


def stepped_wandering_series(ctx, x, term):
    """A basis of the wandering series with one orth per step and one for
    the join, returned with its blocks and no record, as the engine's
    unwalked series is."""
    pieces = []
    for _ in range(ctx.cap + 1):
        if term.shape[1] == 0:
            joined = np.concatenate(pieces, axis=1) if pieces else ctx.domain.zeros(ctx.dim, 0)
            return engine._Series(subspaces.orth(ctx.domain, joined), pieces)
        pieces.append(term)
        term = subspaces.orth(ctx.domain, x.mat @ term)
    raise IndeterminateError("wandering series did not terminate within the cap")


def chain_wold_parts(ctx, x):
    """The Wold parts with the unitary part built as the range chain
    ∧[xⁿ], walked one index at a time, and the shift part as the stepped
    series from ker x*, returned as its series; the engine takes u as the
    complement of s."""
    series = stepped_wandering_series(ctx, x, subspaces.nullspace(ctx.domain, x.star().mat))
    return stepped_range_chain_inf(ctx, x), from_basis(ctx.domain, series.basis), series


def chain_shift_corner_res(ctx, x, series):
    """The residual ∧[(pxp)ⁿ] of the corner p onto the span of the series'
    basis by the stepped range chain of p x p, whatever grading its blocks
    and record give."""
    p = from_basis(ctx.domain, series.basis)
    inf_proj = stepped_range_chain_inf(ctx, p.product(x), start=p.range_basis)
    return ctx.wres(inf_proj.element)


def chain_pair_split(ctx, y):
    """The fourfold split by the stepped range chains of y and of y*: with
    fwd = ∧[yⁿ] and bwd = ∧[y*ⁿ], u = fwd ∧ bwd, then bwd - u, fwd - u and
    the remainder.  The series f = s + t and g = b + t that the engine
    returns beside the parts are the bases of 1 - fwd and 1 - bwd here,
    with no blocks and no record;
    `chain_shift_corner_res` walks its own chain in place of a grading."""
    fwd = stepped_range_chain_inf(ctx, y)
    bwd = stepped_range_chain_inf(ctx, y.star())
    p_u = proj_inf([fwd, bwd])
    parts = (
        p_u,
        from_element(bwd.element - p_u.element),
        from_element(fwd.element - p_u.element),
        from_element(ctx.one - (fwd.element + bwd.element - p_u.element)),
    )
    return (parts, engine._Series(fwd.complement().range_basis, []),
            engine._Series(bwd.complement().range_basis, []))


def full_svd_nullspace(domain, mat):
    """The kernel, from the full SVD for floats whatever the shape."""
    if domain.exact:
        return linalg.nullspace(domain, mat)
    _, s, vh = np.linalg.svd(mat)
    return vh[subspaces._rank_cut(s, domain.tol.eps_rank):].conj().T


def stacked_intersect(domain, b1, b2):
    """span(b1) ∩ span(b2) as b1 times the top of ker [b1, -b2], then orth."""
    if b1.shape[1] == 0 or b2.shape[1] == 0:
        return domain.zeros(b1.shape[0], 0)
    ker = full_svd_nullspace(domain, np.concatenate([b1, -b2], axis=1))
    if ker.shape[1] == 0:
        return domain.zeros(b1.shape[0], 0)
    return subspaces.orth(domain, b1 @ ker[: b1.shape[1]])


def mixed_wandering_by_meets(ctx, a, b):
    """K_(n+1) = K_n ∩ ker (a*ⁿ b)*, the power a*ⁿ b carried from step to
    step and each meet a stacked kernel."""
    y = b
    acc = right_annihilator_projection([b.star()])
    for _ in range(ctx.cap):
        y = a.star() @ y
        comp = right_annihilator_projection([y.star()])
        nxt = from_basis(ctx.domain, stacked_intersect(ctx.domain, acc.range_basis,
                                                       comp.range_basis))
        if nxt.rank == acc.rank:
            return nxt
        acc = nxt
    raise IndeterminateError("mixed wandering subspace did not stabilise within the cap")


def dense_product(p, a, side="both"):
    """p a, a p or p a p as dense products."""
    if side == "left":
        return p.element @ a
    return a @ p.element if side == "right" else p.element @ a @ p.element


def mixed_wandering_to_cap(ctx, a, b):
    """inf over n <= cap of (1 - [a^{*n} b]), with no fixpoint exit."""
    acc = None
    y = b
    for _ in range(ctx.cap + 1):
        comp = right_annihilator_projection([y.star()])
        acc = comp if acc is None else proj_inf([acc, comp])
        y = a.star() @ y
    return acc


def _kernel_projection(ctx, a):
    return from_basis(ctx.domain, subspaces.nullspace(ctx.domain, a.mat))


def nfl_unitary_part_to_cap(ctx, x):
    """∩_{n <= cap} of the NFL kernels, stopping early only at rank 0."""
    p_u = identity_projection(ctx.domain, ctx.dim)
    fwd = ctx.one
    bwd = ctx.one
    for _ in range(1, ctx.cap + 1):
        fwd = fwd @ x
        bwd = bwd @ x.star()
        q_pos = _kernel_projection(ctx, ctx.one - fwd.star() @ fwd)
        q_neg = _kernel_projection(ctx, ctx.one - bwd.star() @ bwd)
        p_u = proj_inf([p_u, q_pos, q_neg])
        if p_u.rank == 0:
            break
    return p_u


def product_ppi_constraint_to_cap(ctx, x1, x2):
    """The product-PPI defect constraint over every n <= cap, powers from
    Element.power."""
    constraint = identity_projection(ctx.domain, ctx.dim)
    for n in range(1, ctx.cap + 1):
        pn = left_projection(x1.power(n)).element
        qn = left_projection(x2.star().power(n)).element
        defect = pn @ qn - qn @ pn
        constraint = proj_inf([constraint, right_annihilator_projection([defect.star()])])
    return constraint


def corner_cnu_res_to_cap(ctx, x, p_c):
    """The NFL kernels of p_c x p_c intersected inside p_c, run to the cap."""
    y = p_c.element @ x @ p_c.element
    part = p_c.range_basis
    fwd = y
    bwd = y.star()
    for _ in range(1, ctx.cap + 1):
        k_pos = subspaces.nullspace(ctx.domain, (p_c.element - fwd.star() @ fwd).mat)
        k_neg = subspaces.nullspace(ctx.domain, (p_c.element - bwd.star() @ bwd).mat)
        part = subspaces.intersect(ctx.domain, part, k_pos)
        part = subspaces.intersect(ctx.domain, part, k_neg)
        if part.shape[1] == 0:
            return 0.0
        fwd = fwd @ y
        bwd = bwd @ y.star()
    return ctx.wres(from_basis(ctx.domain, part).element)


def power_lemma_certificates(ctx, x1, x2):
    """The lemma residuals with every power recomputed by Element.power."""
    out = {}
    y = x1 @ x2
    for label, x in (("x1", x1), ("x2", x2)):
        lp_star = left_projection(x.star()).element
        for n in range(1, min(ctx.cfg.n_max, ctx.dim) + 1):
            xn1 = x.power(n - 1)
            lp_n = left_projection(x.star().power(n)).element
            out[f"lemmaA1[{label},n={n}]"] = ctx.wres(lp_star @ xn1 @ lp_n - xn1 @ lp_n)
    for label, x in (("x1", x1), ("x2", x2)):
        for n in range(1, min(ctx.cfg.n_max, ctx.dim) + 1):
            lhs = left_projection(x.star() @ left_projection(y.power(n)).element).element
            rhs = left_projection(y.power(n - 1)).element
            out[f"lemmaA2[{label},n={n}]"] = ctx.wres(lhs @ rhs - lhs)
    return out


def dense_ppi_defects(ctx, x):
    """The PPI defect of every power, with no split into components:
    xⁿ (xⁿ)* xⁿ - xⁿ for n <= min(n_max, dim), each power gathered along
    x's one-nonzero columns; with a float window of coordinates k, the
    block (P[k] P*) P[:, k] - P[k, k] for P = xⁿ, and the dense defect as
    an element otherwise.  A generator, so a check can stop at a power."""
    windowed = ctx.keep is not None and not ctx.domain.exact
    k = ctx.keep
    pw = x
    for n in range(1, min(ctx.cfg.n_max, ctx.dim) + 1):
        if n > 1:
            pw = ctx.mul(pw, x)
        if windowed:
            p = pw.mat
            rows = p[k]
            yield (rows @ p.conj().T) @ p[:, k] - rows[:, k]
        else:
            yield pw @ pw.star() @ pw - pw


def dense_ppi_on_window(ctx, x):
    """The PPI precondition as one defect per power (`dense_ppi_defects`),
    each tested by ctx.ok against eps_eq·dim, or exactly."""
    return all(ctx.ok(d) for d in dense_ppi_defects(ctx, x))


def reducing_fixpoint_by_meets(ctx, ops, e):
    """M <- M ∩ a^{-1} M over ops and adjoints, each preimage a full kernel
    of (1 - [M]) a met with M, with no exit at rank dim."""
    allops = [a.mat for a in ops] + [a.star().mat for a in ops]
    basis = e.range_basis
    while True:
        if basis.shape[1] == 0:
            return zero_projection(ctx.domain, ctx.dim)
        nxt = basis
        for m in allops:
            proj = subspaces.proj_matrix(ctx.domain, basis)
            comp = ctx.domain.normalize(ctx.domain.eye(ctx.dim) - proj)
            pre = subspaces.nullspace(ctx.domain, comp @ m)
            nxt = subspaces.intersect(ctx.domain, nxt, pre)
        if nxt.shape[1] == basis.shape[1]:
            return from_basis(ctx.domain, nxt)
        basis = nxt


STEP_REFERENCES = (
    (engine, "_wandering_series", stepped_wandering_series),
    (engine, "_mixed_wandering", mixed_wandering_by_meets),
    (subspaces, "intersect", stacked_intersect),
    (subspaces, "nullspace", full_svd_nullspace),
    (Projection, "product", dense_product),
)


def subspace_step_references(monkeypatch):
    """Route the float subspace steps (series, meets, kernels, mixed
    wandering subspace, projection products) to their references."""
    for owner, name, fn in STEP_REFERENCES:
        monkeypatch.setattr(owner, name, fn)


REFERENCES = {
    "_wold_parts": chain_wold_parts,
    "_grading_res": chain_shift_corner_res,
    "_series_split": chain_pair_split,
    "_mixed_wandering": mixed_wandering_to_cap,
    "_nfl_unitary_part": nfl_unitary_part_to_cap,
    "_lemma_certificates": power_lemma_certificates,
    "_product_ppi_constraint": product_ppi_constraint_to_cap,
    "_corner_cnu_res": corner_cnu_res_to_cap,
    "_reducing_fixpoint": reducing_fixpoint_by_meets,
    "_ppi_on_window": dense_ppi_on_window,
}


def reference_engine(monkeypatch):
    """Route every stabilised chain of stardecomp.engine and every subspace
    step to its reference; the mixed wandering subspace runs to the cap."""
    subspace_step_references(monkeypatch)
    for name, fn in REFERENCES.items():
        monkeypatch.setattr(engine, name, fn)
