"""Stepped reference versions of the engine's stabilised chains.

Each function walks its chain one index at a time, and runs on to the cap
where the engine stops at a detected fixpoint; the lemma residuals take
every power from Element.power.  `reference_engine` swaps them into
`stardecomp.engine`, so a whole decomposition can be run both ways and
compared.
"""

from __future__ import annotations

from stardecomp import engine, subspaces
from stardecomp.errors import IndeterminateError
from stardecomp.projections import from_basis, identity_projection, left_projection, proj_inf


def stepped_range_chain_inf(ctx, x, start=None):
    """One factorisation per chain index: basis <- orth(x @ basis)."""
    basis = start if start is not None else subspaces.orth(ctx.domain, ctx.one.mat)
    for _ in range(ctx.cap + 1):
        nxt = subspaces.orth(ctx.domain, x.mat @ basis)
        if subspaces.dim_of(nxt) == subspaces.dim_of(basis):
            return from_basis(ctx.domain, ctx.dim, nxt)
        basis = nxt
    raise IndeterminateError("range chain did not stabilise within the cap")


def mixed_wandering_to_cap(ctx, a, b):
    """inf over n <= cap of (1 - [a^{*n} b]), with no fixpoint exit."""
    acc = None
    y = b
    for _ in range(ctx.cap + 1):
        comp = engine._complement_of_range(ctx, y)
        acc = comp if acc is None else proj_inf([acc, comp])
        y = a.star() @ y
    return acc


def nfl_unitary_part_to_cap(ctx, x):
    """∩_{n <= cap} of the NFL kernels, stopping early only at rank 0."""
    p_u = identity_projection(ctx.domain, ctx.dim)
    fwd = ctx.one
    bwd = ctx.one
    for _ in range(1, ctx.cap + 1):
        fwd = fwd @ x
        bwd = bwd @ x.star()
        q_pos = engine._kernel_projection(ctx, ctx.one - fwd.star() @ fwd)
        q_neg = engine._kernel_projection(ctx, ctx.one - bwd.star() @ bwd)
        p_u = proj_inf([p_u, q_pos, q_neg])
        if p_u.rank == 0:
            break
    return p_u


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


REFERENCES = {
    "_range_chain_inf": stepped_range_chain_inf,
    "_mixed_wandering": mixed_wandering_to_cap,
    "_nfl_unitary_part": nfl_unitary_part_to_cap,
    "_lemma_certificates": power_lemma_certificates,
}


def reference_engine(monkeypatch):
    """Route every stabilised chain of stardecomp.engine to its reference."""
    for name, fn in REFERENCES.items():
        monkeypatch.setattr(engine, name, fn)
