"""Pair decompositions: Słociński conditions, weak bi-shift, doubly
commuting / product-PPI splits, and the largest-projection constructions."""

import numpy as np
import pytest

from stardecomp import (
    COMPLEX,
    EngineConfig,
    PreconditionError,
    RATIONAL,
    corollary_check,
    from_rows,
    halmos_wallen,
    hw_pair_doubly,
    hw_pair_product,
    largest_doubly_commuting,
    largest_product_ppi,
    maximality_probe,
    nfl,
    nfl_pair_doubly,
    pair_instances,
    reducing_fixpoint,
    slocinski,
    truncate,
    weak_bishift,
    wold,
)
from stardecomp import subspaces
from stardecomp.elements import Element, classify
from stardecomp.fixtures import (
    commuting_orthogonal_pair,
    random_contraction,
    random_ppi,
    rational_orthogonal,
)
from stardecomp.projections import (
    from_element,
    identity_projection,
    proj_leq,
    zero_projection,
)

J3 = from_rows(RATIONAL, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])


def _truncated_pair(name, n, n_max):
    e1, e2 = pair_instances(name)
    t1 = truncate(e1, n, n_max=n_max)
    t2 = truncate(e2, n, n_max=n_max)
    return t1, t2, EngineConfig(n_max=n_max, window=t1.window)


# ------------------------------------------------------------- Słociński


def test_slocinski_requires_commuting():
    rng = np.random.default_rng(0)
    x1 = rational_orthogonal(3, rng)
    x2 = rational_orthogonal(3, rng)
    if (x1 @ x2).equals(x2 @ x1):  # astronomically unlikely, but be safe
        pytest.skip("random pair happened to commute")
    with pytest.raises(PreconditionError):
        slocinski(x1, x2)


@pytest.mark.parametrize("name,n,n_max", [
    ("grid", 8, 4),
    ("equal-shift", 20, 6),
    ("powers", 20, 6),
    ("unitary-pair", 16, 6),
    ("mixed", 20, 6),
])
def test_slocinski_catalog_consistent(name, n, n_max):
    t1, t2, cfg = _truncated_pair(name, n, n_max)
    rep = slocinski(t1.element, t2.element, cfg)
    assert rep.condition_vector == (True,) * 6
    assert rep.holds
    assert rep.basis.verify(1e-8 * t1.element.dim)


def test_slocinski_grid_all_ss():
    t1, t2, cfg = _truncated_pair("grid", 8, 4)
    rep = slocinski(t1.element, t2.element, cfg)
    assert rep.basis["ss"].rank == t1.element.dim


def test_slocinski_mixed_ranks():
    t1, t2, cfg = _truncated_pair("mixed", 20, 6)
    rep = slocinski(t1.element, t2.element, cfg)
    ranks = {l: p.rank for l, p in rep.basis.members}
    assert ranks["uu"] == 2 and ranks["us"] == 0 and ranks["su"] == 0
    assert ranks["ss"] == t1.element.dim - 2


def test_slocinski_exact_unitary_pair():
    rng = np.random.default_rng(1)
    x1, x2 = commuting_orthogonal_pair(4, rng)
    rep = slocinski(x1, x2)
    assert rep.holds and rep.basis["uu"].rank == 4
    assert rep.max_residual() == 0.0


def test_corollary_product_pairs():
    rng = np.random.default_rng(2)
    x1, x2 = commuting_orthogonal_pair(4, rng)
    assert corollary_check(x1, x2) is True


# ---------------------------------------------------------- weak bi-shift


def test_weak_bishift_grid_is_pure_ws():
    t1, t2, cfg = _truncated_pair("grid", 8, 4)
    rep = weak_bishift(t1.element, t2.element, cfg)
    w = t1.window.element.mat
    dev = np.abs(w @ (rep.basis["ws"].element.mat - np.eye(t1.element.dim)) @ w).max()
    assert dev < 1e-8
    for key in ("basis_orth[uu,ws]", "shift_x1_w_us", "shift_x2_w_su"):
        assert rep.certificates[key] < 1e-8


@pytest.mark.parametrize("name,n,n_max", [
    ("equal-shift", 20, 6),
    ("powers", 20, 6),
    ("unitary-pair", 16, 6),
    ("mixed", 20, 6),
])
def test_weak_bishift_catalog(name, n, n_max):
    t1, t2, cfg = _truncated_pair(name, n, n_max)
    rep = weak_bishift(t1.element, t2.element, cfg)
    assert rep.basis.verify(1e-8 * t1.element.dim)
    assert rep.max_residual() < 1e-8 * t1.element.dim


def test_weak_bishift_exact_unitaries():
    rng = np.random.default_rng(3)
    x1, x2 = commuting_orthogonal_pair(4, rng)
    rep = weak_bishift(x1, x2)
    assert rep.basis["uu"].rank == 4
    assert rep.max_residual() == 0.0


# ------------------------------------------------ doubly commuting pairs


def test_hw_pair_doubly_commuting_unitaries():
    rng = np.random.default_rng(4)
    x1, x2 = commuting_orthogonal_pair(4, rng)
    rep = hw_pair_doubly(x1, x2)
    assert rep.basis["u.u"].rank == 4
    assert rep.basis.verify()


def test_hw_pair_doubly_rejects_non_doubly():
    with pytest.raises(PreconditionError):
        hw_pair_doubly(J3, J3)


def test_nfl_pair_doubly():
    rng = np.random.default_rng(5)
    x1, x2 = commuting_orthogonal_pair(4, rng)
    half = from_rows(RATIONAL, [["1/2", 0, 0, 0], [0, "1/2", 0, 0],
                                [0, 0, "1/2", 0], [0, 0, 0, "1/2"]])
    rep = nfl_pair_doubly(x1 @ half, x2)
    assert rep.basis["uu"].rank == 0 and rep.basis["cu"].rank == 4
    assert rep.max_residual() == 0.0


# -------------------------------------------------------- product of PPIs


def test_hw_pair_product_power_pair():
    rng = np.random.default_rng(6)
    x = random_ppi(5, rng, unitary_rank=2)
    rep = hw_pair_product(x, x @ x)
    assert rep.basis["u"].rank == 2
    assert rep.basis["t"].rank == 3
    assert rep.max_residual() == 0.0
    # finite dimension: the unitary part is nonzero, so the literal join
    # comparison must come out false
    assert rep.extras["literal_sup_agrees"] is False


def test_hw_pair_product_lemma_identities_exact():
    rng = np.random.default_rng(7)
    x = random_ppi(6, rng, unitary_rank=3)
    rep = hw_pair_product(x, x.power(3))
    lemmas = {k: v for k, v in rep.certificates.items() if k.startswith("lemma")}
    assert lemmas and all(v == 0.0 for v in lemmas.values())


def test_largest_product_ppi_trivial_on_good_pairs():
    rng = np.random.default_rng(8)
    x = random_ppi(4, rng, unitary_rank=2)
    p = largest_product_ppi(x, x @ x)
    assert p.rank == 4


def test_largest_product_ppi_requires_commuting():
    rng = np.random.default_rng(9)
    x1 = random_ppi(4, rng, unitary_rank=0)
    x2 = random_ppi(4, rng, unitary_rank=4)
    if (x1 @ x2).equals(x2 @ x1):
        pytest.skip("random pair happened to commute")
    with pytest.raises(PreconditionError):
        largest_product_ppi(x1, x2)


# ----------------------------------------------- largest doubly commuting


def test_pd_j3_pair_is_zero():
    p = largest_doubly_commuting(J3, J3)
    assert p.rank == 0


def test_pd_doubly_commuting_pair_is_one():
    rng = np.random.default_rng(10)
    x1, x2 = commuting_orthogonal_pair(4, rng)
    p = largest_doubly_commuting(x1, x2)
    assert p.rank == 4


def test_reducing_fixpoint_shrinks_to_invariant_core():
    # seed with the full space; the fixpoint must commute with the operator
    p = reducing_fixpoint([J3], identity_projection(RATIONAL, 3))
    assert p.rank == 3  # whole space trivially reduces
    e = from_element(from_rows(RATIONAL, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]))
    q = reducing_fixpoint([J3], e)
    assert q.rank == 0  # no reducing subspace inside span(e_0)
    # one below the whole space: J3 maps e_1 out of span(e_0, e_1)
    e = from_element(from_rows(RATIONAL, [[1, 0, 0], [0, 1, 0], [0, 0, 0]]))
    assert reducing_fixpoint([J3], e).rank == 0


def test_maximality_probe_confirms_pd():
    rng = np.random.default_rng(11)
    p = largest_doubly_commuting(J3, J3)

    def pred(q):
        pe = q.element
        d1 = pe @ (J3 @ J3.star() - J3.star() @ J3) @ pe
        return d1.is_zero()

    assert maximality_probe(p, [J3, J3], pred, rng, tries=20) is True


def test_maximality_probe_detects_enlargeable():
    # probe a deliberately too-small projection: 0 under a unitary, where
    # every direction commutes and satisfies the (trivial) predicate
    rng = np.random.default_rng(12)
    from stardecomp import identity

    one = identity(RATIONAL, 3)
    p0 = zero_projection(RATIONAL, 3)
    assert maximality_probe(p0, [one], lambda q: True, rng, tries=20) is False


def test_maximality_probe_complex():
    """The complex path draws the same integers as the exact one: 0 is
    enlargeable under the identity, and the zero largest doubly commuting
    corner of a 4×4 Jordan block with itself survives every probe."""
    from stardecomp import identity

    rng = np.random.default_rng(13)
    one = identity(COMPLEX, 5)
    assert maximality_probe(zero_projection(COMPLEX, 5), [one], lambda q: True, rng) is False
    j4 = Element(COMPLEX, np.eye(4, k=-1, dtype=complex))
    p = largest_doubly_commuting(j4, j4)
    assert p.rank == 0

    def pred(q):
        pe = q.element
        return (pe @ (j4 @ j4.star() - j4.star() @ j4) @ pe).is_zero()

    assert maximality_probe(p, [j4, j4], pred, rng, tries=20) is True


# ------------------------------------------ every entry point, edge inputs
# The 1x1 identity and the 2x2 zero reach rank r = dim and r = 0 in the
# shared Wold factorisation, and every fixpoint starts at rank 0 or dim.
# Pair methods take (x, x); a table entry lists the nonzero block ranks.

_EDGE_RANKS = {
    "one": {
        wold: {"u": 1}, halmos_wallen: {"u": 1}, nfl: {"u": 1}, slocinski: {"uu": 1},
        weak_bishift: {"uu": 1}, hw_pair_doubly: {"u.u": 1}, hw_pair_product: {"u": 1},
        nfl_pair_doubly: {"uu": 1}, largest_doubly_commuting: 1, largest_product_ppi: 1,
        reducing_fixpoint: 1,
    },
    "zero": {
        wold: PreconditionError, halmos_wallen: {"t": 2}, nfl: {"c": 2},
        slocinski: PreconditionError, weak_bishift: PreconditionError,
        hw_pair_doubly: {"t.t": 2}, hw_pair_product: {"t": 2}, nfl_pair_doubly: {"cc": 2},
        largest_doubly_commuting: 2, largest_product_ppi: 2, reducing_fixpoint: 2,
    },
}
_EDGE_ROWS = {"one": [[1]], "zero": [[0, 0], [0, 0]]}


def _ranks(method, x):
    if method is reducing_fixpoint:
        return method([x], identity_projection(x.domain, x.dim)).rank
    out = method(x) if method in (wold, halmos_wallen, nfl) else method(x, x)
    if not hasattr(out, "basis"):
        return out.rank
    return {lbl: p.rank for lbl, p in out.basis.members if p.rank}


@pytest.mark.parametrize("domain", [RATIONAL, COMPLEX], ids=str)
@pytest.mark.parametrize("name", sorted(_EDGE_ROWS))
@pytest.mark.parametrize("method", list(_EDGE_RANKS["one"]), ids=lambda m: m.__name__)
def test_edge_inputs_keep_their_block_ranks(monkeypatch, domain, name, method):
    x = from_rows(domain, _EDGE_ROWS[name])
    want = _EDGE_RANKS[name][method]
    if isinstance(want, type):
        with pytest.raises(want):
            _ranks(method, x)
    else:
        assert _ranks(method, x) == want
    if method is reducing_fixpoint:
        # a zero or identity seed e: 1 - e is the identity or 0, so e comes
        # back as it is, with no sweep, SVD or product
        calls = []
        for owner, attr in ((np.linalg, "svd"), (subspaces, "preimage"), (Element, "__matmul__")):
            fn = getattr(owner, attr)
            monkeypatch.setattr(owner, attr, lambda *a, fn=fn, **k: calls.append(fn) or fn(*a, **k))
        for e in (zero_projection(domain, x.dim), identity_projection(domain, x.dim)):
            assert reducing_fixpoint([x, x.star()], e) is e
        assert not calls


@pytest.mark.parametrize("domain", [RATIONAL, COMPLEX], ids=str)
def test_subspace_primitives_at_the_rank_extremes(domain):
    for rows, rank in (([[0, 0], [0, 0]], 0), ([[1, 0], [0, 1]], 2), ([[0, 0], [1, 0]], 1)):
        x = from_rows(domain, rows)
        rng, coker = subspaces.orth(domain, x.mat), subspaces.cokernel(domain, x.mat)
        comp = subspaces.complement(domain, rng)
        assert (rng.shape, coker.shape, comp.shape) == ((2, rank), (2, 2 - rank), (2, 2 - rank))
        assert x.star().mat @ coker == pytest.approx(0)
        assert domain.adjoint(rng) @ comp == pytest.approx(0)
        assert subspaces.nullspace(domain, x.star().mat).shape == coker.shape
    comp = domain.eye(2)
    assert subspaces.preimage(domain, domain.eye(2), comp, domain.zeros(2, 0)).shape == (2, 0)
    assert subspaces.preimage(domain, domain.zeros(2, 2), comp, domain.eye(2)).shape == (2, 2)
