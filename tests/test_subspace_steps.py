"""The float subspace steps against their references
(`subspace_step_references` in tests/chain_reference.py): the wandering
series without per-step SVDs, the meet as one thin kernel, the mixed
wandering subspace as one preimage per step, and the low-rank projection
products, beside the peeled cokernel against the dense SVD's and the
products through a complement basis against the dense ones.  Complex
inputs must give equal ranks and projections within 1e-12.  Exact inputs
must come out bit-identical; `reference_engine` swaps these references in
too, so the exact comparisons in tests/test_chains.py cover them."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from stardecomp import (
    COMPLEX,
    Adjoint,
    EngineConfig,
    Shift,
    Trunc,
    direct_sum,
    halmos_wallen,
    pair_instances,
    slocinski,
    truncate,
    unitary,
    weak_bishift,
    wold,
)
from stardecomp import engine, subspaces
from stardecomp.elements import Element
from stardecomp.fixtures import random_complex_unitary
from stardecomp.projections import from_basis, from_element

from chain_reference import (
    dense_product,
    mixed_wandering_by_meets,
    stacked_intersect,
    stepped_wandering_series,
    subspace_step_references,
)

TOL = 1e-12


def _both(fn, *args):
    """(report, report with the reference subspace steps) for one call."""
    got = fn(*args)
    with pytest.MonkeyPatch.context() as mp:
        subspace_step_references(mp)
        want = fn(*args)
    return got, want


def _projections(rep):
    out = list(rep.basis.members)
    out += [(k, p) for k, p in rep.extras.items() if hasattr(p, "range_basis")]
    return out


def _assert_close(got, want):
    for (lbl, p), (lbl2, q) in zip(_projections(got), _projections(want), strict=True):
        assert lbl == lbl2
        assert p.rank == q.rank, lbl
        assert np.linalg.norm(p.element.mat - q.element.mat) <= TOL, lbl
    assert got.certificates.keys() == want.certificates.keys()
    assert got.condition_vector == want.condition_vector


# ----------------------------------------------------------------- meets


def _orthonormal_pair(rng, dim, common, k1, k2, angles):
    """Orthonormal bases of two subspaces that share a `common`-dimensional
    part, and an orthonormal basis of that part; the other principal angles
    are `angles` (then π/2), and each basis is mixed by a random unitary so
    that no column is aligned."""
    q = random_complex_unitary(dim, rng).mat
    extra1 = q[:, common:common + k1]
    extra2 = q[:, common + k1:common + k1 + k2].copy()
    for i, theta in enumerate(angles):
        extra2[:, i] = np.cos(theta) * extra1[:, i] + np.sin(theta) * extra2[:, i]
    b1 = np.concatenate([q[:, :common], extra1], axis=1)
    b2 = np.concatenate([q[:, :common], extra2], axis=1)
    return (b1 @ random_complex_unitary(b1.shape[1], rng).mat if b1.shape[1] else b1,
            b2 @ random_complex_unitary(b2.shape[1], rng).mat if b2.shape[1] else b2,
            q[:, :common])


# A meet moves by about ε / sin θ_min under roundoff in its bases, θ_min the
# smallest principal angle off the common part (Björck & Golub 1973), so
# each meet is checked against the planted part, not against the other
# meet.  Over 3000 draws neither needed more than 1e-12 + 3.1 ε / sin θ_min.
MEET_ROUNDOFF = 10 * np.finfo(float).eps


@st.composite
def _meet_cases(draw):
    """(seed, dim, common, k1, k2, angles) for `_orthonormal_pair`."""
    dim = draw(st.integers(1, 12))
    common = draw(st.integers(0, dim))
    k1 = draw(st.integers(0, dim - common))
    k2 = draw(st.integers(0, dim - common - k1))
    angles = draw(st.lists(st.floats(1e-6, np.pi / 2), min_size=min(k1, k2),
                           max_size=min(k1, k2)))
    return draw(st.integers(0, 2**32 - 1)), dim, common, k1, k2, angles


@settings(max_examples=80, deadline=None)
@given(case=_meet_cases())
@example(case=(0, 3, 1, 1, 1, [1e-6]))  # the two meets differ by 3.5e-10 here
def test_meet_matches_stacked_kernel(case):
    seed, dim, common, k1, k2, angles = case
    b1, b2, planted = _orthonormal_pair(np.random.default_rng(seed), dim, common, k1, k2,
                                        angles)
    tol = TOL + MEET_ROUNDOFF / min(np.sin(angles), default=1.0)
    for meet in (subspaces.intersect, stacked_intersect):
        got = meet(COMPLEX, b1, b2)
        assert got.shape[1] == planted.shape[1]
        assert np.linalg.norm(got.conj().T @ got - np.eye(got.shape[1])) <= TOL
        assert np.linalg.norm(got @ got.conj().T - planted @ planted.conj().T) <= tol


def test_meet_of_a_subspace_takes_no_svd(monkeypatch):
    rng = np.random.default_rng(4)
    b1, b2, _ = _orthonormal_pair(rng, 8, 3, 0, 4, [])
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    assert subspaces.intersect(COMPLEX, b1, b2) is b1
    assert not calls


# ------------------------------------------------------ peeled cokernel

EPS_RANK = COMPLEX.tol.eps_rank


@st.composite
def _peel_cases(draw):
    """(seed, lone entries above the cut, at or below it, zero rows, zero
    columns, dense block rows, columns and rank)."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    sizes = [draw(st.integers(0, 6)), draw(st.integers(0, 3)), draw(st.integers(0, 2)),
             draw(st.integers(0, 2)), m, n, draw(st.integers(0, min(m, n)))]
    return draw(st.integers(0, 2**32 - 1)), *sizes


def _peel_matrix(seed, big, small, zero_rows, zero_cols, m, n, r):
    """diag(lone entries) ⊕ zero rows ⊕ zero columns ⊕ a dense block of
    rank r, its rows and columns permuted.  The lone entries above the cut
    have modulus in [0.1, 3], those below it in (0, 0.9·eps_rank]."""
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.random(big + small))
    lone = np.concatenate([rng.uniform(0.1, 3.0, big),
                           EPS_RANK * rng.uniform(1e-6, 0.9, small)]) * phases
    k = big + small
    mat = np.zeros((k + zero_rows + m, k + zero_cols + n), dtype=complex)
    mat[np.arange(k), np.arange(k)] = lone
    gauss = (lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    mat[k + zero_rows:, k + zero_cols:] = gauss(m, r) @ gauss(r, n)
    return mat[rng.permutation(mat.shape[0])][:, rng.permutation(mat.shape[1])]


@settings(max_examples=120, deadline=None)
@given(case=_peel_cases())
@example(case=(0, 128, 0, 1, 1, 3, 3, 3))  # the shape of a truncated unitary(3) ⊕ Shift(1)
def test_peeled_cokernel_matches_the_dense_svd(case):
    mat = _peel_matrix(*case)
    assume(mat.shape[0] > 0)
    u, s, _ = np.linalg.svd(mat)
    want = u[:, subspaces._rank_cut(s, EPS_RANK):]
    got = subspaces.cokernel(COMPLEX, mat)
    assert got.shape == want.shape
    assert np.linalg.norm(got @ got.conj().T - want @ want.conj().T) <= TOL


@pytest.mark.parametrize("scale,rank", [(1.0, 1), (1.01, 2)], ids=["at the cut", "above it"])
def test_lone_entry_at_the_cut_is_in_the_cokernel(monkeypatch, scale, rank):
    # diag(2, 2 eps_rank) is all lone entries: no SVD of a non-empty
    # matrix, and the cut is eps_rank·σ₁ = 2 eps_rank
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *r, **k: calls.append(a.size) or svd(a, *r, **k))
    mat = np.diag([2.0, 2 * scale * EPS_RANK]).astype(complex)
    got = subspaces.cokernel(COMPLEX, mat)
    assert got.shape == (2, 2 - rank)
    if rank == 1:
        assert np.array_equal(got, np.array([[0], [1]], dtype=complex))
    assert not any(calls)


# ------------------------------------------------- truncated complex inputs


def _truncated(exprs, n, n_max):
    trs = [truncate(e, n, n_max=n_max) for e in exprs]
    return [t.element for t in trs], EngineConfig(n_max=n_max, window=trs[0].window)


PAIRS = [("grid", 8, 4), ("equal-shift", 20, 6), ("powers", 20, 6), ("unitary-pair", 20, 6),
         ("mixed", 20, 6)]


@pytest.mark.parametrize("name,n,n_max", PAIRS, ids=[p[0] for p in PAIRS])
def test_pair_instances_within_tolerance(name, n, n_max):
    xs, cfg = _truncated(list(pair_instances(name)), n, n_max)
    _assert_close(*_both(slocinski, *xs, cfg))
    _assert_close(*_both(weak_bishift, *xs, cfg))


@pytest.mark.parametrize("name,n,n_max", PAIRS, ids=[p[0] for p in PAIRS])
def test_steps_match_their_references(name, n, n_max):
    (x1, x2), cfg = _truncated(list(pair_instances(name)), n, n_max)
    ctx = engine._Ctx(x1, cfg)
    for a, b in ((x1, x2), (x2, x1)):
        got = engine._mixed_wandering(ctx, a, b)
        want = mixed_wandering_by_meets(ctx, a, b)
        assert got.rank == want.rank
        assert np.linalg.norm(got.element.mat - want.element.mat) <= TOL
        coker = subspaces.cokernel(ctx.domain, a.mat)
        (got, got_blocks), (want, want_blocks) = (engine._wandering_series(ctx, a, coker),
                                                  stepped_wandering_series(ctx, a, coker))
        got, want = from_basis(ctx.domain, got), from_basis(ctx.domain, want)
        assert got.rank == want.rank
        assert np.linalg.norm(got.element.mat - want.element.mat) <= TOL
        assert [b.shape for b in got_blocks] == [b.shape for b in want_blocks]


def _unitary(dim, seed):
    return unitary(random_complex_unitary(dim, np.random.default_rng(seed)).mat)


@pytest.mark.parametrize("fn,expr,n", [
    (wold, Shift(1), 64),
    (wold, direct_sum(_unitary(3, 2), Shift(1)), 128),
    (wold, direct_sum(_unitary(2, 3), Shift(2)), 64),
    (halmos_wallen, direct_sum(_unitary(2, 2), Adjoint(Shift(1)), Trunc(4)), 48),
    (halmos_wallen, direct_sum(_unitary(3, 5), Trunc(3)), 32),
], ids=["wold shift", "wold u3+shift", "wold u2+shift2", "hw 48", "hw u3+trunc"])
def test_truncated_single_within_tolerance(fn, expr, n):
    # the stepped series joins its blocks by an SVD, so wold's graded shift
    # corner reads the blocks' coordinates from their Gram matrix there
    (x,), cfg = _truncated([expr], n, 16)
    got, want = _both(fn, x, cfg)
    _assert_close(got, want)
    assert max(got.max_residual(), want.max_residual()) <= COMPLEX.tol.eps_eq * x.dim


# ------------------------------------------------ low-rank products


@pytest.mark.parametrize("dim", [7, 8])
def test_product_matches_dense_on_both_sides_of_the_threshold(dim):
    rng = np.random.default_rng(dim)
    q = random_complex_unitary(dim, rng).mat
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = Element(COMPLEX, a / np.linalg.norm(a))
    for rank in range(dim + 1):
        p = from_basis(COMPLEX, q[:, :rank])
        for proj in (p, from_element(p.element), p.complement()):
            for side in ("left", "right", "both"):
                got = proj.product(a, side)
                want = dense_product(proj, a, side)
                assert np.linalg.norm(got.mat - want.mat) <= 1e-14, (rank, side)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 12), co_rank=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_product_through_the_complement_basis_matches_dense(dim, co_rank, seed):
    # rank >= dim/2, with the complement basis kept by from_basis or by
    # complement(); the element is built as 1 - C C*
    co_rank = min(co_rank, dim // 2)
    rng = np.random.default_rng(seed)
    q = random_complex_unitary(dim, rng).mat
    b, c = q[:, :dim - co_rank], q[:, dim - co_rank:]
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = Element(COMPLEX, a / np.linalg.norm(a))
    for proj in (from_basis(COMPLEX, b, c), from_basis(COMPLEX, c).complement()):
        assert proj.complement_basis is not None
        assert np.linalg.norm(proj.element.mat - b @ b.conj().T) <= TOL
        for side in ("left", "right", "both"):
            got = proj.product(a, side)
            want = dense_product(proj, a, side)
            assert np.linalg.norm(got.mat - want.mat) <= TOL, side


@pytest.mark.parametrize("rank", [3, 20], ids=["below dim/2", "above dim/2"])
def test_commute_certificate_sees_a_non_commuting_projection(rank):
    # a random subspace does not reduce x, so x p - p x is far from 0 on the
    # window; the certificate must report it, on both product paths
    tr = truncate(direct_sum(_unitary(3, 7), Shift(1)), 24, n_max=8)
    ctx = engine._Ctx(tr.element, EngineConfig(n_max=8, window=tr.window))
    q = random_complex_unitary(tr.element.dim, np.random.default_rng(rank)).mat
    p = from_basis(COMPLEX, q[:, :rank])
    x, pm, w = tr.element.mat, p.element.mat, tr.window.element.mat
    want = np.linalg.norm(w @ (x @ pm - pm @ x) @ w)
    got = engine._commute_res(ctx, tr.element, p)
    assert want > 0.1
    assert abs(got - want) <= 1e-12
