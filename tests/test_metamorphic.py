"""Metamorphic properties of the decompositions, from their uniqueness.

No oracle is needed: the product-PPI split of (x1, x2) is the Halmos–Wallen
split of x1 x2, the adjoint swaps the shift and backward-shift parts, every
split of a direct sum is the direct sum of the splits, the splits of P x P*
for a signed permutation P, and on the shift model for a unitary P that
maps the probe window onto itself, are the P-conjugates of the splits of
x, and a matrix with entries in {0, ±1} splits into blocks of the same
ranks over every ring in which it is the same partial permutation.  Exact
inputs are compared bit for bit.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stardecomp import (
    COMPLEX,
    RATIONAL,
    Adjoint,
    EngineConfig,
    Element,
    Shift,
    Trunc,
    construct_gf_ring,
    direct_sum,
    halmos_wallen,
    hw_pair_product,
    identity,
    nfl,
    pair_instances,
    slocinski,
    truncate,
    weak_bishift,
    wold,
)
from stardecomp.elements import from_rows
from stardecomp.fixtures import (
    random_complex_unitary,
    random_contraction,
    random_ppi,
    rational_orthogonal,
)
from stardecomp.projections import from_element
from stardecomp.shiftmodel import unitary

SEEDS = st.integers(0, 2**32 - 1)


def _dsum(a: Element, b: Element) -> Element:
    mat = a.domain.zeros(a.dim + b.dim, a.dim + b.dim)
    mat[: a.dim, : a.dim] = a.mat
    mat[a.dim :, a.dim :] = b.mat
    return Element(a.domain, mat)


def _same(p, q) -> bool:
    return np.array_equal(p.element.mat, q.element.mat)


def _assert_close(got, want, tol, what):
    """Bit for bit when tol is 0, else within tol entrywise."""
    if tol:
        assert np.abs(got - want).max() <= tol, what
    else:
        assert np.array_equal(got, want), what


def _commuting_ppi_pair(rng):
    """x1, x2 commuting PPIs whose product is a PPI: powers of one PPI, or
    PPIs acting on complementary blocks."""
    if rng.integers(2):
        x = random_ppi(int(rng.integers(2, 5)), rng)
        return x, x.power(int(rng.integers(0, 4)))
    a = random_ppi(int(rng.integers(1, 3)), rng)
    b = random_ppi(int(rng.integers(1, 3)), rng)
    return _dsum(a, identity(RATIONAL, b.dim)), _dsum(identity(RATIONAL, a.dim), b)


@given(SEEDS)
@settings(max_examples=25, deadline=None)
def test_hw_pair_product_is_the_chain_pair_split_of_the_product(seed):
    x1, x2 = _commuting_ppi_pair(np.random.default_rng(seed))
    pair = hw_pair_product(x1, x2).basis
    single = halmos_wallen(x1 @ x2).basis
    for lp, lh in (("u", "u"), ("is", "s"), ("cis", "b"), ("t", "t")):
        assert _same(pair[lp], single[lh]), (lp, lh)


@given(SEEDS)
@settings(max_examples=25, deadline=None)
def test_halmos_wallen_of_the_adjoint_swaps_s_and_b(seed):
    """A finite PPI has s = b = 0, so here the swap shows in u and t only."""
    rng = np.random.default_rng(seed)
    x = random_ppi(int(rng.integers(2, 5)), rng)
    rep, adj = halmos_wallen(x).basis, halmos_wallen(x.star()).basis
    for lbl, la in (("u", "u"), ("s", "b"), ("b", "s"), ("t", "t")):
        assert _same(rep[lbl], adj[la]), (lbl, la)


@given(SEEDS)
@settings(max_examples=25, deadline=None)
def test_nfl_of_the_adjoint_keeps_u(seed):
    rng = np.random.default_rng(seed)
    x = random_contraction(int(rng.integers(2, 5)), rng)
    assert _same(nfl(x).basis["u"], nfl(x.star()).basis["u"])


def _assert_blocks_add(method, x, y, cfg_x=None, cfg_y=None, cfg_xy=None, tol=0.0):
    rx, ry, rxy = method(x, cfg_x), method(y, cfg_y), method(_dsum(x, y), cfg_xy)
    assert rxy.basis.labels() == rx.basis.labels() == ry.basis.labels()
    for lbl in rxy.basis.labels():
        want = _dsum(rx.basis[lbl].element, ry.basis[lbl].element).mat
        _assert_close(rxy.basis[lbl].element.mat, want, tol, lbl)


@given(SEEDS)
@settings(max_examples=15, deadline=None)
def test_rational_blocks_of_a_direct_sum_are_direct_sums(seed):
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.integers(1, 4, size=2)]
    _assert_blocks_add(halmos_wallen, *(random_ppi(d, rng) for d in dims))
    _assert_blocks_add(nfl, *(random_contraction(d, rng) for d in dims))
    _assert_blocks_add(wold, *(rational_orthogonal(d, rng) for d in dims))


@given(SEEDS)
@settings(max_examples=4, deadline=None)
def test_complex_wold_blocks_of_a_direct_sum_are_direct_sums(seed):
    """Truncated unitary ⊕ shift operators, each with its probe window."""
    rng = np.random.default_rng(seed)
    trs = [truncate(direct_sum(unitary(random_complex_unitary(2, rng).mat), Shift(mult)),
                    24, n_max=8) for mult in (1, 2)]
    cfgs = [EngineConfig(n_max=8, window=tr.window) for tr in trs]
    window = from_element(_dsum(trs[0].window.element, trs[1].window.element))
    dim = trs[0].element.dim + trs[1].element.dim
    _assert_blocks_add(wold, trs[0].element, trs[1].element, *cfgs,
                       EngineConfig(n_max=8, window=window), tol=1e-8 * dim)


def _signed_permutation(domain, dim: int, rng) -> Element:
    mat = domain.zeros(dim, dim)
    for col, row in enumerate(rng.permutation(dim)):
        mat[int(row), col] = domain.coerce(-1 if rng.integers(2) else 1)
    return Element(domain, mat)


def _assert_covariant(method, x, p, cfg=None, cfg_conj=None, tol=0.0):
    rep, conj = method(x, cfg).basis, method(p @ x @ p.star(), cfg_conj).basis
    assert conj.labels() == rep.labels()
    for lbl in rep.labels():
        want = (p @ rep[lbl].element @ p.star()).mat
        _assert_close(conj[lbl].element.mat, want, tol, lbl)


@given(SEEDS)
@settings(max_examples=15, deadline=None)
def test_rational_blocks_are_covariant_under_signed_permutations(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    p = _signed_permutation(RATIONAL, dim, rng)
    _assert_covariant(halmos_wallen, random_ppi(dim, rng), p)
    _assert_covariant(nfl, random_contraction(dim, rng), p)


@given(SEEDS)
@settings(max_examples=3, deadline=None)
def test_complex_wold_blocks_are_covariant_under_signed_permutations(seed):
    """A truncated unitary ⊕ shift, its probe window conjugated with it."""
    rng = np.random.default_rng(seed)
    tr = truncate(direct_sum(unitary(random_complex_unitary(2, rng).mat), Shift(1)), 24, n_max=8)
    p = _signed_permutation(COMPLEX, tr.element.dim, rng)
    window = from_element(p @ tr.window.element @ p.star())
    _assert_covariant(wold, tr.element, p, EngineConfig(n_max=8, window=tr.window),
                      EngineConfig(n_max=8, window=window),
                      tol=COMPLEX.tol.eps_eq * tr.element.dim)


def _window_unitary(keep, rng) -> Element:
    """U_w ⊕ U_o: random complex unitaries on the window's coordinates and
    on the rest, so U commutes with the window."""
    mat = np.zeros((keep.size, keep.size), dtype=complex)
    for part in (keep, ~keep):
        idx = np.flatnonzero(part)
        if idx.size:
            mat[np.ix_(idx, idx)] = random_complex_unitary(idx.size, rng).mat
    return Element(COMPLEX, mat)


def _u_plus(*terms):
    """A fixed 2×2 unitary ⊕ terms."""
    return direct_sum(unitary(random_complex_unitary(2, np.random.default_rng(0)).mat), *terms)


_CONJUGATION_CASES = (
    [pytest.param(method, (_u_plus(Shift(mult)),), 24, 8, id=f"{method.__name__} u+shift{mult}")
     for mult in (1, 2) for method in (wold, halmos_wallen)]
    + [pytest.param(halmos_wallen, (_u_plus(Adjoint(Shift(1)), Trunc(3)),), 24, 8,
                    id="halmos_wallen u+shift*+trunc3")]
    + [pytest.param(method, tuple(pair_instances(name)), 16, 6, id=f"{method.__name__} {name}")
       for name in ("mixed", "equal-shift", "powers", "unitary-pair")
       for method in (slocinski, weak_bishift)])


@pytest.mark.parametrize("method,exprs,n,n_max", _CONJUGATION_CASES)
@given(SEEDS)
@settings(max_examples=3, deadline=None)
def test_complex_blocks_are_covariant_under_window_unitaries(method, exprs, n, n_max, seed):
    """U x U* with the same window, U = U_w ⊕ U_o: equal block ranks and
    ‖w (U p U* - p') w‖ <= 1e-10.  The conjugated parts of proper rank are
    not coordinate projections, so they take the dense float products."""
    trs = [truncate(e, n, n_max=n_max) for e in exprs]
    cfg = EngineConfig(n_max=n_max, window=trs[0].window)
    u = _window_unitary(cfg.window.mask, np.random.default_rng(seed))
    xs = [tr.element for tr in trs]
    rep, conj = method(*xs, cfg), method(*(u @ x @ u.star() for x in xs), cfg)
    assert conj.condition_vector == rep.condition_vector
    assert conj.basis.labels() == rep.basis.labels()
    w = cfg.window.element.mat
    for lbl, p in rep.basis.members:
        q = conj.basis[lbl]
        assert q.rank == p.rank, lbl
        want = (u @ p.element @ u.star()).mat
        assert np.linalg.norm(w @ (want - q.element.mat) @ w) <= 1e-10, lbl
        assert q.mask is None or q.rank in (0, q.dim), lbl


def _partial_permutations():
    """Every 2x2 matrix over {0, ±1} with at most one nonzero per row and column."""
    for entries in itertools.product((-1, 0, 1), repeat=4):
        m = np.array(entries).reshape(2, 2)
        if (np.abs(m).sum(axis=0) <= 1).all() and (np.abs(m).sum(axis=1) <= 1).all():
            yield m.tolist()


@pytest.mark.parametrize("rows", list(_partial_permutations()))
def test_block_ranks_agree_over_rationals_and_finite_fields(rows):
    """wold on the eight signed permutations, halmos_wallen on all seventeen."""
    methods = (wold, halmos_wallen) if np.abs(rows).sum() == 2 else (halmos_wallen,)
    for method in methods:
        ranks = [{lbl: p.rank for lbl, p in method(from_rows(dom, rows)).basis.members}
                 for dom in (RATIONAL, construct_gf_ring(3, 2), construct_gf_ring(7, 2))]
        assert ranks[1] == ranks[0] == ranks[2], method.__name__
