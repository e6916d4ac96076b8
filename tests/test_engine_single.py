"""Single-operator decompositions: Wold, Halmos-Wallen, NFL, and the
residuals and verdicts read on the probe window's rows and columns."""

import numpy as np
import pytest

from stardecomp import (
    AxiomViolationError,
    COMPLEX,
    DomainMismatchError,
    Element,
    EngineConfig,
    PreconditionError,
    RATIONAL,
    Shift,
    construct_gf_ring,
    direct_sum,
    from_element,
    from_rows,
    ground_truth_hw,
    ground_truth_wold,
    halmos_wallen,
    identity,
    nfl,
    truncate,
    unitary,
    wold,
)
from stardecomp import engine
from stardecomp.fixtures import (
    gf_signed_permutation,
    random_contraction,
    random_ppi,
    rational_orthogonal,
)
from stardecomp.projections import identity_projection

U2 = unitary([[0.6 + 0.8j, 0], [0, -1]])
J3 = from_rows(RATIONAL, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])


def _window_dev(tr, p, q):
    w = tr.window.element.mat
    return np.abs(w @ (p.element.mat - q.element.mat) @ w).max()


# ------------------------------------------------------------------ Wold


def test_wold_requires_isometry():
    with pytest.raises(PreconditionError):
        wold(J3)


def test_wold_unitary_input_is_all_unitary():
    rng = np.random.default_rng(0)
    rep = wold(rational_orthogonal(4, rng))
    assert rep.basis["u"].rank == 4 and rep.basis["s"].rank == 0
    assert rep.max_residual() == 0.0


def test_wold_pure_shift():
    tr = truncate(Shift(1), 24, n_max=8)
    rep = wold(tr.element, EngineConfig(n_max=8, window=tr.window))
    gt = ground_truth_wold(Shift(1), 24)
    assert _window_dev(tr, rep.basis["u"], gt.projections["u"]) < 1e-10
    assert _window_dev(tr, rep.basis["s"], gt.projections["s"]) < 1e-10


def test_wold_mixed_expression_matches_ground_truth():
    expr = direct_sum(U2, Shift(2))
    tr = truncate(expr, 24, n_max=8)
    rep = wold(tr.element, EngineConfig(n_max=8, window=tr.window))
    gt = ground_truth_wold(expr, 24)
    for lbl in ("u", "s"):
        assert _window_dev(tr, rep.basis[lbl], gt.projections[lbl]) < 1e-9
    assert rep.max_residual() < 1e-9 * tr.element.dim


def test_wold_certificates_and_commutation():
    expr = direct_sum(U2, Shift(1))
    tr = truncate(expr, 20, n_max=6)
    rep = wold(tr.element, EngineConfig(n_max=6, window=tr.window))
    for key in ("sum_to_one", "orth", "commute_u", "commute_s",
                "unitary_corner", "shift_corner"):
        assert rep.certificates[key] < 1e-8


def test_wold_gf_signed_permutation():
    dom = construct_gf_ring(3, 2)
    rng = np.random.default_rng(1)
    x = gf_signed_permutation(dom, rng)
    rep = wold(x)
    assert rep.basis["u"].rank == 2 and rep.max_residual() == 0.0


# --------------------------------------------------------- Halmos-Wallen


def test_hw_requires_ppi():
    bad = from_rows(RATIONAL, [[0, 0], [1, 1]])
    with pytest.raises(PreconditionError):
        halmos_wallen(bad)


def test_hw_jordan_block_all_truncated():
    rep = halmos_wallen(J3)
    ranks = {l: p.rank for l, p in rep.basis.members}
    assert ranks == {"u": 0, "s": 0, "b": 0, "t": 3}
    assert rep.max_residual() == 0.0


def test_hw_exact_mixture():
    rng = np.random.default_rng(2)
    x = random_ppi(6, rng, unitary_rank=3)
    rep = halmos_wallen(x)
    assert rep.basis["u"].rank == 3
    assert rep.basis["s"].rank == 0 and rep.basis["b"].rank == 0
    assert rep.basis["t"].rank == 3
    assert rep.max_residual() == 0.0


def test_hw_float_unitary_plus_chain():
    from stardecomp import Trunc

    expr = direct_sum(U2, Shift(1), Trunc(4))
    tr = truncate(expr, 8, n_max=4)
    rep = halmos_wallen(tr.element, EngineConfig(n_max=4, window=tr.window))
    gt = ground_truth_hw(expr, 8)
    for lbl in ("u", "s", "b", "t"):
        assert _window_dev(tr, rep.basis[lbl], gt.projections[lbl]) < 1e-8
    assert rep.max_residual() < 1e-7


# -------------------------------------------------------------------- NFL


def test_nfl_requires_contraction():
    with pytest.raises(PreconditionError):
        nfl(from_rows(RATIONAL, [[2, 0], [0, 2]]))


def test_nfl_axiom_gate_on_gf():
    dom = construct_gf_ring(3, 2)
    with pytest.raises(AxiomViolationError):
        nfl(identity(dom, 2))


def test_nfl_unitary_is_all_unitary():
    rng = np.random.default_rng(3)
    rep = nfl(rational_orthogonal(5, rng))
    assert rep.basis["u"].rank == 5
    assert rep.max_residual() == 0.0


def test_nfl_strict_contraction_is_all_cnu():
    half = from_rows(RATIONAL, [["1/2", 0], [0, "1/4"]])
    rep = nfl(half)
    assert rep.basis["u"].rank == 0 and rep.basis["c"].rank == 2


def test_nfl_split_matches_construction():
    rng = np.random.default_rng(4)
    x = random_contraction(6, rng, unitary_rank=2)
    rep = nfl(x)
    assert rep.basis["u"].rank == 2
    assert rep.certificates["cnu_corner"] == 0.0
    assert rep.max_residual() == 0.0


def test_nfl_jordan_block_contraction():
    rep = nfl(J3)
    assert rep.basis["u"].rank == 0


# ---------------------------------------------------------- probe window


def _random_complex(dim, rng):
    return Element(COMPLEX, rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


def test_window_residual_equals_the_two_products():
    # the residual and the verdict on the window are those of w e w: bit for
    # bit on a rational window, within 1e-15 relative on a float one, where
    # the norm sums the window's entries without the compression's zeros
    rng = np.random.default_rng(9)
    tr = truncate(direct_sum(U2, Shift(1)), 24, n_max=8)
    ctx = engine._Ctx(tr.element, EngineConfig(n_max=8, window=tr.window))
    w = tr.window.element
    for scale in (1.0, 1e-12, 1e-9):
        for _ in range(5):
            e = Element(COMPLEX, scale * _random_complex(tr.element.dim, rng).mat)
            want = (w @ e @ w).norm()
            assert abs(ctx.wres(e) - want) <= 1e-15 * want
            assert ctx.ok(e) == (w @ e @ w).is_zero()
    x = random_contraction(4, rng)
    w = from_rows(RATIONAL, [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    ctx = engine._Ctx(x, EngineConfig(window=from_element(w)))
    one = identity(RATIONAL, 4)
    for _ in range(5):
        e = random_contraction(4, rng)
        for d in (e, (one - w) @ e @ (one - w), w @ e @ (one - w)):
            assert ctx.wres(d) == (w @ d @ w).norm()
            assert ctx.ok(d) == (w @ d @ w).is_zero()


def test_window_residual_makes_no_matmul(monkeypatch):
    tr = truncate(Shift(1), 24, n_max=8)
    ctx = engine._Ctx(tr.element, EngineConfig(n_max=8, window=tr.window))
    e = _random_complex(tr.element.dim, np.random.default_rng(9))
    calls = []
    matmul = Element.__matmul__
    monkeypatch.setattr(Element, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b))
    assert ctx.wres(e) > 0 and not ctx.ok(e)
    assert not calls


def test_window_must_be_a_coordinate_mask():
    swap = from_rows(RATIONAL, [[0, 1], [1, 0]])
    tilted = from_element(from_rows(RATIONAL, [["1/2", "1/2"], ["1/2", "1/2"]]))
    with pytest.raises(PreconditionError, match="0/1 diagonal"):
        wold(swap, EngineConfig(window=tilted))
    # a projection within eps_eq, but its diagonal is not 0/1
    near = from_element(Element(COMPLEX, np.diag([1, 1 - 1e-12]).astype(complex)))
    with pytest.raises(PreconditionError, match="0/1 diagonal"):
        wold(Element(COMPLEX, np.diag([0.6 + 0.8j, -1])), EngineConfig(window=near))
    # a window of another size or domain is refused as the products refused it
    with pytest.raises(DomainMismatchError):
        wold(swap, EngineConfig(window=identity_projection(RATIONAL, 3)))
    with pytest.raises(DomainMismatchError):
        wold(swap, EngineConfig(window=identity_projection(COMPLEX, 2)))
