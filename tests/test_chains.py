"""The doubling range chain and the fixpoint exits against their stepped
references (tests/chain_reference.py), plus the stabilisation contract:
logarithmically many factorisations, and IndeterminateError past the cap."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stardecomp import (
    Adjoint,
    EngineConfig,
    IndeterminateError,
    RATIONAL,
    Shift,
    Trunc,
    construct_gf_ring,
    direct_sum,
    from_rows,
    halmos_wallen,
    hw_pair_product,
    nfl,
    pair_instances,
    slocinski,
    truncate,
    unitary,
    weak_bishift,
    wold,
)
from stardecomp import engine
from stardecomp.cli import main
from stardecomp.fixtures import (
    commuting_orthogonal_pair,
    gf_signed_permutation,
    random_complex_unitary,
    random_contraction,
    random_ppi,
)

from chain_reference import (
    mixed_wandering_to_cap,
    power_lemma_certificates,
    reference_engine,
    stepped_range_chain_inf,
)

J3 = from_rows(RATIONAL, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])


def _both(fn, *args):
    """(engine report, reference report) for one call."""
    got = fn(*args)
    with pytest.MonkeyPatch.context() as mp:
        reference_engine(mp)
        want = fn(*args)
    return got, want


def _assert_identical(got, want):
    assert got.basis.labels() == want.basis.labels()
    for (lbl, p), (_, q) in zip(got.basis.members, want.basis.members):
        assert np.array_equal(p.element.mat, q.element.mat), lbl
    assert got.certificates == want.certificates
    assert got.condition_vector == want.condition_vector


# ------------------------------------------- exact fixtures: bit-identical
# The rational fixtures are the leading instances of the acceptance seeds.


def test_exact_hw_matches_stepped_chain():
    rng = np.random.default_rng(50)  # acceptance criterion 5
    for _ in range(30):
        _assert_identical(*_both(halmos_wallen, random_ppi(int(rng.integers(2, 7)), rng)))
    _assert_identical(*_both(halmos_wallen, J3))


def test_exact_hw_pair_product_matches_stepped_chain():
    # the certificates hold every lemmaA1/lemmaA2 residual
    rng = np.random.default_rng(60)  # acceptance criterion 6
    for _ in range(8):
        x = random_ppi(int(rng.integers(3, 7)), rng)
        _assert_identical(*_both(hw_pair_product, x, x.power(int(rng.integers(2, 4)))))


def test_exact_nfl_matches_run_to_cap():
    rng = np.random.default_rng(70)  # acceptance criterion 7
    for _ in range(16):
        _assert_identical(*_both(nfl, random_contraction(int(rng.integers(2, 9)), rng)))


def test_exact_pairs_match_stepped_chains():
    rng = np.random.default_rng(30)  # acceptance criteria 3 and 4
    for _ in range(12):
        x1, x2 = commuting_orthogonal_pair(int(rng.integers(2, 7)), rng)
        _assert_identical(*_both(weak_bishift, x1, x2))
        _assert_identical(*_both(slocinski, x1, x2))


@pytest.mark.parametrize("p,dim", [(3, 2), (7, 2), (3, 1), (2, 1)])
def test_gf_matches_stepped_chain(p, dim):
    dom = construct_gf_ring(p, dim)
    rng = np.random.default_rng(p)
    for _ in range(4):
        x = gf_signed_permutation(dom, rng)
        _assert_identical(*_both(wold, x))
        _assert_identical(*_both(halmos_wallen, x))
        _assert_identical(*_both(weak_bishift, x, x @ x))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 7))
def test_random_rational_ppi_matches_stepped_chain(seed, dim):
    _assert_identical(*_both(halmos_wallen, random_ppi(dim, np.random.default_rng(seed))))


# ------------------------------------ truncated complex: window distance


def _truncated(exprs, n, n_max):
    trs = [truncate(e, n, n_max=n_max) for e in exprs]
    return [t.element for t in trs], EngineConfig(n_max=n_max, window=trs[0].window)


def _assert_close(got, want, cfg):
    w = cfg.window.element.mat
    assert got.basis.labels() == want.basis.labels()
    for (lbl, p), (_, q) in zip(got.basis.members, want.basis.members):
        assert np.linalg.norm(w @ (p.element.mat - q.element.mat) @ w) <= 1e-8, lbl
    assert got.certificates.keys() == want.certificates.keys()
    assert got.condition_vector == want.condition_vector
    x = cfg.window.element
    assert got.max_residual() <= x.domain.tol.eps_eq * x.dim


def _complex_cases():
    rng = np.random.default_rng(2)
    u3 = unitary(random_complex_unitary(3, rng).mat)
    u2 = unitary(random_complex_unitary(2, rng).mat)
    return [
        ("wold", wold, [Shift(1)], 64, 16),
        ("wold", wold, [direct_sum(u3, Shift(2))], 64, 16),
        ("hw", halmos_wallen, [direct_sum(u2, Adjoint(Shift(1)), Trunc(4))], 48, 16),
        ("hw-pair", hw_pair_product, [direct_sum(u2, Trunc(4))] * 2, 24, 8),
        ("slocinski grid", slocinski, list(pair_instances("grid")), 8, 4),
        ("weak grid", weak_bishift, list(pair_instances("grid")), 8, 4),
        ("slocinski mixed", slocinski, list(pair_instances("mixed")), 20, 6),
        ("weak mixed", weak_bishift, list(pair_instances("mixed")), 20, 6),
        ("weak powers", weak_bishift, list(pair_instances("powers")), 20, 6),
    ]


def test_lemma_certificates_complex_agree_to_roundoff():
    # incremental powers associate the products differently from
    # Element.power, so complex residuals may differ in the last bits
    u2 = unitary(random_complex_unitary(2, np.random.default_rng(2)).mat)
    (x,), cfg = _truncated([direct_sum(u2, Adjoint(Shift(1)), Trunc(3))], 32, 12)
    ctx = engine._Ctx(x, cfg)
    got = engine._lemma_certificates(ctx, x, x @ x)
    want = power_lemma_certificates(ctx, x, x @ x)
    assert list(got) == list(want)
    assert max(abs(got[k] - want[k]) for k in got) <= 1e-12


@pytest.mark.parametrize("case", _complex_cases(), ids=lambda c: c[0])
def test_truncated_complex_matches_stepped_chain(case):
    _, fn, exprs, n, n_max = case
    xs, cfg = _truncated(exprs, n, n_max)
    got, want = _both(fn, *xs, cfg)
    _assert_close(got, want, cfg)


# -------------------------------------------------- stabilisation contract


def test_range_chain_factorisations_are_logarithmic(monkeypatch):
    tr = truncate(Shift(1), 128, n_max=16)
    ctx = engine._Ctx(tr.element, EngineConfig(n_max=16, window=tr.window))
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    p = engine._range_chain_inf(ctx, tr.element)
    assert p.rank == 0
    assert len(calls) <= math.ceil(math.log2(129)) + 1
    calls.clear()
    assert stepped_range_chain_inf(ctx, tr.element).rank == 0
    assert len(calls) > 128


def _ctx_with_cap(x, cap):
    ctx = engine._Ctx(x, EngineConfig())
    ctx.cap = cap
    return ctx


@pytest.mark.parametrize("cap,raises", [(31, True), (32, False)])
def test_range_chain_cap_matches_stepped_chain(cap, raises):
    # the chain of a truncated Shift(1) at N = 32 stops moving at index 32
    x = truncate(Shift(1), 32, n_max=16).element
    for chain in (engine._range_chain_inf, stepped_range_chain_inf):
        ctx = _ctx_with_cap(x, cap)
        if raises:
            with pytest.raises(IndeterminateError):
                chain(ctx, x)
        else:
            assert chain(ctx, x).rank == 0


@pytest.mark.parametrize("cap,raises", [(2, True), (3, False)])
def test_mixed_wandering_cap(cap, raises):
    # for (S^2, S^3) the ranks of K_1, K_2, K_3, K_4 are 3, 1, 0, 0
    (x1, x2), _ = _truncated(list(pair_instances("powers")), 20, 6)
    ctx = _ctx_with_cap(x1, cap)
    if raises:
        with pytest.raises(IndeterminateError):
            engine._mixed_wandering(ctx, x1, x2)
    else:
        got = engine._mixed_wandering(ctx, x1, x2)
        want = mixed_wandering_to_cap(_ctx_with_cap(x1, 64), x1, x2)
        assert got.rank == want.rank == 0


def _small_cap(monkeypatch, cap):
    class SmallCap(engine._Ctx):
        def __init__(self, x, cfg):
            super().__init__(x, cfg)
            self.cap = cap

    monkeypatch.setattr(engine, "_Ctx", SmallCap)


def test_weak_bishift_raises_past_the_cap(monkeypatch):
    xs, cfg = _truncated(list(pair_instances("powers")), 20, 6)
    _small_cap(monkeypatch, 2)
    with pytest.raises(IndeterminateError):
        weak_bishift(*xs, cfg)


def test_nfl_raises_past_the_cap(monkeypatch):
    # the kernel chains of the 3x3 Jordan block move for three steps
    assert nfl(J3).basis["u"].rank == 0
    _small_cap(monkeypatch, 1)
    with pytest.raises(IndeterminateError):
        nfl(J3)


def test_cli_indeterminate_is_exit_4(tmp_path, monkeypatch, capsys):
    spec = tmp_path / "j3.json"
    spec.write_text('{"ring": {"kind": "rational"}, "operators": [{"matrix": '
                    '[["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]]}]}')
    assert main(["decompose", str(spec), "--method", "nfl"]) == 0
    capsys.readouterr()
    _small_cap(monkeypatch, 1)
    assert main(["decompose", str(spec), "--method", "nfl"]) == 4
    assert "indeterminate" in capsys.readouterr().err
