"""The engine's series, meets and fixpoint exits against their stepped and
run-to-cap references (tests/chain_reference.py), the truncated
Halmos–Wallen and product-PPI splits against their ground truth, plus the
stabilisation contract: the engine's ∧[xⁿ], the complement of Wold's
series, stops where the stepped range chain does and raises
IndeterminateError past the same cap.  Słociński's shift-block
certificates and weak bi-shift's p_uu, m_us and m_su, which the engine
reads off the Wold parts, are checked against the stepped range chain, and
every reference is checked to be reached.  The factorisation budgets of
Wold's parts (one SVD, one QR) and of one reducing-fixpoint sweep are
pinned too, with the SVD, QR, matmul and power budgets of one `wold`, of
one `halmos_wallen` and of `slocinski` and `weak_bishift` on the grid pair,
the rref budget of `halmos_wallen` on a full-rank x and the
`left_projection` budget of the lemma residuals.
The zero-matrix exits of orth and nullspace are checked against the SVD
path."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stardecomp import (
    COMPLEX,
    Adjoint,
    Element,
    EngineConfig,
    IndeterminateError,
    RATIONAL,
    Shift,
    Trunc,
    construct_gf_ring,
    direct_sum,
    from_rows,
    ground_truth_hw,
    ground_truth_wold,
    halmos_wallen,
    hw_pair_product,
    largest_product_ppi,
    nfl,
    pair_instances,
    slocinski,
    truncate,
    unitary,
    weak_bishift,
    wold,
)
from stardecomp import engine, linalg, serialize, subspaces
from stardecomp.cli import main
from stardecomp.fixtures import (
    commuting_orthogonal_pair,
    gf_signed_permutation,
    random_complex_unitary,
    random_contraction,
    random_ppi,
    rational_orthogonal,
)
from stardecomp.projections import (
    coordinate_projection,
    from_basis,
    identity_projection,
    pair_product,
    proj_inf,
)

from chain_reference import (
    REFERENCES,
    STEP_REFERENCES,
    chain_shift_corner_res,
    chain_wold_parts,
    corner_cnu_res_to_cap,
    mixed_wandering_to_cap,
    nfl_unitary_part_to_cap,
    power_lemma_certificates,
    reducing_fixpoint_by_meets,
    reference_engine,
    stepped_range_chain_inf,
    subspace_step_references,
)

J3 = from_rows(RATIONAL, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
SPECS = Path(__file__).resolve().parents[1] / "bench" / "specs"


def _spec_operators(name, truncation=None):
    return serialize.load_spec(str(SPECS / name)).realised(truncation, 16)


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
        _assert_identical(*_both(wold, x1))


def test_exact_largest_product_ppi_matches_run_to_cap():
    rng = np.random.default_rng(80)  # acceptance criterion 8
    for _ in range(15):
        dim = int(rng.integers(3, 6))
        commuting_orthogonal_pair(dim, rng)
        x = random_ppi(dim, rng)
        got, want = _both(largest_product_ppi, x, x.power(2))
        assert np.array_equal(got.element.mat, want.element.mat)
        # the criterion's maximality probe draws nothing around the identity
        assert got.rank == dim


def test_exact_cnu_corner_matches_its_own_loop():
    # both corners of each split, so the u-corners give nonzero residuals
    rng = np.random.default_rng(70)  # acceptance criterion 7
    nonzero = 0
    for _ in range(16):
        x = random_contraction(int(rng.integers(2, 9)), rng)
        ctx = engine._Ctx(x, EngineConfig())
        for _, p in nfl(x).basis.members:
            if not p.rank:
                continue
            got = engine._corner_cnu_res(ctx, x, p)
            assert got == corner_cnu_res_to_cap(ctx, x, p)
            nonzero += got > 0
    assert nonzero


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


# ------------------------- Wold parts: complement of the series, by chain


def _rational_jordan_plus_orthogonal(n, rng):
    """J_n ⊕ a rational orthogonal 3×3 block over Q, J_n the n×n Jordan
    block, with every coordinate but J_n's last as the window: an isometry
    on its window with a shift part of rank n and a unitary part of rank 3."""
    mat = RATIONAL.zeros(n + 3, n + 3)
    for i in range(n - 1):
        mat[i + 1, i] = RATIONAL.one()
    mat[n:, n:] = rational_orthogonal(3, rng).mat
    keep = np.ones(n + 3, dtype=bool)
    keep[n - 1] = False
    return Element(RATIONAL, mat), coordinate_projection(RATIONAL, keep)


def _exact_wold_inputs():
    rng = np.random.default_rng(30)
    gf = construct_gf_ring(7, 2)
    return [
        (rational_orthogonal(6, rng), None),
        *((x, None) for x in commuting_orthogonal_pair(5, rng)),
        (gf_signed_permutation(gf, rng), None),
        _rational_jordan_plus_orthogonal(6, rng),
        _rational_jordan_plus_orthogonal(12, rng),
    ]


def _float_wold_inputs():
    rng = np.random.default_rng(3)
    out = []
    for n in (16, 64, 128):
        for d, m in ((3, 1), (2, 2)):
            expr = direct_sum(unitary(random_complex_unitary(d, rng).mat), Shift(m))
            out.append((f"u{d}+shift{m} N={n}", expr, n, min(n // 2, 16)))
    for name, n in (("grid", 8), ("grid", 10), ("equal-shift", 32), ("powers", 32),
                    ("unitary-pair", 32), ("mixed", 32)):
        for i, expr in enumerate(pair_instances(name)):
            out.append((f"{name} n={n} x{i + 1}", expr, n, 4 if name == "grid" else 6))
    return out


def _wold_both_ways(x, window, n_max=16):
    """(engine parts, chain-built parts, graded certificate, chain
    certificate) of one isometry."""
    ctx = engine._Ctx(x, EngineConfig(n_max=n_max, window=window))
    got = engine._wold_parts(ctx, x)
    want = chain_wold_parts(ctx, x)
    p_s, blocks = got[1], got[2]
    return (got, want, engine._grading_res(ctx, x, p_s, blocks),
            chain_shift_corner_res(ctx, x, p_s, blocks))


@pytest.mark.parametrize("case", range(6))
def test_exact_unitary_part_by_complement_matches_the_chain(case):
    x, window = _exact_wold_inputs()[case]
    (p_u, p_s, _), (q_u, q_s, _), graded, chain = _wold_both_ways(x, window)
    assert np.array_equal(p_u.element.mat, q_u.element.mat)
    assert np.array_equal(p_s.element.mat, q_s.element.mat)
    assert graded == chain == 0.0


@pytest.mark.parametrize("case", _float_wold_inputs(), ids=lambda c: c[0])
def test_float_unitary_part_by_complement_matches_the_chain(case):
    _, expr, n, n_max = case
    tr = truncate(expr, n, n_max=n_max)
    (p_u, _, _), (q_u, _, _), graded, chain = _wold_both_ways(tr.element, tr.window, n_max)
    assert p_u.rank == q_u.rank
    assert np.linalg.norm(p_u.element.mat - q_u.element.mat) <= 1e-12
    tol = COMPLEX.tol.eps_eq * tr.element.dim
    assert graded <= tol and chain <= tol


@pytest.mark.parametrize("domain", [RATIONAL, COMPLEX], ids=str)
def test_graded_shift_certificate_reads_the_last_block_image(domain):
    # a cyclic permutation maps each coordinate block to the next, as a
    # shift does, and the last one back to the first: only p x B_L breaks
    # the grading, and the range chain finds the whole cycle unitary.  The
    # Jordan block, the cycle without that last image, is graded.  The
    # window leaves out the last coordinate, where the Jordan block is not
    # isometric.
    n = 6
    cycle = np.roll(domain.eye(n), 1, axis=0)
    jordan = cycle.copy()
    jordan[0, n - 1] = domain.zero()
    keep = np.arange(n) < n - 1
    one = identity_projection(domain, n)
    blocks = [domain.eye(n)[:, [k]] for k in range(n)]
    res = {}
    for name, mat in (("cycle", cycle), ("jordan", jordan)):
        x = Element(domain, mat)
        ctx = engine._Ctx(x, EngineConfig(window=coordinate_projection(domain, keep)))
        res[name] = (engine._grading_res(ctx, x, one, blocks),
                     chain_shift_corner_res(ctx, x, one, blocks))
    assert res["cycle"] == pytest.approx((1.0, np.sqrt(n - 1)))
    assert res["jordan"] == (0.0, 0.0)


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
        ("hw all labels", halmos_wallen,
         [direct_sum(unitary([[1j]]), Shift(1), Adjoint(Shift(1)), Trunc(4))], 48, 16),
        ("hw-pair", hw_pair_product, [direct_sum(u2, Trunc(4))] * 2, 24, 8),
        ("hw-pair is", hw_pair_product, [Shift(1)] * 2, 32, 6),
        ("hw-pair cis", hw_pair_product, [Adjoint(Shift(1))] * 2, 32, 6),
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


# hw-pair labels by the Halmos–Wallen label of the product's segment
_PAIR_TRUTH = {"u": "u", "is": "s", "cis": "b", "t": "t"}


def _assert_matches_hw_truth(rep, expr, n, cfg):
    """Each block within 1e-12 of expr's Halmos–Wallen truth on the window."""
    truth = ground_truth_hw(expr, n).projections
    w = cfg.window.element.mat
    for lbl, p in rep.basis.members:
        want = truth[_PAIR_TRUTH.get(lbl, lbl)]
        assert np.linalg.norm(w @ (p.element.mat - want.element.mat) @ w) <= 1e-12, lbl
    x = cfg.window.element
    assert rep.max_residual() <= x.domain.tol.eps_eq * x.dim


@pytest.mark.parametrize("case", _complex_cases(), ids=lambda c: c[0])
def test_truncated_complex_matches_stepped_chain(case):
    name, fn, exprs, n, n_max = case
    xs, cfg = _truncated(exprs, n, n_max)
    if name.startswith("hw"):
        # on a truncation the chain split puts every shift tail in t, where
        # the truth has s, b, is or cis, so the split is checked against the
        # truth instead; each pair's product x1² has the labels of x1
        _assert_matches_hw_truth(fn(*xs, cfg), exprs[0], n, cfg)
        return
    got, want = _both(fn, *xs, cfg)
    _assert_close(got, want, cfg)


# ------------- pair infima read off the Wold parts, against the range chain


def _unitary_part(ctx, x):
    """The engine's ∧[xⁿ]: the complement of Wold's series (`_wold_parts`)."""
    return engine._wold_parts(ctx, x)[0]


def _pair_infima_both_ways(x1, x2, cfg):
    """[(engine, chain)] for weak bi-shift's p_uu, m_us and m_su, the
    certificates that read them, and (engine, chain certificate) for every
    Słociński block with a shift coordinate.

    The chain forms are the stepped range chains ∧[(x1 x2)ⁿ], ∧ₙ x1ⁿ W_us
    and ∧ₙ x2ⁿ W_su, and, for a shift coordinate of x on a block p, x
    isometric on p beside the chain residual ∧[(pxp)ⁿ]."""
    ctx = engine._Ctx(x1, cfg)
    weak = weak_bishift(x1, x2, cfg)
    p_ws = weak.basis["ws"]
    projections = [(weak.basis["uu"], stepped_range_chain_inf(ctx, x1 @ x2))]
    certificates = [(weak.certificates["shift_product"],
                     ctx.wres(pair_product(p_ws, projections[0][1])))]
    for x, key, w in ((x1, "shift_x1_w_us", weak.extras["w_us"]),
                      (x2, "shift_x2_w_su", weak.extras["w_su"])):
        chain = stepped_range_chain_inf(ctx, x, start=w.range_basis)
        projections.append((proj_inf([w, _unitary_part(ctx, x)]), chain))
        certificates.append((weak.certificates[key], ctx.wres(pair_product(p_ws, chain))))
    rep = slocinski(x1, x2, cfg)
    assert rep.holds
    for label, p in rep.basis.members:
        if not p.rank or label == "uu":
            continue
        want = max(
            engine._corner_unitary_res(ctx, x, p) if kind == "u"
            else max(engine._isometry_res(ctx, x, p), chain_shift_corner_res(ctx, x, p, []))
            for x, kind in zip((x1, x2), label)
        )
        certificates.append((rep.certificates[f"block[{label}]"], want))
    return projections, certificates


def _pair_instance_cases():
    return [(name, n, 4 if name == "grid" else 6)
            for name, sizes in (("grid", (8, 10)), ("equal-shift", (20, 32)),
                                ("powers", (20, 32)), ("unitary-pair", (16, 32)),
                                ("mixed", (20, 32)))
            for n in sizes]


@pytest.mark.parametrize("name,n,n_max", _pair_instance_cases())
def test_pair_infima_match_the_range_chain(name, n, n_max):
    xs, cfg = _truncated(list(pair_instances(name)), n, n_max)
    projections, certificates = _pair_infima_both_ways(*xs, cfg)
    for got, want in projections:
        assert got.rank == want.rank
        assert np.linalg.norm(got.element.mat - want.element.mat) <= 1e-12
    tol = COMPLEX.tol.eps_eq * xs[0].dim
    for got, want in certificates:
        assert got <= tol and want <= tol


def test_exact_pair_infima_match_the_range_chain():
    # the pairs of acceptance criteria 3 and 4, and a Jordan block with a
    # rational orthogonal block paired with itself, whose ss block is the
    # Jordan block and so takes the shift certificate
    rng = np.random.default_rng(30)
    pairs = [(commuting_orthogonal_pair(int(rng.integers(2, 7)), rng), None)
             for _ in range(12)]
    x, window = _rational_jordan_plus_orthogonal(5, rng)
    pairs.append(((x, x), window))
    shift_blocks = 0
    for (x1, x2), window in pairs:
        projections, certificates = _pair_infima_both_ways(x1, x2, EngineConfig(window=window))
        for got, want in projections:
            assert np.array_equal(got.element.mat, want.element.mat)
        assert all(got == want for got, want in certificates)
        shift_blocks += len(certificates) - 3
    assert shift_blocks == 1


def test_every_reference_is_reached():
    # a reference kept for a helper that no method calls would compare
    # nothing; each is reached by reference_engine or, for the step
    # references it overrides, by subspace_step_references
    reached = set()

    def recording(fn):
        def wrapper(*args, **kwargs):
            reached.add(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    rng = np.random.default_rng(30)
    x1, x2 = commuting_orthogonal_pair(3, rng)
    jordan, window = _rational_jordan_plus_orthogonal(3, rng)
    targets = [*STEP_REFERENCES, *((engine, name, fn) for name, fn in REFERENCES.items())]
    for route in (reference_engine, subspace_step_references):
        with pytest.MonkeyPatch.context() as mp:
            route(mp)
            for owner, name, fn in targets:
                if getattr(owner, name) is fn:
                    mp.setattr(owner, name, recording(fn))
            wold(jordan, EngineConfig(window=window))
            halmos_wallen(J3)
            nfl(J3)
            slocinski(x1, x2)
            weak_bishift(x1, x2)
            hw_pair_product(J3, J3 @ J3)
            largest_product_ppi(J3, J3)
    assert reached == {fn.__name__ for _, _, fn in targets}


def _complex_contraction(rng):
    """q (u ⊕ j ⊕ d) q* with u unitary, j a nilpotent Jordan block and d of
    norm 1/2, each of size 0 to 3, and q a random unitary; the unitary part
    has the rank of u.  j is isometric on all but its last basis vector, so
    ker(1 - x*x) ∧ ker(1 - xx*) is larger than the unitary part."""
    k, m, r = (int(v) for v in rng.integers(0, 4, size=3))
    dim = max(k + m + r, 1)
    mat = np.zeros((dim, dim), dtype=complex)
    if k:
        mat[:k, :k] = random_complex_unitary(k, rng).mat
    mat[k:k + m, k:k + m] = np.eye(m, k=-1)
    if r:
        z = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        mat[k + m:, k + m:] = z / (2 * np.linalg.norm(z, 2))
    q = random_complex_unitary(dim, rng)
    return q @ Element(q.domain, mat) @ q.star(), k


def _assert_nfl_matches_run_to_cap(x, cfg):
    got = nfl(x, cfg).basis["u"]
    want = nfl_unitary_part_to_cap(engine._Ctx(x, cfg), x)
    assert got.rank == want.rank
    assert np.abs(got.element.mat - want.element.mat).max() <= 1e-12
    return got.rank


def test_complex_nfl_matches_run_to_cap():
    rng = np.random.default_rng(90)
    for _ in range(40):
        x, k = _complex_contraction(rng)
        assert _assert_nfl_matches_run_to_cap(x, EngineConfig()) == k


def test_truncated_nfl_matches_run_to_cap():
    # i ⊕ S* ⊕ J3 at N = 32: the unitary part is the i block
    (x,), window = _spec_operators("hw64.json", 32)
    assert _assert_nfl_matches_run_to_cap(x, EngineConfig(n_max=16, window=window)) == 1


# -------------------------------------------------- stabilisation contract


def _count_svds(monkeypatch, vectors_only=False):
    """Shapes of the SVDs taken; with vectors_only, of those that return
    singular vectors."""
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        if not vectors_only or kwargs.get("compute_uv", True):
            calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


@pytest.mark.parametrize("n", [128, 256])
def test_range_chain_costs_at_most_three_factorisations(monkeypatch, n):
    tr = truncate(Shift(1), n, n_max=16)
    ctx = engine._Ctx(tr.element, EngineConfig(n_max=16, window=tr.window))
    calls = _count_svds(monkeypatch)
    assert _unitary_part(ctx, tr.element).rank == 0
    # the SVD of x for ker x*; the series ends on a zero matrix, which
    # takes no SVD
    assert len(calls) == 1
    calls.clear()
    assert stepped_range_chain_inf(ctx, tr.element).rank == 0
    # one per index; the last step is the zero matrix
    assert len(calls) >= n


def _unitary_plus_shift():
    u3 = unitary(random_complex_unitary(3, np.random.default_rng(2)).mat)
    return direct_sum(u3, Shift(1))


def test_wold_parts_take_one_svd_and_one_qr(monkeypatch):
    # one SVD of x gives the series' first term ker x*, the series blocks
    # are orthonormal already, and the unitary part is the complement of
    # the series from one complete QR of its basis: no range chain
    tr = truncate(_unitary_plus_shift(), 128, n_max=16)
    ctx = engine._Ctx(tr.element, EngineConfig(n_max=16, window=tr.window))
    calls = _count_svds(monkeypatch)
    qrs = _count_qrs(monkeypatch)
    p_u, p_s, blocks = engine._wold_parts(ctx, tr.element)
    assert (p_u.rank, p_s.rank, len(blocks)) == (3, 128, 128)
    assert (len(calls), qrs) == (1, [(131, 128)])


def _count_qrs(monkeypatch):
    """Shapes of the QR factorisations taken."""
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kwargs:
                        calls.append(a.shape) or qr(a, *args, **kwargs))
    return calls


def _count_calls(monkeypatch, name):
    """Patch Element.<name> to record each call's caller."""
    callers = []
    method = getattr(Element, name)

    def counting(self, *args):
        callers.append(sys._getframe(1).f_code.co_name)
        return method(self, *args)

    monkeypatch.setattr(Element, name, counting)
    return callers


def _wold_128(monkeypatch):
    """(SVD shapes with singular vectors, QR shapes, matmul callers, power
    callers) of one wold call."""
    tr = truncate(_unitary_plus_shift(), 128, n_max=16)
    cfg = EngineConfig(n_max=16, window=tr.window)
    svds = _count_svds(monkeypatch, vectors_only=True)
    qrs = _count_qrs(monkeypatch)
    matmuls = _count_calls(monkeypatch, "__matmul__")
    powers = _count_calls(monkeypatch, "power")
    wold(tr.element, cfg)
    return svds, qrs, matmuls, powers


def test_wold_takes_two_basis_factorisations(monkeypatch):
    # the SVD of x for ker x* and the complete QR of the series basis for
    # the unitary part; the series blocks and their join are their own
    # bases, and the shift corner is read off the series' grading, so no
    # power is formed
    svds, qrs, _, powers = _wold_128(monkeypatch)
    assert (svds, qrs) == ([(131, 131)], [(131, 128)])
    assert not powers


def test_wold_matmul_budget(monkeypatch):
    # x*x and xx* are formed once, no chain takes a power, the shift
    # corner's grading takes thin products only, and the rank-3 unitary
    # part enters its certificates through its basis
    _, _, matmuls, _ = _wold_128(monkeypatch)
    assert len(matmuls) <= 6


def test_wold_svd_budget(monkeypatch):
    # the SVD of x for ker x*; the series blocks are orthonormal already
    # and take none, and neither the complement nor the graded shift
    # corner takes one
    tr = truncate(_unitary_plus_shift(), 128, n_max=16)
    calls = _count_svds(monkeypatch)
    wold(tr.element, EngineConfig(n_max=16, window=tr.window))
    assert len(calls) <= 1


def _grid_counts(monkeypatch, method):
    """(shape, full_matrices) of every SVD, matmul callers and power
    callers of one call on the grid pair, n = 10."""
    trs = [truncate(e, 10, n_max=4) for e in pair_instances("grid")]
    calls = []
    svd = np.linalg.svd

    def counting_svd(a, full_matrices=True, **kwargs):
        calls.append((a.shape, full_matrices))
        return svd(a, full_matrices=full_matrices, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    matmuls = _count_calls(monkeypatch, "__matmul__")
    powers = _count_calls(monkeypatch, "power")
    method(*(t.element for t in trs), EngineConfig(n_max=4, window=trs[0].window))
    return calls, matmuls, powers


def test_slocinski_svd_budget(monkeypatch):
    # one SVD of each operator for its Wold series; no meet stacks its
    # bases into a wide matrix, no series step or meet of nested spans
    # takes an SVD, and the shift blocks are certified by the Wold series'
    # gradings with no chain or power
    calls, matmuls, powers = _grid_counts(monkeypatch, slocinski)
    assert not [shape for shape, full in calls if full and shape[1] > shape[0]]
    assert len(calls) <= 2
    assert len(matmuls) <= 37
    assert not powers


def test_weak_bishift_svd_budget(monkeypatch):
    # each mixed wandering step is one thin kernel inside K_1, and p_uu,
    # m_us and m_su are a fixpoint and two meets of the Wold parts, with
    # no chain or power
    calls, matmuls, powers = _grid_counts(monkeypatch, weak_bishift)
    assert len(calls) <= 5
    assert len(matmuls) <= 5
    assert not powers


def test_full_rank_first_step_is_its_own_basis(monkeypatch):
    # halmos_wallen on a rational orthogonal x, which has no cokernel: each
    # series seed is one rref kernel and each empty series join one rref of
    # no columns, and the unitary part is the kernel of no rows
    x = rational_orthogonal(6, np.random.default_rng(5))
    got, want = _both(halmos_wallen, x)
    _assert_identical(got, want)
    rrefs = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda *a: rrefs.append(1) or rref(*a))
    halmos_wallen(x)
    assert len(rrefs) == 5


def test_lemma_identity_is_not_factorised(monkeypatch):
    (x1, x2), _ = _spec_operators("ppipair4.json")
    got, want = _both(hw_pair_product, x1, x2)
    _assert_identical(got, want)
    calls = []
    left = engine.left_projection
    monkeypatch.setattr(engine, "left_projection", lambda a: calls.append(1) or left(a))
    hw_pair_product(x1, x2)
    assert len(calls) == 22


def test_halmos_wallen_budget(monkeypatch):
    # i ⊕ S* ⊕ J3 at N = 64 (dim 68): one SVD of the window rows of x and
    # of x* for the two series seeds, one where x*'s series loses J3's
    # block, two small kernels T* B for s and b, and one complete QR for u;
    # no range chain, so no power, and no part wrapped by from_element
    (x,), window = _spec_operators("hw64.json", 64)
    svds = _count_svds(monkeypatch)
    qrs = _count_qrs(monkeypatch)
    matmuls = _count_calls(monkeypatch, "__matmul__")
    powers = _count_calls(monkeypatch, "power")
    wrapped = []
    monkeypatch.setattr(engine, "from_element", lambda e: wrapped.append(e))
    rep = halmos_wallen(x, EngineConfig(n_max=16, window=window))
    assert {lbl: p.rank for lbl, p in rep.basis.members} == {"u": 1, "s": 0, "b": 64, "t": 3}
    assert len(svds) <= 5
    assert qrs == [(68, 67)]
    assert len(matmuls) <= 53
    assert not powers and not wrapped


def test_carried_powers_start_at_x(monkeypatch):
    # the nfl kernels, the product-PPI constraint and the lemma residuals
    # carry x^n from x itself: none multiplies by the identity on the left
    (c8,), _ = _spec_operators("contraction8.json")
    (x1, x2), _ = _spec_operators("ppipair4.json")
    by_identity = []
    matmul = Element.__matmul__

    def recording(self, other):
        if self.domain.is_zero(self.mat - self.domain.eye(self.dim)):
            by_identity.append(sys._getframe(1).f_code.co_name)
        return matmul(self, other)

    monkeypatch.setattr(Element, "__matmul__", recording)
    nfl(c8)
    hw_pair_product(x1, x2)
    largest_product_ppi(x1, x2)
    carried = {"_nfl_unitary_part", "_product_ppi_constraint", "_lemma_certificates"}
    assert not carried & set(by_identity)


def test_reducing_fixpoint_sweep_is_one_kernel_per_operator(monkeypatch):
    # the unitary coordinates reduce x, so the fixpoint ends after one sweep,
    # and its two kernels (x and x*) are of numerically zero matrices
    expr = _unitary_plus_shift()
    tr = truncate(expr, 32, n_max=8)
    e = ground_truth_wold(expr, 32).projections["u"]
    calls = _count_svds(monkeypatch)
    p = engine.reducing_fixpoint([tr.element], e)
    assert len(calls) == 0
    want = reducing_fixpoint_by_meets([tr.element], e)
    assert p.rank == want.rank == 3
    assert np.linalg.norm(p.element.mat - want.element.mat) <= 1e-10


# ------------------------------------------------------ subspace primitives

EPS_RANK = COMPLEX.tol.eps_rank


@pytest.mark.parametrize("dtype", [complex, float])
@pytest.mark.parametrize("scale", [0.0, 1e-13])
def test_orth_zero_exit_matches_the_svd_path(monkeypatch, dtype, scale):
    mat = (scale * np.random.default_rng(0).standard_normal((5, 3))).astype(dtype)
    want = np.linalg.svd(mat, full_matrices=False)[0][:, :0]
    calls = _count_svds(monkeypatch)
    got = subspaces.orth(COMPLEX, mat)
    assert got.shape == want.shape == (5, 0)
    assert got.dtype == want.dtype
    assert not calls


def test_orth_factorises_just_above_the_threshold(monkeypatch):
    calls = _count_svds(monkeypatch)
    # rank one, Frobenius norm = σ₁ just above the cutoff
    above = np.zeros((4, 4), dtype=complex)
    above[1, 2] = 1.01 * EPS_RANK
    assert subspaces.orth(COMPLEX, above).shape == (4, 1)
    # Frobenius norm above the cutoff, every singular value below it
    spread = 0.6 * EPS_RANK * np.eye(4, dtype=complex)
    assert subspaces.orth(COMPLEX, spread).shape == (4, 0)
    assert len(calls) == 2


@pytest.mark.parametrize("dtype", [complex, float])
@pytest.mark.parametrize("scale", [0.0, 1e-13])
@pytest.mark.parametrize("shape", [(5, 3), (3, 5)])
def test_nullspace_zero_exit_is_the_identity(monkeypatch, dtype, scale, shape):
    mat = (scale * np.random.default_rng(0).standard_normal(shape)).astype(dtype)
    want = np.linalg.svd(mat)[2].conj().T  # every right singular vector
    calls = _count_svds(monkeypatch)
    got = subspaces.nullspace(COMPLEX, mat)
    assert not calls
    assert got.dtype == want.dtype
    assert np.array_equal(got, np.eye(shape[1]))


def test_nullspace_factorises_just_above_the_threshold(monkeypatch):
    calls = _count_svds(monkeypatch)
    # rank one, Frobenius norm = σ₁ just above the cutoff
    above = np.zeros((4, 4), dtype=complex)
    above[1, 2] = 1.01 * EPS_RANK
    ker = subspaces.nullspace(COMPLEX, above)
    assert ker.shape == (4, 3)
    assert np.linalg.norm(above @ ker) <= 1e-25
    # Frobenius norm above the cutoff, every singular value below it
    spread = 0.6 * EPS_RANK * np.eye(4, dtype=complex)
    assert subspaces.nullspace(COMPLEX, spread).shape == (4, 4)
    assert len(calls) == 2


def _ctx_with_cap(x, cap):
    ctx = engine._Ctx(x, EngineConfig())
    ctx.cap = cap
    return ctx


def _chain_or_raise(chain, ctx, x):
    try:
        return chain(ctx, x)
    except IndeterminateError:
        return None


def _sweep_caps(x, caps, same):
    """The engine's ∧[xⁿ] and the stepped chain at every cap: both raise,
    or both return the same projection.  Wold's identity also holds for a
    power partial isometry on a finite space, a unitary plus nilpotent
    partial shifts, whose series runs exactly as long as its chain."""
    for cap in caps:
        got = _chain_or_raise(_unitary_part, _ctx_with_cap(x, cap), x)
        want = _chain_or_raise(stepped_range_chain_inf, _ctx_with_cap(x, cap), x)
        assert (got is None) == (want is None), cap
        if got is not None:
            assert got.rank == want.rank, cap
            assert same(got.element.mat, want.element.mat), cap


def _close(a, b):
    return np.linalg.norm(a - b) <= 1e-8


@pytest.mark.parametrize("cap,raises", [(31, True), (32, False)])
def test_range_chain_cap_matches_stepped_chain(cap, raises):
    # the chain of a truncated Shift(1) at N = 32 stops moving at index 32,
    # and Wold's series, whose complement the engine takes, ends with it
    x = truncate(Shift(1), 32, n_max=16).element
    for chain in (_unitary_part, stepped_range_chain_inf):
        ctx = _ctx_with_cap(x, cap)
        if raises:
            with pytest.raises(IndeterminateError):
                chain(ctx, x)
        else:
            assert chain(ctx, x).rank == 0


def test_range_chain_cap_sweep_on_shift():
    _sweep_caps(truncate(Shift(1), 32, n_max=16).element, range(1, 36), _close)


def test_range_chain_cap_sweep_on_unitary_plus_truncated_shift():
    u3 = unitary(random_complex_unitary(3, np.random.default_rng(2)).mat)
    x = truncate(direct_sum(u3, Trunc(4)), 8, n_max=4).element
    _sweep_caps(x, range(1, 9), _close)


def test_range_chain_cap_sweep_exact():
    rng = np.random.default_rng(50)
    for _ in range(6):
        x = random_ppi(int(rng.integers(4, 7)), rng)
        _sweep_caps(x, range(1, 9), np.array_equal)
        _sweep_caps(x.star(), range(1, 9), np.array_equal)
    _sweep_caps(J3, range(1, 6), np.array_equal)


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


def test_largest_product_ppi_raises_past_the_cap(monkeypatch):
    # [J3^n] and [J3*^n] have ranks 2, 1, 0, 0: they repeat at n = 4
    want = largest_product_ppi(J3, J3)
    _small_cap(monkeypatch, 4)
    assert np.array_equal(largest_product_ppi(J3, J3).element.mat, want.element.mat)
    _small_cap(monkeypatch, 3)
    with pytest.raises(IndeterminateError):
        largest_product_ppi(J3, J3)


@pytest.mark.parametrize("cap,raises", [(3, True), (4, False)])
def test_reducing_fixpoint_raises_past_the_cap(monkeypatch, cap, raises):
    # below span(e1, e2, e3) the 4x4 Jordan block's invariant core loses one
    # direction per sweep: ranks 3, 2, 1, 0
    j4 = from_rows(RATIONAL, [[int(i == j + 1) for j in range(4)] for i in range(4)])
    e = from_basis(RATIONAL, RATIONAL.eye(4)[:, :3])
    _small_cap(monkeypatch, cap)
    if raises:
        with pytest.raises(IndeterminateError):
            engine.reducing_fixpoint([j4], e)
    else:
        assert engine.reducing_fixpoint([j4], e).rank == 0


def test_cli_pd_indeterminate_is_exit_4(tmp_path, monkeypatch, capsys):
    # J3 J3* - J3* J3 = diag(-1, 0, 1): the fixpoint starts at span(e2) and
    # its first sweep empties it
    j3 = '{"matrix": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]]}'
    spec = tmp_path / "j3j3.json"
    spec.write_text(f'{{"ring": {{"kind": "rational"}}, "operators": [{j3}, {j3}], '
                    '"pair": [0, 1]}')
    _small_cap(monkeypatch, 2)
    assert main(["decompose", str(spec), "--method", "pd"]) == 0
    capsys.readouterr()
    _small_cap(monkeypatch, 1)
    assert main(["decompose", str(spec), "--method", "pd"]) == 4
    assert "indeterminate" in capsys.readouterr().err


def test_cnu_corner_raises_past_the_cap():
    one = identity_projection(RATIONAL, 3)
    assert engine._corner_cnu_res(_ctx_with_cap(J3, 2), J3, one) == 0.0
    with pytest.raises(IndeterminateError):
        engine._corner_cnu_res(_ctx_with_cap(J3, 1), J3, one)


def test_cli_largest_ppi_indeterminate_is_exit_4(tmp_path, monkeypatch, capsys):
    j3 = '{"matrix": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]]}'
    spec = tmp_path / "j3j3.json"
    spec.write_text(f'{{"ring": {{"kind": "rational"}}, "operators": [{j3}, {j3}], '
                    '"pair": [0, 1]}')
    assert main(["decompose", str(spec), "--method", "largest-ppi"]) == 0
    capsys.readouterr()
    _small_cap(monkeypatch, 3)
    assert main(["decompose", str(spec), "--method", "largest-ppi"]) == 4
    assert "indeterminate" in capsys.readouterr().err
