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
pinned too, with the SVD, QR, matmul, power and masked-element budgets of
one `wold`, of one `halmos_wallen` and of `slocinski` and `weak_bishift` on
the grid pair,
the rref budget of `halmos_wallen` on a full-rank x, the
`left_projection` budget of the lemma residuals and the no-power,
no-range-projection budget of the product-PPI constraint.  That
constraint reads [yⁿ] = 1 - (B₀ ⊕ … ⊕ Bₙ₋₁) off y's wandering series,
checked against `left_projection(yⁿ)`, and one pair with a proper
constraint checks it end to end.
The PPI precondition, which reads x's monomial components in closed form
and checks only the rest densely, is checked against one dense check of
every power (`dense_ppi_on_window`) on random direct sums, and its
products are pinned to the dense block.  The traced peak of one large
`wold`, `halmos_wallen` and `weak_bishift` call is bounded by a multiple
of its input's bytes, and the truncated shift beside the identity pins
the us and su labels.
The zero-matrix exits of orth and nullspace are checked against the SVD
path."""

import gc
import sys
import tracemalloc
from fractions import Fraction
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
    corollary_check,
    direct_sum,
    from_rows,
    ground_truth_hw,
    ground_truth_wold,
    halmos_wallen,
    hw_pair_doubly,
    hw_pair_product,
    largest_product_ppi,
    maximality_probe,
    nfl,
    nfl_pair_doubly,
    pair_instances,
    slocinski,
    truncate,
    unitary,
    weak_bishift,
    wold,
)
from stardecomp import engine, linalg, projections, serialize, subspaces
from stardecomp.cli import main
from stardecomp.elements import is_partial_isometry
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
    left_projection,
    pair_product,
    proj_inf,
)

from chain_reference import (
    REFERENCES,
    STEP_REFERENCES,
    chain_shift_corner_res,
    chain_wold_parts,
    corner_cnu_res_to_cap,
    dense_ppi_on_window,
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


def _proper_corner_pair(conjugate):
    """x1 = J3 ⊕ 0 ⊕ J2 and x2 = X ⊕ J2, commuting PPIs whose product is
    not one; with conjugate, both conjugated by one rational orthogonal."""
    f = Fraction
    x1 = from_rows(RATIONAL, [[0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                              [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0]])
    x2 = from_rows(RATIONAL, [[0, 0, 0, 0, 0, 0], [f(3, 5), 0, 0, 0, 0, 0],
                              [0, f(3, 5), 0, f(4, 5), 0, 0], [f(4, 5), 0, 0, 0, 0, 0],
                              [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0]])
    if conjugate:
        q = rational_orthogonal(6, np.random.default_rng(3))
        x1, x2 = q @ x1 @ q.star(), q @ x2 @ q.star()
    return x1, x2


def _product_ppi_predicate(x1, x2):
    """Acceptance criterion 8's predicate: q x1 x2 q is a PPI."""
    def pred(q):
        y = q.element @ x1 @ x2 @ q.element
        pw = y
        for _ in range(y.dim):
            if not is_partial_isometry(pw):
                return False
            pw = pw @ y
        return True

    return pred


@pytest.mark.parametrize("conjugate", [False, True], ids=["coordinates", "conjugated"])
def test_largest_product_ppi_on_a_proper_corner(conjugate):
    # the one input whose constraint is not the identity: its rank-4
    # constraint has the J2 block as its reducing core
    x1, x2 = _proper_corner_pair(conjugate)
    assert (x1 @ x2).equals(x2 @ x1)
    constraint = engine._product_ppi_constraint(engine._Ctx(x1), x1, x2)
    assert constraint.rank == 4
    got, want = _both(largest_product_ppi, x1, x2)
    assert np.array_equal(got.element.mat, want.element.mat)
    assert got.rank == 2
    rng = np.random.default_rng(80)
    assert maximality_probe(got, [x1, x2], _product_ppi_predicate(x1, x2), rng)


def _assert_prefixes_are_range_complements(y, cfg, exact):
    # [yⁿ] = 1 - (B₀ ⊕ … ⊕ Bₙ₋₁) at every n below the cap, for y and y*
    for op in (y, y.star()):
        ctx = engine._Ctx(op, cfg)
        prefixes = engine._series_prefixes(ctx, op)
        power = op
        for n in range(1, ctx.cap):
            got = (ctx.one - prefixes[min(n, len(prefixes)) - 1].element).mat
            want = left_projection(power).element.mat
            if exact:
                assert np.array_equal(got, want), n
            else:
                assert np.linalg.norm(got - want) <= 1e-12, n
            power = power @ op


def test_exact_series_prefixes_are_range_complements():
    rng = np.random.default_rng(90)
    for _ in range(6):
        _assert_prefixes_are_range_complements(random_ppi(int(rng.integers(2, 7)), rng),
                                               EngineConfig(), exact=True)


@pytest.mark.parametrize("exprs", [
    [pair_instances("mixed")[0]],
    [direct_sum(unitary(random_complex_unitary(2, np.random.default_rng(2)).mat),
                Shift(1), Adjoint(Shift(1)), Trunc(4))],
], ids=["mixed x1", "u2+S+S*+J4"])
def test_truncated_series_prefixes_are_range_complements(exprs):
    (y,), cfg = _truncated(exprs, 32, 6)
    _assert_prefixes_are_range_complements(y, cfg, exact=False)


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
    return (got, want, engine._grading_res(ctx, x, got[2]),
            chain_shift_corner_res(ctx, x, got[2]))


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
        series = engine._Series(one.range_basis, blocks)
        res[name] = (engine._grading_res(ctx, x, series), chain_shift_corner_res(ctx, x, series))
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
    certificates = [(weak.certificates["basis_orth[uu,ws]"],
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
            else max(engine._isometry_res(ctx, x, p),
                     chain_shift_corner_res(ctx, x, engine._Series(p.range_basis, [])))
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
    # x's non-lone rest is the shift's zero boundary row and column, whose
    # cokernel is its coordinate rows with no SVD, and the series is walked
    assert not calls
    calls.clear()
    assert stepped_range_chain_inf(ctx, tr.element).rank == 0
    # one per index; the last step is the zero matrix
    assert len(calls) >= n


def _unitary_plus_shift():
    u3 = unitary(random_complex_unitary(3, np.random.default_rng(2)).mat)
    return direct_sum(u3, Shift(1))


def test_wold_parts_take_one_svd_and_no_qr(monkeypatch):
    # one SVD of x's non-lone rest (the unitary block beside the shift's
    # zero row and column) gives the series' first term ker x*, the series
    # is walked along the shift's lone columns, and the unitary part is the
    # complement of the series' lone unit columns, the other unit columns,
    # with no QR: no range chain
    tr = truncate(_unitary_plus_shift(), 128, n_max=16)
    ctx = engine._Ctx(tr.element, EngineConfig(n_max=16, window=tr.window))
    calls = _count_svds(monkeypatch)
    qrs = _count_qrs(monkeypatch)
    p_u, p_s, series = engine._wold_parts(ctx, tr.element)
    assert (p_u.rank, p_s.rank, len(series.blocks)) == (3, 128, 128)
    assert (calls, qrs) == ([(4, 4)], [])


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


def test_wold_takes_one_svd_and_no_qr(monkeypatch):
    # the SVD of x's 4×4 non-lone rest for ker x*; the series is walked and
    # its join built once, the unitary part is read off the series' lone
    # unit columns, and the shift corner off the series' grading, so no
    # QR and no power is formed
    svds, qrs, _, powers = _wold_128(monkeypatch)
    assert (svds, qrs) == ([(4, 4)], [])
    assert not powers


def test_wold_walks_its_series_with_no_own_basis(monkeypatch):
    # every series step maps a unit column along a lone entry of x, and the
    # walked join is its own basis: no step or join is checked densely
    tr = truncate(_unitary_plus_shift(), 128, n_max=16)
    calls = []
    own_basis = subspaces.own_basis
    monkeypatch.setattr(subspaces, "own_basis", lambda *a: calls.append(1) or own_basis(*a))
    wold(tr.element, EngineConfig(n_max=16, window=tr.window))
    assert not calls


def test_wold_matmul_budget(monkeypatch):
    # none, and no gathered product either: the isometry precondition
    # reads x's record, |c|² - 1 on its 127 lone columns and a thin Gram
    # product of the unitary block's, with no x*x; no chain takes a power,
    # the shift corner's grading is read off the record, and the masked
    # parts' corners off the record and thin products of their columns
    muls = _count_muls(monkeypatch)
    _, _, matmuls, _ = _wold_128(monkeypatch)
    assert not matmuls
    assert not muls


def _scans(monkeypatch, call, x, *args):
    """The matrices `subspaces.entries` scans in one call on x."""
    scanned = []
    entries = subspaces.entries
    monkeypatch.setattr(subspaces, "entries", lambda mat: scanned.append(mat) or entries(mat))
    call(x, *args)
    return scanned


@pytest.mark.parametrize("method", ["wold", "halmos_wallen"])
def test_each_operator_is_scanned_once(monkeypatch, method):
    # x's record serves the isometry or PPI precondition, the cokernels,
    # the walks, the gradings and the Gram blocks, and x*'s is x's with
    # the axes swapped: x itself is scanned once, and every other scan is
    # of a series seed or basis, thinner than x
    if method == "wold":
        tr = truncate(_unitary_plus_shift(), 128, n_max=16)
        x, call, cfg = tr.element, wold, EngineConfig(n_max=16, window=tr.window)
    else:
        (x,), window = _spec_operators("hw64.json", 64)
        call, cfg = halmos_wallen, EngineConfig(n_max=16, window=window)
    scanned = _scans(monkeypatch, call, x, cfg)
    assert sum(mat is x.mat for mat in scanned) == 1
    assert all(mat is x.mat or mat.shape[1] < x.dim for mat in scanned)


@pytest.mark.parametrize("method", ["wold", "halmos_wallen", "weak_bishift"])
def test_a_call_leaves_no_reference_cycle(method):
    # the context holds each operator's reads with the operator, never
    # with itself, so reference counting frees it, its records, adjoints
    # and splits when the call returns; a cycle would keep them until the
    # cyclic collector runs, and a long run's memory would grow meanwhile
    if method == "wold":
        tr = truncate(_unitary_plus_shift(), 64, n_max=16)
        args = (wold, tr.element, EngineConfig(n_max=16, window=tr.window))
    elif method == "halmos_wallen":
        (x,), window = _spec_operators("hw64.json", 64)
        args = (halmos_wallen, x, EngineConfig(n_max=16, window=window))
    else:
        trs = [truncate(e, 10, n_max=4) for e in pair_instances("grid")]
        args = (weak_bishift, *(t.element for t in trs), EngineConfig(n_max=4, window=trs[0].window))
    gc.collect()
    gc.disable()
    try:
        args[0](*args[1:])
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    # none: each operator's cokernel for its Wold series peels its lone
    # entries and reads its zero 10x10 rest as coordinate rows; no meet
    # stacks its bases into a wide matrix, no series step or meet of
    # nested spans takes an SVD, and the shift blocks are certified by the
    # Wold series' gradings with no chain or power.  The preconditions'
    # x*x, the commutators and x1 x2 are gathered along one-nonzero
    # columns, the full-rank ss seed is its own fixpoint with no sweep,
    # and the Wold parts, their meets and the fixpoints are masked
    # coordinate projections, so c2's pq is the AND of two masks, a
    # projection exactly, and no Element product is formed
    calls, matmuls, powers = _grid_counts(monkeypatch, slocinski)
    assert not calls
    assert not matmuls
    assert not powers


def test_weak_bishift_svd_budget(monkeypatch):
    # none: each mixed wandering step is one thin kernel inside
    # K_1 = ker b*, b's peeled cokernel, and p_uu, m_us and m_su are a
    # fixpoint and two meets of the Wold parts, with no chain or power;
    # every cokernel's 10x10 non-lone rest is zero and takes no SVD, and
    # p_ws, the complement of the join of p_uu, p_us and p_su, is the NOT
    # of the OR of their masks, with no factorisation and no Element
    # product
    calls, matmuls, powers = _grid_counts(monkeypatch, weak_bishift)
    assert not calls
    assert not matmuls
    assert not powers


def _masked_elements_formed(monkeypatch, method, *args):
    """The dims of the dense elements formed from masks in one call."""
    formed = []
    element = projections._Masked.element

    def counting(self):
        if self._element is None:
            formed.append(self.dim)
        return element.fget(self)

    monkeypatch.setattr(projections._Masked, "element", property(counting))
    method(*args)
    return formed


@pytest.mark.parametrize("method", ["wold", "halmos_wallen", "slocinski", "weak_bishift"])
def test_masked_projections_form_no_dense_element(monkeypatch, method):
    # the window, the Wold and Halmos–Wallen parts, the Słociński seeds
    # and fixpoints, weak bi-shift's p_ws (the complement of a join) and
    # their certificates go through masks alone, and so do the size
    # checks of their products, meets and joins
    if method == "wold":
        tr = truncate(_unitary_plus_shift(), 128, n_max=16)
        args = (wold, tr.element, EngineConfig(n_max=16, window=tr.window))
    elif method == "halmos_wallen":
        (x,), window = _spec_operators("hw64.json", 64)
        args = (halmos_wallen, x, EngineConfig(n_max=16, window=window))
    else:
        trs = [truncate(e, 10, n_max=4) for e in pair_instances("grid")]
        args = (slocinski if method == "slocinski" else weak_bishift,
                *(t.element for t in trs), EngineConfig(n_max=4, window=trs[0].window))
    formed = _masked_elements_formed(monkeypatch, *args)
    assert not formed


def _large_calls():
    """(method, inputs, config) at large sizes, the shift-model round's
    kinds drawn from seed 7: wold on u3 ⊕ S and halmos_wallen on
    u5 ⊕ S* ⊕ J4 at N = 1024, weak_bishift on the mixed pair at N = 128."""
    rng = np.random.default_rng(7)
    u3, u5 = (random_complex_unitary(k, rng).mat for k in (3, 5))
    calls = {"wold": (wold, [direct_sum(unitary(u3), Shift(1))], 1024, 16),
             "halmos_wallen": (halmos_wallen, [direct_sum(unitary(u5), Adjoint(Shift(1)),
                                                          Trunc(4))], 1024, 16),
             "weak_bishift": (weak_bishift, list(pair_instances("mixed")), 128, 6)}
    return {name: (method, *_truncated(exprs, n, n_max))
            for name, (method, exprs, n, n_max) in calls.items()}


# the peak that tracemalloc traces in one call, over the bytes of its
# first input, measured at 0.19, 1.09 and 3.64 (3.08, 2.10 and 13.27
# before p_ws was masked and the walked series, x*'s Gram rows and
# preimages and the adjoint's second copy went); lower a bound when the
# peak falls, never raise one
PEAK_BOUNDS = {"wold": 1.0, "halmos_wallen": 1.5, "weak_bishift": 4.0}


@pytest.mark.parametrize("name", PEAK_BOUNDS)
def test_traced_peak_of_a_large_call(name):
    # the second call, so that nothing the first one caches is counted;
    # wold forms no dim × dim array at all, halmos_wallen forms x* once
    # for its g series, and weak_bishift keeps the commutator's products
    method, xs, cfg = _large_calls()[name]
    method(*xs, cfg)
    tracemalloc.start()
    try:
        method(*xs, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BOUNDS[name] * xs[0].mat.nbytes


@pytest.mark.parametrize("shift_first", [True, False], ids=["su", "us"])
def test_shift_beside_the_identity_is_one_mixed_block(shift_first):
    # the truncated unilateral shift S beside the identity: (S, 1) is all
    # su and (1, S) all us, in both fourfold bases, every other block 0,
    # and weak bi-shift's p_ws, the complement of the join of p_uu, p_us
    # and p_su, is 0
    tr = truncate(Shift(1), 32, n_max=6)
    one = Element(COMPLEX, np.eye(tr.element.dim, dtype=complex))
    xs = (tr.element, one) if shift_first else (one, tr.element)
    cfg = EngineConfig(n_max=6, window=tr.window)
    mixed = "su" if shift_first else "us"
    for method in (slocinski, weak_bishift):
        rep = method(*xs, cfg)
        ranks = {lbl: p.rank for lbl, p in rep.basis.members}
        assert ranks == {lbl: tr.element.dim if lbl == mixed else 0 for lbl in ranks}
        assert rep.max_residual() <= COMPLEX.tol.eps_eq * tr.element.dim


@pytest.mark.parametrize("method", [slocinski, weak_bishift, hw_pair_doubly, nfl_pair_doubly,
                                    corollary_check], ids=lambda m: m.__name__)
def test_pair_call_builds_one_context(monkeypatch, method):
    # the window is checked once: every fixpoint runs in the method's own
    # context, and a method composed of others runs their bodies in it
    built = []

    class Counting(engine._Ctx):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(engine, "_Ctx", Counting)
    if method in (slocinski, weak_bishift):
        _grid_counts(monkeypatch, method)
    else:
        method(*commuting_orthogonal_pair(4, np.random.default_rng(4)))
    assert len(built) == 1


def test_product_ppi_constraint_budget(monkeypatch):
    # the truncated mixed pair at N = 32: the constraint reads every [x1ⁿ]
    # and [x2*ⁿ] off two wandering series, so no power and no range
    # projection is formed in the call, and it takes no SVD: the 1x1
    # non-lone rests of the two series' cokernels are zero
    xs, cfg = _truncated(list(pair_instances("mixed")), 32, 6)
    svds = _count_svds(monkeypatch)
    powers = _count_calls(monkeypatch, "power")
    ranges = []
    left = engine.left_projection
    monkeypatch.setattr(engine, "left_projection", lambda a: ranges.append(1) or left(a))
    largest_product_ppi(*xs, cfg)
    assert not powers and not ranges
    assert not svds


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
    # i ⊕ S* ⊕ J3 at N = 64 (dim 68): no SVD, since the window rows of x
    # and of x* are lone entries beside zero lines, so the two series
    # seeds are coordinate rows; both series are walked, x*'s dropping
    # J3's zero image, so the four parts are masked coordinate sets read
    # off the two walks, with no meet, kernel or QR; no range chain, so no
    # power, and no part wrapped by from_element; every component of x is
    # monomial, so the PPI precondition reads each in closed form and
    # forms no power of x or of a block of it; and the certificates of the
    # masked parts are index blocks of x, so no Element product is formed
    (x,), window = _spec_operators("hw64.json", 64)
    svds = _count_svds(monkeypatch)
    qrs = _count_qrs(monkeypatch)
    matmuls = _count_calls(monkeypatch, "__matmul__")
    powers = _count_calls(monkeypatch, "power")
    muls = _count_muls(monkeypatch)
    wrapped = []
    monkeypatch.setattr(projections, "from_element", lambda e: wrapped.append(e))
    rep = halmos_wallen(x, EngineConfig(n_max=16, window=window))
    assert {lbl: p.rank for lbl, p in rep.basis.members} == {"u": 1, "s": 0, "b": 64, "t": 3}
    assert not svds
    assert qrs == []
    assert not matmuls
    assert not powers and not wrapped and not muls


def _count_muls(monkeypatch):
    """Shapes of the gathered products `_Ctx.mul` forms, (a, x) each."""
    calls = []
    mul = engine._Ctx.mul
    monkeypatch.setattr(engine._Ctx, "mul", lambda self, a, x:
                        calls.append((a.mat.shape, x.mat.shape)) or mul(self, a, x))
    return calls


def test_ppi_check_multiplies_the_dense_block_alone(monkeypatch):
    # u5 ⊕ S* ⊕ J4 at N = 64 (dim 73), the shift-model's hw input
    # (u2 ⊕ S* ⊕ J4, dim 70) with a larger unitary block: the 5×5 unitary
    # block is the one component with a column of more than one nonzero,
    # so it alone takes the dense check, one gathered power per n > 1 and
    # thin products of its window rows and columns; the tails are read in
    # closed form
    u = unitary(random_complex_unitary(5, np.random.default_rng(7)).mat)
    tr = truncate(direct_sum(u, Adjoint(Shift(1)), Trunc(4)), 64, n_max=16)
    ctx = engine._Ctx(tr.element, EngineConfig(n_max=16, window=tr.window))
    matmuls = _count_calls(monkeypatch, "__matmul__")
    muls = _count_muls(monkeypatch)
    assert engine._ppi_on_window(ctx, tr.element)
    assert muls == [((5, 5), (5, 5))] * 15
    assert not matmuls


@pytest.mark.parametrize("rows,ppi", [
    ([[1, 1], [0, 0]], False),  # one row holds two entries: x x* x = 2x
    ([[0, 0], [1, 0]], True),
    ([[0, 0, 0], [1j, 0, 0], [0, -1, 0]], True),
    ([[2, 0], [0, 1]], False),
    ([[0, 0], [0.5, 0]], False),
], ids=["repeated row", "J2", "J3 with phases", "modulus 2", "modulus 1/2"])
def test_ppi_check_on_small_monomial_matrices(rows, ppi):
    x = from_rows(COMPLEX, rows)
    for window in (None, coordinate_projection(COMPLEX, [True] * x.dim)):
        cfg = EngineConfig(window=window)
        assert engine._ppi_on_window(engine._Ctx(x, cfg), x) is ppi
        assert dense_ppi_on_window(engine._Ctx(x, cfg), x) is ppi


# moduli off 1 in steps of eps_eq·dim/2: a lone entry 1 + k·eps_eq·dim/2
# has the defect |c|·(|c|² - 1), about k·eps_eq·dim, against the cut eps_eq·dim
_CUT_STEPS = (0.0, 0.5, 0.99, 1.0, 1.01, 2.0)
_PHASES = (1, -1, 1j, -1j, np.exp(0.3j))


@st.composite
def _ppi_split_inputs(draw):
    """(x, window, n_max): a direct sum of monomial pieces, some with a
    repeated row, and small dense blocks (unitary or a contraction), its
    coordinates shuffled, with a random 0/1 window or none.  Half the
    pieces have moduli at and around the cut, the others unit moduli, so
    that one faulty piece often decides the answer alone."""
    kinds = draw(st.lists(st.sampled_from(["monomial", "repeated row", "unitary", "contraction"]),
                          min_size=1, max_size=4))
    sizes = [draw(st.integers(2 if kind == "repeated row" else 1, 5)) for kind in kinds]
    dim = sum(sizes)
    step = COMPLEX.tol.eps_eq * dim / 2

    def modulus():
        if not near:
            return 1.0
        return 1 + draw(st.sampled_from((-1, 1))) * draw(st.sampled_from(_CUT_STEPS)) * step

    x = np.zeros((dim, dim), dtype=complex)
    at = 0
    for kind, m in zip(kinds, sizes):
        near = draw(st.booleans())
        block = np.zeros((m, m), dtype=complex)
        if kind in ("monomial", "repeated row"):
            rows = list(draw(st.permutations(range(m))))
            if kind == "repeated row":
                rows[0] = rows[1]
            for j, r in enumerate(rows):
                if draw(st.integers(0, 3)):  # a zero column one time in four
                    block[r, j] = modulus() * draw(st.sampled_from(_PHASES))
        else:
            u = random_complex_unitary(m, np.random.default_rng(draw(st.integers(0, 99)))).mat
            block = u * modulus()
            if kind == "contraction":
                block[:, 0] /= 2
        x[at:at + m, at:at + m] = block
        at += m
    order = np.array(draw(st.permutations(range(dim))))
    x = x[np.ix_(order, order)]
    keep = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=dim, max_size=dim)))
    window = None if keep is None else coordinate_projection(COMPLEX, keep)
    return Element(COMPLEX, x), window, draw(st.sampled_from((1, 2, 3, 16)))


@settings(max_examples=200, deadline=None)
@given(_ppi_split_inputs())
def test_ppi_split_matches_the_dense_check(case):
    # the monomial components in closed form beside the dense check of the
    # rest accept exactly what one dense check of every power accepts
    x, window, n_max = case
    cfg = EngineConfig(n_max=n_max, window=window)
    assert engine._ppi_on_window(engine._Ctx(x, cfg), x) == \
        dense_ppi_on_window(engine._Ctx(x, cfg), x)


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
    want = reducing_fixpoint_by_meets(engine._Ctx(e.element), [tr.element], e)
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
    # the wandering series of J3 and of J3* have three blocks each, so each
    # ends on its fourth step, which a cap of 3 allows and a cap of 2 does not
    want = largest_product_ppi(J3, J3)
    _small_cap(monkeypatch, 3)
    assert np.array_equal(largest_product_ppi(J3, J3).element.mat, want.element.mat)
    _small_cap(monkeypatch, 2)
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


@pytest.mark.parametrize("domain", [RATIONAL, COMPLEX], ids=str)
def test_reducing_fixpoint_takes_the_preimages_under_the_adjoint(domain):
    # span(e1, …, e4) is invariant under the 5x5 Jordan block J, which
    # maps e_k to e_(k+1), but J* maps e1 to e0: the reducing core, which
    # takes J*'s preimages from J's own columns (masked, for floats) or
    # from the thin (within* J)* (dense, exact), loses one direction per
    # sweep down to 0, while the invariant core under J alone is the span
    j5 = from_rows(domain, [[int(i == j + 1) for j in range(5)] for i in range(5)])
    e = coordinate_projection(domain, [False, True, True, True, True])
    assert (e.mask is not None) == (domain is COMPLEX)
    ctx = engine._Ctx(j5)
    assert engine._invariant_core(ctx, [(j5.mat, False)], e, "core").rank == 4
    assert engine.reducing_fixpoint([j5], e).rank == 0


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
    _small_cap(monkeypatch, 2)
    assert main(["decompose", str(spec), "--method", "largest-ppi"]) == 4
    assert "indeterminate" in capsys.readouterr().err
