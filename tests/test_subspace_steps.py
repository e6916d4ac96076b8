"""The float subspace steps against their references
(`subspace_step_references` in tests/chain_reference.py): the wandering
series without per-step SVDs, the meet as one thin kernel, the mixed
wandering subspace as one preimage per step, and the projection
products, beside the peeled cokernel against the dense SVD's (and its
zero rest against the SVD's U, bit for bit), the walked
series against the stepped one, the complement's kernel against the
complete QR's, the gathered grading against the `coordinates` form and
the gathered product `_Ctx.mul` against the dense one; and the reads of an
operator's record (`subspaces.entries`) against the dense forms: the
Gram block, the cokernel with and without the window, and the
pointer-jumped walk with its grading, on x and on x*; the preimage under
x* read off x's columns against that of the formed x*, and a walked
series' basis and blocks, formed on first read, against the eager build.
Complex inputs must give equal ranks and projections within 1e-12.  Exact inputs
must come out bit-identical; `reference_engine` swaps these references in
too, so the exact comparisons in tests/test_chains.py cover them."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from stardecomp import (
    COMPLEX,
    RATIONAL,
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
from stardecomp.elements import Element, from_rows
from stardecomp.errors import IndeterminateError
from stardecomp.fixtures import random_complex_unitary
from stardecomp.projections import Projection, coordinate_projection, from_basis, from_element

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


@pytest.mark.parametrize("m,n", [(1, 1), (8, 8), (10, 10), (3, 2), (2, 3), (3, 0), (0, 3)])
def test_zero_rest_is_read_as_coordinate_rows(monkeypatch, m, n):
    # diag(3 lone entries) ⊕ an m×n zero rest: the rest's cokernel is its
    # coordinate rows, bit for bit the U the SVD returns for it, with no SVD
    mat = np.zeros((3 + m, 3 + n), dtype=complex)
    mat[np.arange(3), np.arange(3)] = [1, 1j, -2]
    want = np.zeros((3 + m, m), dtype=complex)
    want[3:] = np.linalg.svd(np.zeros((m, n), dtype=complex))[0]
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *r, **k: calls.append(a.shape) or svd(a, *r, **k))
    got = subspaces.cokernel(COMPLEX, mat)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert not calls


# ------------------------------------------------------ walked series


def _series_or_raise(series, ctx, x, term):
    try:
        return series(ctx, x, term)
    except IndeterminateError:
        return None


def _ctx_with_cap(x, cap=None):
    ctx = engine._Ctx(x, EngineConfig())
    if cap is not None:
        ctx.cap = cap
    return ctx


def _assert_same_series(x, term, cap=None):
    """The engine's series (walked, or dense from its seed) and the
    stepped one both raise at the cap, or give equal ranks, equal block
    shapes, and equal projections onto the join and onto every block."""
    ctx = _ctx_with_cap(x, cap)
    got = _series_or_raise(engine._wandering_series, ctx, x, term)
    want = _series_or_raise(stepped_wandering_series, ctx, x, term)
    assert (got is None) == (want is None)
    if got is None:
        return None
    basis, blocks, ref, ref_blocks = got.basis, got.blocks, want.basis, want.blocks
    assert basis.shape == ref.shape
    assert [b.shape for b in blocks] == [b.shape for b in ref_blocks]
    for b, r in [(basis, ref), *zip(blocks, ref_blocks)]:
        assert np.linalg.norm(b @ b.conj().T - r @ r.conj().T) <= TOL
    return len(blocks)


def _phase(rng, modulus=1.0):
    return modulus * np.exp(2j * np.pi * rng.random())


@st.composite
def _walk_cases(draw):
    """(seed, path lengths, weighted path, path endings, dense block size,
    dense block unitary) for `_walk_matrix`."""
    lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    endings = draw(st.lists(st.sampled_from(["zero", "merge", "dense"]),
                            min_size=len(lengths), max_size=len(lengths)))
    weighted = draw(st.integers(-1, len(lengths) - 1))
    return (draw(st.integers(0, 2**32 - 1)), lengths, weighted, endings,
            draw(st.integers(0, 4)), draw(st.booleans()))


def _walk_matrix(seed, lengths, weighted, endings, dense, unitary_block):
    """x and a seed of coordinate columns, the coordinates permuted.

    Each path e_a0 -> e_a1 -> ... -> e_ak is a chain of one-nonzero
    columns with unit-modulus entries, one of which has modulus 2 on the
    path numbered weighted (none for -1); the seed holds every path's
    start.  A path ends in a zero column, merges into one shared sink row
    (whose column is zero), or runs into a dense block: a random rotation
    of a nilpotent shift, whose columns all have several nonzeros, or with
    unitary_block a random unitary, on which the series never ends."""
    rng = np.random.default_rng(seed)
    starts = np.cumsum([0] + lengths)
    sink, block = starts[-1], starts[-1] + 1
    dim = block + dense
    x = np.zeros((dim, dim), dtype=complex)
    term = np.zeros((dim, len(lengths)), dtype=complex)
    for i, (a, b) in enumerate(zip(starts[:-1], starts[1:])):
        term[a, i] = _phase(rng)
        for j in range(a, b - 1):
            x[j + 1, j] = _phase(rng, 2.0 if i == weighted and j == a else 1.0)
        if endings[i] == "merge":
            x[sink, b - 1] = _phase(rng)
        elif endings[i] == "dense" and dense:
            x[block, b - 1] = _phase(rng)
    if dense:
        q = random_complex_unitary(dense, rng).mat
        core = q if unitary_block else q @ np.eye(dense, k=-1) @ q.conj().T
        x[block:, block:] = core
    perm = rng.permutation(dim)
    return Element(COMPLEX, x[np.ix_(perm, perm)]), term[perm]


@settings(max_examples=150, deadline=None)
@given(case=_walk_cases())
@example(case=(0, [3, 3], -1, ["zero", "zero"], 0, False))  # walked to its end
@example(case=(1, [2, 2], -1, ["merge", "merge"], 0, False))  # two images on one row
@example(case=(2, [2, 3], -1, ["merge", "merge"], 0, False))  # the join repeats a row
@example(case=(3, [3, 1], 0, ["zero", "zero"], 0, False))  # a weighted step
@example(case=(4, [2], -1, ["dense"], 4, False))  # into a nilpotent block mid-series
@example(case=(5, [2], -1, ["dense"], 3, True))  # into a unitary block: the cap
def test_walked_series_matches_the_stepped_series(case):
    x, term = _walk_matrix(*case)
    _assert_same_series(x, term)


@pytest.mark.parametrize("walked,dense", [(5, 0), (1, 4), (3, 3)],
                         ids=["walked", "handed over at once", "handed over mid-series"])
def test_walked_series_cap_edge(walked, dense):
    # a series of L blocks ends at cap L and raises at cap L - 1, walked or
    # stepped densely from its seed, exactly as the stepped series does: a
    # unit path of `walked` steps into a rotated nilpotent shift on `dense`
    # coordinates has walked + dense blocks
    x, term = _walk_matrix(0, [walked], -1, ["dense"], dense, False)
    size = walked + dense
    assert _assert_same_series(x, term, cap=size) == size
    assert _assert_same_series(x, term, cap=size - 1) is None
    with pytest.raises(IndeterminateError):
        engine._wandering_series(_ctx_with_cap(x, size - 1), x, term)


@pytest.mark.parametrize("modulus", [1.0, 2.0, 1 + 1e-13])
def test_walk_tests_the_seed_of_a_unit_factor_path(modulus):
    # every factor of a truncated shift is exactly 1, so every entry of
    # the walk is the seed's: the seed is tested with every other entry,
    # and a seed of another modulus takes the dense steps from the seed
    x = Element(COMPLEX, np.eye(6, k=-1, dtype=complex))
    term = np.zeros((6, 1), dtype=complex)
    term[0, 0] = modulus * np.exp(0.3j)
    assert _assert_same_series(x, term) == 6
    basis = engine._wandering_series(_ctx_with_cap(x), x, term).basis
    assert np.linalg.norm(basis.conj().T @ basis - np.eye(6)) <= TOL


def test_walked_record_grades_as_the_gathered_blocks():
    # the grading of any y gathered from a walked series' record equals
    # the `coordinates` form of its blocks (the series with no record)
    # within 1e-13
    x, term = _walk_matrix(0, [3, 2, 4], -1, ["zero", "zero", "zero"], 0, False)
    ctx = _ctx_with_cap(x)
    series = engine._wandering_series(ctx, x, term)
    assert series.record is not None
    rng = np.random.default_rng(4)
    for y in (x, Element(COMPLEX, rng.standard_normal(x.mat.shape) + 0j)):
        got = engine._grading_res(ctx, y, series)
        assert abs(got - engine._grading_res(ctx, y, engine._Series(series.basis, series.blocks))
                   ) <= 1e-13
    assert got > 1


# ------------------------------------------------------------- complement


@st.composite
def _complement_cases(draw):
    """(seed, lone columns, zero rows, dense block rows and columns)."""
    rows = draw(st.integers(0, 6))
    return (draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 6)), draw(st.integers(0, 3)),
            rows, draw(st.integers(0, rows)))


def _complement_basis(seed, lone, zero_rows, rows, cols):
    """Unit-modulus lone columns ⊕ zero rows ⊕ `cols` orthonormal columns
    dense on `rows` rows, rows and columns permuted."""
    rng = np.random.default_rng(seed)
    basis = np.zeros((lone + zero_rows + rows, lone + cols), dtype=complex)
    basis[np.arange(lone), np.arange(lone)] = [_phase(rng) for _ in range(lone)]
    if rows:
        basis[lone + zero_rows:, lone:] = random_complex_unitary(rows, rng).mat[:, :cols]
    return basis[rng.permutation(basis.shape[0])][:, rng.permutation(basis.shape[1])]


@settings(max_examples=150, deadline=None)
@given(case=_complement_cases())
@example(case=(0, 6, 3, 0, 0))  # all lone: no QR
@example(case=(1, 0, 0, 5, 3))  # no lone entry: one rest
@example(case=(2, 4, 2, 4, 2))
def test_peeled_complement_matches_the_complete_qr(case):
    basis = _complement_basis(*case)
    n, r = basis.shape
    assume(n > 0)
    got = subspaces.complement(COMPLEX, basis)
    want = np.linalg.qr(basis, mode="complete")[0][:, r:]
    assert got.shape == want.shape == (n, n - r)
    assert np.linalg.norm(basis.conj().T @ got) <= TOL
    assert np.linalg.norm(got.conj().T @ got - np.eye(n - r)) <= TOL
    assert np.linalg.norm(got @ got.conj().T - want @ want.conj().T) <= TOL


# ------------------------------------------------------ gathered grading


def _coordinates_grading(x, blocks):
    """The grading residual in the `coordinates` form: B*(xB) with its
    block subdiagonal cleared."""
    joined = np.concatenate(blocks, axis=1)
    g = subspaces.coordinates(COMPLEX, joined, x @ joined, orthonormal=True)
    edges = np.cumsum([0] + [b.shape[1] for b in blocks])
    for k in range(len(blocks) - 1):
        g[edges[k + 1]:edges[k + 2], edges[k]:edges[k + 1]] = 0
    return np.linalg.norm(g)


@st.composite
def _grading_cases(draw):
    """(seed, block sizes, rows outside the blocks, graded)."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    return draw(st.integers(0, 2**32 - 1)), sizes, draw(st.integers(0, 3)), draw(st.booleans())


def _graded_blocks(seed, sizes, outside, graded):
    """x and coordinate blocks c_k e_(r_k) at distinct rows.  With graded,
    x maps each block's rows into the next block's and the last block's
    outside all blocks, with dense random entries: a true grading;
    otherwise x is dense and random."""
    rng = np.random.default_rng(seed)
    total = sum(sizes)
    dim = total + outside
    gauss = (lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    edges = np.cumsum([0] + sizes)
    if graded:
        x = np.zeros((dim, dim), dtype=complex)
        for a, b, c in zip(edges[:-1], edges[1:], [*edges[2:], dim]):
            x[b:c, a:b] = gauss(c - b, b - a)
    else:
        x = gauss(dim, dim)
    perm = rng.permutation(dim)
    x = x[np.ix_(perm, perm)]
    basis = np.zeros((dim, total), dtype=complex)
    basis[np.argsort(perm)[:total], np.arange(total)] = [_phase(rng) for _ in range(total)]
    return Element(COMPLEX, x), basis, [basis[:, a:b] for a, b in zip(edges[:-1], edges[1:])]


@settings(max_examples=100, deadline=None)
@given(case=_grading_cases())
@example(case=(0, [2, 1, 3], 2, True))
@example(case=(1, [1, 2, 2], 0, False))
def test_gathered_grading_matches_the_coordinates_form(case):
    x, basis, blocks = _graded_blocks(*case)
    ctx = engine._Ctx(x, EngineConfig())
    # the blocks are no series of x, so their record is read off them
    _, rows, vals = subspaces.column_entries(basis)
    level = np.repeat(np.arange(len(blocks)), [b.shape[1] for b in blocks])
    calls = []
    coordinates = subspaces.coordinates
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subspaces, "coordinates",
                   lambda *a, **k: calls.append(1) or coordinates(*a, **k))
        got = engine._grading_res(ctx, x, engine._Series(None, None, (rows, vals, level), x.dim))
    assert not calls  # the gather, with no product
    want = _coordinates_grading(x.mat, blocks)
    assert abs(got - want) <= TOL
    if case[-1]:
        assert got == 0.0


@st.composite
def _gather_cases(draw):
    """(a, x, kinds): a dense complex a, and a real float x whose columns
    are zero, one nonzero (at rows drawn from a few, so that rows repeat)
    or dense, as kinds says."""
    dim = draw(st.integers(1, 12))
    kinds = draw(st.lists(st.sampled_from("0 1 d".split()), min_size=dim, max_size=dim))
    rows = draw(st.lists(st.integers(0, min(dim - 1, 2)), min_size=dim, max_size=dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.zeros((dim, dim), dtype=complex)
    for j, (kind, r) in enumerate(zip(kinds, rows)):
        if kind == "1":
            x[r, j] = rng.standard_normal()
        elif kind == "d":
            x[:, j] = rng.standard_normal(dim)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Element(COMPLEX, a), Element(COMPLEX, x), np.array(kinds)


@settings(max_examples=100, deadline=None)
@given(case=_gather_cases())
def test_gathered_product_matches_dense(case):
    # a one-nonzero column's dense sum has one nonzero term, so its gather
    # a[:, r]·c is the same to the bit, as is a zero column
    a, x, kinds = case
    got = engine._Ctx(x, EngineConfig()).mul(a, x).mat
    want = (a @ x).mat
    lone = kinds != "d"
    assert np.array_equal(got[:, lone], want[:, lone])
    assert np.abs(got - want).max(initial=0.0) <= TOL


def test_gathered_product_matches_dense_exactly_over_q():
    x = from_rows(RATIONAL, [[0, 1, 0, 2], [3, 0, 0, 1], [0, 0, 0, 0], [0, 1, 0, 5]])
    a = from_rows(RATIONAL, [["1/2", 1, 0, -3], [2, "2/3", 1, 0], [0, 4, -1, 1], [1, 1, 1, 1]])
    for left, right in ((a, x), (x, a), (x, x), (x.star(), x)):
        got = engine._Ctx(right, EngineConfig()).mul(left, right).mat
        assert np.array_equal(got, (left @ right).mat)


# ------------------------------------------------------- record reads


@st.composite
def _record_cases(draw):
    """(x, keep): a direct sum of monomial pieces, partial maps with zero
    columns one time in four, some with a repeated row, permutation
    cycles and dense blocks, its coordinates shuffled, with a random 0/1
    mask or none.  Most monomial entries have modulus 1, the others 2 or
    1/2."""
    kinds = draw(st.lists(st.sampled_from(["monomial", "repeated row", "cycle", "dense"]),
                          min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for kind in kinds:
        m = draw(st.integers(2 if kind == "repeated row" else 1, 5))
        if kind == "dense":
            blocks.append(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            continue
        rows = np.roll(np.arange(m), 1) if kind == "cycle" else rng.permutation(m)
        if kind == "repeated row":
            rows[0] = rows[1]
        live = np.flatnonzero(np.ones(m, dtype=bool) if kind == "cycle" else rng.random(m) < 0.75)
        block = np.zeros((m, m), dtype=complex)
        block[rows[live], live] = [_phase(rng, rng.choice([1, 1, 1, 2, 0.5])) for _ in live]
        blocks.append(block)
    dim = sum(b.shape[0] for b in blocks)
    x = np.zeros((dim, dim), dtype=complex)
    at = 0
    for b in blocks:
        x[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]
    perm = rng.permutation(dim)
    keep = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=dim, max_size=dim)))
    return Element(COMPLEX, x[np.ix_(perm, perm)]), None if keep is None else np.array(keep)


@settings(max_examples=150, deadline=None)
@given(case=_record_cases(), star=st.booleans())
@example(case=(from_rows(COMPLEX, [[1, 2], [0, 1]]), np.array([True, False])),
         star=True)  # (x x*)[0, 0] = 5 where (x* x)[0, 0] = 1
def test_gram_record_matches_the_dense_gram(case, star):
    # |c|² - 1 for a column alone in its row, -1 for a zero column and the
    # thin Gram product of the rest, read off the record of x (of x*, the
    # record of x with its axes swapped, with star), against
    # ‖(x* x)[idx, idx] - 1‖ from the dense product
    x, keep = case
    idx = np.arange(x.dim) if keep is None else np.flatnonzero(keep)
    mat = x.mat.conj().T if star else x.mat
    want = np.linalg.norm((mat.conj().T @ mat)[np.ix_(idx, idx)] - np.eye(idx.size))
    got = engine._gram_res(engine._Ctx(x, EngineConfig()), x, idx, star)
    assert abs(got - want) <= TOL


@settings(max_examples=150, deadline=None)
@given(case=_record_cases())
def test_record_cokernel_matches_the_dense_svd(case):
    # the lone entries of y[keep] peeled off the record of y, for y = x and
    # x* (whose record is x's, swapped), with the window and without: the
    # span of the dense SVD's left singular vectors of y[keep] past the
    # rank, put back with zeros off keep
    x, keep = case
    ctx = engine._Ctx(x, EngineConfig())
    for y in (x, ctx.star(x)):
        for rows in (None, keep):
            k = np.ones(x.dim, dtype=bool) if rows is None else rows
            got = subspaces.cokernel(COMPLEX, y.mat, ctx.entries(y), rows)
            want = np.zeros((x.dim, 0), dtype=complex)
            if k.any():
                u, s, _ = np.linalg.svd(y.mat[k])
                want = np.zeros((x.dim, u.shape[1] - subspaces._rank_cut(s, EPS_RANK)),
                                dtype=complex)
                want[k] = u[:, subspaces._rank_cut(s, EPS_RANK):]
            assert got.shape == want.shape
            assert np.linalg.norm(got @ got.conj().T - want @ want.conj().T) <= TOL


_MERGE = np.zeros((3, 3), dtype=complex)
_MERGE[2, :2] = 1


@settings(max_examples=150, deadline=None)
@given(case=_record_cases())
@example(case=(Element(COMPLEX, _MERGE), np.array([True, True, False])))  # two seeds, one image
def test_pointer_jumped_walk_and_its_grading(case):
    # unit seeds on the chain starts, the coordinates no column maps to (in
    # the mask where it holds one), and on the masked coordinates
    # (coordinate 0 with no mask): the walk, or the dense steps from the
    # seed where it gives up (a merge, a dense block, a cycle), matches
    # the stepped series; and the grading of x and of x* read off a walked
    # series' record matches the `coordinates` form of its blocks
    x, keep = case
    for term in _walk_seeds(x, keep):
        _assert_same_series(x, term)
        ctx = _ctx_with_cap(x)
        series = _series_or_raise(engine._wandering_series, ctx, x, term)
        if series is None or series.record is None:
            continue
        dense = engine._Series(series.basis, series.blocks)
        for y in (x, ctx.star(x)):
            got = engine._grading_res(ctx, y, series)
            assert abs(got - engine._grading_res(ctx, y, dense)) <= TOL


def _walk_seeds(x, keep):
    """Seeds of unit coordinate columns with random phases: on the chain
    starts, the coordinates no column maps to (in the mask where it holds
    one), and on the masked coordinates (coordinate 0 with no mask)."""
    starts = subspaces.entries(x.mat).row_counts == 0
    masked = np.zeros(x.dim, dtype=bool) if keep is None else keep
    for seeds in (np.flatnonzero(starts & masked if (starts & masked).any() else starts),
                  np.flatnonzero(masked) if masked.any() else np.arange(1)):
        if seeds.size:
            rng = np.random.default_rng(seeds.size)
            term = np.zeros((x.dim, seeds.size), dtype=complex)
            term[seeds, np.arange(seeds.size)] = [_phase(rng) for _ in seeds]
            yield term


def _eager_walked_basis(dim, record):
    """A walked series' basis and blocks as they were built with the walk:
    its columns vals_k e_(rows_k) scattered into zeros, sliced by level."""
    rows, vals, level = record
    basis = COMPLEX.zeros(dim, rows.size)
    basis[rows, np.arange(rows.size)] = vals
    edges = [0, *np.cumsum(np.bincount(level)).tolist()]
    return basis, [basis[:, a:b] for a, b in zip(edges, edges[1:])]


def _same_bits(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


@settings(max_examples=150, deadline=None)
@given(case=_record_cases())
def test_walked_basis_is_formed_on_read_as_the_eager_build(case):
    # a walked series holds its record alone until its basis or blocks are
    # read, and then forms them with the eager build's bits; so does the
    # masked shift part of `_wold_parts`, whose range basis is the series'
    x, keep = case
    for term in _walk_seeds(x, keep):
        series = _series_or_raise(engine._wandering_series, _ctx_with_cap(x), x, term)
        if series is None or series.record is None:
            continue
        assert not {"basis", "blocks"} & set(vars(series))
        basis, blocks = _eager_walked_basis(x.dim, series.record)
        assert len(series.blocks) == len(blocks)
        assert all(_same_bits(g, w) for g, w in zip(series.blocks, blocks))
        assert _same_bits(series.basis, basis)
    try:
        _, p_s, series = engine._wold_parts(_ctx_with_cap(x), x)
    except IndeterminateError:
        return
    if series.record is not None:
        assert not {"basis", "blocks"} & set(vars(series))
        assert _same_bits(p_s.range_basis, _eager_walked_basis(x.dim, series.record)[0])
        assert p_s.range_basis is series.basis


@st.composite
def _preimage_cases(draw):
    """(x, comp, within): a `_record_cases` operator, a random 0/1 mask
    comp, and within the coordinate columns of a random window, mixed by
    a random unitary one time in two."""
    x, _ = draw(_record_cases())
    comp, window = (np.array(draw(st.lists(st.booleans(), min_size=x.dim, max_size=x.dim)))
                    for _ in range(2))
    within = np.eye(x.dim, dtype=complex)[:, window]
    if within.shape[1] and draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        within = within @ random_complex_unitary(within.shape[1], rng).mat
    return x, comp, within


@settings(max_examples=150, deadline=None)
@given(case=_preimage_cases())
@example(case=(Element(COMPLEX, np.eye(2, k=-1, dtype=complex)), np.array([True, False]),
               np.eye(2, dtype=complex)))  # J2: its row 0 is zero, x*'s is not
def test_adjoint_preimage_reads_the_columns_of_x(case):
    # the preimage under x* of the coordinates outside comp, read off x's
    # columns in comp, adjoint, with no x* formed, against `preimage` of
    # the formed x*, bit for bit; and for comp as a dense 0/1 matrix, the
    # thin (within* x)* against x* within, as projections
    x, comp, within = case
    star = x.star().mat
    got = subspaces.preimage(COMPLEX, x.mat, comp, within, star=True)
    assert _same_bits(got, subspaces.preimage(COMPLEX, star, comp, within))
    dense = np.diag(comp).astype(complex)
    got = subspaces.preimage(COMPLEX, x.mat, dense, within, star=True)
    want = subspaces.preimage(COMPLEX, star, dense, within)
    assert got.shape == want.shape
    assert np.linalg.norm(got @ got.conj().T - want @ want.conj().T) <= TOL


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
        got, want = (engine._wandering_series(ctx, a, coker),
                     stepped_wandering_series(ctx, a, coker))
        got_blocks, want_blocks = got.blocks, want.blocks
        got, want = from_basis(ctx.domain, got.basis), from_basis(ctx.domain, want.basis)
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


# -------------------------------------- certificates of masked projections


@st.composite
def _masked_certificate_cases(draw):
    """(x, mask, window or None): x complex with zero, one-nonzero and
    dense columns, the one-nonzero ones at rows drawn from a few."""
    dim = draw(st.integers(1, 10))
    kinds = draw(st.lists(st.sampled_from("01d"), min_size=dim, max_size=dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.zeros((dim, dim), dtype=complex)
    for j, kind in enumerate(kinds):
        if kind == "1":
            x[rng.integers(min(dim, 3)), j] = np.exp(2j * np.pi * rng.random())
        elif kind == "d":
            x[:, j] = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    mask = np.array(draw(st.lists(st.booleans(), min_size=dim, max_size=dim)))
    window = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=dim, max_size=dim)))
    return Element(COMPLEX, x), mask, window


@settings(max_examples=150, deadline=None)
@given(case=_masked_certificate_cases())
def test_masked_certificates_match_the_dense_defects(case):
    # the index blocks of a masked p give the windowed norms of the dense
    # defects: x p - p x, (1 - p) x p, and p x* x p - p and p x x* p - p,
    # read off x's record and x's columns in the mask, whether or not the
    # context holds x's Gram products
    x, mask, window = case
    cfg = EngineConfig(window=None if window is None else coordinate_projection(COMPLEX, window))
    p = coordinate_projection(COMPLEX, mask)
    dense = Projection(p.element, p.range_basis)
    assert p.mask is not None and dense.mask is None
    for held in (False, True):
        ctx = engine._Ctx(x, cfg)
        if held:
            ctx.gram(x), ctx.gram(x, star=True)
        pairs = [(engine._commute_res(ctx, x, p), ctx.wres(engine._commute_defect(x, dense))),
                 (engine._invariance_res(ctx, x, p),
                  ctx.wres(engine._invariance_defect(x, dense)))]
        pairs += [(engine._isometry_res(ctx, x, p, star),
                   ctx.wres(engine._isometry_defect(ctx, x, dense, star)))
                  for star in (False, True)]
        for got, want in pairs:
            assert abs(got - want) <= 1e-13
