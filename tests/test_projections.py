"""Projection lattice laws, the left-projection annihilator property, and
the key isometry identity — property-tested over exact rational matrices."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stardecomp import (
    COMPLEX,
    DomainMismatchError,
    EmptyFamilyError,
    PreconditionError,
    ProjectionBasis,
    RATIONAL,
    from_element,
    from_rows,
    identity,
    left_projection,
    proj_inf,
    proj_leq,
    proj_sup,
    right_annihilator_projection,
)
from stardecomp import linalg, subspaces
from stardecomp.elements import Element
from stardecomp.exactrings import construct_gf_ring
from stardecomp.fixtures import rational_orthogonal, random_ppi
from stardecomp.projections import (
    Projection,
    coordinate_projection,
    from_basis,
    identity_projection,
    key_identity_check,
    pair_product,
    zero_projection,
)

DIM = 4

entries = st.fractions(min_value=-3, max_value=3, max_denominator=5)


def elements(dim=DIM):
    return st.lists(
        st.lists(entries, min_size=dim, max_size=dim),
        min_size=dim, max_size=dim,
    ).map(lambda rows: from_rows(RATIONAL, rows))


def random_projection(rng):
    """Rational projection: conjugate a coordinate projection orthogonally."""
    q = rational_orthogonal(DIM, rng)
    diag = [[int(i == j and rng.integers(2)) for j in range(DIM)] for i in range(DIM)]
    return from_element(q @ from_rows(RATIONAL, diag) @ q.star())


@given(elements())
@settings(max_examples=40, deadline=None)
def test_left_projection_fixes_element(a):
    p = left_projection(a)
    assert (p.element @ a).equals(a)


@given(elements(), elements())
@settings(max_examples=40, deadline=None)
def test_annihilator_law(a, b):
    """b a = 0 iff b [a] = 0 — the defining property of the left projection."""
    p = left_projection(a)
    assert (b @ a).is_zero() == (b @ p.element).is_zero()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_lattice_order_and_meet(seed):
    rng = np.random.default_rng(seed)
    p, q = random_projection(rng), random_projection(rng)
    m = proj_inf([p, q])
    assert proj_leq(m, p) and proj_leq(m, q)
    j = proj_sup([p, q])
    assert proj_leq(p, j) and proj_leq(q, j)
    # meet is the largest lower bound: any projection below both is below m
    below = proj_inf([m, p])
    assert below.equals(m)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_meet_join_rank_inequality(seed):
    rng = np.random.default_rng(seed)
    p, q = random_projection(rng), random_projection(rng)
    assert proj_inf([p, q]).rank + proj_sup([p, q]).rank == p.rank + q.rank


def test_proj_inf_empty_family_raises():
    with pytest.raises(EmptyFamilyError):
        proj_inf([])


def test_from_element_rejects_non_projection():
    with pytest.raises(PreconditionError):
        from_element(from_rows(RATIONAL, [[1, 1], [0, 1]]))


def test_complement():
    rng = np.random.default_rng(3)
    p = random_projection(rng)
    c = p.complement()
    assert (p.element @ c.element).is_zero()
    assert (p.element + c.element).equals(identity(RATIONAL, DIM))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_key_identity_for_isometries(seed):
    """[x q] = x q x* whenever x is an isometry."""
    rng = np.random.default_rng(seed)
    x = rational_orthogonal(DIM, rng)
    q = random_projection(rng)
    assert key_identity_check(x, q)


def test_key_identity_requires_isometry():
    j = from_rows(RATIONAL, [[0, 0], [1, 0]])
    with pytest.raises(PreconditionError):
        key_identity_check(j, zero_projection(RATIONAL, 2))


@given(elements(), elements())
@settings(max_examples=30, deadline=None)
def test_right_annihilator(a, b):
    """R({a,b}) is generated by a projection: the Baer property, concretely."""
    p = right_annihilator_projection([a, b])
    assert (a @ p.element).is_zero() and (b @ p.element).is_zero()
    # and p is the largest such: any v killed by both lies under p
    comp = p.complement()
    stacked = np.concatenate([a.mat, b.mat], axis=0)
    from stardecomp.linalg import nullspace

    ker = nullspace(RATIONAL, stacked)
    for j in range(ker.shape[1]):
        v = ker[:, j]
        assert all(c == 0 for c in (comp.element.mat @ v))


def test_projection_basis_verify():
    rng = np.random.default_rng(5)
    p = random_projection(rng)
    basis = ProjectionBasis((("a", p), ("b", p.complement())))
    assert basis.verify()
    assert basis.residuals()["sum_to_one"] == 0.0


def test_projection_basis_detects_overlap():
    rng = np.random.default_rng(6)
    p = random_projection(rng)
    if p.rank == 0:
        p = p.complement()
    bad = ProjectionBasis((("a", p), ("b", identity_proj())))
    assert not bad.verify()


def identity_proj():
    return from_element(identity(RATIONAL, DIM))


def test_ppi_left_projections_commute_along_powers():
    """For a PPI, [x^n] and [x^{*m}] are projections with controlled ranks."""
    rng = np.random.default_rng(9)
    x = random_ppi(5, rng, unitary_rank=2)
    r_prev = left_projection(x).rank
    for n in range(2, 5):
        r = left_projection(x.power(n)).rank
        assert r <= r_prev
        r_prev = r


def _entries(mat):
    """Bytes of a float matrix; type and value of every exact entry."""
    return mat.tobytes() if mat.dtype != object else [(type(v), v) for v in mat.flat]


@pytest.mark.parametrize("domain", [COMPLEX, RATIONAL, construct_gf_ring(3, 2)],
                         ids=["complex", "rational", "gf3"])
@pytest.mark.parametrize("mask", ["empty", "partial", "full"])
def test_coordinate_projection_matches_from_element(domain, mask):
    dim = domain.dim or 5
    keep = {"empty": np.zeros(dim, bool), "partial": np.arange(dim) % 2 == 0,
            "full": np.ones(dim, bool)}[mask]
    diag = domain.zeros(dim, dim)
    for i in np.flatnonzero(keep):
        diag[i, i] = domain.one()
    want = from_element(Element(domain, diag))
    got = coordinate_projection(domain, keep)
    assert _entries(got.element.mat) == _entries(want.element.mat)
    assert got.rank == want.rank == keep.sum()
    assert from_basis(domain, got.range_basis).equals(want)


def test_identity_projection_takes_no_rref(monkeypatch):
    rrefs = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda *a: rrefs.append(1) or rref(*a))
    p = identity_projection(RATIONAL, 6)
    assert not rrefs
    assert p.rank == 6 and p.element.equals(identity(RATIONAL, 6))


# ---------------------------------------------- R(S) as one stacked kernel

GF32 = construct_gf_ring(3, 2)
_R_DOMAINS = pytest.mark.parametrize("domain", [RATIONAL, GF32, COMPLEX],
                                     ids=["rational", "gf3", "complex"])


def _kernel_meets(elements):
    """R(S) the long way: one kernel per element, then one meet at a time."""
    domain = elements[0].domain
    basis = subspaces.nullspace(domain, elements[0].mat)
    for s in elements[1:]:
        basis = subspaces.intersect(domain, basis, subspaces.nullspace(domain, s.mat))
    return from_basis(domain, basis)


def _low_rank(domain, rng, rank):
    """A random element g h of the domain with g dim × rank and h rank × dim."""
    dim = domain.dim or 5
    if domain.exact:
        g = domain.array(rng.integers(-3, 4, size=(dim, rank)).tolist())
        h = domain.array(rng.integers(-3, 4, size=(rank, dim)).tolist())
        return Element(domain, domain.normalize(g @ h))
    g, h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for shape in ((dim, rank), (rank, dim)))
    return Element(domain, g @ h)


def _assert_same_projection(got, want):
    assert got.rank == want.rank
    if got.domain.exact:
        assert _entries(got.element.mat) == _entries(want.element.mat)
    else:
        assert np.linalg.norm(got.element.mat - want.element.mat) <= 1e-12


@_R_DOMAINS
@pytest.mark.parametrize("size", [1, 2, 3])
def test_right_annihilator_is_the_meet_of_kernels(domain, size):
    rng = np.random.default_rng(20 + size)
    dim = domain.dim or 5
    # ranks summing below dim keep a common kernel, except on gf's dim 2
    top = max(2, (dim - 1) // size + 1)
    for _ in range(10):
        family = [_low_rank(domain, rng, int(rng.integers(1, top))) for _ in range(size)]
        _assert_same_projection(right_annihilator_projection(family), _kernel_meets(family))


@_R_DOMAINS
def test_right_annihilator_of_complementary_kernels_is_zero(domain):
    dim = domain.dim or 5
    keep = np.arange(dim) < (dim + 1) // 2
    a = coordinate_projection(domain, keep).element
    b = coordinate_projection(domain, ~keep).element
    p = right_annihilator_projection([a, b, a])
    assert p.rank == 0
    _assert_same_projection(p, _kernel_meets([a, b, a]))


def _projection_of_rank(domain, rng, rank):
    """A projection of the given rank that is not a coordinate one when
    0 < rank < dim: the range of the first rank columns of a random
    invertible matrix."""
    dim = domain.dim or 5
    while True:
        mat = _low_rank(domain, rng, dim).mat
        basis = subspaces.orth(domain, mat[:, :rank])
        if subspaces.orth(domain, mat).shape[1] == dim and basis.shape[1] == rank:
            return from_basis(domain, basis)


@_R_DOMAINS
@pytest.mark.parametrize("which", ["zero", "partial", "full"])
def test_complement_is_one_minus_p_without_from_element(monkeypatch, domain, which):
    import stardecomp.projections as projections

    dim = domain.dim or 5
    rank = {"zero": 0, "partial": dim // 2, "full": dim}[which]
    p = _projection_of_rank(domain, np.random.default_rng(30), rank)
    monkeypatch.setattr(projections, "from_element",
                        lambda e: pytest.fail("complement called from_element"))
    c = p.complement()
    assert c.rank == dim - rank
    one_minus_p = identity(domain, dim) - p.element
    if domain.exact:
        assert _entries(c.element.mat) == _entries(one_minus_p.mat)
    else:
        assert np.linalg.norm(c.element.mat - one_minus_p.mat) <= 1e-12


# ------------------------------------------ masked coordinate projections

MASK_TOL = 1e-13  # the masked and dense norms sum in different orders


def _phases(rng, size):
    return np.exp(2j * np.pi * rng.random(size))


def _coordinate_basis(rng, mask):
    """Unit-modulus columns c_k e_(r_k) on the rows of the mask, shuffled."""
    rows = rng.permutation(np.flatnonzero(mask))
    basis = np.zeros((mask.size, rows.size), dtype=complex)
    basis[rows, np.arange(rows.size)] = _phases(rng, rows.size)
    return basis


def _unmasked(p):
    """The same projection with no mask: its products go through its basis
    or its dense element."""
    return Projection(p.element, p.range_basis)


def _operand(rng, dim, kinds):
    """A complex matrix whose columns are zero, one-nonzero or dense."""
    a = np.zeros((dim, dim), dtype=complex)
    for j, kind in enumerate(kinds):
        if kind == "1":
            a[rng.integers(dim), j] = rng.standard_normal() + 1j * rng.standard_normal()
        elif kind == "d":
            a[:, j] = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return Element(COMPLEX, a)


@st.composite
def _mask_cases(draw):
    """(rng, dim, masks, column kinds of the operand)."""
    dim = draw(st.integers(1, 10))
    masks = [np.array(draw(st.lists(st.booleans(), min_size=dim, max_size=dim)))
             for _ in range(3)]
    kinds = draw(st.lists(st.sampled_from("01d"), min_size=dim, max_size=dim))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))), dim, masks, kinds


def _close(got, want):
    return np.abs(got.mat - want.mat).max(initial=0.0) <= MASK_TOL


@settings(max_examples=150, deadline=None)
@given(case=_mask_cases())
def test_masked_lattice_matches_the_dense_one(case):
    rng, dim, masks, kinds = case
    ps = [from_basis(COMPLEX, _coordinate_basis(rng, m)) for m in masks]
    dense = [_unmasked(p) for p in ps]
    for p, m in zip(ps, masks):
        assert p.mask is not None and np.array_equal(p.mask, m)
        assert p.rank == np.count_nonzero(m)
    a = _operand(rng, dim, kinds)
    p, q, r = ps
    pd, qd, rd = dense
    for side in ("left", "right", "both"):
        assert _close(p.product(a, side), pd.product(a, side)), side
    assert _close(pair_product(p, q), pair_product(pd, qd))
    assert _close(pair_product(p, qd), pair_product(pd, qd))
    assert _close(pair_product(pd, q), pair_product(pd, qd))
    for got, want in ((proj_inf(ps), proj_inf(dense)), (proj_sup(ps), proj_sup(dense)),
                      (p.complement(), pd.complement())):
        assert got.mask is not None
        assert got.rank == want.rank
        assert _close(got.element, want.element)
    members = (("p", p), ("q", q), ("r", r))
    got = ProjectionBasis(members).residuals()
    want = ProjectionBasis(tuple((lbl, _unmasked(m)) for lbl, m in members)).residuals()
    assert got.keys() == want.keys()
    assert all(abs(got[k] - want[k]) <= MASK_TOL for k in got)


def test_phased_coordinate_basis_gives_the_exact_diagonal():
    rng = np.random.default_rng(11)
    mask = np.array([True, False, True, True, False, True])
    p = from_basis(COMPLEX, _coordinate_basis(rng, mask))
    assert np.array_equal(p.mask, mask)
    assert np.array_equal(p.element.mat, np.diag(mask.astype(complex)))
    assert p.range_basis is not None and p.rank == 4


@pytest.mark.parametrize("spoil", ["extra entry", "repeated row"])
def test_near_coordinate_basis_is_not_masked(spoil):
    rng = np.random.default_rng(12)
    mask = np.array([True, True, False, True, False])
    basis = _coordinate_basis(rng, mask)
    if spoil == "extra entry":
        basis[np.flatnonzero(~mask)[0], 0] = 1e-17
    else:
        basis[:, 1] = 0
        basis[np.flatnonzero(basis[:, 0])[0], 1] = 1
    p = from_basis(COMPLEX, basis)
    assert p.mask is None
    assert np.array_equal(p.element.mat, subspaces.proj_matrix(COMPLEX, basis))


@pytest.mark.parametrize("op", ["product", "pair_product", "pair_product reversed",
                                "proj_inf", "proj_sup"])
def test_masked_projection_of_another_size_is_refused_by_its_mask(op):
    # the size check reads the mask's size: the dense element is never
    # formed just to be refused
    small = coordinate_projection(COMPLEX, [True, False, True])
    big = coordinate_projection(COMPLEX, [True, True, False, True])
    dense = _unmasked(coordinate_projection(COMPLEX, [True, False, False, True]))
    calls = {
        "product": lambda: small.product(identity(COMPLEX, 4)),
        "pair_product": lambda: pair_product(small, dense),
        "pair_product reversed": lambda: pair_product(dense, small),
        "proj_inf": lambda: proj_inf([big, small]),
        "proj_sup": lambda: proj_sup([small, big]),
    }
    with pytest.raises(DomainMismatchError):
        calls[op]()
    assert small._element is None and big._element is None
