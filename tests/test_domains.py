"""The scalar-domain classes: per-class unit checks, bit-for-bit digests of
exact projections, and a rational-versus-complex differential test."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stardecomp import (
    COMPLEX,
    RATIONAL,
    ComplexDomain,
    GFDomain,
    ImproperInvolutionError,
    RationalDomain,
    TolerancePolicy,
    complex_domain,
    construct_gf_ring,
    halmos_wallen,
    hw_pair_product,
    largest_doubly_commuting,
    largest_product_ppi,
    left_projection,
    nfl,
    rational_domain,
    wold,
)
from stardecomp.elements import Element, from_rows
from stardecomp.fixtures import (
    commuting_orthogonal_pair,
    gf_signed_permutation,
    random_contraction,
    random_ppi,
    rational_orthogonal,
)

# ------------------------------------------------------------- digests


def _digest(projections) -> str:
    """sha256 over "label:str(matrix)" of each (label, Projection)."""
    h = hashlib.sha256()
    for label, p in projections:
        h.update(f"{label}:{p.element.mat}\n".encode())
    return h.hexdigest()


def _members(reports):
    return [(f"{k}.{lbl}", p) for k, rep in enumerate(reports) for lbl, p in rep.basis.members]


def _criterion5():
    rng = np.random.default_rng(50)
    reports = []
    for _ in range(5):
        reports.append(halmos_wallen(random_ppi(int(rng.integers(2, 7)), rng)))
    return _members(reports)


def _criterion6():
    rng = np.random.default_rng(60)
    reports = []
    for _ in range(5):
        x = random_ppi(int(rng.integers(3, 7)), rng)
        reports.append(hw_pair_product(x, x.power(int(rng.integers(2, 4)))))
    return _members(reports)


def _criterion7():
    rng = np.random.default_rng(70)
    return _members([nfl(random_contraction(int(rng.integers(2, 9)), rng)) for _ in range(5)])


def _criterion8():
    rng = np.random.default_rng(80)
    out = []
    for k in range(5):
        dim = int(rng.integers(3, 6))
        x1, x2 = commuting_orthogonal_pair(dim, rng)
        out.append((f"{k}.pd", largest_doubly_commuting(x1, x2)))
        x = random_ppi(dim, rng)
        out.append((f"{k}.ppi", largest_product_ppi(x, x.power(2))))
    return out


def _gf(p):
    """Wold and Halmos-Wallen on signed permutations x, Halmos-Wallen on the
    rank-one projection x e11 x*, and the range projection of a random u v^T."""
    dom = construct_gf_ring(p, 2)
    e11 = from_rows(dom, [[1, 0], [0, 0]])
    rng = np.random.default_rng(p)
    reports = []
    ranges = []
    for k in range(4):
        x = gf_signed_permutation(dom, rng)
        reports += [wold(x), halmos_wallen(x), halmos_wallen(x @ e11 @ x.star())]
        uvt = np.outer(rng.integers(1, p, 2), rng.integers(1, p, 2)).tolist()
        ranges.append((f"range{k}", left_projection(from_rows(dom, uvt))))
    return _members(reports) + ranges


# recorded before the per-domain classes replaced the DomainKind branches
_DIGESTS = {
    "criterion 5": (_criterion5,
        "94b567e22acea2e2313c1d6ef9a9b16a189cb0fd277e65d1e6fe8e51d6cc0406"),
    "criterion 6": (_criterion6,
        "75c1e7c1a78de7eb3902c9899ecd5b607861273f88d69a4ac202aff4d67091db"),
    "criterion 7": (_criterion7,
        "b8d10a5912d2fa956a7282082abd831501466d49fd416532fbab7bcb0e6a01b0"),
    "criterion 8": (_criterion8,
        "1516352f3e22decc6e95c75747222d4b69dccb7f9fe979ee93709631b5dfc635"),
    "gf(3,2)": (lambda: _gf(3),
        "c314d782ec3830d1dcf0d6db6c873f81ad2c702f82ea794ff776087c380d5304"),
    "gf(7,2)": (lambda: _gf(7),
        "2595be4da062781c095d387864afbdc68fbb4d4afe30eda04614d27ebb4ad09d"),
}


@pytest.mark.parametrize("name", sorted(_DIGESTS))
def test_exact_projection_digests(name):
    build, want = _DIGESTS[name]
    assert _digest(build()) == want


# ------------------------------------------------ rational vs complex


def _ranks(report):
    return {lbl: p.rank for lbl, p in report.basis.members}


@given(st.sampled_from(["wold", "hw", "nfl-ppi", "nfl-contraction"]),
       st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_rational_and_complex_give_equal_block_ranks(method, dim, seed):
    rng = np.random.default_rng(seed)
    fn = {"wold": wold, "hw": halmos_wallen}.get(method, nfl)
    if method == "wold":
        x = rational_orthogonal(dim, rng)
    elif method == "nfl-contraction":
        x = random_contraction(dim, rng)
    else:
        x = random_ppi(dim, rng)
    as_complex = Element(COMPLEX, x.mat.astype(complex))
    assert _ranks(fn(as_complex)) == _ranks(fn(x))


# ------------------------------------------------- per-class checks

GF3 = construct_gf_ring(3, 2)
LOOSE = complex_domain(TolerancePolicy(eps_eq=1e-6))


@pytest.mark.parametrize("domain,values", [
    (RATIONAL, [Fraction(0), Fraction(-7, 2), Fraction(3, 5), Fraction(12)]),
    (GF3, [0, 1, 2]),
    (GFDomain(7, 1), [0, 3, 6]),
    (COMPLEX, [0j, 1 + 0j, -2.5 + 1e-3j, 0.6 - 0.8j, 1 / 3 + 2 / 7j]),
])
def test_parse_format_round_trip(domain, values):
    for v in values:
        assert domain.parse(domain.format(v)) == v
        assert domain.coerce(v) == v


def test_residual_tol():
    assert RATIONAL.residual_tol(5) == 0.0
    assert GF3.residual_tol(2) == 0.0
    assert COMPLEX.residual_tol(4) == pytest.approx(4e-8)
    assert LOOSE.residual_tol(3) == pytest.approx(3e-6)
    assert COMPLEX.is_zero(np.full((4, 4), 1e-9j))
    assert not COMPLEX.is_zero(np.full((4, 4), 1e-7j))
    assert not RATIONAL.is_zero(RATIONAL.eye(2) * Fraction(1, 10**30))


def test_equality_and_hash_across_fresh_instances():
    assert RationalDomain() == RATIONAL == rational_domain()
    assert GFDomain(3, 2) == GF3 and hash(GFDomain(3, 2)) == hash(GF3)
    assert ComplexDomain() == COMPLEX == complex_domain()
    assert hash(complex_domain()) == hash(COMPLEX)
    assert complex_domain(TolerancePolicy(eps_eq=1e-6)) == LOOSE
    assert LOOSE != COMPLEX
    assert GFDomain(7, 2) != GF3 and GFDomain(3, 1) != GF3
    assert len({RATIONAL, RationalDomain(), GF3, GFDomain(3, 2), COMPLEX, ComplexDomain()}) == 3
    assert [repr(d) for d in (RATIONAL, GF3, COMPLEX)] == ["rational", "gf(3,dim=2)",
                                                          "complex-float"]


def test_storage_and_adjoint():
    assert RATIONAL.eye(2).tolist() == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert RATIONAL.zeros(3, 0).shape == (3, 0)
    assert np.array_equal(COMPLEX.eye(3), np.eye(3, dtype=complex))
    assert COMPLEX.zeros(2, 3).dtype == complex
    assert GF3.normalize(np.array([[4, -1], [3, 5]], dtype=object)).tolist() == [[1, 2], [0, 2]]
    assert GF3.inv(2) == 2 and RATIONAL.inv(Fraction(2, 3)) == Fraction(3, 2)
    m = np.array([[1, 2j], [3, 4]])
    assert np.array_equal(COMPLEX.adjoint(m), np.array([[1, 3], [-2j, 4]]))
    assert RATIONAL.adjoint(RATIONAL.array([[1, 2], [3, 4]])).tolist() == [[1, 3], [2, 4]]


def test_gf_domain_is_validated_at_construction():
    with pytest.raises(ImproperInvolutionError):
        GFDomain(5, 2)


def test_closed_form_order_axioms():
    assert (RATIONAL.antisymmetric, RATIONAL.smooth) == (True, False)
    assert (COMPLEX.antisymmetric, COMPLEX.smooth) == (True, True)
    assert (GF3.antisymmetric, GF3.smooth) == (False, False)
    assert GFDomain(2, 1).smooth
