"""Finite-field ring construction and closed forms (checked against the
enumeration oracle in gf_enumeration), rational positivity and the
order-axiom probes."""

from fractions import Fraction

import numpy as np
import pytest

import gf_enumeration
from stardecomp import (
    AxiomReport,
    ImproperInvolutionError,
    PreconditionError,
    RATIONAL,
    axiom_probe,
    construct_gf_ring,
    from_rows,
    is_positive,
    positivity_cone,
)
from stardecomp.fixtures import rational_orthogonal

PRIMES_TO_23 = (2, 3, 5, 7, 11, 13, 17, 19, 23)
# every (p, dim) with p <= 11 whose transpose involution is proper
PROPER_TO_11 = ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (7, 2), (11, 2))


def _gf_elements(domain):
    return [from_rows(domain, m.tolist()) for m in gf_enumeration.elements(domain.p, domain.dim)]


def _entries(e) -> tuple:
    return tuple(int(v) for v in e.mat.flat)


def test_gf_requires_prime():
    with pytest.raises(PreconditionError):
        construct_gf_ring(4, 2)


def test_gf_improper_involution_rejected():
    # over F_5, 1^2 + 2^2 = 0, so the transpose involution on 2x2 is improper
    with pytest.raises(ImproperInvolutionError):
        construct_gf_ring(5, 2)
    # three squares sum to zero over F_3 (1+1+1)
    with pytest.raises(ImproperInvolutionError):
        construct_gf_ring(3, 3)


def test_gf_proper_cases():
    construct_gf_ring(3, 2)
    construct_gf_ring(7, 2)
    construct_gf_ring(5, 1)


@pytest.mark.parametrize("dim", (1, 2, 3, 4))
@pytest.mark.parametrize("p", PRIMES_TO_23)
def test_properness_matches_enumeration(p, dim):
    if gf_enumeration.proper(p, dim):
        assert construct_gf_ring(p, dim).p == p
    else:
        with pytest.raises(ImproperInvolutionError):
            construct_gf_ring(p, dim)


@pytest.mark.parametrize("p,dim", PROPER_TO_11)
def test_closed_forms_match_enumeration(p, dim):
    domain = construct_gf_ring(p, dim)
    cone = gf_enumeration.cone(p, dim)
    counts = positivity_cone(domain)
    assert counts.cone_size == len(cone.members)
    assert counts.square_count == len(cone.squares)
    assert axiom_probe(domain) == AxiomReport(
        proper=True, antisymmetric=cone.antisymmetric, smooth=cone.smooth)


@pytest.mark.parametrize("p,dim", [(p, d) for p, d in PROPER_TO_11 if p <= 7])
def test_is_positive_matches_enumerated_cone(p, dim):
    domain = construct_gf_ring(p, dim)
    members = gf_enumeration.cone(p, dim).members
    for e in _gf_elements(domain):
        assert is_positive(e) == (_entries(e) in members)


def test_enumeration_guard():
    """The oracle lists all p^(dim^2) elements; the closed forms need no
    enumeration, so they answer for rings far past the oracle's reach."""
    assert len(gf_enumeration.elements(3, 2)) == 3 ** 4
    big = positivity_cone(construct_gf_ring(43, 2))
    assert big.cone_size == 43 ** 3
    assert big.square_count == (43 ** 3 + 43) // 2
    assert axiom_probe(construct_gf_ring(43, 2)) == AxiomReport(True, False, False)


def test_cone_m2f3():
    cone = gf_enumeration.cone(3, 2)
    # the cone strictly exceeds the squares: the ring is not smooth
    assert cone.squares < cone.members
    # every member is symmetric, and every symmetric matrix is a member
    entries = map(tuple, gf_enumeration.elements(3, 2).reshape(-1, 4).tolist())
    assert cone.members == {k for k in entries if k[1] == k[2]}
    counts = positivity_cone(construct_gf_ring(3, 2))
    assert (counts.cone_size, counts.square_count) == (27, 15)


def test_cone_membership_vs_is_positive():
    dom = construct_gf_ring(3, 2)
    cone = gf_enumeration.cone(3, 2)
    for e in _gf_elements(dom):
        assert is_positive(e) == (e.equals(e.star()) and _entries(e) in cone.members)


def test_baer_annihilator_spotcheck():
    """Right annihilators in M_2(F_3) are generated by projections."""
    from stardecomp.projections import right_annihilator_projection

    dom = construct_gf_ring(3, 2)
    rng = np.random.default_rng(0)
    elems = _gf_elements(dom)
    for _ in range(25):
        a = elems[rng.integers(len(elems))]
        p = right_annihilator_projection([a])
        e = p.element
        assert e.equals(e.star()) and (e @ e).equals(e)
        assert (a @ e).is_zero()
        # generation: every annihilating b satisfies b = p b
        for b in elems[:30]:
            if (a @ b).is_zero():
                assert (e @ b).equals(b)


def test_rational_psd_positive_cases():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = rng.integers(-3, 4, size=(3, 3)).tolist()
        x = from_rows(RATIONAL, m)
        assert is_positive(x.star() @ x)


def test_rational_psd_negative_cases():
    assert not is_positive(from_rows(RATIONAL, [[-1, 0], [0, 1]]))
    assert not is_positive(from_rows(RATIONAL, [[0, 1], [1, 0]]))
    # non-self-adjoint is never positive
    assert not is_positive(from_rows(RATIONAL, [[1, 1], [0, 1]]))


def test_rational_psd_zero_diagonal_block():
    # PSD with a zero diagonal entry forces the whole row/column to vanish
    assert is_positive(from_rows(RATIONAL, [[0, 0], [0, 1]]))
    assert not is_positive(from_rows(RATIONAL, [[0, 1], [1, 1]]))


def test_rational_psd_congruence_invariant():
    rng = np.random.default_rng(2)
    q = rational_orthogonal(4, rng)
    d = from_rows(RATIONAL, [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert is_positive(q @ d @ q.star())


def test_axiom_probe_gf3():
    report = axiom_probe(construct_gf_ring(3, 2))
    assert report.proper
    assert not report.antisymmetric
    assert not report.smooth


def test_axiom_probe_gf7():
    # larger field, same qualitative picture
    report = axiom_probe(construct_gf_ring(7, 2))
    assert report.proper and not report.antisymmetric


def test_axiom_probe_rational():
    report = axiom_probe(RATIONAL, dim=1)
    assert report.proper and report.antisymmetric and not report.smooth
    report3 = axiom_probe(RATIONAL, dim=3)
    assert not report3.smooth


def test_smoothness_witness_is_not_a_square_dim1():
    """diag(2) is positive but not x^T x over the rationals (2 is a non-square)."""
    two = from_rows(RATIONAL, [[2]])
    assert is_positive(two)
    # directly: a 1x1 square is a square of a rational
    r = Fraction(2)
    num, den = r.numerator, r.denominator
    assert int(num * den) ** 0.5 % 1 != 0  # 2 is not a perfect square
