"""Element arithmetic, involution and classification across the three domains."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stardecomp import (
    COMPLEX,
    RATIONAL,
    DomainMismatchError,
    Element,
    MalformedElementError,
    TolerancePolicy,
    classify,
    complex_domain,
    construct_gf_ring,
    from_rows,
    identity,
    zero,
)

GF3 = construct_gf_ring(3, 2)

rational_entries = st.fractions(
    min_value=-5, max_value=5, max_denominator=7
)


def rational_matrices(dim=3):
    return st.lists(
        st.lists(rational_entries, min_size=dim, max_size=dim),
        min_size=dim, max_size=dim,
    ).map(lambda rows: from_rows(RATIONAL, rows))


def test_rejects_non_square():
    with pytest.raises(MalformedElementError):
        Element(RATIONAL, np.array([[Fraction(1), Fraction(0)]], dtype=object))


def test_rejects_empty():
    with pytest.raises(MalformedElementError):
        Element(RATIONAL, np.empty((0, 0), dtype=object))


def test_gf_dimension_enforced():
    with pytest.raises(MalformedElementError):
        from_rows(GF3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_domain_mismatch():
    a = identity(RATIONAL, 2)
    b = identity(COMPLEX, 2)
    with pytest.raises(DomainMismatchError):
        a + b


def test_domain_mismatch_names_both_tolerances():
    loose = identity(complex_domain(TolerancePolicy(eps_eq=1e-6)), 2)
    with pytest.raises(DomainMismatchError, match=r"eps_eq=1e-06.* vs .*eps_eq=1e-08"):
        loose @ identity(COMPLEX, 2)


@given(rational_matrices(), rational_matrices())
@settings(max_examples=40, deadline=None)
def test_star_is_antimultiplicative(a, b):
    assert (a @ b).star().equals(b.star() @ a.star())


@given(rational_matrices())
@settings(max_examples=40, deadline=None)
def test_star_involutive(a):
    assert a.star().star().equals(a)


@given(rational_matrices(), st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_power_matches_repeated_product(a, n):
    expected = identity(RATIONAL, a.dim)
    for _ in range(n):
        expected = expected @ a
    assert a.power(n).equals(expected)


def test_power_multiplies_no_identity(monkeypatch):
    """x^5 = x (x^2)^2 takes three products: two squarings and one multiply."""
    calls = []
    matmul = Element.__matmul__

    def counting(self, other):
        calls.append(1)
        return matmul(self, other)

    monkeypatch.setattr(Element, "__matmul__", counting)
    j = from_rows(RATIONAL, [[0, 0, 0], [1, 0, 0], [0, 1, 1]])
    assert j.power(5).equals(j @ j @ j @ j @ j)
    assert len(calls) == 3 + 4
    assert j.power(1) is j
    assert j.power(0).equals(identity(RATIONAL, 3))


def test_gf_arithmetic_wraps_mod_p():
    a = from_rows(GF3, [[2, 2], [1, 0]])
    sq = a @ a
    assert sq.mat[0, 0] == (2 * 2 + 2 * 1) % 3


def test_classify_identity_has_all_flags():
    flags = classify(identity(RATIONAL, 3), 4).flags()
    assert all(flags.values())


def test_classify_jordan_block():
    j3 = from_rows(RATIONAL, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    c = classify(j3, 4)
    assert c.partial_isometry and c.power_partial_isometry and c.contraction
    assert not (c.isometry or c.co_isometry or c.unitary or c.projection)


def test_classify_shift_like_isometry_truncated_is_not_isometry():
    # the 3x3 truncation of a shift loses its isometry at the last coordinate
    j3 = from_rows(RATIONAL, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert not classify(j3, 2).isometry


def test_classify_non_ppi():
    # a partial isometry whose square (= 4/5 times itself) is not one
    a = from_rows(RATIONAL, [[0, 0], [Fraction(3, 5), Fraction(4, 5)]])
    c = classify(a, 4)
    assert c.partial_isometry and not c.power_partial_isometry


def test_contraction_flag_scaled_rotation():
    half_rot = from_rows(RATIONAL, [[Fraction(3, 10), Fraction(-4, 10)],
                                    [Fraction(4, 10), Fraction(3, 10)]])
    assert classify(half_rot, 2).contraction
    double = from_rows(RATIONAL, [[2, 0], [0, 2]])
    assert not classify(double, 2).contraction


def test_zero_and_norm():
    z = zero(COMPLEX, 3)
    assert z.is_zero() and z.norm() == 0.0
    assert not identity(COMPLEX, 3).is_zero()
