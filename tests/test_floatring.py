"""Tolerance-governed float-ring primitives: range projections and meets
through the shared projection lattice, and positivity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stardecomp import COMPLEX, Element, PreconditionError, RATIONAL, identity
from stardecomp.fixtures import random_complex_unitary
from stardecomp.floatring import is_positive_float
from stardecomp.projections import left_projection, proj_inf


def _rand_complex(rng, n=5):
    return Element(COMPLEX, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_range_projection_idempotent_selfadjoint(seed):
    rng = np.random.default_rng(seed)
    a = _rand_complex(rng)
    p = left_projection(a)
    e = p.element
    assert (e @ e - e).norm() < 1e-10
    assert (e - e.star()).norm() < 1e-10
    assert (e @ a - a).norm() < 1e-9 * max(a.norm(), 1)


def test_range_projection_rank_deficient():
    rng = np.random.default_rng(1)
    v = rng.standard_normal((4, 1))
    a = Element(COMPLEX, (v @ v.T).astype(complex))
    assert left_projection(a).rank == 1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_intersection_of_coordinate_planes(seed):
    rng = np.random.default_rng(seed)
    u = random_complex_unitary(5, rng)
    d1 = np.diag([1.0, 1, 1, 0, 0]).astype(complex)
    d2 = np.diag([0.0, 1, 1, 1, 0]).astype(complex)
    p = left_projection(u @ Element(COMPLEX, d1) @ u.star())
    q = left_projection(u @ Element(COMPLEX, d2) @ u.star())
    m = proj_inf([p, q])
    assert m.rank == 2
    expected = u @ Element(COMPLEX, np.diag([0.0, 1, 1, 0, 0]).astype(complex)) @ u.star()
    assert (m.element - expected).norm() < 1e-8


def test_is_positive_float_cases():
    rng = np.random.default_rng(3)
    a = _rand_complex(rng)
    assert is_positive_float(a.star() @ a)
    assert is_positive_float(identity(COMPLEX, 5))
    neg = Element(COMPLEX, -np.eye(3, dtype=complex))
    assert not is_positive_float(neg)
    nonsym = Element(COMPLEX, np.array([[0, 1], [0, 0]], dtype=complex))
    assert not is_positive_float(nonsym)


def test_is_positive_float_tolerates_noise():
    rng = np.random.default_rng(4)
    a = _rand_complex(rng)
    psd = (a.star() @ a).mat
    noisy = Element(COMPLEX, psd + 1e-12 * rng.standard_normal(psd.shape))
    assert is_positive_float(noisy)


def test_float_ring_rejects_exact_elements():
    with pytest.raises(PreconditionError):
        is_positive_float(identity(RATIONAL, 2))
