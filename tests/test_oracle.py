"""Brute-force oracle behaviour and engine/oracle agreement."""

import numpy as np
import pytest

from stardecomp import (
    PreconditionError,
    RATIONAL,
    Shift,
    brute_hw_classify,
    brute_unitary_part,
    direct_sum,
    from_rows,
    halmos_wallen,
    nfl,
    truncate,
    truncation_convergence_probe,
    unitary,
    wold,
)
from stardecomp.fixtures import random_contraction, random_ppi, rational_orthogonal
from stardecomp.subspaces import proj_matrix

J3 = from_rows(RATIONAL, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])


def test_brute_unitary_part_of_unitary_is_everything():
    rng = np.random.default_rng(0)
    q = rational_orthogonal(4, rng)
    assert brute_unitary_part(q).shape[1] == 4


def test_brute_unitary_part_of_jordan_block_is_zero():
    assert brute_unitary_part(J3).shape[1] == 0


def test_brute_unitary_part_guard():
    rng = np.random.default_rng(1)
    with pytest.raises(PreconditionError):
        brute_unitary_part(rational_orthogonal(9, rng))


def test_brute_unitary_part_refuses_a_float_domain():
    x = truncate(Shift(1), 8, n_max=4).element
    with pytest.raises(PreconditionError, match="exact"):
        brute_unitary_part(x)


def test_brute_hw_classify_chain_lengths():
    rep = brute_hw_classify(J3)
    assert rep == type(rep)(u_rank=0, chain_lengths=(3,), t_rank=3)


def test_brute_hw_classify_mixed():
    rng = np.random.default_rng(2)
    x = random_ppi(6, rng, unitary_rank=2)
    rep = brute_hw_classify(x)
    assert rep.u_rank == 2
    assert sum(rep.chain_lengths) == 4 == rep.t_rank


def test_brute_hw_guard_and_domain():
    rng = np.random.default_rng(3)
    with pytest.raises(PreconditionError):
        brute_hw_classify(random_ppi(7, rng))


def test_engine_vs_oracle_hw():
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = random_ppi(5, rng)
        rep = halmos_wallen(x)
        chains = brute_hw_classify(x)
        assert rep.basis["u"].rank == chains.u_rank
        assert rep.basis["t"].rank == chains.t_rank
        assert rep.basis["s"].rank == 0 and rep.basis["b"].rank == 0


def test_engine_vs_oracle_nfl_projection_equality():
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = random_contraction(5, rng)
        rep = nfl(x)
        basis = brute_unitary_part(x)
        oracle_proj = proj_matrix(RATIONAL, basis)
        assert np.array_equal(oracle_proj, rep.basis["u"].element.mat)


def test_engine_vs_oracle_wold():
    rng = np.random.default_rng(6)
    q = rational_orthogonal(5, rng)
    rep = wold(q)
    assert rep.basis["u"].rank == brute_unitary_part(q).shape[1]


def test_truncation_convergence_shift():
    probe = truncation_convergence_probe(Shift(1), [24, 32], n_max=8)
    assert probe[0]["delta_prev"] <= 1e-10


def test_truncation_convergence_mixed():
    expr = direct_sum(unitary([[0.6 + 0.8j, 0], [0, -1]]), Shift(1))
    probe = truncation_convergence_probe(expr, [24, 32, 40], n_max=8)
    assert all(r["delta_prev"] <= 1e-10 for r in probe)
