"""Constructor algebra: matrices of truncated expressions, windows,
ground-truth indicators and size embeddings."""

import hashlib

import numpy as np
import pytest

from stardecomp import (
    Adjoint,
    BackShift,
    GridShift,
    PreconditionError,
    RATIONAL,
    Shift,
    Trunc,
    TruncationTooSmallError,
    compose,
    direct_sum,
    ground_truth_hw,
    ground_truth_wold,
    pair_instances,
    shift_power,
    truncate,
    unitary,
)
from stardecomp.elements import Element, classify
from stardecomp.shiftmodel import embedding_indices, space, total_dim

U2 = unitary([[0.6 + 0.8j, 0], [0, -1]])


def test_truncate_refuses_an_exact_domain():
    # the realisation is complex; an exact label on complex entries would lie
    with pytest.raises(PreconditionError, match="complex"):
        truncate(Shift(1), 8, n_max=4, domain=RATIONAL)


def test_unitary_constructor_validates():
    with pytest.raises(PreconditionError):
        unitary([[1, 1], [0, 1]])


def test_space_descriptors():
    e = direct_sum(U2, Shift(2), Trunc(3))
    assert space(e) == (("finite", 2), ("tail", 2), ("finite", 3))
    assert total_dim(e, 10) == 2 + 20 + 3
    assert space(GridShift(1)) == (("grid",),)


def test_compose_requires_matching_spaces():
    with pytest.raises(PreconditionError):
        space(compose(Shift(1), Shift(2)))


def test_truncated_shift_is_partial_isometry():
    tr = truncate(Shift(1), 12, n_max=4)
    c = classify(tr.element, 4)
    assert c.partial_isometry and c.power_partial_isometry and not c.isometry


def test_truncated_shift_isometry_on_window():
    tr = truncate(Shift(1), 12, n_max=4)
    x, w = tr.element, tr.window.element
    defect = w @ (x.star() @ x) @ w - w @ w
    assert defect.norm() < 1e-12


def test_adjoint_and_backshift_agree():
    t1 = truncate(Adjoint(Shift(1)), 10, n_max=4)
    t2 = truncate(BackShift(1), 10, n_max=4)
    assert (t1.element - t2.element).norm() == 0.0


def test_shift_power_matrix():
    t = truncate(shift_power(2), 10, n_max=4)
    single = truncate(Shift(1), 10, n_max=4)
    assert (t.element - single.element @ single.element).norm() == 0.0


def test_grid_shifts_commute():
    a = truncate(GridShift(1), 5, n_max=2)
    b = truncate(GridShift(2), 5, n_max=2)
    assert (a.element @ b.element - b.element @ a.element).norm() == 0.0


def test_truncation_guards():
    with pytest.raises(TruncationTooSmallError):
        truncate(Shift(1), 4, n_max=8)
    with pytest.raises(TruncationTooSmallError):
        truncate(direct_sum(U2, Shift(1)), 3, n_max=1)
    with pytest.raises(TruncationTooSmallError):
        truncate(Shift(1), 12, n_max=4, window=9)  # window exceeds n - n_max


def test_window_size():
    tr = truncate(Shift(2), 12, n_max=4)
    assert tr.w == 8
    assert tr.window.rank == 16  # 8 per tail, two tails
    narrow = truncate(Shift(2), 12, n_max=4, window=5)
    assert narrow.window.rank == 10


def test_truncate_takes_no_product_and_no_factorisation(monkeypatch):
    # the window is read off its depth mask
    svds, products = [], []
    svd, matmul = np.linalg.svd, Element.__matmul__
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))
    monkeypatch.setattr(Element, "__matmul__",
                        lambda a, b: products.append(1) or matmul(a, b))
    tr = truncate(direct_sum(unitary(np.eye(3)), Shift(1)), 128)
    assert not svds and not products
    assert tr.window.rank == 3 + 112
    assert np.array_equal(tr.window.range_basis,
                          np.eye(131)[:, np.diagonal(tr.window.element.mat) == 1])


def test_ground_truth_wold_indicators():
    e = direct_sum(U2, Shift(1))
    gt = ground_truth_wold(e, 8)
    assert gt.labels == ("u", "s")
    assert gt.projections["u"].rank == 2
    assert gt.projections["s"].rank == 8


def test_ground_truth_wold_rejects_backshift():
    with pytest.raises(PreconditionError):
        ground_truth_wold(BackShift(1), 8)


@pytest.mark.parametrize("e", [Adjoint(BackShift(1)), Adjoint(Adjoint(Shift(1)))])
def test_ground_truth_wold_accepts_adjoint_isometries(e):
    gt, shift = ground_truth_wold(e, 8), ground_truth_wold(Shift(1), 8)
    assert gt.labels == ("s",)
    for lbl in ("u", "s"):
        assert gt.projections[lbl].equals(shift.projections[lbl])


def test_ground_truth_hw_labels():
    e = direct_sum(U2, Shift(1), BackShift(1), Trunc(3))
    gt = ground_truth_hw(e, 6)
    assert gt.labels == ("u", "s", "b", "t")
    assert gt.projections["t"].rank == 3
    # adjoint swaps shift and backward shift
    gt2 = ground_truth_hw(Adjoint(direct_sum(U2, Shift(1))), 6)
    assert gt2.labels == ("u", "b")


def test_pair_instances_catalog():
    for name in ("grid", "equal-shift", "powers", "unitary-pair", "mixed"):
        e1, e2 = pair_instances(name)
        n = 5 if name == "grid" else 12
        t1 = truncate(e1, n, n_max=2)
        t2 = truncate(e2, n, n_max=2)
        comm = t1.element @ t2.element - t2.element @ t1.element
        w = t1.window.element
        assert (w @ comm @ w).norm() < 1e-12
    with pytest.raises(KeyError):
        pair_instances("nonsense")


def test_embedding_indices_align_operators():
    e = direct_sum(U2, Shift(2))
    small, big = truncate(e, 8, n_max=2), truncate(e, 12, n_max=2)
    i_s, i_b = embedding_indices(e, 8, 12)
    sub = big.element.mat[np.ix_(i_b, i_b)]
    # the small operator equals the big one on the embedded coordinates,
    # except at tail boundaries (last index per tail)
    mask = np.real(np.diag(small.window.element.mat)) > 0.5
    diff = (small.element.mat - sub)[np.ix_(mask, mask)]
    assert np.abs(diff).max() < 1e-14


# ------------------------------------------------------- layout digests

_LAYOUT_EXPRS = {
    "unitary": U2,
    "shift1": Shift(1),
    "shift2": Shift(2),
    "shift3": Shift(3),
    "backshift2": BackShift(2),
    "trunc": Trunc(3),
    "grid1": GridShift(1),
    "grid2": GridShift(2),
    "sum": direct_sum(U2, Shift(2), BackShift(1), Trunc(3)),
    "shift-power": shift_power(2),
    "compose": compose(direct_sum(U2, Shift(1)), direct_sum(Adjoint(U2), Shift(1))),
    "compose-backward": compose(Shift(1), Adjoint(Shift(1))),
    "adjoint": Adjoint(direct_sum(U2, Shift(1))),
    **{f"pair {name} {k}": e for name in ("grid", "equal-shift", "powers", "unitary-pair", "mixed")
       for k, e in enumerate(pair_instances(name))},
}


def _truth_bytes(h, build, e, n):
    try:
        gt = build(e, n)
    except PreconditionError as exc:
        h.update(type(exc).__name__.encode())
        return
    h.update(repr(gt.labels).encode())
    for lbl, p in gt.projections.items():
        h.update(lbl.encode() + p.element.mat.tobytes())


def _layout_digest(e) -> str:
    """sha256 of the truncated element, window, dims, ground truths and
    embeddings: no SVD output, so the digest does not depend on BLAS."""
    h = hashlib.sha256()
    for n, n_max in ((8, 2), (12, 4)):
        tr = truncate(e, n, n_max=n_max)
        h.update(tr.element.mat.tobytes() + tr.window.element.mat.tobytes())
        h.update(f"w={tr.w} dim={total_dim(e, n)}".encode())
        _truth_bytes(h, ground_truth_wold, e, n)
        _truth_bytes(h, ground_truth_hw, e, n)
    for small, big in ((5, 8), (8, 12)):
        for idx in embedding_indices(e, small, big):
            h.update(str(idx.dtype).encode() + idx.tobytes())
    return h.hexdigest()


_LAYOUT_DIGESTS = {
    "unitary":
        "3171599eb0d5558cc2005e0581075781978b4bcadadb5658ea83dc53b0eecfef",
    "shift1":
        "46cfba2907ebbdfc4cce279a999fa2da5d82ffe6655dd05546b39ca5370156db",
    "shift2":
        "12b47a40ef7c43d5d5d452701110cbdf5816b644b108b9b3c50f4549d0dd93eb",
    "shift3":
        "e1dfc3dabfa5856f84ab0153b105ba40621801c758890ec211dcf38945e97ec3",
    "backshift2":
        "ffcf91a2c785dbaf93d1474d535b66a0d8d73a95def8c2167e84ae2fc62c57ed",
    "trunc":
        "2afdd4900956976ed63962d391abdf39d28f099178151133b8a98cee889b5ddc",
    "grid1":
        "e56a3c63cc6d1fc8cff82bfbf8e81d4dee0bd301475df468bd726c395d1dcd59",
    "grid2":
        "9c2c0dbd06922b743cadc230362b2f006c4244a7eaac6fda9b756f711db64a45",
    "sum":
        "225bf19d8b1c8ee60760e808f51f2b5be7857b689e13cccf738343b477a4e72e",
    "shift-power":
        "b8696fcda9f6540bbf5aa70457c8e131d44fa9b99eb707a09813ca6090fe846e",
    "compose":
        "edb54102181a8ddc412d180579e88164d2db54a5861b34a53c99d9c3e2543152",
    "compose-backward":
        "99ab8df3cbbca4eb97f5f9cad3239139d9d39c054b87bf628df46636e02ea697",
    "adjoint":
        "90728e040b13a8c128b32595bd20c40fa3416376d3300bd570853c5e71cc9852",
    "pair grid 0":
        "e56a3c63cc6d1fc8cff82bfbf8e81d4dee0bd301475df468bd726c395d1dcd59",
    "pair grid 1":
        "9c2c0dbd06922b743cadc230362b2f006c4244a7eaac6fda9b756f711db64a45",
    "pair equal-shift 0":
        "46cfba2907ebbdfc4cce279a999fa2da5d82ffe6655dd05546b39ca5370156db",
    "pair equal-shift 1":
        "46cfba2907ebbdfc4cce279a999fa2da5d82ffe6655dd05546b39ca5370156db",
    "pair powers 0":
        "b8696fcda9f6540bbf5aa70457c8e131d44fa9b99eb707a09813ca6090fe846e",
    "pair powers 1":
        "d86e139be471126371fa43f27e274a759f8aba200bf807072fd0be82aba59d9b",
    "pair unitary-pair 0":
        "3171599eb0d5558cc2005e0581075781978b4bcadadb5658ea83dc53b0eecfef",
    "pair unitary-pair 1":
        "bbae911f1d92400231c774cdc2462176546ad0861841f44804fc335af8fa651e",
    "pair mixed 0":
        "bf7229f2ef24ab17f7d55842bbb46570bb921367ab26aeab6a97fa8aaf7f1c35",
    "pair mixed 1":
        "c304fb185b8c2a031c1b928c9c7ac6b342359c20058c0c00fc35d771d9ec161b",
}


def test_layout_digests():
    got = {name: _layout_digest(e) for name, e in _LAYOUT_EXPRS.items()}
    assert got == _LAYOUT_DIGESTS
