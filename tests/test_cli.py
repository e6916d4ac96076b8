"""Spec-file parsing, report serialization round-trips, and the CLI
exit-code contract."""

import argparse
import json

import numpy as np
import pytest

from stardecomp import COMPLEX, RATIONAL, construct_gf_ring, from_rows, wold
from stardecomp.cli import _load, main
from stardecomp.errors import SpecFileError
from stardecomp.fixtures import rational_orthogonal
from stardecomp.serialize import (
    format_scalar,
    matrix_to_json,
    parse_expr,
    parse_matrix,
    parse_scalar,
    parse_spec,
    report_to_json,
    expr_to_json,
)


# -------------------------------------------------------------- scalars


@pytest.mark.parametrize("raw,expected", [
    ("3/5", "3/5"), ("-7/2", "-7/2"), ("4", "4"), (5, "5"),
])
def test_rational_scalar_roundtrip(raw, expected):
    v = parse_scalar(RATIONAL, raw)
    assert format_scalar(RATIONAL, v) == expected


@pytest.mark.parametrize("raw", ["0.6+0.8 i", "-1", "2.5", "1e-3-2 i", "3+i", "0-1 i"])
def test_complex_scalar_roundtrip(raw):
    v = parse_scalar(COMPLEX, raw)
    again = parse_scalar(COMPLEX, format_scalar(COMPLEX, v))
    assert abs(v - again) < 1e-15


def test_gf_scalar_wraps():
    dom = construct_gf_ring(3, 2)
    assert parse_scalar(dom, 5) == 2
    assert format_scalar(dom, 2) == 2


def test_bad_scalar_raises():
    with pytest.raises(SpecFileError):
        parse_scalar(RATIONAL, "one half")


# ------------------------------------------------------- matrices, specs


def test_matrix_roundtrip_exact():
    rng = np.random.default_rng(0)
    q = rational_orthogonal(4, rng)
    rows = matrix_to_json(q)
    back = parse_matrix(RATIONAL, rows)
    assert back.equals(q)


def test_parse_spec_pair_validation():
    base = {"ring": {"kind": "rational"},
            "operators": [{"matrix": [["1", "0"], ["0", "1"]]}]}
    assert parse_spec(base).pair is None
    with pytest.raises(SpecFileError):
        parse_spec({**base, "pair": [0, 5]})
    with pytest.raises(SpecFileError):
        parse_spec({**base, "operators": []})


def test_parse_expr_roundtrip():
    obj = {"op": "direct-sum", "terms": [
        {"op": "unitary", "rows": [["0.6+0.8 i", "0"], ["0", "-1"]]},
        {"op": "compose", "factors": [{"op": "shift", "mult": 1}, {"op": "shift", "mult": 1}]},
    ]}
    expr = parse_expr(obj)
    again = parse_expr(expr_to_json(expr))
    assert again == expr


def test_report_json_roundtrip_recheck():
    """Re-parsing a report's projections reproduces its residuals exactly."""
    rng = np.random.default_rng(1)
    q = rational_orthogonal(4, rng)
    rep = wold(q)
    payload = report_to_json(rep)
    total = None
    for lbl in payload["labels"]:
        p = parse_matrix(RATIONAL, payload["projections"][lbl])
        assert (p @ p).equals(p) and p.star().equals(p)
        total = p if total is None else total + p
    from stardecomp import identity

    assert total.equals(identity(RATIONAL, 4))
    assert payload["certificates"]["sum_to_one"] == 0.0


# ------------------------------------------------------------------ CLI


def _write(tmp_path, name, payload):
    f = tmp_path / name
    f.write_text(json.dumps(payload))
    return str(f)


def test_cli_classify_and_exit_codes(tmp_path, capsys):
    spec = _write(tmp_path, "j3.json", {
        "ring": {"kind": "rational"},
        "operators": [{"matrix": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]]}],
    })
    assert main(["classify", spec]) == 0
    out = capsys.readouterr().out
    assert "power-partial-isometry" in out


def test_cli_parse_error_is_exit_2(tmp_path, capsys):
    spec = _write(tmp_path, "bad.json", {
        "ring": {"kind": "rational"},
        "operators": [{"matrix": [["1", "nope"], ["0", "1"]]}],
    })
    assert main(["classify", spec]) == 2
    err = capsys.readouterr().err
    assert "row 0" in err and "column 1" in err


def test_cli_precondition_is_exit_3(tmp_path, capsys):
    spec = _write(tmp_path, "gf.json", {
        "ring": {"kind": "gf", "p": 3, "dim": 2},
        "operators": [{"matrix": [[1, 0], [0, 2]]}],
    })
    assert main(["decompose", spec, "--method", "nfl"]) == 3
    assert "smooth" in capsys.readouterr().err


def test_cli_decompose_wold_json(tmp_path, capsys):
    spec = _write(tmp_path, "shift.json", {
        "ring": {"kind": "complex-float"},
        "operators": [{"expr": {"op": "direct-sum", "terms": [
            {"op": "unitary", "rows": [["0.6+0.8 i", "0"], ["0", "-1"]]},
            {"op": "shift", "mult": 1},
        ]}}],
    })
    assert main(["decompose", spec, "--method", "wold", "--truncation", "32",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["labels"] == ["u", "s"]
    assert payload["ranks"]["u"] == 2
    assert all(v < 1e-8 for v in payload["certificates"].values())


def test_cli_slocinski_condition_vector(tmp_path, capsys):
    spec = _write(tmp_path, "pair.json", {
        "ring": {"kind": "rational"},
        "operators": [
            {"matrix": [["3/5", "-4/5"], ["4/5", "3/5"]]},
            {"matrix": [["5/13", "-12/13"], ["12/13", "5/13"]]},
        ],
        "pair": [0, 1],
    })
    assert main(["decompose", spec, "--method", "slocinski", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["condition_vector"] == [True] * 6
    assert payload["holds"] is True


def test_cli_pair_method_without_pair_is_exit_2(tmp_path, capsys):
    spec = _write(tmp_path, "nopair.json", {
        "ring": {"kind": "rational"},
        "operators": [{"matrix": [["1", "0"], ["0", "1"]]}],
    })
    assert main(["decompose", spec, "--method", "slocinski"]) == 2


def test_cli_builtin_remark1(capsys):
    assert main(["verify", "--builtin", "remark1"]) == 0
    assert "q-p positive: yes; p <= q: no" in capsys.readouterr().out


def test_cli_builtin_axioms(capsys):
    assert main(["verify", "--builtin", "axioms", "--ring", "gf3", "--dim", "2"]) == 0
    assert "antisymmetric=False" in capsys.readouterr().out
    assert main(["verify", "--builtin", "axioms", "--ring", "rational", "--dim", "1"]) == 0
    assert "smooth=False" in capsys.readouterr().out


def test_cli_verify_spec_with_oracle(tmp_path, capsys):
    spec = _write(tmp_path, "rot.json", {
        "ring": {"kind": "rational"},
        "operators": [{"matrix": [["3/5", "-4/5", "0"], ["4/5", "3/5", "0"], ["0", "0", "1"]]}],
    })
    assert main(["verify", spec, "--method", "wold", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["checks"]["oracle_unitary_rank"] is True


def test_cli_builtin_malformed_ring_is_exit_2(capsys):
    assert main(["verify", "--builtin", "cone", "--ring", "gfx", "--dim", "2"]) == 2
    assert "unknown ring 'gfx'" in capsys.readouterr().err


@pytest.mark.parametrize("builtin", ["cone", "axioms"])
def test_cli_builtin_dim_0_is_exit_3(capsys, builtin):
    assert main(["verify", "--builtin", builtin, "--ring", "gf3", "--dim", "0"]) == 3
    assert "dim must be positive" in capsys.readouterr().err


_UNITARY_EXPR = {"op": "unitary", "rows": [["0.6+0.8 i", "0"], ["0", "-1"]]}


@pytest.mark.parametrize("ring,extra", [
    ({"kind": "complex-float", "tolerance": 1e-6}, []),
    ({"kind": "complex-float"}, ["--tol", "1e-6"]),
])
def test_cli_tolerance_reaches_expr_operators_in_mixed_pair(tmp_path, capsys, ring, extra):
    """An expr operator and a matrix operator share the spec's tolerance."""
    spec = _write(tmp_path, "mixed.json", {
        "ring": ring,
        "operators": [{"expr": _UNITARY_EXPR}, {"matrix": [["1", "0"], ["0", "0+1 i"]]}],
        "pair": [0, 1],
    })
    assert main(["decompose", spec, "--method", "slocinski", "--truncation", "32",
                 "--format", "json", *extra]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True


@pytest.mark.parametrize("ring,tol", [
    ({"kind": "complex-float", "tolerance": 1e-6}, None),
    ({"kind": "complex-float"}, 1e-6),
])
def test_cli_tolerance_reaches_expr_only_spec(tmp_path, ring, tol):
    spec = _write(tmp_path, "expr.json", {
        "ring": ring,
        "operators": [{"expr": {"op": "direct-sum",
                                "terms": [_UNITARY_EXPR, {"op": "shift", "mult": 1}]}}],
    })
    args = argparse.Namespace(file=spec, tol=tol)
    ops, window = _load(args).realised(32, 16)
    assert ops[0].domain.tol.eps_eq == 1e-6
    assert window.domain.tol.eps_eq == 1e-6
