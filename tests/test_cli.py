"""Spec-file parsing, report serialization round-trips, and the CLI
exit-code contract."""

import dataclasses
import json

import numpy as np
import pytest

from stardecomp import COMPLEX, RATIONAL, construct_gf_ring, engine, oracle, wold
from stardecomp.cli import main
from stardecomp.errors import SpecFileError
from stardecomp.fixtures import rational_orthogonal
from stardecomp.serialize import (
    load_spec,
    matrix_to_json,
    parse_expr,
    parse_matrix,
    parse_scalar,
    parse_spec,
    report_to_json,
)
from stardecomp.shiftmodel import Shift, compose, direct_sum, unitary


# -------------------------------------------------------------- scalars


@pytest.mark.parametrize("raw,expected", [
    ("3/5", "3/5"), ("-7/2", "-7/2"), ("4", "4"), (5, "5"), (2.0, "2"),
])
def test_rational_scalar_roundtrip(raw, expected):
    v = parse_scalar(RATIONAL, raw)
    assert RATIONAL.format(v) == expected


@pytest.mark.parametrize("raw", ["0.6+0.8 i", "-1", "2.5", "1e-3-2 i", "3+i", "0-1 i"])
def test_complex_scalar_roundtrip(raw):
    v = parse_scalar(COMPLEX, raw)
    again = parse_scalar(COMPLEX, COMPLEX.format(v))
    assert abs(v - again) < 1e-15


def test_gf_scalar_wraps():
    dom = construct_gf_ring(3, 2)
    assert parse_scalar(dom, 5) == 2
    assert parse_scalar(dom, 5.0) == 2
    assert dom.format(2) == 2


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
    with pytest.raises(SpecFileError):  # JSON booleans, not the index 0
        parse_spec({**base, "pair": [False, False]})
    with pytest.raises(SpecFileError):
        parse_spec({**base, "operators": []})


def test_parse_spec_refuses_non_list_operators(tmp_path, capsys):
    ring = {"kind": "complex-float"}
    for bad in (5, None, True, 1e308, {"matrix": [[1]]}):
        with pytest.raises(SpecFileError, match="'operators' must be a list"):
            parse_spec({"ring": ring, "operators": bad})
    spec = _write(tmp_path, "ops5.json", {"ring": ring, "operators": 5})
    assert main(["classify", spec]) == 2
    assert "'operators' must be a list" in capsys.readouterr().err


def test_parse_expr_roundtrip():
    obj = {"op": "direct-sum", "terms": [
        {"op": "unitary", "rows": [["0.6+0.8 i", "0"], ["0", "-1"]]},
        {"op": "compose", "factors": [{"op": "shift", "mult": 1}, {"op": "shift", "mult": 1}]},
    ]}
    built = direct_sum(unitary([[0.6 + 0.8j, 0], [0, -1]]), compose(Shift(1), Shift(1)))
    assert parse_expr(obj) == built


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


@pytest.mark.parametrize("node,message", [
    ({"op": "shift", "mult": 0}, "0 is not positive"),
    ({"op": "back-shift", "mult": -1}, "-1 is not positive"),
    ({"op": "trunc", "n": -2}, "-2 is not positive"),
    ({"op": "grid-shift", "axis": 3}, "3 is not one of (1, 2)"),
    ({"op": "shift", "mult": 1.9}, "1.9 is not an integer"),
    ({"op": "trunc", "n": 2.5}, "2.5 is not an integer"),
    ({"op": "grid-shift", "axis": True}, "True is not an integer"),
    ({"op": "shift", "mult": 2.0}, None),
])
def test_cli_expr_node_out_of_range_is_exit_2(tmp_path, capsys, node, message):
    """A fractional or boolean field is refused, not truncated; an integral
    float such as 2.0 is accepted (message None), as for matrix entries."""
    spec = _write(tmp_path, "expr.json", {"ring": {"kind": "complex-float"},
                                          "operators": [{"expr": node}]})
    code = main(["decompose", spec, "--method", "wold", "--truncation", "20"])
    if message is None:
        assert code == 0
        return
    assert code == 2
    assert f"malformed {node['op']!r} expr node: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("ring,hint", [
    ({"kind": "rational"}, '"1/2"'),
    ({"kind": "gf", "p": 7, "dim": 2}, "gf entries are integers"),
])
def test_cli_fractional_json_number_in_exact_spec_is_exit_2(tmp_path, capsys, ring, hint):
    """0.5 would be truncated to 0, so the spec is refused instead."""
    spec = _write(tmp_path, "half.json", {"ring": ring,
                                          "operators": [{"matrix": [[0.5, 0], [0, 1]]}]})
    assert main(["classify", spec]) == 2
    err = capsys.readouterr().err
    assert "row 0, column 0" in err and "0.5" in err and hint in err


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


def test_cli_verify_failed_check_is_exit_1(tmp_path, capsys, monkeypatch):
    """A corrupted certificate fails verify: exit 1 and FAIL.  The method is
    looked up on engine when it runs, so the patched wold is the one called."""
    real_wold = engine.wold

    def corrupted_wold(*args):
        report = real_wold(*args)
        first = next(iter(report.certificates))
        return dataclasses.replace(report, certificates={**report.certificates, first: 1.0})

    monkeypatch.setattr(engine, "wold", corrupted_wold)
    spec = _write(tmp_path, "rot.json", {
        "ring": {"kind": "rational"},
        "operators": [{"matrix": [["3/5", "-4/5", "0"], ["4/5", "3/5", "0"], ["0", "0", "1"]]}],
    })
    assert main(["verify", spec, "--method", "wold"]) == 1
    assert "certificates: FAIL" in capsys.readouterr().out


def _cycle(n):
    """The cyclic permutation of n coordinates: a rational unitary."""
    return [["1" if i == (j + 1) % n else "0" for j in range(n)] for i in range(n)]


def _jordan(n):
    """The nilpotent shift on n coordinates: a rational power partial isometry."""
    return [["1" if i == j + 1 else "0" for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("method,matrix,guard,check", [
    ("wold", _cycle, oracle.UNITARY_DIM_GUARD, "oracle_unitary_rank"),
    ("hw", _jordan, oracle.CHAIN_DIM_GUARD, "oracle_ranks"),
])
def test_cli_verify_runs_the_oracle_up_to_its_guard(tmp_path, capsys, method, matrix, guard, check):
    """verify reports the oracle check at the oracle's own size guard and not above it."""
    for dim, reported in ((guard, True), (guard + 1, False)):
        spec = _write(tmp_path, f"{method}{dim}.json", {"ring": {"kind": "rational"},
                                                        "operators": [{"matrix": matrix(dim)}]})
        assert main(["verify", spec, "--method", method, "--format", "json"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert (check in checks) is reported
        assert all(checks.values())


def test_cli_builtin_malformed_ring_is_exit_2(capsys):
    assert main(["verify", "--builtin", "cone", "--ring", "gfx", "--dim", "2"]) == 2
    assert "unknown ring 'gfx'" in capsys.readouterr().err


@pytest.mark.parametrize("ring,field", [
    ({"kind": "complex-float", "tolerance": "abc"}, "tolerance"),
    ({"kind": "complex-float", "tolerance": -1}, "tolerance"),
    ({"kind": "complex-float", "tolerance": [1e-6]}, "tolerance"),
    ({"kind": "gf", "p": "x", "dim": 2}, "p"),
    ({"kind": "gf", "p": 3, "dim": "two"}, "dim"),
    ({"kind": "gf", "p": 3.7, "dim": 2.9}, "p"),
    ({"kind": "gf", "p": True, "dim": 2}, "p"),
    ({"kind": "gf", "p": 3, "dim": 2.9}, "dim"),
    ({"kind": "gf", "p": 3, "dim": False}, "dim"),
])
def test_cli_bad_ring_field_is_exit_2(tmp_path, capsys, ring, field):
    """--tol replaces a complex ring's eps_eq, but the ring's own field must still parse."""
    spec = _write(tmp_path, "ring.json", {"ring": ring, "operators": [{"matrix": [[1, 0], [0, 1]]}]})
    for tol in ([], ["--tol", "1e-6"]):
        assert main(["decompose", spec, "--method", "wold", *tol]) == 2
        assert f"bad ring field {field!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["decompose", "SPEC", "--method", "wold", "--tol", "0"],
    ["decompose", "SPEC", "--method", "wold", "--tol", "-1"],
    ["decompose", "SPEC", "--method", "wold", "--tol", "nan"],
    ["decompose", "SPEC", "--method", "wold", "--nmax", "0"],
    ["classify", "SPEC", "--nmax", "-3"],
    ["verify", "SPEC", "--method", "wold", "--nmax", "0"],
    ["classify", "SPEC", "--truncation", "0"],
    ["classify", "SPEC", "--truncation", "-5"],
    ["decompose", "SPEC", "--method", "wold", "--truncation", "0"],
    ["decompose", "SPEC", "--method", "wold", "--truncation", "-5"],
    ["verify", "SPEC", "--method", "wold", "--truncation", "0"],
    ["verify", "SPEC", "--method", "wold", "--truncation", "-5"],
    ["verify", "--builtin", "cone", "--ring", "gf3", "--dim", "0"],
    ["verify", "--builtin", "axioms", "--ring", "gf3", "--dim", "0"],
    ["verify", "--builtin", "axioms", "--ring", "rational", "--dim", "0"],
    ["verify", "--builtin", "axioms", "--ring", "rational", "--dim", "-1"],
    ["verify", "--builtin", "axioms", "--ring", "complex", "--dim", "0"],
    ["verify", "--builtin", "axioms", "--ring", "complex", "--dim", "-1"],
])
def test_cli_non_positive_flag_is_exit_2(tmp_path, capsys, argv):
    spec = _write(tmp_path, "id.json", {"ring": {"kind": "rational"},
                                        "operators": [{"matrix": [["1", "0"], ["0", "1"]]}]})
    with pytest.raises(SystemExit) as exc:
        main([spec if a == "SPEC" else a for a in argv])
    assert exc.value.code == 2
    assert "must be positive" in capsys.readouterr().err


def test_cli_truncation_too_small_for_the_spec_is_exit_3(tmp_path, capsys):
    spec = _write(tmp_path, "trunc.json", {"ring": {"kind": "complex-float"},
                                           "operators": [{"expr": {"op": "trunc", "n": 3}}]})
    assert main(["decompose", spec, "--method", "hw", "--truncation", "4"]) == 3
    assert "n=4 < twice the largest finite segment" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["classify", "SPEC", "--truncation", "16"], "truncation 16 must exceed n_max 16"),
    (["decompose", "SPEC", "--method", "wold", "--truncation", "10"],
     "truncation 10 must exceed n_max 16"),
    (["verify", "SPEC", "--method", "wold", "--truncation", "8", "--nmax", "12"],
     "truncation 8 must exceed n_max 12"),
])
def test_cli_truncation_not_above_nmax_names_both_flags(tmp_path, capsys, argv, message):
    spec = _write(tmp_path, "shift.json", {"ring": {"kind": "complex-float"},
                                           "operators": [{"expr": {"op": "shift"}}]})
    assert main([spec if a == "SPEC" else a for a in argv]) == 3
    assert f"{message} (--truncation > --nmax)" in capsys.readouterr().err


def test_cli_non_numeric_flag_keeps_argparse_message(capsys):
    with pytest.raises(SystemExit):
        main(["decompose", "spec.json", "--method", "wold", "--nmax", "many"])
    assert "invalid int value: 'many'" in capsys.readouterr().err


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
    ({"kind": "complex-float", "tolerance": 1e-3}, 1e-6),  # --tol wins
])
def test_cli_tolerance_reaches_expr_only_spec(tmp_path, ring, tol):
    spec = _write(tmp_path, "expr.json", {
        "ring": ring,
        "operators": [{"expr": {"op": "direct-sum",
                                "terms": [_UNITARY_EXPR, {"op": "shift", "mult": 1}]}}],
    })
    ops, window = load_spec(spec, tol).realised(32, 16)
    assert ops[0].domain.tol.eps_eq == 1e-6
    assert window.domain.tol.eps_eq == 1e-6


def _swapped_pair_spec(tmp_path):
    """unitary(2) ⊕ Shift(1) and Shift(1) ⊕ unitary(2): equal dimensions,
    different probe windows."""
    shift = {"op": "shift", "mult": 1}
    return _write(tmp_path, "swapped.json", {
        "ring": {"kind": "complex-float"},
        "operators": [{"expr": {"op": "direct-sum", "terms": [_UNITARY_EXPR, shift]}},
                      {"expr": {"op": "direct-sum", "terms": [shift, _UNITARY_EXPR]}}],
        "pair": [0, 1],
    })


def test_cli_single_method_runs_with_its_operands_window(tmp_path, capsys):
    spec = _swapped_pair_spec(tmp_path)
    assert main(["decompose", spec, "--method", "wold", "--truncation", "24", "--nmax", "4",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["ranks"] == {"u": 2, "s": 24}


def test_cli_pair_with_different_windows_is_exit_3(tmp_path, capsys):
    spec = _swapped_pair_spec(tmp_path)
    assert main(["decompose", spec, "--method", "slocinski", "--truncation", "24",
                 "--nmax", "4"]) == 3
    assert "operators 0 and 1 have different probe windows" in capsys.readouterr().err
