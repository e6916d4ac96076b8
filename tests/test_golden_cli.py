"""Golden `stardec` outputs: stdout, stderr and exit code of fixed commands.

Every command runs in-process through ``cli.main(argv)``.  Exact and GF
commands are compared byte for byte (long outputs through a sha256 of the
exact bytes).  A complex-float command's stdout is compared through a
sha256 of its text with every number rounded to 1e-9 absolute and -0
folded to 0, so that last-bit float noise does not count; its stderr and
exit code are still compared exactly.

To record the fixture again after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden_cli.py`` from the repository root
and review the diff of ``tests/golden_cli.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from stardecomp import cli

ROOT = Path(__file__).resolve().parents[1]
SPECS = ROOT / "bench" / "specs"
FIXTURE = Path(__file__).with_name("golden_cli.json")
INLINE_LIMIT = 2000  # longer exact outputs are stored as a sha256 of their bytes
COLUMNS = "80"  # argparse wraps its usage text to the terminal width

# the cli-cold benchmark workload's commands; {s} is the spec directory
CLI_COLD = (
    "decompose {s}/contraction6.json --method nfl --format json",
    "decompose {s}/contraction8.json --method nfl",
    "verify {s}/contraction8.json --method nfl --format json",
    "decompose {s}/ppi5.json --method hw --format json",
    "verify {s}/ppi6.json --method hw --format json",
    "decompose {s}/orthpair4.json --method slocinski --format json",
    "decompose {s}/orthpair4.json --method weak-bishift",
    "verify {s}/orthpair4.json --method slocinski --format json",
    "decompose {s}/orthpair4.json --method pd --format json",
    "decompose {s}/ppipair4.json --method hw-pair-product --format json",
    "decompose {s}/ppipair4.json --method largest-ppi --format json",
    "decompose {s}/wold64.json --method wold --truncation 64",
    "decompose {s}/wold64.json --method wold --truncation 64 --format json",
    "verify {s}/wold64.json --method wold --truncation 64 --format json",
    "decompose {s}/hw64.json --method hw --truncation 64 --format json",
    "decompose {s}/hw64.json --method hw --truncation 64",
    "decompose {s}/mixedpair.json --method slocinski --truncation 32 --format json",
    "decompose {s}/mixedpair.json --method weak-bishift --truncation 32 --format json",
    "verify --builtin remark1 --format json",
    "verify --builtin remark1",
    "verify --builtin cone --ring gf3 --dim 2 --format json",
    "verify --builtin axioms --ring gf3 --dim 2 --format json",
    "verify --builtin cone --ring gf7 --dim 2 --format json",
    "verify --builtin axioms --ring gf7 --dim 2 --format json",
    "verify --builtin axioms --ring gf7 --dim 2",
    "decompose {s}/gf7_identity.json --method nfl",
)

EXTRA = (
    "classify {s}/contraction6.json",
    "classify {s}/ppi5.json --format json",
    "classify {s}/orthpair4.json",
    "classify {s}/ppipair4.json --format json",
    "classify {s}/gf7_identity.json",
    "classify {s}/wold64.json --truncation 32",
    "classify {s}/hw64.json --truncation 16 --format json",
    "decompose {s}/wold64.json --method wold --truncation 32 --tol 1e-6 --format json",
    "decompose {s}/mixedpair.json --method slocinski --truncation 32 --tol 1e-6",
    "decompose {s}/gf7_identity.json --method wold",
    "decompose {s}/gf7_identity.json --method hw --format json",
    "verify {s}/gf7_identity.json --method wold",
    "verify {s}/gf7_identity.json --method hw --format json",
    "decompose {s}/ppi6.json --method hw",
    "decompose {s}/orthpair4.json --method wold --format json",
    "decompose {s}/orthpair4.json --method nfl-pair --format json",
    "decompose {s}/orthpair4.json --method hw-pair-doubly",
    "decompose {s}/orthpair4.json --method hw-pair-product",
    "decompose {s}/orthpair4.json --method largest-ppi --format json",
    "decompose {s}/ppipair4.json --method hw-pair-doubly --format json",
    "decompose {s}/ppipair4.json --method pd --format json",
    "decompose {s}/ppipair4.json --method hw-pair-product",
    "verify {s}/ppipair4.json --method hw-pair-product --format json",
    "verify {s}/orthpair4.json --method weak-bishift",
    "verify {s}/ppi5.json --method hw",
    "decompose {s}/hw64.json --method nfl --truncation 32 --format json",
    "verify {s}/hw64.json --method hw --truncation 32",
    "decompose {s}/mixedpair.json --method hw-pair-product --truncation 32 --format json",
    "decompose {s}/mixedpair.json --method largest-ppi --truncation 32 --format json",
    "decompose {s}/mixedpair.json --method pd --truncation 32 --format json",
    "decompose {s}/mixedpair.json --method nfl-pair --truncation 32",
    "verify {s}/mixedpair.json --method weak-bishift --truncation 32",
) + tuple(
    f"verify --builtin {builtin} --ring gf{p} --dim {dim}{fmt}"
    for builtin in ("cone", "axioms")
    for p in (2, 3, 5, 7)
    for dim in (1, 2, 3)
    for fmt in ("", " --format json")
)

# inputs the CLI must refuse; the spec files below are written to the cwd
BAD_SPECS = {
    "bad_scalar.json": {"ring": {"kind": "rational"},
                        "operators": [{"matrix": [["1", "nope"], ["0", "1"]]}]},
    "no_pair.json": {"ring": {"kind": "rational"},
                     "operators": [{"matrix": [["1", "0"], ["0", "1"]]}]},
    "bad_tol.json": {"ring": {"kind": "complex-float", "tolerance": "abc"},
                     "operators": [{"matrix": [[1, 0], [0, 1]]}]},
    "neg_tol.json": {"ring": {"kind": "complex-float", "tolerance": -1},
                     "operators": [{"matrix": [[1, 0], [0, 1]]}]},
    "bad_p.json": {"ring": {"kind": "gf", "p": "x", "dim": 2},
                   "operators": [{"matrix": [[1, 0], [0, 1]]}]},
    "bad_dim.json": {"ring": {"kind": "gf", "p": 3, "dim": "two"},
                     "operators": [{"matrix": [[1, 0], [0, 1]]}]},
    "rational_expr.json": {"ring": {"kind": "rational"},
                           "operators": [{"expr": {"op": "shift", "mult": 1}}]},
    "frac_mult.json": {"ring": {"kind": "complex-float"},
                       "operators": [{"expr": {"op": "shift", "mult": 1.9}}]},
    "bool_axis.json": {"ring": {"kind": "complex-float"},
                       "operators": [{"expr": {"op": "grid-shift", "axis": True}}]},
    "gf3.json": {"ring": {"kind": "gf", "p": 3, "dim": 2},
                 "operators": [{"matrix": [[1, 0], [0, 2]]}]},
    "gf5.json": {"ring": {"kind": "gf", "p": 5, "dim": 2},
                 "operators": [{"matrix": [[1, 0], [0, 1]]}]},
    "half.json": {"ring": {"kind": "rational"},
                  "operators": [{"matrix": [["1/2", "0"], ["0", "2"]]}]},
    "noncommuting.json": {"ring": {"kind": "rational"},
                          "operators": [{"matrix": [["0", "1"], ["1", "0"]]},
                                        {"matrix": [["1", "0"], ["0", "-1"]]}],
                          "pair": [0, 1]},
    "jordan_pair.json": {"ring": {"kind": "rational"},
                         "operators": [{"matrix": [["0", "0", "0"], ["1", "0", "0"],
                                                   ["0", "1", "0"]]},
                                       {"matrix": [["0", "1", "0"], ["0", "0", "1"],
                                                   ["0", "0", "0"]]}],
                         "pair": [0, 1]},
}

BAD = (
    "classify bad_scalar.json",
    "decompose no_pair.json --method slocinski",
    "decompose bad_tol.json --method wold",
    "decompose bad_tol.json --method wold --tol 1e-6",
    "decompose neg_tol.json --method wold",
    "decompose bad_p.json --method wold",
    "decompose bad_dim.json --method wold",
    "decompose rational_expr.json --method wold",
    "decompose frac_mult.json --method wold --truncation 20",
    "decompose bool_axis.json --method wold --truncation 20",
    "decompose missing.json --method wold",
    "decompose no_pair.json --method wold --tol 0",
    "decompose no_pair.json --method wold --tol -1",
    "decompose no_pair.json --method wold --tol nan",
    "decompose no_pair.json --method wold --nmax 0",
    "classify no_pair.json --nmax -3",
    "verify no_pair.json --method wold --nmax 0",
    "decompose no_pair.json --method wold --nmax many",
    "decompose no_pair.json --method cholesky",
    "verify",
    "verify no_pair.json",
    "verify --builtin cone --ring gfx --dim 2",
    "verify --builtin cone --ring gf3 --dim 0",
    "verify --builtin axioms --ring gf3 --dim 0",
    "verify --builtin axioms --ring rational --dim 0",
    "verify --builtin axioms --ring rational --dim -1",
    "verify --builtin axioms --ring complex --dim 0",
    "verify --builtin axioms --ring complex --dim -1",
    "decompose gf3.json --method nfl",
    "decompose gf5.json --method wold",
    "decompose half.json --method wold",
    "decompose half.json --method hw",
    "decompose noncommuting.json --method slocinski",
    "decompose jordan_pair.json --method hw-pair-product",
    "decompose {s}/hw64.json --method hw --truncation 4",
    "decompose {s}/wold64.json --method wold",
)

COMMANDS = tuple(dict.fromkeys(CLI_COLD + EXTRA + BAD))  # EXTRA repeats some builtins

_NUMBER = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


def _rounded(match) -> str:
    return f"{round(float(match.group()), 9) + 0.0:.9f}"  # + 0.0 folds -0.0


def _is_complex(argv: list[str]) -> bool:
    for arg in argv:
        if arg.endswith(".json") and Path(arg).is_file():
            return json.loads(Path(arg).read_text())["ring"]["kind"] == "complex-float"
    return False


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _argv(command: str) -> list[str]:
    return command.format(s=SPECS).split()


def _observe(argv: list[str], code: int, out: str, err: str) -> dict:
    """The recorded form of one command's outcome."""
    err = err.replace(str(SPECS), "{s}")
    if _is_complex(argv):
        return {"exit": code, "stderr": err,
                "stdout_sha256": _sha256(_NUMBER.sub(_rounded, out))}
    if len(out) > INLINE_LIMIT:
        return {"exit": code, "stderr": err, "stdout_sha256": _sha256(out)}
    return {"exit": code, "stderr": err, "stdout": out}


def _main(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def _write_bad_specs(directory: Path):
    for name, payload in BAD_SPECS.items():
        (directory / name).write_text(json.dumps(payload))


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_golden_cli(command, golden, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    _write_bad_specs(tmp_path)
    argv = _argv(command)
    code = _main(argv)
    captured = capsys.readouterr()
    assert _observe(argv, code, captured.out, captured.err) == golden[command]


def record():
    """Run every command and rewrite the fixture."""
    out = {}
    os.environ["COLUMNS"] = COLUMNS
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            _write_bad_specs(Path(tmp))
            for command in COMMANDS:
                argv = _argv(command)
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = _main(argv)
                out[command] = _observe(argv, code, stdout.getvalue(), stderr.getvalue())
        finally:
            os.chdir(cwd)
    FIXTURE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
