"""The cold path, in fresh interpreters: what each command imports, the BLAS
thread default, and golden outputs from `python -m stardecomp.cli`.

In-process tests share one interpreter, so a command that forgot an import
can pass there only because an earlier test loaded the module; these run
each command in a new process instead.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from test_golden_cli import COLUMNS, FIXTURE, ROOT, SPECS, _argv, _observe, _write_bad_specs

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# runs one command through cli.main, then prints its exit code, the loaded
# modules and the BLAS variables as the last line
PROBE = """
import json, os, sys
{before}
from stardecomp.cli import main
code = main(sys.argv[1:])
print(json.dumps({{"exit": code, "modules": sorted(sys.modules),
                  "blas": [os.environ.get(v) for v in {blas!r}]}}))
"""


def _env(**extra) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["COLUMNS"] = COLUMNS
    env.update(extra)
    return env


def _probe(argv: list[str], before: str = "", **env) -> dict:
    code = PROBE.format(before=before, blas=BLAS_VARS)
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT, env=_env(**env),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded(modules: list[str], *names: str) -> list[str]:
    return [name for name in names if name in modules]


def test_import_cli_loads_no_numpy_and_no_engine():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, stardecomp.cli; print(' '.join(sys.modules))"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60, check=True)
    modules = proc.stdout.split()
    assert not _loaded(modules, "numpy", "stardecomp.engine", "stardecomp.shiftmodel",
                       "stardecomp.oracle", "stardecomp.fixtures")


@pytest.mark.parametrize("builtin", ["cone", "axioms"])
def test_gf_builtin_loads_no_numpy(builtin):
    result = _probe(["verify", "--builtin", builtin, "--ring", "gf7", "--dim", "2"])
    assert result["exit"] == 0
    assert "stardecomp.exactrings" in result["modules"]
    assert not _loaded(result["modules"], "numpy")


def test_rational_decompose_loads_no_shift_model_or_oracle():
    result = _probe(["decompose", str(SPECS / "ppi5.json"), "--method", "hw"])
    assert result["exit"] == 0
    assert "stardecomp.engine" in result["modules"]
    assert not _loaded(result["modules"], "stardecomp.shiftmodel", "stardecomp.oracle",
                       "stardecomp.fixtures")


@pytest.mark.parametrize("spec,method", [("wold64.json", "wold"), ("hw64.json", "hw"),
                                         ("mixedpair.json", "slocinski"),
                                         ("mixedpair.json", "weak-bishift")])
def test_complex_decompose_loads_no_numpy_ma(spec, method):
    # numpy.ma costs a cold command about 12 ms; some numpy functions
    # (np.unique and np.intersect1d among them) import it on their first
    # call, so the coordinate masks use neither
    result = _probe(["decompose", str(SPECS / spec), "--method", method, "--truncation", "32"])
    assert result["exit"] == 0
    assert "stardecomp.engine" in result["modules"]
    assert not _loaded(result["modules"], "numpy.ma")


GF_CONE = ["verify", "--builtin", "cone", "--ring", "gf3"]


def test_blas_defaults_to_one_thread():
    assert _probe(GF_CONE)["blas"] == ["1", "1", "1"]


def test_blas_thread_count_set_by_the_caller_wins():
    assert _probe(GF_CONE, OPENBLAS_NUM_THREADS="3")["blas"] == ["3", "1", "1"]


def test_blas_untouched_once_numpy_is_loaded():
    assert _probe(GF_CONE, before="import numpy")["blas"] == [None, None, None]


COLD_GOLDEN = (
    "decompose {s}/ppi5.json --method hw --format json",
    "decompose {s}/wold64.json --method wold --truncation 64",
    "verify {s}/ppi6.json --method hw --format json",
    "verify --builtin cone --ring gf7 --dim 2 --format json",
    "verify --builtin axioms --ring gf7 --dim 2",
    "verify --builtin remark1",
    "decompose {s}/gf7_identity.json --method nfl",
    "decompose no_pair.json --method slocinski",
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("command", COLD_GOLDEN)
def test_cold_cli_matches_golden(command, golden, tmp_path):
    _write_bad_specs(tmp_path)
    argv = _argv(command)
    proc = subprocess.run([sys.executable, "-m", "stardecomp.cli", *argv], cwd=tmp_path,
                          env=_env(), capture_output=True, text=True, timeout=120)
    assert _observe(argv, proc.returncode, proc.stdout, proc.stderr) == golden[command]


@pytest.mark.parametrize("command", [
    "decompose {s}/wold64.json --method wold --truncation 32 --format json",
    "verify --builtin remark1",
])
def test_closed_stdout_exits_141_without_traceback(command):
    # the pipe's reading end is closed before the child writes, so every
    # write fails with EPIPE, whatever the output's size
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "stardecomp.cli", *_argv(command)],
                              cwd=ROOT, env=_env(), stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""
