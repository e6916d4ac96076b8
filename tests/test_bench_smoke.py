"""The benchmark harness still runs and gates its answers: one round of the
shift-model workload, untraced, and every layer the traced run wraps still
exists."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_shift_model_round_is_correct():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "shift-model", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True


def test_tracer_targets_exist():
    """`--trace 1` wraps each TARGETS entry via owner.__dict__[attr]; a renamed
    or deleted layer function would make it fail."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from tracer import TARGETS
    finally:
        sys.path.remove(str(ROOT / "bench"))
    for layer, module_name, path in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(owner.__dict__.get(attr)), f"{layer}: {module_name}.{path} is missing"
