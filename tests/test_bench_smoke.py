"""The benchmark harness still runs and gates its answers: one round of the
shift-model workload, untraced."""

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
