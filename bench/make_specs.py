"""Write the spec files of the cli-cold workload into bench/specs/.

    PYTHONPATH=src python3 bench/make_specs.py

The rational operators are drawn from stardecomp.fixtures with a fixed
seed; the complex operators are constructor expressions; the GF spec is the
identity of M_2(F_7), which the NFL axiom gate must refuse.  The files are
committed, so this only needs re-running to change the workload.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from stardecomp import fixtures
from stardecomp.serialize import matrix_to_json

SPEC_SEED = 2019
SPECS = Path(__file__).resolve().parent / "specs"


def _rational(*ops, pair=False) -> dict:
    spec = {"ring": {"kind": "rational"}, "operators": [{"matrix": matrix_to_json(x)} for x in ops]}
    if pair:
        spec["pair"] = [0, 1]
    return spec


def _unitary(rows) -> dict:
    return {"op": "unitary", "rows": rows}


def specs() -> dict:
    rng = np.random.default_rng(SPEC_SEED)
    x4 = fixtures.random_ppi(4, rng, unitary_rank=2)
    shift = {"op": "shift", "mult": 1}
    return {
        "contraction6.json": _rational(fixtures.random_contraction(6, rng, unitary_rank=3)),
        "contraction8.json": _rational(fixtures.random_contraction(8, rng, unitary_rank=0)),
        "ppi5.json": _rational(fixtures.random_ppi(5, rng, unitary_rank=2)),
        "ppi6.json": _rational(fixtures.random_ppi(6, rng, unitary_rank=3)),
        "orthpair4.json": _rational(*fixtures.commuting_orthogonal_pair(4, rng), pair=True),
        "ppipair4.json": _rational(x4, x4.power(2), pair=True),
        "wold64.json": {"ring": {"kind": "complex-float"}, "operators": [{"expr": {
            "op": "direct-sum",
            "terms": [_unitary([["0.6+0.8 i", "0"], ["0", "-1"]]), shift]}}]},
        "hw64.json": {"ring": {"kind": "complex-float"}, "operators": [{"expr": {
            "op": "direct-sum",
            "terms": [_unitary([["0+1 i"]]), {"op": "adjoint", "inner": shift},
                      {"op": "trunc", "n": 3}]}}]},
        "mixedpair.json": {"ring": {"kind": "complex-float"}, "pair": [0, 1], "operators": [
            {"expr": {"op": "direct-sum",
                      "terms": [_unitary([["0.6+0.8 i", "0"], ["0", "-1"]]), shift]}},
            {"expr": {"op": "direct-sum",
                      "terms": [_unitary([["0+1 i", "0"], ["0", "0.8+0.6 i"]]), shift]}}]},
        "gf7_identity.json": {"ring": {"kind": "gf", "p": 7, "dim": 2},
                              "operators": [{"matrix": [[1, 0], [0, 1]]}]},
    }


def main():
    SPECS.mkdir(exist_ok=True)
    for name, spec in specs().items():
        (SPECS / name).write_text(json.dumps(spec, indent=1) + "\n")


if __name__ == "__main__":
    main()
