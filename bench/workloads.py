"""The benchmark's two workloads: seeded inputs, one timed call per
instance, and the per-instance correctness gate.

A workload builds one *round*: a fixed multiset of instances whose kinds
and sizes do not depend on the seed.  The seed draws the matrices (random
unitaries, rational contractions, power partial isometries, orthogonal
pairs) and the order of the round.  Runs repeat whole rounds, so every run
sees the same mix and every percentile falls on the same kind of instance.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from stardecomp import engine, fixtures, oracle, serialize, shiftmodel
from stardecomp.domains import RATIONAL
from stardecomp.engine import DecompositionReport, EngineConfig
from stardecomp.errors import SpecFileError
from stardecomp.elements import Element
from stardecomp.projections import Projection, ProjectionBasis, from_element
from stardecomp.subspaces import proj_matrix

WINDOW_TOL = 1e-8  # acceptance criterion 2: agreement with ground truth on the window
CLI_TIMEOUT_S = 60.0


@dataclasses.dataclass
class Case:
    """One library instance: an engine method, its inputs and its gate."""

    label: str  # the kind of instance; the same on every seed
    method: str  # attribute of stardecomp.engine, looked up at call time
    inputs: tuple
    cfg: EngineConfig
    gate: Callable[["Case", Any], bool]
    meta: dict = dataclasses.field(default_factory=dict)  # what the gate needs


@dataclasses.dataclass
class Invocation:
    """One cold `stardec` command and its gate on (exit code, stdout, stderr)."""

    label: str
    argv: tuple
    gate: Callable[["CliCold", "Invocation", tuple], bool]
    meta: dict = dataclasses.field(default_factory=dict)


# ---------------------------------------------------------------- gates


def _certified(case: Case, rep) -> bool:
    """Every certificate within the domain tolerance; exactly 0 if exact."""
    x = case.inputs[0]
    if x.domain.exact:
        return all(v == 0.0 for v in rep.certificates.values())
    return rep.max_residual() <= x.domain.tol.eps_eq * x.dim


def _window_close(case: Case, got: Projection, want: Projection) -> bool:
    w = case.meta["window"].element.mat
    return float(np.linalg.norm(w @ (got.element.mat - want.element.mat) @ w)) <= WINDOW_TOL


def _memo(case: Case, key: str, compute):
    if key not in case.meta:
        case.meta[key] = compute()
    return case.meta[key]


def _truth_wold(case: Case):
    return _memo(case, "truth_wold",
                 lambda: shiftmodel.ground_truth_wold(case.meta["expr"], case.meta["n"]))


def _oracle_unitary(case: Case) -> np.ndarray:
    """Oracle projection onto the unitary part of the first input (exact)."""
    return _memo(case, "oracle_u",
                 lambda: proj_matrix(RATIONAL, oracle.brute_unitary_part(case.inputs[0])))


def _unanimous(rep) -> bool:
    return rep.condition_vector is not None and len(set(rep.condition_vector)) == 1


def gate_wold(case, rep) -> bool:
    truth = _truth_wold(case).projections
    return (_certified(case, rep) and _window_close(case, rep.basis["u"], truth["u"])
            and _window_close(case, rep.basis["s"], truth["s"]))


def gate_hw_float(case, rep) -> bool:
    # truncation turns backward and forward shift tails into truncated
    # shifts, so only the unitary part is compared with the ground truth
    truth = _memo(case, "truth_hw",
                  lambda: shiftmodel.ground_truth_hw(case.meta["expr"], case.meta["n"]))
    return _certified(case, rep) and _window_close(case, rep.basis["u"], truth.projections["u"])


def gate_slocinski(case, rep) -> bool:
    if not _unanimous(rep):
        return False
    if case.inputs[0].domain.exact:  # commuting orthogonal pairs: everything is uu
        return (bool(rep.holds) and _certified(case, rep)
                and rep.basis["uu"].rank == case.inputs[0].dim)
    return not rep.holds or _certified(case, rep)


def gate_weak_bishift(case, rep) -> bool:
    if not _certified(case, rep):
        return False
    if case.inputs[0].domain.exact:
        return rep.basis["uu"].rank == case.inputs[0].dim
    return _window_close(case, rep.basis["uu"], _truth_wold(case).projections["u"])


def gate_nfl(case, rep) -> bool:
    if not _certified(case, rep):
        return False
    # the oracle's subspace is the largest reducing one on which x is
    # unitary, so equality also means the c-corner has no unitary part
    return np.array_equal(rep.basis["u"].element.mat, _oracle_unitary(case))


def gate_hw_exact(case, rep) -> bool:
    chains = _memo(case, "chains", lambda: oracle.brute_hw_classify(case.inputs[0]))
    return (_certified(case, rep)
            and np.array_equal(rep.basis["u"].element.mat, _oracle_unitary(case))
            and rep.basis["t"].rank == chains.t_rank
            and rep.basis["s"].rank == 0 and rep.basis["b"].rank == 0)


def gate_hw_pair_product(case, rep) -> bool:
    # for x and a power of x the pair's unitary corner is x's unitary part
    return (_certified(case, rep) and rep.basis.verify()
            and np.array_equal(rep.basis["u"].element.mat, _oracle_unitary(case))
            and rep.basis["is"].rank == 0 and rep.basis["cis"].rank == 0)


def gate_full_reducing(case, p) -> bool:
    """Commuting orthogonal pairs doubly commute, and a PPI times its square
    is a PPI, so both largest-projection constructions return the identity."""
    return (isinstance(p, Projection) and p.rank == case.inputs[0].dim
            and all((p.element @ x).equals(x @ p.element) for x in case.inputs))


def corrupt(out):
    """A deliberately wrong answer of the same shape, for the self-check."""
    if isinstance(out, tuple):
        return _corrupt_cli(*out)
    if isinstance(out, Projection):
        return out.complement()
    if out.condition_vector is not None:
        vec = out.condition_vector
        return dataclasses.replace(out, condition_vector=(not vec[0],) + tuple(vec[1:]))
    members = list(out.basis.members)
    (l0, p0), (l1, p1) = members[0], members[-1]
    members[0], members[-1] = (l0, p1), (l1, p0)
    return dataclasses.replace(out, basis=ProjectionBasis(tuple(members)))


_FLIPS = (("yes", "no"), ("no", "yes"), ("True", "False"), ("False", "True"))


def _corrupt_cli(code: int, stdout: str, stderr: str) -> tuple:
    """Change the answer a cold command printed, keeping its format."""
    if code != 0:
        return 0, stdout, stderr
    try:
        payload = json.loads(stdout)
    except ValueError:
        lines = stdout.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("block "):
                lines[i] = re.sub(r"rank (\d+)", lambda m: f"rank {int(m.group(1)) + 1}", line)
                return code, "\n".join(lines), stderr
        old, new = min((f for f in _FLIPS if f[0] in stdout), key=lambda f: stdout.index(f[0]))
        return code, stdout.replace(old, new, 1), stderr
    if "condition_vector" in payload:
        payload["condition_vector"][0] = not payload["condition_vector"][0]
    elif "projections" in payload:
        first, last = payload["labels"][0], payload["labels"][-1]
        proj = payload["projections"]
        proj[first], proj[last] = proj[last], proj[first]
    elif "rank" in payload:
        payload["rank"] += 1
    elif "pass" in payload:
        payload["pass"] = False
    elif "cone_size" in payload:
        payload["cone_size"] += 1
    else:
        key = "smooth" if "smooth" in payload else "proj_leq"
        payload[key] = not payload[key]
    return code, json.dumps(payload), stderr


# ------------------------------------------------------ library workloads


class Workload:
    """A seeded round of instances, run by one caller in a closed loop."""

    name = ""

    def __init__(self, root: Path, seed: int, child_env: dict):
        self.root = root
        self.seed = seed
        self.env = child_env  # environment for child processes
        self.round: list = []

    def setup(self):
        raise NotImplementedError

    def execute(self, item) -> tuple:
        """Run one instance; returns (seconds, answer)."""
        raise NotImplementedError

    def check(self, item, out) -> bool:
        raise NotImplementedError


class LibraryWorkload(Workload):
    """In-process engine calls."""

    def cases(self, rng) -> list:
        raise NotImplementedError

    def setup(self):
        """Seeded input generation plus one untimed instance per method."""
        rng = np.random.default_rng(self.seed)
        cases = self.cases(rng)
        first = {}
        for case in cases:  # each method's first case is its smallest
            first.setdefault(case.method, case)
        for case in first.values():
            self.execute(case)
        self.round = [cases[i] for i in rng.permutation(len(cases))]

    def execute(self, case: Case):
        """Time one engine call on fresh copies of the inputs."""
        inputs = tuple(Element(x.domain, x.mat.copy()) for x in case.inputs)
        fn = getattr(engine, case.method)
        t0 = time.perf_counter()
        out = fn(*inputs, case.cfg)
        return time.perf_counter() - t0, out

    def check(self, case: Case, out) -> bool:
        return case.gate(case, out)


def _truncated(label, method, exprs, n, n_max, gate) -> Case:
    trs = [shiftmodel.truncate(e, n, n_max=n_max) for e in exprs]
    window = trs[0].window
    return Case(label, method, tuple(t.element for t in trs),
                EngineConfig(n_max=n_max, window=window), gate,
                {"expr": exprs[0], "n": n, "window": window})


class ShiftModel(LibraryWorkload):
    """Complex truncations of constructor operators (chain layer, SVD)."""

    name = "shift-model"
    # (N, shift multiplicity, unitary block size, count); smallest first.
    # wold N=128 forms the p90 and hw N=64 the median, on every seed.
    WOLD = ((64, 1, 2, 2), (64, 2, 3, 3), (96, 1, 3, 3), (128, 1, 3, 4))
    HW = ((48, 1, 2), (64, 2, 5))  # (N, unitary block size, count)
    PAIRS = (("unitary-pair", 32), ("equal-shift", 32), ("powers", 32), ("mixed", 32),
             ("grid", 8), ("grid", 10))
    WEAK_PAIRS = PAIRS[1:]

    def cases(self, rng) -> list:
        out = []
        for n, mult, udim, count in self.WOLD:
            for _ in range(count):
                u = fixtures.random_complex_unitary(udim, rng)
                expr = shiftmodel.direct_sum(shiftmodel.unitary(u.mat), shiftmodel.Shift(mult))
                out.append(_truncated(f"wold N={n} mult={mult}", "wold", [expr], n, 16, gate_wold))
        for n, udim, count in self.HW:
            for _ in range(count):
                u = fixtures.random_complex_unitary(udim, rng)
                expr = shiftmodel.direct_sum(shiftmodel.unitary(u.mat),
                                             shiftmodel.Adjoint(shiftmodel.Shift(1)),
                                             shiftmodel.Trunc(4))
                out.append(_truncated(f"hw N={n}", "halmos_wallen", [expr], n, 16, gate_hw_float))
        for method, gate, pairs in (("slocinski", gate_slocinski, self.PAIRS),
                                    ("weak_bishift", gate_weak_bishift, self.WEAK_PAIRS)):
            for name, n in pairs:
                n_max = 4 if name == "grid" else 6
                out.append(_truncated(f"{method} {name} n={n}", method,
                                      list(shiftmodel.pair_instances(name)), n, n_max, gate))
        return out


# ------------------------------------------------------------- cli-cold


def gf_cone_facts(p: int, dim: int) -> dict:
    """Cone size, square count and order axioms of M_dim(F_p), enumerated
    here with numpy, independently of stardecomp.exactrings."""
    d2 = dim * dim
    xs = np.array(list(itertools.product(range(p), repeat=d2)), dtype=np.int64)
    xs = xs.reshape(-1, dim, dim)
    squares = np.unique((np.einsum("nki,nkj->nij", xs, xs) % p).reshape(-1, d2), axis=0)
    cone = squares
    while True:
        sums = (cone[:, None, :] + squares[None, :, :]).reshape(-1, d2) % p
        grown = np.unique(np.concatenate([cone, sums]), axis=0)
        if len(grown) == len(cone):
            break
        cone = grown
    members = {tuple(r) for r in cone.tolist()}
    negatives = {tuple((-v) % p for v in r) for r in members if any(r)}
    return {"cone_size": len(members), "square_count": len(squares),
            "antisymmetric": not (negatives & members), "smooth": len(members) == len(squares)}


class CliCold(Workload):
    """Fixed `stardec` commands, each in a fresh interpreter, one at a time."""

    name = "cli-cold"
    SPECS = "bench/specs"
    # (label, argv); spec paths are relative to the checkout root
    COMMANDS = (
        ("rational nfl json", "decompose {s}/contraction6.json --method nfl --format json"),
        ("rational nfl text", "decompose {s}/contraction8.json --method nfl"),
        ("rational verify nfl", "verify {s}/contraction8.json --method nfl --format json"),
        ("rational hw json", "decompose {s}/ppi5.json --method hw --format json"),
        ("rational verify hw", "verify {s}/ppi6.json --method hw --format json"),
        ("rational slocinski json", "decompose {s}/orthpair4.json --method slocinski --format json"),
        ("rational weak-bishift text", "decompose {s}/orthpair4.json --method weak-bishift"),
        ("rational verify slocinski", "verify {s}/orthpair4.json --method slocinski --format json"),
        ("rational pd json", "decompose {s}/orthpair4.json --method pd --format json"),
        ("rational hw-pair-product json",
         "decompose {s}/ppipair4.json --method hw-pair-product --format json"),
        ("rational largest-ppi json",
         "decompose {s}/ppipair4.json --method largest-ppi --format json"),
        ("complex wold text", "decompose {s}/wold64.json --method wold --truncation 64"),
        ("complex wold json",
         "decompose {s}/wold64.json --method wold --truncation 64 --format json"),
        ("complex verify wold",
         "verify {s}/wold64.json --method wold --truncation 64 --format json"),
        ("complex hw json", "decompose {s}/hw64.json --method hw --truncation 64 --format json"),
        ("complex hw text", "decompose {s}/hw64.json --method hw --truncation 64"),
        ("complex slocinski json",
         "decompose {s}/mixedpair.json --method slocinski --truncation 32 --format json"),
        ("complex weak-bishift json",
         "decompose {s}/mixedpair.json --method weak-bishift --truncation 32 --format json"),
        ("gf3 remark1 json", "verify --builtin remark1 --format json"),
        ("gf3 remark1 text", "verify --builtin remark1"),
        ("gf3 cone json", "verify --builtin cone --ring gf3 --dim 2 --format json"),
        ("gf3 axioms json", "verify --builtin axioms --ring gf3 --dim 2 --format json"),
        ("gf7 cone json", "verify --builtin cone --ring gf7 --dim 2 --format json"),
        ("gf7 axioms json", "verify --builtin axioms --ring gf7 --dim 2 --format json"),
        ("gf7 axioms text", "verify --builtin axioms --ring gf7 --dim 2"),
        ("gf7 nfl gate", "decompose {s}/gf7_identity.json --method nfl"),
    )
    ENGINE_NAMES = {"wold": "wold", "hw": "halmos_wallen", "nfl": "nfl", "slocinski": "slocinski",
                    "weak-bishift": "weak_bishift", "hw-pair-product": "hw_pair_product",
                    "pd": "largest_doubly_commuting", "largest-ppi": "largest_product_ppi"}

    def __init__(self, root: Path, seed: int, child_env: dict):
        super().__init__(root, seed, child_env)
        self.command = (sys.executable, "-m", "stardecomp.cli")
        self._facts = {}

    def setup(self):
        """Resolve the command list in a seeded order; no warm-up, on purpose."""
        invocations = []
        for label, text in self.COMMANDS:
            argv = tuple(text.format(s=self.SPECS).split())
            for path in argv:
                if path.endswith(".json") and not (self.root / path).is_file():
                    raise SpecFileError(f"missing benchmark spec {path}")
            invocations.append(Invocation(label, argv, _cli_gate))
        rng = np.random.default_rng(self.seed)
        self.round = [invocations[i] for i in rng.permutation(len(invocations))]

    def execute(self, inv: Invocation, prefix: tuple = ()):
        """Time one command from spawn to exit; `prefix` replaces the program."""
        argv = [*(prefix or self.command), *inv.argv]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        return time.perf_counter() - t0, (proc.returncode, proc.stdout, proc.stderr)

    def check(self, inv: Invocation, out) -> bool:
        return inv.gate(self, inv, out)

    # expectations, computed in this process after the timed call

    def facts(self, p: int, dim: int) -> dict:
        if (p, dim) not in self._facts:
            self._facts[(p, dim)] = gf_cone_facts(p, dim)
        return self._facts[(p, dim)]

    def reference_case(self, inv: Invocation) -> Case:
        """The library Case for a spec-file command, built from the same file."""
        if "case" in inv.meta:
            return inv.meta["case"]
        args = list(inv.argv)
        method = args[args.index("--method") + 1]
        truncation = int(args[args.index("--truncation") + 1]) if "--truncation" in args else None
        spec = serialize.load_spec(str(self.root / args[1]))
        ops, window = spec.realised(truncation, 16)
        inputs = (ops[0],) if spec.pair is None else (ops[spec.pair[0]], ops[spec.pair[1]])
        fn_name = self.ENGINE_NAMES[method]
        exact = spec.domain.exact
        gate = {"wold": gate_wold, "halmos_wallen": gate_hw_exact if exact else gate_hw_float,
                "nfl": gate_nfl, "slocinski": gate_slocinski, "weak_bishift": gate_weak_bishift,
                "hw_pair_product": gate_hw_pair_product,
                "largest_doubly_commuting": gate_full_reducing,
                "largest_product_ppi": gate_full_reducing}[fn_name]
        meta = {}
        if not exact:
            first = spec.operators[0 if spec.pair is None else spec.pair[0]]
            meta = {"expr": first, "n": truncation, "window": window}
        case = Case(inv.label, fn_name, inputs, EngineConfig(n_max=16, window=window), gate, meta)
        inv.meta["case"] = case
        return case

    def reference_report(self, inv: Invocation):
        if "report" not in inv.meta:
            case = self.reference_case(inv)
            inv.meta["report"] = getattr(engine, case.method)(*case.inputs, case.cfg)
            inv.meta["report_ok"] = case.gate(case, inv.meta["report"])
        return inv.meta["report"], inv.meta["report_ok"]


def _report_from_json(payload: dict, domain) -> DecompositionReport:
    """Rebuild a report from `stardec --format json` output, so that the
    library gates can judge the cold path's answer."""
    members = tuple((lbl, from_element(serialize.parse_matrix(domain, payload["projections"][lbl])))
                    for lbl in payload.get("labels", ()))
    vector = payload.get("condition_vector")
    return DecompositionReport(
        method=payload["method"], basis=ProjectionBasis(members) if members else None,
        block_classes=payload["block_classes"], certificates=payload["certificates"],
        condition_vector=tuple(vector) if vector is not None else None,
        holds=payload.get("holds"),
    )


_STRUCTURE_PREFIXES = ("method:", "block ", "condition vector:", "holds:")


def _cli_gate(wl: CliCold, inv: Invocation, out) -> bool:
    code, stdout, stderr = out
    args = inv.argv
    if args[0] == "verify" and "--builtin" in args:
        return _builtin_gate(wl, args, code, stdout)
    if args[-1] == "nfl" and "gf7" in args[1]:
        facts = wl.facts(7, 2)
        refused = not (facts["smooth"] or facts["antisymmetric"])
        return (refused and code == 3 and stdout == ""
                and "neither smooth nor antisymmetric" in stderr)
    if code != 0:
        return False
    if args[0] == "verify":
        payload = json.loads(stdout)
        method = args[args.index("--method") + 1]
        oracle_key = {"nfl": "oracle_unitary_rank", "hw": "oracle_ranks"}.get(method)
        return (payload["pass"] is True and all(payload["checks"].values())
                and (oracle_key is None or oracle_key in payload["checks"]))
    if "--format" not in args:  # text: same structure lines as the gated library report
        report, report_ok = wl.reference_report(inv)
        want = [ln for ln in serialize.report_to_text(report).splitlines()
                if ln.startswith(_STRUCTURE_PREFIXES)]
        got = [ln for ln in stdout.splitlines() if ln.startswith(_STRUCTURE_PREFIXES)]
        return report_ok and got == want
    payload = json.loads(stdout)
    case = wl.reference_case(inv)
    domain = case.inputs[0].domain
    if "rank" in payload and "labels" not in payload:  # projection methods
        answer = from_element(serialize.parse_matrix(domain, payload["projection"]))
        return answer.rank == payload["rank"] and case.gate(case, answer)
    return case.gate(case, _report_from_json(payload, domain))


def _builtin_gate(wl: CliCold, args: tuple, code: int, stdout: str) -> bool:
    builtin = args[args.index("--builtin") + 1]
    as_json = "--format" in args
    if builtin == "remark1":
        # over F_3, q - p = diag(2, 1) = p + p + q is positive although p <= q fails
        if as_json:
            want = {"ring": "gf(3,dim=2)", "q_minus_p": [[2, 0], [0, 1]], "positive": True,
                    "witness_p_plus_p_plus_q": True, "proj_leq": False}
            return code == 0 and json.loads(stdout) == want
        return code == 0 and stdout.strip() == "q-p positive: yes; p <= q: no"
    p = int(args[args.index("--ring") + 1][2:])
    dim = int(args[args.index("--dim") + 1])
    facts = wl.facts(p, dim)
    ring = f"gf({p},dim={dim})"
    if builtin == "cone":
        want = {"ring": ring, "cone_size": facts["cone_size"], "square_count": facts["square_count"]}
        return code == 0 and json.loads(stdout) == want
    if as_json:
        want = {"ring": ring, "proper": True, "antisymmetric": facts["antisymmetric"],
                "smooth": facts["smooth"]}
        return code == 0 and json.loads(stdout) == want
    want = f"{ring}: proper=True antisymmetric={facts['antisymmetric']} smooth={facts['smooth']}"
    return code == 0 and stdout.strip() == want


WORKLOADS = {w.name: w for w in (ShiftModel, CliCold)}
