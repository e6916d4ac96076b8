"""Batch command-line front end: classify / decompose / verify.

Exit codes are a stable contract: 0 success, 2 spec-file parse error,
3 precondition failure (the message names the violated predicate),
4 indeterminate stabilisation.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import engine, oracle, serialize
from .domains import DomainKind, TolerancePolicy, complex_domain, rational_domain
from .elements import classify
from .errors import (
    IndeterminateError,
    PreconditionError,
    SpecFileError,
    StarDecompError,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INDETERMINATE = 4

_SINGLE_METHODS = {
    "wold": engine.wold,
    "hw": engine.halmos_wallen,
    "nfl": engine.nfl,
}
_PAIR_METHODS = {
    "slocinski": engine.slocinski,
    "weak-bishift": engine.weak_bishift,
    "hw-pair-doubly": engine.hw_pair_doubly,
    "hw-pair-product": engine.hw_pair_product,
    "nfl-pair": engine.nfl_pair_doubly,
}
_PROJECTION_METHODS = {
    "pd": engine.largest_doubly_commuting,
    "largest-ppi": engine.largest_product_ppi,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stardec",
        description="decompositions of isometries, partial isometries and contractions "
        "over exact and floating matrix *-rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="print the class flags of each operator")
    p_classify.add_argument("file", help="operator spec file (JSON)")
    p_classify.add_argument("--nmax", type=int, default=16)
    p_classify.add_argument("--truncation", type=int, default=None)
    p_classify.add_argument("--format", choices=("text", "json"), default="text")

    p_dec = sub.add_parser("decompose", help="run one decomposition method")
    p_dec.add_argument("file", help="operator spec file (JSON)")
    p_dec.add_argument(
        "--method", required=True,
        choices=sorted(_SINGLE_METHODS | _PAIR_METHODS | _PROJECTION_METHODS),
    )
    p_dec.add_argument("--nmax", type=int, default=16)
    p_dec.add_argument("--truncation", type=int, default=None)
    p_dec.add_argument("--tol", type=float, default=None)
    p_dec.add_argument("--format", choices=("text", "json"), default="text")

    p_ver = sub.add_parser("verify", help="re-check certificates / run built-in demonstrations")
    p_ver.add_argument("file", nargs="?", default=None)
    p_ver.add_argument("--builtin", choices=("remark1", "cone", "axioms"), default=None)
    p_ver.add_argument("--method", choices=sorted(_SINGLE_METHODS | _PAIR_METHODS), default=None)
    p_ver.add_argument("--ring", default=None, help="builtin target ring, e.g. gf3 or rational")
    p_ver.add_argument("--dim", type=int, default=None)
    p_ver.add_argument("--nmax", type=int, default=16)
    p_ver.add_argument("--truncation", type=int, default=None)
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _load(args) -> serialize.OperatorSpec:
    spec = serialize.load_spec(args.file)
    if getattr(args, "tol", None) is not None and spec.domain.kind is DomainKind.COMPLEX:
        spec.domain = complex_domain(TolerancePolicy(eps_eq=args.tol))
        spec.operators = [
            op if not hasattr(op, "domain") else type(op)(spec.domain, op.mat)
            for op in spec.operators
        ]
    return spec


def _emit(args, payload_text: str, payload_json):
    if args.format == "json":
        print(json.dumps(payload_json, indent=2))
    else:
        print(payload_text)


def cmd_classify(args) -> int:
    spec = _load(args)
    ops, _ = spec.realised(args.truncation, args.nmax)
    lines = []
    rows = []
    for k, op in enumerate(ops):
        flags = classify(op, args.nmax).flags()
        on = [name for name, val in flags.items() if val]
        lines.append(f"operator {k}: {', '.join(on) if on else '(none)'}")
        rows.append({"operator": k, "flags": flags})
    _emit(args, "\n".join(lines), rows)
    return EXIT_OK


def cmd_decompose(args) -> int:
    spec = _load(args)
    method = args.method
    if method in _SINGLE_METHODS:
        ops, window = spec.realised(args.truncation, args.nmax)
        cfg = engine.EngineConfig(n_max=args.nmax, window=window)
        report = _SINGLE_METHODS[method](ops[0], cfg)
    else:
        x1, x2, window = spec.pair_operators(args.truncation, args.nmax)
        cfg = engine.EngineConfig(n_max=args.nmax, window=window)
        if method in _PAIR_METHODS:
            report = _PAIR_METHODS[method](x1, x2, cfg)
        else:
            p = _PROJECTION_METHODS[method](x1, x2, cfg)
            text = f"method: {method}\nrank: {p.rank}"
            payload = {"method": method, "rank": p.rank,
                       "projection": serialize.matrix_to_json(p.element)}
            _emit(args, text, payload)
            return EXIT_OK
    _emit(args, serialize.report_to_text(report), serialize.report_to_json(report))
    return EXIT_OK


def _builtin_remark1(args) -> int:
    from .exactrings import construct_gf_ring, is_positive
    from .elements import from_rows
    from .projections import from_element, proj_leq

    domain = construct_gf_ring(3, 2)
    p = from_rows(domain, [[1, 0], [0, 0]])
    q = from_rows(domain, [[0, 0], [0, 1]])
    diff = q - p  # diag(2, 1) over F_3
    positive = is_positive(diff)
    witness = (p + p + q).equals(diff)
    leq = proj_leq(from_element(p), from_element(q))
    text = f"q-p positive: {'yes' if positive else 'no'}; p <= q: {'yes' if leq else 'no'}"
    payload = {
        "ring": "gf(3,dim=2)",
        "q_minus_p": serialize.matrix_to_json(diff),
        "positive": positive,
        "witness_p_plus_p_plus_q": witness,
        "proj_leq": leq,
    }
    _emit(args, text, payload)
    return EXIT_OK if positive and witness and not leq else 1


def _builtin_ring(args):
    from .exactrings import construct_gf_ring

    name = args.ring or "gf3"
    if name.startswith("gf"):
        try:
            p = int(name[2:] or 3)
        except ValueError:
            raise SpecFileError(f"unknown ring {name!r}: expected gf<prime>, e.g. gf3") from None
        return construct_gf_ring(p, 2 if args.dim is None else args.dim)
    if name == "rational":
        return rational_domain()
    if name in ("complex", "complex-float"):
        return complex_domain()
    raise SpecFileError(f"unknown ring {name!r}")


def _builtin_cone(args) -> int:
    from .exactrings import positivity_cone

    domain = _builtin_ring(args)
    if domain.kind is not DomainKind.GF:
        raise PreconditionError("cone counts are only available for gf rings")
    cone = positivity_cone(domain)
    text = (f"{domain}: positive cone has {cone.cone_size} elements, "
            f"{cone.square_count} of them of the form x*x")
    _emit(args, text, {"ring": repr(domain), "cone_size": cone.cone_size,
                       "square_count": cone.square_count})
    return EXIT_OK


def _builtin_axioms(args) -> int:
    from .exactrings import axiom_probe

    domain = _builtin_ring(args)
    report = axiom_probe(domain, dim=args.dim)
    text = (f"{domain}: proper={report.proper} antisymmetric={report.antisymmetric} "
            f"smooth={report.smooth}")
    _emit(args, text, {"ring": repr(domain), "proper": report.proper,
                       "antisymmetric": report.antisymmetric, "smooth": report.smooth})
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.builtin == "remark1":
        return _builtin_remark1(args)
    if args.builtin == "cone":
        return _builtin_cone(args)
    if args.builtin == "axioms":
        return _builtin_axioms(args)
    if args.file is None:
        raise SpecFileError("verify needs a spec file or --builtin")
    if args.method is None:
        raise SpecFileError("verify on a spec file needs --method")
    spec = serialize.load_spec(args.file)
    if args.method in _SINGLE_METHODS:
        ops, window = spec.realised(args.truncation, args.nmax)
        cfg = engine.EngineConfig(n_max=args.nmax, window=window)
        report = _SINGLE_METHODS[args.method](ops[0], cfg)
        x = ops[0]
    else:
        x1, x2, window = spec.pair_operators(args.truncation, args.nmax)
        cfg = engine.EngineConfig(n_max=args.nmax, window=window)
        report = _PAIR_METHODS[args.method](x1, x2, cfg)
        x = x1
    tol = 0.0 if x.domain.exact else x.domain.tol.eps_eq * x.dim
    checks = {"certificates": report.max_residual() <= tol}
    if report.basis is not None:
        checks["basis"] = report.basis.verify()
    if (args.method in ("wold", "nfl") and x.domain.exact and x.dim <= 8
            and report.basis is not None):
        brute = oracle.brute_unitary_part(x)
        checks["oracle_unitary_rank"] = brute.shape[1] == report.basis["u"].rank
    if args.method == "hw" and x.domain.exact and x.dim <= 6:
        chains = oracle.brute_hw_classify(x)
        checks["oracle_ranks"] = (
            chains.u_rank == report.basis["u"].rank
            and chains.t_rank == report.basis["t"].rank
            and report.basis["s"].rank == 0
            and report.basis["b"].rank == 0
        )
    ok = all(checks.values())
    text = "\n".join([f"{k}: {'pass' if v else 'FAIL'}" for k, v in checks.items()])
    _emit(args, text, {"method": args.method, "checks": checks, "pass": ok})
    return EXIT_OK if ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "decompose":
            return cmd_decompose(args)
        return cmd_verify(args)
    except SpecFileError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except IndeterminateError as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except StarDecompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
