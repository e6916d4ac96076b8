"""Batch command-line front end: classify / decompose / verify.

Exit codes are a stable contract: 0 success, 1 a ``verify`` check failed
(the output marks it FAIL), 2 spec-file parse error, 3 precondition failure
(the message names the violated predicate), 4 indeterminate stabilisation,
141 stdout closed before the output was written (as a shell reports a
writer stopped by SIGPIPE, e.g. under ``| head``).

Each subcommand imports the modules it uses when it runs, so a process pays
only for its own command: ``verify --builtin cone|axioms`` on a gf ring is
integer arithmetic and never loads numpy.  When numpy is not loaded yet,
``main`` defaults BLAS to one thread; a value the caller set wins.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .domains import complex_domain, rational_domain
from .errors import (
    IndeterminateError,
    PreconditionError,
    SpecFileError,
    StarDecompError,
)

if TYPE_CHECKING:
    from . import serialize

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INDETERMINATE = 4
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE

# method name -> engine function name, looked up on engine when the method runs
_SINGLE_METHODS = {
    "wold": "wold",
    "hw": "halmos_wallen",
    "nfl": "nfl",
}
_PAIR_METHODS = {
    "slocinski": "slocinski",
    "weak-bishift": "weak_bishift",
    "hw-pair-doubly": "hw_pair_doubly",
    "hw-pair-product": "hw_pair_product",
    "nfl-pair": "nfl_pair_doubly",
}
_PROJECTION_METHODS = {
    "pd": "largest_doubly_commuting",
    "largest-ppi": "largest_product_ppi",
}
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _positive(cast):
    """argparse type: a strictly positive value of type cast."""

    def parse(text: str):
        value = cast(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
        return value

    parse.__name__ = cast.__name__  # argparse says "invalid int value: 'x'"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stardec",
        description="decompositions of isometries, partial isometries and contractions "
        "over exact and floating matrix *-rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="print the class flags of each operator")
    p_classify.add_argument("file", help="operator spec file (JSON)")
    p_classify.add_argument("--nmax", type=_positive(int), default=16)
    p_classify.add_argument("--truncation", type=_positive(int), default=None)
    p_classify.add_argument("--format", choices=("text", "json"), default="text")

    p_dec = sub.add_parser("decompose", help="run one decomposition method")
    p_dec.add_argument("file", help="operator spec file (JSON)")
    p_dec.add_argument(
        "--method", required=True,
        choices=sorted(_SINGLE_METHODS | _PAIR_METHODS | _PROJECTION_METHODS),
    )
    p_dec.add_argument("--nmax", type=_positive(int), default=16)
    p_dec.add_argument("--truncation", type=_positive(int), default=None)
    p_dec.add_argument("--tol", type=_positive(float), default=None)
    p_dec.add_argument("--format", choices=("text", "json"), default="text")

    p_ver = sub.add_parser("verify", help="re-check certificates / run built-in demonstrations")
    p_ver.add_argument("file", nargs="?", default=None)
    p_ver.add_argument("--builtin", choices=("remark1", "cone", "axioms"), default=None)
    p_ver.add_argument("--method", choices=sorted(_SINGLE_METHODS | _PAIR_METHODS), default=None)
    p_ver.add_argument("--ring", default=None, help="builtin target ring, e.g. gf3 or rational")
    p_ver.add_argument("--dim", type=_positive(int), default=None)
    p_ver.add_argument("--nmax", type=_positive(int), default=16)
    p_ver.add_argument("--truncation", type=_positive(int), default=None)
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _emit(args, payload_text: str, payload_json):
    if args.format == "json":
        print(json.dumps(payload_json, indent=2))
    else:
        print(payload_text)


def cmd_classify(args) -> int:
    from . import serialize
    from .elements import classify

    ops, _ = serialize.load_spec(args.file).realised(args.truncation, args.nmax)
    lines = []
    rows = []
    for k, op in enumerate(ops):
        flags = classify(op, args.nmax).flags()
        on = [name for name, val in flags.items() if val]
        lines.append(f"operator {k}: {', '.join(on) if on else '(none)'}")
        rows.append({"operator": k, "flags": flags})
    _emit(args, "\n".join(lines), rows)
    return EXIT_OK


def _run_method(spec: serialize.OperatorSpec, args):
    """Realise the spec's operands and run ``args.method`` on them, with the
    first operand's probe window.

    Returns the method's result (a report, or a projection for the
    projection methods) and the first operand.
    """
    from . import engine

    if args.method in _SINGLE_METHODS:
        ops, window = spec.realised(args.truncation, args.nmax)
        name, operands = _SINGLE_METHODS[args.method], ops[:1]
    else:
        x1, x2, window = spec.pair_operators(args.truncation, args.nmax)
        name, operands = (_PAIR_METHODS | _PROJECTION_METHODS)[args.method], [x1, x2]
    cfg = engine.EngineConfig(n_max=args.nmax, window=window)
    return getattr(engine, name)(*operands, cfg), operands[0]


def cmd_decompose(args) -> int:
    from . import serialize

    result, _ = _run_method(serialize.load_spec(args.file, args.tol), args)
    if args.method in _PROJECTION_METHODS:
        text = f"method: {args.method}\nrank: {result.rank}"
        payload = {"method": args.method, "rank": result.rank,
                   "projection": serialize.matrix_to_json(result.element)}
        _emit(args, text, payload)
    else:
        _emit(args, serialize.report_to_text(result), serialize.report_to_json(result))
    return EXIT_OK


def _builtin_remark1(args) -> int:
    from . import serialize
    from .elements import from_rows
    from .exactrings import construct_gf_ring, is_positive
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
    from . import serialize

    report, x = _run_method(serialize.load_spec(args.file), args)
    checks = {"certificates": report.max_residual() <= x.domain.residual_tol(x.dim)}
    if report.basis is not None:
        checks["basis"] = report.basis.verify()
    if x.domain.exact:  # the oracle runs on exact inputs only
        from . import oracle

        if (args.method in ("wold", "nfl") and x.dim <= oracle.UNITARY_DIM_GUARD
                and report.basis is not None):
            brute = oracle.brute_unitary_part(x)
            checks["oracle_unitary_rank"] = brute.shape[1] == report.basis["u"].rank
        if args.method == "hw" and x.dim <= oracle.CHAIN_DIM_GUARD:
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
    if "numpy" not in sys.modules:
        # BLAS reads these once, when numpy loads; its default of one thread
        # per core oversubscribes a host that runs several processes
        for var in _BLAS_THREAD_VARS:
            os.environ.setdefault(var, "1")
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = {"classify": cmd_classify, "decompose": cmd_decompose, "verify": cmd_verify}
    try:
        code = command[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # nothing more can reach the reader; point stdout at devnull so
        # that the interpreter's final flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):  # an in-process stdout with no descriptor
            pass
        finally:
            os.close(devnull)
        return EXIT_CLOSED_STDOUT
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
