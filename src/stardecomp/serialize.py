"""Spec-file parsing and report formatting.

Exact scalars travel as strings ("a/b" rationals, integers for field
elements, "re+im i" for complex entries) so JSON round-trips never lose
exactness; each domain's ``parse`` and ``format`` own the text form, and
this module turns their errors into SpecFileError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .domains import (
    COMPLEX,
    InexactNumberError,
    ScalarDomain,
    TolerancePolicy,
    complex_domain,
    rational_domain,
)
from .elements import Element, from_rows
from .errors import PreconditionError, SpecFileError

if TYPE_CHECKING:
    from . import shiftmodel


def parse_scalar(domain: ScalarDomain, raw):
    """One scalar from its JSON representation into the domain."""
    try:
        return domain.parse(raw)
    except InexactNumberError as exc:
        raise SpecFileError(f"bad scalar {raw!r} for domain {domain}: {exc}") from exc
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SpecFileError(f"bad scalar {raw!r} for domain {domain}") from exc


def _ring_field(obj: dict, name: str, parse):
    """parse(obj[name]), with a bad value reported as a spec error naming the field."""
    try:
        return parse(obj[name])
    except (TypeError, ValueError) as exc:
        raise SpecFileError(f"bad ring field {name!r}: {obj[name]!r} ({exc})") from exc


def parse_ring(obj, tol: float | None = None) -> ScalarDomain:
    """The spec's scalar domain; ``tol`` replaces a complex ring's eps_eq, but
    the ring's own fields must still parse."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecFileError("ring section must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "rational":
        return rational_domain()
    if kind == "complex-float":
        policy = None
        if obj.get("tolerance") is not None:
            policy = _ring_field(obj, "tolerance", lambda v: TolerancePolicy(eps_eq=float(v)))
        return complex_domain(TolerancePolicy(eps_eq=tol) if tol is not None else policy)
    if kind == "gf":
        from .exactrings import construct_gf_ring

        if "p" not in obj or "dim" not in obj:
            raise SpecFileError("gf ring needs fields 'p' and 'dim'")
        return construct_gf_ring(_ring_field(obj, "p", _count), _ring_field(obj, "dim", _count))
    raise SpecFileError(f"unknown ring kind {kind!r}")


def parse_matrix(domain: ScalarDomain, rows) -> Element:
    if not isinstance(rows, list) or not rows:
        raise SpecFileError("matrix must be a nonempty list of rows")
    n = len(rows)
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise SpecFileError(f"matrix row {i}: expected {n} entries")
        out = []
        for j, cell in enumerate(row):
            try:
                out.append(parse_scalar(domain, cell))
            except SpecFileError as exc:
                raise SpecFileError(f"matrix entry (row {i}, column {j}): {exc}") from exc
        parsed.append(out)
    return from_rows(domain, parsed)


def matrix_to_json(e: Element):
    return [[e.domain.format(v) for v in row] for row in e.mat.tolist()]


def _count(value, choices=None) -> int:
    """A positive integer expr or ring field, one of ``choices`` when given.
    A fractional JSON number or a boolean is refused, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    n = int(value)
    if n < 1 or (choices and n not in choices):
        raise ValueError(f"{value!r} is not " + (f"one of {choices}" if choices else "positive"))
    return n


def parse_expr(obj) -> shiftmodel.OperatorExpr:
    """Nested constructor object -> OperatorExpr."""
    from . import shiftmodel

    if not isinstance(obj, dict) or "op" not in obj:
        raise SpecFileError("expr node must be an object with an 'op'")
    op = obj["op"]
    try:
        if op == "unitary":
            return shiftmodel.unitary(
                [[parse_scalar(COMPLEX, v) for v in row] for row in obj["rows"]]
            )
        if op == "shift":
            return shiftmodel.Shift(_count(obj.get("mult", 1)))
        if op == "back-shift":
            return shiftmodel.BackShift(_count(obj.get("mult", 1)))
        if op == "trunc":
            return shiftmodel.Trunc(_count(obj["n"]))
        if op == "grid-shift":
            return shiftmodel.GridShift(_count(obj["axis"], (1, 2)))
        if op == "direct-sum":
            return shiftmodel.DirectSum(tuple(parse_expr(t) for t in obj["terms"]))
        if op == "compose":
            return shiftmodel.compose(*[parse_expr(t) for t in obj["factors"]])
        if op == "adjoint":
            return shiftmodel.Adjoint(parse_expr(obj["inner"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecFileError(f"malformed {op!r} expr node: {exc}") from exc
    raise SpecFileError(f"unknown expr op {op!r}")


@dataclass
class OperatorSpec:
    """Parsed spec file: a ring, its operators, and an optional pair."""

    domain: ScalarDomain
    operators: list  # Element or OperatorExpr entries
    pair: tuple | None

    def realised(self, truncation: int | None, n_max: int, operands: tuple = (0,)):
        """Concrete Elements (truncating exprs), plus the probe window of
        the first of `operands`, the indices of the operators a method runs
        on (None when that operator is a matrix).  One window serves every
        operand, so two expr operands whose windows differ raise
        PreconditionError."""
        out, windows = [], []
        for op in self.operators:
            if isinstance(op, Element):
                out.append(op)
                windows.append(None)
            else:
                if truncation is None:
                    raise SpecFileError("expr operators need --truncation")
                from . import shiftmodel

                tr = shiftmodel.truncate(op, truncation, n_max=n_max, domain=self.domain)
                out.append(tr.element)
                windows.append(tr.window)
        first = operands[0]
        for k in operands[1:]:
            a, b = windows[first], windows[k]
            if a is not None and b is not None and (a.dim != b.dim or not a.equals(b)):
                raise PreconditionError(
                    f"operators {first} and {k} have different probe windows, "
                    "so no one window serves both operands")
        return out, windows[first]

    def pair_operators(self, truncation: int | None, n_max: int):
        if self.pair is None:
            raise SpecFileError("this method needs a 'pair' declaration in the spec file")
        ops, window = self.realised(truncation, n_max, self.pair)
        i, j = self.pair
        return ops[i], ops[j], window


def parse_spec(data, tol: float | None = None) -> OperatorSpec:
    if not isinstance(data, dict):
        raise SpecFileError("spec file must be a JSON object")
    if "ring" not in data or "operators" not in data:
        raise SpecFileError("spec file needs 'ring' and 'operators' sections")
    domain = parse_ring(data["ring"], tol)
    if not isinstance(data["operators"], list):
        raise SpecFileError("'operators' must be a list")
    operators = []
    for k, op in enumerate(data["operators"]):
        if not isinstance(op, dict) or len(op.keys() & {"matrix", "expr"}) != 1:
            raise SpecFileError(f"operator {k}: exactly one of 'matrix' or 'expr' required")
        try:
            if "matrix" in op:
                operators.append(parse_matrix(domain, op["matrix"]))
            else:
                if domain.exact:
                    raise SpecFileError("expr operators require the complex-float ring")
                operators.append(parse_expr(op["expr"]))
        except SpecFileError as exc:
            raise SpecFileError(f"operator {k}: {exc}") from exc
    if not operators:
        raise SpecFileError("'operators' must be nonempty")
    pair = None
    if "pair" in data:
        pr = data["pair"]
        if (not isinstance(pr, list) or len(pr) != 2
                or any(isinstance(i, bool) or not isinstance(i, int)
                       or not 0 <= i < len(operators) for i in pr)):
            raise SpecFileError("'pair' must be two valid operator indices")
        pair = tuple(pr)
    return OperatorSpec(domain=domain, operators=operators, pair=pair)


def load_spec(path: str, tol: float | None = None) -> OperatorSpec:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_spec(data, tol)


def report_to_json(report) -> dict:
    out = {
        "method": report.method,
        "block_classes": report.block_classes,
        "certificates": {k: float(v) for k, v in report.certificates.items()},
    }
    if report.basis is not None:
        out["labels"] = report.basis.labels()
        out["projections"] = {
            lbl: matrix_to_json(p.element) for lbl, p in report.basis.members
        }
        out["ranks"] = {lbl: p.rank for lbl, p in report.basis.members}
    if report.condition_vector is not None:
        out["condition_vector"] = [bool(c) for c in report.condition_vector]
    if report.holds is not None:
        out["holds"] = bool(report.holds)
    extras = {k: v for k, v in report.extras.items() if isinstance(v, (bool, int, float, str))}
    if extras:
        out["extras"] = extras
    return out


def report_to_text(report) -> str:
    lines = [f"method: {report.method}"]
    if report.condition_vector is not None:
        vec = " ".join(str(bool(c)).lower() for c in report.condition_vector)
        lines.append(f"condition vector: [{vec}]")
    if report.holds is not None:
        lines.append(f"holds: {report.holds}")
    if report.basis is not None:
        for lbl, p in report.basis.members:
            cls = report.block_classes.get(lbl, "")
            lines.append(f"block {lbl}: rank {p.rank}  {cls}")
    worst = max(report.certificates.values(), default=0.0)
    lines.append(f"certificates: {len(report.certificates)} checked, max residual {worst:.3e}")
    for k, v in sorted(report.certificates.items()):
        lines.append(f"  {k}: {float(v):.3e}")
    for k, v in report.extras.items():
        if isinstance(v, (bool, int, float, str)):
            lines.append(f"{k}: {v}")
    return "\n".join(lines)
