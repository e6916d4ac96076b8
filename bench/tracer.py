"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each stardecomp layer from the
outside: it replaces the module attribute, every other module attribute or
dispatch-table entry bound to the same function object (names imported with
``from ... import`` and tables such as ``cli._SINGLE_METHODS``), and the
``Element`` operators on the class itself.  Nothing in the package changes.

Each call records a span ``[layer, parent span, start, end, request]``.  A
request is one benchmark instance; its root span is opened by the caller
with :meth:`Tracer.request`.  Spans stay in memory and are written out once,
by :meth:`Tracer.dump`.  A layer's self time is its spans' durations minus
the durations of their direct children.

No layer of stardecomp queues work, so there is no wait time to record.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

_ENGINE = ("wold", "halmos_wallen", "slocinski", "weak_bishift", "hw_pair_product", "nfl",
           "largest_doubly_commuting", "largest_product_ppi", "reducing_fixpoint")

# (layer name, module, attribute path); one layer may cover several targets
TARGETS = (
    ("cli.main", "stardecomp.cli", "main"),
    ("serialize.load_spec", "stardecomp.serialize", "load_spec"),
    ("serialize.report_to_json", "stardecomp.serialize", "report_to_json"),
    ("shiftmodel.truncate", "stardecomp.shiftmodel", "truncate"),
    *((f"engine.{f}", "stardecomp.engine", f) for f in _ENGINE),
    *((f"projections.{f}", "stardecomp.projections", f)
      for f in ("from_basis", "from_element", "proj_inf", "proj_sup", "left_projection")),
    *((f"subspaces.{f}", "stardecomp.subspaces", f)
      for f in ("orth", "nullspace", "intersect", "preimage", "proj_matrix")),
    *((f"linalg.{f}", "stardecomp.linalg", f) for f in ("rref", "normalize", "solve")),
    ("elements.matmul", "stardecomp.elements", "Element.__matmul__"),
    ("elements.addsub", "stardecomp.elements", "Element.__add__"),
    ("elements.addsub", "stardecomp.elements", "Element.__sub__"),
    ("elements.power", "stardecomp.elements", "Element.power"),
    *((f"exactrings.{f}", "stardecomp.exactrings", f)
      for f in ("construct_gf_ring", "positivity_cone", "axiom_probe", "is_positive")),
    ("floatring.is_positive_float", "stardecomp.floatring", "is_positive_float"),
    ("oracle.brute_unitary_part", "stardecomp.oracle", "brute_unitary_part"),
    ("oracle.brute_hw_classify", "stardecomp.oracle", "brute_hw_classify"),
    ("numpy.svd", "numpy.linalg", "svd"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

# per-layer metrics beyond calls / self time, with their units
EXTRA_UNITS = {
    "cli.import_s": "s",
    "numpy.svd.ops_computed": "count",
    "projections.proj_inf.noop_frac": "ratio",
    "engine.errors": "count",
    "trace.overhead_frac": "ratio",
}

REQUEST = "bench.request"


def metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(EXTRA_UNITS)
    return units


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names = [REQUEST, *LAYERS]
        self._index = {name: i for i, name in enumerate(self.names)}
        self.spans = []
        self.active = False
        self.counters = {"svd_ops": 0, "meets": 0, "noop_meets": 0, "errors": 0, "import_s": 0.0}
        self._stack = [-1]
        self._request = -1
        self._undo = []

    # ------------------------------------------------------------ install

    def install(self):
        """Wrap every target and rebind each alias of it across stardecomp."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for layer, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(layer, original)
            self._set(owner, attr, wrapper)
            replaced[id(original)] = (original, wrapper)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "stardecomp":
                continue
            for name, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and value is hit[0]:
                    self._set(module, name, hit[1])
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        hit = replaced.get(id(entry))
                        if hit is not None and entry is hit[0]:
                            value[key] = hit[1]
                            self._undo.append((value.__setitem__, key, entry))

    def uninstall(self):
        while self._undo:
            restore, key, value = self._undo.pop()
            restore(key, value)

    def _set(self, owner, attr, value):
        self._undo.append((functools.partial(setattr, owner), attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, layer: str, fn):
        idx = self._index[layer]
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        tracer = self
        observe = _OBSERVERS.get(layer)
        count_errors = layer.startswith("engine.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [idx, stack[-1], clock(), 0.0, tracer._request]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if count_errors and _is_engine_error(exc) and not getattr(exc, "_bench_seen", False):
                    exc._bench_seen = True
                    counters["errors"] += 1
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, out)
            return out

        return wrapper

    # ------------------------------------------------------------- spans

    @contextlib.contextmanager
    def request(self):
        """Root span of one benchmark instance; tracing is on inside it."""
        span = [0, -1, time.perf_counter(), 0.0, len(self.spans)]
        self._request = span[4]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self.active = True
        try:
            yield span[4]
        finally:
            self.active = False
            span[3] = time.perf_counter()
            self._stack.pop()

    def absorb(self, dump: dict, request: int):
        """Append the spans of a child process's dump under one request."""
        remap = [self._index[name] for name in dump["names"]]
        base = len(self.spans)
        for name_idx, parent, start, end, _ in dump["spans"]:
            self.spans.append([remap[name_idx], request if parent < 0 else base + parent,
                               start, end, request])
        for key, value in dump["counters"].items():
            self.counters[key] += value

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counters": self.counters}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.dump(), fh, separators=(",", ":"))

    # ----------------------------------------------------------- metrics

    def layer_metrics(self, overhead_frac: float) -> dict:
        """Per-layer calls and self time, plus the boundary counters."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for name_idx, parent, start, end, _ in self.spans:
            dur = end - start
            calls[name_idx] += 1
            self_s[name_idx] += dur
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
        out = {}
        for layer in LAYERS:
            i = self._index[layer]
            out[f"{layer}.calls"] = calls[i]
            out[f"{layer}.self_s"] = self_s[i]
        c = self.counters
        out["cli.import_s"] = c["import_s"]
        out["numpy.svd.ops_computed"] = c["svd_ops"]
        out["projections.proj_inf.noop_frac"] = c["noop_meets"] / c["meets"] if c["meets"] else 0.0
        out["engine.errors"] = c["errors"]
        out["trace.overhead_frac"] = overhead_frac
        return out


    def inclusive_s(self, prefix: str) -> float:
        """Wall time inside spans of layers named `prefix*`, children included,
        counting nested spans of those layers once."""
        inside = []
        total = 0.0
        for name_idx, parent, start, end, _ in self.spans:
            hit = self.names[name_idx].startswith(prefix)
            outer = parent >= 0 and inside[parent]
            inside.append(hit or outer)
            if hit and not outer:
                total += end - start
        return total


def _is_engine_error(exc) -> bool:
    from stardecomp.errors import IndeterminateError, PreconditionError

    return isinstance(exc, (PreconditionError, IndeterminateError))


def _observe_svd(counters, args, out):
    m, n = args[0].shape[-2:]
    counters["svd_ops"] += m * n * min(m, n)  # computed from the shape, not counted flops


def _observe_meet(counters, args, out):
    first = next(iter(args[0]))
    counters["meets"] += 1
    counters["noop_meets"] += out.rank == first.rank


_OBSERVERS = {"numpy.svd": _observe_svd, "projections.proj_inf": _observe_meet}
