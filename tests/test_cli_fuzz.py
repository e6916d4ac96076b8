"""Spec-file fuzzing of the exit-code contract.

Each draw mutates one of the benchmark's spec files: it replaces values
anywhere in the JSON tree with 1e308, true, null, "1/0" or [[]], drops
keys and list entries, and sometimes adds a "pair".  The mutant runs
through ``cli.main`` in-process with a drawn command and method.  No
exception may escape ``main``; ``classify`` and ``decompose`` exit 0, 2, 3
or 4; ``verify`` exits 1 only when its output marks a check FAIL.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st
from test_golden_cli import COLUMNS, SPECS

from stardecomp import cli

SPEC_DATA = {path.name: json.loads(path.read_text()) for path in sorted(SPECS.glob("*.json"))}
SPECIALS = (1e308, True, None, "1/0", [[]])
DECOMPOSE_METHODS = sorted(cli._SINGLE_METHODS | cli._PAIR_METHODS | cli._PROJECTION_METHODS)
VERIFY_METHODS = sorted(cli._SINGLE_METHODS | cli._PAIR_METHODS)


def _paths(node, prefix=()):
    """The path of every value in the tree, the root's () first."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _mutate(draw, doc):
    """Replace or drop one value (the root can only be replaced), drawn
    depth first so that the few top-level sections come up as often as
    the many matrix entries."""
    paths = list(_paths(doc))
    depth = draw(st.integers(0, max(len(p) for p in paths)))
    path = draw(st.sampled_from([p for p in paths if len(p) == depth]))
    special = copy.deepcopy(draw(st.sampled_from(SPECIALS)))
    if not path:
        return special
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = special
    return doc


@st.composite
def invocations(draw):
    doc = copy.deepcopy(SPEC_DATA[draw(st.sampled_from(sorted(SPEC_DATA)))])
    for _ in range(draw(st.integers(0, 2))):
        doc = _mutate(draw, doc)
    if isinstance(doc, dict) and draw(st.booleans()):
        doc["pair"] = copy.deepcopy(draw(st.sampled_from(([0, 1], [1, 0], [0, 0], *SPECIALS))))
    command = draw(st.sampled_from(("classify", "decompose", "verify")))
    options = ["--nmax", "4"]
    if command != "classify":
        methods = DECOMPOSE_METHODS if command == "decompose" else VERIFY_METHODS
        options += ["--method", draw(st.sampled_from(methods))]
    truncation = draw(st.sampled_from((None, 20)))
    if truncation is not None:
        options += ["--truncation", str(truncation)]
    return doc, command, options


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_mutated_specs_keep_the_exit_code_contract(invocation):
    doc, command, options = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps(doc))
        with (mock.patch.dict(os.environ, {"COLUMNS": COLUMNS}),
              contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
            code = cli.main([command, str(spec), *options])
    if command == "verify":
        assert code in (0, 1, 2, 3, 4), err.getvalue()
        assert code != 1 or "FAIL" in out.getvalue()
    else:
        assert code in (0, 2, 3, 4), err.getvalue()
