"""The names the bench in ``perfbench/`` resolves at run time.

Its tracer wraps ``rgc`` functions found by name and replaces each oracle's
``query`` on the instance, and its layer table reads the evaluator's counts
by ``EvalStats`` field name, so a renamed function or field or a
class-level ``query`` would only show up as a failed bench run.  The tracer
module is loaded from its path, without writing bytecode next to it.
"""

import dataclasses
import importlib
import importlib.util
import pathlib
import re
import sys

from rgc.evaluate import EvalStats
from rgc.oracle import OracleFamily

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(monkeypatch):
    targets = _load_tracer(monkeypatch).TARGETS
    assert targets
    for mod_name, fn_name, _ in targets:
        fn = getattr(importlib.import_module(f"rgc.{mod_name}"), fn_name, None)
        assert callable(fn), f"rgc.{mod_name}.{fn_name} is gone"


def test_oracle_query_is_reassignable_per_instance():
    oracle = OracleFamily().for_len(64)
    calls = []
    query = oracle.query

    def wrapped(data):
        calls.append(data)
        return query(data)

    oracle.query = wrapped
    assert oracle.query(b"x") == query(b"x") and calls == [b"x"]
    assert OracleFamily().for_len(64).query is not wrapped


def test_every_count_the_layer_table_reads_is_an_eval_stats_field():
    keys = set(re.findall(r'\bstats\["(\w+)"\]', (PERFBENCH / "layers.py").read_text()))
    assert keys
    assert keys <= {f.name for f in dataclasses.fields(EvalStats)}
