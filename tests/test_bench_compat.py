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
import random
import re
import sys

import pytest

from rgc import delegation, evaluate, garble, netio
from rgc.circuit import Phase, Toffoli, parse_circuit, without_x
from rgc.evaluate import EvalStats
from rgc.oracle import OracleFamily
from rgc.sparse import SparseState, qubit_layout, random_state

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


@pytest.mark.parametrize("text", ["inputs 3\ntoff 0 1 2\ntoff 1 2 0\n",
                                  "inputs 2\nphase 0 1\nphase 1 3 neg\n"],
                         ids=["toffoli-only", "phase-only"])
def test_rows_tried_is_positive_for_a_nonempty_bundle(text):
    # the layer table divides by it (evaluate.row_hit_ratio)
    circ = parse_circuit(text)
    rng = random.Random(3)
    keys = delegation.keygen(16, circ.num_inputs, circ, rng, conjecture=True)
    params = delegation.make_params(16, oracle_seed=b"compat")
    _, stats = delegation.delegate(params, keys, circ,
                                   random_state(qubit_layout(circ.num_inputs), rng), rng)
    assert stats.gates == len(circ.gates) and stats.rows_tried > 0


def test_the_traced_hot_path_functions_are_called_per_table_and_triple(monkeypatch):
    # The layer table splits evaluate.term_loop_s from evaluate.crypto_s by
    # the calls of eval_toffoli_term, and garble.*_us per call of the gate
    # garblers; a caller that inlined one would zero its metric silently.
    calls = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(evaluate, "eval_toffoli_term")
    counted(garble, "garble_toffoli")
    counted(garble, "garble_phase")
    circ = parse_circuit("inputs 4\nconst 0\ntoff 0 1 2\nx 1\nphase 2 1\ntoff 1 2 3\n"
                         "phase 3 2 neg\ntoff 3 2 1\nx 3\n")
    rng = random.Random(5)
    keys = delegation.keygen(16, circ.num_inputs, circ, rng, conjecture=True)
    params = delegation.make_params(16, oracle_seed=b"compat")
    state = random_state(qubit_layout(circ.num_inputs), rng, support_bits=[1, 2, 3])
    state = SparseState(state.layout, {b | circ.const_mask: a for b, a in state.terms.items()})
    _, stats = delegation.delegate(params, keys, circ, state, rng)
    assert calls == {"garble_toffoli": sum(isinstance(g, Toffoli) for g in circ.gates),
                     "garble_phase": sum(isinstance(g, Phase) for g in circ.gates),
                     "eval_toffoli_term": stats.erasure_checks}
    assert calls["garble_toffoli"] == 3 and stats.erasure_checks > 3


def test_every_oracle_query_passes_the_wrapped_query_attribute(monkeypatch):
    # The tracer wraps each oracle's query as OracleFamily.for_len hands the
    # oracle out, before any params exist; a query made past that attribute
    # (a batch method, or a hash state held outside the oracle) would read 0
    # in the traced oracle.* metrics and server_queries.  Client and server
    # each build their params through make_params.
    seen = {}
    for_len = OracleFamily.for_len

    def wrapping_for_len(family, output_len_bits):
        oracle = for_len(family, output_len_bits)
        if not hasattr(oracle, "unwrapped"):
            query = oracle.unwrapped = oracle.query

            def wrapped(data):
                seen[family] = seen.get(family, 0) + 1
                return query(data)
            oracle.query = wrapped
        return oracle

    made = []
    make_params = delegation.make_params

    def recording_make_params(*args, **kwargs):
        made.append(make_params(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(OracleFamily, "for_len", wrapping_for_len)
    monkeypatch.setattr(delegation, "make_params", recording_make_params)
    circ = parse_circuit("inputs 5\nconst 0\nconst 1\ntoff 0 2 3\ntoff 0 1 4\nx 2\nphase 3 2\n"
                         "toff 2 3 4\nphase 4 3 neg\ntoff 4 3 2\nx 4\ntoff 1 4 2\n")
    rng = random.Random(9)
    keys = delegation.keygen(16, circ.num_inputs, circ, rng, conjecture=True)
    params = delegation.make_params(16, oracle_seed=b"compat")
    state = random_state(qubit_layout(circ.num_inputs), rng, support_bits=[2, 3, 4])
    state = SparseState(state.layout, {b | circ.const_mask: a for b, a in state.terms.items()})
    job = delegation.encrypt(params, keys, circ, state, rng)
    envelope = netio.handle_envelope(netio.frame(netio.KIND_JOB, netio.serialize_job(job, params)))
    kind, payload = netio.unframe(envelope)
    assert kind == netio.KIND_RESULT, payload
    out, stats = netio.deserialize_result(payload)
    delegation.decrypt(keys, circ, out)
    client, server = made
    assert stats.gates == len(without_x(circ).gates)
    for side in (client, server):
        assert side.oracles.query_count() > 0
        assert seen[side.oracles] == side.oracles.query_count()
