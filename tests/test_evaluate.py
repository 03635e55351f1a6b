import hashlib
import math
import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings

from rgc import delegation, netio, sparse, symcrypt
from rgc.circuit import (Phase, Toffoli, allocate_wires, flipped_wires,
                         parse_circuit, phase, random_circuit, simulate)
from rgc.encoding import decode, encode, gen_keys
from rgc.evaluate import (AmbiguousRowError, ErasureError, EvalError, EvalStats,
                          NoRowMatchError, eval_bundle, eval_toffoli_term)
from rgc.garble import GarbledBundle, PhaseTable, ToffoliTables, garble_circuit, garble_toffoli
from rgc.sparse import fidelity, inner, qubit_layout, random_state

from conftest import circuits_and_states, input_state, make_params, wire_1_state

ONE_TOFFOLI = parse_circuit("inputs 3\ntoff 0 1 2\n")


def _toffoli_fixture(seed=1):
    params = make_params()
    rng = random.Random(seed)
    schedule = gen_keys(16, ONE_TOFFOLI, rng)
    gate = ONE_TOFFOLI.gates[0]
    return params, schedule, gate, garble_toffoli(params, gate, schedule, rng)


def test_term_translation_full_truth_table():
    params, schedule, gate, tables = _toffoli_fixture()
    in_pairs = [schedule.pairs[w] for w in gate.in_wires]
    out_pairs = [schedule.pairs[w] for w in gate.out_wires]
    for u, v, w in product((0, 1), repeat=3):
        got = eval_toffoli_term(params, (in_pairs[0][u], in_pairs[1][v], in_pairs[2][w]),
                                tables)
        assert got == (out_pairs[0][u], out_pairs[1][v], out_pairs[2][w ^ (u & v)])


def test_term_translation_one_one_one():
    params, schedule, gate, tables = _toffoli_fixture(2)
    triple = tuple(schedule.pairs[w].k1 for w in gate.in_wires)
    out = eval_toffoli_term(params, triple, tables)
    out_pairs = [schedule.pairs[w] for w in gate.out_wires]
    assert out == (out_pairs[0][1], out_pairs[1][1], out_pairs[2][0])   # 1 xor 1*1


def test_garbage_triple_never_matches():
    params, schedule, gate, tables = _toffoli_fixture(3)
    rng = random.Random(99)
    real = {schedule.pairs[w][b] for w in gate.in_wires for b in (0, 1)}
    rejected = 0
    for _ in range(10_000):
        triple = tuple(rng.randbytes(2) for _ in range(3))
        if any(k in real for k in triple):
            continue
        try:
            eval_toffoli_term(params, triple, tables)
        except NoRowMatchError:
            rejected += 1
        else:
            pytest.fail("garbage triple opened a row")
    assert rejected > 9000


def test_ambiguous_rows_detected():
    params, schedule, gate, tables = _toffoli_fixture(4)
    dup = ToffoliTables((tables.forward[0],) * 8, tables.backward)
    in_pairs = [schedule.pairs[w] for w in gate.in_wires]
    # find the triple that opens row 0, then present a table of 8 copies
    for u, v, w in product((0, 1), repeat=3):
        triple = (in_pairs[0][u], in_pairs[1][v], in_pairs[2][w])
        if all(symcrypt.triple_ver(params, k, i + 1, tables.forward[0])
               for i, k in enumerate(triple)):
            with pytest.raises(AmbiguousRowError):
                eval_toffoli_term(params, triple, dup)
            return
    pytest.fail("no triple opened row 0")


def test_erasure_violation_detected():
    params, schedule, gate, tables = _toffoli_fixture(5)
    rng = random.Random(7)
    # backward rows from a different garbling decrypt to the same input keys,
    # so rebuild the backward table with a *wrong* payload instead
    in_pairs = [schedule.pairs[w] for w in gate.in_wires]
    out_pairs = [schedule.pairs[w] for w in gate.out_wires]
    bad_rows = []
    for u, v, w in product((0, 1), repeat=3):
        out_keys = (out_pairs[0][u], out_pairs[1][v], out_pairs[2][w ^ (u & v)])
        wrong_payload = bytes(6)
        bad_rows.append(symcrypt.triple_enc(params, *out_keys, wrong_payload, rng))
    broken = ToffoliTables(tables.forward, tuple(bad_rows))
    triple = tuple(schedule.pairs[w].k0 for w in gate.in_wires)
    with pytest.raises(ErasureError):
        eval_toffoli_term(params, triple, broken)


def test_eval_superposition_matches_logical_gate():
    params = make_params()
    rng = random.Random(8)
    schedule = gen_keys(16, ONE_TOFFOLI, rng)
    bundle = garble_circuit(params, ONE_TOFFOLI, schedule, rng)
    state = random_state(qubit_layout(3), rng)
    encoded = encode(state, schedule, ONE_TOFFOLI.input_wires)
    out, stats = eval_bundle(params, encoded, bundle)
    decoded = decode(out, schedule, ONE_TOFFOLI.output_wires)
    assert fidelity(decoded, simulate(ONE_TOFFOLI, state)) >= 1 - 1e-12
    assert stats.erasure_checks == len({
        (b & 0xFFFF, (b >> 16) & 0xFFFF, (b >> 32) & 0xFFFF) for b in encoded.terms})


def test_eval_amplitudes_ride_along_unchanged():
    params = make_params()
    rng = random.Random(9)
    schedule = gen_keys(16, ONE_TOFFOLI, rng)
    bundle = garble_circuit(params, ONE_TOFFOLI, schedule, rng)
    state = random_state(qubit_layout(3), rng)
    encoded = encode(state, schedule, ONE_TOFFOLI.input_wires)
    out, _ = eval_bundle(params, encoded, bundle)
    assert sorted(map(abs, out.terms.values())) == pytest.approx(
        sorted(map(abs, encoded.terms.values())))


def test_eval_phase_plus_state_quarter_turn():
    params = make_params()
    rng = random.Random(10)
    circ = parse_circuit("inputs 1\nphase 0 1\n")    # R_Z(pi/2)
    schedule = gen_keys(16, circ, rng)
    bundle = garble_circuit(params, circ, schedule, rng)
    plus = sparse.from_terms(qubit_layout(1), {0: 1 / math.sqrt(2), 1: 1 / math.sqrt(2)})
    out, _ = eval_bundle(params, encode(plus, schedule, circ.input_wires), bundle)
    decoded = decode(out, schedule, circ.output_wires)
    # relative phase i survives; global phase omega^m0 does not matter
    assert decoded.terms[1] / decoded.terms[0] == pytest.approx(1j)
    assert fidelity(decoded, simulate(circ, plus)) >= 1 - 1e-12


def test_eval_phase_on_basis_state_is_global():
    params = make_params()
    rng = random.Random(11)
    circ = parse_circuit("inputs 1\nphase 0 2\n")
    schedule = gen_keys(16, circ, rng)
    bundle = garble_circuit(params, circ, schedule, rng)
    zero = sparse.basis_state(qubit_layout(1), 0)
    out, _ = eval_bundle(params, encode(zero, schedule, circ.input_wires), bundle)
    decoded = decode(out, schedule, circ.output_wires)
    assert fidelity(decoded, zero) == pytest.approx(1.0)


@pytest.mark.parametrize("denom_exp", [0, 1, 2, 3])
@pytest.mark.parametrize("sign", [1, -1])
def test_eval_phase_exact_against_ideal(denom_exp, sign):
    params = make_params()
    rng = random.Random(100 + denom_exp + sign)
    circ = allocate_wires([phase(0, denom_exp, sign)], 1)
    schedule = gen_keys(16, circ, rng)
    bundle = garble_circuit(params, circ, schedule, rng)
    for _ in range(10):
        psi = random_state(qubit_layout(1), rng)
        out, _ = eval_bundle(params, encode(psi, schedule, circ.input_wires), bundle)
        decoded = decode(out, schedule, circ.output_wires)
        assert fidelity(decoded, simulate(circ, psi)) >= 1 - 1e-12


def test_eval_empty_circuit_identity():
    params = make_params()
    rng = random.Random(12)
    circ = allocate_wires([], 2)
    schedule = gen_keys(16, circ, rng)
    bundle = garble_circuit(params, circ, schedule, rng)
    state = random_state(qubit_layout(2), rng)
    encoded = encode(state, schedule, circ.input_wires)
    out, stats = eval_bundle(params, encoded, bundle)
    assert out.terms == encoded.terms
    assert stats.gates == 0


def test_eval_stats_search_bound():
    params = make_params()
    rng = random.Random(13)
    circ = random_circuit(rng, 4, 10, max_denom_exp=3)
    schedule = gen_keys(16, circ, rng)
    bundle = garble_circuit(params, circ, schedule, rng)
    state = random_state(qubit_layout(4), rng)
    encoded = encode(state, schedule, circ.input_wires)
    out, stats = eval_bundle(params, encoded, bundle)
    terms = len(encoded.terms)
    assert stats.ver_calls <= 8 * 3 * terms * stats.gates
    decoded = decode(out, schedule, circ.output_wires)
    assert fidelity(decoded, simulate(circ, state)) >= 1 - 1e-9


def test_eval_preserves_pairwise_inner_products():
    params = make_params()
    rng = random.Random(14)
    circ = random_circuit(rng, 3, 6, max_denom_exp=2)
    schedule = gen_keys(16, circ, rng)
    bundle = garble_circuit(params, circ, schedule, rng)
    a, b = random_state(qubit_layout(3), rng), random_state(qubit_layout(3), rng)
    ea = encode(a, schedule, circ.input_wires)
    eb = encode(b, schedule, circ.input_wires)
    oa, _ = eval_bundle(params, ea, bundle)
    ob, _ = eval_bundle(params, eb, bundle)
    assert inner(oa, ob) == pytest.approx(inner(ea, eb), abs=1e-12)


def test_eval_wrong_state_aborts_with_gate_index():
    params = make_params()
    rng = random.Random(15)
    schedule = gen_keys(16, ONE_TOFFOLI, rng)
    bundle = garble_circuit(params, ONE_TOFFOLI, schedule, rng)
    other = gen_keys(16, ONE_TOFFOLI, rng)   # keys the tables don't know
    state = sparse.basis_state(qubit_layout(3), 0)
    encoded = encode(state, other, ONE_TOFFOLI.input_wires)
    with pytest.raises(NoRowMatchError, match="gate 0"):
        eval_bundle(params, encoded, bundle)


def test_eval_module_never_touches_schedules():
    # privacy at the module boundary: the evaluator works from ciphertexts
    # and tags alone
    import inspect

    import rgc.evaluate as ev
    source = inspect.getsource(ev)
    assert "KeySchedule" not in source
    assert "gen_keys" not in source


# ---------------------------------------------------------------------------
# byte identity: BLAKE2b of the result state's payload in wire version 1,
# pinned from the per-term evaluator that preceded the columnar one, and in
# wire version 2; the EvalStats are pinned on their own, since they count
# work rather than describe the result

def _digest(data):
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _golden_result(circ, state, seed):
    rng = random.Random(seed)
    params = delegation.make_params(16, oracle_seed=b"golden")
    schedule = gen_keys(16, circ, rng)
    bundle = garble_circuit(params, circ, schedule, rng)
    out, stats = eval_bundle(params, encode(state, schedule, circ.input_wires), bundle)
    return _digest(wire_1_state(out)), _digest(netio.serialize_state(out)), stats


def test_result_bytes_pinned_for_phase_circuit():
    rng = random.Random(2024)
    circ = random_circuit(rng, 4, 24, max_denom_exp=3)
    state = random_state(qubit_layout(4), rng)
    assert {g.denom_exp for g in circ.gates if isinstance(g, Phase)} == {0, 1, 2, 3}
    digest, wire_2_digest, stats = _golden_result(circ, state, 1)
    assert digest == "29a045b741a032e55b1d45eb2aa9d8e8"
    assert wire_2_digest == "427c3e12d9ffc7b558f752b8326a0734"
    assert stats == EvalStats(gates=24, terms_processed=384, rows_tried=1708, ver_calls=668,
                              backward_ver_calls=624, erasure_checks=104)


def test_result_bytes_pinned_for_toffoli_superposition():
    circ = parse_circuit("inputs 4\ntoff 0 1 2\ntoff 1 2 3\ntoff 3 0 1\ntoff 2 3 0\ntoff 0 1 3\n")
    state = random_state(qubit_layout(4), random.Random(7), support_bits=[0, 1, 3])
    digest, wire_2_digest, stats = _golden_result(circ, state, 2)
    assert digest == "1527a49ef1ef1f6f4bc212fcb322a41c"
    assert wire_2_digest == "7b359304018927cf70fd2332f0d67c28"
    assert stats == EvalStats(gates=5, terms_processed=40, rows_tried=496, ver_calls=218,
                              backward_ver_calls=218, erasure_checks=31)


# ---------------------------------------------------------------------------
# tampered tables through eval_bundle

THREE_TOFFOLIS = parse_circuit("inputs 3\ntoff 1 2 0\ntoff 0 1 2\ntoff 0 1 2\n")


def _bundle_fixture(circ, seed):
    params = make_params()
    rng = random.Random(seed)
    schedule = gen_keys(16, circ, rng)
    bundle = garble_circuit(params, circ, schedule, rng)
    encoded = encode(random_state(qubit_layout(circ.num_inputs), rng), schedule,
                     circ.input_wires)
    return params, bundle, encoded


def _with_tables(bundle, changes):
    tables = list(bundle.tables)
    for index, table in changes.items():
        tables[index] = table
    return GarbledBundle(bundle.skeleton, tuple(tables))


def test_bundle_erasure_failure_names_the_gate():
    # gates 1 and 2 act on the same qubits, so gate 2's forward table opens
    # under gate 1's output keys; swapped in as gate 1's backward table it
    # decrypts to gate 2's outputs instead of gate 1's inputs
    params, bundle, encoded = _bundle_fixture(THREE_TOFFOLIS, 16)
    one, two = bundle.tables[1], bundle.tables[2]
    tampered = _with_tables(bundle, {1: ToffoliTables(one.forward, two.forward),
                                     2: ToffoliTables(one.backward, two.backward)})
    with pytest.raises(ErasureError, match="^gate 1: "):
        eval_bundle(params, encoded, tampered)


def test_bundle_duplicated_row_names_the_gate():
    params, bundle, encoded = _bundle_fixture(THREE_TOFFOLIS, 17)
    table = bundle.tables[2]
    forward = table.forward + table.forward[:1]     # every row kept, row 0 twice
    tampered = _with_tables(bundle, {2: ToffoliTables(forward, table.backward)})
    with pytest.raises(AmbiguousRowError, match="^gate 2: "):
        eval_bundle(params, encoded, tampered)


def test_bundle_duplicated_phase_row_names_the_gate():
    circ = parse_circuit("inputs 3\ntoff 0 1 2\nphase 2 3\n")
    params, bundle, encoded = _bundle_fixture(circ, 18)
    table = bundle.tables[1]
    rows = table.rows + table.rows[:1]
    tampered = _with_tables(bundle, {1: PhaseTable(rows)})
    with pytest.raises(AmbiguousRowError, match="^gate 1: "):
        eval_bundle(params, encoded, tampered)


# ---------------------------------------------------------------------------
# two keys per wire, and tag checks memoised across one gate's triples

def test_rigged_table_writing_a_third_key_to_a_wire_is_refused():
    # a self-consistent forward/backward table pair whose triple (1,1,1) lands
    # on a fresh key for the target wire instead of one of its two keys
    circ = parse_circuit("inputs 3\ntoff 0 1 2\ntoff 0 1 2\n")
    params = make_params()
    rng = random.Random(20)
    schedule = gen_keys(16, circ, rng)
    bundle = garble_circuit(params, circ, schedule, rng)
    gate = circ.gates[1]
    w1, w2, w3 = (schedule.pairs[w] for w in gate.in_wires)
    v1, v2, v3 = (schedule.pairs[w] for w in gate.out_wires)
    third = bytes(a ^ b ^ 0x5A for a, b in zip(v3.k0, v3.k1))
    forward, backward = [], []
    for u, v, w in product((0, 1), repeat=3):
        in_keys = (w1[u], w2[v], w3[w])
        out_keys = (v1[u], v2[v], third if u & v & w else v3[w ^ (u & v)])
        forward.append(symcrypt.triple_enc(params, *in_keys, b"".join(out_keys), rng))
        backward.append(symcrypt.triple_enc(params, *out_keys, b"".join(in_keys), rng))
    rigged = _with_tables(bundle, {1: ToffoliTables(tuple(forward), tuple(backward))})
    encoded = encode(random_state(qubit_layout(3), rng), schedule, circ.input_wires)
    assert len(encoded.terms) == 8
    with pytest.raises(EvalError, match="^gate 1: toffoli writes 3 distinct keys to one wire"):
        eval_bundle(params, encoded, rigged)


def _second_triple_ambiguity():
    """One Toffoli's tables, and its two key triples for qubits (1, 1, c),
    first and second in the evaluator's order, with the second's forward row
    appended again so that only the second triple is ambiguous."""
    params, schedule, gate, tables = _toffoli_fixture(21)
    a, b, c = (schedule.pairs[w] for w in gate.in_wires)
    first, second = sorted([(a.k1, b.k1, c.k0), (a.k1, b.k1, c.k1)], key=lambda t: t[2])
    row = next(r for r in tables.forward
               if all(symcrypt.triple_ver(params, k, i + 1, r) for i, k in enumerate(second)))
    return params, schedule, ToffoliTables(tables.forward + (row,), tables.backward), first, second


def test_ambiguity_of_a_second_triple_is_found_through_the_memo():
    params, _, tables, first, second = _second_triple_ambiguity()
    memo, stats = ({}, {}), EvalStats()
    eval_toffoli_term(params, first, tables, stats, memo)
    # the duplicate row's first two tags were checked for the first triple
    assert memo[0][(0, first[0])][8] and memo[0][(1, first[1])][8]
    checks = stats.ver_calls
    with pytest.raises(AmbiguousRowError, match="^rows .* and 8 both verify"):
        eval_toffoli_term(params, second, tables, stats, memo)
    # only the third tags of the rows whose first two tags verify are new
    assert stats.ver_calls - checks == 3


def test_bundle_ambiguity_of_a_second_triple_names_the_gate():
    params, schedule, tables, _, _ = _second_triple_ambiguity()
    bundle = garble_circuit(params, ONE_TOFFOLI, schedule, random.Random(0))
    bundle = _with_tables(bundle, {0: tables})
    state = sparse.from_terms(qubit_layout(3), {0b011: 0.6, 0b111: 0.8})
    with pytest.raises(AmbiguousRowError, match="^gate 0: "):
        eval_bundle(params, encode(state, schedule, ONE_TOFFOLI.input_wires), bundle)


CONST_TOFFOLI = parse_circuit("inputs 3\nconst 0\ntoff 0 1 2\ntoff 1 0 2\n")


def test_constant_register_holding_two_keys_is_refused():
    params, rng = make_params(), random.Random(41)
    schedule = gen_keys(16, CONST_TOFFOLI, rng)
    bundle = garble_circuit(params, CONST_TOFFOLI, schedule, rng)
    state = sparse.from_terms(qubit_layout(3), {0b001: 0.6, 0b000: 0.8})
    with pytest.raises(EvalError, match="constant register 0 holds 2 distinct keys"):
        eval_bundle(params, encode(state, schedule, CONST_TOFFOLI.input_wires), bundle)


def test_constant_at_zero_opens_no_half_table_row():
    # what a secret bit declared constant would do: its 0 key opens nothing
    params, rng = make_params(), random.Random(42)
    schedule = gen_keys(16, CONST_TOFFOLI, rng)
    bundle = garble_circuit(params, CONST_TOFFOLI, schedule, rng)
    assert [len(t.forward) for t in bundle.tables] == [4, 4]
    state = sparse.from_terms(qubit_layout(3), {0b010: 0.6, 0b110: 0.8})
    with pytest.raises(NoRowMatchError, match="^gate 0: "):
        eval_bundle(params, encode(state, schedule, CONST_TOFFOLI.input_wires), bundle)

# ---------------------------------------------------------------------------
# properties over random circuits

@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(circuits_and_states())
def test_eval_matches_simulation_property(case):
    circ, support, seed = case
    params = make_params()
    rng = random.Random(seed)
    state = input_state(circ, support, rng)
    schedule = gen_keys(16, circ, rng)
    bundle = garble_circuit(params, circ, schedule, rng)
    out, stats = eval_bundle(params, encode(state, schedule, circ.input_wires), bundle)
    decoded = decode(out, schedule, circ.output_wires, flipped_wires(circ))
    assert fidelity(decoded, simulate(circ, state)) >= 1 - 1e-12
    assert stats.terms_processed == len(bundle.skeleton.gates) * len(state.terms)
    toffolis = sum(isinstance(g, Toffoli) for g in circ.gates)
    assert toffolis <= stats.erasure_checks <= 8 * toffolis


def test_symcrypt_call_counts_match_the_bench_layer_metrics(monkeypatch):
    # The bench's tracer wraps these rgc.symcrypt functions by name and reads
    # its per-layer counts from their calls: one triple_enc per Toffoli row,
    # one kdm_ver per tag check counted in EvalStats, one triple_dec per
    # forward and per backward row opened for each distinct key triple.
    calls = Counter()
    for name in ("triple_enc", "kdm_enc", "kdm_ver", "triple_dec", "kdm_dec"):
        def counting(*args, _fn=getattr(symcrypt, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(symcrypt, name, counting)
    circ = parse_circuit("inputs 3\ntoff 0 1 2\nphase 1 2\ntoff 2 0 1\nphase 0 1 neg\n")
    params = make_params()
    rng = random.Random(31)
    schedule = gen_keys(16, circ, rng)
    bundle = garble_circuit(params, circ, schedule, rng)
    assert calls == {"triple_enc": 16 * 2, "kdm_enc": 2 * 2}

    calls.clear()
    state = random_state(qubit_layout(3), rng)
    assert len(state.terms) == 8       # every Toffoli meets all 8 key triples
    _, stats = eval_bundle(params, encode(state, schedule, circ.input_wires), bundle)
    assert stats.erasure_checks == 8 * 2
    assert calls["kdm_ver"] == stats.ver_calls + stats.backward_ver_calls
    assert calls["triple_dec"] == 2 * stats.erasure_checks
    assert calls["kdm_dec"] == 2 * 2   # each phase gate opens one row per key
    assert set(calls) == {"kdm_ver", "triple_dec", "kdm_dec"}

    # a public constant control halves both tables: 4 + 4 rows
    calls.clear()
    const = parse_circuit("inputs 3\nconst 0\ntoff 0 1 2\n")
    schedule = gen_keys(16, const, rng)
    bundle = garble_circuit(params, const, schedule, rng)
    assert calls == {"triple_enc": 8}
    calls.clear()
    state = input_state(const, [1, 2], rng)
    _, stats = eval_bundle(params, encode(state, schedule, const.input_wires), bundle)
    assert stats.erasure_checks == 4
    assert calls["kdm_ver"] == stats.ver_calls + stats.backward_ver_calls
    assert calls["triple_dec"] == 2 * stats.erasure_checks
