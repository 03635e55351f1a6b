import hashlib
import math
import random
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings

from rgc import delegation, netio, sparse, symcrypt
from rgc.circuit import (Phase, Toffoli, allocate_wires, flipped_wires,
                         parse_circuit, phase, random_circuit, simulate)
from rgc.encoding import decode, encode, gen_keys
from rgc.evaluate import (AmbiguousRowError, ErasureError, EvalError, EvalStats,
                          NoRowMatchError, eval_bundle, eval_toffoli_term)
from rgc.garble import GarbledBundle, Table, ToffoliTables, garble_circuit, garble_toffoli
from rgc.sparse import fidelity, inner, qubit_layout, random_state

from conftest import circuits_and_states, input_state, make_params, wire_1_state

ONE_TOFFOLI = parse_circuit("inputs 3\ntoff 0 1 2\n")


def _table(params, slot_keys, rows, rng):
    """A table under a fresh nonce whose header slot i lists ``slot_keys[i]``
    in that order, and whose ``rows`` (keys, payload) sit where the keys'
    positions index them; an index no row takes holds zeros."""
    nonce = rng.randbytes(params.kappa_bytes)
    header = tuple(symcrypt.header_slot(params, keys, nonce, slot)
                   for slot, keys in enumerate(slot_keys))
    table = [bytes(len(rows[0][1]))] * math.prod(map(len, slot_keys))
    for keys, payload in rows:
        index = 0
        for slot, key in zip(slot_keys, keys):
            index = index * len(slot) + slot.index(key)
        table[index] = symcrypt.row_enc(params, keys, payload, nonce, index)
    return Table(nonce, header, tuple(table))


def _toffoli_tables(params, gate, schedule, rng, third=None, last_slot=None):
    """Honest Toffoli tables with headers in logical order, except that the
    (1, 1, 1) triple is sent to ``third`` in place of its target key when
    given, and the forward header's last slot lists ``last_slot`` if given."""
    ins = [schedule.pairs[w] for w in gate.in_wires]
    outs = [schedule.pairs[w] for w in gate.out_wires]
    forward, backward = [], []
    for u, v, w in product((0, 1), repeat=3):
        in_keys = (ins[0][u], ins[1][v], ins[2][w])
        out_keys = (outs[0][u], outs[1][v], third if third and u & v & w else outs[2][w ^ (u & v)])
        forward.append((in_keys, b"".join(out_keys)))
        backward.append((out_keys, b"".join(in_keys)))
    out_slot = tuple(outs[2]) + ((third,) if third else ())
    return ToffoliTables(_table(params, [ins[0], ins[1], last_slot or ins[2]], forward, rng),
                         _table(params, [outs[0], outs[1], out_slot], backward, rng))


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
    # a slot listing one key's digest twice: the key indexes two rows
    params, schedule, gate, tables = _toffoli_fixture(4)
    t, nonce = params.digest_bytes, tables.forward.nonce
    triple = tuple(schedule.pairs[w].k0 for w in gate.in_wires)
    for slot in range(3):
        header = list(tables.forward.header)
        (pos,) = symcrypt.slot_positions(params, triple[slot], nonce, slot, header[slot])
        header[slot] = header[slot][pos * t:(pos + 1) * t] * 2
        dup = ToffoliTables(Table(nonce, tuple(header), tables.forward.rows), tables.backward)
        with pytest.raises(AmbiguousRowError, match=f"of header slot {slot} both match"):
            eval_toffoli_term(params, triple, dup)


def test_erasure_violation_detected():
    params, schedule, gate, tables = _toffoli_fixture(5)
    rng = random.Random(7)
    # backward rows from a different garbling decrypt to the same input keys,
    # so rebuild the backward table with a *wrong* payload instead
    honest = _toffoli_tables(params, gate, schedule, rng)
    outs = [schedule.pairs[w] for w in gate.out_wires]
    wrong = [((outs[0][u], outs[1][v], outs[2][w ^ (u & v)]), bytes(6))
             for u, v, w in product((0, 1), repeat=3)]
    broken = ToffoliTables(honest.forward, _table(params, outs, wrong, rng))
    triple = tuple(schedule.pairs[w].k0 for w in gate.in_wires)
    assert eval_toffoli_term(params, triple, honest)
    with pytest.raises(ErasureError):
        eval_toffoli_term(params, triple, broken)
    # backward rows out of order open under the wrong keys
    shuffled = ToffoliTables(tables.forward, Table(tables.backward.nonce, tables.backward.header,
                                                   tables.backward.rows[::-1]))
    with pytest.raises(ErasureError):
        eval_toffoli_term(params, triple, shuffled)


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
# work rather than describe the result (header lookups and rows opened since
# bundle format 5)

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
    assert stats == EvalStats(gates=24, terms_processed=384, rows_tried=408, ver_calls=100,
                              backward_ver_calls=78, erasure_checks=104)


def test_result_bytes_pinned_for_toffoli_superposition():
    circ = parse_circuit("inputs 4\ntoff 0 1 2\ntoff 1 2 3\ntoff 3 0 1\ntoff 2 3 0\ntoff 0 1 3\n")
    state = random_state(qubit_layout(4), random.Random(7), support_bits=[0, 1, 3])
    digest, wire_2_digest, stats = _golden_result(circ, state, 2)
    assert digest == "1527a49ef1ef1f6f4bc212fcb322a41c"
    assert wire_2_digest == "7b359304018927cf70fd2332f0d67c28"
    assert stats == EvalStats(gates=5, terms_processed=40, rows_tried=121, ver_calls=29,
                              backward_ver_calls=30, erasure_checks=31)


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


def _first_digest_twice(params, table):
    """The table with its first slot's first digest in both positions: the
    key it matches indexes two rows, and the other key none."""
    t = params.digest_bytes
    return Table(table.nonce, (table.header[0][:t] * 2,) + table.header[1:], table.rows)


def test_bundle_duplicated_row_names_the_gate():
    params, bundle, encoded = _bundle_fixture(THREE_TOFFOLIS, 17)
    table = bundle.tables[2]
    forward = _first_digest_twice(params, table.forward)
    tampered = _with_tables(bundle, {2: ToffoliTables(forward, table.backward)})
    with pytest.raises((AmbiguousRowError, NoRowMatchError), match="^gate 2: "):
        eval_bundle(params, encoded, tampered)


def test_bundle_duplicated_phase_row_names_the_gate():
    circ = parse_circuit("inputs 3\ntoff 0 1 2\nphase 2 3\n")
    params, bundle, encoded = _bundle_fixture(circ, 18)
    tampered = _with_tables(bundle, {1: _first_digest_twice(params, bundle.tables[1])})
    with pytest.raises((AmbiguousRowError, NoRowMatchError), match="^gate 1: "):
        eval_bundle(params, encoded, tampered)


# ---------------------------------------------------------------------------
# two keys per wire, and header lookups memoised across one gate's triples

def test_rigged_table_writing_a_third_key_to_a_wire_is_refused():
    # a self-consistent forward/backward table pair whose triple (1,1,1) lands
    # on a fresh key for the target wire instead of one of its two keys
    circ = parse_circuit("inputs 3\ntoff 0 1 2\ntoff 0 1 2\n")
    params = make_params()
    rng = random.Random(20)
    schedule = gen_keys(16, circ, rng)
    bundle = garble_circuit(params, circ, schedule, rng)
    gate = circ.gates[1]
    v3 = schedule.pairs[gate.out_wires[2]]
    third = bytes(a ^ b ^ 0x5A for a, b in zip(v3.k0, v3.k1))
    # the backward header's target slot lists the third key too, so every
    # triple passes its erasure check
    rigged = _with_tables(bundle, {1: _toffoli_tables(params, gate, schedule, rng, third)})
    encoded = encode(random_state(qubit_layout(3), rng), schedule, circ.input_wires)
    assert len(encoded.terms) == 8
    with pytest.raises(EvalError, match="^gate 1: toffoli writes 3 distinct keys to one wire"):
        eval_bundle(params, encoded, rigged)


def _second_triple_ambiguity():
    """One Toffoli's tables, and its two key triples for qubits (1, 1, c),
    first and second in the evaluator's order, with the forward header's
    last slot listing the second's key twice, after the first's, so that
    only the second triple is ambiguous."""
    params, schedule, gate, _ = _toffoli_fixture(21)
    a, b, c = (schedule.pairs[w] for w in gate.in_wires)
    first, second = sorted([(a.k1, b.k1, c.k0), (a.k1, b.k1, c.k1)], key=lambda t: t[2])
    tables = _toffoli_tables(params, gate, schedule, random.Random(22),
                             last_slot=(first[2], second[2], second[2]))
    return params, schedule, tables, first, second


def test_ambiguity_of_a_second_triple_is_found_through_the_memo():
    params, _, tables, first, second = _second_triple_ambiguity()
    memo, stats = ({}, {}), EvalStats()
    eval_toffoli_term(params, first, tables, stats, memo)
    # the first triple's positions are remembered, slot by slot
    assert {slot: memo[0][(slot, key)] for slot, key in enumerate(first)} == {0: 1, 1: 1, 2: 0}
    checks = stats.ver_calls
    with pytest.raises(AmbiguousRowError, match="^digests 1 and 2 of header slot 2 both match"):
        eval_toffoli_term(params, second, tables, stats, memo)
    # only the last slot's key is new
    assert stats.ver_calls - checks == 1


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
    assert [len(t.forward.rows) for t in bundle.tables] == [4, 4]
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


def test_symcrypt_call_counts_match_the_bench_layer_metrics():
    # The bench reads oracle.client_queries and oracle.server_queries from
    # the oracle family's counts.  The client makes 1 query per row and 1
    # per header digest; the server 1 per (table, slot, distinct key) it
    # looks up and 1 per row it opens.  EvalStats counts the lookups as
    # ver_calls and backward_ver_calls, and rows_tried adds the rows opened.
    def run(text, support):
        circ = parse_circuit(text)
        params = make_params()
        rng = random.Random(31)
        schedule = gen_keys(16, circ, rng)
        bundle = garble_circuit(params, circ, schedule, rng)
        client = params.oracles.query_count()
        state = input_state(circ, support, rng)
        _, stats = eval_bundle(params, encode(state, schedule, circ.input_wires), bundle)
        server = params.oracles.query_count() - client
        assert server == stats.rows_tried
        return len(state.terms), client, server, stats

    # every Toffoli meets all 8 key triples: per table 6 digests and 8 rows
    # on both sides; a phase gate has 2 digests and 2 rows, and opens both
    terms, client, server, stats = run(
        "inputs 3\ntoff 0 1 2\nphase 1 2\ntoff 2 0 1\nphase 0 1 neg\n", [0, 1, 2])
    assert terms == 8
    assert client == 2 * 2 * (8 + 6) + 2 * (2 + 2) == 64
    assert server == 2 * 2 * (6 + 8) + 2 * (2 + 2) == 64
    assert stats == EvalStats(gates=4, terms_processed=32, rows_tried=2 * 2 * (6 + 8) + 2 * 4,
                              ver_calls=2 * 6 + 2 * 2, backward_ver_calls=2 * 6,
                              erasure_checks=2 * 8)

    # a public constant control halves both tables to 4 rows, and its slot
    # holds 1 digest: per table 5 digests and 4 rows
    terms, client, server, stats = run("inputs 3\nconst 0\ntoff 0 1 2\n", [1, 2])
    assert terms == 4
    assert client == 2 * (4 + 5) == server == 18
    assert stats == EvalStats(gates=1, terms_processed=4, rows_tried=2 * (5 + 4),
                              ver_calls=5, backward_ver_calls=5, erasure_checks=4)
