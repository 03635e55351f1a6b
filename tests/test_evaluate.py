import cmath
import copy
import hashlib
import math
import random
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rgc import delegation, netio, sparse, symcrypt
from rgc.circuit import (DEFAULT_MAX_DENOM_EXP, Phase, Toffoli, allocate_wires, parse_circuit,
                         phase, random_circuit, simulate, toff, x)
from rgc.encoding import decode, encode, gen_keys
from rgc.evaluate import (AmbiguousRowError, ErasureError, EvalError, EvalStats,
                          NoRowMatchError, PhaseCounter, eval_bundle, eval_toffoli_term)
from rgc.garble import GarbledBundle, Table, garble_circuit, garble_toffoli
from rgc.sparse import descents, fidelity, inner, qubit_layout, random_state

from conftest import (circuits_and_states, gate_keys, input_state, make_params, sparse_of,
                      wire_1_state, wire_2_state)

ONE_TOFFOLI = parse_circuit("inputs 3\ntoff 0 1 2\n")


def _table(params, slot_keys, rows, rng):
    """A table under a fresh nonce whose header slot i lists ``slot_keys[i]``
    in that order, and whose ``rows`` (keys, payload) sit where the keys'
    positions index them; an index no row takes holds zeros."""
    nonce = rng.randbytes(params.kappa_bytes)
    header = symcrypt.table_header(params, nonce, slot_keys)
    table = [bytes(len(rows[0][1]))] * math.prod(map(len, slot_keys))
    for keys, payload in rows:
        index = 0
        for slot, key in zip(slot_keys, keys):
            index = index * len(slot) + slot.index(key)
        table[index] = symcrypt.row_enc(params, keys, payload, nonce, index)
    return Table(nonce, header, tuple(table))


def _toffoli_tables(params, ins, outs, rng, third=None, last_slot=None):
    """Honest Toffoli tables over the key pairs ``ins`` and ``outs`` with
    headers in logical order, except that the (1, 1, 1) triple is sent to
    ``third`` in place of its target key when given, and the forward
    header's last slot lists ``last_slot`` if given."""
    forward, backward = [], []
    for u, v, w in product((0, 1), repeat=3):
        in_keys = (ins[0][u], ins[1][v], ins[2][w])
        out_keys = (outs[0][u], outs[1][v], third if third and u & v & w else outs[2][w ^ (u & v)])
        forward.append((in_keys, b"".join(out_keys)))
        backward.append((out_keys, b"".join(in_keys)))
    out_slot = tuple(outs[2]) + ((third,) if third else ())
    return (_table(params, [ins[0], ins[1], last_slot or ins[2]], forward, rng),
            _table(params, [outs[0], outs[1], out_slot], backward, rng))


def _toffoli_fixture(seed=1):
    params = make_params()
    rng = random.Random(seed)
    schedule = gen_keys(16, ONE_TOFFOLI, rng)
    ins, outs = gate_keys(ONE_TOFFOLI, schedule)
    return params, schedule, ins, outs, garble_toffoli(params, ONE_TOFFOLI.gates[0], ins,
                                                       outs, rng)


def test_term_translation_full_truth_table():
    params, _, in_pairs, out_pairs, tables = _toffoli_fixture()
    for u, v, w in product((0, 1), repeat=3):
        got = eval_toffoli_term(params, (in_pairs[0][u], in_pairs[1][v], in_pairs[2][w]),
                                tables)
        assert got == (out_pairs[0][u], out_pairs[1][v], out_pairs[2][w ^ (u & v)])


def test_term_translation_one_one_one():
    params, _, in_pairs, out_pairs, tables = _toffoli_fixture(2)
    triple = tuple(pair.k1 for pair in in_pairs)
    out = eval_toffoli_term(params, triple, tables)
    assert out == (out_pairs[0][1], out_pairs[1][1], out_pairs[2][0])   # 1 xor 1*1


def test_garbage_triple_never_matches():
    params, _, in_pairs, _, tables = _toffoli_fixture(3)
    rng = random.Random(99)
    real = {pair[b] for pair in in_pairs for b in (0, 1)}
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
    params, _, in_pairs, _, tables = _toffoli_fixture(4)
    t, nonce = params.digest_bytes, tables[0].nonce
    triple = tuple(pair.k0 for pair in in_pairs)
    for slot in range(3):
        header = list(tables[0].header)
        (pos,) = symcrypt.slot_positions(params, triple[slot], nonce, slot, header[slot])
        header[slot] = header[slot][pos * t:(pos + 1) * t] * 2
        dup = (Table(nonce, tuple(header), tables[0].rows), tables[1])
        with pytest.raises(AmbiguousRowError, match=f"of header slot {slot} both match"):
            eval_toffoli_term(params, triple, dup)


def test_erasure_violation_detected():
    params, _, ins, outs, tables = _toffoli_fixture(5)
    rng = random.Random(7)
    # backward rows from a different garbling decrypt to the same input keys,
    # so rebuild the backward table with a *wrong* payload instead
    honest = _toffoli_tables(params, ins, outs, rng)
    wrong = [((outs[0][u], outs[1][v], outs[2][w ^ (u & v)]), bytes(6))
             for u, v, w in product((0, 1), repeat=3)]
    broken = (honest[0], _table(params, outs, wrong, rng))
    triple = tuple(pair.k0 for pair in ins)
    assert eval_toffoli_term(params, triple, honest)
    with pytest.raises(ErasureError):
        eval_toffoli_term(params, triple, broken)
    # backward rows out of order open under the wrong keys
    shuffled = (tables[0], Table(tables[1].nonce, tables[1].header, tables[1].rows[::-1]))
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
    decoded = decode(out, schedule, ONE_TOFFOLI.wiring.outputs)
    assert fidelity(decoded, simulate(ONE_TOFFOLI, state)) >= 1 - 1e-12
    assert stats.erasure_checks == len({
        (b & 0xFFFF, (b >> 16) & 0xFFFF, (b >> 32) & 0xFFFF) for b in sparse_of(encoded).terms})


def test_eval_amplitudes_ride_along_unchanged():
    params = make_params()
    rng = random.Random(9)
    schedule = gen_keys(16, ONE_TOFFOLI, rng)
    bundle = garble_circuit(params, ONE_TOFFOLI, schedule, rng)
    state = random_state(qubit_layout(3), rng)
    encoded = encode(state, schedule, ONE_TOFFOLI.input_wires)
    out, _ = eval_bundle(params, encoded, bundle)
    assert sorted(map(abs, out.amps)) == pytest.approx(sorted(map(abs, encoded.amps)))


def test_eval_phase_plus_state_quarter_turn():
    params = make_params()
    rng = random.Random(10)
    circ = parse_circuit("inputs 1\nphase 0 1\n")    # R_Z(pi/2)
    schedule = gen_keys(16, circ, rng)
    bundle = garble_circuit(params, circ, schedule, rng)
    plus = sparse.from_terms(qubit_layout(1), {0: 1 / math.sqrt(2), 1: 1 / math.sqrt(2)})
    out, _ = eval_bundle(params, encode(plus, schedule, circ.input_wires), bundle)
    decoded = decode(out, schedule, circ.wiring.outputs)
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
    decoded = decode(out, schedule, circ.wiring.outputs)
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
        decoded = decode(out, schedule, circ.wiring.outputs)
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
    assert out == encoded
    assert stats.gates == 0


def test_eval_leaves_its_input_unchanged_and_its_result_canonicalizes():
    # the evaluator works on a copy; its result keeps the input's term
    # order, and the wire's canonical form of it decodes the same
    params = make_params()
    rng = random.Random(19)
    circ = random_circuit(rng, 4, 12, max_denom_exp=3)
    schedule = gen_keys(16, circ, rng)
    bundle = garble_circuit(params, circ, schedule, rng)
    state = random_state(qubit_layout(4), rng)
    encoded = encode(state, schedule, circ.input_wires)
    before = copy.deepcopy(encoded)
    out, _ = eval_bundle(params, encoded, bundle)
    assert encoded == before
    wire = netio.deserialize_state(netio.serialize_state(out))
    assert wire == out.canonical() and not descents(wire.bits, wire.num_terms())
    assert sparse_of(wire).terms == sparse_of(out).terms
    assert (decode(wire, schedule, circ.wiring.outputs).terms
            == decode(out, schedule, circ.wiring.outputs).terms)


def test_decoded_terms_come_in_one_order_in_process_and_through_the_wire():
    # the evaluator keeps its input's term order and the wire sorts by code;
    # decode lists the terms by increasing basis either way, so a seeded
    # measurement of the two decoded states draws the same outcomes
    params = make_params()
    rng = random.Random(23)
    circ = random_circuit(rng, 5, 16, max_denom_exp=3)
    schedule = gen_keys(16, circ, rng)
    bundle = garble_circuit(params, circ, schedule, rng)
    out, _ = eval_bundle(params, encode(random_state(qubit_layout(5), rng), schedule,
                                        circ.input_wires), bundle)
    wire = netio.deserialize_state(netio.serialize_state(out))
    assert wire.amps != out.amps                # the wire reordered the terms
    local, remote = (decode(s, schedule, circ.wiring.outputs)
                     for s in (out, wire))
    assert list(local.terms.items()) == list(remote.terms.items())
    assert list(local.terms) == sorted(local.terms)


def test_eval_stats_search_bound():
    params = make_params()
    rng = random.Random(13)
    circ = random_circuit(rng, 4, 10, max_denom_exp=3)
    schedule = gen_keys(16, circ, rng)
    bundle = garble_circuit(params, circ, schedule, rng)
    state = random_state(qubit_layout(4), rng)
    encoded = encode(state, schedule, circ.input_wires)
    out, stats = eval_bundle(params, encoded, bundle)
    terms = encoded.num_terms()
    assert stats.ver_calls <= 8 * 3 * terms * stats.gates
    decoded = decode(out, schedule, circ.wiring.outputs)
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
    assert inner(sparse_of(oa), sparse_of(ob)) == pytest.approx(
        inner(sparse_of(ea), sparse_of(eb)), abs=1e-12)


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
# byte identity: BLAKE2b of the result state in the per-term payloads of wire
# versions 1 and 2 and in wire version 3's column payload, re-pinned when
# keys came from the key stream (the result registers hold keys), and the
# circuits with phase gates re-pinned when the evaluator came to phase each
# term once, at the end (the amplitudes moved in their last bits, by under
# 1e-15); the EvalStats are pinned on their own, since they count work
# rather than describe the result (header lookups and rows opened since
# bundle format 5), and neither change moved them

def _digest(data):
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _golden_result(circ, state, seed):
    rng = random.Random(seed)
    params = delegation.make_params(16, oracle_seed=b"golden")
    schedule = gen_keys(16, circ, rng)
    bundle = garble_circuit(params, circ, schedule, rng)
    out, stats = eval_bundle(params, encode(state, schedule, circ.input_wires), bundle)
    per_term = sparse_of(out)
    return (_digest(wire_1_state(per_term)), _digest(wire_2_state(per_term)),
            _digest(netio.serialize_state(out)), stats)


def test_result_bytes_pinned_for_phase_circuit():
    rng = random.Random(2024)
    circ = random_circuit(rng, 4, 24, max_denom_exp=3)
    state = random_state(qubit_layout(4), rng)
    assert {g.denom_exp for g in circ.gates if isinstance(g, Phase)} == {0, 1, 2, 3}
    digest, wire_2_digest, wire_3_digest, stats = _golden_result(circ, state, 1)
    assert digest == "ffb8c1d0ea767ebbeed3c0327d65e0a4"
    assert wire_2_digest == "0654d77e787cfce36f6f5ad861236918"
    assert wire_3_digest == "aadc72ee54fe8fd7ab8e2a1bed4788cb"
    assert stats == EvalStats(gates=24, terms_processed=384, rows_tried=408, ver_calls=100,
                              backward_ver_calls=78, erasure_checks=104)


def test_result_bytes_pinned_for_toffoli_superposition():
    circ = parse_circuit("inputs 4\ntoff 0 1 2\ntoff 1 2 3\ntoff 3 0 1\ntoff 2 3 0\ntoff 0 1 3\n")
    state = random_state(qubit_layout(4), random.Random(7), support_bits=[0, 1, 3])
    digest, wire_2_digest, wire_3_digest, stats = _golden_result(circ, state, 2)
    assert digest == "2ed374c1f718e28d5022f2c2e6732012"
    assert wire_2_digest == "8f62ba2887820a3f2cca5669c37186b0"
    assert wire_3_digest == "020e4ae224880646cee683faa6301309"
    assert stats == EvalStats(gates=5, terms_processed=40, rows_tried=121, ver_calls=29,
                              backward_ver_calls=30, erasure_checks=31)


def _superposition(n, count, rng):
    """A normalized random state on ``count`` distinct basis states of n qubits."""
    bases = rng.sample(range(1 << n), count)
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in bases]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return sparse.from_terms(qubit_layout(n), {b: a / norm for b, a in zip(bases, amps)})


def test_result_bytes_pinned_for_a_wide_superposition():
    # 200 terms, more than three 64-bit words of each register's bitset;
    # pinned with the earlier evaluator, which kept one uint8 per term
    rng = random.Random(2026)
    circ = random_circuit(rng, 8, 40, max_denom_exp=3)
    state = _superposition(8, 200, rng)
    assert (sum(isinstance(g, Toffoli) for g in circ.gates), len(state.terms)) == (18, 200)
    digest, wire_2_digest, wire_3_digest, stats = _golden_result(circ, state, 3)
    assert digest == "0da47f050c12f9e50a5f7c9dbc2738fd"
    assert wire_2_digest == "217d34c1d132d43c2dcedd2961a91d7e"
    assert wire_3_digest == "b79d30d3b3bdea7b5566dc038df41322"
    assert stats == EvalStats(gates=40, terms_processed=8000, rows_tried=592, ver_calls=152,
                              backward_ver_calls=108, erasure_checks=144)


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
    tampered = _with_tables(bundle, {1: (one[0], two[0]), 2: (one[1], two[1])})
    with pytest.raises(ErasureError, match="^gate 1: "):
        eval_bundle(params, encoded, tampered)


def test_forward_rows_sending_two_triples_to_one_are_refused_by_erasure():
    # forward rows send (1,1,0) where (1,1,1) goes; the backward table is
    # honest, so its one row for that output cannot erase both inputs
    params, schedule, ins, outs, _ = _toffoli_fixture(23)
    rng = random.Random(24)
    forward, backward = [], []
    for u, v, w in product((0, 1), repeat=3):
        in_keys = (ins[0][u], ins[1][v], ins[2][w])
        out_keys = (outs[0][u], outs[1][v], outs[2][w ^ (u & v)])
        sent = (outs[0][1], outs[1][1], outs[2][0]) if (u, v, w) == (1, 1, 0) else out_keys
        forward.append((in_keys, b"".join(sent)))
        backward.append((out_keys, b"".join(in_keys)))
    tables = (_table(params, ins, forward, rng), _table(params, outs, backward, rng))
    collided = (outs[0].k1, outs[1].k1, outs[2].k0)
    assert eval_toffoli_term(params, (ins[0].k1, ins[1].k1, ins[2].k1), tables) == collided
    with pytest.raises(ErasureError):
        eval_toffoli_term(params, (ins[0].k1, ins[1].k1, ins[2].k0), tables)
    bundle = _with_tables(garble_circuit(params, ONE_TOFFOLI, schedule, rng), {0: tables})
    state = sparse.from_terms(qubit_layout(3), {0b011: 0.6, 0b111: 0.8})
    with pytest.raises(ErasureError, match="^gate 0: backward row does not cancel"):
        eval_bundle(params, encode(state, schedule, ONE_TOFFOLI.input_wires), bundle)


def _first_digest_twice(params, table):
    """The table with its first slot's first digest in both positions: the
    key it matches indexes two rows, and the other key none."""
    t = params.digest_bytes
    return Table(table.nonce, (table.header[0][:t] * 2,) + table.header[1:], table.rows)


def test_bundle_duplicated_row_names_the_gate():
    params, bundle, encoded = _bundle_fixture(THREE_TOFFOLIS, 17)
    table = bundle.tables[2]
    forward = _first_digest_twice(params, table[0])
    tampered = _with_tables(bundle, {2: (forward, table[1])})
    with pytest.raises((AmbiguousRowError, NoRowMatchError), match="^gate 2: "):
        eval_bundle(params, encoded, tampered)


def test_bundle_duplicated_phase_row_names_the_gate():
    circ = parse_circuit("inputs 3\ntoff 0 1 2\nphase 2 3\n")
    params, bundle, encoded = _bundle_fixture(circ, 18)
    tampered = _with_tables(bundle, {1: (_first_digest_twice(params, bundle.tables[1][0]),)})
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
    ins, outs = gate_keys(circ, schedule, 1)
    v3 = outs[2]
    third = bytes(a ^ b ^ 0x5A for a, b in zip(v3.k0, v3.k1))
    # the backward header's target slot lists the third key too, so every
    # triple passes its erasure check
    rigged = _with_tables(bundle, {1: _toffoli_tables(params, ins, outs, rng, third)})
    encoded = encode(random_state(qubit_layout(3), rng), schedule, circ.input_wires)
    assert encoded.num_terms() == 8
    with pytest.raises(EvalError, match="^gate 1: toffoli writes 3 distinct keys to one wire"):
        eval_bundle(params, encoded, rigged)


def _second_triple_ambiguity():
    """One Toffoli's tables, and its two key triples for qubits (1, 1, c),
    first and second in the evaluator's order, with the forward header's
    last slot listing the second's key twice, after the first's, so that
    only the second triple is ambiguous."""
    params, schedule, ins, outs, _ = _toffoli_fixture(21)
    a, b, c = ins
    first, second = sorted([(a.k1, b.k1, c.k0), (a.k1, b.k1, c.k1)], key=lambda t: t[2])
    tables = _toffoli_tables(params, ins, outs, random.Random(22),
                             last_slot=(first[2], second[2], second[2]))
    return params, schedule, tables, first, second


def test_ambiguity_of_a_second_triple_is_found_through_the_memo(monkeypatch):
    params, _, tables, first, second = _second_triple_ambiguity()
    memo = ({}, {})
    eval_toffoli_term(params, first, tables, memo)
    # the first triple's positions are remembered, slot by slot
    assert {slot: memo[0][(slot, key)] for slot, key in enumerate(first)} == {0: 1, 1: 1, 2: 0}
    assert len(memo[0]) == len(memo[1]) == 3
    before = (dict(memo[0]), dict(memo[1]))
    looked_up = []
    slot_positions = symcrypt.slot_positions
    monkeypatch.setattr(symcrypt, "slot_positions",
                        lambda params, key, nonce, slot, digests: looked_up.append(slot)
                        or slot_positions(params, key, nonce, slot, digests))
    with pytest.raises(AmbiguousRowError, match="^digests 1 and 2 of header slot 2 both match"):
        eval_toffoli_term(params, second, tables, memo)
    # only the last slot's key is new: the first two are memo hits, and its
    # lookup raises before anything is stored
    assert looked_up == [2]
    assert memo == before


def test_bundle_ambiguity_of_a_second_triple_names_the_gate():
    params, schedule, tables, _, _ = _second_triple_ambiguity()
    bundle = garble_circuit(params, ONE_TOFFOLI, schedule, random.Random(0))
    bundle = _with_tables(bundle, {0: tables})
    state = sparse.from_terms(qubit_layout(3), {0b011: 0.6, 0b111: 0.8})
    with pytest.raises(AmbiguousRowError, match="^gate 0: "):
        eval_bundle(params, encode(state, schedule, ONE_TOFFOLI.input_wires), bundle)


def test_a_gate_with_two_faults_is_refused_for_its_earlier_triple():
    # Two faults in one gate: the earlier triple's backward row does not
    # erase its inputs, and the later triple's key is listed twice in the
    # forward header's last slot.  Triples are translated one at a time in
    # the evaluator's order, so the erasure failure is refused first.
    params, schedule, ins, outs, _ = _toffoli_fixture(25)
    state = sparse.from_terms(qubit_layout(3), {0b011: 0.6, 0b111: 0.8})
    encoded = encode(state, schedule, ONE_TOFFOLI.input_wires)
    first, second = encoded.values[2]        # the target register's bit 0 and bit 1 keys
    forward, backward = [], []
    for u, v, w in product((0, 1), repeat=3):
        in_keys = (ins[0][u], ins[1][v], ins[2][w])
        out_keys = (outs[0][u], outs[1][v], outs[2][w ^ (u & v)])
        forward.append((in_keys, b"".join(out_keys)))
        erased = bytes(6) if in_keys[2] == first and u & v else b"".join(in_keys)
        backward.append((out_keys, erased))
    rng = random.Random(26)
    tables = (_table(params, [ins[0], ins[1], (first, second, second)], forward, rng),
              _table(params, outs, backward, rng))
    bundle = _with_tables(garble_circuit(params, ONE_TOFFOLI, schedule, rng), {0: tables})
    with pytest.raises(EvalError) as refused:
        eval_bundle(params, encoded, bundle)
    assert refused.type is ErasureError
    assert str(refused.value) == "gate 0: backward row does not cancel the input keys"
    # each fault alone is refused as its own class
    with pytest.raises(AmbiguousRowError, match="^digests 1 and 2 of header slot 2 both match"):
        eval_toffoli_term(params, (ins[0].k1, ins[1].k1, second), tables)
    with pytest.raises(ErasureError):
        eval_toffoli_term(params, (ins[0].k1, ins[1].k1, first), tables)


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
    assert [len(t[0].rows) for t in bundle.tables] == [4, 4]
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
    decoded = decode(out, schedule, circ.wiring.outputs)
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


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(circuits_and_states())
def test_counts_taken_per_gate_match_the_work_done_property(case):
    # EvalStats is added up once per gate from its memos and its triples;
    # over constant controls, X gates and partial supports it must still
    # equal the oracle queries and slot lookups the server made
    circ, support, seed = case
    params = make_params()
    rng = random.Random(seed)
    state = input_state(circ, support, rng)
    schedule = gen_keys(16, circ, rng)
    bundle = garble_circuit(params, circ, schedule, rng)
    encoded = encode(state, schedule, circ.input_wires)
    lookups = []
    slot_positions = symcrypt.slot_positions
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symcrypt, "slot_positions",
                   lambda *args: lookups.append(args) or slot_positions(*args))
        client = params.oracles.query_count()
        _, stats = eval_bundle(params, encoded, bundle)
        server = params.oracles.query_count() - client
    assert server == stats.rows_tried
    assert len(lookups) == stats.ver_calls + stats.backward_ver_calls


@st.composite
def _wide_circuits(draw):
    """A C+P circuit of at most 12 gates on 3 to 9 qubits, a term count
    from 1 to 200 (at most 2^n) that often sits at or next to 8, 64 or 128,
    and a seed."""
    n = draw(st.integers(3, 9))
    toffoli = st.lists(st.integers(0, n - 1), min_size=3, max_size=3,
                       unique=True).map(lambda q: toff(*q))
    phase_gate = st.builds(phase, st.integers(0, n - 1), st.integers(0, 3),
                           st.sampled_from((1, -1)))
    x_gate = st.builds(x, st.integers(0, n - 1))
    gates = draw(st.lists(st.one_of(toffoli, phase_gate, x_gate), max_size=12))
    count = draw(st.one_of(st.integers(1, 200),
                           st.sampled_from((7, 8, 9, 63, 64, 65, 127, 128, 129))))
    return allocate_wires(gates, n), min(count, 1 << n), draw(st.integers(0, 2**32))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_wide_circuits())
def test_bitset_columns_match_simulation_property(case):
    circ, count, seed = case
    rng = random.Random(seed)
    state = _superposition(circ.num_inputs, count, rng)
    params = make_params()
    schedule = gen_keys(16, circ, rng)
    encoded = encode(state, schedule, circ.input_wires)
    for keys, bits in zip(encoded.values, encoded.bits):
        assert 0 <= bits < 1 << count and (bits == 0) == (len(keys) == 1)
        # increasing as little-endian ints picks the key of bit 1
        assert keys == sorted(set(keys), key=lambda key: key[::-1])
    assert not descents(encoded.bits, count)
    assert sparse_of(encoded).terms == {
        sum(int.from_bytes(schedule.pairs[w][basis >> i & 1], "little") << 16 * i
            for i, w in enumerate(circ.input_wires)): amp
        for basis, amp in state.terms.items()}
    bundle = garble_circuit(params, circ, schedule, rng)
    out, stats = eval_bundle(params, encoded, bundle)
    decoded = decode(out, schedule, circ.wiring.outputs)
    assert fidelity(decoded, simulate(circ, state)) >= 1 - 1e-12
    assert stats.terms_processed == len(bundle.skeleton.gates) * count


# ---------------------------------------------------------------------------
# the phase counter: per-term exponents as bit planes over the terms

@st.composite
def _deep_phase_circuits(draw):
    """A C+P circuit on 3 to 5 qubits of 1 to 8 phase gates of exponents 0
    to 16 and either sign, each followed by up to two Toffoli or X gates, so
    one circuit mixes exponents that the counter scales by up to 2^16; and
    a seed."""
    n = draw(st.integers(3, 5))
    toffoli = st.lists(st.integers(0, n - 1), min_size=3, max_size=3,
                       unique=True).map(lambda q: toff(*q))
    phase_gate = st.builds(phase, st.integers(0, n - 1), st.integers(0, DEFAULT_MAX_DENOM_EXP),
                           st.sampled_from((1, -1)))
    between = st.lists(st.one_of(toffoli, st.builds(x, st.integers(0, n - 1))), max_size=2)
    segments = draw(st.lists(st.tuples(phase_gate, between), min_size=1, max_size=8))
    gates = [gate for first, rest in segments for gate in (first, *rest)]
    return allocate_wires(gates, n), draw(st.integers(0, 2**32))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_deep_phase_circuits())
def test_phases_of_mixed_exponents_match_simulation_property(case):
    circ, seed = case
    rng = random.Random(seed)
    params = make_params()
    state = random_state(qubit_layout(circ.num_inputs), rng)
    schedule = gen_keys(16, circ, rng)
    bundle = garble_circuit(params, circ, schedule, rng)
    out, stats = eval_bundle(params, encode(state, schedule, circ.input_wires), bundle)
    decoded = decode(out, schedule, circ.wiring.outputs)
    assert fidelity(decoded, simulate(circ, state)) >= 1 - 1e-12
    assert stats.terms_processed == len(bundle.skeleton.gates) * len(state.terms)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, DEFAULT_MAX_DENOM_EXP), st.integers(1, 200), st.data())
def test_ripple_add_matches_per_term_addition_property(max_denom_exp, count, data):
    modulus = 2 << max_denom_exp
    counter = PhaseCounter(max_denom_exp)
    expected = [0] * count
    for _ in range(data.draw(st.integers(1, 12))):
        mask = data.draw(st.integers(0, (1 << count) - 1))
        delta = data.draw(st.integers(0, modulus - 1))
        counter.add(mask, delta)
        expected = [(e + delta) % modulus if mask >> t & 1 else e
                    for t, e in enumerate(expected)]
        assert all(plane < 1 << count for plane in counter.planes)
        assert [sum((plane >> t & 1) << j for j, plane in enumerate(counter.planes))
                for t in range(count)] == expected
    counter.scalar = data.draw(st.integers(-modulus, modulus))
    # one pass gives term t the factor omega^(scalar + its exponent)
    amps = [complex(t + 1, -t) for t in range(count)]
    turn = math.pi / (1 << max_denom_exp)
    assert counter.apply(amps) == [
        amp * cmath.exp(1j * turn * ((counter.scalar + e) % modulus))
        for amp, e in zip(amps, expected)]
