import random
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from scipy import stats as scipy_stats

from rgc import symcrypt
from rgc.circuit import Toffoli, X, allocate_wires, parse_circuit, phase, toff
from rgc.encoding import KeySchedule, WireKeyPair, gen_keys
from rgc.games import circuit_pairs
from rgc.garble import (PhaseTable, ToffoliTables, closure_pairs, garble_circuit,
                        garble_phase, garble_toffoli, phase_payload)
from rgc.netio import deserialize_circuit, serialize_circuit

from conftest import circuits_and_states, make_params

ONE_TOFFOLI = parse_circuit("inputs 3\ntoff 0 1 2\n")


def _open_row(params, keys, rows):
    hits = [row for row in rows
            if all(symcrypt.triple_ver(params, k, i + 1, row) for i, k in enumerate(keys))]
    assert len(hits) == 1, "honest key triple must select exactly one row"
    return symcrypt.triple_dec(params, *keys, hits[0])


def _tag(params, row):
    (tag,) = symcrypt.split_row(params, row)[2]
    return tag


def test_toffoli_forward_maps_truth_table():
    params = make_params()
    rng = random.Random(1)
    schedule = gen_keys(16, ONE_TOFFOLI, rng)
    gate = ONE_TOFFOLI.gates[0]
    tables = garble_toffoli(params, gate, schedule, rng)
    in_pairs = [schedule.pairs[w] for w in gate.in_wires]
    out_pairs = [schedule.pairs[w] for w in gate.out_wires]
    for u, v, w in product((0, 1), repeat=3):
        payload = _open_row(params, (in_pairs[0][u], in_pairs[1][v], in_pairs[2][w]),
                            tables.forward)
        expect = out_pairs[0][u] + out_pairs[1][v] + out_pairs[2][w ^ (u & v)]
        assert payload == expect


def test_toffoli_backward_inverts_forward():
    params = make_params()
    rng = random.Random(2)
    schedule = gen_keys(16, ONE_TOFFOLI, rng)
    gate = ONE_TOFFOLI.gates[0]
    tables = garble_toffoli(params, gate, schedule, rng)
    kb = params.kappa_bytes
    in_pairs = [schedule.pairs[w] for w in gate.in_wires]
    for u, v, w in product((0, 1), repeat=3):
        triple = (in_pairs[0][u], in_pairs[1][v], in_pairs[2][w])
        out = _open_row(params, triple, tables.forward)
        out_keys = (out[:kb], out[kb:2 * kb], out[2 * kb:])
        back = _open_row(params, out_keys, tables.backward)
        assert back == b"".join(triple)


def test_phase_rows_differ_by_one():
    params = make_params()
    rng = random.Random(3)
    circ = parse_circuit("inputs 1\nphase 0 2\n")
    schedule = gen_keys(16, circ, rng)
    gate = circ.gates[0]
    for _ in range(50):
        table = garble_phase(params, gate, schedule, rng)
        k0, k1 = schedule.pairs[gate.wire]
        values = {}
        for key, name in ((k0, 0), (k1, 1)):
            hits = [row for row in table.rows if symcrypt.kdm_ver(params, key, _tag(params, row))]
            assert len(hits) == 1
            values[name] = int.from_bytes(symcrypt.kdm_dec(params, key, hits[0]), "big")
        modulus = 2 << gate.denom_exp
        assert (values[1] - values[0]) % modulus == 1


def test_phase_z_gate_modulus_two():
    # d=0 is a bare Z: values live in Z_2 and the two rows differ mod 2
    params = make_params()
    rng = random.Random(4)
    circ = parse_circuit("inputs 1\nphase 0 0\n")
    schedule = gen_keys(16, circ, rng)
    table = garble_phase(params, circ.gates[0], schedule, rng)
    k0, k1 = schedule.pairs[0]
    vals = []
    for key in (k0, k1):
        row = next(r for r in table.rows if symcrypt.kdm_ver(params, key, _tag(params, r)))
        vals.append(int.from_bytes(symcrypt.kdm_dec(params, key, row), "big"))
    assert sorted(vals) == [0, 1]


def test_phase_offset_uniform():
    params = make_params()
    rng = random.Random(5)
    circ = parse_circuit("inputs 1\nphase 0 2\n")
    schedule = gen_keys(16, circ, rng)
    gate = circ.gates[0]
    k0 = schedule.pairs[0].k0
    counts = [0] * 8     # Z_{2n} with n = 4
    for _ in range(1000):
        table = garble_phase(params, gate, schedule, rng)
        row = next(r for r in table.rows if symcrypt.kdm_ver(params, k0, _tag(params, r)))
        counts[int.from_bytes(symcrypt.kdm_dec(params, k0, row), "big")] += 1
    assert scipy_stats.chisquare(counts).pvalue > 0.01


def test_phase_payload_width():
    assert len(phase_payload(1, 0)) == 1
    assert len(phase_payload(200, 7)) == 1
    assert len(phase_payload(300, 8)) == 2


def test_shuffle_positions_uniform():
    params = make_params()
    rng = random.Random(6)
    schedule = gen_keys(16, ONE_TOFFOLI, rng)
    gate = ONE_TOFFOLI.gates[0]
    zero_triple = tuple(schedule.pairs[w].k0 for w in gate.in_wires)
    counts = [0] * 8
    n = 1000
    for _ in range(n):
        tables = garble_toffoli(params, gate, schedule, rng)
        for idx, row in enumerate(tables.forward):
            if all(symcrypt.triple_ver(params, k, i + 1, row)
                   for i, k in enumerate(zero_triple)):
                counts[idx] += 1
                break
    assert sum(counts) == n
    assert scipy_stats.chisquare(counts).pvalue > 0.01


def test_bundle_shapes():
    params = make_params()
    rng = random.Random(7)
    empty = allocate_wires([], 2)
    bundle = garble_circuit(params, empty, gen_keys(16, empty, rng), rng)
    assert bundle.tables == ()
    assert bundle.skeleton == empty

    circ = allocate_wires([toff(0, 1, 2), phase(0, 1)], 3)
    bundle = garble_circuit(params, circ, gen_keys(16, circ, rng), rng)
    assert isinstance(bundle.tables[0], ToffoliTables)
    assert isinstance(bundle.tables[1], PhaseTable)
    # packed rows: kappa 16 and tag 128 bits give p = 2, t = 16 bytes
    toffoli_rows = bundle.tables[0].forward + bundle.tables[0].backward
    assert len(toffoli_rows) == 16 and {len(row) for row in toffoli_rows} == {9 * 2 + 3 * 16}
    assert {len(row) for row in bundle.tables[1].rows} == {2 * 2 + 16 + 1}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(circuits_and_states())
def test_skeleton_is_the_circuit_without_x_property(case):
    circ, _, seed = case
    rng = random.Random(seed)
    bundle = garble_circuit(make_params(), circ, gen_keys(16, circ, rng), rng)
    skeleton = bundle.skeleton
    assert skeleton.gates == tuple(g for g in circ.gates if not isinstance(g, X))
    assert (skeleton.num_inputs, skeleton.num_wires, skeleton.output_wires,
            skeleton.const_qubits) == \
        (circ.num_inputs, circ.num_wires, circ.output_wires, circ.const_qubits)
    assert deserialize_circuit(serialize_circuit(skeleton)) == skeleton
    assert len(bundle.tables) == len(skeleton.gates)
    for gate, table in zip(skeleton.gates, bundle.tables):
        if isinstance(gate, Toffoli):
            n = 8 >> sum(q in circ.const_qubits for q in gate.qubits[:2])
            assert len(table.forward) == len(table.backward) == n


def test_x_gates_garble_into_nothing():
    params = make_params()
    rng = random.Random(9)
    circ = parse_circuit("inputs 2\nx 0\nx 1\nx 0\n")
    bundle = garble_circuit(params, circ, gen_keys(16, circ, rng), rng)
    assert bundle.tables == () and bundle.skeleton.gates == ()


def test_x_relabels_keys_with_the_same_draws():
    # An X on an input before anything reads it garbles exactly like the
    # X-free circuit under a schedule with that input's keys swapped.
    params = make_params()
    with_x = parse_circuit("inputs 3\nx 1\ntoff 0 1 2\nphase 1 2\nx 2\nphase 2 1\n")
    x_free = parse_circuit("inputs 3\ntoff 0 1 2\nphase 1 2\nphase 2 1\n")
    schedule = gen_keys(16, with_x, random.Random(10))
    pairs = list(schedule.pairs)
    pairs[1] = WireKeyPair(pairs[1].k1, pairs[1].k0)
    swapped = KeySchedule(16, tuple(pairs))
    got = garble_circuit(params, with_x, schedule, random.Random(11))
    want = garble_circuit(params, x_free, swapped, random.Random(11))
    assert got.tables[:2] == want.tables[:2]
    assert got.skeleton == x_free
    # the last phase gate reads wire 5 after its X: rows open m+1 under k0
    k0, k1 = schedule.pairs[5]
    values = {k: int.from_bytes(symcrypt.kdm_dec(params, k, row), "big")
              for k in (k0, k1) for row in got.tables[2].rows
              if symcrypt.kdm_ver(params, k, _tag(params, row))}
    assert (values[k0] - values[k1]) % 4 == 1


def test_schedule_must_cover_circuit():
    params = make_params()
    rng = random.Random(8)
    other = parse_circuit("inputs 1\nphase 0 1\n")
    with pytest.raises(ValueError):
        garble_circuit(params, ONE_TOFFOLI, gen_keys(16, other, rng), rng)


# closure ---------------------------------------------------------------------

def test_closure_single_gate():
    assert closure_pairs({0, 1, 2}, circuit_pairs(ONE_TOFFOLI)) == frozenset(range(6))


def test_closure_partial_inputs_no_growth():
    assert closure_pairs({0, 1}, circuit_pairs(ONE_TOFFOLI)) == frozenset({0, 1})


def test_closure_ignores_phase_gates():
    circ = parse_circuit("inputs 1\nphase 0 1\n")
    assert closure_pairs({0}, circuit_pairs(circ)) == frozenset({0})


def _brute_force_closure(revealed, pairs):
    covered = set(revealed)
    for _ in range(len(pairs) + 1):       # enough rounds to saturate
        for s, t in pairs:
            if set(s) <= covered:
                covered |= set(t)
    return frozenset(covered)


def test_closure_chain_matches_brute_force():
    circ = allocate_wires([toff(0, 1, 2)] * 3, 3)
    pairs = circuit_pairs(circ)
    got = closure_pairs({0, 1, 2}, pairs)
    assert got == _brute_force_closure({0, 1, 2}, pairs)
    assert got == frozenset(range(circ.num_wires))


def test_closure_pairs_random_instances_match_oracle():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(4, 12)
        pairs = []
        for _ in range(rng.randint(1, 6)):
            src = tuple(rng.sample(range(n), 3))
            dst = tuple(rng.sample(range(n), 3))
            pairs.append((src, dst))
        revealed = set(rng.sample(range(n), rng.randint(0, n)))
        assert closure_pairs(revealed, pairs) == _brute_force_closure(revealed, pairs)


def test_row_selection_unique_across_many_garblings():
    # 10^4 garbled gates at tag_len=128: every honest triple must open exactly
    # one forward and one backward row (the term evaluator scans the full
    # table and raises on ambiguity, so running it is the check)
    from rgc.evaluate import eval_toffoli_term

    params = make_params(tag_len_bits=128)
    rng = random.Random(11)
    gate = ONE_TOFFOLI.gates[0]
    for _ in range(10_000):
        schedule = gen_keys(16, ONE_TOFFOLI, rng)
        tables = garble_toffoli(params, gate, schedule, rng)
        in_pairs = [schedule.pairs[w] for w in gate.in_wires]
        u, v, w = rng.getrandbits(1), rng.getrandbits(1), rng.getrandbits(1)
        eval_toffoli_term(params, (in_pairs[0][u], in_pairs[1][v], in_pairs[2][w]),
                          tables)


def test_reseeding_changes_rows_not_meaning():
    params = make_params()
    schedule = gen_keys(16, ONE_TOFFOLI, random.Random(10))
    gate = ONE_TOFFOLI.gates[0]
    t1 = garble_toffoli(params, gate, schedule, random.Random(1))
    t2 = garble_toffoli(params, gate, schedule, random.Random(2))
    assert t1 != t2
    triple = tuple(schedule.pairs[w].k1 for w in gate.in_wires)
    assert _open_row(params, triple, t1.forward) == _open_row(params, triple, t2.forward)
