import ast
import pathlib
import random
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from scipy import stats as scipy_stats

from rgc import delegation, garble, symcrypt
from rgc.circuit import Toffoli, X, allocate_wires, parse_circuit, phase, simulate, toff
from rgc.encoding import KeySchedule, WireKeyPair, gen_keys
from rgc.games import circuit_pairs
from rgc.garble import (closure_pairs, garble_circuit, garble_phase, garble_toffoli,
                        phase_payload)
from rgc.netio import deserialize_circuit, serialize_circuit
from rgc.sparse import fidelity

from conftest import circuits_and_states, gate_coins, gate_keys, input_state, make_params

ONE_TOFFOLI = parse_circuit("inputs 3\ntoff 0 1 2\n")


def _row_index(params, keys, table):
    """The index of the row ``keys`` open: each key must match exactly one
    digest of its slot, and the positions index the row."""
    index = 0
    for slot, (key, digests) in enumerate(zip(keys, table.header, strict=True)):
        (position,) = symcrypt.slot_positions(params, key, table.nonce, slot, digests)
        index = index * (len(digests) // params.digest_bytes) + position
    return index


def _open_row(params, keys, table):
    index = _row_index(params, keys, table)
    return symcrypt.row_dec(params, keys, table.rows[index], table.nonce, index)


def test_toffoli_forward_maps_truth_table():
    params = make_params()
    rng = random.Random(1)
    schedule = gen_keys(16, ONE_TOFFOLI, rng)
    in_pairs, out_pairs = gate_keys(ONE_TOFFOLI, schedule)
    tables = garble_toffoli(params, ONE_TOFFOLI.gates[0], in_pairs, out_pairs, rng)
    for u, v, w in product((0, 1), repeat=3):
        payload = _open_row(params, (in_pairs[0][u], in_pairs[1][v], in_pairs[2][w]),
                            tables[0])
        expect = out_pairs[0][u] + out_pairs[1][v] + out_pairs[2][w ^ (u & v)]
        assert payload == expect


def test_toffoli_backward_inverts_forward():
    params = make_params()
    rng = random.Random(2)
    schedule = gen_keys(16, ONE_TOFFOLI, rng)
    in_pairs, out_pairs = gate_keys(ONE_TOFFOLI, schedule)
    tables = garble_toffoli(params, ONE_TOFFOLI.gates[0], in_pairs, out_pairs, rng)
    kb = params.kappa_bytes
    for u, v, w in product((0, 1), repeat=3):
        triple = (in_pairs[0][u], in_pairs[1][v], in_pairs[2][w])
        out = _open_row(params, triple, tables[0])
        out_keys = (out[:kb], out[kb:2 * kb], out[2 * kb:])
        back = _open_row(params, out_keys, tables[1])
        assert back == b"".join(triple)


def test_phase_rows_differ_by_one():
    params = make_params()
    rng = random.Random(3)
    circ = parse_circuit("inputs 1\nphase 0 2\n")
    schedule = gen_keys(16, circ, rng)
    gate = circ.gates[0]
    (pair,), _ = gate_keys(circ, schedule)
    for _ in range(50):
        (table,) = garble_phase(params, gate, pair, rng)
        k0, k1 = pair
        values = {}
        for key, name in ((k0, 0), (k1, 1)):
            values[name] = int.from_bytes(_open_row(params, (key,), table), "big")
        modulus = 2 << gate.denom_exp
        assert (values[1] - values[0]) % modulus == 1


def test_phase_z_gate_modulus_two():
    # d=0 is a bare Z: values live in Z_2 and the two rows differ mod 2
    params = make_params()
    rng = random.Random(4)
    circ = parse_circuit("inputs 1\nphase 0 0\n")
    schedule = gen_keys(16, circ, rng)
    (table,) = garble_phase(params, circ.gates[0], schedule.keys(0), rng)
    k0, k1 = schedule.pairs[0]
    vals = []
    for key in (k0, k1):
        vals.append(int.from_bytes(_open_row(params, (key,), table), "big"))
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
        (table,) = garble_phase(params, gate, schedule.keys(0), gate_coins(params, rng))
        counts[int.from_bytes(_open_row(params, (k0,), table), "big")] += 1
    assert scipy_stats.chisquare(counts).pvalue > 0.01


def test_phase_payload_width():
    assert len(phase_payload(1, 0)) == 1
    assert len(phase_payload(200, 7)) == 1
    assert len(phase_payload(300, 8)) == 2


def test_shuffle_positions_uniform():
    # the row of a fixed triple sits at a uniform index in both tables: the
    # header order is three fresh bits per table
    params = make_params()
    rng = random.Random(6)
    schedule = gen_keys(16, ONE_TOFFOLI, rng)
    gate = ONE_TOFFOLI.gates[0]
    ins, outs = gate_keys(ONE_TOFFOLI, schedule)
    zero_triple = tuple(pair.k0 for pair in ins)
    zero_out = tuple(pair.k0 for pair in outs)
    counts = {"forward": [0] * 8, "backward": [0] * 8, "both": [0] * 64}
    for _ in range(1000):
        tables = garble_toffoli(params, gate, ins, outs, gate_coins(params, rng))
        forward = _row_index(params, zero_triple, tables[0])
        backward = _row_index(params, zero_out, tables[1])
        counts["forward"][forward] += 1
        counts["backward"][backward] += 1
        counts["both"][8 * forward + backward] += 1
    for name, observed in counts.items():
        assert scipy_stats.chisquare(observed).pvalue > 0.01, name


def test_header_slots_hold_each_wire_key_once():
    params = make_params()
    rng = random.Random(12)
    circ = parse_circuit("inputs 3\nconst 0\ntoff 0 1 2\nphase 2 1\n")
    schedule = gen_keys(16, circ, rng)
    bundle = garble_circuit(params, circ, schedule, rng)
    toffoli, (phase_table,) = bundle.tables
    p, t = params.kappa_bytes, params.digest_bytes
    for table, pairs in zip(toffoli, gate_keys(circ, schedule)):
        assert len(table.nonce) == p
        assert [len(slot) for slot in table.header] == [t, 2 * t, 2 * t]
        k0, k1 = pairs[0]
        # the constant's slot holds its 1 key alone
        assert symcrypt.slot_positions(params, k1, table.nonce, 0, table.header[0]) == [0]
        assert symcrypt.slot_positions(params, k0, table.nonce, 0, table.header[0]) == []
        for slot, pair in enumerate(pairs[1:], start=1):
            positions = [symcrypt.slot_positions(params, k, table.nonce, slot, table.header[slot])
                         for k in pair]
            assert sorted(positions) == [[0], [1]]
    assert toffoli[0].nonce != toffoli[1].nonce
    assert len(phase_table.header) == 1 and len(phase_table.rows) == 2
    positions = [symcrypt.slot_positions(params, k, phase_table.nonce, 0, phase_table.header[0])
                 for k in gate_keys(circ, schedule, 1)[0][0]]
    assert sorted(positions) == [[0], [1]]


def _names(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_the_table_layout_is_stated_in_garble_alone():
    """table_shapes is the one statement of a gate's tables: the wire
    format, the games and the CLI read it and never restate it, and the
    wire format's table layout has no branch on a gate's type."""
    src = pathlib.Path(garble.__file__).parent
    restated = {"toffoli_slots", "phase_payload_bytes", "ToffoliTables"}
    for name in ("netio", "games", "cli"):
        tree = ast.parse((src / f"{name}.py").read_text())
        assert not restated & _names(tree), f"{name}.py names {restated & _names(tree)}"
        if name == "netio":
            (layout,) = [node for node in ast.walk(tree)
                         if isinstance(node, ast.ClassDef) and node.name == "_TableLayout"]
            assert not {"Toffoli", "Phase"} & _names(layout)


# a Mersenne Twister draw, as a call's name: the class, rand_bytes and the
# random.Random methods that draw (a gate's coins are read with randbytes,
# which garble_circuit serves from the key stream)
_MT_DRAWS = {"Random", "rand_bytes", "getrandbits", "randrange", "randint", "random",
             "choice", "choices", "shuffle", "sample", "seed"}


def _mt_draws(path: pathlib.Path, names: set[str] | None) -> dict[str, list[ast.Call]]:
    """Per function of the module at ``path`` (those in ``names``, or all),
    its calls of a name in ``_MT_DRAWS``."""
    draws = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.FunctionDef) and (names is None or node.name in names):
            draws[node.name] = [
                call for call in ast.walk(node) if isinstance(call, ast.Call)
                and (call.func.attr if isinstance(call.func, ast.Attribute)
                     else getattr(call.func, "id", None)) in _MT_DRAWS]
    return draws


def test_no_mersenne_twister_draw_on_the_keygen_encode_or_garble_path():
    """gen_keys and garble_circuit each draw one 256-bit secret from their
    caller's rng, and nothing else on the path builds or draws from a
    Mersenne Twister: every key, nonce, permute bit and phase offset is
    read from the key stream."""
    src = pathlib.Path(garble.__file__).parent
    draws = {**_mt_draws(src / "encoding.py", {"gen_keys", "encode"}),
             **_mt_draws(src / "garble.py", None)}
    assert {"gen_keys", "encode", "garble_circuit", "garble_toffoli", "garble_phase",
            "_header"} <= set(draws)
    for name, calls in draws.items():
        secret = 1 if name in ("gen_keys", "garble_circuit") else 0
        assert len(calls) == secret, f"{name} draws {[ast.unparse(c) for c in calls]}"
        for call in calls:
            assert ast.unparse(call) == "rng.getrandbits(256)", name


def test_a_nonce_redraw_changes_its_table_alone(monkeypatch):
    # force equal digests in the first slot of the first header built: the
    # garbler reads that table's nonce again, and every other table,
    # the gate's own backward table included, keeps its bytes
    params = make_params(tag_len_bits=16)
    circ = parse_circuit("inputs 3\ntoff 0 1 2\nphase 2 1\ntoff 1 2 0\nphase 0 3\n")
    schedule = gen_keys(16, circ, random.Random(50))
    honest = garble_circuit(params, circ, schedule, random.Random(51))
    header_of = symcrypt.table_header
    built = []

    def colliding(params, nonce, slot_keys):
        header = header_of(params, nonce, slot_keys)
        built.append(nonce)
        if len(built) == 1:
            header = (header[0][:params.digest_bytes] * 2,) + header[1:]
        return header

    monkeypatch.setattr(symcrypt, "table_header", colliding)
    forced = garble_circuit(params, circ, schedule, random.Random(51))
    tables = [(a, b) for pair in zip(honest.tables, forced.tables) for a, b in zip(*pair)]
    assert [a == b for a, b in tables] == [False] + [True] * 5
    a, b = tables[0]
    assert b.nonce == built[1] != a.nonce == built[0]
    in_pairs, out_pairs = gate_keys(circ, schedule)
    out = _open_row(params, [pair.k1 for pair in in_pairs], b)
    assert out == out_pairs[0].k1 + out_pairs[1].k1 + out_pairs[2].k0


def test_bundle_shapes():
    params = make_params()
    rng = random.Random(7)
    empty = allocate_wires([], 2)
    bundle = garble_circuit(params, empty, gen_keys(16, empty, rng), rng)
    assert bundle.tables == ()
    assert bundle.skeleton == empty

    circ = allocate_wires([toff(0, 1, 2), phase(0, 1)], 3)
    bundle = garble_circuit(params, circ, gen_keys(16, circ, rng), rng)
    assert [len(tables) for tables in bundle.tables] == [2, 1]
    # kappa 16 and tag 128 bits give p = 2, t = 16 bytes: nonces of p, slots
    # of 2t, Toffoli rows of 3p and phase rows of their 1-byte payload
    toffoli, phase_tables = bundle.tables
    assert [len(table.nonce) for table in toffoli + phase_tables] == [2] * 3
    assert [len(slot) for table in toffoli for slot in table.header] == [2 * 16] * 6
    assert [len(row) for table in toffoli for row in table.rows] == [3 * 2] * 16
    assert [len(slot) for slot in bundle.tables[1][0].header] == [2 * 16]
    assert [len(row) for row in bundle.tables[1][0].rows] == [1] * 2


class _CountedCoins:
    """A gate's coins from a fixed rng, counting the reads: a second read
    is a nonce redraw."""

    def __init__(self, seed):
        self.rng, self.reads = random.Random(seed), 0

    def randbytes(self, n):
        self.reads += 1
        return self.rng.randbytes(n)


@pytest.mark.parametrize("consts, queries", [((), 28), ((0,), 18), ((1,), 18), ((0, 1), 12)],
                         ids=["no-constant", "constant-a", "constant-b", "two-constants"])
def test_a_toffoli_costs_its_digests_and_rows_in_queries(consts, queries):
    # per table one digest per key in each slot and one mask per row: 2 x
    # (6 + 8) queries, and a constant control drops a digest per table and
    # halves the rows
    params = make_params(kappa_bits=56, tag_len_bits=16)
    schedule = gen_keys(56, ONE_TOFFOLI, random.Random(60))
    in_pairs, out_pairs = gate_keys(ONE_TOFFOLI, schedule)
    coins = _CountedCoins(61)
    garble_toffoli(params, ONE_TOFFOLI.gates[0], in_pairs, out_pairs, coins, consts)
    assert coins.reads == 1
    assert params.oracles.query_count() == queries


def test_a_phase_gate_costs_four_queries():
    # two digests in its one slot and two row masks
    params = make_params(tag_len_bits=16)
    circ = parse_circuit("inputs 1\nphase 0 3\n")
    schedule = gen_keys(16, circ, random.Random(62))
    coins = _CountedCoins(63)
    garble_phase(params, circ.gates[0], gate_keys(circ, schedule)[0][0], coins)
    assert coins.reads == 1
    assert params.oracles.query_count() == 4


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(circuits_and_states())
def test_skeleton_is_the_circuit_without_x_property(case):
    circ, _, seed = case
    rng = random.Random(seed)
    bundle = garble_circuit(make_params(), circ, gen_keys(16, circ, rng), rng)
    skeleton = bundle.skeleton
    assert skeleton.gates == tuple(g for g in circ.gates if not isinstance(g, X))
    assert (skeleton.num_inputs, skeleton.num_wires, skeleton.const_qubits) == \
        (circ.num_inputs, circ.num_wires, circ.const_qubits)
    assert deserialize_circuit(serialize_circuit(skeleton)) == skeleton
    assert len(bundle.tables) == len(skeleton.gates)
    for gate, table in zip(skeleton.gates, bundle.tables):
        if isinstance(gate, Toffoli):
            n = 8 >> sum(q in circ.const_qubits for q in gate.qubits[:2])
            assert len(table[0].rows) == len(table[1].rows) == n


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
    values = {k: int.from_bytes(_open_row(params, (k,), got.tables[2][0]), "big")
              for k in (k0, k1)}
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


def _evaluate_many_garblings(tag_len_bits):
    # 10^4 garbled gates: every honest triple must match exactly one digest
    # per header slot, forward and backward (the term evaluator compares
    # every digest and raises on ambiguity, so running it is the check)
    from rgc.evaluate import eval_toffoli_term

    params = make_params(tag_len_bits=tag_len_bits)
    rng = random.Random(11)
    gate = ONE_TOFFOLI.gates[0]
    for _ in range(10_000):
        schedule = gen_keys(16, ONE_TOFFOLI, rng)
        in_pairs, out_pairs = gate_keys(ONE_TOFFOLI, schedule)
        tables = garble_toffoli(params, gate, in_pairs, out_pairs, rng)
        u, v, w = rng.getrandbits(1), rng.getrandbits(1), rng.getrandbits(1)
        eval_toffoli_term(params, (in_pairs[0][u], in_pairs[1][v], in_pairs[2][w]),
                          tables)


def test_row_selection_unique_across_many_garblings():
    _evaluate_many_garblings(128)


def test_row_selection_unique_across_many_garblings_at_the_default_tag_length():
    # about one of these 60,000 two-digest slots collides before the redraw
    _evaluate_many_garblings(symcrypt.DEFAULT_TAG_LEN_BITS)


def test_equal_digests_occur_at_8_bit_tags_without_the_redraw():
    # the control for the property below: one key pair under 2,000 fresh
    # nonces, each slot colliding with probability 1/256
    params = make_params(tag_len_bits=8)
    rng = random.Random(48)
    pair = (rng.randbytes(2), rng.randbytes(2))
    headers = [symcrypt.table_header(params, rng.randbytes(2), [pair]) for _ in range(2000)]
    assert any(slot[:1] == slot[1:] for (slot,) in headers)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(circuits_and_states())
def test_no_slot_holds_equal_digests_at_8_bit_tags_property(case):
    # 16 jobs per circuit: about 3,000 two-digest slots per run, of which
    # about 11 collide before the redraw
    circ, support, seed = case
    rng = random.Random(seed)
    keys = delegation.keygen(16, circ.num_inputs, circ, rng, conjecture=True)
    params = delegation.make_params(16, tag_len_bits=8, oracle_seed=rng.randbytes(8))
    state = input_state(circ, support, rng)
    expected = simulate(circ, state)
    for job_seed in range(16):
        job = delegation.encrypt(params, keys, circ, state, random.Random(job_seed))
        slots = [digests for t in job.garbled.tables
                 for part in t
                 for digests in part.header]
        assert all(len(digests) == 1 or digests[0] != digests[1] for digests in slots)
        out, _ = delegation.delegate(params, keys, circ, state, random.Random(job_seed))
        assert fidelity(out, expected) >= 1 - 1e-9


def test_a_pair_of_equal_keys_is_refused():
    params = make_params()
    key = bytes(2)
    with pytest.raises(ValueError, match="two keys must differ"):
        garble_phase(params, phase(0, 1), WireKeyPair(key, key), random.Random(49))


def test_reseeding_changes_rows_not_meaning():
    params = make_params()
    schedule = gen_keys(16, ONE_TOFFOLI, random.Random(10))
    gate = ONE_TOFFOLI.gates[0]
    ins, outs = gate_keys(ONE_TOFFOLI, schedule)
    t1 = garble_toffoli(params, gate, ins, outs, gate_coins(params, random.Random(1)))
    t2 = garble_toffoli(params, gate, ins, outs, gate_coins(params, random.Random(2)))
    assert t1 != t2
    triple = tuple(pair.k1 for pair in ins)
    assert _open_row(params, triple, t1[0]) == _open_row(params, triple, t2[0])
