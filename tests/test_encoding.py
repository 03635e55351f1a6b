import math
import random

import numpy as np
import pytest

from rgc import sparse
from rgc.circuit import allocate_wires, parse_circuit, toff
from rgc.encoding import (KeySchedule, UnknownKeyError, WireKeyPair, cnot_cost,
                          decode, encode, gen_keys, mixing_check)
from rgc.sparse import (ColumnarState, SparseState, basis_state, descents, fidelity, inner,
                        qubit_layout, random_state)

from conftest import random_density, sparse_of

ONE_TOFFOLI = parse_circuit("inputs 3\ntoff 0 1 2\n")


def test_gen_keys_reproducible():
    a = gen_keys(16, ONE_TOFFOLI, random.Random(1))
    b = gen_keys(16, ONE_TOFFOLI, random.Random(1))
    assert a == b
    assert a.num_wires == 6


def test_gen_keys_pairs_always_distinct():
    rng = random.Random(2)
    for _ in range(1000):
        schedule = gen_keys(16, ONE_TOFFOLI, rng)
        assert all(k0 != k1 for k0, k1 in schedule.pairs)


def test_gen_keys_requires_byte_aligned_kappa():
    with pytest.raises(ValueError):
        gen_keys(12, ONE_TOFFOLI, random.Random(3))


def test_schedule_validation():
    with pytest.raises(ValueError):
        KeySchedule(16, (WireKeyPair(b"aa", b"aa"),))
    with pytest.raises(ValueError):
        KeySchedule(16, (WireKeyPair(b"a", b"bb"),))


def test_toffoli_needs_three_qubits():
    # upstream circuit validation guards the schedule contract
    with pytest.raises(Exception):
        allocate_wires([toff(0, 1, 2)], 2)


def test_encode_classical_bit_single_key():
    schedule = KeySchedule(8, (WireKeyPair(b"\x01", b"\x02"),))
    encoded = encode(basis_state(qubit_layout(1), 0), schedule, [0])
    assert encoded == ColumnarState(8, [[b"\x01"]], [0], [1.0 + 0j])
    encoded = encode(basis_state(qubit_layout(1), 1), schedule, [0])
    assert encoded == ColumnarState(8, [[b"\x02"]], [0], [1.0 + 0j])


def test_encode_is_linear():
    schedule = KeySchedule(8, (WireKeyPair(b"\x01", b"\x02"),))
    plus = sparse.from_terms(qubit_layout(1), {0: 1 / math.sqrt(2), 1: 1 / math.sqrt(2)})
    encoded = encode(plus, schedule, [0])
    assert set(sparse_of(encoded).terms) == {0x01, 0x02}
    assert all(abs(a - 1 / math.sqrt(2)) < 1e-12 for a in encoded.amps)


def test_decode_inverts_encode():
    rng = random.Random(4)
    circ = parse_circuit("inputs 3\ntoff 0 1 2\n")
    for _ in range(100):
        schedule = gen_keys(16, circ, rng)
        state = random_state(qubit_layout(3), rng)
        back = decode(encode(state, schedule, circ.input_wires), schedule,
                      [(w, 0) for w in circ.input_wires])
        assert fidelity(back, state) >= 1 - 1e-12


def test_decode_single_key_to_bit():
    schedule = KeySchedule(8, (WireKeyPair(b"\x01", b"\x02"),))
    decoded = decode(ColumnarState(8, [[b"\x02"]], [0], [1 + 0j]), schedule, [(0, 0)])
    assert decoded.terms == {1: 1.0 + 0j}


def test_decode_rejects_off_key_strings():
    schedule = KeySchedule(8, (WireKeyPair(b"\x01", b"\x02"),))
    with pytest.raises(UnknownKeyError):
        decode(ColumnarState(8, [[b"\x03"]], [0], [1 + 0j]), schedule, [(0, 0)])  # one bit off


def test_encode_preserves_inner_products():
    rng = random.Random(5)
    schedule = gen_keys(16, ONE_TOFFOLI, rng)
    lay = qubit_layout(3)
    for _ in range(10):
        a, b = random_state(lay, rng), random_state(lay, rng)
        ea = encode(a, schedule, ONE_TOFFOLI.input_wires)
        eb = encode(b, schedule, ONE_TOFFOLI.input_wires)
        assert inner(sparse_of(ea), sparse_of(eb)) == pytest.approx(inner(a, b), abs=1e-12)


def test_encode_builds_the_canonical_column_form():
    # each register lists its keys in increasing order as integers and the
    # terms come in increasing order of their encoded basis strings: the
    # form the wire carries, built without a per-term key string
    rng = random.Random(6)
    lay = qubit_layout(3)
    for _ in range(50):
        schedule = gen_keys(16, ONE_TOFFOLI, rng)
        state = random_state(lay, rng, support_bits=rng.sample(range(3), rng.randint(1, 3)))
        encoded = encode(state, schedule, ONE_TOFFOLI.input_wires)
        assert encoded.canonical() == encoded and not descents(encoded.bits, encoded.num_terms())
        assert decode(encoded, schedule, [(w, 0) for w in ONE_TOFFOLI.input_wires]).terms \
            == state.terms


def test_column_form_of_a_sparse_state_is_canonical_and_holds_two_values():
    # terms given out of order: one register per qubit, listing b"\0",
    # b"\1" or both, and the terms come by increasing basis
    state = SparseState(qubit_layout(4), {0b1101: 0.6 + 0j, 0b1001: 0.48j, 0b1110: 0.64 + 0j})
    assert ColumnarState.from_sparse(state) == ColumnarState(
        1, [[b"\0", b"\1"], [b"\0", b"\1"], [b"\0", b"\1"], [b"\1"]],
        [0b011, 0b100, 0b110, 0], [0.48j, 0.6, 0.64])


def test_decode_checks_each_value_a_register_holds():
    # a foreign value in the second slot of a register is caught though the
    # first is a key
    schedule = KeySchedule(8, (WireKeyPair(b"\x01", b"\x02"),))
    state = ColumnarState(8, [[b"\x01", b"\x03"]], [0b10], [0.6 + 0j, 0.8 + 0j])
    with pytest.raises(UnknownKeyError, match="register 0 \\(wire 0\\) holds 0x3"):
        decode(state, schedule, [(0, 0)])
    flipped = decode(ColumnarState(8, [[b"\x01", b"\x02"]], [0b10], [0.6 + 0j, 0.8 + 0j]),
                     schedule, [(0, 1)])
    assert flipped.terms == {1: 0.6 + 0j, 0: 0.8 + 0j}


# cost model ------------------------------------------------------------------

def test_cnot_cost_extremes():
    schedule = KeySchedule(8, (WireKeyPair(b"\x00", b"\xff"),))
    report = cnot_cost(schedule, [0])
    assert report.cnot_count == 8 and report.x_count == 0


def test_cnot_cost_minimum_one():
    rng = random.Random(6)
    for _ in range(500):
        schedule = gen_keys(16, ONE_TOFFOLI, rng)
        report = cnot_cost(schedule, range(6))
        assert all(cnot_cost(schedule, [w]).cnot_count >= 1 for w in range(6))
        assert report.cnot_count <= 16 * 6


def test_cnot_cost_mean_matches_binomial():
    # popcount(k0 ^ k1) ~ Binomial(16, 1/2) conditioned nonzero: mean ~ 8
    rng = random.Random(7)
    total, wires = 0, 0
    for _ in range(1700):
        schedule = gen_keys(16, ONE_TOFFOLI, rng)
        total += cnot_cost(schedule, range(6)).cnot_count
        wires += 6
    mean = total / wires
    sigma_mean = 2.0 / math.sqrt(wires)
    assert abs(mean - 8.0) <= 3 * sigma_mean


# exact mixing bound ----------------------------------------------------------

def test_mixing_computational_basis_is_exact():
    rho = np.zeros((2, 2), complex)
    rho[0, 0] = 1.0
    distance, bound = mixing_check(5, 1, rho)
    assert bound == pytest.approx(0.5)
    assert distance <= 1e-12    # no cross term at all


def test_mixing_maximally_mixed_far_below_bound():
    distance, bound = mixing_check(5, 1, np.eye(2, dtype=complex) / 2)
    assert distance < bound / 100


def test_mixing_halves_per_kappa_step():
    plus = np.full((2, 2), 0.5, dtype=complex)
    d5, _ = mixing_check(5, 1, plus)
    d6, _ = mixing_check(6, 1, plus)
    d7, _ = mixing_check(7, 1, plus)
    assert 1.8 <= d5 / d6 <= 2.2
    assert 1.8 <= d6 / d7 <= 2.2


def test_mixing_bound_with_reference_system():
    rng = np.random.default_rng(8)
    for _ in range(5):
        rho = random_density(4, rng)
        distance, bound = mixing_check(5, 1, rho, ref_qubits=1)
        assert distance <= bound


def test_mixing_two_qubits():
    rng = np.random.default_rng(9)
    rho = random_density(4, rng)
    distance, bound = mixing_check(5, 2, rho)
    assert bound == pytest.approx(1.0)    # 2^-(5-4) * 2
    assert distance <= bound


def test_mixing_parameter_validation():
    rho = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValueError):
        mixing_check(4, 1, rho)          # bound vacuous below kappa=5
    with pytest.raises(ValueError):
        mixing_check(7, 2, rho)          # 14 bits of keys + wrong rho dim anyway
    with pytest.raises(ValueError):
        mixing_check(5, 3, np.eye(8, dtype=complex) / 8)   # 15 bits > cap
