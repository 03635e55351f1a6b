import cmath
import hashlib
import math
import random

import pytest

from rgc import circuit, sparse
from rgc.circuit import (CircuitError, CircuitSyntaxError, Phase, Toffoli, X,
                         allocate_wires, composed_phase_angle, decompose_phase,
                         eval_classical, flipped_wires, format_circuit, parse_circuit,
                         phase, random_circuit, simulate, toff, universalize, validate,
                         without_x, x)


def test_parse_single_toffoli():
    circ = parse_circuit("inputs 3\ntoff 0 1 2\n")
    assert circ.num_inputs == 3
    assert len(circ.gates) == 1
    assert circ.num_wires == 6
    g = circ.gates[0]
    assert isinstance(g, Toffoli)
    assert g.in_wires == (0, 1, 2) and g.out_wires == (3, 4, 5)
    assert circ.output_wires == (3, 4, 5)


def test_parse_phase_allocates_nothing():
    circ = parse_circuit("inputs 1\nphase 0 2\n")
    assert circ.num_wires == 1
    g = circ.gates[0]
    assert isinstance(g, Phase) and g.denom_exp == 2 and g.sign == 1
    assert circ.output_wires == (0,)


def test_parse_negative_phase_and_comments():
    circ = parse_circuit("# header\ninputs 2\n\nphase 1 3 neg  # trailing\n")
    assert circ.gates[0].sign == -1


def test_parse_repeated_qubit_rejected_with_line():
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit("inputs 3\ntoff 0 0 1\n")
    assert err.value.line_no == 2


def test_parse_exponent_bound():
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("inputs 1\nphase 0 3\n", max_denom_exp=2)


def test_parse_errors():
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("toff 0 1 2\n")          # gate before header
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("inputs 1\nfrobnicate\n")
    with pytest.raises(CircuitError):
        parse_circuit("inputs 2\ntoff 0 1 2\n")   # qubit out of range


def test_allocation_two_phases_share_wire():
    circ = allocate_wires([phase(0, 1), phase(0, 2)], 1)
    assert circ.num_wires == 1
    assert circ.gates[0].wire == circ.gates[1].wire == 0


def test_allocation_chain_hand_trace():
    # Toffoli, phase on its first output, Toffoli again: 3 + 3 + 3 wires
    circ = allocate_wires([toff(0, 1, 2), phase(0, 1), toff(0, 1, 2)], 3)
    assert circ.num_wires == 9
    first, ph, second = circ.gates
    assert first.out_wires == (3, 4, 5)
    assert ph.wire == 3
    assert second.in_wires == (3, 4, 5) and second.out_wires == (6, 7, 8)
    assert circ.output_wires == (6, 7, 8)


def test_wire_bound_holds():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 6)
        circ = random_circuit(rng, n, rng.randint(0, 12))
        assert circ.num_wires <= n + 3 * len(circ.gates)
        validate(circ)


def test_format_parse_roundtrip():
    rng = random.Random(2)
    for _ in range(30):
        circ = random_circuit(rng, rng.randint(1, 5), rng.randint(0, 10))
        assert parse_circuit(format_circuit(circ)) == circ


X_TEXT = "inputs 3\nx 0\ntoff 0 1 2\nphase 1 1\nx 1\nphase 1 2 neg\nx 2\nx 2\n"


def test_parse_x_keeps_its_wire():
    circ = parse_circuit(X_TEXT)
    assert circ.num_wires == 3 + 3            # only the Toffoli allocates
    assert circ.gates[0] == X(0, 0)
    assert circ.gates[3] == X(1, 4) and circ.gates[3].wire == circ.gates[2].wire
    assert circ.output_wires == (3, 4, 5)
    validate(circ)


def test_format_parse_roundtrip_with_x():
    circ = parse_circuit(X_TEXT)
    assert format_circuit(circ) == X_TEXT
    assert parse_circuit(format_circuit(circ)) == circ
    assert circ == allocate_wires([x(0), toff(0, 1, 2), phase(1, 1), x(1),
                                   phase(1, 2, -1), x(2), x(2)], 3)


@pytest.mark.parametrize("text", ["inputs 1\nx\n", "inputs 2\nx 0 1\n", "x 0\ninputs 1\n",
                                  "inputs 1\nx one\n"])
def test_parse_x_errors(text):
    with pytest.raises(CircuitSyntaxError):
        parse_circuit(text)


def test_x_qubit_out_of_range():
    with pytest.raises(CircuitError, match="out of range"):
        parse_circuit("inputs 2\nx 2\n")


def test_simulate_and_eval_classical_apply_x():
    circ = parse_circuit("inputs 3\nx 0\nx 1\ntoff 0 1 2\nx 0\n")
    for bits in range(8):
        flipped = bits ^ 0b011
        expect = (flipped ^ ((flipped & 1) & (flipped >> 1)) << 2) ^ 0b001
        assert eval_classical(circ, bits) == expect
        got = simulate(circ, sparse.basis_state(sparse.qubit_layout(3), bits))
        assert got.terms == {expect: 1}


def test_without_x_and_flipped_wires():
    circ = parse_circuit(X_TEXT)
    skeleton = without_x(circ)
    assert skeleton.gates == tuple(g for g in circ.gates if not isinstance(g, X))
    assert (skeleton.num_inputs, skeleton.num_wires, skeleton.output_wires) == \
        (circ.num_inputs, circ.num_wires, circ.output_wires)
    validate(skeleton)
    # input 0 is flipped once before the Toffoli consumes it, output wire 4
    # once between its phase gates, and output wire 5 twice, which cancels
    assert flipped_wires(circ) == {0, 4}
    x_free = parse_circuit("inputs 3\ntoff 0 1 2\n")
    assert without_x(x_free) == x_free and flipped_wires(x_free) == frozenset()


def test_validate_rejects_x_on_a_consumed_wire():
    bad = circuit.CPCircuit(3, (Toffoli((0, 1, 2), (0, 1, 2), (3, 4, 5)), X(0, 0)),
                            6, (3, 4, 5))
    with pytest.raises(CircuitError, match="x wire 0 not live"):
        validate(bad)


def test_validate_rejects_wire_reuse():
    bad = circuit.CPCircuit(3, (Toffoli((0, 1, 2), (0, 1, 2), (3, 4, 5)),
                                Toffoli((0, 1, 2), (0, 1, 2), (6, 7, 8))),
                            9, (6, 7, 8))
    with pytest.raises(CircuitError):
        validate(bad)


@pytest.mark.parametrize("in_wires, out_wires", [((0, 0, 1), (3, 3, 4)),
                                                 ((0, 0, 1), (3, 4, 5)),
                                                 ((0, 1, 2), (3, 3, 4))])
def test_validate_rejects_toffoli_naming_one_wire_twice(in_wires, out_wires):
    # the first case passed when gates were only compared with earlier gates
    bad = circuit.CPCircuit(3, (Toffoli((0, 1, 2), in_wires, out_wires),), 6, (2, 3, 4))
    with pytest.raises(CircuitError, match="names one wire twice"):
        validate(bad)


def test_validate_counts_outputs_before_allocating():
    # a consistent but huge input count would build a set of 2^40 wires
    huge = 1 << 40
    with pytest.raises(CircuitError, match="output wires"):
        validate(circuit.CPCircuit(huge, (), huge, (0,)))


# phase decomposition --------------------------------------------------------


# ---------------------------------------------------------------------------
# public constant qubits

def test_parse_const_roundtrips_sorted():
    circ = parse_circuit("inputs 4\nconst 3\ntoff 3 0 1\nconst 0\ntoff 0 3 2\nx 1\n")
    assert circ.const_qubits == (0, 3)
    text = format_circuit(circ)
    assert text.startswith("inputs 4\nconst 0\nconst 3\n")
    assert parse_circuit(text) == circ
    assert without_x(circ).const_qubits == (0, 3)


@pytest.mark.parametrize("text", ["const 0\ninputs 2\n", "inputs 2\nconst\n",
                                  "inputs 2\nconst 0 1\n", "inputs 2\nconst 1\nconst 1\n"])
def test_parse_const_errors(text):
    with pytest.raises(CircuitSyntaxError):
        parse_circuit(text)


@pytest.mark.parametrize("text, message", [
    ("inputs 3\nconst 2\ntoff 0 1 2\n", "constant qubit 2 is a toffoli target"),
    ("inputs 3\nconst 1\nphase 1 2\n", "constant qubit 1 is phased"),
    ("inputs 3\nconst 0\nx 0\n", "constant qubit 0 is hit by an X"),
    ("inputs 3\nconst 3\n", "out of range"),
])
def test_validate_refuses_a_constant_a_gate_could_change(text, message):
    with pytest.raises(CircuitError, match=message):
        parse_circuit(text)


def test_validate_refuses_unsorted_constants():
    with pytest.raises(CircuitError, match="strictly increasing"):
        allocate_wires([], 3, (2, 1))
    with pytest.raises(CircuitError, match="strictly increasing"):
        allocate_wires([], 3, (1, 1))


def test_generators_declare_their_constant():
    machine, _ = universalize(allocate_wires([], 3), 3, 3, 4)
    assert machine.circuit.const_qubits == machine.const_qubits == (6,)
    # every toffoli row of the interpreter: 840 of its 3920 toffolis have the
    # constant as a control and carry 4 + 4 rows
    toffolis = [g for g in machine.circuit.gates if isinstance(g, Toffoli)]
    controlled = sum(6 in g.qubits[:2] for g in toffolis)
    assert (len(toffolis), controlled) == (3920, 840)
    assert 16 * len(toffolis) - 8 * controlled == 56_000

def test_decompose_exact_half_pi():
    assert decompose_phase(1, 1) == [(1, 1)]


def test_decompose_three_quarters():
    # 3/4 = 1/2 + 1/4
    assert decompose_phase(3, 2) == [(1, 1), (2, 1)]


def test_decompose_negative_wraps():
    # -pi/4 = 2*pi - pi/4 (mod 2*pi): 7/4 = 1 + 1/2 + 1/4
    gates = decompose_phase(-1, 2)
    assert gates == [(0, 1), (1, 1), (2, 1)]
    angle = composed_phase_angle(gates)
    assert cmath.exp(1j * angle) == pytest.approx(cmath.exp(-1j * math.pi / 4))


def test_decompose_float_precision():
    gates = decompose_phase(1.0, None, max_denom_exp=10)
    err = abs(cmath.exp(1j * 1.0) - cmath.exp(1j * composed_phase_angle(gates)))
    assert err <= math.pi / 2 ** 9


def test_decompose_float_random_angles():
    rng = random.Random(3)
    for _ in range(100):
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        for d_max in (6, 10):
            gates = decompose_phase(theta, None, max_denom_exp=d_max)
            err = abs(cmath.exp(1j * theta) - cmath.exp(1j * composed_phase_angle(gates)))
            assert err <= math.pi / 2 ** d_max


def test_decompose_exponent_above_bound():
    with pytest.raises(CircuitError):
        decompose_phase(1, 20, max_denom_exp=16)


# direct simulation -----------------------------------------------------------

def test_simulate_toffoli_truth_table():
    circ = parse_circuit("inputs 3\ntoff 0 1 2\n")
    for x in range(8):
        out = simulate(circ, sparse.basis_state(sparse.qubit_layout(3), x))
        expect = x ^ ((((x >> 0) & (x >> 1)) & 1) << 2)
        assert out.terms == {expect: 1.0 + 0j}
        assert eval_classical(circ, x) == expect


def test_simulate_phase_sign():
    circ = parse_circuit("inputs 1\nphase 0 1 neg\n")
    plus = sparse.from_terms(sparse.qubit_layout(1),
                             {0: 1 / math.sqrt(2), 1: 1 / math.sqrt(2)})
    out = simulate(circ, plus)
    assert out.terms[1] / out.terms[0] == pytest.approx(cmath.exp(-1j * math.pi / 2))


# universal machine -----------------------------------------------------------

def _run_machine(machine, desc, state):
    prep = machine.prep_bits(desc)
    full = sparse.SparseState(sparse.qubit_layout(machine.circuit.num_inputs),
                              {b | prep: a for b, a in state.terms.items()}, check=False)
    out = simulate(machine.circuit, full)
    n = machine.n_data
    mask = (1 << n) - 1
    terms = {}
    for b, a in out.terms.items():
        assert b & ~mask == prep, "non-data qubits disturbed"
        terms[b & mask] = a
    return sparse.SparseState(sparse.qubit_layout(n), terms, check=False)


def test_universalize_identity_program():
    circ = allocate_wires([], 2)
    machine, desc = universalize(circ, 2, 2, 1)
    assert all(d.code == machine.identity_code for d in desc)
    state = sparse.random_state(sparse.qubit_layout(2), random.Random(4))
    assert sparse.fidelity(_run_machine(machine, desc, state), state) >= 1 - 1e-9


def test_universalize_same_machine_different_programs():
    toffoli_circ = allocate_wires([toff(0, 1, 2)], 3)
    phase_circ = allocate_wires([phase(1, 2)], 3)
    m1, d1 = universalize(toffoli_circ, 3, 3, 2)
    m2, d2 = universalize(phase_circ, 3, 3, 2)
    assert m1.circuit == m2.circuit
    assert [g.code for g in d1] != [g.code for g in d2]
    rng = random.Random(5)
    for machine, desc, circ in ((m1, d1, toffoli_circ), (m2, d2, phase_circ)):
        for _ in range(10):
            state = sparse.random_state(sparse.qubit_layout(3), rng)
            got = _run_machine(machine, desc, state)
            assert sparse.fidelity(got, simulate(circ, state)) >= 1 - 1e-9


def test_universalize_random_circuits_sound():
    rng = random.Random(6)
    for _ in range(8):
        n = rng.randint(1, 3)
        circ = random_circuit(rng, n, rng.randint(0, 4), max_denom_exp=3)
        machine, desc = universalize(circ, n, 3, 4)
        state = sparse.random_state(sparse.qubit_layout(n), rng)
        got = _run_machine(machine, desc, state)
        assert sparse.fidelity(got, simulate(circ, state)) >= 1 - 1e-9


def test_universalize_zero_denom_phase_lowered():
    circ = allocate_wires([phase(0, 0)], 1)    # a bare Z
    machine, desc = universalize(circ, 1, 2, 1)
    state = sparse.from_terms(sparse.qubit_layout(1),
                              {0: 1 / math.sqrt(2), 1: 1 / math.sqrt(2)})
    got = _run_machine(machine, desc, state)
    assert sparse.fidelity(got, simulate(circ, state)) >= 1 - 1e-9


def test_universalize_description_width():
    machine, _ = universalize(allocate_wires([], 3), 3, 3, 1)
    n_prime = 3 + 3
    assert machine.code_width == math.ceil(math.log2(3 * n_prime + 1 + n_prime * 3))
    assert machine.n_codes <= 1 << machine.code_width
    for d in machine.describe(allocate_wires([toff(0, 1, 2)], 3)):
        assert len(d.bits()) == machine.code_width


def test_universalize_rejects_oversized_circuit():
    circ = allocate_wires([toff(0, 1, 2), toff(0, 1, 2)], 3)
    with pytest.raises(CircuitError):
        universalize(circ, 3, 3, 1)
    fine = allocate_wires([phase(0, 3)], 1)
    with pytest.raises(CircuitError):
        universalize(fine, 1, 2, 1)     # phase finer than the machine's cap


def test_universal_machine_emits_native_x_and_one_constant():
    machine, _ = universalize(allocate_wires([], 3), 3, 3, 4)
    assert machine.const_qubits == (3 + 3,)
    n_x = sum(isinstance(g, X) for g in machine.circuit.gates)
    # two negations per description bit per slot, compute and uncompute
    assert n_x == 2 * machine.code_width * machine.slots
    assert (machine.circuit.num_inputs, len(without_x(machine.circuit).gates)) == (222, 4172)


def test_universal_machine_refuses_a_program_with_x():
    machine, _ = universalize(allocate_wires([], 2), 2, 2, 2)
    program = allocate_wires([x(0), phase(1, 1)], 2)
    with pytest.raises(CircuitError, match="no X code"):
        machine.compile_codes(program)
    with pytest.raises(CircuitError, match="no X code"):
        universalize(program, 2, 2, 2)


def test_universal_machine_codes_are_pinned():
    # the description programs of seeded circuits, phase codes included
    rng = random.Random(31)
    digest = hashlib.blake2b()
    ops = 0
    for n in (1, 2, 3):
        for d_max in (1, 2, 4):
            machine, _ = universalize(allocate_wires([], n), n, d_max, 6)
            for _ in range(10):
                circ = random_circuit(rng, n, rng.randint(0, 6), max_denom_exp=d_max)
                codes = [d.code for d in machine.describe(circ)]
                ops += sum(c != machine.identity_code for c in codes)
                digest.update(str(codes).encode())
    assert ops == 854
    assert digest.hexdigest() == (
        "62f76b53c099586f575480c60dcccd944e16a585aa09414d744b1f14b146f410"
        "85dc2912e87763900a8ce1e0dfb94a1942fb622f7f78950ea12d2b09890e9a34")
