import ast
import cmath
import hashlib
import itertools
import math
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgc import circuit as circuit_module
from rgc import delegation, sparse
from rgc.circuit import (CircuitError, CircuitSyntaxError, CPCircuit, GateWiring, Phase,
                         Toffoli, Wiring, X, allocate_wires, cancel_pairs,
                         format_circuit, parse_circuit, phase, random_circuit, simulate,
                         toff, universalize, without_x, x)


def test_parse_single_toffoli():
    circ = parse_circuit("inputs 3\ntoff 0 1 2\n")
    assert circ.num_inputs == 3
    assert len(circ.gates) == 1
    assert circ.num_wires == 6
    g = circ.gates[0]
    assert isinstance(g, Toffoli)
    assert circ.wiring.gates == (GateWiring(((0, 0), (1, 0), (2, 0)), (3, 4, 5)),)
    assert circ.wiring.outputs == ((3, 0), (4, 0), (5, 0))


def test_parse_phase_allocates_nothing():
    circ = parse_circuit("inputs 1\nphase 0 2\n")
    assert circ.num_wires == 1
    g = circ.gates[0]
    assert isinstance(g, Phase) and g.denom_exp == 2 and g.sign == 1
    assert circ.wiring.outputs == ((0, 0),)


def test_parse_negative_phase_and_comments():
    circ = parse_circuit("# header\ninputs 2\n\nphase 1 3 neg  # trailing\n")
    assert circ.gates[0].sign == -1


def test_parse_repeated_qubit_rejected_with_line():
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit("inputs 3\ntoff 0 0 1\n")
    assert err.value.line_no == 2


def test_parse_exponent_bound():
    assert parse_circuit("inputs 1\nphase 0 16\n").gates[0].denom_exp == 16
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("inputs 1\nphase 0 17\n")


def test_parse_errors():
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("toff 0 1 2\n")          # gate before header
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("inputs 1\nfrobnicate\n")
    with pytest.raises(CircuitError):
        parse_circuit("inputs 2\ntoff 0 1 2\n")   # qubit out of range


def test_parse_bare_inputs_line_is_a_syntax_error():
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit("inputs\n")
    assert err.value.line_no == 1


@pytest.mark.parametrize("text, line_no, message", [
    ("inputs 3\nphase 0 1\ntoff 0 1 3\n", 3, "qubit 3 out of range"),
    ("inputs 2\n# note\nx 0\nphase 1 17 neg\n", 4, "phase exponent 17 not in 0..16"),
    ("inputs 2\nconst 1\nconst 1\nx 0\n", 4, "strictly increasing"),
])
def test_parse_reports_an_allocate_wires_refusal_at_its_line(text, line_no, message):
    with pytest.raises(CircuitSyntaxError, match=message) as err:
        parse_circuit(text)
    assert err.value.line_no == line_no


def test_allocation_two_phases_share_wire():
    circ = allocate_wires([phase(0, 1), phase(0, 2)], 1)
    assert circ.num_wires == 1
    assert circ.wiring.gates[0].reads == circ.wiring.gates[1].reads == ((0, 0),)


def test_allocation_chain_hand_trace():
    # Toffoli, phase on its first output, Toffoli again: 3 + 3 + 3 wires
    circ = allocate_wires([toff(0, 1, 2), phase(0, 1), toff(0, 1, 2)], 3)
    assert circ.num_wires == 9
    first, ph, second = circ.wiring.gates
    assert first.writes == (3, 4, 5)
    assert ph.reads == ((3, 0),)
    assert second.reads == ((3, 0), (4, 0), (5, 0)) and second.writes == (6, 7, 8)
    assert circ.wiring.outputs == ((6, 0), (7, 0), (8, 0))


def test_wire_bound_holds():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 6)
        circ = random_circuit(rng, n, rng.randint(0, 12))
        assert circ.num_wires <= n + 3 * len(circ.gates)


def test_format_parse_roundtrip():
    rng = random.Random(2)
    for _ in range(30):
        circ = random_circuit(rng, rng.randint(1, 5), rng.randint(0, 10))
        assert parse_circuit(format_circuit(circ)) == circ


X_TEXT = "inputs 3\nx 0\ntoff 0 1 2\nphase 1 1\nx 1\nphase 1 2 neg\nx 2\nx 2\n"


def test_parse_x_keeps_its_wire():
    circ = parse_circuit(X_TEXT)
    assert circ.num_wires == 3 + 3            # only the Toffoli allocates
    assert circ.gates[0] == X(0)
    assert circ.gates[3] == X(1)


def test_x_text_wiring_is_pinned():
    # input 0 is flipped once before the Toffoli reads it; wire 4 keeps its
    # number across x 1, so the phase gate after it reads it flipped; and
    # output wire 5 is flipped twice, which cancels
    assert parse_circuit(X_TEXT).wiring == Wiring(
        gates=(GateWiring(((0, 1), (1, 0), (2, 0)), (3, 4, 5)),
               GateWiring(((4, 0),), ()),
               GateWiring(((4, 1),), ())),
        num_wires=6,
        outputs=((3, 0), (4, 1), (5, 0)))


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


def test_simulate_applies_x():
    circ = parse_circuit("inputs 3\nx 0\nx 1\ntoff 0 1 2\nx 0\n")
    for bits in range(8):
        flipped = bits ^ 0b011
        expect = (flipped ^ ((flipped & 1) & (flipped >> 1)) << 2) ^ 0b001
        got = simulate(circ, sparse.basis_state(sparse.qubit_layout(3), bits))
        assert got.terms == {expect: 1}


def test_without_x_and_flipped_wires():
    circ = parse_circuit(X_TEXT)
    skeleton = without_x(circ)
    assert skeleton.gates == tuple(g for g in circ.gates if not isinstance(g, X))
    assert (skeleton.num_inputs, skeleton.num_wires) == (circ.num_inputs, circ.num_wires)
    # the skeleton's wires are the circuit's, without the X parities
    assert [w for w, _ in skeleton.wiring.outputs] == [w for w, _ in circ.wiring.outputs]
    x_free = parse_circuit("inputs 3\ntoff 0 1 2\n")
    assert without_x(x_free) == x_free
    assert [flip for _, flip in x_free.wiring.outputs] == [0, 0, 0]


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
    assert machine.circuit.const_qubits == machine.const_qubits == (3,)
    # every toffoli row of the interpreter: 16 of its 212 toffolis have the
    # constant as a control and carry 4 + 4 rows
    toffolis = [g for g in machine.circuit.gates if isinstance(g, Toffoli)]
    controlled = sum(3 in g.qubits[:2] for g in toffolis)
    assert (len(toffolis), controlled) == (212, 16)
    assert 16 * len(toffolis) - 8 * controlled == 3_264


def test_describe_refuses_a_finer_phase():
    # describe, called directly, refuses a phase finer than the machine's D
    # rather than compiling it to a wrong code
    machine, _ = universalize(allocate_wires([], 1), 1, 2, 1)
    with pytest.raises(CircuitError, match="finer phase"):
        machine.describe(allocate_wires([phase(0, 3)], 1))


# direct simulation -----------------------------------------------------------

def test_simulate_toffoli_truth_table():
    circ = parse_circuit("inputs 3\ntoff 0 1 2\n")
    for x in range(8):
        out = simulate(circ, sparse.basis_state(sparse.qubit_layout(3), x))
        expect = x ^ ((((x >> 0) & (x >> 1)) & 1) << 2)
        assert out.terms == {expect: 1.0 + 0j}


def test_simulate_phase_sign():
    circ = parse_circuit("inputs 1\nphase 0 1 neg\n")
    plus = sparse.from_terms(sparse.qubit_layout(1),
                             {0: 1 / math.sqrt(2), 1: 1 / math.sqrt(2)})
    out = simulate(circ, plus)
    assert out.terms[1] / out.terms[0] == pytest.approx(cmath.exp(-1j * math.pi / 2))


def test_simulate_refuses_a_width_mismatch():
    circ = parse_circuit("inputs 3\ntoff 0 1 2\n")
    with pytest.raises(sparse.LayoutMismatchError):
        simulate(circ, sparse.basis_state(sparse.qubit_layout(4), 0))


def test_simulate_refuses_a_toffoli_naming_one_qubit_twice():
    # allocate_wires refuses this gate, so the circuit is built by hand.  It
    # clears qubit 0 where qubit 1 is set, merging |01> and |11> (qubit 0
    # is the low bit); the merge must not pass silently.
    circ = CPCircuit(2, (Toffoli((0, 1, 0)),))
    state = sparse.from_terms(sparse.qubit_layout(2), {0b10: 0.6, 0b11: 0.8})
    with pytest.raises(ValueError):
        simulate(circ, state)
    # where nothing merges it is applied as written
    out = simulate(circ, sparse.from_terms(sparse.qubit_layout(2), {0b01: 0.6, 0b11: 0.8}))
    assert list(out.terms.items()) == [(0b01, 0.6), (0b10, 0.8)]


def test_modexp21_reference_is_pinned():
    # Digest of the gate-by-gate simulation's term list (keys, order and the
    # exact bits of every amplitude), computed before the bitset simulator.
    state = delegation.modexp_direct_state(delegation.synth_modexp_toffoli(21, 2))
    digest = hashlib.sha256()
    for b, a in state.terms.items():
        digest.update(f"{b:x} {a.real.hex()} {a.imag.hex()}\n".encode())
    assert len(state.terms) == 1024
    assert digest.hexdigest() == \
        "004dcc1530c7a5ba527c509c0e6750e990ca7023455d6da4a6444639e6e0517f"


def _simulate_per_term(circ, state):
    """The gate-by-gate reference: one sparse.apply_classical or
    sparse.apply_phase per gate."""
    for g in circ.gates:
        if isinstance(g, Toffoli):
            a, b, c = g.qubits
            state = sparse.apply_classical(
                state, lambda v: v ^ ((((v >> a) & (v >> b)) & 1) << c))
        elif isinstance(g, X):
            state = sparse.apply_classical(state, lambda v: v ^ (1 << g.qubit))
        else:
            state = sparse.apply_phase(
                state, lambda v: g.sign * ((v >> g.qubit) & 1), 1 << g.denom_exp)
    return state


def _exact(z):
    """An amplitude's parts with their signs, so -0.0 differs from 0.0."""
    return (z.real, z.imag, math.copysign(1, z.real), math.copysign(1, z.imag))


@st.composite
def _circuits_and_states(draw):
    """A C+P circuit with Toffoli, X and phase gates (both signs, d 0..16)
    on 1..70 qubits and a state of 1..200 distinct terms, some with signed
    zero parts; widths and term counts cross the 63/64/65 and 8/64/128
    boundaries."""
    n = draw(st.one_of(st.sampled_from([1, 2, 3, 8, 63, 64, 65, 70]), st.integers(1, 70)))
    kinds = [st.builds(x, st.integers(0, n - 1)),
             st.builds(phase, st.integers(0, n - 1), st.integers(0, 16),
                       st.sampled_from((1, -1)))]
    if n >= 3:
        kinds.append(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
                     .map(lambda q: toff(*q)))
    gates = draw(st.lists(st.one_of(*kinds), max_size=40))
    size = draw(st.one_of(st.sampled_from([1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200]),
                          st.integers(1, 200)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    keys: dict[int, None] = {}
    while len(keys) < min(size, 1 << n):
        keys[rng.getrandbits(n)] = None
    parts = (0.0, -0.0, 1.0, -0.5)
    terms = {k: complex(rng.choice(parts) if rng.random() < 0.3 else rng.gauss(0, 1),
                        rng.choice(parts) if rng.random() < 0.3 else rng.gauss(0, 1))
             for k in keys}
    return allocate_wires(gates, n), sparse.SparseState(sparse.qubit_layout(n), terms,
                                                        check=False)


@settings(max_examples=150, deadline=None)
@given(_circuits_and_states())
def test_simulate_matches_the_per_term_reference_bit_for_bit(case):
    circ, state = case
    got = list(simulate(circ, state).terms.items())
    want = list(_simulate_per_term(circ, state).terms.items())
    assert [b for b, _ in got] == [b for b, _ in want]
    assert [_exact(a) for _, a in got] == [_exact(a) for _, a in want]


def test_the_reference_simulator_imports_nothing_of_the_garbled_path():
    """simulate is what the bench and the tests check the garbled path
    against, so neither circuit.py nor any rgc module it pulls in may import
    the evaluator, the garbler or their crypto."""
    src = pathlib.Path(circuit_module.__file__).parent
    forbidden = {"evaluate", "garble", "symcrypt"}
    seen, todo = set(), ["circuit"]
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level == 0 and base.split(".")[0] != "rgc":
                    continue
                base = base.removeprefix("rgc").lstrip(".")
                names = [base.split(".")[0]] if base else [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name.split(".")[1] for a in node.names
                         if a.name.startswith("rgc.")]
            else:
                continue
            assert not forbidden & set(names), f"{name}.py imports {forbidden & set(names)}"
            todo += [m for m in names if m not in seen and (src / f"{m}.py").exists()]


# pair cancellation -------------------------------------------------------------

def test_cancel_pairs_drops_pairs_across_commuting_gates_only():
    # controls in either order, a phase on a control, an X on the target and
    # a Toffoli writing the same target all commute with the pair
    assert cancel_pairs([toff(0, 1, 2), phase(0, 1), x(2), toff(3, 4, 2),
                         toff(1, 0, 2)]) == [phase(0, 1), x(2), toff(3, 4, 2)]
    # one removal exposes the next pair
    assert cancel_pairs([x(0), toff(0, 1, 2), toff(0, 1, 2), x(0)]) == []
    # a phase on the target, an X on a control and a gate reading the
    # target each block the pair
    for middle in (phase(2, 1), x(0), toff(2, 3, 4)):
        gates = [toff(0, 1, 2), middle, toff(0, 1, 2)]
        assert cancel_pairs(gates) == gates
    # the latest copy goes: the first X stays ahead of the phase
    assert cancel_pairs([x(0), phase(0, 2), x(0), x(0)]) == [x(0), phase(0, 2)]


@st.composite
def _small_gate_lists(draw):
    """Toffoli, X and phase gates over 1..5 qubits, from few enough choices
    that identical gates meet often."""
    n = draw(st.integers(1, 5))
    kinds = [st.builds(x, st.integers(0, n - 1)),
             st.builds(phase, st.integers(0, n - 1), st.integers(0, 3),
                       st.sampled_from((1, -1)))]
    if n >= 3:
        kinds.append(st.permutations(range(n)).map(lambda q: toff(*q[:3])))
    return n, draw(st.lists(st.one_of(*kinds), max_size=40))


@settings(max_examples=300, deadline=None)
@given(_small_gate_lists(), st.integers(0, 2**32))
def test_cancel_pairs_keeps_the_circuit_and_is_a_fixpoint(case, seed):
    n, gates = case
    out = cancel_pairs(gates)
    assert len(out) <= len(gates)
    assert cancel_pairs(out) == out
    assert [g for g in out if isinstance(g, Phase)] == [g for g in gates if isinstance(g, Phase)]
    state = sparse.random_state(sparse.qubit_layout(n), random.Random(seed))
    want = simulate(allocate_wires(gates, n), state)
    assert sparse.fidelity(simulate(allocate_wires(out, n), state), want) >= 1 - 1e-12


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
    assert all(d == machine.identity_code for d in desc)
    state = sparse.random_state(sparse.qubit_layout(2), random.Random(4))
    assert sparse.fidelity(_run_machine(machine, desc, state), state) >= 1 - 1e-9


def test_universalize_same_machine_different_programs():
    toffoli_circ = allocate_wires([toff(0, 1, 2)], 3)
    phase_circ = allocate_wires([phase(1, 2)], 3)
    m1, d1 = universalize(toffoli_circ, 3, 3, 2)
    m2, d2 = universalize(phase_circ, 3, 3, 2)
    assert m1.circuit == m2.circuit
    assert d1 != d2
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


def _single_gate_programs(n, d_max):
    """Every Toffoli on n qubits, in both control orders, and every phase up
    to d_max: together they reach every operation code, so every leaf of the
    decoder's code tree is run, and every angle a source gate can spell."""
    return ([toff(*order) for order in itertools.permutations(range(n), 3)]
            + [phase(q, d, sign) for q in range(n) for d in range(d_max + 1)
               for sign in (1, -1)])


def _name(gate):
    """The gate's kind and fields, which name its test case and seed its state."""
    if isinstance(gate, Toffoli):
        return ("toff", *gate.qubits)
    return ("phase", gate.qubit, gate.denom_exp, gate.sign)


# At N=3 each target has one control pair; at N=4 it has three, so the pair
# enumeration is run too.
_SINGLE_GATE_CASES = (
    [pytest.param(3, 3, g, id="_".join(map(str, _name(g)))) for g in _single_gate_programs(3, 3)]
    + [pytest.param(4, 2, g, id="n4_" + "_".join(map(str, _name(g))))
       for g in _single_gate_programs(4, 2)])


@pytest.mark.parametrize("n, d_max, gate", _SINGLE_GATE_CASES)
def test_universal_machine_runs_every_code(n, d_max, gate):
    circ = allocate_wires([gate], n)
    machine, desc = universalize(circ, n, d_max, 1)
    state = sparse.random_state(sparse.qubit_layout(n), random.Random(str(_name(gate))))
    got = _run_machine(machine, desc, state)
    assert sparse.fidelity(got, simulate(circ, state)) >= 1 - 1e-12


@st.composite
def _programs(draw):
    """A machine shape (N <= 4, D <= 3, L <= 4), a program of at most L
    Toffoli and phase gates with d <= D, and a seed."""
    n, d_max, length = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(1, 4))
    kinds = [st.builds(phase, st.integers(0, n - 1), st.integers(0, d_max),
                       st.sampled_from((1, -1)))]
    if n >= 3:
        kinds.append(st.permutations(range(n)).map(lambda p: toff(*p[:3])))
    gates = draw(st.lists(st.one_of(*kinds), max_size=length))
    return allocate_wires(gates, n), d_max, length, draw(st.integers(0, 2**32))


@settings(max_examples=60, deadline=None)
@given(_programs())
def test_universal_machine_one_code_per_gate_property(case):
    circ, d_max, length, seed = case
    n, used = circ.num_inputs, len(circ.gates)
    machine, desc = universalize(circ, n, d_max, length)
    assert machine == universalize(allocate_wires([], n), n, d_max, length)[0]
    assert machine.identity_code not in desc[:used]
    assert desc[used:] == [machine.identity_code] * (length - used)
    state = sparse.random_state(sparse.qubit_layout(n), random.Random(seed))
    got = _run_machine(machine, desc, state)
    assert sparse.fidelity(got, simulate(circ, state)) >= 1 - 1e-12


def test_universalize_zero_denom_phase_lowered():
    circ = allocate_wires([phase(0, 0)], 1)    # a bare Z
    machine, desc = universalize(circ, 1, 2, 1)
    assert desc == [0b0_100]                   # phase code 0, angle pi
    state = sparse.from_terms(sparse.qubit_layout(1),
                              {0: 1 / math.sqrt(2), 1: 1 / math.sqrt(2)})
    got = _run_machine(machine, desc, state)
    assert sparse.fidelity(got, simulate(circ, state)) >= 1 - 1e-9


def test_universalize_description_width():
    # N*C(N-1, 2) Toffoli codes, N phase codes and the identity.  A slot is
    # the operation bits that table needs and D+1 angle bits, and the
    # single-gate programs reach every operation code.
    for n, d_max in ((3, 3), (4, 2)):
        machine, _ = universalize(allocate_wires([], n), n, d_max, 1)
        assert machine.n_codes == n * math.comb(n - 1, 2) + n + 1
        assert machine.code_width == (machine.n_codes - 1).bit_length() + d_max + 1
        assert all(len(q) == machine.code_width for q in machine.desc_qubits)
        ops = set()
        for gate in _single_gate_programs(n, d_max):
            code, = machine.describe(allocate_wires([gate], n))
            assert 0 <= code < 1 << machine.code_width
            ops.add(code >> (d_max + 1))
        assert ops == set(range(machine.n_codes - 1))


def test_universalize_rejects_oversized_circuit():
    circ = allocate_wires([toff(0, 1, 2), toff(0, 1, 2)], 3)
    with pytest.raises(CircuitError):
        universalize(circ, 3, 3, 1)
    fine = allocate_wires([phase(0, 3)], 1)
    with pytest.raises(CircuitError):
        universalize(fine, 1, 2, 1)     # phase finer than the machine's cap


def test_universal_machine_emits_native_x_and_one_constant():
    machine, _ = universalize(allocate_wires([], 3), 3, 3, 4)
    assert machine.const_qubits == (3,)
    n_x = sum(isinstance(g, X) for g in machine.circuit.gates)
    # two negations per slot for each node of the operation-code tree above
    # the leaves: each node's left branch tests a flipped description bit
    op_width = machine.code_width - (machine.max_denom_exp + 1)
    bits = [tuple((code >> (op_width - 1 - j)) & 1 for j in range(op_width))
            for code in range(machine.n_codes - 1)]
    inner = {b[:depth] for b in bits for depth in range(op_width)}
    assert n_x == 2 * len(inner) * machine.slots == 12 * machine.slots
    assert (machine.circuit.num_inputs, len(without_x(machine.circuit).gates)) == (36, 260)


def test_universal_machine_refuses_a_program_with_x():
    machine, _ = universalize(allocate_wires([], 2), 2, 2, 2)
    program = allocate_wires([x(0), phase(1, 1)], 2)
    with pytest.raises(CircuitError, match="no X code"):
        machine.compile_codes(program)
    with pytest.raises(CircuitError, match="no X code"):
        universalize(program, 2, 2, 2)


def test_universal_machine_codes_are_pinned():
    # the description programs of seeded circuits, phase codes included:
    # one code per source gate
    rng = random.Random(31)
    digest = hashlib.blake2b()
    ops = gates = 0
    for n in (1, 2, 3):
        for d_max in (1, 2, 4):
            machine, _ = universalize(allocate_wires([], n), n, d_max, 6)
            for _ in range(10):
                circ = random_circuit(rng, n, rng.randint(0, 6), max_denom_exp=d_max)
                codes = machine.describe(circ)
                ops += sum(c != machine.identity_code for c in codes)
                gates += len(circ.gates)
                digest.update(str(codes).encode())
    assert ops == gates == 281
    assert digest.hexdigest() == (
        "0a293c04c7aa8b7789965b43de94676c40c89fd34633f8fc2c6f1cf5c3aac6b0"
        "03b6c071d87123de080895116394c0eaa0219c15abd2e241cd7579cf08380b90")
