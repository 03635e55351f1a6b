"""C+P circuit representation: Toffoli gates, single-qubit phase gates and X.

Circuits are described at two levels.  The logical level talks about qubits
(0..N-1) and is what the text format and the direct simulator use.  The wire
level is a single-assignment view used by key generation and garbling: a
Toffoli consumes its three qubits' current wires and drives three fresh ones;
a phase gate and an X keep their wire.  A circuit with N inputs and L gates
therefore uses at most N+3L wires.  :func:`allocate_wires` assigns every
wire itself, so this discipline holds by construction, and it is the one
place that states a circuit's rules: the text parser, the generators and
the server's skeleton reader all build through it.

An X costs nothing to delegate.  With one key per logical value, a NOT only
swaps which of its wire's two keys means 0, so the garbler tracks that swap
per wire and emits no table for it (see :func:`flipped_wires`); the server's
skeleton is the circuit with its X gates removed (:func:`without_x`).

A circuit may declare public constant-1 input qubits (``const_qubits``):
structural constants such as the control the generators use to build a CNOT
as a Toffoli.  Such a qubit is never a Toffoli target, never phased and never
hit by an X, so every wire it carries holds logical 1 and a Toffoli it
controls needs only the table rows for that value (see :mod:`rgc.garble`).
A secret input must never be declared constant: its value would show in
which rows open.

Angles are carried exactly as (sign, d) dyadic pairs meaning R_Z(sign*pi/2^d);
no floating-point angle ever enters the IR.

Text format (UTF-8, line oriented, ``#`` comments)::

    inputs 3
    const 0           # qubit 0 is a public constant 1
    toff 0 1 2        # controls 0,1 target 2
    x 1               # NOT on qubit 1
    phase 0 2         # R_Z(pi/4) on qubit 0
    phase 1 1 neg     # R_Z(-pi/2) on qubit 1

The universal machine at the bottom of this module reduces any C+P circuit to
a fixed program interpreted by a fixed circuit, so that delegating the fixed
circuit hides which program ran (only N, D and the length cap leak).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import sparse
from .sparse import SparseState

DEFAULT_MAX_DENOM_EXP = 16

LogicalGate = tuple  # ("toff", a, b, c) | ("phase", a, d, sign) | ("x", a)


def toff(a: int, b: int, c: int) -> LogicalGate:
    return ("toff", a, b, c)


def phase(a: int, d: int, sign: int = 1) -> LogicalGate:
    return ("phase", a, d, sign)


def x(a: int) -> LogicalGate:
    return ("x", a)


class CircuitError(ValueError):
    pass


class CircuitSyntaxError(CircuitError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Toffoli:
    qubits: tuple[int, int, int]      # (control, control, target)
    in_wires: tuple[int, int, int]
    out_wires: tuple[int, int, int]


@dataclass(frozen=True)
class Phase:
    qubit: int
    wire: int
    denom_exp: int                    # gate is R_Z(sign * pi / 2^denom_exp)
    sign: int = 1


@dataclass(frozen=True)
class X:
    qubit: int
    wire: int


Gate = Toffoli | Phase | X


@dataclass(frozen=True)
class CPCircuit:
    num_inputs: int
    gates: tuple[Gate, ...]
    num_wires: int
    output_wires: tuple[int, ...]
    const_qubits: tuple[int, ...] = ()    # public constant-1 inputs, sorted

    @property
    def input_wires(self) -> tuple[int, ...]:
        return tuple(range(self.num_inputs))

    @property
    def const_mask(self) -> int:
        """The constant qubits' bits, all set in every valid input."""
        return sum(1 << q for q in self.const_qubits)


def allocate_wires(logical_gates: Iterable[LogicalGate], n_inputs: int,
                   const_qubits: Sequence[int] = ()) -> CPCircuit:
    """Assign single-use wire indices to a logical gate list, refusing a
    qubit out of range, a Toffoli naming one qubit twice, a phase exponent
    outside 0..DEFAULT_MAX_DENOM_EXP or sign other than +-1, and constant
    qubits that are not strictly increasing inputs or that a gate could
    change."""
    if n_inputs <= 0:
        raise CircuitError("circuit needs at least one input")
    current = list(range(n_inputs))
    next_wire = n_inputs
    gates: list[Gate] = []
    for g in logical_gates:
        kind = g[0]
        if kind == "toff":
            a, b, c = g[1], g[2], g[3]
            if len({a, b, c}) != 3:
                raise CircuitError(f"toffoli qubits must be distinct, got {a} {b} {c}")
            for q in (a, b, c):
                if not 0 <= q < n_inputs:
                    raise CircuitError(f"qubit {q} out of range (N={n_inputs})")
            in_wires = (current[a], current[b], current[c])
            out_wires = (next_wire, next_wire + 1, next_wire + 2)
            next_wire += 3
            current[a], current[b], current[c] = out_wires
            gates.append(Toffoli((a, b, c), in_wires, out_wires))
        elif kind == "phase":
            a, d, sign = g[1], g[2], g[3]
            if not 0 <= a < n_inputs:
                raise CircuitError(f"qubit {a} out of range (N={n_inputs})")
            if not 0 <= d <= DEFAULT_MAX_DENOM_EXP:
                raise CircuitError(f"phase exponent {d} not in 0..{DEFAULT_MAX_DENOM_EXP}")
            if sign not in (1, -1):
                raise CircuitError(f"phase sign must be +-1, got {sign}")
            gates.append(Phase(a, current[a], d, sign))
        elif kind == "x":
            a = g[1]
            if not 0 <= a < n_inputs:
                raise CircuitError(f"qubit {a} out of range (N={n_inputs})")
            gates.append(X(a, current[a]))
        else:
            raise CircuitError(f"unknown gate kind {kind!r}")
    consts = tuple(const_qubits)
    if any(b <= a for a, b in zip(consts, consts[1:])):
        raise CircuitError(f"constant qubits must be strictly increasing, got {consts}")
    if consts and not 0 <= consts[0] <= consts[-1] < n_inputs:
        raise CircuitError(f"constant qubits {consts} out of range (N={n_inputs})")
    const_set = frozenset(consts)
    for g in gates:
        if isinstance(g, Toffoli):
            if g.qubits[2] in const_set:
                raise CircuitError(f"constant qubit {g.qubits[2]} is a toffoli target")
        elif g.qubit in const_set:
            raise CircuitError(f"constant qubit {g.qubit} is "
                               f"{'phased' if isinstance(g, Phase) else 'hit by an X'}")
    return CPCircuit(n_inputs, tuple(gates), next_wire, tuple(current), consts)


# ---------------------------------------------------------------------------
# text format

_ARITY = {"inputs": 1, "const": 1, "toff": 3, "phase": 2, "x": 1}


def parse_circuit(text: str) -> CPCircuit:
    """Tokenize the text format and stream its gates into :func:`allocate_wires`,
    which states every rule on them; a refusal is reported at the line being
    read (the end of the text for the constant list)."""
    lines = text.splitlines()
    n_inputs = None
    consts: list[int] = []
    gates: list[tuple[int, LogicalGate]] = []
    for line_no, raw in enumerate(lines, start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        word, *args = fields
        sign = -1 if word == "phase" and args[-1:] == ["neg"] else 1
        if sign < 0:
            args.pop()
        if (word == "inputs") != (n_inputs is None):
            raise CircuitSyntaxError(line_no, "inputs N must come first, and only once")
        if word not in _ARITY:
            raise CircuitSyntaxError(line_no, f"unknown directive {word!r}")
        if len(args) != _ARITY[word]:
            raise CircuitSyntaxError(line_no, f"{word} needs {_ARITY[word]} integer argument(s)")
        try:
            ints = [int(a) for a in args]
        except ValueError as exc:
            raise CircuitSyntaxError(line_no, str(exc)) from None
        if word == "inputs":
            n_inputs, at = ints[0], line_no
        elif word == "const":
            consts.append(ints[0])
        else:
            gates.append((line_no, (word, *ints, sign) if word == "phase" else (word, *ints)))
    if n_inputs is None:
        raise CircuitSyntaxError(len(lines), "missing inputs header")

    def stream():
        nonlocal at
        for at, gate in gates:
            yield gate
        at = len(lines)

    try:
        return allocate_wires(stream(), n_inputs, sorted(consts))
    except CircuitError as exc:
        raise CircuitSyntaxError(at, str(exc)) from None


def format_circuit(circ: CPCircuit) -> str:
    lines = [f"inputs {circ.num_inputs}"]
    lines += [f"const {q}" for q in circ.const_qubits]
    for g in circ.gates:
        if isinstance(g, Toffoli):
            lines.append("toff {} {} {}".format(*g.qubits))
        elif isinstance(g, X):
            lines.append(f"x {g.qubit}")
        else:
            suffix = " neg" if g.sign < 0 else ""
            lines.append(f"phase {g.qubit} {g.denom_exp}{suffix}")
    return "\n".join(lines) + "\n"


def random_circuit(rng: random.Random, n_qubits: int, n_gates: int,
                   max_denom_exp: int = 3) -> CPCircuit:
    logical: list[LogicalGate] = []
    for _ in range(n_gates):
        if n_qubits >= 3 and rng.random() < 0.5:
            logical.append(toff(*rng.sample(range(n_qubits), 3)))
        else:
            logical.append(phase(rng.randrange(n_qubits), rng.randint(0, max_denom_exp),
                                 rng.choice((1, -1))))
    return allocate_wires(logical, n_qubits)


# ---------------------------------------------------------------------------
# direct simulation (the oracle the garbled path is checked against)

def simulate(circ: CPCircuit, state: SparseState) -> SparseState:
    """Apply the circuit gate by gate to a logical state (one bit per qubit)."""
    if state.layout.total_bits != circ.num_inputs:
        raise sparse.LayoutMismatchError("state width != circuit inputs")
    for g in circ.gates:
        if isinstance(g, Toffoli):
            a, b, c = g.qubits
            state = sparse.apply_classical(
                state, lambda v, a=a, b=b, c=c: v ^ ((((v >> a) & (v >> b)) & 1) << c))
        elif isinstance(g, X):
            state = sparse.apply_classical(state, lambda v, m=1 << g.qubit: v ^ m)
        else:
            q, s = g.qubit, g.sign
            state = sparse.apply_phase(
                state, lambda v, q=q, s=s: s * ((v >> q) & 1), 1 << g.denom_exp)
    return state


def eval_classical(circ: CPCircuit, bits: int) -> int:
    """Evaluate the Toffoli and X part on one basis string (phases act
    trivially)."""
    for g in circ.gates:
        if isinstance(g, Toffoli):
            a, b, c = g.qubits
            bits ^= (((bits >> a) & (bits >> b)) & 1) << c
        elif isinstance(g, X):
            bits ^= 1 << g.qubit
    return bits


# ---------------------------------------------------------------------------
# X gates as key relabelings

def without_x(circ: CPCircuit) -> CPCircuit:
    """The circuit with its X gates removed: same wires, same outputs.  An X
    keeps its wire, so the rest of the wire discipline is untouched."""
    gates = tuple(g for g in circ.gates if not isinstance(g, X))
    return CPCircuit(circ.num_inputs, gates, circ.num_wires, circ.output_wires,
                     circ.const_qubits)


def flipped_wires(circ: CPCircuit) -> frozenset[int]:
    """Wires an odd number of X gates act on, whose key k1 therefore means
    logical 0 by the time the wire is consumed or output.  Once consumed a
    wire takes no more gates, so this final polarity is the one its last
    reader and the decoder see."""
    flipped: set[int] = set()
    for g in circ.gates:
        if isinstance(g, X):
            flipped ^= {g.wire}
    return frozenset(flipped)


# ---------------------------------------------------------------------------
# phase-angle decomposition

def decompose_phase(angle_num: int, denom_exp: int) -> list[int]:
    """Split R_Z(angle_num * pi / 2^denom_exp) into R_Z(pi/2^j) factors and
    return their exponents j.  A negative angle wraps around mod 2*pi, so
    every factor turns the same way."""
    k = angle_num % (1 << (denom_exp + 1))
    return [j for j in range(denom_exp + 1) if (k >> (denom_exp - j)) & 1]


# ---------------------------------------------------------------------------
# universal machine
#
# Gate codes, canonically enumerated (the source text counts the choices but
# never fixes an assignment; this one is ours and is stable):
#
#   [0, 3N)             SWAP(data wire w, aux a): code 3w + a
#   3N                  Toffoli on the three aux wires
#   [3N+1, 3N+1+N*D)    R_Z(pi/2^d) on data wire w, d in 1..D: 3N+1 + w*D + (d-1)
#   3N+1+N*D            identity (padding)
#
# d=0 phases (bare Z) are compiled as two d=1 codes, so the code table stays
# at the three source gate types.  The code width is taken from the documented
# bound with N' = N+3; the actual table is smaller and must fit underneath.

@dataclass(frozen=True)
class UniversalMachine:
    circuit: CPCircuit
    n_data: int
    max_denom_exp: int
    slots: int
    code_width: int
    n_codes: int
    desc_qubits: tuple[tuple[int, ...], ...]   # per slot, MSB first

    @property
    def const_qubits(self) -> tuple[int, ...]:
        return self.circuit.const_qubits

    @property
    def identity_code(self) -> int:
        return self.n_codes - 1

    def swap_code(self, wire: int, aux: int) -> int:
        return 3 * wire + aux

    @property
    def toffoli_code(self) -> int:
        return 3 * self.n_data

    def phase_code(self, wire: int, d: int) -> int:
        return 3 * self.n_data + 1 + wire * self.max_denom_exp + (d - 1)

    def compile_codes(self, circ: CPCircuit) -> list[int]:
        codes: list[int] = []
        for g in circ.gates:
            if isinstance(g, Toffoli):
                swaps = [self.swap_code(q, i) for i, q in enumerate(g.qubits)]
                codes += swaps + [self.toffoli_code] + swaps
            elif isinstance(g, X):
                raise CircuitError("the universal machine has no X code")
            elif g.denom_exp > self.max_denom_exp:
                raise CircuitError("circuit uses a finer phase than the machine supports")
            else:
                for j in decompose_phase(g.sign, g.denom_exp):
                    if j == 0:
                        codes += [self.phase_code(g.qubit, 1)] * 2
                    else:
                        codes.append(self.phase_code(g.qubit, j))
        return codes

    def describe(self, circ: CPCircuit) -> list[int]:
        """Compile a circuit to the padded description program, one code
        per slot."""
        if circ.num_inputs != self.n_data:
            raise CircuitError("circuit width differs from the machine's")
        codes = self.compile_codes(circ)
        if len(codes) > self.slots:
            raise CircuitError(f"program needs {len(codes)} slots, machine has {self.slots}")
        codes += [self.identity_code] * (self.slots - len(codes))
        return codes

    def prep_bits(self, desc: Sequence[int]) -> int:
        """Initial basis value of every non-data qubit (const 1, each slot's
        code MSB first on its description qubits, aux and scratch 0),
        positioned for OR-ing with the data bits."""
        if len(desc) != self.slots:
            raise CircuitError("description length differs from slot count")
        value = self.circuit.const_mask
        top = self.code_width - 1
        for slot_qubits, code in zip(self.desc_qubits, desc):
            for j, qubit in enumerate(slot_qubits):
                value |= ((code >> (top - j)) & 1) << qubit
        return value


def universalize(circ: CPCircuit, n_qubits: int, max_denom_exp: int,
                 max_gates: int) -> tuple[UniversalMachine, list[int]]:
    """Build the fixed interpreter circuit for (n_qubits, max_denom_exp,
    max_gates) and the description program that makes it compute circ.

    The machine depends only on those three parameters, so equal-shaped
    circuits are indistinguishable from the machine alone.
    """
    if circ.num_inputs != n_qubits:
        raise CircuitError("circuit width differs from declared qubit count")
    if max_denom_exp < 1:
        raise CircuitError("universal machine needs max_denom_exp >= 1")
    if len(circ.gates) > max_gates:
        raise CircuitError(f"circuit has {len(circ.gates)} gates, cap is {max_gates}")

    n = n_qubits
    d_max = max_denom_exp
    n_codes = 3 * n + 1 + n * d_max + 1
    width = math.ceil(math.log2(3 * (n + 3) + 1 + (n + 3) * d_max))
    assert n_codes <= (1 << width), "code table exceeds the documented width"
    slots = max(7, d_max + 2) * max_gates

    # qubit map
    data = list(range(n))
    aux = (n, n + 1, n + 2)
    c0 = n + 3
    pos = n + 4
    desc_qubits = []
    for _ in range(slots):
        desc_qubits.append(tuple(range(pos, pos + width)))
        pos += width
    ands = list(range(pos, pos + width - 1))    # the AND ancilla of depths 2..width
    pos += width - 1
    opanc = pos; pos += 1
    total_qubits = pos

    gates: list[LogicalGate] = []

    def cnot(a, t):
        gates.append(toff(c0, a, t))

    def operate(code, m):
        """The operation of one code, controlled by its match wire m."""
        if code < 3 * n:
            w, a = data[code // 3], aux[code % 3]
            cnot(a, w)
            gates.append(toff(m, w, a))
            cnot(a, w)
        elif code == 3 * n:
            gates.append(toff(m, aux[0], opanc))
            gates.append(toff(opanc, aux[1], aux[2]))
            gates.append(toff(m, aux[0], opanc))
        else:
            rel = code - (3 * n + 1)
            w, d = data[rel // d_max], rel % d_max + 1
            gates.append(toff(m, w, opanc))
            gates.append(phase(opanc, d))
            gates.append(toff(m, w, opanc))

    def walk(slot_bits, m, depth, lo):
        """Visit the codes below the depth-bit prefix of lo, whose match is
        on wire m, in increasing order.  The left child's ancilla is m AND
        NOT bit (an X is free); one CNOT from m turns it into the right
        child's, and a Toffoli on the unflipped bit clears either."""
        if depth == width:
            operate(lo, m)
            return
        bit, anc = slot_bits[depth], ands[depth - 1]
        right = lo + (1 << (width - 1 - depth))
        gates.extend([x(bit), toff(m, bit, anc)])
        walk(slot_bits, anc, depth + 1, lo)
        if right < n_codes - 1:             # an operation code lies to the right
            gates.append(x(bit))
            cnot(m, anc)
            walk(slot_bits, anc, depth + 1, right)
            gates.append(toff(m, bit, anc))
        else:
            gates.extend([toff(m, bit, anc), x(bit)])

    # Each slot decodes its code by unary iteration (Babbush et al., PRX
    # 2018): a depth-first walk of the code tree with one AND ancilla per
    # level, where a node's match is its parent's AND one description bit.
    # Depth 1 matches the top bit itself, so the walk needs width - 1
    # ancillas and visits only prefixes of the operation codes.
    half = 1 << (width - 1)
    for slot_bits in desc_qubits:
        top = slot_bits[0]
        gates.append(x(top))
        walk(slot_bits, top, 1, 0)
        gates.append(x(top))
        if half < n_codes - 1:
            walk(slot_bits, top, 1, half)

    machine = UniversalMachine(
        circuit=allocate_wires(gates, total_qubits, (c0,)),
        n_data=n,
        max_denom_exp=d_max,
        slots=slots,
        code_width=width,
        n_codes=n_codes,
        desc_qubits=tuple(desc_qubits),
    )
    return machine, machine.describe(circ)
