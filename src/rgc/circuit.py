"""C+P circuit representation: Toffoli gates, single-qubit phase gates and X.

A circuit is one list of gates that name qubits (0..N-1): the text format,
the generators, the direct simulator and the server's skeleton all use it.
:func:`allocate_wires` is the one checker and builder of a circuit, and so
the one place that states a circuit's rules: the text parser, the generators
and the server's skeleton reader all build through it.

Wires are the client's bookkeeping for its key pairs, derived once per
circuit in :attr:`CPCircuit.wiring`: a Toffoli consumes its three qubits'
current wires and drives three fresh ones, and a phase gate and an X keep
their wire.  Inputs are wires 0..N-1, so a circuit with N inputs and L gates
uses at most N+3L wires.  The server never numbers a wire.

An X costs nothing to delegate.  With one key per logical value, a NOT only
swaps which of its wire's two keys means 0, so the wiring records with every
wire a gate reads, and with every output, the parity of the X gates on it
so far, and the garbler emits no table for an X; the server's skeleton is
the circuit with its X gates removed (:func:`without_x`).

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

The universal machine at the bottom of this module compiles a C+P circuit
without X gates to a description program of one code per gate, run by a
fixed interpreter circuit with one slot per gate, so that delegating the
interpreter hides which program ran (only N, D and the length cap leak).
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from . import sparse
from .sparse import SparseState

DEFAULT_MAX_DENOM_EXP = 16


class CircuitError(ValueError):
    pass


class CircuitSyntaxError(CircuitError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Toffoli:
    qubits: tuple[int, int, int]      # (control, control, target)


@dataclass(frozen=True)
class Phase:
    qubit: int
    denom_exp: int                    # gate is R_Z(sign * pi / 2^denom_exp)
    sign: int = 1


@dataclass(frozen=True)
class X:
    qubit: int


Gate = Toffoli | Phase | X


def toff(a: int, b: int, c: int) -> Toffoli:
    return Toffoli((a, b, c))


phase, x = Phase, X


End = tuple[int, int]       # (wire, flip): on flip 1 the wire's key k1 means 0


class GateWiring(NamedTuple):
    reads: tuple[End, ...]      # per header slot: a Toffoli's three, a phase gate's one
    writes: tuple[int, ...]     # a Toffoli's three fresh wires; () for a phase gate


@dataclass(frozen=True)
class Wiring:
    gates: tuple[GateWiring, ...]   # per skeleton gate (X gates have no table)
    num_wires: int
    outputs: tuple[End, ...]        # per qubit


@dataclass(frozen=True)
class CPCircuit:
    num_inputs: int
    gates: tuple[Gate, ...]
    const_qubits: tuple[int, ...] = ()    # public constant-1 inputs, sorted

    @property
    def input_wires(self) -> range:
        return range(self.num_inputs)

    @property
    def const_mask(self) -> int:
        """The constant qubits' bits, all set in every valid input."""
        return sum(1 << q for q in self.const_qubits)

    @property
    def num_wires(self) -> int:
        return self.wiring.num_wires

    @cached_property
    def wiring(self) -> Wiring:
        """The wires each gate reads and writes and each qubit ends on, with
        the parity of the X gates each has met.  A wire takes no gate once
        consumed, so the parity its reader sees is final."""
        current = list(range(self.num_inputs))
        flips = [0] * self.num_inputs
        next_wire = self.num_inputs
        gates: list[GateWiring] = []
        for g in self.gates:
            if isinstance(g, Toffoli):
                writes = (next_wire, next_wire + 1, next_wire + 2)
                next_wire += 3
                gates.append(GateWiring(tuple((current[q], flips[q]) for q in g.qubits),
                                        writes))
                for q, w in zip(g.qubits, writes):
                    current[q], flips[q] = w, 0
            elif isinstance(g, X):
                flips[g.qubit] ^= 1
            else:
                gates.append(GateWiring(((current[g.qubit], flips[g.qubit]),), ()))
        return Wiring(tuple(gates), next_wire, tuple(zip(current, flips)))


def allocate_wires(gates: Iterable[Gate], n_inputs: int,
                   const_qubits: Sequence[int] = ()) -> CPCircuit:
    """The circuit of these gates, refusing a qubit out of range, a Toffoli
    naming one qubit twice, a phase exponent outside 0..DEFAULT_MAX_DENOM_EXP
    or sign other than +-1, and constant qubits that are not strictly
    increasing inputs or that a gate could change.  Its wires are derived
    only when the client asks (:attr:`CPCircuit.wiring`)."""
    if n_inputs <= 0:
        raise CircuitError("circuit needs at least one input")
    checked: list[Gate] = []
    for g in gates:
        if isinstance(g, Toffoli):
            a, b, c = g.qubits
            if a == b or a == c or b == c:
                raise CircuitError(f"toffoli qubits must be distinct, got {a} {b} {c}")
            if not (0 <= a < n_inputs and 0 <= b < n_inputs and 0 <= c < n_inputs):
                q = next(q for q in (a, b, c) if not 0 <= q < n_inputs)
                raise CircuitError(f"qubit {q} out of range (N={n_inputs})")
        elif isinstance(g, (Phase, X)):
            if not 0 <= g.qubit < n_inputs:
                raise CircuitError(f"qubit {g.qubit} out of range (N={n_inputs})")
            if isinstance(g, Phase):
                if not 0 <= g.denom_exp <= DEFAULT_MAX_DENOM_EXP:
                    raise CircuitError(f"phase exponent {g.denom_exp} not in "
                                       f"0..{DEFAULT_MAX_DENOM_EXP}")
                if g.sign not in (1, -1):
                    raise CircuitError(f"phase sign must be +-1, got {g.sign}")
        else:
            raise CircuitError(f"unknown gate {g!r}")
        checked.append(g)
    consts = tuple(const_qubits)
    if any(b <= a for a, b in zip(consts, consts[1:])):
        raise CircuitError(f"constant qubits must be strictly increasing, got {consts}")
    if consts and not 0 <= consts[0] <= consts[-1] < n_inputs:
        raise CircuitError(f"constant qubits {consts} out of range (N={n_inputs})")
    const_set = frozenset(consts)
    for g in checked:
        if isinstance(g, Toffoli):
            if g.qubits[2] in const_set:
                raise CircuitError(f"constant qubit {g.qubits[2]} is a toffoli target")
        elif g.qubit in const_set:
            raise CircuitError(f"constant qubit {g.qubit} is "
                               f"{'phased' if isinstance(g, Phase) else 'hit by an X'}")
    return CPCircuit(n_inputs, tuple(checked), consts)


def cancel_pairs(gates: Iterable[Gate]) -> list[Gate]:
    """The gate list without its pairs of identical Toffoli or X gates that
    only gates they commute with separate.

    Two gates commute when neither one's target is a qubit the other only
    reads; a Toffoli's controls and a phase gate's qubit are read-only.
    Toffolis whose controls differ only in order are identical.  Phase
    gates are never removed.

    Each gate is checked against the latest copy of itself after the last
    gate it does not commute with; such a copy is dropped with it.  One pass
    is a fixpoint: a kept gate's latest blocker could only be dropped by a
    later copy of the blocker, which the kept gate blocks in turn.
    """
    out: list[Gate | None] = []
    readers: dict[int, list[int]] = {}     # qubit -> positions of gates reading it
    writers: dict[int, list[int]] = {}     # qubit -> positions of gates writing it
    copies: dict[object, list[int]] = {}   # gate -> positions of its copies

    def latest(positions: list[int]) -> int:
        while positions and out[positions[-1]] is None:
            positions.pop()
        return positions[-1] if positions else -1

    for g in gates:
        if isinstance(g, Toffoli):
            reads, target = g.qubits[:2], g.qubits[2]
            key: object = (frozenset(reads), target)
        elif isinstance(g, X):
            reads, target, key = (), g.qubit, g
        else:
            reads, target, key = (g.qubit,), None, None
        if key is not None:
            blocker = max([latest(readers.get(target, [])),
                           *(latest(writers.get(q, [])) for q in reads)])
            copy = latest(copies.setdefault(key, []))
            if copy > blocker:
                out[copy] = None
                continue
            copies[key].append(len(out))
            writers.setdefault(target, []).append(len(out))
        for q in reads:
            readers.setdefault(q, []).append(len(out))
        out.append(g)
    return [g for g in out if g is not None]


# ---------------------------------------------------------------------------
# text format

_ARITY = {"inputs": 1, "const": 1, "toff": 3, "phase": 2, "x": 1}
_BUILD = {"toff": toff, "phase": phase, "x": x}


def parse_circuit(text: str) -> CPCircuit:
    """Tokenize the text format and stream its gates into :func:`allocate_wires`,
    which states every rule on them; a refusal is reported at the line being
    read (the end of the text for the constant list)."""
    lines = text.splitlines()
    n_inputs = None
    consts: list[int] = []
    gates: list[tuple[int, Gate]] = []
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
            if word == "phase":
                ints.append(sign)
            gates.append((line_no, _BUILD[word](*ints)))
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
    gates: list[Gate] = []
    for _ in range(n_gates):
        if n_qubits >= 3 and rng.random() < 0.5:
            gates.append(toff(*rng.sample(range(n_qubits), 3)))
        else:
            gates.append(phase(rng.randrange(n_qubits), rng.randint(0, max_denom_exp),
                               rng.choice((1, -1))))
    return allocate_wires(gates, n_qubits)


# ---------------------------------------------------------------------------
# direct simulation (the oracle the garbled path is checked against): the
# state transposed once into one bitset per qubit

def simulate(circ: CPCircuit, state: SparseState) -> SparseState:
    """Apply the circuit to a logical state (one bit per qubit).

    ``sparse.transpose`` turns the terms into one Python-int bitset per
    qubit (bit t is the qubit's value in term t), and back at the end, so a
    Toffoli is one AND and one XOR over all terms and an X one XOR
    (bitslicing, Biham, FSE 1997).  A phase gate multiplies every amplitude
    by the factor of its qubit's value, 1+0j for a 0 included (that product
    can flip the sign of a zero part), as ``sparse.apply_phase`` does.  So
    the result is the gate-by-gate ``sparse.apply_classical`` and
    ``apply_phase`` run bit for bit: same keys, term order and amplitudes.  A
    step that is not a permutation of the support (a hand-built Toffoli
    naming one qubit twice) merges terms, and the merge survives every later
    step, so it is refused at the end.

    This is the reference the garbled path is checked against, so it shares
    no code with it: this module imports nothing from ``rgc.evaluate``,
    ``rgc.garble`` or ``rgc.symcrypt`` (a tier-1 test parses it to check).
    """
    if state.layout.total_bits != circ.num_inputs:
        raise sparse.LayoutMismatchError("state width != circuit inputs")
    n = len(state.terms)
    if not n:
        return SparseState(state.layout, {}, check=False)
    amps = list(state.terms.values())
    full = (1 << n) - 1
    col = sparse.transpose(list(state.terms),
                           max(circ.num_inputs, max(state.terms).bit_length()))
    for g in circ.gates:
        if isinstance(g, Toffoli):
            a, b, c = g.qubits
            col[c] ^= col[a] & col[b]
        elif isinstance(g, X):
            col[g.qubit] ^= full
        else:
            denom = 1 << g.denom_exp        # apply_phase's factors for values 0, 1
            one, f = (cmath.exp(1j * math.pi * (g.sign * v % (2 * denom)) / denom)
                      for v in (0, 1))
            bits = format(col[g.qubit], f"0{n}b")[::-1]
            amps = [amp * (f if bit == "1" else one) for amp, bit in zip(amps, bits)]
    terms = dict(zip(sparse.transpose(col, n), amps))
    if len(terms) != n:
        raise ValueError(f"circuit is not a permutation of the support: "
                         f"{n - len(terms)} term(s) merged")
    return SparseState(state.layout, terms, check=False)


# ---------------------------------------------------------------------------
# the server's view

def without_x(circ: CPCircuit) -> CPCircuit:
    """The circuit with its X gates removed: the skeleton the server gets."""
    return CPCircuit(circ.num_inputs, tuple(g for g in circ.gates if not isinstance(g, X)),
                     circ.const_qubits)


# ---------------------------------------------------------------------------
# universal machine
#
# Operation codes, canonically enumerated (the source text counts the choices
# but never fixes an assignment; this one is ours and is stable):
#
#   [0, T)      Toffoli onto target t, for each t in turn, with a control pair
#               c1 < c2 of the other wires in lexicographic order;
#               T = N * C(N-1, 2)
#   T + w       phase on data wire w
#   T + N       identity (padding)
#
# A slot is its operation code followed by D+1 angle bits, MSB first.  Angle
# bit i is worth pi/2^i, so a phase slot whose angle bits spell k applies
# R_Z(k*pi/2^D); every other slot's angle bits are 0.  One source gate is one
# slot: R_Z(sign*pi/2^d) has k = sign*2^(D-d) mod 2^(D+1), and a Toffoli's
# control order does not matter.

def _operations(n: int) -> list[tuple[int, ...]]:
    """The operation table: (c1, c2, t) per Toffoli code, then (w,) per phase
    code."""
    toffolis = [(c1, c2, t) for t in range(n)
                for c1, c2 in itertools.combinations([q for q in range(n) if q != t], 2)]
    return toffolis + [(w,) for w in range(n)]


@dataclass(frozen=True)
class UniversalMachine:
    circuit: CPCircuit
    n_data: int
    max_denom_exp: int
    slots: int
    code_width: int                            # bits per slot: operation + angle
    n_codes: int                               # operation codes, identity included
    desc_qubits: tuple[tuple[int, ...], ...]   # per slot, MSB first

    @property
    def const_qubits(self) -> tuple[int, ...]:
        return self.circuit.const_qubits

    @property
    def identity_code(self) -> int:
        return (self.n_codes - 1) << (self.max_denom_exp + 1)

    def compile_codes(self, circ: CPCircuit) -> list[int]:
        """One slot code per gate of circ."""
        if circ.num_inputs != self.n_data:
            raise CircuitError("circuit width differs from the machine's")
        index = {op: i for i, op in enumerate(_operations(self.n_data))}
        angle_bits = self.max_denom_exp + 1
        codes: list[int] = []
        for g in circ.gates:
            if isinstance(g, Toffoli):
                a, b, t = g.qubits
                codes.append(index[min(a, b), max(a, b), t] << angle_bits)
            elif isinstance(g, X):
                raise CircuitError("the universal machine has no X code")
            elif g.denom_exp > self.max_denom_exp:
                raise CircuitError("circuit uses a finer phase than the machine supports")
            else:
                k = (g.sign << (self.max_denom_exp - g.denom_exp)) % (1 << angle_bits)
                codes.append(index[g.qubit,] << angle_bits | k)
        return codes

    def describe(self, circ: CPCircuit) -> list[int]:
        """Compile a circuit to the padded description program, one code
        per slot."""
        codes = self.compile_codes(circ)
        if len(codes) > self.slots:
            raise CircuitError(f"program needs {len(codes)} slots, machine has {self.slots}")
        codes += [self.identity_code] * (self.slots - len(codes))
        return codes

    def prep_bits(self, desc: Sequence[int]) -> int:
        """Initial basis value of every non-data qubit (const 1, each slot's
        code MSB first on its description qubits, scratch 0),
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
    if max_denom_exp < 0:
        raise CircuitError("universal machine needs max_denom_exp >= 0")
    if len(circ.gates) > max_gates:
        raise CircuitError(f"circuit has {len(circ.gates)} gates, cap is {max_gates}")

    n = n_qubits
    operations = _operations(n)
    n_codes = len(operations) + 1
    width = (n_codes - 1).bit_length()          # operation bits of a slot
    slot_width = width + max_denom_exp + 1
    slots = max_gates

    # qubit map
    c0 = n
    pos = n + 1
    desc_qubits = []
    for _ in range(slots):
        desc_qubits.append(tuple(range(pos, pos + slot_width)))
        pos += slot_width
    ands = list(range(pos, pos + width - 1))    # the AND ancilla of depths 2..width
    pos += width - 1
    opanc, angle_anc = pos, pos + 1
    total_qubits = pos + 2

    gates: list[Gate] = []

    def cnot(a, t):
        gates.append(toff(c0, a, t))

    def operate(code, m, angle_bits):
        """The operation of one code, controlled by its match wire m."""
        op = operations[code]
        if len(op) == 3:
            c1, c2, t = op
            gates.extend([toff(m, c1, opanc), toff(opanc, c2, t), toff(m, c1, opanc)])
            return
        gates.append(toff(m, op[0], opanc))
        for i, bit in enumerate(angle_bits):
            gates.extend([toff(opanc, bit, angle_anc), phase(angle_anc, i),
                          toff(opanc, bit, angle_anc)])
        gates.append(toff(m, op[0], opanc))

    def walk(slot_bits, m, depth, lo):
        """Visit the codes below the depth-bit prefix of lo, whose match is
        on wire m, in increasing order.  The left child's ancilla is m AND
        NOT bit (an X is free); one CNOT from m turns it into the right
        child's, and a Toffoli on the unflipped bit clears either."""
        if depth == width:
            operate(lo, m, slot_bits[width:])
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
    # ancillas and visits only prefixes of the operation codes; a leaf reads
    # its slot's angle bits directly.
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
        max_denom_exp=max_denom_exp,
        slots=slots,
        code_width=slot_width,
        n_codes=n_codes,
        desc_qubits=tuple(desc_qubits),
    )
    return machine, machine.describe(circ)
