"""Reversible garbled tables for C+P circuits.

A Toffoli gate garbles into two tables of eight rows each: the forward table
encrypts the three output-wire keys under the three input-wire keys (one row
per input triple (u,v,w), output bits (u, v, w xor uv)), and the backward
table encrypts the input keys under the output keys.  Evaluating forward and
then using the backward row to erase the inputs makes the whole step a basis
permutation, which is why it can run on superpositions.  Both tables are
shuffled independently; the evaluator rediscovers rows through the key tags.

A Toffoli with a public constant control (see :mod:`rgc.circuit`) keeps only
the rows in which that control is 1, in both tables: 8 >> k rows each for k
constant controls.  A gate without one garbles the same whatever constants
the circuit declares.  This is constant propagation as garbling compilers do
it (TinyGarble, Songhori et al., IEEE S&P 2015), and it reveals nothing the
full table does not: a constant's wire only ever holds its 1 key, which the
evaluator holds, and with that key anyone can cut the half table out of the
full one by keeping the rows whose tag in the constant's slot verifies - a
uniformly shuffled half, like the one sent.  Which gates have a constant
control is public through the skeleton.  A secret bit declared constant
breaks this: its 0 key opens no row, which shows its value.

A phase gate garbles into two single-key rows: key for 0 opens a random
m, key for 1 opens m+1.  The evaluator writes the opened value into a scratch
register, phases it by omega^value (omega = exp(i*pi/2^d)), and unwrites it;
only the +1 difference survives as a relative phase, m itself becomes an
unobservable global factor.  m lives in Z_{2n} (n = 2^d): omega has order 2n,
and only the difference of the two entries matters, so the wraparound
representation is sound.

An X gate garbles into nothing.  The garbler walks the circuit with the set
of wires whose key roles an odd number of X gates have swapped, reads a
flipped wire's pair as (k1, k0), and the client's decoder does the same for
the output wires.  A swapped pair has the same distribution as the original,
and the server's skeleton omits X gates, so it never learns one ran.

The row payloads never include which logical bits they correspond to; the
association exists only through which keys verify.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from . import symcrypt
from .circuit import CPCircuit, Phase, Toffoli, X, without_x
from .encoding import KeySchedule
from .symcrypt import CryptoParams
from .util import spawn_rngs


@dataclass(frozen=True)
class ToffoliTables:
    """Eight packed triple-key rows each way (see :mod:`rgc.symcrypt`), or
    :func:`toffoli_rows` of them when a control is a public constant."""

    forward: tuple[bytes, ...]
    backward: tuple[bytes, ...]


@dataclass(frozen=True)
class PhaseTable:
    """Two packed single-key rows."""

    rows: tuple[bytes, bytes]


@dataclass(frozen=True)
class GarbledBundle:
    """Everything the evaluator receives about the circuit: the public
    skeleton (gate types and their qubits, X gates omitted) and one table per
    skeleton gate, in circuit order.  No key material appears outside the
    ciphertexts.  The row widths follow from the shared ``CryptoParams``."""

    skeleton: CPCircuit
    tables: tuple[ToffoliTables | PhaseTable, ...]

    def __post_init__(self):
        if len(self.tables) != len(self.skeleton.gates):
            raise ValueError("one table per gate required")


def phase_payload_bytes(denom_exp: int) -> int:
    return (denom_exp + 1 + 7) // 8   # ceil(log2(2n) / 8), n = 2^d


def phase_payload(value: int, denom_exp: int) -> bytes:
    return value.to_bytes(phase_payload_bytes(denom_exp), "big")


def toffoli_rows(gate: Toffoli, const_qubits: Collection[int]) -> int:
    """Rows in each of a Toffoli's tables: 8, halved per constant control."""
    return 8 >> ((gate.qubits[0] in const_qubits) + (gate.qubits[1] in const_qubits))


def _pair(schedule: KeySchedule, wire: int, flipped: Collection[int]) -> tuple[bytes, bytes]:
    """The wire's (logical 0 key, logical 1 key) after its X gates so far."""
    k0, k1 = schedule.pairs[wire]
    return (k1, k0) if wire in flipped else (k0, k1)


def garble_toffoli(params: CryptoParams, gate: Toffoli, schedule: KeySchedule,
                   rng: random.Random, flipped: Collection[int] = (),
                   const_qubits: Collection[int] = ()) -> ToffoliTables:
    w1, w2, w3 = (_pair(schedule, w, flipped) for w in gate.in_wires)
    v1, v2, v3 = (schedule.pairs[w] for w in gate.out_wires)
    # a constant control is 1 on both sides of the gate
    us, vs = ((1,) if q in const_qubits else (0, 1) for q in gate.qubits[:2])
    forward, backward = [], []
    for u in us:
        for v in vs:
            for w in (0, 1):
                in_keys = (w1[u], w2[v], w3[w])
                out_keys = (v1[u], v2[v], v3[w ^ (u & v)])
                forward.append(symcrypt.triple_enc(params, *in_keys,
                                                   b"".join(out_keys), rng))
                backward.append(symcrypt.triple_enc(params, *out_keys,
                                                    b"".join(in_keys), rng))
    rng.shuffle(forward)
    rng.shuffle(backward)
    return ToffoliTables(tuple(forward), tuple(backward))


def garble_phase(params: CryptoParams, gate: Phase, schedule: KeySchedule,
                 rng: random.Random, flipped: Collection[int] = ()) -> PhaseTable:
    k0, k1 = _pair(schedule, gate.wire, flipped)
    modulus = 2 << gate.denom_exp          # 2n
    m0 = rng.randrange(modulus)
    rows = [
        symcrypt.kdm_enc(params, k0, phase_payload(m0, gate.denom_exp), rng),
        symcrypt.kdm_enc(params, k1, phase_payload((m0 + 1) % modulus, gate.denom_exp), rng),
    ]
    rng.shuffle(rows)
    return PhaseTable(tuple(rows))


def garble_circuit(params: CryptoParams, circ: CPCircuit, schedule: KeySchedule,
                   rng: random.Random) -> GarbledBundle:
    if schedule.num_wires != circ.num_wires:
        raise ValueError("schedule does not cover the circuit's wires")
    skeleton = without_x(circ)
    # One pre-split stream per table: garbling order never shifts randomness.
    streams = iter(spawn_rngs(rng, len(skeleton.gates)))
    flipped: set[int] = set()
    consts = frozenset(circ.const_qubits)
    tables: list[ToffoliTables | PhaseTable] = []
    for gate in circ.gates:
        if isinstance(gate, Toffoli):
            tables.append(garble_toffoli(params, gate, schedule, next(streams), flipped,
                                         consts))
        elif isinstance(gate, X):
            flipped ^= {gate.wire}
        else:
            tables.append(garble_phase(params, gate, schedule, next(streams), flipped))
    return GarbledBundle(skeleton, tuple(tables))


# ---------------------------------------------------------------------------
# revealed-key closure
#
# Opening a table row requires the full key triple of its source side, so the
# set of wires whose keys an evaluator can learn from a revealed set grows by
# exactly one rule: once all three input wires of a Toffoli are covered, its
# three output wires follow.  Phase rows reveal no keys at all, and an X
# neither reveals a key nor has a table.

def closure_pairs(revealed: Iterable[int],
                  pairs: Sequence[tuple[tuple[int, ...], tuple[int, ...]]]) -> frozenset[int]:
    """Least fixed point of: S subset of the set implies T joins it."""
    covered = set(revealed)
    grew = True
    while grew:
        grew = False
        for sources, targets in pairs:
            if set(sources) <= covered and not set(targets) <= covered:
                covered.update(targets)
                grew = True
    return frozenset(covered)
