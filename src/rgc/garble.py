"""Reversible garbled tables for C+P circuits.

A Toffoli gate garbles into two tables: the forward table encrypts the three
output-wire keys under the three input-wire keys (one row per input triple
(u,v,w), output bits (u, v, w xor uv)), and the backward table encrypts the
input keys under the output keys.  Evaluating forward and then using the
backward row to erase the inputs makes the whole step a basis permutation,
which is why it can run on superpositions.

Each table is a nonce, a header and its rows, in the joint-hash scheme of
:mod:`rgc.symcrypt`.  The nonce is p = kappa/8 fresh bytes per table, drawn
from the gate's own rng stream.  The header has one slot per key position
holding the digests of that wire's two keys, and each slot's order is a
fresh random bit: the key of logical value x sits at position x xor s.  The
row under keys at positions (b1, b2, b3) sits at index (b1, b2, b3) and is
its payload masked by one oracle query over its keys, the nonce and that
index, so a Toffoli row is 3p bytes and a phase row its payload alone.  The
permute bit of point-and-permute (Beaver, Micali and Rogaway, STOC 1990)
comes from the tag order, and the keys themselves stay uniform.  An
evaluator holding one key per slot learns its positions and nothing about
x, since s is uniform and drawn afresh for every table; it finds its row
with one digest per slot instead of a tag check per row.

A Toffoli with a public constant control (see :mod:`rgc.circuit`) keeps only
the rows in which that control is 1, in both tables: 8 >> k rows each for k
constant controls, and the constant's slot holds the digest of its 1 key
alone.  A gate without one garbles the same whatever constants the circuit
declares.  This is constant propagation as garbling compilers do it
(TinyGarble, Songhori et al., IEEE S&P 2015), and it reveals nothing the
full table does not: a constant's wire only ever holds its 1 key, which the
evaluator holds, and with that key anyone can cut the half table out of the
full one by keeping the rows at the 1 key's position - a half whose order
is as random as the one sent.  Which gates have a constant control is
public through the skeleton.  A secret bit declared constant breaks this:
its 0 key matches no digest, which shows its value.

A phase gate garbles into a table of one slot and two single-key rows: key
for 0 opens a random m, key for 1 opens m+1.  The evaluator writes the opened
value into a scratch register, phases it by omega^value (omega =
exp(i*pi/2^d)), and unwrites it; only the +1 difference survives as a
relative phase, m itself becomes an unobservable global factor.  m lives in
Z_{2n} (n = 2^d): omega has order 2n, and only the difference of the two
entries matters, so the wraparound representation is sound.

An X gate garbles into nothing.  The garbler walks the circuit with the set
of wires whose key roles an odd number of X gates have swapped, reads a
flipped wire's pair as (k1, k0), and the client's decoder does the same for
the output wires.  A swapped pair has the same distribution as the original,
and the server's skeleton omits X gates, so it never learns one ran.

The row payloads never include which logical bits they correspond to; the
association exists only through which keys match which digests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from . import symcrypt
from .circuit import CPCircuit, Phase, Toffoli, X, without_x
from .encoding import KeySchedule
from .symcrypt import CryptoParams
from .util import rand_bytes, spawn_rngs


@dataclass(frozen=True)
class Table:
    """One garbled table: its nonce, a header slot per key position, and the
    masked rows their positions index (see :mod:`rgc.symcrypt`)."""

    nonce: bytes
    header: tuple[bytes, ...]
    rows: tuple[bytes, ...]


@dataclass(frozen=True)
class ToffoliTables:
    """The forward and the backward table of a Toffoli: three slots each and
    eight rows, or :func:`toffoli_slots` fewer when a control is a public
    constant."""

    forward: Table
    backward: Table


@dataclass(frozen=True)
class GarbledBundle:
    """Everything the evaluator receives about the circuit: the public
    skeleton (gate types and their qubits, X gates omitted) and one table per
    skeleton gate, in circuit order.  No key material appears outside the
    ciphertexts.  The widths follow from the shared ``CryptoParams``."""

    skeleton: CPCircuit
    tables: tuple[ToffoliTables | Table, ...]

    def __post_init__(self):
        if len(self.tables) != len(self.skeleton.gates):
            raise ValueError("one table per gate required")


def phase_payload_bytes(denom_exp: int) -> int:
    return (denom_exp + 1 + 7) // 8   # ceil(log2(2n) / 8), n = 2^d


def phase_payload(value: int, denom_exp: int) -> bytes:
    return value.to_bytes(phase_payload_bytes(denom_exp), "big")


def toffoli_slots(gate: Toffoli, const_qubits: Collection[int]) -> tuple[int, int, int]:
    """Digests in each header slot of a Toffoli's tables: 2, or 1 for a
    constant control.  A table has as many rows as their product."""
    a, b, _ = gate.qubits
    return (1 if a in const_qubits else 2, 1 if b in const_qubits else 2, 2)


def _pair(schedule: KeySchedule, wire: int, flipped: Collection[int]) -> tuple[bytes, bytes]:
    """The wire's (logical 0 key, logical 1 key) after its X gates so far."""
    k0, k1 = schedule.pairs[wire]
    return (k1, k0) if wire in flipped else (k0, k1)


def _header(params: CryptoParams, pairs: Sequence[tuple[bytes, bytes]],
            slots: Sequence[int], rng: random.Random
            ) -> tuple[bytes, tuple[bytes, ...], tuple[int, ...]]:
    """A table's fresh nonce and its header over each slot's (0 key, 1 key)
    pair, and per slot the bit s that puts the key of value x at position
    x xor s: a fresh bit for a slot of two digests, and 1 for a slot of one,
    which holds the 1 key."""
    nonce = rand_bytes(rng, params.kappa_bytes)
    flips = tuple(rng.getrandbits(1) if n == 2 else 1 for n in slots)
    header = tuple(symcrypt.header_slot(params, [pair[b ^ s] for b in range(n)], nonce, slot)
                   for slot, (pair, n, s) in enumerate(zip(pairs, slots, flips)))
    return nonce, header, flips


def _row_index(slots: Sequence[int], flips: Sequence[int], values: Sequence[int]) -> int:
    """Where the row under the keys of ``values`` sits: their header
    positions, mixed-radix over the slots' digest counts."""
    index = 0
    for n, s, x in zip(slots, flips, values):
        index = index * n + (x ^ s)
    return index


def garble_toffoli(params: CryptoParams, gate: Toffoli, schedule: KeySchedule,
                   rng: random.Random, flipped: Collection[int] = (),
                   const_qubits: Collection[int] = ()) -> ToffoliTables:
    ins = [_pair(schedule, w, flipped) for w in gate.in_wires]
    outs = [schedule.pairs[w] for w in gate.out_wires]
    slots = toffoli_slots(gate, const_qubits)
    fwd_nonce, fwd_header, fwd_flips = _header(params, ins, slots, rng)
    bwd_nonce, bwd_header, bwd_flips = _header(params, outs, slots, rng)
    n = slots[0] * slots[1] * slots[2]
    forward, backward = [b""] * n, [b""] * n
    # a constant control is 1 on both sides of the gate
    us, vs = ((1,) if k == 1 else (0, 1) for k in slots[:2])
    for u in us:
        for v in vs:
            for w in (0, 1):
                out = (u, v, w ^ (u & v))
                in_keys = (ins[0][u], ins[1][v], ins[2][w])
                out_keys = (outs[0][u], outs[1][v], outs[2][out[2]])
                i = _row_index(slots, fwd_flips, (u, v, w))
                forward[i] = symcrypt.row_enc(params, in_keys, b"".join(out_keys), fwd_nonce, i)
                i = _row_index(slots, bwd_flips, out)
                backward[i] = symcrypt.row_enc(params, out_keys, b"".join(in_keys), bwd_nonce, i)
    return ToffoliTables(Table(fwd_nonce, fwd_header, tuple(forward)),
                         Table(bwd_nonce, bwd_header, tuple(backward)))


def garble_phase(params: CryptoParams, gate: Phase, schedule: KeySchedule,
                 rng: random.Random, flipped: Collection[int] = ()) -> Table:
    pair = _pair(schedule, gate.wire, flipped)
    modulus = 2 << gate.denom_exp          # 2n
    m0 = rng.randrange(modulus)
    nonce, header, (flip,) = _header(params, (pair,), (2,), rng)
    rows = [b""] * 2
    for x in (0, 1):
        rows[x ^ flip] = symcrypt.row_enc(
            params, (pair[x],), phase_payload((m0 + x) % modulus, gate.denom_exp), nonce, x ^ flip)
    return Table(nonce, header, tuple(rows))


def garble_circuit(params: CryptoParams, circ: CPCircuit, schedule: KeySchedule,
                   rng: random.Random) -> GarbledBundle:
    if schedule.num_wires != circ.num_wires:
        raise ValueError("schedule does not cover the circuit's wires")
    skeleton = without_x(circ)
    # One pre-split stream per table: garbling order never shifts randomness.
    streams = iter(spawn_rngs(rng, len(skeleton.gates)))
    flipped: set[int] = set()
    consts = frozenset(circ.const_qubits)
    tables: list[ToffoliTables | Table] = []
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
