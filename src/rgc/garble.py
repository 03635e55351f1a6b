"""Reversible garbled tables for C+P circuits.

A Toffoli gate garbles into two tables: the forward table encrypts the three
output-wire keys under the three input-wire keys (one row per input triple
(u,v,w), output bits (u, v, w xor uv)), and the backward table encrypts the
input keys under the output keys.  Evaluating forward and then using the
backward row to erase the inputs makes the whole step a basis permutation,
which is why it can run on superpositions.

Each table is a nonce, a header and its rows, in the joint-hash scheme of
:mod:`rgc.symcrypt`.  The nonce is p = kappa/8 fresh bytes per table, read
with the table's permute bits from the gate's fixed-stride slice of one
SHAKE-256 key stream (:class:`rgc.util.KeyStream`) over a 256-bit secret
that :func:`garble_circuit` draws once.  The header has one slot per key
position holding the digests of that wire's two keys, and each slot's order
is a fresh random bit: the key of logical value x sits at position x xor s.
The row under keys at positions (b1, b2, b3) sits at index (b1, b2, b3) and
is its payload masked by one oracle query over its keys, the nonce and that
index, so a Toffoli row is 3p bytes and a phase row its payload alone.  The
permute bit of point-and-permute (Beaver, Micali and Rogaway, STOC 1990)
comes from the tag order, and the keys themselves stay uniform.  An
evaluator holding one key per slot learns its positions and nothing about
x, since s is uniform and drawn afresh for every table; it finds its row
with one digest per slot instead of a tag check per row.

A digest only has to tell its slot's two keys apart, so it is short: t =
``symcrypt.DEFAULT_TAG_LEN_BITS`` = 16 bits by default.  When the two
digests of a slot are equal, which happens in about one slot in 2^t, the
garbler reads the table's nonce again from the key stream under a label of
its own (the gate, and how many reads the gate has made), keeps the flips,
and builds the header again; rows are masked under the final nonce.  So an honest key always
finds exactly one digest, and the redraw leaves every other table, the keys
and the phase offsets as they were.  It depends only on the slot's
unordered key pair and the nonce, never on a value or a flip, so the server
sees a uniform nonce given that the digests differ, which every honest
table satisfies.  What a short digest weakens: a wrong key finds a digest
with probability about 2 * 2^-t per slot.  In a Toffoli the backward
table's kappa-bit erasure check still catches such a key; a phase row has
no such check, so it would open a wrong phase, but only on the client's own
job.  The server's safety does not depend on t.

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

An X gate garbles into nothing.  The circuit's wiring gives every wire a
table reads, and every output, with the parity of the X gates on it so far,
and the garbler and the client's decoder read an odd-parity wire's pair as
(k1, k0) (``KeySchedule.keys``).  A swapped pair has the same distribution
as the original, and the server's skeleton omits X gates, so it never
learns one ran.

The row payloads never include which logical bits they correspond to; the
association exists only through which keys match which digests.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Collection, Iterable, NamedTuple, Sequence

from . import symcrypt
from .circuit import DEFAULT_MAX_DENOM_EXP, CPCircuit, Phase, Toffoli, without_x
from .encoding import KeySchedule, WireKeyPair
from .symcrypt import CryptoParams
from .util import KeyStream


class Table(NamedTuple):
    """One garbled table: its nonce, a header slot per key position, and the
    masked rows their positions index (see :mod:`rgc.symcrypt`).  A tuple,
    since both ends of the wire build one per table."""

    nonce: bytes
    header: tuple[bytes, ...]
    rows: tuple[bytes, ...]


@dataclass(frozen=True)
class GarbledBundle:
    """Everything the evaluator receives about the circuit: the public
    skeleton (gate types and their qubits, X gates omitted) and, per
    skeleton gate in circuit order, its tables as :func:`table_shapes` lays
    them out.  No key material appears outside the ciphertexts."""

    skeleton: CPCircuit
    tables: tuple[tuple[Table, ...], ...]

    def __post_init__(self):
        if len(self.tables) != len(self.skeleton.gates):
            raise ValueError("one table per gate required")


def phase_payload_bytes(denom_exp: int) -> int:
    return (denom_exp + 1 + 7) // 8   # ceil(log2(2n) / 8), n = 2^d


def phase_payload(value: int, denom_exp: int) -> bytes:
    return value.to_bytes(phase_payload_bytes(denom_exp), "big")


def table_shapes(gate: Toffoli | Phase, const_qubits: Collection[int], kappa_bytes: int
                 ) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The layout of the gate's tables, in order: per table, the digests in
    each header slot and the bytes of each row.  A table has as many rows as
    the product of its slots' digest counts.  A Toffoli has a forward and a
    backward table of three slots, 2 digests each or 1 for a constant
    control, and rows of three keys; a phase gate has one table of one
    slot."""
    if isinstance(gate, Phase):
        return (((2,), phase_payload_bytes(gate.denom_exp)),)
    a, b, _ = gate.qubits
    slots = (1 if a in const_qubits else 2, 1 if b in const_qubits else 2, 2)
    return ((slots, 3 * kappa_bytes),) * 2


class GateCoins:
    """One gate's coins from the garbling stream.  The first read is the
    gate's fixed-stride slice of one stream output, ``data[start:]``, and
    each later read, a nonce redraw, is a query of its own labeled by (gate,
    read), so a redraw changes no other table.  The gate garblers read coins
    through ``randbytes`` alone, so a ``random.Random`` serves the tests and
    the games' control of the derivation before the key stream."""

    __slots__ = ("_data", "_start", "_stream", "_gate", "_reads")

    def __init__(self, data: bytes, start: int, stream: KeyStream, gate: int):
        self._data, self._start, self._stream, self._gate = data, start, stream, gate
        self._reads = 0

    def randbytes(self, n: int) -> bytes:
        self._reads += 1
        if self._reads == 1:
            return self._data[self._start:self._start + n]
        return self._stream.read(b"redraw" + self._gate.to_bytes(4, "little")
                                 + self._reads.to_bytes(4, "little"), n)


def coin_bytes(gate: Toffoli | Phase, kappa_bytes: int) -> int:
    """The bytes a gate's garbler reads first from its coins: per table p
    nonce bytes and a byte of permute bits, and for a phase gate its offset
    m of :func:`phase_payload_bytes` bytes."""
    if isinstance(gate, Phase):
        return kappa_bytes + 1 + phase_payload_bytes(gate.denom_exp)
    return 2 * kappa_bytes + 2


def coin_stride(kappa_bytes: int) -> int:
    """The stride of the gates' coins in the garbling stream: the most any
    gate reads first."""
    return max(coin_bytes(Phase(0, DEFAULT_MAX_DENOM_EXP), kappa_bytes),
               coin_bytes(Toffoli((0, 1, 2)), kappa_bytes))


@functools.cache
def _slot_orders(slots: tuple[int, ...], bits: int
                 ) -> tuple[tuple[int, ...], tuple[slice, ...]]:
    """Per slot, the bit s that puts the key of value x at position x xor s
    (bit j of a table's permute ``bits`` for a slot of two digests, and 1
    for a slot of one, which holds the 1 key), and the slice of the slot's
    (0 key, 1 key) pair that lists its keys by position."""
    flips = tuple([bits >> j & 1 if n == 2 else 1 for j, n in enumerate(slots)])
    return flips, tuple([slice(None, None, -1 if s else 1) if n == 2 else slice(1, None)
                         for n, s in zip(slots, flips)])


def _header(params: CryptoParams, pairs: Sequence[WireKeyPair], slots: tuple[int, ...],
            coins: GateCoins | random.Random, nonce: bytes, bits: int
            ) -> tuple[bytes, tuple[bytes, ...], tuple[int, ...]]:
    """A table's nonce, its header over each slot's (0 key, 1 key) pair, and
    the slots' flips (see :func:`_slot_orders`).  While a slot's two digests
    are equal, the nonce is read again from ``coins`` and the flips are
    kept."""
    flips, orders = _slot_orders(slots, bits)
    slot_keys = [pair[order] for pair, order in zip(pairs, orders)]
    header = symcrypt.table_header(params, nonce, slot_keys)
    t = params.digest_bytes
    # a one-digest slot never counts: its second half is empty
    while any([digests[:t] == digests[t:] for digests in header]):
        if any(keys[0] == keys[-1] for keys in slot_keys if len(keys) == 2):
            raise ValueError("a wire's two keys must differ")
        nonce = coins.randbytes(params.kappa_bytes)
        header = symcrypt.table_header(params, nonce, slot_keys)
    return nonce, header, flips


def _row_orders(size: int) -> tuple[tuple[itemgetter, itemgetter], ...]:
    """Per mask m < size, the getters of a table's row keys from its source
    side's key strings and of its payloads from its target side's, each
    side listed in triple order: row i holds triple i xor m, and a triple's
    payload is the key string of the triple the Toffoli maps it to, which
    flips the target bit of the last two triples, those whose controls are
    both 1.  The Toffoli is its own inverse, so the getters serve the
    forward and the backward table alike."""
    def toffoli(t):
        return t ^ 1 if t >= size - 2 else t
    return tuple((itemgetter(*[i ^ m for i in range(size)]),
                  itemgetter(*[toffoli(i ^ m) for i in range(size)])) for m in range(size))


_ROW_ORDERS = {size: _row_orders(size) for size in (2, 4, 8)}


def _key_strings(pairs: Sequence[WireKeyPair], slots: Sequence[int]) -> list[bytes]:
    """k1||k2||k3 over the triples of the three wires' keys in triple order,
    the mixed-radix number of their values; a constant control's wire offers
    its 1 key alone."""
    (a, b, c), (na, nb, _) = pairs, slots
    firsts = [x + y for x in (a if na == 2 else a[1:]) for y in (b if nb == 2 else b[1:])]
    return [xy + z for xy in firsts for z in c]


def garble_toffoli(params: CryptoParams, gate: Toffoli, ins: Sequence[WireKeyPair],
                   outs: Sequence[WireKeyPair], coins: GateCoins | random.Random,
                   const_qubits: Collection[int] = ()) -> tuple[Table, Table]:
    """The gate's forward and backward tables over the key pairs of the
    wires it reads and writes, in slot order.

    A row's index is the mixed-radix number of its keys' header positions x
    xor s over the slots' digest counts, a one-digest slot's key at 0, so
    the row of triple t (see :func:`_key_strings`) sits at t xor m, m that
    number over the flips s of the two-digest slots.  A constant control is
    1 on both sides of the gate."""
    (slots, _), _ = table_shapes(gate, const_qubits, params.kappa_bytes)
    p = params.kappa_bytes
    data = coins.randbytes(coin_bytes(gate, p))
    fwd_nonce, fwd_header, (f0, f1, f2) = _header(params, ins, slots, coins, data[:p], data[p])
    bwd_nonce, bwd_header, (b0, b1, b2) = _header(params, outs, slots, coins,
                                                  data[p + 1:2 * p + 1], data[2 * p + 1])
    n0, n1, _ = slots
    orders = _ROW_ORDERS[n0 * n1 * 2]
    # f % n is f for a slot of two digests and 0 for a slot of one
    fwd_keys, fwd_payloads = orders[(f0 % n0 * n1 + f1 % n1) * 2 + f2]
    bwd_keys, bwd_payloads = orders[(b0 % n0 * n1 + b1 % n1) * 2 + b2]
    ins, outs = _key_strings(ins, slots), _key_strings(outs, slots)
    return (Table(fwd_nonce, fwd_header,
                  symcrypt.table_rows(params, fwd_nonce, fwd_keys(ins), fwd_payloads(outs))),
            Table(bwd_nonce, bwd_header,
                  symcrypt.table_rows(params, bwd_nonce, bwd_keys(outs), bwd_payloads(ins))))


def garble_phase(params: CryptoParams, gate: Phase, pair: WireKeyPair,
                 coins: GateCoins | random.Random) -> tuple[Table]:
    """The gate's table: the key of value x opens m + x mod 2n, with m read
    from ``coins`` and masked to d + 1 bits, which is uniform since
    2n = 2^(d+1)."""
    modulus = 2 << gate.denom_exp          # 2n
    p = params.kappa_bytes
    data = coins.randbytes(coin_bytes(gate, p))
    m0 = int.from_bytes(data[p + 1:], "big") & (modulus - 1)
    ((slots, _),) = table_shapes(gate, (), p)
    nonce, header, (flip,) = _header(params, (pair,), slots, coins, data[:p], data[p])
    # row i holds the key of value x = i xor flip
    values = (flip, flip ^ 1)
    rows = symcrypt.table_rows(params, nonce, [pair[x] for x in values],
                               [phase_payload((m0 + x) % modulus, gate.denom_exp) for x in values])
    return (Table(nonce, header, rows),)


def garble_circuit(params: CryptoParams, circ: CPCircuit, schedule: KeySchedule,
                   rng: random.Random) -> GarbledBundle:
    """The circuit's tables.  One 256-bit secret drawn from ``rng`` keys the
    garbling stream, and gate i's coins start at i times the stride of one
    output of it, so no gate's tables depend on what another gate reads."""
    wiring = circ.wiring
    if schedule.num_wires != wiring.num_wires:
        raise ValueError("schedule does not cover the circuit's wires")
    skeleton = without_x(circ)
    consts = frozenset(circ.const_qubits)
    stream = KeyStream(rng.getrandbits(256))
    stride = coin_stride(params.kappa_bytes)
    data = stream.read(b"tables", stride * len(skeleton.gates))
    tables: list[tuple[Table, ...]] = []
    keys = schedule.keys
    for i, (gate, (reads, writes)) in enumerate(zip(skeleton.gates, wiring.gates)):
        ins = [keys(wire, flip) for wire, flip in reads]
        coins = GateCoins(data, i * stride, stream, i)
        if isinstance(gate, Toffoli):
            tables.append(garble_toffoli(params, gate, ins, [keys(wire) for wire in writes],
                                         coins, consts))
        else:
            tables.append(garble_phase(params, gate, ins[0], coins))
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
