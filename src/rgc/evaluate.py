"""Server-side evaluation of a garbled bundle on an encoded sparse state.

The encoded state keeps one kappa-bit register per logical qubit; a gate on
qubits (a,b,c) always finds its current wire keys in registers a,b,c, so the
register layout never changes shape during evaluation and the evaluator
needs the skeleton's qubits only, never its wires.

The state arrives, is evaluated and leaves as bitset columns
(:class:`rgc.sparse.ColumnarState`): per register, the distinct keys it
holds and one Python int whose bit t is set when term t holds the
register's second key.  A received state lists its keys in increasing
order as integers; that order picks which key is bit 1, and with it the
order in which a gate's triples are translated and so which refusal a bad
table gets first.  The amplitudes are one list of Python complex numbers,
which one pass after the last gate phases.  Nothing on this path imports
numpy.  A wire has two keys, so a register may hold at most two: the column
form holds no more, and a Toffoli whose tables would write a third key to
an output wire is refused.  Honest tables never break this rule.  The
result keeps the terms in their input order, and each output register's
keys in the order the triples wrote them; ``netio`` puts it in canonical
form on the wire.

A Toffoli finds the terms of each key triple (x, y, z) by ANDing its three
registers' bitsets or their complements - at most 8 triples are present,
however many terms the superposition carries - the bitslicing of Biham
("A Fast New DES Implementation in Software", FSE 1997) applied to the term
loop.  It translates each present triple once - opening the forward row its
keys index, decrypting the output keys, and erasing the input keys through
the backward row - then builds each output register's bitset by ORing the
masks of the triples that write its second key.  A row is found through its
table's header (see :mod:`rgc.garble`): per slot, one digest of the slot's
key, which must match exactly one of the slot's digests, gives the key's
position, the positions index the row, and one oracle query opens it.  The
triples of one gate share their registers' keys, so each gate remembers the
position of every (slot, key) it has looked up, per table, and computes each
digest once.  Each triple is translated in full before the next, so a
table with two faults is refused for the one its earlier triple meets.
The counts are taken per gate, from its memos' sizes and its triple count.
A table's shape is the one :func:`rgc.garble.table_shapes` gives, by which
the garbler writes and the bundle reader reads, so it is not checked again
here.  The backward payload must XOR the inputs to exactly zero - that
erasure is asserted for every distinct triple of every gate, and a failure
aborts the evaluation: leftover input keys would entangle the result with
junk registers.

A phase gate opens its row once per distinct key, through a header of one
slot, and touches no amplitude.  A Toffoli never moves a term, so the job
keeps one exponent per term, mod 2^(D+1) for the skeleton's largest
exponent D, in D+1 bitsets over the terms plus one scalar that every term
shares (:class:`PhaseCounter`): a gate adds its first key's value, scaled
to that modulus, to the scalar, and the difference of its two keys' values
to the terms of its register's bitset, by a ripple add over the bitsets -
the Toffoli step's bitslicing again.  One pass after the last gate
multiplies each amplitude by omega^e, omega = exp(i*pi/2^D), with one
``cmath.exp`` per distinct exponent.  A job without phase gates skips it.

A register the skeleton declares a public constant must hold one key in
every term, or the state is refused.  A Toffoli it controls carries half
tables whose constant slot holds one digest, which the lookups handle
unchanged.

Everything here sees only ciphertexts and digests.  This module has no access
to, and no dependency on, the key schedule.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from . import symcrypt
from .circuit import Phase, Toffoli
from .garble import GarbledBundle, Table
from .sparse import ColumnarState, transpose
from .symcrypt import CryptoParams


class EvalError(RuntimeError):
    pass


class NoRowMatchError(EvalError):
    """No digest of a header slot matches the key: corrupted input."""


class AmbiguousRowError(EvalError):
    """Two digests of one header slot match one key: refuse to guess."""


class ErasureError(EvalError):
    """Backward row failed to zero the consumed registers."""


@dataclass
class EvalStats:
    """Counts of one evaluation, added once per gate.  A slot check, one
    digest, leaves one memo entry: ``ver_calls`` is the forward memos' sizes
    plus each phase gate's keys, ``backward_ver_calls`` the backward memos'
    sizes.  ``rows_tried`` adds the rows opened, two per Toffoli triple and
    one per phase key, so it equals the server's oracle queries.
    ``erasure_checks`` is one per Toffoli triple."""

    gates: int = 0
    terms_processed: int = 0
    rows_tried: int = 0
    ver_calls: int = 0
    backward_ver_calls: int = 0
    erasure_checks: int = 0


# Header positions one gate has looked up, per table: (slot, key) -> position.
SlotMemo = dict[tuple[int, bytes], int]


def _position(params: CryptoParams, key: bytes, nonce: bytes, slot: int, digests: bytes) -> int:
    """The position of ``key`` among the ``digests`` of header slot ``slot``:
    one oracle query, and exactly one digest must match."""
    hits = symcrypt.slot_positions(params, key, nonce, slot, digests)
    if len(hits) == 1:
        return hits[0]
    if not hits:
        raise NoRowMatchError(f"no digest of header slot {slot} matches its key")
    raise AmbiguousRowError(f"digests {hits[0]} and {hits[1]} of header slot {slot} both "
                            f"match its key")


def eval_toffoli_term(params: CryptoParams, key_triple: tuple[bytes, bytes, bytes],
                      tables: tuple[Table, Table], memo: tuple[SlotMemo, SlotMemo] | None = None
                      ) -> tuple[bytes, bytes, bytes]:
    """Translate one input key triple to the output triple, checking that the
    backward table erases the inputs exactly.

    In each table, each key's position is looked up once per gate through
    ``memo``, which holds the forward and backward positions of earlier
    triples through the same tables.  The positions, mixed-radix over the
    slots' digest counts, index the row, and one mask query over the keys,
    the table's nonce and that index opens it.
    """
    forward_memo, backward_memo = memo if memo is not None else ({}, {})
    forward, backward = tables
    t, kb = params.digest_bytes, params.kappa_bytes
    x, y, z = key_triple
    header, nonce = forward.header, forward.nonce
    p0 = forward_memo.get((0, x))
    if p0 is None:
        p0 = forward_memo[0, x] = _position(params, x, nonce, 0, header[0])
    p1 = forward_memo.get((1, y))
    if p1 is None:
        p1 = forward_memo[1, y] = _position(params, y, nonce, 1, header[1])
    p2 = forward_memo.get((2, z))
    if p2 is None:
        p2 = forward_memo[2, z] = _position(params, z, nonce, 2, header[2])
    index = (p0 * (len(header[1]) // t) + p1) * (len(header[2]) // t) + p2
    payload = symcrypt.row_dec(params, key_triple, forward.rows[index], nonce, index)
    out = u, v, w = payload[:kb], payload[kb:2 * kb], payload[2 * kb:3 * kb]
    header, nonce = backward.header, backward.nonce
    p0 = backward_memo.get((0, u))
    if p0 is None:
        p0 = backward_memo[0, u] = _position(params, u, nonce, 0, header[0])
    p1 = backward_memo.get((1, v))
    if p1 is None:
        p1 = backward_memo[1, v] = _position(params, v, nonce, 1, header[1])
    p2 = backward_memo.get((2, w))
    if p2 is None:
        p2 = backward_memo[2, w] = _position(params, w, nonce, 2, header[2])
    index = (p0 * (len(header[1]) // t) + p1) * (len(header[2]) // t) + p2
    back = symcrypt.row_dec(params, out, backward.rows[index], nonce, index)
    if back[:3 * kb] != x + y + z:          # every key is kb bytes
        raise ErasureError("backward row does not cancel the input keys")
    return out


def eval_toffoli(params: CryptoParams, state: ColumnarState, regs: tuple[int, int, int],
                 tables: tuple[Table, Table], stats: EvalStats) -> None:
    """Apply one garbled Toffoli to registers ``regs`` of the state, in place.

    The terms of key triple (x, y, z) are the AND of the three registers'
    bitsets, each taken as is for key 1 and complemented for key 0.  Each
    present triple is translated once, in increasing order of
    ``4x + 2y + z``, sharing one slot memo, so the erasure check runs
    exactly once per triple while covering every term carrying it; an output
    register's new bitset is the OR of the masks of the triples that write
    its second key.  Erasure also makes the step injective: two triples sent
    to one output triple open one backward row, whose payload cannot equal
    both.  The gate's counts are added once, from its memos' sizes and its
    triple count.
    """
    a, b, c = regs
    keys_a, keys_b, keys_c = state.values[a], state.values[b], state.values[c]
    bits_a, bits_b, bits_c = state.bits[a], state.bits[b], state.bits[c]
    full = (1 << len(state.amps)) - 1
    memo: tuple[SlotMemo, SlotMemo] = ({}, {})
    masks, outs = [], []
    for x, mask_a in enumerate((full ^ bits_a, bits_a)):
        if not mask_a:
            continue
        for y, mask_b in enumerate((full ^ bits_b, bits_b)):
            mask_ab = mask_a & mask_b
            if not mask_ab:
                continue
            for z, mask_c in enumerate((full ^ bits_c, bits_c)):
                mask = mask_ab & mask_c
                if mask:
                    masks.append(mask)
                    outs.append(eval_toffoli_term(params, (keys_a[x], keys_b[y], keys_c[z]),
                                                  tables, memo))
    forward, backward = memo
    stats.ver_calls += len(forward)
    stats.backward_ver_calls += len(backward)
    stats.rows_tried += len(forward) + len(backward) + 2 * len(outs)
    stats.erasure_checks += len(outs)
    for pos, reg in enumerate(regs):
        index: dict[bytes, int] = {}
        bits = 0
        for mask, out in zip(masks, outs):
            if index.setdefault(out[pos], len(index)):
                bits |= mask
        if len(index) > 2:
            raise EvalError(f"toffoli writes {len(index)} distinct keys to one wire; "
                            f"a wire has two")
        state.values[reg] = list(index)
        state.bits[reg] = bits


class PhaseCounter:
    """Each term's phase exponent mod 2^(D+1), D the job's largest
    ``denom_exp``: one bitset per exponent bit over the terms (bit t of
    ``planes[j]`` is bit j of term t's exponent), plus one ``scalar`` that
    every term shares.  Term t's phase is omega^e with omega = exp(i*pi/2^D)
    and e = scalar + its planes' bits, so a gate of exponent d adds its
    values times 2^(D-d)."""

    __slots__ = ("width", "planes", "scalar")

    def __init__(self, max_denom_exp: int):
        self.width = max_denom_exp + 1
        self.planes = [0] * self.width
        self.scalar = 0

    def add(self, mask: int, delta: int) -> None:
        """Add ``delta`` to the exponent of every term in ``mask``: a ripple
        add of one bitset per bit, whose carry holds the terms that carry
        into the next bit.  A carry out of the top bit wraps."""
        planes, carry = self.planes, 0
        for j, plane in enumerate(planes):
            if delta >> j & 1:                  # a term of the mask adds 1 + carry
                planes[j] = plane ^ mask ^ carry
                carry |= plane & mask
            elif carry:
                planes[j] = plane ^ carry
                carry &= plane
            elif not delta >> j:
                break

    def apply(self, amps: list[complex]) -> list[complex]:
        """Each amplitude times omega^e, one ``cmath.exp`` per distinct e;
        term t's e, less the scalar, is word t of one transpose of the
        planes."""
        exps = transpose(self.planes, len(amps))
        modulus, turn = 1 << self.width, math.pi / (1 << (self.width - 1))
        factors = {e: cmath.exp(1j * turn * ((self.scalar + e) % modulus)) for e in set(exps)}
        return [amp * factors[e] for amp, e in zip(amps, exps)]


def eval_phase(params: CryptoParams, state: ColumnarState, gate: Phase,
               tables: tuple[Table], stats: EvalStats, counter: PhaseCounter) -> None:
    """Open the phase row for each distinct key of the gate's register and
    add its value, scaled to the counter's modulus, to the exponents of the
    terms holding that key: the first key's to the scalar, and the
    difference under the register's bitset.

    The scratch register holding the opened value is written and unwritten by
    the same table lookup, so it never appears in the state we keep; only the
    phase survives.  A negative gate adds -value, flipping the surviving
    relative phase.
    """
    table = tables[0]
    digests, nonce = table.header[0], table.nonce
    modulus, shift = 2 << gate.denom_exp, counter.width - 1 - gate.denom_exp
    exps = []
    for key in state.values[gate.qubit]:
        index = _position(params, key, nonce, 0, digests)
        value = int.from_bytes(symcrypt.row_dec(params, (key,), table.rows[index], nonce, index),
                               "big")
        if value >= modulus:
            raise EvalError("phase payload out of range")
        exps.append(gate.sign * value << shift)
    stats.ver_calls += len(exps)
    stats.rows_tried += 2 * len(exps)
    counter.scalar += exps[0]
    # a register of one key has bitset 0: every term took the scalar's share
    if len(exps) == 2:
        counter.add(state.bits[gate.qubit], (exps[1] - exps[0]) % (1 << counter.width))


def eval_bundle(params: CryptoParams, encoded: ColumnarState,
                bundle: GarbledBundle) -> tuple[ColumnarState, EvalStats]:
    """Run every garbled gate in circuit order, on a copy of ``encoded``.

    The result stays encoded: register i finally holds the keys of qubit i's
    output wire.  Any gate-level failure aborts with the gate index attached.
    """
    circ = bundle.skeleton
    kappa = params.kappa_bits
    if len(encoded.values) != circ.num_inputs or encoded.width != kappa:
        raise EvalError(f"encoded state is not {circ.num_inputs} registers of {kappa} bits")
    for q, keys in enumerate(encoded.values):
        if not 1 <= len(keys) <= 2:
            raise EvalError(f"register {q} holds {len(keys)} distinct keys; a wire has two")
    for q in circ.const_qubits:
        if len(encoded.values[q]) > 1:
            raise EvalError(f"constant register {q} holds {len(encoded.values[q])} distinct "
                            f"keys; a public constant has one")
    # the gates replace a register's lists and the amplitude list, never edit them
    state = replace(encoded, values=list(encoded.values), bits=list(encoded.bits))
    stats = EvalStats()
    # a Toffoli never moves a term, so one counter phases the terms at the end
    max_denom_exp = max([g.denom_exp for g in circ.gates if isinstance(g, Phase)], default=-1)
    counter = PhaseCounter(max_denom_exp) if max_denom_exp >= 0 else None
    for index, (gate, tables) in enumerate(zip(circ.gates, bundle.tables)):
        try:
            if isinstance(gate, Toffoli):
                eval_toffoli(params, state, gate.qubits, tables, stats)
            else:
                eval_phase(params, state, gate, tables, stats, counter)
        except EvalError as exc:
            raise type(exc)(f"gate {index}: {exc}") from None
    if counter is not None:
        state.amps = counter.apply(state.amps)
    # every gate steps every term, and the term count never changes
    stats.gates = len(circ.gates)
    stats.terms_processed = stats.gates * len(state.amps)
    return state, stats
