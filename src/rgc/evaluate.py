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
which a phase gate multiplies by its factors.  Nothing on this path imports
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
digest once.  The backward payload must XOR the inputs to exactly zero -
that erasure is asserted for every distinct triple of every gate, and a
failure aborts the evaluation: leftover input keys would entangle the result
with junk registers.  A phase gate opens its row once per distinct key,
through a header of one slot, and gathers one factor per term from the
register's bits.

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
from .sparse import ColumnarState
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
    """Counts of one evaluation.  ``rows_tried`` is the header slots checked
    plus the rows opened, so it is positive for any bundle with a gate; the
    two ``ver_calls`` counts split the slot checks, one digest each, between
    the forward and phase tables and the backward tables."""

    gates: int = 0
    terms_processed: int = 0
    rows_tried: int = 0
    ver_calls: int = 0
    backward_ver_calls: int = 0
    erasure_checks: int = 0


# Header positions one gate has looked up, per table: (slot, key) -> position.
SlotMemo = dict[tuple[int, bytes], int]


def _open(params: CryptoParams, keys: tuple[bytes, ...], table: Table, memo: SlotMemo,
          stats: EvalStats, backward: bool = False) -> bytes:
    """The payload of the row that ``keys``, one per header slot, index.

    Each (slot, key) is looked up once per gate, through ``memo``: one
    digest, compared with every digest of the slot, and exactly one must
    match.  The positions, mixed-radix over the slots' digest counts, give
    the row's index, and one mask query over the keys, the table's nonce and
    that index opens the row.
    """
    t, header, nonce = params.digest_bytes, table.header, table.nonce
    if len(keys) != len(header):
        raise EvalError(f"{len(keys)} keys for a header of {len(header)} slots")
    index, size = 0, 1
    for slot, key in enumerate(keys):
        digests = len(header[slot]) // t
        position = memo.get((slot, key))
        if position is None:
            stats.rows_tried += 1
            if backward:
                stats.backward_ver_calls += 1
            else:
                stats.ver_calls += 1
            hits = symcrypt.slot_positions(params, key, nonce, slot, header[slot])
            if not hits:
                raise NoRowMatchError(f"no digest of header slot {slot} matches its key")
            if len(hits) > 1:
                raise AmbiguousRowError(f"digests {hits[0]} and {hits[1]} of header slot "
                                        f"{slot} both match its key")
            position = memo[(slot, key)] = hits[0]
        index = index * digests + position
        size *= digests
    if size != len(table.rows):
        raise EvalError(f"a header of {size} positions over {len(table.rows)} rows")
    stats.rows_tried += 1
    return symcrypt.row_dec(params, keys, table.rows[index], nonce, index)


def eval_toffoli_term(params: CryptoParams, key_triple: tuple[bytes, bytes, bytes],
                      tables: tuple[Table, Table], stats: EvalStats | None = None,
                      memo: tuple[SlotMemo, SlotMemo] | None = None
                      ) -> tuple[bytes, bytes, bytes]:
    """Translate one input key triple to the output triple, checking that the
    backward table erases the inputs exactly.  ``memo`` holds the forward
    and backward header positions of earlier triples through the same
    tables."""
    stats = stats if stats is not None else EvalStats()
    forward_memo, backward_memo = memo if memo is not None else ({}, {})
    forward, backward = tables
    kb = params.kappa_bytes
    payload = _open(params, key_triple, forward, forward_memo, stats)
    out = (payload[:kb], payload[kb:2 * kb], payload[2 * kb:3 * kb])
    back = _open(params, out, backward, backward_memo, stats, backward=True)
    if (back[:kb], back[kb:2 * kb], back[2 * kb:3 * kb]) != key_triple:
        raise ErasureError("backward row does not cancel the input keys")
    stats.erasure_checks += 1
    return out


def eval_toffoli(params: CryptoParams, state: ColumnarState, regs: tuple[int, int, int],
                 tables: tuple[Table, Table], stats: EvalStats) -> None:
    """Apply one garbled Toffoli to registers ``regs`` of the state, in place.

    The terms of key triple (x, y, z) are the AND of the three registers'
    bitsets, each taken as is for key 1 and complemented for key 0.  Each
    present triple is translated once, in increasing order of ``4x + 2y +
    z``, sharing one slot memo, so the erasure check runs exactly once per
    triple while covering every term carrying it; an output register's new
    bitset is the OR of the masks of the triples that write its second key.
    Erasure also makes the step injective: two triples sent to one output
    triple open one backward row, whose payload cannot equal both.
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
                                                  tables, stats, memo))
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


def eval_phase(params: CryptoParams, state: ColumnarState, gate: Phase,
               tables: tuple[Table], stats: EvalStats) -> None:
    """Open the phase row for each distinct key of the gate's register and
    multiply every term by omega^value, in place.

    The scratch register holding the opened value is written and unwritten by
    the same table lookup, so it never appears in the state we keep; only the
    phase survives.  A negative gate applies omega^(-value), flipping the
    surviving relative phase.
    """
    denom = 1 << gate.denom_exp
    modulus = 2 * denom
    factors = []
    for key in state.values[gate.qubit]:
        value = int.from_bytes(_open(params, (key,), tables[0], {}, stats), "big")
        if value >= modulus:
            raise EvalError("phase payload out of range")
        factors.append(cmath.exp(1j * math.pi * (gate.sign * value % modulus) / denom))
    # a register of one key has bitset 0, so every term takes factors[0]
    zero, one = factors[0], factors[-1]
    state.amps = [amp * (one if code == "1" else zero)
                  for amp, code in zip(state.amps, state.codes(gate.qubit))]


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
    for index, (gate, tables) in enumerate(zip(circ.gates, bundle.tables)):
        try:
            if isinstance(gate, Toffoli):
                eval_toffoli(params, state, gate.qubits, tables, stats)
            else:
                eval_phase(params, state, gate, tables, stats)
        except EvalError as exc:
            raise type(exc)(f"gate {index}: {exc}") from None
    # every gate steps every term, and the term count never changes
    stats.gates = len(circ.gates)
    stats.terms_processed = stats.gates * len(state.amps)
    return state, stats
