"""Server-side evaluation of a garbled bundle on an encoded sparse state.

The encoded state keeps one kappa-bit register per logical qubit; a gate on
qubits (a,b,c) always finds its current wire keys in registers a,b,c, so the
register layout never changes shape during evaluation and the evaluator
needs the skeleton's qubits only, never its wires.

For the length of one evaluation the state is held in dictionary-encoded
columns (:class:`ColumnarState`): per register, the distinct keys it holds
and one uint8 code per term indexing that list; the amplitudes are two
float64 arrays.  A wire has two keys, so a register may hold at most two:
a state with a third key in some register is refused, and so is a Toffoli
whose tables would write a third key to an output wire.  Honest encodings
and honest tables never break this rule, so every code is 0 or 1.

A Toffoli combines its registers' codes into one 3-bit triple code
``(ca << 2) | (cb << 1) | cc`` per term and finds the present triples - at
most 8, however many terms the superposition carries - with one bincount.
It translates each present triple once - opening the forward row its keys
index, decrypting the output keys, and erasing the input keys through the
backward row - then moves every term through one 8-entry code table per
register.  A row is found through its table's header (see
:mod:`rgc.garble`): per slot, one digest of the slot's key, which must match
exactly one of the slot's digests, gives the key's position, the positions
index the row, and one oracle query opens it.  The triples of one gate
share their registers' keys, so each gate remembers the position of every
(slot, key) it has looked up, per table, and computes each digest once.  The backward payload
must XOR the inputs to exactly zero - that erasure is asserted for every
distinct triple of every gate, and a failure aborts the evaluation:
leftover input keys would entangle the result with junk registers.  A phase
gate opens its row once per distinct key, through a header of one slot,
and gathers one factor per term.

A register the skeleton declares a public constant must hold one key in
every term, or the state is refused.  A Toffoli it controls carries half
tables whose constant slot holds one digest, which the lookups handle
unchanged.

Everything here sees only ciphertexts and digests.  This module has no access
to, and no dependency on, the key schedule.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from . import symcrypt
from .circuit import Phase, Toffoli
from .garble import GarbledBundle, Table, ToffoliTables
from .sparse import RegisterLayout, SparseState, qubit_layout
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

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


@dataclass
class ColumnarState:
    """An encoded state as one dictionary-encoded column per register.

    Term t holds key ``keys[i][codes[i][t]]`` in register i and amplitude
    ``re[t] + 1j*im[t]``.  A register lists at most two keys, each occurring
    in some term, so every code is 0 or 1.
    """

    keys: list[list[bytes]]
    codes: list[np.ndarray]
    re: np.ndarray
    im: np.ndarray

    @staticmethod
    def from_sparse(state: SparseState, n: int, kappa_bytes: int) -> "ColumnarState":
        width = n * kappa_bytes
        try:
            raw = b"".join(basis.to_bytes(width, "little") for basis in state.terms)
        except OverflowError:
            raise EvalError("basis string wider than the encoded layout") from None
        regs = np.frombuffer(raw, np.uint8).reshape(len(state.terms), n, kappa_bytes)
        keys, codes = [], []
        for i in range(n):
            column = np.ascontiguousarray(regs[:, i, :]).view(f"V{kappa_bytes}").ravel()
            distinct, code = np.unique(column, return_inverse=True)
            if len(distinct) > 2:
                raise EvalError(f"register {i} holds {len(distinct)} distinct keys; "
                                f"a wire has two")
            keys.append([key.tobytes() for key in distinct])
            codes.append(code.astype(np.uint8))
        amps = np.array(list(state.terms.values()), dtype=np.complex128)
        return ColumnarState(keys, codes, amps.real.copy(), amps.imag.copy())

    def to_sparse(self, layout: RegisterLayout, kappa_bytes: int) -> SparseState:
        regs = np.empty((len(self.re), len(self.keys), kappa_bytes), np.uint8)
        for i, (keys, code) in enumerate(zip(self.keys, self.codes)):
            table = np.frombuffer(b"".join(keys), np.uint8).reshape(len(keys), kappa_bytes)
            regs[:, i, :] = table[code]
        width = regs.shape[1] * kappa_bytes
        raw = regs.tobytes()
        bases = [int.from_bytes(raw[pos:pos + width], "little")
                 for pos in range(0, len(raw), width)] if width else [0] * len(self.re)
        return SparseState(layout, dict(zip(bases, map(complex, self.re.tolist(),
                                                        self.im.tolist()))), check=False)


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
                      tables: ToffoliTables, stats: EvalStats | None = None,
                      memo: tuple[SlotMemo, SlotMemo] | None = None
                      ) -> tuple[bytes, bytes, bytes]:
    """Translate one input key triple to the output triple, checking that the
    backward table erases the inputs exactly.  ``memo`` holds the forward
    and backward header positions of earlier triples through the same
    tables."""
    stats = stats if stats is not None else EvalStats()
    forward_memo, backward_memo = memo if memo is not None else ({}, {})
    kb = params.kappa_bytes
    payload = _open(params, key_triple, tables.forward, forward_memo, stats)
    out = (payload[:kb], payload[kb:2 * kb], payload[2 * kb:3 * kb])
    back = _open(params, out, tables.backward, backward_memo, stats, backward=True)
    if (back[:kb], back[kb:2 * kb], back[2 * kb:3 * kb]) != key_triple:
        raise ErasureError("backward row does not cancel the input keys")
    stats.erasure_checks += 1
    return out


def eval_toffoli(params: CryptoParams, state: ColumnarState, regs: tuple[int, int, int],
                 tables: ToffoliTables, stats: EvalStats) -> None:
    """Apply one garbled Toffoli to registers ``regs`` of the state, in place.

    Each term's triple code is ``(ca << 2) | (cb << 1) | cc``.  Each present
    triple is translated once, sharing one slot memo, so the erasure check
    runs exactly once per triple while covering every term carrying it; the
    terms then move through one 8-entry code table per register.
    """
    a, b, c = regs
    triple = (state.codes[a] << 2) | (state.codes[b] << 1) | state.codes[c]
    present = np.flatnonzero(np.bincount(triple, minlength=8)).tolist()
    keys_a, keys_b, keys_c = (state.keys[r] for r in regs)
    memo: tuple[SlotMemo, SlotMemo] = ({}, {})
    outs = [eval_toffoli_term(params, (keys_a[t >> 2], keys_b[(t >> 1) & 1], keys_c[t & 1]),
                              tables, stats, memo)
            for t in present]
    if len(set(outs)) != len(outs):
        raise EvalError("toffoli step collided terms; evaluation not reversible")

    for pos, reg in enumerate(regs):
        index: dict[bytes, int] = {}
        lut = np.zeros(8, np.uint8)
        for t, out in zip(present, outs):
            lut[t] = index.setdefault(out[pos], len(index))
        if len(index) > 2:
            raise EvalError(f"toffoli writes {len(index)} distinct keys to one wire; "
                            f"a wire has two")
        state.keys[reg] = list(index)
        state.codes[reg] = lut[triple]
    stats.terms_processed += len(triple)


def eval_phase(params: CryptoParams, state: ColumnarState, reg: int, gate: Phase,
               table: Table, stats: EvalStats) -> None:
    """Open the phase row for each distinct key of register ``reg`` and
    multiply every term by omega^value, in place.

    The scratch register holding the opened value is written and unwritten by
    the same table lookup, so it never appears in the state we keep; only the
    phase survives.  A negative gate applies omega^(-value), flipping the
    surviving relative phase.
    """
    denom = 1 << gate.denom_exp
    modulus = 2 * denom
    factor_re, factor_im = [], []
    for key in state.keys[reg]:
        value = int.from_bytes(_open(params, (key,), table, {}, stats), "big")
        if value >= modulus:
            raise EvalError("phase payload out of range")
        factor = cmath.exp(1j * math.pi * (gate.sign * value % modulus) / denom)
        factor_re.append(factor.real)
        factor_im.append(factor.imag)

    code = state.codes[reg]
    fr = np.array(factor_re)[code]
    fi = np.array(factor_im)[code]
    # Real and imaginary parts as separately rounded products, in the order
    # Python's complex multiply uses, so results match it bit for bit.
    re, im = state.re, state.im
    state.re = re * fr - im * fi
    state.im = re * fi + im * fr
    stats.terms_processed += len(code)


def eval_bundle(params: CryptoParams, encoded: SparseState,
                bundle: GarbledBundle) -> tuple[SparseState, EvalStats]:
    """Run every garbled gate in circuit order.

    The result stays encoded: register i finally holds the keys of qubit i's
    output wire.  Any gate-level failure aborts with the gate index attached.
    """
    circ = bundle.skeleton
    kappa = params.kappa_bits
    if encoded.layout != qubit_layout(circ.num_inputs, kappa):
        raise EvalError(f"encoded state is not {circ.num_inputs} registers of {kappa} bits")
    state = ColumnarState.from_sparse(encoded, circ.num_inputs, params.kappa_bytes)
    for q in circ.const_qubits:
        if len(state.keys[q]) > 1:
            raise EvalError(f"constant register {q} holds {len(state.keys[q])} distinct "
                            f"keys; a public constant has one")
    stats = EvalStats()
    for index, (gate, table) in enumerate(zip(circ.gates, bundle.tables)):
        try:
            if isinstance(gate, Toffoli):
                eval_toffoli(params, state, gate.qubits, table, stats)
            else:
                eval_phase(params, state, gate.qubit, gate, table, stats)
        except EvalError as exc:
            raise type(exc)(f"gate {index}: {exc}") from None
        stats.gates += 1
    return state.to_sparse(encoded.layout, params.kappa_bytes), stats
