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
It translates each present triple once - looking up the forward row it
opens (trying every row against the key tags, and insisting exactly one
opens), decrypting the output keys, and erasing the input keys through the
backward row - then moves every term through one 8-entry code table per
register.  The triples of one gate share their registers' keys, so each
gate remembers every (row, tag slot, key) check it has made, per table,
and never repeats one; the scans still cover every row, so an ambiguous row
is found even when its checks were memoised by an earlier triple.  The
backward payload must XOR the inputs to exactly zero - that erasure is
asserted for every distinct triple of every gate, and a failure aborts the
evaluation: leftover input keys would entangle the result with junk
registers.  A phase gate opens its row once per distinct key and gathers
one factor per term.

A register the skeleton declares a public constant must hold one key in
every term, or the state is refused.  A Toffoli it controls carries half
tables (see :mod:`rgc.garble`), which the row scans handle unchanged.

Everything here sees only ciphertexts and tags.  This module has no access
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
from .garble import GarbledBundle, PhaseTable, ToffoliTables
from .sparse import RegisterLayout, SparseState
from .symcrypt import CryptoParams


class EvalError(RuntimeError):
    pass


class NoRowMatchError(EvalError):
    """No table row opens under the given keys: corrupted input."""


class AmbiguousRowError(EvalError):
    """Two rows verify under one key set: tag collision, refuse to guess."""


class ErasureError(EvalError):
    """Backward row failed to zero the consumed registers."""


@dataclass
class EvalStats:
    gates: int = 0
    terms_processed: int = 0
    rows_tried: int = 0
    ver_calls: int = 0           # tag checks of forward and phase row searches
    backward_ver_calls: int = 0  # tag checks of erasure-side row searches
    erasure_checks: int = 0

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "EvalStats":
        return EvalStats(**json.loads(text))


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


# Tag checks one gate has made, per table: (slot, key) -> {row: verified}.
TagMemo = dict[tuple[int, bytes], dict[int, bool]]


def _match_unique(params: CryptoParams, keys: tuple[bytes, bytes, bytes],
                  rows: tuple[bytes, ...], memo: TagMemo, stats: EvalStats,
                  backward: bool = False) -> int:
    """Index of the single row all three tags accept.

    Slot by slot, the rows whose earlier tags all verified are checked
    against the slot's key, so a row is checked under exactly the keys a
    row-by-row scan with early exit would check; ``memo`` answers the checks
    an earlier triple of the same gate already made.  Every row is scanned,
    so an ambiguity cannot hide behind an early exit or a memoised answer.
    """
    width = params.tag_bytes
    ver = symcrypt.kdm_ver
    checks = 0
    candidates = range(len(rows))
    for slot, key in enumerate(keys):
        known = memo.setdefault((slot, key), {})
        back = (3 - slot) * width       # the row ends in its three tags
        kept = []
        for idx in candidates:
            ok = known.get(idx)
            if ok is None:
                row = rows[idx]
                pos = len(row) - back
                checks += 1
                ok = known[idx] = ver(params, key, row[pos:pos + width])
            if ok:
                kept.append(idx)
        candidates = kept
    stats.rows_tried += len(rows)
    if backward:
        stats.backward_ver_calls += checks
    else:
        stats.ver_calls += checks
    if not candidates:
        raise NoRowMatchError("no row verifies under the given key triple")
    if len(candidates) > 1:
        raise AmbiguousRowError(f"rows {candidates[0]} and {candidates[1]} both verify")
    return candidates[0]


def eval_toffoli_term(params: CryptoParams, key_triple: tuple[bytes, bytes, bytes],
                      tables: ToffoliTables, stats: EvalStats | None = None,
                      memo: tuple[TagMemo, TagMemo] | None = None
                      ) -> tuple[bytes, bytes, bytes]:
    """Translate one input key triple to the output triple, checking that the
    backward table erases the inputs exactly.  ``memo`` holds the forward
    and backward tag checks of earlier triples through the same tables."""
    stats = stats if stats is not None else EvalStats()
    forward_memo, backward_memo = memo if memo is not None else ({}, {})
    kb = params.kappa_bytes
    fwd = _match_unique(params, key_triple, tables.forward, forward_memo, stats)
    payload = symcrypt.triple_dec(params, *key_triple, tables.forward[fwd])
    out = (payload[:kb], payload[kb:2 * kb], payload[2 * kb:3 * kb])
    bwd = _match_unique(params, out, tables.backward, backward_memo, stats, backward=True)
    back = symcrypt.triple_dec(params, *out, tables.backward[bwd])
    if (back[:kb], back[kb:2 * kb], back[2 * kb:3 * kb]) != key_triple:
        raise ErasureError("backward row does not cancel the input keys")
    stats.erasure_checks += 1
    return out


def eval_toffoli(params: CryptoParams, state: ColumnarState, regs: tuple[int, int, int],
                 tables: ToffoliTables, stats: EvalStats) -> None:
    """Apply one garbled Toffoli to registers ``regs`` of the state, in place.

    Each term's triple code is ``(ca << 2) | (cb << 1) | cc``.  Each present
    triple is translated once, sharing one tag memo, so the erasure check
    runs exactly once per triple while covering every term carrying it; the
    terms then move through one 8-entry code table per register.
    """
    a, b, c = regs
    triple = (state.codes[a] << 2) | (state.codes[b] << 1) | state.codes[c]
    present = np.flatnonzero(np.bincount(triple, minlength=8)).tolist()
    keys_a, keys_b, keys_c = (state.keys[r] for r in regs)
    memo: tuple[TagMemo, TagMemo] = ({}, {})
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
               table: PhaseTable, stats: EvalStats) -> None:
    """Open the phase row for each distinct key of register ``reg`` and
    multiply every term by omega^value, in place.

    The scratch register holding the opened value is written and unwritten by
    the same table lookup, so it never appears in the state we keep; only the
    phase survives.  A negative gate applies omega^(-value), flipping the
    surviving relative phase.
    """
    denom = 1 << gate.denom_exp
    modulus = 2 * denom
    width = params.tag_bytes
    factor_re, factor_im = [], []
    for key in state.keys[reg]:
        match = None
        for idx, row in enumerate(table.rows):
            stats.rows_tried += 1
            stats.ver_calls += 1
            if symcrypt.kdm_ver(params, key, row[-width:]):
                if match is not None:
                    raise AmbiguousRowError(f"phase rows {match} and {idx} both verify")
                match = idx
        if match is None:
            raise NoRowMatchError("no phase row verifies under the term's key")
        value = int.from_bytes(symcrypt.kdm_dec(params, key, table.rows[match]), "big")
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
    if (len(encoded.layout.registers) != circ.num_inputs
            or any(width != kappa for _, width in encoded.layout.registers)):
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
