"""Bit-exact binary serialization and the client/server job exchange.

Every artifact gets a little-endian layout; bitstrings are padded to whole
bytes with the high padding bits zero.  Messages travel in a framed envelope
of wire version 3::

    envelope   magic "RGC1" | version u8 | kind u8 | payload_len u64 | payload
               | crc32 u32
    job        state | bundle
    result     state | 6 x u64, the EvalStats fields in order
    state      registers u32 | width u16 | terms u32 | one record per register
               | per term: re f64 | im f64
    register   value count u8 (1 or 2) | the values, ceil(width / 8) bytes
               each, increasing as little-endian ints | when it holds two, a
               bitset of ceil(terms / 8) bytes, bit t set when term t holds
               the larger value

Each part delimits itself.  Some fields repeat what the receiver can derive,
and stay: a job's state header repeats the skeleton's ``num_inputs`` (its
``registers``) and the bundle's kappa (its ``width``), which
``evaluate.eval_bundle`` checks agree, so that a state stands alone in a
state file; and a result's ``EvalStats.gates`` and ``terms_processed``
follow from the client's own skeleton and term count, and are sent for
observability.

A state is a :class:`rgc.sparse.ColumnarState` in canonical form: register
i is qubit i's key register in a job or result, each register's keys are
sent once, and the terms are in strictly increasing order of their basis
strings (register 0 least significant), which is the order of their
per-register codes.

A bundle (format 6) is a header, the skeleton, then each skeleton gate's
tables::

    bundle     version u8 | kappa u16 | tag_len u16 | seed length u32
               | oracle seed
               | skeleton | tables
    skeleton   num_inputs u32 | const count u32 | const qubit u32 each
               | gate count u32 | one record per gate
    toffoli    u8 0 | 3 x qubit u32
    phase      u8 1 | qubit u32 | exponent u16 | sign i8

The skeleton names qubits only.  Wire indices are the client's bookkeeping
for its key pairs (``CPCircuit.wiring``), which the server never derives:
the evaluator applies each gate to its qubits' registers in place.  The
constant qubits are the circuit's public constant-1 inputs, strictly
increasing and below ``num_inputs``.

Almost all of a job is garbled tables, each a nonce, a header of slots and
then its rows, as :mod:`rgc.symcrypt`'s joint-hash scheme packs them.  The
bundle header's kappa and tag length (the ``CryptoParams``' own) and the
skeleton fix every width, so the fields lie back to back with no length
fields.  With p = kappa/8 and t = tag_len/8 bytes::

    nonce          p bytes, one per table
    slot           2 digests (2t), or 1 digest (t) for a public constant
                   control
    toffoli row    masked output or input keys (3p)
    toffoli table  nonce | 3 slots | n rows of 3p bytes, n = 8 >> (number
                   of constant controls); the forward table, then the
                   backward: 2 * (p + 6t + 24p) bytes with no constant control
    phase table    nonce | 1 slot of 2t bytes | 2 rows of masked (w)

where w = ceil((exponent + 1) / 8) for the skeleton gate's exponent.
:func:`rgc.garble.table_shapes` states this layout once: both ends take
every gate's widths from it, read its tables with one struct per distinct
shape, built once per bundle, and write them whole.  The reader refuses
other bundle versions, widths ``CryptoParams`` refuses, more than
``MAX_QUBITS`` qubits or state registers, a state of more than
``MAX_STATE_CELLS`` registers times terms, more constants than qubits, a
gate or term count that the bytes left could not hold, a state register
width of 0, a skeleton
``circuit.allocate_wires`` refuses (its every rule, the phase exponent's
bound among them), and a state register of other than 1 or 2 values, of
values not increasing or wider than the width, or of a bitset that picks
one value or has bits at or beyond the term count, and a state whose terms
are not strictly increasing, whose amplitudes are not finite or whose norm
squared differs from 1 by more than ``sparse.NORM_TOL``; the writer puts a
state in canonical form and refuses tables of other
shapes and X gates, which no skeleton carries (an X is a relabeling of its
wire's keys on the client, see :mod:`rgc.garble`).

One request per connection keeps the exchange as non-interactive as the
protocol itself: the client ships a job, the server ships back the evaluated
state (or an error), and that's the whole conversation.  The server answers
a declared payload above ``MAX_PAYLOAD_BYTES`` with an error without reading
it, a job whose work (:func:`job_work`) exceeds ``MAX_JOB_WORK`` with an
error before evaluating it, a connection beyond ``MAX_CONNECTIONS`` open
ones with an error at once, and drops a connection whose request has not
arrived in full ``SOCKET_TIMEOUT_S`` after it began to read it, or that
fails (a client's reset), without a word on stderr; a request's buffer
grows as its bytes arrive, never ahead of them to the declared length;
every error envelope built from an exception reads ``ClassName: text``.  A
directory-based transport mirrors the socket one for setups where the only
channel is a shared filesystem, and each end consumes the file it reads;
both produce byte-identical result payloads, and both refuse an envelope
whose payload exceeds ``MAX_PAYLOAD_BYTES`` unread.  Anyone who can submit
can write ``inbox/`` and ``outbox/``, so the directory server reads regular
files only, opened without blocking, passes over any other entry, and
writes each file through a fresh temporary that it creates exclusively:
nothing put in either directory makes it raise, block or write through a
link.  Every job a server
receives, by either transport or as ``rgc eval``'s state and bundle files,
goes through one core, :func:`evaluate_job_payload`, and so meets the same
parse bounds and work bound; :func:`read_payload_files` is the one reader
of a payload from files.

The writers pack module-level structs, since the caller knows every width;
the :class:`Reader` checks each read against the bytes left, since what it
reads comes from outside the program.

Bundles are only serializable when their oracle runs in hash mode - a lazy
table is process-local state and cannot cross the wire.  The oracle seed in
the bundle header is public by design; only the key schedule is secret, and
it has no serialization path into a job.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import socket
import socketserver
import stat
import struct
import threading
import time
import zlib
from typing import TYPE_CHECKING, Callable, Iterator, TypeVar

from . import delegation, evaluate
from .circuit import CPCircuit, Gate, Phase, Toffoli, X, allocate_wires, phase, toff
from .delegation import JobBundle
from .encoding import KeySchedule, WireKeyPair
from .evaluate import EvalStats
from .garble import GarbledBundle, Table, table_shapes
from .oracle import HASH_MODE
from .sparse import NORM_TOL, ColumnarState, descents
from .symcrypt import CryptoParams

if TYPE_CHECKING:        # a server never loads the games
    from .games import GameReport

MAGIC = b"RGC1"
WIRE_VERSION = 3
BUNDLE_VERSION = 6

KIND_JOB = 1
KIND_RESULT = 2
KIND_ERROR = 3

# Server limits: the largest envelope payload a peer may declare (modexp21's
# job is 332 KB and the blind interpreter's at N=3, D=3, L=4 is 50 KB), the
# most work one job may ask of the evaluator (see job_work: modexp21 asks
# 14,976 steps, and a Toffoli word step takes about 0.1 us; a phase table's
# steps, one per term, overstate its cost), the most qubits a
# skeleton may declare (that interpreter has 36), the most registers times
# terms a state may declare, how many connections are served at once, and
# how long a request may take to arrive, and its reply to leave.  A register
# of one value is a few bytes whatever the term count, so the payload bound
# does not cap a state's registers times terms; MAX_STATE_CELLS does
# (modexp21's state has 19 registers of 1024 terms).
MAX_PAYLOAD_BYTES = 64 << 20
MAX_JOB_WORK = 1 << 24
MAX_QUBITS = 1 << 16
MAX_STATE_CELLS = MAX_PAYLOAD_BYTES
MAX_CONNECTIONS = 16
SOCKET_TIMEOUT_S = 30.0


class WireFormatError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the bounds-checked reader; writers pack module-level structs

T = TypeVar("T")


class Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def raw(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise WireFormatError("truncated payload")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        if self.pos >= len(self.data):
            raise WireFormatError("truncated payload")
        self.pos += 1
        return self.data[self.pos - 1]

    def unpack(self, st: struct.Struct) -> tuple:
        end = self.pos + st.size
        if end > len(self.data):
            raise WireFormatError("truncated payload")
        fields = st.unpack_from(self.data, self.pos)
        self.pos = end
        return fields

    def left(self) -> int:
        return len(self.data) - self.pos

    def done(self) -> None:
        if self.pos != len(self.data):
            raise WireFormatError(f"{self.left()} trailing bytes")


def _parse(data: bytes, get: Callable[[Reader], T]) -> T:
    """``get``'s artifact, which must span all of ``data``."""
    r = Reader(data)
    value = get(r)
    r.done()
    return value


# ---------------------------------------------------------------------------
# artifact serializers

_SCHEDULE_HEADER = struct.Struct("<HI")     # kappa_bits, pairs


def serialize_schedule(s: KeySchedule) -> bytes:
    return _SCHEDULE_HEADER.pack(s.kappa_bits, len(s.pairs)) + b"".join(
        key for pair in s.pairs for key in pair)


def _get_schedule(r: Reader) -> KeySchedule:
    """The schedule at the reader's position.  A width ``CryptoParams``
    refuses, or more pairs than the bytes left hold, is refused before any
    pair is built."""
    kappa, count = r.unpack(_SCHEDULE_HEADER)
    try:
        CryptoParams.check_widths(kappa)
    except ValueError as exc:
        raise WireFormatError(str(exc)) from None
    n = kappa // 8
    keys = r.raw(2 * n * count)
    return KeySchedule(kappa, tuple(WireKeyPair(keys[i:i + n], keys[i + n:i + 2 * n])
                                    for i in range(0, len(keys), 2 * n)))


_SKELETON_HEADER = struct.Struct("<II")  # num_inputs, constants
_GATE_COUNT = struct.Struct("<I")
_TOFFOLI_GATE = struct.Struct("<3I")     # qubits
_PHASE_GATE = struct.Struct("<IHb")      # qubit, denom_exp, sign
_PHASE_RECORD = 1 + _PHASE_GATE.size     # the smallest gate record


def serialize_circuit(c: CPCircuit) -> bytes:
    n = len(c.const_qubits)
    parts = [struct.pack(f"<II{n}II", c.num_inputs, n, *c.const_qubits, len(c.gates))]
    for g in c.gates:
        if isinstance(g, Toffoli):
            parts.append(b"\0" + _TOFFOLI_GATE.pack(*g.qubits))
        elif isinstance(g, X):
            raise WireFormatError("an X gate has no wire encoding; serialize the "
                                  "skeleton, circuit.without_x(circ)")
        else:
            parts.append(b"\1" + _PHASE_GATE.pack(g.qubit, g.denom_exp, g.sign))
    return b"".join(parts)


def _get_circuit(r: Reader, gate_bytes: int = _PHASE_RECORD) -> CPCircuit:
    """The skeleton at the reader's position.  ``gate_bytes`` is the fewest
    bytes one gate can take in the rest of the payload, its record plus any
    tables: a gate count the bytes left cannot hold is refused before
    anything is built."""
    num_inputs, n_const = r.unpack(_SKELETON_HEADER)
    if num_inputs > MAX_QUBITS:
        raise WireFormatError(f"{num_inputs} qubits above limit {MAX_QUBITS}")
    if n_const > num_inputs:
        raise WireFormatError(f"{n_const} constant qubits among {num_inputs}")
    consts = r.unpack(struct.Struct(f"<{n_const}I"))
    (count,) = r.unpack(_GATE_COUNT)
    if count * gate_bytes > r.left():
        raise WireFormatError(f"{count} gates cannot fit in the {r.left()} bytes left "
                              f"(at least {gate_bytes} each)")
    return allocate_wires(_get_gates(r, count), num_inputs, consts)


def _get_gates(r: Reader, count: int) -> Iterator[Gate]:
    """The skeleton's gate records, one at a time, so that no list of them
    exists beside the circuit ``allocate_wires`` builds."""
    for _ in range(count):
        kind = r.u8()
        if kind == 0:
            yield toff(*r.unpack(_TOFFOLI_GATE))
        elif kind == 1:
            yield phase(*r.unpack(_PHASE_GATE))
        else:
            raise WireFormatError(f"unknown gate kind {kind}")


# garbled tables, nonces, slots and rows back to back (see the module docstring)

# a gate's field widths, their struct, and per table its nonce's index and
# its header's and rows' slices of the fields
_Fields = tuple[tuple[int, ...], struct.Struct, tuple[tuple[int, slice, slice], ...]]


class _TableLayout:
    """Where each gate's tables lie: :func:`garble.table_shapes` gives, for
    the params' kappa and the skeleton's constant qubits, each table's
    digests per slot and row width, and the params' tag length a digest's
    width.  Each distinct shape is turned once into its ``_Fields``, and each
    distinct gate is looked up once."""

    def __init__(self, params: CryptoParams, const_qubits=()):
        self.nonce, self.digest = params.kappa_bytes, params.digest_bytes
        self.consts = frozenset(const_qubits)
        self._fields: dict[tuple, _Fields] = {}
        self._gates: dict[Gate, _Fields] = {}

    def _layout(self, shapes: tuple) -> _Fields:
        fields = self._fields.get(shapes)
        if fields is None:
            widths: list[int] = []
            tables = []
            for slots, row in shapes:
                nonce, rows = len(widths), len(widths) + 1 + len(slots)
                widths += [self.nonce, *(n * self.digest for n in slots)] + [row] * math.prod(slots)
                tables.append((nonce, slice(nonce + 1, rows), slice(rows, len(widths))))
            fields = self._fields[shapes] = (tuple(widths), struct.Struct(
                "<" + "".join(f"{w}s" for w in widths)), tuple(tables))
        return fields

    def _shape(self, gate: Gate) -> _Fields:
        fields = self._gates.get(gate)
        if fields is None:
            fields = self._gates[gate] = self._layout(table_shapes(gate, self.consts,
                                                                   self.nonce))
        return fields

    def min_gate_bytes(self) -> int:
        """The fewest bytes a skeleton gate and its tables take: a phase gate
        of exponent 0, or a Toffoli whose two controls are constant."""
        return min(record + sum(self._layout(table_shapes(gate, consts, self.nonce))[0])
                   for record, gate, consts in ((_PHASE_RECORD, phase(0, 0), ()),
                                                (1 + _TOFFOLI_GATE.size, toff(0, 1, 2), (0, 1))))

    def read(self, r: Reader, gate: Gate) -> tuple[Table, ...]:
        _, st, tables = self._shape(gate)
        parts = r.unpack(st)
        return tuple([Table(parts[nonce], parts[header], parts[rows])
                      for nonce, header, rows in tables])

    def write(self, parts: list[bytes], gate: Gate, tables: tuple[Table, ...]) -> None:
        """Append the tables' fields to ``parts``; nothing is copied."""
        start = len(parts)
        for table in tables:
            parts.append(table.nonce)
            parts += table.header
            parts += table.rows
        if tuple(map(len, parts[start:])) != self._shape(gate)[0]:
            raise WireFormatError("table does not match the bundle header's widths")


_BUNDLE_HEADER = struct.Struct("<BHHI")  # version, kappa, tag_len, seed length


def _put_bundle(b: GarbledBundle, params: CryptoParams) -> list[bytes]:
    """The bundle as parts to join; rows are not copied."""
    if params.oracles.mode != HASH_MODE:
        raise WireFormatError("table-mode oracles are process-local; cannot serialize")
    seed = params.oracles.seed
    parts = [_BUNDLE_HEADER.pack(BUNDLE_VERSION, params.kappa_bits, params.tag_len_bits,
                                 len(seed)), seed, serialize_circuit(b.skeleton)]
    layout = _TableLayout(params, b.skeleton.const_qubits)
    for gate, tables in zip(b.skeleton.gates, b.tables):
        layout.write(parts, gate, tables)
    return parts


def _get_bundle(r: Reader) -> tuple[GarbledBundle, CryptoParams]:
    version, kappa, tag_len, seed_len = r.unpack(_BUNDLE_HEADER)
    if version != BUNDLE_VERSION:
        raise WireFormatError(f"unsupported bundle version {version}")
    seed = r.raw(seed_len)
    try:
        params = delegation.make_params(kappa, tag_len_bits=tag_len, oracle_seed=seed)
    except ValueError as exc:       # the widths
        raise WireFormatError(str(exc)) from None
    skeleton = _get_circuit(r, _TableLayout(params).min_gate_bytes())
    layout = _TableLayout(params, skeleton.const_qubits)
    tables = tuple(layout.read(r, g) for g in skeleton.gates)
    return GarbledBundle(skeleton, tables), params


_STATE_HEADER = struct.Struct("<IHI")    # registers, width, terms


def serialize_state(s: ColumnarState) -> bytes:
    """The state in canonical form: per register its value count, its
    values, and its bitset when it holds two, then the amplitudes."""
    s = s.canonical()
    count = s.num_terms()
    bitset_bytes = (count + 7) // 8
    parts = [_STATE_HEADER.pack(len(s.values), s.width, count)]
    for values, bits in zip(s.values, s.bits):
        parts += [bytes((len(values),)), *values]
        if len(values) == 2:
            parts.append(bits.to_bytes(bitset_bytes, "little"))
    parts.append(struct.pack(f"<{2 * count}d", *[x for a in s.amps for x in (a.real, a.imag)]))
    return b"".join(parts)


def _get_state(r: Reader) -> ColumnarState:
    """The state at the reader's position.  Its shape is bounded before a
    register is read, each register is checked as it is read, and the term
    order and the norm are checked before the state is built."""
    n, width, count = r.unpack(_STATE_HEADER)
    if n > MAX_QUBITS:
        raise WireFormatError(f"{n} registers above limit {MAX_QUBITS}")
    if not width:
        raise WireFormatError("registers of width 0")
    nbytes = (width + 7) // 8
    if n * (1 + nbytes) + count * 16 > r.left():
        raise WireFormatError(f"{count} terms cannot fit in the {r.left()} bytes left")
    if n * count > MAX_STATE_CELLS:
        raise WireFormatError(f"{n} registers of {count} terms above limit "
                              f"{MAX_STATE_CELLS} register-terms")
    full = (1 << count) - 1
    values, columns = [], []
    for i in range(n):
        held = r.u8()
        if not 1 <= held <= 2:
            raise WireFormatError(f"register {i} holds {held} values, not 1 or 2")
        raw = r.raw(held * nbytes)
        ints = [int.from_bytes(raw[j:j + nbytes], "little") for j in range(0, len(raw), nbytes)]
        if max(ints) >> width:
            raise WireFormatError(f"register {i} holds a value wider than {width} bits")
        bits = 0
        if held == 2:
            if ints[0] >= ints[1]:
                raise WireFormatError(f"register {i}: values not increasing")
            bits = int.from_bytes(r.raw((count + 7) // 8), "little")
            if bits >> count:
                raise WireFormatError(f"register {i}: bitset has bits at or beyond "
                                      f"term {count}")
            if bits in (0, full):
                raise WireFormatError(f"register {i}: bitset picks one of its two values")
        values.append([raw[:nbytes], raw[nbytes:]] if held == 2 else [raw])
        columns.append(bits)
    floats = r.unpack(struct.Struct(f"<{2 * count}d"))
    if not all(map(math.isfinite, floats)):
        raise WireFormatError("amplitude not finite")
    if descents(columns, count):
        raise WireFormatError("basis strings not strictly increasing")
    parts = floats[0::2], floats[1::2]
    norm = sum(re * re + im * im for re, im in zip(*parts))
    if not abs(norm - 1.0) <= NORM_TOL:
        raise WireFormatError(f"state norm^2 {norm!r} differs from 1")
    return ColumnarState(width, values, columns, list(map(complex, *parts)))


def _get_job(r: Reader) -> tuple[JobBundle, CryptoParams]:
    state = _get_state(r)
    bundle, params = _get_bundle(r)
    return JobBundle(state, bundle), params


_STATS = struct.Struct("<6Q")       # the EvalStats counts, in field order
_REPORT = struct.Struct("<IddQdd")  # the GameReport fields, in order


# public single-artifact entry points ---------------------------------------

def deserialize_schedule(data: bytes) -> KeySchedule:
    return _parse(data, _get_schedule)


def deserialize_circuit(data: bytes) -> CPCircuit:
    return _parse(data, _get_circuit)


def deserialize_state(data: bytes) -> ColumnarState:
    return _parse(data, _get_state)


def serialize_bundle(b: GarbledBundle, params: CryptoParams) -> bytes:
    """The bundle file ``rgc garble`` writes; a bundle is read back only as
    the tail of a job (:func:`deserialize_job`)."""
    return b"".join(_put_bundle(b, params))


def serialize_report(rep: GameReport) -> bytes:
    return _REPORT.pack(*dataclasses.astuple(rep))


def deserialize_report(data: bytes) -> GameReport:
    from .games import GameReport
    return _parse(data, lambda r: GameReport(*r.unpack(_REPORT)))


def serialize_job(job: JobBundle, params: CryptoParams) -> bytes:
    return b"".join([serialize_state(job.encoded_state), *_put_bundle(job.garbled, params)])


def deserialize_job(data: bytes) -> tuple[JobBundle, CryptoParams]:
    return _parse(data, _get_job)


def serialize_result(state: ColumnarState, stats: EvalStats) -> bytes:
    return serialize_state(state) + _STATS.pack(*dataclasses.astuple(stats))


def deserialize_result(data: bytes) -> tuple[ColumnarState, EvalStats]:
    return _parse(data, lambda r: (_get_state(r), EvalStats(*r.unpack(_STATS))))


# ---------------------------------------------------------------------------
# envelope framing

_ENVELOPE_HEADER = struct.Struct("<4sBBQ")    # magic, version, kind, payload_len
_CHECKSUM = struct.Struct("<I")
_FRAMING = _ENVELOPE_HEADER.size + _CHECKSUM.size


def frame(kind: int, payload: bytes) -> bytes:
    return b"".join((_ENVELOPE_HEADER.pack(MAGIC, WIRE_VERSION, kind, len(payload)),
                     payload, _CHECKSUM.pack(zlib.crc32(payload))))


def unframe(data: bytes | bytearray) -> tuple[int, bytes]:
    if len(data) < _FRAMING:
        raise WireFormatError("short envelope")
    magic, version, kind, length = _ENVELOPE_HEADER.unpack_from(data)
    if magic != MAGIC:
        raise WireFormatError("bad magic")
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported wire version {version}")
    if len(data) != _FRAMING + length:
        raise WireFormatError("envelope length mismatch")
    end = _ENVELOPE_HEADER.size + length
    payload = bytes(memoryview(data)[_ENVELOPE_HEADER.size:end])
    (crc,) = _CHECKSUM.unpack_from(data, end)
    if crc != zlib.crc32(payload):
        raise WireFormatError("checksum failure")
    return kind, payload


class RemoteEvalError(RuntimeError):
    """The server reported an evaluation failure."""


def _read_result(envelope: bytes | bytearray) -> tuple[ColumnarState, EvalStats]:
    """The result a server's answer carries, for either transport; an error
    envelope raises :class:`RemoteEvalError`."""
    kind, payload = unframe(envelope)
    if kind == KIND_ERROR:
        raise RemoteEvalError(payload.decode())
    if kind != KIND_RESULT:
        raise WireFormatError(f"unexpected envelope kind {kind}")
    return deserialize_result(payload)


def job_work(skeleton: CPCircuit, terms: int) -> int:
    """The evaluator's work on a job of ``terms`` terms: one step per term
    for a phase table, and one step per 64-bit word of one bit per term for
    a Toffoli's bitset ops.  A phase table costs two lookups, two rows and
    a ripple add of one bitset per exponent bit, so its one step per term
    overstates it, the safe direction."""
    phases = sum(isinstance(g, Phase) for g in skeleton.gates)
    return phases * terms + (len(skeleton.gates) - phases) * -(-terms // 64)


def evaluate_job_payload(payload: bytes) -> bytes:
    """Server core, transport-agnostic: job envelope payload in, result or
    error envelope out.  A job of more than ``MAX_JOB_WORK`` is refused
    before any gate is evaluated."""
    job, params = deserialize_job(payload)
    work = job_work(job.garbled.skeleton, job.encoded_state.num_terms())
    if work > MAX_JOB_WORK:
        raise WireFormatError(f"job work {work} above limit {MAX_JOB_WORK}")
    state, stats = evaluate.eval_bundle(params, job.encoded_state, job.garbled)
    return serialize_result(state, stats)


def _error_envelope(exc: Exception) -> bytes:
    """The server's one way to refuse a request: ``ClassName: text``."""
    return frame(KIND_ERROR, f"{type(exc).__name__}: {exc}".encode())


def handle_envelope(data: bytes | bytearray) -> bytes:
    try:
        kind, payload = unframe(data)
        if kind != KIND_JOB:
            raise WireFormatError(f"expected a job envelope, got kind {kind}")
        return frame(KIND_RESULT, evaluate_job_payload(payload))
    except (evaluate.EvalError, ValueError) as exc:
        return _error_envelope(exc)


# ---------------------------------------------------------------------------
# TCP transport (one request per connection)

def _check_payload_len(length: int) -> None:
    if length > MAX_PAYLOAD_BYTES:
        raise WireFormatError(f"declared payload of {length} bytes above limit {MAX_PAYLOAD_BYTES}")


def _read_envelope(sock: socket.socket, deadline: float) -> bytearray:
    """One envelope, read in full by ``deadline`` (``time.monotonic``)."""
    envelope = bytearray()
    _recv_onto(sock, envelope, _ENVELOPE_HEADER.size, deadline)
    magic, _, _, length = _ENVELOPE_HEADER.unpack(envelope)
    if magic != MAGIC:
        raise WireFormatError("bad magic")
    _check_payload_len(length)
    _recv_onto(sock, envelope, _FRAMING - len(envelope) + length, deadline)
    return envelope


def _settimeout_until(sock: socket.socket, deadline: float) -> None:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    sock.settimeout(left)


_RECV_CHUNK = 1 << 16


def _recv_onto(sock: socket.socket, data: bytearray, count: int, deadline: float) -> None:
    """Append ``count`` bytes to ``data``, read in chunks of at most
    ``_RECV_CHUNK``: the buffer grows as bytes arrive, never ahead of them
    to a length the peer declared."""
    chunk = memoryview(bytearray(min(count, _RECV_CHUNK)))
    while count:
        _settimeout_until(sock, deadline)
        got = sock.recv_into(chunk[:count])
        if not got:
            raise WireFormatError("connection closed early")
        data += chunk[:got]
        count -= got


class _JobHandler(socketserver.BaseRequestHandler):
    def handle(self):
        try:
            request = _read_envelope(self.request, time.monotonic() + SOCKET_TIMEOUT_S)
        except WireFormatError as exc:
            reply = _error_envelope(exc)
        except OSError:
            return      # an idle, stalled or reset client: drop the connection
        else:
            reply = handle_envelope(request)
        self.request.settimeout(SOCKET_TIMEOUT_S)       # bounds the whole sendall
        with contextlib.suppress(OSError):      # the client left before its answer
            self.request.sendall(reply)


class JobServer(socketserver.ThreadingTCPServer):
    """One handler thread per connection, at most ``MAX_CONNECTIONS`` at once;
    a connection beyond that gets an error envelope and is closed."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self._slots = threading.BoundedSemaphore(MAX_CONNECTIONS)

    def process_request(self, request, client_address):
        if not self._slots.acquire(blocking=False):
            try:
                request.sendall(frame(KIND_ERROR, f"server busy: {MAX_CONNECTIONS} "
                                                  f"connections open".encode()))
            except OSError:
                pass
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()


def serve(host: str, port: int) -> JobServer:
    """Start the evaluation server; returns the running server object (caller
    shuts it down).  Port 0 picks an ephemeral port, see server_address."""
    server = JobServer((host, port), _JobHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


def submit(host: str, port: int, job: JobBundle, params: CryptoParams,
           timeout: float = 60.0) -> tuple[ColumnarState, EvalStats]:
    """Connect, send the job and read its answer, all within ``timeout`` of
    the call."""
    deadline = time.monotonic() + timeout
    with socket.create_connection((host, port), timeout=timeout) as sock:
        envelope = frame(KIND_JOB, serialize_job(job, params))
        _settimeout_until(sock, deadline)
        sock.sendall(envelope)
        response = _read_envelope(sock, deadline)
    return _read_result(response)


# ---------------------------------------------------------------------------
# directory transport (inbox/, outbox/)

POLL_S = 0.05       # how often both ends look for a file


def _write_file(path: str, data: bytes) -> None:
    """Write through a fresh temporary beside ``path``, so a reader never
    sees a partial file.  The temporary is created exclusively under a
    random name, so a link a peer planted is never followed, and
    ``os.replace`` replaces a link at ``path`` itself, never its target."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_payload_files(*paths: str, framing: int = 0) -> bytes:
    """The files' bytes, joined: one envelope file, whose ``framing`` is the
    envelope's header and checksum, or a job's state and bundle files.
    Each file is opened without blocking (a FIFO opens with no writer) and
    refused unread unless it is a regular file.  They are refused unread
    when the payload they hold would exceed ``MAX_PAYLOAD_BYTES``, as the
    socket transport refuses a declared length, and no file is read past
    the size it had then."""
    with contextlib.ExitStack() as stack:
        files, sizes = [], []
        for path in paths:
            fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
            info = os.fstat(fd)
            if not stat.S_ISREG(info.st_mode):
                os.close(fd)
                raise WireFormatError(f"{os.path.basename(path)} is not a regular file")
            files.append(stack.enter_context(os.fdopen(fd, "rb")))
            sizes.append(info.st_size)
        _check_payload_len(sum(sizes) - framing)
        return b"".join([fh.read(size) for fh, size in zip(files, sizes)])


def submit_file(root: str, job_id: str, job: JobBundle, params: CryptoParams) -> str:
    # an answer left under this id would pass for this job's
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(root, "outbox", f"{job_id}.rgc"))
    inbox = os.path.join(root, "inbox")
    os.makedirs(inbox, exist_ok=True)
    path = os.path.join(inbox, f"{job_id}.rgc")
    _write_file(path, frame(KIND_JOB, serialize_job(job, params)))
    return path


def serve_files_once(root: str) -> int:
    """Process every pending inbox job; returns how many were answered.  An
    oversized job file gets an error envelope and is consumed unread.  An
    inbox entry that is not a regular file, or that vanishes before it is
    read, is passed over unread, and a job whose answer cannot be written
    is consumed unanswered: nothing a peer puts in either directory makes
    this raise or block."""
    inbox = os.path.join(root, "inbox")
    outbox = os.path.join(root, "outbox")
    os.makedirs(inbox, exist_ok=True)
    os.makedirs(outbox, exist_ok=True)
    handled = 0
    for name in sorted(os.listdir(inbox)):
        if not name.endswith(".rgc"):
            continue
        path = os.path.join(inbox, name)
        try:
            if not stat.S_ISREG(os.lstat(path).st_mode):
                continue
            request = read_payload_files(path, framing=_FRAMING)
        except WireFormatError as exc:
            response = _error_envelope(exc)
        except OSError:         # gone, or not ours to read
            continue
        else:
            response = handle_envelope(request)
        with contextlib.suppress(OSError):
            _write_file(os.path.join(outbox, name), response)
            handled += 1
        with contextlib.suppress(OSError):
            os.remove(path)
    return handled


def collect_result(root: str, job_id: str,
                   timeout: float = 30.0) -> tuple[ColumnarState, EvalStats]:
    """Wait for the job's answer and consume it, read or refused."""
    path = os.path.join(root, "outbox", f"{job_id}.rgc")
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise TimeoutError(f"no result for job {job_id}")
        time.sleep(POLL_S)
    try:
        envelope = read_payload_files(path, framing=_FRAMING)
    finally:
        os.remove(path)
    return _read_result(envelope)


def serve_files(root: str, stop: threading.Event) -> None:
    """Watch-loop flavour of the directory transport."""
    while not stop.is_set():
        if serve_files_once(root) == 0:
            time.sleep(POLL_S)
