"""Bit-exact binary serialization and the client/server job exchange.

Every artifact gets a little-endian layout; bitstrings are padded to whole
bytes with the high padding bits zero.  Messages travel in a framed envelope
of wire version 2::

    envelope   magic "RGC1" | version u8 | kind u8 | payload_len u64 | payload
               | crc32 u32
    job        state | bundle
    result     state | 6 x u64, the EvalStats fields in order
    state      registers u32 | width u16 | term count u32
               | per term: basis (ceil(registers * width / 8)) | re f64 | im f64

Each part delimits itself, and no field is sent that the receiver can derive.
Register i holds basis bits [i * width, (i + 1) * width), qubit i's keys in a
job or result (``sparse.qubit_layout``); the writer refuses any other layout.

A bundle (format 6) is a header, the skeleton, then one table per skeleton
gate::

    bundle     version u8 | kappa u16 | tag_len u16 | oracle seed (blob)
               | skeleton | tables
    skeleton   num_inputs u32 | const count u32 | const qubit u32 each
               | gate count u32 | one record per gate
    toffoli    u8 0 | 3 x qubit u32
    phase      u8 1 | qubit u32 | exponent u16 | sign i8

The skeleton names qubits only.  Wire indices are the client's bookkeeping
for its key pairs, derived from the gate list by ``circuit.allocate_wires``,
and the evaluator applies each gate to its qubits' registers in place.  The
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

where w = ceil((exponent + 1) / 8) for the skeleton gate's exponent.  Tables
are read with one struct per distinct table shape, built once per bundle,
and written whole.  The reader refuses other bundle versions
(formats 1 to 3 sent row field lengths, every gate's wires, or 16 rows for
every Toffoli, format 4 a tag behind every key of every row, and format 5 a
pad per slot and per key of every row),
widths ``CryptoParams`` refuses, more than ``MAX_QUBITS`` qubits or state
registers, more constants than qubits, a gate or term count that the bytes
left could not hold, a state register width of 0, a skeleton
``circuit.allocate_wires`` refuses (its every rule, the phase exponent's
bound among them), and a state whose basis strings are not strictly
increasing, whose amplitudes are not finite or whose norm squared differs
from 1 by more than ``sparse.NORM_TOL``; the writer refuses tables of other
shapes and X gates, which no skeleton carries (an X is a relabeling of its
wire's keys on the client, see :mod:`rgc.garble`).

One request per connection keeps the exchange as non-interactive as the
protocol itself: the client ships a job, the server ships back the evaluated
state (or an error), and that's the whole conversation.  The server answers
a declared payload above ``MAX_PAYLOAD_BYTES`` with an error without reading
it, a connection beyond ``MAX_CONNECTIONS`` open ones with an error at
once, and drops a connection that stalls for ``SOCKET_TIMEOUT_S``; every
error envelope built from an exception reads ``ClassName: text``.  A
directory-based transport mirrors the socket one for setups where the only
channel is a shared filesystem, and each end consumes the file it reads;
both produce byte-identical result payloads, and both refuse an envelope
whose payload exceeds ``MAX_PAYLOAD_BYTES`` unread.

Bundles are only serializable when their oracle runs in hash mode - a lazy
table is process-local state and cannot cross the wire.  The oracle seed in
the bundle header is public by design; only the key schedule is secret, and
it has no serialization path into a job.
"""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import math
import os
import socket
import socketserver
import struct
import threading
import time
import zlib
from typing import Iterator

from . import delegation, evaluate
from .circuit import CPCircuit, LogicalGate, Phase, Toffoli, X, allocate_wires, phase, toff
from .delegation import JobBundle
from .encoding import KeySchedule, WireKeyPair
from .evaluate import EvalStats
from .games import GameReport
from .garble import GarbledBundle, Table, ToffoliTables, phase_payload_bytes, toffoli_slots
from .oracle import HASH_MODE
from .sparse import SparseState, qubit_layout
from .symcrypt import CryptoParams

MAGIC = b"RGC1"
WIRE_VERSION = 2
BUNDLE_VERSION = 6

KIND_JOB = 1
KIND_RESULT = 2
KIND_ERROR = 3

# Server limits: the largest envelope payload a peer may declare (the blind
# interpreter's N=3, D=3, L=4 job is 5.9 MB), the most qubits a skeleton may
# declare (that job has 222), how many connections are served at once, and
# how long one socket read or write may wait.
MAX_PAYLOAD_BYTES = 64 << 20
MAX_QUBITS = 1 << 16
MAX_CONNECTIONS = 16
SOCKET_TIMEOUT_S = 30.0


class WireFormatError(ValueError):
    pass


# ---------------------------------------------------------------------------
# primitive readers/writers

class Writer:
    def __init__(self):
        self.buf = bytearray()

    def u8(self, v): self.buf += struct.pack("<B", v)
    def u16(self, v): self.buf += struct.pack("<H", v)
    def u32(self, v): self.buf += struct.pack("<I", v)
    def u64(self, v): self.buf += struct.pack("<Q", v)
    def f64(self, v): self.buf += struct.pack("<d", v)
    def raw(self, b): self.buf += b

    def blob(self, b: bytes):
        self.u32(len(b))
        self.buf += b

    def bytes(self) -> bytes:
        return bytes(self.buf)


class Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise WireFormatError("truncated payload")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self): return struct.unpack("<B", self._take(1))[0]
    def u16(self): return struct.unpack("<H", self._take(2))[0]
    def u32(self): return struct.unpack("<I", self._take(4))[0]
    def u64(self): return struct.unpack("<Q", self._take(8))[0]
    def f64(self): return struct.unpack("<d", self._take(8))[0]
    def raw(self, n): return self._take(n)

    def unpack(self, st: struct.Struct) -> tuple:
        end = self.pos + st.size
        if end > len(self.data):
            raise WireFormatError("truncated payload")
        fields = st.unpack_from(self.data, self.pos)
        self.pos = end
        return fields

    def blob(self) -> bytes:
        return self._take(self.u32())

    def done(self) -> None:
        if self.pos != len(self.data):
            raise WireFormatError(f"{len(self.data) - self.pos} trailing bytes")


# ---------------------------------------------------------------------------
# artifact serializers

def _put_schedule(w: Writer, s: KeySchedule) -> None:
    w.u16(s.kappa_bits)
    w.u32(len(s.pairs))
    for k0, k1 in s.pairs:
        w.raw(k0)
        w.raw(k1)


def _get_schedule(r: Reader) -> KeySchedule:
    kappa = r.u16()
    nbytes = kappa // 8
    return KeySchedule(kappa, tuple(WireKeyPair(r.raw(nbytes), r.raw(nbytes))
                                    for _ in range(r.u32())))


_TOFFOLI_GATE = struct.Struct("<3I")     # qubits
_PHASE_GATE = struct.Struct("<IHb")      # qubit, denom_exp, sign
_PHASE_RECORD = 1 + _PHASE_GATE.size     # the smallest gate record


def _put_circuit(w: Writer, c: CPCircuit) -> None:
    w.u32(c.num_inputs)
    w.u32(len(c.const_qubits))
    for q in c.const_qubits:
        w.u32(q)
    w.u32(len(c.gates))
    for g in c.gates:
        if isinstance(g, Toffoli):
            w.u8(0)
            w.raw(_TOFFOLI_GATE.pack(*g.qubits))
        elif isinstance(g, X):
            raise WireFormatError("an X gate has no wire encoding; serialize the "
                                  "skeleton, circuit.without_x(circ)")
        else:
            w.u8(1)
            w.raw(_PHASE_GATE.pack(g.qubit, g.denom_exp, g.sign))


def _get_circuit(r: Reader, gate_bytes: int = _PHASE_RECORD) -> CPCircuit:
    """The skeleton at the reader's position.  ``gate_bytes`` is the fewest
    bytes one gate can take in the rest of the payload, its record plus any
    tables: a gate count the bytes left cannot hold is refused before
    anything is built."""
    num_inputs = r.u32()
    if num_inputs > MAX_QUBITS:
        raise WireFormatError(f"{num_inputs} qubits above limit {MAX_QUBITS}")
    n_const = r.u32()
    if n_const > num_inputs:
        raise WireFormatError(f"{n_const} constant qubits among {num_inputs}")
    consts = r.unpack(struct.Struct(f"<{n_const}I"))
    count = r.u32()
    left = len(r.data) - r.pos
    if count * gate_bytes > left:
        raise WireFormatError(f"{count} gates cannot fit in the {left} bytes left "
                              f"(at least {gate_bytes} each)")
    return allocate_wires(_get_gates(r, count), num_inputs, consts)


def _get_gates(r: Reader, count: int) -> Iterator[LogicalGate]:
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

class _TableLayout:
    """The field widths fixed by the params' kappa and tag length, and the
    slot shapes fixed by the skeleton's constant qubits.  Each distinct
    shape is computed once, with the struct that reads its fields: a
    Toffoli's by which of its controls are constant, a phase gate's by its
    exponent."""

    def __init__(self, params: CryptoParams, const_qubits=()):
        self.nonce, self.digest = params.kappa_bytes, params.digest_bytes
        self.consts = frozenset(const_qubits)
        self._shapes: dict[tuple[bool, bool] | int, tuple[tuple[int, ...], struct.Struct]] = {}

    def _table(self, slots: tuple[int, ...], row: int) -> tuple[int, ...]:
        """The field widths of a table with ``slots`` digests per slot and a
        row of ``row`` bytes per combination of positions."""
        return ((self.nonce,) + tuple(n * self.digest for n in slots)
                + (row,) * math.prod(slots))

    def _shape(self, gate: Toffoli | Phase) -> tuple[tuple[int, ...], struct.Struct]:
        """The field widths of all of the gate's tables, in wire order, and
        the struct of those fields."""
        if isinstance(gate, Toffoli):
            a, b, _ = gate.qubits
            key = (a in self.consts, b in self.consts)
        else:
            key = gate.denom_exp
        shape = self._shapes.get(key)
        if shape is None:
            if isinstance(gate, Toffoli):
                widths = self._table(toffoli_slots(gate, self.consts), 3 * self.nonce) * 2
            else:
                widths = self._table((2,), phase_payload_bytes(gate.denom_exp))
            shape = self._shapes[key] = (widths, struct.Struct(
                "<" + "".join(f"{w}s" for w in widths)))
        return shape

    def min_gate_bytes(self) -> int:
        """The fewest bytes a skeleton gate and its tables take: a phase gate
        of exponent 0, or a Toffoli with two constant controls."""
        return min(_PHASE_RECORD + sum(self._table((2,), 1)),
                   1 + _TOFFOLI_GATE.size + 2 * sum(self._table((1, 1, 2), 3 * self.nonce)))

    def read(self, r: Reader, gate: Toffoli | Phase) -> ToffoliTables | Table:
        parts = r.unpack(self._shape(gate)[1])
        if isinstance(gate, Toffoli):
            n = len(parts) // 2
            return ToffoliTables(Table(parts[0], parts[1:4], parts[4:n]),
                                 Table(parts[n], parts[n + 1:n + 4], parts[n + 4:]))
        return Table(parts[0], parts[1:2], parts[2:])

    def write(self, parts: list[bytes], gate: Toffoli | Phase,
              table: ToffoliTables | Table) -> None:
        """Append the tables' fields to ``parts``; nothing is copied."""
        if isinstance(gate, Toffoli):
            tables, slots = (table.forward, table.backward), 3
        else:
            tables, slots = (table,), 1
        fields = [f for t in tables for f in (t.nonce, *t.header, *t.rows)]
        if (any(len(t.header) != slots for t in tables)
                or tuple(map(len, fields)) != self._shape(gate)[0]):
            raise WireFormatError("table does not match the bundle header's widths")
        parts += fields


def _put_bundle(w: Writer, b: GarbledBundle, params: CryptoParams) -> list[bytes]:
    """The bundle after ``w``'s bytes, as parts to join; rows are not copied."""
    if params.oracles.mode != HASH_MODE:
        raise WireFormatError("table-mode oracles are process-local; cannot serialize")
    w.u8(BUNDLE_VERSION)
    w.u16(params.kappa_bits)
    w.u16(params.tag_len_bits)
    w.blob(params.oracles.seed)
    _put_circuit(w, b.skeleton)
    parts = [w.buf]
    layout = _TableLayout(params, b.skeleton.const_qubits)
    for gate, table in zip(b.skeleton.gates, b.tables):
        layout.write(parts, gate, table)
    return parts


def _get_bundle(r: Reader) -> tuple[GarbledBundle, CryptoParams]:
    version = r.u8()
    if version != BUNDLE_VERSION:
        raise WireFormatError(f"unsupported bundle version {version}")
    kappa = r.u16()
    tag_len = r.u16()
    seed = r.blob()
    try:
        params = delegation.make_params(kappa, tag_len_bits=tag_len, oracle_seed=seed)
    except ValueError as exc:       # the widths
        raise WireFormatError(str(exc)) from None
    skeleton = _get_circuit(r, _TableLayout(params).min_gate_bytes())
    layout = _TableLayout(params, skeleton.const_qubits)
    tables = tuple(layout.read(r, g) for g in skeleton.gates)
    return GarbledBundle(skeleton, tables), params


_STATE_HEADER = struct.Struct("<IHI")    # registers, width, terms


def _put_state(w: Writer, s: SparseState) -> None:
    n = len(s.layout.registers)
    width = s.layout.registers[0][1] if n else 1
    if s.layout != qubit_layout(n, width):
        raise WireFormatError("only registers q0, q1, ... of one width cross the wire")
    w.raw(_STATE_HEADER.pack(n, width, len(s.terms)))
    nbytes = (n * width + 7) // 8
    for basis in sorted(s.terms):
        amp = s.terms[basis]
        w.raw(basis.to_bytes(nbytes, "little"))
        w.f64(amp.real)
        w.f64(amp.imag)


def _get_state(r: Reader) -> SparseState:
    """The state at the reader's position.  Its shape is bounded before a
    layout or a term is built, and its norm is checked after."""
    n, width, count = r.unpack(_STATE_HEADER)
    if n > MAX_QUBITS:
        raise WireFormatError(f"{n} registers above limit {MAX_QUBITS}")
    if not width:
        raise WireFormatError("registers of width 0")
    nbytes = (n * width + 7) // 8
    left = len(r.data) - r.pos
    if count * (nbytes + 16) > left:
        raise WireFormatError(f"{count} terms cannot fit in the {left} bytes left")
    layout = qubit_layout(n, width)
    term = struct.Struct(f"<{nbytes}sdd")
    terms = {}
    last = -1
    for raw, re, im in term.iter_unpack(r.raw(count * term.size)):
        basis = int.from_bytes(raw, "little")
        if basis >> layout.total_bits:
            raise WireFormatError("basis string wider than the layout")
        if basis <= last:
            raise WireFormatError("basis strings not strictly increasing")
        amp = complex(re, im)
        if not cmath.isfinite(amp):
            raise WireFormatError("amplitude not finite")
        terms[basis] = amp
        last = basis
    try:
        return SparseState(layout, terms)
    except ValueError as exc:       # the norm
        raise WireFormatError(str(exc)) from None


# public single-artifact entry points ---------------------------------------

def serialize_schedule(s: KeySchedule) -> bytes:
    w = Writer(); _put_schedule(w, s); return w.bytes()


def deserialize_schedule(data: bytes) -> KeySchedule:
    r = Reader(data); s = _get_schedule(r); r.done(); return s


def serialize_circuit(c: CPCircuit) -> bytes:
    w = Writer(); _put_circuit(w, c); return w.bytes()


def deserialize_circuit(data: bytes) -> CPCircuit:
    r = Reader(data); c = _get_circuit(r); r.done(); return c


def serialize_state(s: SparseState) -> bytes:
    w = Writer(); _put_state(w, s); return w.bytes()


def deserialize_state(data: bytes) -> SparseState:
    r = Reader(data); s = _get_state(r); r.done(); return s


def serialize_bundle(b: GarbledBundle, params: CryptoParams) -> bytes:
    return b"".join(_put_bundle(Writer(), b, params))


def deserialize_bundle(data: bytes) -> tuple[GarbledBundle, CryptoParams]:
    r = Reader(data); b = _get_bundle(r); r.done(); return b


def serialize_report(rep: GameReport) -> bytes:
    w = Writer()
    w.u32(rep.trials)
    w.f64(rep.advantage_estimate)
    w.f64(rep.confidence_radius)
    w.u64(rep.oracle_queries_used)
    w.f64(rep.p1)
    w.f64(rep.p0)
    return w.bytes()


def deserialize_report(data: bytes) -> GameReport:
    r = Reader(data)
    rep = GameReport(r.u32(), r.f64(), r.f64(), r.u64(), r.f64(), r.f64())
    r.done()
    return rep


def serialize_job(job: JobBundle, params: CryptoParams) -> bytes:
    w = Writer()
    _put_state(w, job.encoded_state)
    return b"".join(_put_bundle(w, job.garbled, params))


def deserialize_job(data: bytes) -> tuple[JobBundle, CryptoParams]:
    r = Reader(data)
    state = _get_state(r)
    bundle, params = _get_bundle(r)
    r.done()
    return JobBundle(state, bundle), params


_STATS = struct.Struct("<6Q")       # the EvalStats counts, in field order


def serialize_result(state: SparseState, stats: EvalStats) -> bytes:
    w = Writer()
    _put_state(w, state)
    w.raw(_STATS.pack(*dataclasses.astuple(stats)))
    return w.bytes()


def deserialize_result(data: bytes) -> tuple[SparseState, EvalStats]:
    r = Reader(data)
    state = _get_state(r)
    stats = EvalStats(*r.unpack(_STATS))
    r.done()
    return state, stats


# ---------------------------------------------------------------------------
# envelope framing

def frame(kind: int, payload: bytes) -> bytes:
    return b"".join((MAGIC, struct.pack("<BBQ", WIRE_VERSION, kind, len(payload)),
                     payload, struct.pack("<I", zlib.crc32(payload))))


def unframe(data: bytes | bytearray) -> tuple[int, bytes]:
    if len(data) < 18:
        raise WireFormatError("short envelope")
    if data[:4] != MAGIC:
        raise WireFormatError("bad magic")
    version, kind, length = struct.unpack("<BBQ", data[4:14])
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported wire version {version}")
    if len(data) != 14 + length + 4:
        raise WireFormatError("envelope length mismatch")
    payload = bytes(memoryview(data)[14:14 + length])
    (crc,) = struct.unpack("<I", data[14 + length:])
    if crc != zlib.crc32(payload):
        raise WireFormatError("checksum failure")
    return kind, payload


class RemoteEvalError(RuntimeError):
    """The server reported an evaluation failure."""


def _read_result(envelope: bytes | bytearray) -> tuple[SparseState, EvalStats]:
    """The result a server's answer carries, for either transport; an error
    envelope raises :class:`RemoteEvalError`."""
    kind, payload = unframe(envelope)
    if kind == KIND_ERROR:
        raise RemoteEvalError(payload.decode())
    if kind != KIND_RESULT:
        raise WireFormatError(f"unexpected envelope kind {kind}")
    return deserialize_result(payload)


def evaluate_job_payload(payload: bytes) -> bytes:
    """Server core, transport-agnostic: job envelope payload in, result or
    error envelope out."""
    job, params = deserialize_job(payload)
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


def _read_envelope(sock: socket.socket) -> bytearray:
    header = bytearray(14)
    _recv_into(sock, memoryview(header))
    if header[:4] != MAGIC:
        raise WireFormatError("bad magic")
    (_, _, length) = struct.unpack("<BBQ", header[4:14])
    _check_payload_len(length)
    envelope = bytearray(14 + length + 4)
    envelope[:14] = header
    _recv_into(sock, memoryview(envelope)[14:])
    return envelope


def _recv_into(sock: socket.socket, view: memoryview) -> None:
    pos = 0
    while pos < len(view):
        got = sock.recv_into(view[pos:])
        if not got:
            raise WireFormatError("connection closed early")
        pos += got


class _JobHandler(socketserver.BaseRequestHandler):
    def handle(self):
        self.request.settimeout(SOCKET_TIMEOUT_S)
        try:
            request = _read_envelope(self.request)
        except WireFormatError as exc:
            self.request.sendall(_error_envelope(exc))
            return
        except TimeoutError:
            return      # an idle or stalled client: drop the connection
        self.request.sendall(handle_envelope(request))


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
           timeout: float = 60.0) -> tuple[SparseState, EvalStats]:
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(frame(KIND_JOB, serialize_job(job, params)))
        response = _read_envelope(sock)
    return _read_result(response)


# ---------------------------------------------------------------------------
# directory transport (inbox/, outbox/)

POLL_S = 0.05       # how often both ends look for a file


def _write_file(path: str, data: bytes) -> None:
    """Write through a temporary name, so a reader never sees a partial file."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def submit_file(root: str, job_id: str, job: JobBundle, params: CryptoParams) -> str:
    # an answer left under this id would pass for this job's
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(root, "outbox", f"{job_id}.rgc"))
    inbox = os.path.join(root, "inbox")
    os.makedirs(inbox, exist_ok=True)
    path = os.path.join(inbox, f"{job_id}.rgc")
    _write_file(path, frame(KIND_JOB, serialize_job(job, params)))
    return path


def _read_envelope_file(path: str) -> bytes:
    """A whole envelope file, refused unread when its payload would exceed
    ``MAX_PAYLOAD_BYTES``, as the socket transport refuses it."""
    _check_payload_len(os.path.getsize(path) - 18)
    with open(path, "rb") as fh:
        return fh.read()


def serve_files_once(root: str) -> int:
    """Process every pending inbox job; returns how many were handled.  An
    oversized job file gets an error envelope and is consumed unread."""
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
            response = handle_envelope(_read_envelope_file(path))
        except WireFormatError as exc:
            response = _error_envelope(exc)
        _write_file(os.path.join(outbox, name), response)
        os.remove(path)
        handled += 1
    return handled


def collect_result(root: str, job_id: str,
                   timeout: float = 30.0) -> tuple[SparseState, EvalStats]:
    """Wait for the job's answer and consume it, read or refused."""
    path = os.path.join(root, "outbox", f"{job_id}.rgc")
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise TimeoutError(f"no result for job {job_id}")
        time.sleep(POLL_S)
    try:
        envelope = _read_envelope_file(path)
    finally:
        os.remove(path)
    return _read_result(envelope)


def serve_files(root: str, stop: threading.Event) -> None:
    """Watch-loop flavour of the directory transport."""
    while not stop.is_set():
        if serve_files_once(root) == 0:
            time.sleep(POLL_S)
