"""Bit-exact binary serialization and the client/server job exchange.

Every artifact gets a little-endian layout in which variable-length fields
carry a length prefix; bitstrings are padded to whole bytes with the high
padding bits zero.  Messages travel in a framed envelope::

    magic "RGC1" | version u8 | kind u8 | payload_len u64 | payload | crc32 u32

A bundle (format 4) is a header, the skeleton, then one table per skeleton
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
increasing and below ``num_inputs``; an X-free circuit with none costs the
four bytes of an empty list over format 3.

Almost all of a job is garbled-table rows.  A row travels as the packed
bytes :mod:`rgc.symcrypt` produces, and the bundle header (kappa and tag
length) fixes every width in it, so rows lie back to back with no length
fields.  With p = kappa/8 and t = tag_len/8 bytes::

    toffoli row    r1 r2 r3 (3p) | masked (3p) | 3 x (tag pad (p) | digest (t))
    toffoli table  2n rows of 9p + 3t bytes: n forward, then n backward,
                   n = 8 >> (number of constant controls)
    phase table    2 rows of r1 (p) | masked (w) | tag pad (p) | digest (t)

where w = ceil((exponent + 1) / 8) for the skeleton gate's exponent.  Tables
are read by slicing and written whole.  The reader refuses other bundle
versions (format 1 prefixed every row field with its u32 length; formats 1
and 2 also sent every gate's wires; format 3 had no constant list and sent
16 rows for every Toffoli), more than ``MAX_QUBITS`` qubits, a constant list
that is not strictly increasing below ``num_inputs``, a gate count whose
smallest records and tables could not fit in the bytes left, a skeleton
phase exponent above ``circuit.DEFAULT_MAX_DENOM_EXP``, a skeleton
``allocate_wires`` refuses (a qubit out of range, a Toffoli naming one qubit
twice, a phase sign other than +-1, a constant qubit that is a Toffoli
target or phased), and a job state whose basis strings are not strictly
increasing, whose amplitudes are not finite or whose norm squared differs
from 1 by more than ``sparse.NORM_TOL``; the writer refuses rows of other
widths and X gates, which no skeleton carries (an X is a relabeling of its
wire's keys on the client, see :mod:`rgc.garble`).

One request per connection keeps the exchange as non-interactive as the
protocol itself: the client ships a job, the server ships back the evaluated
state (or an error), and that's the whole conversation.  The server answers
a declared payload above ``MAX_PAYLOAD_BYTES`` with an error without reading
it, a connection beyond ``MAX_CONNECTIONS`` open ones with an error at
once, and drops a connection that stalls for ``SOCKET_TIMEOUT_S``.  A directory-based
transport mirrors the socket one for setups where the only channel is a
shared filesystem; both produce byte-identical result payloads.

Bundles are only serializable when their oracle runs in hash mode - a lazy
table is process-local state and cannot cross the wire.  The oracle seed in
the bundle header is public by design; only the key schedule is secret, and
it has no serialization path into a job.
"""

from __future__ import annotations

import cmath
import os
import socket
import socketserver
import struct
import threading
import time
import zlib
from typing import Iterator

from . import delegation, evaluate
from .circuit import (DEFAULT_MAX_DENOM_EXP, CPCircuit, LogicalGate, Phase, Toffoli, X,
                      allocate_wires, phase, toff)
from .delegation import JobBundle
from .encoding import KeySchedule, WireKeyPair
from .evaluate import EvalStats
from .games import GameReport
from .garble import GarbledBundle, PhaseTable, ToffoliTables, phase_payload_bytes, toffoli_rows
from .oracle import HASH_MODE
from .sparse import NORM_TOL, RegisterLayout, SparseState
from .symcrypt import CryptoParams, row_bytes

MAGIC = b"RGC1"
WIRE_VERSION = 1
BUNDLE_VERSION = 4

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

    def text(self, s: str):
        self.blob(s.encode())

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
        if self.pos + st.size > len(self.data):
            raise WireFormatError("truncated payload")
        vals = st.unpack_from(self.data, self.pos)
        self.pos += st.size
        return vals

    def rows(self, count: int, width: int) -> tuple[bytes, ...]:
        """``count`` consecutive fields of ``width`` bytes each."""
        start, data = self.pos, self.data
        end = start + count * width
        if end > len(data):
            raise WireFormatError("truncated payload")
        self.pos = end
        return tuple([data[i:i + width] for i in range(start, end, width)])

    def blob(self) -> bytes:
        return self._take(self.u32())

    def text(self) -> str:
        return self.blob().decode()

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
    if any(b <= a for a, b in zip(consts, consts[1:])) or (consts and consts[-1] >= num_inputs):
        raise WireFormatError("constant qubits must be strictly increasing and below "
                              f"{num_inputs}")
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
            qubit, denom_exp, sign = r.unpack(_PHASE_GATE)
            if denom_exp > DEFAULT_MAX_DENOM_EXP:
                raise WireFormatError(f"phase exponent {denom_exp} above bound "
                                      f"{DEFAULT_MAX_DENOM_EXP}")
            yield phase(qubit, denom_exp, sign)
        else:
            raise WireFormatError(f"unknown gate kind {kind}")


# garbled tables, rows back to back (see the module docstring)

class _TableLayout:
    """The row widths fixed by one bundle header's kappa and tag length, and
    the row counts fixed by the skeleton's constant qubits."""

    def __init__(self, kappa_bits: int, tag_len_bits: int, const_qubits=()):
        self.widths = (kappa_bits, tag_len_bits)
        self.toffoli = row_bytes(kappa_bits, tag_len_bits, 3, 3 * (kappa_bits // 8))
        self.consts = frozenset(const_qubits)

    def phase(self, denom_exp: int) -> int:
        return row_bytes(*self.widths, 1, phase_payload_bytes(denom_exp))

    def min_gate_bytes(self) -> int:
        """The fewest bytes a skeleton gate and its tables take: a phase gate
        of exponent 0, or a Toffoli with two constant controls."""
        return min(_PHASE_RECORD + 2 * self.phase(0),
                   1 + _TOFFOLI_GATE.size + 2 * 2 * self.toffoli)

    def read(self, r: Reader, gate: Toffoli | Phase) -> ToffoliTables | PhaseTable:
        if isinstance(gate, Toffoli):
            n = toffoli_rows(gate, self.consts)
            rows = r.rows(2 * n, self.toffoli)
            return ToffoliTables(rows[:n], rows[n:])
        return PhaseTable(r.rows(2, self.phase(gate.denom_exp)))

    def write(self, parts: list[bytes], gate: Toffoli | Phase,
              table: ToffoliTables | PhaseTable) -> None:
        """Append the table's rows to ``parts``; the rows are not copied."""
        if isinstance(gate, Toffoli):
            rows, width = table.forward + table.backward, self.toffoli
            count = 2 * toffoli_rows(gate, self.consts)
        else:
            rows, count, width = table.rows, 2, self.phase(gate.denom_exp)
        if len(rows) != count or {len(row) for row in rows} != {width}:
            raise WireFormatError("table rows do not match the bundle header's widths")
        parts += rows


def _get_bundle(r: Reader) -> tuple[GarbledBundle, bytes]:
    version = r.u8()
    if version != BUNDLE_VERSION:
        raise WireFormatError(f"unsupported bundle version {version}")
    kappa = r.u16()
    tag_len = r.u16()
    if not (kappa and tag_len) or kappa % 8 or tag_len % 8:
        raise WireFormatError(f"kappa {kappa} and tag length {tag_len} must be "
                              f"positive multiples of 8")
    oracle_seed = r.blob()
    skeleton = _get_circuit(r, _TableLayout(kappa, tag_len).min_gate_bytes())
    layout = _TableLayout(kappa, tag_len, skeleton.const_qubits)
    tables = tuple(layout.read(r, g) for g in skeleton.gates)
    return GarbledBundle(skeleton, tables, kappa, tag_len), oracle_seed


def _put_state(w: Writer, s: SparseState) -> None:
    w.u32(len(s.layout.registers))
    for name, width in s.layout.registers:
        w.text(name)
        w.u16(width)
    nbytes = (s.layout.total_bits + 7) // 8
    w.u32(len(s.terms))
    for basis in sorted(s.terms):
        amp = s.terms[basis]
        w.raw(basis.to_bytes(nbytes, "little"))
        w.f64(amp.real)
        w.f64(amp.imag)


def _get_state(r: Reader) -> SparseState:
    regs = []
    for _ in range(r.u32()):
        name = r.text()
        regs.append((name, r.u16()))
    layout = RegisterLayout(tuple(regs))
    nbytes = (layout.total_bits + 7) // 8
    terms = {}
    last = -1
    for _ in range(r.u32()):
        basis = int.from_bytes(r.raw(nbytes), "little")
        if basis >> layout.total_bits:
            raise WireFormatError("basis string wider than the layout")
        if basis <= last:
            raise WireFormatError("basis strings not strictly increasing")
        amp = complex(r.f64(), r.f64())
        if not cmath.isfinite(amp):
            raise WireFormatError("amplitude not finite")
        terms[basis] = amp
        last = basis
    return SparseState(layout, terms, check=False)


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
    if params.oracles.mode != HASH_MODE:
        raise WireFormatError("table-mode oracles are process-local; cannot serialize")
    w = Writer()
    w.u8(BUNDLE_VERSION)
    w.u16(b.kappa_bits)
    w.u16(b.tag_len_bits)
    w.blob(params.oracles.seed)
    _put_circuit(w, b.skeleton)
    parts = [w.buf]
    layout = _TableLayout(b.kappa_bits, b.tag_len_bits, b.skeleton.const_qubits)
    for gate, table in zip(b.skeleton.gates, b.tables):
        layout.write(parts, gate, table)
    return b"".join(parts)


def deserialize_bundle(data: bytes) -> tuple[GarbledBundle, CryptoParams]:
    r = Reader(data)
    bundle, oracle_seed = _get_bundle(r)
    r.done()
    params = delegation.make_params(bundle.kappa_bits, tag_len_bits=bundle.tag_len_bits,
                                    oracle_seed=oracle_seed)
    return bundle, params


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
    state = serialize_state(job.encoded_state)
    bundle = serialize_bundle(job.garbled, params)
    return b"".join((struct.pack("<I", len(state)), state,
                     struct.pack("<I", len(bundle)), bundle))


def deserialize_job(data: bytes) -> tuple[JobBundle, CryptoParams]:
    r = Reader(data)
    state = deserialize_state(r.blob())
    # squared by multiplying: a huge amplitude gives inf, never OverflowError
    norm_sq = sum(a.real * a.real + a.imag * a.imag for a in state.terms.values())
    if not abs(norm_sq - 1.0) <= NORM_TOL:
        raise WireFormatError(f"state norm^2 {norm_sq!r} differs from 1")
    bundle, params = deserialize_bundle(r.blob())
    r.done()
    return JobBundle(state, bundle), params


def serialize_result(state: SparseState, stats: EvalStats) -> bytes:
    w = Writer()
    w.blob(serialize_state(state))
    w.text(stats.to_json())
    return w.bytes()


def deserialize_result(data: bytes) -> tuple[SparseState, EvalStats]:
    r = Reader(data)
    state = deserialize_state(r.blob())
    stats = EvalStats.from_json(r.text())
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


def evaluate_job_payload(payload: bytes) -> bytes:
    """Server core, transport-agnostic: job envelope payload in, result or
    error envelope out."""
    job, params = deserialize_job(payload)
    state, stats = evaluate.eval_bundle(params, job.encoded_state, job.garbled)
    return serialize_result(state, stats)


def handle_envelope(data: bytes | bytearray) -> bytes:
    try:
        kind, payload = unframe(data)
        if kind != KIND_JOB:
            raise WireFormatError(f"expected a job envelope, got kind {kind}")
        return frame(KIND_RESULT, evaluate_job_payload(payload))
    except (WireFormatError, evaluate.EvalError, ValueError) as exc:
        return frame(KIND_ERROR, f"{type(exc).__name__}: {exc}".encode())


# ---------------------------------------------------------------------------
# TCP transport (one request per connection)

def _read_envelope(sock: socket.socket) -> bytearray:
    header = bytearray(14)
    _recv_into(sock, memoryview(header))
    if header[:4] != MAGIC:
        raise WireFormatError("bad magic")
    (_, _, length) = struct.unpack("<BBQ", header[4:14])
    if length > MAX_PAYLOAD_BYTES:
        raise WireFormatError(f"declared payload of {length} bytes above limit {MAX_PAYLOAD_BYTES}")
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
            self.request.sendall(frame(KIND_ERROR, str(exc).encode()))
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
    kind, payload = unframe(response)
    if kind == KIND_ERROR:
        raise RemoteEvalError(payload.decode())
    if kind != KIND_RESULT:
        raise WireFormatError(f"unexpected envelope kind {kind}")
    return deserialize_result(payload)


# ---------------------------------------------------------------------------
# directory transport (inbox/, outbox/)

def submit_file(root: str, job_id: str, job: JobBundle, params: CryptoParams) -> str:
    inbox = os.path.join(root, "inbox")
    os.makedirs(inbox, exist_ok=True)
    path = os.path.join(inbox, f"{job_id}.rgc")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(frame(KIND_JOB, serialize_job(job, params)))
    os.replace(tmp, path)
    return path


def serve_files_once(root: str) -> int:
    """Process every pending inbox job; returns how many were handled."""
    inbox = os.path.join(root, "inbox")
    outbox = os.path.join(root, "outbox")
    os.makedirs(outbox, exist_ok=True)
    handled = 0
    if not os.path.isdir(inbox):
        return 0
    for name in sorted(os.listdir(inbox)):
        if not name.endswith(".rgc"):
            continue
        path = os.path.join(inbox, name)
        with open(path, "rb") as fh:
            response = handle_envelope(fh.read())
        tmp = os.path.join(outbox, name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(response)
        os.replace(tmp, os.path.join(outbox, name))
        os.remove(path)
        handled += 1
    return handled


def collect_result(root: str, job_id: str, timeout: float = 30.0,
                   poll: float = 0.05) -> tuple[SparseState, EvalStats]:
    path = os.path.join(root, "outbox", f"{job_id}.rgc")
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise TimeoutError(f"no result for job {job_id}")
        time.sleep(poll)
    with open(path, "rb") as fh:
        kind, payload = unframe(fh.read())
    if kind == KIND_ERROR:
        raise RemoteEvalError(payload.decode())
    return deserialize_result(payload)


def serve_files(root: str, stop: threading.Event, poll: float = 0.1) -> None:
    """Watch-loop flavour of the directory transport."""
    while not stop.is_set():
        if serve_files_once(root) == 0:
            time.sleep(poll)
