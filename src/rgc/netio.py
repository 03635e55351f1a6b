"""Bit-exact binary serialization and the client/server job exchange.

Every artifact gets a little-endian, length-prefixed layout; bitstrings are
padded to whole bytes with the high padding bits zero.  Messages travel in a
framed envelope::

    magic "RGC1" | version u8 | kind u8 | payload_len u64 | payload | crc32 u32

One request per connection keeps the exchange as non-interactive as the
protocol itself: the client ships a job, the server ships back the evaluated
state (or an error), and that's the whole conversation.  A directory-based
transport mirrors the socket one for setups where the only channel is a
shared filesystem; both produce byte-identical result payloads.

Bundles are only serializable when their oracle runs in hash mode - a lazy
table is process-local state and cannot cross the wire.  The oracle seed in
the bundle header is public by design; only the key schedule is secret, and
it has no serialization path into a job.
"""

from __future__ import annotations

import os
import socket
import socketserver
import struct
import threading
import time
import zlib
from . import delegation, evaluate
from .circuit import DEFAULT_MAX_DENOM_EXP, CPCircuit, Phase, Toffoli, validate
from .delegation import JobBundle
from .encoding import KeySchedule, WireKeyPair
from .evaluate import EvalStats
from .games import GameReport
from .garble import GarbledBundle, PhaseTable, ToffoliTables
from .oracle import HASH_MODE
from .sparse import RegisterLayout, SparseState
from .symcrypt import (CryptoParams, KdmCiphertext, KeyTag, TripleCiphertext)

MAGIC = b"RGC1"
WIRE_VERSION = 1
BUNDLE_VERSION = 1

KIND_JOB = 1
KIND_RESULT = 2
KIND_ERROR = 3


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
    def i8(self, v): self.buf += struct.pack("<b", v)
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
    def i8(self): return struct.unpack("<b", self._take(1))[0]
    def f64(self): return struct.unpack("<d", self._take(8))[0]
    def raw(self, n): return self._take(n)

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
    w.u32(len(s.input_wires))
    for wire in s.input_wires:
        w.u32(wire)
    w.u32(len(s.output_wires))
    for wire in s.output_wires:
        w.u32(wire)


def _get_schedule(r: Reader) -> KeySchedule:
    kappa = r.u16()
    nbytes = kappa // 8
    pairs = tuple(WireKeyPair(r.raw(nbytes), r.raw(nbytes)) for _ in range(r.u32()))
    ins = tuple(r.u32() for _ in range(r.u32()))
    outs = tuple(r.u32() for _ in range(r.u32()))
    return KeySchedule(kappa, pairs, ins, outs)


def _put_circuit(w: Writer, c: CPCircuit) -> None:
    w.u32(c.num_inputs)
    w.u32(c.num_wires)
    w.u32(len(c.output_wires))
    for wire in c.output_wires:
        w.u32(wire)
    w.u32(len(c.gates))
    for g in c.gates:
        if isinstance(g, Toffoli):
            w.u8(0)
            for v in g.qubits + g.in_wires + g.out_wires:
                w.u32(v)
        else:
            w.u8(1)
            w.u32(g.qubit)
            w.u32(g.wire)
            w.u16(g.denom_exp)
            w.i8(g.sign)


def _get_denom_exp(r: Reader) -> int:
    denom_exp = r.u16()
    if denom_exp > DEFAULT_MAX_DENOM_EXP:
        raise WireFormatError(f"phase exponent {denom_exp} above bound {DEFAULT_MAX_DENOM_EXP}")
    return denom_exp


def _get_circuit(r: Reader) -> CPCircuit:
    num_inputs = r.u32()
    num_wires = r.u32()
    outs = tuple(r.u32() for _ in range(r.u32()))
    gates = []
    for _ in range(r.u32()):
        kind = r.u8()
        if kind == 0:
            vals = [r.u32() for _ in range(9)]
            gates.append(Toffoli(tuple(vals[0:3]), tuple(vals[3:6]), tuple(vals[6:9])))
        elif kind == 1:
            gates.append(Phase(r.u32(), r.u32(), _get_denom_exp(r), r.i8()))
        else:
            raise WireFormatError(f"unknown gate kind {kind}")
    circ = CPCircuit(num_inputs, tuple(gates), num_wires, outs)
    validate(circ)
    return circ


def _put_tag(w: Writer, t: KeyTag) -> None:
    w.blob(t.pad)
    w.blob(t.digest)


def _get_tag(r: Reader) -> KeyTag:
    return KeyTag(r.blob(), r.blob())


def _put_kdm_ct(w: Writer, c: KdmCiphertext) -> None:
    w.blob(c.r1)
    w.blob(c.masked)
    _put_tag(w, c.tag)


def _get_kdm_ct(r: Reader) -> KdmCiphertext:
    return KdmCiphertext(r.blob(), r.blob(), _get_tag(r))


def _put_triple_ct(w: Writer, c: TripleCiphertext) -> None:
    for pad in c.pads:
        w.blob(pad)
    w.blob(c.masked)
    for tag in c.tags:
        _put_tag(w, tag)


def _get_triple_ct(r: Reader) -> TripleCiphertext:
    pads = tuple(r.blob() for _ in range(3))
    masked = r.blob()
    tags = tuple(_get_tag(r) for _ in range(3))
    return TripleCiphertext(pads, masked, tags)


def _get_bundle(r: Reader) -> tuple[GarbledBundle, bytes]:
    version = r.u8()
    if version != BUNDLE_VERSION:
        raise WireFormatError(f"unsupported bundle version {version}")
    kappa = r.u16()
    tag_len = r.u16()
    oracle_seed = r.blob()
    skeleton = _get_circuit(r)
    tables = []
    for g in skeleton.gates:
        if isinstance(g, Toffoli):
            rows = [_get_triple_ct(r) for _ in range(16)]
            tables.append(ToffoliTables(tuple(rows[:8]), tuple(rows[8:])))
        else:
            denom_exp = _get_denom_exp(r)
            tables.append(PhaseTable((_get_kdm_ct(r), _get_kdm_ct(r)), denom_exp))
    return GarbledBundle(skeleton, tuple(tables), kappa, tag_len), oracle_seed


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
    for _ in range(r.u32()):
        basis = int.from_bytes(r.raw(nbytes), "little")
        if basis >> layout.total_bits:
            raise WireFormatError("basis string wider than the layout")
        re = r.f64()
        im = r.f64()
        terms[basis] = complex(re, im)
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
    for table in b.tables:
        if isinstance(table, ToffoliTables):
            for row in table.forward + table.backward:
                _put_triple_ct(w, row)
        else:
            w.u16(table.denom_exp)
            for row in table.rows:
                _put_kdm_ct(w, row)
    return w.bytes()


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
    w = Writer()
    w.blob(serialize_state(job.encoded_state))
    w.blob(serialize_bundle(job.garbled, params))
    return w.bytes()


def deserialize_job(data: bytes) -> tuple[JobBundle, CryptoParams]:
    r = Reader(data)
    state = deserialize_state(r.blob())
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
    return (MAGIC + struct.pack("<BBQ", WIRE_VERSION, kind, len(payload))
            + payload + struct.pack("<I", zlib.crc32(payload)))


def unframe(data: bytes) -> tuple[int, bytes]:
    if len(data) < 18:
        raise WireFormatError("short envelope")
    if data[:4] != MAGIC:
        raise WireFormatError("bad magic")
    version, kind, length = struct.unpack("<BBQ", data[4:14])
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported wire version {version}")
    if len(data) != 14 + length + 4:
        raise WireFormatError("envelope length mismatch")
    payload = data[14:14 + length]
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


def handle_envelope(data: bytes) -> bytes:
    try:
        kind, payload = unframe(data)
        if kind != KIND_JOB:
            raise WireFormatError(f"expected a job envelope, got kind {kind}")
        return frame(KIND_RESULT, evaluate_job_payload(payload))
    except (WireFormatError, evaluate.EvalError, ValueError) as exc:
        return frame(KIND_ERROR, f"{type(exc).__name__}: {exc}".encode())


# ---------------------------------------------------------------------------
# TCP transport (one request per connection)

def _read_envelope(sock: socket.socket) -> bytes:
    header = _read_exact(sock, 14)
    if header[:4] != MAGIC:
        raise WireFormatError("bad magic")
    (_, _, length) = struct.unpack("<BBQ", header[4:14])
    body = _read_exact(sock, length + 4)
    return header + body


def _read_exact(sock: socket.socket, n: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < n:
        chunk = sock.recv(min(65536, n - len(chunks)))
        if not chunk:
            raise WireFormatError("connection closed early")
        chunks += chunk
    return bytes(chunks)


class _JobHandler(socketserver.BaseRequestHandler):
    def handle(self):
        try:
            request = _read_envelope(self.request)
        except WireFormatError as exc:
            self.request.sendall(frame(KIND_ERROR, str(exc).encode()))
            return
        self.request.sendall(handle_envelope(request))


class JobServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


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
