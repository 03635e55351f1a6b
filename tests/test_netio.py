import hashlib
import math
import random
import socket
import struct
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rgc import delegation, netio, sparse, symcrypt
from rgc.circuit import (DEFAULT_MAX_DENOM_EXP, CircuitError, Toffoli, allocate_wires,
                         format_circuit, parse_circuit, phase, random_circuit, without_x)
from rgc.encoding import KeySchedule, WireKeyPair, encode, gen_keys
from rgc.evaluate import EvalStats
from rgc.games import GameReport
from rgc.garble import GarbledBundle, PhaseTable, ToffoliTables, garble_circuit
from rgc.netio import (WireFormatError, deserialize_bundle,
                       deserialize_circuit, deserialize_job, deserialize_report,
                       deserialize_schedule, deserialize_state, frame,
                       serialize_bundle, serialize_circuit, serialize_job,
                       serialize_report, serialize_result, serialize_schedule,
                       serialize_state, unframe)
from rgc.sparse import fidelity, qubit_layout, random_state

from conftest import circuits_and_states, input_state


def _job_fixture(seed=1, n=3, gates=2):
    rng = random.Random(seed)
    circ = random_circuit(rng, n, gates, max_denom_exp=3)
    keys = delegation.keygen(16, n, circ, rng, conjecture=True)
    params = delegation.make_params(16, oracle_seed=rng.randbytes(8))
    state = random_state(qubit_layout(n), rng)
    job = delegation.encrypt(params, keys, circ, state, rng)
    return circ, keys, params, state, job


def test_schedule_roundtrip():
    rng = random.Random(2)
    circ = parse_circuit("inputs 3\ntoff 0 1 2\n")
    schedule = gen_keys(24, circ, rng)
    assert deserialize_schedule(serialize_schedule(schedule)) == schedule


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(circuits_and_states(), st.sampled_from((8, 16, 24, 64)))
def test_schedule_roundtrip_property(case, kappa):
    circ, _, seed = case
    schedule = gen_keys(kappa, circ, random.Random(seed))
    assert deserialize_schedule(serialize_schedule(schedule)) == schedule


def test_circuit_roundtrip():
    rng = random.Random(3)
    for _ in range(25):
        circ = random_circuit(rng, rng.randint(1, 5), rng.randint(0, 8))
        assert deserialize_circuit(serialize_circuit(circ)) == circ


def test_circuit_with_x_is_not_serialized():
    circ = parse_circuit("inputs 2\nx 0\nphase 0 1\n")
    with pytest.raises(WireFormatError, match="X gate has no wire encoding"):
        serialize_circuit(circ)
    skeleton = without_x(circ)
    assert deserialize_circuit(serialize_circuit(skeleton)) == skeleton


def test_state_roundtrip_exact():
    rng = random.Random(4)
    lay = sparse.layout(("a", 5), ("b", 3))
    state = random_state(lay, rng)
    back = deserialize_state(serialize_state(state))
    assert back.layout == state.layout
    assert back.terms == state.terms          # f64 pairs roundtrip bit-exactly


def _state_payload(lay, terms):
    """A state in serialize_state's layout, its terms in the order given."""
    w = netio.Writer()
    w.u32(len(lay.registers))
    for name, width in lay.registers:
        w.text(name)
        w.u16(width)
    nbytes = (lay.total_bits + 7) // 8
    w.u32(len(terms))
    for basis, amp in terms:
        w.raw(basis.to_bytes(nbytes, "little"))
        w.f64(amp.real)
        w.f64(amp.imag)
    return w.bytes()


def test_state_payload_helper_matches_the_writer():
    state = random_state(qubit_layout(3), random.Random(5))
    assert _state_payload(state.layout, sorted(state.terms.items())) == serialize_state(state)


@pytest.mark.parametrize("terms, message", [
    ([(0, 0.6), (0, 0.8)], "not strictly increasing"),     # repeated basis
    ([(3, 0.8), (0, 0.6)], "not strictly increasing"),     # out of order
    ([(0, 0.6), (3, complex(0.8, math.nan))], "not finite"),
    ([(0, complex(math.inf, 0))], "not finite"),
])
def test_state_parser_accepts_only_the_canonical_form(terms, message):
    data = _state_payload(qubit_layout(2), [(b, complex(a)) for b, a in terms])
    with pytest.raises(WireFormatError, match=message):
        deserialize_state(data)


def test_job_with_reordered_state_terms_gets_error_envelope():
    _, _, params, _, job = _job_fixture(seed=26)
    state = job.encoded_state
    w = netio.Writer()
    w.blob(_state_payload(state.layout, sorted(state.terms.items(), reverse=True)))
    w.blob(serialize_bundle(job.garbled, params))
    kind, payload = unframe(netio.handle_envelope(frame(netio.KIND_JOB, w.bytes())))
    assert kind == netio.KIND_ERROR
    assert payload == b"WireFormatError: basis strings not strictly increasing"


_REGISTERS = st.lists(st.tuples(st.text(max_size=4), st.integers(1, 12)),
                      min_size=1, max_size=4, unique_by=lambda reg: reg[0])
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _states(draw):
    lay = sparse.RegisterLayout(tuple(draw(_REGISTERS)))
    bases = draw(st.sets(st.integers(0, (1 << lay.total_bits) - 1), max_size=8))
    return sparse.SparseState(lay, {b: complex(draw(_FINITE), draw(_FINITE)) for b in bases},
                              check=False)


@settings(max_examples=150, deadline=None)
@given(_states())
def test_state_roundtrip_property(state):
    data = serialize_state(state)
    back = deserialize_state(data)
    assert back.layout == state.layout and back.terms == state.terms
    assert serialize_state(back) == data


@settings(max_examples=100, deadline=None)
@given(_states(), st.builds(EvalStats, *(st.integers(0, 1 << 40) for _ in range(6))))
def test_result_roundtrip_property(state, stats):
    data = serialize_result(state, stats)
    back, back_stats = netio.deserialize_result(data)
    assert back.layout == state.layout and back.terms == state.terms
    assert back_stats == stats
    assert serialize_result(back, back_stats) == data


def test_bundle_roundtrip_many():
    rng = random.Random(5)
    for i in range(100):
        circ = random_circuit(rng, rng.randint(3, 4), rng.randint(1, 3))
        params = delegation.make_params(16, oracle_seed=bytes([i]))
        bundle = garble_circuit(params, circ, gen_keys(16, circ, rng), rng)
        data = serialize_bundle(bundle, params)
        back, back_params = deserialize_bundle(data)
        assert back == bundle
        assert back_params.oracles.seed == bytes([i])
        assert serialize_bundle(back, back_params) == data


def test_empty_circuit_bundle_minimal():
    rng = random.Random(6)
    circ = allocate_wires([], 1)
    params = delegation.make_params(16, oracle_seed=b"e")
    bundle = garble_circuit(params, circ, gen_keys(16, circ, rng), rng)
    data = serialize_bundle(bundle, params)
    back, _ = deserialize_bundle(data)
    assert back.tables == ()


def test_report_roundtrip():
    rep = GameReport(100, 0.25, 0.05, 12345, 0.6, 0.35)
    assert deserialize_report(serialize_report(rep)) == rep


def test_result_roundtrip():
    rng = random.Random(7)
    state = random_state(qubit_layout(2), rng)
    stats = EvalStats(gates=3, ver_calls=10)
    s2, st2 = netio.deserialize_result(serialize_result(state, stats))
    assert s2.terms == state.terms and st2 == stats


def test_job_roundtrip():
    _, _, params, _, job = _job_fixture()
    data = serialize_job(job, params)
    job2, params2 = deserialize_job(data)
    assert job2 == job
    assert serialize_job(job2, params2) == data


def test_table_oracle_not_serializable():
    circ, keys, _, state, _ = _job_fixture()
    table_params = delegation.make_params(16, table_mode=True, table_seed=4)
    job = delegation.encrypt(table_params, keys, circ, state, random.Random(8))
    with pytest.raises(WireFormatError):
        serialize_job(job, table_params)


def test_envelope_roundtrip_and_corruption():
    payload = b"payload-bytes"
    env = frame(netio.KIND_RESULT, payload)
    assert unframe(env) == (netio.KIND_RESULT, payload)
    corrupted = bytearray(env)
    corrupted[15] ^= 0x01
    with pytest.raises(WireFormatError, match="checksum"):
        unframe(bytes(corrupted))
    with pytest.raises(WireFormatError, match="magic"):
        unframe(b"NOPE" + env[4:])
    with pytest.raises(WireFormatError):
        unframe(env[:-3])    # truncation
    bad_version = bytearray(env)
    bad_version[4] = 9
    with pytest.raises(WireFormatError, match="version"):
        unframe(bytes(bad_version))


def test_truncated_payload_detected():
    rng = random.Random(9)
    state = random_state(qubit_layout(3), rng)
    data = serialize_state(state)
    with pytest.raises(WireFormatError):
        deserialize_state(data[:-4])
    with pytest.raises(WireFormatError):
        deserialize_state(data + b"\x00")


def test_socket_and_file_transports_agree():
    circ, keys, params, state, job = _job_fixture(seed=10)
    local_state, local_stats = delegation.run_job(params, job)

    server = netio.serve("127.0.0.1", 0)
    try:
        host, port = server.server_address
        sock_state, sock_stats = netio.submit(host, port, job, params)
    finally:
        server.shutdown()
        server.server_close()

    import tempfile
    with tempfile.TemporaryDirectory() as root:
        netio.submit_file(root, "j1", job, params)
        assert netio.serve_files_once(root) == 1
        file_state, file_stats = netio.collect_result(root, "j1")

    local = serialize_result(local_state, local_stats)
    assert serialize_result(sock_state, sock_stats) == local
    assert serialize_result(file_state, file_stats) == local
    decoded = delegation.decrypt(keys, circ, sock_state)
    from rgc.circuit import simulate
    assert fidelity(decoded, simulate(circ, state)) >= 1 - 1e-9


def test_server_reports_evaluation_errors():
    circ, keys, params, state, job = _job_fixture(seed=11)
    data = bytearray(serialize_job(job, params))
    data[-1] ^= 0xFF     # corrupt the bundle body
    response = netio.handle_envelope(frame(netio.KIND_JOB, bytes(data)))
    kind, payload = unframe(response)
    assert kind == netio.KIND_ERROR
    assert payload     # carries a reason string


def test_remote_error_raised_on_submit():
    server = netio.serve("127.0.0.1", 0)
    try:
        host, port = server.server_address
        import socket
        with socket.create_connection((host, port)) as sock:
            sock.sendall(frame(netio.KIND_RESULT, b"not-a-job"))
            resp = netio._read_envelope(sock)
        kind, _ = unframe(resp)
        assert kind == netio.KIND_ERROR
    finally:
        server.shutdown()
        server.server_close()


def test_no_schedule_keys_leak_into_the_job():
    # rig the schedule with sentinel key bytes and scan the serialized job:
    # they may appear in the encoded registers, nowhere else
    circ = parse_circuit("inputs 3\ntoff 0 1 2\nphase 0 2\n")
    rng = random.Random(12)
    sentinels = []
    pairs = []
    for i in range(circ.num_wires):
        k0 = bytes([0xA0 + i]) * 8
        k1 = bytes([0xC0 + i]) * 8
        pairs.append(WireKeyPair(k0, k1))
        sentinels += [k0, k1]
    schedule = KeySchedule(64, tuple(pairs))
    keys = delegation.DelegationKeys(schedule, 64, 64, 3)
    params = delegation.make_params(64, oracle_seed=b"sentinel")
    state = random_state(qubit_layout(3), rng)
    job = delegation.encrypt(params, keys, circ, state, rng)

    encoded_blob = serialize_state(job.encoded_state)
    rest = serialize_bundle(job.garbled, params)
    for sentinel in sentinels:
        assert sentinel not in rest, "schedule key visible outside the encoded state"
    input_keys = {schedule.pairs[w][b] for w in circ.input_wires for b in (0, 1)}
    assert any(k in encoded_blob for k in input_keys)


def _handle_job(job, params):
    return unframe(netio.handle_envelope(frame(netio.KIND_JOB, serialize_job(job, params))))


def test_phase_exponent_above_bound_gets_error_envelope():
    # a correctly framed job; only the exponent exceeds what the parser allows
    d = DEFAULT_MAX_DENOM_EXP + 1984
    circ = allocate_wires([phase(0, d)], 1)
    rng = random.Random(13)
    keys = delegation.keygen(16, 1, circ, rng, conjecture=True)
    params = delegation.make_params(16, oracle_seed=b"exp")
    job = delegation.encrypt(params, keys, circ, random_state(qubit_layout(1), rng), rng)
    kind, payload = _handle_job(job, params)
    assert kind == netio.KIND_ERROR
    assert b"WireFormatError" in payload and b"exponent" in payload


def test_renamed_state_registers_still_evaluate():
    # register names carry no meaning to the evaluator, which addresses
    # registers by index
    circ, keys, params, state, job = _job_fixture(seed=14, gates=4)
    layout = job.encoded_state.layout
    renamed = sparse.RegisterLayout(tuple(
        ("x1" if name == "q1" else name, width) for name, width in layout.registers))
    job = delegation.JobBundle(sparse.with_layout(job.encoded_state, renamed), job.garbled)
    kind, payload = _handle_job(job, params)
    assert kind == netio.KIND_RESULT
    out, _ = netio.deserialize_result(payload)
    from rgc.circuit import simulate
    assert fidelity(delegation.decrypt(keys, circ, out), simulate(circ, state)) >= 1 - 1e-9


@pytest.mark.parametrize("widths", [(16, 16), (16, 16, 16, 16), (8, 24, 16), (24, 24)])
def test_state_of_wrong_register_layout_gets_error_envelope(widths):
    circ, keys, params, state, job = _job_fixture(seed=15)
    layout = sparse.RegisterLayout(tuple((f"q{i}", w) for i, w in enumerate(widths)))
    basis = next(iter(job.encoded_state.terms)) & ((1 << layout.total_bits) - 1)
    job = delegation.JobBundle(sparse.SparseState(layout, {basis: 1 + 0j}), job.garbled)
    kind, payload = _handle_job(job, params)
    assert kind == netio.KIND_ERROR
    assert b"EvalError" in payload and b"registers of 16 bits" in payload


def test_register_holding_three_keys_gets_error_envelope():
    # a wire has two keys; a third key in one register is refused before any
    # table is read
    circ, keys, params, state, job = _job_fixture(seed=24)
    terms = dict(job.encoded_state.terms)
    held = {basis & 0xFFFF for basis in terms}
    assert len(held) == 2
    third = next(k for k in range(1 << 16) if k not in held)
    basis = max(terms)
    terms[(basis & ~0xFFFF) | third] = terms.pop(basis)
    job = delegation.JobBundle(sparse.SparseState(job.encoded_state.layout, terms), job.garbled)
    kind, payload = _handle_job(job, params)
    assert kind == netio.KIND_ERROR
    assert payload == b"EvalError: register 0 holds 3 distinct keys; a wire has two"


# ---------------------------------------------------------------------------
# fixed-stride tables: golden bytes, round trip, cross-checks, mutations

PHASE_JOB_CIRCUIT = """inputs 3
toff 0 1 2
phase 1 2
toff 2 0 1
phase 0 3 neg
phase 2 0
phase 1 1
phase 0 2 neg
phase 2 3
phase 1 0 neg
phase 0 1
phase 2 2 neg
"""
TOFFOLI_JOB_CIRCUIT = "inputs 3\ntoff 0 1 2\ntoff 1 2 0\ntoff 2 0 1\n"


def _seeded_job(text, seed=17):
    circ = parse_circuit(text)
    rng = random.Random(seed)
    keys = delegation.keygen(16, circ.num_inputs, circ, rng, conjecture=True)
    params = delegation.make_params(16, oracle_seed=rng.randbytes(8))
    free = [q for q in range(circ.num_inputs) if q not in circ.const_qubits]
    state = input_state(circ, free, rng)
    return delegation.encrypt(params, keys, circ, state, rng), params


def _old_skeleton(c, version):
    """The skeleton as bundle formats 1 to 3 wrote it: no constant list, and
    in formats 1 and 2 the wire counts, the output wires, and every gate's
    wires beside its qubits."""
    w = netio.Writer()
    header = (c.num_inputs, len(c.gates)) if version == 3 else (
        c.num_inputs, c.num_wires, len(c.output_wires), *c.output_wires, len(c.gates))
    for value in header:
        w.u32(value)
    for g in c.gates:
        if isinstance(g, Toffoli):
            w.u8(0)
            wires = () if version == 3 else (*g.in_wires, *g.out_wires)
            w.raw(struct.pack(f"<{3 + len(wires)}I", *g.qubits, *wires))
        elif version == 3:
            w.u8(1)
            w.raw(struct.pack("<IHb", g.qubit, g.denom_exp, g.sign))
        else:
            w.u8(1)
            w.raw(struct.pack("<IIHb", g.qubit, g.wire, g.denom_exp, g.sign))
    return w.bytes()


def _old_format_job(job, params, version):
    """The job as bundle formats 1 to 3 wrote it: the old skeleton, and in
    formats 1 and 2 a u16 exponent before each phase table.  Formats 2 and 3
    store the packed rows back to back; format 1 put every row field behind
    its u32 length, in the order the packed row holds them.  No format
    before 4 had half tables: the job must have no constant qubit."""
    bundle, p = job.garbled, params.kappa_bytes
    assert not bundle.skeleton.const_qubits
    w = netio.Writer()
    w.u8(version)
    w.u16(bundle.kappa_bits)
    w.u16(bundle.tag_len_bits)
    w.blob(params.oracles.seed)
    w.raw(_old_skeleton(bundle.skeleton, version))
    for gate, table in zip(bundle.skeleton.gates, bundle.tables):
        if isinstance(table, ToffoliTables):
            rows, n_keys = table.forward + table.backward, 3
        else:
            if version < 3:
                w.u16(gate.denom_exp)
            rows, n_keys = table.rows, 1
        for row in rows:
            if version > 1:
                w.raw(row)
                continue
            pads, masked, tags = symcrypt.split_row(params, row, n_keys)
            for field in ([pads[i:i + p] for i in range(0, len(pads), p)] + [masked]
                          + [half for tag in tags for half in (tag[:p], tag[p:])]):
                w.blob(field)
    job_w = netio.Writer()
    job_w.blob(serialize_state(job.encoded_state))
    job_w.blob(w.bytes())
    return job_w.bytes()


def _pin(data):
    return len(data), hashlib.blake2b(data).hexdigest()


# serialize_job's length and BLAKE2b per job circuit, in bundle format 4 and
# in format 3 as its codec wrote it
FORMAT_4_PINS = {
    PHASE_JOB_CIRCUIT:
        (2833, "284c3c2836cabd195625f4a92f730edbfc73d28dd269813296fde6460e52b0de"
               "45bffeaa2a4d0d217e981526091af97fa384bd0015daa0f7d84414d026ba92c6"),
    TOFFOLI_JOB_CIRCUIT:
        (3452, "090a429b6a4aabd95ae02c91a3d922a1dd7229f253a64644b98a24e46e40c369"
               "a2a38937f29349ff79d8b15f60eecf654781cffb9e36a11638dfeeb035326bbe"),
}
FORMAT_3_PINS = {
    PHASE_JOB_CIRCUIT:
        (2829, "bb2533dbaaf4fe2e105a4bb2d504e1e9046f1e51183fcc3576916baf03a5aa97"
               "d183a5ab906cb16dca112d1aa0966a239d0be40a97cb9d47d22fb3c4e9280419"),
    TOFFOLI_JOB_CIRCUIT:
        (3448, "e4390730a0e4095e76deb77e7c69aaf63cc3586fd7e4cc2a1bef6ec004b32f28"
               "e9bbb4f279bed657bb1988c52c193d40e9a6eaa78aba933acdd8e9bbd5bb9804"),
}


@pytest.mark.parametrize("text, v1_size, v1_digest, v2_size, v2_digest", [
    (PHASE_JOB_CIRCUIT, 4519,
     "c8bb4fa049cc0f070433537dcc2b032650bfcf19e0ea18bdf560db6cdd19ce9c"
     "cf45f0454e094c652e54dec17c41b92ecc613fb3d1668b29c10b557f1688b127",
     2951,
     "5258d0517d4215c751a8e9928fb5dbc562bf73d4f41be60542a80c63a5e5a15b"
     "f889f6f44ce3a655edd0a66e9fb8ffc044ce5c2c5a7237da03be53e16b74f304"),
    (TOFFOLI_JOB_CIRCUIT, 5460,
     "212beb2ed298499673fc8ee679085f267543086c5f31f528de97d6f4bbe3c0f5"
     "37b6bf4039cb8b8b8011b13990a428244a56f5bce807d2c13fb422b856ac7e01",
     3540,
     "95a97ab7bd10373f4abd3dc9a506cb3fc8fe676c6bd7c4d2d52ba1c2b0029501"
     "f15b33c243146f6d776880ef6766bb72a3802d41f1eb39e7ce41b86b584dc497"),
])
def test_job_bytes_golden(text, v1_size, v1_digest, v2_size, v2_digest):
    # BLAKE2b of serialize_job (bundle format 4), and of the same job in
    # formats 1 to 3 as their codecs wrote it: the rows are unchanged
    job, params = _seeded_job(text)
    data = serialize_job(job, params)
    assert _pin(data) == FORMAT_4_PINS[text]
    assert serialize_job(*deserialize_job(data)) == data
    assert _pin(_old_format_job(job, params, 3)) == FORMAT_3_PINS[text]
    assert _pin(_old_format_job(job, params, 1)) == (v1_size, v1_digest)
    assert _pin(_old_format_job(job, params, 2)) == (v2_size, v2_digest)


def _old_format_reply(version):
    job, params = _seeded_job(TOFFOLI_JOB_CIRCUIT)
    return unframe(netio.handle_envelope(
        frame(netio.KIND_JOB, _old_format_job(job, params, version))))


def test_format_1_bundle_gets_error_envelope():
    assert _old_format_reply(1) == (netio.KIND_ERROR,
                                    b"WireFormatError: unsupported bundle version 1")


def test_format_2_bundle_gets_error_envelope():
    assert _old_format_reply(2) == (netio.KIND_ERROR,
                                    b"WireFormatError: unsupported bundle version 2")


def test_format_3_bundle_gets_error_envelope():
    assert _old_format_reply(3) == (netio.KIND_ERROR,
                                    b"WireFormatError: unsupported bundle version 3")


# ---------------------------------------------------------------------------
# the qubit-only skeleton at the trust boundary

def _job_with_skeleton(job, params, patch):
    """The job's payload with ``patch(skeleton_bytes)`` in place of its
    skeleton; the tables that follow are left as they are."""
    bundle = serialize_bundle(job.garbled, params)
    start = 9 + len(params.oracles.seed)        # version, widths, seed blob
    end = start + len(serialize_circuit(job.garbled.skeleton))
    w = netio.Writer()
    w.blob(serialize_state(job.encoded_state))
    w.blob(bundle[:start] + patch(bundle[start:end]) + bundle[end:])
    return unframe(netio.handle_envelope(frame(netio.KIND_JOB, w.bytes())))


def _set(offset, fmt, *values):
    """A patch that packs ``values`` at ``offset`` of the skeleton."""
    def patch(skeleton):
        data = bytearray(skeleton)
        struct.pack_into(fmt, data, offset, *values)
        return bytes(data)
    return patch


def test_job_with_skeleton_helper_leaves_an_honest_job_intact():
    job, params = _seeded_job(TOFFOLI_JOB_CIRCUIT)
    kind, payload = _job_with_skeleton(job, params, lambda skeleton: skeleton)
    assert kind == netio.KIND_RESULT
    assert payload == serialize_result(*delegation.run_job(params, job))


# skeleton offsets without constants: num_inputs at 0, the constant count at
# 4, gate count at 8, the first record at 12 (its kind byte), so a first
# Toffoli's qubits sit at 13 and a first phase gate's qubit, exponent and
# sign at 13, 17 and 19
@pytest.mark.parametrize("text, patch, message", [
    (TOFFOLI_JOB_CIRCUIT, _set(13, "<3I", 0, 0, 1),
     b"CircuitError: toffoli qubits must be distinct, got 0 0 1"),
    (TOFFOLI_JOB_CIRCUIT, _set(13, "<3I", 0, 1, 7),
     b"CircuitError: qubit 7 out of range (N=3)"),
    ("inputs 3\nphase 0 2\n", _set(13, "<I", 3),
     b"CircuitError: qubit 3 out of range (N=3)"),
    ("inputs 3\nphase 0 2\n", _set(19, "<b", 5),
     b"CircuitError: phase sign must be +-1, got 5"),
    (TOFFOLI_JOB_CIRCUIT, _set(0, "<I", 2**32 - 1),
     b"WireFormatError: 4294967295 qubits above limit 65536"),
], ids=["toffoli-repeated-qubit", "toffoli-qubit-out-of-range", "phase-qubit-out-of-range",
        "phase-sign-5", "too-many-qubits"])
def test_skeleton_refused_by_allocate_wires_gets_error_envelope(text, patch, message):
    job, params = _seeded_job(text)
    assert _job_with_skeleton(job, params, patch) == (netio.KIND_ERROR, message)


CONST_JOB_CIRCUIT = "inputs 3\nconst 0\ntoff 0 1 2\n"


# with one constant: num_inputs at 0, the constant count at 4, the constant
# at 8, gate count at 12, the first record at 16 and its qubits at 17
@pytest.mark.parametrize("patch, message", [
    (_set(4, "<I", 4), b"WireFormatError: 4 constant qubits among 3"),
    (_set(8, "<I", 3),
     b"WireFormatError: constant qubits must be strictly increasing and below 3"),
    (_set(8, "<I", 2), b"CircuitError: constant qubit 2 is a toffoli target"),
    # one Toffoli record and 8 rows of 66 bytes follow; a gate takes at
    # least 50 (a phase record and two rows of 21)
    (_set(12, "<I", 11),
     b"WireFormatError: 11 gates cannot fit in the 541 bytes left (at least 50 each)"),
], ids=["too-many-constants", "constant-out-of-range", "constant-target",
        "gate-count-beyond-the-tables"])
def test_skeleton_constants_refused_get_error_envelope(patch, message):
    job, params = _seeded_job(CONST_JOB_CIRCUIT)
    kind, payload = _job_with_skeleton(job, params, patch)
    assert kind == netio.KIND_ERROR and payload.startswith(message)


def test_unsorted_constants_are_refused():
    data = struct.pack("<5I", 3, 2, 1, 1, 0)      # constants 1, 1 and no gates
    with pytest.raises(WireFormatError, match="strictly increasing"):
        deserialize_circuit(data)


def test_half_table_job_bytes_golden():
    # 4 + 4 rows for the Toffoli with a constant control
    job, params = _seeded_job(CONST_JOB_CIRCUIT)
    assert [len(t.forward) + len(t.backward) for t in job.garbled.tables] == [8]
    data = serialize_job(job, params)
    assert _pin(data) == (
        702, "c26dc1cabe6ae42df5fe3c8a8e4a9b7236593c5c879ab527e5d60b74fb7aaa00"
              "3db03b8fb3aa6c23df5c1037b98e38e24e263614388726cd9857c4598dbfe749")
    assert serialize_job(*deserialize_job(data)) == data
    kind, payload = _handle_job(job, params)
    assert kind == netio.KIND_RESULT


def test_half_table_of_full_length_is_not_serialized():
    job, params = _seeded_job(CONST_JOB_CIRCUIT)
    table = job.garbled.tables[0]
    bundle = GarbledBundle(job.garbled.skeleton,
                           (ToffoliTables(table.forward * 2, table.backward * 2),), 16, 128)
    with pytest.raises(WireFormatError, match="width"):
        serialize_bundle(bundle, params)


def test_skeleton_of_more_gates_than_the_payload_holds_is_refused_unbuilt(monkeypatch):
    # 1M phase records (8 MB) and no tables: every gate needs at least its
    # record and two phase rows, so the count is refused before any gate
    # is built
    def never(*args):
        raise AssertionError("allocate_wires called")
    monkeypatch.setattr(netio, "allocate_wires", never)
    n = 1_000_000
    w = netio.Writer()
    w.u8(netio.BUNDLE_VERSION)
    w.u16(16)
    w.u16(128)
    w.blob(b"seed")
    for value in (1, 0, n):                 # one qubit, no constants, n gates
        w.u32(value)
    w.raw(struct.pack("<BIHb", 1, 0, 0, 1) * n)
    job = netio.Writer()
    job.blob(serialize_state(encode(random_state(qubit_layout(1), random.Random(43)),
                                    gen_keys(16, allocate_wires([], 1), random.Random(44)),
                                    (0,))))
    job.blob(w.bytes())
    kind, payload = unframe(netio.handle_envelope(frame(netio.KIND_JOB, job.bytes())))
    assert kind == netio.KIND_ERROR
    assert payload.startswith(b"WireFormatError: 1000000 gates cannot fit in the 8000000 "
                              b"bytes left")


def test_job_state_of_wrong_norm_gets_error_envelope():
    # one flipped amplitude bit: the top mantissa bit of the first real part
    job, params = _seeded_job(TOFFOLI_JOB_CIRCUIT)
    state = job.encoded_state
    terms = sorted(state.terms.items())
    (bits,) = struct.unpack("<Q", struct.pack("<d", terms[0][1].real))
    (flipped,) = struct.unpack("<d", struct.pack("<Q", bits ^ (1 << 51)))
    terms[0] = (terms[0][0], complex(flipped, terms[0][1].imag))
    w = netio.Writer()
    w.blob(_state_payload(state.layout, terms))
    w.blob(serialize_bundle(job.garbled, params))
    kind, payload = unframe(netio.handle_envelope(frame(netio.KIND_JOB, w.bytes())))
    assert kind == netio.KIND_ERROR
    assert payload.startswith(b"WireFormatError: state norm^2 ")
    # the codec itself still carries any finite state
    assert deserialize_state(_state_payload(state.layout, terms)).terms == dict(terms)

@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(circuits_and_states(), st.lists(st.tuples(st.integers(0), st.integers(0, 7)),
                                       min_size=1, max_size=3))
def test_accepted_skeleton_mutants_are_canonical(case, flips):
    # every skeleton the parser accepts is the one its own circuit writes, in
    # the binary format and in the text format: no field is left unchecked
    circ, _, _ = case
    data = bytearray(serialize_circuit(without_x(circ)))
    for pos, bit in flips:
        data[pos % len(data)] ^= 1 << bit
    try:
        parsed = deserialize_circuit(bytes(data))
    except (WireFormatError, CircuitError):
        return
    assert serialize_circuit(parsed) == data
    assert parse_circuit(format_circuit(parsed)) == parsed


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(circuits_and_states())
def test_job_roundtrip_property(case):
    circ, support, seed = case
    rng = random.Random(seed)
    params = delegation.make_params(16, oracle_seed=rng.randbytes(8))
    schedule = gen_keys(16, circ, rng)
    bundle = garble_circuit(params, circ, schedule, rng)
    state = input_state(circ, support, rng)
    job = delegation.JobBundle(encode(state, schedule, circ.input_wires), bundle)
    data = serialize_job(job, params)
    parsed, parsed_params = deserialize_job(data)
    assert parsed.garbled == bundle
    assert serialize_job(parsed, parsed_params) == data


def _one_phase_job(denom_exp=2):
    circ = allocate_wires([phase(0, denom_exp)], 1)
    rng = random.Random(22)
    keys = delegation.keygen(16, 1, circ, rng, conjecture=True)
    params = delegation.make_params(16, oracle_seed=b"phase")
    return delegation.encrypt(params, keys, circ, random_state(qubit_layout(1), rng), rng), params


def test_phase_row_of_wrong_payload_width_gets_error_envelope():
    # a row holds no width of its own: a widened payload leaves a byte over
    job, params = _one_phase_job(denom_exp=2)
    bundle = serialize_bundle(job.garbled, params)
    row = job.garbled.tables[0].rows[0]
    r1, masked, _ = symcrypt.split_row(params, row)
    assert len(masked) == 1 and bundle.count(row) == 1
    widened = bundle.replace(row, r1 + masked + b"\x00" + row[len(r1) + 1:])
    w = netio.Writer()
    w.blob(serialize_state(job.encoded_state))
    w.blob(widened)
    kind, payload = unframe(netio.handle_envelope(frame(netio.KIND_JOB, w.bytes())))
    assert kind == netio.KIND_ERROR
    assert payload == b"WireFormatError: 1 trailing bytes"


def test_table_of_wrong_shape_is_not_serialized():
    job, params = _seeded_job(TOFFOLI_JOB_CIRCUIT)
    table = job.garbled.tables[0]
    for forward in (table.forward + table.forward[:1],            # 17 rows
                    (table.forward[0] + b"\x00",) + table.forward[1:]):   # one row widened
        bundle = GarbledBundle(job.garbled.skeleton,
                               (ToffoliTables(forward, table.backward),)
                               + job.garbled.tables[1:],
                               job.garbled.kappa_bits, job.garbled.tag_len_bits)
        with pytest.raises(WireFormatError, match="width"):
            serialize_bundle(bundle, params)
    phase_job, phase_params = _one_phase_job()
    rows = phase_job.garbled.tables[0].rows
    bundle = GarbledBundle(phase_job.garbled.skeleton,
                           (PhaseTable((rows[0][:-1], rows[1])),), 16, 128)
    with pytest.raises(WireFormatError, match="width"):
        serialize_bundle(bundle, phase_params)


def test_mutated_jobs_get_result_or_error_envelopes():
    payload = serialize_job(*_seeded_job(PHASE_JOB_CIRCUIT))
    rng = random.Random(23)
    kinds = []
    for _ in range(2000):
        data = bytearray(payload)
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        kind, _ = unframe(netio.handle_envelope(frame(netio.KIND_JOB, bytes(data))))
        kinds.append(kind)
    assert set(kinds) == {netio.KIND_RESULT, netio.KIND_ERROR}
    for cut in range(len(payload)):
        kind, _ = unframe(netio.handle_envelope(frame(netio.KIND_JOB, payload[:cut])))
        assert kind == netio.KIND_ERROR


_ENVELOPE_KINDS = {netio.KIND_RESULT, netio.KIND_ERROR}


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64) | st.binary(max_size=64).map(lambda tail: netio.MAGIC + tail))
def test_any_bytes_get_an_envelope(data):
    assert unframe(netio.handle_envelope(data))[0] in _ENVELOPE_KINDS


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 255), st.binary(max_size=512))
def test_any_framed_payload_gets_an_envelope(kind, payload):
    assert unframe(netio.handle_envelope(frame(kind, payload)))[0] in _ENVELOPE_KINDS


_PHASE_JOB_PAYLOAD = serialize_job(*_seeded_job(PHASE_JOB_CIRCUIT))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(_PHASE_JOB_PAYLOAD) - 1), st.integers(1, 255)),
                min_size=1, max_size=4),
       st.integers(0, len(_PHASE_JOB_PAYLOAD)), st.binary(max_size=8))
def test_mutated_job_gets_an_envelope(flips, cut, tail):
    data = bytearray(_PHASE_JOB_PAYLOAD)
    for pos, mask in flips:
        data[pos] ^= mask
    data = bytes(data[:cut]) + tail
    assert unframe(netio.handle_envelope(frame(netio.KIND_JOB, data)))[0] in _ENVELOPE_KINDS


@pytest.mark.parametrize("kappa, tag_len", [(0, 128), (12, 128), (16, 0), (16, 100)])
def test_bundle_header_of_bad_widths_gets_error_envelope(kappa, tag_len):
    job, params = _one_phase_job()
    bundle = bytearray(serialize_bundle(job.garbled, params))
    bundle[1:5] = struct.pack("<HH", kappa, tag_len)
    w = netio.Writer()
    w.blob(serialize_state(job.encoded_state))
    w.blob(bytes(bundle))
    kind, payload = unframe(netio.handle_envelope(frame(netio.KIND_JOB, w.bytes())))
    assert kind == netio.KIND_ERROR
    assert b"WireFormatError" in payload and b"multiples of 8" in payload


# ---------------------------------------------------------------------------
# server limits

def test_server_refuses_oversized_and_drops_idle_connections(monkeypatch):
    monkeypatch.setattr(netio, "MAX_PAYLOAD_BYTES", 1 << 16)
    monkeypatch.setattr(netio, "SOCKET_TIMEOUT_S", 0.2)
    _, _, params, _, job = _job_fixture(seed=24)
    server = netio.serve("127.0.0.1", 0)
    try:
        host, port = server.server_address
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(netio.MAGIC + struct.pack("<BBQ", netio.WIRE_VERSION,
                                                   netio.KIND_JOB, 1 << 40))
            kind, payload = unframe(netio._read_envelope(sock))
        assert kind == netio.KIND_ERROR and b"above limit" in payload
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(netio.MAGIC)       # then goes quiet
            assert sock.recv(1) == b""      # the server hangs up
        netio.submit(host, port, job, params)
    finally:
        server.shutdown()
        server.server_close()


def test_server_refuses_connections_beyond_the_limit(monkeypatch):
    monkeypatch.setattr(netio, "MAX_CONNECTIONS", 1)
    monkeypatch.setattr(netio, "SOCKET_TIMEOUT_S", 5.0)
    _, _, params, _, job = _job_fixture(seed=25)
    server = netio.serve("127.0.0.1", 0)
    try:
        host, port = server.server_address
        with socket.create_connection((host, port), timeout=5) as idle:
            idle.sendall(netio.MAGIC)       # holds the only slot
            for _ in range(3):
                with socket.create_connection((host, port), timeout=5) as sock:
                    kind, payload = unframe(netio._read_envelope(sock))
                    assert sock.recv(1) == b""      # and the server hangs up
                assert kind == netio.KIND_ERROR and b"server busy" in payload
        # closing the idle connection ends its handler and frees the slot
        deadline = time.monotonic() + 5
        while True:
            try:
                result, _ = netio.submit(host, port, job, params)
                break
            except (netio.RemoteEvalError, OSError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
        assert len(result.terms) == len(job.encoded_state.terms)
    finally:
        server.shutdown()
        server.server_close()
