import contextlib
import dataclasses
import hashlib
import itertools
import math
import os
import pathlib
import random
import re
import select
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rgc import delegation, evaluate, netio, sparse, symcrypt
from rgc.circuit import (DEFAULT_MAX_DENOM_EXP, CircuitError, CPCircuit, Phase, X,
                         allocate_wires, format_circuit, parse_circuit, phase, random_circuit,
                         simulate, without_x)
from rgc.encoding import KeySchedule, WireKeyPair, encode, gen_keys
from rgc.evaluate import EvalStats
from rgc.games import GameReport
from rgc.garble import GarbledBundle, Table, garble_circuit, table_shapes
from rgc.netio import (WireFormatError, deserialize_circuit, deserialize_job, deserialize_report,
                       deserialize_schedule, deserialize_state, frame,
                       serialize_bundle, serialize_circuit, serialize_job,
                       serialize_report, serialize_result, serialize_schedule,
                       serialize_state, unframe)
from rgc.sparse import ColumnarState, fidelity, qubit_layout, random_state

from conftest import (circuits_and_states, input_state, phase_only_job, sparse_of, wire_1_state,
                      wire_2_state)


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


@pytest.mark.parametrize("kappa, count, message", [
    (0, 0xFFFFFFFF, "positive multiples of 8"),     # 4G empty pairs at the parent
    (12, 1, "positive multiples of 8"),
    (16, 0xFFFFFFFF, "truncated payload"),
])
def test_schedule_reader_refuses_a_width_or_count_before_building_pairs(kappa, count, message):
    start = time.perf_counter()
    with pytest.raises(WireFormatError, match=message):
        deserialize_schedule(struct.pack("<HI", kappa, count) + bytes(4))
    assert time.perf_counter() - start < 1.0


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


def _columns(state):
    return ColumnarState.from_sparse(state)


def test_state_roundtrip_exact():
    rng = random.Random(4)
    state = random_state(qubit_layout(2, 4), rng, support_bits=[1, 6])
    # bases 0, 2, 64 and 66: register 0 holds 0 or 2, register 1 0 or 4
    columns = ColumnarState(4, [[b"\0", b"\2"], [b"\0", b"\4"]], [0b1010, 0b1100],
                            [state.terms[b] for b in (0, 2, 64, 66)])
    back = deserialize_state(serialize_state(columns))
    assert back == columns
    assert sparse_of(back).terms == state.terms       # f64 pairs roundtrip bit-exactly


def _state_record(registers, amps, width=16, terms=None):
    """A state record packed field by field and unchecked: ``registers``
    lists each register's values, as ints, and its bitset, which is written
    when the register lists two values; ``terms`` overrides the term count."""
    count = len(amps) if terms is None else terms
    nbytes = (width + 7) // 8
    parts = [struct.pack("<IHI", len(registers), width, count)]
    for values, bits in registers:
        parts.append(bytes([len(values)]) + b"".join(v.to_bytes(nbytes, "little")
                                                     for v in values))
        if len(values) == 2:
            parts.append(bits.to_bytes((count + 7) // 8, "little"))
    return b"".join(parts) + b"".join(struct.pack("<dd", amp.real, amp.imag)
                                      for amp in map(complex, amps))


def _state_payload(lay, terms):
    """A state in serialize_state's layout, its terms in the order given:
    each register's distinct values in increasing order, and its bitset's
    bit t set where term t holds the larger."""
    width = lay.registers[0][1]
    registers = []
    for i in range(len(lay.registers)):
        held = [basis >> i * width & (1 << width) - 1 for basis, _ in terms]
        values = sorted(set(held))
        registers.append((values, sum(1 << t for t, v in enumerate(held) if v == values[-1])))
    return _state_record(registers, [amp for _, amp in terms], width)


def test_state_payload_helper_matches_the_writer():
    state = random_state(qubit_layout(3), random.Random(5))
    assert (_state_payload(state.layout, sorted(state.terms.items()))
            == serialize_state(_columns(state)))


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
    state = sparse_of(job.encoded_state)
    data = _state_payload(state.layout, sorted(state.terms.items(), reverse=True))
    data += serialize_bundle(job.garbled, params)
    kind, payload = unframe(netio.handle_envelope(frame(netio.KIND_JOB, data)))
    assert kind == netio.KIND_ERROR
    assert payload == b"WireFormatError: basis strings not strictly increasing"


_AMPLITUDES = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3)


@st.composite
def _states(draw):
    """Normalized states on 1 to 4 registers of one width, each register
    holding one or two values, as the wire carries them."""
    n, width = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    held = [draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=2,
                          unique=True)) for _ in range(n)]
    combos = list(itertools.product(*held))
    picked = list(draw(st.sets(st.sampled_from(combos), min_size=1, max_size=8)))
    amps = [draw(_AMPLITUDES) for _ in picked]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    values, bits = [], []
    for i in range(n):
        used = sorted({combo[i] for combo in picked})
        values.append([v.to_bytes((width + 7) // 8, "little") for v in used])
        bits.append(sum(1 << t for t, combo in enumerate(picked) if combo[i] == used[-1])
                    if len(used) == 2 else 0)
    return ColumnarState(width, values, bits, [a / norm for a in amps]).canonical()


@settings(max_examples=150, deadline=None)
@given(_states())
def test_state_roundtrip_property(state):
    data = serialize_state(state)
    back = deserialize_state(data)
    assert back == state
    assert serialize_state(back) == data


@settings(max_examples=100, deadline=None)
@given(_states(), st.builds(EvalStats, *(st.integers(0, 1 << 40) for _ in range(6))))
def test_result_roundtrip_property(state, stats):
    data = serialize_result(state, stats)
    back, back_stats = netio.deserialize_result(data)
    assert back == state
    assert back_stats == stats
    assert serialize_result(back, back_stats) == data


def _read_bundle(data):
    """A bundle read back the one way a server reads one, as a job's tail."""
    job, params = deserialize_job(serialize_state(_columns(sparse.basis_state(qubit_layout(1), 0)))
                                  + data)
    return job.garbled, params


def test_bundle_roundtrip_many():
    rng = random.Random(5)
    for i in range(100):
        circ = random_circuit(rng, rng.randint(3, 4), rng.randint(1, 3))
        params = delegation.make_params(16, oracle_seed=bytes([i]))
        bundle = garble_circuit(params, circ, gen_keys(16, circ, rng), rng)
        data = serialize_bundle(bundle, params)
        back, back_params = _read_bundle(data)
        assert back == bundle
        assert back_params.oracles.seed == bytes([i])
        assert serialize_bundle(back, back_params) == data


def test_empty_circuit_bundle_minimal():
    rng = random.Random(6)
    circ = allocate_wires([], 1)
    params = delegation.make_params(16, oracle_seed=b"e")
    bundle = garble_circuit(params, circ, gen_keys(16, circ, rng), rng)
    data = serialize_bundle(bundle, params)
    back, _ = _read_bundle(data)
    assert back.tables == ()


def test_report_roundtrip():
    rep = GameReport(100, 0.25, 0.05, 12345, 0.6, 0.35)
    assert deserialize_report(serialize_report(rep)) == rep


def test_result_roundtrip():
    rng = random.Random(7)
    state = _columns(random_state(qubit_layout(2), rng))
    stats = EvalStats(gates=3, ver_calls=10)
    s2, st2 = netio.deserialize_result(serialize_result(state, stats))
    assert s2 == state and st2 == stats


def test_result_bytes_are_the_state_then_six_counts():
    terms = random_state(qubit_layout(2, 16), random.Random(7), support_bits=[3, 20]).terms
    # bases 0, 8, 2^20 and 2^20 + 8: register 0 holds 0 or 8, register 1 0 or 16
    state = ColumnarState(16, [[bytes(2), b"\x08\0"], [bytes(2), b"\x10\0"]], [0b1010, 0b1100],
                          [terms[b] for b in (0, 8, 1 << 20, 1 << 20 | 8)])
    data = serialize_result(state, EvalStats(1, 2, 3, 4, 5, 6))
    assert data == serialize_state(state) + struct.pack("<6Q", 1, 2, 3, 4, 5, 6)


@pytest.mark.parametrize("stats_text", ["[1,2]", '{"x": 1}', "1e999", '{"gates": "a"}'])
def test_result_reader_refuses_stats_that_are_not_counts(stats_text):
    # wire version 1 sent the stats as a JSON blob where six u64s now belong
    stats = stats_text.encode()
    data = (serialize_state(_columns(random_state(qubit_layout(2), random.Random(7))))
            + struct.pack("<I", len(stats)) + stats)
    with pytest.raises(WireFormatError, match="truncated payload"):
        netio.deserialize_result(data)


@pytest.mark.parametrize("cut, tail", [(1, b""), (8, b""), (48, b""), (0, b"\x00"),
                                       (0, bytes(8))],
                         ids=["one-byte-short", "one-count-short", "no-counts",
                              "one-byte-over", "seven-counts"])
def test_result_reader_refuses_counts_of_wrong_length(cut, tail):
    data = serialize_result(_columns(random_state(qubit_layout(2), random.Random(7))),
                            EvalStats())
    with pytest.raises(WireFormatError):
        netio.deserialize_result(data[:len(data) - cut] + tail)


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
    state = _columns(random_state(qubit_layout(3), rng))
    data = serialize_state(state)
    with pytest.raises(WireFormatError):
        deserialize_state(data[:-4])
    with pytest.raises(WireFormatError):
        deserialize_state(data + b"\x00")


def test_socket_and_file_transports_agree():
    circ, keys, params, state, job = _job_fixture(seed=10)
    local_state, local_stats = evaluate.eval_bundle(params, job.encoded_state, job.garbled)

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


def test_submit_file_removes_an_answer_left_under_its_job_id(tmp_path):
    # the CLI draws a fresh id per job, but an id a caller reuses must not
    # pick up the earlier job's answer
    _, _, params, _, job = _job_fixture(seed=10)
    stale = tmp_path / "outbox" / "j1.rgc"
    stale.parent.mkdir()
    stale.write_bytes(b"an earlier job's answer")
    netio.submit_file(str(tmp_path), "j1", job, params)
    assert not stale.exists()


def test_collect_result_refuses_an_envelope_that_is_not_a_result(tmp_path):
    circ, keys, params, state, job = _job_fixture(seed=10)
    (tmp_path / "outbox").mkdir()
    (tmp_path / "outbox" / "j1.rgc").write_bytes(
        frame(netio.KIND_JOB, serialize_job(job, params)))
    with pytest.raises(WireFormatError, match="^unexpected envelope kind 1$"):
        netio.collect_result(str(tmp_path), "j1", timeout=0)
    assert os.listdir(tmp_path / "outbox") == []        # consumed, though refused


def test_collect_result_times_out_when_no_answer_arrives(tmp_path):
    start = time.monotonic()
    with pytest.raises(TimeoutError, match="^no result for job j1$"):
        netio.collect_result(str(tmp_path), "j1", timeout=0.3)
    assert 0.3 <= time.monotonic() - start < 1.0


def test_directory_transport_refuses_an_oversized_job_unread(tmp_path, monkeypatch):
    monkeypatch.setattr(netio, "MAX_PAYLOAD_BYTES", 200)
    _, _, params, _, job = _job_fixture(seed=10)
    path = netio.submit_file(str(tmp_path), "j1", job, params)
    assert os.path.getsize(path) > 18 + 200
    assert netio.serve_files_once(str(tmp_path)) == 1
    assert not os.path.exists(path)         # consumed
    with pytest.raises(netio.RemoteEvalError,
                       match="^WireFormatError: declared payload of .* above limit 200$"):
        netio.collect_result(str(tmp_path), "j1", timeout=0)


def test_collect_result_refuses_an_oversized_result_unread(tmp_path, monkeypatch):
    _, _, params, _, job = _job_fixture(seed=10)
    result = serialize_result(*evaluate.eval_bundle(params, job.encoded_state, job.garbled))
    answer = tmp_path / "outbox" / "j1.rgc"
    answer.parent.mkdir()
    answer.write_bytes(frame(netio.KIND_RESULT, result))
    monkeypatch.setattr(netio, "MAX_PAYLOAD_BYTES", len(result))
    netio.collect_result(str(tmp_path), "j1", timeout=0)
    answer.write_bytes(frame(netio.KIND_RESULT, result))     # the first call consumed it
    monkeypatch.setattr(netio, "MAX_PAYLOAD_BYTES", len(result) - 1)
    with pytest.raises(WireFormatError, match="above limit"):
        netio.collect_result(str(tmp_path), "j1", timeout=0)
    assert not answer.exists()                                # consumed unread


def _within(seconds, call, fifo=None):
    """``call()``'s result, or None when it has not returned in ``seconds``;
    a reader left blocked on ``fifo`` is then released by opening it for
    writing."""
    done = []
    worker = threading.Thread(target=lambda: done.append(call()), daemon=True)
    worker.start()
    worker.join(seconds)
    if worker.is_alive() and fifo is not None:
        with contextlib.suppress(OSError):
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    return done[0] if done else None


@pytest.mark.parametrize("plant", ["directory", "fifo"])
def test_directory_server_passes_over_an_inbox_entry_that_is_not_a_file(tmp_path, plant):
    # anyone who can submit can put these in the inbox: a directory made the
    # server raise, and a FIFO blocked its open, with the job beside unanswered
    _, _, params, _, job = _job_fixture(seed=10)
    netio.submit_file(str(tmp_path), "j1", job, params)
    odd = tmp_path / "inbox" / "a.rgc"
    odd.mkdir() if plant == "directory" else os.mkfifo(odd)
    assert _within(1.0, lambda: netio.serve_files_once(str(tmp_path)), odd) == 1
    out, stats = netio.collect_result(str(tmp_path), "j1", timeout=0)
    assert (serialize_result(out, stats)
            == serialize_result(*evaluate.eval_bundle(params, job.encoded_state, job.garbled)))
    assert odd.exists()         # passed over unread


@pytest.mark.parametrize("plant", ["directory", "fifo"])
def test_payload_reader_refuses_what_is_not_a_regular_file(tmp_path, plant):
    # rgc eval and collect_result read through it: a FIFO is refused, not
    # waited on
    odd = tmp_path / "j1.rgc"
    odd.mkdir() if plant == "directory" else os.mkfifo(odd)

    def read():
        try:
            netio.read_payload_files(str(odd))
        except Exception as exc:
            return exc
    refused = _within(1.0, read, odd)
    assert isinstance(refused, WireFormatError)
    assert str(refused) == "j1.rgc is not a regular file"


def test_directory_server_never_writes_through_a_planted_link(tmp_path):
    # every client may write the outbox, since it removes its answers: a
    # link at the temporary name the server once wrote through made it
    # overwrite the link's target
    _, _, params, _, job = _job_fixture(seed=10)
    root = tmp_path / "exchange"
    netio.submit_file(str(root), "j1", job, params)
    target = tmp_path / "elsewhere"
    target.write_bytes(b"not the server's")
    (root / "outbox").mkdir()
    (root / "outbox" / "j1.rgc.tmp").symlink_to(target)
    assert netio.serve_files_once(str(root)) == 1
    assert target.read_bytes() == b"not the server's"
    out, stats = netio.collect_result(str(root), "j1", timeout=0)
    assert (serialize_result(out, stats)
            == serialize_result(*evaluate.eval_bundle(params, job.encoded_state, job.garbled)))


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
            resp = netio._read_envelope(sock, time.monotonic() + 5)
        kind, _ = unframe(resp)
        assert kind == netio.KIND_ERROR
    finally:
        server.shutdown()
        server.server_close()


def test_a_declared_length_costs_memory_only_as_its_bytes_arrive():
    # a peer that declared the largest payload and sent 1,016 bytes in all
    # made the reader allocate and zero the whole 64 MiB at once
    header = netio._ENVELOPE_HEADER.pack(netio.MAGIC, netio.WIRE_VERSION, netio.KIND_JOB,
                                         netio.MAX_PAYLOAD_BYTES)
    sender, receiver = socket.socketpair()
    with sender, receiver:
        sender.sendall(header + bytes(1016 - len(header)))
        sender.shutdown(socket.SHUT_WR)
        tracemalloc.start()
        try:
            with pytest.raises(WireFormatError, match="^connection closed early$"):
                netio._read_envelope(receiver, time.monotonic() + 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4 << 20


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
    params = delegation.make_params(64, oracle_seed=b"sentinel")
    state = random_state(qubit_layout(3), rng)
    job = delegation.encrypt(params, schedule, circ, state, rng)

    encoded_blob = serialize_state(job.encoded_state)
    rest = serialize_bundle(job.garbled, params)
    for sentinel in sentinels:
        assert sentinel not in rest, "schedule key visible outside the encoded state"
    input_keys = {schedule.pairs[w][b] for w in circ.input_wires for b in (0, 1)}
    assert any(k in encoded_blob for k in input_keys)


def _handle_job(job, params):
    return unframe(netio.handle_envelope(frame(netio.KIND_JOB, serialize_job(job, params))))


def test_the_server_never_derives_a_wiring(monkeypatch):
    # wire numbers and X parities are the client's bookkeeping: the server
    # parses and evaluates a job from its skeleton's qubits alone
    mx = delegation.synth_modexp_toffoli(21, 2)
    assert any(isinstance(g, X) for g in mx.circuit.gates)
    rng = random.Random(59)
    keys = delegation.keygen(16, mx.n_exp, mx.circuit, rng)
    params = delegation.make_params(keys.kappa_bits, oracle_seed=b"wiring")
    state = delegation.modexp_input_state(mx)
    job = delegation.encrypt(params, keys, mx.circuit, state, rng)

    def refuse(circ):
        raise AssertionError("the server derived a wiring")
    monkeypatch.setattr(CPCircuit, "wiring", property(refuse))
    kind, payload = _handle_job(job, params)
    assert kind == netio.KIND_RESULT
    monkeypatch.undo()
    out, _ = netio.deserialize_result(payload)
    decoded = delegation.decrypt(keys, mx.circuit, out)
    assert fidelity(decoded, simulate(mx.circuit, state)) >= 1 - 1e-12


def test_phase_exponent_above_bound_gets_error_envelope():
    # a correctly framed job; only the exponent exceeds what allocate_wires
    # allows, so the circuit is built around it
    d = DEFAULT_MAX_DENOM_EXP + 1984
    circ = CPCircuit(1, (Phase(0, d),))
    rng = random.Random(13)
    keys = delegation.keygen(16, 1, circ, rng, conjecture=True)
    params = delegation.make_params(16, oracle_seed=b"exp")
    job = delegation.encrypt(params, keys, circ, random_state(qubit_layout(1), rng), rng)
    kind, payload = _handle_job(job, params)
    assert kind == netio.KIND_ERROR
    assert payload == f"CircuitError: phase exponent {d} not in 0..16".encode()


# registers of one width each: the wire carries no other layout
@pytest.mark.parametrize("widths", [(16, 16), (16, 16, 16, 16), (24, 24, 24), (24, 24)])
def test_state_of_wrong_register_layout_gets_error_envelope(widths):
    circ, keys, params, state, job = _job_fixture(seed=15)
    basis = ColumnarState(widths[0], [[bytes(widths[0] // 8)]] * len(widths), [0] * len(widths),
                          [1 + 0j])
    job = delegation.JobBundle(basis, job.garbled)
    kind, payload = _handle_job(job, params)
    assert kind == netio.KIND_ERROR
    assert b"EvalError" in payload and b"registers of 16 bits" in payload


def test_register_holding_three_keys_gets_error_envelope():
    # a wire has two keys, and a register record lists at most two: a third
    # key in one register is refused before any table is read
    circ, keys, params, state, job = _job_fixture(seed=24)
    assert len(job.encoded_state.values[0]) == 2
    data = bytearray(serialize_job(job, params))
    data[10] = 3        # register 0's value count, behind the 10-byte state header
    kind, payload = unframe(netio.handle_envelope(frame(netio.KIND_JOB, bytes(data))))
    assert kind == netio.KIND_ERROR
    assert payload == b"WireFormatError: register 0 holds 3 values, not 1 or 2"
    # built in process, the evaluator refuses it too
    three = dataclasses.replace(job.encoded_state, values=[
        job.encoded_state.values[0] + [bytes(2)]] + job.encoded_state.values[1:])
    with pytest.raises(evaluate.EvalError, match="^register 0 holds 3 distinct keys; "
                                                 "a wire has two$"):
        evaluate.eval_bundle(params, three, job.garbled)


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


def _seeded_job(text, seed=17, **widths):
    circ = parse_circuit(text)
    rng = random.Random(seed)
    keys = delegation.keygen(16, circ.num_inputs, circ, rng, conjecture=True)
    params = delegation.make_params(16, oracle_seed=rng.randbytes(8), **widths)
    free = [q for q in range(circ.num_inputs) if q not in circ.const_qubits]
    state = input_state(circ, free, rng)
    return delegation.encrypt(params, keys, circ, state, rng), params


def _wire_1_job(job, bundle):
    """The job as wire version 1 framed it: its state and the given bundle
    bytes, each behind its u32 length."""
    state = wire_1_state(sparse_of(job.encoded_state))
    return struct.pack("<I", len(state)) + state + struct.pack("<I", len(bundle)) + bundle


def _pin(data):
    return len(data), hashlib.blake2b(data).hexdigest()


def _wire_2_job(job, params):
    """The job as wire version 2 sent it: its per-term state, then the bundle."""
    return wire_2_state(sparse_of(job.encoded_state)) + serialize_bundle(job.garbled, params)


@pytest.mark.parametrize("text, widths, wire_2, wire_3", [
    (PHASE_JOB_CIRCUIT, {"tag_len_bits": 128},
     (1221, "d17984eecfada755376e8bc778097924009c1801bbff63d083c327cebe7dbf0d"
            "b0482f78a4f0beeabfcd97a6e339588efeb43af09162f2791d8833a98251208d"),
     (1191, "0f5279306a00faac38269d8572d3c964bd128ae58204d2d16de983e8144ea85a"
            "c4fe776ed307e470a8813351d1999e53c9ed4f18c78dab434d86ec56305a1162")),
    (TOFFOLI_JOB_CIRCUIT, {"tag_len_bits": 128},
     (1130, "30bb0a01cbdb1bede04876601af3fb6b7ea46bdceb7d67b3d20487c8c0368cb5"
            "3f68df36a4b5e07b4c007d3adc2d1cde4501d874242c5ed0b0c119b7eeb6ac67"),
     (1100, "73f7e36df9bb7f927f28e624412132ed76893a4e29bebd3fc653c31fcc0c205c"
            "3d4dee5a393b54b4c4abcda69c618dd0c66595d5e2a67f0bb33e3e8168e40917")),
    (PHASE_JOB_CIRCUIT, {},
     (633, "84058350c89ab4cb29077d64d63f699dac0106fca4763fe5d7a72d5bfec85d9f"
           "263424db56b85f17c22fdc6a62061abbe97bddeaed7c2e69cfcac4ef646e5bdf"),
     (603, "08fafe5e9637aac28aed985042a994e378fa3446da226e69fb296831b3743c22"
           "8c57bbe46d1f0664390c6872aa74d1f09e37b157008288f4cdba96846c2e3c04")),
    (TOFFOLI_JOB_CIRCUIT, {},
     (626, "1e3012c4b6b5445ecc0ee19652610befcdbcbb8e8e10cbf503e3f2673d809707"
           "9f8be7ae153edac8ee8bda7ae0109e429362e854a3ea71aa264f4020de4e08dd"),
     (596, "20586e102da6383a91f6a89a3c813ab03b02ee35eeb1310b503fd5099d3811f5"
           "9d78a1a1c188de0ebe6e9cce80acb3431ffaa5e12067ec978396ebf7a68d9829")),
], ids=["phase-job", "toffoli-job", "phase-job-default-tags", "toffoli-job-default-tags"])
def test_job_bytes_golden(text, widths, wire_2, wire_3):
    # length and BLAKE2b of serialize_job, bundle format 6: wire version 3,
    # and the same job's per-term state and bundle as wire version 2 sent
    # them.  Pinned with keys, nonces and permute bits from the key stream;
    # the lengths are those of the Mersenne Twister draws before it.
    job, params = _seeded_job(text, **widths)
    data = serialize_job(job, params)
    assert _pin(_wire_2_job(job, params)) == wire_2
    assert _pin(data) == wire_3
    assert serialize_job(*deserialize_job(data)) == data


def _old_format_reply(version):
    # a wire version 3 job whose bundle declares an earlier format; the
    # reader refuses at the version byte, before any table
    job, params = _seeded_job(TOFFOLI_JOB_CIRCUIT)
    bundle = bytes([version]) + serialize_bundle(job.garbled, params)[1:]
    data = serialize_state(job.encoded_state) + bundle
    return unframe(netio.handle_envelope(frame(netio.KIND_JOB, data)))


def test_format_1_bundle_gets_error_envelope():
    assert _old_format_reply(1) == (netio.KIND_ERROR,
                                    b"WireFormatError: unsupported bundle version 1")


def test_format_2_bundle_gets_error_envelope():
    assert _old_format_reply(2) == (netio.KIND_ERROR,
                                    b"WireFormatError: unsupported bundle version 2")


def test_format_3_bundle_gets_error_envelope():
    assert _old_format_reply(3) == (netio.KIND_ERROR,
                                    b"WireFormatError: unsupported bundle version 3")


def test_format_4_bundle_gets_error_envelope():
    # format 4 sent a tag behind every key of every row and no header
    assert _old_format_reply(4) == (netio.KIND_ERROR,
                                    b"WireFormatError: unsupported bundle version 4")


def test_format_5_bundle_gets_error_envelope():
    # format 5 sent a pad per header slot and per key of every row, and no
    # nonce
    assert _old_format_reply(5) == (netio.KIND_ERROR,
                                    b"WireFormatError: unsupported bundle version 5")


def test_wire_version_2_envelope_gets_error_envelope():
    # version 2 sent a state's every basis string; its reader is gone, so
    # the envelope is refused at its version byte
    job, params = _seeded_job(TOFFOLI_JOB_CIRCUIT)
    envelope = bytearray(frame(netio.KIND_JOB, _wire_2_job(job, params)))
    envelope[4] = 2
    assert unframe(netio.handle_envelope(bytes(envelope))) == (
        netio.KIND_ERROR, b"WireFormatError: unsupported wire version 2")


def test_wire_version_1_envelope_gets_error_envelope():
    job, params = _seeded_job(TOFFOLI_JOB_CIRCUIT)
    envelope = bytearray(frame(netio.KIND_JOB,
                               _wire_1_job(job, serialize_bundle(job.garbled, params))))
    envelope[4] = 1
    assert unframe(netio.handle_envelope(bytes(envelope))) == (
        netio.KIND_ERROR, b"WireFormatError: unsupported wire version 1")


# ---------------------------------------------------------------------------
# the qubit-only skeleton at the trust boundary

def _job_with_skeleton(job, params, patch):
    """The job's payload with ``patch(skeleton_bytes)`` in place of its
    skeleton; the tables that follow are left as they are."""
    bundle = serialize_bundle(job.garbled, params)
    start = 9 + len(params.oracles.seed)        # version, widths, seed blob
    end = start + len(serialize_circuit(job.garbled.skeleton))
    data = serialize_state(job.encoded_state) + bundle[:start] + patch(bundle[start:end])
    return unframe(netio.handle_envelope(frame(netio.KIND_JOB, data + bundle[end:])))


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
    assert payload == serialize_result(*evaluate.eval_bundle(params, job.encoded_state,
                                                             job.garbled))


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
    (_set(8, "<I", 3), b"CircuitError: constant qubits (3,) out of range (N=3)"),
    (_set(8, "<I", 2), b"CircuitError: constant qubit 2 is a toffoli target"),
    # one Toffoli record and two tables of a 2-byte nonce, two 4-byte slots,
    # one 2-byte slot and four 6-byte rows follow; a gate takes at least 16
    # (a phase record, a nonce, a 4-byte slot and two rows of 1)
    (_set(12, "<I", 11),
     b"WireFormatError: 11 gates cannot fit in the 85 bytes left (at least 16 each)"),
], ids=["too-many-constants", "constant-out-of-range", "constant-target",
        "gate-count-beyond-the-tables"])
def test_skeleton_constants_refused_get_error_envelope(patch, message):
    job, params = _seeded_job(CONST_JOB_CIRCUIT)
    kind, payload = _job_with_skeleton(job, params, patch)
    assert kind == netio.KIND_ERROR and payload.startswith(message)


def test_unsorted_constants_are_refused():
    data = struct.pack("<5I", 3, 2, 1, 1, 0)      # constants 1, 1 and no gates
    with pytest.raises(CircuitError, match=r"strictly increasing, got \(1, 1\)"):
        deserialize_circuit(data)


def test_half_table_job_bytes_golden():
    # 4 + 4 rows for the Toffoli with a constant control, whose slot in
    # both headers holds one digest; pinned at 128-bit digests and at the
    # default 16-bit ones, with the key stream
    for widths, slots, wire_2, wire_3 in (
            ({"tag_len_bits": 128}, [16, 32, 32],
             (356, "7c252928f98f443bd7262638a414567079ba17d94ed2ba40f0682089050fc0a7"
                   "5e0d8eee8d7fcb2650254a8dc7b21668017553d7472bd3c4f2e4e6d75759b0c9"),
             (347, "479a76bb87407558fc7476ab068e0cdcb43ad3f2d5c22014854840177181bb2d"
                   "2364bc46e1d85c021b0139ab6e5767908f59818ed01fc7fd7d4388b4c79f8edf")),
            ({}, [2, 4, 4],
             (216, "c09645a6b0f934bcaeb487a7e7f40d6e9aca35c1535f3d75609b9f00946d3237"
                   "50c393c128f2c4c34b6687dc0cd5cb0762a567a68ff04cea9b820903b99883ec"),
             (207, "dcb7c147b74ffb43a6a674276d02525747785aff66f64b28fc09d1a8635e404b"
                   "83f23207a54f13d860dc180ae5886daa00a808324f590abc7499b7b6cd4aacba"))):
        job, params = _seeded_job(CONST_JOB_CIRCUIT, **widths)
        (table,) = job.garbled.tables
        assert [len(t.rows) for t in (table[0], table[1])] == [4, 4]
        assert [len(slot) for slot in table[0].header + table[1].header] == slots * 2
        data = serialize_job(job, params)
        assert _pin(_wire_2_job(job, params)) == wire_2
        assert _pin(data) == wire_3
        assert serialize_job(*deserialize_job(data)) == data
        kind, payload = _handle_job(job, params)
        assert kind == netio.KIND_RESULT


def test_half_table_of_full_length_is_not_serialized():
    job, params = _seeded_job(CONST_JOB_CIRCUIT)
    table = job.garbled.tables[0]
    full = tuple(Table(t.nonce, t.header, t.rows * 2) for t in table)
    bundle = GarbledBundle(job.garbled.skeleton, (full,))
    with pytest.raises(WireFormatError, match="width"):
        serialize_bundle(bundle, params)


SERVE_PATH_PROBE = """
import sys
sys.modules["numpy"] = None         # any import of numpy now fails
import rgc.cli
from rgc import netio
reply = netio.handle_envelope(sys.stdin.buffer.read())
assert "rgc.games" not in sys.modules, "the serve path loaded rgc.games"
sys.stdout.buffer.write(reply)
"""


def test_the_serve_path_loads_neither_numpy_nor_the_games():
    # Toffolis, phase gates and a constant control, evaluated in a fresh
    # interpreter where numpy cannot be imported
    job, params = _seeded_job("inputs 4\nconst 0\ntoff 0 1 2\nphase 2 1\n"
                              "toff 1 2 3\nphase 3 2 neg\n")
    envelope = frame(netio.KIND_JOB, serialize_job(job, params))
    src = pathlib.Path(netio.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-c", SERVE_PATH_PROBE], input=envelope,
                         capture_output=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert run.returncode == 0, run.stderr.decode()
    assert unframe(run.stdout)[0] == netio.KIND_RESULT
    assert run.stdout == netio.handle_envelope(envelope)


def test_skeleton_of_more_gates_than_the_payload_holds_is_refused_unbuilt(monkeypatch):
    # 1M phase records (8 MB) and no tables: every gate needs at least its
    # record and two phase rows, so the count is refused before any gate
    # is built
    def never(*args):
        raise AssertionError("allocate_wires called")
    monkeypatch.setattr(netio, "allocate_wires", never)
    n = 1_000_000
    # kappa 16, tag length 128, a 4-byte seed; one qubit, no constants, n gates
    bundle = (struct.pack("<BHHI4sIII", netio.BUNDLE_VERSION, 16, 128, 4, b"seed", 1, 0, n)
              + struct.pack("<BIHb", 1, 0, 0, 1) * n)
    data = serialize_state(encode(random_state(qubit_layout(1), random.Random(43)),
                                  gen_keys(16, allocate_wires([], 1), random.Random(44)),
                                  (0,))) + bundle
    kind, payload = unframe(netio.handle_envelope(frame(netio.KIND_JOB, data)))
    assert kind == netio.KIND_ERROR
    assert payload.startswith(b"WireFormatError: 1000000 gates cannot fit in the 8000000 "
                              b"bytes left")


@pytest.mark.parametrize("tag_len_bits", [16, 128])
def test_min_gate_bytes_is_the_smaller_gate_the_writer_emits(tag_len_bits):
    # a gate's record and tables are its bundle's bytes beyond those of the
    # same skeleton without the gate: a phase gate of exponent 0, and a
    # Toffoli whose two controls are constant
    params = delegation.make_params(16, tag_len_bits=tag_len_bits, oracle_seed=b"min")
    rng = random.Random(45)
    sizes = []
    for text in ("inputs 1\nphase 0 0\n", "inputs 3\nconst 0\nconst 1\ntoff 0 1 2\n"):
        circ = parse_circuit(text)
        bundle = garble_circuit(params, circ, gen_keys(16, circ, rng), rng)
        empty = GarbledBundle(allocate_wires([], circ.num_inputs, circ.const_qubits), ())
        sizes.append(len(serialize_bundle(bundle, params)) - len(serialize_bundle(empty, params)))
    assert min(sizes) == netio._TableLayout(params).min_gate_bytes()


def test_job_state_of_wrong_norm_gets_error_envelope():
    # one flipped amplitude bit: the top mantissa bit of the first real part
    job, params = _seeded_job(TOFFOLI_JOB_CIRCUIT)
    state = sparse_of(job.encoded_state)
    terms = sorted(state.terms.items())
    (bits,) = struct.unpack("<Q", struct.pack("<d", terms[0][1].real))
    (flipped,) = struct.unpack("<d", struct.pack("<Q", bits ^ (1 << 51)))
    terms[0] = (terms[0][0], complex(flipped, terms[0][1].imag))
    data = _state_payload(state.layout, terms)
    kind, payload = unframe(netio.handle_envelope(
        frame(netio.KIND_JOB, data + serialize_bundle(job.garbled, params))))
    assert kind == netio.KIND_ERROR
    assert payload.startswith(b"WireFormatError: state norm^2 ")
    # the state reader checks the norm, so results and state files get it too
    with pytest.raises(WireFormatError, match="^state norm"):
        deserialize_state(data)
    with pytest.raises(WireFormatError, match="^state norm"):
        netio.deserialize_result(data + bytes(48))


# state headers (registers u32, width u16, terms u32) the reader refuses
# before it reads a register or builds a state
@pytest.mark.parametrize("header, message", [
    ((2**32 - 1, 16, 1), b"WireFormatError: 4294967295 registers above limit 65536"),
    ((3, 0, 1), b"WireFormatError: registers of width 0"),
    ((3, 16, 2**32 - 1), b"WireFormatError: 4294967295 terms cannot fit in the "),
], ids=["registers", "width-0", "terms"])
def test_state_header_out_of_bounds_gets_error_envelope_unbuilt(header, message, monkeypatch):
    def never(*args):
        raise AssertionError("ColumnarState called")
    job, params = _seeded_job(TOFFOLI_JOB_CIRCUIT)
    state = serialize_state(job.encoded_state)
    data = struct.pack("<IHI", *header) + state[10:] + serialize_bundle(job.garbled, params)
    monkeypatch.setattr(netio, "ColumnarState", never)
    kind, payload = unframe(netio.handle_envelope(frame(netio.KIND_JOB, data)))
    assert kind == netio.KIND_ERROR and payload.startswith(message)


_HALF = 0.5 ** 0.5


# register records, term counts and amplitudes the reader refuses before it
# builds a state
@pytest.mark.parametrize("record, message", [
    (_state_record([([], 0)], [1]), "register 0 holds 0 values, not 1 or 2"),
    (_state_record([([1, 2, 3], 0)], [1]), "register 0 holds 3 values, not 1 or 2"),
    (_state_record([([5], 0), ([7, 7], 0b01)], [_HALF, _HALF]),
     "register 1: values not increasing"),
    (_state_record([([6, 5], 0b01)], [_HALF, _HALF]), "register 0: values not increasing"),
    (_state_record([([0x1000], 0)], [1], width=12),
     "register 0 holds a value wider than 12 bits"),
    (_state_record([([1, 0x1000], 0b10)], [_HALF, _HALF], width=12),
     "register 0 holds a value wider than 12 bits"),
    (_state_record([([1, 2], 0b00)], [_HALF, _HALF]),
     "register 0: bitset picks one of its two values"),
    (_state_record([([1, 2], 0b11)], [_HALF, _HALF]),
     "register 0: bitset picks one of its two values"),
    (_state_record([([1, 2], 0b110)], [_HALF, _HALF]),
     "register 0: bitset has bits at or beyond term 2"),
    (_state_record([([1, 2], 0b01), ([5], 0)], [_HALF, _HALF]),
     "basis strings not strictly increasing"),
    (_state_record([([1, 2], 0b10), ([5, 6], 0b01)], [_HALF, _HALF]),
     "basis strings not strictly increasing"),
    (_state_record([([1], 0), ([5], 0)], [_HALF, _HALF]),
     "basis strings not strictly increasing"),
    (_state_record([([1], 0)], [1], terms=1 << 20), "1048576 terms cannot fit in the "),
    (_state_record([([1, 2], 0b10)], [_HALF, complex(_HALF, math.nan)]),
     "amplitude not finite"),
    (_state_record([([1, 2], 0b10)], [_HALF, math.inf]), "amplitude not finite"),
    (_state_record([([1, 2], 0b10)], [0.6, 0.6]), "state norm^2 0.72 differs from 1"),
], ids=["count-0", "count-3", "values-equal", "values-decreasing", "value-too-wide",
        "second-value-too-wide", "bitset-zero", "bitset-full", "bitset-beyond-terms",
        "terms-out-of-order", "terms-out-of-order-in-a-low-register", "terms-repeated",
        "term-count-beyond-the-bytes", "amplitude-nan", "amplitude-inf", "norm"])
def test_state_record_refused_gets_error_envelope_unbuilt(record, message, monkeypatch):
    def never(*args):
        raise AssertionError("ColumnarState called")
    job, params = _one_phase_job()
    data = record + serialize_bundle(job.garbled, params)
    monkeypatch.setattr(netio, "ColumnarState", never)
    kind, payload = unframe(netio.handle_envelope(frame(netio.KIND_JOB, data)))
    assert kind == netio.KIND_ERROR
    assert payload.startswith(b"WireFormatError: " + message.encode()), payload
    with pytest.raises(WireFormatError, match=f"^{re.escape(message)}"):
        deserialize_job(data)


_STATE_JOB = _seeded_job(PHASE_JOB_CIRCUIT)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0), st.integers(1, 255)), min_size=1, max_size=3))
def test_mutated_state_record_gets_an_envelope(flips):
    # byte flips inside the job's state record only: each reply is a result
    # or an error envelope, and a result decodes to a state of the job's
    # shape
    job, params = _STATE_JOB
    state = bytearray(serialize_state(job.encoded_state))
    for pos, mask in flips:
        state[pos % len(state)] ^= mask
    data = bytes(state) + serialize_bundle(job.garbled, params)
    kind, payload = unframe(netio.handle_envelope(frame(netio.KIND_JOB, data)))
    assert kind in _ENVELOPE_KINDS
    if kind == netio.KIND_RESULT:
        out, _ = netio.deserialize_result(payload)
        assert len(out.values) == len(job.encoded_state.values)


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


def _assert_tables_have_their_shapes(bundle, params):
    """Every table of a parsed bundle has its gate's ``table_shapes``
    layout: the slot count, each slot's digest bytes, and as many rows as
    the product of the slots' digest counts.  The evaluator checks no shape
    of its own, so the reader must never build another."""
    t = params.digest_bytes
    for gate, tables in zip(bundle.skeleton.gates, bundle.tables, strict=True):
        shapes = table_shapes(gate, bundle.skeleton.const_qubits, params.kappa_bytes)
        assert len(tables) == len(shapes)
        for table, (slots, row) in zip(tables, shapes):
            assert [len(digests) for digests in table.header] == [n * t for n in slots]
            assert len(table.rows) == math.prod([len(digests) // t for digests in table.header])
            assert {len(r) for r in table.rows} == {row}


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
    _assert_tables_have_their_shapes(parsed.garbled, parsed_params)


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
    rows = job.garbled.tables[0][0].rows
    assert [len(row) for row in rows] == [1, 1] and bundle.endswith(b"".join(rows))
    widened = bundle[:-1] + b"\x00" + bundle[-1:]
    data = serialize_state(job.encoded_state) + widened
    kind, payload = unframe(netio.handle_envelope(frame(netio.KIND_JOB, data)))
    assert kind == netio.KIND_ERROR
    assert payload == b"WireFormatError: 1 trailing bytes"


def test_table_of_wrong_shape_is_not_serialized():
    job, params = _seeded_job(TOFFOLI_JOB_CIRCUIT)
    table = job.garbled.tables[0]
    nonce, header, rows = table[0].nonce, table[0].header, table[0].rows
    for forward in (Table(nonce, header, rows + rows[:1]),                  # 9 rows
                    Table(nonce, header, (rows[0] + b"\x00",) + rows[1:]),  # one row widened
                    Table(nonce, header[:2], rows),                         # two slots
                    Table(nonce, header[:2] + (header[2][:-16],), rows),    # one digest
                    Table(nonce + b"\x00", header, rows),                   # nonce widened
                    Table(nonce[:1], header, rows)):                        # nonce cut
        bundle = GarbledBundle(job.garbled.skeleton,
                               ((forward, table[1]),) + job.garbled.tables[1:])
        with pytest.raises(WireFormatError, match="width"):
            serialize_bundle(bundle, params)
    phase_job, phase_params = _one_phase_job()
    (phase_table,) = phase_job.garbled.tables[0]
    nonce, rows = phase_table.nonce, phase_table.rows
    for table in (Table(nonce, phase_table.header, (rows[0][:-1], rows[1])),
                  Table(nonce, (phase_table.header[0] + bytes(16),), rows),
                  Table(nonce[:1], phase_table.header, rows)):
        bundle = GarbledBundle(phase_job.garbled.skeleton, ((table,),))
        with pytest.raises(WireFormatError, match="width"):
            serialize_bundle(bundle, phase_params)


def _reply_with_first_slot(patch):
    """The reply to a basis-state Toffoli job whose first header slot is
    ``patch(held, other)``: the digest the key held in register 0 matches,
    and the slot's other digest."""
    circ = parse_circuit(TOFFOLI_JOB_CIRCUIT)
    rng = random.Random(27)
    keys = delegation.keygen(16, 3, circ, rng, conjecture=True)
    params = delegation.make_params(16, oracle_seed=b"slots")
    job = delegation.encrypt(params, keys, circ, sparse.basis_state(qubit_layout(3), 0), rng)
    table = job.garbled.tables[0]
    nonce, slot, t = table[0].nonce, table[0].header[0], params.digest_bytes
    (pos,) = symcrypt.slot_positions(params, keys.pairs[circ.input_wires[0]].k0,
                                     nonce, 0, slot)
    held, other = slot[pos * t:(pos + 1) * t], slot[(1 - pos) * t:(2 - pos) * t]
    forward = Table(nonce, (patch(held, other),) + table[0].header[1:], table[0].rows)
    bundle = GarbledBundle(job.garbled.skeleton, ((forward, table[1]),)
                           + job.garbled.tables[1:])
    return _handle_job(delegation.JobBundle(job.encoded_state, bundle), params)


def test_header_slot_of_a_duplicated_digest_gets_an_error_envelope():
    assert _reply_with_first_slot(lambda held, other: held + held) == (
        netio.KIND_ERROR,
        b"AmbiguousRowError: gate 0: digests 0 and 1 of header slot 0 both match its key")


def test_key_matching_no_digest_gets_an_error_envelope():
    assert _reply_with_first_slot(lambda held, other: other + other) == (
        netio.KIND_ERROR, b"NoRowMatchError: gate 0: no digest of header slot 0 matches its key")


def _reply_with_bundle(job, params, patch):
    """The reply to the job whose bundle bytes are ``patch(bundle, at)``,
    where ``at`` is the offset of its first table's nonce."""
    bundle = serialize_bundle(job.garbled, params)
    at = 9 + len(params.oracles.seed) + len(serialize_circuit(job.garbled.skeleton))
    data = serialize_state(job.encoded_state) + patch(bundle, at)
    return unframe(netio.handle_envelope(frame(netio.KIND_JOB, data)))


@pytest.mark.parametrize("patch, message", [
    (lambda bundle, at: bundle[:at] + bundle[at + 1:], b"WireFormatError: truncated payload"),
    (lambda bundle, at: bundle[:at] + b"\x00" + bundle[at:],
     b"WireFormatError: 1 trailing bytes"),
    (lambda bundle, at: bundle[:-1], b"WireFormatError: truncated payload"),
], ids=["nonce-short", "nonce-long", "table-cut"])
def test_nonce_of_wrong_width_or_truncated_table_gets_error_envelope(patch, message):
    # nothing delimits a nonce but the bundle header's kappa: a nonce one
    # byte short or long shifts every field after it
    job, params = _seeded_job(PHASE_JOB_CIRCUIT)
    assert _reply_with_bundle(job, params, lambda bundle, at: bundle)[0] == netio.KIND_RESULT
    assert _reply_with_bundle(job, params, patch) == (netio.KIND_ERROR, message)


def test_mutated_jobs_get_result_or_error_envelopes():
    # a job of full tables and phase tables, and a job of half tables
    for text in (PHASE_JOB_CIRCUIT, CONST_JOB_CIRCUIT):
        payload = serialize_job(*_seeded_job(text))
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


_JOB_PAYLOADS = (serialize_job(*_seeded_job(PHASE_JOB_CIRCUIT)),
                 serialize_job(*_seeded_job(CONST_JOB_CIRCUIT)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_JOB_PAYLOADS),
       st.lists(st.tuples(st.integers(0), st.integers(1, 255)), min_size=1, max_size=4),
       st.integers(0), st.binary(max_size=8))
def test_mutated_job_gets_an_envelope(payload, flips, cut, tail):
    data = bytearray(payload)
    for pos, mask in flips:
        data[pos % len(data)] ^= mask
    flipped = bytes(data)
    data = flipped[:cut % (len(flipped) + 1)] + tail
    # a cut rarely leaves a whole job, so the flipped job is sent as well
    for candidate in {flipped, data}:
        kind, _ = unframe(netio.handle_envelope(frame(netio.KIND_JOB, candidate)))
        assert kind in _ENVELOPE_KINDS
        try:
            parsed, params = deserialize_job(candidate)
        except ValueError:      # what the server refuses as an error envelope
            continue
        _assert_tables_have_their_shapes(parsed.garbled, params)


@pytest.mark.parametrize("kappa, tag_len", [(0, 128), (12, 128), (16, 0), (16, 100)])
def test_bundle_header_of_bad_widths_gets_error_envelope(kappa, tag_len):
    job, params = _one_phase_job()
    bundle = bytearray(serialize_bundle(job.garbled, params))
    bundle[1:5] = struct.pack("<HH", kappa, tag_len)
    data = serialize_state(job.encoded_state) + bytes(bundle)
    kind, payload = unframe(netio.handle_envelope(frame(netio.KIND_JOB, data)))
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
            kind, payload = unframe(netio._read_envelope(sock, time.monotonic() + 5))
        assert kind == netio.KIND_ERROR
        assert payload == (b"WireFormatError: declared payload of 1099511627776 bytes "
                           b"above limit 65536")
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(netio.MAGIC)       # then goes quiet
            assert sock.recv(1) == b""      # the server hangs up
        netio.submit(host, port, job, params)
    finally:
        server.shutdown()
        server.server_close()


def test_server_drops_a_client_that_trickles_its_request(monkeypatch):
    # a byte every 0.2 s keeps every read under the timeout; the request as
    # a whole must still arrive within SOCKET_TIMEOUT_S
    monkeypatch.setattr(netio, "SOCKET_TIMEOUT_S", 0.5)
    server = netio.serve("127.0.0.1", 0)
    try:
        with socket.create_connection(server.server_address, timeout=5) as sock:
            start = time.monotonic()
            sock.sendall(netio.MAGIC + struct.pack("<BBQ", netio.WIRE_VERSION,
                                                   netio.KIND_JOB, 1000))
            while time.monotonic() - start < 4:
                try:
                    sock.sendall(b"\x00")
                    if select.select([sock], [], [], 0.2)[0] and sock.recv(1) == b"":
                        break       # the server hung up
                except ConnectionError:
                    break
            elapsed = time.monotonic() - start
    finally:
        server.shutdown()
        server.server_close()
    assert elapsed < 1.5


def test_submit_timeout_bounds_the_whole_exchange():
    # the listener reads the job, then answers one byte every 0.2 s and
    # hangs up after the envelope header
    _, _, params, _, job = _job_fixture(seed=26)
    header = netio.MAGIC + struct.pack("<BBQ", netio.WIRE_VERSION, netio.KIND_RESULT, 1000)

    def trickle(listener):
        conn, _ = listener.accept()
        with conn, contextlib.suppress(OSError):
            netio._read_envelope(conn, time.monotonic() + 5)
            for byte in header:
                time.sleep(0.2)
                conn.sendall(bytes([byte]))

    with socket.create_server(("127.0.0.1", 0)) as listener:
        worker = threading.Thread(target=trickle, args=(listener,), daemon=True)
        worker.start()
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            netio.submit("127.0.0.1", listener.getsockname()[1], job, params, timeout=0.5)
        elapsed = time.monotonic() - start
        worker.join(timeout=5)
    assert elapsed < 1.5


def test_server_answers_bad_magic_with_an_error_envelope():
    server = netio.serve("127.0.0.1", 0)
    try:
        with socket.create_connection(server.server_address, timeout=5) as sock:
            sock.sendall(b"RGC0" + struct.pack("<BBQ", netio.WIRE_VERSION, netio.KIND_JOB, 0))
            kind, payload = unframe(netio._read_envelope(sock, time.monotonic() + 5))
    finally:
        server.shutdown()
        server.server_close()
    assert kind == netio.KIND_ERROR and payload == b"WireFormatError: bad magic"


def test_job_above_the_work_limit_is_refused_before_evaluation(monkeypatch):
    # 4096 terms through 4097 phase tables, a 344 KB job: one table past
    # the limit, which 4096 tables would meet exactly
    def never(*args):
        raise AssertionError("eval_bundle called")
    n = 12
    circ, job, params = phase_only_job(4097, n)
    envelope = frame(netio.KIND_JOB, serialize_job(job, params))
    assert netio.job_work(circ, 1 << n) == netio.MAX_JOB_WORK + 4096
    monkeypatch.setattr(evaluate, "eval_bundle", never)
    start = time.perf_counter()
    kind, payload = unframe(netio.handle_envelope(envelope))
    assert time.perf_counter() - start < 1.0
    assert kind == netio.KIND_ERROR
    assert payload == b"WireFormatError: job work 16781312 above limit 16777216"


def test_server_time_per_request_byte_is_bounded_at_the_work_limit():
    # the shape with the most job_work steps per request byte: each phase
    # table is a few dozen bytes that job_work counts as 4096 steps (137,329 B
    # with 16-bit digests), and costs two lookups, two rows and a ripple add
    # over three 4096-bit bitsets: 0.06-0.12 s and 0.4-0.9 us/B on a 2-core
    # x86 host; the bound leaves room for a slow or busy host
    n = 12
    circ, job, params = phase_only_job(4096, n)
    envelope = frame(netio.KIND_JOB, serialize_job(job, params))
    assert netio.job_work(circ, 1 << n) == netio.MAX_JOB_WORK
    start = time.perf_counter()
    kind, _ = unframe(netio.handle_envelope(envelope))
    elapsed = time.perf_counter() - start
    assert kind == netio.KIND_RESULT
    assert elapsed / len(envelope) <= 50e-6, f"{elapsed:.2f} s for {len(envelope)} B"


def test_the_work_limit_is_far_above_modexp21s_work():
    # modexp21, 1024 terms through 936 Toffolis of 16 words each
    mx = delegation.synth_modexp_toffoli(21, 2)
    work = netio.job_work(without_x(mx.circuit), 1 << mx.n_exp)
    assert work == 14_976 and 100 * work <= netio.MAX_JOB_WORK


def _wide_job(n, varying):
    """A job on ``n`` qubits through one honest Toffoli on qubits 0, 1, 2,
    whose state is the uniform superposition over its first ``varying``
    qubits, packed as the wire carries it without building it: 2^varying
    equal terms, register i below ``varying`` holding both of its wire's
    keys, term t the larger where bit i of t is set, and every other register
    its wire's 0 key.  Returns the circuit, the state record and the bundle
    bytes."""
    circ = parse_circuit(f"inputs {n}\ntoff 0 1 2\n")
    rng = random.Random(53)
    keys = delegation.keygen(16, n, circ, rng, conjecture=True)
    params = delegation.make_params(16, oracle_seed=b"wide")
    bundle = delegation.encrypt(params, keys, circ, sparse.basis_state(qubit_layout(n), 0),
                                rng).garbled
    count = 1 << varying
    parts = [struct.pack("<IHI", n, 16, count)]
    for i in range(n):
        k0, k1 = keys.pairs[i]
        if i >= varying:
            parts.append(b"\1" + k0)
            continue
        low, high = sorted((k0, k1), key=lambda key: int.from_bytes(key, "little"))
        if i < 3:
            bitset = bytes([(0xAA, 0xCC, 0xF0)[i]]) * (count // 8)
        else:
            bitset = (bytes(1 << i - 3) + b"\xff" * (1 << i - 3)) * (count >> i + 1)
        parts.append(b"\2" + low + high + bitset)
    parts.append(struct.pack("<dd", 2.0 ** (-varying / 2), 0.0) * count)
    return circ, b"".join(parts), serialize_bundle(bundle, params)


def test_state_of_too_many_register_terms_is_refused_before_it_is_read(monkeypatch):
    # 65,536 registers, 20 of them holding two keys, over 2^20 terms: a
    # register of one key is 3 bytes whatever the term count, so the job
    # fits the payload bound and its one Toffoli the work bound, yet the
    # state is 2^36 register-terms
    def never(*args):
        raise AssertionError("ColumnarState called")
    circ, record, bundle = _wide_job(netio.MAX_QUBITS, 20)
    assert len(record) + len(bundle) <= netio.MAX_PAYLOAD_BYTES
    assert netio.job_work(circ, 1 << 20) <= netio.MAX_JOB_WORK
    envelope = frame(netio.KIND_JOB, record + bundle)
    monkeypatch.setattr(netio, "ColumnarState", never)
    start = time.perf_counter()
    kind, payload = unframe(netio.handle_envelope(envelope))
    assert time.perf_counter() - start < 1.0
    assert kind == netio.KIND_ERROR
    assert payload == (b"WireFormatError: 65536 registers of 1048576 terms above limit "
                       b"67108864 register-terms")


def test_state_at_the_register_term_limit_transposes_only_two_key_registers(monkeypatch):
    # 4096 registers of 2^14 terms meet the limit exactly.  The Toffoli
    # reorders the codes, and the result is sorted by the codes of the 14
    # registers that hold two keys, never transposing the other 4082.  It
    # permutes the whole cube of those codes, so the sorted result has the
    # input's bitsets, and the registers it does not touch keep their keys
    original, cells = sparse.transpose, []

    def counting_transpose(words, width):
        cells.append(len(words) * width)
        return original(words, width)
    circ, record, bundle = _wide_job(4096, 14)
    assert 4096 << 14 == netio.MAX_STATE_CELLS
    monkeypatch.setattr(sparse, "transpose", counting_transpose)
    kind, payload = unframe(netio.handle_envelope(frame(netio.KIND_JOB, record + bundle)))
    assert kind == netio.KIND_RESULT
    assert cells and max(cells) == 14 << 14
    out, stats = netio.deserialize_result(payload)
    sent = deserialize_state(record)
    assert stats.gates == 1 and out.amps == sent.amps
    assert out.bits == sent.bits and out.values[3:] == sent.values[3:]


def _submit_retrying(host, port, job, params):
    """Submit until the server has a free slot, for at most 5 s."""
    deadline = time.monotonic() + 5
    while True:
        try:
            return netio.submit(host, port, job, params)
        except (netio.RemoteEvalError, OSError):
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)


def test_a_reset_connection_is_dropped_quietly(monkeypatch, capfd):
    # one slot, so the job below is served only after the reset
    # connection's handler has finished
    monkeypatch.setattr(netio, "MAX_CONNECTIONS", 1)
    _, _, params, _, job = _job_fixture(seed=26)
    server = netio.serve("127.0.0.1", 0)
    try:
        host, port = server.server_address
        sock = socket.create_connection((host, port), timeout=5)
        sock.sendall(netio.MAGIC[:3])
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()        # a zero linger time: the close resets the connection
        result, _ = _submit_retrying(host, port, job, params)
        assert result.num_terms() == job.encoded_state.num_terms()
    finally:
        server.shutdown()
        server.server_close()
    assert capfd.readouterr().err == ""


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
                    kind, payload = unframe(netio._read_envelope(sock, time.monotonic() + 5))
                    assert sock.recv(1) == b""      # and the server hangs up
                assert kind == netio.KIND_ERROR and b"server busy" in payload
        # closing the idle connection ends its handler and frees the slot
        result, _ = _submit_retrying(host, port, job, params)
        assert result.num_terms() == job.encoded_state.num_terms()
    finally:
        server.shutdown()
        server.server_close()
