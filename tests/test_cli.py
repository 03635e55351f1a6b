import dataclasses
import json
import math
import os
import pathlib
import random
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from rgc import delegation, encoding, evaluate, netio, sparse
from rgc.circuit import parse_circuit, simulate
from rgc.cli import build_parser, main, parse_state_tokens
from rgc.sparse import fidelity, qubit_layout
from rgc.util import derive_rng, derive_seed, secret_rng

from conftest import phase_only_job, sparse_of

CIRCUIT_TEXT = "inputs 3\ntoff 0 1 2\nphase 2 1\n"


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "circ.txt"
    path.write_text(CIRCUIT_TEXT)
    return str(path)


def test_parse_state_tokens():
    state = parse_state_tokens("+1")
    assert state.layout.total_bits == 2
    assert state.terms[0b10] == pytest.approx(1 / math.sqrt(2))
    assert state.terms[0b11] == pytest.approx(1 / math.sqrt(2))
    minus = parse_state_tokens("-")
    assert minus.terms[1] == pytest.approx(-1 / math.sqrt(2))
    with pytest.raises(Exception):
        parse_state_tokens("x")


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_shor_cli(capsys):
    assert main(["shor", "--M", "15", "--a", "7", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "factor 3" in out or "factor 5" in out
    record = json.loads(out.splitlines()[0])
    assert record["modulus"] == 15 and record["encoding_cnots"] <= record["encoding_bound"]


def test_mixing_bound_cli(capsys):
    assert main(["mixing-bound", "--kappa", "5", "--n", "1", "--states", "5",
                 "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "bound=0.5" in out
    assert "PASS" in out


def test_pipeline_commands(tmp_path, circuit_file, capsys):
    keys = str(tmp_path / "keys.bin")
    bundle = str(tmp_path / "bundle.bin")
    enc = str(tmp_path / "enc.bin")
    res = str(tmp_path / "res.bin")
    assert main(["keygen", "--circuit", circuit_file, "--eta", "16",
                 "--conjecture-1", "--seed", "3", "--out", keys]) == 0
    assert main(["garble", "--circuit", circuit_file, "--keys", keys,
                 "--seed", "3", "--out", bundle]) == 0
    assert main(["encode", "--circuit", circuit_file, "--keys", keys,
                 "--input", "110", "--out", enc]) == 0
    assert main(["eval", "--bundle", bundle, "--state", enc, "--out", res]) == 0
    assert main(["decode", "--circuit", circuit_file, "--keys", keys,
                 "--result", res]) == 0
    out = capsys.readouterr().out
    # toffoli flips qubit 2 for input 110; phase on |1> is global
    assert out.strip().splitlines()[-1].startswith("111")
    size = os.path.getsize(bundle)
    assert f"garbled 2 gates, 3 tables, 18 rows, {size} bytes -> {bundle}" in out.splitlines()


def test_garble_cli_counts_half_table_rows(tmp_path, capsys):
    path = tmp_path / "const.txt"
    path.write_text("inputs 3\nconst 0\ntoff 0 1 2\nphase 2 1\n")
    keys, bundle = str(tmp_path / "keys.bin"), str(tmp_path / "bundle.bin")
    assert main(["keygen", "--circuit", str(path), "--eta", "16", "--conjecture-1",
                 "--seed", "3", "--out", keys]) == 0
    assert main(["garble", "--circuit", str(path), "--keys", keys, "--seed", "3",
                 "--out", bundle]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    # 4 + 4 Toffoli rows and 2 phase rows
    size = os.path.getsize(bundle)
    assert line == f"garbled 2 gates, 3 tables, 10 rows, {size} bytes -> {bundle}"


def test_delegate_deterministic_output_files(tmp_path, circuit_file):
    out1 = str(tmp_path / "a.bin")
    out2 = str(tmp_path / "b.bin")
    argv = ["delegate", "--circuit", circuit_file, "--input", "+01",
            "--seed", "9", "--conjecture-1", "--out"]
    assert main(argv + [out1]) == 0
    assert main(argv + [out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_delegate_local_vs_remote_bit_exact(tmp_path, circuit_file):
    local_out = str(tmp_path / "local.bin")
    remote_out = str(tmp_path / "remote.bin")
    argv = ["delegate", "--circuit", circuit_file, "--input", "+11",
            "--seed", "5", "--conjecture-1"]
    assert main(argv + ["--out", local_out]) == 0

    server = netio.serve("127.0.0.1", 0)
    try:
        host, port = server.server_address
        assert main(argv + ["--out", remote_out, "--endpoint", f"{host}:{port}"]) == 0
    finally:
        server.shutdown()
        server.server_close()
    assert open(local_out, "rb").read() == open(remote_out, "rb").read()


def test_serve_answers_a_job_and_stops_cleanly_on_ctrl_c(tmp_path, circuit_file):
    # started as the benchmark starts it; -u passes the port line through
    # the pipe at once
    src = pathlib.Path(netio.__file__).resolve().parents[1]
    argv = ["delegate", "--circuit", circuit_file, "--input", "+11", "--seed", "5"]
    assert main(argv + ["--out", str(tmp_path / "local.bin")]) == 0
    with subprocess.Popen([sys.executable, "-u", "-m", "rgc", "serve", "--host", "127.0.0.1",
                           "--port", "0"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=dict(os.environ, PYTHONPATH=str(src))) as proc:
        try:
            line = proc.stdout.readline().decode()
            match = re.fullmatch(r"serving on (127\.0\.0\.1:\d+) \(ctrl-c to stop\)\n", line)
            assert match, line
            assert main(argv + ["--out", str(tmp_path / "remote.bin"),
                                "--endpoint", match[1]]) == 0
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
    assert proc.returncode == 0 and err == b""
    assert (tmp_path / "local.bin").read_bytes() == (tmp_path / "remote.bin").read_bytes()


def test_serve_line_passes_a_block_buffered_pipe_at_once():
    # without -u or PYTHONUNBUFFERED, stdout into a pipe is block buffered;
    # a supervisor that reads the port from the pipe must still get it
    src = pathlib.Path(netio.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "rgc", "serve", "--host", "127.0.0.1",
                             "--port", "0"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=dict(env, PYTHONPATH=str(src)))
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 5)
        assert ready, "no serving line within 5 s"
        line = proc.stdout.readline().decode()
        assert re.fullmatch(r"serving on 127\.0\.0\.1:\d+ \(ctrl-c to stop\)\n", line), line
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()


def test_delegate_dir_transport(tmp_path, circuit_file):
    root = tmp_path / "exchange"
    root.mkdir()
    out = str(tmp_path / "dir.bin")
    stop = threading.Event()
    worker = threading.Thread(target=netio.serve_files, args=(str(root), stop),
                              daemon=True)
    worker.start()
    try:
        assert main(["delegate", "--circuit", circuit_file, "--input", "+11",
                     "--seed", "5", "--conjecture-1", "--dir", str(root),
                     "--out", out]) == 0
    finally:
        stop.set()
        worker.join(timeout=5)
    assert os.listdir(root / "outbox") == []      # the client consumed its answer
    ref = str(tmp_path / "ref.bin")
    assert main(["delegate", "--circuit", circuit_file, "--input", "+11",
                 "--seed", "5", "--conjecture-1", "--out", ref]) == 0
    assert open(out, "rb").read() == open(ref, "rb").read()


def test_delegate_cli_runs_a_circuit_with_x(tmp_path, capsys):
    text = "inputs 3\nx 0\ntoff 0 1 2\nphase 1 1\nx 1\nx 2\n"
    path = tmp_path / "x.txt"
    path.write_text(text)
    out = str(tmp_path / "out.bin")
    server = netio.serve("127.0.0.1", 0)
    try:
        host, port = server.server_address
        assert main(["delegate", "--circuit", str(path), "--input", "0+1", "--seed", "10",
                     "--conjecture-1", "--endpoint", f"{host}:{port}", "--out", out]) == 0
    finally:
        server.shutdown()
        server.server_close()
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[0])["gates"] == 2     # the server saw no X
    # q0 = 1 and q2 = 1 xor q1, then q1 and q2 flip: qubit 0 prints first
    assert {line.split()[0] for line in lines[1:]} == {"110", "101"}
    decoded = sparse_of(netio.deserialize_state(open(out, "rb").read()))
    want = simulate(parse_circuit(text), parse_state_tokens("0+1"))
    assert fidelity(decoded, want) >= 1 - 1e-12


def test_blind_cli(tmp_path, capsys):
    path = tmp_path / "small.txt"
    path.write_text("inputs 2\nphase 0 1\n")
    assert main(["blind", "--circuit", str(path), "--input", "+0",
                 "--lmax", "1", "--dmax", "1", "--seed", "6", "--conjecture-1"]) == 0
    out = capsys.readouterr().out
    header = json.loads(out.splitlines()[0])
    assert header["slots"] == 1
    lines = out.strip().splitlines()[1:]   # |+>|0> stays a two-term state
    assert len(lines) == 2


def test_security_test_cli(capsys):
    assert main(["security-test", "--game", "kdm", "--trials", "200",
                 "--seed", "7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    names = {r["distinguisher"] for r in records}
    assert "mask-equality" in names and "pad-reuse-control" in names
    control = next(r for r in records if r["distinguisher"] == "pad-reuse-control")
    assert control["advantage_estimate"] > 0.5


def test_protocol_error_exits_1(tmp_path, circuit_file, capsys):
    missing = str(tmp_path / "nope.bin")
    assert main(["decode", "--circuit", circuit_file, "--keys", missing,
                 "--result", missing]) == 1
    assert "error:" in capsys.readouterr().err


def test_delegate_dir_transport_waits_for_its_own_answer(tmp_path, capsys):
    # two runs at one seed; the second must not read the first's answer
    path = tmp_path / "c.txt"
    path.write_text("inputs 3\ntoff 0 1 2\n")
    root = tmp_path / "exchange"
    root.mkdir()
    stop = threading.Event()
    worker = threading.Thread(target=netio.serve_files, args=(str(root), stop), daemon=True)
    worker.start()
    try:
        for bits, want in (("110", "111"), ("000", "000")):
            assert main(["delegate", "--circuit", str(path), "--input", bits, "--seed", "4",
                         "--dir", str(root)]) == 0
            assert capsys.readouterr().out.splitlines()[-1].split()[0] == want
    finally:
        stop.set()
        worker.join(timeout=5)
    assert not worker.is_alive()


def test_delegate_endpoint_gives_up_after_its_timeout(circuit_file, capsys):
    # a server that accepts the connection and never answers: the client
    # waits --timeout, not netio.submit's default
    with socket.create_server(("127.0.0.1", 0)) as listener:
        held = []
        acceptor = threading.Thread(target=lambda: held.append(listener.accept()[0]),
                                    daemon=True)
        acceptor.start()
        start = time.monotonic()
        assert main(["delegate", "--circuit", circuit_file, "--input", "+11", "--seed", "5",
                     "--endpoint", f"127.0.0.1:{listener.getsockname()[1]}",
                     "--timeout", "0.5"]) == 1
        elapsed = time.monotonic() - start
        acceptor.join(timeout=5)
        for conn in held:
            conn.close()
    assert elapsed < 5
    assert "timed out" in capsys.readouterr().err


def test_delegate_with_both_transports_is_a_usage_error(tmp_path, circuit_file, capsys,
                                                        monkeypatch):
    # one transport per run: --dir beside --endpoint must not be dropped unread
    sent = []
    monkeypatch.setattr(netio, "submit", lambda *args, **kwargs: sent.append("endpoint"))
    monkeypatch.setattr(netio, "submit_file", lambda *args, **kwargs: sent.append("dir"))
    with pytest.raises(SystemExit) as err:
        main(["delegate", "--circuit", circuit_file, "--input", "+11", "--seed", "5",
              "--conjecture-1", "--endpoint", "127.0.0.1:9", "--dir", str(tmp_path / "x")])
    assert err.value.code == 2
    assert "--dir: not allowed with argument --endpoint" in capsys.readouterr().err
    assert sent == []


def test_delegate_dir_job_name_does_not_carry_the_seed(tmp_path, circuit_file, monkeypatch):
    queued = []

    def collect(root, job_id, timeout):     # no server: note the queued file instead
        queued.append(os.listdir(os.path.join(root, "inbox")))
        raise TimeoutError(f"no result for job {job_id}")
    monkeypatch.setattr(netio, "collect_result", collect)
    for run in ("a", "b"):
        assert main(["delegate", "--circuit", circuit_file, "--input", "+11",
                     "--seed", "48213", "--conjecture-1", "--dir", str(tmp_path / run)]) == 1
    (first,), (second,) = queued
    assert first != second
    for name in (first, second):
        assert re.fullmatch(r"job-[0-9a-f]{16}\.rgc", name) and "48213" not in name


def _split_job(tmp_path, job, params):
    """The job as ``rgc eval`` reads it: a state file and a bundle file."""
    state, bundle = tmp_path / "enc.bin", tmp_path / "bundle.bin"
    state.write_bytes(netio.serialize_state(job.encoded_state))
    bundle.write_bytes(netio.serialize_bundle(job.garbled, params))
    return ["eval", "--state", str(state), "--bundle", str(bundle),
            "--out", str(tmp_path / "res.bin")]


def test_eval_writes_the_in_process_result(tmp_path, capsys):
    circ = parse_circuit("inputs 3\nconst 0\ntoff 0 1 2\nphase 2 1\nphase 1 3 neg\n")
    rng = random.Random(49)
    keys = delegation.keygen(16, 3, circ, rng, conjecture=True)
    params = delegation.make_params(16, oracle_seed=b"eval")
    state = sparse.from_terms(qubit_layout(3), {0b001: 0.6, 0b011: 0.8j})
    job = delegation.encrypt(params, keys, circ, state, rng)
    assert main(_split_job(tmp_path, job, params)) == 0
    out, stats = evaluate.eval_bundle(params, job.encoded_state, job.garbled)
    assert (tmp_path / "res.bin").read_bytes() == netio.serialize_state(out)
    assert capsys.readouterr().out == json.dumps(dataclasses.asdict(stats),
                                                 sort_keys=True) + "\n"


def test_eval_refuses_a_job_above_the_work_limit_before_evaluating(tmp_path, capsys,
                                                                  monkeypatch):
    def never(*args):
        raise AssertionError("eval_bundle called")
    _, job, params = phase_only_job(4097)
    argv = _split_job(tmp_path, job, params)
    monkeypatch.setattr(evaluate, "eval_bundle", never)
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: job work 16781312 above limit 16777216\n"
    assert not (tmp_path / "res.bin").exists()


def test_eval_refuses_oversized_files_unread(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("a file was opened")
    rng = random.Random(50)
    circ = parse_circuit(CIRCUIT_TEXT)
    params = delegation.make_params(16, oracle_seed=b"size")
    job = delegation.encrypt(params, delegation.keygen(16, 3, circ, rng, conjecture=True),
                             circ, parse_state_tokens("+10"), rng)
    argv = _split_job(tmp_path, job, params)
    size = len(netio.serialize_job(job, params))
    monkeypatch.setattr(netio, "MAX_PAYLOAD_BYTES", size - 1)
    monkeypatch.setattr(netio, "open", never, raising=False)
    assert main(argv) == 1
    assert capsys.readouterr().err == (f"error: declared payload of {size} bytes above "
                                       f"limit {size - 1}\n")
    monkeypatch.setattr(netio, "MAX_PAYLOAD_BYTES", size)
    monkeypatch.delattr(netio, "open")
    assert main(argv) == 0


def test_encode_refuses_a_constant_qubit_that_is_not_1(tmp_path, capsys):
    # the server's failure on a 0 constant would show the bit; encrypt refuses it
    path = tmp_path / "const.txt"
    path.write_text("inputs 3\nconst 0\ntoff 0 1 2\n")
    keys, enc = str(tmp_path / "keys.bin"), str(tmp_path / "enc.bin")
    assert main(["keygen", "--circuit", str(path), "--eta", "16", "--conjecture-1",
                 "--seed", "3", "--out", keys]) == 0
    assert main(["encode", "--circuit", str(path), "--keys", keys, "--input", "010",
                 "--out", enc]) == 1
    assert capsys.readouterr().err == ("error: a declared constant qubit is not 1 "
                                       "in every input term\n")
    assert not os.path.exists(enc)


def test_keygen_reports_a_bare_inputs_line_without_a_traceback(tmp_path, capsys):
    path = tmp_path / "bare.txt"
    path.write_text("inputs\n")
    assert main(["keygen", "--circuit", str(path), "--out", str(tmp_path / "k.bin")]) == 1
    assert capsys.readouterr().err == "error: line 1: inputs needs 1 integer argument(s)\n"


@pytest.mark.parametrize("argv", [
    ["encode", "--circuit", "c", "--keys", "k", "--input", "0", "--out", "o"],
    ["eval", "--bundle", "b", "--state", "s", "--out", "o"],
    ["decode", "--circuit", "c", "--keys", "k", "--result", "r"],
    ["serve"],
])
def test_subcommands_that_draw_no_randomness_take_no_seed(argv):
    _, unknown = build_parser().parse_known_args(argv + ["--seed", "1"])
    assert unknown == ["--seed", "1"]


def _queued_job(tmp_path, circuit_file, monkeypatch, *seed):
    """The job envelope a ``rgc delegate --dir`` run queues, with no server
    to answer it."""
    queued = []

    def collect(root, job_id, timeout):
        (name,) = os.listdir(os.path.join(root, "inbox"))
        queued.append(open(os.path.join(root, "inbox", name), "rb").read())
        raise TimeoutError(f"no result for job {job_id}")
    monkeypatch.setattr(netio, "collect_result", collect)
    root = tmp_path / f"exchange{len(seed)}"
    assert main(["delegate", "--circuit", circuit_file, "--input", "+10",
                 "--conjecture-1", "--dir", str(root), *seed]) == 1
    return netio.deserialize_job(netio.unframe(queued[0])[1])


def _grind(oracle_seed):
    """The seeds in 0..2^16 whose derived oracle seed is the bundle's."""
    return [s for s in range(1 << 16)
            if derive_seed(s, "oracle").to_bytes(8, "little") == oracle_seed]


def test_default_delegate_job_resists_a_seed_grind(tmp_path, circuit_file, monkeypatch):
    # without --seed the client draws a secret seed, so the bundle header's
    # public oracle seed names no small seed; with --seed 4 the same grind
    # finds it, rebuilds the keys and decodes the input
    job, params = _queued_job(tmp_path, circuit_file, monkeypatch)
    assert _grind(params.oracles.seed) == []
    job, params = _queued_job(tmp_path, circuit_file, monkeypatch, "--seed", "4")
    assert _grind(params.oracles.seed) == [4]
    circ = parse_circuit(CIRCUIT_TEXT)
    keys = delegation.keygen(16, circ.num_inputs, circ, secret_rng(4, "delegate"),
                             conjecture=True)
    decoded = encoding.decode(job.encoded_state, keys, [(w, 0) for w in circ.input_wires])
    assert decoded.terms == pytest.approx(parse_state_tokens("+10").terms)


def test_keygen_without_a_seed_draws_a_fresh_secret(tmp_path, circuit_file):
    outs = [str(tmp_path / f"k{i}.bin") for i in range(4)]
    for out in outs[:2]:
        assert main(["keygen", "--circuit", circuit_file, "--out", out]) == 0
    for out in outs[2:]:
        assert main(["keygen", "--circuit", circuit_file, "--out", out, "--seed", "4"]) == 0
    keys = [open(out, "rb").read() for out in outs]
    assert keys[0] != keys[1] and keys[2] == keys[3]


def test_derived_seeds_are_pinned():
    # the bench builds its circuits and inputs through derive_rng, and the
    # CLI's public oracle seed is a derive_seed
    assert derive_seed(1, "modexp21") == 9711283895971465115
    assert derive_seed(-(1 << 127), "x") == 769837572585671538
    assert derive_rng(1, "modexp21").getrandbits(64) == 4077249424615274201


@pytest.mark.parametrize("seed", [str(1 << 127), str(-(1 << 127) - 1)])
def test_seed_outside_the_signed_128_bit_range_is_a_usage_error(tmp_path, circuit_file,
                                                                 capsys, seed):
    # derive_seed encodes a seed as 16 signed bytes
    with pytest.raises(SystemExit) as err:
        main(["keygen", "--circuit", circuit_file, "--out", str(tmp_path / "k.bin"),
              "--seed", seed])
    assert err.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "k.bin").exists()


@pytest.mark.parametrize("seed", [(1 << 127) - 1, -(1 << 127)])
def test_seed_at_the_ends_of_the_range_is_taken(tmp_path, circuit_file, seed):
    assert main(["keygen", "--circuit", circuit_file, "--out", str(tmp_path / "k.bin"),
                 "--seed", str(seed)]) == 0
