import json
import math
import os

import pytest

from rgc import netio
from rgc.circuit import parse_circuit, simulate
from rgc.cli import main, parse_state_tokens
from rgc.sparse import fidelity

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
                 "--input", "110", "--out", enc, "--seed", "3"]) == 0
    assert main(["eval", "--bundle", bundle, "--state", enc, "--out", res,
                 "--seed", "3"]) == 0
    assert main(["decode", "--circuit", circuit_file, "--keys", keys,
                 "--result", res, "--seed", "3"]) == 0
    out = capsys.readouterr().out
    # toffoli flips qubit 2 for input 110; phase on |1> is global
    assert out.strip().splitlines()[-1].startswith("111")
    size = os.path.getsize(bundle)
    assert f"garbled 2 tables, 18 rows, {size} bytes -> {bundle}" in out.splitlines()


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
    assert line == f"garbled 2 tables, 10 rows, {size} bytes -> {bundle}"


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


def test_delegate_dir_transport(tmp_path, circuit_file):
    root = tmp_path / "exchange"
    root.mkdir()
    out = str(tmp_path / "dir.bin")
    import threading
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
    decoded = netio.deserialize_state(open(out, "rb").read())
    want = simulate(parse_circuit(text), parse_state_tokens("0+1"))
    assert fidelity(decoded, want) >= 1 - 1e-12


def test_blind_cli(tmp_path, capsys):
    path = tmp_path / "small.txt"
    path.write_text("inputs 2\nphase 0 1\n")
    assert main(["blind", "--circuit", str(path), "--input", "+0",
                 "--lmax", "1", "--dmax", "1", "--seed", "6", "--conjecture-1"]) == 0
    out = capsys.readouterr().out
    header = json.loads(out.splitlines()[0])
    assert header["slots"] == 7
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
