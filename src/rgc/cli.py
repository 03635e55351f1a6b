"""Command-line frontend.

Every run is reproducible: one --seed flows into per-stage streams derived by
hashing (seed, stage-label), so key generation, garbling shuffles, game coins
and measurement sampling each get an independent stream whose draws cannot
shift when another stage changes how much randomness it consumes.  Identical
argv (including --seed) means byte-identical output files.

Subcommands: keygen, garble, encode, eval, decode, delegate, blind, shor,
mixing-bound, security-test, serve.  Protocol failures exit 1, usage
errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time

import numpy as np

from . import circuit, delegation, encoding, evaluate, games, garble, netio, sparse
from .util import derive_rng, derive_seed


class CliError(RuntimeError):
    pass


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_bin(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write_bin(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _load_circuit(path: str) -> circuit.CPCircuit:
    return circuit.parse_circuit(_read_text(path))


def parse_state_tokens(tokens: str) -> sparse.SparseState:
    """Product state from one character per qubit: 0, 1, + or -."""
    n = len(tokens)
    if n == 0:
        raise CliError("empty input state")
    amps = {0: 1.0 + 0j}
    for i, tok in enumerate(tokens):
        if tok in "01":
            amps = {b | (int(tok) << i): a for b, a in amps.items()}
        elif tok in "+-":
            sign = 1.0 if tok == "+" else -1.0
            nxt: dict[int, complex] = {}
            for b, a in amps.items():
                nxt[b] = nxt.get(b, 0j) + a / math.sqrt(2)
                hi = b | (1 << i)
                nxt[hi] = nxt.get(hi, 0j) + sign * a / math.sqrt(2)
            amps = nxt
        else:
            raise CliError(f"unknown state token {tok!r} (use 0, 1, +, -)")
    return sparse.from_terms(sparse.qubit_layout(n), amps)


def format_state(state: sparse.SparseState) -> str:
    n = state.layout.total_bits
    lines = []
    for basis in sorted(state.terms):
        amp = state.terms[basis]
        bits = format(basis, f"0{n}b")[::-1]     # qubit 0 first
        lines.append(f"{bits} {amp.real:+.12f} {amp.imag:+.12f}")
    return "\n".join(lines)


def _oracle_seed(args) -> bytes:
    if args.oracle_seed is not None:
        return bytes.fromhex(args.oracle_seed)
    return derive_seed(args.seed, "oracle").to_bytes(8, "little")


def _params_for(args, kappa_bits: int) -> delegation.CryptoParams:
    if getattr(args, "table_oracle", False):
        return delegation.make_params(kappa_bits, tag_len_bits=args.tag_len,
                                      table_mode=True,
                                      table_seed=derive_seed(args.seed, "oracle"))
    return delegation.make_params(kappa_bits, tag_len_bits=args.tag_len,
                                  oracle_seed=_oracle_seed(args))


# ---------------------------------------------------------------------------
# subcommands

def cmd_keygen(args) -> int:
    circ = _load_circuit(args.circuit)
    n_q = args.nq if args.nq is not None else circ.num_inputs
    keys = delegation.keygen(args.eta, n_q, circ, derive_rng(args.seed, "keygen"),
                             conjecture=args.conjecture_1)
    _write_bin(args.out, netio.serialize_schedule(keys.schedule))
    print(f"kappa={keys.kappa_bits} wires={keys.schedule.num_wires} -> {args.out}")
    return 0


def _keys_from_file(path: str, circ: circuit.CPCircuit) -> delegation.DelegationKeys:
    schedule = netio.deserialize_schedule(_read_bin(path))
    if schedule.num_wires != circ.num_wires:
        raise CliError("schedule does not match the circuit")
    return delegation.DelegationKeys(schedule, schedule.kappa_bits,
                                     schedule.kappa_bits, circ.num_inputs)


def cmd_garble(args) -> int:
    circ = _load_circuit(args.circuit)
    keys = _keys_from_file(args.keys, circ)
    params = _params_for(args, keys.kappa_bits)
    bundle = garble.garble_circuit(params, circ, keys.schedule,
                                   derive_rng(args.seed, "garble"))
    data = netio.serialize_bundle(bundle, params)
    _write_bin(args.out, data)
    rows = sum(len(t.forward) + len(t.backward) if isinstance(t, garble.ToffoliTables)
               else len(t.rows) for t in bundle.tables)
    print(f"garbled {len(bundle.tables)} tables, {rows} rows, {len(data)} bytes -> {args.out}")
    return 0


def cmd_encode(args) -> int:
    circ = _load_circuit(args.circuit)
    keys = _keys_from_file(args.keys, circ)
    state = parse_state_tokens(args.input)
    if state.layout.total_bits != circ.num_inputs:
        raise CliError("input width differs from the circuit")
    encoded = encoding.encode(state, keys.schedule, circ.input_wires)
    _write_bin(args.out, netio.serialize_state(encoded))
    print(f"encoded {state.layout.total_bits} qubits at kappa={keys.kappa_bits} -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    bundle, params = netio.deserialize_bundle(_read_bin(args.bundle))
    state = netio.deserialize_state(_read_bin(args.state))
    out, stats = evaluate.eval_bundle(params, state, bundle)
    _write_bin(args.out, netio.serialize_state(out))
    line = stats.to_json()
    if args.stats:
        with open(args.stats, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    print(line)
    return 0


def cmd_decode(args) -> int:
    circ = _load_circuit(args.circuit)
    keys = _keys_from_file(args.keys, circ)
    result = netio.deserialize_state(_read_bin(args.result))
    decoded = delegation.decrypt(keys, circ, result)
    if args.out:
        _write_bin(args.out, netio.serialize_state(decoded))
    print(format_state(decoded))
    return 0


def cmd_delegate(args) -> int:
    circ = _load_circuit(args.circuit)
    state = parse_state_tokens(args.input)
    rng = derive_rng(args.seed, "delegate")
    keys = delegation.keygen(args.eta, circ.num_inputs, circ, rng,
                             conjecture=args.conjecture_1)
    params = _params_for(args, keys.kappa_bits)
    job = delegation.encrypt(params, keys, circ, state, rng)
    if args.endpoint:
        host, _, port = args.endpoint.rpartition(":")
        out, stats = netio.submit(host, int(port), job, params)
    elif args.dir:
        job_id = f"job-{args.seed}"
        netio.submit_file(args.dir, job_id, job, params)
        out, stats = netio.collect_result(args.dir, job_id, timeout=args.timeout)
    else:
        out, stats = delegation.run_job(params, job)
    decoded = delegation.decrypt(keys, circ, out)
    if args.out:
        _write_bin(args.out, netio.serialize_state(decoded))
    print(stats.to_json())
    print(format_state(decoded))
    return 0


def cmd_blind(args) -> int:
    circ = _load_circuit(args.circuit)
    state = parse_state_tokens(args.input)
    rng = derive_rng(args.seed, "blind")
    params = _params_for(args, delegation.required_kappa(args.eta, circ.num_inputs,
                                                         args.conjecture_1))
    res = delegation.blind_delegate(circ, state, args.lmax, args.dmax, args.eta, rng,
                                    params=params, conjecture=args.conjecture_1)
    machine = res.machine
    print(json.dumps({
        "interpreter_qubits": machine.circuit.num_inputs,
        "interpreter_gates": len(machine.circuit.gates),
        "slots": machine.slots,
        "code_width": machine.code_width,
        "stats": json.loads(res.stats.to_json()),
    }))
    print(format_state(res.output))
    return 0


def cmd_shor(args) -> int:
    rng = derive_rng(args.seed, "shor")
    factor, reports = delegation.shor_factor(args.M, args.eta, rng,
                                             attempts=args.attempts, base=args.a,
                                             conjecture=args.conjecture_1)
    for rep in reports:
        print(json.dumps({
            "modulus": rep.modulus, "base": rep.base, "measured": rep.measured,
            "period": rep.period, "factor": rep.factor,
            "encoding_cnots": rep.cost.encoding_cnots,
            "encoding_bound": rep.cost.encoding_bound,
            "qft_gates": rep.cost.qft_gates,
            "kappa": rep.cost.kappa_bits,
        }))
    if factor is None:
        print("no factor found; retry with a new seed")
        return 1
    print(f"factor {factor} (cofactor {args.M // factor})")
    return 0


def cmd_mixing_bound(args) -> int:
    rng = np.random.default_rng(derive_seed(args.seed, "mixing"))
    dim = 1 << (args.n + (1 if args.ref else 0))
    worst = 0.0
    bound = None
    for _ in range(args.states):
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vec /= np.linalg.norm(vec)
        rho = np.outer(vec, vec.conj())
        distance, bound = encoding.mixing_check(args.kappa, args.n, rho,
                                                ref_qubits=1 if args.ref else 0)
        worst = max(worst, distance)
    print(f"kappa={args.kappa} n={args.n} states={args.states} "
          f"max_distance={worst:.6g} bound={bound:.6g}")
    print("PASS: distance <= bound" if worst <= bound else "FAIL")
    return 0 if worst <= bound else 1


def cmd_security_test(args) -> int:
    rng = derive_rng(args.seed, f"security-{args.game}")
    circ = circuit.parse_circuit("inputs 3\ntoff 0 1 2\nphase 0 1\n")
    reports: dict[str, games.GameReport] = {}
    if args.game == "ind-cpa":
        for name, dist in [("constant", games.dist_constant),
                           ("tag-grinding", games.dist_tag_grinding),
                           ("row-frequency", games.dist_row_frequency),
                           ("encoded-parity", games.dist_encoded_parity)]:
            reports[name] = games.run_ind_cpa_gbc(dist, circ, args.kappa, args.trials, rng)
        reports["leaked-keys-control"] = games.run_ind_cpa_gbc(
            games.dist_leaked_decrypt, circ, args.kappa, args.trials, rng, leak_keys=True)
    elif args.game == "kdm":
        queries = games.self_cycle_queries(4, args.kappa)
        for name, dist in [("mask-equality", games.kdm_dist_mask_equality),
                           ("tag-grinding", games.kdm_dist_tag_grinding),
                           ("first-byte", games.kdm_dist_first_byte)]:
            reports[name] = games.run_kdm_game(queries, 4, dist, args.kappa,
                                               args.trials, rng)
        reports["pad-reuse-control"] = games.run_kdm_game(
            queries + [(0, games.AffineKeyFn((), bytes(args.kappa // 8)))], 4,
            games.kdm_dist_mask_equality, args.kappa, args.trials, rng, reuse_pads=True)
    elif args.game == "closure":
        pairs = games.circuit_pairs(circ)
        messages = [b""] * len(pairs)
        for name, revealed in [("revealed-none", []),
                               ("revealed-all", list(range(circ.num_wires)))]:
            reports[name] = games.run_closure_game(
                pairs, revealed, messages, games.closure_dist_masked_stats,
                circ.num_wires, args.kappa, args.trials, rng)
    elif args.game == "key-recovery":
        rate = games.key_recovery_experiment(circ, args.kappa, games.guess_random,
                                             args.trials, rng)
        print(json.dumps({"guesser": "random", "success_rate": rate}))
        rate = games.key_recovery_experiment(circ, 8, games.guess_brute_force,
                                             min(args.trials, 50), rng)
        print(json.dumps({"guesser": "brute-force-kappa8", "success_rate": rate}))
        return 0
    elif args.game == "qkdm":
        queries = games.self_cycle_queries(3, args.kappa)
        reports["padded-parity"] = games.run_qkdm_game(
            queries, 3, games.qkdm_dist_padded_parity, args.kappa, args.trials, rng)
    else:
        raise CliError(f"unknown game {args.game}")
    for name, rep in reports.items():
        print(json.dumps({"game": args.game, "distinguisher": name, **rep.to_dict()}))
    return 0


def cmd_serve(args) -> int:
    if args.dir:
        import threading
        stop = threading.Event()
        print(f"serving directory {args.dir} (ctrl-c to stop)")
        try:
            netio.serve_files(args.dir, stop)
        except KeyboardInterrupt:
            stop.set()
        return 0
    server = netio.serve(args.host, args.port)
    host, port = server.server_address
    print(f"serving on {host}:{port} (ctrl-c to stop)")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.shutdown()
        server.server_close()
    return 0


# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, *flags: str) -> None:
    p.add_argument("--seed", type=int, default=0)
    if "crypto" in flags:
        p.add_argument("--tag-len", type=int, default=128)
        p.add_argument("--oracle-seed", type=str, default=None,
                       help="hex; defaults to a seed-derived value")
        p.add_argument("--table-oracle", action="store_true")
    if "eta" in flags:
        p.add_argument("--eta", type=int, default=16)
        p.add_argument("--conjecture-1", action="store_true", dest="conjecture_1",
                       help="set kappa = eta instead of eta + 4*n_quantum")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="rgc", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="sample a key schedule for a circuit")
    p.add_argument("--circuit", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--nq", type=int, default=None, help="quantum input count")
    _add_common(p, "eta")
    p.set_defaults(fn=cmd_keygen)

    p = sub.add_parser("garble", help="build the garbled tables")
    p.add_argument("--circuit", required=True)
    p.add_argument("--keys", required=True)
    p.add_argument("--out", required=True)
    _add_common(p, "crypto")
    p.set_defaults(fn=cmd_garble)

    p = sub.add_parser("encode", help="encode an input state under the schedule")
    p.add_argument("--circuit", required=True)
    p.add_argument("--keys", required=True)
    p.add_argument("--input", required=True, help="one of 0/1/+/- per qubit")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("eval", help="evaluate a serialized job (server side)")
    p.add_argument("--bundle", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats", default=None, help="append a JSON-lines stats record")
    _add_common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("decode", help="decode an evaluated state")
    p.add_argument("--circuit", required=True)
    p.add_argument("--keys", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("delegate", help="full pipeline: encrypt, evaluate, decode")
    p.add_argument("--circuit", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--endpoint", default=None, help="host:port of a running server")
    p.add_argument("--dir", default=None, help="directory transport root")
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--out", default=None)
    _add_common(p, "eta", "crypto")
    p.set_defaults(fn=cmd_delegate)

    p = sub.add_parser("blind", help="delegate through the universal interpreter")
    p.add_argument("--circuit", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    _add_common(p, "eta", "crypto")
    p.set_defaults(fn=cmd_blind)

    p = sub.add_parser("shor", help="delegated factoring")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--attempts", type=int, default=10)
    _add_common(p, "eta")
    p.set_defaults(fn=cmd_shor)

    p = sub.add_parser("mixing-bound", help="exact encoding-mixing check at small kappa")
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--states", type=int, default=20)
    p.add_argument("--ref", action="store_true", help="attach a reference qubit")
    _add_common(p)
    p.set_defaults(fn=cmd_mixing_bound)

    p = sub.add_parser("security-test", help="run a security game suite")
    p.add_argument("--game", required=True,
                   choices=["ind-cpa", "kdm", "closure", "key-recovery", "qkdm"])
    p.add_argument("--kappa", type=int, default=16)
    p.add_argument("--trials", type=int, default=2000)
    _add_common(p)
    p.set_defaults(fn=cmd_security_test)

    p = sub.add_parser("serve", help="run the evaluation server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7801)
    p.add_argument("--dir", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_serve)

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, circuit.CircuitError, encoding.UnknownKeyError,
            evaluate.EvalError, netio.WireFormatError, netio.RemoteEvalError,
            delegation.SynthesisError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
