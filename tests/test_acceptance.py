"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.  Statistical checks use fixed seeds, so the suite is deterministic.
"""

import random
import time
from itertools import product

import numpy as np
import pytest
from scipy import stats as scipy_stats

from rgc import delegation, evaluate, games, garble, netio, sparse, symcrypt
from rgc.circuit import allocate_wires, parse_circuit, phase, random_circuit, simulate
from rgc.delegation import (blind_delegate, make_params, modexp_delegated_state,
                            modexp_direct_state, qkdm_dec, qkdm_enc, shor_factor,
                            synth_modexp_toffoli)
from rgc.encoding import cnot_cost, gen_keys, mixing_check
from rgc.sparse import fidelity, qubit_layout, random_state

from conftest import gate_keys, random_density


def _line(num: int, text: str) -> None:
    print(f"\ncriterion {num:2d}: PASS - {text}")


# ---------------------------------------------------------------------------
# shared end-to-end batch (criteria 1, 3, 11)

@pytest.fixture(scope="module")
def end_to_end_batch():
    rng = random.Random(0xE2E)
    runs = []
    start = time.monotonic()
    for i in range(200):
        n = rng.randint(1, 5)
        circ = random_circuit(rng, n, rng.randint(0, 15), max_denom_exp=3)
        keys = delegation.keygen(16, n, circ, rng, conjecture=True)   # kappa = 16
        params = make_params(16, oracle_seed=i.to_bytes(4, "little"))
        psi = random_state(qubit_layout(n), rng)
        out, stats = delegation.delegate(params, keys, circ, psi, rng)
        fid = fidelity(out, simulate(circ, psi))
        cost = cnot_cost(keys, circ.input_wires)
        runs.append({"circuit": circ, "keys": keys, "stats": stats,
                     "fidelity": fid, "cost": cost, "n": n})
    elapsed = time.monotonic() - start
    return runs, elapsed


def test_criterion_01_end_to_end_correctness(end_to_end_batch):
    runs, elapsed = end_to_end_batch
    assert len(runs) == 200
    worst = min(r["fidelity"] for r in runs)
    assert worst >= 1 - 1e-9, f"worst fidelity {worst}"
    assert elapsed <= 60.0, f"batch took {elapsed:.1f}s"
    _line(1, f"200 random circuits, worst fidelity {worst:.12f}, {elapsed:.1f}s")


def test_criterion_02_encoding_mixing_bound():
    start = time.monotonic()
    rng = np.random.default_rng(0x11A)
    # 20 states per kappa at N=1 (half with a reference qubit); identical
    # states across kappa so the per-step shrink factor is measurable
    states = ([(random_density(2, rng), 0) for _ in range(10)]
              + [(random_density(4, rng), 1) for _ in range(10)])
    distances = {}
    for kappa in (5, 6, 7):
        for idx, (rho, ref) in enumerate(states):
            distance, bound = mixing_check(kappa, 1, rho, ref_qubits=ref)
            assert distance <= bound, f"kappa={kappa} state {idx}"
            distances[(kappa, idx)] = distance
    for idx in range(len(states)):
        for lo, hi in ((5, 6), (6, 7)):
            ratio = distances[(lo, idx)] / distances[(hi, idx)]
            assert 1.8 <= ratio <= 2.2, f"state {idx}: shrink {ratio}"
    # two qubits at kappa=5: 10 key bits, inside the dense cap
    for _ in range(20):
        rho = random_density(4, rng)
        distance, bound = mixing_check(5, 2, rho)
        assert distance <= bound
    elapsed = time.monotonic() - start
    assert elapsed <= 300.0
    _line(2, f"exact mixing bound at kappa 5..7 (N=1) and kappa 5 (N=2), "
             f"shrink factor in [1.8, 2.2], {elapsed:.1f}s")


def test_criterion_03_reversibility_invariant(end_to_end_batch):
    from rgc.circuit import Toffoli

    runs, _ = end_to_end_batch
    # the evaluator asserts, per gate and distinct key triple, that the
    # backward row XORs the consumed registers to exactly zero; any violation
    # raises and criterion 1 would already have failed
    checks = sum(r["stats"].erasure_checks for r in runs)
    total_toffoli = sum(sum(isinstance(g, Toffoli) for g in r["circuit"].gates)
                        for r in runs)
    assert checks >= total_toffoli > 0   # at least one distinct triple per gate
    _line(3, f"zero erasure violations across {checks} per-triple checks "
             f"({total_toffoli} garbled gates)")


def test_criterion_04_phase_gate_exactness():
    rng = random.Random(0x9A5)
    worst = 1.0
    for d in (0, 1, 2, 3):
        circ = allocate_wires([phase(0, d)], 1)
        for _ in range(50):
            keys = delegation.keygen(16, 1, circ, rng, conjecture=True)
            params = make_params(16, oracle_seed=rng.randbytes(8))
            psi = random_state(qubit_layout(1), rng)
            out, _ = delegation.delegate(params, keys, circ, psi, rng)
            worst = min(worst, fidelity(out, simulate(circ, psi)))
    assert worst >= 1 - 1e-12
    _line(4, f"garbled R_Z(pi/2^d), d in 0..3, worst fidelity {worst:.15f}")


def test_criterion_05_toffoli_truth_table_oracle():
    params = make_params(16, oracle_seed=b"truth")
    rng = random.Random(0x705)
    circ = parse_circuit("inputs 3\ntoff 0 1 2\n")
    gate = circ.gates[0]
    tables_checked = 0
    for _ in range(25):
        schedule = gen_keys(16, circ, rng)
        in_pairs, out_pairs = gate_keys(circ, schedule)
        tables = garble.garble_toffoli(params, gate, in_pairs, out_pairs, rng)
        for u, v, w in product((0, 1), repeat=3):
            triple = (in_pairs[0][u], in_pairs[1][v], in_pairs[2][w])
            # eval_toffoli_term internally verifies backward(forward) == input
            got = evaluate.eval_toffoli_term(params, triple, tables)
            assert got == (out_pairs[0][u], out_pairs[1][v],
                           out_pairs[2][w ^ (u & v)])
        tables_checked += 1
    _line(5, f"(u,v,w)->(u,v,w^uv) plus backward-inverse on all 8 triples of "
             f"{tables_checked} garbled gates")


def test_criterion_06_crypto_soundness():
    params = make_params(16, tag_len_bits=128, oracle_seed=b"sound")
    rng = random.Random(0xC6)
    false_accepts = 0
    for i in range(10_000):
        sk = symcrypt.keygen(params, rng)
        m = rng.randbytes(6)
        ct = symcrypt.kdm_enc(params, sk, m, rng)
        assert symcrypt.kdm_dec(params, sk, ct) == m
        other = symcrypt.keygen(params, rng)
        if other != sk and symcrypt.kdm_ver(params, other, symcrypt.split_row(params, ct)[2][0]):
            false_accepts += 1
        keys = [symcrypt.keygen(params, rng) for _ in range(3)]
        tct = symcrypt.triple_enc(params, *keys, m, rng)
        assert symcrypt.triple_dec(params, *keys, tct) == m
        if other not in keys and symcrypt.triple_ver(params, other, 1, tct):
            false_accepts += 1
    assert false_accepts == 0

    table = make_params(16, table_mode=True, table_seed=0xC6C6)
    sk = symcrypt.keygen(table, rng)
    observed = [0] * 256
    for _ in range(10_000):
        observed[symcrypt.split_row(table, symcrypt.kdm_enc(table, sk, b"\x00", rng))[1][0]] += 1
    pvalue = scipy_stats.chisquare(observed).pvalue
    assert pvalue > 0.01
    _line(6, f"10^4 + 10^4 roundtrips, 0 tag false-accepts at tag_len=128, "
             f"mask uniformity p={pvalue:.3f}")


def test_criterion_07_shor_delegation():
    start = time.monotonic()
    factors = {}
    for modulus, seed in ((15, 0x5707), (21, 0x5721)):
        factor, reports = shor_factor(modulus, 16, random.Random(seed), attempts=10)
        assert factor is not None and modulus % factor == 0 and 1 < factor < modulus
        factors[modulus] = (factor, len(reports))

    # distribution agreement: 500 samples each from the delegated and the
    # direct run of the identical circuit, compared with a G-test
    pvalues = {}
    for modulus, base, seed in ((15, 7, 1), (21, 2, 2)):
        mx = synth_modexp_toffoli(modulus, base)
        delegated, _, _ = modexp_delegated_state(mx, 16, random.Random(seed))
        direct = modexp_direct_state(mx)
        dq = sparse.qft(delegated, "exp")
        rq = sparse.qft(direct, "exp")
        assert fidelity(dq, rq) >= 1 - 1e-9
        counts_d = sparse.sample_counts(dq, 500, random.Random(seed + 10), "exp")
        counts_r = sparse.sample_counts(rq, 500, random.Random(seed + 20), "exp")
        outcomes = sorted(set(counts_d) | set(counts_r))
        contingency = np.array([[counts_d.get(o, 0) for o in outcomes],
                                [counts_r.get(o, 0) for o in outcomes]])
        contingency = contingency[:, contingency.sum(axis=0) > 0]
        pvalue = scipy_stats.chi2_contingency(contingency,
                                              lambda_="log-likelihood")[1]
        assert pvalue > 0.01, f"M={modulus}: G-test p={pvalue}"
        pvalues[modulus] = pvalue
    elapsed = time.monotonic() - start
    assert elapsed <= 600.0
    _line(7, f"factors {factors[15][0]} (M=15) and {factors[21][0]} (M=21); "
             f"G-test p: {pvalues[15]:.3f}, {pvalues[21]:.3f}; {elapsed:.1f}s")


def test_criterion_08_blind_computation():
    rng = random.Random(0xB11D)
    skeletons = set()
    worst = 1.0
    for i in range(50):
        n = rng.randint(1, 3)
        circ = random_circuit(rng, n, rng.randint(0, 4), max_denom_exp=3)
        psi = random_state(qubit_layout(n), rng)
        res = blind_delegate(circ, psi, 4, 3, 16, rng)
        worst = min(worst, fidelity(res.output, simulate(circ, psi)))
        if n == 3:
            skeletons.add(netio.serialize_circuit(res.job.garbled.skeleton))
    assert worst >= 1 - 1e-9, f"worst blind fidelity {worst}"
    assert len(skeletons) == 1, "same-shape programs must share one skeleton"
    _line(8, f"50 blind delegations, worst fidelity {worst:.12f}, "
             f"single shared interpreter skeleton")


def test_criterion_09_security_games():
    circ = parse_circuit("inputs 3\ntoff 0 1 2\nphase 0 1\n")
    trials = 2000
    blind_reports = {}

    rng = random.Random(0x5E1)
    for name, dist in (("tag-grinding", games.dist_tag_grinding),
                       ("row-frequency", games.dist_row_frequency),
                       ("encoded-parity", games.dist_encoded_parity),
                       ("constant", games.dist_constant)):
        rep = games.run_ind_cpa_gbc(dist, circ, 16, trials, rng)
        assert rep.advantage_estimate <= max(rep.confidence_radius, 1e-9), \
            f"ind-cpa {name}: {rep.advantage_estimate} > {rep.confidence_radius}"
        blind_reports[f"ind-cpa/{name}"] = rep

    queries = games.self_cycle_queries(4, 16) + [
        (0, games.AffineKeyFn((1, 2), b"\x3c\x5a")),
        (3, games.AffineKeyFn((0, 1, 2, 3), bytes(2)))]
    for name, dist in (("mask-equality", games.kdm_dist_mask_equality),
                       ("tag-grinding", games.kdm_dist_tag_grinding),
                       ("first-byte", games.kdm_dist_first_byte)):
        rep = games.run_kdm_game(queries, 4, dist, 16, trials, rng)
        assert rep.advantage_estimate <= max(rep.confidence_radius, 1e-9), \
            f"kdm {name}: {rep.advantage_estimate} > {rep.confidence_radius}"
        blind_reports[f"kdm/{name}"] = rep

    pairs = games.circuit_pairs(circ) + [((0,), ())]
    messages = [b""] * (len(pairs) - 1) + [b"\x01\x02"]
    for name, dist in (("masked-stats", games.closure_dist_masked_stats),
                       ("revealed-decrypt", games.closure_dist_revealed_decrypt)):
        rep = games.run_closure_game(pairs, [], messages, dist, circ.num_wires,
                                     16, trials, rng)
        assert rep.advantage_estimate <= max(rep.confidence_radius, 1e-9), \
            f"closure {name}"
        blind_reports[f"closure/{name}"] = rep
    exact = games.run_closure_game(pairs, list(range(circ.num_wires)), messages,
                                   games.closure_dist_masked_stats, circ.num_wires,
                                   16, 200, rng)
    assert exact.advantage_estimate == 0.0

    # positive controls: the harness must notice real breaks
    leaked = games.run_ind_cpa_gbc(games.dist_leaked_decrypt, circ, 16, 400, rng,
                                   leak_keys=True)
    assert leaked.advantage_estimate >= 0.9
    reused = games.run_kdm_game(queries, 4, games.kdm_dist_mask_equality, 16, 400,
                                rng, reuse_pads=True)
    assert reused.advantage_estimate >= 0.9
    brute = games.key_recovery_experiment(circ, 8, games.guess_brute_force, 30,
                                          rng)
    assert brute >= 0.9
    honest = games.key_recovery_experiment(circ, 16, games.guess_random, 300, rng)
    assert honest == 0.0

    worst = max(r.advantage_estimate for r in blind_reports.values())
    _line(9, f"{len(blind_reports)} generic distinguishers <= 95% radius at "
             f"{trials} trials (worst {worst:.4f}); positive controls: leaked "
             f"{leaked.advantage_estimate:.2f}, pad-reuse "
             f"{reused.advantage_estimate:.2f}, brute-force {brute:.2f}")


def test_criterion_10_pauli_pad_mixing():
    params = make_params(16, oracle_seed=b"qotp")
    rng = random.Random(0xA0)
    lay = qubit_layout(3)       # 3 padded bits: 64 (a,b) pairs, enumerable
    psi = random_state(lay, rng)
    padded = [sparse.pauli_frame(psi, a, b) for a in range(8) for b in range(8)]
    rho = sparse.density_average(padded)
    mixed = np.eye(8, dtype=complex) / 8
    distance = sparse.trace_distance(rho, mixed)
    assert distance < 1e-12

    worst = 1.0
    for _ in range(100):
        sk = symcrypt.keygen(params, rng)
        state = random_state(lay, rng)
        worst = min(worst, fidelity(qkdm_dec(params, sk,
                                             qkdm_enc(params, sk, state, rng)), state))
    assert worst >= 1 - 1e-12
    _line(10, f"exact pad average {distance:.2e} from maximally mixed; "
              f"roundtrip fidelity {worst:.15f}")


def test_criterion_11_cost_accounting(end_to_end_batch):
    runs, _ = end_to_end_batch
    for r in runs:
        assert r["cost"].cnot_count <= r["keys"].kappa_bits * r["n"]
    rep = delegation.shor_delegate(15, 7, 16, random.Random(0x11C))
    assert rep.cost.encoding_cnots <= rep.cost.encoding_bound
    assert rep.cost.encoding_bound == rep.cost.kappa_bits * rep.cost.n_quantum
    assert rep.cost.qft_gates > 0 and rep.cost.qft_gates != rep.cost.encoding_cnots
    _line(11, f"encoding CNOTs <= kappa*N_q on all 200 runs; Shor report splits "
              f"{rep.cost.encoding_cnots} encoding CNOTs from "
              f"{rep.cost.qft_gates} QFT gates")


def test_criterion_12_serialization_and_transport():
    rng = random.Random(0x5E12)
    circ = random_circuit(rng, 3, 4, max_denom_exp=3)
    keys = delegation.keygen(16, 3, circ, rng, conjecture=True)
    params = make_params(16, oracle_seed=b"wire12")
    psi = random_state(qubit_layout(3), rng)
    job = delegation.encrypt(params, keys, circ, psi, rng)

    assert netio.deserialize_schedule(netio.serialize_schedule(keys)) == keys
    assert netio.deserialize_circuit(netio.serialize_circuit(circ)) == circ
    state_bytes = netio.serialize_state(job.encoded_state)
    assert netio.deserialize_state(state_bytes) == job.encoded_state
    job_bytes = netio.serialize_job(job, params)
    job2, params2 = netio.deserialize_job(job_bytes)
    assert job2 == job and netio.serialize_job(job2, params2) == job_bytes
    report = games.GameReport(10, 0.1, 0.05, 99, 0.55, 0.45)
    assert netio.deserialize_report(netio.serialize_report(report)) == report

    server = netio.serve("127.0.0.1", 0)
    try:
        host, port = server.server_address
        sock_state, sock_stats = netio.submit(host, port, job, params)
    finally:
        server.shutdown()
        server.server_close()
    import tempfile
    with tempfile.TemporaryDirectory() as root:
        netio.submit_file(root, "acc", job, params)
        netio.serve_files_once(root)
        file_state, file_stats = netio.collect_result(root, "acc")
    sock_bytes = netio.serialize_result(sock_state, sock_stats)
    file_bytes = netio.serialize_result(file_state, file_stats)
    assert sock_bytes == file_bytes
    decoded = delegation.decrypt(keys, circ, sock_state)
    assert fidelity(decoded, simulate(circ, psi)) >= 1 - 1e-9
    _line(12, "all artifact roundtrips exact; socket and file transports "
              "byte-identical")
