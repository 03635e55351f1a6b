import dataclasses
import hashlib
import random
from statistics import NormalDist

import pytest

from rgc.circuit import flipped_wires, parse_circuit, simulate
from rgc.encoding import decode, encode, gen_keys
from rgc.evaluate import eval_bundle
from rgc.garble import garble_circuit
from rgc.games import (AffineKeyFn, GameReport, _sort_headers, circuit_pairs,
                       closure_dist_masked_stats, closure_dist_revealed_decrypt, dist_constant, dist_constant_key,
                       dist_encoded_parity, dist_header_order, dist_leaked_decrypt,
                       dist_random,
                       dist_row_frequency, dist_tag_grinding, guess_brute_force,
                       guess_random, guess_replay, kdm_dist_first_byte,
                       kdm_dist_mask_equality, kdm_dist_tag_grinding,
                       key_recovery_experiment, qkdm_dist_padded_parity,
                       row_kdm_dist_first_byte, row_kdm_dist_mask_equality,
                       run_closure_game, run_ind_cpa_gbc, run_kdm_game,
                       run_qkdm_game, run_row_kdm_game, self_cycle_queries,
                       toffoli_cycle_queries)
from rgc.netio import serialize_report
from rgc.sparse import fidelity

from conftest import input_state, make_params

GAME_CIRCUIT = parse_circuit("inputs 3\ntoff 0 1 2\nphase 0 1\n")
# X on an input before its first Toffoli, between two phase gates on one
# wire, and on an output wire
X_CIRCUIT = parse_circuit("inputs 3\nx 0\ntoff 0 1 2\nphase 1 1\nx 1\nphase 1 2\n"
                          "x 2\n")
TRIALS = 800


def assert_blind(reports: dict[str, GameReport]) -> None:
    """Each report's radius is a 95% check on its own; checking several in
    one test widens every radius by a Bonferroni margin, so the chance that
    a blind family fails somewhere stays at most 5%."""
    z = NormalDist().inv_cdf
    margin = z(1 - 0.025 / len(reports)) / z(0.975)
    for name, report in reports.items():
        assert report.advantage_estimate <= max(margin * report.confidence_radius, 1e-9), name


def test_ind_cpa_constant_guess_is_blind():
    report = run_ind_cpa_gbc(dist_constant, GAME_CIRCUIT, 16, TRIALS, random.Random(1))
    assert report.advantage_estimate <= report.confidence_radius
    assert report.trials == TRIALS


def test_ind_cpa_generic_distinguishers_blind():
    rng = random.Random(2)
    assert_blind({dist.__name__: run_ind_cpa_gbc(dist, GAME_CIRCUIT, 16, TRIALS, rng)
                  for dist in (dist_random, dist_tag_grinding, dist_row_frequency,
                               dist_encoded_parity, dist_header_order)})


def test_ind_cpa_sorted_headers_are_detected():
    # positive control: headers listing each slot's keys by logical value
    # put the all-ones input's row last and the all-zero input's first
    for circ, seed in ((GAME_CIRCUIT, 35), (CONST_CIRCUIT, 36)):
        report = run_ind_cpa_gbc(dist_header_order, circ, 16, 200, random.Random(seed),
                                 sorted_headers=True)
        assert report.advantage_estimate == 1.0


def test_sorted_headers_still_evaluate():
    # the rig moves every row and masks it under its new index, so what the
    # control detects is the header order alone, not a broken bundle
    for circ in (GAME_CIRCUIT, X_CIRCUIT, CONST_CIRCUIT):
        params, rng = make_params(), random.Random(37)
        schedule = gen_keys(16, circ, rng)
        bundle = _sort_headers(params, circ, schedule, garble_circuit(params, circ, schedule, rng))
        state = input_state(circ, [q for q in range(circ.num_inputs)
                                   if q not in circ.const_qubits], rng)
        out, _ = eval_bundle(params, encode(state, schedule, circ.input_wires), bundle)
        decoded = decode(out, schedule, circ.output_wires, flipped_wires(circ))
        assert fidelity(decoded, simulate(circ, state)) >= 1 - 1e-12


def test_ind_cpa_leaked_keys_break_everything():
    report = run_ind_cpa_gbc(dist_leaked_decrypt, GAME_CIRCUIT, 16, 100,
                             random.Random(3), leak_keys=True)
    assert report.advantage_estimate >= 0.9


def test_ind_cpa_counts_oracle_queries():
    report = run_ind_cpa_gbc(dist_constant, GAME_CIRCUIT, 16, 10, random.Random(4))
    assert report.oracle_queries_used > 0


def test_kdm_self_cycles_blind():
    rng = random.Random(5)
    queries = self_cycle_queries(4, 16)
    assert_blind({dist.__name__: run_kdm_game(queries, 4, dist, 16, TRIALS, rng)
                  for dist in (kdm_dist_mask_equality, kdm_dist_tag_grinding,
                               kdm_dist_first_byte)})


def test_kdm_affine_functions_blind():
    rng = random.Random(6)
    queries = [(0, AffineKeyFn((1, 2), b"\x55\xaa")),
               (1, AffineKeyFn((0,), b"\x00\x00")),
               (2, AffineKeyFn((), b"\xff\xff"))]
    report = run_kdm_game(queries, 3, kdm_dist_mask_equality, 16, TRIALS, rng)
    assert report.advantage_estimate <= max(report.confidence_radius, 1e-9)


def test_kdm_pad_reuse_detected():
    # negative control: a deliberately broken scheme must light up
    rng = random.Random(7)
    queries = self_cycle_queries(2, 16) + [(0, AffineKeyFn((), bytes(2)))]
    report = run_kdm_game(queries, 2, kdm_dist_mask_equality, 16, 200, rng,
                          reuse_pads=True)
    assert report.advantage_estimate >= 0.9


def test_row_kdm_toffoli_cycles_blind():
    # two Toffolis on one input triple: each table's rows encrypt its other
    # side's keys, and the two forward tables share keys and row indices
    rng = random.Random(38)
    assert_blind({dist.__name__: run_row_kdm_game(toffoli_cycle_queries(2), 18, dist, 16,
                                                  TRIALS, rng)
                  for dist in (row_kdm_dist_mask_equality, row_kdm_dist_first_byte)})


def test_row_kdm_nonce_reuse_detected():
    # positive control: one nonce for every table gives the two forward
    # tables' rows of one index one mask, so rows of zeros coincide
    report = run_row_kdm_game(toffoli_cycle_queries(2), 18, row_kdm_dist_mask_equality, 16,
                              200, random.Random(39), reuse_nonces=True)
    assert report.advantage_estimate >= 0.9


def test_toffoli_cycle_queries_are_a_key_cycle():
    queries = toffoli_cycle_queries(1)
    assert len(queries) == 16
    forward = {(q.sources, q.targets) for q in queries if q.table == 0}
    backward = {(q.targets, q.sources) for q in queries if q.table == 1}
    assert forward == backward and len(forward) == 8
    for table in (0, 1):
        assert sorted(q.index for q in queries if q.table == table) == list(range(8))


def test_closure_reveal_everything_exactly_zero():
    pairs = circuit_pairs(GAME_CIRCUIT)
    messages = [b""] * len(pairs)
    report = run_closure_game(pairs, list(range(GAME_CIRCUIT.num_wires)), messages,
                              closure_dist_masked_stats, GAME_CIRCUIT.num_wires, 16,
                              200, random.Random(8))
    assert report.advantage_estimate == 0.0


def test_closure_covered_sources_encrypt_real_payloads():
    # sources inside the closure get real payloads on both branches, so a
    # decrypting distinguisher still sees identical worlds
    pairs = [((0,), ()), ((1, 2, 3), (4, 5, 6))]
    messages = [b"mm", b""]
    report = run_closure_game(pairs, [0, 1, 2, 3], messages,
                              closure_dist_revealed_decrypt, 7, 16, 200,
                              random.Random(9))
    assert report.advantage_estimate == 0.0


def test_closure_hidden_sources_blind():
    pairs = circuit_pairs(GAME_CIRCUIT) + [((0,), ())]
    messages = [b""] * (len(pairs) - 1) + [b"\x01\x02"]
    report = run_closure_game(pairs, [], messages, closure_dist_masked_stats,
                              GAME_CIRCUIT.num_wires, 16, TRIALS, random.Random(10))
    assert report.advantage_estimate <= max(report.confidence_radius, 1e-9)


def test_closure_pair_validation():
    with pytest.raises(ValueError):
        run_closure_game([((0, 1), ())], [], [b"m"], closure_dist_masked_stats,
                         3, 16, 10, random.Random(11))
    with pytest.raises(ValueError):
        run_closure_game([((0,), (1,))], [], [b"m"], closure_dist_masked_stats,
                         3, 16, 10, random.Random(12))


def test_key_recovery_random_guess_fails():
    rate = key_recovery_experiment(GAME_CIRCUIT, 16, guess_random, 400,
                                   random.Random(13))
    assert rate == 0.0


def test_key_recovery_replay_fails():
    rate = key_recovery_experiment(GAME_CIRCUIT, 16, guess_replay, 50,
                                   random.Random(14))
    assert rate == 0.0


def test_key_recovery_needs_distinct_target():
    # with every input a public constant, the target is the revealed input
    with pytest.raises(ValueError, match="no target input differs"):
        key_recovery_experiment(parse_circuit("inputs 1\nconst 0\n"), 16, guess_replay, 1,
                                random.Random(16))


def test_key_recovery_brute_force_succeeds_at_byte_keys():
    rate = key_recovery_experiment(GAME_CIRCUIT, 8, guess_brute_force, 30,
                                   random.Random(15))
    assert rate >= 0.9


def test_qkdm_game_blind():
    report = run_qkdm_game(self_cycle_queries(3, 16), 3, qkdm_dist_padded_parity,
                           16, TRIALS, random.Random(17))
    assert report.advantage_estimate <= max(report.confidence_radius, 1e-9)


def test_report_shape():
    report = run_ind_cpa_gbc(dist_constant, GAME_CIRCUIT, 16, 50, random.Random(18))
    d = dataclasses.asdict(report)
    assert set(d) == {"trials", "advantage_estimate", "confidence_radius",
                      "oracle_queries_used", "p1", "p0"}
    assert report.advantage_estimate <= 1.0


# ---------------------------------------------------------------------------
# the same games on a circuit with X gates, which garble into key relabelings

def test_ind_cpa_generic_distinguishers_blind_with_x():
    rng = random.Random(19)
    assert_blind({dist.__name__: run_ind_cpa_gbc(dist, X_CIRCUIT, 16, TRIALS, rng)
                  for dist in (dist_constant, dist_random, dist_tag_grinding, dist_row_frequency,
                               dist_encoded_parity, dist_header_order)})


def test_ind_cpa_leaked_keys_break_everything_with_x():
    report = run_ind_cpa_gbc(dist_leaked_decrypt, X_CIRCUIT, 16, 100,
                             random.Random(20), leak_keys=True)
    assert report.advantage_estimate >= 0.9


def test_key_recovery_guessers_with_x():
    assert key_recovery_experiment(X_CIRCUIT, 16, guess_random, 400,
                                   random.Random(21)) == 0.0
    assert key_recovery_experiment(X_CIRCUIT, 16, guess_replay, 50,
                                   random.Random(22)) == 0.0
    # positive control; its tag checks walk the skeleton, whose tables skip
    # the X gates
    assert key_recovery_experiment(X_CIRCUIT, 8, guess_brute_force, 30,
                                   random.Random(23)) >= 0.9


# ---------------------------------------------------------------------------
# the same games on a circuit with public constants, whose Toffolis carry
# half tables: constant first control, constant second control, two constant
# controls, and none

CONST_CIRCUIT = parse_circuit("inputs 5\nconst 0\nconst 4\ntoff 0 1 2\ntoff 2 0 3\n"
                              "toff 0 4 1\ntoff 1 2 3\nphase 3 1\n")


def test_const_circuit_has_half_tables():
    bundle = garble_circuit(make_params(), CONST_CIRCUIT,
                            gen_keys(16, CONST_CIRCUIT, random.Random(24)), random.Random(25))
    assert [len(t.forward.rows) for t in bundle.tables[:4]] == [4, 4, 2, 8]


def test_ind_cpa_generic_distinguishers_blind_with_constants():
    # both challenges hold the constants at 1, so the held constant keys
    # open rows in both worlds
    rng = random.Random(26)
    assert_blind({dist.__name__: run_ind_cpa_gbc(dist, CONST_CIRCUIT, 16, TRIALS, rng)
                  for dist in (dist_constant, dist_random, dist_tag_grinding, dist_row_frequency,
                               dist_encoded_parity, dist_constant_key, dist_header_order)})


def test_ind_cpa_leaked_keys_break_everything_with_constants():
    report = run_ind_cpa_gbc(dist_leaked_decrypt, CONST_CIRCUIT, 16, 100,
                             random.Random(27), leak_keys=True)
    assert report.advantage_estimate >= 0.9


def test_ind_cpa_misdeclared_constant_is_detected():
    # positive control: a secret bit declared constant holds 0 in one world,
    # and its 0 key opens none of the half tables' rows
    report = run_ind_cpa_gbc(dist_constant_key, CONST_CIRCUIT, 16, 200,
                             random.Random(28), misdeclared_constants=True)
    assert report.advantage_estimate >= 0.9


def test_key_recovery_guessers_with_constants():
    assert key_recovery_experiment(CONST_CIRCUIT, 16, guess_random, 400,
                                   random.Random(29)) == 0.0
    assert key_recovery_experiment(CONST_CIRCUIT, 16, guess_replay, 50,
                                   random.Random(30)) == 0.0
    # positive control; every non-constant input's keys are tag-checked
    # through a half table or a full one
    assert key_recovery_experiment(CONST_CIRCUIT, 8, guess_brute_force, 30,
                                   random.Random(31)) >= 0.9


def test_closure_game_with_constants():
    # the server holds every constant wire's key; that alone opens nothing
    pairs = circuit_pairs(CONST_CIRCUIT)
    consts = [CONST_CIRCUIT.input_wires[q] for q in CONST_CIRCUIT.const_qubits]
    hidden = run_closure_game(pairs, consts, [b""] * len(pairs), closure_dist_masked_stats,
                              CONST_CIRCUIT.num_wires, 16, TRIALS, random.Random(33))
    assert hidden.advantage_estimate <= max(hidden.confidence_radius, 1e-9)
    inputs = run_closure_game(pairs, list(CONST_CIRCUIT.input_wires), [b""] * len(pairs),
                              closure_dist_masked_stats, CONST_CIRCUIT.num_wires, 16, 200,
                              random.Random(34))
    assert inputs.advantage_estimate == 0.0


# ---------------------------------------------------------------------------
# every game runner, distinguisher and positive control at fixed seeds: the
# reports must stay bit-identical through any refactor of the game loops

def test_game_reports_are_pinned():
    digest = hashlib.blake2b()
    reports = []

    def play(game, *args, **kwargs):
        report = game(*args, random.Random(100 + len(reports)), **kwargs)
        reports.append(report)
        digest.update(serialize_report(report))

    for circ in (GAME_CIRCUIT, X_CIRCUIT, CONST_CIRCUIT):
        for dist in (dist_constant, dist_random, dist_tag_grinding, dist_row_frequency,
                     dist_encoded_parity, dist_constant_key, dist_header_order):
            play(run_ind_cpa_gbc, dist, circ, 16, 20)
        play(run_ind_cpa_gbc, dist_leaked_decrypt, circ, 16, 20, leak_keys=True)
    play(run_ind_cpa_gbc, dist_constant_key, CONST_CIRCUIT, 16, 20,
         misdeclared_constants=True)
    play(run_ind_cpa_gbc, dist_header_order, CONST_CIRCUIT, 16, 20, sorted_headers=True)
    play(run_ind_cpa_gbc, dist_row_frequency, GAME_CIRCUIT, 16, 20, table_oracle=False)
    queries = self_cycle_queries(2, 16) + [(0, AffineKeyFn((1,), b"\x55\xaa"))]
    for dist in (kdm_dist_mask_equality, kdm_dist_tag_grinding, kdm_dist_first_byte):
        play(run_kdm_game, queries, 2, dist, 16, 20)
    play(run_kdm_game, queries, 2, kdm_dist_mask_equality, 16, 20, reuse_pads=True)
    pairs = circuit_pairs(CONST_CIRCUIT) + [((0,), ()), ((1,), ())]
    messages = [b""] * (len(pairs) - 2) + [b"\x01\x02", b"\x03"]
    for dist in (closure_dist_masked_stats, closure_dist_revealed_decrypt):
        play(run_closure_game, pairs, [0], messages, dist, CONST_CIRCUIT.num_wires, 16, 20)
    play(run_qkdm_game, queries, 2, qkdm_dist_padded_parity, 16, 20)
    for dist in (row_kdm_dist_mask_equality, row_kdm_dist_first_byte):
        play(run_row_kdm_game, toffoli_cycle_queries(2), 18, dist, 16, 20)
    play(run_row_kdm_game, toffoli_cycle_queries(2), 18, row_kdm_dist_mask_equality, 16, 20,
         reuse_nonces=True)
    assert len(reports) == 37 and all(r.trials == 20 for r in reports)
    assert digest.hexdigest() == (
        "81f954a0a47ceb086947c90a0a3e037ed23cdf563ba52f9b8ad2a31d9d479744"
        "ad660ba40e65dc7a215aaeaa4d6b99c504c00d7cc26f85a732bcbc1a9f567d3d")
