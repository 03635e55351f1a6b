import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rgc import evaluate, netio, sparse, symcrypt
from rgc.circuit import (CircuitError, Toffoli, X, allocate_wires, parse_circuit, phase,
                         random_circuit, simulate)
from rgc.delegation import (blind_delegate, decrypt, delegate, encrypt,
                            factor_from_period, keygen, make_params,
                            modexp_delegated_state, modexp_direct_state,
                            period_from_sample, qkdm_dec, qkdm_enc,
                            required_kappa, shor_delegate, shor_factor,
                            synth_modexp_toffoli, SynthesisError)
from rgc.circuit import eval_classical
from rgc.sparse import basis_state, fidelity, qubit_layout, random_state

from conftest import circuits_and_states, input_state


def test_delegate_refuses_a_phase_exponent_above_the_bound():
    # in-process delegation and the server refuse the same circuits
    rng = random.Random(31)
    params = make_params(16, oracle_seed=b"bound")
    psi = random_state(qubit_layout(1), rng)
    circ = allocate_wires([phase(0, 16)], 1)
    out, _ = delegate(params, keygen(16, 1, circ, rng, conjecture=True), circ, psi, rng)
    assert fidelity(out, simulate(circ, psi)) >= 1 - 1e-9
    with pytest.raises(CircuitError, match="phase exponent 17"):
        circ = allocate_wires([phase(0, 17)], 1)
        delegate(params, keygen(16, 1, circ, rng, conjecture=True), circ, psi, rng)


def test_kappa_formula():
    assert required_kappa(16, 2) == 24
    assert required_kappa(16, 2, conjecture=True) == 16
    assert required_kappa(15, 1) == 24      # 19 rounds up to the next byte


def test_keygen_covers_all_wires():
    circ = parse_circuit("inputs 3\ntoff 0 1 2\ntoff 0 1 2\n")
    keys = keygen(16, 3, circ, random.Random(1))
    assert keys.kappa_bits == 32            # 16 + 4*3 = 28, rounded up to a byte
    assert keys.schedule.num_wires == circ.num_wires


def test_classical_input_single_term():
    circ = parse_circuit("inputs 2\nphase 0 1\n")
    rng = random.Random(2)
    keys = keygen(16, 0, circ, rng)
    params = make_params(keys.kappa_bits, oracle_seed=b"t")
    job = encrypt(params, keys, circ, basis_state(qubit_layout(2), 0b10), rng)
    assert job.encoded_state.num_terms() == 1


def test_generic_two_qubit_input_four_terms():
    circ = parse_circuit("inputs 2\nphase 0 1\n")
    rng = random.Random(3)
    keys = keygen(16, 2, circ, rng)
    params = make_params(keys.kappa_bits, oracle_seed=b"t")
    state = random_state(qubit_layout(2), rng)
    job = encrypt(params, keys, circ, state, rng)
    assert job.encoded_state.num_terms() == 4


def test_end_to_end_random_circuits():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(1, 5)
        circ = random_circuit(rng, n, rng.randint(0, 15), max_denom_exp=3)
        keys = keygen(16, n, circ, rng, conjecture=True)
        params = make_params(16, oracle_seed=rng.randbytes(8))
        psi = random_state(qubit_layout(n), rng)
        out, stats = delegate(params, keys, circ, psi, rng)
        assert fidelity(out, simulate(circ, psi)) >= 1 - 1e-9
        assert stats.gates == len(circ.gates)


def test_decrypt_rejects_foreign_result():
    circ = parse_circuit("inputs 3\ntoff 0 1 2\n")
    rng = random.Random(5)
    keys = keygen(16, 3, circ, rng, conjecture=True)
    other = keygen(16, 3, circ, rng, conjecture=True)
    params = make_params(16, oracle_seed=b"x")
    job = encrypt(params, keys, circ, basis_state(qubit_layout(3), 5), rng)
    out, _ = evaluate.eval_bundle(params, job.encoded_state, job.garbled)
    with pytest.raises(Exception):
        decrypt(other, circ, out)


# blind delegation ------------------------------------------------------------

def test_blind_identity_vs_z_on_plus():
    rng = random.Random(6)
    plus = sparse.from_terms(qubit_layout(1), {0: 1 / math.sqrt(2), 1: 1 / math.sqrt(2)})
    ident = allocate_wires([], 1)
    z_gate = parse_circuit("inputs 1\nphase 0 0\n")
    res_i = blind_delegate(ident, plus, 1, 1, 16, random.Random(7))
    res_z = blind_delegate(z_gate, plus, 1, 1, 16, random.Random(7))
    assert res_i.machine.circuit == res_z.machine.circuit
    assert fidelity(res_i.output, plus) >= 1 - 1e-9
    assert fidelity(res_z.output, simulate(z_gate, plus)) >= 1 - 1e-9
    assert fidelity(res_z.output, plus) == pytest.approx(0.0, abs=1e-9)


def test_blind_description_wires_are_classical():
    rng = random.Random(8)
    circ = parse_circuit("inputs 2\nphase 1 1\n")
    state = random_state(qubit_layout(2), rng)
    res = blind_delegate(circ, state, 2, 2, 16, rng)
    # only the data qubits superpose: term count equals the input's
    assert res.job.encoded_state.num_terms() == state.num_terms()


def test_blind_equal_shape_circuits_same_skeleton():
    rng = random.Random(9)
    c1 = random_circuit(random.Random(100), 2, 2, max_denom_exp=2)
    c2 = random_circuit(random.Random(200), 2, 1, max_denom_exp=2)
    r1 = blind_delegate(c1, basis_state(qubit_layout(2), 0), 2, 2, 16, rng)
    r2 = blind_delegate(c2, basis_state(qubit_layout(2), 0), 2, 2, 16, rng)
    assert r1.job.garbled.skeleton == r2.job.garbled.skeleton
    assert netio.serialize_circuit(r1.job.garbled.skeleton) == \
        netio.serialize_circuit(r2.job.garbled.skeleton)


# modular exponentiation ------------------------------------------------------

def test_modexp_base_one_is_constant():
    mx = synth_modexp_toffoli(15, 1)
    assert len(mx.circuit.gates) == 0
    rest = mx.initial_rest()
    for x in (0, 3, 250):
        out = eval_classical(mx.circuit, rest | x)
        assert mx.state_layout.extract(out, "acc") == 1


def _assert_modexp_table(mx):
    """For every exponent: exp kept, acc = base^exp mod M, ancillas 0, const 1."""
    rest = mx.initial_rest()
    for e in range(1 << mx.n_exp):
        out = eval_classical(mx.circuit, rest | e)
        assert mx.state_layout.extract(out, "exp") == e
        assert mx.state_layout.extract(out, "acc") == pow(mx.base, e, mx.modulus)
        assert all(not (out >> q) & 1 for q in mx.anc_qubits)
        assert mx.state_layout.extract(out, "const") == 1


@pytest.mark.parametrize("modulus, base", [(15, 7), (15, 2), (21, 2), (21, 5)])
def test_modexp_truth_table_exhaustive(modulus, base):
    _assert_modexp_table(synth_modexp_toffoli(modulus, base))


_COPRIME = [(m, a) for m in range(3, 65) for a in range(2, m) if math.gcd(a, m) == 1]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_COPRIME))
@example((3, 2))
@example((64, 27))
def test_modexp_truth_table_every_ladder_width(case):
    # M from 3 to 64 gives transposition ladders of 2 to 7 controls; only
    # M = 3 and M = 64 reach the two ends, so both are always run
    _assert_modexp_table(synth_modexp_toffoli(*case, n_exp=5))


def test_modexp_writes_x_natively():
    mx = synth_modexp_toffoli(21, 2)
    gates = mx.circuit.gates
    n_x = sum(isinstance(g, X) for g in gates)
    assert (len(gates), n_x, len(gates) - n_x) == (1586, 486, 1100)
    assert (mx.circuit.num_wires, mx.circuit.num_inputs) == (3319, 19)
    assert mx.const_qubits == (mx.n_exp + mx.n_value,)
    # the one constant qubit only ever controls CNOTs
    assert all(g.qubits[1] not in mx.const_qubits for g in gates if isinstance(g, Toffoli))
    # and is declared, so 344 of the 1100 Toffolis carry 4 + 4 rows
    assert mx.circuit.const_qubits == mx.const_qubits
    controlled = sum(g.qubits[0] in mx.const_qubits for g in gates if isinstance(g, Toffoli))
    assert controlled == 344 and 16 * 1100 - 8 * controlled == 14_848


def test_encrypt_refuses_a_constant_that_is_not_one():
    circ = parse_circuit("inputs 3\nconst 0\ntoff 0 1 2\n")
    rng = random.Random(40)
    keys = keygen(16, 3, circ, rng, conjecture=True)
    params = make_params(16, oracle_seed=b"const")
    good = sparse.from_terms(qubit_layout(3), {0b001: 0.6, 0b011: 0.8})
    out, _ = delegate(params, keys, circ, good, rng)
    assert fidelity(out, simulate(circ, good)) >= 1 - 1e-12
    bad = sparse.from_terms(qubit_layout(3), {0b001: 0.6, 0b010: 0.8})
    with pytest.raises(ValueError, match="constant qubit is not 1"):
        encrypt(params, keys, circ, bad, rng)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(circuits_and_states())
def test_delegate_matches_simulation_property(case):
    circ, support, seed = case
    rng = random.Random(seed)
    keys = keygen(16, circ.num_inputs, circ, rng, conjecture=True)
    params = make_params(16, oracle_seed=rng.randbytes(8))
    state = input_state(circ, support, rng)
    out, _ = delegate(params, keys, circ, state, rng)
    assert fidelity(out, simulate(circ, state)) >= 1 - 1e-12


def test_modexp_rejects_bad_inputs():
    with pytest.raises(SynthesisError):
        synth_modexp_toffoli(66, 5)
    with pytest.raises(SynthesisError):
        synth_modexp_toffoli(15, 5)    # gcd(5,15) != 1


def test_shor_rejects_bad_inputs():
    rng = random.Random(10)
    with pytest.raises(ValueError):
        shor_delegate(16, 3, 16, rng)      # even
    with pytest.raises(ValueError):
        shor_delegate(13, 2, 16, rng)      # prime
    with pytest.raises(ValueError):
        shor_delegate(15, 6, 16, rng)      # shares a factor


def test_period_postprocessing():
    # y = 2^n_exp * s / r for r = 4 (M=15, a=7)
    assert period_from_sample(64, 8, 15, 7) == 4
    assert period_from_sample(192, 8, 15, 7) == 4
    assert period_from_sample(0, 8, 15, 7) is None
    assert factor_from_period(15, 7, 4) in (3, 5)
    assert factor_from_period(21, 2, 6) in (3, 7)
    assert factor_from_period(15, 14, 2) is None   # a^(r/2) = -1 mod M


def test_delegated_modexp_equals_direct():
    rng = random.Random(11)
    mx = synth_modexp_toffoli(15, 7)
    delegated, stats, cost = modexp_delegated_state(mx, 16, rng)
    direct = modexp_direct_state(mx)
    assert fidelity(delegated, direct) >= 1 - 1e-9
    assert cost.encoding_cnots <= cost.encoding_bound == cost.kappa_bits * mx.n_exp
    assert cost.qft_gates == mx.n_exp * (mx.n_exp + 1) // 2 + mx.n_exp // 2


def test_shor_success_rate_matches_direct():
    # sample the delegated and direct final states; success frequencies agree
    rng = random.Random(12)
    mx = synth_modexp_toffoli(15, 7)
    delegated, _, _ = modexp_delegated_state(mx, 16, rng)
    direct = modexp_direct_state(mx)
    dq = sparse.qft(delegated, "exp")
    rq = sparse.qft(direct, "exp")

    def successes(state, seed, runs=200):
        sample_rng = random.Random(seed)
        wins = 0
        for _ in range(runs):
            outcome, _ = sparse.measure_all(state, sample_rng)
            y = state.layout.extract(outcome, "exp")
            period = period_from_sample(y, mx.n_exp, 15, 7)
            wins += factor_from_period(15, 7, period) is not None if period else False
        return wins

    w1, w2 = successes(dq, seed=1), successes(rq, seed=2)
    # binomial comparison at p ~ 0.5, n = 200 each: 3 sigma ~ 0.1 * n
    assert abs(w1 - w2) <= 3 * math.sqrt(2 * 200 * 0.25)


def test_shor_factor_15_and_21():
    factor, reports = shor_factor(15, 16, random.Random(13), attempts=10)
    assert factor in (3, 5)
    assert len(reports) <= 10
    factor, _ = shor_factor(21, 16, random.Random(14), attempts=10)
    assert factor in (3, 7)


# Pauli one-time pad ----------------------------------------------------------

def test_qkdm_roundtrip_random_states():
    params = make_params(16, oracle_seed=b"qkdm")
    rng = random.Random(15)
    lay = qubit_layout(3)
    for _ in range(100):
        sk = symcrypt.keygen(params, rng)
        psi = random_state(lay, rng)
        assert fidelity(qkdm_dec(params, sk, qkdm_enc(params, sk, psi, rng)), psi) \
            >= 1 - 1e-12


def test_qkdm_average_is_maximally_mixed():
    # exact enumeration of all (a,b) pads at 2 bits: 16 pads
    params = make_params(16, oracle_seed=b"qkdm2")
    lay = qubit_layout(2)
    psi = random_state(lay, random.Random(16))
    padded = [sparse.pauli_frame(psi, a, b) for a in range(4) for b in range(4)]
    rho = sparse.density_average(padded)
    mixed = np.eye(4, dtype=complex) / 4
    assert sparse.trace_distance(rho, mixed) < 1e-12


def test_qkdm_wrong_key_total():
    params = make_params(16, oracle_seed=b"qkdm3")
    rng = random.Random(17)
    sk, wrong = symcrypt.keygen(params, rng), symcrypt.keygen(params, rng)
    psi = random_state(qubit_layout(2), rng)
    ct = qkdm_enc(params, sk, psi, rng)
    decoded = qkdm_dec(params, wrong, ct)    # garbage pads, but no crash
    assert abs(decoded.norm_sq() - 1) < 1e-9
