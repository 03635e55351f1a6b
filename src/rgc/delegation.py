"""End-to-end protocols built on the encoding + garbled-table machinery.

The one-round delegation flow:

    keys = keygen(eta, n_quantum, circuit, rng)                   # client
    job = encrypt(params, keys, circuit, state, rng)              # client
    out, stats = evaluate.eval_bundle(params, job.encoded_state,
                                      job.garbled)                # server
    res = decrypt(keys, circuit, out)                             # client

Key length defaults to eta + 4 * n_quantum (rounded up to a byte), where
n_quantum counts only genuinely quantum input qubits: classical inputs encode
to single key strings and never contribute superposition terms, so they don't
weigh on the key-length margin.  ``conjecture`` mode sets kappa = eta - the
same protocol, only the tighter parameter choice.

Also here: blind delegation through the universal machine (hides which
program ran, not just its input), the Toffoli-only modular exponentiation
synthesis plus the factoring pipeline it feeds, and the Pauli one-time-pad
scheme for encrypting whole quantum states under a classical symmetric key.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import encoding, evaluate, garble, sparse, symcrypt
from .circuit import (CPCircuit, UniversalMachine, allocate_wires, flipped_wires,
                      simulate, toff, universalize, x)
from .encoding import KeySchedule
from .evaluate import EvalStats
from .garble import GarbledBundle
from .oracle import HASH_MODE, TABLE_MODE, OracleFamily
from .sparse import RegisterLayout, SparseState, qubit_layout
from .symcrypt import CryptoParams
from .util import rand_bytes


@dataclass(frozen=True)
class DelegationKeys:
    schedule: KeySchedule

    @property
    def kappa_bits(self) -> int:
        return self.schedule.kappa_bits


@dataclass(frozen=True)
class JobBundle:
    """Everything the server receives: the encoded input and the garbled
    tables (with the public skeleton inside).  The key schedule never leaves
    the client; the only key bytes here sit inside the encoded registers."""

    encoded_state: SparseState
    garbled: GarbledBundle


def required_kappa(eta: int, n_quantum: int, conjecture: bool = False) -> int:
    kappa = eta if conjecture else eta + 4 * n_quantum
    return (kappa + 7) // 8 * 8     # round up to a byte


def keygen(eta: int, n_quantum: int, circ: CPCircuit, rng: random.Random,
           conjecture: bool = False) -> DelegationKeys:
    kappa = required_kappa(eta, n_quantum, conjecture)
    return DelegationKeys(encoding.gen_keys(kappa, circ, rng))


def make_params(kappa_bits: int, *, tag_len_bits: int = 128, oracle_seed: bytes = b"",
                table_mode: bool = False, table_seed: int = 0) -> CryptoParams:
    """Crypto context shared by both parties (the oracle is a public
    function; only the keys are secret)."""
    family = OracleFamily(mode=TABLE_MODE if table_mode else HASH_MODE,
                          seed=oracle_seed, rng_seed=table_seed)
    return CryptoParams(kappa_bits, family, tag_len_bits)


def encode_input(keys: DelegationKeys, circ: CPCircuit, input_state: SparseState) -> SparseState:
    """The input under its wires' keys.  A declared constant must be 1 in every
    term: its 0 key opens no row, and the server's failure would show it."""
    if input_state.layout.total_bits != circ.num_inputs:
        raise ValueError("input state width differs from the circuit")
    const_mask = circ.const_mask
    if any(basis & const_mask != const_mask for basis in input_state.terms):
        raise ValueError("a declared constant qubit is not 1 in every input term")
    return encoding.encode(input_state, keys.schedule, circ.input_wires)


def encrypt(params: CryptoParams, keys: DelegationKeys, circ: CPCircuit,
            input_state: SparseState, rng: random.Random) -> JobBundle:
    if params.kappa_bits != keys.kappa_bits:
        raise ValueError("crypto params and keys disagree on kappa")
    encoded = encode_input(keys, circ, input_state)
    bundle = garble.garble_circuit(params, circ, keys.schedule, rng)
    return JobBundle(encoded, bundle)


def decrypt(keys: DelegationKeys, circ: CPCircuit, result: SparseState) -> SparseState:
    return encoding.decode(result, keys.schedule, circ.output_wires, flipped_wires(circ))


def delegate(params: CryptoParams, keys: DelegationKeys, circ: CPCircuit,
             input_state: SparseState, rng: random.Random) -> tuple[SparseState, EvalStats]:
    """Client and server in one process; the acceptance oracle for both."""
    job = encrypt(params, keys, circ, input_state, rng)
    out, stats = evaluate.eval_bundle(params, job.encoded_state, job.garbled)
    return decrypt(keys, circ, out), stats


# ---------------------------------------------------------------------------
# blind delegation

@dataclass(frozen=True)
class BlindResult:
    output: SparseState
    machine: UniversalMachine
    job: JobBundle
    stats: EvalStats


def blind_delegate(circ: CPCircuit, input_state: SparseState, max_gates: int,
                   max_denom_exp: int, eta: int, rng: random.Random,
                   params: CryptoParams | None = None,
                   conjecture: bool = False) -> BlindResult:
    """Delegate through the universal machine: the server sees one fixed
    interpreter circuit for (N, D, max_gates); which program it ran rides
    along as classically-encoded description wires."""
    n = circ.num_inputs
    machine, desc = universalize(circ, n, max_denom_exp, max_gates)
    ucirc = machine.circuit

    prep = machine.prep_bits(desc)
    full_terms = {basis | prep: amp for basis, amp in input_state.terms.items()}
    full_state = SparseState(qubit_layout(ucirc.num_inputs), full_terms, check=False)

    keys = keygen(eta, n, ucirc, rng, conjecture=conjecture)
    if params is None:
        params = make_params(keys.kappa_bits, oracle_seed=rand_bytes(rng, 16))
    job = encrypt(params, keys, ucirc, full_state, rng)
    out, stats = evaluate.eval_bundle(params, job.encoded_state, job.garbled)
    out_full = decrypt(keys, ucirc, out)

    # The machine returns every non-data qubit to its prepared value; anything
    # else means the interpreter ran off the rails.
    data_mask = (1 << n) - 1
    out_terms: dict[int, complex] = {}
    for basis, amp in out_full.terms.items():
        if basis & ~data_mask != prep:
            raise evaluate.EvalError("non-data qubits not restored after interpretation")
        out_terms[basis & data_mask] = amp
    return BlindResult(SparseState(qubit_layout(n), out_terms, check=False),
                       machine, job, stats)


# ---------------------------------------------------------------------------
# Toffoli-only modular exponentiation
#
# The multiplication-by-constant permutations are tiny at desk scale, so each
# one is synthesized from its cycle decomposition: every cycle becomes a chain
# of basis-state transpositions, every transposition a multi-controlled X
# conjugated by CNOTs.  The multi-controlled X is an AND ladder whose last rung
# targets the wire itself (Barenco et al., PRA 1995): k controls cost 2k - 3
# Toffolis and k - 2 ancillas.  The first multiplication that is not the
# identity meets the accumulator at its start value 1, so it only writes
# 1 ^ mult under its exponent bit: one CNOT per set bit.  Neither step uses
# the order of the base, and the tests check every exponent exhaustively.

@dataclass(frozen=True)
class ModexpCircuit:
    circuit: CPCircuit
    modulus: int
    base: int
    n_exp: int
    n_value: int
    state_layout: RegisterLayout
    exp_qubits: tuple[int, ...]
    acc_qubits: tuple[int, ...]
    anc_qubits: tuple[int, ...]

    @property
    def const_qubits(self) -> tuple[int, ...]:
        return self.circuit.const_qubits

    def initial_rest(self) -> int:
        """Basis bits of everything but the exponent register: accumulator 1,
        constant 1, ancillas 0."""
        return 1 << self.acc_qubits[0] | self.circuit.const_mask


class SynthesisError(ValueError):
    pass


def synth_modexp_toffoli(modulus: int, base: int, n_exp: int | None = None) -> ModexpCircuit:
    """Reversible circuit computing acc = base^exp mod modulus (acc starts 1).

    Works for modulus <= 64; exponent register defaults to 2*ceil(log2 M).
    Each ladder has n_value controls (the exponent bit and all accumulator
    bits but one), so n_value - 2 ancillas, and uncomputes them to zero.
    """
    if modulus > 64 or modulus < 3:
        raise SynthesisError("modulus out of the supported desk-scale range")
    if math.gcd(base, modulus) != 1:
        raise SynthesisError("base shares a factor with the modulus")
    n_value = modulus.bit_length()
    if n_exp is None:
        n_exp = 2 * math.ceil(math.log2(modulus))

    exp_qubits = tuple(range(n_exp))
    acc_qubits = tuple(range(n_exp, n_exp + n_value))
    c0 = n_exp + n_value
    anc_qubits = tuple(range(c0 + 1, c0 + n_value - 1))
    total = c0 + 1 + len(anc_qubits)

    gates: list[tuple] = []

    def cnot(ctrl, tgt):
        gates.append(toff(c0, ctrl, tgt))

    def mcx(controls: list[tuple[int, int]], target: int):
        """Multi-controlled X with per-control polarity, via an AND ladder
        whose last rung writes the target."""
        flips = [q for q, want in controls if want == 0]
        wires = [q for q, _ in controls]
        ladder = []
        acc = wires[0]
        for w, nxt in zip(wires[1:-1], anc_qubits):
            ladder.append(toff(acc, w, nxt))
            acc = nxt
        gates.extend([x(q) for q in flips] + ladder + [toff(acc, wires[-1], target)]
                     + ladder[::-1] + [x(q) for q in flips])

    def transpose(exp_qubit: int, u: int, v: int):
        """Swap accumulator basis states u <-> v, only where exp_qubit is 1."""
        diff = u ^ v
        pivot = (diff & -diff).bit_length() - 1
        conj = [q for q in range(n_value) if (diff >> q) & 1 and q != pivot]
        a_u = u
        for q in conj:
            a_u ^= ((u >> pivot) & 1) << q
        for q in conj:
            cnot(acc_qubits[pivot], acc_qubits[q])
        controls = [(exp_qubit, 1)]
        controls += [(acc_qubits[q], (a_u >> q) & 1) for q in range(n_value) if q != pivot]
        mcx(controls, acc_qubits[pivot])
        for q in conj:
            cnot(acc_qubits[pivot], acc_qubits[q])

    size = 1 << n_value
    for j, exp_qubit in enumerate(exp_qubits):
        mult = pow(base, 1 << j, modulus)
        if mult == 1:
            continue
        if not gates:                   # the accumulator still holds 1
            for q in range(n_value):
                if ((1 ^ mult) >> q) & 1:
                    cnot(exp_qubit, acc_qubits[q])
            continue
        perm = [(x * mult) % modulus if x < modulus else x for x in range(size)]
        emitted: list[tuple[int, int]] = []
        seen = [False] * size
        for start in range(size):
            if seen[start] or perm[start] == start:
                seen[start] = True
                continue
            cycle = [start]
            seen[start] = True
            nxt = perm[start]
            while nxt != start:
                cycle.append(nxt)
                seen[nxt] = True
                nxt = perm[nxt]
            for i in range(len(cycle) - 2, -1, -1):
                emitted.append((cycle[i], cycle[i + 1]))
        # sanity: the transpositions compose back to the permutation
        check = list(range(size))
        for u, v in emitted:
            check = [v if x == u else u if x == v else x for x in check]
        if check != perm:
            raise SynthesisError("cycle decomposition failed to reproduce the permutation")
        for u, v in emitted:
            transpose(exp_qubit, u, v)

    circ = allocate_wires(gates, total, (c0,))
    state_layout = RegisterLayout((("exp", n_exp), ("acc", n_value), ("const", 1))
                                  + ((("anc", len(anc_qubits)),) if anc_qubits else ()))
    return ModexpCircuit(circ, modulus, base, n_exp, n_value, state_layout,
                         exp_qubits, acc_qubits, anc_qubits)


# ---------------------------------------------------------------------------
# factoring pipeline

@dataclass(frozen=True)
class CostAccount:
    """Client-side quantum work, split per source: the encoding runs in CNOT/X
    gates linear in kappa per quantum qubit, the Fourier transform is the
    usual quasi-linear circuit and is all the 'real' quantum work left."""

    kappa_bits: int
    n_quantum: int
    encoding_cnots: int
    encoding_x: int
    encoding_bound: int          # kappa * n_quantum
    qft_gates: int


@dataclass
class ShorReport:
    modulus: int
    base: int
    n_exp: int
    measured: int | None
    period: int | None
    factor: int | None
    cost: CostAccount
    stats: EvalStats | None


def modexp_input_state(mx: ModexpCircuit) -> SparseState:
    """Uniform exponent register, accumulator 1, constant 1, ancillas 0."""
    rest = mx.initial_rest()
    amp = 2 ** (-mx.n_exp / 2)
    terms = {rest | x: amp + 0j for x in range(1 << mx.n_exp)}
    return SparseState(qubit_layout(mx.circuit.num_inputs), terms, check=False)


def modexp_direct_state(mx: ModexpCircuit) -> SparseState:
    """The non-delegated reference run of the identical circuit."""
    out = simulate(mx.circuit, modexp_input_state(mx))
    return sparse.with_layout(out, mx.state_layout)


def modexp_delegated_state(mx: ModexpCircuit, eta: int, rng: random.Random,
                           conjecture: bool = False
                           ) -> tuple[SparseState, EvalStats, CostAccount]:
    circ = mx.circuit
    keys = keygen(eta, mx.n_exp, circ, rng, conjecture=conjecture)
    params = make_params(keys.kappa_bits, oracle_seed=rand_bytes(rng, 16))
    out, stats = delegate(params, keys, circ, modexp_input_state(mx), rng)
    quantum_wires = [circ.input_wires[q] for q in mx.exp_qubits]
    report = encoding.cnot_cost(keys.schedule, quantum_wires)
    cost = CostAccount(
        kappa_bits=keys.kappa_bits,
        n_quantum=mx.n_exp,
        encoding_cnots=report.cnot_count,
        encoding_x=report.x_count,
        encoding_bound=keys.kappa_bits * mx.n_exp,
        qft_gates=mx.n_exp * (mx.n_exp + 1) // 2 + mx.n_exp // 2,
    )
    return sparse.with_layout(out, mx.state_layout), stats, cost


def period_from_sample(y: int, n_exp: int, modulus: int, base: int) -> int | None:
    """Continued-fraction postprocessing: y/2^n_exp ~ s/r, test small
    multiples of the recovered denominator as the period."""
    if y == 0:
        return None
    approx = Fraction(y, 1 << n_exp).limit_denominator(modulus)
    if approx.denominator == 0:
        return None
    for mult in range(1, 5):
        r = approx.denominator * mult
        if r >= (1 << n_exp):
            break
        if pow(base, r, modulus) == 1:
            return r
    return None


def factor_from_period(modulus: int, base: int, period: int) -> int | None:
    if period % 2 != 0:
        return None
    half = pow(base, period // 2, modulus)
    if half == modulus - 1:
        return None
    for candidate in (math.gcd(half - 1, modulus), math.gcd(half + 1, modulus)):
        if 1 < candidate < modulus:
            return candidate
    return None


def shor_delegate(modulus: int, base: int, eta: int, rng: random.Random,
                  conjecture: bool = False) -> ShorReport:
    """One delegated period-finding attempt.

    The server gets only the garbled modular-exponentiation job.  The client
    decodes, applies the Fourier transform on the exponent register itself,
    measures and postprocesses.  factor=None means retry with a new base.
    """
    mx = synth_modexp_toffoli(modulus, base)    # refuses M > 64 and a base sharing a factor
    if modulus % 2 == 0:
        raise ValueError("modulus must be odd")
    if all(modulus % p for p in range(2, modulus)):
        raise ValueError("modulus must be composite")
    state, stats, cost = modexp_delegated_state(mx, eta, rng, conjecture)
    state = sparse.qft(state, "exp")
    outcome, _ = sparse.measure_all(state, rng)
    y = state.layout.extract(outcome, "exp")
    period = period_from_sample(y, mx.n_exp, modulus, base)
    factor = factor_from_period(modulus, base, period) if period else None
    return ShorReport(modulus, base, mx.n_exp, y, period, factor, cost, stats)


def shor_factor(modulus: int, eta: int, rng: random.Random, attempts: int = 10,
                base: int | None = None,
                conjecture: bool = False) -> tuple[int | None, list[ShorReport]]:
    """Repeat delegated attempts until a nontrivial factor shows up."""
    reports = []
    for _ in range(attempts):
        a = base if base is not None else rng.randrange(2, modulus - 1)
        if base is None and math.gcd(a, modulus) != 1:
            continue            # classical luck; a forced base is refused by the synthesis
        report = shor_delegate(modulus, a, eta, rng, conjecture=conjecture)
        reports.append(report)
        if report.factor is not None:
            return report.factor, reports
    return None, reports


# ---------------------------------------------------------------------------
# Pauli one-time pad under a classical key

@dataclass(frozen=True)
class QkdmCiphertext:
    padded_state: SparseState
    otp_ct: bytes                  # packed single-key row of a || b


def qkdm_enc(params: CryptoParams, sk: bytes, state: SparseState,
             rng: random.Random) -> QkdmCiphertext:
    """Mask the state with X^a Z^b for fresh uniform (a,b) and encrypt a||b."""
    n = state.layout.total_bits
    a = rng.getrandbits(n)
    b = rng.getrandbits(n)
    padded = sparse.pauli_frame(state, a, b)
    nbytes = (n + 7) // 8
    payload = a.to_bytes(nbytes, "little") + b.to_bytes(nbytes, "little")
    return QkdmCiphertext(padded, symcrypt.kdm_enc(params, sk, payload, rng))


def qkdm_dec(params: CryptoParams, sk: bytes, ct: QkdmCiphertext) -> SparseState:
    """Invert the mask; X^a Z^b is self-inverse up to a global sign."""
    n = ct.padded_state.layout.total_bits
    nbytes = (n + 7) // 8
    payload = symcrypt.kdm_dec(params, sk, ct.otp_ct)
    if len(payload) != 2 * nbytes:
        raise ValueError("pad ciphertext has the wrong length")
    mask = (1 << n) - 1
    a = int.from_bytes(payload[:nbytes], "little") & mask
    b = int.from_bytes(payload[nbytes:], "little") & mask
    return sparse.pauli_frame(ct.padded_state, a, b)
