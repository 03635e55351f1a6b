"""Executable security games with pluggable classical distinguishers.

Each runner plays challenger for one of the games the construction's
security rests on and reports the empirical distinguishing advantage
|P(guess 1 | b=1) - P(guess 1 | b=0)| with a 95% Wald radius.  Trials come
in coupled pairs: both challenge bits are played from one draw of keys,
pads, oracle and distinguisher coins, so structurally identical branches
measure an advantage of exactly zero.  The oracle query counter covers the
distinguisher's own queries too.

What these harnesses can and cannot say: distinguishers here are classical
programs.  The model's adversaries may query the oracle in superposition;
no classical harness can represent that, so a clean bill from these games
validates the construction's classical soundness only.  The rigged modes
(leaked keys, reused pads, brute force at byte-sized keys, a secret bit
declared a public constant) exist to prove the harness itself would notice
a break.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from . import delegation, encoding, garble, sparse, symcrypt
from .circuit import CPCircuit, Toffoli
from .delegation import DelegationKeys, JobBundle
from .garble import GarbledBundle, ToffoliTables
from .symcrypt import CryptoParams
from .util import rand_bytes, xor_bytes


@dataclass(frozen=True)
class GameReport:
    trials: int
    advantage_estimate: float
    confidence_radius: float
    oracle_queries_used: int
    p1: float
    p0: float

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "advantage_estimate": self.advantage_estimate,
            "confidence_radius": self.confidence_radius,
            "oracle_queries_used": self.oracle_queries_used,
            "p1": self.p1,
            "p0": self.p0,
        }


def _report(guesses: list[tuple[int, int]], queries: int) -> GameReport:
    n1 = sum(1 for b, _ in guesses if b == 1)
    n0 = len(guesses) - n1
    ones1 = sum(g for b, g in guesses if b == 1)
    ones0 = sum(g for b, g in guesses if b == 0)
    p1 = ones1 / n1 if n1 else 0.0
    p0 = ones0 / n0 if n0 else 0.0
    radius = 1.96 * math.sqrt((p1 * (1 - p1) / n1 if n1 else 0.0)
                              + (p0 * (1 - p0) / n0 if n0 else 0.0))
    return GameReport(len(guesses), abs(p1 - p0), radius, queries, p1, p0)


def _trial_params(kappa_bits: int, seed: int, table_oracle: bool,
                  tag_len_bits: int = 128) -> CryptoParams:
    if table_oracle:
        return delegation.make_params(kappa_bits, tag_len_bits=tag_len_bits,
                                      table_mode=True, table_seed=seed)
    return delegation.make_params(kappa_bits, tag_len_bits=tag_len_bits,
                                  oracle_seed=seed.to_bytes(8, "little"))


def _paired(trials: int, rng: random.Random):
    """Coupled challenge pairs: each pair plays b=0 and b=1 from identical
    randomness (keys, pads, oracle, distinguisher coins), so whenever the two
    branches produce identical ciphertexts the measured advantage is exactly
    zero rather than sampling noise."""
    if trials < 2:
        raise ValueError("need at least two trials")
    for _ in range(trials // 2):
        oracle_seed = rng.getrandbits(63)
        setup_seed = rng.getrandbits(64)
        dist_seed = rng.getrandbits(64)
        for b in (0, 1):
            yield b, oracle_seed, random.Random(setup_seed), random.Random(dist_seed)


# ---------------------------------------------------------------------------
# one-shot indistinguishability of the delegation ciphertext (classical input)

@dataclass
class ChallengeView:
    """What the adversary holds: the job as shipped, the public circuit and
    crypto context, and the message it asked to have encrypted.  The key
    schedule appears only in the deliberately rigged mode."""

    params: CryptoParams
    circuit: CPCircuit
    job: JobBundle
    message_bits: int
    leaked_keys: DelegationKeys | None = None


Distinguisher = Callable[[ChallengeView, random.Random], int]


def run_ind_cpa_gbc(distinguisher: Distinguisher, circ: CPCircuit, kappa_bits: int,
                    trials: int, rng: random.Random, *, message_bits: int | None = None,
                    table_oracle: bool = True, leak_keys: bool = False,
                    misdeclared_constants: bool = False) -> GameReport:
    """One-shot game: the challenger garbles either the chosen classical input
    or the all-zero input under fresh keys, and the adversary guesses which.
    The circuit's public constants are 1 in both challenges, unless
    ``misdeclared_constants`` rigs the game: then the all-zero input holds 0
    on them too, as a secret bit wrongly declared constant would, and the
    job is built without ``delegation.encrypt``, which refuses it."""
    n = circ.num_inputs
    message = message_bits if message_bits is not None else (1 << n) - 1
    const_mask = 0 if misdeclared_constants else circ.const_mask
    guesses = []
    queries = 0
    for b, oracle_seed, setup_rng, dist_rng in _paired(trials, rng):
        params = _trial_params(kappa_bits, oracle_seed, table_oracle)
        keys = DelegationKeys(encoding.gen_keys(kappa_bits, circ, setup_rng),
                              kappa_bits, kappa_bits, 0)
        plain = (message if b == 1 else 0) | const_mask
        state = sparse.basis_state(sparse.qubit_layout(n), plain)
        if misdeclared_constants:
            job = JobBundle(encoding.encode(state, keys.schedule, circ.input_wires),
                            garble.garble_circuit(params, circ, keys.schedule, setup_rng))
        else:
            job = delegation.encrypt(params, keys, circ, state, setup_rng)
        view = ChallengeView(params, circ, job, message,
                             leaked_keys=keys if leak_keys else None)
        guesses.append((b, 1 if distinguisher(view, dist_rng) else 0))
        queries += params.oracles.query_count()
    return _report(guesses, queries)


def dist_constant(view, rng) -> int:
    return 1


def dist_random(view, rng) -> int:
    return rng.getrandbits(1)


def dist_tag_grinding(view: ChallengeView, rng: random.Random, probes: int = 16) -> int:
    """Throw random keys at the first table's tags; guess 1 on any hit."""
    for table in view.job.garbled.tables:
        if isinstance(table, ToffoliTables):
            rows, n_keys = table.forward, 3
        else:
            rows, n_keys = table.rows, 1
        for _ in range(probes):
            key = rand_bytes(rng, view.params.kappa_bytes)
            for row in rows:
                if any(symcrypt.kdm_ver(view.params, key, tag)
                       for tag in symcrypt.split_row(view.params, row, n_keys)[2]):
                    return 1
        break
    return 0


def dist_row_frequency(view: ChallengeView, rng) -> int:
    """Parity of all masked ciphertext bytes across the bundle."""
    acc = 0
    for table in view.job.garbled.tables:
        if isinstance(table, ToffoliTables):
            rows, n_keys = table.forward + table.backward, 3
        else:
            rows, n_keys = table.rows, 1
        for row in rows:
            for byte in symcrypt.split_row(view.params, row, n_keys)[1]:
                acc ^= byte
    return bin(acc).count("1") & 1


def dist_encoded_parity(view: ChallengeView, rng) -> int:
    basis = next(iter(view.job.encoded_state.terms))
    return bin(basis).count("1") & 1


def dist_constant_key(view: ChallengeView, rng) -> int:
    """Try the key each declared constant's register holds on the first
    table that constant controls; guess 1 if it opens a row.  Half tables
    keep only the rows of the constant's 1 key, so this reads a misdeclared
    constant's value; an honest constant always opens a row."""
    bundle, kb = view.job.garbled, view.params.kappa_bytes
    basis = next(iter(view.job.encoded_state.terms))
    for q in bundle.skeleton.const_qubits:
        key = ((basis >> (8 * kb * q)) & ((1 << 8 * kb) - 1)).to_bytes(kb, "little")
        for gate, table in zip(bundle.skeleton.gates, bundle.tables):
            if isinstance(gate, Toffoli) and q in gate.qubits:
                slot = gate.qubits.index(q) + 1
                if not any(symcrypt.triple_ver(view.params, key, slot, row)
                           for row in table.forward):
                    return 0
                break
    return 1


def dist_leaked_decrypt(view: ChallengeView, rng) -> int:
    """Positive control: with the schedule in hand, decode and compare."""
    if view.leaked_keys is None:
        return rng.getrandbits(1)
    decoded = encoding.decode(view.job.encoded_state, view.leaked_keys.schedule,
                              view.circuit.input_wires)
    plain = next(iter(decoded.terms))
    return 1 if plain == view.message_bits else 0


# ---------------------------------------------------------------------------
# non-adaptive symmetric KDM game for the single-key scheme

@dataclass(frozen=True)
class AffineKeyFn:
    """f(K) = (xor of the selected keys) xor const - the function family the
    garbled tables actually induce (key payloads are affine in the keys)."""

    key_indices: tuple[int, ...]
    const: bytes

    def evaluate(self, keys: Sequence[bytes]) -> bytes:
        acc = self.const
        for idx in self.key_indices:
            acc = xor_bytes(acc, keys[idx])
        return acc


@dataclass
class KdmView:
    params: CryptoParams
    ciphertexts: list[bytes]
    queries: list[tuple[int, AffineKeyFn]]


def run_kdm_game(queries: list[tuple[int, AffineKeyFn]], n_keys: int,
                 distinguisher: Callable[[KdmView, random.Random], int],
                 kappa_bits: int, trials: int, rng: random.Random, *,
                 reuse_pads: bool = False, table_oracle: bool = True) -> GameReport:
    """Non-adaptive KDM game: the whole query list is fixed upfront, the
    challenger answers all of it at once with either f(K) or zeros.
    reuse_pads deliberately breaks the scheme (one shared mask pad per trial)
    so tests can watch the harness catch it."""
    guesses = []
    total_queries = 0
    kb = kappa_bits // 8
    for b, oracle_seed, setup_rng, dist_rng in _paired(trials, rng):
        params = _trial_params(kappa_bits, oracle_seed, table_oracle)
        keyset = [symcrypt.keygen(params, setup_rng) for _ in range(n_keys)]
        shared_pad = rand_bytes(setup_rng, kb)
        cts = []
        for index, fn in queries:
            plain = fn.evaluate(keyset) if b == 1 else bytes(kb)
            if reuse_pads:
                cts.append(symcrypt.kdm_enc_padded(params, keyset[index], plain,
                                                   shared_pad, rand_bytes(setup_rng, kb)))
            else:
                cts.append(symcrypt.kdm_enc(params, keyset[index], plain, setup_rng))
        view = KdmView(params, cts, queries)
        guesses.append((b, 1 if distinguisher(view, dist_rng) else 0))
        total_queries += params.oracles.query_count()
    return _report(guesses, total_queries)


def kdm_dist_mask_equality(view: KdmView, rng) -> int:
    """Flag any two same-key queries whose masked fields coincide; only a
    broken scheme (pad reuse) lets that distinguish."""
    seen: dict[tuple[int, bytes], int] = {}
    for (index, _), ct in zip(view.queries, view.ciphertexts):
        key = (index, symcrypt.split_row(view.params, ct)[1])
        if key in seen:
            return 0        # identical masks: plaintexts matched, smells like zeros
        seen[key] = 1
    return 1


def kdm_dist_tag_grinding(view: KdmView, rng, probes: int = 32) -> int:
    for _ in range(probes):
        key = rand_bytes(rng, view.params.kappa_bytes)
        if any(symcrypt.kdm_ver(view.params, key, tag) for ct in view.ciphertexts
               for tag in symcrypt.split_row(view.params, ct)[2]):
            return 1
    return 0


def kdm_dist_first_byte(view: KdmView, rng) -> int:
    if not view.ciphertexts:
        return 0
    return symcrypt.split_row(view.params, view.ciphertexts[0])[1][0] & 1


def self_cycle_queries(n_keys: int, kappa_bits: int) -> list[tuple[int, AffineKeyFn]]:
    """Every key encrypting itself: the harshest cycle the tables create."""
    zero = bytes(kappa_bits // 8)
    return [(i, AffineKeyFn((i,), zero)) for i in range(n_keys)]


# ---------------------------------------------------------------------------
# revealed-closure game for the triple-key scheme

PairSpec = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass
class ClosureView:
    params: CryptoParams
    revealed: dict[int, bytes]
    ciphertexts: list[bytes]       # one packed row per pair
    pairs: list[PairSpec]


def run_closure_game(pairs: list[PairSpec], revealed: Sequence[int],
                     messages: Sequence[bytes],
                     distinguisher: Callable[[ClosureView, random.Random], int],
                     n_keys: int, kappa_bits: int, trials: int,
                     rng: random.Random, *, table_oracle: bool = True) -> GameReport:
    """The challenger hands out the revealed keys plus one row per pair:
    real key payloads where b=1 or where the pair's source keys are reachable
    from the revealed set anyway, zeros otherwise.  Distinguishing the two
    means learning something the closure says you shouldn't."""
    for sources, targets in pairs:
        if len(sources) == 3 and len(targets) != 3:
            raise ValueError("triple-key pairs carry three target keys")
        if len(sources) == 1 and targets:
            raise ValueError("single-key pairs carry no target keys")
        if len(sources) not in (1, 3):
            raise ValueError("pair sources must have size 1 or 3")
    if len(messages) != len(pairs):
        raise ValueError("one message per pair required")
    reachable = garble.closure_pairs(revealed, pairs)

    guesses = []
    total_queries = 0
    for b, oracle_seed, setup_rng, dist_rng in _paired(trials, rng):
        params = _trial_params(kappa_bits, oracle_seed, table_oracle)
        keyset = [symcrypt.keygen(params, setup_rng) for _ in range(n_keys)]
        cts: list[bytes] = []
        for (sources, targets), msg in zip(pairs, messages):
            payload = b"".join(keyset[t] for t in targets) + msg
            if not payload:
                raise ValueError("empty row payload")
            real = b == 1 or set(sources) <= reachable
            if not real:
                payload = bytes(len(payload))
            if len(sources) == 3:
                cts.append(symcrypt.triple_enc(params, *(keyset[s] for s in sources),
                                               payload, setup_rng))
            else:
                cts.append(symcrypt.kdm_enc(params, keyset[sources[0]], payload, setup_rng))
        view = ClosureView(params, {r: keyset[r] for r in revealed}, cts, pairs)
        guesses.append((b, 1 if distinguisher(view, dist_rng) else 0))
        total_queries += params.oracles.query_count()
    return _report(guesses, total_queries)


def closure_dist_masked_stats(view: ClosureView, rng) -> int:
    acc = 0
    for (sources, _), ct in zip(view.pairs, view.ciphertexts):
        acc ^= symcrypt.split_row(view.params, ct, len(sources))[1][0]
    return acc & 1


def closure_dist_revealed_decrypt(view: ClosureView, rng) -> int:
    """Decrypt the single-key rows whose key is revealed and look for
    obviously non-random plaintext structure (all-zero payloads)."""
    for (sources, _), ct in zip(view.pairs, view.ciphertexts):
        if len(sources) == 1 and sources[0] in view.revealed:
            plain = symcrypt.kdm_dec(view.params, view.revealed[sources[0]], ct)
            if any(plain):
                return 1
    return 0


def circuit_pairs(circ: CPCircuit) -> list[PairSpec]:
    """The pair structure a circuit's tables induce at the wire level."""
    return [(g.in_wires, g.out_wires) for g in circ.gates if isinstance(g, Toffoli)]


# ---------------------------------------------------------------------------
# key-recovery experiment

@dataclass
class RecoveryView:
    params: CryptoParams
    circuit: CPCircuit
    bundle: GarbledBundle
    input_bits: int
    input_keys: list[bytes]
    target_bits: int


Guesser = Callable[[RecoveryView, random.Random], list[bytes]]


def wire_tag_check(view: RecoveryView, wire: int, key: bytes) -> bool:
    """Does key open some tag tied to this input wire?  Rows encrypted under
    a wire's keys carry that wire's tags, so a hit pins the key (up to the
    tag false-accept probability)."""
    for gate, table in zip(view.bundle.skeleton.gates, view.bundle.tables):
        if isinstance(gate, Toffoli) and wire in gate.in_wires:
            pos = gate.in_wires.index(wire) + 1
            return any(symcrypt.triple_ver(view.params, key, pos, row)
                       for row in table.forward)
        if not isinstance(gate, Toffoli) and gate.wire == wire:
            return any(symcrypt.kdm_ver(view.params, key, tag) for row in table.rows
                       for tag in symcrypt.split_row(view.params, row)[2])
    raise ValueError(f"wire {wire} feeds no gate; no tag to check against")


def key_recovery_experiment(circ: CPCircuit, kappa_bits: int, guesser: Guesser,
                            trials: int, rng: random.Random, *,
                            input_bits: int | None = None, target_bits: int | None = None,
                            table_oracle: bool = True) -> float:
    """Hand the guesser one input's keys plus the tables; count how often it
    produces the key tuple of a different designated input.  Success is
    checked through the tables' own tags (plus disequality with the known key
    where the target bit differs - replaying the given keys never counts).
    Both inputs hold the circuit's public constants at 1: by default the
    revealed input is 0 elsewhere and the target its complement."""
    n = circ.num_inputs
    const_mask = circ.const_mask
    if input_bits is None:
        input_bits = const_mask
    target = target_bits if target_bits is not None else ((1 << n) - 1 ^ input_bits) | const_mask
    if target == input_bits:
        raise ValueError("target input must differ from the revealed input")
    if input_bits & const_mask != const_mask or target & const_mask != const_mask:
        raise ValueError("a public constant is 1 in every input")
    successes = 0
    for _ in range(trials):
        params = _trial_params(kappa_bits, rng.getrandbits(63), table_oracle)
        schedule = encoding.gen_keys(kappa_bits, circ, rng)
        bundle = garble.garble_circuit(params, circ, schedule, rng)
        known = [schedule.pairs[w][(input_bits >> i) & 1]
                 for i, w in enumerate(circ.input_wires)]
        view = RecoveryView(params, circ, bundle, input_bits, list(known), target)
        guess = guesser(view, rng)
        ok = len(guess) == n
        for i, w in enumerate(circ.input_wires):
            if not ok:
                break
            same_bit = ((input_bits >> i) & 1) == ((target >> i) & 1)
            if same_bit:
                ok = guess[i] == known[i]
            else:
                ok = guess[i] != known[i] and wire_tag_check(view, w, guess[i])
        successes += 1 if ok else 0
    return successes / trials


def guess_random(view: RecoveryView, rng) -> list[bytes]:
    return [rand_bytes(rng, view.params.kappa_bytes)
            for _ in range(view.circuit.num_inputs)]


def guess_replay(view: RecoveryView, rng) -> list[bytes]:
    return list(view.input_keys)


def guess_brute_force(view: RecoveryView, rng) -> list[bytes]:
    """Enumerate the key space per differing wire, checking tags.  Only sane
    at byte-sized keys; exists as the positive control."""
    kb = view.params.kappa_bytes
    if kb > 1:
        raise ValueError("brute force control is limited to kappa = 8")
    out = []
    for i, w in enumerate(view.circuit.input_wires):
        if ((view.input_bits >> i) & 1) == ((view.target_bits >> i) & 1):
            out.append(view.input_keys[i])
            continue
        hit = None
        for candidate in range(256):
            key = bytes([candidate])
            if key != view.input_keys[i] and wire_tag_check(view, w, key):
                hit = key
                break
        out.append(hit if hit is not None else bytes(kb))
    return out


# ---------------------------------------------------------------------------
# non-adaptive KDM game for the Pauli-pad quantum scheme (basis-state level)

@dataclass
class QkdmView:
    params: CryptoParams
    ciphertexts: list[delegation.QkdmCiphertext]
    queries: list[tuple[int, AffineKeyFn]]


def run_qkdm_game(queries: list[tuple[int, AffineKeyFn]], n_keys: int,
                  distinguisher: Callable[[QkdmView, random.Random], int],
                  kappa_bits: int, trials: int, rng: random.Random, *,
                  table_oracle: bool = True) -> GameReport:
    """Same shape as the classical KDM game, but the challenger answers with
    Pauli-padded basis states of f(K) (or of zeros).  Classical harness:
    plaintext states are computational-basis strings."""
    guesses = []
    total_queries = 0
    kb = kappa_bits // 8
    lay = sparse.RegisterLayout((("m", kappa_bits),))
    for b, oracle_seed, setup_rng, dist_rng in _paired(trials, rng):
        params = _trial_params(kappa_bits, oracle_seed, table_oracle)
        keyset = [symcrypt.keygen(params, setup_rng) for _ in range(n_keys)]
        cts = []
        for index, fn in queries:
            plain = fn.evaluate(keyset) if b == 1 else bytes(kb)
            state = sparse.basis_state(lay, int.from_bytes(plain, "little"))
            cts.append(delegation.qkdm_enc(params, keyset[index], state, setup_rng))
        view = QkdmView(params, cts, queries)
        guesses.append((b, 1 if distinguisher(view, dist_rng) else 0))
        total_queries += params.oracles.query_count()
    return _report(guesses, total_queries)


def qkdm_dist_padded_parity(view: QkdmView, rng) -> int:
    acc = 0
    for ct in view.ciphertexts:
        acc ^= next(iter(ct.padded_state.terms))
    return bin(acc).count("1") & 1
