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
(leaked keys, reused pads, reused table nonces, brute force at byte-sized
keys, a secret bit declared a public constant, headers sorted by logical
value) exist to prove the harness itself would notice a break.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Sequence

from . import delegation, encoding, garble, sparse, symcrypt
from .circuit import CPCircuit, Toffoli, X
from .delegation import DelegationKeys, JobBundle
from .encoding import KeySchedule
from .garble import GarbledBundle, Table, ToffoliTables
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


def _trial_params(kappa_bits: int, seed: int, table_oracle: bool) -> CryptoParams:
    if table_oracle:
        return delegation.make_params(kappa_bits, table_mode=True, table_seed=seed)
    return delegation.make_params(kappa_bits, oracle_seed=seed.to_bytes(8, "little"))


def _play(distinguisher: Callable[[Any, random.Random], int],
          challenge: Callable[[int, CryptoParams, random.Random], Any],
          kappa_bits: int, trials: int, rng: random.Random,
          table_oracle: bool) -> GameReport:
    """Play ``trials`` challenges in coupled pairs: each pair plays b=0 and
    b=1 from identical randomness (keys, pads, oracle, distinguisher coins),
    so whenever the two branches produce identical ciphertexts the measured
    advantage is exactly zero rather than sampling noise.  The challenger
    ``challenge(b, params, setup_rng)`` returns the distinguisher's view."""
    if trials < 2:
        raise ValueError("need at least two trials")
    guesses = []
    queries = 0
    for _ in range(trials // 2):
        oracle_seed = rng.getrandbits(63)
        setup_seed = rng.getrandbits(64)
        dist_seed = rng.getrandbits(64)
        for b in (0, 1):
            params = _trial_params(kappa_bits, oracle_seed, table_oracle)
            view = challenge(b, params, random.Random(setup_seed))
            guesses.append((b, 1 if distinguisher(view, random.Random(dist_seed)) else 0))
            queries += params.oracles.query_count()
    return _report(guesses, queries)


# ---------------------------------------------------------------------------
# one-shot indistinguishability of the delegation ciphertext (classical input)

@dataclass
class ChallengeView:
    """What the adversary holds: the job as shipped and the public circuit
    and crypto context; the message it asked to have encrypted is all ones.
    The key schedule appears only in the deliberately rigged mode."""

    params: CryptoParams
    circuit: CPCircuit
    job: JobBundle
    leaked_keys: DelegationKeys | None = None


Distinguisher = Callable[[ChallengeView, random.Random], int]


def run_ind_cpa_gbc(distinguisher: Distinguisher, circ: CPCircuit, kappa_bits: int,
                    trials: int, rng: random.Random, *, table_oracle: bool = True,
                    leak_keys: bool = False, misdeclared_constants: bool = False,
                    sorted_headers: bool = False) -> GameReport:
    """One-shot game: the challenger garbles either the all-ones classical
    input or the all-zero input under fresh keys, and the adversary guesses which.
    The circuit's public constants are 1 in both challenges, unless
    ``misdeclared_constants`` rigs the game: then the all-zero input holds 0
    on them too, as a secret bit wrongly declared constant would, and the
    job is built without ``delegation.encrypt``, which refuses it.
    ``sorted_headers`` rigs it too: every header lists its slots' keys by
    logical value, as a garbler without the permute bit would."""
    n = circ.num_inputs
    message = (1 << n) - 1
    const_mask = 0 if misdeclared_constants else circ.const_mask

    def challenge(b, params, setup_rng):
        keys = DelegationKeys(encoding.gen_keys(kappa_bits, circ, setup_rng))
        plain = (message if b == 1 else 0) | const_mask
        state = sparse.basis_state(sparse.qubit_layout(n), plain)
        if misdeclared_constants:
            job = JobBundle(encoding.encode(state, keys.schedule, circ.input_wires),
                            garble.garble_circuit(params, circ, keys.schedule, setup_rng))
        else:
            job = delegation.encrypt(params, keys, circ, state, setup_rng)
        if sorted_headers:
            job = JobBundle(job.encoded_state,
                            _sort_headers(params, circ, keys.schedule, job.garbled))
        return ChallengeView(params, circ, job, leaked_keys=keys if leak_keys else None)

    return _play(distinguisher, challenge, kappa_bits, trials, rng, table_oracle)


def _sort_headers(params: CryptoParams, circ: CPCircuit, schedule: KeySchedule,
                  bundle: GarbledBundle) -> GarbledBundle:
    """The bundle with each two-digest slot's logical 0 key first and the
    rows moved, and masked under their new indices, to match:
    point-and-permute without the permute bit."""
    t = params.digest_bytes

    def sort(table: Table, pairs: list[tuple[bytes, bytes]]) -> Table:
        header, slot_keys, flips = [], [], 0
        for slot, (digests, pair) in enumerate(zip(table.header, pairs)):
            if len(digests) == 2 * t:
                flip = symcrypt.slot_positions(params, pair[0], table.nonce, slot,
                                               digests) == [1]
                flips = 2 * flips + flip
                digests = digests[t:] + digests[:t] if flip else digests
            header.append(digests)
            slot_keys.append(pair if len(digests) == 2 * t else pair[1:])
        rows = []
        for i, keys in enumerate(product(*slot_keys)):
            old = i ^ flips
            plain = symcrypt.row_dec(params, keys, table.rows[old], table.nonce, old)
            rows.append(symcrypt.row_enc(params, keys, plain, table.nonce, i))
        return Table(table.nonce, tuple(header), tuple(rows))

    flipped: set[int] = set()

    def pair(wire: int) -> tuple[bytes, bytes]:
        k0, k1 = schedule.pairs[wire]
        return (k1, k0) if wire in flipped else (k0, k1)

    tables = iter(bundle.tables)
    out: list[ToffoliTables | Table] = []
    for gate in circ.gates:
        if isinstance(gate, X):
            flipped ^= {gate.wire}
            continue
        table = next(tables)
        if isinstance(gate, Toffoli):
            out.append(ToffoliTables(sort(table.forward, [pair(w) for w in gate.in_wires]),
                                     sort(table.backward,
                                          [tuple(schedule.pairs[w]) for w in gate.out_wires])))
        else:
            out.append(sort(table, [pair(gate.wire)]))
    return GarbledBundle(bundle.skeleton, tuple(out))


def dist_constant(view, rng) -> int:
    return 1


def dist_random(view, rng) -> int:
    return rng.getrandbits(1)


def _tables(table: ToffoliTables | Table) -> tuple[Table, ...]:
    return (table.forward, table.backward) if isinstance(table, ToffoliTables) else (table,)


def _held_key(view: ChallengeView, qubit: int) -> bytes:
    """The key register ``qubit`` holds in the (basis-state) encoded input."""
    kb = view.params.kappa_bytes
    basis = next(iter(view.job.encoded_state.terms))
    return ((basis >> (8 * kb * qubit)) & ((1 << 8 * kb) - 1)).to_bytes(kb, "little")


def _positions(params: CryptoParams, key: bytes, table: Table, slot: int) -> list[int]:
    return symcrypt.slot_positions(params, key, table.nonce, slot, table.header[slot])


def dist_tag_grinding(view: ChallengeView, rng: random.Random) -> int:
    """Throw 16 random keys at the first table's header; guess 1 on any hit."""
    for table in view.job.garbled.tables:
        first = _tables(table)[0]
        for _ in range(16):
            key = rand_bytes(rng, view.params.kappa_bytes)
            if any(_positions(view.params, key, first, slot)
                   for slot in range(len(first.header))):
                return 1
        break
    return 0


def dist_row_frequency(view: ChallengeView, rng) -> int:
    """Parity of all masked row bytes across the bundle."""
    acc = 0
    for table in view.job.garbled.tables:
        for part in _tables(table):
            for row in part.rows:
                for byte in row:
                    acc ^= byte
    return bin(acc).count("1") & 1


def dist_encoded_parity(view: ChallengeView, rng) -> int:
    basis = next(iter(view.job.encoded_state.terms))
    return bin(basis).count("1") & 1


def dist_header_order(view: ChallengeView, rng) -> int:
    """Look the held keys up in the first table's header and guess 1 if the
    row their positions index is the table's last, where a header sorted by
    logical value puts the all-ones row."""
    bundle = view.job.garbled
    for gate, table in zip(bundle.skeleton.gates, bundle.tables):
        qubits = gate.qubits if isinstance(gate, Toffoli) else (gate.qubit,)
        table = _tables(table)[0]
        index = 0
        for slot, q in enumerate(qubits):
            hits = _positions(view.params, _held_key(view, q), table, slot)
            digests = len(table.header[slot]) // view.params.digest_bytes
            index = index * digests + (hits[0] if hits else 0)
        return 1 if index == len(table.rows) - 1 else 0
    return 0


def dist_constant_key(view: ChallengeView, rng) -> int:
    """Look the key each declared constant's register holds up in its slot of
    the first table that constant controls; guess 1 if it matches.  Half
    tables hold the digest of the constant's 1 key alone, so this reads a
    misdeclared constant's value; an honest constant always matches."""
    bundle = view.job.garbled
    for q in bundle.skeleton.const_qubits:
        for gate, table in zip(bundle.skeleton.gates, bundle.tables):
            if isinstance(gate, Toffoli) and q in gate.qubits:
                if not _positions(view.params, _held_key(view, q), table.forward,
                                  gate.qubits.index(q)):
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
    return 1 if plain == (1 << view.circuit.num_inputs) - 1 else 0


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
    ciphertexts: list       # packed rows, or delegation.QkdmCiphertext (Pauli pad)
    queries: list[tuple[int, AffineKeyFn]]


def run_kdm_game(queries: list[tuple[int, AffineKeyFn]], n_keys: int,
                 distinguisher: Callable[[KdmView, random.Random], int],
                 kappa_bits: int, trials: int, rng: random.Random, *,
                 reuse_pads: bool = False, table_oracle: bool = True) -> GameReport:
    """Non-adaptive KDM game: the whole query list is fixed upfront, the
    challenger answers all of it at once with either f(K) or zeros.
    reuse_pads deliberately breaks the scheme (one shared mask pad per trial)
    so tests can watch the harness catch it."""
    kb = kappa_bits // 8

    def challenge(b, params, setup_rng):
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
        return KdmView(params, cts, queries)

    return _play(distinguisher, challenge, kappa_bits, trials, rng, table_oracle)


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


def kdm_dist_tag_grinding(view: KdmView, rng) -> int:
    for _ in range(32):         # random probe keys
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
# non-adaptive KDM game for the joint-hash rows of the garbled tables

@dataclass(frozen=True)
class RowQuery:
    """Row ``index`` of table ``table``, under the keys ``sources``, whose
    payload is the keys ``targets`` back to back."""

    table: int
    index: int
    sources: tuple[int, ...]
    targets: tuple[int, ...]


@dataclass
class RowKdmView:
    params: CryptoParams
    nonces: dict[int, bytes]        # per table number
    rows: list[bytes]               # per query
    queries: list[RowQuery]


def toffoli_cycle_queries(gates: int = 1) -> list[RowQuery]:
    """The rows of ``gates`` Toffolis on one input triple, whose wire i has
    keys 2i and 2i + 1.  Gate g's outputs are keys 6(g + 1) onwards; its
    forward table (number 2g) encrypts the output keys under the input keys
    and its backward table (2g + 1) the reverse, the key cycle every garbled
    Toffoli creates.  Rows sit at their logical index.  Two or more gates
    share their forward rows' keys and indices, as re-garbling one input
    triple would, so only their nonces tell their masks apart."""
    queries = []
    for g in range(gates):
        base = 6 * (g + 1)
        for u, v, w in product((0, 1), repeat=3):
            ins, z = (u, 2 + v, 4 + w), w ^ (u & v)
            outs = (base + u, base + 2 + v, base + 4 + z)
            queries.append(RowQuery(2 * g, 4 * u + 2 * v + w, ins, outs))
            queries.append(RowQuery(2 * g + 1, 4 * u + 2 * v + z, outs, ins))
    return queries


def run_row_kdm_game(queries: list[RowQuery], n_keys: int,
                     distinguisher: Callable[[RowKdmView, random.Random], int],
                     kappa_bits: int, trials: int, rng: random.Random, *,
                     reuse_nonces: bool = False) -> GameReport:
    """Non-adaptive KDM game for the joint-hash row: each table number gets
    a fresh nonce, and the challenger answers every query with its row of
    the target keys (b=1) or of zeros (b=0).  reuse_nonces deliberately
    breaks the scheme (one nonce for every table) so tests can watch the
    harness catch it."""
    kb = kappa_bits // 8

    def challenge(b, params, setup_rng):
        keyset = [symcrypt.keygen(params, setup_rng) for _ in range(n_keys)]
        shared = rand_bytes(setup_rng, kb)
        nonces = {t: shared if reuse_nonces else rand_bytes(setup_rng, kb)
                  for t in sorted({q.table for q in queries})}
        rows = []
        for q in queries:
            payload = b"".join(keyset[t] for t in q.targets)
            if b == 0:
                payload = bytes(len(payload))
            rows.append(symcrypt.row_enc(params, [keyset[s] for s in q.sources], payload,
                                         nonces[q.table], q.index))
        return RowKdmView(params, nonces, rows, queries)

    return _play(distinguisher, challenge, kappa_bits, trials, rng, True)


def row_kdm_dist_mask_equality(view: RowKdmView, rng) -> int:
    """Guess 0 when two rows coincide, as rows of zeros under one mask do;
    only a reused (keys, nonce, index) gives two rows one mask."""
    return 0 if len(set(view.rows)) < len(view.rows) else 1


def row_kdm_dist_first_byte(view: RowKdmView, rng) -> int:
    return view.rows[0][0] & 1 if view.rows else 0


# ---------------------------------------------------------------------------
# revealed-closure game for the triple-key scheme

PairSpec = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass
class ClosureView:
    params: CryptoParams
    revealed: dict[int, bytes]
    ciphertexts: list[Table]       # per pair, one row behind a slot per source key
    pairs: list[PairSpec]


def run_closure_game(pairs: list[PairSpec], revealed: Sequence[int],
                     messages: Sequence[bytes],
                     distinguisher: Callable[[ClosureView, random.Random], int],
                     n_keys: int, kappa_bits: int, trials: int,
                     rng: random.Random, *, table_oracle: bool = True) -> GameReport:
    """The challenger hands out the revealed keys plus one table per pair, a
    row in the joint-hash scheme under a fresh nonce, behind one
    single-digest slot per source key:
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

    def challenge(b, params, setup_rng):
        keyset = [symcrypt.keygen(params, setup_rng) for _ in range(n_keys)]
        cts: list[Table] = []
        for (sources, targets), msg in zip(pairs, messages):
            payload = b"".join(keyset[t] for t in targets) + msg
            if not payload:
                raise ValueError("empty row payload")
            real = b == 1 or set(sources) <= reachable
            if not real:
                payload = bytes(len(payload))
            keys = [keyset[s] for s in sources]
            nonce = rand_bytes(setup_rng, params.kappa_bytes)
            header = tuple(symcrypt.header_slot(params, (key,), nonce, slot)
                           for slot, key in enumerate(keys))
            cts.append(Table(nonce, header, (symcrypt.row_enc(params, keys, payload, nonce, 0),)))
        return ClosureView(params, {r: keyset[r] for r in revealed}, cts, pairs)

    return _play(distinguisher, challenge, kappa_bits, trials, rng, table_oracle)


def closure_dist_masked_stats(view: ClosureView, rng) -> int:
    acc = 0
    for ct in view.ciphertexts:
        acc ^= ct.rows[0][0]
    return acc & 1


def closure_dist_revealed_decrypt(view: ClosureView, rng) -> int:
    """Decrypt the single-key rows whose key is revealed and look for
    obviously non-random plaintext structure (all-zero payloads)."""
    for (sources, _), ct in zip(view.pairs, view.ciphertexts):
        if len(sources) == 1 and sources[0] in view.revealed:
            plain = symcrypt.row_dec(view.params, (view.revealed[sources[0]],), ct.rows[0],
                                     ct.nonce, 0)
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
    input_keys: list[bytes]


Guesser = Callable[[RecoveryView, random.Random], list[bytes]]


def wire_tag_check(view: RecoveryView, wire: int, key: bytes) -> bool:
    """Does key match a digest tied to this input wire?  The header slot of
    the first table the wire feeds holds the digests of the wire's keys, so
    a hit pins the key (up to the digest false-accept probability)."""
    for gate, table in zip(view.bundle.skeleton.gates, view.bundle.tables):
        if isinstance(gate, Toffoli) and wire in gate.in_wires:
            return bool(_positions(view.params, key, table.forward, gate.in_wires.index(wire)))
        if not isinstance(gate, Toffoli) and gate.wire == wire:
            return bool(_positions(view.params, key, table, 0))
    raise ValueError(f"wire {wire} feeds no gate; no digest to check against")


def key_recovery_experiment(circ: CPCircuit, kappa_bits: int, guesser: Guesser,
                            trials: int, rng: random.Random, *,
                            table_oracle: bool = True) -> float:
    """Hand the guesser one input's keys plus the tables; count how often it
    produces the key tuple of a different designated input.  Success is
    checked through the tables' own tags (plus disequality with the known key
    where the target bit differs - replaying the given keys never counts).
    Both inputs hold the circuit's public constants at 1: the revealed input
    is 0 elsewhere and the target 1 everywhere."""
    n = circ.num_inputs
    input_bits = circ.const_mask
    if input_bits == (1 << n) - 1:
        raise ValueError("every input is a public constant: no target input differs")
    successes = 0
    for _ in range(trials):
        params = _trial_params(kappa_bits, rng.getrandbits(63), table_oracle)
        schedule = encoding.gen_keys(kappa_bits, circ, rng)
        bundle = garble.garble_circuit(params, circ, schedule, rng)
        known = [schedule.pairs[w][(input_bits >> i) & 1]
                 for i, w in enumerate(circ.input_wires)]
        view = RecoveryView(params, circ, bundle, list(known))
        guess = guesser(view, rng)
        ok = len(guess) == n
        for i, w in enumerate(circ.input_wires):
            if not ok:
                break
            if (input_bits >> i) & 1:       # a constant: both inputs hold 1
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
        if (view.circuit.const_mask >> i) & 1:
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

def run_qkdm_game(queries: list[tuple[int, AffineKeyFn]], n_keys: int,
                  distinguisher: Callable[[KdmView, random.Random], int],
                  kappa_bits: int, trials: int, rng: random.Random, *,
                  table_oracle: bool = True) -> GameReport:
    """Same shape as the classical KDM game, but the challenger answers with
    Pauli-padded basis states of f(K) (or of zeros).  Classical harness:
    plaintext states are computational-basis strings."""
    kb = kappa_bits // 8
    lay = sparse.RegisterLayout((("m", kappa_bits),))

    def challenge(b, params, setup_rng):
        keyset = [symcrypt.keygen(params, setup_rng) for _ in range(n_keys)]
        cts = []
        for index, fn in queries:
            plain = fn.evaluate(keyset) if b == 1 else bytes(kb)
            state = sparse.basis_state(lay, int.from_bytes(plain, "little"))
            cts.append(delegation.qkdm_enc(params, keyset[index], state, setup_rng))
        return KdmView(params, cts, queries)

    return _play(distinguisher, challenge, kappa_bits, trials, rng, table_oracle)


def qkdm_dist_padded_parity(view: KdmView, rng) -> int:
    acc = 0
    for ct in view.ciphertexts:
        acc ^= next(iter(ct.padded_state.terms))
    return bin(acc).count("1") & 1
