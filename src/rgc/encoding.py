"""Key-register encoding of qubits and its exact desk-scale analysis.

Each logical qubit is replaced by a kappa-bit register via |0> -> |k0>,
|1> -> |k1> with a distinct random key pair per wire.  The map is unitary
whenever k0 != k1, costs popcount(k0 xor k1) CNOTs plus popcount(k0) X gates
on real hardware (CNOT the qubit into the positions where the keys differ,
then X the positions where k0 is set), and - averaged over all valid key
pairs - leaves anything entangled with the input close to maximally mixed.

``mixing_check`` verifies that last claim exactly at small kappa by
enumerating every ordered distinct key pair.  The enumeration is organised
per wire (keys are drawn independently per wire, so the averaged channel
factorizes), which keeps two-qubit checks inside the dense-matrix budget
while remaining an exact average, not a sample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Collection, NamedTuple, Sequence

import numpy as np

from .circuit import CPCircuit
from .sparse import SparseState, qubit_layout, trace_distance
from .util import bytes_to_int, popcount, rand_bytes


class WireKeyPair(NamedTuple):
    k0: bytes
    k1: bytes


@dataclass(frozen=True)
class KeySchedule:
    kappa_bits: int
    pairs: tuple[WireKeyPair, ...]

    def __post_init__(self):
        nbytes = self.kappa_bits // 8
        for idx, (k0, k1) in enumerate(self.pairs):
            if len(k0) != nbytes or len(k1) != nbytes:
                raise ValueError(f"wire {idx}: key length != kappa")
            if k0 == k1:
                raise ValueError(f"wire {idx}: key pair must be distinct")

    @property
    def num_wires(self) -> int:
        return len(self.pairs)


class UnknownKeyError(ValueError):
    """A register held a string matching neither wire key: corrupted result."""


def gen_keys(kappa_bits: int, circ: CPCircuit, rng: random.Random) -> KeySchedule:
    """Independent uniform key pairs for every wire of the circuit,
    resampling the measure-zero k0 == k1 collisions."""
    if kappa_bits % 8 != 0 or kappa_bits <= 0:
        raise ValueError("kappa must be a positive byte multiple")
    nbytes = kappa_bits // 8
    pairs = []
    for _ in range(circ.num_wires):
        k0 = rand_bytes(rng, nbytes)
        k1 = rand_bytes(rng, nbytes)
        while k1 == k0:
            k1 = rand_bytes(rng, nbytes)
        pairs.append(WireKeyPair(k0, k1))
    return KeySchedule(kappa_bits, tuple(pairs))


def encode(state: SparseState, schedule: KeySchedule, wires: Sequence[int]) -> SparseState:
    """Replace bit i of every basis term with the key selected by that bit on
    wires[i].  Amplitudes are untouched, so the map is an isometry."""
    n = state.layout.total_bits
    if len(wires) != n:
        raise ValueError("one wire per input bit required")
    kappa = schedule.kappa_bits
    key_ints = [(bytes_to_int(schedule.pairs[w].k0), bytes_to_int(schedule.pairs[w].k1))
                for w in wires]
    terms: dict[int, complex] = {}
    for basis, amp in state.terms.items():
        enc = 0
        for i in range(n):
            enc |= key_ints[i][(basis >> i) & 1] << (i * kappa)
        terms[enc] = amp
    return SparseState(qubit_layout(n, kappa), terms, check=False)


def decode(state: SparseState, schedule: KeySchedule, wires: Sequence[int],
           flipped: Collection[int] = ()) -> SparseState:
    """Invert the encoding; every register must hold one of its wire's keys.
    On a wire in ``flipped`` (an odd number of X gates) k1 means 0."""
    n = len(wires)
    kappa = schedule.kappa_bits
    if state.layout.total_bits != n * kappa:
        raise ValueError("encoded state width != len(wires) * kappa")
    key_ints = []
    for w in wires:
        k0, k1 = (bytes_to_int(key) for key in schedule.pairs[w])
        key_ints.append((k1, k0) if w in flipped else (k0, k1))
    mask = (1 << kappa) - 1
    terms: dict[int, complex] = {}
    for basis, amp in state.terms.items():
        logical = 0
        for i in range(n):
            seg = (basis >> (i * kappa)) & mask
            if seg == key_ints[i][0]:
                pass
            elif seg == key_ints[i][1]:
                logical |= 1 << i
            else:
                raise UnknownKeyError(
                    f"register {i} (wire {wires[i]}) holds {seg:#x}, matching neither key")
        terms[logical] = amp
    return SparseState(qubit_layout(n), terms, check=False)


# ---------------------------------------------------------------------------
# client-side cost model

@dataclass(frozen=True)
class CostReport:
    cnot_count: int
    x_count: int


def cnot_cost(schedule: KeySchedule, wires: Sequence[int]) -> CostReport:
    keys = [[bytes_to_int(k) for k in schedule.pairs[w]] for w in wires]
    return CostReport(sum(popcount(k0 ^ k1) for k0, k1 in keys),
                      sum(popcount(k0) for k0, _ in keys))


# ---------------------------------------------------------------------------
# exact mixing bound

class MixingBoundViolation(AssertionError):
    pass


def _pair_blocks(kappa_bits: int) -> dict[tuple[int, int], np.ndarray]:
    """E[(a,b)] = average of |k_a><k_b| over all ordered distinct key pairs."""
    dim = 1 << kappa_bits
    left = np.repeat(np.arange(dim), dim)
    right = np.tile(np.arange(dim), dim)
    keep = left != right
    k0, k1 = left[keep], right[keep]
    n_pairs = len(k0)           # 2^kappa * (2^kappa - 1)
    blocks = {}
    for a in (0, 1):
        for b in (0, 1):
            m = np.zeros((dim, dim))
            np.add.at(m, (k0 if a == 0 else k1, k0 if b == 0 else k1), 1.0)
            blocks[(a, b)] = m / n_pairs
    return blocks


def mixing_check(kappa_bits: int, n_qubits: int, rho: np.ndarray,
                 ref_qubits: int = 0) -> tuple[float, float]:
    """Average the encoding over every valid key choice and measure how far
    the result sits from maximally-mixed-tensor-the-reference.

    rho is a density matrix over n_qubits + ref_qubits qubits, qubit 0 at the
    least significant index bit and the reference on top.  Returns (distance,
    bound) with bound = 2^{-(kappa-4)} * n_qubits and raises if the bound
    fails.  Bound is vacuous below kappa = 5; refuse smaller.
    """
    if kappa_bits < 5:
        raise ValueError("mixing bound is vacuous for kappa <= 4")
    enc_bits = kappa_bits * n_qubits + ref_qubits
    if enc_bits > 14:
        raise ValueError(f"needs {enc_bits} bits > 14: enumeration infeasible")
    dim_in = 1 << (n_qubits + ref_qubits)
    if rho.shape != (dim_in, dim_in):
        raise ValueError("rho has the wrong dimension")

    blocks = _pair_blocks(kappa_bits)
    dim_ref = 1 << ref_qubits
    dim_s = 1 << n_qubits
    rho4 = rho.reshape(dim_ref, dim_s, dim_ref, dim_s)

    dim_enc = 1 << (kappa_bits * n_qubits)
    sigma = np.zeros((dim_ref * dim_enc, dim_ref * dim_enc), dtype=complex)
    for avec in range(dim_s):
        for bvec in range(dim_s):
            combined = None
            for qubit in reversed(range(n_qubits)):   # high wires first in kron
                e = blocks[((avec >> qubit) & 1, (bvec >> qubit) & 1)]
                combined = e if combined is None else np.kron(combined, e)
            sigma += np.kron(rho4[:, avec, :, bvec], combined)

    target = np.kron(np.trace(rho4, axis1=1, axis2=3), np.eye(dim_enc) / dim_enc)
    distance = trace_distance(sigma, target)
    bound = 0.5 ** (kappa_bits - 4) * n_qubits
    if distance > bound + 1e-9:
        raise MixingBoundViolation(f"distance {distance} exceeds bound {bound}")
    return distance, bound
