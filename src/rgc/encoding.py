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
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:        # imported where used: the server path needs no numpy
    import numpy as np
from .circuit import CPCircuit, End
from .sparse import ColumnarState, SparseState, qubit_layout, trace_distance, transpose
from .symcrypt import CryptoParams
from .util import KeyStream, bytes_to_int


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

    def keys(self, wire: int, flip: int = 0) -> WireKeyPair:
        """The wire's (0 key, 1 key) after ``flip``, the parity of the X gates
        on it (see :class:`rgc.circuit.Wiring`)."""
        pair = self.pairs[wire]
        return WireKeyPair(pair.k1, pair.k0) if flip else pair


class UnknownKeyError(ValueError):
    """A register held a string matching neither wire key: corrupted result."""


def gen_keys(kappa_bits: int, circ: CPCircuit, rng: random.Random) -> KeySchedule:
    """Independent uniform key pairs for every wire of the circuit, read
    from one key stream over a 256-bit secret drawn from ``rng``; a pair with
    k0 == k1 redraws its k1 from the stream under the wire's own label."""
    CryptoParams.check_widths(kappa_bits)
    nbytes = kappa_bits // 8
    stream = KeyStream(rng.getrandbits(256))
    data = stream.read(b"wire keys", 2 * nbytes * circ.num_wires)
    pairs = []
    for wire, start in enumerate(range(0, len(data), 2 * nbytes)):
        k0, k1 = data[start:start + nbytes], data[start + nbytes:start + 2 * nbytes]
        attempt = 0
        while k1 == k0:
            label = b"wire k1" + wire.to_bytes(4, "little") + attempt.to_bytes(4, "little")
            k1 = stream.read(label, nbytes)
            attempt += 1
        pairs.append(WireKeyPair(k0, k1))
    return KeySchedule(kappa_bits, tuple(pairs))


def encode(state: SparseState, schedule: KeySchedule, wires: Sequence[int]) -> ColumnarState:
    """Replace bit i of every basis term with the key selected by that bit on
    wires[i].  Amplitudes are untouched, so the map is an isometry.

    Register i lists its wire's keys in increasing order as integers, so
    term t's code is its logical basis XOR the mask of the wires whose k0 is
    the larger key.  The column form of the coded basis strings, one bit per
    register, is the canonical form's bitsets and term order; each
    register's values are then its keys.  A register whose bit is the same
    in every term holds its one key."""
    n = state.layout.total_bits
    if len(wires) != n:
        raise ValueError("one wire per input bit required")
    mask, ordered = 0, []
    for i, w in enumerate(wires):
        k0, k1 = schedule.pairs[w]
        if bytes_to_int(k0) > bytes_to_int(k1):
            mask |= 1 << i
            k0, k1 = k1, k0
        ordered.append((k0, k1))
    coded = ColumnarState.from_sparse(SparseState(
        qubit_layout(n), {basis ^ mask: amp for basis, amp in state.terms.items()}, check=False))
    values = [[keys[bit[0]] for bit in held] for keys, held in zip(ordered, coded.values)]
    return ColumnarState(schedule.kappa_bits, values, coded.bits, coded.amps)


def decode(state: ColumnarState, schedule: KeySchedule, ends: Sequence[End]) -> SparseState:
    """Invert the encoding of register i under the wire and X parity
    ``ends[i]`` (a circuit's ``wiring.outputs``); every register must hold
    only its wire's keys.

    Key membership is checked once per value a register holds, and each
    register's logical bits are its bitset, complemented when its first
    value is the 1 key; one transpose turns them into the terms' bases.  The
    terms come back in increasing order of their bases, so a decoded state
    is the same dict, order included, in process and through the wire."""
    n = len(ends)
    if len(state.values) != n or state.width != schedule.kappa_bits:
        raise ValueError("encoded state is not len(ends) registers of kappa bits")
    full = (1 << state.num_terms()) - 1
    columns = []
    for i, (w, flip) in enumerate(ends):
        k0, k1 = schedule.keys(w, flip)
        logical = 0
        for second, value in enumerate(state.values[i]):
            if value == k1:
                logical = state.bits[i] if second else full ^ state.bits[i]
            elif value != k0:
                raise UnknownKeyError(f"register {i} (wire {w}) holds "
                                      f"{bytes_to_int(value):#x}, matching neither key")
        columns.append(logical)
    bases = transpose(columns, state.num_terms())
    terms = sorted(zip(bases, state.amps), key=lambda term: term[0])
    return SparseState(qubit_layout(n), dict(terms), check=False)


# ---------------------------------------------------------------------------
# client-side cost model

@dataclass(frozen=True)
class CostReport:
    cnot_count: int
    x_count: int


def cnot_cost(schedule: KeySchedule, wires: Sequence[int]) -> CostReport:
    keys = [[bytes_to_int(k) for k in schedule.pairs[w]] for w in wires]
    return CostReport(sum((k0 ^ k1).bit_count() for k0, k1 in keys),
                      sum(k0.bit_count() for k0, _ in keys))


# ---------------------------------------------------------------------------
# exact mixing bound

class MixingBoundViolation(AssertionError):
    pass


def _pair_blocks(kappa_bits: int) -> dict[tuple[int, int], np.ndarray]:
    """E[(a,b)] = average of |k_a><k_b| over all ordered distinct key pairs."""
    import numpy as np
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
    import numpy as np
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
