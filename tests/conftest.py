import random
import struct

import numpy as np
import pytest
from hypothesis import strategies as st

from rgc import delegation, garble, netio
from rgc.circuit import allocate_wires, phase, toff, x
from rgc.oracle import OracleFamily
from rgc.sparse import SparseState, qubit_layout, random_state
from rgc.symcrypt import CryptoParams
from rgc.util import KeyStream


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def params():
    """Hash-oracle crypto context at the toy test size."""
    return delegation.make_params(16, oracle_seed=b"test-oracle")


@pytest.fixture
def table_params():
    return delegation.make_params(16, table_mode=True, table_seed=11)


def make_params(kappa_bits=16, tag_len_bits=128, seed=b"test-oracle", table=False,
                table_seed=0):
    family = OracleFamily(mode="table" if table else "hash", seed=seed,
                          rng_seed=table_seed)
    return CryptoParams(kappa_bits, family, tag_len_bits)


def random_density(dim: int, rng: np.random.Generator, pure: bool = True) -> np.ndarray:
    if pure:
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vec /= np.linalg.norm(vec)
        return np.outer(vec, vec.conj())
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


@st.composite
def circuits_and_states(draw):
    """A circuit of at most 12 Toffoli, phase and X gates on at most 4 qubits,
    the qubits a random input state is supported on, and a seed.  Sometimes
    up to two qubits are public constants: never a Toffoli target, never
    phased, never hit by an X, and outside the support (see
    :func:`input_state`, which sets them to 1)."""
    n = draw(st.integers(1, 4))
    consts = draw(st.sets(st.integers(0, n - 1), max_size=min(2, n - 1)))
    free = [q for q in range(n) if q not in consts]
    toffoli = st.builds(toff, st.integers(0, n - 1), st.integers(0, n - 1),
                        st.sampled_from(free)).filter(lambda g: len(set(g.qubits)) == 3)
    phase_gate = st.builds(phase, st.sampled_from(free), st.integers(0, 3),
                           st.sampled_from((1, -1)))
    x_gate = st.builds(x, st.sampled_from(free))
    kinds = (toffoli, phase_gate, x_gate) if n >= 3 else (phase_gate, x_gate)
    gates = draw(st.lists(st.one_of(*kinds), max_size=12))
    support = draw(st.lists(st.sampled_from(free), unique=True, min_size=1))
    return allocate_wires(gates, n, sorted(consts)), support, draw(st.integers(0, 2**32))


def gate_coins(params, rng):
    """A gate's coins as ``garble_circuit`` hands them to the first gate,
    from a key stream over a secret drawn from ``rng``."""
    stream = KeyStream(rng.getrandbits(256))
    return garble.GateCoins(stream.read(b"tables", garble.coin_stride(params.kappa_bytes)), 0,
                            stream, 0)


def gate_keys(circ, schedule, index=0):
    """The (0 key, 1 key) pairs of the wires that skeleton gate ``index``
    of ``circ`` reads, X parities applied, and of the wires it writes."""
    reads, writes = circ.wiring.gates[index]
    return [schedule.keys(*end) for end in reads], [schedule.keys(w) for w in writes]


def sparse_of(state):
    """The per-term form of a column state: each term's basis string on
    ``qubit_layout(registers, width)``, in the state's term order."""
    width = state.width
    ints = [[int.from_bytes(v, "little") for v in values] for values in state.values]
    terms = {}
    for t, amp in enumerate(state.amps):
        basis = 0
        for i, (values, bits) in enumerate(zip(ints, state.bits)):
            basis |= values[bits >> t & 1] << i * width
        terms[basis] = amp
    return SparseState(qubit_layout(len(ints), width), terms, check=False)


def wire_2_state(state):
    """A per-term state as wire version 2 wrote it: the register count, one
    width and the term count, then per term, in increasing order, its basis
    string and its amplitude."""
    n = len(state.layout.registers)
    width = state.layout.registers[0][1] if n else 1
    nbytes = (n * width + 7) // 8
    return struct.pack("<IHI", n, width, len(state.terms)) + b"".join(
        basis.to_bytes(nbytes, "little") + struct.pack("<dd", amp.real, amp.imag)
        for basis, amp in sorted(state.terms.items()))


def wire_1_state(state):
    """A per-term state as wire version 1 wrote it: the register count, then
    each register's name behind its u32 length and its u16 width, where
    version 2 writes one width.  The term count and terms are version 2's."""
    registers = b"".join(struct.pack("<I", len(name)) + name.encode()
                         + struct.pack("<H", width)
                         for name, width in state.layout.registers)
    return (struct.pack("<I", len(state.layout.registers)) + registers
            + wire_2_state(state)[6:])


def input_state(circ, support, rng):
    """A random state on the ``support`` qubits with the circuit's public
    constants at 1 and every other qubit at 0."""
    state = random_state(qubit_layout(circ.num_inputs), rng, support_bits=support)
    return SparseState(state.layout, {basis | circ.const_mask: amp
                                      for basis, amp in state.terms.items()})


def phase_only_job(tables, n=12):
    """A job of 2^n equal terms through ``tables`` phase tables, the shape
    that asks the evaluator the most work per request byte.  4096 tables on
    12 qubits meet ``netio.MAX_JOB_WORK`` exactly.  Returns the circuit, the
    job and its params."""
    circ = allocate_wires([phase(g % n, 2) for g in range(tables)], n)
    rng = random.Random(47)
    keys = delegation.keygen(16, n, circ, rng, conjecture=True)
    params = delegation.make_params(16, oracle_seed=b"work")
    state = SparseState(qubit_layout(n), {b: 2 ** (-n / 2) + 0j for b in range(1 << n)})
    return circ, delegation.encrypt(params, keys, circ, state, rng), params
