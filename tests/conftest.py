import random

import numpy as np
import pytest
from hypothesis import strategies as st

from rgc import delegation
from rgc.circuit import allocate_wires
from rgc.oracle import OracleFamily
from rgc.symcrypt import CryptoParams


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
    the qubits a random input state is supported on, and a seed."""
    n = draw(st.integers(1, 4))
    toffoli = st.tuples(st.just("toff"), *([st.integers(0, n - 1)] * 3)).filter(
        lambda g: len(set(g[1:])) == 3)
    phase_gate = st.tuples(st.just("phase"), st.integers(0, n - 1), st.integers(0, 3),
                           st.sampled_from((1, -1)))
    x_gate = st.tuples(st.just("x"), st.integers(0, n - 1))
    kinds = (toffoli, phase_gate, x_gate) if n >= 3 else (phase_gate, x_gate)
    gates = draw(st.lists(st.one_of(*kinds), max_size=12))
    support = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1))
    return allocate_wires(gates, n), support, draw(st.integers(0, 2**32))
