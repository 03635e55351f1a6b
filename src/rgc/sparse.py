"""Sparse state vectors over named bit registers, plus small dense utilities.

A state is a map from basis bitstrings to complex amplitudes.  Basis strings
are packed into Python ints: registers occupy bit ranges in declaration
order, with the first register at the least-significant end, and bit 0 of a
register is the least-significant bit inside its range.  That convention is
fixed; serialization and all callers rely on it.

All public operations preserve the norm to 1e-9 and drop amplitudes below
``PRUNE_EPSILON`` (garbled evaluation creates no small amplitudes, so pruning
only guards float dust).  States are value-semantic: operations return new
states and never mutate their inputs.

An encoded state is held as :class:`ColumnarState`, one bitset per
register, from the client's encoder through the wire and the evaluator to
its decoder; ``SparseState`` is the logical form.

The dense helpers (density matrices, trace distance) cover the client-side
checks that need exact linear algebra at <= 2^14 dimensions.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

if TYPE_CHECKING:        # imported where used: the server path needs no numpy
    import numpy as np
PRUNE_EPSILON = 1e-12
NORM_TOL = 1e-9


class LayoutMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class RegisterLayout:
    registers: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [n for n, _ in self.registers]
        if len(set(names)) != len(names):
            raise ValueError("register names must be unique")
        if any(w <= 0 for _, w in self.registers):
            raise ValueError("register widths must be positive")
        index: dict[str, tuple[int, int]] = {}
        off = 0
        for reg_name, width in self.registers:
            index[reg_name] = (off, width)
            off += width
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_total", off)

    @property
    def total_bits(self) -> int:
        return self._total

    def offset(self, name: str) -> int:
        return self._index[name][0]

    def width(self, name: str) -> int:
        return self._index[name][1]

    def extract(self, basis: int, name: str) -> int:
        off, width = self._index[name]
        return (basis >> off) & ((1 << width) - 1)


def qubit_layout(n: int, width: int = 1) -> RegisterLayout:
    """One register of ``width`` bits per qubit, qubit i at bits
    [i * width, (i + 1) * width): a plain qubit, or its key register."""
    return RegisterLayout(tuple((f"q{i}", width) for i in range(n)))


class SparseState:
    def __init__(self, layout: RegisterLayout, terms: dict[int, complex],
                 check: bool = True):
        self.layout = layout
        self.terms = terms
        if check and not abs(self.norm_sq() - 1.0) <= NORM_TOL:    # NaN fails too
            raise ValueError(f"state norm^2 {self.norm_sq()!r} differs from 1")

    def norm_sq(self) -> float:
        # squared by multiplying: a huge amplitude gives inf, never OverflowError
        return sum(a.real * a.real + a.imag * a.imag for a in self.terms.values())

    def num_terms(self) -> int:
        return len(self.terms)

    def __eq__(self, other):
        return (isinstance(other, SparseState) and self.layout == other.layout
                and self.terms == other.terms)

    def __repr__(self):
        return f"SparseState({self.layout.total_bits} bits, {len(self.terms)} terms)"


def transpose(words: Sequence[int], width: int) -> list[int]:
    """Transpose a bit matrix: bit j of word i becomes bit i of word j, for
    every j below ``width``.  Every word must be below 2^width."""
    if not words:
        return [0] * width
    # word i's bit j is character i * width + width - 1 - j
    text = "".join([format(word, f"0{width}b") for word in words])
    return [int(text[width - 1 - j::width][::-1], 2) for j in range(width)]


def descents(bits: Sequence[int], count: int) -> int:
    """Bit t is set when term t + 1 does not come strictly after term t in
    the code order of the bitset columns ``bits`` over ``count`` terms, so 0
    means the codes strictly increase.  Registers are compared from the
    most significant down, one bitset operation each over all pairs of
    neighbours."""
    undecided = (1 << count - 1) - 1 if count > 1 else 0
    bad = 0
    for column in reversed(bits):
        if not column:          # one value in every term decides nothing
            continue
        differ = (column ^ column >> 1) & undecided
        bad |= differ & column      # term t holds the second value, t + 1 the first
        undecided ^= differ
    return bad | undecided          # neither: two equal terms


@dataclass
class ColumnarState:
    """A state over registers of ``width`` bits, one bitset column per
    register: the bitslicing of Biham ("A Fast New DES Implementation in
    Software", FSE 1997) applied to the terms.

    Register i holds one or two distinct values, ``values[i]``, each
    ceil(width / 8) little-endian bytes.  Term t holds
    ``values[i][(bits[i] >> t) & 1]`` in register i and amplitude
    ``amps[t]``, so ``bits[i]`` is 0 when the register holds one value.
    This is the protocol's encoded state: register i holds the keys of
    qubit i's current wire, and a wire has two.

    The canonical form, the one the wire carries, lists each register's
    values in increasing order as integers and its terms in strictly
    increasing order of their basis strings (register 0 least significant).
    With increasing values, that is the order of the per-term codes, bit i
    of term t's code being ``(bits[i] >> t) & 1``.
    """

    width: int
    values: list[list[bytes]]
    bits: list[int]
    amps: list[complex]

    def num_terms(self) -> int:
        return len(self.amps)

    def canonical(self) -> ColumnarState:
        """The state in canonical form: each register's values sorted, with
        its bitset complemented where they swap, then the terms sorted by
        their codes when they are not in order already.  Only the registers
        holding two values are transposed for the sort: a register of one
        value has bitset 0 in every order."""
        full = (1 << len(self.amps)) - 1
        values, columns = [], []
        for vals, bits in zip(self.values, self.bits):
            if len(vals) == 2 and vals[0][::-1] > vals[1][::-1]:    # little-endian
                vals, bits = vals[::-1], full ^ bits
            values.append(vals)
            columns.append(bits)
        if not descents(columns, len(self.amps)):
            return ColumnarState(self.width, values, columns, self.amps)
        varying = [i for i, bits in enumerate(columns) if bits]
        codes = transpose([columns[i] for i in varying], len(self.amps))
        order = sorted(range(len(codes)), key=codes.__getitem__)
        for i, bits in zip(varying, transpose([codes[t] for t in order], len(varying))):
            columns[i] = bits
        return ColumnarState(self.width, values, columns, [self.amps[t] for t in order])

    @staticmethod
    def from_sparse(state: SparseState) -> ColumnarState:
        """The canonical column form of a qubit state: one register of one
        bit per basis bit, register i's bitset plane i of one transpose of
        the sorted basis strings, holding ``b"\\0"``, ``b"\\1"`` or both."""
        bases = sorted(state.terms)
        full = (1 << len(bases)) - 1
        values, columns = [], []
        for plane in transpose(bases, state.layout.total_bits):
            values.append([b"\0"] if not plane else [b"\1"] if plane == full
                          else [b"\0", b"\1"])
            columns.append(0 if plane == full else plane)
        return ColumnarState(1, values, columns, [state.terms[b] for b in bases])


def _pruned(terms: dict[int, complex]) -> dict[int, complex]:
    return {b: a for b, a in terms.items() if abs(a) >= PRUNE_EPSILON}


def basis_state(lay: RegisterLayout, value: int) -> SparseState:
    if value < 0 or value >= (1 << lay.total_bits):
        raise ValueError("basis value out of range")
    return SparseState(lay, {value: 1.0 + 0j})


def from_terms(lay: RegisterLayout, terms: dict[int, complex]) -> SparseState:
    return SparseState(lay, _pruned(dict(terms)))


def random_state(lay: RegisterLayout, rng: random.Random,
                 support_bits: Sequence[int] | None = None) -> SparseState:
    """Haar-ish random state: Gaussian amplitudes over the full basis of the
    given bits (all bits by default), normalized.  A support wider than
    ``MAX_DENSE_DIM`` basis states is refused before any draw."""
    bits = list(support_bits) if support_bits is not None else list(range(lay.total_bits))
    dim = 1 << len(bits)
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"support of {len(bits)} bits too wide for a random state")
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    terms: dict[int, complex] = {}
    for idx, amp in enumerate(amps):
        basis = 0
        for pos, bit in enumerate(bits):
            if (idx >> pos) & 1:
                basis |= 1 << bit
        terms[basis] = amp / norm
    return SparseState(lay, _pruned(terms))


def with_layout(state: SparseState, new_layout: RegisterLayout) -> SparseState:
    """Relabel registers without touching bits (total widths must agree)."""
    if new_layout.total_bits != state.layout.total_bits:
        raise LayoutMismatchError("total bit count differs")
    return SparseState(new_layout, dict(state.terms), check=False)


# ---------------------------------------------------------------------------
# evolution, one term at a time (the per-term reference that the bitset
# circuit.simulate is tested against)

def apply_classical(state: SparseState, f: Callable[[int], int]) -> SparseState:
    """Lift a reversible classical map over basis strings to the state.

    f must be injective on the support actually encountered; an image
    collision means the map was not a permutation and the state would stop
    being unitary, so we abort.
    """
    new_terms: dict[int, complex] = {}
    for basis, amp in state.terms.items():
        image = f(basis)
        if image in new_terms:
            raise ValueError(f"classical map collides on image {image:#x}")
        new_terms[image] = amp
    return SparseState(state.layout, new_terms, check=False)


def apply_phase(state: SparseState, exponent: Callable[[int], int], denom: int) -> SparseState:
    """Multiply each term by omega^exponent(basis), omega = exp(i*pi/denom).

    Exponents live in Z_{2*denom}; the phase factors are evaluated once per
    distinct exponent to limit float drift.
    """
    if denom <= 0:
        raise ValueError("denominator must be positive")
    factors: dict[int, complex] = {}
    new_terms: dict[int, complex] = {}
    for basis, amp in state.terms.items():
        j = exponent(basis) % (2 * denom)
        factor = factors.get(j)
        if factor is None:
            factor = cmath.exp(1j * math.pi * j / denom)
            factors[j] = factor
        new_terms[basis] = amp * factor
    return SparseState(state.layout, new_terms, check=False)


def pauli_frame(state: SparseState, x_mask: int, z_mask: int) -> SparseState:
    """Apply X^a Z^b: phase (-1)^{b.v} on each basis v, then flip bits a."""
    n = state.layout.total_bits
    if x_mask >> n or z_mask >> n:
        raise ValueError("mask wider than the state")
    new_terms: dict[int, complex] = {}
    for basis, amp in state.terms.items():
        if (z_mask & basis).bit_count() & 1:
            amp = -amp
        new_terms[basis ^ x_mask] = amp
    return SparseState(state.layout, new_terms, check=False)


# ---------------------------------------------------------------------------
# comparison and measurement

def inner(a: SparseState, b: SparseState) -> complex:
    if a.layout.total_bits != b.layout.total_bits:
        raise LayoutMismatchError("states live on different bit counts")
    if len(a.terms) > len(b.terms):
        a, b = b, a
    return sum(amp.conjugate() * b.terms.get(basis, 0j) for basis, amp in a.terms.items())


def fidelity(a: SparseState, b: SparseState) -> float:
    """|<a|b>|^2 - insensitive to global phase."""
    return abs(inner(a, b)) ** 2


def measure_all(state: SparseState, rng: random.Random) -> tuple[int, float]:
    """Sample one basis outcome with Born probabilities."""
    u = rng.random()
    acc = 0.0
    last = None
    for basis, amp in state.terms.items():
        p = abs(amp) ** 2
        acc += p
        last = (basis, p)
        if u < acc:
            return basis, p
    assert last is not None, "cannot measure the zero state"
    return last  # float slack put u past the end


def sample_counts(state: SparseState, shots: int, rng: random.Random,
                  register: str | None = None) -> dict[int, int]:
    """Repeated measurement, optionally marginal on one register."""
    counts: dict[int, int] = {}
    for _ in range(shots):
        outcome, _ = measure_all(state, rng)
        if register is not None:
            outcome = state.layout.extract(outcome, register)
        counts[outcome] = counts.get(outcome, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# QFT

def qft(state: SparseState, register: str) -> SparseState:
    """Quantum Fourier transform on one register (width <= 20).

    QFT|x> = 2^{-w/2} sum_y exp(2*pi*i*x*y/2^w) |y>, applied coherently: the
    other registers are untouched, so we transform each slice of fixed
    remaining bits.
    """
    import numpy as np
    width = state.layout.width(register)
    if width > 20:
        raise ValueError(f"register {register!r} too wide for QFT ({width} bits)")
    off = state.layout.offset(register)
    mask = ((1 << width) - 1) << off
    dim = 1 << width

    slices: dict[int, np.ndarray] = {}
    for basis, amp in state.terms.items():
        rest = basis & ~mask
        vec = slices.get(rest)
        if vec is None:
            vec = np.zeros(dim, dtype=complex)
            slices[rest] = vec
        vec[(basis & mask) >> off] = amp

    # slices in order of first appearance, values increasing within each
    new_terms: dict[int, complex] = {}
    for rest, vec in slices.items():
        out = np.fft.ifft(vec) * math.sqrt(dim)
        values = np.flatnonzero(np.abs(out) >= PRUNE_EPSILON)
        new_terms.update(zip([rest | value << off for value in values.tolist()],
                             out[values].tolist()))
    return SparseState(state.layout, new_terms)


# ---------------------------------------------------------------------------
# dense utilities

MAX_DENSE_DIM = 1 << 14


def dense_vector(state: SparseState) -> np.ndarray:
    import numpy as np
    dim = 1 << state.layout.total_bits
    if dim > MAX_DENSE_DIM:
        raise ValueError("state too wide for a dense vector")
    vec = np.zeros(dim, dtype=complex)
    for basis, amp in state.terms.items():
        vec[basis] = amp
    return vec


def density_average(states: Iterable[SparseState]) -> np.ndarray:
    """The uniform mixture of the given pure states."""
    import numpy as np
    states = list(states)
    weight = 1.0 / len(states)
    return sum(weight * np.outer(vec, vec.conj()) for vec in map(dense_vector, states))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of rho - sigma."""
    import numpy as np
    if rho.shape != sigma.shape:
        raise ValueError("dimension mismatch")
    # difference of Hermitian matrices: singular values = |eigenvalues|
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho - sigma)).sum())
