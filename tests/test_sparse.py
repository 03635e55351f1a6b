import cmath
import math
import random

import numpy as np
import pytest

from rgc import sparse
from rgc.sparse import (RegisterLayout, SparseState, apply_classical,
                        apply_phase, basis_state, density_average, dense_vector,
                        fidelity, measure_all, pauli_frame, qft, qubit_layout,
                        random_state, trace_distance, with_layout)


def test_layout_offsets():
    lay = RegisterLayout((("a", 3), ("b", 5)))
    assert lay.total_bits == 8
    assert lay.offset("a") == 0 and lay.offset("b") == 3
    assert lay.extract(0b10110101, "a") == 0b101
    assert lay.extract(0b10110101, "b") == 0b10110


def test_layout_duplicate_names_rejected():
    with pytest.raises(ValueError):
        RegisterLayout((("a", 1), ("a", 2)))


def test_apply_classical_identity_and_flip():
    lay = RegisterLayout((("a", 1),))
    plus = sparse.from_terms(lay, {0: 1 / math.sqrt(2), 1: 1 / math.sqrt(2)})
    same = apply_classical(plus, lambda v: v)
    assert same.terms == plus.terms
    flipped = apply_classical(plus, lambda v: v ^ 1)
    assert flipped.terms[0] == plus.terms[1]


def test_apply_classical_random_permutation():
    rng = random.Random(1)
    lay = RegisterLayout((("r", 4),))
    perm = list(range(16))
    rng.shuffle(perm)
    state = random_state(lay, rng)
    image = apply_classical(state, lambda v: perm[v])
    assert abs(image.norm_sq() - 1) < 1e-12
    for basis, amp in state.terms.items():
        assert image.terms[perm[basis]] == amp


def test_apply_classical_collision_aborts():
    lay = RegisterLayout((("a", 1),))
    plus = sparse.from_terms(lay, {0: 1 / math.sqrt(2), 1: 1 / math.sqrt(2)})
    with pytest.raises(ValueError):
        apply_classical(plus, lambda v: 0)


def test_apply_phase_identity_and_quarter_turns():
    lay = RegisterLayout((("r", 2),))
    state = sparse.from_terms(lay, {v: 0.5 for v in range(4)})
    assert apply_phase(state, lambda v: 0, 4).terms == state.terms
    # omega_2 = exp(i*pi/2) = i: amplitudes go (1, i, -1, -i)/2
    turned = apply_phase(state, lambda v: v, 2)
    expect = [0.5, 0.5j, -0.5, -0.5j]
    for v in range(4):
        assert abs(turned.terms[v] - expect[v]) < 1e-12


def test_apply_phase_inverse():
    rng = random.Random(2)
    lay = RegisterLayout((("r", 3),))
    state = random_state(lay, rng)
    fwd = apply_phase(state, lambda v: v, 4)
    back = apply_phase(fwd, lambda v: -v, 4)
    assert all(abs(back.terms[b] - a) < 1e-12 for b, a in state.terms.items())


def test_pauli_frame_zero_and_involution():
    rng = random.Random(3)
    lay = RegisterLayout((("r", 8),))
    state = random_state(lay, rng, support_bits=range(3))
    assert pauli_frame(state, 0, 0).terms == state.terms
    twice = pauli_frame(pauli_frame(state, 0b1011, 0b0110), 0b1011, 0b0110)
    assert fidelity(twice, state) == pytest.approx(1.0, abs=1e-12)


def test_pauli_frame_permutes_support_by_xor():
    rng = random.Random(4)
    lay = RegisterLayout((("r", 8),))
    state = random_state(lay, rng, support_bits=range(3))
    x_mask = 0b10100101
    moved = pauli_frame(state, x_mask, 0b11)
    assert abs(moved.norm_sq() - 1) < 1e-12
    assert set(moved.terms) == {b ^ x_mask for b in state.terms}


def test_fidelity_basics():
    lay = RegisterLayout((("r", 2),))
    s = random_state(lay, random.Random(5))
    assert fidelity(s, s) == pytest.approx(1.0)
    assert fidelity(basis_state(lay, 0), basis_state(lay, 3)) == 0.0
    rotated = SparseState(lay, {b: a * cmath.exp(0.7j) for b, a in s.terms.items()},
                          check=False)
    assert fidelity(s, rotated) == pytest.approx(1.0)


def test_measure_all_deterministic_on_basis_state():
    lay = RegisterLayout((("r", 3),))
    outcome, p = measure_all(basis_state(lay, 5), random.Random(0))
    assert outcome == 5 and p == pytest.approx(1.0)


def test_measure_all_born_statistics():
    lay = RegisterLayout((("r", 1),))
    state = sparse.from_terms(lay, {0: 1 / math.sqrt(2), 1: 1 / math.sqrt(2)})
    rng = random.Random(6)
    ones = sum(measure_all(state, rng)[0] for _ in range(10_000))
    assert abs(ones - 5000) <= 3 * 50


def test_measure_all_seeded_reproducible():
    lay = RegisterLayout((("r", 2),))
    state = random_state(lay, random.Random(7))
    seq1 = [measure_all(state, random.Random(42))[0] for _ in range(20)]
    seq2 = [measure_all(state, random.Random(42))[0] for _ in range(20)]
    assert seq1 == seq2


def test_qft_of_zero_is_uniform():
    lay = RegisterLayout((("r", 4),))
    out = qft(basis_state(lay, 0), "r")
    assert len(out.terms) == 16
    assert all(abs(a - 0.25) < 1e-12 for a in out.terms.values())


def test_qft_period_comb():
    # period-4 comb on 6 bits concentrates on multiples of 64/4 = 16
    lay = RegisterLayout((("r", 6),))
    comb = sparse.from_terms(lay, {x: 0.25 for x in range(0, 64, 4)})
    out = qft(comb, "r")
    support = {b for b, a in out.terms.items() if abs(a) > 1e-9}
    assert support == {0, 16, 32, 48}


def test_qft_respects_other_registers():
    lay = RegisterLayout((("r", 3), ("tag", 2)))
    state = sparse.from_terms(lay, {0b00_000: 1 / math.sqrt(2), 0b11_001: 1 / math.sqrt(2)})
    out = qft(state, "r")
    tags = {lay.extract(b, "tag") for b in out.terms}
    assert tags == {0b00, 0b11}
    assert abs(out.norm_sq() - 1) < 1e-9


def test_qft_width_cap():
    lay = RegisterLayout((("r", 21),))
    with pytest.raises(ValueError):
        qft(basis_state(lay, 0), "r")


def test_trace_distance_cases():
    zero = np.zeros((2, 2), complex); zero[0, 0] = 1
    one = np.zeros((2, 2), complex); one[1, 1] = 1
    assert trace_distance(zero, zero) == pytest.approx(0.0)
    assert trace_distance(zero, one) == pytest.approx(1.0)
    assert trace_distance(zero, np.eye(2, dtype=complex) / 2) == pytest.approx(0.5)


def test_density_average_mixes():
    lay = RegisterLayout((("r", 1),))
    rho = density_average([basis_state(lay, 0), basis_state(lay, 1)])
    assert trace_distance(rho, np.eye(2, dtype=complex) / 2) == pytest.approx(0.0)


def test_with_layout_relabels():
    state = random_state(qubit_layout(4), random.Random(9))
    regrouped = with_layout(state, RegisterLayout((("lo", 2), ("hi", 2))))
    assert regrouped.terms == state.terms
    with pytest.raises(sparse.LayoutMismatchError):
        with_layout(state, RegisterLayout((("r", 3),)))


def test_norm_validation():
    lay = RegisterLayout((("r", 1),))
    with pytest.raises(ValueError):
        SparseState(lay, {0: 0.5 + 0j})


def test_huge_amplitude_fails_the_norm_check_not_the_arithmetic():
    # squaring 1e200 overflows a float; the norm is then inf, not an error
    lay = RegisterLayout((("r", 2),))
    with pytest.raises(ValueError, match="norm"):
        SparseState(lay, {0: 1e200 + 0j, 1: 0.5 + 0j})
    huge = SparseState(lay, {0: 1e200 + 0j}, check=False)
    with pytest.raises(ValueError, match="norm"):
        qft(huge, "r")


def test_nan_amplitude_fails_the_norm_check():
    with pytest.raises(ValueError, match="norm"):
        SparseState(RegisterLayout((("r", 1),)), {0: complex(math.nan, 0.0)})


# dense reference agreement -------------------------------------------------

def _dense_permutation(perm, vec):
    out = np.zeros_like(vec)
    for i, amp in enumerate(vec):
        out[perm[i]] = amp
    return out


def test_sparse_matches_dense_reference():
    rng = random.Random(10)
    n = 8
    lay = RegisterLayout((("r", n),))
    state = random_state(lay, rng)
    vec = dense_vector(state)

    perm = list(range(1 << n))
    rng.shuffle(perm)
    got = dense_vector(apply_classical(state, lambda v: perm[v]))
    assert np.max(np.abs(got - _dense_permutation(perm, vec))) < 1e-10

    got = dense_vector(apply_phase(state, lambda v: v % 7, 4))
    ref = vec * np.exp(1j * math.pi * (np.arange(1 << n) % 7) / 4)
    assert np.max(np.abs(got - ref)) < 1e-10

    x_mask, z_mask = 0b10110100, 0b01011001
    got = dense_vector(pauli_frame(state, x_mask, z_mask))
    ref = np.zeros_like(vec)
    for v, amp in enumerate(vec):
        ref[v ^ x_mask] += amp * (-1) ** bin(v & z_mask).count("1")
    assert np.max(np.abs(got - ref)) < 1e-10


def test_qft_matches_dense_dft():
    rng = random.Random(11)
    n = 6
    lay = RegisterLayout((("r", n),))
    state = random_state(lay, rng)
    vec = dense_vector(state)
    dim = 1 << n
    dft = np.array([[np.exp(2j * np.pi * x * y / dim) for x in range(dim)]
                    for y in range(dim)]) / math.sqrt(dim)
    ref = dft @ vec
    got = dense_vector(qft(state, "r"))
    assert np.max(np.abs(got - ref)) < 1e-10


def test_random_state_refuses_a_wide_support_before_drawing():
    class NoDraws(random.Random):
        def gauss(self, mu=0.0, sigma=1.0):
            raise AssertionError("drew an amplitude")

    lay = qubit_layout(2, 16)
    with pytest.raises(ValueError, match="32 bits"):
        random_state(lay, NoDraws(1))
    with pytest.raises(ValueError, match="32 bits"):
        random_state(lay, NoDraws(1), support_bits=range(32))
