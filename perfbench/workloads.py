"""The benchmark's workloads: seeded inputs, the client's finishing step, the check.

Every workload fixes one circuit and one input state per seed; the jobs of a
run differ only in what the client draws per job (keys, oracle seed, pads,
shuffles, the final measurement).  ``check`` compares a finished job with the
``circuit.simulate`` reference built once at set-up.
"""

from __future__ import annotations

import time

from rgc import circuit, delegation, sparse
from rgc.circuit import Toffoli
from rgc.sparse import SparseState, qubit_layout
from rgc.util import derive_rng

ETA = 16
FIDELITY_MIN = 1 - 1e-9          # the acceptance suite's tolerance


class WrongOutput(Exception):
    """The decoded result failed a check the client itself makes."""


class Workload:
    name = ""
    circuit: circuit.CPCircuit
    input_state: SparseState        # what the client encodes
    reference: SparseState          # what check() expects
    n_quantum: int
    const_qubits: tuple[int, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed

    def build(self) -> tuple[float, float]:
        """Build circuit, input and reference; returns (build_s, simulate_s)."""
        start = time.perf_counter()
        self._build_circuit_and_input()
        built = time.perf_counter()
        self.reference = self._simulate()
        return built - start, time.perf_counter() - built

    def _build_circuit_and_input(self) -> None:
        raise NotImplementedError

    def _simulate(self) -> SparseState:
        return circuit.simulate(self.circuit, self.input_state)

    def finish(self, decoded: SparseState, rng) -> SparseState:
        """Client work after decoding; returns the state to check."""
        return decoded

    def check(self, result: SparseState) -> str | None:
        if abs(result.norm_sq() - 1.0) > 1e-9:
            return f"decoded norm^2 {result.norm_sq()!r}"
        fid = sparse.fidelity(result, self.reference)
        if fid < FIDELITY_MIN:
            return f"fidelity {fid!r} below {FIDELITY_MIN!r}"
        return None

    def circuit_counts(self) -> dict[str, int]:
        toffolis = [g for g in self.circuit.gates if isinstance(g, Toffoli)]
        const = set(self.const_qubits)
        return {
            "circuit.gates": len(self.circuit.gates),
            "circuit.toffoli_gates": len(toffolis),
            "circuit.phase_gates": len(self.circuit.gates) - len(toffolis),
            "circuit.wires": self.circuit.num_wires,
            "circuit.const_control_gates": sum(
                1 for g in toffolis if g.qubits[0] in const or g.qubits[1] in const),
        }


class Modexp21(Workload):
    """One delegated Shor attempt at M=21, base 2; the client applies the QFT
    and measures after decoding."""

    name = "modexp21"

    def _build_circuit_and_input(self) -> None:
        self.mx = delegation.synth_modexp_toffoli(21, 2)
        self.circuit = self.mx.circuit
        self.input_state = delegation.modexp_input_state(self.mx)
        self.n_quantum = self.mx.n_exp
        self.const_qubits = self.mx.const_qubits

    def finish(self, decoded: SparseState, rng) -> SparseState:
        mx = self.mx
        state = sparse.qft(sparse.with_layout(decoded, mx.state_layout), "exp")
        outcome, _ = sparse.measure_all(state, rng)
        period = delegation.period_from_sample(state.layout.extract(outcome, "exp"),
                                               mx.n_exp, mx.modulus, mx.base)
        if period:
            delegation.factor_from_period(mx.modulus, mx.base, period)
        return decoded


class Blind3(Workload):
    """Blind delegation through the universal interpreter at N=3, D=3, L=4 of
    a seeded program of at most 4 gates on a seeded random 3-qubit state."""

    name = "blind3"
    N, D, L = 3, 3, 4

    def _build_circuit_and_input(self) -> None:
        rng = derive_rng(self.seed, f"{self.name}/program")
        gates = []
        for _ in range(rng.randint(1, self.L)):
            if rng.random() < 0.5:
                gates.append(circuit.toff(*rng.sample(range(self.N), 3)))
            else:
                gates.append(circuit.phase(rng.randrange(self.N), rng.randint(0, self.D),
                                           rng.choice((1, -1))))
        self.program = circuit.allocate_wires(gates, self.N)
        machine, desc = circuit.universalize(self.program, self.N, self.D, self.L)
        self.prep = machine.prep_bits(desc)
        self.data_state = sparse.random_state(qubit_layout(self.N), rng)
        self.circuit = machine.circuit
        self.input_state = SparseState(
            qubit_layout(self.circuit.num_inputs),
            {basis | self.prep: amp for basis, amp in self.data_state.terms.items()},
            check=False)
        self.n_quantum = self.N
        self.const_qubits = machine.const_qubits

    def _simulate(self) -> SparseState:
        return circuit.simulate(self.program, self.data_state)

    def finish(self, decoded: SparseState, rng) -> SparseState:
        # The same check blind_delegate makes: every non-data qubit is back
        # at its prepared value.
        data_mask = (1 << self.N) - 1
        terms = {}
        for basis, amp in decoded.terms.items():
            if basis & ~data_mask != self.prep:
                raise WrongOutput("non-data qubits not restored after interpretation")
            terms[basis & data_mask] = amp
        return SparseState(qubit_layout(self.N), terms, check=False)


class Random5(Workload):
    """A seeded 5-qubit C+P circuit of 100 Toffolis and 100 phase gates
    (d <= 3) in seeded order, on a seeded full 32-term random state."""

    name = "random5"
    N, TOFFOLIS, PHASES, D = 5, 100, 100, 3

    def _build_circuit_and_input(self) -> None:
        rng = derive_rng(self.seed, f"{self.name}/circuit")
        # A fixed Toffoli/phase split keeps the job size the same for every
        # seed; only the order, qubits and angles vary.
        kinds = ["toff"] * self.TOFFOLIS + ["phase"] * self.PHASES
        rng.shuffle(kinds)
        gates = [circuit.toff(*rng.sample(range(self.N), 3)) if kind == "toff"
                 else circuit.phase(rng.randrange(self.N), rng.randint(0, self.D),
                                    rng.choice((1, -1)))
                 for kind in kinds]
        self.circuit = circuit.allocate_wires(gates, self.N)
        self.input_state = sparse.random_state(qubit_layout(self.N), rng)
        self.n_quantum = self.N


WORKLOADS = {cls.name: cls for cls in (Modexp21, Blind3, Random5)}
