"""Delegated evaluation of Toffoli+phase ("C+P") circuits on hidden quantum inputs.

A client encodes each input qubit into a kappa-bit key register, garbles the
circuit gate by gate into forward/backward key-translation tables, and ships
the encoded state plus tables to a server.  The server evaluates the tables as
reversible basis permutations (plus per-basis phases) on a sparse state vector
and returns the still-encoded result; only the client can decode it.

Package layout:

- ``oracle``      random oracle, hash-derived or lazily tabulated
- ``symcrypt``    single-key and triple-key hash encryption with key tags, and the
                  joint-hash rows and header slots the garbled tables use
- ``circuit``     C+P circuit IR, text parser, universal machine (one slot per gate)
- ``sparse``      sparse state vectors, Pauli frames, QFT, density-matrix utilities
- ``encoding``    key-register encoding of qubits, CNOT cost model, mixing-bound checker
- ``garble``      garbled table construction and revealed-key closure
- ``evaluate``    server-side garbled evaluation
- ``delegation``  end-to-end protocols: delegation, blind evaluation, Shor, Pauli-pad scheme
- ``games``       executable security games with pluggable distinguishers
- ``netio``       binary serialization and the client/server job exchange
- ``cli``         command-line frontend
"""

__version__ = "0.1.0"
