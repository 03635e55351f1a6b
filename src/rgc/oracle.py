"""Random oracle with two interchangeable backends.

``hash`` mode derives outputs from SHAKE-256 over (domain tag || seed ||
query), so the same seed reproduces the same function across processes.
``table`` mode samples outputs lazily and uniformly from a seeded RNG and
remembers them, which is what the security-game experiments want: the game
owns the oracle and counts every query.

Callers that need several output lengths (payload masks vs key tags)
instantiate one oracle per length through :class:`OracleFamily`; the output
length doubles as the domain tag, so oracles of different lengths are
independent functions by construction.

Limitation, stated rather than solved: the distinguishers in the source
security model may query the oracle in superposition.  A classical process
cannot represent that; every consumer here queries classically.
"""

from __future__ import annotations

import hashlib
import random

from .util import rand_bytes

HASH_MODE = "hash"
TABLE_MODE = "table"


class RandomOracle:
    """One random function {0,1}* -> {0,1}^output_len_bits.

    ``seed`` is the public function seed of hash mode, ``rng_seed`` the
    lazy-sampling stream of table mode.  Every invocation is counted, repeat
    queries too: the games bound total invocations, not distinct inputs.
    """

    def __init__(self, output_len_bits: int, mode: str = HASH_MODE, seed: bytes = b"",
                 rng_seed: int = 0):
        if output_len_bits < 8 or output_len_bits % 8 != 0:
            raise ValueError("output_len_bits must be a byte multiple >= 8")
        if mode not in (HASH_MODE, TABLE_MODE):
            raise ValueError(f"unknown oracle mode {mode!r}")
        self._out_bytes = output_len_bits // 8
        self._count = 0
        if mode == TABLE_MODE:
            self._table: dict[bytes, bytes] = {}
            self._rng = random.Random(rng_seed)
            self.query = self._query_table
        else:
            # Domain tag = output length, so same-seed oracles of different
            # lengths stay independent.  The prefix is absorbed once, and a
            # query resumes from a copy of that state.
            self._absorbed = hashlib.shake_256(output_len_bits.to_bytes(4, "little") + seed)
            self.query = self._query_hash

    def _query_hash(self, data: bytes) -> bytes:
        if not data:
            raise ValueError("oracle query must be nonempty")
        self._count += 1
        state = self._absorbed.copy()
        state.update(data)
        return state.digest(self._out_bytes)

    def _query_table(self, data: bytes) -> bytes:
        if not data:
            raise ValueError("oracle query must be nonempty")
        self._count += 1
        digest = self._table.get(data)
        if digest is None:
            digest = rand_bytes(self._rng, self._out_bytes)
            self._table[data] = digest
        return digest

    def query_count(self) -> int:
        return self._count


class OracleFamily:
    """Oracles of several output lengths sharing one seed and one backend.

    Hash-mode families are read-only after construction and safe to share;
    table-mode families mutate lazy tables and must be used single-threaded
    (the game loops are).
    """

    def __init__(self, mode: str = HASH_MODE, seed: bytes = b"", rng_seed: int = 0):
        self.mode = mode
        self.seed = seed
        self.rng_seed = rng_seed
        self._members: dict[int, RandomOracle] = {}

    def for_len(self, output_len_bits: int) -> RandomOracle:
        oracle = self._members.get(output_len_bits)
        if oracle is None:
            # Decorrelate the lazy streams of different lengths.
            oracle = RandomOracle(output_len_bits, self.mode, self.seed,
                                  self.rng_seed ^ (output_len_bits * 0x9E3779B97F4A7C15))
            self._members[output_len_bits] = oracle
        return oracle

    def query_count(self) -> int:
        return sum(o.query_count() for o in self._members.values())
