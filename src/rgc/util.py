"""Seed derivation, the client's key stream, and small bit helpers.

Every run of the package flows all randomness from one master seed.  Child
seeds are derived by hashing (parent seed, label), so changing the order in
which subsystems consume randomness never silently changes another
subsystem's stream.

The protocol's secrets (wire keys, table nonces, permute bits, phase
offsets) never come from a Mersenne Twister's output: each of
``encoding.gen_keys`` and ``garble.garble_circuit`` draws one 256-bit secret
from its caller's rng and reads everything else from a :class:`KeyStream`
over it.
"""

import hashlib
import random

# The hash inputs of secret_rng and the key stream begin with these.  A
# hash-mode oracle's begin with its output length in bits as 4 little-endian
# bytes, a multiple of 8; 0xff has its low three bits set, so no oracle
# query's input begins like either.
_SEED_DOMAIN = b"\xffrgc-seed\x00"
_STREAM_DOMAIN = b"\xffrgc-keystream\x00"


def derive_seed(seed: int, label: str) -> int:
    """Derive a 64-bit child seed from a parent seed and a textual label."""
    h = hashlib.shake_256(seed.to_bytes(16, "little", signed=True) + label.encode())
    return int.from_bytes(h.digest(8), "little")


def derive_rng(seed: int, label: str) -> random.Random:
    return random.Random(derive_seed(seed, label))


def secret_rng(seed: int, label: str) -> random.Random:
    """A Mersenne Twister seeded with 256 bits derived from the whole
    signed 128-bit ``seed`` and ``label``, for a stage whose draws become
    secrets: unlike :func:`derive_rng`, it does not cut the seed to 64 bits."""
    h = hashlib.shake_256(_SEED_DOMAIN + seed.to_bytes(16, "little", signed=True) + label.encode())
    return random.Random(int.from_bytes(h.digest(32), "little"))


class KeyStream:
    """SHAKE-256 over one 256-bit secret, read under labels: the bytes read
    under one label are independent of those under any other."""

    def __init__(self, secret: int):
        self._prefix = _STREAM_DOMAIN + secret.to_bytes(32, "little")

    def read(self, label: bytes, n: int) -> bytes:
        return hashlib.shake_256(self._prefix + label).digest(n)


def rand_bytes(rng: random.Random, n: int) -> bytes:
    return rng.getrandbits(8 * n).to_bytes(n, "little") if n else b""


def bytes_to_int(b: bytes) -> int:
    return int.from_bytes(b, "little")


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise ValueError(f"xor length mismatch: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")
