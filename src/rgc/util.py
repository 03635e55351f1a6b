"""Seed derivation and small bit helpers shared across modules.

Every run of the package flows all randomness from one master seed.  Child
seeds are derived by hashing (parent seed, label), so changing the order in
which subsystems consume randomness never silently changes another
subsystem's stream.
"""

import hashlib
import random


def derive_seed(seed: int, label: str) -> int:
    """Derive a 64-bit child seed from a parent seed and a textual label."""
    h = hashlib.shake_256(seed.to_bytes(16, "little", signed=True) + label.encode())
    return int.from_bytes(h.digest(8), "little")


def derive_rng(seed: int, label: str) -> random.Random:
    return random.Random(derive_seed(seed, label))


def spawn_rngs(rng: random.Random, n: int) -> list[random.Random]:
    """Pre-split n independent child streams from rng (one upfront draw each)."""
    return [random.Random(rng.getrandbits(64)) for _ in range(n)]


def rand_bytes(rng: random.Random, n: int) -> bytes:
    return rng.getrandbits(8 * n).to_bytes(n, "little") if n else b""


def bytes_to_int(b: bytes) -> int:
    return int.from_bytes(b, "little")


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise ValueError(f"xor length mismatch: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")


def popcount(v: int) -> int:
    return bin(v).count("1")
