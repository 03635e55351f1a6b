"""Hash-based symmetric encryption with key tags.

Three schemes, all masking the plaintext with fresh oracle output:

- single-key (the KDM-hardened workhorse):
  c = (R1, H(sk||R1) xor m), tag (R2, H(sk||R2))
- triple-key (the paper's tagged primitive, a row behind three keys):
  c = (R1,R2,R3, H(k1||R1) xor H(k2||R2) xor H(k3||R3) xor m)
  plus one tag per key
- header (what the garbled tables use): a table's rows carry no tags.  One
  header slot per key position holds a fresh pad R and the digests
  H(TAG||k||R) of the keys that may sit there, and a row under keys
  k1..kn is c = (R1..Rn, H(k1||R1) xor .. xor H(kn||Rn) xor m).  An
  evaluator finds its key's position in a slot with one query and opens the
  row those positions index (see :mod:`rgc.garble`).

Every oracle query has the form tag_byte || key || pad, so mask queries and
tag queries can never collide, and neither can queries for payloads of
different lengths (the oracle family separates lengths by domain tag).

A ciphertext is one packed ``bytes`` string, which is also its wire form.
With p = kappa/8 and t = tag_len/8 bytes, a *tag* is ``pad || digest``
(p + t bytes) and an m-byte plaintext gives::

    single-key row  r1 (p) | masked (m) | tag
    triple-key row  r1 r2 r3 (3p) | masked (m) | tag1 tag2 tag3
    header slot     pad (p) | one digest (t) per key it holds
    header row      r1 .. rn (np) | masked (m)

The widths are fixed by the params, so nothing needs a length field;
:func:`split_row` takes a tagged row apart.

Decryption never verifies; row-selection logic belongs to the evaluator,
which always checks the key first.  Ver rejects on any length mismatch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .oracle import OracleFamily
from .util import rand_bytes

SymKey = bytes

_MASK = b"\x01"
_TAG = b"\x02"


@dataclass
class CryptoParams:
    """Session-wide crypto context: key length, tag length, oracle family.

    kappa_bits and tag_len_bits are independent; long tags make row-selection
    ambiguity negligible even at toy key sizes.
    """

    kappa_bits: int
    oracles: OracleFamily
    tag_len_bits: int = 128

    def __post_init__(self):
        self.check_widths(self.kappa_bits, self.tag_len_bits)
        self.kappa_bytes = self.kappa_bits // 8
        self.digest_bytes = self.tag_len_bits // 8
        self.tag_bytes = self.kappa_bytes + self.digest_bytes    # pad and digest
        self.tag_query = self.oracles.for_len(self.tag_len_bits).query

    @staticmethod
    def check_widths(kappa_bits: int, tag_len_bits: int = 128) -> None:
        """The one rule on the two widths: positive multiples of 8."""
        if kappa_bits <= 0 or tag_len_bits <= 0 or kappa_bits % 8 or tag_len_bits % 8:
            raise ValueError(f"kappa {kappa_bits} and tag length {tag_len_bits} must be "
                             f"positive multiples of 8")


def split_row(params: CryptoParams, row: bytes,
              n_keys: int = 1) -> tuple[bytes, bytes, list[bytes]]:
    """(pads, masked, tags) of a tagged row under ``n_keys`` keys (1 or 3):
    the n_keys pads r1.. as one string, the payload, and the n_keys tags."""
    p, w = params.kappa_bytes, params.tag_bytes
    start = len(row) - n_keys * w
    if start <= n_keys * p:
        raise ValueError("row is shorter than its pads and tags")
    tags = [row[i:i + w] for i in range(start, len(row), w)]
    return row[:n_keys * p], row[n_keys * p:start], tags


def keygen(params: CryptoParams, rng: random.Random) -> SymKey:
    """Sample a uniform kappa-bit key."""
    return rand_bytes(rng, params.kappa_bytes)


def _masked(params: CryptoParams, keys: Sequence[SymKey], pads: bytes, m: bytes) -> bytes:
    """m xor H(k1||r1) xor .. xor H(kn||rn), the pads r1.. back to back."""
    p = params.kappa_bytes
    query = params.oracles.for_len(8 * len(m)).query
    acc = int.from_bytes(m, "little")
    for i, key in enumerate(keys):
        acc ^= int.from_bytes(query(_MASK + key + pads[i * p:(i + 1) * p]), "little")
    return acc.to_bytes(len(m), "little")


def _tag_digest(params: CryptoParams, key: SymKey, pad: bytes) -> bytes:
    return params.tag_query(_TAG + key + pad)


# ---------------------------------------------------------------------------
# single-key scheme

def kdm_enc_padded(params: CryptoParams, sk: SymKey, m: bytes,
                   r1: bytes, r2: bytes) -> bytes:
    """Encrypt with caller-chosen pads (games rig pad reuse through this)."""
    if not m:
        raise ValueError("empty plaintext")
    return r1 + _masked(params, (sk,), r1, m) + r2 + _tag_digest(params, sk, r2)


def kdm_enc(params: CryptoParams, sk: SymKey, m: bytes, rng: random.Random) -> bytes:
    r1 = rand_bytes(rng, params.kappa_bytes)
    r2 = rand_bytes(rng, params.kappa_bytes)
    return kdm_enc_padded(params, sk, m, r1, r2)


def kdm_dec(params: CryptoParams, sk: SymKey, ct: bytes) -> bytes:
    """Unmask. A wrong key yields garbage by design; callers verify first."""
    r1, masked, _ = split_row(params, ct)
    return _masked(params, (sk,), r1, masked)


def kdm_ver(params: CryptoParams, key: SymKey, tag: bytes) -> bool:
    """Check a packed tag (pad || digest) against key."""
    p = params.kappa_bytes
    if len(key) != p or len(tag) != params.tag_bytes:
        return False
    return params.tag_query(_TAG + key + tag[:p]) == tag[p:]


# ---------------------------------------------------------------------------
# triple-key scheme

def triple_enc(params: CryptoParams, k1: SymKey, k2: SymKey, k3: SymKey, m: bytes,
               rng: random.Random) -> bytes:
    """Encrypt m under three keys; the six pads r1..r6 are one draw from rng."""
    if not m:
        raise ValueError("empty plaintext")
    if not len(k1) == len(k2) == len(k3):
        raise ValueError("keys must share one length")
    p = params.kappa_bytes
    pads = rng.getrandbits(48 * p).to_bytes(6 * p, "little")
    r4, r5, r6 = pads[3 * p:4 * p], pads[4 * p:5 * p], pads[5 * p:]
    return b"".join((pads[:3 * p], _masked(params, (k1, k2, k3), pads, m),
                     r4, _tag_digest(params, k1, r4),
                     r5, _tag_digest(params, k2, r5),
                     r6, _tag_digest(params, k3, r6)))


def triple_dec(params: CryptoParams, k1: SymKey, k2: SymKey, k3: SymKey,
               ct: bytes) -> bytes:
    pads, masked, _ = split_row(params, ct, 3)
    return _masked(params, (k1, k2, k3), pads, masked)


def triple_ver(params: CryptoParams, key: SymKey, index: int, ct: bytes) -> bool:
    """Check whether key is the index-th (1-based) key of ct."""
    if index not in (1, 2, 3):
        raise ValueError(f"key index must be 1..3, got {index}")
    return kdm_ver(params, key, split_row(params, ct, 3)[2][index - 1])


# ---------------------------------------------------------------------------
# header scheme

def header_slot(params: CryptoParams, keys: Sequence[SymKey], rng: random.Random) -> bytes:
    """A slot holding ``keys``' digests in the given order, under one fresh pad."""
    pad = rand_bytes(rng, params.kappa_bytes)
    return pad + b"".join(_tag_digest(params, key, pad) for key in keys)


def slot_positions(params: CryptoParams, key: SymKey, slot: bytes) -> list[int]:
    """The positions in ``slot`` whose digest is key's: one oracle query."""
    p, t = params.kappa_bytes, params.digest_bytes
    digest = _tag_digest(params, key, slot[:p])
    return [i for i, pos in enumerate(range(p, len(slot), t)) if slot[pos:pos + t] == digest]


def row_enc(params: CryptoParams, keys: Sequence[SymKey], m: bytes,
            rng: random.Random) -> bytes:
    """An untagged row under ``keys``; its n pads are one draw from rng."""
    if not m:
        raise ValueError("empty plaintext")
    n = len(keys) * params.kappa_bytes
    pads = rng.getrandbits(8 * n).to_bytes(n, "little")
    return pads + _masked(params, keys, pads, m)


def row_dec(params: CryptoParams, keys: Sequence[SymKey], row: bytes) -> bytes:
    """Unmask an untagged row; a wrong key yields garbage, as kdm_dec's does."""
    n = len(keys) * params.kappa_bytes
    return _masked(params, keys, row[:n], row[n:])
