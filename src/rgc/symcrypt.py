"""Hash-based symmetric encryption with key tags.

Two schemes, both masking the plaintext with fresh oracle output:

- single-key (the KDM-hardened workhorse):
  c = (R1, H(sk||R1) xor m), tag (R2, H(sk||R2))
- triple-key (gates table rows behind three keys at once):
  c = (R1,R2,R3, H(k1||R1) xor H(k2||R2) xor H(k3||R3) xor m)
  plus one tag per key

Every oracle query has the form tag_byte || key || pad, so mask queries and
tag queries can never collide, and neither can queries for payloads of
different lengths (the oracle family separates lengths by domain tag).

A ciphertext is one packed ``bytes`` row, which is also its wire form.  With
p = kappa/8 and t = tag_len/8 bytes, a *tag* is ``pad || digest`` (p + t
bytes) and an m-byte plaintext gives::

    single-key row  r1 (p) | masked (m) | tag
    triple-key row  r1 r2 r3 (3p) | masked (m) | tag1 tag2 tag3

The widths are fixed by the params, so a row needs no length fields;
:func:`row_bytes` gives a row's width and :func:`split_row` takes one apart.

Decryption never verifies; row-selection logic belongs to the evaluator,
which always runs the tag check first.  Ver rejects on any length mismatch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .oracle import OracleFamily
from .util import rand_bytes, xor_bytes

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
        if self.kappa_bits % 8 != 0 or self.kappa_bits <= 0:
            raise ValueError(f"kappa must be a positive byte multiple, got {self.kappa_bits}")
        if self.tag_len_bits % 8 != 0 or self.tag_len_bits <= 0:
            raise ValueError("tag_len_bits must be a positive byte multiple")
        self.kappa_bytes = self.kappa_bits // 8
        self.tag_bytes = (self.kappa_bits + self.tag_len_bits) // 8    # pad and digest
        self.tag_query = self.oracles.for_len(self.tag_len_bits).query


def row_bytes(kappa_bits: int, tag_len_bits: int, n_keys: int, payload_bytes: int) -> int:
    """Width of a packed row under ``n_keys`` keys carrying ``payload_bytes``."""
    return n_keys * (2 * kappa_bits + tag_len_bits) // 8 + payload_bytes


def split_row(params: CryptoParams, row: bytes,
              n_keys: int = 1) -> tuple[bytes, bytes, list[bytes]]:
    """(pads, masked, tags) of a packed row under ``n_keys`` keys (1 or 3):
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


def _mask(params: CryptoParams, key: SymKey, pad: bytes, n_bytes: int) -> bytes:
    return params.oracles.for_len(8 * n_bytes).query(_MASK + key + pad)


def _tag_digest(params: CryptoParams, key: SymKey, pad: bytes) -> bytes:
    return params.tag_query(_TAG + key + pad)


# ---------------------------------------------------------------------------
# single-key scheme

def kdm_enc_padded(params: CryptoParams, sk: SymKey, m: bytes,
                   r1: bytes, r2: bytes) -> bytes:
    """Encrypt with caller-chosen pads (games rig pad reuse through this)."""
    if not m:
        raise ValueError("empty plaintext")
    masked = xor_bytes(_mask(params, sk, r1, len(m)), m)
    return r1 + masked + r2 + _tag_digest(params, sk, r2)


def kdm_enc(params: CryptoParams, sk: SymKey, m: bytes, rng: random.Random) -> bytes:
    r1 = rand_bytes(rng, params.kappa_bytes)
    r2 = rand_bytes(rng, params.kappa_bytes)
    return kdm_enc_padded(params, sk, m, r1, r2)


def kdm_dec(params: CryptoParams, sk: SymKey, ct: bytes) -> bytes:
    """Unmask. A wrong key yields garbage by design; callers verify first."""
    r1, masked, _ = split_row(params, ct)
    return xor_bytes(_mask(params, sk, r1, len(masked)), masked)


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
    mask_q = params.oracles.for_len(8 * len(m)).query
    tag_q = params.tag_query
    masked = (int.from_bytes(m, "little")
              ^ int.from_bytes(mask_q(_MASK + k1 + pads[:p]), "little")
              ^ int.from_bytes(mask_q(_MASK + k2 + pads[p:2 * p]), "little")
              ^ int.from_bytes(mask_q(_MASK + k3 + pads[2 * p:3 * p]), "little"))
    return b"".join((pads[:3 * p], masked.to_bytes(len(m), "little"),
                     r4, tag_q(_TAG + k1 + r4),
                     r5, tag_q(_TAG + k2 + r5),
                     r6, tag_q(_TAG + k3 + r6)))


def triple_dec(params: CryptoParams, k1: SymKey, k2: SymKey, k3: SymKey,
               ct: bytes) -> bytes:
    pads, masked, _ = split_row(params, ct, 3)
    p = params.kappa_bytes
    n = len(masked)
    mask_q = params.oracles.for_len(8 * n).query
    return (int.from_bytes(masked, "little")
            ^ int.from_bytes(mask_q(_MASK + k1 + pads[:p]), "little")
            ^ int.from_bytes(mask_q(_MASK + k2 + pads[p:2 * p]), "little")
            ^ int.from_bytes(mask_q(_MASK + k3 + pads[2 * p:]), "little")).to_bytes(n, "little")


def triple_ver(params: CryptoParams, key: SymKey, index: int, ct: bytes) -> bool:
    """Check whether key is the index-th (1-based) key of ct."""
    if index not in (1, 2, 3):
        raise ValueError(f"key index must be 1..3, got {index}")
    return kdm_ver(params, key, split_row(params, ct, 3)[2][index - 1])
