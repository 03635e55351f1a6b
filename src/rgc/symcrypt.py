"""Hash-based symmetric encryption with key tags.

Three schemes, all masking the plaintext with oracle output:

- single-key (the KDM-hardened workhorse):
  c = (R1, H(MASK||sk||R1) xor m), tag (R2, H(TAG||sk||R2))
- triple-key (the paper's tagged primitive, a row behind three keys):
  c = (R1,R2,R3, H(MASK||k1||R1) xor H(MASK||k2||R2) xor H(MASK||k3||R3) xor m)
  plus one tag per key
- joint-hash (what the garbled tables use): a table carries one fresh nonce
  N and its rows carry no pads and no tags.  The row at index i under keys
  k1..kn is c = H(ROW||k1||..||kn||N||i) xor m, one query however many keys
  it needs, and header slot j holds the digests H(SLOT||k||N||j) of the keys
  that may sit at key position j.  An evaluator finds its key's position in
  a slot with one query and opens the row those positions index (see
  :mod:`rgc.garble`).  This is the tweakable hash of Bellare, Hoang,
  Keelveedhi and Rogaway ("Efficient Garbling from a Fixed-Key Blockcipher",
  IEEE S&P 2013) as half-gates uses it (Zahur, Rosulek and Evans, Eurocrypt
  2015), with the nonce and the index as the tweak.  The garbler writes a
  table with two calls, :func:`table_header` and :func:`table_rows`, each
  fetching its oracle once and querying it in one loop; the evaluator looks
  up one slot with :func:`slot_positions` and opens one row with
  :func:`row_dec`.  Each of the four computes its digest or mask inline,
  since the evaluator calls the last two once per lookup and per row, and
  every evaluated job checks that both sides agree.

Every oracle query starts with a domain byte - MASK, TAG, ROW or SLOT - and
then fixed-width fields, so queries of different schemes can never collide,
and neither can queries for payloads of different lengths (the oracle family
separates lengths by domain tag).  A slot or row index is one byte.

A ciphertext is one packed ``bytes`` string, which is also its wire form.
With p = kappa/8 and t = tag_len/8 bytes, a *tag* is ``pad || digest``
(p + t bytes) and an m-byte plaintext gives::

    single-key row  r1 (p) | masked (m) | tag
    triple-key row  r1 r2 r3 (3p) | masked (m) | tag1 tag2 tag3
    header slot     one digest (t) per key it holds
    joint-hash row  masked (m)

The widths are fixed by the params, so nothing needs a length field;
:func:`split_row` takes a tagged row apart.

Decryption never verifies; row-selection logic belongs to the evaluator,
which always checks the key first.  Ver rejects on any length mismatch.
"""

from __future__ import annotations

import functools
import random
import struct
from dataclasses import dataclass
from typing import Callable, Sequence

from .oracle import OracleFamily
from .util import rand_bytes

SymKey = bytes

_MASK = b"\x01"
_TAG = b"\x02"
_ROW = b"\x03"
_SLOT = b"\x04"
_INDEX = tuple(bytes((i,)) for i in range(256))      # a slot or row index, one byte

DEFAULT_TAG_LEN_BITS = 16


@dataclass
class CryptoParams:
    """Session-wide crypto context: key length, tag length, oracle family.

    kappa_bits and tag_len_bits are independent.  tag_len_bits is the
    length of every digest, a header slot's and a tagged row's alike.  It
    defaults to ``DEFAULT_TAG_LEN_BITS`` = 16: a slot digest only has to tell
    one wire's two keys apart, and the garbler draws a table's nonce again
    when they collide (see :mod:`rgc.garble`).  A wrong key finds a 16-bit
    digest with probability about 2 * 2^-16 per slot.
    """

    kappa_bits: int
    oracles: OracleFamily
    tag_len_bits: int = DEFAULT_TAG_LEN_BITS

    def __post_init__(self):
        self.check_widths(self.kappa_bits, self.tag_len_bits)
        self.kappa_bytes = self.kappa_bits // 8
        self.digest_bytes = self.tag_len_bits // 8
        self.tag_bytes = self.kappa_bytes + self.digest_bytes    # pad and digest
        self.tag_query = self.oracles.for_len(self.tag_len_bits).query

    @staticmethod
    def check_widths(kappa_bits: int, tag_len_bits: int = DEFAULT_TAG_LEN_BITS) -> None:
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
# joint-hash scheme

def table_header(params: CryptoParams, nonce: bytes,
                 slot_keys: Sequence[Sequence[SymKey]]) -> tuple[bytes, ...]:
    """The header of a table under ``nonce``: slot j holds the digests
    H(SLOT||k||N||j) of the keys k of ``slot_keys[j]``, in the given order."""
    if len(slot_keys) > len(_INDEX):
        raise ValueError("a table has at most 256 slots")
    query = params.tag_query
    header = []
    for keys, index in zip(slot_keys, _INDEX):
        tail = nonce + index
        if len(keys) == 2:              # a wire's two keys: every slot but a constant's
            header.append(query(_SLOT + keys[0] + tail) + query(_SLOT + keys[1] + tail))
        else:
            header.append(b"".join([query(_SLOT + key + tail) for key in keys]))
    return tuple(header)


@functools.cache
def _splitter(width: int, count: int) -> Callable[[bytes], tuple[bytes, ...]]:
    """Split ``count`` rows of ``width`` bytes, back to back, into a tuple."""
    return struct.Struct(f"{width}s" * count).unpack


def table_rows(params: CryptoParams, nonce: bytes, keys: Sequence[bytes],
               payloads: Sequence[bytes]) -> tuple[bytes, ...]:
    """The rows of a table under ``nonce``: row i is ``payloads[i]`` xor
    H(ROW||k1||..||kn||N||i), one query over its keys ``keys[i]`` =
    k1||..||kn.  The table fetches one oracle, so its payloads share one
    nonzero length, and one XOR of the joined payloads and masks masks them
    all."""
    count = len(payloads)
    if not count or not payloads[0] or not len(keys) == count <= len(_INDEX):
        raise ValueError("a table needs one key string per nonempty payload, "
                         "at most 256 rows")
    n = len(payloads[0])
    if len(set(map(len, payloads))) != 1:
        raise ValueError(f"a row's length differs from the first row's {n} bytes")
    query = params.oracles.for_len(8 * n).query
    masks = b"".join([query(_ROW + k + nonce + i) for k, i in zip(keys, _INDEX)])
    return _splitter(n, count)((int.from_bytes(b"".join(payloads), "little")
                                ^ int.from_bytes(masks, "little")).to_bytes(n * count, "little"))


def slot_positions(params: CryptoParams, key: SymKey, nonce: bytes, slot: int,
                   digests: bytes) -> list[int]:
    """The positions in slot ``slot`` (its ``digests``) whose digest is
    key's, H(SLOT||k||N||j) as :func:`table_header` writes it: one oracle
    query."""
    digest = params.tag_query(_SLOT + key + nonce + _INDEX[slot])
    t = params.digest_bytes
    if len(digests) == 2 * t:           # a wire's two keys: every slot but a constant's
        first, second = digests.startswith(digest), digests.endswith(digest)
        return [0, 1] if first and second else [0] if first else [1] if second else []
    return [i for i in range(len(digests) // t) if digests[i * t:(i + 1) * t] == digest]


def row_enc(params: CryptoParams, keys: Sequence[SymKey], m: bytes, nonce: bytes,
            index: int) -> bytes:
    """Row ``index`` of a table under ``nonce``: m masked by one query over
    all of ``keys``."""
    if not m:
        raise ValueError("empty plaintext")
    return row_dec(params, keys, m, nonce, index)


def row_dec(params: CryptoParams, keys: Sequence[SymKey], row: bytes, nonce: bytes,
            index: int) -> bytes:
    """Unmask a row, masked as :func:`table_rows` masks it, by one query of
    the oracle of its length; a wrong key yields garbage, as kdm_dec's
    does."""
    n = len(row)
    mask = params.oracles.for_len(8 * n).query(_ROW + b"".join(keys) + nonce + _INDEX[index])
    return (int.from_bytes(row, "little") ^ int.from_bytes(mask, "little")).to_bytes(n, "little")
