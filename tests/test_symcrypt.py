import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from scipy import stats as scipy_stats

from rgc import symcrypt
from rgc.encoding import encode, gen_keys
from rgc.evaluate import eval_bundle
from rgc.garble import garble_circuit
from rgc.oracle import OracleFamily
from rgc.symcrypt import CryptoParams, split_row

from conftest import circuits_and_states, input_state, make_params


def test_keygen_reproducible():
    params = make_params()
    assert symcrypt.keygen(params, random.Random(4)) == symcrypt.keygen(params, random.Random(4))
    assert len(symcrypt.keygen(params, random.Random(4))) == 2


def test_keygen_bit_uniformity():
    params = make_params(16)
    rng = random.Random(8)
    n = 10_000
    counts = [0] * 16
    for _ in range(n):
        key = int.from_bytes(symcrypt.keygen(params, rng), "little")
        for bit in range(16):
            counts[bit] += (key >> bit) & 1
    sigma = (n * 0.25) ** 0.5
    assert all(abs(c - n / 2) <= 3.3 * sigma for c in counts)


def test_unaligned_kappa_rejected():
    with pytest.raises(ValueError):
        make_params(15)


def test_zero_message_exposes_mask():
    # x xor 0 = x: the masked field is the oracle output itself
    params = make_params()
    rng = random.Random(1)
    sk = symcrypt.keygen(params, rng)
    ct = symcrypt.kdm_enc(params, sk, bytes(8), rng)
    r1, masked, _ = split_row(params, ct)
    mask = params.oracles.for_len(64).query(b"\x01" + sk + r1)
    assert masked == mask


def test_kdm_roundtrip_many():
    params = make_params()
    rng = random.Random(2)
    for _ in range(1000):
        sk = symcrypt.keygen(params, rng)
        m = rng.randbytes(rng.randint(1, 12))
        assert symcrypt.kdm_dec(params, sk, symcrypt.kdm_enc(params, sk, m, rng)) == m


def test_kdm_wrong_key_never_matches():
    # mismatch probability 2^-64 per trial at 8-byte payloads
    params = make_params()
    rng = random.Random(3)
    hits = 0
    for _ in range(10_000):
        sk, wrong = symcrypt.keygen(params, rng), symcrypt.keygen(params, rng)
        if sk == wrong:
            continue
        m = rng.randbytes(8)
        ct = symcrypt.kdm_enc(params, sk, m, rng)
        hits += symcrypt.kdm_dec(params, wrong, ct) == m
    assert hits == 0


def test_kdm_modified_pad_changes_plaintext():
    params = make_params()
    rng = random.Random(4)
    hits = 0
    for _ in range(2000):
        sk = symcrypt.keygen(params, rng)
        m = rng.randbytes(8)
        ct = symcrypt.kdm_enc(params, sk, m, rng)
        tampered = bytes([ct[0] ^ 1]) + ct[1:]      # first byte of r1
        hits += symcrypt.kdm_dec(params, sk, tampered) == m
    assert hits == 0


def test_fresh_pad_masked_bytes_uniform():
    # with the lazy-table oracle and globally fresh pads every mask is a
    # one-time pad, so ciphertext bytes are exactly uniform
    params = make_params(table=True, table_seed=21)
    rng = random.Random(5)
    sk = symcrypt.keygen(params, rng)
    observed = [0] * 256
    for i in range(10_000):
        ct = symcrypt.kdm_enc(params, sk, b"\x00", rng)
        observed[split_row(params, ct)[1][0]] += 1
    assert scipy_stats.chisquare(observed).pvalue > 0.01


def test_ver_accepts_own_key_rejects_others():
    params = make_params(tag_len_bits=64)
    rng = random.Random(6)
    false_accepts = 0
    for _ in range(10_000):
        sk, other = symcrypt.keygen(params, rng), symcrypt.keygen(params, rng)
        (tag,) = split_row(params, symcrypt.kdm_enc(params, sk, b"m", rng))[2]
        assert symcrypt.kdm_ver(params, sk, tag)
        if other != sk and symcrypt.kdm_ver(params, other, tag):
            false_accepts += 1
    assert false_accepts == 0


def test_ver_rejects_truncated_tag():
    params = make_params()
    rng = random.Random(7)
    sk = symcrypt.keygen(params, rng)
    (tag,) = split_row(params, symcrypt.kdm_enc(params, sk, b"m", rng))[2]
    assert symcrypt.kdm_ver(params, sk, tag)
    assert not symcrypt.kdm_ver(params, sk, tag[:-1])
    assert not symcrypt.kdm_ver(params, sk[:-1], tag)


def test_triple_roundtrip_many():
    params = make_params()
    rng = random.Random(8)
    for _ in range(1000):
        keys = [symcrypt.keygen(params, rng) for _ in range(3)]
        m = rng.randbytes(rng.randint(1, 10))
        ct = symcrypt.triple_enc(params, *keys, m, rng)
        assert symcrypt.triple_dec(params, *keys, ct) == m


def test_triple_same_key_three_times():
    params = make_params()
    rng = random.Random(9)
    k = symcrypt.keygen(params, rng)
    ct = symcrypt.triple_enc(params, k, k, k, b"payload", rng)
    assert symcrypt.triple_dec(params, k, k, k, ct) == b"payload"
    pads = split_row(params, ct, 3)[0]
    assert len({pads[:2], pads[2:4], pads[4:]}) == 3   # fresh pads keep the masks distinct


def test_triple_ver_localizes_wrong_key():
    params = make_params()
    rng = random.Random(10)
    for _ in range(200):
        keys = [symcrypt.keygen(params, rng) for _ in range(3)]
        ct = symcrypt.triple_enc(params, *keys, b"m", rng)
        bad = symcrypt.keygen(params, rng)
        for i in range(3):
            swapped = list(keys)
            swapped[i] = bad
            accepts = [symcrypt.triple_ver(params, swapped[j], j + 1, ct) for j in range(3)]
            expected = [j != i for j in range(3)]
            assert accepts == expected


def test_triple_ver_cross_index_rejects():
    params = make_params()
    rng = random.Random(11)
    rejected = 0
    for _ in range(500):
        keys = [symcrypt.keygen(params, rng) for _ in range(3)]
        if len(set(keys)) != 3:
            continue
        ct = symcrypt.triple_enc(params, *keys, b"m", rng)
        rejected += not symcrypt.triple_ver(params, keys[0], 2, ct)
    assert rejected == 500


def test_triple_ver_random_key_rejects():
    # false-accept bound is about non-matching keys; a random draw can hit the
    # real key itself at kappa=16 (p = 2^-16 per trial), so exclude those
    params = make_params(tag_len_bits=64)
    rng = random.Random(12)
    keys = [symcrypt.keygen(params, rng) for _ in range(3)]
    ct = symcrypt.triple_enc(params, *keys, b"m", rng)
    hits = 0
    for _ in range(10_000):
        probe = rng.randbytes(2)
        if probe != keys[0]:
            hits += symcrypt.triple_ver(params, probe, 1, ct)
    assert hits == 0


def test_triple_ver_index_validation():
    params = make_params()
    rng = random.Random(13)
    keys = [symcrypt.keygen(params, rng) for _ in range(3)]
    ct = symcrypt.triple_enc(params, *keys, b"m", rng)
    with pytest.raises(ValueError):
        symcrypt.triple_ver(params, keys[0], 0, ct)


def test_two_of_three_keys_insufficient():
    # exhaustive search over the unknown key at kappa=8: exactly one candidate
    # recovers m and it is the real key; knowing 2 of 3 gates nothing else
    params = make_params(kappa_bits=8)
    rng = random.Random(14)
    keys = [symcrypt.keygen(params, rng) for _ in range(3)]
    m = rng.randbytes(6)
    ct = symcrypt.triple_enc(params, *keys, m, rng)
    matches = [bytes([g]) for g in range(256)
               if symcrypt.triple_dec(params, keys[0], keys[1], bytes([g]), ct) == m]
    assert matches == [keys[2]]
    ver_matches = [bytes([g]) for g in range(256)
                   if symcrypt.triple_ver(params, bytes([g]), 3, ct)]
    assert ver_matches == [keys[2]]


def test_empty_plaintext_rejected():
    params = make_params()
    rng = random.Random(15)
    sk = symcrypt.keygen(params, rng)
    with pytest.raises(ValueError):
        symcrypt.kdm_enc(params, sk, b"", rng)


def test_all_oracle_queries_are_domain_separated():
    # structural invariant: every query starts with its scheme's domain byte
    # and then fixed-width fields: MASK or TAG || key || pad for the tagged
    # schemes, SLOT || key || nonce || slot and ROW || keys || nonce || index
    # for the joint-hash scheme
    from rgc.oracle import OracleFamily
    from rgc.symcrypt import CryptoParams

    family = OracleFamily(mode="table", rng_seed=3)
    queries, wrapped = [], []
    for_len = family.for_len

    def recording_for_len(bits):
        # wrap each member oracle's query once, as the family hands it out
        oracle = for_len(bits)
        if oracle not in wrapped:
            query = oracle.query

            def recorded(data):
                queries.append(data)
                return query(data)

            oracle.query = recorded
            wrapped.append(oracle)
        return oracle

    family.for_len = recording_for_len
    params = CryptoParams(16, family, tag_len_bits=64)
    rng = random.Random(16)
    sk = symcrypt.keygen(params, rng)
    keys = [symcrypt.keygen(params, rng) for _ in range(3)]
    ct = symcrypt.kdm_enc(params, sk, b"abcdef", rng)
    symcrypt.kdm_dec(params, sk, ct)
    symcrypt.kdm_ver(params, sk, split_row(params, ct)[2][0])
    tct = symcrypt.triple_enc(params, *keys, b"xy", rng)
    symcrypt.triple_dec(params, *keys, tct)
    symcrypt.triple_ver(params, keys[2], 3, tct)
    nonce = rng.randbytes(2)
    slot = symcrypt.header_slot(params, keys[:2], nonce, 1)
    symcrypt.slot_positions(params, keys[1], nonce, 1, slot)
    symcrypt.row_dec(params, keys, symcrypt.row_enc(params, keys, b"xyz", nonce, 5), nonce, 5)

    kb = params.kappa_bytes
    assert len(wrapped) == len(family._members) >= 2     # masks and tags
    assert queries
    widths = {0x01: {1 + kb + kb}, 0x02: {1 + kb + kb}, 0x04: {1 + kb + kb + 1},
              0x03: {1 + 3 * kb + kb + 1}}
    assert {q[0] for q in queries} == set(widths), "unknown domain tag"
    for q in queries:
        assert len(q) in widths[q[0]], "query is not its scheme's fixed fields"


def test_rows_are_packed_in_wire_order():
    # kdm row r1 | masked | r2 | digest, triple row r1 r2 r3 | masked | 3 tags
    params = make_params()
    rng = random.Random(17)
    sk = symcrypt.keygen(params, rng)
    r1, r2 = b"ab", b"cd"
    ct = symcrypt.kdm_enc_padded(params, sk, b"xyz", r1, r2)
    digest = params.oracles.for_len(128).query(b"\x02" + sk + r2)
    assert ct[:2] == r1 and ct[5:] == r2 + digest
    assert len(ct) == 2 + 3 + 2 + 16
    assert split_row(params, ct) == (r1, ct[2:5], [r2 + digest])
    keys = [symcrypt.keygen(params, rng) for _ in range(3)]
    tct = symcrypt.triple_enc(params, *keys, b"pq", rng)
    assert len(tct) == 6 * 2 + 3 * 16 + 2
    pads, masked, tags = split_row(params, tct, 3)
    assert pads == tct[:6] and masked == tct[6:8] and b"".join(tags) == tct[8:]
    for i, (key, tag) in enumerate(zip(keys, tags), start=1):
        assert symcrypt.kdm_ver(params, key, tag) == symcrypt.triple_ver(params, key, i, tct)
        assert symcrypt.kdm_ver(params, key, tag)


def test_split_row_refuses_rows_without_payload():
    params = make_params()
    with pytest.raises(ValueError):
        split_row(params, bytes(2 + 18))
    with pytest.raises(ValueError):
        split_row(params, bytes(6 + 3 * 18), 3)


def test_header_scheme_packs_slots_and_rows_in_wire_order():
    # a slot is one digest per key, a row its masked payload alone
    params = make_params()
    rng = random.Random(18)
    keys = [symcrypt.keygen(params, rng) for _ in range(3)]
    nonce = b"nn"
    slot = symcrypt.header_slot(params, keys[:2], nonce, 2)
    digest = params.oracles.for_len(128).query
    assert slot == b"".join(digest(b"\x04" + key + nonce + b"\x02") for key in keys[:2])
    assert [symcrypt.slot_positions(params, key, nonce, 2, slot) for key in keys] == \
        [[0], [1], []]
    # the digests bind the nonce and the slot index
    assert symcrypt.slot_positions(params, keys[0], b"nm", 2, slot) == []
    assert symcrypt.slot_positions(params, keys[0], nonce, 1, slot) == []
    twice = slot[:16] * 2
    assert symcrypt.slot_positions(params, keys[0], nonce, 2, twice) == [0, 1]
    row = symcrypt.row_enc(params, keys, b"pqrs", nonce, 7)
    assert len(row) == 4
    assert symcrypt.row_dec(params, keys, row, nonce, 7) == b"pqrs"
    # one mask query over every key, the nonce and the row index
    mask = params.oracles.for_len(32).query(b"\x03" + b"".join(keys) + nonce + b"\x07")
    assert row == bytes(a ^ b for a, b in zip(b"pqrs", mask))
    assert symcrypt.row_dec(params, keys, row, nonce, 6) != b"pqrs"
    assert symcrypt.row_dec(params, keys, row, b"nm", 7) != b"pqrs"
    with pytest.raises(ValueError):
        symcrypt.row_enc(params, keys, b"", nonce, 0)


def test_header_rows_need_every_key():
    # exhaustive search over one key at kappa=8: only the real key unmasks
    params = make_params(kappa_bits=8)
    rng = random.Random(19)
    keys = [symcrypt.keygen(params, rng) for _ in range(3)]
    m = rng.randbytes(6)
    row = symcrypt.row_enc(params, keys, m, b"n", 0)
    assert [bytes([g]) for g in range(256)
            if symcrypt.row_dec(params, (keys[0], keys[1], bytes([g])), row, b"n", 0) == m] \
        == [keys[2]]


_SCHEMES = {"header_slot": "slot", "slot_positions": "slot", "row_enc": "row",
            "row_dec": "row", "kdm_enc": "tagged", "kdm_dec": "tagged", "kdm_ver": "tagged",
            "triple_enc": "tagged", "triple_dec": "tagged", "triple_ver": "tagged"}


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(circuits_and_states())
def test_row_masks_never_share_an_oracle_input_property(case):
    # every oracle input of a garbled and evaluated job, labelled by the
    # scheme function that made it, beside the tagged schemes' inputs under
    # the same wire keys: no row-mask input is a slot-digest or a tagged one
    circ, support, seed = case
    inputs = {label: set() for label in set(_SCHEMES.values())}
    scheme = []
    family = OracleFamily(seed=b"domains")
    for_len = family.for_len

    def recording_for_len(bits):
        oracle = for_len(bits)
        if not hasattr(oracle, "recorded"):
            query = oracle.recorded = oracle.query

            def recorded(data):
                inputs[scheme[-1]].add(data)
                return query(data)

            oracle.query = recorded
        return oracle

    def labelled(name):
        fn = getattr(symcrypt, name)

        def call(*args):
            scheme.append(_SCHEMES[name])
            try:
                return fn(*args)
            finally:
                scheme.pop()
        return call

    family.for_len = recording_for_len
    params = CryptoParams(16, family)
    rng = random.Random(seed)
    schedule = gen_keys(16, circ, rng)
    with mock.patch.multiple(symcrypt, **{name: labelled(name) for name in _SCHEMES}):
        bundle = garble_circuit(params, circ, schedule, rng)
        eval_bundle(params, encode(input_state(circ, support, rng), schedule,
                                   circ.input_wires), bundle)
        keys = [key for pair in schedule.pairs for key in pair]
        for key in keys:
            ct = symcrypt.kdm_enc(params, key, key + key, rng)
            symcrypt.kdm_dec(params, key, ct)
            symcrypt.kdm_ver(params, key, split_row(params, ct)[2][0])
        if len(keys) >= 3:
            ct = symcrypt.triple_enc(params, *keys[:3], b"".join(keys[:3]), rng)
            symcrypt.triple_dec(params, *keys[:3], ct)
            symcrypt.triple_ver(params, keys[0], 1, ct)
    assert not scheme
    assert inputs["tagged"]
    assert not inputs["row"] & inputs["slot"]
    assert not inputs["row"] & inputs["tagged"]
    assert not inputs["slot"] & inputs["tagged"]
