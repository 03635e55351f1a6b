import hashlib

import pytest

from rgc.oracle import OracleFamily, RandomOracle


def test_hash_mode_deterministic_across_instances():
    a = RandomOracle(128, seed=b"s")
    b = RandomOracle(128, seed=b"s")
    assert a.query(b"hello") == a.query(b"hello") == b.query(b"hello")


@pytest.mark.parametrize("seed", [b"", b"known-answer seed"])
@pytest.mark.parametrize("bits", [16, 168, 8], ids=["tag", "toffoli-row", "phase-row"])
def test_hash_mode_is_shake_256_over_length_tag_seed_and_query(bits, seed):
    # the function itself, whatever state the oracle keeps between queries
    oracle = RandomOracle(bits, seed=seed)
    for data in (b"\x04" + bytes(range(16)), b"\x03" + bytes(30), b"q"):
        expect = hashlib.shake_256(bits.to_bytes(4, "little") + seed + data).digest(bits // 8)
        assert oracle.query(data) == expect
    assert oracle.query_count() == 3


def test_table_mode_deterministic_within_session():
    oracle = RandomOracle(64, mode="table", rng_seed=5)
    first = oracle.query(b"x")
    assert oracle.query(b"x") == first
    assert len(first) == 8


def test_output_length():
    for bits in (8, 64, 136):
        oracle = RandomOracle(bits, seed=b"")
        assert len(oracle.query(b"q")) == bits // 8


def test_distinct_seeds_give_distinct_functions():
    a = RandomOracle(128, seed=b"a")
    b = RandomOracle(128, seed=b"b")
    assert a.query(b"x") != b.query(b"x")


def test_family_lengths_are_independent():
    family = OracleFamily(seed=b"s")
    long = family.for_len(128).query(b"x")
    short = family.for_len(64).query(b"x")
    assert long[:8] != short   # not a truncation of one function


def test_no_collisions_at_64_bits():
    # birthday bound: ~1e4 queries at 64-bit output collide w.p. < 1e-11
    oracle = RandomOracle(64, mode="table", rng_seed=77)
    seen = set()
    for i in range(10_000):
        seen.add(oracle.query(i.to_bytes(4, "little")))
    assert len(seen) == 10_000


def test_table_mode_per_bit_uniformity():
    oracle = RandomOracle(64, mode="table", rng_seed=9)
    counts = [0] * 64
    n = 10_000
    for i in range(n):
        value = int.from_bytes(oracle.query(i.to_bytes(4, "little")), "little")
        for bit in range(64):
            counts[bit] += (value >> bit) & 1
    sigma = (n * 0.25) ** 0.5
    for bit, ones in enumerate(counts):
        assert abs(ones - n / 2) <= 3.3 * sigma, f"bit {bit} biased: {ones}"


def test_query_count_counts_repeats():
    oracle = RandomOracle(64, mode="table", rng_seed=1)
    assert oracle.query_count() == 0
    oracle.query(b"a")
    oracle.query(b"b")
    oracle.query(b"c")
    assert oracle.query_count() == 3
    oracle.query(b"a")   # repeat still counted
    assert oracle.query_count() == 4


def test_family_query_count_aggregates():
    family = OracleFamily(seed=b"s")
    family.for_len(64).query(b"a")
    family.for_len(128).query(b"a")
    family.for_len(128).query(b"b")
    assert family.query_count() == 3


def test_empty_query_rejected():
    oracle = RandomOracle(64, seed=b"")
    with pytest.raises(ValueError):
        oracle.query(b"")


@pytest.mark.parametrize("bits", [0, 4, 12])
def test_bad_output_length_rejected(bits):
    with pytest.raises(ValueError):
        RandomOracle(bits)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        RandomOracle(64, mode="quantum")
