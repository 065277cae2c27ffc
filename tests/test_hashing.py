"""Unit tests for the universal hash family and the pair layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distribution import coin_draws
from repro.core.hashing import (HASH_CHUNK, MERSENNE_P, HashStack, PairHash,
                                UniversalHash, fold_to_31_bits,
                                make_table_hashes)
from repro.errors import InvalidConfigError


class TestFoldTo31Bits:
    def test_matches_python_modulo(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 1 << 63, 1000, dtype=np.int64).astype(np.uint64)
        folded = fold_to_31_bits(values)
        expected = np.array([int(v) % int(MERSENNE_P) for v in values],
                            dtype=np.uint64)
        assert np.array_equal(folded, expected)

    def test_extreme_values(self):
        values = np.array([0, 1, int(MERSENNE_P) - 1, int(MERSENNE_P),
                           int(MERSENNE_P) + 1, 2 ** 64 - 1], dtype=np.uint64)
        folded = fold_to_31_bits(values)
        expected = np.array([int(v) % int(MERSENNE_P) for v in values],
                            dtype=np.uint64)
        assert np.array_equal(folded, expected)

    @given(st.integers(min_value=0, max_value=2 ** 64 - 1))
    @settings(max_examples=200)
    def test_always_below_p(self, value):
        folded = fold_to_31_bits(np.array([value], dtype=np.uint64))
        assert int(folded[0]) == value % int(MERSENNE_P)


#: Fold edge cases: limb boundaries around p and the top of uint64.
_P = int(MERSENNE_P)
_EDGES = [0, _P - 1, _P, 2 * _P - 1, 2 * _P, 2 ** 62, 2 ** 63, 2 ** 64 - 1]
_UINT64 = st.integers(min_value=0, max_value=2 ** 64 - 1)


class TestInPlaceReference:
    """The in-place fold and multiply-add against Python-int ``%``."""

    @given(st.lists(_UINT64, max_size=40))
    @settings(max_examples=150)
    def test_fold_matches_modulo(self, drawn):
        codes = np.array(drawn + _EDGES, dtype=np.uint64)
        before = codes.copy()
        folded = fold_to_31_bits(codes)
        assert folded.dtype == np.uint64
        assert folded.tolist() == [v % _P for v in drawn + _EDGES]
        assert np.array_equal(codes, before)

    @given(st.lists(_UINT64, max_size=40),
           st.integers(min_value=1, max_value=_P - 1),
           st.integers(min_value=0, max_value=_P - 1), _UINT64)
    @settings(max_examples=150)
    def test_raw_matches_modulo(self, drawn, a, b, premix):
        h = UniversalHash(a=a, b=b, premix=premix)
        codes = np.array(drawn + _EDGES, dtype=np.uint64)
        before = codes.copy()
        raw = h.raw(codes)
        assert raw.dtype == np.uint64
        assert raw.tolist() == [(a * ((v ^ premix) % _P) + b) % _P
                                for v in drawn + _EDGES]
        assert np.array_equal(codes, before)


class TestUniversalHash:
    def test_rejects_out_of_range_constants(self):
        with pytest.raises(InvalidConfigError):
            UniversalHash(a=0, b=0, premix=0)
        with pytest.raises(InvalidConfigError):
            UniversalHash(a=int(MERSENNE_P), b=0, premix=0)
        with pytest.raises(InvalidConfigError):
            UniversalHash(a=1, b=int(MERSENNE_P), premix=0)

    def test_raw_matches_definition(self):
        h = UniversalHash(a=12345, b=678, premix=0xDEADBEEF)
        keys = np.array([0, 1, 99999, 2 ** 40], dtype=np.uint64)
        raw = h.raw(keys)
        p = int(MERSENNE_P)
        for key, value in zip(keys, raw):
            folded = (int(key) ^ 0xDEADBEEF) % p
            assert int(value) == (12345 * folded + 678) % p

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        h = UniversalHash.random(rng)
        keys = np.arange(100, dtype=np.uint64)
        assert np.array_equal(h.raw(keys), h.raw(keys))

    def test_distinct_functions_disagree(self):
        rng = np.random.default_rng(7)
        h1, h2 = UniversalHash.random(rng), UniversalHash.random(rng)
        keys = np.arange(1000, dtype=np.uint64)
        assert not np.array_equal(h1.raw(keys), h2.raw(keys))

    def test_bucket_requires_power_of_two(self):
        h = UniversalHash(a=3, b=5, premix=1)
        with pytest.raises(InvalidConfigError):
            h.bucket(np.array([1], dtype=np.uint64), 100)

    def test_bucket_range(self):
        rng = np.random.default_rng(1)
        h = UniversalHash.random(rng)
        keys = rng.integers(0, 1 << 62, 5000).astype(np.uint64)
        buckets = h.bucket(keys, 256)
        assert buckets.min() >= 0
        assert buckets.max() < 256

    def test_bucket_doubling_property(self):
        """Entry in bucket loc moves to loc or loc + n when n doubles.

        This is the conflict-free upsize property of Section IV-D.
        """
        rng = np.random.default_rng(2)
        h = UniversalHash.random(rng)
        keys = rng.integers(0, 1 << 62, 10_000).astype(np.uint64)
        small = h.bucket(keys, 512)
        large = h.bucket(keys, 1024)
        assert bool(np.all((large == small) | (large == small + 512)))

    def test_distribution_roughly_uniform(self):
        rng = np.random.default_rng(3)
        h = UniversalHash.random(rng)
        keys = rng.integers(0, 1 << 62, 64_000).astype(np.uint64)
        buckets = h.bucket(keys, 64)
        counts = np.bincount(buckets, minlength=64)
        # Each bucket expects 1000; allow generous 5-sigma slack.
        assert counts.min() > 1000 - 5 * np.sqrt(1000)
        assert counts.max() < 1000 + 5 * np.sqrt(1000)


def test_hash_stack_matches_each_member():
    """``HashStack.raw`` equals hashing each code under its own member,
    for a flat selector and for a ``(2, n)`` one broadcast over codes."""
    rng = np.random.default_rng(4)
    hashes = make_table_hashes(4, rng)
    stack = HashStack(hashes)
    keys = np.concatenate([np.array(_EDGES, dtype=np.uint64),
                           rng.integers(0, 1 << 63, 200, dtype=np.int64)
                           .astype(np.uint64)])
    which = rng.integers(0, 4, (2, len(keys)))
    want = np.array([[hashes[t].raw(keys[i:i + 1])[0]
                      for i, t in enumerate(row)] for row in which],
                    dtype=np.uint64)
    assert np.array_equal(stack.raw(keys, which[0]), want[0])
    assert np.array_equal(stack.raw(keys, which), want)
    every = stack.raw_all(keys)
    assert every.shape == (len(keys), 4)
    for t, member in enumerate(hashes):
        assert np.array_equal(every[:, t], member.raw(keys))


@pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 20],
                         ids=["one-code", "uneven", "even", "one-pass"])
def test_chunked_hashing_matches_one_pass(monkeypatch, chunk):
    """Hashing in ``HASH_CHUNK``-code pieces gives every value, dtype and
    shape of one pass: one function, a stacked selector of one row or
    of ``(3, n)``, one member for every code, and every member for
    every code."""
    from repro.core import hashing

    rng = np.random.default_rng(5)
    hashes = make_table_hashes(5, rng)
    stack = HashStack(hashes)
    keys = rng.integers(0, 1 << 63, 320, dtype=np.int64).astype(np.uint64)
    which = rng.integers(0, 5, (3, len(keys)))
    calls = [lambda: hashes[2].raw(keys), lambda: stack.raw(keys, which),
             lambda: stack.raw(keys, which[1]), lambda: stack.raw(keys, 4),
             lambda: stack.raw_all(keys)]
    want = [call() for call in calls]
    monkeypatch.setattr(hashing, "HASH_CHUNK", chunk)
    for call, expected in zip(calls, want):
        got = call()
        assert got.dtype == expected.dtype == np.uint64
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
    assert np.array_equal(want[3], hashes[4].raw(keys))
    assert np.array_equal(want[4][:, 4], want[3])


#: Codes whose pre-mixed value is an edge of the reduction.
_REDUCTION_EDGES = [0, _P - 1, _P, _P + 1, 2 ** 31, 2 ** 62, 2 ** 64 - 1]

#: Pass sizes: one small pass, one full chunk, and across a chunk.
_PASS_SIZES = [64, HASH_CHUNK, HASH_CHUNK + 3]


def _reference(codes, a, b, premix) -> list[int]:
    """The universal family over Python ints."""
    a, b, premix = int(a), int(b), int(premix)
    return [(a * ((code ^ premix) % _P) + b) % _P for code in codes]


def _edge_codes(n: int, premix) -> np.ndarray:
    """``n`` codes: each reduction edge xored with ``premix``, then
    random ones."""
    rng = np.random.default_rng(n)
    edges = np.array(_REDUCTION_EDGES, dtype=np.uint64) ^ np.uint64(premix)
    return np.concatenate([edges, rng.integers(
        0, 2 ** 64, n - len(edges), dtype=np.uint64)])


@pytest.mark.parametrize("n", _PASS_SIZES)
class TestReduction:
    """Every hashing entry point against :func:`_reference`, in one pass
    and across chunks.  ``a = 1, b = p - 1`` sends the edge ``p + 1`` to
    ``p``, which only a complete reduction maps to 0."""

    EDGE = UniversalHash(a=1, b=_P - 1, premix=0x9E3779B97F4A7C15)

    def test_universal_hash(self, n):
        for h in (self.EDGE, UniversalHash.random(np.random.default_rng(n))):
            codes = _edge_codes(n, h.premix)
            assert h.raw(codes).tolist() == _reference(
                codes.tolist(), h.a, h.b, h.premix)

    def test_hash_stack(self, n):
        hashes = [self.EDGE] + make_table_hashes(3, np.random.default_rng(n))
        stack = HashStack(hashes)
        codes = _edge_codes(n, self.EDGE.premix)
        which = np.random.default_rng(n + 1).integers(0, 4, (3, n))
        which[:, :len(_REDUCTION_EDGES)] = 0
        every = np.array([_reference(codes.tolist(), h.a, h.b, h.premix)
                          for h in hashes], dtype=np.uint64)
        want = every[which, np.arange(n)]
        assert np.array_equal(stack.raw(codes, which), want)
        assert np.array_equal(stack.raw(codes, which[1]), want[1])
        for t in (0, 2):
            assert np.array_equal(stack.raw(codes, t), every[t])

    def test_pair_hash(self, n):
        ph = PairHash(4, np.random.default_rng(n))
        ph.hash = self.EDGE
        codes = _edge_codes(n, ph.hash.premix)
        want = [r % ph.num_pairs for r in _reference(
            codes.tolist(), ph.hash.a, ph.hash.b, ph.hash.premix)]
        assert ph.raw_mod(codes).tolist() == want
        assert ph.partition(codes).tolist() == want
        assert np.array_equal(ph.tables_for(codes), ph.pairs[want].T)

    def test_coin_draws(self, n):
        codes = _edge_codes(n, self.EDGE.premix)
        want = [r / _P for r in _reference(
            codes.tolist(), self.EDGE.a, self.EDGE.b, self.EDGE.premix)]
        assert coin_draws(self.EDGE.raw(codes)).tolist() == want


class TestPairHash:
    def test_pair_enumeration(self):
        rng = np.random.default_rng(0)
        ph = PairHash(4, rng)
        expected = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert [tuple(p) for p in ph.pairs] == expected
        assert ph.num_pairs == 6

    def test_rejects_single_table(self):
        with pytest.raises(InvalidConfigError):
            PairHash(1, np.random.default_rng(0))

    def test_partition_in_range(self):
        rng = np.random.default_rng(1)
        ph = PairHash(5, rng)
        codes = rng.integers(1, 1 << 62, 2000).astype(np.uint64)
        parts = ph.partition(codes)
        assert parts.min() >= 0
        assert parts.max() < 10

    def test_tables_for_are_pair_members(self):
        rng = np.random.default_rng(2)
        ph = PairHash(4, rng)
        codes = rng.integers(1, 1 << 62, 500).astype(np.uint64)
        first, second = ph.tables_for(codes)
        assert bool(np.all(first < second))
        assert first.min() >= 0
        assert second.max() < 4

    def test_alternate_table_roundtrip(self):
        rng = np.random.default_rng(3)
        ph = PairHash(4, rng)
        codes = rng.integers(1, 1 << 62, 500).astype(np.uint64)
        first, second = ph.tables_for(codes)
        assert np.array_equal(ph.alternate_table(codes, first), second)
        assert np.array_equal(ph.alternate_table(codes, second), first)

    def test_alternate_table_rejects_foreign_table(self):
        rng = np.random.default_rng(4)
        ph = PairHash(3, rng)
        codes = np.array([123], dtype=np.uint64)
        first, second = ph.tables_for(codes)
        foreign = np.array([3 - int(first[0]) - int(second[0])], dtype=np.int64)
        with pytest.raises(AssertionError):
            ph.alternate_table(codes, foreign)

    def test_partitions_roughly_balanced(self):
        rng = np.random.default_rng(5)
        ph = PairHash(4, rng)
        codes = rng.integers(1, 1 << 62, 60_000).astype(np.uint64)
        counts = np.bincount(ph.partition(codes), minlength=6)
        assert counts.min() > 10_000 - 5 * np.sqrt(10_000)
        assert counts.max() < 10_000 + 5 * np.sqrt(10_000)


def test_make_table_hashes_distinct():
    hashes = make_table_hashes(4, np.random.default_rng(0))
    assert len(hashes) == 4
    keys = np.arange(1000, dtype=np.uint64)
    raws = [h.raw(keys) for h in hashes]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(raws[i], raws[j])
