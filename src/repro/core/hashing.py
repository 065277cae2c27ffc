"""Hash-function machinery for the two-layer cuckoo scheme.

The paper (Section IV-A) uses a simple universal family

    h_i(k) = ((a_i * k + b_i) mod p) mod |h_i|

with random ``a_i, b_i`` and a large prime ``p``.  We implement exactly
that family over the Mersenne prime ``p = 2**31 - 1`` with a per-function
64-bit pre-mix so that 64-bit keys are first reduced into ``[0, p)`` in a
function-dependent way (two keys that collide under one function's
reduction are unlikely to collide under another's).  All operations are
vectorized over ``numpy`` ``uint64`` arrays.

A hashing pass costs a fixed number of numpy calls plus a per-code
term, and most passes are small (a find's pair and candidates, an
eviction round's victims), so a pass reduces modulo ``p`` with one
``np.remainder`` per reduction: five numpy calls with the pre-mix.

The *first layer* (Section V-A) hashes a key to one of ``C(d, 2)``
unordered subtable pairs; :class:`PairHash` enumerates the pairs
lexicographically and provides both directions of the mapping.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidConfigError

#: Mersenne prime used by the universal family.
MERSENNE_P = np.uint64((1 << 31) - 1)

_U64 = np.uint64
_MASK31 = np.uint64((1 << 31) - 1)

#: Most codes one hashing pass evaluates.  A pass allocates temporaries
#: the size of its input (three more for a stacked one); in runs of
#: this size they stay in cache, and a bulk load's hashing does not add
#: megabytes to the process's peak RSS.
HASH_CHUNK = 16384


#: Raw-hash placeholder for a key not yet hashed under its target
#: subtable; no 31-bit hash equals it.  An eviction round's victims
#: enter the next round with it, and each round of the insert body
#: (``DyCuckooTable._insert_pending``) hashes its unhashed keys in one
#: call before it asks for its placement pass.
UNHASHED = np.uint32(0xFFFFFFFF)


def unhashed(n: int) -> np.ndarray:
    """``n`` raw-hash slots, all :data:`UNHASHED`."""
    return np.full(n, UNHASHED, dtype=np.uint32)


def fold_to_31_bits(codes: np.ndarray) -> np.ndarray:
    """Fold ``uint64`` codes into ``[0, 2**31 - 1)`` via Mersenne folding.

    Because ``2**31 === 1 (mod 2**31 - 1)``, adding the bits above
    position 31 to the low 31 bits preserves the value modulo the
    Mersenne prime; two such folds and one conditional subtract are a
    true reduction.  ``codes`` is left untouched.
    """
    folded = np.array(codes, dtype=np.uint64)
    _fold_in_place(folded, np.empty_like(folded))
    return folded


def _fold_in_place(x: np.ndarray, scratch: np.ndarray) -> None:
    """Reduce ``x`` modulo ``p`` in place, clobbering ``scratch``."""
    np.right_shift(x, _U64(31), out=scratch)   # < 2**33
    x &= _MASK31
    x += scratch                               # < 2**34, no overflow
    np.right_shift(x, _U64(31), out=scratch)   # <= 7
    x &= _MASK31
    x += scratch                               # <= p + 7
    # Conditional subtract: below p, ``x - p`` wraps above ``x``.
    np.subtract(x, MERSENNE_P, out=scratch)
    np.minimum(x, scratch, out=x)


def _affine_mod_p(mixed: np.ndarray, a, b) -> np.ndarray:
    """``(a * (mixed mod p) + b) mod p`` in place; ``a``/``b`` broadcast.

    One ``np.remainder`` per reduction.  Two :func:`fold_to_31_bits`
    folds are cheaper per code but cost 19 numpy calls a pass instead of
    5; end to end they gained nothing measurable, even on bulk loads.
    """
    np.remainder(mixed, MERSENNE_P, out=mixed)
    # a < 2**31 and the remainder < 2**31: the product fits in uint64.
    mixed *= a
    mixed += b
    return np.remainder(mixed, MERSENNE_P, out=mixed)


def _hash_pass(codes: np.ndarray, premix, a, b, which,
               out: np.ndarray | None = None) -> np.ndarray:
    """One pass of :func:`_hash_codes`, into ``out`` when given."""
    if which is not None:
        premix, a, b = premix[which], a[which], b[which]
    return _affine_mod_p(np.bitwise_xor(codes, premix, out=out), a, b)


def _hash_codes(codes: np.ndarray, premix, a, b, which=None) -> np.ndarray:
    """``(a * ((code ^ premix) mod p) + b) mod p`` for every code.

    ``premix``/``a``/``b`` are one function's constants, or stacked
    constants that ``which`` indexes (broadcast with ``codes``).  Inputs
    above :data:`HASH_CHUNK` elements are hashed in contiguous pieces of
    at most that many codes, row by row, so every temporary stays
    cache-sized.
    """
    if which is not None and np.ndim(which) == 0:
        premix, a, b, which = premix[which], a[which], b[which], None
    joint = codes if which is None else np.broadcast(codes, which)
    if joint.size <= HASH_CHUNK:
        return _hash_pass(codes, premix, a, b, which)
    shape = joint.shape
    width = shape[-1]
    out = np.empty(shape, dtype=np.uint64)
    codes = np.broadcast_to(codes, shape).reshape(-1, width)
    if which is not None:
        which = np.broadcast_to(which, shape).reshape(-1, width)
    for r, row in enumerate(out.reshape(-1, width)):
        for lo in range(0, width, HASH_CHUNK):
            cols = slice(lo, lo + HASH_CHUNK)
            _hash_pass(codes[r, cols], premix, a, b,
                       None if which is None else which[r, cols],
                       out=row[cols])
    return out


class UniversalHash:
    """One member of the universal family ``(a*k + b mod p) mod range``.

    Parameters
    ----------
    a, b:
        Multiplier and offset, ``1 <= a < p`` and ``0 <= b < p``.
    premix:
        64-bit constant XOR-mixed into the key before folding, making the
        fold itself function-dependent.
    """

    __slots__ = ("a", "b", "premix")

    def __init__(self, a: int, b: int, premix: int) -> None:
        if not 1 <= a < int(MERSENNE_P):
            raise InvalidConfigError(f"hash multiplier a out of range: {a}")
        if not 0 <= b < int(MERSENNE_P):
            raise InvalidConfigError(f"hash offset b out of range: {b}")
        self.a = np.uint64(a)
        self.b = np.uint64(b)
        self.premix = np.uint64(premix)

    @classmethod
    def random(cls, rng: np.random.Generator) -> "UniversalHash":
        """Draw a random member of the family from ``rng``."""
        a = int(rng.integers(1, int(MERSENNE_P)))
        b = int(rng.integers(0, int(MERSENNE_P)))
        premix = int(rng.integers(0, 1 << 63))
        return cls(a, b, premix)

    def raw(self, codes: np.ndarray) -> np.ndarray:
        """Return hash values in ``[0, p)`` for an array of uint64 codes."""
        return _hash_codes(np.asarray(codes, dtype=np.uint64), self.premix,
                           self.a, self.b)

    def bucket(self, codes: np.ndarray, n_buckets: int) -> np.ndarray:
        """Return bucket indices in ``[0, n_buckets)``.

        ``n_buckets`` must be a power of two so that doubling a subtable
        moves an entry from bucket ``loc`` to either ``loc`` or
        ``loc + n_buckets`` (the conflict-free upsize property of
        Section IV-D).  Masking low bits of the 31-bit hash provides that
        property because ``h mod 2n`` is ``h mod n`` plus (possibly)
        ``n``.
        """
        return self.bucket_from_raw(self.raw(codes), n_buckets)

    @staticmethod
    def bucket_from_raw(raw: np.ndarray, n_buckets: int) -> np.ndarray:
        """Reduce precomputed :meth:`raw` values to bucket indices.

        ``raw`` does not depend on the table geometry, so batch code can
        hash a key set once and re-reduce it cheaply after every resize:
        :class:`repro.core.batch_ops.EncodedBatch` hashes each key under
        its two candidate subtables only (``candidate_raw``).
        """
        if n_buckets & (n_buckets - 1):
            raise InvalidConfigError(
                f"n_buckets must be a power of two, got {n_buckets}"
            )
        return (np.asarray(raw, dtype=np.uint64)
                & np.uint64(n_buckets - 1)).astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"UniversalHash(a={int(self.a)}, b={int(self.b)}, "
                f"premix=0x{int(self.premix):x})")


class HashStack:
    """Several :class:`UniversalHash` functions with stacked constants.

    :meth:`raw` hashes each code under its own member in one vectorized
    pass, element for element equal to ``hashes[which].raw(code)``.
    The constants are copied at construction, so a stack is valid until
    one of its functions is replaced (a persistence load does that).
    """

    __slots__ = ("a", "b", "premix")

    def __init__(self, hashes: list[UniversalHash]) -> None:
        self.a = np.array([h.a for h in hashes], dtype=np.uint64)
        self.b = np.array([h.b for h in hashes], dtype=np.uint64)
        self.premix = np.array([h.premix for h in hashes], dtype=np.uint64)

    def raw(self, codes: np.ndarray, which: np.ndarray) -> np.ndarray:
        """Hash ``codes`` under the members ``which`` (broadcast together)."""
        return _hash_codes(codes, self.premix, self.a, self.b, which)

    def raw_all(self, codes: np.ndarray) -> np.ndarray:
        """``uint64[n, members]``: every code hashed under every member,
        element ``[i, m]`` equal to ``raw(codes[i], m)``; one pass per
        :data:`HASH_CHUNK` hashes."""
        members = len(self.a)
        out = np.empty((len(codes), members), dtype=np.uint64)
        step = max(1, HASH_CHUNK // members)
        for lo in range(0, len(codes), step):
            _hash_pass(codes[lo:lo + step, None], self.premix, self.a,
                       self.b, None, out=out[lo:lo + step])
        return out


class PairHash:
    """First-layer hash: key -> one of the ``C(d, 2)`` subtable pairs.

    The pairs ``(i, j)`` with ``i < j`` are enumerated lexicographically:
    for ``d = 4`` the order is ``(0,1), (0,2), (0,3), (1,2), (1,3),
    (2,3)``.  A key's partition index is ``hash(key) mod C(d, 2)``.
    """

    def __init__(self, num_tables: int, rng: np.random.Generator) -> None:
        if num_tables < 2:
            raise InvalidConfigError(
                f"PairHash needs at least two tables, got {num_tables}"
            )
        self.num_tables = num_tables
        self.hash = UniversalHash.random(rng)
        pairs = [(i, j)
                 for i in range(num_tables)
                 for j in range(i + 1, num_tables)]
        #: ``(d, C(d,2))`` lookup: entry ``(t, p)`` is the member of
        #: pair ``p`` that is not ``t``, or -1 where ``t`` is outside it.
        alternate = [[-1] * len(pairs) for _ in range(num_tables)]
        for part, (i, j) in enumerate(pairs):
            alternate[i][part] = j
            alternate[j][part] = i
        self._alternate = np.asarray(alternate, dtype=np.int64)
        #: ``(C(d,2), 2)`` lookup array mapping partition -> (i, j).
        self.pairs = np.asarray(pairs, dtype=np.int64)
        self._members = self.pairs.T.copy()

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)

    def partition(self, codes: np.ndarray) -> np.ndarray:
        """Return the partition index in ``[0, C(d,2))`` for each code."""
        return self.raw_mod(codes).astype(np.int64)

    def raw_mod(self, codes: np.ndarray) -> np.ndarray:
        return self.partition_of_raw(self.hash.raw(codes))

    def partition_of_raw(self, raw: np.ndarray) -> np.ndarray:
        """Partition indices from raw values of :attr:`hash` (a stacked
        pass may compute them with other functions' hashes)."""
        # The raw hash is 31-bit, so the remainder can run in uint32.
        return raw.astype(np.uint32) % np.uint32(self.num_pairs)

    def tables_for(self, codes: np.ndarray) -> np.ndarray:
        """``int64[2, n]``: each code's two candidate subtables, ``first``
        (row 0) below ``second`` (row 1), in one gather; unpacks as
        ``first, second``."""
        return self._members.take(self.raw_mod(codes), axis=1)

    def alternate_table(self, codes: np.ndarray, current: np.ndarray
                        ) -> np.ndarray:
        """Return, per code, the pair member that is *not* ``current``.

        ``current`` must hold, for every code, one of its two candidate
        subtables; this is the invariant that every stored entry sits in a
        subtable of its own pair.
        """
        return self.alternates_of(np.asarray(current, dtype=np.int64),
                                  self.partition(codes))

    def alternates_of(self, tables: np.ndarray, parts: np.ndarray
                      ) -> np.ndarray:
        """Per entry, the member of pair ``parts`` (partition indices, as
        :meth:`raw_mod` gives them) that is not ``tables``; the two
        broadcast.  Raises ``AssertionError`` where a table is outside
        its pair (the two-layer invariant)."""
        alt = self._alternate[tables, parts]
        _check_in_pair(alt)
        return alt

    def alternate_weights(self, weights: np.ndarray, tables: np.ndarray,
                          parts: np.ndarray) -> np.ndarray:
        """Per entry, ``weights[t, alternate]`` for its table ``t`` and
        the other member of its pair ``parts``; ``weights`` is
        ``(d, d)`` and positive, ``tables`` and ``parts`` broadcast.

        One flat ``take`` from a ``(d, C(d,2))`` table of those weights,
        which holds -1 where ``t`` is outside pair ``p``; like
        :meth:`alternates_of`, raises ``AssertionError`` on any such
        entry.
        """
        alternate = self._alternate
        rows = np.arange(self.num_tables)[:, None]
        by_part = np.where(alternate >= 0, weights[rows, alternate], -1.0)
        preference = by_part.take(tables * self.num_pairs + parts)
        _check_in_pair(preference)
        return preference


def _check_in_pair(looked_up: np.ndarray) -> None:
    """Raise if a pair lookup hit a -1 entry: a table outside the pair."""
    if looked_up.size and looked_up.min() < 0:
        raise AssertionError(
            "a key's table is outside its pair; the two-layer invariant "
            "was violated")


def make_table_hashes(num_tables: int, rng: np.random.Generator
                      ) -> list[UniversalHash]:
    """Create ``d`` independent second-layer hash functions."""
    return [UniversalHash.random(rng) for _ in range(num_tables)]
