"""KV distribution across subtables (Theorem 1 of the paper).

Theorem 1 shows that the amortized number of insert conflicts is
minimized when ``C(m_i, 2) / n_i`` is equal across all ``d`` subtables
(``m_i`` live entries, ``n_i`` slots).  The paper therefore routes each
fresh key to subtable ``i`` with probability proportional to
``n_i / C(m_i, 2)``.

Under the two-layer scheme a key may only be stored in one of the *two*
subtables of its first-layer pair, so the routing decision is a weighted
coin flip between those two, using the same Theorem-1 weights.

:class:`WeightedRouter` implements that policy; :class:`UniformRouter`
is the ablation baseline that flips a fair coin.
"""

from __future__ import annotations

import numpy as np

from repro.core.hashing import MERSENNE_P, UniversalHash

#: A coin draw is its raw hash over this (raw hashes lie in ``[0, p)``).
_COIN_SCALE = float(int(MERSENNE_P))


def coin_draws(raw: np.ndarray) -> np.ndarray:
    """Coin draws in ``[0, 1)`` from raw values of a coin's hash."""
    return raw.astype(np.float64) / _COIN_SCALE


def theorem1_weights(sizes: np.ndarray, loads: np.ndarray) -> np.ndarray:
    """Per-subtable routing weights ``n_i / C(m_i, 2)``.

    ``sizes`` holds slot counts ``n_i`` and ``loads`` live entries
    ``m_i``.  Subtables with fewer than two entries get the weight they
    would have at ``m_i = 2`` (a single pairwise term), which keeps the
    weight finite while still strongly preferring empty subtables.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    loads = np.asarray(loads, dtype=np.float64)
    pairwise = np.maximum(loads * (loads - 1.0) / 2.0, 1.0)
    return sizes / pairwise


class _KeyDerivedCoin:
    """Deterministic per-key uniform draw in ``[0, 1)``.

    Routing uses a key-derived coin rather than an RNG stream so that
    duplicate keys inside one batch route to the *same* subtable and
    therefore contend (and resolve) at the same bucket — the behaviour
    parallel GPU threads exhibit, and a prerequisite for the no-duplicate
    invariant under concurrent upserts.
    """

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        #: The coin's hash function; a caller that hashes codes under it
        #: (the sharded front-end's stacked pass) turns the raw values
        #: into draws with :func:`coin_draws`.
        self.hash = UniversalHash.random(rng)

    def draw(self, codes: np.ndarray) -> np.ndarray:
        return coin_draws(self.hash.raw(codes))


class WeightedRouter:
    """Route fresh keys between their pair per Theorem 1."""

    def __init__(self, seed: int) -> None:
        self.coin = _KeyDerivedCoin(seed)

    def choose(self, codes: np.ndarray, first: np.ndarray,
               second: np.ndarray, sizes: np.ndarray,
               loads: np.ndarray, draw: np.ndarray | None = None
               ) -> np.ndarray:
        """Pick a target subtable for each key.

        Parameters
        ----------
        codes:
            Internal key codes (drive the deterministic coin).
        first, second:
            The two candidate subtables per key (from the pair layer).
        sizes, loads:
            Current ``n_i`` (slots) and ``m_i`` (live entries) per
            subtable, indexed by subtable id.
        draw:
            The coin's draw per key when the caller already holds it
            (a pre-hashed batch); ``None`` draws it from ``codes``.
        """
        first = np.asarray(first, dtype=np.int64)
        second = np.asarray(second, dtype=np.int64)
        if len(first) == 0:
            return first
        weights = theorem1_weights(sizes, loads)
        w_first = weights[first]
        w_second = weights[second]
        p_first = w_first / (w_first + w_second)
        if draw is None:
            draw = self.coin.draw(codes)
        return np.where(draw < p_first, first, second)


class UniformRouter:
    """Ablation baseline: ignore Theorem 1, flip a fair coin."""

    def __init__(self, seed: int) -> None:
        self.coin = _KeyDerivedCoin(seed)

    def choose(self, codes: np.ndarray, first: np.ndarray,
               second: np.ndarray, sizes: np.ndarray,
               loads: np.ndarray, draw: np.ndarray | None = None
               ) -> np.ndarray:
        first = np.asarray(first, dtype=np.int64)
        second = np.asarray(second, dtype=np.int64)
        if len(first) == 0:
            return first
        if draw is None:
            draw = self.coin.draw(codes)
        return np.where(draw < 0.5, first, second)


def make_router(policy: str, seed: int):
    """Construct the router named by ``policy`` ('weighted' or 'uniform')."""
    if policy == "weighted":
        return WeightedRouter(seed)
    if policy == "uniform":
        return UniformRouter(seed)
    raise ValueError(f"unknown routing policy: {policy!r}")
