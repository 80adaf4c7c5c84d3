"""Deterministic named random streams.

Every stochastic component of the reproduction (workload generation,
wrong-path instruction synthesis, cache address streams, ...) draws from a
named stream derived from a single experiment seed, so that:

* two components never perturb each other's randomness, and
* every experiment is reproducible bit-for-bit from its seed.

The generator is a small xorshift64* kept in pure Python — fast enough for
the simulator's needs and independent of the version-to-version behaviour of
:mod:`random`.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Sequence, TypeVar

_T = TypeVar("_T")

_MASK64 = (1 << 64) - 1


def _seed_from_name(master_seed: int, name: str) -> int:
    """Derive a 64-bit stream seed from the master seed and a stream name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "little")
    return seed or 0x9E3779B97F4A7C15


class DeterministicRng:
    """A small, fast xorshift64* pseudo-random generator."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = (seed & _MASK64) or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        """Return the next 64-bit unsigned integer."""
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK64
        x ^= (x >> 27)
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def random(self) -> float:
        """Return a float uniformly distributed in [0, 1)."""
        # next_u64 inlined: this is the hottest call in the simulator.
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK64
        x ^= (x >> 27)
        self._state = x
        return (((x * 0x2545F4914F6CDD1D) & _MASK64) >> 11) / 9007199254740992.0

    def randint(self, low: int, high: int) -> int:
        """Return an integer uniformly distributed in [low, high] inclusive."""
        if high < low:
            raise ValueError("empty range for randint")
        span = high - low + 1
        return low + self.next_u64() % span

    def choice(self, items: Sequence[_T]) -> _T:
        """Return a uniformly chosen element of a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self.next_u64() % len(items)]

    def bernoulli(self, probability: float) -> bool:
        """Return True with the given probability."""
        # random() inlined (hot path).
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK64
        x ^= (x >> 27)
        self._state = x
        return ((((x * 0x2545F4914F6CDD1D) & _MASK64) >> 11)
                / 9007199254740992.0) < probability

    def geometric(self, probability: float, cap: int = 1 << 20) -> int:
        """Return a geometric variate (number of trials until first success)."""
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        count = 1
        while not self.bernoulli(probability) and count < cap:
            count += 1
        return count

    def weighted_choice(self, items: Sequence[_T], weights: Sequence[float]) -> _T:
        """Return an element chosen with probability proportional to its weight."""
        if len(items) != len(weights):
            raise ValueError("items and weights must have equal length")
        total = float(sum(weights))
        if total <= 0.0:
            raise ValueError("weights must sum to a positive value")
        target = self.random() * total
        acc = 0.0
        for item, weight in zip(items, weights):
            acc += weight
            if target < acc:
                return item
        return items[-1]

    def cumulative_choice(self, items: Sequence[_T],
                          cumulative: Sequence[float], total: float) -> _T:
        """Weighted choice over a precomputed cumulative-weight table.

        Draws the *bit-identical* element :meth:`weighted_choice` would
        draw, provided ``cumulative`` holds the same running partial sums
        (``0.0 + w0``, ``0.0 + w0 + w1``, …) and ``total`` equals
        ``float(sum(weights))`` — precomputing them merely hoists the
        per-call summation out of hot loops.
        """
        # random() inlined (hot path).
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK64
        x ^= (x >> 27)
        self._state = x
        target = ((((x * 0x2545F4914F6CDD1D) & _MASK64) >> 11)
                  / 9007199254740992.0) * total
        for item, acc in zip(items, cumulative):
            if target < acc:
                return item
        return items[-1]

    # ------------------------------------------------------------------ #
    # block APIs
    #
    # The trace backend's gap draws: :meth:`geometric_block` fills a
    # preallocated list with ``n`` gaps and :meth:`geometric_episode`
    # draws one bounded wrong-path episode.  Each replays the *exact*
    # scalar draw sequence (one :meth:`random` per gap), so blocked and
    # scalar execution consume the stream identically; the bit-identity
    # is pinned by ``tests/test_common_rng.py``.
    # ------------------------------------------------------------------ #

    def geometric_block(self, log_one_minus_p: "float | None", out: list,
                        n: int, start: int = 0) -> list:
        """Draw ``n`` closed-form geometric gap lengths into ``out``.

        ``log_one_minus_p`` is the precomputed ``log(1 - p)`` of the
        per-trial success probability; ``None`` means ``p == 1`` (every
        gap is 0 and **no** draws are consumed, matching the scalar gap
        path of the trace backend).  Each gap consumes exactly one
        uniform and equals ``int(log(u) / log(1 - p))`` (0 when ``u``
        underflows to 0.0) — bit-identical to ``n`` scalar draws.
        """
        if log_one_minus_p is None:
            for i in range(start, start + n):
                out[i] = 0
            return out
        log = math.log
        state = self._state
        for i in range(start, start + n):
            state ^= (state >> 12)
            state ^= (state << 25) & _MASK64
            state ^= (state >> 27)
            u = (((state * 0x2545F4914F6CDD1D) & _MASK64) >> 11) \
                / 9007199254740992.0
            out[i] = int(log(u) / log_one_minus_p) if u > 0.0 else 0
        self._state = state
        return out

    def geometric_episode(self, log_one_minus_p: "float | None", out: list,
                          budget: int) -> "tuple[int, int]":
        """Draw the gap lengths of one bounded gap/branch episode.

        Replays the trace backend's scalar wrong-path loop in one call:
        starting from ``budget`` remaining slots, repeatedly draw a
        geometric gap (one uniform, exactly as :meth:`geometric_block`
        with ``n == 1`` would); a gap that covers the remaining budget is
        clamped to it and ends the episode, otherwise the gap plus one
        branch slot are consumed and the next gap is drawn.  Gap lengths
        land in ``out[0:n_gaps]``; returns ``(n_gaps, n_branches)`` where
        ``n_branches`` is the number of branch slots consumed — equal to
        ``n_gaps`` when the last consumed slot was a branch, ``n_gaps -
        1`` when the clamped final gap ended the episode.  ``out`` must
        hold at least ``budget`` entries (every draw consumes at least
        one slot).  ``log_one_minus_p is None`` means every gap is 0 and
        **no** draws are consumed: the episode is ``budget`` branches.

        Bit-identical — in drawn values, stream state *and* draw count —
        to the scalar loop it replaces (pinned by
        ``tests/test_common_rng.py``).
        """
        if log_one_minus_p is None:
            for i in range(budget):
                out[i] = 0
            return budget, budget
        log = math.log
        state = self._state
        remaining = budget
        n = 0
        while remaining:
            state ^= (state >> 12)
            state ^= (state << 25) & _MASK64
            state ^= (state >> 27)
            u = (((state * 0x2545F4914F6CDD1D) & _MASK64) >> 11) \
                / 9007199254740992.0
            gap = int(log(u) / log_one_minus_p) if u > 0.0 else 0
            if gap >= remaining:
                out[n] = remaining
                n += 1
                self._state = state
                return n, n - 1
            out[n] = gap
            n += 1
            remaining -= gap + 1
        self._state = state
        return n, n

    @staticmethod
    def cumulative_weights(weights: Sequence[float]) -> "tuple[list, float]":
        """Precompute (partial sums, total) for :meth:`cumulative_choice`.

        The final partial sum *is* ``float(sum(weights))`` — both are the
        same left-to-right float accumulation — so the pair is bit-exact
        against :meth:`weighted_choice`'s per-call arithmetic.
        """
        acc = 0.0
        partial = []
        for weight in weights:
            acc += weight
            partial.append(acc)
        return partial, acc

    # ------------------------------------------------------------------ #
    # integer thresholds
    #
    # A uniform is ``(x >> 11) / 2**53`` of the raw 64-bit output ``x``
    # (``(state * 0x2545F4914F6CDD1D) & _MASK64``).  Every comparison the
    # generators make on it — ``u < p`` and ``u * total < c`` — holds for
    # a prefix of ``x`` values, so it equals ``x < T`` for one integer
    # ``T`` found once; the hot loops then skip the shift, the divide and
    # the multiply.  Pinned by ``tests/test_properties.py``.
    # ------------------------------------------------------------------ #

    @staticmethod
    def probability_threshold(probability: float) -> int:
        """``T`` with ``x < T`` exactly when ``(x >> 11) / 2**53 < probability``.

        ``x >> 11`` is an integer and ``probability * 2**53`` is exact, so
        the bound is its ceiling, shifted back into raw-output units.
        """
        return math.ceil(probability * 9007199254740992.0) << 11

    @staticmethod
    def cumulative_thresholds(cumulative: Sequence[float],
                              total: float) -> list:
        """``T_j`` with ``x < T_j`` exactly when the draw's
        ``((x >> 11) / 2**53) * total < cumulative[j]``.

        The rounded product is monotone in ``x >> 11``, so each bound is
        the first 53-bit value that fails the float test, found by
        bisection; ``2**53`` (every draw passes) maps to ``2**64``.
        """
        thresholds = []
        for acc in cumulative:
            low, high = 0, 1 << 53
            while low < high:
                mid = (low + high) >> 1
                if (mid / 9007199254740992.0) * total < acc:
                    low = mid + 1
                else:
                    high = mid
            thresholds.append(low << 11)
        return thresholds


class RngPool:
    """A pool of independent named random streams sharing one master seed."""

    def __init__(self, master_seed: int = 1) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, DeterministicRng] = {}

    def stream(self, name: str) -> DeterministicRng:
        """Return (creating if needed) the stream with the given name."""
        rng = self._streams.get(name)
        if rng is None:
            rng = DeterministicRng(_seed_from_name(self.master_seed, name))
            self._streams[name] = rng
        return rng

    def fork(self, name: str) -> "RngPool":
        """Return a new pool whose master seed is derived from this one."""
        return RngPool(_seed_from_name(self.master_seed, f"fork:{name}"))
