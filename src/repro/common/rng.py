"""Deterministic named random streams.

Every stochastic component of the reproduction (workload generation,
wrong-path instruction synthesis, cache address streams, ...) draws from a
named stream derived from a single experiment seed, so that:

* two components never perturb each other's randomness, and
* every experiment is reproducible bit-for-bit from its seed.

The generator is a small xorshift64* kept in pure Python — fast enough for
the simulator's needs and independent of the version-to-version behaviour of
:mod:`random`.

Block consumers draw in bulk through :meth:`DeterministicRng.lookahead`:
the next ``n`` raw outputs, bit-identical to ``n`` :meth:`next_u64`
calls.  At :data:`BULK_MIN` draws and above it runs ``K`` copies of the
generator side by side in one Python int, 128 bits apart, so one big-int
operation steps every lane (each lane's 128-bit output product stays in
its own slot).  Lane ``j`` starts ``j * BULK_STEPS`` draws ahead — the
xorshift step is linear over GF(2), so that jump is a 64x64 bit matrix
applied through eight byte-indexed XOR tables, built on the first bulk
draw — and each lane then takes :data:`BULK_STEPS` steps.  Below
:data:`BULK_MIN` the scalar loop runs; :meth:`DeterministicRng.next_u64`
stays the reference the tests compare both against.  The output
multiplier is odd, so the state after any prefix of a lookahead is
recovered from its last output (:meth:`DeterministicRng.advance`).
"""

from __future__ import annotations

import hashlib
import math
import sys
from array import array
from typing import Dict, List, Optional, Sequence, TypeVar

_T = TypeVar("_T")

_MASK64 = (1 << 64) - 1
_MULTIPLIER = 0x2545F4914F6CDD1D
#: The multiplier's inverse mod 2**64: ``state == output * _INVERSE``.
_INVERSE = pow(_MULTIPLIER, -1, 1 << 64)

#: Draws each lane of the bulk kernel makes per call.
BULK_STEPS = 16
#: Smallest lookahead the bulk kernel serves; smaller ones run the scalar
#: loop, which is faster there (the lane jumps and the unpacking are a
#: fixed cost per lane).  Measured crossovers, CPython 3.11 on x86-64:
#: ~48 draws for :meth:`DeterministicRng.lookahead` and ~60 gaps for
#: :meth:`DeterministicRng.geometric_block`.  At 768 draws the kernel
#: takes ~110 ns a draw against ~300 for the scalar loop.
BULK_MIN = 64

if array("Q").itemsize != 8:  # pragma: no cover - every CPython platform
    raise ImportError("repro.common.rng needs a 64-bit array('Q')")
_LITTLE_ENDIAN = sys.byteorder == "little"

#: The eight byte tables of the ``BULK_STEPS``-draw jump, built on the
#: first bulk draw (importing builds nothing).
_jump_tables: Optional[List[List[int]]] = None


def _xorshift_step(x: int) -> int:
    x ^= (x >> 12)
    x ^= (x << 25) & _MASK64
    x ^= (x >> 27)
    return x


def _build_jump_tables() -> List[List[int]]:
    """Byte tables of ``T**BULK_STEPS`` for the xorshift step ``T``.

    ``T`` is linear over GF(2), so the jump of a state is the XOR of the
    jumps of its set bits; table ``k`` holds, for each byte value ``b``,
    the XOR of the jumped unit vectors of ``b``'s bits at ``8k..8k+7``.
    """
    columns = []
    for bit in range(64):
        x = 1 << bit
        for _ in range(BULK_STEPS):
            x = _xorshift_step(x)
        columns.append(x)
    tables = []
    for k in range(8):
        table = [0] * 256
        for b in range(1, 256):
            low = (b & -b).bit_length() - 1
            table[b] = table[b & (b - 1)] ^ columns[8 * k + low]
        tables.append(table)
    return tables


def _bulk_draws(state: int, n: int) -> List[int]:
    """The next ``n`` raw outputs from ``state``, lane-parallel.

    ``K`` lanes of ``BULK_STEPS`` draws each cover ``n``; lane ``j`` of
    the packed int sits at bit ``128 * j``.  Each step masks every
    shift-xor back to the low 64 bits of its slot, and the output
    product (< 2**128) fills the slot without carrying into the next.
    The low words of the products are the outputs, step-major; one
    strided slice assignment per step puts them in draw order.
    """
    global _jump_tables
    if _jump_tables is None:
        _jump_tables = _build_jump_tables()
    t0, t1, t2, t3, t4, t5, t6, t7 = _jump_tables
    steps = BULK_STEPS
    lanes = -(-n // steps)
    starts = array("Q", bytes(16 * lanes))
    x = state
    for j in range(0, 2 * lanes, 2):
        starts[j] = x
        b = x.to_bytes(8, "little")
        x = (t0[b[0]] ^ t1[b[1]] ^ t2[b[2]] ^ t3[b[3]]
             ^ t4[b[4]] ^ t5[b[5]] ^ t6[b[6]] ^ t7[b[7]])
    if not _LITTLE_ENDIAN:
        starts.byteswap()
    width = 16 * lanes
    lane_mask = int.from_bytes((b"\xff" * 8 + bytes(8)) * lanes, "little")
    packed = int.from_bytes(starts.tobytes(), "little")
    products = []
    append = products.append
    for _ in range(steps):
        packed ^= (packed >> 12) & lane_mask
        packed ^= (packed << 25) & lane_mask
        packed ^= (packed >> 27) & lane_mask
        append((packed * _MULTIPLIER).to_bytes(width, "little"))
    words = array("Q", b"".join(products))
    if not _LITTLE_ENDIAN:
        words.byteswap()
    low = words[0::2].tolist()
    out = [0] * (lanes * steps)
    for t in range(steps):
        out[t::steps] = low[t * lanes:(t + 1) * lanes]
    del out[n:]
    return out


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
    # :meth:`lookahead` returns the next ``n`` raw outputs without moving
    # the stream and :meth:`advance` then consumes a prefix of them, so a
    # block loop that reads a variable number of draws per item pays for
    # one bulk draw.  The trace backend's gap draws: :meth:`geometric_block`
    # fills a preallocated list with ``n`` gaps and
    # :meth:`geometric_episode` draws one bounded wrong-path episode.  Each
    # replays the *exact* scalar draw sequence (one :meth:`random` per
    # gap), so blocked and scalar execution consume the stream
    # identically; the bit-identity is pinned by
    # ``tests/test_common_rng.py``.
    # ------------------------------------------------------------------ #

    def lookahead(self, n: int) -> List[int]:
        """The next ``n`` :meth:`next_u64` outputs; the state is unchanged.

        From :data:`BULK_MIN` draws on, the lane-parallel kernel computes
        them; below it, the scalar loop.
        """
        if n >= BULK_MIN:
            return _bulk_draws(self._state, n)
        out = []
        append = out.append
        x = self._state
        for _ in range(n):
            x ^= (x >> 12)
            x ^= (x << 25) & _MASK64
            x ^= (x >> 27)
            append((x * 0x2545F4914F6CDD1D) & _MASK64)
        return out

    def advance(self, raw: List[int], k: int) -> None:
        """Consume the first ``k`` outputs of ``raw``, this stream's latest
        :meth:`lookahead`: the state becomes that of ``k`` :meth:`next_u64`
        calls, recovered from the ``k``-th output."""
        if k:
            self._state = (raw[k - 1] * _INVERSE) & _MASK64

    def geometric_block(self, log_one_minus_p: "float | None", out: list,
                        n: int, start: int = 0) -> list:
        """Draw ``n`` closed-form geometric gap lengths into ``out[start:]``.

        ``log_one_minus_p`` is the precomputed ``log(1 - p)`` of the
        per-trial success probability; ``None`` means ``p == 1`` (every
        gap is 0 and **no** draws are consumed, matching the scalar gap
        path of the trace backend).  Each gap consumes exactly one
        uniform and equals ``int(log(u) / log(1 - p))`` (0 when ``u``
        underflows to 0.0) — bit-identical to ``n`` scalar draws.  From
        :data:`BULK_MIN` gaps on, the uniforms come from one
        :meth:`lookahead`; below it, from the inlined scalar loop.
        ``n == 0`` draws nothing.
        """
        if log_one_minus_p is None:
            for i in range(start, start + n):
                out[i] = 0
            return out
        log = math.log
        if n >= BULK_MIN:
            raw = self.lookahead(n)
            self.advance(raw, n)
            out[start:start + n] = [
                int(log(u) / log_one_minus_p) if u > 0.0 else 0
                for u in [(x >> 11) / 9007199254740992.0 for x in raw]]
            return out
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
        ``((x >> 11) / 2**53) * total < cumulative[j]``, except that the
        last entry is always ``2**64``.

        The rounded product is monotone in ``x >> 11``, so each bound is
        the first 53-bit value that fails the float test, found by
        bisection; ``2**53`` (every draw passes) maps to ``2**64``.  A
        normal ``total`` already gives ``2**64`` last; a subnormal one
        can round the last bound lower, and a draw past every partial sum
        then takes the last item, as :meth:`cumulative_choice` does.  So
        ``items[bisect_right(thresholds, x)]`` is always in range and is
        the item :meth:`cumulative_choice` picks.
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
        if thresholds:
            thresholds[-1] = 1 << 64
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
