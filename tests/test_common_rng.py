"""Unit tests for repro.common.rng."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.rng import BULK_MIN, BULK_STEPS, DeterministicRng, RngPool


class TestDeterministicRng:
    def test_same_seed_same_sequence(self):
        a, b = DeterministicRng(42), DeterministicRng(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_different_seeds_differ(self):
        a, b = DeterministicRng(1), DeterministicRng(2)
        assert [a.next_u64() for _ in range(5)] != [b.next_u64() for _ in range(5)]

    def test_random_in_unit_interval(self):
        rng = DeterministicRng(7)
        for _ in range(1000):
            value = rng.random()
            assert 0.0 <= value < 1.0

    def test_random_mean_is_near_half(self):
        rng = DeterministicRng(11)
        mean = sum(rng.random() for _ in range(5000)) / 5000
        assert abs(mean - 0.5) < 0.03

    def test_randint_bounds_inclusive(self):
        rng = DeterministicRng(3)
        values = {rng.randint(2, 5) for _ in range(500)}
        assert values == {2, 3, 4, 5}

    def test_randint_rejects_empty_range(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).randint(5, 2)

    def test_choice_covers_items(self):
        rng = DeterministicRng(5)
        items = ["a", "b", "c"]
        seen = {rng.choice(items) for _ in range(200)}
        assert seen == set(items)

    def test_choice_rejects_empty(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).choice([])

    def test_bernoulli_frequency(self):
        rng = DeterministicRng(9)
        hits = sum(rng.bernoulli(0.3) for _ in range(5000))
        assert abs(hits / 5000 - 0.3) < 0.03

    def test_geometric_mean_close_to_inverse_probability(self):
        rng = DeterministicRng(13)
        samples = [rng.geometric(0.25) for _ in range(3000)]
        assert abs(sum(samples) / len(samples) - 4.0) < 0.4

    def test_geometric_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).geometric(0.0)

    def test_weighted_choice_respects_weights(self):
        rng = DeterministicRng(17)
        counts = {"a": 0, "b": 0}
        for _ in range(4000):
            counts[rng.weighted_choice(["a", "b"], [3.0, 1.0])] += 1
        assert counts["a"] > 2.0 * counts["b"]

    def test_weighted_choice_length_mismatch(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).weighted_choice(["a"], [1.0, 2.0])

    def test_weighted_choice_rejects_zero_total(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).weighted_choice(["a", "b"], [0.0, 0.0])

    def test_cumulative_choice_matches_weighted_choice(self):
        items = ["a", "b", "c", "d"]
        weights = [0.1, 0.5, 0.2, 0.2]
        cum, total = DeterministicRng.cumulative_weights(weights)
        a, b = DeterministicRng(41), DeterministicRng(41)
        assert ([a.cumulative_choice(items, cum, total) for _ in range(500)]
                == [b.weighted_choice(items, weights) for _ in range(500)])
        assert a._state == b._state

    def test_cumulative_choice_never_picks_zero_weight_items(self):
        items = ["a", "b", "c", "d"]
        cum, total = DeterministicRng.cumulative_weights([0.0, 2.0, 0.0, 1.0])
        rng = DeterministicRng(43)
        picks = [rng.cumulative_choice(items, cum, total) for _ in range(3000)]
        assert set(picks) == {"b", "d"}
        assert abs(picks.count("b") / 3000 - 2.0 / 3.0) < 0.03

    def test_geometric_block_matches_scalar_closed_form(self):
        import math
        log1p = math.log(1.0 - 0.17)
        a, b = DeterministicRng(31), DeterministicRng(31)
        out = [0] * 200
        a.geometric_block(log1p, out, 200)
        expected = []
        for _ in range(200):
            u = b.random()
            expected.append(int(math.log(u) / log1p) if u > 0.0 else 0)
        assert out == expected
        assert a._state == b._state

    def test_geometric_block_probability_one_draws_nothing(self):
        rng = DeterministicRng(33)
        before = rng._state
        out = [7] * 5
        rng.geometric_block(None, out, 5)
        assert out == [0] * 5
        assert rng._state == before

    def test_geometric_episode_matches_scalar_loop(self):
        """geometric_episode must draw exactly the gaps (and exactly the
        uniforms) the scalar wrong-path episode loop drew: gaps until one
        reaches the remaining budget, which is clamped and ends the
        episode without a branch."""
        import math
        log1p = math.log(1.0 - 0.17)
        for seed in (5, 91, 2024):
            a, b = DeterministicRng(seed), DeterministicRng(seed)
            for budget in (1, 2, 7, 40, 160):
                out = [-1] * budget
                n_gaps, n_branches = a.geometric_episode(log1p, out, budget)
                expected = []
                remaining = budget
                branches = 0
                while remaining:
                    u = b.random()
                    gap = int(math.log(u) / log1p) if u > 0.0 else 0
                    if gap >= remaining:
                        expected.append(remaining)
                        break
                    expected.append(gap)
                    branches += 1
                    remaining -= gap + 1
                assert out[:n_gaps] == expected
                assert n_branches == branches
                assert sum(out[:n_gaps]) + n_branches <= budget
                assert a._state == b._state

    def test_geometric_episode_probability_one(self):
        rng = DeterministicRng(33)
        before = rng._state
        out = [7] * 4
        assert rng.geometric_episode(None, out, 4) == (4, 4)
        assert out == [0] * 4
        assert rng._state == before

    def test_zero_seed_still_produces_values(self):
        rng = DeterministicRng(0)
        assert rng.next_u64() != 0


#: Sizes that straddle the kernel/scalar crossover and the lane geometry.
_BULK_SIZES = sorted({0, 1, BULK_MIN - 1, BULK_MIN, BULK_MIN + 1,
                      BULK_STEPS - 1, BULK_STEPS, BULK_STEPS + 1,
                      256, 768, 4096})

_SEEDS = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestBulkDraws:
    """lookahead/advance against the scalar next_u64 reference: every
    size on either side of BULK_MIN, random 64-bit seeds and the
    zero-seed fallback."""

    @settings(max_examples=40, deadline=None)
    @given(seed=_SEEDS)
    @example(seed=0)
    def test_lookahead_equals_scalar_draws(self, seed):
        for n in _BULK_SIZES:
            rng = DeterministicRng(seed)
            reference = DeterministicRng(seed)
            before = rng._state
            raw = rng.lookahead(n)
            assert rng._state == before
            assert raw == [reference.next_u64() for _ in range(n)], n

    @settings(max_examples=20, deadline=None)
    @given(seed=_SEEDS, n=st.sampled_from([BULK_MIN - 1, BULK_MIN + 1,
                                           300, 768]))
    @example(seed=0, n=BULK_MIN + 1)
    def test_advance_gives_the_state_of_k_scalar_draws(self, seed, n):
        raw = DeterministicRng(seed).lookahead(n)
        reference = DeterministicRng(seed)
        for k in range(n + 1):
            rng = DeterministicRng(seed)
            rng.advance(raw, k)
            assert rng._state == reference._state, k
            if k < n:
                reference.next_u64()

    @settings(max_examples=20, deadline=None)
    @given(seed=_SEEDS, start=st.integers(min_value=0, max_value=5))
    @example(seed=0, start=3)
    def test_geometric_block_sizes_and_offsets(self, seed, start):
        log1p = math.log(1.0 - 0.17)
        for n in _BULK_SIZES:
            rng = DeterministicRng(seed)
            reference = DeterministicRng(seed)
            out = [-1] * (start + n + 2)
            assert rng.geometric_block(log1p, out, n, start) is out
            expected = []
            for _ in range(n):
                u = reference.random()
                expected.append(int(math.log(u) / log1p) if u > 0.0 else 0)
            assert out[:start] == [-1] * start
            assert out[start:start + n] == expected, n
            assert out[start + n:] == [-1, -1]
            assert rng._state == reference._state

    def test_geometric_block_of_zero_gaps_is_a_no_op(self):
        rng = DeterministicRng(17)
        before = rng._state
        out = [5, 5]
        rng.geometric_block(math.log(0.5), out, 0)
        assert out == [5, 5]
        assert rng._state == before

    def test_import_builds_no_jump_table(self):
        """The jump tables are built on the first bulk draw, so importing
        the package (and registering its backends) stays as cheap as it
        was."""
        import os
        import subprocess
        import sys

        import repro
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        probe = ("import repro.backends, repro.workloads\n"
                 "import repro.common.rng as rng\n"
                 "assert rng._jump_tables is None\n")
        env = dict(os.environ, PYTHONPATH=src_dir)
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr


class TestRngPool:
    def test_streams_are_independent_of_creation_order(self):
        pool_a = RngPool(1)
        pool_b = RngPool(1)
        a_first = pool_a.stream("x").next_u64()
        # Create streams in a different order in the second pool.
        pool_b.stream("y")
        b_value = pool_b.stream("x").next_u64()
        assert a_first == b_value

    def test_same_name_returns_same_stream(self):
        pool = RngPool(5)
        assert pool.stream("a") is pool.stream("a")

    def test_different_names_give_different_sequences(self):
        pool = RngPool(5)
        assert pool.stream("a").next_u64() != pool.stream("b").next_u64()

    def test_fork_produces_distinct_but_deterministic_pool(self):
        forked_1 = RngPool(2).fork("child").stream("s").next_u64()
        forked_2 = RngPool(2).fork("child").stream("s").next_u64()
        parent = RngPool(2).stream("s").next_u64()
        assert forked_1 == forked_2
        assert forked_1 != parent
