"""Unit tests for repro.workloads.generator."""

import pytest

from repro.isa.types import BranchKind, InstructionClass
from repro.workloads.generator import WorkloadGenerator, WrongPathGenerator
from repro.workloads.spec import BenchmarkSpec, PhaseSpec
from repro.workloads.suite import get_benchmark


def _generate(generator, count):
    return [generator.next_instruction(seq) for seq in range(count)]


class TestWorkloadGenerator:
    def test_deterministic_for_same_seed(self, tiny_spec):
        a = WorkloadGenerator(tiny_spec, seed=3)
        b = WorkloadGenerator(tiny_spec, seed=3)
        for seq in range(500):
            ia, ib = a.next_instruction(seq), b.next_instruction(seq)
            assert (ia.pc, ia.iclass, ia.branch_kind) == (ib.pc, ib.iclass,
                                                          ib.branch_kind)
            if ia.is_branch:
                assert ia.outcome.taken == ib.outcome.taken
                assert ia.outcome.target == ib.outcome.target

    def test_different_seeds_differ(self, tiny_spec):
        a = WorkloadGenerator(tiny_spec, seed=1)
        b = WorkloadGenerator(tiny_spec, seed=2)
        signature_a = [a.next_instruction(s).pc for s in range(300)]
        signature_b = [b.next_instruction(s).pc for s in range(300)]
        assert signature_a != signature_b

    def test_branch_fraction_is_respected(self, tiny_spec):
        generator = WorkloadGenerator(tiny_spec, seed=5)
        instrs = _generate(generator, 5000)
        fraction = sum(i.is_branch for i in instrs) / len(instrs)
        assert abs(fraction - tiny_spec.branch_fraction) < 0.03

    def test_all_goodpath_instructions_flagged(self, tiny_spec):
        generator = WorkloadGenerator(tiny_spec, seed=5)
        assert all(i.on_goodpath for i in _generate(generator, 500))

    def test_conditional_branches_carry_static_ids(self, tiny_spec):
        generator = WorkloadGenerator(tiny_spec, seed=5)
        conditionals = [i for i in _generate(generator, 3000)
                        if i.branch_kind is BranchKind.CONDITIONAL]
        assert conditionals
        assert all(i.static_branch_id is not None for i in conditionals)

    def test_conditional_targets_differ_by_direction(self, tiny_spec):
        generator = WorkloadGenerator(tiny_spec, seed=5)
        for instr in _generate(generator, 3000):
            if instr.branch_kind is BranchKind.CONDITIONAL:
                if instr.outcome.taken:
                    assert instr.outcome.target != instr.pc + 4
                else:
                    assert instr.outcome.target == instr.pc + 4

    def test_returns_match_prior_calls(self, tiny_spec):
        generator = WorkloadGenerator(tiny_spec, seed=9)
        shadow_stack = []
        default_target = 0x0040_0000  # returns with an empty stack land here
        for instr in _generate(generator, 8000):
            if instr.branch_kind in (BranchKind.CALL, BranchKind.INDIRECT_CALL):
                shadow_stack.append(instr.pc + 4)
            elif instr.branch_kind is BranchKind.RETURN:
                if shadow_stack:
                    assert instr.outcome.target == shadow_stack.pop()
                else:
                    assert instr.outcome.target == default_target

    def test_memory_instructions_have_addresses(self, tiny_spec):
        generator = WorkloadGenerator(tiny_spec, seed=5)
        loads = [i for i in _generate(generator, 3000)
                 if i.iclass in (InstructionClass.LOAD, InstructionClass.STORE)]
        assert loads
        assert all(i.address is not None for i in loads)

    def test_addresses_stay_within_working_set_region(self, tiny_spec):
        generator = WorkloadGenerator(tiny_spec, seed=5)
        limit = (0x1000_0000
                 + tiny_spec.memory.working_set_lines * tiny_spec.memory.line_bytes)
        for instr in _generate(generator, 3000):
            if instr.address is not None:
                assert 0x1000_0000 <= instr.address < limit

    def test_phase_schedule_advances_and_wraps(self):
        spec = BenchmarkSpec(
            name="phases", num_static_conditionals=8,
            phases=[PhaseSpec(length_instructions=100, label="p0"),
                    PhaseSpec(length_instructions=100, label="p1")],
        )
        generator = WorkloadGenerator(spec, seed=1)
        labels = []
        for seq in range(350):
            generator.next_instruction(seq)
            labels.append(generator.current_phase_label)
        assert "p0" in labels and "p1" in labels
        assert labels[-1] == "p1" or labels[-1] == "p0"  # wrapped at least once
        assert labels[0] == "p0"

    def test_phaseless_benchmark_has_empty_label(self, tiny_spec):
        generator = WorkloadGenerator(tiny_spec, seed=1)
        generator.next_instruction(0)
        assert generator.current_phase_label == ""
        assert generator.current_phase is None

    def test_hard_phase_produces_more_minority_outcomes(self):
        spec = BenchmarkSpec(
            name="difficulty", num_static_conditionals=16,
            hard_fraction=0.2, hard_taken_bias=0.7,
            loop_fraction=0.0, pattern_fraction=0.6,
            phases=[PhaseSpec(length_instructions=4000, hard_fraction=0.02,
                              label="easy"),
                    PhaseSpec(length_instructions=4000, hard_fraction=0.60,
                              hard_taken_bias=0.60, label="hard")],
        )
        generator = WorkloadGenerator(spec, seed=2)
        minority_by_phase = {"easy": [0, 0], "hard": [0, 0]}
        for seq in range(16000):
            instr = generator.next_instruction(seq)
            label = generator.current_phase_label
            if instr.branch_kind is BranchKind.CONDITIONAL:
                minority_by_phase[label][0] += 1
                if not instr.outcome.taken:
                    minority_by_phase[label][1] += 1
        easy_rate = minority_by_phase["easy"][1] / max(minority_by_phase["easy"][0], 1)
        hard_rate = minority_by_phase["hard"][1] / max(minority_by_phase["hard"][0], 1)
        assert hard_rate > easy_rate

    def test_suite_builds_only_biased_loop_and_correlated_models(self):
        from repro.workloads.branch_models import (
            BiasedRandomBranch, CorrelatedBranch, LoopBranch)
        from repro.workloads.suite import benchmark_names
        for name in benchmark_names():
            generator = WorkloadGenerator(get_benchmark(name), seed=1)
            for site in generator._conditional_sites:
                assert type(site.behavior) in (
                    BiasedRandomBranch, CorrelatedBranch, LoopBranch), name

    @pytest.mark.parametrize("hard_fraction", [0.0, 1.0])
    def test_phase_hard_fraction_bounds_select_populations(self, hard_fraction):
        # At the bounds of [0, 1] a phase selects only the hard population
        # (1.0) or never selects it (0.0), on the scalar and block paths.
        spec = BenchmarkSpec(
            name="bounds", num_static_conditionals=16, hard_fraction=0.3,
            loop_fraction=0.2, pattern_fraction=0.3,
            phases=[PhaseSpec(length_instructions=10_000,
                              hard_fraction=hard_fraction)],
        )
        scalar_gen = WorkloadGenerator(spec, seed=3)
        block_gen = WorkloadGenerator(spec, seed=3)
        hard_ids = {site.static.branch_id
                    for site in scalar_gen._sites_by_class["hard"]}
        scalar = [scalar_gen.next_branch(seq) for seq in range(2000)]
        block = block_gen.next_branch_block(0, 2000)
        _assert_block_equals_instructions(block, scalar)
        conditional_ids = [instr.static_branch_id for instr in scalar
                           if instr.branch_kind is BranchKind.CONDITIONAL]
        assert len(conditional_ids) > 1000
        from_hard = [sid in hard_ids for sid in conditional_ids]
        assert all(from_hard) if hard_fraction == 1.0 else not any(from_hard)

    @pytest.mark.parametrize("base_bias, bias, expected",
                             [(0.98, 0.0, 0.02), (0.5, 1.0, 0.98)])
    def test_phase_hard_taken_bias_bounds_clamp_hard_sites(
            self, base_bias, bias, expected):
        # A phase bias at the bounds of [0, 1] still leaves hard sites
        # mispredictable: their taken-probability is clamped to
        # [0.02, 0.98].  The base bias puts every site's jittered bias
        # plus the phase shift past the clamp.
        spec = BenchmarkSpec(
            name="bias-bounds", num_static_conditionals=16, hard_fraction=0.9,
            hard_taken_bias=base_bias, loop_fraction=0.0,
            pattern_fraction=0.1, correlated_fraction=0.0,
            phases=[PhaseSpec(length_instructions=100_000,
                              hard_taken_bias=bias)],
        )
        generator = WorkloadGenerator(spec, seed=5)
        hard_ids = {site.static.branch_id
                    for site in generator._sites_by_class["hard"]}
        outcomes = [instr.outcome.taken
                    for instr in (generator.next_branch(seq)
                                  for seq in range(20_000))
                    if instr.branch_kind is BranchKind.CONDITIONAL
                    and instr.static_branch_id in hard_ids]
        assert len(outcomes) > 5000
        assert abs(sum(outcomes) / len(outcomes) - expected) < 0.005

    def test_thread_id_is_stamped(self, tiny_spec):
        generator = WorkloadGenerator(tiny_spec, seed=1, thread_id=1)
        assert all(i.thread_id == 1 for i in _generate(generator, 100))

    def test_real_suite_benchmark_generates(self):
        generator = WorkloadGenerator(get_benchmark("perlbmk"), seed=1)
        instrs = _generate(generator, 2000)
        kinds = {i.branch_kind for i in instrs if i.is_branch}
        assert BranchKind.INDIRECT_CALL in kinds


class TestWrongPathGenerator:
    def test_instructions_are_badpath(self, tiny_spec):
        parent = WorkloadGenerator(tiny_spec, seed=1)
        wrong = WrongPathGenerator(parent, seed=2)
        instrs = [wrong.next_instruction(seq) for seq in range(500)]
        assert all(not i.on_goodpath for i in instrs)

    def test_does_not_advance_parent_state(self, tiny_spec):
        parent = WorkloadGenerator(tiny_spec, seed=1)
        wrong = WrongPathGenerator(parent, seed=2)
        before = parent.instructions_generated
        for seq in range(200):
            wrong.next_instruction(seq)
        assert parent.instructions_generated == before

    def test_reuses_parent_branch_population(self, tiny_spec):
        parent = WorkloadGenerator(tiny_spec, seed=1)
        wrong = WrongPathGenerator(parent, seed=2)
        branch_ids = {i.static_branch_id
                      for i in (wrong.next_instruction(s) for s in range(2000))
                      if i.branch_kind is BranchKind.CONDITIONAL}
        parent_ids = {site.static.branch_id for site in parent._conditional_sites}
        assert branch_ids <= parent_ids
        assert branch_ids  # non-empty

    def test_pollutes_beyond_working_set(self, tiny_spec):
        parent = WorkloadGenerator(tiny_spec, seed=1)
        wrong = WrongPathGenerator(parent, seed=2)
        hot_limit = (0x1000_0000
                     + tiny_spec.memory.working_set_lines
                     * tiny_spec.memory.line_bytes)
        addresses = [i.address for i in (wrong.next_instruction(s)
                                         for s in range(3000))
                     if i.address is not None]
        assert any(address >= hot_limit for address in addresses)

    def test_deterministic(self, tiny_spec):
        parent = WorkloadGenerator(tiny_spec, seed=1)
        a = WrongPathGenerator(parent, seed=7)
        b = WrongPathGenerator(WorkloadGenerator(tiny_spec, seed=1), seed=7)
        for seq in range(300):
            ia, ib = a.next_instruction(seq), b.next_instruction(seq)
            assert (ia.pc, ia.iclass) == (ib.pc, ib.iclass)


def _stream_states(generator):
    """The stream states a branch block must leave as scalar calls do.

    ``dependences`` is not among them: a block carries no dependence
    distance, so block generation never draws from it (see
    :func:`_assert_dependences_at_seed`)."""
    return {name: generator._pool.stream(name)._state
            for name in ("branch-outcomes", "site-selection",
                         "instruction-mix", "memory")}


def _assert_dependences_at_seed(generator, spec, seed):
    fresh = WorkloadGenerator(spec, seed=seed)
    assert (generator._pool.stream("dependences")._state
            == fresh._pool.stream("dependences")._state)


def _assert_block_equals_instructions(block, instructions):
    assert block.count == len(instructions)
    for i, instr in enumerate(instructions):
        assert block.pc[i] == instr.pc, i
        assert block.kind[i] == instr.branch_kind, i
        assert block.taken[i] == instr.outcome.taken, i
        assert block.target[i] == instr.outcome.target, i
        assert block.static_branch_id[i] == instr.static_branch_id, i


class TestNextBranchBlock:
    """next_branch_block(seq, n) must equal n scalar next_branch calls
    column-for-column, including phase schedule and RNG stream states,
    and must leave the ``dependences`` stream untouched."""

    @pytest.mark.parametrize("bench_name", ["gzip", "gcc", "gap", "perlbmk",
                                            "mcf", "vortex"])
    def test_block_equals_scalar_on_suite(self, bench_name):
        spec = get_benchmark(bench_name)
        scalar_gen = WorkloadGenerator(spec, seed=7)
        block_gen = WorkloadGenerator(spec, seed=7)
        n = 3000
        scalar = [scalar_gen.next_branch(seq) for seq in range(n)]
        block = block_gen.next_branch_block(0, n)
        _assert_block_equals_instructions(block, scalar)
        assert _stream_states(block_gen) == _stream_states(scalar_gen)
        _assert_dependences_at_seed(block_gen, spec, 7)
        assert block_gen.instructions_generated == scalar_gen.instructions_generated
        assert block_gen._phase_index == scalar_gen._phase_index
        assert block_gen._phase_remaining == scalar_gen._phase_remaining
        assert list(block_gen._call_stack) == list(scalar_gen._call_stack)

    def test_block_spans_phase_boundaries(self):
        spec = BenchmarkSpec(
            name="short-phases",
            branch_fraction=0.5,
            num_static_conditionals=12,
            hard_fraction=0.3,
            loop_fraction=0.2,
            pattern_fraction=0.3,
            phases=[
                PhaseSpec(length_instructions=37, hard_fraction=0.05,
                          hard_taken_bias=0.9, label="a"),
                PhaseSpec(length_instructions=23, hard_fraction=0.6,
                          hard_taken_bias=0.55, label="b"),
            ],
        )
        scalar_gen = WorkloadGenerator(spec, seed=11)
        block_gen = WorkloadGenerator(spec, seed=11)
        n = 500  # many boundary crossings inside one block
        scalar = [scalar_gen.next_branch(seq) for seq in range(n)]
        block = block_gen.next_branch_block(0, n)
        _assert_block_equals_instructions(block, scalar)
        assert block_gen._phase_index == scalar_gen._phase_index
        assert block_gen._phase_remaining == scalar_gen._phase_remaining
        assert _stream_states(block_gen) == _stream_states(scalar_gen)
        _assert_dependences_at_seed(block_gen, spec, 11)
        assert list(block_gen._call_stack) == list(scalar_gen._call_stack)

    def test_blocks_interleave_with_scalar_calls(self, tiny_spec):
        scalar_gen = WorkloadGenerator(tiny_spec, seed=5)
        mixed_gen = WorkloadGenerator(tiny_spec, seed=5)
        scalar = [scalar_gen.next_branch(seq) for seq in range(90)]
        collected = []
        block = None
        seq = 0
        for chunk in (1, 17, 2, 40, 30):
            if chunk == 1:
                collected.append(mixed_gen.next_branch(seq))
                seq += 1
                continue
            block = mixed_gen.next_branch_block(seq, chunk)
            for i in range(chunk):
                collected.append((block.pc[i], block.kind[i], block.taken[i],
                                  block.target[i], block.static_branch_id[i]))
            seq += chunk
        flat_scalar = []
        for instr in scalar:
            flat_scalar.append((instr.pc, instr.branch_kind,
                                instr.outcome.taken, instr.outcome.target,
                                instr.static_branch_id))
        flat_mixed = [
            entry if isinstance(entry, tuple)
            else (entry.pc, entry.branch_kind, entry.outcome.taken,
                  entry.outcome.target, entry.static_branch_id)
            for entry in collected
        ]
        assert flat_mixed == flat_scalar
        assert _stream_states(mixed_gen) == _stream_states(scalar_gen)
        assert list(mixed_gen._call_stack) == list(scalar_gen._call_stack)

    def test_block_object_is_reusable(self, tiny_spec):
        from repro.workloads.generator import BranchBlock
        generator = WorkloadGenerator(tiny_spec, seed=9)
        block = BranchBlock(64)
        first = generator.next_branch_block(0, 64, block)
        assert first is block
        again = generator.next_branch_block(64, 10, block)
        assert again is block
        assert block.count == 10

    def test_block_rejects_undersized_buffer(self, tiny_spec):
        from repro.workloads.generator import BranchBlock
        generator = WorkloadGenerator(tiny_spec, seed=9)
        with pytest.raises(ValueError):
            generator.next_branch_block(0, 8, BranchBlock(4))
        with pytest.raises(ValueError):
            generator.next_branch_block(0, 0)
        with pytest.raises(ValueError):
            BranchBlock(0)


class TestWrongPathBlockWriter:
    """next_branch_block(block, n) must stage exactly the branches n
    successive scalar next_branch calls draw (same main-stream draws,
    same order, same stream state afterwards, the unread dependence
    draw included), both at n == 1 and at buffer-sized batches."""

    @pytest.mark.parametrize("sizes", [(1,) * 300, (1, 2, 5, 17, 32, 3, 32)],
                             ids=["one-slot", "episodes"])
    def test_next_branch_block_matches_next_branch(self, tiny_spec, sizes):
        from repro.workloads.generator import BranchBlock
        parent_a = WorkloadGenerator(tiny_spec, seed=3)
        parent_b = WorkloadGenerator(tiny_spec, seed=3)
        scalar_wp = WrongPathGenerator(parent_a, seed=6)
        block_wp = WrongPathGenerator(parent_b, seed=6)
        block = BranchBlock(max(sizes))
        seq = 0
        for n in sizes:
            block_wp.next_branch_block(block, n)
            assert block.count == n
            for i in range(n):
                instr = scalar_wp.next_branch(seq)
                seq += 1
                assert block.pc[i] == instr.pc
                assert block.kind[i] == instr.branch_kind
                assert block.taken[i] == instr.outcome.taken
                assert block.target[i] == instr.outcome.target
                assert block.static_branch_id[i] == instr.static_branch_id
            assert scalar_wp._rng._state == block_wp._rng._state

    @pytest.mark.parametrize("bench_name", ["gzip", "gcc", "gap", "perlbmk",
                                            "mcf", "vortex"])
    def test_block_equals_scalar_on_suite(self, bench_name):
        # The site draw is a modulo over the parent's population, whose
        # size and PC layout differ per benchmark.
        from repro.workloads.generator import BranchBlock
        spec = get_benchmark(bench_name)
        scalar_wp = WrongPathGenerator(WorkloadGenerator(spec, seed=4), seed=8)
        block_wp = WrongPathGenerator(WorkloadGenerator(spec, seed=4), seed=8)
        block = BranchBlock(32)
        seq = 0
        for n in (1, 32, 7, 1, 1, 19, 32):
            block_wp.next_branch_block(block, n)
            scalar = [scalar_wp.next_branch(seq + i) for i in range(n)]
            seq += n
            _assert_block_equals_instructions(block, scalar)
            assert scalar_wp._rng._state == block_wp._rng._state


class TestRecentLineReuseDraw:
    def test_reuse_draw_matches_deque_copy_reference(self, tiny_spec):
        """The direct deque index must draw the line rng.choice(list(deque))
        drew before the O(n) copy was removed (same single next_u64)."""
        fast = WorkloadGenerator(tiny_spec, seed=13)
        reference = WorkloadGenerator(tiny_spec, seed=13)

        def old_next_data_address():
            spec = reference.spec.memory
            rng = reference._rng_memory
            if reference._recent_lines and rng.bernoulli(spec.reuse_probability):
                line = rng.choice(list(reference._recent_lines))
            elif rng.bernoulli(spec.stride_fraction):
                reference._stride_pointer = (
                    (reference._stride_pointer + 1) % spec.working_set_lines)
                line = reference._stride_pointer
            else:
                line = rng.randint(0, spec.working_set_lines - 1)
            reference._recent_lines.append(line)
            return (0x1000_0000 + line * spec.line_bytes
                    + reference.thread_id * 0x4000_0000)

        reference._next_data_address = old_next_data_address
        fast_stream = [fast.next_instruction(seq) for seq in range(4000)]
        ref_stream = [reference.next_instruction(seq) for seq in range(4000)]
        for a, b in zip(fast_stream, ref_stream):
            assert a.address == b.address
        assert (fast._rng_memory._state == reference._rng_memory._state)
