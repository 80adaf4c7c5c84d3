"""Unit tests for repro.workloads.spec and repro.workloads.suite."""

import pytest

from repro.workloads.spec import BenchmarkSpec, BranchKindMix, MemorySpec, PhaseSpec
from repro.workloads.suite import (
    PAPER_CONDITIONAL_MISPREDICT_RATES,
    PAPER_OVERALL_MISPREDICT_RATES,
    PAPER_PACO_RMS_ERROR,
    SPEC2000_INT,
    benchmark_names,
    get_benchmark,
)


class TestPhaseSpec:
    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            PhaseSpec(length_instructions=0)

    def test_defaults_do_not_override(self):
        phase = PhaseSpec(length_instructions=100)
        assert phase.hard_fraction is None
        assert phase.hard_taken_bias is None

    @pytest.mark.parametrize("field", ["hard_fraction", "hard_taken_bias"])
    def test_rejects_out_of_range_override(self, field):
        for value in (-0.1, 1.5):
            with pytest.raises(ValueError, match=field):
                PhaseSpec(length_instructions=100, **{field: value})
        for value in (0.0, 1.0):
            PhaseSpec(length_instructions=100, **{field: value})


class TestMemorySpec:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            MemorySpec(reuse_probability=1.2)
        with pytest.raises(ValueError):
            MemorySpec(stride_fraction=-0.1)

    def test_rejects_empty_working_set(self):
        with pytest.raises(ValueError):
            MemorySpec(working_set_lines=0)


class TestBranchKindMix:
    def test_normalises(self):
        mix = BranchKindMix().normalised()
        assert sum(mix.values()) == pytest.approx(1.0)

    def test_rejects_zero_total(self):
        mix = BranchKindMix(conditional=0, unconditional=0, call=0, ret=0,
                            indirect=0, indirect_call=0)
        with pytest.raises(ValueError):
            mix.normalised()


class TestBenchmarkSpec:
    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(name="bad", branch_fraction=0.0)
        with pytest.raises(ValueError):
            BenchmarkSpec(name="bad", hard_fraction=1.5)

    def test_fractions_must_not_exceed_one(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(name="bad", hard_fraction=0.5, loop_fraction=0.5,
                          pattern_fraction=0.5)

    def test_biased_fraction_fills_remainder(self):
        spec = BenchmarkSpec(name="x", hard_fraction=0.2, loop_fraction=0.3,
                             pattern_fraction=0.3, correlated_fraction=0.0)
        assert spec.biased_fraction == pytest.approx(0.2)

    def test_expected_mispredict_rate_tracks_hard_fraction(self):
        easy = BenchmarkSpec(name="easy", hard_fraction=0.05, hard_taken_bias=0.8)
        hard = BenchmarkSpec(name="hard", hard_fraction=0.40, hard_taken_bias=0.65)
        assert (hard.expected_conditional_mispredict_rate
                > easy.expected_conditional_mispredict_rate)

    def test_easy_bias_range_validation(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(name="bad", easy_bias_range=(0.2, 0.9))

    def test_rejects_loop_trip_range_below_two_for_every_seed(self):
        # Loop sites draw their trip counts from the range per seed, so
        # the range itself must be rejected: no seed may build a
        # generator from it.
        from repro.workloads.generator import WorkloadGenerator
        for seed in range(1, 41):
            with pytest.raises(ValueError, match="loop_trip_range"):
                WorkloadGenerator(
                    BenchmarkSpec(name="bad", loop_trip_range=(1, 64)),
                    seed=seed)
        BenchmarkSpec(name="ok", loop_trip_range=(2, 64))

    def test_rejects_invalid_indirect_targets(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(name="bad", indirect_targets=0)


class TestSuite:
    def test_contains_twelve_benchmarks(self):
        assert len(SPEC2000_INT) == 12
        assert len(benchmark_names()) == 12

    def test_eon_is_absent(self):
        assert "eon" not in SPEC2000_INT

    def test_names_match_paper_table_order(self):
        assert benchmark_names()[0] == "bzip2"
        assert benchmark_names()[-1] == "vprRoute"

    def test_get_benchmark_known(self):
        assert get_benchmark("twolf").name == "twolf"

    def test_get_benchmark_unknown_raises_keyerror_with_hint(self):
        with pytest.raises(KeyError) as excinfo:
            get_benchmark("nonexistent")
        assert "known benchmarks" in str(excinfo.value)

    def test_paper_tables_cover_every_benchmark(self):
        for name in benchmark_names():
            assert name in PAPER_CONDITIONAL_MISPREDICT_RATES
            assert name in PAPER_OVERALL_MISPREDICT_RATES
            assert name in PAPER_PACO_RMS_ERROR

    def test_phase_benchmarks_have_phases(self):
        assert get_benchmark("gcc").phases
        assert get_benchmark("mcf").phases
        assert not get_benchmark("twolf").phases

    def test_gap_is_correlated(self):
        assert get_benchmark("gap").correlated_fraction > 0.0

    def test_perlbmk_indirect_pathology(self):
        spec = get_benchmark("perlbmk")
        assert spec.indirect_targets >= 16
        assert spec.indirect_repeat_probability <= 0.5
        assert spec.kind_mix.indirect_call > spec.kind_mix.indirect

    def test_hard_fraction_ordering_matches_paper_difficulty(self):
        # twolf is the hardest benchmark in the paper, vortex among the easiest.
        assert (get_benchmark("twolf").hard_fraction
                > get_benchmark("vortex").hard_fraction)
        assert (get_benchmark("vprRoute").hard_fraction
                > get_benchmark("gcc").hard_fraction)

    def test_expected_rates_correlate_with_paper_rates(self):
        """First-order calibration sanity: the spec-level estimate should rank
        benchmarks roughly the way the paper's measured rates do."""
        names = benchmark_names()
        expected = [SPEC2000_INT[n].expected_conditional_mispredict_rate
                    for n in names]
        paper = [PAPER_CONDITIONAL_MISPREDICT_RATES[n] for n in names]
        # Spearman-style check: the three hardest by spec are among the four
        # hardest in the paper.
        top_spec = {names[i] for i in
                    sorted(range(len(names)), key=lambda i: -expected[i])[:3]}
        top_paper = {names[i] for i in
                     sorted(range(len(names)), key=lambda i: -paper[i])[:4]}
        assert top_spec <= top_paper
