"""Tests for the reference cycle simulator and buffer models."""

import numpy as np
import pytest

from repro.automata.glushkov import compile_regex_set, glushkov_nfa
from repro.automata.nfa import Automaton, StartKind
from repro.errors import SimulationError
from repro.sim.buffers import buffer_activity, input_interrupts, output_interrupts
from repro.sim.engine import Engine
from repro.sim.reports import Report, report_codes_at, report_positions
from repro.sim.trace import PartitionAssignment


class TestBasicRuns:
    def test_single_literal(self):
        engine = Engine(glushkov_nfa("abc"))
        result = engine.run(b"zabcz")
        assert [r.cycle for r in result.reports] == [3]

    def test_overlapping_matches(self):
        engine = Engine(glushkov_nfa("aa"))
        result = engine.run(b"aaaa")
        assert [r.cycle for r in result.reports] == [1, 2, 3]

    def test_all_input_start_restarts(self):
        engine = Engine(glushkov_nfa("ab"))
        assert [r.cycle for r in engine.run(b"abab").reports] == [1, 3]

    def test_start_of_data_fires_once(self):
        engine = Engine(glushkov_nfa("ab", anchored=True))
        assert engine.run(b"abab").num_reports == 1

    def test_kleene_star_cycle(self):
        engine = Engine(glushkov_nfa("ab*c"))
        assert engine.run(b"abbbc").num_reports == 1
        assert engine.run(b"ac").num_reports == 1

    def test_no_match(self):
        engine = Engine(glushkov_nfa("xyz"))
        assert engine.run(b"aaaa").num_reports == 0

    def test_empty_input(self):
        engine = Engine(glushkov_nfa("a"))
        result = engine.run(b"")
        assert result.num_reports == 0
        assert result.stats.num_cycles == 0

    def test_invalid_automaton_rejected(self):
        with pytest.raises(Exception):
            Engine(Automaton())


class TestRunChunk:
    def test_resume_matches_one_shot(self):
        engine = Engine(glushkov_nfa("abc"))
        one_shot = engine.run(b"zabczabc")
        state = engine.initial_state()
        reports = []
        for chunk in (b"zab", b"cz", b"", b"abc"):
            reports.extend(engine.run_chunk(chunk, state).reports)
        assert reports == one_shot.reports
        assert state.position == 8

    def test_start_of_data_only_at_stream_start(self):
        engine = Engine(glushkov_nfa("ab", anchored=True))
        state = engine.initial_state()
        first = engine.run_chunk(b"ab", state)
        second = engine.run_chunk(b"ab", state)
        assert first.num_reports == 1
        assert second.num_reports == 0

    def test_max_reports_budget_is_per_chunk_call(self):
        engine = Engine(glushkov_nfa("a"))
        state = engine.initial_state()
        result = engine.run_chunk(b"a" * 10, state, max_reports=3)
        assert len(result.reports) == 3
        assert result.stats.num_reports == 10

    def test_max_reports_is_exact_with_simultaneous_firings(self):
        # two states report on the same cycle: the cap must not overshoot
        engine = Engine(compile_regex_set({"r1": "a", "r2": "a"}))
        result = engine.run(b"aaa", max_reports=1)
        assert len(result.reports) == 1
        assert result.stats.num_reports == 6


class TestReports:
    def test_report_codes(self):
        engine = Engine(compile_regex_set({"r1": "ab", "r2": "b"}))
        result = engine.run(b"ab")
        assert report_codes_at(result.reports) == {(1, "r1"), (1, "r2")}

    def test_report_positions_dedupe(self):
        reports = [Report(1, 2), Report(1, 2), Report(3, 4)]
        assert report_positions(reports) == {(1, 2), (3, 4)}

    def test_max_reports_caps_recording_not_counting(self):
        engine = Engine(glushkov_nfa("a"))
        result = engine.run(b"a" * 100, max_reports=10)
        assert len(result.reports) == 10
        assert result.num_reports == 100


class TestStats:
    def test_cycle_count(self):
        engine = Engine(glushkov_nfa("ab"))
        assert engine.run(b"abcde").stats.num_cycles == 5

    def test_active_le_enabled(self):
        engine = Engine(glushkov_nfa("(a|b)e*cd+"))
        stats = engine.run(b"aecdaecd" * 4, keep_per_cycle=True).stats
        for active, enabled in zip(
            stats.active_per_cycle, stats.enabled_per_cycle
        ):
            assert active <= enabled

    def test_averages(self):
        engine = Engine(glushkov_nfa("a"))
        stats = engine.run(b"aa").stats
        # state 0 is enabled every cycle (all-input) and matches both a's
        assert stats.avg_enabled_states() == 1.0
        assert stats.avg_active_states() == 1.0
        assert stats.report_rate() == 1.0

    def test_per_cycle_disabled_by_default(self):
        engine = Engine(glushkov_nfa("a"))
        assert engine.run(b"aaa").stats.active_per_cycle == []


class TestPartitionStats:
    def make_two_partition_run(self):
        # two separate patterns; place each component in its own partition
        nfa = compile_regex_set(["ab", "cd"])
        placement = PartitionAssignment(
            partition_of=np.array([0, 0, 1, 1]), num_partitions=2
        )
        engine = Engine(nfa)
        return engine.run(b"abcdabcd", placement=placement).stats

    def test_partition_enabled_cycles(self):
        stats = self.make_two_partition_run()
        # start states are all-input: both partitions enabled every cycle
        assert list(stats.partition_enabled_cycles) == [8, 8]

    def test_partition_sums_consistent(self):
        stats = self.make_two_partition_run()
        assert stats.partition_enabled_states_sum.sum() == stats.enabled_states_sum
        assert stats.partition_active_states_sum.sum() == stats.active_states_sum

    def test_no_cross_partition_traffic_between_components(self):
        stats = self.make_two_partition_run()
        assert stats.global_source_partitions_sum == 0

    def test_cross_partition_traffic_counted(self):
        nfa = glushkov_nfa("abcd")
        placement = PartitionAssignment(
            partition_of=np.array([0, 0, 1, 1]), num_partitions=2
        )
        stats = Engine(nfa).run(b"abcd", placement=placement).stats
        # state 1 (b) crosses to state 2 (c): one active crossing state
        assert stats.global_crossing_states_sum == 1
        assert stats.global_source_partitions_sum == 1

    def test_wrong_placement_size_rejected(self):
        nfa = glushkov_nfa("ab")
        placement = PartitionAssignment(
            partition_of=np.array([0]), num_partitions=1
        )
        with pytest.raises(SimulationError):
            Engine(nfa).run(b"ab", placement=placement)

    def test_selective_precharge_factor(self):
        stats = self.make_two_partition_run()
        assert stats.avg_enabled_states_per_enabled_partition() == pytest.approx(
            stats.enabled_states_sum / 16
        )


class TestBuffers:
    def test_input_interrupts_ceil(self):
        assert input_interrupts(128) == 1
        assert input_interrupts(129) == 2
        assert input_interrupts(0) == 0

    def test_output_interrupts(self):
        assert output_interrupts(130) == 2

    def test_output_hidden_at_low_report_rate(self):
        # 0.4 reports/cycle (< 0.5): output interrupts stay behind input's
        activity = buffer_activity(1000, 400)
        assert activity.output_hidden

    def test_output_not_hidden_at_high_report_rate(self):
        activity = buffer_activity(1000, 3000)
        assert not activity.output_hidden

    def test_bad_capacity_rejected(self):
        with pytest.raises(SimulationError):
            input_interrupts(5, capacity=0)
        with pytest.raises(SimulationError):
            output_interrupts(0, capacity=-1)
