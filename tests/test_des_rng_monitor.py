"""Tests for random streams and measurement primitives."""

import hashlib

import numpy as np
import pytest

from repro.des.monitor import (
    Counter,
    TimeWeightedValue,
    TraceLog,
    merge_traces,
    summarize_counters,
)
from repro.des.rng import RngStreams, _initial_state


class TestRngStreams:
    def test_same_seed_same_name_reproducible(self):
        a = RngStreams(seed=42).stream("fading/0-1").normal(size=5)
        b = RngStreams(seed=42).stream("fading/0-1").normal(size=5)
        assert (a == b).all()

    def test_different_names_independent(self):
        rng = RngStreams(seed=42)
        a = rng.stream("a").normal(size=5)
        b = rng.stream("b").normal(size=5)
        assert not (a == b).all()

    def test_different_replicates_disjoint(self):
        a = RngStreams(seed=42, replicate=0).stream("x").normal(size=5)
        b = RngStreams(seed=42, replicate=1).stream("x").normal(size=5)
        assert not (a == b).all()

    def test_different_seeds_disjoint(self):
        a = RngStreams(seed=1).stream("x").normal(size=5)
        b = RngStreams(seed=2).stream("x").normal(size=5)
        assert not (a == b).all()

    def test_stream_is_cached(self):
        rng = RngStreams(seed=0)
        assert rng.stream("s") is rng.stream("s")

    def test_adding_consumers_does_not_perturb_existing(self):
        rng1 = RngStreams(seed=7)
        first_draws = rng1.stream("alpha").normal(size=3)

        rng2 = RngStreams(seed=7)
        rng2.stream("brand-new-consumer").normal(size=10)
        second_draws = rng2.stream("alpha").normal(size=3)
        assert (first_draws == second_draws).all()

    @pytest.mark.parametrize("replicate", [0, 2])
    @pytest.mark.parametrize("seed", [0, 6, 2**40 + 3])
    def test_memoized_streams_equal_seeded_generators(self, seed, replicate):
        """A stream starts from the memoized PCG64 state of (seed,
        replicate, name) rather than seeding its own: it must draw
        exactly as ``default_rng`` over that SeedSequence does, when the
        state is first derived and when the memo serves it again."""
        names = ("fading/0-3", "shadow/9", "csma_backoff/1", "app_phase/0",
                 "flood_jitter/6", "")
        for _pass in range(2):
            rng = RngStreams(seed=seed, replicate=replicate)
            for name in names:
                digest = hashlib.sha256(name.encode("utf-8")).digest()
                reference = np.random.default_rng(np.random.SeedSequence(
                    entropy=seed,
                    spawn_key=(replicate, int.from_bytes(digest[:8], "little")),
                ))
                stream = rng.stream(name)
                assert stream.bit_generator.state == (
                    reference.bit_generator.state
                )
                for draw in (
                    lambda g: g.standard_normal(40),
                    lambda g: g.random(7),
                    lambda g: g.integers(0, 1000, 5, dtype=np.uint32),
                    lambda g: g.uniform(2.0, 3.0, 3),
                ):
                    assert draw(stream).tolist() == draw(reference).tolist()
        assert _initial_state.cache_info().maxsize is not None

    def test_scalar_helpers(self):
        rng = RngStreams(seed=0)
        u = rng.uniform("u", 2.0, 3.0)
        assert 2.0 <= u < 3.0
        assert rng.integers("i", 0, 5) in range(5)
        assert rng.exponential("e", mean=2.0) >= 0.0


class TestCounter:
    def test_increment_and_reset(self):
        c = Counter("tx")
        c.increment()
        c.increment(3)
        assert c.value == 4
        c.reset()
        assert c.value == 0

    def test_summarize(self):
        counters = {"a": Counter("a"), "b": Counter("b")}
        counters["a"].increment(2)
        assert summarize_counters(counters) == {"a": 2, "b": 0}


class TestTimeWeightedValue:
    def test_piecewise_average(self):
        tw = TimeWeightedValue("duty", initial=0.0)
        tw.update(2.0, 1.0)  # 0 for [0,2), 1 from t=2
        tw.update(5.0, 0.0)  # 1 for [2,5)
        assert tw.integral(10.0) == pytest.approx(3.0)
        assert tw.average(10.0) == pytest.approx(0.3)

    def test_time_going_backwards_rejected(self):
        tw = TimeWeightedValue("x")
        tw.update(5.0, 1.0)
        with pytest.raises(ValueError):
            tw.update(4.0, 0.0)

    def test_average_at_start_is_current(self):
        tw = TimeWeightedValue("x", initial=7.0, start_time=3.0)
        assert tw.average(3.0) == 7.0

    def test_current_value(self):
        tw = TimeWeightedValue("x")
        tw.update(1.0, 42.0)
        assert tw.current == 42.0


class TestTraceLog:
    def test_disabled_by_default_records_nothing(self):
        trace = TraceLog()
        trace.log(1.0, "tx", node=3)
        assert len(trace) == 0

    def test_enabled_records_and_filters(self):
        trace = TraceLog(enabled=True)
        trace.log(1.0, "tx", node=1)
        trace.log(2.0, "rx", node=2)
        trace.log(3.0, "tx", node=3)
        assert trace.count("tx") == 2
        assert [r.payload["node"] for r in trace.by_category("tx")] == [1, 3]

    def test_capacity_drops_counted(self):
        trace = TraceLog(enabled=True, capacity=2)
        for i in range(5):
            trace.log(float(i), "e")
        assert len(trace) == 2
        assert trace.dropped == 3

    def test_clear(self):
        trace = TraceLog(enabled=True)
        trace.log(1.0, "e")
        trace.clear()
        assert len(trace) == 0 and trace.dropped == 0

    def test_merge_traces_time_ordered(self):
        t1, t2 = TraceLog(enabled=True), TraceLog(enabled=True)
        t1.log(1.0, "a")
        t1.log(3.0, "c")
        t2.log(2.0, "b")
        merged = merge_traces([t1, t2])
        assert [r.category for r in merged] == ["a", "b", "c"]
