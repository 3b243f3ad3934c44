"""Unit tests for the simulated clock and CPU cost model."""

import dataclasses

import pytest

from repro.disk.clock import CostMeter, CostModel, SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_us == 0.0

    def test_custom_start(self):
        assert SimClock(start_us=500.0).now_us == 500.0

    def test_advance(self):
        clock = SimClock()
        clock.advance_us(12.5)
        clock.advance_us(7.5)
        assert clock.now_us == 20.0

    def test_advance_zero_is_allowed(self):
        clock = SimClock()
        clock.advance_us(0.0)
        assert clock.now_us == 0.0

    def test_advance_backwards_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance_us(-1.0)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_advance_non_finite_rejected(self, delta):
        clock = SimClock(start_us=5.0)
        with pytest.raises(ValueError):
            clock.advance_us(delta)
        assert clock.now_us == 5.0

    def test_now_s_converts_units(self):
        clock = SimClock()
        clock.advance_us(2_500_000)
        assert clock.now_s == pytest.approx(2.5)

    def test_ticks_are_unique_and_increasing(self):
        clock = SimClock()
        ticks = [clock.tick() for _ in range(100)]
        assert ticks == sorted(ticks)
        assert len(set(ticks)) == 100

    def test_ticks_do_not_advance_time(self):
        clock = SimClock()
        clock.tick()
        assert clock.now_us == 0.0

    def test_elapsed_since(self):
        clock = SimClock()
        mark = clock.now_us
        clock.advance_us(42.0)
        assert clock.elapsed_since_us(mark) == 42.0


class TestCostModel:
    def test_defaults_are_positive(self):
        model = CostModel()
        for field in dataclasses.fields(model):
            assert getattr(model, field.name) >= 0, field.name

    def test_scaled(self):
        model = CostModel()
        doubled = model.scaled(2.0)
        assert doubled.block_copy_us == pytest.approx(2 * model.block_copy_us)
        assert doubled.aru_begin_us == pytest.approx(2 * model.aru_begin_us)

    def test_scaled_is_new_instance(self):
        model = CostModel()
        assert model.scaled(1.0) is not model

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            CostModel().ld_call_us = 5.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, -1])
    def test_non_finite_or_negative_cost_rejected(self, value):
        with pytest.raises(ValueError, match="chain_hop_us"):
            CostModel(chain_hop_us=value)

    @pytest.mark.parametrize("value", ["1.5", None, True])
    def test_non_number_cost_rejected(self, value):
        with pytest.raises(TypeError, match="chain_hop_us"):
            CostModel(chain_hop_us=value)

    def test_whole_numbers_and_zero_accepted(self):
        model = CostModel(ld_call_us=3, chain_hop_us=0.0)
        assert model.ld_call_us == 3 and model.chain_hop_us == 0.0

    @pytest.mark.parametrize("factor", [-1, float("nan"), float("inf")])
    def test_scaled_validates_like_construction(self, factor):
        with pytest.raises(ValueError):
            CostModel().scaled(factor)


class TestCostMeter:
    def test_charge_advances_clock(self):
        clock = SimClock()
        meter = CostMeter(clock, CostModel(ld_call_us=3.0))
        meter.charge("ld_call_us")
        assert clock.now_us == 3.0

    def test_charge_count(self):
        clock = SimClock()
        meter = CostMeter(clock, CostModel(chain_hop_us=1.5))
        meter.charge("chain_hop_us", 4)
        assert clock.now_us == pytest.approx(6.0)
        assert meter.counters["chain_hop_us"] == 4

    def test_charge_unknown_category(self):
        meter = CostMeter(SimClock(), CostModel())
        with pytest.raises(AttributeError):
            meter.charge("not_a_cost")

    def test_total_charged(self):
        meter = CostMeter(SimClock(), CostModel(ld_call_us=2.0, fs_call_us=5.0))
        meter.charge("ld_call_us")
        meter.charge("fs_call_us", 2)
        assert meter.total_charged_us() == pytest.approx(12.0)

    def test_reset_counters_keeps_clock(self):
        clock = SimClock()
        meter = CostMeter(clock, CostModel(ld_call_us=2.0))
        meter.charge("ld_call_us")
        meter.reset_counters()
        assert meter.counters == {}
        assert clock.now_us == 2.0

    def test_bad_lanes_and_negative_advances_rejected(self):
        clock = SimClock(start_us=10.0)
        meter = CostMeter(clock, CostModel())
        with pytest.raises(ValueError):
            meter.charge("ld_call_us", lanes=0)
        with pytest.raises(ValueError):
            meter.charge("ld_call_us", count=-1)
        assert clock.now_us == 10.0
        assert meter.counters == {}

    @pytest.mark.parametrize("count", [float("nan"), float("inf")])
    def test_non_finite_count_rejected(self, count):
        clock = SimClock(start_us=10.0)
        meter = CostMeter(clock, CostModel())
        with pytest.raises(ValueError):
            meter.charge("chain_hop_us", count)
        assert clock.now_us == 10.0
        assert meter.counters == {}

    def test_a_category_appears_once_charged(self):
        """Even with a count of zero; never before, and in the order
        first charged."""
        meter = CostMeter(SimClock(), CostModel(ld_call_us=2.0))
        assert meter.counters == {} and meter.charged_us == {}
        meter.charge("fs_call_us", 0)
        meter.charge("ld_call_us")
        meter.charge("ld_call_us", 2, lanes=2)
        assert list(meter.counters.items()) == [
            ("fs_call_us", 0),
            ("ld_call_us", 3),
        ]
        assert list(meter.charged_us.items()) == [
            ("fs_call_us", 0.0),
            ("ld_call_us", 4.0),
        ]

    def test_views_are_read_only(self):
        meter = CostMeter(SimClock(), CostModel())
        meter.charge("ld_call_us")
        meter.counters["ld_call_us"] = 99
        meter.charged_us.clear()
        assert meter.counters == {"ld_call_us": 1}
        assert meter.charged_us == {"ld_call_us": 2.0}
        with pytest.raises(AttributeError):
            meter.counters = {}

    def test_reset_counters_forgets_categories(self):
        meter = CostMeter(SimClock(), CostModel())
        meter.charge("ld_call_us")
        meter.reset_counters()
        assert meter.charged_us == {} and meter.total_charged_us() == 0
        meter.charge("chain_hop_us")
        assert meter.counters == {"chain_hop_us": 1}

    def test_matches_the_model_charge_by_charge(self):
        """Every charge leaves the clock, the counters and the charged
        microseconds bit-identical (``==`` on floats) to applying
        ``clock += unit * count / lanes`` step by step.  Each charge
        is also made on a clock at zero, where a last-bit difference
        in one advance cannot be rounded away by the running sum."""
        import random

        model = CostModel().scaled(1.37)
        names = [field.name for field in dataclasses.fields(model)]
        rng = random.Random(1996)
        clock = SimClock(start_us=123.456)
        meter = CostMeter(clock, model)
        now, counters, charged = 123.456, {}, {}
        for _ in range(4000):
            category = rng.choice(names)
            count = rng.choice(
                [1, 1, 1, 2, rng.randrange(1, 200), rng.random() * 64]
            )
            if category == "crc_kb_us":
                count = rng.randrange(1, 4096) / 1024
            lanes = rng.choice([1, 1, 1, 2, 3, rng.randrange(1, 9)])
            meter.charge(category, count, lanes)
            elapsed = getattr(model, category) * count / lanes
            now += elapsed
            counters[category] = counters.get(category, 0) + count
            charged[category] = charged.get(category, 0.0) + elapsed
            assert clock.now_us == now
            alone = SimClock()
            CostMeter(alone, model).charge(category, count, lanes)
            assert alone.now_us == elapsed
        assert meter.counters == counters
        assert meter.charged_us == charged
