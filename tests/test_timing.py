"""Closed-form slot algebra: costs, staleness law, optimal deferral."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdmafl import (
    ConfigError,
    SystemConfig,
    idfl_staleness,
    optimal_intentional_delay,
)
from tdmafl.cli import as_fraction, build_system_config
from util import divisors


class TestTauComp:
    @pytest.mark.parametrize(
        "q,h,b,expect",
        [(6.4, 5, 64, 50), (128, 8, 64, 4), (1, 1, 1, 1), ("32/5", 5, 64, 50)],
    )
    def test_values(self, q, h, b, expect):
        cfg = build_system_config({"num_devices": 1, "group_size": 1, "samples_per_slot": q,
                                   "local_steps": h, "batch_size": b})
        assert cfg.compute_slots == expect

    def test_float_rate_is_exact(self):
        assert as_fraction("samples_per_slot", 6.4) == Fraction(32, 5)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 200), st.integers(1, 10**6), st.integers(1, 10**6))
    def test_rate_is_the_ceiling_of_work_over_rate(self, h, b, p, d):
        """compute_slots = ceil(H*B/q) for q = p/d, by integer arithmetic alone."""
        cfg = build_system_config({"num_devices": 1, "group_size": 1, "local_steps": h,
                                   "batch_size": b, "samples_per_slot": f"{p}/{d}"})
        assert cfg.compute_slots == -(-h * b * d // p)

    @pytest.mark.parametrize("q,h,b", [(0, 1, 1), (-1, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_rejects_nonpositive(self, q, h, b):
        with pytest.raises(ConfigError):
            build_system_config({"num_devices": 1, "group_size": 1, "samples_per_slot": q,
                                 "local_steps": h, "batch_size": b})


class TestTauComm:
    @pytest.mark.parametrize("r,s,expect", [(1, 5, 6), (1, 100, 101), (5, 1, 10)])
    def test_values(self, r, s, expect):
        assert SystemConfig(num_devices=s, group_size=s, compute_slots=1,
                            slots_per_transfer=r).tau_comm == expect

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_devices=1, group_size=1, compute_slots=1, slots_per_transfer=0)
        with pytest.raises(ConfigError):
            SystemConfig(num_devices=1, group_size=0, compute_slots=1)


class TestTauAsyn:
    def test_comm_bound_branch(self):
        cfg = SystemConfig(100, 1, compute_slots=50)
        assert cfg.round_length == Fraction(2)

    def test_single_group(self):
        cfg = SystemConfig(100, 100, compute_slots=50)
        assert cfg.round_length == Fraction(151)

    def test_two_groups_comm_bound(self):
        cfg = SystemConfig(20, 10, compute_slots=4)
        assert cfg.round_length == Fraction(11)

    def test_compute_bound_branch_is_fractional(self):
        cfg = SystemConfig(4, 2, compute_slots=50)
        assert cfg.round_length == Fraction(53, 2)

    def test_never_exceeds_synchronous_sum(self):
        for n in (4, 6, 20):
            for s in divisors(n):
                for comp in (1, 4, 50):
                    for r in (1, 5):
                        cfg = SystemConfig(n, s, comp, r)
                        assert cfg.round_length <= cfg.compute_slots + cfg.tau_comm


class TestRoundsClosedForm:
    @pytest.mark.parametrize(
        "s,expect",
        [(1, 25000), (5, 8333), (10, 4545), (25, 1923), (50, 980), (100, 331)],
    )
    def test_slot_budget_division(self, s, expect):
        # floor(T / tau_asyn); the event-sim count is tracked separately.
        cfg = SystemConfig(100, s, compute_slots=50, horizon=50000)
        assert cfg.rounds_closed_form() == expect

    def test_raises_above_alpha_star(self):
        # N = 4 singleton groups with 2-slot compute: alpha* = 2.
        cfg = SystemConfig(4, 1, compute_slots=2, horizon=400, intentional_delay=2)
        assert optimal_intentional_delay(cfg) == 2
        assert cfg.rounds_closed_form() == 200
        with pytest.raises(ConfigError, match="alpha\\* = 2"):
            replace(cfg, intentional_delay=3).rounds_closed_form()


class TestStalenessLaw:
    def test_first_round_is_fresh(self):
        cfg = SystemConfig(num_devices=6, group_size=2, compute_slots=1)
        assert idfl_staleness(0, cfg) == 0

    def test_ramp_then_plateau(self):
        cfg = SystemConfig(num_devices=6, group_size=2, compute_slots=1)
        assert [idfl_staleness(k, cfg) for k in (1, 2, 5)] == [1, 2, 2]

    def test_full_group_is_synchronous(self):
        cfg = SystemConfig(num_devices=100, group_size=100, compute_slots=1)
        assert idfl_staleness(7, cfg) == 0

    def test_rejects_negative_round(self):
        cfg = SystemConfig(num_devices=6, group_size=2, compute_slots=1)
        with pytest.raises(ConfigError):
            idfl_staleness(-1, cfg)

    def test_monotone_in_group_size(self):
        # For a fixed device count, larger groups never increase the plateau.
        for n in (4, 6, 20, 100):
            plateaus = []
            for s in divisors(n):
                cfg = SystemConfig(num_devices=n, group_size=s, compute_slots=1)
                plateaus.append(idfl_staleness(cfg.num_groups, cfg))
            assert all(b <= a for a, b in zip(plateaus, plateaus[1:]))

    def test_idfl_law_reduces_at_zero_delay(self):
        # Without deferral: the round index while the initial model is being
        # consumed, then the G - 1 plateau of plain rotation.
        for n, s in [(6, 2), (6, 6), (20, 1), (20, 4)]:
            cfg = SystemConfig(num_devices=n, group_size=s, compute_slots=1)
            g = cfg.num_groups
            rounds = range(2 * g + 2)
            assert [idfl_staleness(k, cfg) for k in rounds] == [min(k, g - 1) for k in rounds]

    def test_idfl_plateau(self):
        cfg = SystemConfig(100, 1, compute_slots=50, intentional_delay=74)
        assert idfl_staleness(1000, cfg) == 25


class TestOptimalDelay:
    @pytest.mark.parametrize(
        "comp,alpha,d",
        [(50, 74, 25), (10, 94, 5), (2, 98, 1), (300, 0, 99)],
    )
    def test_worked_examples(self, comp, alpha, d):
        cfg = SystemConfig(100, 1, compute_slots=comp)
        assert optimal_intentional_delay(cfg) == alpha
        assert cfg.num_groups - 1 - alpha == d

    def test_requires_divisibility(self):
        with pytest.raises(ConfigError):
            SystemConfig(5, 2, compute_slots=4)

    def test_bracketing_inequality(self):
        # In the deferrable branch, d* satisfies the strict/weak bracket and
        # d* - 1 fails the weak side.
        for n in (4, 6, 20, 100):
            for s in divisors(n):
                g = n // s
                for comp in (1, 2, 4, 7, 50):
                    for r in (1, 5):
                        cfg = SystemConfig(n, s, comp, r)
                        alpha = optimal_intentional_delay(cfg)
                        d = g - 1 - alpha
                        assert type(alpha) is int and 0 <= alpha <= g - 1
                        x = Fraction(comp, r)
                        if x < (g - 1) * (s + 1):
                            assert (d - 1) * (s + 1) < x <= d * (s + 1)
                            if d >= 1:
                                assert not (x <= (d - 1) * (s + 1))
                        else:
                            assert alpha == 0 and d == g - 1


class TestConfigValidation:
    def test_group_larger_than_population(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_devices=3, group_size=4, compute_slots=1)

    @pytest.mark.parametrize("alpha", [0, 1])
    def test_groups_must_be_equal(self, alpha):
        with pytest.raises(ConfigError, match="must divide"):
            SystemConfig(num_devices=5, group_size=2, compute_slots=1, intentional_delay=alpha)

    def test_delay_bounded_by_groups(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_devices=4, group_size=2, compute_slots=1, intentional_delay=2)

    def test_rate_round_trips_compute_cost(self):
        # The rate q = H*B/compute_slots gives back exactly that compute cost.
        for comp in (1, 3, 7, 50):
            cfg = build_system_config({"num_devices": 6, "group_size": 2, "local_steps": 5,
                                       "batch_size": 64, "samples_per_slot": f"{5 * 64}/{comp}"})
            assert cfg.compute_slots == comp

    @pytest.mark.parametrize("field,value", [
        ("num_devices", 0),
        ("slots_per_transfer", 0),
        ("samples_per_slot", 0),
        ("local_steps", 0),
        ("batch_size", 0),
        ("step_size", 0.0),
        ("horizon", 0),
        ("intentional_delay", -1),
        ("local_steps", 1.5),
        ("horizon", True),
        ("samples_per_slot", True),
        ("compute_slots", 0),
        ("compute_slots", True),
    ])
    def test_rejects_bad_field(self, field, value):
        system = {"num_devices": 4, "group_size": 2, field: value}
        with pytest.raises(ConfigError):
            if field == "samples_per_slot":  # a rate is read only from a spec
                build_system_config(system)
            else:
                SystemConfig(**{"compute_slots": 1, **system})
