"""Event-level scheduler behavior: golden timelines, invariants, oracles."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdmafl import (
    ConfigError,
    SgdLearner,
    SystemConfig,
    TimelineEvent,
    idfl_staleness,
    make_quadratic,
    optimal_intentional_delay,
    run_timeline,
)
from util import divisors


def uplinks(result):
    return [(e.slot, e.device_id, e.round_index) for e in result.events if e.kind == "uplink"]


def downlinks(result):
    return [(e.slot, e.round_index) for e in result.events if e.kind == "downlink"]


def staleness_of(result, round_index):
    """Sorted staleness values of one round's transmitters."""
    return sorted(rec.staleness for rec in result.staleness_records
                  if rec.round_index == round_index)


class TestGoldenTimeline:
    """Six devices, pairs of transmitters, two-slot compute, one-slot transfers."""

    @pytest.fixture()
    def result(self):
        cfg = SystemConfig(6, 2, compute_slots=2, horizon=1000)
        return run_timeline(cfg, max_rounds=3)

    def test_uplink_slots_and_devices(self, result):
        assert uplinks(result) == [
            (2, 1, 0), (3, 2, 0),
            (5, 3, 1), (6, 4, 1),
            (8, 5, 2), (9, 6, 2),
        ]

    def test_downlink_slots(self, result):
        assert downlinks(result) == [(4, 0), (7, 1), (10, 2)]

    def test_transmitters_resume_after_broadcast(self, result):
        starts = [(e.slot, e.device_id) for e in result.events
                  if e.kind == "compute_start" and e.round_index == 1]
        assert starts == [(5, 1), (5, 2)]

    def test_staleness_ramp(self, result):
        assert staleness_of(result, 0) == [0, 0]
        assert staleness_of(result, 1) == [1, 1]
        assert staleness_of(result, 2) == [2, 2]

    def test_full_trace_golden(self, result):
        expected = []
        for dev in range(1, 7):
            expected += [(0, "compute_start", dev, 0), (1, "compute_done", dev, 0)]
        expected += [
            (2, "uplink", 1, 0), (3, "uplink", 2, 0), (4, "downlink", 0, 0),
            (5, "compute_start", 1, 1), (6, "compute_done", 1, 1),
            (5, "compute_start", 2, 1), (6, "compute_done", 2, 1),
            (5, "uplink", 3, 1), (6, "uplink", 4, 1), (7, "downlink", 0, 1),
            (8, "compute_start", 3, 2), (9, "compute_done", 3, 2),
            (8, "compute_start", 4, 2), (9, "compute_done", 4, 2),
            (8, "uplink", 5, 2), (9, "uplink", 6, 2), (10, "downlink", 0, 2),
            (11, "compute_start", 5, 3), (12, "compute_done", 5, 3),
            (11, "compute_start", 6, 3), (12, "compute_done", 6, 3),
        ]
        assert result.events == [TimelineEvent(*e) for e in expected]


class TestComputeBoundSchedule:
    """Two groups whose compute dominates the channel: the channel idles."""

    @pytest.fixture()
    def result(self):
        cfg = SystemConfig(4, 2, compute_slots=50, horizon=10**6)
        return run_timeline(cfg, max_rounds=12)

    def test_waits_for_recomputation(self, result):
        assert uplinks(result)[:8] == [
            (50, 1, 0), (51, 2, 0),
            (53, 3, 1), (54, 4, 1),
            (103, 1, 2), (104, 2, 2),
            (106, 3, 3), (107, 4, 3),
        ]

    def test_steady_duration_is_exact_average(self, result):
        ends, g = result.downlink_end_slots, result.config.num_groups
        # Mean round length over the last two full rotations.
        assert Fraction(ends[-1] - ends[-1 - 2 * g], 2 * g) == Fraction(53, 2)
        assert result.config.tau_asyn == Fraction(53, 2)


class TestTableRoundCounts:
    @pytest.mark.parametrize("s,expect", [(1, 24976), (50, 980), (100, 332)])
    def test_long_horizon_counts(self, s, expect):
        cfg = SystemConfig(100, s, compute_slots=50, horizon=50000)
        result = run_timeline(cfg, record_events=False, metrics_every=0)
        assert result.completed_rounds == expect


def assert_exclusive(result, comp, r):
    """No two transfers share a slot, and no device computes while it transfers."""
    transfers = []
    compute: dict[int, list[tuple[int, int]]] = {}
    for e in result.events:
        if e.kind in ("uplink", "downlink"):
            transfers.append((e.slot, e.slot + r - 1, e.device_id))
        elif e.kind == "compute_start":
            compute.setdefault(e.device_id, []).append((e.slot, e.slot + comp - 1))
    transfers.sort()
    for (a0, a1, _), (b0, b1, _) in zip(transfers, transfers[1:]):
        assert a1 < b0, "two transfers overlap on the shared channel"
    for start, end, dev in transfers:
        for c0, c1 in compute.get(dev, []):
            assert end < c0 or c1 < start, "device computes while transferring"


GRID = [
    (n, s, comp, r)
    for n in (4, 6, 20)
    for s in divisors(n)
    for comp in (1, 4, 50)
    for r in (1, 5)
]


class TestScheduleInvariants:
    @pytest.mark.parametrize("n,s,comp,r", GRID)
    def test_channel_and_device_exclusivity(self, n, s, comp, r):
        cfg = SystemConfig(n, s, comp, r, horizon=10**7)
        g = cfg.num_groups
        assert_exclusive(run_timeline(cfg, max_rounds=3 * g + 5), comp, r)

    @pytest.mark.parametrize("n,s,comp,r", GRID)
    def test_staleness_identity_and_closed_form(self, n, s, comp, r):
        cfg = SystemConfig(n, s, comp, r, horizon=10**7)
        g = cfg.num_groups
        result = run_timeline(cfg, max_rounds=3 * g + 5, record_events=False)
        for rec in result.staleness_records:
            assert rec.staleness == idfl_staleness(rec.round_index, cfg)

    @pytest.mark.parametrize("n,s,comp,r", GRID)
    def test_steady_average_matches_formula(self, n, s, comp, r):
        cfg = SystemConfig(n, s, comp, r, horizon=10**7)
        g = cfg.num_groups
        result = run_timeline(cfg, max_rounds=11 * g + 1, record_events=False)
        ends = result.downlink_end_slots
        assert Fraction(ends[-1] - ends[-1 - 10 * g], 10 * g) == cfg.tau_asyn

    def test_determinism(self):
        cfg = SystemConfig(6, 2, compute_slots=4, horizon=4000)
        a = run_timeline(cfg)
        b = run_timeline(cfg)
        assert a.events == b.events
        assert a.staleness_records == b.staleness_records


@st.composite
def schedules(draw, deferred=True):
    """A random system of equal groups, with every valid deferral (or none)."""
    n = draw(st.integers(1, 30))
    s = draw(st.sampled_from(divisors(n)))
    g = n // s
    alpha = draw(st.integers(0, g - 1)) if deferred else 0
    cfg = SystemConfig(n, s, draw(st.integers(1, 60)), draw(st.integers(1, 5)),
                       horizon=10**7, intentional_delay=alpha)
    return cfg, draw(st.integers(1, 3 * g + 5))


def recurrence_clocks(cfg):
    """E_0, E_1, ...: the clock after each round, from the max-plus recurrence.

    E_k = max(E_{k-1}, E_{k-m} + tau_comp) + tau_comm with E_j = 0 for j < 0
    and m = G - alpha; the downlink end of round k is E_k - 1.
    """
    m = cfg.num_groups - cfg.intentional_delay
    clocks = []
    while True:
        k = len(clocks)
        prev = clocks[k - 1] if k >= 1 else 0
        back = clocks[k - m] if k >= m else 0
        clocks.append(max(prev, back + cfg.compute_slots) + cfg.tau_comm)
        yield clocks[-1]


def launched_ends(cfg):
    """Downlink ends of the launched rounds: round 0, and round k + 1 iff E_k <= T."""
    ends = []
    for clock in recurrence_clocks(cfg):
        ends.append(clock - 1)
        if clock > cfg.horizon:
            return ends


@st.composite
def horizons(draw):
    """A random system of equal groups and deferral, with a horizon of up to 2,000 slots."""
    cfg, _ = draw(schedules())
    return replace(cfg, horizon=draw(st.integers(1, 2000)))


class TestScheduleProperties:
    @settings(max_examples=300, deadline=None)
    @given(horizons())
    def test_law_matches_the_recurrence(self, cfg):
        """The closed-form ends and count equal the max-plus recurrence, for every alpha."""
        oracle = launched_ends(cfg)
        assert cfg.downlink_ends(len(oracle)) == oracle
        more = len(oracle) + 7  # the law holds past the horizon too
        assert cfg.downlink_ends(more) == [c - 1 for c in islice(recurrence_clocks(cfg), more)]
        if cfg.compute_slots + cfg.tau_comm - 1 >= cfg.horizon:
            assert len(oracle) == 1
            with pytest.raises(ConfigError, match="no training round completes"):
                cfg.rounds_exact()
            with pytest.raises(ConfigError, match="no training round completes"):
                run_timeline(cfg, record_events=False, metrics_every=0)
        else:
            assert cfg.rounds_exact() == len(oracle)
            result = run_timeline(cfg, record_events=False, metrics_every=0)
            assert result.completed_rounds == len(oracle)
            assert result.downlink_end_slots == oracle

    @settings(max_examples=300, deadline=None)
    @given(schedules())
    def test_transmitters_are_the_oldest_ready_updates(self, case):
        """Replay the events: each round uploads the S oldest finished updates.

        The ready set of round k holds every finished update not yet uploaded
        whose compute-done slot precedes round k's first upload slot. Oldest
        means sorted by (model round, compute-done slot, device index).
        """
        cfg, rounds = case
        s, r = cfg.group_size, cfg.slots_per_transfer
        result = run_timeline(cfg, max_rounds=rounds)
        assert_exclusive(result, cfg.compute_slots, r)

        finished = sorted((e.slot, e.device_id, e.round_index)
                          for e in result.events if e.kind == "compute_done")
        uploads: dict[int, list[tuple[int, int]]] = {}
        for e in result.events:
            if e.kind == "uplink":
                uploads.setdefault(e.round_index, []).append((e.slot, e.device_id))
        assert len(result.transmitter_sets) == len(uploads) == rounds

        ready: dict[int, tuple[int, int]] = {}  # device -> (model round, done slot)
        i = 0
        for k, chosen in enumerate(result.transmitter_sets):
            slots = sorted(uploads[k])
            assert [slot for slot, _ in slots] == [slots[0][0] + j * r for j in range(s)]
            assert tuple(dev for _, dev in slots) == chosen
            while i < len(finished) and finished[i][0] < slots[0][0]:
                done, dev, model_round = finished[i]
                assert dev not in ready, "device holds two finished updates"
                ready[dev] = (model_round, done)
                i += 1
            oldest = sorted(ready, key=lambda d: (ready[d][0], ready[d][1], d))[:s]
            assert list(chosen) == oldest
            records = result.staleness_records[k * s:(k + 1) * s]
            assert [(rec.round_index, rec.device_id, rec.staleness) for rec in records] == [
                (k, dev, k - ready[dev][0]) for dev in chosen]
            for dev in chosen:
                del ready[dev]

    @settings(max_examples=300, deadline=None)
    @given(schedules())
    def test_transmitters_rotate_through_the_groups(self, case):
        """Round k uploads group k mod G, whose S updates share one staleness."""
        cfg, rounds = case
        s, g = cfg.group_size, cfg.num_groups
        result = run_timeline(cfg, max_rounds=rounds, record_events=False)
        for k, chosen in enumerate(result.transmitter_sets):
            assert chosen == tuple(range((k % g) * s + 1, (k % g + 1) * s + 1))
            records = result.staleness_records[k * s:(k + 1) * s]
            assert len({rec.staleness for rec in records}) == 1

    @settings(max_examples=300, deadline=None)
    @given(schedules(deferred=False))
    def test_optimal_delay_moves_no_round(self, case):
        """Proposition 1 as an equality: alpha* keeps every downlink and transmitter."""
        cfg, rounds = case
        alpha = optimal_intentional_delay(cfg).alpha
        plain = run_timeline(cfg, max_rounds=rounds, record_events=False)
        deferred = run_timeline(replace(cfg, intentional_delay=alpha), max_rounds=rounds,
                                record_events=False)
        assert deferred.downlink_end_slots == plain.downlink_end_slots
        assert deferred.transmitter_sets == plain.transmitter_sets
        g = cfg.num_groups
        if alpha + 1 <= g - 1:  # alpha* is the largest free deferral
            later = replace(cfg, intentional_delay=alpha + 1)
            assert later.downlink_ends(2 * g + 2) != cfg.downlink_ends(2 * g + 2)


class TestSynchronousDegenerate:
    def test_full_group_staleness_all_zero(self):
        cfg = SystemConfig(8, 8, compute_slots=5, horizon=5000)
        result = run_timeline(cfg, record_events=False)
        assert result.completed_rounds > 10
        assert all(rec.staleness == 0 for rec in result.staleness_records)


class TestDeferredDownlink:
    def test_warmup_golden_timeline(self):
        # Four devices, singleton groups, two-slot compute, deferral of 2:
        # groups 1..2 compute immediately, groups 3 and 4 receive their first
        # model at the end of rounds 0 and 1 respectively.
        cfg = SystemConfig(4, 1, compute_slots=2, horizon=10**6,
                           intentional_delay=2)
        result = run_timeline(cfg, max_rounds=5)
        assert uplinks(result) == [
            (2, 1, 0), (4, 2, 1), (6, 3, 2), (8, 4, 3), (10, 1, 4),
        ]
        assert downlinks(result) == [(3, 0), (5, 1), (7, 2), (9, 3), (11, 4)]
        starts = [(e.slot, e.device_id, e.round_index) for e in result.events
                  if e.kind == "compute_start"]
        assert starts == [
            (0, 1, 0), (0, 2, 0),
            (4, 3, 1), (6, 4, 2), (8, 1, 3), (10, 2, 4), (12, 3, 5),
        ]

    def test_staleness_matches_deferred_law(self):
        for n, s, comp in [(4, 1, 2), (6, 2, 4), (20, 5, 7), (100, 1, 50)]:
            base = SystemConfig(n, s, comp, horizon=10**7)
            alpha = optimal_intentional_delay(base).alpha
            cfg = SystemConfig(n, s, comp, horizon=10**7,
                               intentional_delay=alpha)
            g = cfg.num_groups
            result = run_timeline(cfg, max_rounds=3 * g + 5, record_events=False)
            for rec in result.staleness_records:
                assert rec.staleness == idfl_staleness(rec.round_index, cfg), (
                    n, s, comp, alpha, rec)

    def test_optimal_delay_keeps_duration_and_one_more_slows(self):
        cfg0 = SystemConfig(4, 1, compute_slots=2, horizon=10**6)
        alpha = optimal_intentional_delay(cfg0).alpha
        assert alpha == 2

        def steady(a):
            cfg = SystemConfig(4, 1, compute_slots=2, horizon=10**6,
                               intentional_delay=a)
            ends = run_timeline(cfg, max_rounds=40, record_events=False).downlink_end_slots
            return Fraction(ends[-1] - ends[-9], 8)  # the last two rotations of G = 4

        assert steady(alpha) == steady(0) == Fraction(2)
        assert steady(alpha + 1) > steady(0)

class CountingLearner(SgdLearner):
    """An SgdLearner that counts its local updates and metric evaluations."""

    def __post_init__(self):
        super().__post_init__()
        self.calls = Counter()

    def local_update(self, device_id, model, round_index):
        self.calls["local_update"] += 1
        return super().local_update(device_id, model, round_index)

    def round_metrics(self, model):
        self.calls["round_metrics"] += 1
        return super().round_metrics(model)


def counting_learner(cfg):
    task = make_quadratic(cfg.num_devices, 3, 1.0, np.random.default_rng(4),
                          samples_per_device=6, sample_noise=0.3)
    return CountingLearner(task, cfg, seed=2, initial=np.ones(3))


class TestHorizonAccounting:
    def test_no_round_completes_is_a_config_error(self):
        cfg = SystemConfig(4, 2, compute_slots=50, horizon=10)
        with pytest.raises(ConfigError, match="no training round completes"):
            run_timeline(cfg)

    def test_no_round_completes_calls_no_learner(self):
        cfg = SystemConfig(4, 2, compute_slots=50, horizon=52)  # 52 < 50 + 3
        learner = counting_learner(cfg)
        with pytest.raises(ConfigError, match="no training round completes"):
            run_timeline(cfg, learner)
        assert learner.calls == Counter()

    def test_boundary_round_still_launches(self):
        # A round whose start coincides with budget exhaustion is still run.
        cfg = SystemConfig(2, 2, compute_slots=2, horizon=5)
        result = run_timeline(cfg)
        assert result.completed_rounds == 2


class TestLearnerDriving:
    # Six devices in pairs with two-slot compute: G = 3 and alpha* = 1. In 60
    # slots the rotation completes 20 rounds, and 13 once alpha > alpha*
    # lengthens them.
    @pytest.mark.parametrize("alpha,rounds", [(0, 20), (1, 20), (2, 13)])
    @pytest.mark.parametrize("max_rounds", [None, 7])
    def test_every_computed_update_is_uploaded(self, alpha, rounds, max_rounds):
        cfg = SystemConfig(6, 2, compute_slots=2, horizon=60, intentional_delay=alpha)
        assert optimal_intentional_delay(replace(cfg, intentional_delay=0)).alpha == 1
        learner = counting_learner(cfg)
        result = run_timeline(cfg, learner, max_rounds=max_rounds, record_events=False)
        assert result.completed_rounds == (rounds if max_rounds is None else 7)
        assert learner.calls == {"local_update": 2 * result.completed_rounds,
                                 "round_metrics": result.completed_rounds}


    def test_learner_on_another_config_is_rejected(self):
        # Without the check this trained 20 rounds with the learner's B, H and eta.
        cfg = SystemConfig(6, 2, compute_slots=2, horizon=60, batch_size=2)
        other = replace(cfg, batch_size=8, local_steps=3, step_size=0.5)
        task = make_quadratic(6, 3, 1.0, np.random.default_rng(4), samples_per_device=8)
        learner = CountingLearner(task, other, seed=2)
        with pytest.raises(ConfigError, match="another SystemConfig"):
            run_timeline(cfg, learner, record_events=False)
        assert learner.calls == Counter()
        assert run_timeline(other, learner, record_events=False).completed_rounds == 20


class TestMeasuredStaleness:
    def test_multiset_and_range(self):
        cfg = SystemConfig(6, 2, compute_slots=2, horizon=500)
        result = run_timeline(cfg, max_rounds=10)
        assert staleness_of(result, 0) == [0, 0]
        assert staleness_of(result, 9) == [2, 2]
        # The records cover exactly the ten simulated rounds, S = 2 each.
        assert [rec.round_index for rec in result.staleness_records] == \
            [k for k in range(10) for _ in range(2)]
