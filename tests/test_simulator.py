"""Scheduler behavior on the round table: golden timelines, invariants, oracles.

Slot-level checks read ``util.slot_trace``, the actions that the table's
downlink ends and transmitter sets imply.
"""

import tracemalloc
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
    SoftmaxRegressionTask,
    SystemConfig,
    idfl_staleness,
    make_quadratic,
    optimal_intentional_delay,
    run_timeline,
)
from tdmafl import simulator
from tdmafl.cli import write_metrics_csv
from tdmafl.simulator import RunMetrics, StalenessRecord, expected_metrics
from descent_probe import descent_lhs
from util import divisors, slot_trace


def uplinks(result):
    return [(slot, dev, k) for slot, kind, dev, k in slot_trace(result) if kind == "uplink"]


def downlinks(result):
    return [(slot, k) for slot, kind, _, k in slot_trace(result) if kind == "downlink"]


def compute_starts(result):
    return [(slot, dev, k) for slot, kind, dev, k in slot_trace(result)
            if kind == "compute_start"]


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
        assert result.transmitter_sets == [(1, 2), (3, 4), (5, 6)]
        assert uplinks(result) == [
            (2, 1, 0), (3, 2, 0),
            (5, 3, 1), (6, 4, 1),
            (8, 5, 2), (9, 6, 2),
        ]

    def test_downlink_slots(self, result):
        assert result.downlink_end_slots == [4, 7, 10]
        assert downlinks(result) == [(4, 0), (7, 1), (10, 2)]

    def test_transmitters_resume_after_broadcast(self, result):
        assert result.launch_clocks == [0, 5, 8]
        starts = [(slot, dev) for slot, dev, k in compute_starts(result) if k == 1]
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
        assert slot_trace(result) == expected


class TestComputeBoundSchedule:
    """Two groups whose compute dominates the channel: the channel idles."""

    @pytest.fixture()
    def result(self):
        cfg = SystemConfig(4, 2, compute_slots=50, horizon=10**6)
        return run_timeline(cfg, max_rounds=12)

    def test_waits_for_recomputation(self, result):
        assert result.downlink_end_slots[:4] == [52, 55, 105, 108]
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
        assert result.config.round_length == Fraction(53, 2)


class TestTableRoundCounts:
    @pytest.mark.parametrize("s,expect", [(1, 24976), (50, 980), (100, 332)])
    def test_long_horizon_counts(self, s, expect):
        cfg = SystemConfig(100, s, compute_slots=50, horizon=50000)
        result = run_timeline(cfg, metrics_every=0)
        assert result.completed_rounds == expect


def assert_exclusive(result, comp, r):
    """No two transfers share a slot, and no device computes while it transfers."""
    transfers = []
    compute: dict[int, list[tuple[int, int]]] = {}
    for slot, kind, dev, _ in slot_trace(result):
        if kind in ("uplink", "downlink"):
            transfers.append((slot, slot + r - 1, dev))
        elif kind == "compute_start":
            compute.setdefault(dev, []).append((slot, slot + comp - 1))
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
        result = run_timeline(cfg, max_rounds=3 * g + 5)
        for rec in result.staleness_records:
            assert rec.staleness == idfl_staleness(rec.round_index, cfg)

    @pytest.mark.parametrize("n,s,comp,r", GRID)
    def test_steady_average_matches_formula(self, n, s, comp, r):
        cfg = SystemConfig(n, s, comp, r, horizon=10**7)
        g = cfg.num_groups
        result = run_timeline(cfg, max_rounds=11 * g + 1)
        ends = result.downlink_end_slots
        assert Fraction(ends[-1] - ends[-1 - 10 * g], 10 * g) == cfg.round_length

    def test_determinism(self):
        cfg = SystemConfig(6, 2, compute_slots=4, horizon=4000)
        a = run_timeline(cfg)
        b = run_timeline(cfg)
        assert a.downlink_end_slots == b.downlink_end_slots
        assert a.transmitter_sets == b.transmitter_sets
        assert a.launch_clocks == b.launch_clocks
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
                run_timeline(cfg, metrics_every=0)
        else:
            assert cfg.rounds_exact() == len(oracle)
            result = run_timeline(cfg, metrics_every=0)
            assert result.completed_rounds == len(oracle)
            assert result.downlink_end_slots == oracle
            # The metrics hold the law's staleness vector and NaN loss columns, as float64.
            metrics, rounds = result.metrics, len(oracle)
            assert metrics.rounds == range(rounds)
            assert metrics.staleness.dtype == np.float64
            assert metrics.staleness.tolist() == [idfl_staleness(k, cfg) for k in range(rounds)]
            for column in (metrics.loss, metrics.grad_norm_sq):
                assert column.dtype == np.float64 and column.shape == (rounds,)
                assert np.isnan(column).all()

    def test_law_is_exact_past_int64(self):
        """Slots past 2**63 stay exact ints; Delta > 0, so every block ends in an idle gap."""
        cfg = SystemConfig(4, 1, compute_slots=3 * 2**63 + 5, slots_per_transfer=2**62)
        m, tau_comm, delta = 4, 2**63, 5
        first = cfg.compute_slots + tau_comm - 1
        for rounds in (0, 1, m - 1, m, m + 1, 3 * m + 2):
            ends = cfg.downlink_ends(rounds)
            assert ends == [first + k * tau_comm + k // m * delta for k in range(rounds)]
            assert all(type(end) is int for end in ends)
        assert cfg.downlink_ends(3 * m + 2)[-1] > 2**65

    @settings(max_examples=300, deadline=None)
    @given(schedules())
    def test_transmitters_are_the_oldest_ready_updates(self, case):
        """Replay the slot trace: each round uploads the S oldest finished updates.

        The ready set of round k holds every finished update not yet uploaded
        whose compute-done slot precedes round k's first upload slot. Oldest
        means sorted by (model round, compute-done slot, device index).
        """
        cfg, rounds = case
        s, r = cfg.group_size, cfg.slots_per_transfer
        result = run_timeline(cfg, max_rounds=rounds)
        assert_exclusive(result, cfg.compute_slots, r)

        trace = slot_trace(result)
        finished = sorted((slot, dev, k) for slot, kind, dev, k in trace
                          if kind == "compute_done")
        uploads: dict[int, list[tuple[int, int]]] = {}
        for slot, kind, dev, k in trace:
            if kind == "uplink":
                uploads.setdefault(k, []).append((slot, dev))
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
        result = run_timeline(cfg, max_rounds=rounds)
        for k, chosen in enumerate(result.transmitter_sets):
            assert chosen == tuple(range((k % g) * s + 1, (k % g + 1) * s + 1))
            records = result.staleness_records[k * s:(k + 1) * s]
            assert len({rec.staleness for rec in records}) == 1

    @settings(max_examples=300, deadline=None)
    @given(schedules(deferred=False))
    def test_optimal_delay_moves_no_round(self, case):
        """Proposition 1 as an equality: alpha* keeps every downlink and transmitter."""
        cfg, rounds = case
        alpha = optimal_intentional_delay(cfg)
        plain = run_timeline(cfg, max_rounds=rounds)
        deferred = run_timeline(replace(cfg, intentional_delay=alpha), max_rounds=rounds)
        assert deferred.downlink_end_slots == plain.downlink_end_slots
        assert deferred.transmitter_sets == plain.transmitter_sets
        g = cfg.num_groups
        if alpha + 1 <= g - 1:  # alpha* is the largest free deferral
            later = replace(cfg, intentional_delay=alpha + 1)
            assert later.downlink_ends(2 * g + 2) != cfg.downlink_ends(2 * g + 2)

    @settings(max_examples=300, deadline=None)
    @given(schedules())
    def test_round_length_is_the_steady_clock_advance(self, case):
        """m rounds advance the clock by m * round_length from any round on; tau_asyn up to alpha*.

        tau_asyn = max(G * tau_comm, tau_comp + tau_comm) / G is the round length at alpha = 0.
        """
        cfg, _ = case
        m = cfg.num_groups - cfg.intentional_delay
        ends = cfg.downlink_ends(3 * m)
        assert {Fraction(ends[k + m] - ends[k], m) for k in range(2 * m)} == {cfg.round_length}
        tau_asyn = replace(cfg, intentional_delay=0).round_length
        if cfg.intentional_delay <= optimal_intentional_delay(cfg):
            assert cfg.round_length == tau_asyn
        else:
            assert cfg.round_length > tau_asyn
        g = cfg.num_groups
        assert tau_asyn == Fraction(max(g * cfg.tau_comm, cfg.compute_slots + cfg.tau_comm), g)


@st.composite
def short_runs(draw):
    """A random system and deferral whose horizon completes at least one round."""
    cfg, _ = draw(schedules())
    low = cfg.compute_slots + cfg.tau_comm
    return replace(cfg, horizon=draw(st.integers(low, low + 400)))


SCHED_ASYNC = SystemConfig(1000, 10, compute_slots=500, horizon=40_000)


class TestDerivedColumns:
    """staleness_records and launch_clocks are views of the stored round table."""

    @settings(max_examples=150, deadline=None)
    @given(short_runs(), st.sampled_from([0, 1, None]), st.booleans())
    def test_views_equal_their_expansions(self, cfg, max_rounds, train):
        learner = None
        if train:
            task = make_quadratic(cfg.num_devices, 2, 1.0, np.random.default_rng(5),
                                  samples_per_device=3)
            learner = SgdLearner(task, cfg, seed=3)
        result = run_timeline(cfg, learner, max_rounds=max_rounds)
        rounds = cfg.rounds_exact() if max_rounds is None else max_rounds
        s, g = cfg.group_size, cfg.num_groups
        assert result.completed_rounds == rounds
        assert (result.final_model is not None) == train

        records = result.staleness_records
        assert records == [(k, dev, idfl_staleness(k, cfg)) for k in range(rounds)
                           for dev in range((k % g) * s + 1, (k % g + 1) * s + 1)]
        assert all(type(rec) is StalenessRecord and list(map(type, rec)) == [int] * 3
                   for rec in records)
        ends = result.downlink_end_slots
        clocks = result.launch_clocks
        assert clocks == [0, *(e + 1 for e in ends[:-1])][:rounds]
        assert result.staleness_records == records and result.launch_clocks == clocks
        with pytest.raises(AttributeError):
            result.staleness_records = records
        with pytest.raises(AttributeError):
            result.launch_clocks = clocks

    def test_timing_only_run_allocates_no_per_upload_records(self):
        # 3,591 rounds of S = 10; built eagerly, their 35,910 records peaked at
        # 3.7 MB, and a slot trace of 113,321 actions at 13.3 MB.
        result = run_timeline(SCHED_ASYNC)
        assert result.completed_rounds == 3591
        tracemalloc.start()
        try:
            run_timeline(SCHED_ASYNC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_timing_only_run_builds_its_columns_once(self):
        # Built as lists of Python floats and ints (staleness, loss, gradient
        # and rounds), these columns took the run to 366,800 B (CPython 3.11).
        run_timeline(SCHED_ASYNC)
        tracemalloc.start()
        try:
            run_timeline(SCHED_ASYNC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 300_000

    def test_metrics_csv_copies_no_column(self, tmp_path):
        # 362,786 B when the three float columns were lists; stacking their
        # arrays into one (3, K) copy read 456,414 B.
        metrics = run_timeline(SCHED_ASYNC).metrics
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, metrics)
        tracemalloc.start()
        try:
            write_metrics_csv(path, metrics)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 362_786

    def test_transmitter_column_is_built_on_first_read(self, monkeypatch):
        calls = Counter()
        select = simulator.select_transmitters

        def counting(ready, group_size):
            calls["select"] += 1
            return select(ready, group_size)

        monkeypatch.setattr(simulator, "select_transmitters", counting)
        result = run_timeline(SCHED_ASYNC)
        rounds, s, g = result.completed_rounds, SCHED_ASYNC.group_size, SCHED_ASYNC.num_groups
        assert calls["select"] == 0
        assert result.metrics.slots is result.downlink_end_slots
        sets = result.transmitter_sets
        assert calls["select"] == rounds == 3591
        assert result.transmitter_sets is sets and calls["select"] == rounds
        assert sets == [tuple(range((k % g) * s + 1, (k % g + 1) * s + 1)) for k in range(rounds)]


class TestSynchronousDegenerate:
    def test_full_group_staleness_all_zero(self):
        cfg = SystemConfig(8, 8, compute_slots=5, horizon=5000)
        result = run_timeline(cfg)
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
        assert result.downlink_end_slots == [3, 5, 7, 9, 11]
        assert result.transmitter_sets == [(1,), (2,), (3,), (4,), (1,)]
        assert downlinks(result) == [(3, 0), (5, 1), (7, 2), (9, 3), (11, 4)]
        assert compute_starts(result) == [
            (0, 1, 0), (0, 2, 0),
            (4, 3, 1), (6, 4, 2), (8, 1, 3), (10, 2, 4), (12, 3, 5),
        ]

    def test_staleness_matches_deferred_law(self):
        for n, s, comp in [(4, 1, 2), (6, 2, 4), (20, 5, 7), (100, 1, 50)]:
            base = SystemConfig(n, s, comp, horizon=10**7)
            alpha = optimal_intentional_delay(base)
            cfg = SystemConfig(n, s, comp, horizon=10**7,
                               intentional_delay=alpha)
            g = cfg.num_groups
            result = run_timeline(cfg, max_rounds=3 * g + 5)
            for rec in result.staleness_records:
                assert rec.staleness == idfl_staleness(rec.round_index, cfg), (
                    n, s, comp, alpha, rec)

    def test_optimal_delay_keeps_duration_and_one_more_slows(self):
        cfg0 = SystemConfig(4, 1, compute_slots=2, horizon=10**6)
        alpha = optimal_intentional_delay(cfg0)
        assert alpha == 2

        def steady(a):
            cfg = SystemConfig(4, 1, compute_slots=2, horizon=10**6,
                               intentional_delay=a)
            ends = run_timeline(cfg, max_rounds=40).downlink_end_slots
            return Fraction(ends[-1] - ends[-9], 8)  # the last two rotations of G = 4

        assert steady(alpha) == steady(0) == Fraction(2)
        assert steady(alpha + 1) > steady(0)

class CountingLearner(SgdLearner):
    """An SgdLearner that counts its local updates and metric evaluations."""

    def __post_init__(self):
        super().__post_init__()
        self.calls = Counter()

    def local_update(self, device_id, model, rng):
        self.calls["local_update"] += 1
        return super().local_update(device_id, model, rng)

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


class TestRunArguments:
    """``metrics_every`` and ``max_rounds`` (unless None) are integers >= 0."""

    CFG = SystemConfig(4, 2, compute_slots=2, horizon=60)

    @pytest.mark.parametrize("metrics_every", [0.5, True, -3])
    def test_bad_metrics_every_is_a_config_error(self, metrics_every):
        # 0.5 and True evaluated every row, -3 every third.
        learner = counting_learner(self.CFG)
        with pytest.raises(ConfigError, match="metrics_every must be an integer >= 0"):
            run_timeline(self.CFG, learner, metrics_every=metrics_every)
        assert learner.calls == Counter()

    @pytest.mark.parametrize("max_rounds", [2.5, "3", -1])
    def test_bad_max_rounds_is_a_config_error(self, max_rounds):
        # 2.5 raised islice's ValueError, "3" a TypeError, and -1 ran no round.
        learner = counting_learner(self.CFG)
        with pytest.raises(ConfigError, match="max_rounds must be an integer >= 0"):
            run_timeline(self.CFG, learner, max_rounds=max_rounds)
        assert learner.calls == Counter()

    def test_numpy_integers_and_zero_are_accepted(self):
        result = run_timeline(self.CFG, counting_learner(self.CFG), max_rounds=np.int64(5),
                              metrics_every=np.int64(2))
        assert result.completed_rounds == 5
        assert np.flatnonzero(~np.isnan(result.metrics.loss)).tolist() == [0, 2, 4]
        assert run_timeline(self.CFG, max_rounds=0).completed_rounds == 0


class TestLearnerDriving:
    # Six devices in pairs with two-slot compute: G = 3 and alpha* = 1. In 60
    # slots the rotation completes 20 rounds, and 13 once alpha > alpha*
    # lengthens them.
    @pytest.mark.parametrize("alpha,rounds", [(0, 20), (1, 20), (2, 13)])
    @pytest.mark.parametrize("max_rounds", [None, 7])
    def test_every_computed_update_is_uploaded(self, alpha, rounds, max_rounds):
        cfg = SystemConfig(6, 2, compute_slots=2, horizon=60, intentional_delay=alpha)
        assert optimal_intentional_delay(replace(cfg, intentional_delay=0)) == 1
        learner = counting_learner(cfg)
        result = run_timeline(cfg, learner, max_rounds=max_rounds)
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
            run_timeline(cfg, learner)
        assert learner.calls == Counter()
        assert run_timeline(other, learner).completed_rounds == 20

    @pytest.mark.parametrize("alpha", [0, 10])
    def test_training_keeps_only_the_models_in_flight(self, alpha):
        # N = 200 in groups of S = 10, softmax regression of dim 10 * 256 = 2,560.
        # The recurrence needs the m = G - alpha models in flight and one
        # round's S updates, not m * S updates (about 205 and 105 vectors).
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((400, 255))
        task = SoftmaxRegressionTask(feats, rng.integers(0, 10, 400), (2,) * 200, 10)
        cfg = SystemConfig(200, 10, compute_slots=10, horizon=1_000, intentional_delay=alpha)
        learner = SgdLearner(task, cfg, seed=1)
        m = cfg.num_groups - alpha
        assert task.dim == 2560 and run_timeline(cfg, learner).completed_rounds > 3 * m
        tracemalloc.start()
        try:
            run_timeline(cfg, learner)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (m + 2 * cfg.group_size + 8) * task.dim * 8


class TestRunMetrics:
    def test_avg_grad_norm_sq_skips_only_unevaluated_rows(self):
        nan, inf = float("nan"), float("inf")
        assert RunMetrics(grad_norm_sq=[nan, 1.0, nan, 3.0]).avg_grad_norm_sq() == 2.0
        assert RunMetrics(grad_norm_sq=[nan, 1.0, inf]).avg_grad_norm_sq() == inf
        assert np.isnan(RunMetrics(grad_norm_sq=[nan, nan]).avg_grad_norm_sq())
        assert np.isnan(RunMetrics().avg_grad_norm_sq())


class TestMeasuredStaleness:
    def test_multiset_and_range(self):
        cfg = SystemConfig(6, 2, compute_slots=2, horizon=500)
        result = run_timeline(cfg, max_rounds=10)
        assert staleness_of(result, 0) == [0, 0]
        assert staleness_of(result, 9) == [2, 2]
        # The records cover exactly the ten simulated rounds, S = 2 each.
        assert [rec.round_index for rec in result.staleness_records] == \
            [k for k in range(10) for _ in range(2)]


def small_quad(sample_noise: float):
    """A 4-device, 3-dimensional heterogeneous quadratic with 8 samples per shard."""
    return make_quadratic(4, 3, 1.5, np.random.default_rng(0), samples_per_device=8,
                          sample_noise=sample_noise, eig_range=(0.5, 2.0))


def small_config(group_size: int, local_steps: int = 1, alpha: int = 0) -> SystemConfig:
    return SystemConfig(4, group_size, compute_slots=2, local_steps=local_steps, batch_size=3,
                        step_size=0.1, horizon=10**6, intentional_delay=alpha)


def companion_expected_metrics(cfg, task, initial, rounds):
    """``expected_metrics`` in dense form: the stacked state (w_k, ..., w_{k-d}) times its
    companion matrix F, its covariance propagated as F Cov F^T, one device and step at a time."""
    g, s, eta, dim = cfg.num_groups, cfg.group_size, cfg.step_size, task.dim
    d, h_steps = g - 1 - cfg.intentional_delay, cfg.local_steps
    n, b = task.shard_sizes[0], cfg.batch_size
    step = np.eye(dim) - eta * task.hessian
    companion = np.zeros(((d + 1) * dim,) * 2)
    companion[:dim, :dim] = np.eye(dim)
    companion[:dim, d * dim:] -= np.eye(dim) - np.linalg.matrix_power(step, h_steps)
    companion[dim:, :-dim] += np.eye(d * dim)
    state, cov, out = np.tile(initial, d + 1), np.zeros_like(companion), []
    for k in range(rounds):
        loss, grad = task.loss_and_grad(state[:dim])
        out.append((loss + np.trace(task.hessian @ cov[:dim, :dim]) / 2,
                    grad @ grad + np.trace(task.hessian @ task.hessian @ cov[:dim, :dim])))
        state, cov = companion @ state, companion @ cov @ companion.T
        for dev in range(k % g * s, (k % g + 1) * s):
            offsets = task.sample_offsets[dev]
            spread = np.cov(offsets.T, bias=True) * (n - b) / ((n - 1) * b)
            for h in range(h_steps):
                power = eta / s * np.linalg.matrix_power(step, h)
                state[:dim] += power @ offsets.mean(axis=0)
                cov[:dim, :dim] += power @ spread @ power.T
    return np.array(out).T


class TestExpectedMetrics:
    """``expected_metrics``, the exact expectation of a run on a quadratic, against the run.

    Without sample noise a run is deterministic, so the expectations are its
    metric columns. With noise, the first round is the descent probe's exact
    one-round expectation, and the mean over seeds 0-199 of the final loss and
    of avg_grad_norm_sq lies within 4 standard errors of the exact value; the
    seeds and the bound were fixed before the test first ran.
    """

    @pytest.mark.parametrize("group_size,alpha", [(1, 1), (1, 2), (1, 3), (2, 1)])
    def test_noise_free_expectation_is_the_run(self, group_size, alpha):
        task = small_quad(0.0)
        cfg = small_config(group_size, local_steps=2, alpha=alpha)
        initial = task.w_star + 2.0
        result = run_timeline(cfg, SgdLearner(task, cfg, initial=initial), max_rounds=40)
        loss, grad_sq = expected_metrics(cfg, task, initial, 40)
        np.testing.assert_allclose(grad_sq, result.metrics.grad_norm_sq, rtol=1e-12, atol=0)
        np.testing.assert_allclose(loss, result.metrics.loss, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("group_size,local_steps,alpha", [
        (1, 1, 0), (1, 2, 2), (2, 3, 0), (4, 2, 0)])
    def test_lag_blocks_are_the_dense_companion_form(self, group_size, local_steps, alpha):
        task = small_quad(0.6)
        cfg = small_config(group_size, local_steps, alpha)
        initial = task.w_star + 2.0
        np.testing.assert_allclose(expected_metrics(cfg, task, initial, 60),
                                   companion_expected_metrics(cfg, task, initial, 60),
                                   rtol=1e-12, atol=0)

    def test_one_group_is_synchronous_local_sgd(self):
        # S = N: each round averages every device's H-step update from the current model.
        task, eta = small_quad(0.0), 0.1
        w = task.w_star + 2.0
        loss, _ = expected_metrics(small_config(4, local_steps=2), task, w, 30)
        expect = []
        for _ in range(30):
            expect.append(task.loss(w))
            ends = []
            for dev in range(4):
                v = w.copy()
                for _ in range(2):
                    v -= eta * task.grad(v, dev)
                ends.append(v)
            w = np.mean(ends, axis=0)
        np.testing.assert_allclose(loss, expect, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("group_size", [1, 2, 4])
    def test_first_round_is_the_descent_probe(self, group_size):
        task = small_quad(0.6)
        w0 = task.w_star + 2.0
        loss, _ = expected_metrics(small_config(group_size), task, w0, 2)
        assert loss[0] == task.loss(w0)
        assert loss[1] == pytest.approx(
            descent_lhs(task, 0.1, 3, w0, [w0] * group_size, range(group_size)), rel=1e-12)

    @pytest.mark.parametrize("group_size,local_steps,alpha", [
        (1, 1, 0), (1, 2, 2), (1, 1, 3), (2, 2, 0), (2, 1, 1)])
    def test_mean_of_seeded_runs_is_within_four_standard_errors(
            self, group_size, local_steps, alpha):
        task = small_quad(0.6)
        cfg = small_config(group_size, local_steps, alpha)
        assert alpha in (0, optimal_intentional_delay(cfg), cfg.num_groups - 1)
        initial, rounds, seeds = task.w_star + 2.0, 40, range(200)
        loss, grad_sq = expected_metrics(cfg, task, initial, rounds + 1)
        runs = [run_timeline(cfg, SgdLearner(task, cfg, seed=seed, initial=initial),
                             max_rounds=rounds) for seed in seeds]
        samples = np.array([[task.loss(r.final_model), r.metrics.avg_grad_norm_sq()]
                            for r in runs])
        error = samples.mean(axis=0) - [loss[rounds], grad_sq[:rounds].mean()]
        assert np.all(np.abs(error) <= 4 * samples.std(axis=0, ddof=1) / np.sqrt(len(seeds)))
