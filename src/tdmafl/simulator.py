"""Slot-accurate event simulation of asynchronous federated rounds over TDMA.

The simulator advances an integer slot clock through training rounds. Each
round waits until the S devices with the oldest finished updates are ready,
occupies the channel with their S uploads of r slots plus one r-slot
broadcast, applies the global update, and hands the fresh model to its
recipients.

The devices form G = N / S equal groups; group j holds devices j*S + 1 to
(j + 1)*S. The schedule is a rotation of the groups: the transmitters of
round k are group k mod G, and the broadcast of round k goes to group
(k - alpha) mod G, where alpha is ``intentional_delay``. Groups 0..G-alpha-1
start computing at slot 0, so for k < alpha the negative index names a group
that has not yet received a model. The scheduler keeps the in-flight groups
in one FIFO: groups enter it in start-slot order, the initial groups in index
order, and each round takes one whole group, so the head holds the oldest
updates.

A new round is launched while the consumed-slot clock is still within the
horizon (clock <= T); the final launched round runs to completion. This is
the accounting under which the round counts of long reference runs are
reproduced exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError
from .learner import SgdLearner
from .timing import SystemConfig

SERVER_ID = 0  # device_id used for the downlink broadcast


class TimelineEvent(NamedTuple):
    """One slot-stamped action. Transfers occupy [slot, slot + r - 1]."""

    slot: int
    kind: str
    device_id: int
    round_index: int


class StalenessRecord(NamedTuple):
    round_index: int
    device_id: int
    staleness: int


@dataclass
class RunMetrics:
    """Per-round measurements plus summary accessors.

    ``loss`` and ``grad_norm_sq`` are NaN for rounds where evaluation was
    skipped (timing-only runs or decimated metrics).
    """

    rounds: list[int] = field(default_factory=list)
    slots: list[int] = field(default_factory=list)
    staleness: list[float] = field(default_factory=list)
    loss: list[float] = field(default_factory=list)
    grad_norm_sq: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rounds)

    def avg_grad_norm_sq(self) -> float:
        """Running average of the evaluated squared gradient norms."""
        vals = np.asarray(self.grad_norm_sq, dtype=float)
        vals = vals[np.isfinite(vals)]
        return float(vals.mean()) if vals.size else float("nan")


@dataclass
class SimResult:
    config: SystemConfig
    events: list[TimelineEvent]
    staleness_records: list[StalenessRecord]
    metrics: RunMetrics
    completed_rounds: int
    launch_clocks: list[int]
    downlink_end_slots: list[int]
    transmitter_sets: list[tuple[int, ...]]
    final_model: Optional[np.ndarray] = None
    model_history: Optional[list[np.ndarray]] = None


def select_transmitters(ready: tuple[int, ...], group_size: int) -> tuple[int, ...]:
    """Return the round's transmitters in TDMA upload order.

    ``ready`` is the round's group, whose S updates are the oldest ready ones
    (see the module docstring), so this returns it whole. It stays a function
    as the per-round selection hook that the benchmark patches.
    """
    return ready[:group_size]


def run_timeline(
    cfg: SystemConfig,
    learner: Optional[SgdLearner] = None,
    *,
    max_rounds: Optional[int] = None,
    record_events: bool = True,
    metrics_every: int = 1,
    keep_model_history: bool = False,
) -> SimResult:
    """Simulate the full slotted schedule, optionally training a model.

    Without a learner only the scheduling is simulated (no gradients are
    computed), which is enough for round counting and staleness checks.
    ``max_rounds`` truncates the run before the slot budget is exhausted; a
    horizon too short for one round to complete is a ConfigError.
    Runs are fully deterministic: the scheduler itself draws no randomness,
    and a learner's randomness is keyed on (device, round).
    """
    s = cfg.group_size
    r = cfg.slots_per_transfer
    horizon = cfg.horizon
    alpha = cfg.intentional_delay
    g = cfg.num_groups
    tau_comp = cfg.tau_comp

    # In-flight groups, oldest first: (ready slot, round of the model they
    # compute on, devices, their local updates or None). Each round pops one
    # and appends one, so it always holds G - alpha >= 1 entries.
    in_flight: deque[tuple[int, int, tuple[int, ...], Optional[list[np.ndarray]]]] = deque()
    # One id tuple per group, so the run's records share G tuples of ints.
    members = [tuple(range(j * s + 1, (j + 1) * s + 1)) for j in range(g)]
    events: list[TimelineEvent] = []
    stal_records: list[StalenessRecord] = []
    metrics = RunMetrics()
    launch_clocks: list[int] = []
    downlink_ends: list[int] = []
    transmitter_sets: list[tuple[int, ...]] = []

    model = learner.initial_model() if learner is not None else None
    history: Optional[list[np.ndarray]] = [model.copy()] if (keep_model_history and model is not None) else None

    def start_group(group: int, round_index: int, slot: int) -> None:
        devices = members[group]
        updates = None
        if learner is not None:
            # Pure function of (model snapshot, device, round); evaluating at
            # schedule time is equivalent to evaluating during the slots.
            updates = [learner.local_update(dev, model, round_index) for dev in devices]
        if record_events:
            for dev in devices:
                events.append(TimelineEvent(slot, "compute_start", dev, round_index))
                events.append(TimelineEvent(slot + tau_comp - 1, "compute_done", dev, round_index))
        in_flight.append((slot + tau_comp, round_index, devices, updates))

    for group in range(g - alpha):
        start_group(group, 0, 0)

    clock = 0
    k = 0
    while clock <= horizon and (max_rounds is None or k < max_rounds):
        launch_clocks.append(clock)
        ready_slot, base_round, devices, updates = in_flight.popleft()
        clock = max(clock, ready_slot)

        chosen = select_transmitters(devices, s)
        transmitter_sets.append(chosen)
        staleness = k - base_round
        for i, dev in enumerate(chosen):
            stal_records.append(StalenessRecord(k, dev, staleness))
            if record_events:
                events.append(TimelineEvent(clock + i * r, "uplink", dev, k))
        clock += s * r

        if metrics_every and k % metrics_every == 0 and learner is not None:
            loss, gsq = learner.round_metrics(model)
        else:
            loss, gsq = float("nan"), float("nan")

        if learner is not None:
            model = learner.apply_round(model, updates)
            if history is not None:
                history.append(model.copy())

        if record_events:
            events.append(TimelineEvent(clock, "downlink", SERVER_ID, k))
        downlink_end = clock + r - 1
        downlink_ends.append(downlink_end)
        clock = downlink_end + 1

        metrics.rounds.append(k)
        metrics.slots.append(downlink_end)
        metrics.staleness.append(float(staleness))
        metrics.loss.append(loss)
        metrics.grad_norm_sq.append(gsq)

        start_group((k - alpha) % g, k + 1, clock)
        k += 1

    if k == 1 and downlink_ends[0] >= horizon:
        raise ConfigError(f"no training round completes within the {horizon}-slot horizon")

    return SimResult(
        config=cfg,
        events=events,
        staleness_records=stal_records,
        metrics=metrics,
        completed_rounds=k,
        launch_clocks=launch_clocks,
        downlink_end_slots=downlink_ends,
        transmitter_sets=transmitter_sets,
        final_model=model,
        model_history=history,
    )
