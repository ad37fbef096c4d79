"""Slot-accurate event simulation of asynchronous federated rounds over TDMA.

The simulator advances an integer slot clock through training rounds. Each
round waits until at least S devices hold a finished local update, picks the
S transmitters whose updates are oldest (lowest start round, then earliest
compute completion, then lowest device index), occupies the channel with S
uploads of r slots plus one r-slot broadcast, applies the global update, and
hands the fresh model to its recipients.

No sort is needed to keep that order. Every device that receives the
round-k model starts computing at round k's downlink end, so its
compute-done slot depends only on k and grows with k. The (done slot, device
index) heap thus releases devices in upload order, and a device pushed later
starts at the current clock, after every device already released has
finished. The ready list therefore stays in upload order, and the
transmitters are its first S entries.

With ``intentional_delay == 0`` the broadcast of round k goes back to round
k's own transmitters. With a positive delay alpha it goes to the transmitters
of round k - alpha; for k < alpha those recipient sets are the pre-assigned
warm-up groups (devices are split into G contiguous index groups, groups
1..G-alpha start computing at slot 0, and group G-alpha+j first receives a
model at the end of round j-1).

A new round is launched while the consumed-slot clock is still within the
horizon (clock <= T); the final launched round runs to completion. This is
the accounting under which the round counts of long reference runs are
reproduced exactly.
"""

from __future__ import annotations

import heapq
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


def select_transmitters(ready: list[int], group_size: int) -> list[int]:
    """Pick the S devices whose pending updates started from the oldest rounds.

    ``ready`` lists the devices holding a finished update in upload order
    (see the module docstring), so these are its first S entries, and the
    returned order is the within-round TDMA upload order. SystemConfig keeps
    S >= 1 and the wait loop fills ``ready`` to S entries before the call.
    """
    return ready[:group_size]


def _warmup_group(cfg: SystemConfig, set_index: int) -> list[int]:
    """Pre-assigned recipient set for a negative round index (warm-up).

    Index -1 maps to the last device group, -alpha to group G - alpha + 1.
    """
    g = cfg.num_groups
    s = cfg.group_size
    group = g + set_index + 1  # 1-based group number
    start = (group - 1) * s + 1
    return list(range(start, start + s))


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
    n = cfg.num_devices
    s = cfg.group_size
    r = cfg.slots_per_transfer
    horizon = cfg.horizon
    alpha = cfg.intentional_delay
    g = cfg.num_groups
    tau_comp = cfg.tau_comp

    model_round = [0] * (n + 1)  # indexed by device_id; entry 0 unused
    pending: list[Optional[np.ndarray]] = [None] * (n + 1)
    computing: list[tuple[int, int]] = []  # (done_slot, device_id) heap
    available: list[int] = []  # ready devices, in upload order
    events: list[TimelineEvent] = []
    stal_records: list[StalenessRecord] = []
    metrics = RunMetrics()
    launch_clocks: list[int] = []
    downlink_ends: list[int] = []
    transmitter_sets: list[tuple[int, ...]] = []

    model = learner.initial_model() if learner is not None else None
    history: Optional[list[np.ndarray]] = [model.copy()] if (keep_model_history and model is not None) else None

    def start_compute(device_id: int, round_index: int, slot: int) -> None:
        done_slot = slot + tau_comp - 1
        model_round[device_id] = round_index
        if learner is not None:
            # Pure function of (model snapshot, device, round); evaluating at
            # schedule time is equivalent to evaluating during the slots.
            pending[device_id] = learner.local_update(device_id, model, round_index)
        heapq.heappush(computing, (done_slot, device_id))
        if record_events:
            events.append(TimelineEvent(slot, "compute_start", device_id, round_index))
            events.append(TimelineEvent(done_slot, "compute_done", device_id, round_index))

    for dev in range(1, (g - alpha) * s + 1):
        start_compute(dev, 0, 0)

    clock = 0
    k = 0
    while clock <= horizon and (max_rounds is None or k < max_rounds):
        launch_clocks.append(clock)

        # Wait until S finished updates exist, then admit everything that
        # finished before the first upload slot.
        while len(available) < s:
            if not computing:
                raise RuntimeError("scheduler stalled: no device is computing")
            done_slot, dev = heapq.heappop(computing)
            clock = max(clock, done_slot + 1)
            available.append(dev)
        while computing and computing[0][0] < clock:
            _, dev = heapq.heappop(computing)
            available.append(dev)

        chosen = select_transmitters(available, s)
        del available[:s]
        transmitter_sets.append(tuple(chosen))

        updates = []
        for i, dev in enumerate(chosen):
            stal_records.append(StalenessRecord(k, dev, k - model_round[dev]))
            if record_events:
                events.append(TimelineEvent(clock + i * r, "uplink", dev, k))
            if learner is not None:
                updates.append(pending[dev])
                pending[dev] = None
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

        mean_stal = sum(rec.staleness for rec in stal_records[-s:]) / s
        metrics.rounds.append(k)
        metrics.slots.append(downlink_end)
        metrics.staleness.append(mean_stal)
        metrics.loss.append(loss)
        metrics.grad_norm_sq.append(gsq)

        recv_index = k - alpha
        if recv_index >= 0:
            recipients = list(transmitter_sets[recv_index])
        else:
            recipients = _warmup_group(cfg, recv_index)
        for dev in recipients:
            start_compute(dev, k + 1, clock)

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
