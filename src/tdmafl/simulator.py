"""Slot-exact schedule of asynchronous federated rounds over TDMA.

The devices form G = N / S equal groups; group j holds devices j*S + 1 to
(j + 1)*S. The schedule is a rotation of the groups. Round k occupies the
channel with the uploads of group k mod G, S transfers of r slots, plus one
r-slot broadcast, applies the global update, and hands the fresh model to
group (k - alpha) mod G, where alpha is ``intentional_delay``. Groups 0..m-1,
m = G - alpha, start computing at slot 0, so for k < alpha the negative index
names a group that has not yet received a model. Round k thus uploads the
group that started right after round k - m (at slot 0 for k < m), and its
staleness is min(k, m - 1).

A new round is launched while the consumed-slot clock is still within the
horizon (clock <= T); the final launched round runs to completion. This is
the accounting under which the round counts of long reference runs are
reproduced exactly.

The timing is a max-plus law in closed form: the clock after round k is
E_k = tau_comp + (k + 1)*tau_comm + floor(k/m)*Delta with
Delta = max(0, tau_comp - (m - 1)*tau_comm), and the round count follows
from it (``SystemConfig.downlink_ends`` and ``SystemConfig.rounds_exact``).
So ``run_timeline`` builds the round table in bulk and loops over the rounds
only to drive a learner.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count, repeat
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

    ``ready`` is the round's group, the one of those in flight that started
    first, so its S updates are the oldest ready ones; this returns it whole.
    It stays a function as the per-round selection hook that the benchmark
    patches.
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
    """The full slotted schedule of a run, optionally training a model.

    The round table is read off the schedule law (see the module docstring).
    The run completes K = ``cfg.rounds_exact()`` rounds, or ``max_rounds`` if
    that is fewer; ``rounds_exact`` raises ConfigError for a horizon too short
    for one round to complete, whatever ``max_rounds`` is, before the learner
    is called. So does a learner built on a config other than ``cfg``, whose
    B, H and eta would not match the schedule. Round k ends its
    downlink at ``cfg.downlink_ends(K)[k]``, launches one slot after the
    previous downlink end (round 0 at slot 0), uploads group k mod G and has
    staleness min(k, m - 1), with m = G - alpha. Without a learner nothing
    else is computed.

    A learner is driven by one loop over the rounds and a FIFO of the update
    lists of the m groups in flight, oldest first. Round k pops the head,
    evaluates the model, takes the server step, and then computes the S
    updates of group (k - alpha) mod G on the new model, but only if a later
    round uploads them (k + m < K). Runs are fully deterministic: the
    scheduler itself draws no randomness, and a learner's randomness is keyed
    on (device, round).
    """
    s = cfg.group_size
    r = cfg.slots_per_transfer
    alpha = cfg.intentional_delay
    g = cfg.num_groups
    m = g - alpha
    tau_comp, tau_comm = cfg.compute_slots, cfg.tau_comm
    if learner is not None and learner.config != cfg:
        raise ConfigError("the learner was built on another SystemConfig than the schedule's")

    rounds = cfg.rounds_exact()
    if max_rounds is not None:
        rounds = max(0, min(rounds, max_rounds))
    downlink_ends = cfg.downlink_ends(rounds)

    # One id tuple per group, so the run's records share G tuples of ints.
    members = [tuple(range(j * s + 1, (j + 1) * s + 1)) for j in range(g)]
    launch_clocks = [0, *(end + 1 for end in downlink_ends[:-1])] if rounds else []
    transmitter_sets = [select_transmitters(members[k % g], s) for k in range(rounds)]
    staleness = [*range(min(rounds, m)), *repeat(m - 1, rounds - m)]
    new_record = tuple.__new__  # skips the NamedTuple's Python-level __new__
    stal_records = [new_record(StalenessRecord, (k, dev, stale))
                    for k, chosen, stale in zip(count(), transmitter_sets, staleness)
                    for dev in chosen]
    nan = float("nan")
    metrics = RunMetrics(rounds=list(range(rounds)), slots=list(downlink_ends),
                         staleness=list(map(float, staleness)),
                         loss=[nan] * rounds, grad_norm_sq=[nan] * rounds)

    model: Optional[np.ndarray] = None
    history: Optional[list[np.ndarray]] = None
    if learner is not None:
        model = learner.initial_model()
        if keep_model_history:
            history = [model.copy()]
        # Each update is a pure function of (model snapshot, device, round);
        # evaluating it at schedule time equals evaluating it during the slots.
        pending = deque([learner.local_update(dev, model, 0) for dev in members[j]]
                        for j in range(min(m, rounds)))
        for k in range(rounds):
            if metrics_every and k % metrics_every == 0:
                metrics.loss[k], metrics.grad_norm_sq[k] = learner.round_metrics(model)
            model = learner.apply_round(model, pending.popleft())
            if history is not None:
                history.append(model.copy())
            if k + m < rounds:
                pending.append([learner.local_update(dev, model, k + 1)
                                for dev in members[(k - alpha) % g]])

    events: list[TimelineEvent] = []
    if record_events:
        def start_group(group: int, round_index: int, slot: int) -> None:
            for dev in members[group]:
                events.append(TimelineEvent(slot, "compute_start", dev, round_index))
                events.append(TimelineEvent(slot + tau_comp - 1, "compute_done", dev, round_index))

        for group in range(m):
            start_group(group, 0, 0)
        for k, chosen, end in zip(count(), transmitter_sets, downlink_ends):
            first_upload = end + 1 - tau_comm
            events += [TimelineEvent(first_upload + i * r, "uplink", dev, k)
                       for i, dev in enumerate(chosen)]
            events.append(TimelineEvent(end + 1 - r, "downlink", SERVER_ID, k))
            start_group((k - alpha) % g, k + 1, end + 1)

    return SimResult(
        config=cfg,
        events=events,
        staleness_records=stal_records,
        metrics=metrics,
        completed_rounds=rounds,
        launch_clocks=launch_clocks,
        downlink_end_slots=downlink_ends,
        transmitter_sets=transmitter_sets,
        final_model=model,
        model_history=history,
    )
