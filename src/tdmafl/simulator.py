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
So ``run_timeline`` builds only the round table, in bulk, and loops over the
rounds only to drive a learner; every slot above follows from the table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain, count, repeat
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError
from .learner import SgdLearner
from .timing import SystemConfig


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
    """What a run produced: the round table, the metrics and the model.

    Each per-round column is stored once. ``staleness_records`` and
    ``launch_clocks`` are read-only views, derived on every access from
    ``config``, ``completed_rounds``, ``transmitter_sets`` and
    ``downlink_end_slots``, so a run that never reads them never builds them.
    ``events`` and ``model_history`` are the constants ``()`` and None, not
    fields: no run keeps a slot trace or its intermediate models. They remain
    only because the benchmark's result check reads them, and go once it stops.
    """

    config: SystemConfig
    metrics: RunMetrics
    completed_rounds: int
    downlink_end_slots: list[int]
    transmitter_sets: list[tuple[int, ...]]
    final_model: Optional[np.ndarray] = None
    events = ()
    model_history = None

    @property
    def staleness_records(self) -> list[StalenessRecord]:
        """One record per upload: round k gives (k, dev, min(k, m - 1)) for each dev it uploads.

        The staleness is the schedule law's int, not a ``metrics.staleness`` float.
        """
        m = self.config.num_groups - self.config.intentional_delay
        staleness = chain(range(min(self.completed_rounds, m)), repeat(m - 1))
        new_record = tuple.__new__  # skips the NamedTuple's Python-level __new__
        return [new_record(StalenessRecord, (k, dev, stale))
                for k, chosen, stale in zip(count(), self.transmitter_sets, staleness)
                for dev in chosen]

    @property
    def launch_clocks(self) -> list[int]:
        """The slot at which each round launches: 0, then one past the previous downlink end."""
        ends = self.downlink_end_slots
        return [0, *(end + 1 for end in ends[:-1])] if ends else []


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
    metrics_every: int = 1,
) -> SimResult:
    """The round table of a run, optionally training a model.

    The round table is read off the schedule law (see the module docstring).
    The run completes K = ``cfg.rounds_exact()`` rounds, or ``max_rounds`` if
    that is fewer; ``rounds_exact`` raises ConfigError for a horizon too short
    for one round to complete, whatever ``max_rounds`` is, before the learner
    is called. So does a learner built on a config other than ``cfg``, whose
    B, H and eta would not match the schedule. Round k ends its
    downlink at ``cfg.downlink_ends(K)[k]``, launches one slot after the
    previous downlink end (round 0 at slot 0), uploads group k mod G and has
    staleness min(k, m - 1), with m = G - alpha. Without a learner nothing
    else is computed; with one, the result keeps only the final model.

    A learner is driven by one loop over the rounds and a FIFO of the update
    lists of the m groups in flight, oldest first. Round k pops the head,
    evaluates the model, takes the server step, and then computes the S
    updates of group (k - alpha) mod G on the new model, but only if a later
    round uploads them (k + m < K). Runs are fully deterministic: the
    scheduler itself draws no randomness, and a learner's randomness is keyed
    on (device, round).
    """
    s = cfg.group_size
    alpha = cfg.intentional_delay
    g = cfg.num_groups
    m = g - alpha
    if learner is not None and learner.config != cfg:
        raise ConfigError("the learner was built on another SystemConfig than the schedule's")

    rounds = cfg.rounds_exact()
    if max_rounds is not None:
        rounds = max(0, min(rounds, max_rounds))
    downlink_ends = cfg.downlink_ends(rounds)

    # One id tuple per group, so the transmitter sets share G tuples of ints.
    members = [tuple(range(j * s + 1, (j + 1) * s + 1)) for j in range(g)]
    transmitter_sets = [select_transmitters(members[k % g], s) for k in range(rounds)]
    nan = float("nan")
    metrics = RunMetrics(rounds=list(range(rounds)), slots=list(downlink_ends),
                         staleness=[*map(float, range(min(rounds, m))),
                                    *repeat(float(m - 1), rounds - m)],
                         loss=[nan] * rounds, grad_norm_sq=[nan] * rounds)

    model: Optional[np.ndarray] = None
    if learner is not None:
        model = learner.initial_model()
        # Each update is a pure function of (model snapshot, device, round);
        # evaluating it at schedule time equals evaluating it during the slots.
        pending = deque([learner.local_update(dev, model, 0) for dev in members[j]]
                        for j in range(min(m, rounds)))
        for k in range(rounds):
            if metrics_every and k % metrics_every == 0:
                metrics.loss[k], metrics.grad_norm_sq[k] = learner.round_metrics(model)
            model = learner.apply_round(model, pending.popleft())
            if k + m < rounds:
                pending.append([learner.local_update(dev, model, k + 1)
                                for dev in members[(k - alpha) % g]])

    return SimResult(
        config=cfg,
        metrics=metrics,
        completed_rounds=rounds,
        downlink_end_slots=downlink_ends,
        transmitter_sets=transmitter_sets,
        final_model=model,
    )
