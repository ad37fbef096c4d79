"""Slot-exact schedule of asynchronous federated rounds over TDMA.

The devices form G = N / S equal groups; group j holds devices j*S + 1 to
(j + 1)*S. The schedule is a rotation of the groups. Round k occupies the
channel with the uploads of group k mod G, S transfers of r slots, plus one
r-slot broadcast, applies the global update, and hands the fresh model to
group (k - alpha) mod G, where alpha is ``intentional_delay``. Groups 0..m-1,
m = G - alpha, start computing at slot 0, so for k < alpha the negative index
names a group that has not yet received a model. Round k thus uploads the
group that started right after round k - m (at slot 0 for k < m), and its
staleness is s_k = min(k, m - 1). Training is the paper's delayed recurrence
w_{k+1} = w_k - (eta / S) * sum over dev in group k mod G of U(w_{k - s_k}, dev),
with U a device's H-step update (``SgdLearner.local_update``), whose batches
are drawn from the stream keyed on (seed, dev, k - s_k). The law gives the
keys of every round ahead, so ``run_timeline`` seeds them block by block, one
``SgdLearner.rng_for`` call per ``SEED_BLOCK`` keys, with the same streams as
``default_rng([seed, dev, k - s_k])``.

A new round is launched while the consumed-slot clock is still within the
horizon (clock <= T); the final launched round runs to completion. This is
the accounting under which the round counts of long reference runs are
reproduced exactly.

The timing is a max-plus law in closed form: the clock after round k is
E_k = tau_comp + (k + 1)*tau_comm + floor(k/m)*Delta with
Delta = max(0, tau_comp - (m - 1)*tau_comm), and the round count follows
from it (``SystemConfig.downlink_ends`` and ``SystemConfig.rounds_exact``).
So ``run_timeline`` reads the round table off the law, with no per-round
Python, and loops over the rounds only to drive a learner; every slot above
follows from the table. The transmitter column is built on its first read,
one ``select_transmitters`` call per round, and cached.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError
from .learner import SgdLearner
from .timing import SystemConfig

SEED_BLOCK = 512
"""Keys seeded per ``rng_for`` call; their seed words take 32 bytes a key."""


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
        """Mean of the evaluated squared gradient norms; NaN (unevaluated) rows are skipped."""
        vals = np.asarray(self.grad_norm_sq, dtype=float)
        vals = vals[~np.isnan(vals)]
        return float(vals.mean()) if vals.size else float("nan")


@dataclass
class SimResult:
    """What a run produced: the round table, the metrics and the model.

    Each per-round column is stored once; ``metrics.slots`` is
    ``downlink_end_slots`` itself. ``transmitter_sets`` is built from
    ``config`` on its first read, round k's set being
    ``select_transmitters`` of group k mod G, and cached. ``staleness_records``
    and ``launch_clocks`` are read-only views, derived on every access from
    ``transmitter_sets`` with ``metrics.staleness`` and from
    ``downlink_end_slots``. So a run that never reads these never builds them.
    ``events`` and ``model_history`` are the constants ``()`` and None, not
    fields: no run keeps a slot trace or its intermediate models. They remain
    only because the benchmark's result check reads them, and go once it stops.
    """

    config: SystemConfig
    metrics: RunMetrics
    completed_rounds: int
    downlink_end_slots: list[int]
    final_model: Optional[np.ndarray] = None
    events = ()
    model_history = None

    @cached_property
    def transmitter_sets(self) -> list[tuple[int, ...]]:
        """Round k's transmitters, in upload order: group k mod G, for each completed round."""
        members = _group_members(self.config)
        s, g = self.config.group_size, len(members)
        return [select_transmitters(members[k % g], s) for k in range(self.completed_rounds)]

    @property
    def staleness_records(self) -> list[StalenessRecord]:
        """One record per upload: round k gives (k, dev, s_k) for each dev it uploads.

        s_k is the int of round k's ``metrics.staleness``, the column that
        ``run_timeline`` fills from the schedule law.
        """
        new_record = tuple.__new__  # skips the NamedTuple's Python-level __new__
        return [new_record(StalenessRecord, (k, dev, stale))
                for k, (chosen, stale) in enumerate(zip(self.transmitter_sets,
                                                        map(int, self.metrics.staleness)))
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
    patches. It runs once per round on the first read of
    ``SimResult.transmitter_sets``, not during ``run_timeline``.
    """
    return ready[:group_size]


def _group_members(cfg: SystemConfig) -> list[tuple[int, ...]]:
    """The device ids of each TDMA group, j*S + 1 .. (j + 1)*S for group j.

    One tuple per group, so the transmitter sets share G tuples of ints.
    """
    s = cfg.group_size
    return [tuple(range(j * s + 1, (j + 1) * s + 1)) for j in range(cfg.num_groups)]


def round_count(cfg: SystemConfig, max_rounds: Optional[int] = None) -> int:
    """The rounds a run completes: ``cfg.rounds_exact()``, or ``max_rounds`` if fewer.

    A count beyond sys.maxsize, which no list can hold, is a ConfigError.
    """
    rounds = cfg.rounds_exact()
    if max_rounds is not None:
        rounds = max(0, min(rounds, max_rounds))
    if rounds > sys.maxsize:
        raise ConfigError(f"{rounds} rounds are more than a list can hold ({sys.maxsize})")
    return rounds


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
    B, H and eta would not match the schedule, and a K beyond sys.maxsize,
    which no list can hold. Round k ends its downlink at
    ``cfg.downlink_ends(K)[k]``, launches one slot after the previous downlink
    end (round 0 at slot 0), uploads group k mod G and has staleness s_k.
    Without a learner nothing else is computed; with one, the result keeps
    only the final model.

    A learner is driven by that recurrence. A FIFO holds the models of the m
    groups in flight, oldest first: at first m copies of w_0. Round k
    evaluates the model, pops w_j, j = k - s_k = max(0, k - (m - 1)),
    computes the S updates of group k mod G from w_j with randomness keyed
    on (device, j), takes the server step and appends w_{k+1}; so an update
    is computed only in the round that uploads it. The keys come from the
    law, not the FIFO: before each block of rounds, one ``rng_for`` call
    seeds the generators of its at most ``SEED_BLOCK`` uploads (one round's
    S if S is larger). Runs are fully deterministic: the scheduler draws no
    randomness, a learner's is keyed on (device, round).
    """
    g = cfg.num_groups
    m = g - cfg.intentional_delay
    if learner is not None and learner.config != cfg:
        raise ConfigError("the learner was built on another SystemConfig than the schedule's")

    rounds = round_count(cfg, max_rounds)
    downlink_ends = cfg.downlink_ends(rounds)

    nan = float("nan")
    metrics = RunMetrics(rounds=list(range(rounds)), slots=downlink_ends,
                         staleness=[*map(float, range(min(rounds, m))),
                                    *repeat(float(m - 1), rounds - m)],
                         loss=[nan] * rounds, grad_norm_sq=[nan] * rounds)

    model: Optional[np.ndarray] = None
    if learner is not None:
        model = learner.initial_model()
        members = _group_members(cfg)
        s = cfg.group_size
        in_flight = deque(repeat(model, m))
        block = max(1, SEED_BLOCK // s)
        for first in range(0, rounds, block):
            ks = np.arange(first, min(first + block, rounds))
            rngs = learner.rng_for((ks[:, None] % g * s + np.arange(1, s + 1)).ravel(),
                                   np.maximum(ks - (m - 1), 0).repeat(s))
            for k in range(first, first + len(ks)):
                if metrics_every and k % metrics_every == 0:
                    metrics.loss[k], metrics.grad_norm_sq[k] = learner.round_metrics(model)
                start = in_flight.popleft()
                model = learner.apply_round(model, [learner.local_update(dev, start, next(rngs))
                                                    for dev in members[k % g]])
                in_flight.append(model)

    return SimResult(
        config=cfg,
        metrics=metrics,
        completed_rounds=rounds,
        downlink_end_slots=downlink_ends,
        final_model=model,
    )
