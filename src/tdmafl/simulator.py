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
Python: slots are exact Python ints; staleness (the law's vector), loss and
grad_norm_sq are float64 arrays. The transmitter column is built on its
first read, one ``select_transmitters`` call per round, and cached.

On a QuadraticTask the recurrence is linear, so ``expected_metrics`` gives
the exact expected loss and squared gradient norm of each round, unsampled.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError
from .learner import SgdLearner, check_batch_size
from .tasks import QuadraticTask
from .timing import SystemConfig, require_integer

SEED_BLOCK = 512
"""Keys seeded per ``rng_for`` call; their seed words take 32 bytes a key."""


class StalenessRecord(NamedTuple):
    round_index: int
    device_id: int
    staleness: int


@dataclass
class RunMetrics:
    """Per-round measurements plus summary accessors.

    ``rounds`` is ``range(K)`` and ``slots`` exact Python ints; ``staleness``
    (the law's vector), ``loss`` and ``grad_norm_sq`` are float64 arrays, the
    last two NaN for rounds not evaluated (timing-only or decimated metrics).
    """

    rounds: Sequence[int] = range(0)
    slots: list[int] = field(default_factory=list)
    staleness: np.ndarray = field(default_factory=lambda: np.empty(0))
    loss: np.ndarray = field(default_factory=lambda: np.empty(0))
    grad_norm_sq: np.ndarray = field(default_factory=lambda: np.empty(0))

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

    Each per-round column is stored once: ``metrics.slots`` is
    ``downlink_end_slots`` itself, exact Python ints, and the other metrics
    are float64 arrays, ``metrics.staleness`` the law's vector.
    ``transmitter_sets`` is built from ``config`` on its first read, round k's
    set being ``select_transmitters`` of group k mod G, and cached.
    ``staleness_records`` and ``launch_clocks`` are read-only views, derived
    on every access from ``transmitter_sets`` with ``metrics.staleness`` and
    from ``downlink_end_slots``, so a run that never reads them never builds
    them. ``events`` and ``model_history`` are the constants ``()`` and None,
    not fields: no run keeps a slot trace or its models. Only the benchmark's
    result check reads them; they go once it stops.
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

        s_k is the int of round k's ``metrics.staleness``, the law's vector.
        """
        new_record = tuple.__new__  # skips the NamedTuple's Python-level __new__
        stale = self.metrics.staleness.astype(np.int64).tolist()
        return [new_record(StalenessRecord, (k, dev, stale[k]))
                for k, chosen in enumerate(self.transmitter_sets) for dev in chosen]

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

    A ``max_rounds`` not an integer >= 0 is a ConfigError, as is a count
    beyond sys.maxsize, which no list can hold.
    """
    rounds = cfg.rounds_exact()
    if max_rounds is not None:
        require_integer("max_rounds", max_rounds, 0)
        rounds = min(rounds, max_rounds)
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
    B, H and eta would not match the schedule, a ``metrics_every`` or (unless
    None) ``max_rounds`` that is not an integer >= 0, and a K beyond
    sys.maxsize, which no list can hold. Round k ends its downlink at
    ``cfg.downlink_ends(K)[k]``, launches one slot after the previous downlink
    end (round 0 at slot 0), uploads group k mod G and has staleness s_k.
    ``metrics.slots`` is that list, exact Python ints; ``metrics.staleness``
    (the law's vector), ``loss`` and ``grad_norm_sq`` are float64 arrays, the
    last two NaN but in every ``metrics_every``-th round of a learner's run
    (none for 0). The result keeps only a learner's final model.

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
    require_integer("metrics_every", metrics_every, 0)
    g = cfg.num_groups
    m = g - cfg.intentional_delay
    if learner is not None and learner.config != cfg:
        raise ConfigError("the learner was built on another SystemConfig than the schedule's")

    rounds = round_count(cfg, max_rounds)
    downlink_ends = cfg.downlink_ends(rounds)

    metrics = RunMetrics(rounds=range(rounds), slots=downlink_ends,
                         staleness=np.minimum(np.arange(rounds, dtype=np.float64), m - 1),
                         loss=np.full(rounds, np.nan), grad_norm_sq=np.full(rounds, np.nan))

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

    return SimResult(config=cfg, metrics=metrics, completed_rounds=rounds,
                     downlink_end_slots=downlink_ends, final_model=model)


def expected_metrics(cfg: SystemConfig, task: QuadraticTask, initial: Optional[np.ndarray],
                     rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """E f(w_k) and E|grad f(w_k)|^2 for each k < ``rounds`` of a run of ``cfg``: exact.

    On a QuadraticTask a batch gradient is A w - b, b the batch's mean offset,
    so an H-step update is affine in its start model. With M = I - eta A and
    d = G - alpha - 1, the run is w_{k+1} = w_k - (I - M^H) w_{k-d} +
    c_{k mod G} + xi_k, w_j = w_0 for j < 0. Group g's drift c_g is
    (eta/S) sum_{h<H} M^h times the sum of its devices' mean offsets. xi_k is
    zero-mean: each (device, round) key draws independent batches, whose mean
    has the shard's population covariance times (n - B) / ((n - 1) B). The
    covariance is held as the lag blocks Cov(w_t, w_{t-j}), j <= d, of the
    last d + 1 rounds (0 before the run, whose start is fixed); each round
    computes only its own row, at O(d D^3). Then E f = f(E w) + tr(A Cov)/2
    and E|grad f|^2 = |grad f(E w)|^2 + tr(A^2 Cov). ``initial`` None is the
    zero model, as for ``SgdLearner``.
    """
    check_batch_size(task, cfg.batch_size)
    g, s, eta, dim = cfg.num_groups, cfg.group_size, cfg.step_size, task.dim
    d, b = g - 1 - cfg.intentional_delay, cfg.batch_size
    powers = [np.eye(dim)]  # M^h for h <= H
    for _ in range(cfg.local_steps):
        powers.append(powers[-1] - eta * task.hessian @ powers[-1])
    gain, powers = np.eye(dim) - powers.pop(), np.array(powers)
    offsets = task.sample_offsets.reshape(g, s, -1, dim)  # group j holds devices jS .. jS + S - 1
    n = offsets.shape[2]
    centered = offsets - offsets.mean(axis=2, keepdims=True)
    sigma = np.einsum("gsni,gsnj->gij", centered, centered) * ((n - b) / (max(n - 1, 1) * b * n))
    drift = eta / s * offsets.mean(axis=2).sum(axis=1) @ powers.sum(axis=0)
    noise = (eta / s) ** 2 * np.einsum("hij,gjk,hkl->gil", powers, sigma, powers)
    means = np.empty((rounds + d, dim))  # means[t + d] = E w_t
    means[:d + 1] = np.zeros(dim) if initial is None else initial
    lags = np.zeros((d + 1, d + 1, dim, dim))  # lags[t % (d + 1), j] = Cov(w_t, w_{t-j})
    var = np.zeros((rounds, dim, dim))
    j = np.arange(d + 1)
    for k in range(rounds - 1):
        means[k + d + 1] = means[k + d] - gain @ means[k] + drift[k % g]
        # row[j] = Cov(w_{k+1}, w_{k-j}) = Cov(w_k, w_{k-j}) - gain Cov(w_{k-d}, w_{k-j})
        row = lags[k % (d + 1)] - gain @ lags[(k - j) % (d + 1), d - j].swapaxes(1, 2)
        var[k + 1] = row[0] - row[d] @ gain + noise[k % g]
        lags[(k + 1) % (d + 1)] = np.concatenate([var[k + 1, None], row[:d]])
    pairs = [task.loss_and_grad(w) for w in means[d:]]
    return (np.array([loss for loss, _ in pairs]) + np.einsum("ij,kji->k", task.hessian, var) / 2,
            np.array([grad @ grad for _, grad in pairs])
            + np.einsum("ij,kji->k", task.hessian @ task.hessian, var))
