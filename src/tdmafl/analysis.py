"""The rate trend: how the average squared gradient norm scales with G and K.

``rate_trend`` runs the full pipeline on a shared-curvature quadratic for
each number of TDMA groups, with the theorem's step size computed from the
task's exact regularity constants, and reruns one group count with a larger
round budget to expose the budget scaling. ``tdmafl rate-trend`` prints it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .learner import SgdLearner
from .simulator import run_timeline
from .tasks import QuadraticTask
from .timing import SystemConfig

# rate_trend reruns this group count with this many times the round budget.
KSCALE_GROUP = 2
KSCALE_FACTOR = 4


@dataclass
class AssumptionConstants:
    """Regularity constants of a task.

    smoothness bounds the gradient Lipschitz constant; (noise_sq, noise_scale)
    bound the per-sample gradient second moment as
    noise_sq + noise_scale * |device gradient|^2; heterogeneity_sq bounds the
    squared deviation of any device gradient from the global one.
    """

    smoothness: float
    noise_sq: float
    noise_scale: float
    heterogeneity_sq: float

    def __post_init__(self) -> None:
        vals = (self.smoothness, self.noise_sq, self.noise_scale, self.heterogeneity_sq)
        if not all(math.isfinite(v) and v >= 0 for v in vals):
            raise ConfigError(f"constants must be finite and non-negative, got {vals}")
        if self.noise_scale < 1.0:
            raise ConfigError(f"noise_scale must be >= 1, got {self.noise_scale}")


def exact_constants(task: QuadraticTask) -> AssumptionConstants:
    """Closed-form constants for the shared-curvature quadratic."""
    return AssumptionConstants(
        smoothness=task.smoothness(),
        noise_sq=task.noise_sq(),
        noise_scale=1.0,
        heterogeneity_sq=task.heterogeneity_sq(),
    )


def theorem_step_size(
    constants: AssumptionConstants,
    num_devices: int,
    group_size: int,
    batch_size: int,
    rounds: int,
) -> float:
    """Step size beta / sqrt(K+1), capped at the 2/L stability limit."""
    big_l = constants.smoothness
    big_m = constants.noise_scale
    beta = (group_size * batch_size / (2 * big_l * num_devices)) * (
        math.sqrt(1 + 8 * num_devices / (batch_size * big_m)) - 1
    )
    eta = beta / math.sqrt(rounds + 1)
    cap = 2.0 / big_l
    if eta > cap:
        warnings.warn(
            f"schedule step size {eta:.3g} exceeds stability cap {cap:.3g}; capping",
            stacklevel=2,
        )
        return cap
    return eta


@dataclass
class RatePoint:
    num_groups: int
    group_size: int
    eta: float
    per_seed: list[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.per_seed))

    @property
    def std_error(self) -> float:
        if len(self.per_seed) < 2:
            return float("nan")
        return float(np.std(self.per_seed, ddof=1) / np.sqrt(len(self.per_seed)))


@dataclass
class RateTrendReport:
    points: list[RatePoint]
    rounds: int
    skipped: list[int] = field(default_factory=list)
    kscale_ratio: Optional[float] = None

    def monotone_in_groups(self) -> bool:
        means = [p.mean for p in self.points]
        return all(b >= a for a, b in zip(means, means[1:]))

    def adjacent_separations(self) -> list[float]:
        """Gap between consecutive group counts in units of the pooled SE."""
        seps = []
        for a, b in zip(self.points, self.points[1:]):
            pooled = math.sqrt(a.std_error**2 + b.std_error**2)
            seps.append((b.mean - a.mean) / pooled if pooled > 0 else math.inf)
        return seps

    def to_dict(self) -> dict:
        """The report as strict JSON values: a non-finite float becomes None."""
        return {
            "rounds": self.rounds,
            "skipped_groups": self.skipped,
            "monotone_in_groups": self.monotone_in_groups(),
            "adjacent_separations": [_finite(x) for x in self.adjacent_separations()],
            "kscale_group": KSCALE_GROUP,
            "kscale_ratio": _finite(self.kscale_ratio),
            "points": [
                {
                    "num_groups": p.num_groups,
                    "group_size": p.group_size,
                    "eta": p.eta,
                    "mean_avg_grad_norm_sq": _finite(p.mean),
                    "std_error": _finite(p.std_error),
                    "per_seed": [_finite(x) for x in p.per_seed],
                }
                for p in self.points
            ],
        }


def _finite(value: Optional[float]) -> Optional[float]:
    return value if value is not None and math.isfinite(value) else None


def _avg_grad_norm_sq_run(
    task: QuadraticTask,
    num_groups: int,
    rounds: int,
    seed: int,
    eta: float,
    batch_size: int,
    initial: Optional[np.ndarray],
) -> float:
    n = task.num_devices
    cfg = SystemConfig(
        num_devices=n,
        group_size=n // num_groups,
        compute_slots=1,
        horizon=max(1, rounds * (n + 2) * 2),
        step_size=eta,
        batch_size=batch_size,
    )
    learner = SgdLearner(task, cfg, seed=seed, initial=initial)
    result = run_timeline(cfg, learner, max_rounds=rounds, record_events=False)
    return result.metrics.avg_grad_norm_sq()


def rate_trend(
    task: QuadraticTask,
    group_counts: Sequence[int],
    rounds: int,
    seeds: Sequence[int],
    *,
    batch_size: int = 4,
    initial: Optional[np.ndarray] = None,
) -> RateTrendReport:
    """Average squared gradient norm versus the number of TDMA groups.

    Runs the full pipeline for each group count (group size N / G) with the
    schedule step size derived from the task's exact constants, averaging over
    seeds. Also reruns group count KSCALE_GROUP with KSCALE_FACTOR times the
    rounds to expose the budget scaling of the average. Group counts that do
    not divide N are skipped and listed in the report; if none is left,
    ConfigError. A task other than a QuadraticTask is a ConfigError.
    """
    if not isinstance(task, QuadraticTask):
        raise ConfigError("rate_trend needs a QuadraticTask, whose constants are exact")
    constants = exact_constants(task)
    n = task.num_devices
    points, skipped = [], []
    for g in group_counts:
        if g < 1 or n % g != 0:
            skipped.append(g)
            continue
        eta = theorem_step_size(constants, n, n // g, batch_size, rounds)
        vals = [
            _avg_grad_norm_sq_run(task, g, rounds, seed, eta, batch_size, initial)
            for seed in seeds
        ]
        points.append(RatePoint(num_groups=g, group_size=n // g, eta=eta, per_seed=vals))
    if not points:
        raise ConfigError(f"no group count in {list(group_counts)} divides {n} devices")
    points.sort(key=lambda p: p.num_groups)

    ratio = None
    if n % KSCALE_GROUP == 0:
        short = next((p for p in points if p.num_groups == KSCALE_GROUP), None)
        if short is None:
            eta = theorem_step_size(constants, n, n // KSCALE_GROUP, batch_size, rounds)
            short_vals = [
                _avg_grad_norm_sq_run(task, KSCALE_GROUP, rounds, seed, eta, batch_size, initial)
                for seed in seeds
            ]
        else:
            short_vals = short.per_seed
        long_rounds = rounds * KSCALE_FACTOR
        eta_long = theorem_step_size(constants, n, n // KSCALE_GROUP, batch_size, long_rounds)
        long_vals = [
            _avg_grad_norm_sq_run(task, KSCALE_GROUP, long_rounds, seed, eta_long, batch_size, initial)
            for seed in seeds
        ]
        ratio = float(np.mean(short_vals) / np.mean(long_vals))

    return RateTrendReport(
        points=points,
        rounds=rounds,
        skipped=skipped,
        kscale_ratio=ratio,
    )
