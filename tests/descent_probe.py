"""Exact probe of the per-round descent inequality, and constant estimation.

Test-side oracles for the convergence analysis:

* the regularity constants of a task, exact for the shared-curvature
  quadratic;
* estimating those constants (smoothness, per-sample
  gradient second-moment envelope, gradient dispersion across devices) from
  gradient evaluations alone, as upper envelopes over everything witnessed;
* an exact check of the per-round descent inequality on the quadratic: the
  right side comes from full gradients and the constants, the left side
  (expected post-update loss over fresh batch draws) from the mean and
  covariance of the batch means. Nothing is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from tdmafl import ConfigError, SystemConfig, idfl_staleness, run_timeline
from tdmafl.tasks import QuadraticTask, Task
from util import RecordingLearner


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
    """Closed-form constants for the shared-curvature quadratic.

    Device gradients differ from the global one by their mean offsets, and
    sample gradients from their device's by their offsets' deviations.
    """
    device_offsets = task.sample_offsets.mean(axis=1)
    spread = device_offsets - device_offsets.mean(axis=0)
    noise = task.sample_offsets - device_offsets[:, None, :]
    return AssumptionConstants(
        smoothness=task.smoothness(),
        noise_sq=float((noise * noise).sum(axis=2).mean(axis=1).max()),
        noise_scale=1.0,
        heterogeneity_sq=float((spread * spread).sum(axis=1).max()),
    )


# Multiplicative guard so the reported envelope never dips below a witnessed
# ratio through rounding alone.
_ENVELOPE_GUARD = 1.0 + 1e-9
_POWER_ITERS = 60  # power-iteration steps that sharpen the smoothness estimate
_NOISE_POINTS = 16  # leading probe points that feed the noise-envelope fit


def persample_grad_sq_mean(task: Task, w: np.ndarray, device: int) -> float:
    """Mean over the shard of the squared single-sample gradient norm."""
    total = 0.0
    for i in range(task.shard_sizes[device]):
        gi = task.grad(w, device, np.array([i]))
        total += float(gi @ gi)
    return total / task.shard_sizes[device]


def estimate_constants(
    task: Task,
    sample_count: int,
    radius: float,
    rng: np.random.Generator,
) -> AssumptionConstants:
    """Estimate regularity constants from sampled gradient evaluations.

    Smoothness: the largest gradient-difference ratio over sampled point
    pairs, sharpened by power iteration on gradient differences from the best
    pair (for quadratics this converges to the top curvature). Dispersion:
    the largest witnessed deviation of a device gradient from the global
    gradient. Noise envelope: least-squares fit of the per-sample gradient
    second moment against the squared device gradient, lifted so no witnessed
    point sits above the line.
    """
    if sample_count < 2:
        raise ConfigError(f"sample_count must be >= 2, got {sample_count}")
    dim = task.dim
    points = radius * rng.normal(size=(sample_count, dim)) / np.sqrt(dim)
    if max(
        float(np.linalg.norm(points[i] - points[i - 1]))
        for i in range(1, sample_count)
    ) == 0.0:
        raise ConfigError("degenerate sampling: all probe points coincide")

    grads = [task.grad(w) for w in points]
    best_ratio, best_pair = 0.0, (points[0], points[1])
    for i in range(1, sample_count):
        step = points[i] - points[i - 1]
        dist = float(np.linalg.norm(step))
        if dist == 0.0:
            continue
        ratio = float(np.linalg.norm(grads[i] - grads[i - 1])) / dist
        if ratio > best_ratio:
            best_ratio, best_pair = ratio, (points[i - 1], points[i])

    # Power iteration on gradient differences around the strongest pair.
    base = best_pair[0]
    gbase = task.grad(base)
    direction = best_pair[1] - base
    h = max(1e-3, 0.01 * radius)
    direction *= h / np.linalg.norm(direction)
    smooth = best_ratio
    for _ in range(_POWER_ITERS):
        diff = task.grad(base + direction) - gbase
        norm = float(np.linalg.norm(diff))
        if norm == 0.0:
            break
        smooth = max(smooth, norm / h)
        direction = diff * (h / norm)
    smooth *= _ENVELOPE_GUARD

    hetero = 0.0
    for w in points:
        g = task.grad(w)
        for dev in range(task.num_devices):
            diff = g - task.grad(w, dev)
            hetero = max(hetero, float(diff @ diff))

    xs, ys = [], []
    for w in points[:_NOISE_POINTS]:
        for dev in range(task.num_devices):
            gd = task.grad(w, dev)
            xs.append(float(gd @ gd))
            ys.append(persample_grad_sq_mean(task, w, dev))
    xs_arr, ys_arr = np.asarray(xs), np.asarray(ys)
    design = np.stack([np.ones_like(xs_arr), xs_arr], axis=1)
    (_, slope), *_ = np.linalg.lstsq(design, ys_arr, rcond=None)
    scale = max(1.0, float(slope)) * _ENVELOPE_GUARD
    noise_sq = max(0.0, float((ys_arr - scale * xs_arr).max())) * _ENVELOPE_GUARD

    return AssumptionConstants(
        smoothness=smooth,
        noise_sq=noise_sq,
        noise_scale=scale,
        heterogeneity_sq=hetero * _ENVELOPE_GUARD,
    )


def descent_rhs(
    task: Task,
    constants: AssumptionConstants,
    eta: float,
    batch_size: int,
    w_now: np.ndarray,
    stale_models: Sequence[np.ndarray],
    transmitters: Sequence[int],
) -> float:
    """Exact upper bound on the expected post-update loss for one round state.

    All expectations on this side reduce to full-gradient quantities plus the
    noise envelope, so no sampling is involved. The group size S is the
    number of transmitters, each paired with the stale model it trained on.
    """
    s = len(transmitters)
    if s == 0 or len(stale_models) != s:
        raise ConfigError("need one stale model per transmitter, and at least one")
    big_l = constants.smoothness
    sigma_sq = constants.noise_sq
    big_m = constants.noise_scale
    gamma_sq = constants.heterogeneity_sq
    b = batch_size

    g_now = task.grad(w_now)
    sum_local_sq = 0.0
    sum_drift_sq = 0.0
    for dev, w_old in zip(transmitters, stale_models):
        g_local = task.grad(w_old, dev)
        sum_local_sq += float(g_local @ g_local)
        delta = w_now - w_old
        sum_drift_sq += float(delta @ delta)

    return (
        task.loss(w_now)
        - 0.5 * eta * float(g_now @ g_now)
        + (eta**2 * big_m * big_l / (2 * s**2 * b) - eta / (2 * s)) * sum_local_sq
        + 0.5 * eta * gamma_sq
        + (eta * big_l**2 / (2 * s)) * sum_drift_sq
        + eta**2 * sigma_sq * big_l / (2 * s * b)
    )


def descent_lhs(
    task: QuadraticTask,
    eta: float,
    batch_size: int,
    w_now: np.ndarray,
    stale_models: Sequence[np.ndarray],
    transmitters: Sequence[int],
) -> float:
    """Exact expected post-update loss E f(w+) over fresh batch draws.

    Every batch gradient is A w_old - (mean of the batch's offsets), so
    w+ = w_now - (eta/S) sum_dev (A w_old,dev - b_dev,batch) with S independent
    batch means. A mean of B of a shard's n offsets, drawn without
    replacement, has the shard's population covariance times
    (n - B) / ((n - 1) B), and 0 when B = n. Hence
    E f(w+) = f(E w+) + tr(A Cov w+) / 2.
    """
    s = len(transmitters)
    mean = w_now - (eta / s) * sum(
        task.grad(w_old, dev) for dev, w_old in zip(transmitters, stale_models)
    )
    n = task.shard_sizes[0]
    shrink = 0.0 if batch_size == n else (n - batch_size) / ((n - 1) * batch_size)
    offsets = task.sample_offsets[list(transmitters)]  # (S, n, dim)
    centered = offsets - offsets.mean(axis=1, keepdims=True)
    cov = np.einsum("sni,snj->ij", centered, centered) * (shrink / n * (eta / s) ** 2)
    return task.loss(mean) + 0.5 * float(np.sum(task.hessian * cov))


def check_descent_lemma(
    task: QuadraticTask,
    constants: AssumptionConstants,
    cfg: SystemConfig,
    seed: int,
    *,
    trajectory_rounds: int = 200,
    initial: Optional[np.ndarray] = None,
) -> list[tuple[int, float]]:
    """The descent inequality's margin at every round of an actual run.

    A pipeline run supplies the round states: the current model, and the
    stale model that round k's transmitters trained on. By the schedule law
    those are group k mod G, all idfl_staleness(k) rounds behind. Each round
    from min(G, K - 1) on compares the exact right side with the exact left
    side; returns (round, margin) pairs, and the inequality holds where
    margin >= 0. Both sides model single-step local updates, so
    ``cfg.local_steps`` must be 1.
    """
    if cfg.local_steps != 1:
        raise ConfigError(
            f"the descent-lemma probe models one local step, got local_steps={cfg.local_steps}"
        )
    learner = RecordingLearner(task, cfg, seed=seed, initial=initial)
    result = run_timeline(cfg, learner, max_rounds=trajectory_rounds, metrics_every=0)
    history = learner.models
    g, s = cfg.num_groups, cfg.group_size

    out = []
    for k in range(min(g, result.completed_rounds - 1), result.completed_rounds):
        transmitters = list(range(k % g * s, (k % g + 1) * s))
        stale_models = [history[k - idfl_staleness(k, cfg)]] * s
        w_now = history[k]
        rhs = descent_rhs(
            task, constants, cfg.step_size, cfg.batch_size,
            w_now, stale_models, transmitters,
        )
        lhs = descent_lhs(
            task, cfg.step_size, cfg.batch_size, w_now, stale_models, transmitters,
        )
        out.append((k, rhs - lhs))
    return out
