"""Monte-Carlo probe of the per-round descent inequality, and constant estimation.

Test-side oracles for the convergence analysis:

* the regularity constants of a task, exact for the shared-curvature
  quadratic;
* estimating those constants (smoothness, per-sample
  gradient second-moment envelope, gradient dispersion across devices) from
  gradient evaluations alone, as upper envelopes over everything witnessed;
* a Monte-Carlo check of the per-round descent inequality: the right side is
  evaluated exactly from full gradients and the constants, only the left side
  (expected post-update loss over fresh batch draws) is sampled.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from tdmafl import ConfigError, SgdLearner, SystemConfig, idfl_staleness, run_timeline
from tdmafl.tasks import QuadraticTask, Task


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


def _batches_without_replacement(
    trials: int, shard_size: int, batch_size: int, rng: np.random.Generator
) -> np.ndarray:
    """(trials, batch_size) index array, each row a uniform distinct subset."""
    keys = rng.random((trials, shard_size))
    return np.argpartition(keys, batch_size - 1, axis=1)[:, :batch_size]


def descent_lhs_mc(
    task: Task,
    eta: float,
    batch_size: int,
    w_now: np.ndarray,
    stale_models: Sequence[np.ndarray],
    transmitters: Sequence[int],
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte-Carlo estimate (mean, standard error) of the post-update loss.

    Each trial redraws every transmitter's mini-batch, forms the averaged
    stale update, applies one server step, and evaluates the global loss.
    """
    if trials < 2:
        raise ConfigError(f"trials must be >= 2, got {trials}")
    s = len(transmitters)
    if isinstance(task, QuadraticTask):
        # Closed-form batched evaluation: the batch gradient is
        # A w_old - mean(batch offsets), so only the offset means are random.
        mean_updates = np.zeros((trials, task.dim))
        for dev, w_old in zip(transmitters, stale_models):
            fixed = task.hessian @ w_old
            idx = _batches_without_replacement(
                trials, task.shard_sizes[dev], batch_size, rng
            )
            batch_means = task.sample_offsets[dev][idx].mean(axis=1)
            mean_updates += fixed[None, :] - batch_means
        mean_updates /= s
        w_plus = w_now[None, :] - eta * mean_updates
        quad = 0.5 * np.einsum("ti,ij,tj->t", w_plus, task.hessian, w_plus)
        # grad(0) = -(mean offset) and loss(0) = mean constant, both exactly.
        zero = np.zeros(task.dim)
        lin = w_plus @ -task.grad(zero)
        values = quad - lin + task.loss(zero)
    else:
        values = np.empty(trials)
        for t in range(trials):
            acc = np.zeros(task.dim)
            for dev, w_old in zip(transmitters, stale_models):
                batch = task.sample_batch(dev, batch_size, rng)
                acc += task.grad(w_old, dev, batch)
            values[t] = task.loss(w_now - (eta / s) * acc)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(trials))


def check_descent_lemma(
    task: Task,
    constants: AssumptionConstants,
    cfg: SystemConfig,
    trials: int,
    rng: np.random.Generator,
    *,
    probes: int = 100,
    trajectory_rounds: int = 200,
    initial: Optional[np.ndarray] = None,
    target_se: Optional[float] = None,
) -> list[tuple[int, float, float]]:
    """Probe the descent inequality along states of an actual run.

    A pipeline run supplies probe states: the current model, and the stale
    model that round k's transmitters trained on. By the schedule law those
    are group k mod G, all idfl_staleness(k) rounds behind. For each probe the
    exact right side is compared against a Monte-Carlo estimate of the left
    side over fresh batch draws. Returns (round, margin, standard error) per
    probe; a probe passes when margin >= -3 standard errors. Both sides model
    single-step local updates, so ``cfg.local_steps`` must be 1.
    """
    if cfg.local_steps != 1:
        raise ConfigError(
            f"the descent-lemma probe models one local step, got local_steps={cfg.local_steps}"
        )
    learner = SgdLearner(task, cfg, seed=int(rng.integers(2**31)), initial=initial)
    result = run_timeline(
        cfg, learner, max_rounds=trajectory_rounds, record_events=False,
        metrics_every=0, keep_model_history=True,
    )
    history = result.model_history
    g, s = cfg.num_groups, cfg.group_size
    first = min(g, result.completed_rounds - 1)
    candidates = np.arange(first, result.completed_rounds)
    picks = rng.choice(candidates, size=probes, replace=len(candidates) < probes)

    out = []
    for k in sorted(picks.tolist()):
        transmitters = list(range(k % g * s, (k % g + 1) * s))
        stale_models = [history[k - idfl_staleness(k, cfg)]] * s
        w_now = history[k]
        rhs = descent_rhs(
            task, constants, cfg.step_size, cfg.batch_size,
            w_now, stale_models, transmitters,
        )
        lhs, se = descent_lhs_mc(
            task, cfg.step_size, cfg.batch_size,
            w_now, stale_models, transmitters, trials, rng,
        )
        out.append((k, rhs - lhs, se))
    if target_se is not None:
        worst = max(se for _, _, se in out)
        if worst > target_se:
            warnings.warn(
                f"Monte-Carlo standard error {worst:.3g} exceeds target {target_se:.3g}; "
                "increase trials",
                stacklevel=2,
            )
    return out
