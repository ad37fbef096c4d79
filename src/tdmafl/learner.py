"""Stale-gradient SGD: H local steps on a device, one averaged server step.

A device runs H mini-batch SGD steps from the model it last received and
uploads the scaled parameter delta (w_start - w_end) / eta. The server treats
that quantity exactly like a gradient: it averages the S uploads of a round
and takes one step. For H = 1 the upload is literally the single mini-batch
gradient, so the single-step equations are recovered verbatim; for H > 1 the
same server rule reproduces H-step local SGD.

The step size eta, the batch size B and the local step count H are read from
the run's SystemConfig, the same object that turns H and B into the compute
time tau_comp of the TDMA schedule, so the two can never disagree.

Each of the H steps draws a fresh mini-batch, without replacement within the
batch, from a generator keyed on (seed, device, round), so reruns are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, NumericsError
from .tasks import Task
from .timing import SystemConfig


@dataclass
class SgdLearner:
    """The update rule the slot scheduler drives.

    eta, B and H come from ``config`` (``step_size``, ``batch_size`` and
    ``local_steps``), which has already validated them. Device ids arriving
    from the scheduler are 1-based; shard indices are 0-based. Batch
    randomness is keyed on (seed, device, round).
    """

    task: Task
    config: SystemConfig
    seed: int = 0
    initial: Optional[np.ndarray] = None

    def initial_model(self) -> np.ndarray:
        if self.initial is not None:
            return np.array(self.initial, dtype=float, copy=True)
        return np.zeros(self.task.dim)

    def rng_for(self, device_id: int, round_index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, device_id, round_index])

    def local_update(self, device_id: int, model: np.ndarray, round_index: int) -> np.ndarray:
        """Run H local SGD steps and return the transmitted update direction.

        Returns (w_start - w_end) / eta so that the server step w - eta * mean
        reproduces the local trajectory; with H = 1 this equals the mini-batch
        gradient itself.
        """
        cfg = self.config
        eta = cfg.step_size
        device = device_id - 1
        rng = self.rng_for(device_id, round_index)
        start = np.asarray(model, dtype=float)
        w = start.copy()
        for _ in range(cfg.local_steps):
            batch = self.task.sample_batch(device, cfg.batch_size, rng)
            w -= eta * self.task.grad(w, device, batch)
        return (start - w) / eta

    def apply_round(self, model: np.ndarray, updates: Sequence[np.ndarray]) -> np.ndarray:
        """One server step: w - eta * mean(updates), summed in upload order."""
        total = np.zeros(model.shape)
        for update in updates:
            if update.shape != model.shape:
                raise ConfigError(
                    f"update dimension {update.shape} does not match model {model.shape}"
                )
            total += update
        new_model = model - self.config.step_size * (total / len(updates))
        if not np.all(np.isfinite(new_model)):
            raise NumericsError("non-finite parameters after a server step; reduce the step size")
        return new_model

    def round_metrics(self, model: np.ndarray) -> tuple[float, float]:
        """Global loss and squared gradient norm, from one pass over all data."""
        loss, g = self.task.loss_and_grad(model)
        return loss, float(g @ g)
