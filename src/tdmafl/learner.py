"""Stale-gradient SGD: H local steps on a device, one averaged server step.

A device runs H mini-batch SGD steps from the model it last received and
uploads the scaled parameter delta (w_start - w_end) / eta. The server treats
that quantity exactly like a gradient: it averages the S uploads of a round
and takes one step. For H = 1 the upload is literally the single mini-batch
gradient, so the single-step equations are recovered verbatim; for H > 1 the
same server rule reproduces H-step local SGD.

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


@dataclass
class SgdLearner:
    """The update rule the slot scheduler drives.

    Device ids arriving from the scheduler are 1-based; shard indices are
    0-based. Batch randomness is keyed on (seed, device, round).
    """

    task: Task
    step_size: float
    batch_size: int
    local_steps: int = 1
    seed: int = 0
    initial: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.local_steps < 1 or self.step_size <= 0:
            raise ConfigError("need local_steps >= 1 and step_size > 0")

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
        device = device_id - 1
        rng = self.rng_for(device_id, round_index)
        start = np.asarray(model, dtype=float)
        w = start.copy()
        for _ in range(self.local_steps):
            batch = self.task.sample_batch(device, self.batch_size, rng)
            w -= self.step_size * self.task.grad(w, device, batch)
        return (start - w) / self.step_size

    def apply_round(self, model: np.ndarray, updates: Sequence[np.ndarray]) -> np.ndarray:
        """One server step: w - eta * mean(updates), summed in upload order."""
        total = np.zeros(model.shape)
        for update in updates:
            if update.shape != model.shape:
                raise ConfigError(
                    f"update dimension {update.shape} does not match model {model.shape}"
                )
            total += update
        new_model = model - self.step_size * (total / len(updates))
        if not np.all(np.isfinite(new_model)):
            raise NumericsError("non-finite parameters after a server step; reduce the step size")
        return new_model

    def round_metrics(self, model: np.ndarray) -> tuple[float, float]:
        g = self.task.grad(model)
        return self.task.loss(model), float(g @ g)
