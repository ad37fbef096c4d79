"""Stale-gradient SGD: H local steps on a device, one averaged server step.

A device runs H mini-batch SGD steps from the model it last received and
uploads the scaled parameter delta (w_start - w_end) / eta. The server treats
that quantity exactly like a gradient: it averages the S uploads of a round
and takes one step. For H = 1 the upload is literally the single mini-batch
gradient, so the single-step equations are recovered verbatim; for H > 1 the
same server rule reproduces H-step local SGD.

The step size eta, the batch size B and the local step count H are read from
the learner's SystemConfig. ``run_timeline`` refuses a learner whose config is
not the one it schedules, so the updates it drives use the run's B, H and eta.

Each of the H steps draws a fresh mini-batch, without replacement within the
batch, from a generator keyed on (seed, device, round), so reruns are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, NumericsError, SamplingError
from .tasks import Task
from .timing import SystemConfig, require_integer


@dataclass
class SgdLearner:
    """The update rule the slot scheduler drives.

    eta, B and H come from ``config`` (``step_size``, ``batch_size`` and
    ``local_steps``), which has already validated them. Device ids arriving
    from the scheduler are 1-based; shard indices are 0-based. Batch
    randomness is keyed on (seed, device, round); ``seed``, an integer >= 0,
    is read once at construction. A batch larger than some device's shard is
    a SamplingError at construction, not when that device first trains.
    """

    task: Task
    config: SystemConfig
    seed: int = 0
    initial: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        require_integer("seed", self.seed, 0)
        sizes = self.task.shard_sizes
        size = min(sizes)
        if self.config.batch_size > size:
            raise SamplingError(f"batch_size {self.config.batch_size} exceeds shard size "
                                f"{size} of device {sizes.index(size)}")
        seed = int(self.seed)
        self._seed_words = [(seed >> shift) & 0xFFFFFFFF
                            for shift in range(0, max(seed.bit_length(), 1), 32)]

    def initial_model(self) -> np.ndarray:
        if self.initial is not None:
            return np.array(self.initial, dtype=float, copy=True)
        return np.zeros(self.task.dim)

    def rng_for(self, device_id: int, round_index: int) -> np.random.Generator:
        """The generator of ``default_rng([seed, device_id, round_index])``.

        ``SeedSequence`` splits each Python int of a list into little-endian
        32-bit words, one array per int, and that coercion costs more than the
        rest of the seeding. The seed's words are split once at construction;
        one uint32 array of them and the two ids gives the same entropy, hence
        the same stream. ``index`` makes a numpy integer a Python int, so with
        numpy 2 an id >= 2**32 raises OverflowError instead of wrapping.
        """
        key = [*self._seed_words, index(device_id), index(round_index)]
        return np.random.default_rng(np.array(key, dtype=np.uint32))

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
