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
bit-identical. Its stream is that of ``default_rng([seed, device, round])``,
but the seeding is done for a block of keys at once: ``run_timeline`` reads
the keys of the next rounds off the schedule law, and ``rng_for`` hashes them
all in one numpy pass into PCG64's seed words, by the algorithm of numpy's
``SeedSequence`` (O'Neill's ``seed_seq_fe``). Each generator is then built
from its four words alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from operator import index
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, NumericsError, SamplingError
from .tasks import Task
from .timing import SystemConfig, require_integer


def check_batch_size(task: Task, batch_size: int) -> None:
    """Raise SamplingError unless every device's shard holds ``batch_size`` samples."""
    size = min(task.shard_sizes)
    if batch_size > size:
        raise SamplingError(f"batch_size {batch_size} exceeds shard size "
                            f"{size} of device {task.shard_sizes.index(size)}")


MASK32 = 0xFFFFFFFF
# numpy's SeedSequence constants: the pool's and the state's hash chains, and the mix.
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_chain(h: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's word hash: each call xors in h, steps h to h * mult and multiplies by it."""
    def hash_word(value):
        nonlocal h
        xor, h = np.uint32(h), h * mult & MASK32
        value = (value ^ xor) * np.uint32(h)
        return value ^ (value >> 16)
    return hash_word


def pcg64_seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, uint64)`` for each column e of ``entropy``.

    ``entropy`` is an (L, n) uint32 array, one key's words per column, and
    the result the (n, 4) uint64 words. Each step of numpy's algorithm runs
    on a uint32 row of n keys, so every product wraps as an array operation
    (a numpy scalar would warn on overflow).
    """
    if len(entropy) < 4:  # the pool hashes a 0 for each word it lacks
        entropy = np.concatenate([entropy, np.zeros((4 - len(entropy), entropy.shape[1]),
                                                    np.uint32)])
    hashmix = _hash_chain(INIT_A, MULT_A)

    def mix(x, y):
        value = MIX_MULT_L * x - MIX_MULT_R * y
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state_hash = _hash_chain(INIT_B, MULT_B)
    state = np.stack([state_hash(pool[i % 4]) for i in range(8)], axis=1)
    # SeedSequence reads pairs of words as little-endian uint64s.
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@cache
def _generator_from_words() -> Callable[[np.ndarray], np.random.Generator]:
    """``words -> Generator(PCG64(...))`` seeded with the four words.

    Built on first use: a timing-only run never imports numpy.random.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """A seed sequence whose state, PCG64's four uint64 words, is already computed."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return lambda words: Generator(PCG64(SeedWords(words)))


def _uint32_ids(ids) -> np.ndarray:
    """``ids`` as uint32: TypeError for a non-integer, OverflowError outside [0, 2**32)."""
    if isinstance(ids, np.ndarray):
        if ids.dtype.kind not in "iu":
            raise TypeError(f"ids must be integers, not {ids.dtype}")
        outside = ids.size > 0 and (ids.min() < 0 or ids.max() > MASK32)
    else:
        ids = [index(i) for i in ids]
        outside = not all(0 <= i <= MASK32 for i in ids)
    if outside:
        raise OverflowError("device and round ids must lie in [0, 2**32)")
    return np.asarray(ids, dtype=np.uint32)


@dataclass
class SgdLearner:
    """The update rule the slot scheduler drives.

    eta, B and H come from ``config`` (``step_size``, ``batch_size`` and
    ``local_steps``), which has already validated them. Device ids arriving
    from the scheduler are 1-based; shard indices are 0-based. Batch
    randomness is keyed on (seed, device, round); ``seed``, an integer >= 0,
    is read once at construction. A batch larger than some device's shard is
    a SamplingError at construction, not when that device first trains, and an
    ``initial`` model not of shape (task.dim,), or not finite, is a ConfigError.
    """

    task: Task
    config: SystemConfig
    seed: int = 0
    initial: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        require_integer("seed", self.seed, 0)
        check_batch_size(self.task, self.config.batch_size)
        if self.initial is not None:
            if np.shape(self.initial) != (self.task.dim,):
                raise ConfigError(f"initial has shape {np.shape(self.initial)}, "
                                  f"not {(self.task.dim,)}")
            bad = np.flatnonzero(~np.isfinite(self.initial))
            if bad.size:
                raise ConfigError(f"initial must be finite; {bad.size} of its {self.task.dim} "
                                  f"entries are not, the first at index {bad[0]}")
        seed = int(self.seed)
        self._seed_words = np.array([(seed >> shift) & MASK32
                                     for shift in range(0, max(seed.bit_length(), 1), 32)],
                                    dtype=np.uint32)

    def initial_model(self) -> np.ndarray:
        if self.initial is not None:
            return np.array(self.initial, dtype=float, copy=True)
        return np.zeros(self.task.dim)

    def rng_for(self, device_ids: Sequence[int],
                round_indices: Sequence[int]) -> Iterator[np.random.Generator]:
        """The generators of ``default_rng([seed, device, round])`` for each key, in order.

        One call seeds a block of keys: the seed's words (split once at
        construction) and the two ids form each key's uint32 entropy, the
        same entropy ``default_rng`` makes of the int list, and
        ``pcg64_seed_words`` hashes every key's entropy at once. The words are
        held, 32 bytes a key; each generator is built as the iterator reaches
        it. An id outside [0, 2**32) is an OverflowError, a non-integer one a
        TypeError.
        """
        devices = _uint32_ids(device_ids)
        entropy = np.empty((len(self._seed_words) + 2, len(devices)), np.uint32)
        entropy[:-2] = self._seed_words[:, None]
        entropy[-2] = devices
        entropy[-1] = _uint32_ids(round_indices)
        return map(_generator_from_words(), pcg64_seed_words(entropy))

    def local_update(self, device_id: int, model: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
        """Run H local SGD steps and return the transmitted update direction.

        ``rng`` draws the H batches: the generator ``rng_for`` gives for
        (device_id, round the model was received in). Returns
        (w_start - w_end) / eta so that the server step w - eta * mean
        reproduces the local trajectory; with H = 1 this equals the mini-batch
        gradient itself.
        """
        cfg = self.config
        eta = cfg.step_size
        device = device_id - 1
        w = start = np.asarray(model, dtype=float)
        for _ in range(cfg.local_steps):
            batch = self.task.sample_batch(device, cfg.batch_size, rng)
            w = w - eta * self.task.grad(w, device, batch)
        return (start - w) / eta

    def apply_round(self, model: np.ndarray, updates: Sequence[np.ndarray]) -> np.ndarray:
        """One server step: w - eta * mean(updates), summed in upload order."""
        total = np.zeros(model.shape)
        for update in updates:
            if update.shape != model.shape:
                raise ConfigError(f"update dimension {update.shape} does not match "
                                  f"model {model.shape}")
            total += update
        new_model = model - self.config.step_size * (total / len(updates))
        if not np.isfinite(new_model).all():
            raise NumericsError("non-finite parameters after a server step; reduce the step size")
        return new_model

    def round_metrics(self, model: np.ndarray) -> tuple[float, float]:
        """Global loss and squared gradient norm (one pass); a non-finite one is a NumericsError."""
        loss, g = self.task.loss_and_grad(model)
        loss, norm_sq = float(loss), float(g @ g)
        if not (math.isfinite(loss) and math.isfinite(norm_sq)):
            raise NumericsError("non-finite loss or gradient norm; reduce the step size")
        return loss, norm_sq
