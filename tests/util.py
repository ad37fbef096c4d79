"""Shared oracles for the test suite."""

from __future__ import annotations

import struct

import numpy as np

from tdmafl import SgdLearner


def central_difference(func, w: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    w = np.asarray(w, dtype=float)
    grad = np.zeros_like(w)
    for i in range(w.size):
        bump = np.zeros_like(w)
        bump[i] = h
        grad[i] = (func(w + bump) - func(w - bump)) / (2 * h)
    return grad


def relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    denom = max(float(np.linalg.norm(expected)), 1e-12)
    return float(np.linalg.norm(actual - expected)) / denom


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def slot_trace(result) -> list[tuple[int, str, int, int]]:
    """The slot-level actions that a round table implies, as (slot, kind, device, round).

    Groups 0..m-1 start computing on model 0 at slot 0; a computation ends
    tau_comp - 1 slots after it starts. Round k's S uploads of r slots each
    fill the tau_comm - r slots before its broadcast (device 0), which ends at
    its downlink end; then group (k - alpha) mod G starts on model k + 1.
    """
    cfg = result.config
    s, r, g = cfg.group_size, cfg.slots_per_transfer, cfg.num_groups
    alpha, comp = cfg.intentional_delay, cfg.compute_slots

    def start(group, model_round, slot):
        return [action for dev in range(group * s + 1, (group + 1) * s + 1)
                for action in ((slot, "compute_start", dev, model_round),
                               (slot + comp - 1, "compute_done", dev, model_round))]

    trace = [action for group in range(g - alpha) for action in start(group, 0, 0)]
    for k, (chosen, end) in enumerate(zip(result.transmitter_sets, result.downlink_end_slots)):
        first_upload = end + 1 - cfg.tau_comm
        trace += [(first_upload + i * r, "uplink", dev, k) for i, dev in enumerate(chosen)]
        trace.append((end + 1 - r, "downlink", 0, k))
        trace += start((k - alpha) % g, k + 1, end + 1)
    return trace


class RecordingLearner(SgdLearner):
    """An SgdLearner that keeps its initial model and every model a server step returns."""

    def initial_model(self) -> np.ndarray:
        model = super().initial_model()
        self.models = [model.copy()]
        return model

    def apply_round(self, model, updates) -> np.ndarray:
        model = super().apply_round(model, updates)
        self.models.append(model.copy())
        return model


def write_idx_images(path, images: np.ndarray) -> None:
    """Write a uint8 (count, rows, cols) array as an IDX image file (magic 0x803)."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    assert images.ndim == 3
    with open(path, "wb") as fh:
        fh.write(struct.pack(">iiii", 0x00000803, *images.shape))
        fh.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    """Write a uint8 (count,) array as an IDX label file (magic 0x801)."""
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    assert labels.ndim == 1
    with open(path, "wb") as fh:
        fh.write(struct.pack(">ii", 0x00000801, labels.shape[0]))
        fh.write(labels.tobytes())
