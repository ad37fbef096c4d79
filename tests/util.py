"""Shared oracles for the test suite."""

from __future__ import annotations

import struct

import numpy as np


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
