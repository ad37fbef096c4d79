"""Dataset ingestion and device-shard provisioning.

Covers the IDX binary image/label format (gzip transparently supported), the
CIFAR-10 binary batch format, a synthetic clustered-label generator for desk
scale runs, and the heterogeneous single-label partitioning used by the
non-IID experiments.
"""

from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, IdxParseError

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 32*32*3 pixels
LABEL_RETRIES = 20  # label draws per device in partition_single_label


@dataclass
class LabeledDataset:
    """Flat feature vectors with integer labels."""

    features: np.ndarray  # (D, d) float64
    labels: np.ndarray    # (D,) int64

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise DataError("features must be (D, d) and labels (D,)")
        if self.features.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"count mismatch: {self.features.shape[0]} feature rows vs "
                f"{self.labels.shape[0]} labels"
            )

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self) else 0


def _open_maybe_gzip(path):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_be32(fh, field: str) -> int:
    raw = fh.read(4)
    if len(raw) != 4:
        raise IdxParseError(f"truncated IDX file while reading {field}")
    return struct.unpack(">i", raw)[0]


def _read_idx(path, ndim: int, payload: str) -> np.ndarray:
    """Read an IDX file of unsigned bytes with ``ndim`` dimensions.

    The header is the magic 0x800 + ndim, then ndim big-endian int32
    dimensions; the payload is their product of bytes. Returns a read-only
    uint8 view of that shape.
    """
    with _open_maybe_gzip(path) as fh:
        magic = _read_be32(fh, "magic")
        if magic != 0x800 + ndim:
            raise IdxParseError(f"bad magic in {path}: expected {0x800 + ndim:#010x} "
                                f"({ndim}-dimensional IDX), got {magic:#010x}")
        shape = [_read_be32(fh, f"dimension {axis}") for axis in range(ndim)]
        if min(shape) < 0:
            raise IdxParseError(f"negative dimension in the header of {path}")
        size = math.prod(shape)
        raw = fh.read(size)
    if len(raw) != size:
        raise IdxParseError(f"truncated {payload} data: expected {size} bytes, got {len(raw)}")
    return np.frombuffer(raw, dtype=np.uint8).reshape(shape)


def load_idx_images(path) -> np.ndarray:
    """Read an IDX image file into a read-only uint8 array of shape (count, rows, cols)."""
    return _read_idx(path, 3, "pixel")


def load_idx_labels(path) -> np.ndarray:
    """Read an IDX label file into a uint8 array of shape (count,)."""
    return _read_idx(path, 1, "label").copy()


def load_idx_dataset(images_path, labels_path) -> LabeledDataset:
    """Load paired IDX files; pixels are flattened and scaled to [0, 1]."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxParseError(
            f"count mismatch between files: {images.shape[0]} images vs "
            f"{labels.shape[0]} labels"
        )
    flat = images.reshape(images.shape[0], -1).astype(float)
    flat /= 255.0  # in place: one float64 copy of the pixels, not two
    return LabeledDataset(features=flat, labels=labels.astype(np.int64))


def _read_cifar_batch(path) -> np.ndarray:
    """One CIFAR-10 binary batch as a read-only uint8 array of records."""
    raw = Path(path).read_bytes()
    if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
        raise DataError(f"{path}: size {len(raw)} is not a multiple of {CIFAR_RECORD_BYTES}")
    return np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)


def load_cifar10_batches(paths: Sequence) -> LabeledDataset:
    """Load CIFAR-10 binary batches; pixels are flattened and scaled to [0, 1].

    The batches are joined as bytes and the one float64 copy is scaled in
    place, so the peak is that copy and an eighth more, the joined bytes.
    """
    records = [_read_cifar_batch(path) for path in paths]
    if not records:
        raise DataError("no CIFAR batch files given")
    records = np.concatenate(records)  # the file bytes are released here
    feats = records[:, 1:].astype(float)
    feats /= 255.0
    return LabeledDataset(feats, records[:, 0].astype(np.int64))


def make_clustered_dataset(
    num_classes: int,
    dim: int,
    per_class: int,
    rng: np.random.Generator,
    *,
    spread: float = 3.0,
    noise: float = 1.0,
) -> LabeledDataset:
    """Gaussian blobs, one per class; a quick stand-in for real image data."""
    if num_classes < 2 or per_class < 1 or dim < 1:
        raise DataError("need num_classes >= 2, per_class >= 1, dim >= 1")
    centers = rng.normal(size=(num_classes, dim))
    centers *= spread / np.linalg.norm(centers, axis=1, keepdims=True)
    feats = np.concatenate(
        [c + noise * rng.normal(size=(per_class, dim)) for c in centers]
    )
    labels = np.repeat(np.arange(num_classes), per_class)
    return LabeledDataset(feats, labels)


def partition_single_label(
    dataset: LabeledDataset,
    num_devices: int,
    per_device: int,
    rng: np.random.Generator,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Give every device ``per_device`` samples of one randomly chosen label.

    Labels are drawn uniformly per device; samples are drawn without
    replacement across the whole partition. If the chosen label runs out of
    samples the label is redrawn up to ``LABEL_RETRIES`` times before failing.
    Returns the per-device feature and label lists the task classes take.
    """
    if len(dataset) < num_devices * per_device:
        raise DataError(
            f"dataset has {len(dataset)} samples, need {num_devices * per_device}"
        )
    label_values = np.unique(dataset.labels)
    pools = {}  # per label, the unused indices; a device takes the last ones, last first
    for lab in label_values:
        idx = np.flatnonzero(dataset.labels == lab)
        pools[int(lab)] = rng.permutation(idx)

    feats, labels = [], []
    for dev in range(num_devices):
        chosen = None
        for _ in range(LABEL_RETRIES):
            lab = int(rng.choice(label_values))
            if len(pools[lab]) >= per_device:
                chosen = lab
                break
        if chosen is None:
            raise DataError(
                f"could not find a label with {per_device} remaining samples "
                f"for device {dev} after {LABEL_RETRIES} draws"
            )
        pool = pools[chosen]
        rest = len(pool) - per_device
        take, pools[chosen] = pool[rest:][::-1], pool[:rest]
        feats.append(dataset.features[take])
        labels.append(dataset.labels[take])
    return feats, labels


def partition_iid(
    dataset: LabeledDataset,
    num_devices: int,
    per_device: int,
    rng: np.random.Generator,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Disjoint uniform shards, label-agnostic, as (features, labels) lists."""
    need = num_devices * per_device
    if len(dataset) < need:
        raise DataError(f"dataset has {len(dataset)} samples, need {need}")
    order = rng.permutation(len(dataset))[:need]
    feats, labels = [], []
    for dev in range(num_devices):
        take = order[dev * per_device: (dev + 1) * per_device]
        feats.append(dataset.features[take])
        labels.append(dataset.labels[take])
    return feats, labels
