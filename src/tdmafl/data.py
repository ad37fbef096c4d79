"""Dataset ingestion and device-shard provisioning.

Covers the IDX binary image/label format (gzip transparently supported), the
CIFAR-10 binary batch format, a synthetic clustered-label generator for desk
scale runs, and the heterogeneous single-label partitioning used by the
non-IID experiments. A dataset is the (features, labels) pair a classifier
task takes: a (D, d) float64 array and a (D,) int64 array; the task checks
their shapes and label range. A partition reads only the labels and returns
one index array into them, in device order and ``per_device`` entries per
device, so one gather of each array gives the task's pair. A single-label
partition draws each device's label from those that can still fill a shard,
so it fails only when the dataset or its labels are too small for every
device.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, IdxParseError

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 32*32*3 pixels


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
    uint8 view of that shape. The payload is read to the end of the file, so
    a header claiming more bytes than the file holds is a parse error. A file
    that cannot be opened, read or decompressed is a DataError that names it.
    """
    try:
        with _open_maybe_gzip(path) as fh:
            magic = _read_be32(fh, "magic")
            if magic != 0x800 + ndim:
                raise IdxParseError(f"bad magic in {path}: expected {0x800 + ndim:#010x} "
                                    f"({ndim}-dimensional IDX), got {magic:#010x}")
            shape = [_read_be32(fh, f"dimension {axis}") for axis in range(ndim)]
            if min(shape) < 0:
                raise IdxParseError(f"negative dimension in the header of {path}")
            size = math.prod(shape)
            raw = fh.read()
    except OSError as exc:  # a .gz file that is not gzip is one too
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (EOFError, zlib.error) as exc:  # a .gz file cut short or corrupt
        raise DataError(f"cannot read {path}: {exc}") from exc
    if len(raw) < size:
        raise IdxParseError(f"truncated {payload} data: expected {size} bytes, got {len(raw)}")
    return np.frombuffer(raw, dtype=np.uint8, count=size).reshape(shape)


def load_idx_images(path) -> np.ndarray:
    """Read an IDX image file into a read-only uint8 array of shape (count, rows, cols)."""
    return _read_idx(path, 3, "pixel")


def load_idx_labels(path) -> np.ndarray:
    """Read an IDX label file into a uint8 array of shape (count,)."""
    return _read_idx(path, 1, "label").copy()


def load_idx_dataset(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Load paired IDX files as (features, labels); pixels are flattened and scaled to [0, 1]."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxParseError(
            f"count mismatch between files: {images.shape[0]} images vs "
            f"{labels.shape[0]} labels"
        )
    count, rows, cols = images.shape
    flat = images.reshape(count, rows * cols).astype(float)  # -1 cannot size zero images
    flat /= 255.0  # in place: one float64 copy of the pixels, not two
    return flat, labels.astype(np.int64)


def _read_cifar_batch(path) -> np.ndarray:
    """One CIFAR-10 binary batch as a read-only uint8 array of records."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
        raise DataError(f"{path}: size {len(raw)} is not a multiple of {CIFAR_RECORD_BYTES}")
    return np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)


def load_cifar10_batches(paths: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Load CIFAR-10 binary batches as (features, labels); pixels are scaled to [0, 1].

    The batches are joined as bytes and the one float64 copy is scaled in
    place, so the peak is that copy and an eighth more, the joined bytes.
    """
    records = [_read_cifar_batch(path) for path in paths]
    if not records:
        raise DataError("no CIFAR batch files given")
    records = np.concatenate(records)  # the file bytes are released here
    feats = records[:, 1:].astype(float)
    feats /= 255.0
    return feats, records[:, 0].astype(np.int64)


def make_clustered_dataset(
    num_classes: int,
    dim: int,
    per_class: int,
    rng: np.random.Generator,
    *,
    spread: float = 3.0,
    noise: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian blobs, one per class, as (features, labels); a stand-in for real image data."""
    if num_classes < 2 or per_class < 1 or dim < 1:
        raise DataError("need num_classes >= 2, per_class >= 1, dim >= 1")
    centers = rng.normal(size=(num_classes, dim))
    centers *= spread / np.linalg.norm(centers, axis=1, keepdims=True)
    feats = np.empty((num_classes * per_class, dim))
    for center, rows in zip(centers, feats.reshape(num_classes, per_class, dim)):
        rng.standard_normal(out=rows)  # normal(size=...)'s draws, with no temporary
        rows *= noise
        rows += center
    labels = np.repeat(np.arange(num_classes), per_class)
    return feats, labels


def _check_shard_sizes(samples: int, num_devices: int, per_device: int) -> None:
    """Raise DataError unless both sizes are >= 1 and ``samples`` covers their product."""
    if min(num_devices, per_device) < 1:
        raise DataError(f"num_devices and per_device must be >= 1, got {num_devices}, {per_device}")
    if samples < num_devices * per_device:
        raise DataError(f"dataset has {samples} samples, need {num_devices * per_device}")


def partition_single_label(
    labels: np.ndarray,
    num_devices: int,
    per_device: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Give every device ``per_device`` samples of one randomly chosen label.

    Each device's label is drawn uniformly from the labels that still hold
    ``per_device`` unused samples; samples are drawn without replacement
    across the whole partition. A label holds floor(samples / per_device)
    shards, so the partition fails only if the dataset is too small or its
    labels hold fewer than ``num_devices`` shards.
    Returns the indices into ``labels`` in device order, ``per_device`` per device.
    """
    _check_shard_sizes(len(labels), num_devices, per_device)
    label_values, counts = np.unique(labels, return_counts=True)
    held = int((counts // per_device).sum())
    if held < num_devices:
        raise DataError(f"labels hold {held} shards of {per_device} samples, need {num_devices}")
    pools = {}  # per label, the unused indices; a device takes the last ones, last first
    for lab in label_values:
        idx = np.flatnonzero(labels == lab)
        pools[int(lab)] = rng.permutation(idx)

    eligible = label_values[counts >= per_device]  # the labels that can still fill a shard
    order = np.empty(num_devices * per_device, dtype=np.intp)
    for take in order.reshape(num_devices, per_device):
        lab = int(rng.choice(eligible))
        pool = pools[lab]
        rest = len(pool) - per_device
        take[:], pools[lab] = pool[rest:][::-1], pool[:rest]
        if rest < per_device:
            eligible = eligible[eligible != lab]
    return order


def partition_iid(
    labels: np.ndarray,
    num_devices: int,
    per_device: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Disjoint uniform shards of the samples, label-agnostic: the indices in device order."""
    _check_shard_sizes(len(labels), num_devices, per_device)
    return rng.permutation(len(labels))[:num_devices * per_device]
