"""Objective functions with analytic gradients for federated experiments.

Each task exposes the same small surface: ``loss``, ``grad`` and
``loss_and_grad``, each at all data (the global mean), at one device, or at a
mini-batch addressed by sample indices within a device shard.
``loss_and_grad`` returns exactly ``(loss, grad)`` from one pass over the
data, which is what per-round metric evaluation needs. Devices are indexed
0..N-1 here; the scheduler layer uses 1-based device ids and converts.

The quadratic task is the one the rate trend runs: every device shares one
curvature matrix and differs only in the linear term, so the optimum, the
smoothness constant, the gradient-dispersion bound, and the sampling-noise
level are all exact closed forms, and the theorem's step size needs no
estimate.

The classifiers are one class: ``SoftmaxRegressionTask`` is a softmax layer
over one (features, labels) pair cut into device shards, with one forward and
one backward pass as a loop over layers; ``MlpTask`` adds a tanh hidden layer.
They store their samples once, samples last, and every pass runs with
activations of shape (width, samples): each numpy call then sweeps rows as
long as the data, not one short row of 10 or 32 floats per sample. Both keep
one set of work buffers per sample count they pass (all data and the batch
size, in a run), because metrics evaluate all data every round and a fresh
temporary would be faulted in again each time. So one task instance
must not be used from two threads at once (a sweep's job runs its points on
one task in turn, and each job of a process-pool sweep builds its own).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, SamplingError


class Task:
    """Common helpers; subclasses implement loss/grad on (device, batch).

    ``loss_and_grad`` falls back to one ``loss`` and one ``grad`` call; the
    tasks below override it with one pass over the data that gives the same
    floats.
    """

    dim: int
    num_devices: int
    shard_sizes: tuple[int, ...]  # samples per device, set once at construction

    def loss(self, w: np.ndarray, device: Optional[int] = None,
             batch: Optional[np.ndarray] = None) -> float:
        raise NotImplementedError

    def grad(self, w: np.ndarray, device: Optional[int] = None,
             batch: Optional[np.ndarray] = None) -> np.ndarray:
        raise NotImplementedError

    def loss_and_grad(self, w: np.ndarray, device: Optional[int] = None,
                      batch: Optional[np.ndarray] = None) -> tuple[float, np.ndarray]:
        return self.loss(w, device, batch), self.grad(w, device, batch)

    def check_batch(self, device: Optional[int], batch) -> None:
        if device is None:
            if batch is not None:
                raise DataError("batches address a device shard; pass a device index")
            return
        if not 0 <= device < self.num_devices:
            raise DataError(f"device index {device} out of range [0, {self.num_devices})")
        if batch is not None:
            size = self.shard_sizes[device]
            b = np.asarray(batch)
            if b.size == 0 or b.min() < 0 or b.max() >= size:
                raise SamplingError(f"batch indices out of range for shard of size {size}")

    def sample_batch(self, device: int, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform without replacement within the shard."""
        size = self.shard_sizes[device]
        if batch_size > size:
            raise SamplingError(
                f"batch_size {batch_size} exceeds shard size {size} of device {device}"
            )
        return rng.choice(size, size=batch_size, replace=False)


@dataclass
class QuadraticTask(Task):
    """Shared-curvature quadratics: per-sample loss (1/2)|w - A^-1 b|_A^2.

    ``sample_offsets`` has shape (N, D, m); sample (n, i) contributes the
    loss (1/2) w'Aw - b_{n,i}'w + (1/2) b_{n,i}'A^-1 b_{n,i}, whose gradient
    is Aw - b_{n,i}. Device and global losses are means, so the device
    gradient is Aw - mean_i b_{n,i} and the gradient dispersion across
    devices is exactly the spread of the per-device mean offsets.
    """

    hessian: np.ndarray
    sample_offsets: np.ndarray

    def __post_init__(self) -> None:
        self.hessian = np.asarray(self.hessian, dtype=float)
        self.sample_offsets = np.asarray(self.sample_offsets, dtype=float)
        if self.sample_offsets.ndim != 3:
            raise DataError("sample_offsets must have shape (devices, samples, dim)")
        self.num_devices, per_device, self.dim = self.sample_offsets.shape
        if per_device == 0:
            raise DataError("every device needs at least one sample")
        self.shard_sizes = (per_device,) * self.num_devices
        if self.hessian.shape != (self.dim, self.dim):
            raise DataError("hessian shape does not match offset dimension")
        if not np.allclose(self.hessian, self.hessian.T):
            raise DataError("hessian must be symmetric")
        if not (np.isfinite(self.hessian).all() and np.linalg.eigvalsh(self.hessian)[0] > 0):
            raise DataError("hessian must be finite and positive definite")
        self._hinv = np.linalg.inv(self.hessian)
        self._device_offsets = self.sample_offsets.mean(axis=1)  # (N, m)
        self._global_offset = self._device_offsets.mean(axis=0)
        # Per-sample constant making each sample loss >= 0 with minimum 0.
        self._sample_const = 0.5 * np.einsum(
            "ndi,ij,ndj->nd", self.sample_offsets, self._hinv, self.sample_offsets
        )
        self._global_const = float(self._sample_const.mean())

    @property
    def w_star(self) -> np.ndarray:
        return np.linalg.solve(self.hessian, self._global_offset)

    def _offset(self, device, batch):
        """Mean linear term b over the selected samples."""
        self.check_batch(device, batch)
        if device is None:
            return self._global_offset
        if batch is None:
            return self._device_offsets[device]
        rows = self.sample_offsets[device].take(batch, axis=0)
        return np.add.reduce(rows, axis=0) / len(rows)  # np.mean's floats, without its layers

    def _moments(self, device, batch):
        """(mean offset, mean loss constant) over the selected samples."""
        offset = self._offset(device, batch)
        if device is None:
            return offset, self._global_const
        consts = self._sample_const[device]
        if batch is not None:
            consts = consts[np.asarray(batch)]
        return offset, float(consts.mean())

    def _loss_at(self, w, offset, const):
        return float(0.5 * w @ self.hessian @ w - offset @ w + const)

    def loss(self, w, device=None, batch=None):
        return self._loss_at(w, *self._moments(device, batch))

    def grad(self, w, device=None, batch=None):
        return self.hessian @ w - self._offset(device, batch)

    def loss_and_grad(self, w, device=None, batch=None):
        offset, const = self._moments(device, batch)
        return self._loss_at(w, offset, const), self.hessian @ w - offset

    def smoothness(self) -> float:
        return float(np.linalg.eigvalsh(self.hessian)[-1])


def make_quadratic(
    num_devices: int,
    dim: int,
    heterogeneity: float,
    rng: np.random.Generator,
    *,
    samples_per_device: int = 32,
    sample_noise: float = 0.0,
    eig_range: tuple[float, float] = (1.0, 1.0),
) -> QuadraticTask:
    """Construct a shared-curvature quadratic with exact dispersion control.

    The per-device mean offsets are centered (so the global optimum is
    unaffected) and rescaled so the largest deviation norm equals
    ``heterogeneity`` exactly. Per-sample offsets add zero-mean noise scaled
    so each device's mean squared sample deviation equals sample_noise**2.
    The hessian's eigenvalues are evenly spaced over ``eig_range`` [lo, hi],
    which needs hi / lo < 2**52: past that, lo is below the rounding of hi.
    """
    if dim < 1 or num_devices < 1:
        raise ConfigError("need dim >= 1 and num_devices >= 1")
    if not (0 <= heterogeneity < math.inf and 0 <= sample_noise < math.inf):  # NaN fails too
        raise ConfigError("heterogeneity and sample_noise must be finite and >= 0")
    lo, hi = eig_range
    if not 0 < lo <= hi:
        raise ConfigError(f"eig_range must satisfy 0 < lo <= hi, got {eig_range}")
    if hi / lo >= 1 / np.finfo(float).eps:
        raise ConfigError(f"eig_range must have hi / lo < 2**52, got {eig_range}")

    if dim == 1:
        basis = np.array([[1.0]])
    else:
        basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    hessian = basis @ np.diag(np.linspace(lo, hi, dim)) @ basis.T
    # Halved before the sum, so a top eigenvalue near the float64 maximum stays finite.
    hessian = 0.5 * hessian + 0.5 * hessian.T

    center = rng.normal(size=dim)
    if heterogeneity > 0 and num_devices > 1:
        offsets = rng.normal(size=(num_devices, dim))
        offsets -= offsets.mean(axis=0)
        offsets *= heterogeneity / np.linalg.norm(offsets, axis=1).max()
    else:
        offsets = np.zeros((num_devices, dim))

    device_means = center + offsets
    samples = np.repeat(device_means[:, None, :], samples_per_device, axis=1)
    if sample_noise > 0:
        if samples_per_device < 2:
            raise ConfigError("sample_noise > 0 needs samples_per_device >= 2")
        noise = rng.normal(size=samples.shape)
        noise -= noise.mean(axis=1, keepdims=True)
        rms = np.sqrt((noise * noise).sum(axis=2).mean(axis=1))  # (N,)
        samples = samples + noise * (sample_noise / rms)[:, None, None]
    return QuadraticTask(hessian=hessian, sample_offsets=samples)


def _mean_nll(log_probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of the labels under (classes, samples) log-probabilities."""
    return float(-log_probs[labels, np.arange(len(labels))].mean())


class SoftmaxRegressionTask(Task):
    """Softmax classifier over one (features, labels) pair cut into per-device shards.

    As constructed it is multinomial logistic regression; ``MlpTask`` puts
    tanh hidden layers in front of the same softmax output layer. The
    parameters hold each layer's (out, in) weights, then its biases, input
    layer first: (C, d) weights then C biases here.

    It copies (n, d) ``features`` and (n,) ``labels`` in device order once,
    samples last: one C-contiguous (d, n) array beside the (n,) labels, cut
    by ``shard_sizes``. ``features[i]`` is a (samples, d) view of device i's
    columns and ``labels[i]`` a view of its labels; a mini-batch reads columns.
    Every pass runs in the (width, samples) layout: each layer computes
    ``W @ inputs`` plus the bias broadcast over columns, and the softmax
    reduces along axis 0.

    Every pass writes into work buffers, as a fresh (width, samples)
    temporary is faulted in again on every round: one set per sample count,
    made on its first pass (a run uses two, all data and the batch size).
    Results never alias the buffers; one instance must not be used from two
    threads.
    """

    _hidden_widths: tuple[int, ...] = ()  # set by MlpTask before this constructor runs

    def __init__(self, features, labels, shard_sizes, num_classes: int):
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels)
        sizes = np.asarray(shard_sizes, dtype=np.int64)
        if features.ndim != 2 or labels.shape != features.shape[:1]:
            raise DataError("features must be (samples, d) and labels (samples,)")
        if sizes.ndim != 1 or sizes.size == 0 or sizes.sum() != len(labels):
            raise DataError("shard sizes must be one count per device, adding up to the samples")
        if sizes.min() < 1:
            raise DataError(f"device {np.flatnonzero(sizes < 1)[0]} has an empty shard")
        if labels.min() < 0 or labels.max() >= num_classes:
            raise DataError("label outside [0, num_classes)")
        self.feature_dim = features.shape[1]
        self.num_classes = num_classes
        self.num_devices = len(sizes)
        self.shard_sizes = tuple(sizes.tolist())
        self._all_xt = features.T.copy()  # C order: the (d, n) samples-last layout
        self._all_y = labels.astype(np.int64)
        shards = [slice(end - n, end)
                  for n, end in zip(self.shard_sizes, accumulate(self.shard_sizes))]
        self.features = [self._all_xt[:, shard].T for shard in shards]
        self.labels = [self._all_y[shard] for shard in shards]
        widths = (self.feature_dim, *self._hidden_widths, num_classes)
        self._slices, at = [], 0  # per layer: (start, bias start, stop, weight shape) in w
        for fan_in, fan_out in zip(widths, widths[1:]):
            bias_at = at + fan_out * fan_in
            self._slices.append((at, bias_at, bias_at + fan_out, (fan_out, fan_in)))
            at = bias_at + fan_out
        self.dim = at
        self._buffers: dict[int, list[np.ndarray]] = {}

    def _columns(self, n: int) -> list[np.ndarray]:
        """C-contiguous (width, n) work buffers for each layer's output, the
        probs, then each hidden layer's back-propagated signal."""
        work = self._buffers.get(n)
        if work is None:
            hidden, c = self._hidden_widths, self.num_classes
            work = self._buffers[n] = [np.empty((width, n)) for width in (*hidden, c, c, *hidden)]
        return work

    def _select(self, device, batch):
        """The selected samples as (d, k) columns, and their labels."""
        self.check_batch(device, batch)
        if device is None:
            return self._all_xt, self._all_y
        xt, y = self.features[device].T, self.labels[device]
        if batch is None:
            return xt, y
        b = np.asarray(batch)
        return xt[:, b], y[b]

    def _forward(self, xt, w):
        """(weights, each layer's input, work buffers, log-probs), all (width, samples).

        Tanh on the hidden layers, log-softmax on the last; the log-probs
        overwrite the logits and the probs go to the buffer after them.
        """
        weights = [w[start:bias].reshape(shape) for start, bias, _, shape in self._slices]
        work = self._columns(xt.shape[1])
        inputs, last = [xt], len(weights) - 1
        for layer, (_, bias, stop, _) in enumerate(self._slices):
            out = np.matmul(weights[layer], inputs[-1], out=work[layer])
            out += w[bias:stop, None]
            if layer < last:
                inputs.append(np.tanh(out, out=out))
        logits, probs = out, work[last + 1]
        logits -= logits.max(axis=0)
        np.exp(logits, out=probs)
        total = probs.sum(axis=0)
        probs /= total
        logits -= np.log(total)
        return weights, inputs, work, logits

    def _backward(self, y, weights, inputs, work):
        """Gradient in the parameter layout; overwrites the probs and the hidden activations.

        Each layer writes its weight gradient and then its bias gradient
        straight into their slices of the one result vector.
        """
        last = len(weights) - 1
        delta = work[last + 1]  # the probs, becoming the mean loss gradient in the logits
        delta[y, np.arange(len(y))] -= 1.0
        delta /= len(y)
        grad = np.empty(self.dim)
        for layer in range(last, -1, -1):
            start, bias, stop, shape = self._slices[layer]
            act = inputs[layer]
            np.matmul(delta, act.T, out=grad[start:bias].reshape(shape))
            np.add.reduce(delta, axis=1, out=grad[bias:stop])
            if layer:  # act is a hidden layer's output, not the data
                back = np.matmul(weights[layer].T, delta, out=work[last + 1 + layer])
                np.multiply(act, act, out=act)  # act becomes the tanh slope 1 - act**2
                np.subtract(1.0, act, out=act)
                back *= act
                delta = back
        return grad

    def loss(self, w, device=None, batch=None):
        xt, y = self._select(device, batch)
        return _mean_nll(self._forward(xt, w)[3], y)

    def grad(self, w, device=None, batch=None):
        xt, y = self._select(device, batch)
        weights, inputs, work, _ = self._forward(xt, w)
        return self._backward(y, weights, inputs, work)

    def loss_and_grad(self, w, device=None, batch=None):
        xt, y = self._select(device, batch)
        weights, inputs, work, log_probs = self._forward(xt, w)
        return _mean_nll(log_probs, y), self._backward(y, weights, inputs, work)


class MlpTask(SoftmaxRegressionTask):
    """Two-layer perceptron: a tanh hidden layer of ``hidden`` units, then softmax.

    The parameters are w1 (hidden, d), b1, w2 (C, hidden), b2.
    """

    def __init__(self, features, labels, shard_sizes, num_classes: int, hidden: int = 32):
        self.hidden = hidden
        self._hidden_widths = (hidden,)
        super().__init__(features, labels, shard_sizes, num_classes)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        d, h = self.feature_dim, self.hidden
        w1 = rng.normal(scale=1.0 / np.sqrt(d), size=(h, d))
        w2 = rng.normal(scale=1.0 / np.sqrt(h), size=(self.num_classes, h))
        return np.concatenate(
            [w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(self.num_classes)]
        )
