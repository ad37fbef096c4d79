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
over per-device shards, with one forward and one backward pass written as a
loop over layers, and ``MlpTask`` only adds a tanh hidden layer in front.
Both own reusable work buffers: metrics evaluate all data every round, and a
fresh 256 KB temporary would be faulted in again on every round. So one task
instance must not be used from two threads at once (a sweep runs its points
on one task in turn; a process-pool sweep builds one task per point).
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
        rows = self.sample_offsets[device, np.asarray(batch)]
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
    """
    if dim < 1 or num_devices < 1:
        raise ConfigError("need dim >= 1 and num_devices >= 1")
    if not (0 <= heterogeneity < math.inf and 0 <= sample_noise < math.inf):  # NaN fails too
        raise ConfigError("heterogeneity and sample_noise must be finite and >= 0")
    lo, hi = eig_range
    if not 0 < lo <= hi:
        raise ConfigError(f"eig_range must satisfy 0 < lo <= hi, got {eig_range}")

    if dim == 1:
        basis = np.array([[1.0]])
    else:
        basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    hessian = basis @ np.diag(np.linspace(lo, hi, dim)) @ basis.T
    hessian = 0.5 * (hessian + hessian.T)

    center = rng.normal(size=dim)
    if heterogeneity > 0 and num_devices > 1:
        offsets = rng.normal(size=(num_devices, dim))
        offsets -= offsets.mean(axis=0)
        norms = np.linalg.norm(offsets, axis=1)
        if norms.max() == 0:
            raise ConfigError("degenerate offsets; try another rng state")
        offsets *= heterogeneity / norms.max()
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
    """Mean cross-entropy of the labels under the given log-probabilities."""
    return float(-log_probs[np.arange(len(labels)), labels].mean())


class SoftmaxRegressionTask(Task):
    """Softmax classifier over per-device (features, labels) shards, views into one copy.

    As constructed it is multinomial logistic regression; ``MlpTask`` puts
    tanh hidden layers in front of the same softmax output layer. The
    parameters hold each layer's (out, in) weights, then its biases, input
    layer first: (C, d) weights then C biases here.

    Every pass writes into leading rows of work buffers sized to all data, as
    a fresh (samples, width) temporary is faulted in again on every round.
    Results never alias them; one instance must not be used from two threads.
    """

    _hidden_widths: tuple[int, ...] = ()  # set by MlpTask before this constructor runs

    def __init__(self, features, labels, num_classes: int):
        if not features or len(features) != len(labels):
            raise DataError("need one (features, labels) pair per device")
        features = [np.asarray(x, dtype=float) for x in features]
        labels = [np.asarray(y, dtype=np.int64) for y in labels]
        dims = {x.shape[1] for x in features}
        if len(dims) != 1:
            raise DataError("all shards must share the feature dimension")
        self.feature_dim = dims.pop()
        self.num_classes = num_classes
        self.num_devices = len(features)
        for device, (x, y) in enumerate(zip(features, labels)):
            if x.shape[0] != y.shape[0]:
                raise DataError("features and labels disagree on shard size")
            if x.shape[0] == 0:
                raise DataError(f"device {device} has an empty shard")
            if y.size and (y.min() < 0 or y.max() >= num_classes):
                raise DataError("label outside [0, num_classes)")
        self.shard_sizes = tuple(x.shape[0] for x in features)
        self._all_x = np.concatenate(features, axis=0)
        self._all_y = np.concatenate(labels, axis=0)
        shards = [slice(end - n, end)
                  for n, end in zip(self.shard_sizes, accumulate(self.shard_sizes))]
        self.features = [self._all_x[shard] for shard in shards]
        self.labels = [self._all_y[shard] for shard in shards]
        widths = (self.feature_dim, *self._hidden_widths, num_classes)
        self._slices, at = [], 0  # per layer: (start, bias start, stop, weight shape) in w
        for fan_in, fan_out in zip(widths, widths[1:]):
            bias_at = at + fan_out * fan_in
            self._slices.append((at, bias_at, bias_at + fan_out, (fan_out, fan_in)))
            at = bias_at + fan_out
        self.dim = at
        self._allocate(self._all_x.shape[0])

    def _allocate(self, rows: int) -> None:
        """Work buffers of ``rows`` rows: each layer's output, the probs, then
        each hidden layer's back-propagated signal."""
        hidden, c = self._hidden_widths, self.num_classes
        self._work = [np.empty((rows, width)) for width in (*hidden, c, c, *hidden)]

    def _rows(self, n: int) -> list[np.ndarray]:
        if n > len(self._work[0]):  # a batch with repeats can outgrow all data
            self._allocate(n)
        return [buf[:n] for buf in self._work]

    def _select(self, device, batch):
        self.check_batch(device, batch)
        if device is None:
            return self._all_x, self._all_y
        x, y = self.features[device], self.labels[device]
        if batch is None:
            return x, y
        b = np.asarray(batch)
        return x[b], y[b]

    def _forward(self, x, w):
        """(weights, each layer's input, work buffers, log-probs).

        Tanh on the hidden layers, log-softmax on the last; the log-probs
        overwrite the logits and the probs go to the buffer after them.
        """
        weights = [w[start:bias].reshape(shape) for start, bias, _, shape in self._slices]
        work = self._rows(x.shape[0])
        inputs, last = [x], len(weights) - 1
        for layer, (_, bias, stop, _) in enumerate(self._slices):
            out = np.matmul(inputs[-1], weights[layer].T, out=work[layer])
            out += w[bias:stop]
            if layer < last:
                inputs.append(np.tanh(out, out=out))
        logits, probs = out, work[last + 1]
        logits -= logits.max(axis=1, keepdims=True)
        np.exp(logits, out=probs)
        total = probs.sum(axis=1, keepdims=True)
        probs /= total
        logits -= np.log(total)
        return weights, inputs, work, logits

    def _backward(self, y, weights, inputs, work):
        """Gradient in the parameter layout; overwrites the probs and the hidden activations."""
        last = len(weights) - 1
        delta = work[last + 1]  # the probs, becoming the mean loss gradient in the logits
        delta[np.arange(len(y)), y] -= 1.0
        delta /= len(y)
        parts = []
        for layer in range(last, -1, -1):
            act = inputs[layer]
            parts += [delta.sum(axis=0), (delta.T @ act).ravel()]
            if layer:  # act is a hidden layer's output, not the data
                back = np.matmul(delta, weights[layer], out=work[last + 1 + layer])
                np.multiply(act, act, out=act)  # act becomes the tanh slope 1 - act**2
                np.subtract(1.0, act, out=act)
                back *= act
                delta = back
        return np.concatenate(parts[::-1])

    def loss(self, w, device=None, batch=None):
        x, y = self._select(device, batch)
        return _mean_nll(self._forward(x, w)[3], y)

    def grad(self, w, device=None, batch=None):
        x, y = self._select(device, batch)
        weights, inputs, work, _ = self._forward(x, w)
        return self._backward(y, weights, inputs, work)

    def loss_and_grad(self, w, device=None, batch=None):
        x, y = self._select(device, batch)
        weights, inputs, work, log_probs = self._forward(x, w)
        return _mean_nll(log_probs, y), self._backward(y, weights, inputs, work)


class MlpTask(SoftmaxRegressionTask):
    """Two-layer perceptron: a tanh hidden layer of ``hidden`` units, then softmax.

    The parameters are w1 (hidden, d), b1, w2 (C, hidden), b2.
    """

    def __init__(self, features, labels, num_classes: int, hidden: int = 32):
        self.hidden = hidden
        self._hidden_widths = (hidden,)
        super().__init__(features, labels, num_classes)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        d, h = self.feature_dim, self.hidden
        w1 = rng.normal(scale=1.0 / np.sqrt(d), size=(h, d))
        w2 = rng.normal(scale=1.0 / np.sqrt(h), size=(self.num_classes, h))
        return np.concatenate(
            [w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(self.num_classes)]
        )
