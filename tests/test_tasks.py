"""Objective correctness: closed forms, brute-force evaluation, gradients."""

import tracemalloc

import numpy as np
import pytest

from tdmafl import (
    ConfigError,
    DataError,
    MlpTask,
    SamplingError,
    SoftmaxRegressionTask,
    make_clustered_dataset,
    make_quadratic,
    partition_iid,
)
from tdmafl.tasks import QuadraticTask, Task
from descent_probe import exact_constants, persample_grad_sq_mean
from util import central_difference, classifier_reference, relative_error


@pytest.fixture()
def quad():
    return make_quadratic(4, 5, 1.5, np.random.default_rng(0),
                          samples_per_device=12, sample_noise=0.7,
                          eig_range=(0.5, 2.0))


@pytest.fixture()
def softmax_task():
    features, labels = make_clustered_dataset(3, 6, 40, np.random.default_rng(1))
    take = partition_iid(labels, 4, 25, np.random.default_rng(2))
    return SoftmaxRegressionTask(features[take], labels[take], (25,) * 4,
                                 num_classes=3)


def softmax_accuracy(task, w):
    """Share of all samples whose largest logit is their label."""
    c, d = task.num_classes, task.feature_dim
    x, y = np.concatenate(task.features), np.concatenate(task.labels)
    logits = x @ w[: c * d].reshape(c, d).T + w[c * d:]
    return float((logits.argmax(axis=1) == y).mean())


@pytest.fixture()
def mlp_task():
    features, labels = make_clustered_dataset(3, 6, 40, np.random.default_rng(3))
    take = partition_iid(labels, 4, 25, np.random.default_rng(4))
    return MlpTask(features[take], labels[take], (25,) * 4, num_classes=3, hidden=7)


class TestQuadratic:
    def test_optimum_solves_normal_equations(self, quad):
        # Independent route: explicit inverse times the mean linear term.
        b_bar = quad.sample_offsets.mean(axis=(0, 1))
        w_direct = np.linalg.inv(quad.hessian) @ b_bar
        assert np.linalg.norm(quad.w_star - w_direct) < 1e-10
        assert np.linalg.norm(quad.grad(quad.w_star)) < 1e-10

    def test_loss_at_optimum_is_noise_floor(self):
        task = make_quadratic(3, 4, 1.0, np.random.default_rng(5),
                              sample_noise=0.0)
        # Heterogeneity without sample noise: per-device minima differ from
        # the global optimum, so the global loss there is positive but the
        # gradient vanishes; with zero heterogeneity the loss is exactly 0.
        homog = make_quadratic(3, 4, 0.0, np.random.default_rng(5), sample_noise=0.0)
        assert homog.loss(homog.w_star) == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(task.grad(task.w_star)) < 1e-10

    def test_brute_force_loss_and_grad(self, quad):
        rng = np.random.default_rng(6)
        hinv = np.linalg.inv(quad.hessian)
        for _ in range(5):
            w = rng.normal(size=quad.dim)
            # Sample-by-sample evaluation, no shared-moment shortcuts.
            losses, grads = [], []
            for n in range(quad.num_devices):
                for i in range(quad.shard_sizes[n]):
                    b = quad.sample_offsets[n, i]
                    losses.append(0.5 * w @ quad.hessian @ w - b @ w + 0.5 * b @ hinv @ b)
                    grads.append(quad.hessian @ w - b)
            assert abs(quad.loss(w) - np.mean(losses)) < 1e-10
            assert np.linalg.norm(quad.grad(w) - np.mean(grads, axis=0)) < 1e-10

    def test_device_loss_is_shard_mean(self, quad):
        w = np.random.default_rng(7).normal(size=quad.dim)
        per_device = [quad.loss(w, n) for n in range(quad.num_devices)]
        assert quad.loss(w) == pytest.approx(np.mean(per_device), rel=1e-12)

    def test_exact_heterogeneity(self, quad):
        w = np.random.default_rng(8).normal(size=quad.dim)
        g = quad.grad(w)
        measured = max(
            float(np.sum((g - quad.grad(w, n)) ** 2)) for n in range(quad.num_devices)
        )
        hetero_sq = exact_constants(quad).heterogeneity_sq
        assert measured == pytest.approx(hetero_sq, rel=1e-12)
        assert np.sqrt(hetero_sq) == pytest.approx(1.5, rel=1e-12)

    def test_homogeneous_when_target_zero(self):
        task = make_quadratic(5, 3, 0.0, np.random.default_rng(9))
        assert exact_constants(task).heterogeneity_sq == 0.0
        # Sample noise is centered per device, so dispersion stays at the
        # float-cancellation floor.
        noisy = make_quadratic(5, 3, 0.0, np.random.default_rng(9), sample_noise=0.2)
        assert exact_constants(noisy).heterogeneity_sq < 1e-28

    def test_smoothness_is_top_eigenvalue(self, quad):
        assert quad.smoothness() == pytest.approx(2.0, rel=1e-12)

    def test_noise_level_is_exact(self, quad):
        assert np.sqrt(exact_constants(quad).noise_sq) == pytest.approx(0.7, rel=1e-9)

    def test_batch_moments(self, quad):
        w = np.random.default_rng(10).normal(size=quad.dim)
        batch = np.array([0, 3, 5])
        manual = np.mean(
            [quad.hessian @ w - quad.sample_offsets[2, i] for i in batch], axis=0
        )
        assert np.allclose(quad.grad(w, 2, batch), manual, atol=1e-12)

    def test_rejects_bad_batches(self, quad):
        w = np.zeros(quad.dim)
        with pytest.raises(SamplingError):
            quad.grad(w, 0, np.array([99]))
        with pytest.raises(DataError):
            quad.grad(w, 9)
        with pytest.raises(SamplingError):
            quad.sample_batch(0, 1000, np.random.default_rng(0))
        with pytest.raises(DataError, match="batches address a device shard"):
            quad.grad(w, None, np.array([0]))

    def test_rejects_bad_construction(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            make_quadratic(2, 3, -1.0, rng)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="finite"):
                make_quadratic(2, 3, bad, rng)
            with pytest.raises(ConfigError, match="finite"):
                make_quadratic(2, 3, 1.0, rng, sample_noise=bad)
        with pytest.raises(ConfigError):
            make_quadratic(2, 3, 1.0, rng, eig_range=(2.0, 1.0))
        for hi in (2.0**52, 2.0**70):  # lo = 1 is at or below the rounding of hi
            with pytest.raises(ConfigError, match="eig_range must have hi / lo < 2"):
                make_quadratic(2, 3, 1.0, rng, eig_range=(1.0, hi))
        for num_devices, dim in ((2, 0), (0, 3)):
            with pytest.raises(ConfigError, match="need dim >= 1 and num_devices >= 1"):
                make_quadratic(num_devices, dim, 1.0, rng)
        # 1e306 overflows the mean of 24 offsets; 1e300 squared overflows the loss constants.
        for heterogeneity, sample_noise in ((1e306, 0.0), (1e300, 0.0), (0.0, 1e300)):
            with pytest.raises(ConfigError, match="^heterogeneity .* overflow the task's offsets"):
                make_quadratic(2, 1, heterogeneity, rng, samples_per_device=24,
                               sample_noise=sample_noise)

    @pytest.mark.parametrize("seed", range(10))
    def test_a_top_eigenvalue_near_the_float_max_builds(self, seed):
        # Summing the hessian with its transpose before halving overflowed here.
        task = make_quadratic(2, 4, 1.0, np.random.default_rng(seed),
                              eig_range=(1.66e300, 1.22e308))
        assert np.isfinite(task.hessian).all()
        assert np.array_equal(task.hessian, task.hessian.T)


class TestGradientChecks:
    """Analytic gradients against the central finite-difference oracle."""

    def _check(self, task, points, rng, tol=1e-5):
        worst = 0.0
        for _ in range(points):
            w = rng.normal(scale=0.8, size=task.dim)
            analytic = task.grad(w)
            numeric = central_difference(lambda v: task.loss(v), w)
            worst = max(worst, relative_error(analytic, numeric))
            dev = int(rng.integers(task.num_devices))
            analytic_d = task.grad(w, dev)
            numeric_d = central_difference(lambda v: task.loss(v, dev), w)
            worst = max(worst, relative_error(analytic_d, numeric_d))
        assert worst <= tol

    def test_quadratic(self, quad):
        self._check(quad, 10, np.random.default_rng(20))

    def test_softmax(self, softmax_task):
        self._check(softmax_task, 10, np.random.default_rng(21))

    def test_mlp(self, mlp_task):
        self._check(mlp_task, 10, np.random.default_rng(22))

    def test_batch_gradients_too(self, softmax_task):
        rng = np.random.default_rng(23)
        w = rng.normal(size=softmax_task.dim)
        batch = softmax_task.sample_batch(1, 5, rng)
        analytic = softmax_task.grad(w, 1, batch)
        numeric = central_difference(lambda v: softmax_task.loss(v, 1, batch), w)
        assert relative_error(analytic, numeric) <= 1e-5


class TestSoftmax:
    def test_uniform_predictor_loss(self):
        # Balanced binary labels at zero parameters: loss is ln 2.
        x = np.random.default_rng(30).normal(size=(40, 3))
        y = np.array([0, 1] * 20)
        task = SoftmaxRegressionTask(x, y, [40], num_classes=2)
        assert task.loss(np.zeros(task.dim)) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_full_data_loss_is_weighted_shard_mean(self, softmax_task):
        w = np.random.default_rng(31).normal(size=softmax_task.dim)
        sizes = softmax_task.shard_sizes
        weighted = sum(
            sz * softmax_task.loss(w, n) for n, sz in enumerate(sizes)
        ) / sum(sizes)
        assert softmax_task.loss(w) == pytest.approx(weighted, rel=1e-12)

    def test_accuracy_improves_with_training(self, softmax_task):
        w = np.zeros(softmax_task.dim)
        before = softmax_accuracy(softmax_task, w)
        for _ in range(200):
            w = w - 0.5 * softmax_task.grad(w)
        assert softmax_accuracy(softmax_task, w) > before

    def test_label_range_enforced(self):
        with pytest.raises(DataError):
            SoftmaxRegressionTask(np.zeros((2, 2)), np.array([0, 5]), [2], num_classes=3)


class TestMlp:
    def test_init_shape_and_loss_finite(self, mlp_task):
        w = mlp_task.init_params(np.random.default_rng(40))
        assert w.shape == (mlp_task.dim,)
        assert np.isfinite(mlp_task.loss(w))

    def test_training_reduces_loss(self, mlp_task):
        w = mlp_task.init_params(np.random.default_rng(41))
        start = mlp_task.loss(w)
        for _ in range(100):
            w = w - 0.5 * mlp_task.grad(w)
        assert mlp_task.loss(w) < start


@pytest.mark.parametrize("cls", [SoftmaxRegressionTask, MlpTask])
def test_empty_shard_is_rejected(cls):
    with pytest.raises(DataError, match="device 1 has an empty shard"):
        cls(np.ones((2, 3)), np.array([0, 1]), [2, 0], num_classes=2)


@pytest.mark.parametrize("cls", [SoftmaxRegressionTask, MlpTask])
@pytest.mark.parametrize("features, labels, sizes, match", [
    (np.ones((4, 3)), np.zeros(3, dtype=int), [4], "features must be"),
    (np.ones(4), np.zeros(4, dtype=int), [4], "features must be"),
    (np.ones((4, 3)), np.zeros((4, 1), dtype=int), [4], "features must be"),
    (np.ones((4, 3)), np.zeros(4, dtype=int), [2, 1], "adding up to the samples"),
    (np.ones((4, 3)), np.zeros(4, dtype=int), [], "one count per device"),
    (np.ones((4, 3)), np.zeros(4, dtype=int), [[2, 2]], "one count per device"),
], ids=["label-count", "flat-features", "2d-labels", "short-sizes", "no-devices",
        "nested-sizes"])
def test_mismatched_samples_and_sizes_are_rejected(cls, features, labels, sizes, match):
    with pytest.raises(DataError, match=match):
        cls(features, labels, sizes, num_classes=2)


@pytest.mark.parametrize("build", [
    lambda: QuadraticTask(hessian=np.eye(2), sample_offsets=np.zeros((2, 0, 2))),
    lambda: make_quadratic(3, 2, 0.0, np.random.default_rng(0), samples_per_device=0),
], ids=["QuadraticTask", "make_quadratic"])
def test_empty_quadratic_shard_is_rejected(build):
    with pytest.raises(DataError, match="at least one sample"):
        build()


@pytest.mark.parametrize("hessian", [
    [[1.0, 2.0], [2.0, 1.0]],  # eigenvalues -1 and 3
    [[1.0, 0.0], [0.0, 0.0]],
    [[np.inf, 0.0], [0.0, 1.0]],
], ids=["indefinite", "singular", "infinite"])
def test_a_hessian_that_is_not_positive_definite_is_rejected(hessian):
    with pytest.raises(DataError, match="finite and positive definite"):
        QuadraticTask(hessian=np.array(hessian), sample_offsets=np.zeros((2, 1, 2)))


@pytest.mark.parametrize("hessian, offsets, match", [
    (np.eye(2), np.zeros((2, 2)), "sample_offsets must have shape"),
    (np.eye(3), np.zeros((2, 1, 2)), "hessian shape does not match"),
    (np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros((2, 1, 2)), "hessian must be symmetric"),
], ids=["offsets-2d", "hessian-shape", "asymmetric"])
def test_a_malformed_quadratic_is_rejected(hessian, offsets, match):
    with pytest.raises(DataError, match=match):
        QuadraticTask(hessian=hessian, sample_offsets=offsets)


def uneven_task(kind):
    """A three-device task of the given kind and its per-device sample counts.

    The classifier kinds get shards of 3, 5 and 2 samples; quadratic shards
    are equal by construction.
    """
    if kind == "quadratic":
        task = make_quadratic(3, 2, 1.0, np.random.default_rng(80), samples_per_device=4)
        return task, [4, 4, 4]
    rng = np.random.default_rng(81)
    sizes = [3, 5, 2]
    feats, labels = rng.normal(size=(10, 4)), rng.integers(0, 2, size=10)
    cls = SoftmaxRegressionTask if kind == "softmax" else MlpTask
    return cls(feats, labels, sizes, num_classes=2), sizes


@pytest.mark.parametrize("kind", ["quadratic", "softmax", "mlp"])
class TestShardSizes:
    def test_shard_sizes_are_the_row_counts(self, kind):
        task, sizes = uneven_task(kind)
        assert list(task.shard_sizes) == sizes

    def test_out_of_range_batches_are_rejected(self, kind):
        task, sizes = uneven_task(kind)
        w = np.zeros(task.dim)
        for device, size in enumerate(sizes):
            task.grad(w, device, np.array([0, size - 1]))  # both ends are in range
            for bad in ([], [-1], [size], [0, size]):
                with pytest.raises(SamplingError, match=f"shard of size {size}"):
                    task.grad(w, device, np.array(bad, dtype=np.int64))


@pytest.mark.parametrize("kind", ["softmax", "mlp"])
class TestOneCopyOfTheSamples:
    """A classifier keeps its samples once: each shard is a view of the all-data arrays."""

    def test_every_shard_is_a_view_of_all_data(self, kind):
        task, sizes = uneven_task(kind)
        for x, y, size in zip(task.features, task.labels, sizes):
            assert np.shares_memory(x, task._all_xt) and np.shares_memory(y, task._all_y)
            assert x.shape == (size, 4) and y.shape == (size,)

    def test_the_callers_arrays_are_not_read_after_construction(self, kind):
        rng = np.random.default_rng(82)
        feats, labels = rng.normal(size=(8, 4)), rng.integers(0, 2, size=8)
        cls = SoftmaxRegressionTask if kind == "softmax" else MlpTask
        task = cls(feats, labels, (3, 5), num_classes=2)
        w = rng.normal(size=task.dim)
        before = [task.loss(w, device) for device in (None, 0, 1)]
        feats[:3] += 5.0
        labels[3:] = 1 - labels[3:]
        assert [task.loss(w, device) for device in (None, 0, 1)] == before


def make_classifier(cls, feats, labels, sizes, num_classes, hidden):
    """``cls`` on the samples; ``hidden`` is MlpTask's width and unused otherwise."""
    if cls is MlpTask:
        return MlpTask(feats, labels, sizes, num_classes, hidden=hidden)
    return cls(feats, labels, sizes, num_classes)


@pytest.mark.parametrize("cls", [SoftmaxRegressionTask, MlpTask], ids=["logistic", "mlp"])
class TestMlpWorkBuffers:
    """Every classifier pass runs in reused buffers; no result may depend on that."""

    def test_full_data_pass_allocates_less_than_one_activation(self, cls):
        features, labels = make_clustered_dataset(10, 16, 100, np.random.default_rng(70))
        take = partition_iid(labels, 20, 50, np.random.default_rng(71))
        task = make_classifier(cls, features[take], labels[take], (50,) * 20, 10,
                               hidden=32)
        w = np.random.default_rng(72).normal(scale=0.3, size=task.dim)
        task.loss_and_grad(w)  # warm-up
        tracemalloc.start()
        try:
            task.loss_and_grad(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if cls is MlpTask:
            assert peak < 1000 * 32 * 8  # one (samples, hidden) float64 array
        else:
            assert peak < 2 * 1000 * 10 * 8  # two (samples, classes) float64 arrays

    def test_interleaved_calls_match_a_fresh_task(self, request, cls):
        task = request.getfixturevalue("mlp_task" if cls is MlpTask else "softmax_task")

        def fresh():
            return make_classifier(cls, np.concatenate(task.features),
                                   np.concatenate(task.labels), task.shard_sizes,
                                   task.num_classes, getattr(task, "hidden", None))

        calls = [(None, None), (1, None), (2, np.array([0, 4, 4, 9, 11, 3, 2, 8])),
                 (0, np.array([5])), (3, np.tile(np.arange(25), 5)),  # longer than all data
                 (None, None)]
        rng = np.random.default_rng(73)
        kept = []
        for _ in range(3):
            w = rng.normal(size=task.dim)
            for device, batch in calls:
                assert task.loss(w, device, batch) == fresh().loss(w, device, batch)
                grad = task.grad(w, device, batch)
                assert np.array_equal(grad, fresh().grad(w, device, batch))
                loss, fused = task.loss_and_grad(w, device, batch)
                ref_loss, ref_grad = fresh().loss_and_grad(w, device, batch)
                assert loss == ref_loss and np.array_equal(fused, ref_grad)
                kept += [(grad, grad.copy()), (fused, fused.copy())]
        assert all(np.array_equal(g, copy) for g, copy in kept)
        assert persample_grad_sq_mean(task, w, 3) == persample_grad_sq_mean(fresh(), w, 3)


@pytest.mark.parametrize("name", ["softmax_task", "mlp_task"])
@pytest.mark.parametrize("device, batch", [
    (None, None), (2, None),
    (1, np.concatenate([np.tile(np.arange(25), 5), [7, 0, 24, 7, 3]])),  # longer than all data
], ids=["all-data", "one-device", "long-batch"])
class TestAgainstRowMajorReference:
    """Every pass matches the textbook (samples, width) forward and backward passes."""

    def test_loss_grad_and_fused_pass(self, request, name, device, batch):
        task = request.getfixturevalue(name)
        if device is None:
            x, y = np.concatenate(task.features), np.concatenate(task.labels)
        else:
            x, y = task.features[device], task.labels[device]
            if batch is not None:
                x, y = x[batch], y[batch]
        rng = np.random.default_rng(65)
        for _ in range(3):
            w = rng.normal(scale=0.5, size=task.dim)
            ref_loss, ref_grad = classifier_reference(task, w, x, y)
            loss, grad = task.loss_and_grad(w, device, batch)
            assert loss == pytest.approx(ref_loss, rel=1e-12)
            assert task.loss(w, device, batch) == pytest.approx(ref_loss, rel=1e-12)
            assert relative_error(grad, ref_grad) <= 1e-12
            assert relative_error(task.grad(w, device, batch), ref_grad) <= 1e-12


class TestLossAndGrad:
    """The fused pass gives exactly the floats of separate loss and grad calls."""

    @pytest.mark.parametrize("name", ["quad", "softmax_task", "mlp_task"])
    @pytest.mark.parametrize("device, batch", [(None, None), (2, None), (1, [0, 3, 3, 7])],
                             ids=["all-data", "one-device", "one-batch"])
    def test_equals_separate_calls(self, request, name, device, batch):
        task = request.getfixturevalue(name)
        w = np.random.default_rng(60).normal(size=task.dim)
        batch = None if batch is None else np.array(batch)
        loss, grad = task.loss_and_grad(w, device, batch)
        assert type(loss) is float and loss == task.loss(w, device, batch)
        assert np.array_equal(grad, task.grad(w, device, batch))

    def test_base_class_falls_back_to_loss_and_grad(self, quad):
        calls = []

        class Recording(QuadraticTask):
            def loss(self, w, device=None, batch=None):
                calls.append("loss")
                return super().loss(w, device, batch)

            def grad(self, w, device=None, batch=None):
                calls.append("grad")
                return super().grad(w, device, batch)

        task = Recording(hessian=quad.hessian, sample_offsets=quad.sample_offsets)
        w = np.ones(task.dim)
        loss, grad = Task.loss_and_grad(task, w, 0)
        assert calls == ["loss", "grad"]
        assert loss == quad.loss(w, 0) and np.array_equal(grad, quad.grad(w, 0))


class TestPersampleMoment:
    def test_sharded_task_default_path(self, softmax_task):
        w = np.random.default_rng(51).normal(size=softmax_task.dim)
        val = persample_grad_sq_mean(softmax_task, w, 0)
        assert val > 0 and np.isfinite(val)
