"""Local updates, the averaged server step, and pipeline equivalences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdmafl import (
    ConfigError,
    MlpTask,
    NumericsError,
    SamplingError,
    SgdLearner,
    SoftmaxRegressionTask,
    SystemConfig,
    make_clustered_dataset,
    make_quadratic,
    partition_iid,
    run_timeline,
)
from tdmafl.tasks import QuadraticTask, Task
from util import central_difference, relative_error


def identity_quadratic(num_devices=1, samples=4, dim=2):
    """f(w) = 0.5|w|^2 for every sample (offsets all zero)."""
    return QuadraticTask(
        hessian=np.eye(dim),
        sample_offsets=np.zeros((num_devices, samples, dim)),
    )


def learner_for(task, seed=0, initial=None, **run):
    """An SgdLearner whose eta, B and H are the given SystemConfig fields."""
    compute_slots = run.get("local_steps", 1) * run.get("batch_size", 1)
    cfg = SystemConfig(num_devices=task.num_devices, group_size=1,
                       compute_slots=compute_slots, **run)
    return SgdLearner(task, cfg, seed=seed, initial=initial)


def server(dim=2, step_size=1.0):
    """A learner used only for its server step."""
    return learner_for(identity_quadratic(dim=dim), step_size=step_size)


def mean_of(updates):
    """The averaged upload, read back from one unit server step from zero."""
    return -server(dim=updates[0].size).apply_round(np.zeros(updates[0].size), updates)


class TestLocalUpdate:
    def test_single_step_full_batch_identity_quadratic(self):
        learner = learner_for(identity_quadratic(), step_size=0.1, batch_size=4)
        out = learner.local_update(1, np.array([2.0, 0.0]), 0)
        assert np.allclose(out, [2.0, 0.0], atol=1e-15)

    def test_single_sample_linear_model_matches_finite_difference(self):
        # One sample zeta with loss 0.5 (w.x - y)^2: gradient (w.x - y) x.
        x, y = np.array([1.5, -2.0]), 0.7
        task = QuadraticTask(
            hessian=np.outer(x, x) + 1e-9 * np.eye(2),
            sample_offsets=(y * x)[None, None, :],
        )
        w = np.array([0.3, 0.9])
        out = learner_for(task, seed=1, step_size=0.1).local_update(1, w, 0)
        expect = (w @ x - y) * x
        assert relative_error(out, expect) < 1e-6
        numeric = central_difference(lambda v: 0.5 * (v @ x - y) ** 2, w)
        assert relative_error(out, numeric) < 1e-5

    def test_two_steps_match_hand_unrolled_sgd(self):
        task = make_quadratic(2, 3, 1.0, np.random.default_rng(2),
                              samples_per_device=6, sample_noise=0.5)
        w0 = np.array([1.0, -2.0, 0.5])
        eta = 0.1
        learner = learner_for(task, seed=7, step_size=eta, batch_size=2, local_steps=2)
        out = learner.local_update(2, w0, 3)
        # Oracle: redo the two steps explicitly, redrawing the batches from
        # the (seed, device, round) stream.
        draw = np.random.default_rng([7, 2, 3])
        w = w0.copy()
        for _ in range(2):
            w = w - eta * task.grad(w, 1, task.sample_batch(1, 2, draw))
        assert np.allclose(out, (w0 - w) / eta, atol=1e-12)
        # Server applying the mean (here a single upload) reproduces w.
        assert np.allclose(learner.apply_round(w0, [out]), w, atol=1e-15)

    def test_fresh_batch_each_step(self):
        task = make_quadratic(1, 3, 0.0, np.random.default_rng(3),
                              samples_per_device=16, sample_noise=1.0)
        drawn = []
        sample_batch = task.sample_batch

        def recording(*args):
            drawn.append(sample_batch(*args))
            return drawn[-1]

        task.sample_batch = recording
        learner_for(task, seed=9, step_size=0.05, batch_size=4,
                    local_steps=3).local_update(1, np.ones(3), 0)
        assert len(drawn) == 3
        assert len({tuple(b) for b in drawn}) > 1

    def test_batch_larger_than_shard(self):
        with pytest.raises(Exception, match="exceeds shard size"):
            learner_for(identity_quadratic(samples=3), step_size=0.1, batch_size=10)

    @pytest.mark.parametrize("alpha", range(4))
    def test_small_shard_fails_before_any_round(self, alpha):
        # Device 3's group may first train after max_rounds; the run must not
        # complete rounds with a batch that device can never draw.
        rng = np.random.default_rng(3)
        sizes = (6, 6, 6, 2)
        task = SoftmaxRegressionTask([rng.normal(size=(n, 2)) for n in sizes],
                                     [rng.integers(0, 2, n) for n in sizes], num_classes=2)
        cfg = SystemConfig(4, 1, compute_slots=1, horizon=10**6,
                           batch_size=4, intentional_delay=alpha)
        with pytest.raises(SamplingError, match="exceeds shard size 2 of device 3"):
            run_timeline(cfg, SgdLearner(task, cfg), max_rounds=3)


class TestAggregate:
    def test_mean(self):
        out = mean_of([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert np.allclose(out, [0.5, 0.5])

    def test_idempotent_on_copies(self):
        g = np.array([0.3, -1.0, 2.0])
        assert np.allclose(mean_of([g] * 5), g)

    def test_permutation_invariant_and_homogeneous(self):
        rng = np.random.default_rng(4)
        grads = [rng.normal(size=4) for _ in range(3)]
        a = mean_of(grads)
        b = mean_of(grads[::-1])
        assert np.allclose(a, b)
        assert np.allclose(mean_of([2.0 * g for g in grads]), 2.0 * a)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            server().apply_round(np.zeros(2), [np.zeros(2), np.zeros(3)])


class TestGlobalUpdate:
    def test_zero_update_is_identity(self):
        model = np.array([1.0, 2.0])
        new = server(step_size=0.5).apply_round(model, [np.zeros(2)])
        assert np.array_equal(new, model)

    def test_arithmetic(self):
        new = server(step_size=0.5).apply_round(np.array([1.0, 1.0]), [np.array([2.0, 0.0])])
        assert np.allclose(new, [0.0, 1.0])

    def test_overflow_aborts(self):
        with pytest.raises(NumericsError):
            server(dim=1).apply_round(np.array([1.0]), [np.array([np.inf])])

    def test_full_pipeline_reaches_stationarity_on_quadratic(self):
        # Synchronous run (S = N) on a condition-number-10 quadratic drives
        # the gradient below 1e-6 within 200 rounds.
        task = make_quadratic(4, 6, 0.0, np.random.default_rng(5),
                              eig_range=(0.7, 7.0))
        cfg = SystemConfig(4, 4, compute_slots=1, horizon=10**6,
                           step_size=0.1, batch_size=32)
        learner = SgdLearner(task, cfg, seed=0, initial=task.w_star + 0.1)
        result = run_timeline(cfg, learner, max_rounds=200, record_events=False)
        assert np.linalg.norm(task.grad(result.final_model)) < 1e-6


class TestGlobalLoss:
    def test_optimum_of_homogeneous_quadratic(self):
        task = make_quadratic(3, 4, 0.0, np.random.default_rng(6))
        assert abs(task.loss(task.w_star)) < 1e-12

    def test_partition_identity(self):
        task = make_quadratic(5, 3, 1.0, np.random.default_rng(7),
                              samples_per_device=8, sample_noise=0.3)
        w = np.random.default_rng(8).normal(size=3)
        sizes = task.shard_sizes
        weighted = sum(sz * task.loss(w, n) for n, sz in enumerate(sizes)) / sum(sizes)
        assert task.loss(w) == pytest.approx(weighted, rel=1e-12)


def metrics_task(kind):
    """A small task of the given kind and a point to evaluate it at."""
    if kind == "quadratic":
        task = make_quadratic(4, 3, 1.0, np.random.default_rng(12),
                              samples_per_device=6, sample_noise=0.2)
        return task, np.random.default_rng(13).normal(size=task.dim)
    data = make_clustered_dataset(3, 5, 20, np.random.default_rng(14))
    task = MlpTask(*partition_iid(data, 4, 10, np.random.default_rng(15)),
                   num_classes=3, hidden=6)
    return task, task.init_params(np.random.default_rng(16))


class TestRoundMetrics:
    @pytest.mark.parametrize("kind", ["quadratic", "mlp"])
    def test_one_full_data_pass_per_call(self, monkeypatch, kind):
        # Every loss or gradient evaluation validates its selection first, so
        # the full-data check_batch calls count the passes over all data.
        task, w = metrics_task(kind)
        full_passes = []
        check = Task.check_batch

        def spy(self, device, batch):
            if device is None:
                full_passes.append(batch)
            return check(self, device, batch)

        monkeypatch.setattr(Task, "check_batch", spy)
        learner_for(task).round_metrics(w)
        assert full_passes == [None]

    @pytest.mark.parametrize("kind", ["quadratic", "mlp"])
    def test_values_are_the_global_loss_and_squared_grad_norm(self, kind):
        task, w = metrics_task(kind)
        g = task.grad(w)
        assert learner_for(task).round_metrics(w) == (task.loss(w), float(g @ g))


class TestPipelineEquivalences:
    def test_synchronous_pipeline_matches_pooled_sgd(self):
        # S = N, H = 1, every device holding a copy of the same shard: the
        # pipeline must track plain mini-batch SGD on the pooled objective
        # (the pooled batch is the union of the per-device batches).
        rng = np.random.default_rng(9)
        shard = rng.normal(size=(1, 20, 3))
        n = 4
        task = QuadraticTask(hessian=np.diag([0.5, 1.0, 2.0]),
                             sample_offsets=np.repeat(shard, n, axis=0))
        eta, batch = 0.05, 5
        cfg = SystemConfig(n, n, compute_slots=1, horizon=10**6,
                           step_size=eta, batch_size=batch)
        learner = SgdLearner(task, cfg, seed=123, initial=np.ones(3))
        result = run_timeline(cfg, learner, max_rounds=50,
                              record_events=False, keep_model_history=True)

        w = np.ones(3)
        oracle = [w.copy()]
        for k in range(50):
            grads = []
            for dev in range(1, n + 1):
                draw = np.random.default_rng([123, dev, k])
                idx = task.sample_batch(dev - 1, batch, draw)
                grads.append(task.grad(w, dev - 1, idx))
            w = w - eta * np.mean(grads, axis=0)
            oracle.append(w.copy())
        for ours, ref in zip(result.model_history, oracle):
            assert np.linalg.norm(ours - ref) <= 1e-12

    def test_stale_information_flow(self):
        # Every aggregated upload must have been computed from the model that
        # was current exactly d rounds earlier.
        task = make_quadratic(6, 4, 1.0, np.random.default_rng(10),
                              samples_per_device=10, sample_noise=0.4)
        eta, batch = 0.05, 3
        cfg = SystemConfig(6, 2, compute_slots=1, horizon=10**6,
                           step_size=eta, batch_size=batch)
        learner = SgdLearner(task, cfg, seed=42)
        result = run_timeline(cfg, learner, max_rounds=30,
                              record_events=False, keep_model_history=True)
        g = cfg.num_groups
        history = result.model_history
        # Recompute each round's aggregate from the stale snapshots and check
        # it reproduces the recorded trajectory.
        by_round = {}
        for rec in result.staleness_records:
            by_round.setdefault(rec.round_index, []).append(rec)
        for k in range(30):
            ups = []
            for rec in by_round[k]:
                origin = k - rec.staleness
                if rec.staleness > 0 or k >= g:
                    assert rec.staleness == min(k, g - 1)
                ups.append(learner.local_update(rec.device_id, history[origin], origin))
            expect = history[k] - eta * np.mean(ups, axis=0)
            assert np.linalg.norm(history[k + 1] - expect) <= 1e-15

    def test_seeded_updates_are_reproducible(self):
        task = make_quadratic(2, 3, 0.5, np.random.default_rng(11),
                              samples_per_device=9, sample_noise=0.2)
        learner = learner_for(task, seed=5, step_size=0.1, batch_size=3)
        a = learner.local_update(1, np.ones(3), 4)
        b = learner.local_update(1, np.ones(3), 4)
        c = learner.local_update(1, np.ones(3), 5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestBatchRng:
    """rng_for keys a generator on (seed, device, round) as a uint32 array."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**100 - 1), device=st.integers(1, 10**6),
           round_index=st.integers(0, 2**32 - 1))
    def test_stream_is_default_rng_of_the_int_list(self, seed, device, round_index):
        learner = learner_for(identity_quadratic(), seed=seed)
        expect = np.random.default_rng([seed, device, round_index]).bit_generator.state
        assert learner.rng_for(device, round_index).bit_generator.state == expect

    def test_numpy_integer_ids_draw_the_same_stream(self):
        learner = learner_for(identity_quadratic(), seed=9)
        expect = learner.rng_for(3, 2**32 - 1).bit_generator.state
        assert learner.rng_for(np.int64(3), np.uint32(2**32 - 1)).bit_generator.state == expect

    @pytest.mark.parametrize("key", [(1, 2**32), (2**32, 0), (1, np.int64(2**32)),
                                     (np.int64(-1), 0)])
    def test_key_beyond_uint32_raises(self, key):
        with pytest.raises(OverflowError):
            learner_for(identity_quadratic()).rng_for(*key)

    def test_non_integer_id_is_rejected(self):
        with pytest.raises(TypeError):
            learner_for(identity_quadratic()).rng_for(1.5, 0)

    @pytest.mark.parametrize("seed", [-1, True, 1.0, "3", None])
    def test_seed_is_checked_at_construction(self, seed):
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            learner_for(identity_quadratic(), seed=seed)
