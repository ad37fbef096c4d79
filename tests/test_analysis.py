"""Constants estimation, the descent-inequality probe, and the rate trend."""

import numpy as np
import pytest

from tdmafl import ConfigError, SystemConfig, make_quadratic
from tdmafl.cli import rate_trend, theorem_step_size
from tdmafl.tasks import QuadraticTask
from descent_probe import (
    AssumptionConstants,
    check_descent_lemma,
    descent_lhs_mc,
    descent_rhs,
    estimate_constants,
    exact_constants,
)


@pytest.fixture()
def hetero_quad():
    return make_quadratic(4, 5, 1.5, np.random.default_rng(0),
                          samples_per_device=30, sample_noise=0.6,
                          eig_range=(0.5, 2.0))


class TestEstimateConstants:
    def test_identity_curvature(self):
        task = make_quadratic(4, 5, 0.0, np.random.default_rng(1))
        c = estimate_constants(task, 64, 2.0, np.random.default_rng(2))
        assert c.smoothness == pytest.approx(1.0, abs=1e-6)
        assert 1.0 <= c.smoothness <= 1.01

    def test_spread_spectrum_within_band(self, hetero_quad):
        exact = exact_constants(hetero_quad)
        est = estimate_constants(hetero_quad, 1024, 2.0, np.random.default_rng(3))
        assert exact.smoothness <= est.smoothness <= 1.01 * exact.smoothness
        assert est.heterogeneity_sq == pytest.approx(exact.heterogeneity_sq, rel=0.05)
        assert est.noise_sq == pytest.approx(exact.noise_sq, rel=0.05)
        assert est.noise_scale == pytest.approx(1.0, rel=1e-6)

    def test_homogeneous_dispersion_is_zero(self):
        task = make_quadratic(4, 3, 0.0, np.random.default_rng(4))
        c = estimate_constants(task, 32, 1.0, np.random.default_rng(5))
        assert c.heterogeneity_sq < 1e-20

    def test_noise_free_envelope(self):
        # Degenerate sampling noise: every sample gradient equals the device
        # gradient, so the envelope collapses to sigma^2 ~ 0, M ~ 1.
        task = make_quadratic(4, 3, 1.0, np.random.default_rng(6), sample_noise=0.0)
        c = estimate_constants(task, 32, 1.0, np.random.default_rng(7))
        assert c.noise_sq == pytest.approx(0.0, abs=1e-12)
        assert c.noise_scale == pytest.approx(1.0, rel=1e-6)

    def test_degenerate_sampling_rejected(self, hetero_quad):
        with pytest.raises(ConfigError):
            estimate_constants(hetero_quad, 8, 0.0, np.random.default_rng(8))

    def test_constants_validate(self):
        with pytest.raises(ConfigError):
            AssumptionConstants(smoothness=-1, noise_sq=0, noise_scale=1,
                                heterogeneity_sq=0)
        with pytest.raises(ConfigError):
            AssumptionConstants(smoothness=1, noise_sq=0, noise_scale=0.5,
                                heterogeneity_sq=0)


class TestDescentInequality:
    def test_homogeneous_fresh_state_margin_closed_form(self):
        # One transmitter, single-sample shards, no noise, no dispersion,
        # fresh model: margin reduces to (eta^2/2) |g|^2 (L - Rayleigh(A, g)),
        # computable in closed form.
        rng = np.random.default_rng(9)
        task = make_quadratic(3, 4, 0.0, rng, samples_per_device=1,
                              eig_range=(0.5, 2.0))
        consts = exact_constants(task)
        eta = 0.05
        w = task.w_star + rng.normal(size=4)
        g = task.grad(w)
        rhs = descent_rhs(task, consts, eta, 1, w, [w], [0])
        lhs, se = descent_lhs_mc(task, eta, 1, w, [w], [0], trials=16,
                                 rng=np.random.default_rng(10))
        assert se == pytest.approx(0.0, abs=1e-12)  # deterministic batches
        rayleigh = float(g @ task.hessian @ g / (g @ g))
        expected_margin = 0.5 * eta**2 * float(g @ g) * (consts.smoothness - rayleigh)
        assert rhs - lhs == pytest.approx(expected_margin, rel=1e-9)
        assert rhs - lhs >= 0

    def test_margin_scales_linearly_in_eta_with_matching_slope(self, hetero_quad):
        # For a stale heterogeneous probe the margin approaches zero from
        # above at a rate set by the first-order terms.
        consts = exact_constants(hetero_quad)
        rng = np.random.default_rng(11)
        w_now = hetero_quad.w_star + 0.5 * rng.normal(size=hetero_quad.dim)
        stale = [w_now + 0.02 * rng.normal(size=hetero_quad.dim) for _ in range(2)]
        transmitters = [0, 2]
        s, b = 2, 4

        def margin(eta):
            rhs = descent_rhs(hetero_quad, consts, eta, b, w_now, stale, transmitters)
            lhs, _ = descent_lhs_mc(hetero_quad, eta, b, w_now, stale,
                                    transmitters, trials=60_000,
                                    rng=np.random.default_rng(12))
            return rhs - lhs

        # d(RHS - LHS)/d eta at 0, written out term by term.
        g_now = hetero_quad.grad(w_now)
        slope = 0.5 * consts.heterogeneity_sq - 0.5 * float(g_now @ g_now)
        for dev, w_old in zip(transmitters, stale):
            g_old = hetero_quad.grad(w_old, dev)
            delta = w_now - w_old
            slope += (consts.smoothness**2 / (2 * s)) * float(delta @ delta)
            slope -= (1 / (2 * s)) * float(g_old @ g_old)
            slope += (1 / s) * float(g_now @ g_old)

        m1, m2 = margin(1e-4), margin(5e-5)
        assert m1 > 0 and m2 > 0
        assert m1 / 1e-4 == pytest.approx(slope, rel=0.02)
        assert m2 / 5e-5 == pytest.approx(slope, rel=0.02)

    def test_trajectory_probes_have_no_violations(self, hetero_quad):
        cfg = SystemConfig(4, 2, compute_slots=1, horizon=10**6,
                           step_size=0.02, batch_size=4)
        probes = check_descent_lemma(
            hetero_quad, exact_constants(hetero_quad), cfg, trials=2000,
            rng=np.random.default_rng(13), probes=25, trajectory_rounds=80,
            initial=hetero_quad.w_star + 1.0,
        )
        assert len(probes) == 25
        assert all(margin >= -3.0 * se for _, margin, se in probes)

    def test_se_warning(self, hetero_quad):
        cfg = SystemConfig(4, 2, compute_slots=1, horizon=10**6,
                           step_size=0.02, batch_size=4)
        with pytest.warns(UserWarning, match="standard error"):
            check_descent_lemma(
                hetero_quad, exact_constants(hetero_quad), cfg, trials=16,
                rng=np.random.default_rng(14), probes=4, trajectory_rounds=30,
                target_se=1e-12,
            )

    def test_rejects_multi_step_config(self, hetero_quad):
        # The probe's two sides model one local step; H = 2 must not be
        # silently replaced by H = 1.
        cfg = SystemConfig(4, 2, compute_slots=1, horizon=10**6,
                           step_size=0.02, batch_size=4, local_steps=2)
        with pytest.raises(ConfigError, match="local_steps=2"):
            check_descent_lemma(hetero_quad, exact_constants(hetero_quad), cfg,
                                trials=16, rng=np.random.default_rng(14), probes=4)

    def test_generic_path_matches_quadratic_path(self, hetero_quad):
        # The non-quadratic fallback draws batches one trial at a time; its
        # mean must agree with the vectorized closed form within MC error.
        class Wrapped(QuadraticTask.__mro__[1]):  # plain Task interface
            def __init__(self, inner):
                self.inner = inner
                self.dim = inner.dim
                self.num_devices = inner.num_devices

            @property
            def shard_sizes(self):
                return self.inner.shard_sizes

            def loss(self, w, device=None, batch=None):
                return self.inner.loss(w, device, batch)

            def grad(self, w, device=None, batch=None):
                return self.inner.grad(w, device, batch)

        rng = np.random.default_rng(15)
        w = hetero_quad.w_star + rng.normal(size=hetero_quad.dim)
        stale = [w, w]
        fast, _ = descent_lhs_mc(hetero_quad, 0.05, 4, w, stale, [0, 1],
                                 trials=20_000, rng=np.random.default_rng(16))
        slow, se = descent_lhs_mc(Wrapped(hetero_quad), 0.05, 4, w, stale,
                                  [0, 1], trials=4000,
                                  rng=np.random.default_rng(17))
        assert fast == pytest.approx(slow, abs=6 * se)


class TestRateTrend:
    def test_step_size_formula_and_cap(self):
        smoothness = 2.0  # the noise scale M is 1
        eta = theorem_step_size(smoothness, num_devices=20, group_size=10,
                                batch_size=4, rounds=2000)
        expect = (10 * 4 / (2 * smoothness * 20)) * (np.sqrt(1 + 8 * 20 / 4) - 1)
        assert eta == pytest.approx(expect / np.sqrt(2001))
        with pytest.warns(UserWarning, match="stability cap"):
            capped = theorem_step_size(smoothness, 20, 10, 4, rounds=0)
            assert capped == pytest.approx(2.0 / smoothness)

    def test_smoke_report_structure(self, hetero_quad):
        # 4-device task: G in {1, 2, 4}; G=3 must be skipped with a notice.
        doc = rate_trend(hetero_quad, [1, 2, 3, 4], rounds=60,
                         seeds=range(3), batch_size=4,
                         initial=hetero_quad.w_star + 2.0)
        assert doc["skipped_groups"] == [3]
        assert [p["num_groups"] for p in doc["points"]] == [1, 2, 4]
        assert all(len(p["per_seed"]) == 3 for p in doc["points"])
        assert doc["kscale_ratio"] is not None and doc["kscale_ratio"] > 0
        assert len(doc["adjacent_separations"]) == 2

    def test_homogeneous_task_still_converges_under_staleness(self):
        # Zero dispersion: even with maximal staleness (singleton groups)
        # the iterates approach stationarity.
        from tdmafl import SgdLearner, run_timeline

        task = make_quadratic(4, 4, 0.0, np.random.default_rng(18),
                              samples_per_device=20, sample_noise=0.2,
                              eig_range=(0.5, 2.0))
        cfg = SystemConfig(4, 1, compute_slots=1, horizon=10**6,
                           step_size=0.05, batch_size=4)
        learner = SgdLearner(task, cfg, seed=0, initial=task.w_star + 3.0)
        result = run_timeline(cfg, learner, max_rounds=800, record_events=False)
        start = float(np.sum(task.grad(task.w_star + 3.0) ** 2))
        final = float(np.sum(task.grad(result.final_model) ** 2))
        assert final < 1e-3 * start

    def test_requires_constants_for_generic_tasks(self):
        class Dummy:
            num_devices = 4
        with pytest.raises(ConfigError):
            rate_trend(Dummy(), [1], 10, [0])
