"""Constants estimation, the exact descent-inequality probe, the rate trend, and the deferral regime."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdmafl import (
    ConfigError,
    SgdLearner,
    SystemConfig,
    make_quadratic,
    optimal_intentional_delay,
    run_timeline,
)
from tdmafl.cli import build_task, rate_trend, theorem_step_size
from tdmafl.simulator import expected_metrics
from descent_probe import (
    AssumptionConstants,
    check_descent_lemma,
    descent_lhs,
    descent_rhs,
    estimate_constants,
    exact_constants,
)
from util import divisors


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
        lhs = descent_lhs(task, eta, 1, w, [w], [0])
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
            return rhs - descent_lhs(hetero_quad, eta, b, w_now, stale, transmitters)

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
        assert m1 / 1e-4 == pytest.approx(slope, rel=1e-3)
        assert m2 / 5e-5 == pytest.approx(slope, rel=1e-3)

    def test_trajectory_probes_have_no_violations(self, hetero_quad):
        cfg = SystemConfig(4, 2, compute_slots=1, horizon=10**6,
                           step_size=0.02, batch_size=4)
        probes = check_descent_lemma(
            hetero_quad, exact_constants(hetero_quad), cfg, seed=13,
            trajectory_rounds=80, initial=hetero_quad.w_star + 1.0,
        )
        assert [k for k, _ in probes] == list(range(2, 80))
        assert all(margin >= 0 for _, margin in probes)

    def test_rejects_multi_step_config(self, hetero_quad):
        # The probe's two sides model one local step; H = 2 must not be
        # silently replaced by H = 1.
        cfg = SystemConfig(4, 2, compute_slots=1, horizon=10**6,
                           step_size=0.02, batch_size=4, local_steps=2)
        with pytest.raises(ConfigError, match="local_steps=2"):
            check_descent_lemma(hetero_quad, exact_constants(hetero_quad), cfg, seed=14)

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 4])
    def test_lhs_is_the_mean_over_every_batch(self, batch_size):
        # Two transmitters on 4-sample shards: averaging the post-update loss
        # over every pair of distinct-index batches is the expectation itself.
        # B = n leaves one batch per device, so the covariance term is 0.
        rng = np.random.default_rng(15)
        task = make_quadratic(3, 3, 1.0, rng, samples_per_device=4,
                              sample_noise=0.7, eig_range=(0.5, 2.0))
        eta = 0.3
        w = task.w_star + rng.normal(size=3)
        stale = [w + 0.1 * rng.normal(size=3), w + 0.1 * rng.normal(size=3)]
        batches = [np.array(c) for c in itertools.combinations(range(4), batch_size)]
        mean = np.mean([
            task.loss(w - eta / 2 * (task.grad(stale[0], 0, b0) + task.grad(stale[1], 2, b1)))
            for b0, b1 in itertools.product(batches, batches)
        ])
        assert descent_lhs(task, eta, batch_size, w, stale, [0, 2]) == pytest.approx(mean, rel=1e-12)


class TestRateTrend:
    def test_step_size_formula_and_cap(self):
        smoothness = 2.0  # the noise scale M is 1
        eta = theorem_step_size(smoothness, num_devices=20, group_size=10,
                                batch_size=4, rounds=2000)
        expect = (10 * 4 / (2 * smoothness * 20)) * (np.sqrt(1 + 8 * 20 / 4) - 1)
        assert eta == pytest.approx(expect / np.sqrt(2001))
        with pytest.warns(UserWarning, match="stability cap"):
            capped = theorem_step_size(smoothness, 20, 10, 4, rounds=0)
            # G = 2, so staleness 1: the delayed recurrence is stable below eta*L = 1.
            assert capped == pytest.approx(1.0 / smoothness)

    def test_smoke_report_structure(self, hetero_quad):
        # 4-device task: G in {1, 2, 4}; G=3 must be skipped with a notice.
        doc = rate_trend(hetero_quad, [1, 2, 3, 4], rounds=60, batch_size=4,
                         initial=hetero_quad.w_star + 2.0)
        assert doc["skipped_groups"] == [3]
        assert [p["num_groups"] for p in doc["points"]] == [1, 2, 4]
        assert doc["kscale_ratio"] is not None and doc["kscale_ratio"] > 0

    @pytest.mark.filterwarnings("error:schedule step size")  # the theorem's step, uncapped
    @settings(max_examples=12, deadline=None)
    @given(num_devices=st.sampled_from([12, 20]), heterogeneity=st.floats(0, 8),
           batch_size=st.integers(1, 8), rounds=st.integers(100, 300),
           task_seed=st.integers(0, 2**16))
    def test_exact_trend_is_monotone_in_groups(self, num_devices, heterogeneity, batch_size,
                                               rounds, task_seed):
        # The rate-trend command's task family, at every group count that divides N.
        task = make_quadratic(num_devices, 5, heterogeneity, np.random.default_rng(task_seed),
                              samples_per_device=40, sample_noise=0.5, eig_range=(0.5, 2.0))
        doc = rate_trend(task, divisors(num_devices), rounds, batch_size=batch_size,
                         initial=task.w_star + 4.0 * np.ones(task.dim) / np.sqrt(task.dim))
        assert doc["monotone_in_groups"]

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
        result = run_timeline(cfg, learner, max_rounds=800)
        start = float(np.sum(task.grad(task.w_star + 3.0) ** 2))
        final = float(np.sum(task.grad(result.final_model) ** 2))
        assert final < 1e-3 * start

    def test_requires_constants_for_generic_tasks(self):
        class Dummy:
            num_devices = 4
        with pytest.raises(ConfigError):
            rate_trend(Dummy(), [1], 10)


def delayed_spectral_radius(c: float, d: int) -> float:
    """The largest root modulus of z^(d+1) - z^d + c: the rate of e_{k+1} = e_k - c e_{k-d}."""
    coeffs = np.zeros(d + 2)
    coeffs[:2] = 1.0, -1.0
    coeffs[-1] += c
    return float(max(abs(np.roots(coeffs))))


class TestStabilityLaw:
    """x_{k+1} = x_k - a*x_{k-d} is stable iff 0 < a < 2*sin(pi/(4d + 2)) (Levin and May, 1976).

    On a noise-free homogeneous quadratic each round applies the full H-step
    update from the model d = G - 1 - alpha rounds old, so along the top
    eigenvector (eigenvalue L) a = 1 - (1 - eta*L)^H. Through the whole
    pipeline, a step at 0.9 times the bound converges and one at 1.1 times
    it diverges.
    """

    @pytest.mark.parametrize("groups,alpha,local_steps", [
        (10, 0, 1), (10, 5, 1), (10, 8, 1), (4, 3, 1), (10, 5, 2), (6, 0, 3)])
    def test_distance_contracts_below_the_bound_and_grows_above_it(
            self, groups, alpha, local_steps):
        task = make_quadratic(2 * groups, 3, 0.0, np.random.default_rng(4),
                              samples_per_device=2, eig_range=(0.5, 2.0))
        top = task.smoothness()
        d = groups - 1 - alpha
        bound = 2 * np.sin(np.pi / (4 * d + 2))
        start = np.ones(task.dim)
        distances = []
        for factor in (0.9, 1.1):
            eta = (1 - (1 - factor * bound) ** (1 / local_steps)) / top
            cfg = SystemConfig(2 * groups, 2, compute_slots=1, horizon=10**7, step_size=eta,
                               local_steps=local_steps, intentional_delay=alpha)
            learner = SgdLearner(task, cfg, initial=task.w_star + start)
            result = run_timeline(cfg, learner, max_rounds=1000, metrics_every=0)
            distances.append(np.linalg.norm(result.final_model - task.w_star))
        initial = np.linalg.norm(start)
        assert distances[0] < 1e-2 * initial
        assert 1e2 * initial < distances[1] < np.inf

    @settings(max_examples=61, deadline=None)
    @example(d=0)
    @example(d=60)
    @given(d=st.integers(0, 60))
    def test_the_bound_is_where_the_companion_spectral_radius_crosses_one(self, d):
        # np.roots takes the eigenvalues of the companion matrix of the polynomial.
        bound = 2 * np.sin(np.pi / (4 * d + 2))
        assert delayed_spectral_radius(0.999 * bound, d) < 1
        assert delayed_spectral_radius(1.001 * bound, d) > 1


class TestDeferralRegime:
    """The paper's claim that the deferred downlink speeds convergence, and where it holds.

    On a noise-free homogeneous quadratic every upload of round k is the full
    gradient at the model min(k, d) rounds old, so along an eigenvector with
    eigenvalue lambda the error follows e_{k+1} = e_k - eta*lambda*e_{k-d}.
    Deferring by alpha* cuts d from G - 1 to G - 1 - alpha* without moving a
    round (Proposition 1). That lowers the final loss exactly when it lowers
    the worst mode's spectral radius: small steps contract faster with more
    staleness, as momentum does, so at eta = 0.05 deferral loses for S >= 2.
    """

    @pytest.mark.parametrize("eta,group_size,wins", [
        (0.05, 1, True), (0.05, 2, False), (0.05, 4, False), (0.05, 5, False),
        (0.2, 1, True), (0.2, 2, True), (0.2, 4, True), (0.2, 5, True),
    ])
    def test_deferral_wins_where_it_lowers_the_spectral_radius(self, eta, group_size, wins):
        task = make_quadratic(20, 5, 0.0, np.random.default_rng(0), samples_per_device=4,
                              eig_range=(0.5, 2.0))
        initial = task.w_star + 4.0 * np.ones(task.dim) / np.sqrt(task.dim)
        plain = SystemConfig(20, group_size, compute_slots=4, batch_size=4, step_size=eta,
                             horizon=500)
        alpha = optimal_intentional_delay(plain)
        deferred = replace(plain, intentional_delay=alpha)
        g, best = plain.num_groups, task.loss(task.w_star)
        rounds, excess = [], []
        for cfg in (plain, deferred):
            result = run_timeline(cfg, SgdLearner(task, cfg, initial=initial), metrics_every=0)
            rounds.append(result.completed_rounds)
            excess.append(task.loss(result.final_model) - best)
        assert rounds[0] == rounds[1]
        eigenvalues = np.linalg.eigvalsh(task.hessian)
        radius = [max(delayed_spectral_radius(eta * lam, d) for lam in eigenvalues)
                  for d in (g - 1, g - 1 - alpha)]
        assert (radius[1] < radius[0]) == wins
        assert (excess[1] < excess[0]) == wins


class TestDeferralTradeoff:
    """Whether the free deferral alpha* lowers the expected final loss, read exactly.

    The task is the benchmark's sweep_quad quadratic (data_seed 0: N = 20,
    heterogeneity 1, sample noise 0.5), with tau_comp = 4, T = 500 and B = 4;
    each deferral runs its own exact round count K. At eta = 0.05 and H = 1,
    deferral by alpha* (17, 7, 3 and 2 at S = 1, 2, 4 and 5) wins at S = 1
    and 2 and loses at S = 4 and 5. Two Monte Carlo checks confirm a win and
    a loss: seeds 0-99 at S = 2 and 0-49 at S = 4 per deferral, each mean
    within 4 standard errors of the exact value, and the sign of the sampled
    gap that of the exact one. The seeds and the bound were fixed before the
    test first ran.
    """

    @pytest.fixture(scope="class")
    def quad(self):
        """The task and its initial model."""
        return build_task({"kind": "quadratic", "dim": 5, "samples_per_device": 32,
                           "sample_noise": 0.5, "heterogeneity": 1.0, "eig_range": [0.5, 2.0],
                           "init_offset": 4.0, "data_seed": 0}, None, num_devices=20)

    @staticmethod
    def plain(group_size, eta=0.05, local_steps=1):
        return SystemConfig(20, group_size, compute_slots=4, batch_size=4, step_size=eta,
                            local_steps=local_steps, horizon=500)

    @staticmethod
    def final_loss(quad, cfg):
        """E f(w_K) for the run's K = cfg.rounds_exact() rounds."""
        return expected_metrics(cfg, *quad, cfg.rounds_exact() + 1)[0][-1]

    @pytest.mark.parametrize("group_size,wins", [(1, True), (2, True), (4, False), (5, False)])
    def test_free_deferral_wins_at_small_groups_and_loses_at_large_ones(
            self, quad, group_size, wins):
        plain = self.plain(group_size)
        deferred = replace(plain, intentional_delay=optimal_intentional_delay(plain))
        assert (self.final_loss(quad, deferred) < self.final_loss(quad, plain)) == wins

    @pytest.mark.parametrize("eta,local_steps,best", [
        (0.05, 1, [17, 8, 0, 0]), (0.05, 2, [19, 8, 2, 1]),
        (0.2, 1, [19, 9, 4, 2]), (0.2, 2, [19, 9, 4, 2])])
    def test_loss_minimising_deferral(self, quad, eta, local_steps, best):
        # At S = 1, 2, 4 and 5. alpha* is the minimiser in 3 of these 16 cases; the
        # minimiser lies beyond it in 9 and below it in 4.
        for group_size, expect in zip([1, 2, 4, 5], best):
            plain = self.plain(group_size, eta, local_steps)
            losses = [self.final_loss(quad, replace(plain, intentional_delay=alpha))
                      for alpha in range(plain.num_groups)]
            assert int(np.argmin(losses)) == expect

    @pytest.mark.parametrize("group_size,seeds", [(2, 100), (4, 50)], ids=["win", "loss"])
    def test_seeded_runs_confirm_the_exact_gap(self, quad, group_size, seeds):
        (task, initial), plain = quad, self.plain(group_size)
        deferred = replace(plain, intentional_delay=optimal_intentional_delay(plain))
        exact, sampled = [], []
        for cfg in (plain, deferred):
            exact.append(self.final_loss(quad, cfg))
            finals = [task.loss(run_timeline(cfg, SgdLearner(task, cfg, seed=seed,
                                                             initial=initial),
                                             metrics_every=0).final_model)
                      for seed in range(seeds)]
            sampled.append(np.mean(finals))
            assert abs(sampled[-1] - exact[-1]) <= 4 * np.std(finals, ddof=1) / np.sqrt(seeds)
        assert np.sign(sampled[1] - sampled[0]) == np.sign(exact[1] - exact[0])
