"""Sampler mechanics: SNR matching, DDIM algebra, flow-matching integration."""

import numpy as np
import pytest

from rmoamp import (
    DdimPrior,
    DdimSchedule,
    FlowMatchingPrior,
    IntegrationError,
    InvalidParameterError,
    ddim_reverse_step,
    ddim_x0_predict,
    default_ddim_schedule,
    fm_integrate,
    gaussian_eps_predictor,
    gaussian_velocity_predictor,
    pointmass_eps_predictor,
    pointmass_velocity_predictor,
    snr_match,
)


class TestSnrMatch:
    def test_known_values(self):
        assert snr_match(1.0, "flow-matching") == pytest.approx(0.5, abs=1e-15)
        assert snr_match(3.0, "ddim") == pytest.approx(0.25, abs=1e-15)
        assert snr_match(0.0, "ddim") == 1.0
        assert snr_match(0.0, "flow-matching") == 1.0

    def test_laws_on_dense_grid(self):
        grid = np.concatenate(([0.0, 1.0, 3.0], np.geomspace(1e-4, 1e3, 47)))
        for v in grid:
            assert abs(snr_match(v, "ddim") - 1.0 / (1.0 + v)) < 1e-12
            assert abs(snr_match(v, "flow-matching")
                       - 1.0 / (1.0 + np.sqrt(v))) < 1e-12

    def test_monotone_decreasing(self):
        vs = np.linspace(0, 10, 50)
        for kind in ("ddim", "flow-matching"):
            ts = [snr_match(v, kind) for v in vs]
            assert np.all(np.diff(ts) < 0)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidParameterError):
            snr_match(-0.1, "ddim")
        with pytest.raises(InvalidParameterError):
            snr_match(1.0, "score")


class TestSchedule:
    def test_default_shape(self):
        sched = default_ddim_schedule()
        assert sched.num_steps == 50
        assert sched.alpha_bar[0] == pytest.approx(0.999)
        assert sched.alpha_bar[-1] == pytest.approx(0.005)
        assert np.all(np.diff(sched.alpha_bar) < 0)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            DdimSchedule(np.array([0.5, 0.6]))  # increasing
        with pytest.raises(InvalidParameterError):
            DdimSchedule(np.array([1.0, 0.5]))  # boundary
        with pytest.raises(InvalidParameterError):
            DdimSchedule(np.array([[0.5]]))
        with pytest.raises(InvalidParameterError):
            default_ddim_schedule(num_steps=1)


class TestDdimAlgebra:
    def test_x0_round_trip(self):
        rng = np.random.Generator(np.random.Philox(1))
        s0 = rng.standard_normal(128)
        eps = rng.standard_normal(128)
        for ab in (0.999, 0.5, 0.01):
            s_t = np.sqrt(ab) * s0 + np.sqrt(1 - ab) * eps
            assert np.max(np.abs(ddim_x0_predict(s_t, eps, ab) - s0)) < 1e-12

    def test_reverse_step_identity_when_levels_equal(self):
        rng = np.random.Generator(np.random.Philox(2))
        s_t = rng.standard_normal(32)
        eps = rng.standard_normal(32)
        out = ddim_reverse_step(s_t, eps, 0.3, 0.3)
        assert np.max(np.abs(out - s_t)) < 1e-12

    def test_reverse_step_requires_monotone_levels(self):
        with pytest.raises(InvalidParameterError):
            ddim_reverse_step(np.zeros(2), np.zeros(2), 0.5, 0.3)
        with pytest.raises(InvalidParameterError):
            ddim_x0_predict(np.zeros(2), np.zeros(2), 0.0)

    def test_pointmass_trajectory_lands_on_signal(self):
        rng = np.random.Generator(np.random.Philox(3))
        s0 = rng.standard_normal(64)
        sched = default_ddim_schedule(num_steps=10)
        prior = DdimPrior(pointmass_eps_predictor(s0), schedule=sched)
        # noisy pseudo-observation at v = 4: maps deep into the schedule
        s_in = s0 + 2.0 * rng.standard_normal(64)
        out = prior.denoise(s_in, snr_match(4.0, "ddim"), 4.0)
        assert np.max(np.abs(out - s0)) < 1e-8
        # one reverse step per grid entry cleaner than alpha_bar* = 0.2, then
        # the x0 prediction
        assert prior.eval_count == np.sum(sched.alpha_bar > 0.2) + 1

    def test_gaussian_x0_mode_is_conjugate_posterior(self):
        # schedule containing alpha_bar = 1/(1+v) exactly: the single-step
        # inversion must equal the Wiener posterior mean var0 s/(var0 + v)
        v, var0 = 1.0, 2.0
        ab_star = 1.0 / (1.0 + v)
        sched = DdimSchedule(np.array([0.9, ab_star, 0.1]))
        prior = DdimPrior(gaussian_eps_predictor(var0=var0), schedule=sched,
                          mode="x0")
        rng = np.random.Generator(np.random.Philox(4))
        s_in = rng.standard_normal(256)
        out = prior.denoise(s_in, ab_star, v)
        assert np.max(np.abs(out - var0 * s_in / (var0 + v))) < 1e-10

    def test_gaussian_x0_mode_off_grid_is_conjugate_posterior(self):
        # alpha_bar* = 1/(1+v) between two entries of the default grid: x0
        # mode predicts at alpha_bar* itself, not at the nearest entry
        v, var0 = 0.027, 1.0
        prior = DdimPrior(gaussian_eps_predictor(var0=var0), mode="x0")
        assert snr_match(v, "ddim") not in prior.schedule.alpha_bar
        rng = np.random.Generator(np.random.Philox(4))
        s_in = rng.standard_normal(4096)
        out = prior.denoise(s_in, snr_match(v, "ddim"), v)
        assert np.max(np.abs(out - var0 * s_in / (var0 + v))) < 1e-10
        assert prior.eval_count == 1

    def test_gaussian_trajectory_mode_is_marginal_transport(self):
        # rolling back with the exact predictor transports the marginal at
        # alpha_bar* onto the data law: for a Gaussian the continuum limit is
        # a scale map, out = sqrt(ab*) sqrt(ab_0) var0 / (sd* sd_0) s_in
        # with sd^2(ab) = ab var0 + 1 - ab (not the posterior mean)
        v, var0 = 1.0, 2.0
        sched = default_ddim_schedule(num_steps=200)
        prior = DdimPrior(gaussian_eps_predictor(var0=var0), schedule=sched)
        rng = np.random.Generator(np.random.Philox(5))
        s_in = rng.standard_normal(256)
        out = prior.denoise(s_in, snr_match(v, "ddim"), v)
        ab_star, ab_0 = snr_match(v, "ddim"), sched.alpha_bar[0]
        sd = lambda a: np.sqrt(a * var0 + 1 - a)
        scale = (np.sqrt(ab_star) * np.sqrt(ab_0) * var0
                 / (sd(ab_star) * sd(ab_0)))
        assert np.max(np.abs(out - scale * s_in)) < 0.02 * np.max(
            np.abs(scale * s_in))

    def test_mode_validation(self):
        with pytest.raises(InvalidParameterError):
            DdimPrior(lambda s, a: s, mode="ancestral")


class TestFlowMatching:
    def test_constant_velocity_is_exact(self):
        c = np.array([1.0, -2.0, 0.5])
        out = fm_integrate(np.zeros(3), lambda z, t: c, 0.25, 0.75, 7)
        assert np.max(np.abs(out - 0.5 * c)) < 1e-14

    def test_pointmass_endpoint_error_bounded(self):
        # straight-line field: Euler is exact on the path, so the endpoint
        # error is the path-truncation gap (1 - t_end) * s0
        rng = np.random.Generator(np.random.Philox(6))
        s0 = rng.standard_normal(64)
        t0, t_end = 0.5, 1.0 - 1e-4
        z = fm_integrate(t0 * s0, pointmass_velocity_predictor(s0), t0,
                         t_end, 100)
        rms = np.sqrt(np.mean((z - s0) ** 2))
        assert rms < 1e-3

    def test_pointmass_euler_is_exact_on_path(self):
        rng = np.random.Generator(np.random.Philox(7))
        s0 = rng.standard_normal(16)
        t0, t_end = 0.3, 0.9
        z0 = 0.1 * rng.standard_normal(16)
        z = fm_integrate(z0, pointmass_velocity_predictor(s0), t0, t_end, 40)
        exact = s0 - (1 - t_end) * (s0 - z0) / (1 - t0)
        assert np.max(np.abs(z - exact)) < 1e-12

    def test_first_order_step_halving_on_curved_field(self):
        # Gaussian velocity: dz/dt = a(t) z with
        # a(t) = (t var0 - (1 - t)) / (t^2 var0 + (1 - t)^2); the exact flow
        # is exp(int a dt), evaluated by fine quadrature as the oracle
        from scipy.integrate import quad

        var0 = 4.0
        t0, t_end = 0.4, 0.9
        a = lambda t: (t * var0 - (1 - t)) / (t * t * var0 + (1 - t) ** 2)
        growth = np.exp(quad(a, t0, t_end, limit=200)[0])
        z0 = np.array([1.0, -0.5, 2.0])
        exact = growth * z0
        pred = gaussian_velocity_predictor(var0=var0)
        errs = []
        for n in (100, 200, 400):
            z = fm_integrate(z0, pred, t0, t_end, n)
            errs.append(np.max(np.abs(z - exact)))
        assert 1.8 < errs[0] / errs[1] < 2.2
        assert 1.8 < errs[1] / errs[2] < 2.2

    def test_integration_error_carries_step(self):
        def bad(z, t):
            return np.full_like(z, np.inf) if t >= 0.5 else np.zeros_like(z)

        with pytest.raises(IntegrationError) as info:
            fm_integrate(np.zeros(2), bad, 0.0, 1.0, 10)
        assert info.value.step == 5

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            fm_integrate(np.zeros(2), lambda z, t: z, 0.5, 0.4, 10)
        with pytest.raises(InvalidParameterError):
            fm_integrate(np.zeros(2), lambda z, t: z, 0.0, 1.0, 0)
        with pytest.raises(InvalidParameterError):
            FlowMatchingPrior(lambda z, t: z, num_steps=0)


class TestFlowMatchingPrior:
    def test_near_clean_input_passes_through(self):
        # t* at or past the end of the path: nothing left to integrate
        prior = FlowMatchingPrior(gaussian_velocity_predictor())
        s_in = np.array([1.0, 2.0])
        out = prior.denoise(s_in, 0.9995, 2.5e-7)
        assert np.allclose(out, s_in, atol=1e-12)
        assert prior.eval_count == 0

    def test_eval_count_tracks_steps(self):
        prior = FlowMatchingPrior(gaussian_velocity_predictor(), num_steps=20)
        prior.denoise(np.ones(8), snr_match(1.0, "flow-matching"), 1.0)
        assert prior.eval_count == 20
        prior.denoise(np.ones(8), snr_match(1.0, "flow-matching"), 1.0)
        assert prior.eval_count == 40

    def test_gaussian_prior_is_marginal_transport(self):
        # the probability-flow ODE transports the path marginal at t* onto
        # the data law: continuum limit is the sd-ratio scale map
        # out = t* sd(t_end)/sd(t*) s_in with sd^2(t) = t^2 var0 + (1-t)^2
        var0, v = 1.0, 1.0
        t_end = FlowMatchingPrior.T_END
        prior = FlowMatchingPrior(gaussian_velocity_predictor(var0=var0),
                                  num_steps=400)
        rng = np.random.Generator(np.random.Philox(8))
        s_in = rng.standard_normal(64)
        t_star = snr_match(v, "flow-matching")
        out = prior.denoise(s_in, t_star, v)
        sd = lambda t: np.sqrt(t * t * var0 + (1 - t) ** 2)
        scale = t_star * sd(t_end) / sd(t_star)
        assert np.max(np.abs(out - scale * s_in)) < 0.01

    def test_snr_kinds(self):
        assert FlowMatchingPrior(lambda z, t: z).snr_kind == "flow-matching"
        assert DdimPrior(lambda s, a: s).snr_kind == "ddim"


class TestAnalyticPredictors:
    def test_pointmass_eps_recovers_exact_noise(self):
        rng = np.random.Generator(np.random.Philox(9))
        s0 = rng.standard_normal(32)
        eps = rng.standard_normal(32)
        ab = 0.6
        s_t = np.sqrt(ab) * s0 + np.sqrt(1 - ab) * eps
        pred = pointmass_eps_predictor(s0)
        assert np.max(np.abs(pred(s_t, ab) - eps)) < 1e-12

    def test_gaussian_eps_matches_posterior_identity(self):
        # E[eps | s_t] = sqrt(1-ab) (s_t - sqrt(ab) mu) / (ab var0 + 1 - ab)
        mean, var0, ab = 0.5, 2.0, 0.7
        pred = gaussian_eps_predictor(mean=mean, var0=var0)
        s_t = np.array([1.3])
        expected = np.sqrt(1 - ab) * (1.3 - np.sqrt(ab) * mean) \
            / (ab * var0 + 1 - ab)
        assert pred(s_t, ab)[0] == pytest.approx(expected, abs=1e-14)

    def test_gaussian_velocity_consistency(self):
        # velocity must equal s0_hat - eps_hat from the same joint posterior
        mean, var0, t = 0.3, 1.5, 0.6
        z = np.array([0.9])
        var_t = t * t * var0 + (1 - t) ** 2
        s0_hat = mean + t * var0 * (0.9 - t * mean) / var_t
        eps_hat = (1 - t) * (0.9 - t * mean) / var_t
        pred = gaussian_velocity_predictor(mean=mean, var0=var0)
        assert pred(z, t)[0] == pytest.approx(s0_hat - eps_hat, abs=1e-14)
