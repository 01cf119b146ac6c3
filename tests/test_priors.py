"""Analytic denoisers: Wiener, Gaussian mixture, DCT soft threshold."""

import numpy as np
import pytest
from scipy.special import logsumexp

from rmoamp import (
    AnalyticGaussianPrior,
    DctSoftThresholdPrior,
    ExperimentConfig,
    GaussianMixturePrior,
    InvalidParameterError,
    NleError,
    dct_transform,
    denoise,
    run_experiment,
)
from rmoamp.priors import universal_threshold


def brute_force_gm_posterior(z, weights, means, variances, v):
    """Scalar-by-scalar reference: responsibilities via direct densities."""
    out = np.empty_like(z)
    for i, zi in enumerate(z):
        tv = np.asarray(variances) + v
        dens = np.asarray(weights) * np.exp(-0.5 * (zi - means) ** 2 / tv) \
            / np.sqrt(2 * np.pi * tv)
        post = np.asarray(means) + (np.asarray(variances) / tv) * (zi - means)
        out[i] = np.sum(dens * post) / np.sum(dens)
    return out


class TestWiener:
    def test_unit_prior_unit_noise_halves(self):
        prior = AnalyticGaussianPrior()
        s = np.array([2.0, -4.0, 0.0])
        assert np.allclose(prior.denoise(s, None, 1.0), s / 2, atol=1e-15)

    def test_gain_formula(self):
        prior = AnalyticGaussianPrior(mean=1.0, var0=3.0)
        assert prior.gain(1.0) == pytest.approx(0.75)
        out = prior.denoise(np.array([5.0]), None, 1.0)
        assert out[0] == pytest.approx(1.0 + 0.75 * 4.0)

    def test_point_mass_returns_mean(self):
        prior = AnalyticGaussianPrior(mean=2.0, var0=0.0)
        out = prior.denoise(np.array([100.0, -3.0]), None, 0.5)
        assert np.array_equal(out, [2.0, 2.0])

    def test_degenerate_zero_total_variance(self):
        prior = AnalyticGaussianPrior(mean=0.0, var0=0.0)
        assert prior.gain(0.0) == 0.0

    def test_rejects_negative_variance(self):
        with pytest.raises(InvalidParameterError):
            AnalyticGaussianPrior(var0=-1.0)

    def test_rejects_nan_variance(self):
        # a NaN var0 faulted every iteration and still reported a PSNR
        with pytest.raises(InvalidParameterError):
            AnalyticGaussianPrior(var0=float("nan"))


class TestGaussianMixture:
    def test_matches_brute_force_oracle(self):
        weights = (0.5, 0.3, 0.2)
        means = (-1.0, 0.0, 2.0)
        variances = (0.5, 1.0, 0.1)
        gm = GaussianMixturePrior(weights, means, variances)
        rng = np.random.Generator(np.random.Philox(1))
        z = rng.uniform(-4, 4, size=200)
        for v in (0.1, 1.0, 3.0):
            ref = brute_force_gm_posterior(z, weights, means, variances, v)
            assert np.max(np.abs(gm.denoise(z, None, v) - ref)) < 1e-10

    def test_single_component_reduces_to_wiener(self):
        gm = GaussianMixturePrior((1.0,), (0.5,), (2.0,))
        wiener = AnalyticGaussianPrior(mean=0.5, var0=2.0)
        z = np.linspace(-3, 3, 50)
        assert np.allclose(gm.denoise(z, None, 0.7),
                           wiener.denoise(z, None, 0.7), atol=1e-12)

    def test_symmetric_pair_is_tanh_rule(self):
        # equal-weight components at +-mu with common variance tau:
        # E[s|z] = shrink(z) + coupling * tanh(mu z / (tau + v))
        mu, tau, v = 1.5, 0.2, 0.5
        gm = GaussianMixturePrior((0.5, 0.5), (-mu, mu), (tau, tau))
        z = np.linspace(-4, 4, 101)
        tv = tau + v
        expected = (tau / tv) * z + (v / tv) * mu * np.tanh(mu * z / tv)
        assert np.max(np.abs(gm.denoise(z, None, v) - expected)) < 1e-12

    def test_zero_weight_component_is_never_responsible(self):
        # far from the weighted component, a zero-weight one nearer the
        # input must still take no responsibility
        gm = GaussianMixturePrior((1.0, 0.0), (0.0, 100.0), (1.0, 1.0))
        z = np.array([10.0, 40.0, 60.0, 99.0])
        assert np.array_equal(gm.denoise(z, None, 1.0), z / 2)

    def test_point_mass_component_snaps_at_zero_noise(self):
        gm = GaussianMixturePrior((0.5, 0.5), (0.0, 3.0), (0.0, 0.0))
        out = gm.denoise(np.array([0.1, 2.9]), None, 0.01)
        assert abs(out[0]) < 0.05
        assert abs(out[1] - 3.0) < 0.05

    def test_posterior_mean_is_a_contraction_toward_prior_mass(self):
        gm = GaussianMixturePrior((0.9, 0.1), (0.0, 0.0), (1e-4, 1.0))
        z = np.linspace(-5, 5, 201)
        out = gm.denoise(z, None, 0.3)
        assert np.all(np.abs(out) <= np.abs(z) + 1e-12)
        # odd symmetry for a symmetric prior
        assert np.allclose(out, -out[::-1], atol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            GaussianMixturePrior((0.6, 0.6), (0, 1), (1, 1))
        with pytest.raises(InvalidParameterError):
            GaussianMixturePrior((0.5, 0.5), (0, 1), (1, -1))
        with pytest.raises(InvalidParameterError):
            GaussianMixturePrior((0.5, 0.5), (0, 1, 2), (1, 1))
        with pytest.raises(InvalidParameterError):
            GaussianMixturePrior((-0.5, 1.5), (0, 1), (1, 1))

    def test_rejects_nan_variance(self):
        with pytest.raises(InvalidParameterError):
            GaussianMixturePrior((0.5, 0.5), (0, 1), (float("nan"), 1))

    @pytest.mark.parametrize("params", [
        (1.0, 0.0, 1.0),                                   # scalars
        ([[0.5, 0.5]], [[0.0, 1.0]], [[1.0, 1.0]]),        # 1 x K
        ((), (), ()),                                      # no component
    ], ids=["scalar", "row-matrix", "empty"])
    def test_parameters_must_be_nonempty_vectors(self, params):
        with pytest.raises(InvalidParameterError):
            GaussianMixturePrior(*params)

    def test_bad_shape_is_one_error_row_per_trial(self):
        # a mixture that is not a vector must fail as a parameter error, so
        # run_experiment records each trial instead of aborting
        cfg = ExperimentConfig(
            source={"kind": "gaussian", "n": 16, "seed": 3}, num_trials=2,
            max_iters=2, prior={"kind": "analytic-gauss-mixture",
                                "weights": [[0.5, 0.5]], "means": [[0, 1]],
                                "variances": [[1, 1]]})
        report = run_experiment(cfg)
        assert len(report.trials) == 2
        assert all("1-D vectors" in t.error for t in report.trials)


def logsumexp_posterior(z, weights, means, variances, v):
    """The mixture posterior mean with log responsibilities normalized by
    scipy's logsumexp; a zero total variance is floored at 1e-30, as in
    GaussianMixturePrior."""
    total_var = np.maximum(variances + v, 1e-30)
    diff = z[:, np.newaxis] - means
    with np.errstate(divide="ignore"):
        log_weights = np.log(weights)
    log_resp = (log_weights - 0.5 * np.log(total_var)
                - 0.5 * diff ** 2 / total_var)
    log_resp -= logsumexp(log_resp, axis=1, keepdims=True)
    return np.sum(np.exp(log_resp) * (means + variances / total_var * diff),
                  axis=1)


def seeded_mixture(k, seed):
    """K components; from K = 2 on, the first has zero weight and the last
    zero variance."""
    rng = np.random.Generator(np.random.Philox(seed))
    weights = rng.dirichlet(np.ones(k))
    means = rng.uniform(-3.0, 3.0, k)
    variances = rng.exponential(1.0, k)
    if k > 1:
        weights[0] = 0.0
        weights /= weights.sum()
        variances[-1] = 0.0
    return weights, means, variances


class TestLogSumExp:
    """The mixture posterior's one softmax agrees with the responsibilities
    normalized by ``scipy.special.logsumexp``, to a relative 1e-12."""

    V = (0.0, 1e-5, 1e-3, 0.1, 2.0)

    @staticmethod
    def assert_matches_reference(params, z, v):
        np.testing.assert_allclose(
            GaussianMixturePrior(*params).denoise(z, None, v),
            logsumexp_posterior(z, *params, v), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 100.0, 1e3])
    @pytest.mark.parametrize("cols", [1, 2, 3, 7, 8])
    def test_random_blocks(self, scale, cols):
        # cols components, one of them with zero weight and one with zero
        # variance from two on, and inputs of the given scale
        params = seeded_mixture(cols, seed=40 + cols)
        rng = np.random.Generator(np.random.Philox(31))
        z = scale * rng.standard_normal(2048)
        for v in self.V:
            self.assert_matches_reference(params, z, v)

    def test_tied_maxima(self):
        # two equal components tie in every column, and together act as
        # one component with their summed weight
        weights, means, variances = seeded_mixture(3, seed=32)
        split = (np.append(weights * [1, 1, 0.5], weights[2] * 0.5),
                 np.append(means, means[2]),
                 np.append(variances, variances[2]))
        rng = np.random.Generator(np.random.Philox(32))
        z = 3.0 * rng.standard_normal(2048)
        for v in self.V:
            self.assert_matches_reference(split, z, v)
            np.testing.assert_allclose(
                GaussianMixturePrior(*split).denoise(z, None, v),
                GaussianMixturePrior(weights, means, variances).denoise(
                    z, None, v), rtol=1e-12, atol=1e-14)

    def test_mixture_denoiser_matches_scipy_logsumexp(self):
        # the dense-bridge prior: a narrow spike inside a unit slab
        params = (np.array([0.9, 0.1]), np.zeros(2), np.array([1e-4, 1.0]))
        rng = np.random.Generator(np.random.Philox(33))
        z = rng.standard_normal(4096) * rng.choice([0.01, 1.0], size=4096)
        for v in self.V:
            self.assert_matches_reference(params, z, v)


class TestDctSoftThreshold:
    def test_universal_threshold_formula(self):
        assert universal_threshold(1.0, 100) == pytest.approx(
            np.sqrt(2 * np.log(100)))
        assert universal_threshold(0.0, 100) == 0.0

    def test_zero_noise_passes_through(self):
        prior = DctSoftThresholdPrior()
        rng = np.random.Generator(np.random.Philox(2))
        s = rng.standard_normal(64)
        assert np.allclose(prior.denoise(s, None, 0.0), s, atol=1e-12)

    def test_dc_component_preserved(self):
        prior = DctSoftThresholdPrior()
        s = np.full(64, 5.0)  # pure DC
        out = prior.denoise(s, None, 10.0)
        assert np.allclose(out, s, atol=1e-12)

    def test_shrinks_small_coefficients_to_dc(self):
        prior = DctSoftThresholdPrior()
        rng = np.random.Generator(np.random.Philox(3))
        s = 0.01 * rng.standard_normal(256)
        out = prior.denoise(s, None, 1.0)
        c = dct_transform(out)
        assert np.max(np.abs(c[1:])) < 1e-12

    def test_matches_manual_soft_threshold(self):
        prior = DctSoftThresholdPrior()
        rng = np.random.Generator(np.random.Philox(5))
        s = rng.standard_normal(48)
        v = 0.25
        c = dct_transform(s)
        lam = universal_threshold(v, 48)
        soft = np.sign(c) * np.maximum(np.abs(c) - lam, 0.0)
        soft[0] = c[0]
        assert np.allclose(prior.denoise(s, None, v),
                           dct_transform(soft, inverse=True), atol=1e-12)


class TestDenoiseDispatcher:
    def test_validates_output_shape(self):
        class Broken:
            snr_kind = None
            eval_count = 0

            def denoise(self, s_in, t_star, v):
                return s_in[:-1]

        with pytest.raises(NleError):
            denoise(Broken(), np.zeros(4), None, 1.0)

    def test_validates_finiteness(self):
        class Nan:
            snr_kind = None
            eval_count = 0

            def denoise(self, s_in, t_star, v):
                return np.full_like(s_in, np.nan)

        with pytest.raises(NleError):
            denoise(Nan(), np.zeros(4), None, 1.0)

    def test_passes_through_valid_output(self):
        out = denoise(AnalyticGaussianPrior(), np.array([2.0]), None, 1.0)
        assert out[0] == pytest.approx(1.0)

    def test_analytic_priors_report_zero_evals(self):
        prior = GaussianMixturePrior((1.0,), (0.0,), (1.0,))
        denoise(prior, np.zeros(8), None, 1.0)
        assert prior.eval_count == 0
