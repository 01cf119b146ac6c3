"""Monte Carlo divergence estimation and the input-decorrelation step."""

import numpy as np
import pytest

import rmoamp as rm
from rmoamp import (
    AnalyticGaussianPrior,
    GaussianMixturePrior,
    InvalidParameterError,
    mc_divergence,
    probe_scale,
    sure_orthogonalize,
)
from rmoamp.sure import _probe


class LinearPrior:
    """phi(s) = c s + b: divergence is exactly c ||w||^2 / N for one probe."""

    snr_kind = None
    eval_count = 0

    def __init__(self, c, b=0.0):
        self.c = c
        self.b = b

    def denoise(self, s_in, t_star, v):
        return self.c * np.asarray(s_in) + self.b


class ConstantPrior:
    snr_kind = None
    eval_count = 0

    def denoise(self, s_in, t_star, v):
        return np.full_like(np.asarray(s_in, dtype=np.float64), 3.0)


def probe_vector(seed, n):
    return np.random.Generator(np.random.Philox(seed)).standard_normal(n)


class TestProbeScale:
    def test_formula(self):
        assert probe_scale(4.0) == pytest.approx(2e-3)
        assert probe_scale(1.0) == pytest.approx(1e-3)

    def test_floor(self):
        assert probe_scale(0.0) == 1e-8
        assert probe_scale(1e-30) == 1e-8


class TestMcDivergence:
    def test_linear_is_exact_probe_quadratic(self):
        # finite differencing a linear map has zero truncation error, so the
        # estimate equals c ||w||^2 / N bit-for-bit up to rounding
        n, c, seed = 500, 1.7, 3
        prior = LinearPrior(c, b=0.4)
        div = mc_divergence(prior, np.linspace(-1, 1, n), None, 0.5, seed=seed)
        w = probe_vector(seed, n)
        assert div == pytest.approx(c * np.dot(w, w) / n, rel=1e-9)

    def test_affine_offset_drops_out(self):
        n = 200
        z = np.linspace(-2, 2, n)
        a = mc_divergence(LinearPrior(0.8, b=0.0), z, None, 1.0, seed=1)
        b = mc_divergence(LinearPrior(0.8, b=5.0), z, None, 1.0, seed=1)
        assert a == pytest.approx(b, abs=1e-12)

    def test_linear_gains_within_three_percent(self):
        # ||w||^2 / N concentrates at 1: at N = 1e4 the estimate sits within
        # 3% of the true gain for every gain (single shared probe seed)
        n = 10000
        rng = np.random.Generator(np.random.Philox(2))
        gains = rng.uniform(0.2, 2.0, size=20)
        z = rng.standard_normal(n)
        for c in gains:
            div = mc_divergence(LinearPrior(float(c)), z, None, 1.0, seed=0)
            assert abs(div - c) < 0.03 * abs(c)

    def test_constant_denoiser_is_exactly_zero(self):
        div = mc_divergence(ConstantPrior(), np.ones(64), None, 1.0, seed=4)
        assert div == 0.0

    def test_wiener_gain_recovered(self):
        prior = AnalyticGaussianPrior(var0=2.0)
        n = 10000
        z = np.random.Generator(np.random.Philox(5)).standard_normal(n)
        v = 0.5
        div = mc_divergence(prior, z, None, v, seed=6)
        assert abs(div - prior.gain(v)) < 0.03 * prior.gain(v)

    def test_deterministic_in_seed(self):
        gm = GaussianMixturePrior((0.5, 0.5), (-1.0, 1.0), (0.3, 0.3))
        z = np.linspace(-2, 2, 128)
        assert mc_divergence(gm, z, None, 0.4, seed=7) == \
            mc_divergence(gm, z, None, 0.4, seed=7)
        assert mc_divergence(gm, z, None, 0.4, seed=7) != \
            mc_divergence(gm, z, None, 0.4, seed=8)

    def test_phi0_reuse_matches_fresh_evaluation(self):
        prior = AnalyticGaussianPrior()
        z = np.linspace(-1, 1, 64)
        phi0 = prior.denoise(z, None, 1.0)
        assert mc_divergence(prior, z, None, 1.0, seed=9, phi0=phi0) == \
            mc_divergence(prior, z, None, 1.0, seed=9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameterError):
            mc_divergence(LinearPrior(1.0), np.array([]), None, 1.0)


def fresh_draw_divergence(prior, s_in, v, seed):
    # the estimate with a new generator and probe draw on every call
    eps = probe_scale(v)
    w = probe_vector(seed, s_in.size)
    phi0 = prior.denoise(s_in, None, v)
    phi1 = prior.denoise(s_in + eps * w, None, v)
    return float(np.dot(w, phi1 - phi0) / (eps * s_in.size))


class TestProbeCache:
    @pytest.mark.parametrize("seed,n", [(0, 5), (7, 2048), (2 ** 40, 333)])
    def test_cached_probe_is_bit_identical_to_a_fresh_draw(self, seed, n):
        _probe.cache_clear()
        prior = GaussianMixturePrior((0.9, 0.1), (0.0, 0.5), (1e-3, 1.0))
        rng = np.random.Generator(np.random.Philox(seed + 1))
        for v in (0.3, 0.05, 0.3):  # one miss, then hits
            z = rng.standard_normal(n)
            assert mc_divergence(prior, z, None, v, seed=seed) == \
                fresh_draw_divergence(prior, z, v, seed)
        assert _probe.cache_info().misses == 1

    def test_probe_is_shared_and_read_only(self):
        w = _probe(3, 16)
        assert _probe(3, 16) is w
        assert not w.flags.writeable
        assert np.array_equal(w, probe_vector(3, 16))

    def test_receiver_run_builds_the_probe_generator_once(self, monkeypatch):
        n = 512
        src = rm.synthetic_gauss_mixture(n, 20, (0.9, 0.1), (0.0, 0.0),
                                         (0.01, 1.0))
        op = rm.build_rm_operator(n, n // 2, seed=21)
        ch = rm.build_channel({"kind": "conditioned", "kappa": 10.0},
                              n // 2, 0.01, 22)
        y = rm.transmit(ch, rm.rm_forward(op, src.values), noise_seed=23)
        prior = GaussianMixturePrior((0.9, 0.1), (0.0, 0.0), (1e-4, 1.0))
        _probe.cache_clear()
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        _, trace = rm.run_receiver(y, ch, op, prior,
                                   rm.ReceiverConfig(max_iters=8), truth=src)
        assert len(trace) > 2 and trace.error is None
        assert built == [(0,)]


class TestSureOrthogonalize:
    def test_zero_divergence_passes_through(self):
        phi = np.array([1.0, 2.0])
        res = sure_orthogonalize(phi, 0.0, np.array([5.0, 5.0]))
        assert np.array_equal(res.phi_perp, phi)

    def test_exact_divergence_kills_linear_output(self):
        z = np.linspace(-3, 3, 50)
        res = sure_orthogonalize(0.7 * z, 0.7, z)
        assert np.max(np.abs(res.phi_perp)) < 1e-14
        assert res.divergence == 0.7

    def test_fields_consistent(self):
        z = np.array([1.0, -1.0])
        phi = np.array([0.5, 0.5])
        res = sure_orthogonalize(phi, 0.25, z)
        assert np.array_equal(res.phi_out, phi)
        assert np.array_equal(res.phi_perp, phi - 0.25 * z)

    def test_decorrelates_wiener_output(self):
        # after subtraction the output's per-coordinate correlation with the
        # input drops below 2% of the noise level at N = 16384
        n, v = 16384, 0.5
        rng = np.random.Generator(np.random.Philox(11))
        s = rng.standard_normal(n)
        z = s + np.sqrt(v) * rng.standard_normal(n)
        prior = AnalyticGaussianPrior()
        phi = prior.denoise(z, None, v)
        div = mc_divergence(prior, z, None, v, seed=12, phi0=phi)
        res = sure_orthogonalize(phi, div, z)
        corr = abs(np.dot(res.phi_perp, z)) / n
        assert corr < 0.02 * v
