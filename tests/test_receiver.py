"""Receiver stages: LMMSE vs dense oracle, extrinsic fusion, rescaling,
convergence, and the assembled loop."""

from dataclasses import replace

import numpy as np
import pytest

import rmoamp as rm
from rmoamp import (
    ChannelInstance,
    DegenerateNleError,
    GaussMessage,
    InvalidDimensionError,
    InvalidMessageError,
    InvalidParameterError,
    NoInformationError,
    ReceiverConfig,
    SingularSystemError,
    check_convergence,
    init_state,
    lmmse_baseline,
    lmmse_estimate,
    mmse_correction,
    orthogonalize,
    run_receiver,
)
from rmoamp import receiver as receiver_mod
from rmoamp.receiver import TRACE_COLUMNS


def channel_from_dense(a, sigma2, seed=0):
    u, s, vt = np.linalg.svd(np.asarray(a, dtype=np.float64),
                             full_matrices=False)
    return ChannelInstance(u=u, s=s, vt=vt, sigma2=float(sigma2), seed=seed)


def dense_lmmse(a, x_pri, v, sigma2, y):
    """Direct matrix-inversion reference for the posterior."""
    m, n = a.shape
    gram = sigma2 * np.eye(m) + v * (a @ a.T)
    inv = np.linalg.inv(gram)
    mean = x_pri + v * a.T @ (inv @ (y - a @ x_pri))
    cov = v * np.eye(n) - (v * v) * a.T @ inv @ a
    return mean, np.trace(cov) / m


class TestInitState:
    def test_energy_per_observation(self):
        msg = init_state(np.array([2.0, 0.0, 0.0, 0.0]))
        assert msg.variance == 1.0
        assert np.array_equal(msg.mean, np.zeros(4))

    def test_scaling_homogeneity(self):
        y = np.array([1.0, -2.0, 3.0])
        assert init_state(3.0 * y).variance == pytest.approx(
            9.0 * init_state(y).variance)

    def test_zero_observation_warns_and_floors(self):
        with pytest.warns(RuntimeWarning):
            msg = init_state(np.zeros(8))
        assert msg.variance == 1e-9

    def test_custom_length(self):
        msg = init_state(np.ones(4), n=10)
        assert msg.n == 10

    def test_empty_observation(self):
        with pytest.raises(InvalidDimensionError):
            init_state(np.array([]))


class TestGaussMessage:
    def test_validation(self):
        with pytest.raises(InvalidMessageError):
            GaussMessage(np.zeros((2, 2)), 1.0)
        with pytest.raises(InvalidMessageError):
            GaussMessage(np.array([np.inf]), 1.0)
        with pytest.raises(InvalidMessageError):
            GaussMessage(np.zeros(2), -1.0)
        with pytest.raises(InvalidMessageError):
            GaussMessage(np.zeros(2), np.nan)


class TestLmmse:
    def test_identity_channel_unit_noise(self):
        # A = I, sigma^2 = 1, v = 1: posterior mean is the midpoint
        ch = rm.gen_identity_channel(4, sigma2=1.0)
        x_pri = np.array([1.0, 2.0, -1.0, 0.0])
        y = np.array([3.0, 0.0, 1.0, 2.0])
        post = lmmse_estimate(ch, GaussMessage(x_pri, 1.0), y)
        assert np.allclose(post.mean, (x_pri + y) / 2, atol=1e-14)
        assert post.variance == pytest.approx(0.5)

    def test_orthogonal_noiseless_inverts(self):
        rng = np.random.Generator(np.random.Philox(1))
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        ch = channel_from_dense(q, sigma2=0.0)
        y = rng.standard_normal(6)
        post = lmmse_estimate(ch, GaussMessage(np.zeros(6), 2.0), y)
        assert np.allclose(post.mean, q.T @ y, atol=1e-10)
        assert post.variance == 1e-9  # floored

    def test_matches_dense_oracle_over_random_instances(self):
        rng = np.random.Generator(np.random.Philox(2))
        for _ in range(100):
            m = int(rng.integers(2, 33))
            n = int(rng.integers(2, 33))
            a = rng.standard_normal((m, n))
            v = float(rng.uniform(0.05, 3.0))
            sigma2 = float(rng.uniform(0.05, 1.0))
            x_pri = rng.standard_normal(n)
            y = rng.standard_normal(m)
            ch = channel_from_dense(a, sigma2)
            post = lmmse_estimate(ch, GaussMessage(x_pri, v), y)
            ref_mean, ref_var = dense_lmmse(a, x_pri, v, sigma2, y)
            assert np.max(np.abs(post.mean - ref_mean)) < 1e-8
            assert abs(post.variance - ref_var) < 1e-8

    def test_rank_deficient_keeps_prior_variance_outside_rowspace(self):
        # 1x3 channel: two null directions must contribute v each
        a = np.array([[1.0, 0.0, 0.0]])
        ch = channel_from_dense(a, sigma2=0.5)
        post = lmmse_estimate(ch, GaussMessage(np.zeros(3), 2.0),
                              np.array([1.0]))
        _, ref_var = dense_lmmse(a, np.zeros(3), 2.0, 0.5, np.array([1.0]))
        assert post.variance == pytest.approx(ref_var, abs=1e-12)

    def test_monotone_information(self):
        # strict variance reduction whenever a nonzero singular value exists
        rng = np.random.Generator(np.random.Philox(3))
        for _ in range(20):
            a = rng.standard_normal((5, 7))
            v = float(rng.uniform(0.1, 2.0))
            ch = channel_from_dense(a, sigma2=float(rng.uniform(0.0, 1.0)))
            post = lmmse_estimate(ch, GaussMessage(np.zeros(7), v),
                                  rng.standard_normal(5))
            assert post.variance < v

    def test_error_paths(self):
        ch = rm.gen_identity_channel(3, sigma2=0.0)
        with pytest.raises(SingularSystemError):
            lmmse_estimate(ch, GaussMessage(np.zeros(3), 0.0), np.ones(3))
        noisy = rm.gen_identity_channel(3, sigma2=1.0)
        with pytest.raises(InvalidMessageError):
            lmmse_estimate(noisy, GaussMessage(np.zeros(3), 0.0), np.ones(3))
        with pytest.raises(InvalidDimensionError):
            lmmse_estimate(noisy, GaussMessage(np.zeros(4), 1.0), np.ones(3))
        with pytest.raises(InvalidDimensionError):
            lmmse_estimate(noisy, GaussMessage(np.zeros(3), 1.0), np.ones(4))


class TestOrthogonalize:
    def test_halving_posterior_gives_prior_level(self):
        post = GaussMessage(np.array([1.0, 1.0]), 0.5)
        prior = GaussMessage(np.zeros(2), 1.0)
        orth = orthogonalize(post, prior)
        assert orth.variance == pytest.approx(1.0)
        assert np.allclose(orth.mean, [2.0, 2.0])

    def test_fusion_identity_oracle(self):
        # re-fusing the extrinsic message with the prior recovers the
        # posterior: Gaussian product in natural parameters
        rng = np.random.Generator(np.random.Philox(4))
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            v_pri = float(rng.uniform(0.5, 4.0))
            v_post = float(rng.uniform(0.05, 0.9 * v_pri))
            prior = GaussMessage(rng.standard_normal(n), v_pri)
            post = GaussMessage(rng.standard_normal(n), v_post)
            orth = orthogonalize(post, prior)
            v_fused = 1.0 / (1.0 / orth.variance + 1.0 / prior.variance)
            fused = v_fused * (orth.mean / orth.variance
                               + prior.mean / prior.variance)
            assert abs(v_fused - v_post) < 1e-10
            assert np.max(np.abs(fused - post.mean)) < 1e-10

    def test_no_information_raises(self):
        prior = GaussMessage(np.zeros(2), 1.0)
        with pytest.raises(NoInformationError):
            orthogonalize(GaussMessage(np.zeros(2), 1.0), prior)
        with pytest.raises(NoInformationError):
            orthogonalize(GaussMessage(np.zeros(2), 2.0), prior)

    def test_posterior_variance_floored(self):
        prior = GaussMessage(np.zeros(2), 1.0)
        orth = orthogonalize(GaussMessage(np.ones(2), 0.0), prior)
        assert orth.variance == pytest.approx(1e-9, rel=1e-6)


class TestMmseCorrection:
    def test_aligned_output_passes_through(self):
        ch = rm.gen_identity_channel(3, sigma2=0.0)
        x_orth = np.array([1.0, -2.0, 0.5])
        y = np.array([1.0, -2.0, 0.5])
        new = mmse_correction(x_orth.copy(), x_orth, ch, y)
        assert np.allclose(new.mean, x_orth, atol=1e-14)

    def test_scale_invariance(self):
        ch = rm.gen_identity_channel(3, sigma2=0.0)
        x_orth = np.array([1.0, 2.0, 3.0])
        y = np.zeros(3)
        a = mmse_correction(np.array([2.0, 1.0, 0.0]), x_orth, ch, y)
        b = mmse_correction(5.0 * np.array([2.0, 1.0, 0.0]), x_orth, ch, y)
        assert np.allclose(a.mean, b.mean, atol=1e-12)

    def test_zero_output_degenerate(self):
        ch = rm.gen_identity_channel(2, sigma2=0.0)
        with pytest.raises(DegenerateNleError):
            mmse_correction(np.zeros(2), np.ones(2), ch, np.ones(2))

    def test_perfect_estimate_recovers_noise_variance(self):
        m = 4096
        rng = np.random.Generator(np.random.Philox(5))
        x_true = rng.standard_normal(m)
        ch = rm.gen_conditioned_channel(m, 3.0, "geometric", 0.09, seed=6,
                                        factor_method="fast")
        y = rm.transmit(ch, x_true, noise_seed=7)
        new = mmse_correction(x_true, x_true, ch, y)
        assert new.variance == pytest.approx(0.09, rel=0.1)


class TestConvergence:
    def test_small_relative_change_converges(self):
        assert check_convergence(np.array([1.0, 0.0]),
                                 np.array([1.0005, 0.0]), tolerance=1e-3)

    def test_large_change_does_not(self):
        assert not check_convergence(np.array([1.0, 0.0]),
                                     np.array([1.1, 0.0]), tolerance=1e-3)

    def test_zero_norm_guard(self):
        # previous mean of zero norm: denominator clamps to the floor
        assert not check_convergence(np.zeros(2), np.ones(2), tolerance=1e-3)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidDimensionError):
            check_convergence(np.zeros(2), np.zeros(3), tolerance=1e-3)


class TestReceiverConfig:
    def test_defaults(self):
        cfg = ReceiverConfig()
        assert cfg.max_iters == 12 and cfg.tolerance == 1e-4
        assert cfg.divergence_seed == 0

    @pytest.mark.parametrize("kwargs", [
        {"max_iters": 0}, {"tolerance": 0.0}, {"tolerance": float("nan")},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParameterError):
            ReceiverConfig(**kwargs)


def full_rate_setup(n=256, sigma2=0.0, seed=1):
    src = rm.synthetic_gaussian(n, seed=seed)
    op = rm.build_rm_operator(n, n, seed=seed + 1)
    ch = rm.gen_identity_channel(n, sigma2=sigma2)
    y = rm.transmit(ch, rm.rm_forward(op, src.values), noise_seed=seed + 2)
    return src, op, ch, y


class TestRunReceiver:
    def test_invertible_noiseless_recovers_exactly(self):
        src, op, ch, y = full_rate_setup()
        prior = rm.AnalyticGaussianPrior()
        est, trace = run_receiver(y, ch, op, prior, truth=src)
        assert np.max(np.abs(est.values - src.values)) < 1e-8
        assert trace.records[-1].psnr == 99.0
        assert trace.error is None

    def test_trace_columns_and_csv_header(self):
        src, op, ch, y = full_rate_setup()
        _, trace = run_receiver(y, ch, op, rm.AnalyticGaussianPrior(),
                                truth=src)
        assert TRACE_COLUMNS == ("iter", "v_pri", "v_post", "v_orth",
                                 "t_star", "psnr", "residual", "fault")
        csv = trace.to_csv()
        assert (csv.splitlines()[0]
                == "iter,v_pri,v_post,v_orth,t_star,psnr,residual,fault")
        assert len(csv.splitlines()) == len(trace) + 1

    def test_no_truth_gives_nan_psnr(self):
        _, op, ch, y = full_rate_setup()
        _, trace = run_receiver(y, ch, op, rm.AnalyticGaussianPrior())
        assert np.isnan(trace.records[0].psnr)

    def test_dimension_check(self):
        src, op, ch, y = full_rate_setup()
        small = rm.build_rm_operator(256, 100, seed=3)
        with pytest.raises(InvalidDimensionError):
            run_receiver(y, ch, small, rm.AnalyticGaussianPrior())

    def test_variance_trace_non_increasing_within_slack(self):
        # compressed noisy Gaussian-mixture run: claimed v_pri may wiggle
        # but must not grow by more than 10% between iterations
        n = 1024
        src = rm.synthetic_gauss_mixture(n, 20, (0.9, 0.1), (0.0, 0.0),
                                         (0.01, 1.0))
        op = rm.build_rm_operator(n, n // 2, seed=21)
        ch = rm.gen_conditioned_channel(n // 2, 10.0, "geometric", 0.0025,
                                        seed=22)
        y = rm.transmit(ch, rm.rm_forward(op, src.values), noise_seed=23)
        gm = rm.GaussianMixturePrior((0.9, 0.1), (0.0, 0.0), (1e-4, 1.0))
        _, trace = run_receiver(y, ch, op, gm, truth=src)
        v = trace.column("v_pri")
        assert len(v) > 1
        assert np.all(v[1:] <= 1.1 * v[:-1])

    def test_psnr_stabilizes_within_five_iterations(self):
        n = 1024
        src = rm.synthetic_gauss_mixture(n, 30, (0.9, 0.1), (0.0, 0.0),
                                         (0.01, 1.0))
        op = rm.build_rm_operator(n, n // 2, seed=31)
        ch = rm.gen_conditioned_channel(n // 2, 10.0, "geometric", 0.0025,
                                        seed=32)
        y = rm.transmit(ch, rm.rm_forward(op, src.values), noise_seed=33)
        gm = rm.GaussianMixturePrior((0.9, 0.1), (0.0, 0.0), (1e-4, 1.0))
        _, trace = run_receiver(y, ch, op, gm, truth=src)
        p = trace.column("psnr")
        assert np.all(np.abs(np.diff(p[4:])) < 0.1)

    @pytest.mark.xfail(reason="denoiser-corrected loop does not reach the "
                       "one-shot linear error at beta=0.5, sigma=0.05: the "
                       "zero-filled back-transform adds unmodeled missing-"
                       "band error, so the claimed noise level the denoiser "
                       "sees understates the true one (see notes on the "
                       "trend gate)", strict=True)
    def test_mse_not_worse_than_linear_baseline(self):
        n = 1024
        src = rm.synthetic_gauss_mixture(n, 40, (0.9, 0.1), (0.0, 0.0),
                                         (0.01, 1.0))
        op = rm.build_rm_operator(n, n // 2, seed=41)
        ch = rm.gen_conditioned_channel(n // 2, 10.0, "geometric", 0.0025,
                                        seed=42)
        y = rm.transmit(ch, rm.rm_forward(op, src.values), noise_seed=43)
        gm = rm.GaussianMixturePrior((0.9, 0.1), (0.0, 0.0), (1e-4, 1.0))
        est, _ = run_receiver(y, ch, op, gm, truth=src)
        base, _ = lmmse_baseline(y, ch, op, truth=src)
        loop_mse = np.mean((est.values - src.values) ** 2)
        base_mse = np.mean((base.values - src.values) ** 2)
        assert loop_mse <= base_mse

    def test_stage_error_ends_the_loop_with_an_estimate(self):
        # a prior naming no known operating point fails snr matching, which
        # is no denoiser fault: the loop stops and still returns an estimate
        src, op, ch, y = full_rate_setup()

        class ScorePrior(rm.AnalyticGaussianPrior):
            snr_kind = "score"

        est, trace = run_receiver(y, ch, op, ScorePrior(), truth=src)
        assert trace.error == "iteration 1: unknown snr kind 'score'"
        assert len(trace) == 0
        assert np.array_equal(est.values, np.zeros(src.n))

    def test_graceful_stop_annotates_trace(self):
        # sigma^2 = 0 with an exactly-recovered state eventually floors the
        # variance; the loop must stop cleanly without an error annotation
        src, op, ch, y = full_rate_setup()
        cfg = ReceiverConfig(max_iters=6)
        est, trace = run_receiver(y, ch, op, rm.AnalyticGaussianPrior(),
                                  cfg, truth=src)
        assert trace.error is None
        assert len(trace) <= 6


class ZeroPrior:
    """Denoiser that always returns zeros, forcing the degenerate fallback."""

    snr_kind = None
    eval_count = 0

    def denoise(self, s_in, t_star, v):
        return np.zeros_like(s_in)


class NanPrior(ZeroPrior):
    """Denoiser whose output is never finite."""

    def denoise(self, s_in, t_star, v):
        return np.full_like(s_in, np.nan)


def inf_velocity_sampler():
    """Flow-matching sampler whose Euler state leaves the reals at once."""
    return rm.FlowMatchingPrior(lambda z, t: np.full_like(z, np.inf),
                                num_steps=4)


def compressed_setup():
    n = 512
    src = rm.synthetic_gauss_mixture(n, 50, (0.9, 0.1), (0.0, 0.0),
                                     (0.01, 1.0))
    op = rm.build_rm_operator(n, n // 2, seed=51)
    ch = rm.gen_conditioned_channel(n // 2, 10.0, "geometric", 0.0025,
                                    seed=52)
    y = rm.transmit(ch, rm.rm_forward(op, src.values), noise_seed=53)
    gm = rm.GaussianMixturePrior((0.9, 0.1), (0.0, 0.0), (1e-4, 1.0))
    return src, op, ch, y, gm


class TestLoopResidual:
    def test_residual_is_that_of_the_corrected_mean(self, monkeypatch):
        src, op, ch, y, gm = compressed_setup()
        means = []
        correction = rm.receiver.mmse_correction

        def recording(*args, **kwargs):
            new = correction(*args, **kwargs)
            means.append(new.mean)
            return new

        monkeypatch.setattr(rm.receiver, "mmse_correction", recording)
        _, trace = run_receiver(y, ch, op, gm,
                                ReceiverConfig(max_iters=5, tolerance=1e-12))
        assert len(trace) == len(means) == 5
        a = ch.dense()
        for record, mean in zip(trace.records, means):
            assert record.fault is None
            r = a @ mean - y
            assert record.residual == pytest.approx(float(r @ r), rel=1e-9)

    @pytest.mark.parametrize("make_prior,cause", [
        (ZeroPrior, "denoiser output is identically zero"),
        (NanPrior, "denoiser returned non-finite values"),
        (inf_velocity_sampler, "non-finite state at step 0")],
        ids=["zero", "nan", "inf-velocity"])
    def test_degenerate_fallback_residual_is_that_of_the_extrinsic_mean(
            self, make_prior, cause, monkeypatch):
        # every denoiser fault keeps this pass's extrinsic mean, to the bit
        src, op, ch, y, _ = compressed_setup()
        means, new_means = [], []
        extrinsic = rm.receiver.orthogonalize
        converged = rm.receiver.check_convergence

        def recording(*args, **kwargs):
            orth = extrinsic(*args, **kwargs)
            means.append(orth.mean)
            return orth

        def recording_new(prev_mean, new_mean, tolerance):
            new_means.append(new_mean)
            return converged(prev_mean, new_mean, tolerance)

        monkeypatch.setattr(rm.receiver, "orthogonalize", recording)
        monkeypatch.setattr(rm.receiver, "check_convergence", recording_new)
        est, trace = run_receiver(y, ch, op, make_prior(),
                                  ReceiverConfig(max_iters=3, tolerance=1e-12))
        assert trace.error is None
        assert len(trace) == len(means) == len(new_means) >= 1
        assert np.all(np.isfinite(est.values))
        a = ch.dense()
        for record, mean, new in zip(trace.records, means, new_means):
            assert record.fault == f"nle fault: {cause}"
            assert np.array_equal(new, mean)
            r = a @ mean - y
            assert record.residual == pytest.approx(float(r @ r), rel=1e-9)

    def test_one_channel_apply_per_iteration(self, monkeypatch):
        src, op, ch, y, gm = compressed_setup()
        calls = []
        apply = ChannelInstance.apply

        def counting(self, x):
            calls.append(1)
            return apply(self, x)

        monkeypatch.setattr(ChannelInstance, "apply", counting)
        _, trace = run_receiver(y, ch, op, gm,
                                ReceiverConfig(max_iters=5, tolerance=1e-12))
        assert trace.error is None and len(trace) == 5
        assert len(calls) == len(trace)

    @pytest.mark.parametrize("spec", [
        {"kind": "conditioned", "kappa": 10.0, "factor_method": "haar"},
        {"kind": "conditioned", "kappa": 10.0, "factor_method": "fast"},
        {"kind": "tdl-fading"}])
    def test_reused_misfit_is_bit_identical(self, spec, monkeypatch):
        # the LMMSE step takes the last correction's misfit in place of
        # recomputing y - A mean: the run must not change in any bit
        src, op, _, _, gm = compressed_setup()
        ch = rm.build_channel(spec, op.shape[0], 0.0025, seed=52)
        y = rm.transmit(ch, rm.rm_forward(op, src.values), noise_seed=53)
        cfg = ReceiverConfig(max_iters=5, tolerance=1e-12)
        est, trace = run_receiver(y, ch, op, gm, cfg, truth=src)
        lmmse = rm.receiver.lmmse_estimate
        monkeypatch.setattr(rm.receiver, "lmmse_estimate",
                            lambda ch, prior, y, r=None: lmmse(ch, prior, y))
        ref_est, ref_trace = run_receiver(y, ch, op, gm, cfg, truth=src)
        assert len(trace) == 5
        assert np.array_equal(est.values, ref_est.values)
        assert trace.to_csv() == ref_trace.to_csv()


class TestLeftBasisRotation:
    """A left factor U only turns y: built channels carry the identity U,
    so the loop applies V^T and V alone, and a channel with an orthogonal U
    runs as the identity-U channel on U^T y."""

    @staticmethod
    def inputs(spec):
        src, op, _, _, gm = compressed_setup()
        ch = rm.build_channel(spec, op.shape[0], 0.0025, seed=52)
        y = rm.transmit(ch, rm.rm_forward(op, src.values), noise_seed=53)
        return y, ch, op, gm, ReceiverConfig(max_iters=5, tolerance=1e-12), src

    @pytest.mark.parametrize("method", ["haar", "fast"])
    def test_two_factor_applies_per_iteration(self, method, monkeypatch):
        # the identity U is not a factor apply
        inputs = self.inputs({"kind": "conditioned", "kappa": 10.0,
                              "factor_method": method})
        op = inputs[2]
        calls = []
        for cls in (rm.WyFactor, rm.OrthoFactor):
            # the compression operator is an OrthoFactor too: skip it
            def counting(self, x, matmul=cls.__matmul__):
                if (getattr(self, "signs", None) is not None
                        and getattr(self, "perm", None) is not op.perm):
                    calls.append(type(self).__name__)
                return matmul(self, x)
            monkeypatch.setattr(cls, "__matmul__", counting)
        _, trace = run_receiver(*inputs)
        assert trace.error is None and len(trace) == 5
        kind = "WyFactor" if method == "haar" else "OrthoFactor"
        assert calls == [kind] * (2 * len(trace))

    @pytest.mark.parametrize("spec", [
        {"kind": "conditioned", "kappa": 10.0, "factor_method": "haar"},
        {"kind": "conditioned", "kappa": 10.0, "factor_method": "fast"},
        {"kind": "identity"}], ids=["haar", "fast", "identity"])
    def test_matches_the_unrotated_loop(self, spec):
        # a hand-built channel with a dense seeded orthogonal U, run as it
        # stands and as the identity-U channel on U^T y
        _, built, op, gm, cfg, src = self.inputs(spec)
        m = built.m_rows
        u, _ = np.linalg.qr(np.random.Generator(np.random.Philox(54))
                            .standard_normal((m, m)))
        ch = replace(built, u=u)
        y = rm.transmit(ch, rm.rm_forward(op, src.values), noise_seed=53)
        ref_est, ref_trace = run_receiver(y, ch, op, gm, cfg, truth=src)
        est, trace = run_receiver(u.T @ y, replace(ch, u=rm.OrthoFactor(m)),
                                  op, gm, cfg, truth=src)
        assert len(trace) == len(ref_trace) >= 2
        err = np.linalg.norm(est.values - ref_est.values)
        assert err <= 1e-10 * np.linalg.norm(ref_est.values)
        for name in ("psnr", "residual"):
            np.testing.assert_allclose(trace.column(name),
                                       ref_trace.column(name), rtol=1e-10)


class TestTraceCsvFault:
    @staticmethod
    def fault_fields(trace):
        rows = trace.to_csv().splitlines()[1:]
        assert len(rows) == len(trace) >= 1
        return [row.split(",")[-1] for row in rows]

    def test_faulted_run_shows_in_every_row(self):
        src, op, ch, y, _ = compressed_setup()
        _, trace = run_receiver(y, ch, op, ZeroPrior(), truth=src)
        faults = [r.fault for r in trace.records]
        assert all(faults)
        assert self.fault_fields(trace) == faults

    def test_clean_run_leaves_the_field_empty(self):
        src, op, ch, y, gm = compressed_setup()
        _, trace = run_receiver(y, ch, op, gm, ReceiverConfig(max_iters=3),
                                truth=src)
        assert self.fault_fields(trace) == [""] * len(trace)

    def test_fault_text_stays_one_field(self):
        trace = rm.IterationTrace(records=[rm.IterationRecord(
            1, 1.0, 0.5, 1.0, 0.5, 10.0, 2.0, fault="bad, late\nreply")])
        row = trace.to_csv().splitlines()[1].split(",")
        assert len(row) == len(TRACE_COLUMNS)
        assert row[-1] == "bad; late reply"


class TestTracePsnr:
    """The trace PSNR, taken in the channel-input domain, equals the PSNR of
    each iteration's back-transformed mean."""

    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("spec", [
        {"kind": "identity"},
        {"kind": "conditioned", "kappa": 10.0, "factor_method": "fast"},
        {"kind": "conditioned", "kappa": 10.0, "factor_method": "haar"},
        {"kind": "tdl-fading", "num_symbols": 4}],
        ids=["identity", "fast", "haar", "tdl-fading"])
    def test_equals_the_signal_domain_psnr(self, spec, beta, monkeypatch):
        self.check(spec, beta, 0.01, monkeypatch)

    def test_ceiling(self, monkeypatch):
        psnrs = self.check({"kind": "identity"}, 1.0, 0.0, monkeypatch)
        assert psnrs[0] == rm.PSNR_CEILING

    @staticmethod
    def check(spec, beta, sigma2, monkeypatch):
        n = 80
        src = rm.synthetic_gauss_mixture(n, 61, (0.9, 0.1), (0.0, 0.0),
                                         (0.05, 1.0))
        op = rm.build_rm_operator(n, int(round(beta * n)), seed=62)
        ch = rm.build_channel(spec, op.shape[0], sigma2, seed=63)
        y = rm.transmit(ch, rm.rm_forward(op, src.values), noise_seed=64)
        means = []
        residual_message = receiver_mod._residual_message

        def kept(ch, mean, y):
            means.append(mean)
            return residual_message(ch, mean, y)

        monkeypatch.setattr(receiver_mod, "_residual_message", kept)
        gm = rm.GaussianMixturePrior((0.9, 0.1), (0.0, 0.0), (0.0025, 1.0))
        _, trace = run_receiver(y, ch, op, gm,
                                ReceiverConfig(max_iters=6, tolerance=1e-12),
                                truth=src)
        assert trace.error is None and len(trace) == len(means) >= 1
        expected = [rm.psnr(src.values, rm.rm_inverse(op, mean))
                    for mean in means]
        got = trace.column("psnr")
        assert np.max(np.abs(got - expected)) <= 1e-9
        return got


class TestLmmseBaseline:
    def test_equals_single_linear_pass(self):
        src, op, ch, y = full_rate_setup(sigma2=0.01)
        base, post = lmmse_baseline(y, ch, op, truth=src)
        state = init_state(y, n=ch.n_cols)
        ref = lmmse_estimate(ch, state, y)
        assert np.array_equal(base.values, rm.rm_inverse(op, ref.mean))
        assert post.variance == ref.variance
