"""Channel generators: spectra, factors, fading statistics, round trips."""

import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.fft import dct
from scipy.special import j0

import rmoamp as rm
from rmoamp import InvalidParameterError
from rmoamp import channel as channel_mod
from rmoamp.channel import _fast_orthogonal


class TestIdentityChannel:
    def test_apply_is_identity(self):
        ch = rm.gen_identity_channel(6, sigma2=0.25)
        x = np.arange(6.0)
        assert np.array_equal(ch.apply(x), x)
        assert np.array_equal(ch.apply_t(x), x)
        assert ch.sigma2 == 0.25
        assert ch.condition_number() == 1.0
        assert np.array_equal(ch.dense(), np.eye(6))
        out = ch.u @ x
        out[0] = -1.0
        assert x[0] == 0.0  # the identity factor returns a copy

    def test_rejects_bad_dim(self):
        with pytest.raises(InvalidParameterError):
            rm.gen_identity_channel(0, sigma2=0.0)


class TestConditionedChannel:
    def test_unit_average_power(self):
        for kappa in (1.0, 3.0, 10.0, 100.0):
            for shape in ("linear", "geometric"):
                ch = rm.gen_conditioned_channel(48, kappa, shape, 0.0, seed=1)
                assert np.isclose(np.mean(ch.s ** 2), 1.0, atol=1e-12)

    def test_condition_number_matches_request(self):
        ch = rm.gen_conditioned_channel(32, 7.5, "geometric", 0.0, seed=2)
        assert np.isclose(ch.condition_number(), 7.5, rtol=1e-12)

    def test_factors_orthogonal(self):
        for method in ("haar", "fast"):
            ch = rm.gen_conditioned_channel(40, 5.0, "linear", 0.0, seed=3,
                                            factor_method=method)
            assert np.max(np.abs(ch.u.T @ ch.u - np.eye(40))) < 1e-10
            assert np.max(np.abs(ch.vt @ ch.vt.T - np.eye(40))) < 1e-10

    def test_spectrum_nonincreasing(self):
        ch = rm.gen_conditioned_channel(25, 9.0, "geometric", 0.0, seed=4)
        assert np.all(np.diff(ch.s) <= 0)

    def test_dense_consistent_with_apply(self):
        ch = rm.gen_conditioned_channel(17, 4.0, "linear", 0.0, seed=5)
        a = ch.dense()
        rng = np.random.Generator(np.random.Philox(6))
        x = rng.standard_normal(17)
        y = rng.standard_normal(17)
        assert np.allclose(ch.apply(x), a @ x, atol=1e-12)
        assert np.allclose(ch.apply_t(y), a.T @ y, atol=1e-12)

    def test_deterministic_in_seed(self):
        a = rm.gen_conditioned_channel(16, 3.0, "linear", 0.1, seed=7)
        b = rm.gen_conditioned_channel(16, 3.0, "linear", 0.1, seed=7)
        c = rm.gen_conditioned_channel(16, 3.0, "linear", 0.1, seed=8)
        assert np.array_equal(a.dense(), b.dense())
        assert not np.allclose(a.dense(), c.dense())

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            rm.gen_conditioned_channel(8, 0.5, "linear", 0.0, seed=0)
        with pytest.raises(InvalidParameterError):
            rm.gen_conditioned_channel(8, 2.0, "parabolic", 0.0, seed=0)
        with pytest.raises(InvalidParameterError):
            rm.gen_conditioned_channel(8, 2.0, "linear", 0.0, seed=0,
                                       factor_method="butterfly")


def drawn_fast_factor(dim, seed):
    """The fast factor and its dense form, built from the same draws."""
    factor = _fast_orthogonal(dim, np.random.Generator(np.random.Philox(seed)))
    rng = np.random.Generator(np.random.Philox(seed))
    signs = rng.integers(0, 2, size=dim) * 2 - 1
    perm = rng.permutation(dim)
    dense = (dct(np.eye(dim), axis=0, norm="ortho") * signs)[perm]
    return factor, dense


class TestFastFactor:
    @pytest.mark.parametrize("dim", [1, 2, 17, 64])
    def test_dense_form_matches_the_draws(self, dim):
        factor, dense = drawn_fast_factor(dim, seed=21)
        assert factor.shape == (dim, dim)
        assert np.max(np.abs(np.asarray(factor) - dense)) < 1e-12
        assert np.max(np.abs(np.asarray(factor.T) - dense.T)) < 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 17, 64])
    def test_apply_matches_dense_form(self, dim):
        factor, dense = drawn_fast_factor(dim, seed=22)
        rng = np.random.Generator(np.random.Philox(23))
        for x in (rng.standard_normal(dim), rng.standard_normal((dim, 3))):
            assert np.max(np.abs(factor @ x - dense @ x)) < 1e-12
            assert np.max(np.abs(factor.T @ x - dense.T @ x)) < 1e-12

    def test_rejects_wrong_length(self):
        factor, _ = drawn_fast_factor(8, seed=24)
        with pytest.raises(rm.InvalidDimensionError):
            factor @ np.ones(7)

    def test_lmmse_matches_dense_factors(self):
        ch = rm.gen_conditioned_channel(64, 10.0, "geometric", 0.01, seed=25,
                                        factor_method="fast")
        dense = rm.ChannelInstance(u=np.asarray(ch.u), s=ch.s,
                                   vt=np.asarray(ch.vt), sigma2=ch.sigma2,
                                   seed=ch.seed)
        rng = np.random.Generator(np.random.Philox(26))
        y = rng.standard_normal(64)
        prior = rm.GaussMessage(mean=rng.standard_normal(64), variance=0.3,
                                domain="x")
        fast_post = rm.lmmse_estimate(ch, prior, y)
        dense_post = rm.lmmse_estimate(dense, prior, y)
        assert np.max(np.abs(fast_post.mean - dense_post.mean)) < 1e-10
        assert fast_post.variance == pytest.approx(dense_post.variance,
                                                   rel=1e-10)

    @pytest.mark.parametrize("build", [
        lambda m: rm.gen_conditioned_channel(m, 10.0, "geometric", 0.01,
                                             seed=27, factor_method="fast"),
        lambda m: rm.gen_identity_channel(m, sigma2=0.01),
    ])
    def test_large_channel_holds_linear_state(self, build):
        m = 65536
        tracemalloc.start()
        try:
            ch = build(m)
            y = rm.transmit(ch, np.ones(m), noise_seed=28)
            back = ch.apply_t(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.shape == (m,) and np.all(np.isfinite(back))
        assert peak < 64 * 2 ** 20


def make_profile(num_taps=3, doppler=0.1, num_symbols=4, powers=None):
    if powers is None:
        powers = np.full(num_taps, 1.0 / num_taps)
    return rm.FadingProfile(num_taps=num_taps, tap_powers=np.asarray(powers),
                            doppler_rate=doppler, num_symbols=num_symbols)


class TestFadingProfile:
    def test_valid_profile(self):
        p = make_profile(powers=(0.5, 0.3, 0.2))
        assert p.num_taps == 3

    def test_rejects_bad_powers(self):
        with pytest.raises(InvalidParameterError):
            make_profile(powers=(0.5, 0.6, 0.2))
        with pytest.raises(InvalidParameterError):
            make_profile(powers=(0.9, 0.3, -0.2))
        with pytest.raises(InvalidParameterError):
            rm.FadingProfile(num_taps=2, tap_powers=np.array([1.0]),
                             doppler_rate=0.1, num_symbols=1)

    def test_rejects_negative_doppler(self):
        with pytest.raises(InvalidParameterError):
            make_profile(doppler=-0.1)


class TestFadingTaps:
    def test_shape_and_determinism(self):
        p = make_profile(num_symbols=10)
        a = rm.sample_fading_taps(p, seed=1)
        b = rm.sample_fading_taps(p, seed=1)
        assert a.shape == (10, 3)
        assert np.array_equal(a, b)

    def test_tap_variance_matches_powers(self):
        # stationary AR(1): per-tap complex variance equals tap_powers[l]
        p = make_profile(num_taps=2, doppler=0.3828, num_symbols=20000,
                         powers=(0.7, 0.3))
        taps = rm.sample_fading_taps(p, seed=2)
        var = np.mean(np.abs(taps) ** 2, axis=0)
        assert np.allclose(var, [0.7, 0.3], rtol=0.05)

    def test_lag_one_correlation_tracks_doppler(self):
        p = make_profile(num_taps=1, doppler=0.05, num_symbols=40000,
                         powers=(1.0,))
        taps = rm.sample_fading_taps(p, seed=3)[:, 0]
        expected = j0(2 * np.pi * 0.05)
        measured = np.real(np.mean(taps[1:] * np.conj(taps[:-1]))) / np.mean(
            np.abs(taps) ** 2)
        assert abs(measured - expected) < 0.02

    def test_rayleigh_fit_statistic(self):
        p = make_profile(num_taps=8, doppler=0.3828, num_symbols=64,
                         powers=np.full(8, 1 / 8))
        ks, pv = rm.rayleigh_fit_statistic(p, num_samples=100000, seed=5)
        assert 0 < ks < 0.01
        assert pv > 0.01


class TestTdlFadingChannel:
    def test_matches_naive_convolution_oracle(self):
        # independent reconstruction: block-local causal complex convolution,
        # realified with [[a, -b], [b, a]] blocks
        p = make_profile(num_taps=2, doppler=0.1, num_symbols=2)
        ch = rm.gen_tdl_fading_channel(8, p, sigma2=0.0, seed=6)
        taps = rm.sample_fading_taps(p, seed=6)
        n_c = 4
        block = np.minimum(np.arange(n_c) * p.num_symbols // n_c,
                           p.num_symbols - 1)
        rng = np.random.Generator(np.random.Philox(7))
        xr = rng.standard_normal(8)
        xc = xr[0::2] + 1j * xr[1::2]
        yc = np.zeros(n_c, dtype=np.complex128)
        for i in range(n_c):
            for ell in range(min(p.num_taps, i + 1)):
                yc[i] += taps[block[i], ell] * xc[i - ell]
        expected = np.empty(8)
        expected[0::2] = yc.real
        expected[1::2] = yc.imag
        assert np.allclose(ch.apply(xr), expected, atol=1e-10)

    def test_rejects_odd_dim_and_excess_taps(self):
        p = make_profile(num_taps=2, num_symbols=1)
        with pytest.raises(InvalidParameterError):
            rm.gen_tdl_fading_channel(7, p, sigma2=0.0, seed=0)
        big = make_profile(num_taps=5, num_symbols=1,
                           powers=np.full(5, 0.2))
        with pytest.raises(InvalidParameterError):
            rm.gen_tdl_fading_channel(8, big, sigma2=0.0, seed=0)

    def test_svd_factors_reassemble(self):
        p = make_profile(num_taps=3, num_symbols=3)
        ch = rm.gen_tdl_fading_channel(12, p, sigma2=0.1, seed=8)
        assert np.max(np.abs(ch.u @ ch.u.T - np.eye(12))) < 1e-10
        assert np.all(np.diff(ch.s) <= 1e-12)


class TestTransmit:
    def test_noiseless_is_exact(self):
        ch = rm.gen_conditioned_channel(10, 2.0, "linear", 0.0, seed=9)
        x = np.ones(10)
        assert np.array_equal(rm.transmit(ch, x, noise_seed=1), ch.apply(x))

    def test_noise_is_seeded_and_scaled(self):
        ch = rm.gen_identity_channel(5000, sigma2=0.04)
        x = np.zeros(5000)
        y1 = rm.transmit(ch, x, noise_seed=3)
        y2 = rm.transmit(ch, x, noise_seed=3)
        y3 = rm.transmit(ch, x, noise_seed=4)
        assert np.array_equal(y1, y2)
        assert not np.array_equal(y1, y3)
        assert np.isclose(np.var(y1), 0.04, rtol=0.1)


class TestDescriptors:
    @pytest.mark.parametrize("build", [
        lambda: rm.gen_identity_channel(6, 0.2),
        lambda: rm.gen_conditioned_channel(12, 5.0, "geometric", 0.3, seed=11),
        lambda: rm.gen_tdl_fading_channel(
            8, make_profile(num_taps=2, num_symbols=2), 0.1, seed=12),
        lambda: rm.gen_conditioned_channel(12, 5.0, "linear", 0.3, seed=14,
                                           factor_method="fast"),
        lambda: rm.gen_tdl_fading_channel(
            12, make_profile(num_taps=4, doppler=0.25, num_symbols=3,
                             powers=(0.4, 0.3, 0.2, 0.1)), 0.05, seed=15),
    ])
    def test_round_trip(self, build):
        ch = build()
        again = rm.channel_from_descriptor(ch.descriptor_json())
        assert np.array_equal(ch.dense(), again.dense())
        assert again.sigma2 == ch.sigma2

    def test_unknown_type_rejected(self):
        with pytest.raises(InvalidParameterError):
            rm.channel_from_descriptor({"type": "quantum"})

    def test_fading_profile_defaults(self):
        profile = rm.fading_profile({})
        assert profile.num_taps == 3
        assert profile.tap_powers.tolist() == [0.6, 0.3, 0.1]
        assert (profile.doppler_rate, profile.num_symbols) == (0.01, 16)

    def test_export_dense_round_trip(self, tmp_path):
        ch = rm.gen_conditioned_channel(9, 3.0, "linear", 0.0, seed=13)
        path = tmp_path / "chan.mat"
        ch.export_dense(path)
        assert np.array_equal(rm.read_matrix(path), ch.dense())


HAAR = {"kind": "conditioned", "kappa": 4.0, "factor_method": "haar"}
FADING = {"kind": "tdl-fading", "num_taps": 3, "num_symbols": 2,
          "tap_powers": [0.6, 0.3, 0.1]}


@pytest.fixture
def empty_slot(monkeypatch):
    monkeypatch.setattr(channel_mod, "_last_built", None)


@pytest.mark.usefixtures("empty_slot")
class TestBuildSlot:
    def test_sigma_only_repeat_shares_factors(self):
        a = rm.build_channel(HAAR, 16, 0.01, seed=3)
        b = rm.build_channel(HAAR, 16, 0.25, seed=3)
        assert a.u is b.u and a.vt is b.vt and a.s is b.s
        assert (a.sigma2, b.sigma2) == (0.01, 0.25)
        assert b.descriptor_json() == rm.channel_from_descriptor(
            b.descriptor_json()).descriptor_json()

    @pytest.mark.parametrize("spec", [
        HAAR, FADING, {"kind": "identity"},
        {"kind": "conditioned", "factor_method": "fast"}])
    def test_factor_arrays_are_read_only(self, spec):
        ch = rm.build_channel(spec, 16, 0.0, seed=3)
        with pytest.raises(ValueError):
            ch.s[0] = 1.0
        if isinstance(ch.u, np.ndarray):
            with pytest.raises(ValueError):
                ch.u[0, 0] = 1.0
            with pytest.raises(ValueError):
                ch.vt[0, 0] = 1.0
        else:
            for array in (ch.u.signs, ch.u.perm, ch.vt.signs, ch.vt.perm):
                assert array is None or not array.flags.writeable

    def test_key_is_exact(self):
        a = rm.build_channel(dict(FADING, tap_powers=np.array([0.6, 0.3,
                                                               0.1])),
                             16, 0.0, seed=5)
        b = rm.build_channel(FADING, 16, 0.1, seed=5)
        assert b.u is a.u
        # numpy prints both power vectors alike; the key must not
        nudged = [0.6, 0.3 + 1e-12, 0.1 - 1e-12]
        assert repr(np.array(nudged)) == repr(np.array(FADING["tap_powers"]))
        c = rm.build_channel(dict(FADING, tap_powers=nudged), 16, 0.1,
                             seed=5)
        assert c.u is not a.u
        assert not np.array_equal(c.s, a.s)

    @pytest.mark.parametrize("dim,seed", [(18, 5), (16, 6)])
    def test_dim_or_seed_change_misses(self, dim, seed):
        a = rm.build_channel(HAAR, 16, 0.0, seed=5)
        b = rm.build_channel(HAAR, dim, 0.0, seed=seed)
        assert b.u is not a.u
        assert b.m_rows == dim and b.seed == seed

    def test_failed_build_leaves_no_entry(self):
        rm.build_channel(HAAR, 16, 0.0, seed=5)
        with pytest.raises(InvalidParameterError):
            rm.build_channel(dict(HAAR, kappa=0.5), 16, 0.0, seed=5)
        assert channel_mod._last_built is None
        ch = rm.build_channel(HAAR, 16, 0.3, seed=5)
        fresh = rm.gen_conditioned_channel(16, 4.0, "geometric", 0.3, seed=5)
        assert np.array_equal(ch.dense(), fresh.dense())
        assert ch.sigma2 == 0.3

    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_concurrent_calls_get_their_own_key(self):
        # threads that alternate keys race on the slot: a race may cost an
        # extra build, but each call must get the factors of its own key
        refs = {seed: rm.gen_conditioned_channel(8, 4.0, "geometric", 0.0,
                                                 seed=seed)
                for seed in (1, 2)}
        wrong = []

        def work(offset):
            for i in range(300):
                seed, sigma2 = 1 + (i + offset) % 2, float(i)
                ch = rm.build_channel(HAAR, 8, sigma2, seed=seed)
                if (ch.sigma2 != sigma2 or ch.seed != seed
                        or not np.array_equal(ch.u, refs[seed].u)):
                    wrong.append((seed, sigma2))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_old_factors_are_dropped_before_a_miss_builds(self,
                                                         monkeypatch):
        # a slot that kept the old channel alive through the next build
        # (as functools.lru_cache does) would raise the peak memory by one
        # channel's factors
        ch = rm.build_channel(HAAR, 16, 0.0, seed=5)
        old_u = weakref.ref(ch.u)
        del ch
        assert old_u() is not None  # the slot holds it
        build = channel_mod._haar_orthogonal

        def checked(dim, rng):
            assert old_u() is None, "the old factors are still referenced"
            return build(dim, rng)

        monkeypatch.setattr(channel_mod, "_haar_orthogonal", checked)
        rm.build_channel(HAAR, 16, 0.0, seed=6)
