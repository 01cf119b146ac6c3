"""Channel generators: spectra, factors, fading statistics, round trips."""

import gc
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.fft import dct
from scipy.special import j0

import rmoamp as rm
from rmoamp import InvalidParameterError
from rmoamp import channel as channel_mod
from rmoamp.channel import _fast_orthogonal, _haar_orthogonal


class TestIdentityChannel:
    def test_apply_is_identity(self):
        ch = rm.gen_identity_channel(6, sigma2=0.25)
        x = np.arange(6.0)
        assert np.array_equal(ch.apply(x), x)
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
            u, vt = np.asarray(ch.u), np.asarray(ch.vt)
            assert np.max(np.abs(u.T @ u - np.eye(40))) < 1e-10
            assert np.max(np.abs(vt @ vt.T - np.eye(40))) < 1e-10

    def test_spectrum_nonincreasing(self):
        ch = rm.gen_conditioned_channel(25, 9.0, "geometric", 0.0, seed=4)
        assert np.all(np.diff(ch.s) <= 0)

    def test_dense_consistent_with_apply(self):
        ch = rm.gen_conditioned_channel(17, 4.0, "linear", 0.0, seed=5)
        a = ch.dense()
        rng = np.random.Generator(np.random.Philox(6))
        x = rng.standard_normal(17)
        assert np.allclose(ch.apply(x), a @ x, atol=1e-12)

    def test_deterministic_in_seed(self):
        a = rm.gen_conditioned_channel(16, 3.0, "linear", 0.1, seed=7)
        b = rm.gen_conditioned_channel(16, 3.0, "linear", 0.1, seed=7)
        c = rm.gen_conditioned_channel(16, 3.0, "linear", 0.1, seed=8)
        assert np.array_equal(a.dense(), b.dense())
        assert not np.allclose(a.dense(), c.dense())

    @pytest.mark.parametrize("method", ["haar", "fast"])
    def test_one_factor_draw_and_an_identity_u(self, method, monkeypatch):
        # only V is drawn; A = diag(s) V^T keeps the requested spectrum
        drawer = {"haar": "_haar_orthogonal", "fast": "_fast_orthogonal"}
        calls = []
        draw = getattr(channel_mod, drawer[method])

        def counted(dim, rng):
            calls.append(dim)
            return draw(dim, rng)

        monkeypatch.setattr(channel_mod, drawer[method], counted)
        ch = rm.gen_conditioned_channel(24, 10.0, "geometric", 0.1, seed=13,
                                        factor_method=method)
        assert calls == [24]
        assert isinstance(ch.u, rm.OrthoFactor) and ch.u.signs is None
        assert np.array_equal(np.asarray(ch.u), np.eye(24))
        svd = np.linalg.svd(ch.dense(), compute_uv=False)
        assert np.max(np.abs(svd - ch.s)) < 1e-13

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            rm.gen_conditioned_channel(8, 0.5, "linear", 0.0, seed=0)
        with pytest.raises(InvalidParameterError):
            rm.gen_conditioned_channel(8, 2.0, "parabolic", 0.0, seed=0)
        with pytest.raises(InvalidParameterError):
            rm.gen_conditioned_channel(8, 2.0, "linear", 0.0, seed=0,
                                       factor_method="butterfly")
        for method in ("haar", "fast"):
            with pytest.raises(InvalidParameterError,
                               match="dim must be >= 1"):
                rm.gen_conditioned_channel(0, 2.0, "linear", 0.0, seed=0,
                                           factor_method=method)


def drawn_fast_factor(dim, seed, m=None):
    """The fast factor, or with ``m`` the ``m x dim`` compression operator,
    and its dense form from the documented draws: Philox signs, then a
    permutation, then (with ``m``) a sorted selection of m of its rows.
    """
    if m is None:
        factor = _fast_orthogonal(dim,
                                  np.random.Generator(np.random.Philox(seed)))
    else:
        factor = rm.build_rm_operator(dim, m, seed)
    rng = np.random.Generator(np.random.Philox(seed))
    signs = rng.integers(0, 2, size=dim) * 2 - 1
    perm = rng.permutation(dim)
    if m is not None:
        perm = perm[np.sort(rng.permutation(dim)[:m])]
    dense = (dct(np.eye(dim), axis=0, norm="ortho") * signs)[perm]
    return factor, dense


# (dim, m): square fast factors, then m x dim compression operators
FACTOR_SIZES = [pytest.param(dim, None, id=str(dim)) for dim in (1, 2, 17, 64)]
FACTOR_SIZES += [pytest.param(dim, m, id=f"{m}x{dim}")
                 for dim, m in ((1, 1), (7, 3), (24, 10), (64, 64))]


class TestFastFactor:
    @pytest.mark.parametrize("dim,m", FACTOR_SIZES)
    def test_dense_form_matches_the_draws(self, dim, m):
        factor, dense = drawn_fast_factor(dim, seed=21, m=m)
        assert factor.shape == dense.shape == (m or dim, dim)
        assert factor.T.shape == dense.T.shape
        assert np.max(np.abs(np.asarray(factor) - dense)) < 1e-12
        assert np.max(np.abs(np.asarray(factor.T) - dense.T)) < 1e-12

    @pytest.mark.parametrize("dim,m", FACTOR_SIZES)
    def test_apply_matches_dense_form(self, dim, m):
        factor, dense = drawn_fast_factor(dim, seed=22, m=m)
        rows = dense.shape[0]
        rng = np.random.Generator(np.random.Philox(23))
        x = rng.standard_normal(dim)
        assert np.max(np.abs(factor @ x - dense @ x)) < 1e-12
        x = rng.standard_normal(rows)
        assert np.max(np.abs(factor.T @ x - dense.T @ x)) < 1e-12
        # one vector per apply: a matrix is refused
        with pytest.raises(rm.InvalidDimensionError):
            factor @ rng.standard_normal((dim, 3))
        with pytest.raises(rm.InvalidDimensionError):
            factor.T @ rng.standard_normal((rows, 3))

    def test_rejects_wrong_length(self):
        for m in (None, 3):
            factor, _ = drawn_fast_factor(8, seed=24, m=m)
            rows = factor.shape[0]
            for bad in (np.ones(7), np.ones((9, 2))):
                with pytest.raises(rm.InvalidDimensionError):
                    factor @ bad
            for bad in (np.ones(rows + 1), np.ones((rows - 1, 2))):
                with pytest.raises(rm.InvalidDimensionError):
                    factor.T @ bad

    @pytest.mark.parametrize("n,m", [(1, 1), (7, 3), (24, 10), (64, 64),
                                     (2048, 205)])
    def test_rm_maps_equal_gather_and_zero_filled_scatter(self, n, m):
        # the seed-to-operator map: float signs times s, DCT, then the
        # entries perm[selection]; the inverse scatters them into zeros
        rng = np.random.Generator(np.random.Philox(29))
        signs = (rng.integers(0, 2, size=n) * 2 - 1).astype(np.float64)
        perm = rng.permutation(n)
        gather = perm[np.sort(rng.permutation(n)[:m])]
        op = rm.build_rm_operator(n, m, seed=29)
        draws = np.random.Generator(np.random.Philox(30))
        s, x = draws.standard_normal(n), draws.standard_normal(m)
        assert np.array_equal(rm.rm_forward(op, s),
                              rm.dct_transform(signs * s)[gather])
        z = np.zeros(n)
        z[gather] = x
        assert np.array_equal(rm.rm_inverse(op, x),
                              signs * rm.dct_transform(z, inverse=True))

    def test_lmmse_matches_dense_factors(self):
        ch = rm.gen_conditioned_channel(64, 10.0, "geometric", 0.01, seed=25,
                                        factor_method="fast")
        dense = rm.ChannelInstance(u=np.asarray(ch.u), s=ch.s,
                                   vt=np.asarray(ch.vt), sigma2=ch.sigma2,
                                   seed=ch.seed)
        rng = np.random.Generator(np.random.Philox(26))
        y = rng.standard_normal(64)
        prior = rm.GaussMessage(mean=rng.standard_normal(64), variance=0.3)
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
            back = ch.gain(0.5, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.shape == (m,) and np.all(np.isfinite(back))
        assert peak < 64 * 2 ** 20


def haar_oracle(dim, seed):
    """Dense product of explicit Householder matrices, with the sign fix.

    Reflector k maps the next ``dim - k`` values of one seeded triangular
    draw, ``x``, to ``beta e_1`` with ``beta = -sign(x[0]) ||x||`` (or
    ``x[0]`` and the identity when ``x[1:]`` is zero), as
    ``I - 2 w w^T / (w^T w)`` with ``w = x - beta e_1``.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    draw = rng.standard_normal(dim * (dim + 1) // 2)
    q = np.eye(dim)
    signs = np.ones(dim)
    start = 0
    for k in range(dim):
        x = draw[start:start + dim - k]
        start += dim - k
        w = np.zeros(dim)
        w[k:] = x
        if np.any(x[1:]):
            beta = -np.copysign(np.linalg.norm(x), x[0])
            w[k] -= beta
            q = q @ (np.eye(dim) - 2.0 * np.outer(w, w) / (w @ w))
        else:
            beta = x[0]
        signs[k] = -1.0 if beta < 0 else 1.0
    return q * signs


def law_misses(factors):
    """The dim-3 Haar moments that ``factors`` miss by over 4 standard errors.

    Under Haar measure on O(3), ``E Q[0, 0] = E tr Q = 0``,
    ``E (tr Q)^2 = 1`` and every ``E Q[i, j]^2 = 1/3``.
    """
    qs = np.array([np.asarray(f) for f in factors])
    trace = np.trace(qs, axis1=1, axis2=2)
    samples = {"Q[0,0]": (qs[:, 0, 0], 0.0), "tr Q": (trace, 0.0),
               "(tr Q)^2": (trace ** 2, 1.0)}
    for i in range(3):
        for j in range(3):
            samples[f"Q[{i},{j}]^2"] = (qs[:, i, j] ** 2, 1.0 / 3.0)
    misses = {}
    for name, (x, expected) in samples.items():
        error = np.std(x, ddof=1) / np.sqrt(x.size)
        if abs(np.mean(x) - expected) > 4.0 * error:
            misses[name] = (np.mean(x), error)
    return misses


class TestHaarFactor:
    @pytest.mark.parametrize("dim", [1, 2, 31, 32, 33, 63, 64, 65, 128, 129,
                                     205])
    def test_matches_householder_product(self, dim):
        factor = _haar_orthogonal(dim,
                                  np.random.Generator(np.random.Philox(41)))
        dense = haar_oracle(dim, seed=41)
        assert isinstance(factor, rm.WyFactor)
        assert factor.shape == (dim, dim)
        assert np.max(np.abs(np.asarray(factor) - dense)) < 1e-13
        rng = np.random.Generator(np.random.Philox(42))
        x = rng.standard_normal(dim)
        kept = x.copy()
        assert np.max(np.abs(factor @ x - dense @ x)) < 1e-13
        assert np.max(np.abs(factor.T @ x - dense.T @ x)) < 1e-13
        assert np.array_equal(x, kept)
        # one vector per apply: a matrix is refused
        for applied in (factor, factor.T):
            with pytest.raises(rm.InvalidDimensionError):
                applied @ rng.standard_normal((dim, 3))

    def test_draws_follow_the_haar_law(self):
        rng = np.random.Generator(np.random.Philox(47))
        factors = [_haar_orthogonal(3, rng) for _ in range(4000)]
        assert law_misses(factors) == {}
        # the moments catch a factor that skips the sign fix
        unsigned = [replace(f, signs=np.ones(3)) for f in factors]
        assert {"Q[0,0]", "(tr Q)^2"} <= law_misses(unsigned).keys()

    @pytest.mark.parametrize("dim", [1, 33, 64, 65, 205])
    def test_panels_draw_one_triangular_stream(self, dim):
        # the draw layout is the map from seed to channel: the panels'
        # draws, in order, are one triangular draw to the bit
        class Recording:
            def __init__(self):
                self.rng = np.random.Generator(np.random.Philox(48))
                self.draws = []

            def standard_normal(self, size):
                self.draws.append(self.rng.standard_normal(size))
                return self.draws[-1].copy()

        rng = Recording()
        factor = _haar_orthogonal(dim, rng)
        reference = np.random.Generator(np.random.Philox(48)).standard_normal(
            dim * (dim + 1) // 2)
        assert np.array_equal(np.concatenate(rng.draws), reference)
        # one draw per panel of up to 64 reflectors, each panel a unit-lower
        # Fortran array from its first reflector's row down
        assert len(rng.draws) == len(factor.panels) == -(-dim // 64)
        for b, (panel, t) in enumerate(zip(factor.panels, factor.t_blocks)):
            width = min(64, dim - 64 * b)
            assert panel.shape == (dim - 64 * b, width)
            assert panel.flags.f_contiguous
            assert np.array_equal(np.triu(panel[:width]), np.eye(width))
            assert t.shape == (width, width)
            assert np.array_equal(np.tril(t, -1), np.zeros((width, width)))

    def test_rejects_wrong_shape(self):
        factor = _haar_orthogonal(8, np.random.Generator(np.random.Philox(43)))
        for bad in (np.ones(7), np.ones((7, 2)), np.ones((8, 2, 2))):
            with pytest.raises(rm.InvalidDimensionError):
                factor @ bad
            with pytest.raises(rm.InvalidDimensionError):
                factor.T @ bad

    def test_zero_diagonal_keeps_the_factor_orthogonal(self):
        # a zero first reflector vector leaves R[0, 0] exactly zero; its
        # sign must not zero a column of the factor
        class ZeroColumn:
            def standard_normal(self, size):
                rng = np.random.Generator(np.random.Philox(44))
                g = rng.standard_normal(size)
                g[:6] = 0.0
                return g

        factor = _haar_orthogonal(6, ZeroColumn())
        q = np.asarray(factor)
        assert factor.signs[0] == 1.0
        assert np.max(np.abs(q.T @ q - np.eye(6))) < 1e-13

    def test_large_channel_holds_reflector_state(self):
        # a dense Q formed by np.linalg.qr peaked at about 80 MiB here, a
        # dense dim x dim reflector array applied by scipy's dgemqrt at
        # 29.9 MiB; the panels hold 8.2 MiB
        dim = 1434
        tracemalloc.start()
        try:
            ch = rm.gen_conditioned_channel(dim, 10.0, "geometric", 0.01,
                                            seed=45)
            y = rm.transmit(ch, np.ones(dim), noise_seed=46)
            back = ch.gain(0.5, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.shape == (dim,) and np.all(np.isfinite(back))
        assert peak < 12 * 2 ** 20

    def test_build_holds_one_factor(self):
        # the panels are 8.2 MiB here; a build that drew U and V peaked at
        # 41.6 MiB, one that drew V into a dense dim x dim array at 25.5 MiB
        tracemalloc.start()
        try:
            ch = rm.gen_conditioned_channel(1434, 10.0, "geometric", 0.01,
                                            seed=45)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(ch.vt, rm.WyFactor)
        assert peak <= 12 * 2 ** 20


def protocol_factor(kind, dim):
    """One factor of each class, drawn from a fixed seed."""
    rng = np.random.Generator(np.random.Philox(dim))
    if kind == "identity":
        return rm.OrthoFactor(dim)
    if kind == "fast":
        return _fast_orthogonal(dim, rng)
    if kind == "wide":
        return rm.build_rm_operator(dim, dim // 2 + 1, seed=dim)
    if kind == "haar":
        return _haar_orthogonal(dim, rng)
    profile = rm.FadingProfile(num_taps=3, tap_powers=(0.5, 0.3, 0.2),
                               doppler_rate=0.1, num_symbols=2)
    return rm.gen_tdl_fading_channel(dim, profile, 0.0, seed=dim).u


# (kind, dim): odd and even dims; a band's dim counts real entries, so its
# complex size n_c = dim / 2 is odd at 14
PROTOCOL_FACTORS = [(kind, dim) for kind in ("identity", "fast", "wide",
                                             "haar")
                    for dim in (7, 16)] + [("band", 14), ("band", 16)]


class TestFactorProtocol:
    """Every factor class applies one vector, transposes and densifies the
    same way."""

    @pytest.mark.parametrize("kind,dim", PROTOCOL_FACTORS)
    def test_apply_and_transpose_match_the_dense_form(self, kind, dim):
        factor = protocol_factor(kind, dim)
        dense = np.asarray(factor)
        rows, cols = factor.shape
        assert dense.shape == (rows, cols) and factor.T.shape == (cols, rows)
        rng = np.random.Generator(np.random.Philox(dim + 1))
        x, y = rng.standard_normal(cols), rng.standard_normal(rows)
        assert np.max(np.abs(factor @ x - dense @ x)) < 1e-12
        assert np.max(np.abs(factor.T @ y - dense.T @ y)) < 1e-12
        assert np.max(np.abs(np.asarray(factor.T) - dense.T)) < 1e-12

    @pytest.mark.parametrize("kind,dim", PROTOCOL_FACTORS)
    def test_only_a_vector_of_the_input_length(self, kind, dim):
        factor = protocol_factor(kind, dim)
        for applied in (factor, factor.T):
            cols = applied.shape[1]
            for bad in (np.ones((cols, 2)), np.ones((cols, 1)),
                        np.ones(cols + 1), np.ones(cols - 1), np.float64(1)):
                with pytest.raises(rm.InvalidDimensionError):
                    applied @ bad

    @pytest.mark.parametrize("kind,dim", PROTOCOL_FACTORS)
    def test_transpose_is_built_once(self, kind, dim):
        factor = protocol_factor(kind, dim)
        assert factor.T is factor.T
        assert factor.T.T is factor.T.T
        assert factor.T.transposed is not factor.transposed

    def test_dropped_factor_dies_without_the_cycle_collector(self):
        # a transpose that referred back to its factor would keep freed
        # Haar panels alive until a full collection
        gc.disable()
        try:
            factor = _haar_orthogonal(
                130, np.random.Generator(np.random.Philox(3)))
            x = np.ones(130)
            assert np.allclose(factor.T @ (factor @ x), x)
            assert np.allclose(factor.T.T @ x, factor @ x)
            refs = [weakref.ref(f) for f in (factor, factor.T, factor.T.T)]
            del factor
            assert [ref() for ref in refs] == [None] * 3
        finally:
            gc.enable()

    @pytest.mark.parametrize("method", ["haar", "fast"])
    def test_identity_u_is_not_applied(self, method, monkeypatch):
        ch = rm.gen_conditioned_channel(16, 5.0, "geometric", 0.1, seed=3,
                                        factor_method=method)
        rng = np.random.Generator(np.random.Philox(4))
        x, r = rng.standard_normal(16), rng.standard_normal(16)
        # a hand-built dense U of the same matrix is applied as it stands
        dense = replace(ch, u=np.eye(16))
        want = dense.apply(x), dense.gain(0.5, r)
        identity_applies = []
        matmul = rm.OrthoFactor.__matmul__

        def counting(self, v):
            if self.signs is None:
                identity_applies.append(self.transposed)
            return matmul(self, v)

        monkeypatch.setattr(rm.OrthoFactor, "__matmul__", counting)
        assert np.array_equal(ch.apply(x), want[0])
        assert np.array_equal(ch.gain(0.5, r), want[1])
        assert identity_applies == []
        # the lengths are still checked
        for bad in (np.ones(15), np.ones((16, 1))):
            with pytest.raises(rm.InvalidDimensionError):
                ch.apply(bad)
            with pytest.raises(rm.InvalidDimensionError):
                ch.gain(0.5, bad)

    @pytest.mark.parametrize("build", [
        lambda: rm.gen_conditioned_channel(7, 5.0, "geometric", 0.1, seed=3),
        lambda: rm.gen_conditioned_channel(16, 5.0, "linear", 0.1, seed=3,
                                           factor_method="fast"),
        lambda: rm.gen_identity_channel(9, sigma2=0.1),
    ], ids=["haar", "fast", "identity"])
    def test_dense_channel_equals_its_svd_factors(self, build):
        ch = build()
        svd = (np.asarray(ch.u) * ch.s) @ np.asarray(ch.vt)
        assert np.max(np.abs(ch.dense() - svd)) < 1e-13

    def test_dense_band_channel_equals_its_band(self):
        ch = rm.gen_tdl_fading_channel(14, make_profile(), 0.1, seed=3)
        assert ch.vt is None
        assert np.max(np.abs(ch.dense() - np.asarray(ch.u))) < 1e-13


def random_profile(num_taps, num_symbols, seed):
    powers = np.random.Generator(np.random.Philox(seed)).random(num_taps)
    return make_profile(num_taps=num_taps, num_symbols=num_symbols,
                        powers=powers / powers.sum())


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

    def test_fading_profile_defaults(self):
        profile = rm.fading_profile({})
        assert profile.num_taps == 3
        assert profile.tap_powers.tolist() == [0.6, 0.3, 0.1]
        assert (profile.doppler_rate, profile.num_symbols) == (0.01, 16)


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

    @pytest.mark.parametrize("count", [0, -1])
    def test_rejects_no_samples(self, count):
        p = make_profile()
        with pytest.raises(InvalidParameterError, match="num_symbols"):
            rm.sample_fading_taps(p, seed=1, num_symbols=count)
        with pytest.raises(InvalidParameterError, match="num_samples"):
            rm.rayleigh_fit_statistic(p, num_samples=count, seed=1)


def realified_fading(profile, dim, seed):
    """Dense realified fading matrix built entry by entry from the taps:
    block-local causal convolution, edge-truncated at the start, each
    complex coefficient ``a + jb`` the block ``[[a, -b], [b, a]]``."""
    taps = rm.sample_fading_taps(profile, seed=seed)
    n_c = dim // 2
    block = np.minimum(np.arange(n_c) * profile.num_symbols // n_c,
                       profile.num_symbols - 1)
    h = np.zeros((dim, dim))
    for i in range(n_c):
        for ell in range(min(profile.num_taps, i + 1)):
            c = taps[block[i], ell]
            j = i - ell
            h[2 * i:2 * i + 2, 2 * j:2 * j + 2] = [[c.real, -c.imag],
                                                   [c.imag, c.real]]
    return h


class TestTdlFadingChannel:
    @pytest.mark.parametrize("dim,num_taps,num_symbols", [
        (2, 1, 1), (4, 2, 1), (8, 4, 3), (12, 3, 3), (24, 12, 8),
        (40, 3, 4)])
    def test_band_matches_the_realified_matrix(self, dim, num_taps,
                                               num_symbols):
        # num_taps = dim / 2 makes the band as wide as the complex matrix
        p = random_profile(num_taps, num_symbols, seed=dim)
        ch = rm.gen_tdl_fading_channel(dim, p, sigma2=0.05, seed=dim)
        h = realified_fading(p, dim, seed=dim)
        assert ch.u.shape == ch.u.T.shape == (dim, dim)
        assert np.max(np.abs(np.asarray(ch.u) - h)) < 1e-15
        assert np.max(np.abs(np.asarray(ch.u.T) - h.T)) < 1e-15
        rng = np.random.Generator(np.random.Philox(dim + 1))
        x = rng.standard_normal(dim)
        assert np.max(np.abs(ch.apply(x) - h @ x)) < 1e-13
        assert np.max(np.abs(ch.u.T @ x - h.T @ x)) < 1e-13
        for v in (0.01, 1.0, 30.0):
            oracle = h.T @ np.linalg.solve(0.05 * np.eye(dim) + v * h @ h.T,
                                           x)
            assert np.max(np.abs(ch.gain(v, x) - oracle)) < 1e-10
        # realifying doubles each singular value of the complex matrix
        assert np.array_equal(ch.s[0::2], ch.s[1::2])
        eig = np.linalg.eigvalsh(h @ h.T)[::-1]
        assert np.max(np.abs(ch.s ** 2 - eig)) < 1e-13

    def test_lapack_calls_skip_the_finiteness_scan(self, monkeypatch):
        # the band and the LMMSE system are finite by construction, so the
        # three LAPACK calls get them unscanned
        import scipy.linalg

        seen = {}
        for name in ("eigvals_banded", "cholesky_banded",
                     "cho_solve_banded"):
            def record(*args, _name=name, _call=getattr(scipy.linalg, name),
                       **kwargs):
                seen[_name] = kwargs.get("check_finite", True)
                return _call(*args, **kwargs)
            monkeypatch.setattr(scipy.linalg, name, record)
        ch = rm.gen_tdl_fading_channel(16, make_profile(), sigma2=0.1, seed=1)
        ch.gain(0.5, np.ones(16))
        assert seen == {"eigvals_banded": False, "cholesky_banded": False,
                        "cho_solve_banded": False}

    @pytest.mark.parametrize("length", [4, 15, 18, 17])
    def test_band_factor_rejects_a_wrong_length(self, length):
        # an even length once reached BLAS as f2py's _fblas.error and an odd
        # one as numpy's ValueError from the complex view
        ch = rm.gen_tdl_fading_channel(16, make_profile(), sigma2=0.1, seed=1)
        for factor in (ch.u, ch.u.T):
            with pytest.raises(rm.InvalidDimensionError,
                               match="expected length-16"):
                factor @ np.ones(length)

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

    @pytest.mark.parametrize("num_taps,num_symbols,dim", [
        (1, 1, 8), (3, 3, 12), (3, 4, 40), (6, 2, 12)])
    def test_spectrum_matches_dense_svd(self, num_taps, num_symbols, dim):
        # eps-level agreement holds while no singular value nears zero; one
        # that does is only good to about sqrt(eps) * s_max (see
        # BandFactor.spectrum)
        p = random_profile(num_taps, num_symbols, seed=8)
        ch = rm.gen_tdl_fading_channel(dim, p, sigma2=0.1, seed=8)
        expected = np.linalg.svd(ch.dense(), compute_uv=False)
        assert np.max(np.abs(ch.s - expected)) < 1e-12
        assert np.all(np.diff(ch.s) <= 0.0)

    @pytest.mark.parametrize("num_taps", [1, 3, "n_c"])
    @pytest.mark.parametrize("num_symbols", [1, 3, 8])
    def test_gain_matches_dense_oracle(self, num_taps, num_symbols):
        dim = 24
        if num_taps == "n_c":
            num_taps = dim // 2
        rng = np.random.Generator(np.random.Philox(30))
        for seed in range(3):
            p = random_profile(num_taps, num_symbols, seed=seed)
            ch = rm.gen_tdl_fading_channel(dim, p, sigma2=0.05, seed=seed)
            h = ch.dense()
            r = rng.standard_normal(dim)
            for v in (0.01, 1.0, 30.0):
                oracle = h.T @ np.linalg.solve(
                    0.05 * np.eye(dim) + v * h @ h.T, r)
                assert np.max(np.abs(ch.gain(v, r) - oracle)) < 1e-10
            x = rng.standard_normal(dim)
            assert np.max(np.abs(ch.apply(x) - h @ x)) < 1e-12

    def test_lmmse_matches_svd_channel(self):
        p = random_profile(3, 4, seed=31)
        ch = rm.gen_tdl_fading_channel(40, p, sigma2=0.02, seed=31)
        u, s, vt = np.linalg.svd(ch.dense())
        svd = rm.ChannelInstance(u=u, s=s, vt=vt, sigma2=ch.sigma2,
                                 seed=ch.seed)
        rng = np.random.Generator(np.random.Philox(32))
        y = rng.standard_normal(40)
        prior = rm.GaussMessage(mean=rng.standard_normal(40), variance=0.4)
        band_post = rm.lmmse_estimate(ch, prior, y)
        svd_post = rm.lmmse_estimate(svd, prior, y)
        assert np.max(np.abs(band_post.mean - svd_post.mean)) < 1e-10
        assert abs(band_post.variance - svd_post.variance) < 1e-10

    def test_large_channel_holds_band_state(self):
        # one dense dim x dim factor alone would be 128 MiB
        dim = 4096
        tracemalloc.start()
        try:
            ch = rm.gen_tdl_fading_channel(dim, rm.fading_profile({}),
                                           sigma2=0.01, seed=33)
            y = rm.transmit(ch, np.ones(dim), noise_seed=34)
            back = ch.gain(0.5, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.shape == (dim,) and np.all(np.isfinite(back))
        assert ch.s.shape == (dim,)
        assert peak < 32 * 2 ** 20

    def test_singular_noiseless_system_ends_the_run(self):
        # a silent first tap leaves the first complex symbol unobserved:
        # with sigma = 0 the LMMSE system is singular
        p = rm.FadingProfile(num_taps=3, tap_powers=[0.0, 0.5, 0.5],
                             doppler_rate=0.1, num_symbols=2)
        ch = rm.gen_tdl_fading_channel(16, p, sigma2=0.0, seed=35)
        assert ch.s[-1] < 1e-6
        prior = rm.GaussMessage(mean=np.zeros(16), variance=1.0)
        with pytest.raises(rm.SingularSystemError):
            rm.lmmse_estimate(ch, prior, np.ones(16))
        op = rm.build_rm_operator(16, 16, seed=36)
        source = rm.SourceSignal(values=np.linspace(0.0, 1.0, 16))
        y = rm.transmit(ch, rm.rm_forward(op, source.values), noise_seed=37)
        _, trace = rm.run_receiver(y, ch, op, rm.AnalyticGaussianPrior(),
                                   truth=source)
        assert trace.error.startswith("iteration 1: ")
        assert "singular" in trace.error
        assert len(trace) == 0


class TestTransmit:
    @pytest.mark.parametrize("sigma2", [float("nan"), float("inf"), -0.5])
    def test_noise_variance_must_be_finite_and_nonnegative(self, sigma2):
        for build in (lambda: rm.gen_identity_channel(4, sigma2),
                      lambda: rm.build_channel({"kind": "tdl-fading"}, 8,
                                               sigma2, seed=1)):
            with pytest.raises(InvalidParameterError,
                               match="sigma2 must be a finite number >= 0"):
                build()

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

    @pytest.mark.parametrize("spec", [
        HAAR, FADING, {"kind": "identity"},
        {"kind": "conditioned", "factor_method": "fast"}])
    def test_factor_arrays_are_read_only(self, spec):
        # dim 130: a haar factor of three panels, the last 2 wide
        ch = rm.build_channel(spec, 130, 0.0, seed=3)
        with pytest.raises(ValueError):
            ch.s[0] = 1.0
        if isinstance(ch.u, rm.BandFactor):
            assert ch.vt is None
            with pytest.raises(ValueError):
                ch.u.ab[0, 0] = 1.0
            with pytest.raises(ValueError):
                ch.u.gram[0, 0] = 1.0
            return
        if isinstance(ch.vt, rm.WyFactor):
            arrays = (*ch.vt.panels, *ch.vt.t_blocks, ch.vt.signs)
            assert len(arrays) == 7
            for array in arrays:
                assert not array.flags.writeable
            return
        for factor in (ch.u, ch.vt):
            for name in ("signs", "perm"):
                array = getattr(factor, name)
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
        assert b.vt is not a.vt
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
                        or not np.array_equal(ch.vt, refs[seed].vt)):
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
        old_vt = weakref.ref(ch.vt)
        del ch
        assert old_vt() is not None  # the slot holds it
        build = channel_mod._haar_orthogonal

        def checked(dim, rng):
            assert old_vt() is None, "the old factors are still referenced"
            return build(dim, rng)

        monkeypatch.setattr(channel_mod, "_haar_orthogonal", checked)
        rm.build_channel(HAAR, 16, 0.0, seed=6)
