"""PSNR and SSIM against direct arithmetic and a naive windowed oracle."""

import os
import subprocess
import sys

import numpy as np
import pytest

from rmoamp import (
    InvalidDimensionError,
    PSNR_CEILING,
    gaussian_window,
    psnr,
    ssim,
)


def naive_ssim(x, y, k1=0.01, k2=0.03, peak=1.0, size=11, sigma=1.5):
    """Double-loop reference: explicit window sums at each valid position."""
    w = gaussian_window(size, sigma)
    c1 = (k1 * peak) ** 2
    c2 = (k2 * peak) ** 2
    h, wd = x.shape
    vals = []
    for i in range(h - size + 1):
        for j in range(wd - size + 1):
            px = x[i:i + size, j:j + size]
            py = y[i:i + size, j:j + size]
            mx = np.sum(w * px)
            my = np.sum(w * py)
            vx = np.sum(w * px * px) - mx * mx
            vy = np.sum(w * py * py) - my * my
            cov = np.sum(w * px * py) - mx * my
            vals.append((2 * mx * my + c1) * (2 * cov + c2)
                        / ((mx * mx + my * my + c1) * (vx + vy + c2)))
    return float(np.mean(vals))


class TestPsnr:
    def test_identical_hits_ceiling(self):
        x = np.linspace(0, 1, 32)
        assert psnr(x, x) == PSNR_CEILING == 99.0

    def test_known_mse_values(self):
        # mse 0.01 -> 20 dB, mse 0.001 -> 30 dB at unit peak
        truth = np.zeros(100)
        assert psnr(truth, np.full(100, 0.1)) == pytest.approx(20.0, abs=1e-12)
        assert psnr(truth, np.full(100, np.sqrt(1e-3))) == pytest.approx(
            30.0, abs=1e-12)

    def test_flattens_shapes(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 0.1)
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidDimensionError):
            psnr(np.zeros(3), np.zeros(4))


class TestGaussianWindow:
    def test_normalized_and_peaked(self):
        w = gaussian_window()
        assert w.shape == (11, 11)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert w[5, 5] == w.max()
        assert np.allclose(w, w.T)


class TestSsim:
    def test_identical_images_score_one(self):
        rng = np.random.Generator(np.random.Philox(1))
        img = rng.uniform(0, 1, size=(20, 20))
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-9)

    def test_matches_naive_oracle(self):
        rng = np.random.Generator(np.random.Philox(2))
        x = rng.uniform(0, 1, size=(16, 16))
        y = np.clip(x + 0.1 * rng.standard_normal((16, 16)), 0, 1)
        assert ssim(x, y) == pytest.approx(naive_ssim(x, y), abs=1e-10)

    def test_symmetric(self):
        rng = np.random.Generator(np.random.Philox(3))
        x = rng.uniform(0, 1, size=(14, 14))
        y = rng.uniform(0, 1, size=(14, 14))
        assert ssim(x, y) == pytest.approx(ssim(y, x), abs=1e-12)

    def test_degrades_with_noise(self):
        rng = np.random.Generator(np.random.Philox(4))
        x = rng.uniform(0, 1, size=(24, 24))
        mild = np.clip(x + 0.05 * rng.standard_normal(x.shape), 0, 1)
        harsh = np.clip(x + 0.5 * rng.standard_normal(x.shape), 0, 1)
        assert ssim(x, harsh) < ssim(x, mild) < 1.0

    def test_small_image_global_fallback(self):
        # smaller than the window: single global-statistics formula
        x = np.array([[0.2, 0.4], [0.6, 0.8]])
        y = np.array([[0.25, 0.35], [0.65, 0.75]])
        mx, my = x.mean(), y.mean()
        vx, vy = x.var(), y.var()
        cov = np.mean((x - mx) * (y - my))
        c1, c2 = 0.01 ** 2, 0.03 ** 2
        expected = ((2 * mx * my + c1) * (2 * cov + c2)
                    / ((mx ** 2 + my ** 2 + c1) * (vx + vy + c2)))
        assert ssim(x, y) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("shape", [(11, 11), (13, 40), (256, 256)])
    def test_matches_convolve2d_reference(self, shape):
        from scipy.signal import convolve2d

        rng = np.random.Generator(np.random.Philox(5))
        x = rng.uniform(0, 1, size=shape)
        y = np.clip(x + 0.1 * rng.standard_normal(shape), 0, 1)
        w = gaussian_window()
        mu_x = convolve2d(x, w, mode="valid")
        mu_y = convolve2d(y, w, mode="valid")
        var_x = convolve2d(x * x, w, mode="valid") - mu_x ** 2
        var_y = convolve2d(y * y, w, mode="valid") - mu_y ** 2
        cov = convolve2d(x * y, w, mode="valid") - mu_x * mu_y
        c1, c2 = 0.01 ** 2, 0.03 ** 2
        expected = np.mean((2 * mu_x * mu_y + c1) * (2 * cov + c2)
                           / ((mu_x ** 2 + mu_y ** 2 + c1)
                              * (var_x + var_y + c2)))
        assert ssim(x, y) == pytest.approx(expected, abs=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidDimensionError):
            ssim(np.zeros((4, 4)), np.zeros((5, 4)))
        with pytest.raises(InvalidDimensionError):
            ssim(np.zeros(16), np.zeros(16))


def modules_after(code, *prefixes):
    # run code in a fresh interpreter and list the modules it loaded whose
    # top-level package is one of ``prefixes``
    code += ("\nimport sys; print(sorted(m for m in sys.modules "
             f"if m.split('.')[0] in {prefixes!r}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


BRIDGE_SERVER = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "bridge_server.py")

# the package's public names, one per entry of its export table
PUBLIC_NAMES = """
AnalyticGaussianPrior BandFactor BridgeClient BridgeError BridgePrior
BridgeProtocolError BridgeTimeoutError ChannelInstance
DctSoftThresholdPrior DdimPrior DdimSchedule DegenerateNleError
ExperimentConfig FadingProfile FlowMatchingPrior GaussMessage
GaussianMixturePrior IntegrationError InvalidDimensionError
InvalidMessageError InvalidParameterError IterationRecord IterationTrace
MetricReport NleError NoInformationError OrthoFactor PSNR_CEILING
ReceiverConfig RmOampError SingularSystemError SourceSignal SureResult
TrialResult WyFactor baseline_psnr build_channel build_prior
build_rm_operator check_convergence dct_transform ddim_reverse_step
ddim_x0_predict default_ddim_schedule
denoise encode_request encode_response fm_integrate
gaussian_eps_predictor gaussian_velocity_predictor gaussian_window
gen_conditioned_channel gen_identity_channel gen_tdl_fading_channel
init_state lmmse_baseline lmmse_estimate load_source mc_divergence
mmse_correction orthogonalize pointmass_eps_predictor
pointmass_velocity_predictor probe_scale psnr rayleigh_fit_statistic
read_matrix read_pgm rm_forward rm_inverse run_experiment run_receiver
sample_fading_taps save_source_pgm snr_match ssim sure_orthogonalize
sweep synthetic_gauss_mixture synthetic_gaussian
synthetic_piecewise_constant transmit write_matrix write_pgm
""".split()


def test_import_leaves_scipy_signal_and_stats_unloaded():
    # import rmoamp loads no submodule (each public name loads its own on
    # first access), so no scipy module either.  A fading channel brings in
    # scipy.linalg and scipy.special on its first build,
    # rayleigh_fit_statistic scipy.stats; haar and fast channels and ssim
    # need numpy alone
    assert modules_after("import rmoamp", "scipy") == "[]"


def test_image_run_loads_no_scipy_signal_or_stats(tmp_path):
    # a windowed ssim, then what the benchmark's image points run: a 32x32
    # PGM on a fading channel with the DCT threshold prior, scored by ssim
    path = str(tmp_path / "img.pgm")
    code = f"""
import numpy as np
import rmoamp as rm
rng = np.random.Generator(np.random.Philox(1))
img = rng.uniform(0, 1, size=(32, 32))
rm.ssim(img, np.clip(img + 0.1 * rng.standard_normal(img.shape), 0, 1))
rm.write_pgm({path!r}, img)
report = rm.run_experiment(rm.ExperimentConfig(
    source={path!r}, sigma=0.05, channel={{"kind": "tdl-fading"}},
    prior={{"kind": "dct-soft-threshold"}}))
assert np.isfinite(report.trials[0].ssim)
"""
    loaded = modules_after(code, "scipy")
    assert "'scipy.signal'" not in loaded
    assert "'scipy.stats'" not in loaded


def test_import_loads_no_submodule():
    assert modules_after("import rmoamp", "rmoamp") == "['rmoamp']"


def test_bridge_child_loads_only_framing_errors_and_priors():
    # every bridge child starts an interpreter and pays for what its imports
    # load: the benchmark's server, through its first reply.  The client's
    # socket and subprocess modules stay out of it too
    code = f"""
import importlib.util
import numpy as np
spec = importlib.util.spec_from_file_location(
    "bridge_server", {BRIDGE_SERVER!r})
server = importlib.util.module_from_spec(spec)
spec.loader.exec_module(server)
prior = server.GaussianMixturePrior([0.9, 0.1], [0.0, 0.0], [1e-4, 1.0])
server.encode_response(prior.denoise(np.linspace(-1, 1, 64), None, 0.1))
"""
    assert modules_after(code, "rmoamp", "socket", "subprocess") == (
        "['rmoamp', 'rmoamp.bridge', 'rmoamp.errors', 'rmoamp.priors']")


def test_every_public_name_resolves_on_first_access():
    code = """
import rmoamp
assert all(getattr(rmoamp, name) is not None for name in rmoamp.__all__)
assert set(rmoamp.__all__) <= set(dir(rmoamp))
assert rmoamp.channel.build_channel is rmoamp.build_channel
print(sorted(rmoamp.__all__))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == str(sorted(PUBLIC_NAMES))


def test_bridge_child_and_dense_bridge_parent_load_no_scipy():
    # what the benchmark's bridge server and its dense-bridge parent run:
    # the mixture denoiser and its framing, the RM operator, a fast channel
    code = f"""
import importlib.util
import numpy as np
from rmoamp import (GaussianMixturePrior, build_channel, build_rm_operator,
                    encode_response, rm_forward, rm_inverse)
spec = importlib.util.spec_from_file_location(
    "bridge_server", {BRIDGE_SERVER!r})
spec.loader.exec_module(importlib.util.module_from_spec(spec))
rng = np.random.Generator(np.random.Philox(1))
prior = GaussianMixturePrior([0.9, 0.1], [0.0, 0.0], [1e-4, 1.0])
encode_response(prior.denoise(rng.standard_normal(64), None, 0.1))
op = build_rm_operator(64, 32, seed=2)
x = rm_forward(op, rng.standard_normal(64))
rm_inverse(op, x)
ch = build_channel({{"kind": "conditioned", "kappa": 10.0,
                    "spectrum_shape": "geometric", "factor_method": "fast"}},
                   32, 0.01, 3)
ch.gain(0.5, ch.apply(x))
"""
    assert modules_after(code, "scipy") == "[]"


@pytest.mark.parametrize("spec", [
    {"kind": "conditioned", "factor_method": "haar"},
    {"kind": "conditioned", "factor_method": "fast"},
    {"kind": "tdl-fading"}], ids=["haar", "fast", "tdl-fading"])
def test_only_a_fading_channel_loads_scipy(spec):
    # import rmoamp loads no scipy, and neither does a receiver run on a
    # haar or fast channel; a tdl-fading channel brings in scipy.linalg for
    # its band
    code = f"""
import sys
import rmoamp as rm
assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']
src = rm.synthetic_gauss_mixture(128, 5, (0.9, 0.1), (0.0, 0.0), (0.01, 1.0))
op = rm.build_rm_operator(128, 64, seed=1)
ch = rm.build_channel({spec!r}, 64, 0.01, 2)
y = rm.transmit(ch, rm.rm_forward(op, src.values), noise_seed=3)
prior = rm.GaussianMixturePrior((0.9, 0.1), (0.0, 0.0), (1e-4, 1.0))
rm.run_receiver(y, ch, op, prior, rm.ReceiverConfig(max_iters=3), truth=src)
rm.lmmse_baseline(y, ch, op, truth=src)
"""
    loaded = modules_after(code, "scipy")
    if spec["kind"] == "tdl-fading":
        assert "'scipy.linalg'" in loaded
    else:
        assert loaded == "[]"
