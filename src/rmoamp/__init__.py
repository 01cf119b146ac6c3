"""rmoamp: random-multiplexed transmission with an iterative
LMMSE/denoiser receiver.

The transmitter scrambles and subsamples the source with a seeded orthogonal
operator (:mod:`rmoamp.rm_operator`), the channel applies a seeded linear map
plus AWGN (:mod:`rmoamp.channel`), and the receiver alternates LMMSE
estimation with prior-driven denoising until the estimate stabilizes
(:mod:`rmoamp.receiver`, :mod:`rmoamp.priors`, :mod:`rmoamp.diffusion`).
:mod:`rmoamp.experiment` orchestrates seeded trials and sweeps; the ``rmoamp``
console script exposes them on the command line.

``import rmoamp`` imports no submodule: each public name below is imported
from its submodule on first access (PEP 562), so a process that needs only
the bridge framing and a prior, such as a bridge child, loads only those.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports through the package
_SUBMODULE_EXPORTS = {
    "errors": ("BridgeError", "BridgeProtocolError", "BridgeTimeoutError",
               "DegenerateNleError", "IntegrationError",
               "InvalidDimensionError", "InvalidMessageError",
               "InvalidParameterError", "NleError", "NoInformationError",
               "RmOampError", "SingularSystemError"),
    "rm_operator": ("OrthoFactor", "build_rm_operator", "dct_transform",
                    "rm_forward", "rm_inverse"),
    "channel": ("BandFactor", "ChannelInstance", "FadingProfile", "WyFactor",
                "build_channel", "fading_profile", "gen_conditioned_channel",
                "gen_identity_channel", "gen_tdl_fading_channel",
                "rayleigh_fit_statistic", "sample_fading_taps", "transmit"),
    "sources": ("SourceSignal", "load_source", "save_source_pgm",
                "synthetic_gauss_mixture", "synthetic_gaussian",
                "synthetic_piecewise_constant"),
    "fileio": ("read_matrix", "read_pgm", "write_matrix", "write_pgm"),
    "priors": ("AnalyticGaussianPrior", "DctSoftThresholdPrior",
               "GaussianMixturePrior", "denoise"),
    "diffusion": ("DdimPrior", "DdimSchedule", "FlowMatchingPrior",
                  "ddim_reverse_step", "ddim_x0_predict",
                  "default_ddim_schedule", "fm_integrate",
                  "gaussian_eps_predictor", "gaussian_velocity_predictor",
                  "pointmass_eps_predictor", "pointmass_velocity_predictor",
                  "snr_match"),
    "sure": ("SureResult", "mc_divergence", "probe_scale",
             "sure_orthogonalize"),
    "receiver": ("GaussMessage", "IterationRecord", "IterationTrace",
                 "ReceiverConfig", "check_convergence", "init_state",
                 "lmmse_baseline", "lmmse_estimate", "mmse_correction",
                 "orthogonalize", "run_receiver"),
    "bridge": ("BridgeClient", "BridgePrior", "encode_request",
               "encode_response"),
    "metrics": ("PSNR_CEILING", "gaussian_window", "psnr", "ssim"),
    "experiment": ("ExperimentConfig", "MetricReport", "TrialResult",
                   "baseline_psnr", "build_prior", "run_experiment", "sweep"),
}

_OWNER = {name: module for module, names in _SUBMODULE_EXPORTS.items()
          for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    if name in _OWNER:
        module = importlib.import_module(f".{_OWNER[name]}", __name__)
        value = getattr(module, name)
    elif name in _SUBMODULE_EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULE_EXPORTS))
