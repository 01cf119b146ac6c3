"""rmoamp: random-multiplexed transmission with an iterative
LMMSE/denoiser receiver.

The transmitter scrambles and subsamples the source with a seeded orthogonal
operator (:mod:`rmoamp.rm_operator`), the channel applies a seeded linear map
plus AWGN (:mod:`rmoamp.channel`), and the receiver alternates LMMSE
estimation with prior-driven denoising until the estimate stabilizes
(:mod:`rmoamp.receiver`, :mod:`rmoamp.priors`, :mod:`rmoamp.diffusion`).
:mod:`rmoamp.experiment` orchestrates seeded trials and sweeps; the ``rmoamp``
console script exposes them on the command line.
"""

from .errors import (BridgeError, BridgeProtocolError, BridgeTimeoutError,
                     DegenerateNleError, IntegrationError,
                     InvalidDimensionError, InvalidMessageError,
                     InvalidParameterError, NleError, NoInformationError,
                     RmOampError, SingularSystemError)
from .rm_operator import (OrthoFactor, build_rm_operator, dct_transform,
                          rm_forward, rm_inverse)
from .channel import (BandFactor, ChannelInstance, FadingProfile,
                      WyFactor, build_channel,
                      channel_from_descriptor, fading_profile,
                      gen_conditioned_channel, gen_identity_channel,
                      gen_tdl_fading_channel, rayleigh_fit_statistic,
                      sample_fading_taps, transmit)
from .sources import (SourceSignal, load_source, save_source_pgm,
                      synthetic_gauss_mixture, synthetic_gaussian,
                      synthetic_piecewise_constant)
from .fileio import read_matrix, read_pgm, write_matrix, write_pgm
from .priors import (AnalyticGaussianPrior, DctSoftThresholdPrior,
                     GaussianMixturePrior, denoise)
from .diffusion import (DdimPrior, DdimSchedule, FlowMatchingPrior,
                        ddim_reverse_step, ddim_x0_predict,
                        default_ddim_schedule, fm_integrate,
                        gaussian_eps_predictor, gaussian_velocity_predictor,
                        map_alpha_to_step, pointmass_eps_predictor,
                        pointmass_velocity_predictor, snr_match)
from .sure import SureResult, mc_divergence, probe_scale, sure_orthogonalize
from .receiver import (GaussMessage, IterationRecord, IterationTrace,
                       ReceiverConfig, check_convergence, init_state,
                       lmmse_baseline, lmmse_estimate, mmse_correction,
                       orthogonalize, run_receiver)
from .bridge import (BridgeClient, BridgePrior, encode_request,
                     encode_response)
from .metrics import PSNR_CEILING, gaussian_window, psnr, ssim
from .experiment import (ExperimentConfig, MetricReport, TrialResult,
                         baseline_psnr, build_prior, run_experiment, sweep)

__version__ = "0.1.0"
