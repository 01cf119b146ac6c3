"""DDIM and flow-matching sampler mechanics, plus SNR matching.

The receiver hands each denoiser a pseudo-AWGN observation with a known noise
variance v.  :func:`snr_match` converts v into the sampler's native operating
point:

* DDIM: target signal level alpha_bar* = 1 / (1 + v), so that the scaled
  input sqrt(alpha_bar*) * s_in has exactly the marginal of the forward
  process at that level.
* Flow matching: interpolation time t* = 1 / (1 + sqrt(v)), so that
  t* * s_in matches the straight-line path z_t = (1 - t) eps + t s0.

Predictor callables:

* DDIM noise predictor: ``eps_hat = predictor(s_t, alpha_bar)`` with
  ``s_t = sqrt(alpha_bar) s0 + sqrt(1 - alpha_bar) eps``.
* Flow-matching velocity: ``v_hat = predictor(z, t)`` approximating
  E[s0 - eps | z_t = z]; the clean signal sits at t = 1.

Analytic predictors for scalar Gaussian and point-mass priors are provided
for closed-form testing.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationError, InvalidParameterError


def snr_match(v, kind):
    """Map an effective noise variance to a sampler operating point.

    kind "ddim" returns the target alpha_bar = 1 / (1 + v); kind
    "flow-matching" returns the interpolation time t = 1 / (1 + sqrt(v)).
    Both are 1 at v = 0 and decrease toward 0 as v grows.
    """
    if v < 0:
        raise InvalidParameterError(f"variance must be >= 0, got {v}")
    if kind == "ddim":
        return 1.0 / (1.0 + v)
    if kind == "flow-matching":
        return 1.0 / (1.0 + np.sqrt(v))
    raise InvalidParameterError(f"unknown snr kind {kind!r}")


@dataclass(frozen=True)
class DdimSchedule:
    """Strictly decreasing alpha_bar grid, index 0 cleanest."""

    alpha_bar: np.ndarray

    def __post_init__(self):
        ab = np.asarray(self.alpha_bar, dtype=np.float64)
        if ab.ndim != 1 or ab.size < 1:
            raise InvalidParameterError("alpha_bar must be a 1-D array")
        if np.any(ab <= 0) or np.any(ab >= 1):
            raise InvalidParameterError("alpha_bar entries must lie in (0, 1)")
        if ab.size > 1 and np.any(np.diff(ab) >= 0):
            raise InvalidParameterError("alpha_bar must be strictly decreasing")
        object.__setattr__(self, "alpha_bar", ab)

    @property
    def num_steps(self):
        return self.alpha_bar.size


def default_ddim_schedule(num_steps=50, alpha_start=0.999, alpha_end=0.005):
    """Geometric alpha_bar grid from alpha_start (clean) to alpha_end."""
    if num_steps < 2:
        raise InvalidParameterError("num_steps must be >= 2")
    return DdimSchedule(np.geomspace(alpha_start, alpha_end, num_steps))


def ddim_x0_predict(s_t, eps_hat, alpha_bar_t):
    """Invert the forward marginal: s0_hat = (s_t - sqrt(1-ab) eps) / sqrt(ab)."""
    if not 0 < alpha_bar_t <= 1:
        raise InvalidParameterError("alpha_bar_t must be in (0, 1]")
    root_ab = np.sqrt(alpha_bar_t)
    return (np.asarray(s_t) - np.sqrt(1.0 - alpha_bar_t) * np.asarray(eps_hat)) / root_ab


def ddim_reverse_step(s_t, eps_hat, alpha_bar_t, alpha_bar_prev):
    """One deterministic (eta = 0) reverse update toward alpha_bar_prev."""
    if not 0 < alpha_bar_t <= alpha_bar_prev <= 1:
        raise InvalidParameterError(
            "need 0 < alpha_bar_t <= alpha_bar_prev <= 1, got "
            f"{alpha_bar_t} -> {alpha_bar_prev}")
    s0_hat = ddim_x0_predict(s_t, eps_hat, alpha_bar_t)
    return (np.sqrt(alpha_bar_prev) * s0_hat
            + np.sqrt(1.0 - alpha_bar_prev) * np.asarray(eps_hat))


def fm_integrate(z0, predictor, t_start, t_end, num_steps):
    """Euler integration of dz/dt = predictor(z, t) from t_start to t_end.

    Uses a uniform grid with num_steps steps and evaluates the velocity at
    the left endpoint of each interval.  The state is a copy of z0 updated
    in place, so a predictor must not keep the array it is handed.  Raises
    IntegrationError (carrying the failing step index) if the state goes
    non-finite or a velocity does not fit the state's shape or dtype.
    """
    if not 0.0 <= t_start < t_end <= 1.0:
        raise InvalidParameterError(
            f"need 0 <= t_start < t_end <= 1, got [{t_start}, {t_end}]")
    if num_steps < 1:
        raise InvalidParameterError("num_steps must be >= 1")
    z = np.array(z0, dtype=np.float64)
    dt = (t_end - t_start) / num_steps
    for j in range(num_steps):
        t = t_start + j * dt
        step = dt * np.asarray(predictor(z, t))
        try:
            z += step
        except (TypeError, ValueError) as exc:
            raise IntegrationError(
                f"velocity of shape {step.shape} and dtype {step.dtype} at "
                f"step {j} does not fit the state", step=j) from exc
        if not np.isfinite(z).all():
            raise IntegrationError(f"non-finite state at step {j}", step=j)
    return z


class DdimPrior:
    """Denoiser built from a DDIM noise predictor.

    snr matching gives the level alpha_bar*; the input is scaled onto it
    exactly and either rolled back through the schedule entries cleaner than
    alpha_bar* with deterministic reverse steps (mode "trajectory", the
    default) or inverted in a single x0 prediction at alpha_bar* (mode "x0"),
    which for an exact predictor is Tweedie's posterior mean.
    """

    snr_kind = "ddim"

    def __init__(self, predictor, schedule=None, mode="trajectory"):
        if mode not in ("trajectory", "x0"):
            raise InvalidParameterError(f"unknown mode {mode!r}")
        self.predictor = predictor
        self.schedule = schedule if schedule is not None else default_ddim_schedule()
        self.mode = mode
        self.eval_count = 0

    def _eps(self, s_t, ab):
        self.eval_count += 1
        return np.asarray(self.predictor(s_t, ab), dtype=np.float64)

    def denoise(self, s_in, t_star, v):
        level = float(t_star)
        s_t = np.sqrt(level) * np.asarray(s_in, dtype=np.float64)
        if self.mode == "trajectory":
            ab = self.schedule.alpha_bar
            for cleaner in ab[ab > level][::-1]:
                s_t = ddim_reverse_step(s_t, self._eps(s_t, level), level,
                                        cleaner)
                level = cleaner
        return ddim_x0_predict(s_t, self._eps(s_t, level), level)


class FlowMatchingPrior:
    """Denoiser built from a flow-matching velocity predictor.

    snr matching gives the start time t*; the input is scaled onto the path
    as z = t* s_in and the probability-flow ODE is integrated forward to
    ``T_END``, just short of 1 to keep analytic point-mass velocities finite.
    """

    snr_kind = "flow-matching"
    T_END = 1.0 - 1e-3

    def __init__(self, predictor, num_steps=20):
        if num_steps < 1:
            raise InvalidParameterError("num_steps must be >= 1")
        self.predictor = predictor
        self.num_steps = num_steps
        self.eval_count = 0

    def denoise(self, s_in, t_star, v):
        z = float(t_star) * np.asarray(s_in, dtype=np.float64)
        if t_star >= self.T_END:
            return z / max(t_star, 1e-12)

        def counted(state, t):
            self.eval_count += 1
            return self.predictor(state, t)

        return fm_integrate(z, counted, float(t_star), self.T_END,
                            self.num_steps)


# ---------------------------------------------------------------------------
# analytic predictors (exact posteriors for scalar priors; used in tests and
# demos where a trained network would otherwise sit)

def gaussian_eps_predictor(mean=0.0, var0=1.0):
    """Optimal DDIM noise predictor for s0 ~ N(mean, var0) i.i.d."""

    def predictor(s_t, alpha_bar):
        denom = alpha_bar * var0 + (1.0 - alpha_bar)
        return (np.sqrt(1.0 - alpha_bar)
                * (np.asarray(s_t) - np.sqrt(alpha_bar) * mean) / denom)

    return predictor


def pointmass_eps_predictor(s0):
    """Noise predictor when the clean signal is known exactly."""
    s0 = np.asarray(s0, dtype=np.float64)

    def predictor(s_t, alpha_bar):
        return (np.asarray(s_t) - np.sqrt(alpha_bar) * s0) / np.sqrt(1.0 - alpha_bar)

    return predictor


def gaussian_velocity_predictor(mean=0.0, var0=1.0):
    """Optimal flow-matching velocity for s0 ~ N(mean, var0) i.i.d.

    With z_t = (1 - t) eps + t s0 the posterior is Gaussian and
    E[s0 - eps | z] is one affine map of z: the posterior means
    ``mean + t var0 (z - t mean) / var_t`` of s0 and
    ``(1 - t) (z - t mean) / var_t`` of eps, with
    ``var_t = t^2 var0 + (1 - t)^2``, differ by
    ``mean + (t var0 - (1 - t)) (z - t mean) / var_t``.
    """

    def predictor(z, t):
        var_t = t * t * var0 + (1.0 - t) ** 2
        slope = (t * var0 - (1.0 - t)) / var_t
        # mean + slope (z - t mean), the constant folded into one scalar
        return slope * np.asarray(z) + (1.0 - slope * t) * mean

    return predictor


def pointmass_velocity_predictor(s0):
    """Velocity field when the clean signal is known: (s0 - z) / (1 - t)."""
    s0 = np.asarray(s0, dtype=np.float64)

    def predictor(z, t):
        return (s0 - np.asarray(z)) / (1.0 - t)

    return predictor
