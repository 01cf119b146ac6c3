"""Exception types shared across the package."""


class RmOampError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimensionError(RmOampError):
    """A vector or matrix dimension does not match what the operation expects."""


class InvalidParameterError(RmOampError):
    """A configuration value is outside its admissible range."""


class InvalidMessageError(RmOampError):
    """A Gaussian message violates its invariants (e.g. non-positive variance)."""


class SingularSystemError(RmOampError):
    """The linear estimator cannot be evaluated (zero noise and zero prior variance)."""


class NoInformationError(RmOampError):
    """Orthogonalization is undefined: the posterior variance did not decrease."""


class NleError(RmOampError):
    """The denoiser produced unusable output (non-finite values, protocol fault)."""


class DegenerateNleError(NleError):
    """The denoiser returned a zero vector: no direction to rescale."""


class IntegrationError(NleError):
    """A sampler's ODE integration hit a non-finite state."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class BridgeError(NleError):
    """Base class for external denoiser bridge faults."""


class BridgeTimeoutError(BridgeError):
    """The bridge did not answer within the configured deadline."""


class BridgeProtocolError(BridgeError):
    """The bridge answered with a malformed frame (bad magic, wrong length)."""
