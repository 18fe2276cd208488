"""Exception types shared across the package."""


class MzDephaseError(Exception):
    """Base class for domain errors raised by this package."""


class ImpossibleOutcome(MzDephaseError):
    """Conditioning was requested on an output port with (near-)zero probability."""


class ZeroCoherenceFactor(MzDephaseError):
    """A map would divide by a vanishing coherence: the port carries no H-V
    coherence, or the propagator's starting factor f(t1) is zero within
    tolerance, so the ratio f(t2)/f(t1) is undefined."""


class PeakNotFound(MzDephaseError):
    """The recoherence signal stays below the detection floor over the whole scan."""


class EstimatorOutOfRegime(MzDephaseError):
    """The interaction-time estimator was invoked outside its validity regime
    (residual interference at the output beam splitter, or no output coupling)."""


class ConfigError(MzDephaseError):
    """Configuration file failed to parse or validate.

    ``problems`` holds one message per offending field, each prefixed with its
    field path, so that all errors can be reported at once.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
