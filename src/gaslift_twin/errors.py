"""Exception and warning taxonomy shared by all gaslift_twin modules."""


class GasLiftError(Exception):
    """Base class for every error raised by this package."""


# --- plant model ---

class NegativeSqrtArgument(GasLiftError):
    """A pressure difference under a square root went negative (nonphysical state)."""


class DegenerateHoldup(GasLiftError):
    """Gas volume collapsed to zero or below; the holdup state is invalid."""


class IntegrationUnstable(GasLiftError):
    """A mass holdup left its physical bounds during integration."""


# --- design of experiments ---

class InvalidBounds(GasLiftError):
    """A sampling bound has min >= max."""


class DegenerateColumn(GasLiftError):
    """A data column has zero variance where variation is required."""


# --- structure identification ---

class AllPairsDegenerate(GasLiftError):
    """Every sampled pair has zero input distance; Lipschitz quotients undefined."""


class InsufficientPairs(GasLiftError):
    """Fewer finite Lipschitz coefficients than the requested p."""


class NoPlateau(GasLiftError):
    """The Lipschitz index never flattened within the tested lag range."""


class TooShortPlateau(GasLiftError):
    """An input plateau is too short to yield a single lagged regressor row."""


# --- network ---

class ShapeMismatch(GasLiftError):
    """An array argument does not match the network geometry."""


class DivergedLoss(GasLiftError):
    """Training loss became non-finite."""


# --- Bayesian uncertainty ---

class NonFiniteStart(GasLiftError):
    """MCMC initialised at a point with non-finite log posterior."""


class BurnInExceedsChain(GasLiftError):
    """Requested burn-in is not smaller than the chain length."""


class InsufficientSamples(GasLiftError):
    """Too few samples for the requested statistic."""


class InvalidRegion(GasLiftError):
    """A coverage region has inf > sup."""


# --- configuration / CLI ---

class ConfigError(GasLiftError):
    """Base class for configuration parsing failures."""


class UnknownKey(ConfigError):
    """Configuration file contains a key outside the documented set."""


class TypeMismatch(ConfigError):
    """Configuration value cannot be coerced to the key's declared type."""


class RangeViolation(ConfigError):
    """Configuration value is outside the key's legal range."""


class MissingArtifact(GasLiftError):
    """An upstream pipeline artifact is absent."""


class FingerprintMismatch(GasLiftError):
    """An upstream artifact's hash differs from the one recorded at creation."""


class IoFailure(GasLiftError):
    """A report or artifact could not be written."""


class UsageError(GasLiftError):
    """The command line names an unknown stage or an invalid option value."""


# --- worker processes ---

class WorkerDied(GasLiftError):
    """A forked worker exited without sending its results; the message names
    its exit status or signal."""


# --- warnings ---

class GasLiftWarning(UserWarning):
    """Base class for non-fatal conditions."""


class MemberDroppedWarning(GasLiftWarning):
    """An ensemble member failed to simulate and was excluded."""


class NoInflectionWarning(GasLiftWarning):
    """Ensemble reduction found no non-degenerate size; full ensemble kept."""
