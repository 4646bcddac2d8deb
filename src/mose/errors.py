"""Exception types shared across the package.

Every error that callers are expected to handle maps to one of these; the
command line front end translates them into stable process exit codes.
"""


class MoseError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MoseError):
    """Bad configuration: unknown key, unparseable value, invalid combination."""


class DataError(MoseError):
    """Missing, malformed, or physically impossible input data."""


class ScheduleError(MoseError):
    """A variance schedule that cannot support the diffusion chain."""


class AlignmentError(MoseError):
    """An inference schedule that cannot be aligned to the training schedule."""


class MetricError(MoseError):
    """A metric could not be evaluated (bad reference, failed external scorer)."""


class DivergenceError(MoseError):
    """Training left the numerically trustworthy regime."""


class CheckpointError(MoseError):
    """A checkpoint file that is missing, corrupt, or incompatible."""


class CheckFailure(MoseError):
    """One or more self-check groups did not pass."""
