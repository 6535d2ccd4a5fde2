"""Exception hierarchy shared by all modules.

Each class maps to one CLI exit status (see cli._EXIT_BY_ERROR):
config problems -> 2, protocol violations -> 3, data/schema problems -> 4,
numeric failures -> 5.
"""


class FvError(Exception):
    pass


class ConfigError(FvError):
    """Bad configuration value or malformed config file."""


def check_min(cfg, **minimums):
    """Raise ConfigError unless each field `name` of `cfg` is >= `low`."""
    for name, low in minimums.items():
        value = getattr(cfg, name)
        if value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")


class ShapeError(FvError):
    """Matrix dimension mismatch; message names both shapes."""


class DegenerateVectorError(FvError):
    """A vector with norm below eps that cannot be normalized."""


class NumericError(FvError):
    """NaN/Inf or other non-finite value where a finite one is required."""


class FormatError(FvError):
    """Bad magic, version, or truncated binary container."""


class SchemaError(FvError):
    """Inconsistent dims or manifest/store disagreement."""


class EmptyDatasetError(FvError):
    """An assembly or sampling step produced nothing usable."""


class LookupError_(FvError):
    """Unknown record or speaker id."""


class SamplingError(FvError):
    """Requested more trials than the record pool can provide."""


class MetricError(FvError):
    """Metric undefined for the given inputs (e.g. single-class EER)."""


class ProtocolViolationError(FvError):
    """Unheard-language leakage detected in a consumed training manifest."""
