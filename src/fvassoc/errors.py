"""Exception hierarchy shared by all modules.

Each class carries the CLI exit status of its kind as `status`: config
problems 2, protocol violations 3, data/schema problems 4 (every
`DataError`), numeric failures 5. The CLI exits with the status of the
error that ends a command.
"""

import contextlib
import math
import os


class FvError(Exception):
    status = 5


class ConfigError(FvError):
    """Bad configuration value or malformed config file."""

    status = 2


def check_min(cfg, **minimums):
    """Raise ConfigError unless each field `name` of `cfg` is >= `low`."""
    for name, low in minimums.items():
        value = getattr(cfg, name)
        if value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")


def check_fraction(**values):
    """Raise ConfigError unless each value `name` is in [0, 1)."""
    for name, value in values.items():
        if not 0.0 <= value < 1.0:
            raise ConfigError(f"{name} must be in [0, 1), got {value}")


def check_fits(keys, *shape, itemsize=8):
    """Raise ConfigError naming the config `keys` that size an array of
    `shape` if its bytes exceed the machine's physical memory."""
    need = math.prod(shape) * itemsize
    with contextlib.suppress(AttributeError, ValueError, OSError):  # no sysconf
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            size = " x ".join(map(str, shape))
            raise ConfigError(f"config {keys}: a {size} array of {need} bytes, more "
                              f"than the {have} bytes of physical memory")


class ProtocolViolationError(FvError):
    """Unheard-language leakage detected in a consumed training manifest."""

    status = 3


class DataError(FvError):
    """An input that is malformed or unusable for the requested step."""

    status = 4


class NumericError(FvError):
    """NaN/Inf or other non-finite value where a finite one is required."""


class ShapeError(DataError):
    """Matrix dimension mismatch; message names both shapes."""


class DegenerateVectorError(DataError):
    """A vector with norm below eps that cannot be normalized."""


class FormatError(DataError):
    """Bad magic, version, or truncated binary container."""


class SchemaError(DataError):
    """Inconsistent dims or manifest/store disagreement."""


class EmptyDatasetError(DataError):
    """An assembly or sampling step produced nothing usable."""


class LookupError_(DataError):
    """Unknown record or speaker id."""


class SamplingError(DataError):
    """Requested more trials than the record pool can provide."""


class MetricError(DataError):
    """Metric undefined for the given inputs (e.g. single-class EER)."""
