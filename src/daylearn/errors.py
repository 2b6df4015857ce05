"""Exception hierarchy shared across the harness.

Each class carries the `label` and `exit_code` that `cli.dispatch`
reports it with; an OSError outside the hierarchy exits 1 as IO_ERROR.
"""


class DaylearnError(Exception):
    """Base class for all harness errors."""
    label, exit_code = "ERROR", 1


class ConfigError(DaylearnError):
    """Invalid configuration: bad key, bad value, inconsistent model."""
    label, exit_code = "CONFIG_ERROR", 2


class UsageError(DaylearnError):
    """API misuse: empty batch, series shorter than window, etc."""
    label, exit_code = "USAGE_ERROR", 2


class DataError(DaylearnError):
    """Bad input data: malformed file, out-of-range label, missing class."""
    label, exit_code = "DATA_ERROR", 3


class NumericError(DaylearnError):
    """Non-finite value encountered; the offending step is aborted."""
    label, exit_code = "NUMERIC_ERROR", 1


class CheckpointError(DaylearnError):
    """Corrupt or truncated checkpoint file."""
    label, exit_code = "CHECKPOINT_ERROR", 1
