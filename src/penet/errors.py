"""Exception types shared across the package, and ``check_int``, the one
check of an integer bound.

Every integer that arrives from outside goes through ``check_int``: the
``TrainConfig`` fields, the integers of checkpoint metadata, the synth
sizes and seed, the CLI's integer flags, an encoder's depth, and the
point counts and start indices of sampling and evaluation. Python and
numpy integers pass and come back as a plain ``int``; a bool, a float, a
string, ``None`` or an array does not, and neither does a value outside
its bounds. The error names the value and the bound it broke.
"""

import numpy as np


class DimensionError(ValueError):
    """Array shapes do not conform for an operation."""


class LayoutError(ValueError):
    """Flat batch size disagrees with the declared (batch, points) layout."""


class EmptyCloudError(ValueError):
    """An operation received a point cloud with zero points."""


class SamplingError(ValueError):
    """Requested more points than a cloud contains."""


class FormatError(ValueError):
    """A binary or text file does not match its declared format."""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class DataError(ValueError):
    """Dataset contents violate a documented constraint."""


def check_int(value, name: str, low: int, high: int | None = None,
              error: type[ValueError] = ConfigError) -> int:
    """``value`` as a plain int if it is an integer in [low, high] (no
    upper bound when ``high`` is None); otherwise raise ``error`` naming
    ``name``: "{name} must be an integer, got {value!r}", "{name} must be
    >= {low}, got {value}" or "{name} must be <= {high}, got {value}"."""
    # bool is an int subclass; a 0-d array is no np.integer, so it fails
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise error(f"{name} must be <= {high}, got {value}")
    return int(value)
