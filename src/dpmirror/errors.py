"""Exception types shared across the package, and the input checkers.

The CLI maps these onto process exit codes: ConfigurationError -> 2,
RegimeError -> 3. Audit violations and overruns are reported as results,
not exceptions: exit 4 is decided by the audit command, and exit 5 by a
degraded run, one in which more than 1% of a cell's runs overran.

Every public entry point checks its counts, reals and vectors here, so a
bool, a float count, a string or a non-finite value is refused the same
way everywhere: check_count, check_real (with as_real, its type test, for
a one-off range) and check_vector.
"""

import math

import numpy as np


class ConfigurationError(ValueError):
    """Invalid input: dimension mismatch, bad parameter, malformed config."""


class RegimeError(ValueError):
    """A guarantee's precondition fails; we refuse rather than clamp.

    Raised by the accountant when parameters leave the regime where the
    reported privacy guarantee is valid (e.g. a per-record epsilon above
    end_to_end's limit 1/(2*sqrt(n))).
    """


def check_count(value, name, low=1, high=1 << 53):
    """int(value) for an int or numpy integer (never a bool) in [low, high].
    The default high, 2**53, is the largest int a float holds exactly (the
    accountant computes with float(n)); a seed passes high=None."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        return int(value)
    bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise ConfigurationError(f"{name} must be an int {bounds}, got {value!r}")


def as_real(value, name):
    """value as a float: an int, float or numpy real, never a bool or a
    string, and within float range. Its range is the caller's to check."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigurationError(f"{name} must be a real number, got {value!r}")


def check_real(value, name):
    """as_real(value), which must be finite and positive."""
    real = as_real(value, name)
    if not 0.0 < real < math.inf:   # NaN fails every comparison
        raise ConfigurationError(f"{name} must be finite and positive, got {value!r}")
    return real


def check_vector(value, dimension, name):
    """A read-only float copy of value, a finite vector of shape (dimension,)
    whose every entry passes as_real."""
    try:
        shape = np.shape(value)
    except ValueError:   # a ragged nesting
        shape = None
    if shape != (dimension,):
        raise ConfigurationError(f"{name} must have shape ({dimension},), got {shape}")
    v = np.array([as_real(entry, f"{name} entry") for entry in value])
    if not np.isfinite(v).all():
        raise ConfigurationError(f"{name} must be finite")
    v.flags.writeable = False
    return v
