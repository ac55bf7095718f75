"""Exception types shared across the package.

The CLI maps these onto process exit codes: ConfigurationError -> 2,
RegimeError -> 3. Audit violations and overruns are reported as results,
not exceptions: exit 4 is decided by the audit command, and exit 5 by a
degraded run, one in which more than 1% of a cell's runs overran.
"""


class ConfigurationError(ValueError):
    """Invalid input: dimension mismatch, bad parameter, malformed config."""


class RegimeError(ValueError):
    """A guarantee's precondition fails; we refuse rather than clamp.

    Raised by the accountant when parameters leave the regime where the
    reported privacy guarantee is valid (e.g. a per-record epsilon above
    end_to_end's limit 1/(2*sqrt(n))).
    """
