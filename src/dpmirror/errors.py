"""Exception types shared across the package, and the input checkers.

The CLI maps these onto process exit codes: ConfigurationError -> 2,
RegimeError -> 3. An audit violation is reported as a result, not an
exception: exit 4 is decided by the audit command.

Every public entry point checks its counts, reals and vectors here, so a
bool, a float count, a string or a non-finite value is refused the same
way everywhere: check_count, check_real (with as_real, its type test, for
a one-off range), check_probability (a delta), check_reals for arrays,
which check_vector adds a shape test to, and check_pair for a
(features, labels) pair. Each rule is written once, here.

Every real parameter is 0 where 0 is allowed, or has magnitude in
[2^-K, 2^K], K = RANGE_EXPONENT = 200: check_real and check_probability
enforce it on scalars (a noise rate keeps its [0, 1]), check_parameter_vector
on the vectors only a caller gives (a box's corners, w_true). Not on data,
nor on the vectors the library computes (w1, an iterate, a comparator),
which may near 0, or a box's corner at 2^K: the arithmetic on them keeps
its own checks (estimate_regret, max_subgradient_norm, reach, project,
population_risk), as does audit_single_step's e^(2*epsilon_tilde). A
derived sigma, eta, L or D is the next call's parameter, refused there by
name.

So no function checks its arithmetic on parameters for overflow or
underflow. Take X = 2^K, S = 2^27 >= sqrt(d) (d <= 2^53), OVER = 2^1024,
NORMAL = 2^-1022. In the standard model of rounding (Higham, 2002) each
value below takes at most 2^55 operations of relative error u = 2^-53
(counting sqrt, log, exp and lgamma by their accuracy), so it is within a
factor RHO = 2^6 > e^4 of exact, and each bound covers its intermediates.
Each line holds exactly at K = 200, d = 2^53 (tests/test_input_checks.py):

    reciprocal: RHO*X < OVER
        1/delta <= X (check_probability).
    set: RHO*2*(S + 1)*X < OVER
        A FeasibleSet's diameter and largest norm, at most 2(sqrt(d) + 1)X.
    squares: NORMAL*RHO*X**2 <= 1 and RHO*S**2*X**2 < OVER
        A feature bound's square and a nonzero w_true's squared norm.
    curvature: NORMAL*RHO*2**371*X**2 <= 1
        risk_curvature's beta, B^2/(2(d + 2)), B^2/(d + 2), 2c_d B^2 or 4c_d B^2:
        c_d >= 1/2 is e^t/sqrt(pi) with t, an lgamma difference, off by < 2^8.
    step: (RHO*(2*(S + 1)*X + X*(X + 14*S*X)))**2 < OVER
        RunConfig: a step's point w - eta*g has norm at most max_norm() +
        eta*(L + 14*sigma*sqrt(d)), as ||g|| <= L (check_rows) and numpy's
        standard_normal never returns |z| >= 14 (its ziggurat's tail reaches
        13.71). The binding line: the exact bound reaches OVER at K = 241.
    sigma: NORMAL*RHO*S*X**2 <= 1 and RHO*2*K*X**2 < OVER
        calibrate_sigma's and end_to_end's sigma, in [1/(S X^2), 2K X^2], as
        ln(1/delta) is in [2^-53, K] and sqrt(n)*epsilon in [4/X, 1/2].
    eta: NORMAL*RHO*S*X*(X + 2*K*S*X**2) <= 1 and RHO*X**2 < OVER
        end_to_end's D/(sqrt(n)(L + sigma sqrt(d))), with sqrt(n) in [4, S].
    risk_bound: NORMAL*RHO*S*X**2 <= 5 and RHO*X*(2*X + 2*K*S*X**2) < OVER
        end_to_end's 2.5D(2L + sigma sqrt(d))/sqrt(n); its epsilon is in [8/X, K].
    epsilon: NORMAL*RHO*8*K*X <= 1
        from_target's eps_bar/(8 sqrt(ln(1/delta))).
    audit: RHO*15*X < OVER
        audit_single_step's grid edges and draws z*sigma + L.
"""

import math

import numpy as np

RANGE_EXPONENT = 200
_SMALLEST, _LARGEST = math.ldexp(1.0, -RANGE_EXPONENT), math.ldexp(1.0, RANGE_EXPONENT)
_RANGE = f"[2^-{RANGE_EXPONENT}, 2^{RANGE_EXPONENT}]"


class ConfigurationError(ValueError):
    """Invalid input: dimension mismatch, bad parameter, malformed config."""


class RegimeError(ValueError):
    """A guarantee's precondition fails; we refuse rather than clamp.

    Raised by the accountant when parameters leave the regime where the
    reported privacy guarantee is valid (e.g. a per-record epsilon above
    end_to_end's limit 1/(2*sqrt(n))).
    """


def _shown(value):
    """repr(value), or a description of an int too long for repr (Python
    refuses to format one of more than 4300 digits)."""
    try:
        return repr(value)
    except ValueError:
        return f"an int of {value.bit_length()} bits"


def check_count(value, name, low=1, high=1 << 53):
    """int(value) for an int or numpy integer (never a bool) in [low, high].
    The default high, 2**53, is the largest int a float holds exactly (the
    accountant computes with float(n)); a seed passes high=None."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        return int(value)
    bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise ConfigurationError(f"{name} must be an int {bounds}, got {_shown(value)}")


def as_real(value, name):
    """value as a float: an int, float or numpy real, never a bool or a
    string, and within float range. Its range is the caller's to check."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigurationError(f"{name} must be a real number, got {_shown(value)}")


def _outside_range(magnitude):
    """Whether a nonzero magnitude lies outside [2^-K, 2^K], elementwise."""
    return (magnitude != 0.0) & ((magnitude < _SMALLEST) | (magnitude > _LARGEST))


def check_real(value, name, zero=False):
    """as_real(value), which must be positive and in range, or 0 with zero."""
    real = as_real(value, name)
    if not (0.0 < real < math.inf or zero and real == 0.0):   # NaN fails every comparison
        raise ConfigurationError(
            f"{name} must be finite and {'>= 0' if zero else 'positive'}, got {value!r}")
    if _outside_range(real):
        raise ConfigurationError(f"{name} must have magnitude in {_RANGE}, got {value!r}")
    return real


def check_probability(value, name):
    """as_real(value), a delta: in (0, 1), and in range."""
    real = as_real(value, name)
    if not 0.0 < real < 1.0:
        raise ConfigurationError(f"{name} must lie in (0, 1), got {value!r}")
    return check_real(real, name)


def check_reals(value, name, finite=True):
    """value as a float64 array: an array or rectangular nesting of finite
    reals, of numpy's int, uint or float dtypes or with every entry passing
    as_real. A bool or text array is refused, and so is a nesting with a
    bool entry, which numpy would read as 0 or 1 among numbers. The shape
    is the caller's to check, and with finite=False so is finiteness (a
    caller that checks a large array a block at a time)."""
    try:
        array = np.asarray(value)
    except ValueError:   # a ragged nesting
        raise ConfigurationError(f"{name} must be a rectangular array") from None
    if (not isinstance(value, np.ndarray) and array.dtype.kind in "iuf"
            and any(isinstance(entry, (bool, np.bool_))
                    for entry in np.asarray(value, dtype=object).ravel().tolist())):
        raise ConfigurationError(f"{name} must hold real numbers, got a bool entry")
    if array.dtype.kind == "O":   # ints past 2**64, or entries numpy cannot type
        entries = [as_real(entry, f"{name} entry") for entry in array.ravel().tolist()]
        array = np.array(entries, dtype=float).reshape(array.shape)
    elif array.dtype.kind not in "iuf":
        raise ConfigurationError(f"{name} must hold real numbers, got dtype {array.dtype}")
    array = array.astype(float, copy=False)
    if finite and not np.isfinite(array).all():
        raise ConfigurationError(f"{name} must be finite")
    return array


def check_pair(value, name):
    """value, a (features, labels) pair: a tuple or list of two, never an array."""
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return value
    got = f"{len(value)} entries" if isinstance(value, (tuple, list)) else type(value).__name__
    raise ConfigurationError(f"{name} must be a (features, labels) pair, got {got}")


def check_vector(value, dimension, name):
    """A read-only float copy of check_reals(value), of shape (dimension,)."""
    vector = np.array(check_reals(value, name))
    if vector.shape != (dimension,):
        raise ConfigurationError(f"{name} must have shape ({dimension},), got {vector.shape}")
    vector.flags.writeable = False
    return vector


def check_parameter_vector(value, dimension, name):
    """check_vector(value), each entry 0 or in range (a vector only a caller gives)."""
    vector = check_vector(value, dimension, name)
    if _outside_range(np.abs(vector)).any():
        raise ConfigurationError(f"{name} entries must be 0 or have magnitude in {_RANGE}")
    return vector
