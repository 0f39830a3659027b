"""Exception types shared across the library, the number rule, and the key
checks of config records.

The number rule, `check_real`: a number is a Python or numpy int or float,
not a bool, a string or None.  The interval check `check_range`, the
whole-number check `check_whole` and the counting rule `check_count` (sample
counts and seeds) apply it to every numeric parameter, library and config
alike, each raising a DomainError that names the parameter; `at_key` makes
that a ConfigError at the value's key path."""

import math
import numbers
import re
from contextlib import contextmanager


class ProjlabError(Exception):
    """Base class for library errors."""


class DimensionMismatch(ProjlabError):
    """Vector or descriptor dimensions are inconsistent."""


class DomainError(ProjlabError):
    """A parameter lies outside the admissible range of a formula."""


class UnsupportedSet(ProjlabError):
    """The requested oracle has no closed form for this set variant."""


class SamplingFailure(ProjlabError):
    """Rejection sampling could not produce enough valid points."""


class InsufficientData(ProjlabError):
    """Not enough trajectory entries to run the requested fit or check."""


class MoreThanOneReflection(DomainError):
    """More than one relaxation parameter equals 2 in a cyclic scheme."""


class MoreThanOneFullIntrepid(DomainError):
    """More than one semi-intrepid parameter equals 1 in a cyclic scheme."""


class StrongRegularityFailed(DomainError):
    """A coercivity constant was requested for a degenerate normal geometry."""


class ContainmentViolated(ProjlabError):
    """A set escapes the affine subspace it was claimed to live in."""


class ShadowRecursionViolated(ProjlabError):
    """A projected trajectory does not follow the same recursion."""


class ConfigError(ProjlabError):
    """A scenario configuration failed to parse or validate."""


def check_real(name, value):
    """`value` as a float if it is a real number, else a DomainError naming
    `name`.  An int too large for a float reads as +-inf."""
    if isinstance(value, float):  # np.float64 is one
        return float(value)
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_range(name, value, lo, hi, lo_open=False, hi_open=False):
    """`value` as a float if it is a real number in the interval from lo to
    hi, closed at each end unless that end's flag opens it, else a
    DomainError naming `name`.  NaN lies in no interval."""
    v = value if type(value) is float else check_real(name, value)
    if not ((lo < v if lo_open else lo <= v) and (v < hi if hi_open else v <= hi)):
        raise DomainError(f"{name} must lie in {'(' if lo_open else '['}{lo:.16g}, "
                          f"{hi:.16g}{')' if hi_open else ']'}, got {v}")
    return v


def check_whole(name, value):
    """`value` as an int if it is a real number that is whole, else a
    DomainError naming `name`.  NaN and the infinities are not whole."""
    if not check_real(name, value).is_integer():
        raise DomainError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def check_count(name, value, least):
    """`value` as an int if it is an integer (a bool is not) of at least
    `least`, else a DomainError naming `name`: the rule of every sample
    count (least 1) and every seed (least 0)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise DomainError(f"{name} must be a {'positive' if least == 1 else 'nonnegative'} "
                          f"integer, got {value!r}")
    return int(value)


# A message that starts with a key path, e.g. "members[1].radius: ...".
_KEY_PATH = re.compile(r"\w+(\[\d+\])*(\.\w+(\[\d+\])*)*: ")


@contextmanager
def at_key(prefix):
    """Report an error in the value read in the block, which sits at key path
    `prefix` of the enclosing record (the top level if it is empty), as a
    ConfigError there.  A DomainError or DimensionMismatch is such an error
    too, and a message that starts with a key path extends it."""
    try:
        yield
    except (ConfigError, DomainError, DimensionMismatch) as exc:
        msg = str(exc)
        if prefix:
            msg = f"{prefix}.{msg}" if _KEY_PATH.match(msg) else f"{prefix}: {msg}"
        raise ConfigError(msg) from exc


def check_keys(record, path, allowed, required=(), modifiers=()):
    """Reject a key of `record` outside `allowed`, a missing `required` key,
    and a modifier given without the key it modifies (`modifiers` holds
    (modifier, key) pairs).  Messages start with the key's path below
    `path`."""
    at = f"{path}." if path else ""
    for key in record:
        if key not in allowed:
            raise ConfigError(f"{at}{key}: unknown key")
    for key in required:
        if key not in record:
            raise ConfigError(f"{at}{key}: missing required key")
    for key, base in modifiers:
        if key in record and base not in record:
            raise ConfigError(f"{at}{key}: given without '{base}'")


def table_entry(record, table, what, tag="type"):
    """The entry of `table` that a tagged config record names."""
    if not isinstance(record, dict) or tag not in record:
        raise ConfigError(f"{what} record must be an object with a '{tag}' tag")
    if record[tag] not in table:
        raise ConfigError(f"{tag}: unknown {what} {tag} '{record[tag]}'")
    return table[record[tag]]
