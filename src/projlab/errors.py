"""Exception types shared across the library, the one interval check, the
one whole-number check and the one counting rule (sample counts and seeds)
that raise DomainError for every numeric parameter, and the key checks that
raise ConfigError for every config record."""

import numbers
import re
import sys
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


def check_range(name, value, lo, hi, lo_open=False, hi_open=False):
    """`value` as a float if it lies in the interval from lo to hi, closed at
    each end unless that end's flag opens it, else a DomainError naming
    `name`.  NaN lies in no interval."""
    v = float(value)
    if not ((lo < v if lo_open else lo <= v) and (v < hi if hi_open else v <= hi)):
        raise DomainError(f"{name} must lie in {'(' if lo_open else '['}{lo:.16g}, "
                          f"{hi:.16g}{')' if hi_open else ']'}, got {v}")
    return v


def check_whole(name, value):
    """`value` as an int if it is a whole number, else a DomainError naming
    `name`.  NaN and the infinities are not whole."""
    if not float(value).is_integer():
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
    """Report a ConfigError raised in the block from the enclosing record,
    where the value read sits at key path `prefix`: a message that starts
    with a key path extends it."""
    try:
        yield
    except ConfigError as exc:
        msg = str(exc)
        raise ConfigError(f"{prefix}.{msg}" if _KEY_PATH.match(msg)
                          else f"{prefix}: {msg}") from exc


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


def check_int(value, key, least, most=None):
    """`value` if it is an int (a bool is not) in [least, most], else a
    ConfigError at `key`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least \
            or (most is not None and value > most):
        what = (f"an integer in [{least}, {most}]" if most is not None
                else "a positive integer" if least == 1 else "a nonnegative integer")
        raise ConfigError(f"{key}: must be {what}")
    return value


def check_positive(value, key):
    """`value` as a float if it is a positive finite number (a bool is not),
    else a ConfigError at `key`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not 0 < value <= sys.float_info.max:  # nan, inf and 1e400 fail
        raise ConfigError(f"{key}: must be a positive number")
    return float(value)


def check_number(value, key):
    """`value` as a float if it is a finite number (a bool is not), else a
    ConfigError at `key`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:  # nan, inf and 1e400 fail
        raise ConfigError(f"{key}: must be a finite number")
    return float(value)


def table_entry(record, table, what, tag="type"):
    """The entry of `table` that a tagged config record names."""
    if not isinstance(record, dict) or tag not in record:
        raise ConfigError(f"{what} record must be an object with a '{tag}' tag")
    if record[tag] not in table:
        raise ConfigError(f"{tag}: unknown {what} {tag} '{record[tag]}'")
    return table[record[tag]]
