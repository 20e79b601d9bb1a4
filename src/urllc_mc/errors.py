"""Exception types with their CLI exit and error codes, the one test of what
a numeric argument may be, and the decorator of every checked record."""

import math
import sys


class UrllcMcError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1
    code = "ERROR"


class ParseError(UrllcMcError):
    """Malformed configuration document (bad syntax, wrong top-level shape)."""

    exit_code = 2
    code = "PARSE_ERROR"


class ValidationError(UrllcMcError):
    """Well-formed input that violates a field constraint."""

    exit_code = 3
    code = "VALIDATION_ERROR"


class SolverError(UrllcMcError):
    """Root solve failed: target not bracketed, non-monotone forward map,
    or no convergence within the iteration budget."""

    exit_code = 4
    code = "SOLVER_ERROR"


class DomainError(UrllcMcError, ValueError):
    """Argument outside the mathematical domain of an operation."""

    exit_code = 5
    code = "DOMAIN_ERROR"


def integer(value: object) -> bool:
    """An int that is not a bool (numpy's integers are not ints)."""
    return isinstance(value, int) and not isinstance(value, bool)


def real(value: object) -> bool:
    """A finite Python int or float: numpy's float64, a float subclass,
    counts; a bool, a str, numpy's float32 and int64, a Fraction or an int
    past the float range does not. Every numeric argument is checked as
    ``real(x) and <range>`` or ``integer(x) and <range>``."""
    if type(value) is float:  # the common case; NaN and +-inf give NaN
        return value - value == 0.0
    if isinstance(value, float):
        return math.isfinite(value)
    # compared exactly, so an int past the float range is never converted
    return integer(value) and abs(value) <= sys.float_info.max


def shown(value: object) -> str:
    """``repr(value)`` for an error message. A value of a type that ``real``
    refuses is marked so, since a range message would misread it; an int
    past the float range is described instead, as its repr may exceed the
    int-to-str digit limit. None, an absent value, is shown plain."""
    if integer(value):
        return repr(value) if real(value) else "an int past the float range"
    if isinstance(value, float) or value is None:
        return repr(value)
    name = type(value).__name__
    return f"{value!r}, {'an' if name[0] in 'aeiou' else 'a'} {name}, not a Python int or float"


def checked(record):
    """Class decorator for a ``typing.NamedTuple`` whose ``_check`` raises on a
    bad value: its constructor, ``_make`` and ``_replace`` all run the check.
    (A NamedTuple's own body may not define ``__new__`` or ``_make``.)"""
    make = record.__new__

    def __new__(cls, *args, **kwargs):
        self = make(cls, *args, **kwargs)
        self._check()
        return self

    __new__.__wrapped__ = make  # so that help() shows the fields
    record.__new__, record._make = __new__, classmethod(lambda cls, it: cls(*it))
    return record
