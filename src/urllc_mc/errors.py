"""Exception types shared across the toolkit, with their CLI exit and error codes."""

import sys

import numpy as np


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


# Python's and numpy's bool, which numeric arguments reject by exact type
# (bool is an int subclass; numpy's passes range checks as 0 or 1).
BOOL_TYPES = frozenset((bool, np.bool_))


def shown(value: object) -> str:
    """``repr(value)`` for an error message. An int past the float range is
    described instead: no check accepts one, and its repr may exceed the
    int-to-str digit limit."""
    if isinstance(value, int) and not abs(value) <= sys.float_info.max:
        return "an int past the float range"
    return repr(value)
