"""Exception types shared across the toolkit, with their CLI exit and error codes."""


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
