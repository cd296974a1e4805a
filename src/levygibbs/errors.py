"""Exception taxonomy shared across the package.

Every error raised by the library derives from :class:`LevyGibbsError` so
callers can catch the whole family, while the CLI maps the leaf classes to
distinct exit codes.
"""

from __future__ import annotations


class LevyGibbsError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(LevyGibbsError, ValueError):
    """A scalar parameter violates its admissible range (e.g. nu <= 0)."""


class RangeError(ParameterError):
    """A derived quantity leaves the representable range (e.g. n*delta overflows)."""


class DimensionError(LevyGibbsError, ValueError):
    """A vector has the wrong length for the basis or operation at hand."""


class WindowError(LevyGibbsError, ValueError):
    """A window is degenerate or not contained where the operation requires."""


class DomainError(LevyGibbsError, ValueError):
    """A density was evaluated at a point outside its domain (x = 0)."""


class IntegrationError(LevyGibbsError, ArithmeticError):
    """Quadrature failed: non-finite integrand or unmet error target."""


class EmptyDrawsError(LevyGibbsError, RuntimeError):
    """A posterior summary was requested from an empty draw collection."""


class InputParseError(LevyGibbsError, ValueError):
    """An input file is malformed; the message names the offending line."""


class ResourceGuardError(LevyGibbsError, RuntimeError):
    """A memory/runtime guard refused the requested mode of operation."""
