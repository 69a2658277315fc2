"""Exception types shared across the package.

Every refusal the library makes is a typed error so callers (and the CLI
exit-code mapping) can tell usage mistakes from numerical refusals.
"""


class DirichletLabError(Exception):
    """Base class for all package errors."""


class BudgetError(DirichletLabError):
    """A requested table or sweep exceeds the configured resource ceiling."""


class RangeError(DirichletLabError, ValueError):
    """An index or argument lies outside the tabulated range."""


class DomainError(DirichletLabError, ValueError):
    """Evaluation requested outside a function's supported region."""


class MembershipError(DirichletLabError, ValueError):
    """A coefficient sits in a direction excluded by a zero weight."""


class TruncationError(DirichletLabError):
    """A reconstruction or block operation exceeds the truncation limit."""


class FitError(DirichletLabError, ValueError):
    """A regression grid is degenerate or the usable window is too small."""
