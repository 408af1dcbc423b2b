"""Error taxonomy shared by the library and the CLI exit-code contract."""

# The largest rank k any entry point accepts; past it the exact products
# and determinants grow without bound, so every layer refuses with
# BudgetExceededError (CLI exit 4).
K_CAP = 100

# Python's default limit on int-to-decimal conversion: a table cell holding
# a longer integer is refused (CLI exit 4) instead of failing inside str()
CELL_DIGITS = 4300


class LatvolError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class PreconditionError(LatvolError):
    """An argument violates a documented precondition (CLI exit 3)."""

    exit_code = 3


class BudgetExceededError(LatvolError):
    """An enumeration or count exceeded its computational budget (CLI exit 4)."""

    exit_code = 4


class InvariantError(LatvolError):
    """An internal invariant failed, e.g. a cross-count mismatch (CLI exit 5)."""

    exit_code = 5
