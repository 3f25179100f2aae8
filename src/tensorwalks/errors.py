"""Exception types shared across the package."""


class SpecError(ValueError):
    """Group/module spec string failed to parse or has invalid parameters.

    `position` is the byte offset into the input where the problem was found,
    or None for semantic errors without a useful location.
    """

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class UnsupportedQueryError(ValueError):
    """Query not available for this group tier / module combination."""


class ConsistencyError(AssertionError):
    """Two routes that must agree exactly did not, or an exactness assertion
    failed (e.g. a character sum that must be a nonnegative integer is not).
    Always a bug in tables or formulas, never ignorable."""


# What a cross-check raises when the program is at fault: a ConsistencyError,
# or an ArithmeticError of the polynomial kernel (an inexact division or a
# singular matrix).  The CLI exits 4 on one; a `verify` check fails with it.
FAULTS = (ConsistencyError, ArithmeticError)


def exact_count(total: int, divisor: int, what: str) -> int:
    """total / divisor, checked to be a nonnegative integer: every count the
    routes divide out of an exact sum passes through here."""
    count, rem = divmod(total, divisor)
    if rem or count < 0:
        raise ConsistencyError(f"{what} came out {total}/{divisor}")
    return count
