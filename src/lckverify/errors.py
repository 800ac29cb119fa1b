"""Exception types shared across the package.

A failure is told apart by its message, which names it on its own; a
class exists only where some caller catches it.
"""


class LckError(Exception):
    """Base class for all errors raised by lckverify, and the class of
    every mathematical failure."""


class ParseError(LckError):
    """Text that cannot be read."""


class SchemaError(LckError):
    """Catalog record is malformed; carries the offending location."""

    def __init__(self, location, message):
        self.location = location
        self.message = message
        super().__init__(f"{location}: {message}")


class UsageError(LckError):
    """Bad command-line input; the CLI exits with 2."""


#: What reading outside text or JSON values can raise: a ParseError or
#: other LckError, Fraction's errors, and those of a value of the wrong
#: JSON type.
READ_ERRORS = (LckError, ValueError, TypeError, AttributeError, ZeroDivisionError)
