"""Exception types shared across the package."""


class LckError(Exception):
    """Base class for all errors raised by lckverify."""


# -- scalars ---------------------------------------------------------------

class ParseError(LckError):
    pass


class DenominatorVanishes(LckError):
    pass


class MissingParameter(LckError):
    pass


class IrrationalRadical(LckError):
    pass


# -- exterior / liealg -----------------------------------------------------

class DimensionMismatch(LckError):
    pass


class DegreeZero(LckError):
    pass


class IndexOutOfRange(LckError):
    pass


class ParametersNotInstantiated(LckError):
    pass


# -- hermitian ---------------------------------------------------------------

class NotAlmostComplex(LckError):
    pass


class SingularMatrix(LckError):
    pass


class NotInvariant(LckError):
    pass


# -- lck ---------------------------------------------------------------------

class NoWitness(LckError):
    pass


class Degenerate(LckError):
    pass


class Inconsistent(LckError):
    pass


class ThetaZero(LckError):
    pass


class NotClosed(LckError):
    pass


class ThetaNotClosed(LckError):
    pass


# -- catalog -----------------------------------------------------------------

class SchemaError(LckError):
    """Catalog record is malformed; carries the offending location."""

    def __init__(self, location, message):
        self.location = location
        self.message = message
        super().__init__(f"{location}: {message}")


# -- constructions -------------------------------------------------------------

class NotADerivation(LckError):
    pass


class NotARepresentation(LckError):
    pass


class RhoNotSkew(LckError):
    pass


class RhoNotCommuting(LckError):
    pass


class NotCoKaehler(LckError):
    """A coKaehler axiom fails; carries the condition id cK1..cK5."""

    def __init__(self, condition, message=""):
        self.condition = condition
        super().__init__(f"{condition}: {message}" if message else condition)


class DNotCompatible(LckError):
    pass


class AlphaZero(LckError):
    pass


# -- cli -----------------------------------------------------------------------

class UsageError(LckError):
    pass
