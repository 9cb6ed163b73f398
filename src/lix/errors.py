"""Exception hierarchy for liquidity computations and data ingestion."""


class LixError(Exception):
    """Base class for all errors raised by this package."""


# --- measure preconditions ---------------------------------------------------

class ZeroRange(LixError):
    """High equals low: the price range is zero and the index is undefined."""


class ZeroVolume(LixError):
    """No volume traded over the interval."""


class NonPositivePrice(LixError):
    """A price that must be strictly positive is zero or negative."""


class InvalidInterval(LixError):
    """Elapsed time is non-positive or exceeds the session length."""


# --- order book --------------------------------------------------------------

class EmptySide(LixError):
    """An order-book side has no levels."""


class CrossedBook(LixError):
    """Ask-side price does not exceed bid-side price."""


class InvalidAdv(LixError):
    """Average daily volume must be strictly positive."""


# --- baskets / venues --------------------------------------------------------

class EmptyBasket(LixError):
    """A basket needs at least one position."""


class UnnormalizedWeights(LixError):
    """Strict mode: money weights do not sum to one within tolerance."""


class MissingEtfLeg(LixError):
    """Basket-plus-ETF liquidity requires an ETF-share liquidity value."""


class EmptyList(LixError):
    """Venue combination needs at least one liquidity value."""


# --- comparative measures ----------------------------------------------------

class InsufficientData(LixError):
    """Fewer bars than the measure requires."""


class ZeroDollarVolume(LixError):
    """Dollar volume is zero where the measure divides by it."""


# --- simulation lab ----------------------------------------------------------

class DegenerateGrid(LixError):
    """Time grid has fewer than two fractions, repeats one, or leaves (0, 1]."""


class InvalidParams(LixError):
    """Simulation parameters are inconsistent or out of range."""


class DegenerateRegression(LixError):
    """Too few usable points, or no variation, for a regression."""


# --- data ingestion ----------------------------------------------------------

class ParseError(LixError):
    """Malformed input file; carries the offending location."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column})" if column else ")")
        super().__init__(message + loc)
        self.line = line
        self.column = column


class InvariantViolation(LixError):
    """Well-formed input whose values violate a domain invariant."""

    def __init__(self, message, line=None):
        super().__init__(message + (f" (line {line})" if line is not None else ""))
        self.line = line


class GapInLevels(LixError):
    """Order-book levels are not contiguous from level 1."""


class EmptyDataset(LixError):
    """No usable rows in the input."""


class AllZeroVolume(LixError):
    """Every bar in the averaging window has zero volume."""
