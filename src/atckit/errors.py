"""Exception types shared across the package."""


class AtckitError(Exception):
    """Base class for all errors raised by atckit."""


class DimensionError(AtckitError):
    """An input has the wrong shape.

    Either on its own (fewer than two classes, or not a matrix of row
    vectors) or against another input whose shape must agree with it
    (label count, class count, paired arrays).
    """


class InvalidArgumentError(AtckitError, ValueError):
    """A parameter or flag value is outside its allowed range."""


class NotOnSimplexError(AtckitError):
    """A vector is too far from the probability simplex to repair.

    ``row`` is the offending row's index and ``detail`` what is wrong with
    it; ``where`` names the row in the message (default ``row <row>``).
    """

    def __init__(self, row: int, detail: str, where: str = ""):
        super().__init__(f"{where or f'row {row}'}: {detail}")
        self.row, self.detail, self._where = row, detail, where

    def __reduce__(self):  # pickle rebuilds from these, not from the one-message ``args``
        return type(self), (self.row, self.detail, self._where)


class MissingLabelsError(AtckitError):
    """An operation that needs true labels got an unlabeled set."""


class EmptyInputError(AtckitError):
    """An operation received an empty collection."""


class InsufficientCalibrationError(AtckitError):
    """Regression mode needs at least two calibration sets."""


class DegenerateDesignError(AtckitError):
    """All calibration gaps are identical up to rounding; the regression is singular."""


class ParseError(AtckitError):
    """A prediction dump file is malformed."""
