"""Exception types raised by the interpreter and its libraries."""


class LangError(Exception):
    """Base class for every error this package raises deliberately."""


class ParseError(LangError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class EvalError(LangError):
    """Type errors, unbound-with-indices references, misuse of forms."""


class DivisionByZeroError(EvalError, ZeroDivisionError):
    """Division by exact zero: `/` by zero, 0^0, 0^-n, or a zero denominator."""


class ShapeError(LangError):
    """Ragged tensor literals or otherwise malformed shapes."""


class RankError(LangError):
    """More indices applied to a tensor than it has axes."""


class BoundsError(LangError):
    """Numeric index outside the corresponding axis."""


class DimensionMismatchError(LangError):
    """Two indices with the same label sit on axes of unequal dimension."""


class BroadcastError(LangError):
    """Componentwise mapping produced tensors of inconsistent shape/indices."""


class ArityError(LangError):
    """Function applied to the wrong number of arguments."""


class ComparisonError(LangError):
    """Ordering or equality is not decidable for symbolic operands."""


class SingularMatrixError(LangError):
    """Matrix inversion on a canonically zero determinant."""


class DepthError(LangError):
    """A form nests or recurses deeper than the Python stack allows."""
