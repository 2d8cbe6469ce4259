"""A small functional language with tensor index notation.

Tensors carry superscript/subscript indices; repeated labels merge into
diagonals, and an opposed superscript/subscript pair becomes a
supersubscript awaiting contraction.  Functions declare per-parameter
behavior: scalar parameters map componentwise over tensor arguments,
tensor parameters receive tensors whole, and inverted-scalar parameters
flip the argument's indices first (this is what makes a partial-derivative
operator work on whole tensors).
"""

from . import symbolic, tensor
from .errors import (ArityError, BoundsError, BroadcastError, ComparisonError,
                     DepthError, DimensionMismatchError, EvalError, LangError,
                     ParseError, RankError, ShapeError, SingularMatrixError)
from .lang import Interpreter, parse_forms, parse_program, tokenize
from .tensor import Index, Tensor
from .values import format_value

__all__ = [
    "Interpreter", "Tensor", "Index", "format_value",
    "parse_forms", "parse_program", "tokenize",
    "symbolic", "tensor",
    "LangError", "ParseError", "EvalError", "ShapeError", "RankError",
    "BoundsError", "DimensionMismatchError", "BroadcastError", "ArityError",
    "ComparisonError", "SingularMatrixError", "DepthError",
]
