"""Small symbolic layer: expression trees over jet coordinates of a
single dependent variable u(x, t), with canonical simplification,
parsing, printing, differentiation, and randomized zero testing."""

from .nodes import (
    Add, Const, Expr, Fun, Jet, Mul, Param, Pow, Var,
    FUNCTION_NAMES, ONE, T, X, ZERO,
    arctan, as_expr, cos, cosh, exp, free_leaves, free_names, jets_of, log,
    sin, sinh, sqrt, substitute, tan, walk, w, z,
)
from .simplify import simplify
from .printer import to_text
from .parser import KNOWN_PARAMS, ParseError, parse
from .numeric import (
    EvalError, ZeroVerdict, compile_expr, evaluate, is_zero,
)
from .calculus import (
    EquationContext, partial, total_t, total_x,
)

__all__ = [
    "Add", "Const", "Expr", "Fun", "Jet", "Mul", "Param", "Pow", "Var",
    "FUNCTION_NAMES", "ONE", "T", "X", "ZERO",
    "arctan", "as_expr", "cos", "cosh", "exp", "free_leaves", "free_names",
    "jets_of", "log", "sin", "sinh", "sqrt", "substitute", "tan", "walk",
    "w", "z",
    "simplify", "to_text",
    "KNOWN_PARAMS", "ParseError", "parse",
    "EvalError", "ZeroVerdict", "compile_expr", "evaluate", "is_zero",
    "EquationContext", "partial", "total_t", "total_x",
]
