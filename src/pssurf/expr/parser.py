"""Recursive-descent parser for the expression grammar in GRAMMAR.txt.

Errors carry the 0-based character position of the offending token so a
caller can point at the exact spot in user input.
"""

from __future__ import annotations

import re

from .nodes import (
    Add, Const, Expr, FUNCTION_NAMES, Fun, Jet, Mul, Param, Pow, Var,
)

KNOWN_PARAMS = (
    "eta", "alpha", "beta", "gamma", "delta", "nu", "xi", "zeta", "tau",
    "lambda", "A", "B", "Q", "T", "l", "gamma_im",
)

_NUM_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_JET_Z_RE = re.compile(r"z(\d+)$")
_JET_W_RE = re.compile(r"w(\d+)$")
_JET_MIXED_RE = re.compile(r"ux(\d+)t(\d+)$")
_OPS = "+-*/^()"
# deepest nesting of parentheses, signs and exponents; every tree walk of
# the library recurses, so deeper input is refused before it is built
MAX_DEPTH = 50


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(src: str) -> list[_Token]:
    toks = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            m = _NUM_RE.match(src, i)
            toks.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        if c.isalpha() or c == "_":
            m = _NAME_RE.match(src, i)
            toks.append(_Token("name", m.group(), i))
            i = m.end()
            continue
        if c in _OPS:
            toks.append(_Token(c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(_Token("end", "", n))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            what = "end of input" if t.kind == "end" else repr(t.text)
            raise ParseError(f"expected {kind!r}, found {what}", t.pos)
        return self.next()

    def parse(self) -> Expr:
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected trailing input {t.text!r}", t.pos)
        return e

    def expr(self) -> Expr:
        # a +/- chain is one n-ary sum, so its length adds no depth
        terms = [self.term()]
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.term()
            terms.append(rhs if op == "+" else -rhs)
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def term(self) -> Expr:
        # likewise one n-ary product; a division after the first is a
        # factor rhs^-1, which simplifies exactly as the nested quotient
        factors = [self.unary()]
        divided = False
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            rhs = self.unary()
            if op == "*":
                factors.append(rhs)
            elif divided:
                factors.append(Pow(rhs, Const(-1)))
            else:
                factors, divided = [_product(factors) / rhs], True
        return _product(factors)

    def unary(self) -> Expr:
        t = self.peek()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(
                f"expression nests deeper than {MAX_DEPTH} levels", t.pos)
        if t.kind == "-":
            self.next()
            e = -self.unary()
        else:
            e = self.power()
        self.depth -= 1
        return e

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "^":
            self.next()
            nxt = self.peek()
            if nxt.kind == "end":
                raise ParseError("missing exponent after '^'", nxt.pos)
            return Pow(base, self.unary())
        return base

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            self.next()
            if "." in t.text or "e" in t.text or "E" in t.text:
                return Const(float(t.text))
            return Const(int(t.text))
        if t.kind == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "name":
            self.next()
            return self.resolve_name(t)
        what = "end of input" if t.kind == "end" else repr(t.text)
        raise ParseError(f"expected a value, found {what}", t.pos)

    def resolve_name(self, t: _Token) -> Expr:
        name = t.text
        if name in ("x", "t"):
            return Var(name)
        m = _JET_Z_RE.match(name)
        if m:
            return Jet(int(m.group(1)), 0)
        m = _JET_W_RE.match(name)
        if m:
            return Jet(0, int(m.group(1)))
        m = _JET_MIXED_RE.match(name)
        if m:
            dx, dt = int(m.group(1)), int(m.group(2))
            if dx == 0 or dt == 0:
                raise ParseError(
                    f"mixed jet {name!r} needs both counts positive", t.pos)
            return Jet(dx, dt)
        if name in FUNCTION_NAMES:
            if self.peek().kind != "(":
                raise ParseError(
                    f"function {name!r} requires an argument list", t.pos)
            self.next()
            arg = self.expr()
            self.expect(")")
            return Fun(name, arg)
        if name in KNOWN_PARAMS:
            return Param(name)
        raise ParseError(
            f"unknown name {name!r}; parameters are "
            + ", ".join(KNOWN_PARAMS), t.pos)


def _product(factors):
    return factors[0] if len(factors) == 1 else Mul(tuple(factors))


def parse(src: str) -> Expr:
    """Parse ``src`` to a raw expression tree (no simplification)."""
    return _Parser(src).parse()
