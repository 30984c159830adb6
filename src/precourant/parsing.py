"""Parsers for the polynomial and form literal grammars.

Polynomial literals: integers and rationals ``p/q`` in ASCII digits,
coordinate identifiers, ``+ - * ^`` and parentheses; whitespace is
insignificant.  Example: ``(3/2)*x1^2*x4 - x2``.

Form literals extend the polynomial grammar with wedge-basis groups
``dx(i,j,...)`` using 1-based coordinate positions; a term is a product of
polynomial factors and at most one basis group per factor position, e.g.
``x4*dx(1,2,3) - 1/2*dx(2,4)``.  All terms of a literal must share one
degree.  ``dx()`` denotes the degree-0 basis.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import List, Optional

from .errors import ParseError
from .poly import Chart, Poly
from .exterior import KForm, wedge


_SYMBOLS = "+-*^(),"


class _Token:
    __slots__ = ("kind", "text", "col", "value")

    def __init__(self, kind: str, text: str, col: int, value=None):
        self.kind = kind
        self.text = text
        self.col = col
        self.value = value  # a number token's int, or Fraction for p/q


def _digits_end(text: str, i: int) -> int:
    """The end of the run of ASCII digits 0-9 that starts at text[i]."""
    while i < len(text) and "0" <= text[i] <= "9":
        i += 1
    return i


def _tokenize(text: str, line: int, start: int) -> List[_Token]:
    """The tokens of a literal whose first character is at (line, start)."""
    tokens: List[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = start + i
        if "0" <= ch <= "9":
            j = k = _digits_end(text, i)
            if j < n and text[j] == "/":
                k = _digits_end(text, j + 1)
                if k == j + 1:
                    raise ParseError(line, start + j + 1, "denominator digits")
            try:
                value = int(text[i:j])
                den = int(text[j + 1 : k]) if k > j else None
            except ValueError:  # more digits than int() converts
                raise ParseError(
                    line, col, f"at most {sys.get_int_max_str_digits()} digits per integer",
                    text[i:],
                ) from None
            if den == 0:
                raise ParseError(line, start + j + 1, "nonzero denominator", text[j + 1 : k])
            if den is not None:
                value = Fraction(value, den)
            tokens.append(_Token("number", text[i:k], col, value))
            i = k
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], col))
            i = j
        elif ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, col))
            i += 1
        else:
            raise ParseError(line, col, "number, identifier or operator", ch)
    tokens.append(_Token("end", "", start + n))
    return tokens


class _Parser:
    def __init__(self, chart: Optional[Chart], text: str, line: int, col: int):
        self.chart = chart
        self.line = line
        self.tokens = _tokenize(text, line, col)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(self.line, tok.col, what, tok.text or "end of input")
        return self.advance()

    def fail(self, what: str):
        tok = self.peek()
        raise ParseError(self.line, tok.col, what, tok.text or "end of input")

    # --- polynomial grammar -------------------------------------------

    def parse_poly(self) -> Poly:
        value = self._sum()
        if self.peek().kind != "end":
            self.fail("end of expression or operator")
        return value

    def _sum(self) -> Poly:
        tok = self.peek()
        negate = False
        if tok.kind in "+-":
            negate = tok.kind == "-"
            self.advance()
        value = self._product()
        if negate:
            value = -value
        while self.peek().kind in "+-":
            op = self.advance().kind
            rhs = self._product()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _product(self) -> Poly:
        value = self._power()
        while self.peek().kind == "*":
            self.advance()
            value = value * self._power()
        return value

    def _power(self) -> Poly:
        base = self._atom()
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("number", "integer exponent")
            if "/" in tok.text:
                raise ParseError(self.line, tok.col, "integer exponent", tok.text)
            return base ** tok.value
        return base

    def _atom(self) -> Poly:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Poly.const(self.chart, tok.value)
        if tok.kind == "ident":
            if tok.text not in self.chart.var_names:
                raise ParseError(self.line, tok.col, "coordinate name", tok.text)
            self.advance()
            return Poly.var(self.chart, self.chart.index(tok.text))
        if tok.kind == "(":
            self.advance()
            value = self._sum()
            self.expect(")", "closing parenthesis")
            return value
        if tok.kind == "-":
            self.advance()
            return -self._power()
        self.fail("number, coordinate or parenthesis")

    # --- form grammar ---------------------------------------------------

    def parse_form(self) -> KForm:
        value = self._form_sum()
        if self.peek().kind != "end":
            self.fail("end of expression or operator")
        return value

    def _form_sum(self) -> KForm:
        tok = self.peek()
        negate = False
        if tok.kind in "+-":
            negate = tok.kind == "-"
            self.advance()
        value = self._form_term()
        if negate:
            value = -value
        while self.peek().kind in "+-":
            op = self.advance()
            rhs = self._form_term()
            if rhs.degree != value.degree:
                raise ParseError(
                    self.line, op.col,
                    f"term of degree {value.degree}",
                    f"degree {rhs.degree} term",
                )
            value = value + rhs if op.kind == "+" else value - rhs
        return value

    def _form_term(self) -> KForm:
        value = self._form_factor()
        while self.peek().kind == "*":
            self.advance()
            value = wedge(value, self._form_factor())
        return value

    def _form_factor(self) -> KForm:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "dx":
            self.advance()
            self.expect("(", "'(' after dx")
            indices: List[int] = []
            if self.peek().kind != ")":
                while True:
                    num = self.expect("number", "1-based coordinate index")
                    if "/" in num.text:
                        raise ParseError(self.line, num.col, "integer index", num.text)
                    i = num.value
                    if not (1 <= i <= self.chart.dim):
                        raise ParseError(
                            self.line, num.col,
                            f"index between 1 and {self.chart.dim}", num.text,
                        )
                    indices.append(i - 1)
                    if self.peek().kind != ",":
                        break
                    self.advance()
            close = self.expect(")", "closing parenthesis")
            if len(set(indices)) != len(indices) or indices != sorted(indices):
                raise ParseError(
                    self.line, close.col, "strictly increasing indices in dx(...)"
                )
            return KForm.basis(self.chart, indices)
        # otherwise a polynomial factor viewed as a 0-form
        return KForm.from_function(self._power())


def parse_poly(chart: Chart, text: str, line: int = 1, col: int = 1) -> Poly:
    """Parse a polynomial literal over the chart; its errors are positioned
    as if its first character stood at (line, col)."""
    return _Parser(chart, text, line, col).parse_poly()


def parse_form(chart: Chart, text: str, line: int = 1, col: int = 1) -> KForm:
    """Parse a form literal over the chart, positioned like `parse_poly`."""
    return _Parser(chart, text, line, col).parse_form()


def parse_scalar(text: str, line: int = 1, col: int = 1) -> Fraction:
    """Parse an optional sign and one number of the literal grammar, an
    integer or ``p/q`` (manifest matrix and point rows), positioned like
    `parse_poly`."""
    p = _Parser(None, text, line, col)
    sign = p.advance().kind if p.peek().kind in "+-" else "+"
    value = Fraction(p.expect("number", "rational number").value)
    if p.peek().kind != "end":
        p.fail("end of number")
    return -value if sign == "-" else value


def parse_int(text: str, minimum: int, line: int = 1, col: int = 1) -> int:
    """Parse an integer of at least `minimum` (manifest settings and key
    indices, CLI overrides): the ASCII digits of the literal grammar, with
    no sign, space or underscore, positioned like `parse_poly`."""
    try:
        value = int(text) if text and _digits_end(text, 0) == len(text) else None
    except ValueError:  # more digits than int() converts
        value = None
    if value is None or value < minimum:
        raise ParseError(line, col, f"integer >= {minimum}", text)
    return value
