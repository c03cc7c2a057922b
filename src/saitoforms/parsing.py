"""Parser for polynomial expressions in job documents.

Accepts +, -, *, ^ and parenthesized subexpressions over declared
variable names. A '/' is only legal inside a numeric literal ("1/3*x"),
never as general division ("(x+1)/3" is rejected with a position).
Negative exponents ("z^-2") are allowed only in Laurent mode.
"""

import re
from fractions import Fraction

from .mpoly import MPoly


class ParseError(Exception):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


# each parenthesis level costs the recursive descent a few stack frames
MAX_NESTING = 100

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()/]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            break
        if m.group(1):
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start(2)))
        elif m.group(3):
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    rest = text[pos:].strip()
    if rest:
        raise ParseError("unexpected character %r" % rest[0], pos)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text, variables, laurent):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.variables = tuple(variables)
        self.laurent = laurent
        self.depth = 0              # open parentheses around the token

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError("expected %r" % op, pos)

    def parse(self):
        poly = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError("unexpected %r" % (val,), pos)
        return poly

    def expr(self):
        poly = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                poly = poly + rhs if val == "+" else poly - rhs
            else:
                return poly

    def term(self):
        poly = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.take()
                poly = poly * self.factor()
            elif kind == "op" and val == "/":
                raise ParseError(
                    "'/' is only allowed between integer literals", pos)
            else:
                return poly

    def factor(self):
        # unary signs in a loop, so a long run of them cannot recurse
        negate = False
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            negate ^= self.take()[1] == "-"
        poly = self.atom_power()
        return -poly if negate else poly

    def atom_power(self):
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            exponent = self.exponent_int()
            if exponent < 0:
                if not self.laurent:
                    raise ParseError(
                        "negative exponent outside Laurent mode", pos)
                return self.laurent_power(base, exponent, pos)
            return base ** exponent
        return base

    def exponent_int(self):
        kind, val, pos = self.take()
        sign = 1
        if kind == "op" and val == "-":
            sign = -1
            kind, val, pos = self.take()
        if kind != "int":
            raise ParseError("expected integer exponent", pos)
        return sign * val

    def laurent_power(self, base, exponent, pos):
        if len(base.terms) != 1:
            raise ParseError("negative exponent of a non-monomial", pos)
        (exp, coeff), = base.terms.items()
        if coeff != 1 or sum(1 for e in exp if e) != 1 or max(exp) != 1:
            raise ParseError(
                "negative exponents apply to plain variables only", pos)
        return MPoly(self.variables,
                     {tuple(e * exponent for e in exp): Fraction(1)},
                     laurent=True)

    def atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            num = val
            k2, v2, p2 = self.peek()
            if k2 == "op" and v2 == "/":
                self.take()
                k3, v3, p3 = self.take()
                if k3 != "int":
                    raise ParseError(
                        "'/' is only allowed between integer literals", p3)
                if v3 == 0:
                    raise ParseError("division by zero", p3)
                return MPoly.constant(self.variables, Fraction(num, v3),
                                      self.laurent)
            return MPoly.constant(self.variables, num, self.laurent)
        if kind == "name":
            if val not in self.variables:
                raise ParseError("unknown variable %r" % val, pos)
            return MPoly.variable(val, self.variables, self.laurent)
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise ParseError("parentheses nested deeper than %d"
                                 % MAX_NESTING, pos)
            self.depth += 1
            poly = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return poly
        raise ParseError("unexpected %r" % (val,), pos)


def parse_poly(text, variables, laurent=False):
    if not isinstance(text, str):
        raise ParseError("expected a polynomial string, got %r" % (text,), 0)
    seen = set()
    for name in variables:
        if name in seen:
            raise ParseError("variable %r is declared twice" % name, 0)
        seen.add(name)
    return _Parser(text, variables, laurent).parse()


def parse_rational(text):
    text = text.strip()
    m = re.fullmatch(r"(-?\d+)\s*(?:/\s*(-?\d+))?", text)
    if not m:
        raise ParseError("not a rational literal: %r" % text, 0)
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ParseError("division by zero in %r" % text, 0)
    return Fraction(num, den)
