import re
from fractions import Fraction

import pytest

from saitoforms.mpoly import MPoly
from saitoforms.parsing import ParseError, parse_poly, parse_rational


def _xy():
    v = ("x", "y")
    return MPoly.variable("x", v), MPoly.variable("y", v)


def test_basic_polynomial():
    x, y = _xy()
    assert parse_poly("x^3 + y^7", ("x", "y")) == x ** 3 + y ** 7
    assert parse_poly("2*x*y - 3", ("x", "y")) == 2 * x * y - 3


def test_rational_coefficients():
    x, y = _xy()
    assert parse_poly("1/3*x + x*y^2", ("x", "y")) == \
        x * Fraction(1, 3) + x * y ** 2
    assert parse_poly("-5/7", ("x", "y")) == \
        MPoly.constant(("x", "y"), Fraction(-5, 7))


def test_parenthesized_expressions():
    x, y = _xy()
    assert parse_poly("(x + y)^2", ("x", "y")) == x ** 2 + 2 * x * y + y ** 2
    assert parse_poly("x*(y - (1 - x))", ("x", "y")) == \
        x * y - x + x ** 2


def test_laurent_mode_negative_powers():
    p = parse_poly("z + 2*z^-1", ("z",), laurent=True)
    assert p.terms == {(1,): Fraction(1), (-1,): Fraction(2)}


def test_negative_power_needs_laurent():
    with pytest.raises(ParseError):
        parse_poly("z^-1", ("z",))


def test_slash_only_between_integers():
    with pytest.raises(ParseError):
        parse_poly("(x + 1)/3", ("x",))
    with pytest.raises(ParseError):
        parse_poly("x/y", ("x", "y"))


def test_unknown_variable_rejected():
    with pytest.raises(ParseError):
        parse_poly("x + w", ("x", "y"))


def test_duplicated_variable_rejected():
    with pytest.raises(ParseError, match="variable 'x' is declared twice"):
        parse_poly("x^3", ("x", "x"))
    with pytest.raises(ParseError, match="variable 'y' is declared twice"):
        parse_poly("x + y", ("x", "y", "z", "y"))


def test_error_reports_position():
    with pytest.raises(ParseError) as excinfo:
        parse_poly("x + * y", ("x", "y"))
    assert excinfo.value.pos is not None


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    with pytest.raises(ParseError):
        parse_rational("1.5x")


@pytest.mark.parametrize("text, laurent, message, pos", [
    ("(x", False, "expected ')'", 2),
    ("x^y", False, "expected integer exponent", 2),
    ("1/x", False, "'/' is only allowed between integer literals", 2),
    ("1/0", False, "division by zero", 2),
    ("(x+1)^-1", True, "negative exponent of a non-monomial", 5),
    ("(x*y)^-1", True, "negative exponents apply to plain variables only",
     5),
])
def test_parse_error_names_the_fault_and_its_position(text, laurent,
                                                       message, pos):
    with pytest.raises(ParseError) as excinfo:
        parse_poly(text, ("x", "y"), laurent=laurent)
    assert str(excinfo.value) == "%s (at position %d)" % (message, pos)
    assert excinfo.value.pos == pos


def test_parse_rational_rejects_a_zero_denominator():
    with pytest.raises(ParseError, match=re.escape(
            "division by zero in '1/0' (at position 0)")):
        parse_rational("1/0")
