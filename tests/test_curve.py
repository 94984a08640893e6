"""Curve model validation and the negativity bound."""

import pytest

from hyperclass.curve import OddHyperellipticCurve, new_curve
from hyperclass.errors import BadDegreeError, NotMonicError, NotSquarefreeError, PointNotOnCurveError
from hyperclass.polyarith import IntPoly


def test_new_curve_genus1():
    c = new_curve(IntPoly([-4, 0, 0, 1]))
    assert isinstance(c, OddHyperellipticCurve)
    assert c.genus == 1
    assert c.negativity_bound == 1
    assert c.f(c.negativity_bound) < 0
    assert c.f(c.negativity_bound + 1) >= 0
    assert str(c) == "y^2 = x^3 - 4"


def test_new_curve_genus2():
    c = new_curve(IntPoly([-1, 1, 0, 0, 0, 1]))  # x^5 + x - 1
    assert c.genus == 2
    assert c.negativity_bound == 0


@pytest.mark.parametrize(
    "coeffs, nf",
    [
        ([-4, 0, 0, 1], 1),
        ([0, -1, 0, 1], -2),  # x^3 - x, roots -1,0,1; f(-1)=0
        ([1, 0, 0, 1], -2),  # x^3 + 1, root -1
        ([-1, 1, 0, 0, 0, 1], 0),
    ],
)
def test_negativity_bound_values(coeffs, nf):
    c = new_curve(IntPoly(coeffs))
    assert c.negativity_bound == nf
    # defining property: f < 0 at and below the bound, not one step further
    assert c.f(nf) < 0
    assert all(c.f(nf - k) < 0 for k in range(1, 10))
    assert c.f(nf + 1) >= 0


def test_rejects_even_degree():
    with pytest.raises(BadDegreeError):
        new_curve(IntPoly([1, 0, 1, 0, 1]))


def test_rejects_degree_one():
    with pytest.raises(BadDegreeError):
        new_curve(IntPoly([-4, 1]))


def test_rejects_nonmonic():
    with pytest.raises(NotMonicError):
        new_curve(IntPoly([-4, 0, 0, 2]))
    with pytest.raises(NotMonicError):
        new_curve(IntPoly([4, 0, 0, -1]))


def test_rejects_square_factor():
    # (x-1)^2 (x+2) = x^3 - 3x + 2
    with pytest.raises(NotSquarefreeError):
        new_curve(IntPoly([2, -3, 0, 1]))


def test_validation_order_degree_before_monic():
    # degree check fires first even when both are wrong
    with pytest.raises(BadDegreeError):
        new_curve(IntPoly([1, 0, 3, 0, 2]))


def test_point_membership():
    c = new_curve(IntPoly([-4, 0, 0, 1]))
    assert c.contains(2, 2)
    assert c.contains(2, -2)
    assert c.contains(5, 11)
    assert not c.contains(2, 3)
    c.require_point(2, -2)
    with pytest.raises(PointNotOnCurveError):
        c.require_point(1, 1)


def test_curve_is_immutable():
    c = new_curve(IntPoly([-4, 0, 0, 1]))
    with pytest.raises((AttributeError, TypeError)):
        c.genus = 7
