"""Odd-degree hyperelliptic curves y^2 = f(x) over the rationals.

The model is y^2 = f(x) with f monic, square-free, of odd degree 2g + 1,
so there is a single rational point at infinity and the genus is g.

Alongside the defining polynomial the curve records its negativity bound:
the largest integer N such that f(n) < 0 for every integer n <= N.  All
specialisation machinery in this package only evaluates f at integers in
that range, where -f(n) > 0 gives an imaginary quadratic ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadDegreeError, NotMonicError, NotSquarefreeError, \
    PointNotOnCurveError
from .polyarith import IntPoly, first_nonnegative, is_squarefree


@dataclass(frozen=True)
class OddHyperellipticCurve:
    """y^2 = f(x) with f monic square-free of odd degree 2g + 1."""

    f: IntPoly
    genus: int
    negativity_bound: int

    def contains(self, x0, y0) -> bool:
        """Whether (x0, y0) is an affine rational point of the curve."""
        return Fraction(y0) ** 2 == self.f(Fraction(x0))

    def require_point(self, x0, y0) -> None:
        if not self.contains(x0, y0):
            # the coordinates can be far too long to print; give their sizes
            raise PointNotOnCurveError(
                f"the point with x of {_bits(x0)} and y of {_bits(y0)} does "
                f"not satisfy y^2 = f(x), deg f = {self.f.degree}")

    def __str__(self):
        return f"y^2 = {self.f}"


def _bits(v) -> str:
    """Bit lengths of a rational's numerator and denominator."""
    v = Fraction(v)
    if v.denominator == 1:
        return f"{v.numerator.bit_length()} bits"
    return (f"{v.numerator.bit_length()}/{v.denominator.bit_length()} "
            f"bits")


def new_curve(f: IntPoly) -> OddHyperellipticCurve:
    """Validate f and build the curve, computing genus and negativity bound.

    Raises BadDegreeError unless deg f is odd and at least 3, NotMonicError
    unless f is monic, NotSquarefreeError unless f is square-free.
    """
    d = f.degree
    if f.is_zero or not isinstance(d, int) or d < 3 or d % 2 == 0:
        raise BadDegreeError(f"need odd degree >= 3, got {f!r}")
    if f.lc != 1:
        raise NotMonicError(f"leading coefficient is {f.lc}, expected 1")
    if not is_squarefree(f):
        raise NotSquarefreeError(f"{f} has a repeated root")
    genus = (d - 1) // 2
    negativity_bound = first_nonnegative(f) - 1
    return OddHyperellipticCurve(f=f, genus=genus,
                                 negativity_bound=negativity_bound)

