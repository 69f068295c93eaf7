"""The level-one block dimensions in closed form, in the integers of Q(sqrt 5).

An element a + b*phi of Z[phi], phi = (1 + sqrt 5)/2, is the pair of ints
(a, b).  phi^2 = phi + 1 gives the product, and the trace Tr(a + b*phi) = 2a + b
is the element plus its conjugate a + b*phibar, phibar = (1 - sqrt 5)/2.
"""

from functools import lru_cache

from . import InvariantError

_PHI = (0, 1)
_TWO_PLUS_PHI = (2, 1)  # (5 + sqrt 5)/2
_FIVE_OVER_TWO_PLUS_PHI = (3, -1)  # (2 + phi)(3 - phi) = 5


def _mul(x, y):
    """(a + b phi)(c + d phi) = (ac + bd) + (ad + bc + bd) phi."""
    (a, b), (c, d) = x, y
    bd = b * d
    return a * c + bd, a * d + b * c + bd


def _pow(x, e: int):
    """x^e for e >= 0, by binary exponentiation."""
    result = (1, 0)
    while e:
        if e & 1:
            result = _mul(result, x)
        x = _mul(x, x)
        e >>= 1
    return result


def _trace(x) -> int:
    return 2 * x[0] + x[1]


@lru_cache(maxsize=None)
def closed_form_value(genus: int, points: int) -> int:
    """F(g, n) = Tr((2 + phi)^(g-1) phi^n), exactly.

    That is ((5+sqrt5)/2)^(g-1) phi^n + ((5-sqrt5)/2)^(g-1) phibar^n.  At genus 0,
    (2 + phi)^(-1) = (3 - phi)/5, so the trace of (3 - phi) phi^n must divide by 5;
    that division and the sign of the count are checked rather than assumed.
    """
    if genus < 0 or points < 0:
        raise ValueError("genus and point count must be nonnegative")
    head, denominator = (_pow(_TWO_PLUS_PHI, genus - 1), 1) if genus else (_FIVE_OVER_TWO_PLUS_PHI, 5)
    value, rest = divmod(_trace(_mul(head, _pow(_PHI, points))), denominator)
    if rest:
        raise InvariantError(f"the trace at (g, n) = ({genus}, {points}) does not divide by 5")
    if value < 0:
        raise InvariantError(f"the closed form is negative at (g, n) = ({genus}, {points}): {value}")
    return value
