"""Second routes that the benchmark checks wzw's answers against.

Nothing here imports wzw.  Each function recomputes an answer from a
formula or from data the benchmark already holds, so a wrong answer from the
library cannot be confirmed by the code that produced it.
"""

from __future__ import annotations

import math
from fractions import Fraction


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_pow(m, e):
    result = [[int(i == j) for j in range(len(m))] for i in range(len(m))]
    while e:
        if e & 1:
            result = mat_mul(result, m)
        m = mat_mul(m, m)
        e >>= 1
    return result


class FusionMatrices:
    """Block dimensions by matrix powers (Beauville 1996), from a fusion table.

    ``table[i, j]`` maps basis index k to N_ij^k; index 0 is the vacuum.
    dim V_g(l_1..l_n) is the vacuum entry of H^g N_l1 ... N_ln with
    H = sum_m N_m N_m*.  This is independent of wzw's factorization recursion.
    """

    def __init__(self, table, size):
        self.n = size
        self.mats = [
            [[table[i, a].get(b, 0) for b in range(size)] for a in range(size)] for i in range(size)
        ]
        # the dual of m is the unique d with the vacuum in m x d
        self.dual = [next(d for d in range(size) if table[m, d].get(0, 0)) for m in range(size)]
        h = [[0] * size for _ in range(size)]
        for m in range(size):
            prod = mat_mul(self.mats[m], self.mats[self.dual[m]])
            h = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(h, prod)]
        self.handle = h

    def dimension(self, genus, insertions):
        acc = mat_pow(self.handle, genus)
        for i in insertions:
            acc = mat_mul(acc, self.mats[i])
        return acc[0][0]


# The level-one G2 and F4 rings are both the Fibonacci ring: 1 and t with t x t = 1 + t.
FIBONACCI = FusionMatrices({(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1, 1: 1}}, 2)


def fibonacci_blocks(genus: int, points: int) -> int:
    """F(g, n): blocks of the Fibonacci ring with n insertions of t."""
    return FIBONACCI.dimension(genus, [1] * points)


def boundary_divisor_count(g: int, n: int) -> int:
    """Number of boundary divisors of the moduli of stable (g, n) curves.

    A reducible divisor is an unordered split {(h, A), (g-h, A^c)} with both
    sides stable (h > 0 or |A| >= 2).  With n >= 1 no split is its own mirror;
    with n = 0 and even g the split (g/2, {}) is.
    """
    def stable(h, a):
        return h > 0 or a >= 2

    ordered = sum(
        math.comb(n, a)
        for h in range(g + 1)
        for a in range(n + 1)
        if stable(h, a) and stable(g - h, n - a)
    )
    self_mirror = int(n == 0 and g >= 2 and g % 2 == 0)
    return int(g >= 1) + (ordered + self_mirror) // 2


def boundary_coefficient(g: int, n: int, h: int | None, a: int) -> Fraction:
    """Coefficient of one divisor in the relation: F-ratios from the Fibonacci blocks.

    ``h is None`` is the irreducible divisor; otherwise the side of genus h
    carrying a markings.
    """
    fgn = fibonacci_blocks(g, n)
    if h is None:
        return Fraction(fibonacci_blocks(g - 1, n + 2), fgn)
    return Fraction(fibonacci_blocks(h, a + 1) * fibonacci_blocks(g - h, n - a + 1), fgn)


def hxx_coefficient(k: int, level: int) -> int:
    """Scalar of H(-1)^k X+r(-1)^k X-r(-1)^k at a level, times (rH xr)^-k.

    k^k k! level (level-1) ... (level-k+1): it vanishes exactly when k > level,
    where (X+r(-1))^k is a null vector of the level-ell vacuum module.
    """
    falling = math.prod(range(level - k + 1, level + 1)) if k <= level else 0
    return k**k * math.factorial(k) * falling
