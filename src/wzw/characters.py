"""Graded dimensions of integrable highest-weight modules, with branching checks.

Depth n of a level-ell module collects the weight spaces n steps down the
imaginary direction.  The multiplicity tables are lie.GradedModule, the
affine Freudenthal recursion that also gives the finite weight systems;
this module reads their graded dimensions and compares branching claims.

The even unimodular rank-8 lattice gives an independent route to the same
numbers for the E8 vacuum module: shell counts divided by the eighth power
of the Euler product.  The comparison lives in the test suite, not here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .lie import LieAlgebraId, Weight, build_root_datum, graded_module, trace_anomaly

MAX_BRANCH_DEPTH = 16  # at the cap, a cold `wzw branch-verify --json` answers in about 0.7 s


def graded_dims(algebra: LieAlgebraId, level: int, highest: Weight, depth: int) -> tuple:
    return graded_module(algebra, level, highest).graded_dims(depth)


# ----------------------------------------------------------------------------
# independent oracle for the rank-8 level-one vacuum character


def lattice_shell_counts(n_max: int) -> list:
    """Vectors of squared norm 2m, m <= n_max, in the even unimodular rank-8 lattice.

    The lattice is the union of the even-coordinate-sum integer vectors and
    their shift by the all-halves vector.  Coordinates are doubled so the
    state space stays integral; both cosets need an even integer-part sum.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    cap = 8 * n_max  # squared norm in quarter units
    counts = [0] * (n_max + 1)
    for h in (0, 1):
        dp = {(0, 0): 1}
        span = math.isqrt(cap) if cap else 0
        lo = -(span + h) // 2 - 1
        hi = span // 2 + 1
        for _ in range(8):
            new: dict = {}
            for (s, p), c in dp.items():
                for y in range(lo, hi + 1):
                    q = (2 * y + h) ** 2
                    if s + q > cap:
                        continue
                    key = (s + q, p ^ (y & 1))
                    new[key] = new.get(key, 0) + c
            dp = new
        for m in range(n_max + 1):
            counts[m] += dp.get((8 * m, 0), 0)
    return counts


def lattice_character_dims(depth: int) -> tuple:
    """Graded dimensions from the lattice theta series over the Euler product power."""
    shells = lattice_shell_counts(depth)
    prod = [0] * (depth + 1)
    prod[0] = 1
    for n in range(1, depth + 1):
        for _ in range(8):  # multiply by (1 - q^n) eight times
            for k in range(depth, n - 1, -1):
                prod[k] -= prod[k - n]
    inv = [0] * (depth + 1)
    inv[0] = 1
    for k in range(1, depth + 1):
        inv[k] = -sum(prod[j] * inv[k - j] for j in range(1, k + 1))
    return tuple(sum(shells[m] * inv[k - m] for m in range(k + 1)) for k in range(depth + 1))


# ----------------------------------------------------------------------------
# branching of one module into products of factor modules


class BranchingSummand(NamedTuple):
    weights: tuple  # one Weight per factor
    offset: int  # depth shift, a nonnegative integer


class BranchingClaim(NamedTuple):
    ambient: tuple  # (LieAlgebraId, level, Weight)
    factors: tuple  # ((LieAlgebraId, level), ...)
    summands: tuple


def _summand_offset(factors, weights, ambient) -> int:
    """Difference of conformal weights; must come out a nonnegative integer."""
    amb_alg, amb_level, amb_w = ambient
    off = sum(trace_anomaly(alg, lvl, w) for (alg, lvl), w in zip(factors, weights))
    off -= trace_anomaly(amb_alg, amb_level, amb_w)
    if off.denominator != 1 or off < 0:
        raise ValueError(f"summand offset {off} is not a nonnegative integer")
    return int(off)


def g2_f4_branching_claim() -> BranchingClaim:
    """Level-one vacuum of E8 against the G2 x F4 pair.

    Two summands: both factor vacua at offset zero, and the product of the
    7- and 26-dimensional modules one step down.  The offsets are computed
    from the trace anomalies, not hard-coded.
    """
    g2, f4, e8 = LieAlgebraId("G", 2), LieAlgebraId("F", 4), LieAlgebraId("E", 8)
    dg2, df4, de8 = build_root_datum(g2), build_root_datum(f4), build_root_datum(e8)
    ambient = (e8, 1, de8.zero_weight())
    factors = ((g2, 1), (f4, 1))
    pairs = (
        (dg2.zero_weight(), df4.zero_weight()),
        (dg2.fundamental_weight(1), df4.fundamental_weight(4)),
    )
    summands = tuple(
        BranchingSummand(p, _summand_offset(factors, p, ambient)) for p in pairs
    )
    return BranchingClaim(ambient, factors, summands)


class BranchingRow(NamedTuple):
    depth: int
    ambient_dim: int
    summand_dims: tuple

    @property
    def combined(self) -> int:
        return sum(self.summand_dims)

    @property
    def matches(self) -> bool:
        return self.combined == self.ambient_dim


class BranchingReport(NamedTuple):
    claim: BranchingClaim
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(r.matches for r in self.rows)


def _convolve(a, b, depth):
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(depth + 1))


def verify_branching(claim: BranchingClaim, depth: int) -> BranchingReport:
    """Compare ambient graded dimensions with the sum over claimed summands."""
    if not 0 <= depth <= MAX_BRANCH_DEPTH:
        raise ValueError(f"depth {depth} is not between 0 and the cap {MAX_BRANCH_DEPTH}")
    amb_alg, amb_level, amb_w = claim.ambient
    ambient = graded_dims(amb_alg, amb_level, amb_w, depth)
    tables = []
    for s in claim.summands:
        conv = (1,) + (0,) * depth
        for (alg, lvl), w in zip(claim.factors, s.weights):
            conv = _convolve(conv, graded_dims(alg, lvl, w, depth), depth)
        tables.append(tuple(conv[k - s.offset] if k >= s.offset else 0 for k in range(depth + 1)))
    rows = tuple(
        BranchingRow(k, ambient[k], tuple(t[k] for t in tables)) for k in range(depth + 1)
    )
    return BranchingReport(claim, rows)
