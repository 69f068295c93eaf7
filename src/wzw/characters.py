"""Graded dimensions of integrable highest-weight modules, with branching checks.

Depth n of a level-ell module collects the weight spaces n steps down the
imaginary direction.  Multiplicities come from the affine form of the
Freudenthal recursion: the shifted-norm difference (including the level
term 2 n (ell + h_vee)) multiplies the unknown, and the right side is a
sum over the positive affine roots beta + m delta (the real ones once, the
imaginary m delta rank times).  Each root is stepped j times until the
shifted weight would leave the root lattice below the highest weight, the
exact support of the module.  The sum runs over orbit classes of roots in
the form of Moody and Patera (Bull. AMS 7, 1982, 237): the stabilizer W_J
of the dominant weight fixes every term, so each W_J-orbit of roots at one
displacement m is stepped once, from its J-dominant member, and weighted by
its size.  The final division is checked to be exact.

The even unimodular rank-8 lattice gives an independent route to the same
numbers for the E8 vacuum module: shell counts divided by the eighth power
of the Euler product.  The comparison lives in the test suite, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .embeddings import trace_anomaly
from .lie import InvariantError, LieAlgebraId, Weight, build_root_datum, dominant_below

MAX_BRANCH_DEPTH = 16  # at the cap, a cold `wzw branch-verify --json` answers in about 3 s


@lru_cache(maxsize=None)
def orbit_classes(algebra: LieAlgebraId, nodes: tuple) -> tuple:
    """Positive affine roots beta + m delta summed over W_J-orbits, J = nodes.

    Returns the classes at m = 0 (the positive roots) and at every m >= 1
    (every root, and the imaginary root of multiplicity rank, alone), each
    class as (summed multiplicity, labels and simple-root coordinates of its
    J-dominant member, labels of its members).  A row joins the class of the
    J-dominant labels of beta, which the chamber fold over J finds.  W_J
    moves a root only along the simple roots in J, so rows of one class
    that differ in a coordinate outside J are an error.
    """
    d = build_root_datum(algebra)
    zero = (0,) * d.rank
    positive = [(lab, beta, 1) for lab, beta in zip(d.positive_root_labels, d.positive_roots)]
    negative = [(tuple(-x for x in lab), tuple(-b for b in beta), 1) for lab, beta, _ in positive]
    tops = {zero: zero}
    outside = [i for i in range(d.rank) if i not in nodes]
    out = []
    for rows in (positive, positive + negative + [(zero, zero, d.rank)]):
        classes: dict = {}
        for lab, beta, root_mult in rows:
            if lab not in tops:
                tops[lab] = d.fold(lab, nodes=nodes)[0]
            fixed = tuple(beta[i] for i in outside)
            cls = classes.setdefault(tops[lab], [0, None, None, [], fixed])
            if fixed != cls[4]:
                raise InvariantError(f"orbit class of {lab} on {nodes}: coordinates {fixed} != {cls[4]}")
            cls[0] += root_mult
            cls[3].append(lab)
            if lab == tops[lab]:
                cls[1], cls[2] = lab, beta
        if any(cls[1] is None for cls in classes.values()):
            raise InvariantError(f"an orbit class on {nodes} has no J-dominant row")
        out.append(tuple((c[0], c[1], c[2], tuple(c[3])) for c in classes.values()))
    return tuple(out)


class GradedModule:
    """Weight multiplicity table of one integrable highest-weight module.

    Rows are filled a depth at a time.  The candidates at depth k are the
    dominant weights below highest + k*theta in the norm ball that the
    affine Freudenthal denominator allows (lie.dominant_below), processed by
    increasing height of highest + k*theta - nu, so every same-depth lookup
    lands on an entry that already exists.  Over alpha_0 = delta - theta,
    alpha_1 .. alpha_r, a weight nu at depth k lies below the highest weight
    by the gap (k, coordinates of highest + k*theta - nu) >= 0, and the root
    beta + m delta has the coordinates (m, m*theta + beta).  Each root is
    stepped while it fits in the gap; every term skipped is zero.

    The recursion sums over orbit classes of roots, not over single roots
    (Moody and Patera, Bull. AMS 7, 1982, 237).  Let J be the nodes where nu
    has label 0.  W_J fixes nu and preserves the multiplicities of every
    depth and (nu + j beta, beta), so the term of beta + m delta is the same
    on its W_J-orbit at the same m.  At m = 0 only positive roots enter; W_J
    keeps the positive roots outside the span of J positive, and on a root
    inside it (nu, beta) = 0, so beta and -beta give the same term and a
    class holds the positive roots of an orbit closed under negation.  Each
    class (orbit_classes) is stepped once, from its J-dominant member, the
    highest, whose j-range is the shortest, and weighted by its summed
    multiplicity.  A finished row also fixes its graded dimension
    (multiplicities times Weyl-orbit sizes), which queries read.
    """

    def __init__(self, algebra: LieAlgebraId, level: int, highest: Weight):
        if level < 1:
            raise ValueError("level must be a positive integer")
        if highest.algebra != algebra:
            raise ValueError(f"{highest} does not belong to {algebra}")
        d = build_root_datum(algebra)
        if not highest.is_dominant() or d.level_of(highest.labels) > level:
            raise ValueError(f"{highest} is not integrable at level {level}")
        self.algebra = algebra
        self.level = level
        self.highest = tuple(int(x) for x in highest.labels)
        self.datum = d
        self._kappa = level + d.dual_coxeter
        self._top_norm = d.rho_norm(self.highest)
        self._mult = {(self.highest, 0): 1}
        self._dims: list = []  # graded dimension of each finished depth
        self._done = -1

    # -- multiplicities -------------------------------------------------

    def multiplicity(self, labels, depth: int) -> int:
        """Multiplicity of a weight at the given depth; 0 when absent.

        A table entry is dominant within the level and would fold to itself,
        so it is read without a fold.  Weights beyond the level boundary are
        folded back by the affine reflection through theta, which lands at a
        strictly smaller depth; the fold stops as soon as the depth would go
        negative.
        """
        if depth < 0:
            return 0
        labels = tuple(labels)
        known = self._mult.get((labels, depth))
        if known is not None:
            return known
        folded = self.datum.fold(labels, self.level, depth)
        if folded is None:
            return 0
        lab, _, shift = folded
        return self._mult.get((lab, depth - shift), 0)

    def _freudenthal(self, nu, gap):
        d = self.datum
        k = gap[0]
        num = self._top_norm + 2 * k * self._kappa * d.denominator - d.rho_norm(nu)
        if num <= 0:
            raise InvariantError(f"affine Freudenthal at {nu}, depth {k}: norm gap {num}")
        ell_s = self.level * d.denominator
        total = 0
        at_zero, at_positive = orbit_classes(self.algebra, tuple(i for i, a in enumerate(nu) if a == 0))
        for m_im in range(k + 1):
            for class_mult, beta, root, _ in at_positive if m_im else at_zero:
                coords = (m_im,) + tuple(m_im * t + b for t, b in zip(d.highest_root, root))
                for j in range(1, min(g // c for g, c in zip(gap, coords) if c > 0) + 1):
                    w = tuple(x + j * b for x, b in zip(nu, beta))
                    m = self.multiplicity(w, k - j * m_im)
                    if m:
                        total += class_mult * m * (d.scaled_ip(w, beta) + ell_s * m_im)
        mult, rem = divmod(2 * total, num)
        if rem or mult < 0:
            raise InvariantError(f"affine Freudenthal at {nu}, depth {k}: {2 * total}/{num}")
        return mult

    def _extend(self, depth):
        d = self.datum
        for k in range(self._done + 1, depth + 1):
            top = tuple(h + k * t for h, t in zip(self.highest, d.theta_labels))
            cands = dominant_below(d, top, self._top_norm + 2 * k * self._kappa * d.denominator)
            for nu, gap in cands:
                if k == 0 and nu == self.highest:
                    continue  # seeded; its norm difference is zero
                if d.level_of(nu) > self.level:
                    continue  # reached through the reflection chain instead
                self._mult[(nu, k)] = self._freudenthal(nu, (k,) + gap)
            self._dims.append(sum(self.multiplicity(nu, k) * d.orbit_size(nu) for nu, _ in cands))
            self._done = k

    def graded_dims(self, depth: int) -> tuple:
        """Dimensions of the depth-0 .. depth weight spaces."""
        self._extend(depth)
        return tuple(self._dims[: depth + 1])


@lru_cache(maxsize=None)
def graded_module(algebra: LieAlgebraId, level: int, highest: Weight) -> GradedModule:
    return GradedModule(algebra, level, highest)


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


@dataclass(frozen=True)
class BranchingSummand:
    weights: tuple  # one Weight per factor
    offset: int  # depth shift, a nonnegative integer


@dataclass(frozen=True)
class BranchingClaim:
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


@dataclass(frozen=True)
class BranchingRow:
    depth: int
    ambient_dim: int
    summand_dims: tuple

    @property
    def combined(self) -> int:
        return sum(self.summand_dims)

    @property
    def matches(self) -> bool:
        return self.combined == self.ambient_dim


@dataclass(frozen=True)
class BranchingReport:
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
