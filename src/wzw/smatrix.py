"""Modular S-matrix via the Kac-Peterson sum, counted exactly.

This is the deliberately independent route: nothing here touches the fusion
ring code.  Each Kac-Peterson entry (Kac, Infinite-dimensional Lie algebras,
ch. 13) is a signed sum of N-th roots of unity, N = D (level + h^vee), so it
is an exact element of Z[zeta_N].  kac_peterson_counts finds it with integers
only, in one walk of the Weyl group W over the regular orbit of rho by
lie.weyl_walk, the package's one orbit walk: each element w is reached once,
by s_i at the first negative label of w(rho), at depth l(w), so
det w = (-1)^depth; no group element or seen-set is materialised.  The walk
carries w(lambda + rho) for every basis weight lambda with its pairings
D (w(lambda + rho), mu + rho), and adds det w at the residue of minus each
pairing mod N.  The walk must pass |W| points and end in -rho alone at depth
|Phi+|, and S is symmetric exactly, so the counts are checked to be.  s_matrix
then evaluates the N roots once with guard digits, sums each entry over its
nonzero counts, normalises and rounds to the working precision.

The walk is only offered when its work is under one cap; E8 is served by the
positive-root sine-product column, which is all that a one-dimensional
level-one theory needs.  Each sine of that product is evaluated once per
process and binary precision (_sinpi).
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import NamedTuple

import mpmath as mp

from .lie import (InvariantError, LieAlgebraId, build_root_datum, check_weight, level_weights,
                  primaries_at_least, weyl_walk)

# matrix_work units, 0.08-0.3 us each for s_matrix in-process; cold, E6 at level 1 answers
# in about 0.5 s and G2 at level 16, most of it the unitarity residual, in 1.1-1.6 s
MAX_MATRIX_WORK = 3_000_000
PRECISION_ENV = "WZW_PRECISION"
DEFAULT_PRECISION = 50
MIN_PRECISION, MAX_PRECISION = 15, 200  # decimal digits, for the flag and the env variable alike
GUARD_DIGITS = 10


def _checked_precision(value: int, source: str = "precision") -> int:
    if not MIN_PRECISION <= value <= MAX_PRECISION:
        raise ValueError(f"{source} must be between {MIN_PRECISION} and {MAX_PRECISION} digits, got {value}")
    return value


def default_precision() -> int:
    raw = os.environ.get(PRECISION_ENV, "")
    if not raw.strip():
        return DEFAULT_PRECISION
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{PRECISION_ENV} must be an integer, got {raw!r}") from None
    return _checked_precision(value, PRECISION_ENV)


def _precision(precision) -> int:
    return default_precision() if precision is None else _checked_precision(precision)


class SMatrix(NamedTuple):
    algebra: LieAlgebraId
    level: int
    basis: tuple  # Weight tuple, same order as fusion_ring
    entries: list  # list of rows of mpmath complex numbers
    precision: int

    def unitarity_residual(self):
        """max |(S S^dagger - 1)_ij|, over i <= j since S S^dagger is Hermitian."""
        with mp.workdps(self.precision):
            conj = [[mp.conj(z) for z in row] for row in self.entries]
            return max(
                abs(mp.fdot(row, conj[j]) - (i == j))
                for i, row in enumerate(self.entries)
                for j in range(i, len(conj))
            )

    def quantum_dimension(self, index: int):
        with mp.workdps(self.precision):
            return self.entries[0][index] / self.entries[0][0]

    def fusion_coefficient(self, i: int, j: int, k: int):
        """Verlinde sum N_{ij}^k; returns an mpmath complex to be rounded by the caller."""
        with mp.workdps(self.precision):
            acc = mp.mpc(0)
            for a in range(len(self.basis)):
                acc += (
                    self.entries[i][a]
                    * self.entries[j][a]
                    * mp.conj(self.entries[k][a])
                    / self.entries[0][a]
                )
            return acc


def matrix_work(d, n: int, big_n: int) -> int:
    """Work of the full matrix for n primaries, in the units the cap was sized in:
    |W| rank (rank + n) / 4 for the walk of W carrying n images of rank + n
    entries (priced when each weight had its own orbit walk), n^2 lists of N
    residue counts, and about 4n^3 for the unitarity check."""
    return n * (d.weyl_order * d.rank * (d.rank + n) // 4 + n * big_n + 4 * n * n)


def kac_peterson_counts(algebra: LieAlgebraId, level: int):
    """(basis, N, counts): counts[i][j][r] is the signed number of orbit points
    w(lambda_i + rho) with -D (w(lambda_i + rho), lambda_j + rho) = r mod N, so
    the raw entry (i, j) is sum_r counts[i][j][r] zeta_N^r, zeta_N = e^(2 pi i/N)."""
    d = build_root_datum(algebra)
    big_n = (level + d.dual_coxeter) * d.denominator  # (x, y)/kappa = scaled_ip/N

    def check_work(n, qualifier=""):
        work = matrix_work(d, n, big_n)
        if work > MAX_MATRIX_WORK:
            raise ValueError(f"{algebra} level {level}: S-matrix work {qualifier}{work}, over the cap "
                             f"{MAX_MATRIX_WORK}; s_matrix_column gives the vacuum row at any size")

    check_work(primaries_at_least(d, level), "is at least ")  # a level far over the cap is refused unlisted
    basis = level_weights(d, level)
    check_work(len(basis))
    shifted = [tuple(x + 1 for x in lam.labels) for lam in basis]
    for lam, lam_rho in zip(basis, shifted):
        if min(lam_rho) <= 0:
            raise InvariantError(f"{lam} + rho is not strictly dominant")
    n, weyl, top = len(basis), d.weyl_order, len(d.positive_roots)
    # an image is the n pairings D (w(lambda + rho), mu + rho) and then the labels of w(lambda + rho),
    # the vacuum's w(rho) first; s_i subtracts c (D (alpha_i, mu + rho) ..., alpha_i), c = its label i
    steps = [tuple(s * mu_rho[i] for mu_rho in shifted) + col
             for i, (s, col) in enumerate(zip(d.scaled_symmetrizer, d.cartan_cols))]
    start = [tuple(d.scaled_ip(lam_rho, mu_rho) for mu_rho in shifted) + lam_rho for lam_rho in shifted]
    counts = [[[0] * big_n for _ in basis] for _ in basis]
    deep = 0
    for points, (depth, images) in enumerate(weyl_walk(start, steps), 1):
        if points > weyl:  # a walk that passes |W| may never end
            break
        deep += depth >= top
        sign = -1 if depth & 1 else 1
        for row, image in zip(counts, images):
            for cnt, p in zip(row, image):
                cnt[-p % big_n] += sign
    if points != weyl:
        raise InvariantError(f"{algebra}: the walk of W passes {points} points, |W| = {weyl}")
    if deep != 1 or depth != top or images[0][n:] != (-1,) * d.rank:
        raise InvariantError(f"{algebra}: the walk of W ends at depth {depth}, not in -rho alone at depth {top}")
    for i in range(len(basis)):
        for j in range(i):
            if counts[i][j] != counts[j][i]:
                raise InvariantError(f"{algebra} level {level}: Kac-Peterson counts break S_ij = S_ji at ({i}, {j})")
    return tuple(basis), big_n, counts


def s_matrix(algebra: LieAlgebraId, level: int, precision: int | None = None) -> SMatrix:
    """Full Kac-Peterson S-matrix, normalised to be unitary with S[0][0] > 0."""
    precision = _precision(precision)
    basis, big_n, counts = kac_peterson_counts(algebra, level)
    with mp.workdps(precision + GUARD_DIGITS):
        roots = [mp.expjpi(mp.mpf(2 * r) / big_n) for r in range(big_n)]
        rows = [[mp.fsum(c * roots[r] for r, c in enumerate(cnt) if c) for cnt in row] for row in counts]
        # normalise: rows of the raw sum are the unitary S up to one global scalar
        scale = mp.sqrt(sum(abs(x) ** 2 for x in rows[0]))
        phase = rows[0][0] / abs(rows[0][0])
        factor = 1 / (scale * phase)
        rows = [[x * factor for x in row] for row in rows]
    with mp.workdps(precision):
        rows = [[+x for x in row] for row in rows]
    return SMatrix(algebra, level, basis, rows, precision)


@lru_cache(maxsize=None)
def _sinpi(m: int, denom: int, prec: int):
    """sin(pi m / denom) at prec bits, evaluated once per process."""
    with mp.workprec(prec):
        return mp.sinpi(mp.mpf(m) / denom)


def _sine_product(d, level: int, labels):
    """Prod over beta > 0 of sin(pi D (lambda + rho, beta) / N), N = D (level + h^vee),
    at the working precision."""
    denom = (level + d.dual_coxeter) * d.denominator
    shifted = tuple(x + 1 for x in labels)
    prec = mp.mp.prec
    return mp.fprod(_sinpi(d.scaled_ip_root(shifted, beta), denom, prec) for beta in d.positive_roots)


def s_matrix_column(algebra: LieAlgebraId, level: int, precision: int | None = None):
    """Vacuum row S_{0,lambda}: the sine products, normalised.

    Works for any Weyl-group size; returned as a unit vector of positive reals.
    No cap: all level weights are listed, 1,260,707,306,455 of them for E8 at
    level 400.
    """
    d = build_root_datum(algebra)
    precision = _precision(precision)
    basis = level_weights(d, level)
    with mp.workdps(precision):
        raw = [_sine_product(d, level, lam.labels) for lam in basis]
        scale = mp.sqrt(sum(x**2 for x in raw))
        column = [x / scale for x in raw]
    return tuple(basis), column


def quantum_dimension(algebra: LieAlgebraId, level: int, labels, precision: int | None = None):
    """S_{0,lambda}/S_{0,0} as a ratio of sine products."""
    d = build_root_datum(algebra)
    check_weight(d, d.weight(labels), level)
    with mp.workdps(_precision(precision)):
        return _sine_product(d, level, labels) / _sine_product(d, level, (0,) * d.rank)
