"""Modular S-matrix via the Kac-Peterson sum, counted exactly.

This is the deliberately independent route: nothing here touches the fusion
ring code.  Each Kac-Peterson entry (Kac, Infinite-dimensional Lie algebras,
ch. 13) is a signed sum of N-th roots of unity, N = D (level + h^vee), so it
is an exact element of Z[zeta_N].  kac_peterson_counts finds it with integers
only: for each lambda it walks the Weyl orbit of lambda + rho once (with
signs, never materialising group elements) and, for each mu, adds det(w) at
the residue -D (w(lambda + rho), mu + rho) mod N.  S is symmetric exactly,
and the counts are checked to be.  s_matrix then evaluates the N roots once
with guard digits, sums each entry over its nonzero counts, normalises and
rounds to the working precision.

The orbit walk is only offered when its work is under one cap; E8 is served
by the positive-root sine-product column, which is all that a one-dimensional
level-one theory needs.
"""

from __future__ import annotations

import os
from operator import mul
from typing import NamedTuple

import mpmath as mp

from .lie import InvariantError, LieAlgebraId, build_root_datum, check_weight, level_weights, primaries_at_least

# matrix_work units (at most about a microsecond each); the slowest ring under the cap,
# E6 at level 1, takes about 3 s
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
    """Work of the full matrix for n primaries: n orbit walks of |W| points at
    rank (rank + n) / 4 each (a quarter unit per rank-long tuple step), n^2
    lists of N residue counts, and about 4n^3 for the unitarity check."""
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
    g_rho = [tuple(sum(g * y for g, y in zip(row, mu_rho)) for row in d.gram) for mu_rho in shifted]
    counts = []
    for lam, lam_rho in zip(basis, shifted):
        if min(lam_rho) <= 0:
            raise InvariantError(f"{lam} + rho is not strictly dominant")
        orbit = d.weyl_orbit(lam_rho)  # regular, so the signs are det(w)
        if len(orbit) != d.weyl_order:
            raise InvariantError(f"orbit of {lam} + rho has {len(orbit)} points, not |W|")
        row = [[0] * big_n for _ in basis]
        for point, sign in orbit.items():
            for cnt, g in zip(row, g_rho):
                cnt[-sum(map(mul, point, g)) % big_n] += sign
        counts.append(row)
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


def _sine_product(d, level: int, labels):
    """Prod over beta > 0 of sin(pi D (lambda + rho, beta) / N), N = D (level + h^vee)."""
    denom = (level + d.dual_coxeter) * d.denominator
    shifted = tuple(x + 1 for x in labels)
    return mp.fprod(mp.sinpi(mp.mpf(d.scaled_ip_root(shifted, beta)) / denom) for beta in d.positive_roots)


def s_matrix_column(algebra: LieAlgebraId, level: int, precision: int | None = None):
    """Vacuum row S_{0,lambda}: the sine products, normalised.

    Works for any Weyl-group size; returned as a unit vector of positive reals.
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
