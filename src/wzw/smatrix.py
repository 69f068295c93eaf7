"""Numeric modular S-matrix via the Kac-Peterson sum.

This is the deliberately independent route: nothing here touches the fusion
ring code.  The full-matrix path enumerates the Weyl orbit of each shifted
weight with signs (never materialising group elements), so it is only offered
when |W| is small; E8 is served by the positive-root sine-product column,
which is all that a one-dimensional level-one theory needs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import mpmath as mp

from .lie import InvariantError, LieAlgebraId, build_root_datum, level_weights

FULL_PATH_WEYL_LIMIT = 100_000
PRECISION_ENV = "WZW_PRECISION"
DEFAULT_PRECISION = 50


def default_precision() -> int:
    raw = os.environ.get(PRECISION_ENV, "")
    if raw.strip():
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{PRECISION_ENV} must be an integer, got {raw!r}") from None
        if value < 15:
            raise ValueError(f"{PRECISION_ENV} must be at least 15")
        return value
    return DEFAULT_PRECISION


@dataclass
class SMatrix:
    algebra: LieAlgebraId
    level: int
    basis: tuple  # Weight tuple, same order as fusion_ring
    entries: list  # list of rows of mpmath complex numbers
    precision: int

    def unitarity_residual(self):
        n = len(self.basis)
        with mp.workdps(self.precision):
            worst = mp.mpf(0)
            for i in range(n):
                for j in range(n):
                    acc = mp.mpc(0)
                    for k in range(n):
                        acc += self.entries[i][k] * mp.conj(self.entries[j][k])
                    worst = max(worst, abs(acc - (1 if i == j else 0)))
        return worst

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


def s_matrix(algebra: LieAlgebraId, level: int, precision: int | None = None) -> SMatrix:
    """Full Kac-Peterson S-matrix, normalised to be unitary with S[0][0] > 0."""
    d = build_root_datum(algebra)
    if d.weyl_order > FULL_PATH_WEYL_LIMIT:
        raise ValueError(
            f"|W({algebra})| = {d.weyl_order} exceeds the full-matrix limit "
            f"{FULL_PATH_WEYL_LIMIT}; use s_matrix_column for vacuum-row data"
        )
    if precision is None:
        precision = default_precision()
    basis = level_weights(d, level)
    denom = (level + d.dual_coxeter) * d.denominator  # (x, y)/kappa = scaled_ip/denom
    with mp.workdps(precision):
        rows = []
        for lam in basis:
            shifted = tuple(x + 1 for x in lam.labels)
            if min(shifted) <= 0:
                raise InvariantError(f"{lam} + rho is not strictly dominant")
            orbit = d.weyl_orbit(shifted)  # regular, so the signs are det(w)
            if len(orbit) != d.weyl_order:
                raise InvariantError(f"orbit of {lam} + rho has {len(orbit)} points, not |W|")
            row = []
            for mu in basis:
                mu_rho = tuple(x + 1 for x in mu.labels)
                g_mu = [sum(g * y for g, y in zip(row_g, mu_rho)) for row_g in d.gram]
                acc = mp.mpc(0)
                for point, sign in orbit.items():
                    q = -2 * sum(p * g for p, g in zip(point, g_mu))
                    acc += sign * mp.expjpi(mp.mpf(q) / denom)
                row.append(acc)
            rows.append(row)
        # normalise: rows of the raw sum are the unitary S up to one global scalar
        scale = mp.sqrt(sum(abs(x) ** 2 for x in rows[0]))
        phase = rows[0][0] / abs(rows[0][0])
        factor = 1 / (scale * phase)
        rows = [[x * factor for x in row] for row in rows]
    return SMatrix(algebra, level, tuple(basis), rows, precision)


def s_matrix_column(algebra: LieAlgebraId, level: int, precision: int | None = None):
    """Vacuum row S_{0,lambda} via the positive-root sine product.

    Works for any Weyl-group size; returned as a unit vector of positive reals.
    """
    d = build_root_datum(algebra)
    if precision is None:
        precision = default_precision()
    basis = level_weights(d, level)
    denom = (level + d.dual_coxeter) * d.denominator
    with mp.workdps(precision):
        raw = []
        for lam in basis:
            shifted = tuple(x + 1 for x in lam.labels)
            prod = mp.mpf(1)
            for beta in d.positive_roots:
                prod *= 2 * mp.sinpi(mp.mpf(d.scaled_ip_root(shifted, beta)) / denom)
            raw.append(prod)
        scale = mp.sqrt(sum(x**2 for x in raw))
        column = [x / scale for x in raw]
    return tuple(basis), column


def quantum_dimension(algebra: LieAlgebraId, level: int, labels, precision: int | None = None):
    """S_{0,lambda}/S_{0,0} as a sine-product ratio."""
    d = build_root_datum(algebra)
    if precision is None:
        precision = default_precision()
    denom = (level + d.dual_coxeter) * d.denominator
    shifted = tuple(x + 1 for x in labels)
    with mp.workdps(precision):
        value = mp.mpf(1)
        for beta, rho_beta in zip(d.positive_roots, d.rho_pairings):
            value *= mp.sinpi(mp.mpf(d.scaled_ip_root(shifted, beta)) / denom) / mp.sinpi(
                mp.mpf(rho_beta) / denom
            )
        return value
