"""Level-truncated fusion rings and conformal-block dimensions.

Fusion coefficients come from the Brauer-Klimyk form of the Kac-Walton rule
(Walton 1990): fold lambda + nu + rho, for each weight nu of mu, straight into
the open level-ell alcove with signs, dropping anything on an alcove wall.
Conformal-block dimensions are the vacuum entry of e_0 H^g prod N_x, where N_x
are the integer fusion matrices and H = sum_mu N_mu N_mu* adds a handle
(Beauville, "Conformal blocks, fusion rules and the Verlinde formula", 1996).
No S-matrix input is used here, so the numeric S-matrix route stays an
independent cross-check.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from operator import add, mul
from typing import NamedTuple

from .lie import (
    InvariantError,
    LieAlgebraId,
    RootDatum,
    Weight,
    build_root_datum,
    fold_sum,
    level_weights,
    primaries_at_least,
    weight_system_cached,
    weyl_dimension,
)


class FusionRing(NamedTuple):
    """A ring as fusion_ring builds it; index reads the cached index of that ring's basis."""

    algebra: LieAlgebraId
    level: int
    basis: tuple  # Weight tuple, lexicographic label order; basis[0] is the vacuum

    @property
    def datum(self) -> RootDatum:
        return build_root_datum(self.algebra)

    def index(self, w: Weight) -> int:
        try:
            return _basis_index(self.algebra, self.level)[w]
        except KeyError:
            raise ValueError(f"{w} is not a level-{self.level} weight of {self.algebra}") from None

    def dual(self, w: Weight) -> Weight:
        """Charge conjugate -w0(w)."""
        self.index(w)
        d = self.datum
        return d.weight(d.dominant(tuple(-x for x in w.labels)))

    def product(self, x: Weight, y: Weight) -> dict:
        """Fusion product as a new dict Weight -> N^nu_{xy}."""
        row = _kac_walton(self.algebra, self.level, *sorted((self.index(x), self.index(y))))
        return {z: m for z, m in zip(self.basis, row) if m}

    def coefficient(self, x: Weight, y: Weight, z: Weight) -> int:
        """N_{xy}^z."""
        k = self.index(z)
        return _kac_walton(self.algebra, self.level, *sorted((self.index(x), self.index(y))))[k]


@lru_cache(maxsize=None)
def _kac_walton(algebra: LieAlgebraId, level: int, a: int, b: int) -> tuple:
    """Row N_ab over basis indices, a <= b, shared by N_a and N_b: one alcove fold of x + wt(y),
    dim y <= dim x, and y = basis[b] on equal dimensions."""
    ring = fusion_ring(algebra, level)
    d = ring.datum
    swap = _dimension(algebra, level, b) > _dimension(algebra, level, a)
    x, y = (ring.basis[b], ring.basis[a]) if swap else (ring.basis[a], ring.basis[b])
    terms = ((map(add, x.labels, nu), m) for nu, m in weight_system_cached(algebra, y.labels).items())
    index = _basis_index(algebra, level)
    row = [0] * len(ring.basis)
    for z, m in fold_sum(d, terms, level + d.dual_coxeter).items():
        row[index[z]] = m
    return tuple(row)


# Cap on primaries_at_least, which is exact on A and C and undercounts E8 up to about 50-fold;
# the slowest ring admitted, E8 at level 53 (616,968 primaries), takes about 3 s cold
MAX_PRIMARIES = 15_000


@lru_cache(maxsize=None)
def fusion_ring(algebra: LieAlgebraId, level: int) -> FusionRing:
    """Refuses a ring whose primaries_at_least exceeds MAX_PRIMARIES before listing any weight."""
    d = build_root_datum(algebra)
    low = primaries_at_least(d, level)
    if low > MAX_PRIMARIES:
        raise ValueError(f"{algebra} level {level} has at least {low} primaries, over the cap {MAX_PRIMARIES}")
    return FusionRing(algebra, level, tuple(level_weights(d, level)))


@lru_cache(maxsize=None)
def _basis_index(algebra: LieAlgebraId, level: int) -> dict:
    """Weight -> position in the basis of fusion_ring(algebra, level)."""
    return {w: i for i, w in enumerate(fusion_ring(algebra, level).basis)}


@lru_cache(maxsize=None)
def _dimension(algebra: LieAlgebraId, level: int, i: int) -> int:
    """Weyl dimension of basis weight i of fusion_ring(algebra, level), computed when first read,
    so one product on E8 at level 53 (616,968 primaries) computes two dimensions, not one per primary."""
    ring = fusion_ring(algebra, level)
    return weyl_dimension(ring.datum, ring.basis[i])


class CurveData(NamedTuple("CurveData", [("genus", int), ("insertions", tuple)])):
    __slots__ = ()  # insertions is a Weight tuple

    def __new__(cls, genus: int, insertions: tuple):
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        return tuple.__new__(cls, (genus, insertions))


# Caps on the genus and insertion count of `verlinde_dim`; both enter only
# through binary exponentiation, so the caps bound the size of the answer.
MAX_GENUS = MAX_INSERTIONS = 10_000


@lru_cache(maxsize=None)
def _dual_indices(algebra: LieAlgebraId, level: int) -> tuple:
    """Basis index of the charge conjugate of each basis weight."""
    ring = fusion_ring(algebra, level)
    return tuple(ring.index(ring.dual(w)) for w in ring.basis)


@lru_cache(maxsize=None)
def _fusion_matrix(algebra: LieAlgebraId, level: int, x: int) -> tuple:
    """N_x over basis indices: row a is the shared row of x * a, N_x[a][b] = N_{xa}^b.

    Checked against N_xa^b = N_xb*^a*; over all x that is the full-table check."""
    dual = _dual_indices(algebra, level)
    idx = range(len(dual))
    n = tuple(_kac_walton(algebra, level, *sorted((x, a))) for a in idx)
    if any(n[a][b] != n[dual[b]][dual[a]] for a in idx for b in idx):
        basis = fusion_ring(algebra, level).basis
        raise InvariantError(f"{algebra} level {level}: fusion table breaks N_xy^z = N_xz*^y* at x = {basis[x]}")
    return n


@lru_cache(maxsize=None)
def _handle(algebra: LieAlgebraId, level: int) -> tuple:
    """H = sum_mu N_mu N_mu* = sum_z c_z N_z with c_z = sum_mu N_{mu mu*}^z; c reads every N_mu."""
    dual = _dual_indices(algebra, level)
    idx = range(len(dual))
    n = [_fusion_matrix(algebra, level, x) for x in idx]
    c = map(sum, zip(*(n[i][dual[i]] for i in idx)))
    terms = [(cz, n[z]) for z, cz in enumerate(c) if cz]
    return tuple(tuple(sum(cz * m[a][b] for cz, m in terms) for b in idx) for a in idx)


def _apply_power(v: tuple, m: tuple, e: int) -> tuple:
    """Row vector v times m**e, squaring m only while bits of e remain."""
    while e:
        if e & 1:
            v = tuple(sum(map(mul, v, col)) for col in zip(*m))
        e >>= 1
        if e:
            m = tuple(tuple(sum(map(mul, row, col)) for col in zip(*m)) for row in m)
    return v


def verlinde_dim(ring: FusionRing, curve: CurveData) -> int:
    """Dimension of the conformal-block space: entry 0 of e_0 H^g prod N_x^{m_x}.

    m_x counts the insertions of basis weight x; vacuum insertions drop out,
    since N_0 is the identity.  Fusion matrices commute, so each power is
    applied to the row vector in turn; only the inserted N_x are built, and H
    only when g > 0.
    """
    if curve.genus > MAX_GENUS or len(curve.insertions) > MAX_INSERTIONS:
        raise ValueError(f"genus or insertion count above the cap of {MAX_GENUS}")
    counts = Counter(ring.index(w) for w in curve.insertions)
    counts.pop(0, None)
    v = (1,) + (0,) * (len(ring.basis) - 1)
    for x, m in sorted(counts.items()):
        v = _apply_power(v, _fusion_matrix(ring.algebra, ring.level, x), m)
    if curve.genus:
        v = _apply_power(v, _handle(ring.algebra, ring.level), curve.genus)
    if v[0] < 0:
        raise InvariantError(f"negative block dimension {v[0]} at genus {curve.genus}")
    return v[0]


def propagation_check(ring: FusionRing, curve: CurveData) -> bool:
    """Inserting an extra vacuum point must not change the dimension."""
    vacuum = ring.basis[0]
    extended = CurveData(curve.genus, curve.insertions + (vacuum,))
    return verlinde_dim(ring, curve) == verlinde_dim(ring, extended)
