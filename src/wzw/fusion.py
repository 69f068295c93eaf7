"""Level-truncated fusion rings and conformal-block dimensions.

Fusion coefficients come from the Kac-Walton rule: decompose the classical
tensor product, then fold each constituent into the open level-ell alcove with
the shifted affine Weyl action, keeping track of signs and discarding anything
on an alcove wall.  Conformal-block dimensions come from the factorization
recursion with (0, n<=3) base cases; no S-matrix input is used here, so the
numeric S-matrix route stays an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .lie import (
    InvariantError,
    LieAlgebraId,
    RootDatum,
    Weight,
    build_root_datum,
    level_weights,
    tensor_decompose,
)
from .qsqrt5 import GOLDEN, QSqrt5


@dataclass(frozen=True)
class FusionRing:
    algebra: LieAlgebraId
    level: int
    basis: tuple  # Weight tuple, lexicographic label order; basis[0] is the vacuum
    basis_index: dict = field(compare=False, repr=False)  # Weight -> position in basis
    _block_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def datum(self) -> RootDatum:
        return build_root_datum(self.algebra)

    def index(self, w: Weight) -> int:
        try:
            return self.basis_index[w]
        except KeyError:
            raise ValueError(f"{w} is not a level-{self.level} weight of {self.algebra}") from None

    def dual(self, w: Weight) -> Weight:
        """Charge conjugate -w0(w)."""
        self.index(w)
        d = self.datum
        return d.weight(d.dominant(tuple(-x for x in w.labels)))

    def product(self, x: Weight, y: Weight) -> dict:
        """Fusion product as a dict Weight -> N^nu_{xy}."""
        self.index(x), self.index(y)
        return _kac_walton(self.algebra, self.level, *sorted((x.labels, y.labels)))

    def coefficient(self, x: Weight, y: Weight, z: Weight) -> int:
        """N_{xy}^z."""
        self.index(z)
        return self.product(x, y).get(z, 0)


@lru_cache(maxsize=None)
def _kac_walton(algebra: LieAlgebraId, level: int, x: tuple, y: tuple) -> dict:
    """Kac-Walton product of two level-ell weights, given as sorted label tuples."""
    d = build_root_datum(algebra)
    kappa = level + d.dual_coxeter
    out: dict = {}
    for w, m in tensor_decompose(d, d.weight(x), d.weight(y)).items():
        lab, sign, _ = d.fold(tuple(c + 1 for c in w.labels), kappa)
        if 0 in lab or d.level_of(lab) == kappa:
            continue  # on an alcove wall
        target = tuple(c - 1 for c in lab)
        out[target] = out.get(target, 0) + sign * m
    result = {}
    for labels, m in sorted(out.items()):
        if m < 0:
            raise InvariantError(f"Kac-Walton folding produced a negative coefficient at {labels}")
        if m:
            result[d.weight(labels)] = m
    return result


@lru_cache(maxsize=None)
def fusion_ring(algebra: LieAlgebraId, level: int) -> FusionRing:
    if level < 0:
        raise ValueError("level must be nonnegative")
    basis = tuple(level_weights(build_root_datum(algebra), level))
    return FusionRing(algebra, level, basis, {w: i for i, w in enumerate(basis)})


@dataclass(frozen=True)
class CurveData:
    genus: int
    insertions: tuple  # Weight tuple

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")


def verlinde_dim(ring: FusionRing, curve: CurveData) -> int:
    """Dimension of the conformal-block space by the factorization recursion.

    Genus is reduced by summing a dual pair over the basis; at genus zero the
    insertion list is contracted two at a time through the fusion product down
    to the three-point base case.
    """
    for w in curve.insertions:
        ring.index(w)
    return _blocks(ring, curve.genus, tuple(sorted(w.labels for w in curve.insertions)))


def _blocks(ring: FusionRing, genus: int, labels: tuple) -> int:
    key = (genus, labels)
    cached = ring._block_cache.get(key)
    if cached is not None:
        return cached
    d = ring.datum
    if genus > 0:
        total = 0
        for mu in ring.basis:
            mu_dual = ring.dual(mu)
            total += _blocks(
                ring, genus - 1, tuple(sorted(labels + (mu.labels, mu_dual.labels)))
            )
    elif len(labels) == 0:
        total = 1
    elif len(labels) == 1:
        total = int(labels[0] == ring.basis[0].labels)
    elif len(labels) == 2:
        total = int(ring.dual(d.weight(labels[0])).labels == labels[1])
    elif len(labels) == 3:
        x, y, z = (d.weight(l) for l in labels)
        total = ring.coefficient(x, y, ring.dual(z))
    else:
        x, y = d.weight(labels[0]), d.weight(labels[1])
        rest = labels[2:]
        total = 0
        for nu, n in ring.product(x, y).items():
            total += n * _blocks(ring, 0, tuple(sorted(rest + (nu.labels,))))
    ring._block_cache[key] = total
    return total


def propagation_check(ring: FusionRing, curve: CurveData) -> bool:
    """Inserting an extra vacuum point must not change the dimension."""
    vacuum = ring.basis[0]
    extended = CurveData(curve.genus, curve.insertions + (vacuum,))
    return verlinde_dim(ring, curve) == verlinde_dim(ring, extended)


def closed_form_dimension(genus: int, points: int) -> QSqrt5:
    """((5+sqrt5)/2)^(g-1) phi^n + ((5-sqrt5)/2)^(g-1) phibar^n, exactly.

    The two summands are conjugate, so the sqrt(5) part must cancel; that
    cancellation is checked rather than assumed.
    """
    if genus < 0 or points < 0:
        raise ValueError("genus and point count must be nonnegative")
    base = QSqrt5(Fraction(5, 2), Fraction(1, 2))  # (5 + sqrt 5)/2
    value = base ** (genus - 1) * GOLDEN**points
    total = value + value.conjugate()
    if total.b != 0 or total.a.denominator != 1 or total.a < 0:
        raise InvariantError(f"conjugate pair failed to cancel to a count: {total}")
    return total


def closed_form_value(genus: int, points: int) -> int:
    return int(closed_form_dimension(genus, points).a)
