"""The divisor-class relation on the moduli of stable curves, emitted exactly.

The relation equates 4 lambda + sum psi_i with the first Chern classes of
the two level-one bundle blocks plus boundary terms whose coefficients are
ratios of the closed-form dimension F.  Boundary strata carry a canonical
index: the irreducible stratum, or a genus split (h, A) identified with its
mirror (g-h, A-complement).  Everything is exact: F values are integer
traces in Z[phi] and the emitted coefficients are rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .qsqrt5 import closed_form_value


class BoundaryIndex(NamedTuple):
    """Canonical index of one boundary divisor.

    kind "irr" is the irreducible stratum (h and markings unused, set to -1
    and ()).  kind "red" stores the smaller-genus side; on ties the side
    containing marking 1 (or the empty set when there are no markings).
    """

    kind: str
    h: int = -1
    markings: tuple = ()

    def __str__(self) -> str:
        if self.kind == "irr":
            return "irr"
        body = ",".join(str(m) for m in self.markings)
        return f"({self.h},{{{body}}})"


IRR = BoundaryIndex("irr")


def _check_stable(g: int, n: int):
    if g < 0 or n < 0 or 2 * g - 2 + n <= 0:
        raise ValueError(f"(g, n) = ({g}, {n}) is not stable")


# Cap on the price (g + 1)(1 + g/128) 2^n of a relation: (g + 1) 2^n is about twice the
# number of strata, and g/128 prices the F values, a digit longer every two genera.  As
# integer traces in Z[phi] they cost less than that: cold, the edges at n <= 3 take
# 0.2-0.4 s and (0, 16), all rows, 0.9-1.2 s.
MAX_RELATION_SIZE = 1 << 16


def boundary_strata(g: int, n: int) -> list:
    """All boundary divisor indices of the (g, n) moduli space, canonical and sorted.

    Only canonical sides are generated: h <= g - h, and on a tie the side
    holding marking 1 (the empty side when n = 0).  irr comes first, then the
    reducible strata by (h, markings).  A (g, n) whose price is above MAX_RELATION_SIZE is
    refused before any subset is listed.
    """
    _check_stable(g, n)
    # n first, since 2^n of a huge n does not fit in memory
    if n >= MAX_RELATION_SIZE.bit_length() or (g + 1) * (g + 128) << n > MAX_RELATION_SIZE << 7:
        raise ValueError(f"(g + 1)(1 + g/128) * 2^n at (g, n) = ({g}, {n}) is above the cap {MAX_RELATION_SIZE}")
    sides = []
    for h in range(g // 2 + 1):
        for bits in range(1 << n):
            a = tuple(m for m in range(1, n + 1) if bits >> (m - 1) & 1)
            if h == 0 and len(a) < 2:
                continue
            if g - h == 0 and n - len(a) < 2:
                continue
            if h == g - h and n >= 1 and not bits & 1:
                continue  # the mirror side holds marking 1
            sides.append((h, a))
    head = [IRR] if g >= 1 else []
    return head + [BoundaryIndex("red", h, a) for h, a in sorted(sides)]


class PicRelation(NamedTuple):
    """4 lambda + sum psi_i = g2_block/F + f4_block + boundary combination."""

    g: int
    n: int
    hodge_coeff: Fraction
    psi_coeffs: tuple
    g2_block_coeff: Fraction
    f4_block_coeff: Fraction
    boundary: tuple  # ((BoundaryIndex, Fraction), ...) sorted by index

    def boundary_map(self) -> dict:
        return dict(self.boundary)


def emit_relation(g: int, n: int) -> PicRelation:
    """Fill every coefficient of the relation from the closed form, exactly."""
    strata = boundary_strata(g, n)  # refuses above the cap before any F value is computed
    fgn = closed_form_value(g, n)
    if fgn == 0:
        raise ValueError(f"the closed-form dimension vanishes at (g, n) = ({g}, {n}); relation undefined")
    rows = []
    for s in strata:
        if s.kind == "irr":
            c = Fraction(closed_form_value(g - 1, n + 2), fgn)
        else:
            a = len(s.markings)
            c = Fraction(closed_form_value(s.h, a + 1) * closed_form_value(g - s.h, n - a + 1), fgn)
        rows.append((s, c))
    return PicRelation(
        g=g,
        n=n,
        hodge_coeff=Fraction(4),
        psi_coeffs=(Fraction(1),) * n,
        g2_block_coeff=Fraction(1, fgn),
        f4_block_coeff=Fraction(1),
        boundary=tuple(rows),
    )


class ConsistencyReport(NamedTuple):
    g: int
    n: int
    recursion_holds: bool
    recursion_values: tuple  # (F(g,n), F(g-1,n+2), F(g-1,n))
    boundary_numerators_positive: bool
    irr_coeff: Fraction
    irr_below_one: bool | None  # only meaningful for g >= 2, n = 0

    @property
    def passed(self) -> bool:
        ok = self.recursion_holds and self.boundary_numerators_positive
        if self.irr_below_one is not None:
            ok = ok and self.irr_below_one
        return ok


def relation_consistency(g: int, n: int) -> ConsistencyReport:
    """Exact checks: F(g, n) = F(g-1, n+2) + F(g-1, n) on the integers of recursion_values
    (closed_form_value checks its division by 5 and its sign), positivity, irr bound."""
    if g < 1:
        raise ValueError("consistency checks need genus at least 1")
    rel = emit_relation(g, n)  # refuses above the cap before any F value is computed
    values = (closed_form_value(g, n), closed_form_value(g - 1, n + 2), closed_form_value(g - 1, n))
    positive = all(c > 0 for _, c in rel.boundary)
    irr_coeff = rel.boundary_map()[IRR]
    below = bool(irr_coeff < 1) if (g >= 2 and n == 0) else None
    return ConsistencyReport(
        g=g,
        n=n,
        recursion_holds=values[0] == values[1] + values[2],
        recursion_values=values,
        boundary_numerators_positive=positive,
        irr_coeff=irr_coeff,
        irr_below_one=below,
    )


def relation_json_obj(rel: PicRelation) -> dict:
    """The documented JSON shape; genuinely rational entries as "p/q" strings."""
    rhs = {
        "g2_block": str(rel.g2_block_coeff),
        "f4_block": int(rel.f4_block_coeff),
    }
    boundary = []
    for s, c in rel.boundary:
        if s.kind == "irr":
            rhs["irr"] = str(c)
        else:
            boundary.append({"h": s.h, "A": list(s.markings), "coeff": str(c)})
    rhs["boundary"] = boundary
    return {
        "lhs": {"lambda": int(rel.hodge_coeff), "psi": [int(p) for p in rel.psi_coeffs]},
        "rhs": rhs,
    }
