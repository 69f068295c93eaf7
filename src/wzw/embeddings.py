"""Conformal embeddings: anomalies, Dynkin indices and consistency reports.

An embedding of a direct sum of simple algebras into a simple ambient algebra
is stored declaratively: the factors with their Dynkin multi-index, and the
branching of the ambient adjoint representation as a list of weight tuples.
The checks below (central-charge matching, index sum rule, dimension count,
rank arithmetic) are computed from that data with exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .lie import (
    LieAlgebraId,
    Weight,
    build_root_datum,
    check_weight,
    conformal_anomaly,
    weyl_dimension,
)


def rep_dynkin_index(algebra: LieAlgebraId, w: Weight) -> Fraction:
    """Dynkin index dim(V) (lambda, lambda + 2 rho) / (2 dim g)."""
    d = build_root_datum(algebra)
    check_weight(d, w)
    shifted = tuple(x + 2 for x in w.labels)
    return Fraction(weyl_dimension(d, w) * d.ip(w.labels, shifted), 2 * d.dimension)


class EmbeddingData(NamedTuple):
    name: str
    factors: tuple  # ((LieAlgebraId, level), ...)
    ambient: LieAlgebraId
    # adjoint branching: ((Weight per factor, ...), multiplicity), or None if untabulated
    adjoint_branching: tuple | None = None

    def validate(self):
        for (alg, lvl) in self.factors:
            if lvl < 1:
                raise ValueError(f"{self.name}: factor level must be positive, got {lvl}")
        if self.adjoint_branching is not None:
            for comps, mult in self.adjoint_branching:
                if len(comps) != len(self.factors) or mult < 1:
                    raise ValueError(f"{self.name}: malformed branching row")
                for w, (alg, _) in zip(comps, self.factors):
                    if w.algebra != alg:
                        raise ValueError(f"{self.name}: branching weight {w} not in {alg}")
        return self

    def branching_dimension(self) -> int:
        if self.adjoint_branching is None:
            raise ValueError(f"{self.name}: no adjoint branching tabulated")
        total = 0
        for comps, mult in self.adjoint_branching:
            prod = mult
            for w in comps:
                prod *= weyl_dimension(build_root_datum(w.algebra), w)
            total += prod
        return total


class CheckRow(NamedTuple):
    name: str
    passed: bool
    detail: str


class CheckReport(NamedTuple):
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def is_conformal(e: EmbeddingData) -> bool:
    """Exact central-charge equality sum_i c(g_i, ell_i) = c(ambient, 1)."""
    total = sum(conformal_anomaly(alg, lvl) for alg, lvl in e.factors)
    return total == conformal_anomaly(e.ambient, 1)


def embedding_index_check(e: EmbeddingData) -> CheckReport:
    """Adjoint index sum rule, one row per factor.

    For factor i, summing (index of the factor-i component) * (dimensions of
    the other components) over the adjoint branching must give h_vee(ambient)
    times the Dynkin index ell_i of the embedding.
    """
    ambient, total = build_root_datum(e.ambient), e.branching_dimension()
    rows = [
        CheckRow(
            "adjoint-dimension",
            total == ambient.dimension,
            f"sum of branching dims = {total}, dim {e.ambient} = {ambient.dimension}",
        )
    ]
    for i, (alg, lvl) in enumerate(e.factors):
        lhs = Fraction(0)
        for comps, mult in e.adjoint_branching:
            term = Fraction(mult) * rep_dynkin_index(alg, comps[i])
            for j, w in enumerate(comps):
                if j != i:
                    term *= weyl_dimension(build_root_datum(w.algebra), w)
            lhs += term
        rhs = Fraction(ambient.dual_coxeter * lvl)
        rows.append(
            CheckRow(
                f"index-sum-{alg}",
                lhs == rhs,
                f"branching index sum = {lhs}, h_vee(ambient) * index = {rhs}",
            )
        )
    return CheckReport(tuple(rows))


# ----------------------------------------------------------------------------
# the embedding catalogue


def _w(algebra: LieAlgebraId, labels) -> Weight:
    return Weight(algebra, tuple(labels))


def _adjoint(algebra: LieAlgebraId) -> Weight:
    return _w(algebra, build_root_datum(algebra).theta_labels)


def _zero(algebra: LieAlgebraId) -> Weight:
    return _w(algebra, (0,) * algebra.rank)


def _fund(algebra: LieAlgebraId, i: int) -> Weight:
    return build_root_datum(algebra).fundamental_weight(i)


def g2_f4_in_e8() -> EmbeddingData:
    """The exceptional pair inside E8 at Dynkin multi-index (1, 1).

    The ambient adjoint branches as (adjoint, 1) + (1, adjoint) + (7-dim, 26-dim);
    that decomposition is tabulated data here, not re-derived.
    """
    g2 = LieAlgebraId("G", 2)
    f4 = LieAlgebraId("F", 4)
    e8 = LieAlgebraId("E", 8)
    branching = (
        ((_adjoint(g2), _zero(f4)), 1),
        ((_zero(g2), _adjoint(f4)), 1),
        ((_fund(g2, 1), _fund(f4, 4)), 1),
    )
    return EmbeddingData("g2xf4-in-e8", ((g2, 1), (f4, 1)), e8, branching).validate()


def sl_algebra_id(n: int) -> LieAlgebraId:
    if n < 2:
        raise ValueError(f"sl({n}) is not simple")
    return LieAlgebraId("A", n - 1)


def so_algebra_id(n: int) -> LieAlgebraId:
    """so(n) as a simple type; so(3) maps to A1, so(2) and so(4) are rejected."""
    if n == 3:
        return LieAlgebraId("A", 1)
    if n >= 5 and n % 2 == 1:
        return LieAlgebraId("B", (n - 1) // 2)
    if n >= 6 and n % 2 == 0:
        return LieAlgebraId("D", n // 2)
    raise ValueError(f"so({n}) is not simple")


def sp_algebra_id(two_n: int) -> LieAlgebraId:
    if two_n < 4 or two_n % 2 == 1:
        raise ValueError(f"sp({two_n}) needs an even argument >= 4")
    return LieAlgebraId("C", two_n // 2)


def sl_pair_in_sl(r: int, s: int) -> EmbeddingData:
    """sl(r) + sl(s) inside sl(rs) at multi-index (s, r)."""
    a, b, amb = sl_algebra_id(r), sl_algebra_id(s), sl_algebra_id(r * s)
    branching = (
        ((_adjoint(a), _zero(b)), 1),
        ((_zero(a), _adjoint(b)), 1),
        ((_adjoint(a), _adjoint(b)), 1),
    )
    return EmbeddingData(f"sl{r}xsl{s}-in-sl{r * s}", ((a, s), (b, r)), amb, branching).validate()


def so_pair_in_so(p: int, q: int) -> EmbeddingData:
    """so(p) + so(q) inside so(pq) at multi-index (q, p); needs p, q >= 5.

    Smaller arguments hit the degenerate low-rank isomorphisms where the
    vector representation changes its index normalisation, so they are
    rejected rather than silently mis-scored.
    """
    if p < 5 or q < 5:
        raise ValueError(f"so({p}) x so({q}) pair is degenerate; need both >= 5")
    a, b, amb = so_algebra_id(p), so_algebra_id(q), so_algebra_id(p * q)
    sym_a = _w(a, (2,) + (0,) * (a.rank - 1))  # traceless symmetric square of the vector
    sym_b = _w(b, (2,) + (0,) * (b.rank - 1))
    branching = (
        ((_adjoint(a), sym_b), 1),
        ((_adjoint(a), _zero(b)), 1),
        ((sym_a, _adjoint(b)), 1),
        ((_zero(a), _adjoint(b)), 1),
    )
    return EmbeddingData(f"so{p}xso{q}-in-so{p * q}", ((a, q), (b, p)), amb, branching).validate()


def sp_pair_in_so(two_r: int, two_s: int) -> EmbeddingData:
    """sp(2r) + sp(2s) inside so(4rs) at multi-index (s, r); needs 2r, 2s >= 4."""
    a, b = sp_algebra_id(two_r), sp_algebra_id(two_s)
    amb = so_algebra_id(two_r * two_s)
    alt_a = _fund(a, 2)  # primitive part of the alternating square of the vector
    alt_b = _fund(b, 2)
    branching = (
        ((alt_a, _adjoint(b)), 1),
        ((_zero(a), _adjoint(b)), 1),
        ((_adjoint(a), alt_b), 1),
        ((_adjoint(a), _zero(b)), 1),
    )
    return EmbeddingData(
        f"sp{two_r}xsp{two_s}-in-so{two_r * two_s}",
        ((a, two_s // 2), (b, two_r // 2)),
        amb,
        branching,
    ).validate()


def embedding_catalogue() -> dict:
    entries = [g2_f4_in_e8()]
    for r in (2, 3):
        for s in (2, 3, 4):
            entries.append(sl_pair_in_sl(r, s))
    entries.append(so_pair_in_so(5, 6))
    entries.append(so_pair_in_so(5, 7))
    entries.append(sp_pair_in_so(4, 4))
    entries.append(sp_pair_in_so(4, 6))
    return {e.name: e for e in entries}


def embedding_report(e: EmbeddingData) -> CheckReport:
    total, ambient = sum(conformal_anomaly(a, l) for a, l in e.factors), conformal_anomaly(e.ambient, 1)
    rows = [CheckRow("conformal", total == ambient, f"sum of central charges = {total}, c(ambient, 1) = {ambient}")]
    if e.adjoint_branching is not None:
        rows.extend(embedding_index_check(e).rows)
    ranks = sum(alg.rank for alg, _ in e.factors)
    detail = f"factor ranks sum to {ranks}, ambient rank {e.ambient.rank}, deficiency {e.ambient.rank - ranks}"
    rows.append(CheckRow("rank", True, detail))
    return CheckReport(tuple(rows))
