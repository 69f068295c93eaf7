"""Conformal embeddings: central charges, trace anomalies, Dynkin indices."""

from fractions import Fraction

import pytest

from wzw.embeddings import (
    EmbeddingData,
    embedding_catalogue,
    embedding_index_check,
    embedding_report,
    g2_f4_in_e8,
    is_conformal,
    rep_dynkin_index,
    sl_pair_in_sl,
    so_pair_in_so,
    sp_pair_in_so,
)
from wzw.lie import LieAlgebraId, build_root_datum, conformal_anomaly, freudenthal_weights, trace_anomaly

G2 = LieAlgebraId("G", 2)
F4 = LieAlgebraId("F", 4)
E8 = LieAlgebraId("E", 8)


def _root_labels(d, beta):
    """Dynkin labels of a vector in simple-root coordinates, read off the Cartan matrix."""
    return tuple(sum(c * b for c, b in zip(row, beta)) for row in d.cartan)


def test_central_charges():
    assert conformal_anomaly(G2, 1) == Fraction(14, 5)
    assert conformal_anomaly(F4, 1) == Fraction(26, 5)
    assert conformal_anomaly(E8, 1) == Fraction(8)
    assert conformal_anomaly(G2, 1) + conformal_anomaly(F4, 1) == conformal_anomaly(E8, 1)


def test_central_charge_validation():
    assert conformal_anomaly(G2, 0) == 0
    with pytest.raises(ValueError):
        conformal_anomaly(G2, -2)


def test_trace_anomalies():
    assert trace_anomaly(G2, 1, build_root_datum(G2).fundamental_weight(1)) == Fraction(2, 5)
    assert trace_anomaly(F4, 1, build_root_datum(F4).fundamental_weight(4)) == Fraction(3, 5)
    # the two add up to the integer offset of the charged summand
    assert (
        trace_anomaly(G2, 1, build_root_datum(G2).fundamental_weight(1))
        + trace_anomaly(F4, 1, build_root_datum(F4).fundamental_weight(4))
    ) == 1


def test_trace_anomaly_validation():
    d = build_root_datum(G2)
    with pytest.raises(ValueError):
        trace_anomaly(G2, 1, d.weight((0, 1)))  # exceeds level 1
    with pytest.raises(ValueError):
        trace_anomaly(G2, 1, d.weight((-1, 0)))


def test_adjoint_index_is_dual_coxeter():
    for algebra in (G2, F4, E8, LieAlgebraId("A", 3), LieAlgebraId("D", 5)):
        d = build_root_datum(algebra)
        adjoint = d.weight(_root_labels(d, d.highest_root))
        assert rep_dynkin_index(algebra, adjoint) == d.dual_coxeter


@pytest.mark.parametrize(
    "algebra,labels,expected",
    [
        (G2, (1, 0), 1),
        (F4, (0, 0, 0, 1), 3),
        (LieAlgebraId("A", 1), (1,), Fraction(1, 2)),
        (LieAlgebraId("A", 2), (1, 1), 3),
        (LieAlgebraId("B", 3), (1, 0, 0), 1),
    ],
)
def test_rep_index_known_values(algebra, labels, expected):
    d = build_root_datum(algebra)
    assert rep_dynkin_index(algebra, d.weight(labels)) == expected


@pytest.mark.parametrize(
    "algebra,labels",
    [
        (G2, (1, 0)),
        (G2, (0, 1)),
        (F4, (0, 0, 0, 1)),
        (LieAlgebraId("A", 2), (2, 1)),
        (LieAlgebraId("C", 3), (0, 1, 0)),
    ],
)
def test_index_two_routes_agree(algebra, labels):
    # quadratic Casimir route vs summing mult(mu) (mu, mu) over the full weight system / (2 rank)
    d = build_root_datum(algebra)
    w = d.weight(labels)
    from_weights = Fraction(0)
    for mu, m in freudenthal_weights(d, w).multiplicities.items():
        from_weights += m * d.ip(mu.labels, mu.labels)
    assert rep_dynkin_index(algebra, w) == from_weights / (2 * d.rank)


def test_g2_f4_embedding_checks():
    e = g2_f4_in_e8()
    assert is_conformal(e)
    report = embedding_index_check(e)
    assert report.passed
    sums = {row.name: row.detail for row in report.rows if row.name.startswith("index-sum")}
    assert set(sums) == {"index-sum-G2", "index-sum-F4"}
    # 4 + 1*26 = 30 and 9 + 3*7 = 30
    assert all("30" in detail for detail in sums.values())
    rank = next(row for row in embedding_report(e).rows if row.name == "rank")
    assert rank.detail == "factor ranks sum to 6, ambient rank 8, deficiency 2"


def test_non_conformal_counterexample():
    bumped = EmbeddingData(
        name="g2xf4-wrong-level",
        factors=((G2, 2), (F4, 1)),
        ambient=E8,
        adjoint_branching=None,
    )
    assert not is_conformal(bumped)


def test_catalogue_all_conformal_and_checked():
    catalogue = embedding_catalogue()
    assert "g2xf4-in-e8" in catalogue
    assert len(catalogue) == 11
    for name, e in catalogue.items():
        assert e.name == name
        report = embedding_report(e)
        assert report.passed, f"{name}: {[r.detail for r in report.rows if not r.passed]}"


def test_sl_pair_indices():
    e = sl_pair_in_sl(2, 3)
    assert e.factors == ((LieAlgebraId("A", 1), 3), (LieAlgebraId("A", 2), 2))
    assert e.ambient == LieAlgebraId("A", 5)
    assert is_conformal(e)


def test_so_pair_degenerate_ranks_rejected():
    with pytest.raises(ValueError):
        so_pair_in_so(4, 6)  # so(4) is not simple
    with pytest.raises(ValueError):
        so_pair_in_so(2, 7)
    with pytest.raises(ValueError):
        sp_pair_in_so(2, 3)  # odd second argument


def test_so_pair_index_values():
    # so(5) x so(7) inside so(35) via the vector-rep tensor product
    e = so_pair_in_so(5, 7)
    assert e.ambient == LieAlgebraId("B", 17)
    (a1, l1), (a2, l2) = e.factors
    assert (l1, l2) == (7, 5)
    assert is_conformal(e)


def test_adjoint_branching_dimension_match():
    e = g2_f4_in_e8()
    assert e.branching_dimension() == 248
    bad = EmbeddingData(
        name="broken",
        factors=((G2, 1), (F4, 1)),
        ambient=E8,
        adjoint_branching=(
            ((build_root_datum(G2).zero_weight(), build_root_datum(F4).zero_weight()), 1),
        ),
    )
    assert not embedding_index_check(bad).passed
