"""Boundary strata and the divisor relation on the moduli of stable curves."""

import itertools
from fractions import Fraction

import pytest

from wzw import picard
from wzw.picard import (
    IRR,
    MAX_RELATION_SIZE,
    BoundaryIndex,
    _check_stable,
    boundary_strata,
    emit_relation,
    relation_consistency,
    relation_json_obj,
)
from wzw.qsqrt5 import closed_form_value


def reducible_index(g: int, n: int, h: int, markings) -> BoundaryIndex:
    """Canonical, stability-checked index for the stratum splitting off (h, A):
    the reference that boundary_strata is compared against."""
    _check_stable(g, n)
    marked = set(markings)
    a = tuple(sorted(marked))
    if not 0 <= h <= g:
        raise ValueError(f"side genus {h} out of range for genus {g}")
    if any(m < 1 or m > n for m in a):
        raise ValueError(f"markings {a} not within 1..{n}")
    comp = tuple(m for m in range(1, n + 1) if m not in marked)
    if h == 0 and len(a) < 2:
        raise ValueError(f"stratum ({h}, {a}) has an unstable genus-0 side")
    if g - h == 0 and len(comp) < 2:
        raise ValueError(f"stratum ({h}, {a}) has an unstable genus-0 complement side")
    other_h = g - h
    if h > other_h or (h == other_h and n >= 1 and 1 not in a):
        h, a = other_h, comp
    return BoundaryIndex("red", h, a)


def brute_force_strata(g, n):
    """Independent enumeration: all (h, A) with stability, deduped by the flip."""
    seen = set()
    count = 0
    for h in range(g + 1):
        for bits in range(1 << n):
            A = frozenset(i + 1 for i in range(n) if bits >> i & 1)
            comp = frozenset(range(1, n + 1)) - A
            if h == 0 and len(A) < 2:
                continue
            if g - h == 0 and len(comp) < 2:
                continue
            key = frozenset(((h, A), (g - h, comp)))
            if key not in seen:
                seen.add(key)
                count += 1
    return count + (1 if g >= 1 else 0)  # irreducible stratum


@pytest.mark.parametrize("g,n", [(g, n) for g in range(5) for n in range(6) if 2 * g - 2 + n > 0])
def test_stratum_count_matches_brute_force(g, n):
    assert len(boundary_strata(g, n)) == brute_force_strata(g, n)


@pytest.mark.parametrize("g", range(5))
def test_boundary_strata_are_the_canonical_indices(g):
    for n in range(7):
        if 2 * g - 2 + n <= 0:
            continue
        found = set()
        for h in range(g + 1):
            for k in range(n + 1):
                for a in itertools.combinations(range(1, n + 1), k):
                    try:
                        found.add(reducible_index(g, n, h, a))
                    except ValueError:
                        pass  # an unstable side
        reducible = sorted(found, key=lambda s: (s.h, s.markings))
        assert boundary_strata(g, n) == ([IRR] if g >= 1 else []) + reducible, (g, n)

def test_relation_size_cap():
    # every size the acceptance suite and the benchmark use, up to (g + 1) 2^n = 2048, is admitted
    for g, n in ((1, 10), (15, 7)):
        assert len(emit_relation(g, n).boundary) == brute_force_strata(g, n)
    with pytest.raises(ValueError, match="cap"):
        emit_relation(0, MAX_RELATION_SIZE.bit_length())
    with pytest.raises(ValueError, match="cap"):
        emit_relation(1, 22)
    # the price grows with the digits of F, so a large genus is refused before any F value
    with pytest.raises(ValueError, match="cap"):
        relation_consistency(16000, 0)


@pytest.mark.parametrize("g, n, count", [(2832, 0, 1 + 2832 // 2), (0, 16, (1 << 15) - 16 - 1)])
def test_boundary_strata_lists_at_the_cap_and_refuses_one_past(g, n, count):
    # the library call prices (g, n) itself: irr plus h = 1..g/2 without markings, and
    # 2^(n-1) - n - 1 two-sided splits of n markings at genus 0
    cap = MAX_RELATION_SIZE << 7
    past = (g + 1, n) if n == 0 else (g, n + 1)
    assert (g + 1) * (g + 128) << n <= cap < (past[0] + 1) * (past[0] + 128) << past[1]
    assert len(boundary_strata(g, n)) == count
    with pytest.raises(ValueError, match="cap"):
        boundary_strata(*past)


def test_boundary_strata_refuses_2_to_the_40_subsets_before_listing_any():
    with pytest.raises(ValueError, match=r"\(g, n\) = \(1, 40\) is above the cap"):
        boundary_strata(1, 40)


def test_strata_examples():
    assert boundary_strata(1, 1) == [IRR]
    assert boundary_strata(2, 0) == [IRR, BoundaryIndex("red", 1, ())]
    names = {str(s) for s in boundary_strata(2, 2)}
    assert "irr" in names
    assert "(1,{1})" in names


def test_canonical_side_contains_marking_one():
    for s in boundary_strata(2, 3):
        if s.kind != "red":
            continue
        if s.h == 1:  # balanced split: side with marking 1 kept
            assert 1 in s.markings or not s.markings
    idx = reducible_index(2, 3, 1, (2, 3))
    assert idx.h == 1 and idx.markings == (1,)


def test_reducible_index_validation():
    with pytest.raises(ValueError):
        reducible_index(2, 0, 0, ())  # genus-0 side with < 2 special points
    with pytest.raises(ValueError):
        reducible_index(1, 2, 0, (1,))
    with pytest.raises(ValueError):
        reducible_index(0, 1, 0, (1,))  # unstable ambient
    with pytest.raises(ValueError):
        reducible_index(2, 1, 1, (3,))  # marking out of range


def test_unstable_pairs_rejected():
    for g, n in ((0, 0), (0, 1), (0, 2), (1, 0)):
        with pytest.raises(ValueError):
            boundary_strata(g, n)
        with pytest.raises(ValueError):
            emit_relation(g, n)


def test_relation_1_1():
    rel = emit_relation(1, 1)
    coeffs = rel.boundary_map()
    assert coeffs[IRR] == 1
    assert rel.hodge_coeff == 4
    assert rel.psi_coeffs == (1,)
    assert rel.f4_block_coeff == 1
    assert rel.g2_block_coeff == 1  # 1/F(1,1) with F(1,1) = 1


def test_relation_2_0():
    rel = emit_relation(2, 0)
    coeffs = rel.boundary_map()
    assert coeffs[BoundaryIndex("red", 1, ())] == Fraction(1, 5)
    assert coeffs[IRR] == Fraction(3, 5)
    assert rel.g2_block_coeff == Fraction(1, 5)


def test_genus_zero_has_no_irr():
    rel = emit_relation(0, 5)
    assert IRR not in rel.boundary_map()
    assert all(s.kind == "red" for s, _ in rel.boundary)


def test_coefficients_positive_with_denominator_dividing_f():
    for g in range(4):
        for n in range(6):
            if 2 * g - 2 + n <= 0:
                continue
            F = closed_form_value(g, n)
            rel = emit_relation(g, n)
            for _, c in rel.boundary:
                assert c > 0
                assert (c * F).denominator == 1


def test_recursion_consistency_grid():
    for g in range(1, 6):
        for n in range(7):
            if 2 * g - 2 + n <= 0:
                continue
            report = relation_consistency(g, n)
            assert report.passed
            assert report.recursion_holds
            assert report.boundary_numerators_positive
    # the recursion instance behind the genus-2 value: 5 = 3 + 2
    values = relation_consistency(2, 0).recursion_values
    assert values == (5, 3, 2)


@pytest.mark.parametrize("wrong", [(2, 1), (1, 3), (1, 1)])
def test_recursion_check_catches_one_wrong_value(monkeypatch, wrong):
    # the recursion is checked on the integers relation_consistency reports
    def off_by_one(g, n):
        return closed_form_value(g, n) + ((g, n) == wrong)

    monkeypatch.setattr(picard, "closed_form_value", off_by_one)
    report = relation_consistency(2, 1)
    assert report.recursion_holds is False and report.passed is False
    assert report.recursion_values == tuple(closed_form_value(*gn) + (gn == wrong) for gn in ((2, 1), (1, 3), (1, 1)))


def test_irr_coefficient_below_one_for_higher_genus():
    for g in (2, 3, 4, 5):
        report = relation_consistency(g, 0)
        assert report.irr_below_one
        assert 0 < report.irr_coeff < 1
    assert relation_consistency(1, 1).irr_below_one is None


def test_equivariance_under_marking_relabel():
    g, n = 2, 3
    base = emit_relation(g, n).boundary_map()
    for perm in itertools.permutations(range(1, n + 1)):
        relabel = dict(zip(range(1, n + 1), perm))
        moved = {}
        for s, c in base.items():
            if s.kind == "irr":
                moved[s] = c
            else:
                moved[reducible_index(g, n, s.h, tuple(relabel[i] for i in s.markings))] = c
        assert moved == base


def test_flip_invariance_of_the_formula():
    # F(h, |A|+1) F(g-h, n-|A|+1) is symmetric under (h, A) -> (g-h, A^c)
    g, n = 3, 4
    F = closed_form_value
    for s, c in emit_relation(g, n).boundary:
        if s.kind == "irr":
            continue
        a = len(s.markings)
        direct = Fraction(F(s.h, a + 1) * F(g - s.h, n - a + 1), F(g, n))
        flipped = Fraction(F(g - s.h, n - a + 1) * F(s.h, a + 1), F(g, n))
        assert c == direct == flipped


def test_json_schema_2_0():
    doc = relation_json_obj(emit_relation(2, 0))
    assert doc == {
        "lhs": {"lambda": 4, "psi": []},
        "rhs": {
            "g2_block": "1/5",
            "f4_block": 1,
            "irr": "3/5",
            "boundary": [{"h": 1, "A": [], "coeff": "1/5"}],
        },
    }


def test_json_schema_1_1():
    doc = relation_json_obj(emit_relation(1, 1))
    assert doc["lhs"] == {"lambda": 4, "psi": [1]}
    assert doc["rhs"]["irr"] == "1"  # rational field, always a string
    assert doc["rhs"]["boundary"] == []


def test_json_genus_zero_omits_irr():
    doc = relation_json_obj(emit_relation(0, 4))
    assert "irr" not in doc["rhs"]
    assert doc["lhs"]["psi"] == [1, 1, 1, 1]
    assert len(doc["rhs"]["boundary"]) == len(boundary_strata(0, 4))


def test_boundary_output_sorted_and_typed():
    doc = relation_json_obj(emit_relation(2, 2))
    entries = doc["rhs"]["boundary"]
    keys = [(e["h"], tuple(e["A"])) for e in entries]
    assert keys == sorted(keys)
    for e in entries:
        assert isinstance(e["h"], int)
        assert all(isinstance(i, int) for i in e["A"])
        assert isinstance(e["coeff"], str)
