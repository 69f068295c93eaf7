"""Numeric Kac-Peterson S-matrix against the exact fusion ring."""

import itertools
import random
import time

import mpmath as mp
import pytest

from wzw import smatrix
from wzw.fusion import CurveData, fusion_ring, verlinde_dim
from wzw.lie import LieAlgebraId, build_root_datum, level_weights, primaries_at_least
from wzw.smatrix import (
    DEFAULT_PRECISION,
    MAX_MATRIX_WORK,
    MAX_PRECISION,
    MIN_PRECISION,
    PRECISION_ENV,
    default_precision,
    matrix_work,
    quantum_dimension,
    s_matrix,
    s_matrix_column,
)

G2 = LieAlgebraId("G", 2)
F4 = LieAlgebraId("F", 4)
E8 = LieAlgebraId("E", 8)

CASES = [(G2, 1), (G2, 2), (G2, 3), (F4, 1), (F4, 2), (F4, 3)]


@pytest.mark.parametrize("algebra,level", CASES)
def test_unitarity(algebra, level):
    sm = s_matrix(algebra, level)
    assert sm.unitarity_residual() < mp.mpf("1e-25")


@pytest.mark.parametrize("algebra,level", CASES)
def test_symmetric_matrix(algebra, level):
    sm = s_matrix(algebra, level)
    n = len(sm.basis)
    with mp.workdps(sm.precision):
        worst = max(
            abs(sm.entries[i][j] - sm.entries[j][i]) for i in range(n) for j in range(n)
        )
    assert worst < mp.mpf("1e-40")


@pytest.mark.parametrize("algebra,level", CASES)
def test_verlinde_formula_reproduces_kac_walton(algebra, level):
    sm = s_matrix(algebra, level)
    ring = fusion_ring(algebra, level)
    n = len(sm.basis)
    assert [w.labels for w in sm.basis] == [w.labels for w in ring.basis]
    with mp.workdps(sm.precision):
        for i, j, k in itertools.product(range(n), repeat=3):
            numeric = sm.fusion_coefficient(i, j, k)
            exact = ring.coefficient(ring.basis[i], ring.basis[j], ring.basis[k])
            assert abs(numeric - exact) < mp.mpf("1e-10")


@pytest.mark.parametrize("algebra,level", CASES)
def test_numeric_verlinde_formula_matches_block_dimensions(algebra, level):
    # dim V_g(l_1..l_n) = sum_a S_0a^(2-2g-n) prod_i S_(l_i)a; every G2/F4 weight
    # is self-dual, so no conjugate is needed
    sm = s_matrix(algebra, level, 50)
    ring = fusion_ring(algebra, level)
    assert all(ring.dual(w) == w for w in ring.basis)
    rng = random.Random(f"{algebra}-{level}")
    with mp.workdps(sm.precision):
        for genus, n in itertools.product(range(4), range(5)):
            picks = [rng.randrange(len(ring.basis)) for _ in range(n)]
            total = mp.mpc(0)
            for a in range(len(ring.basis)):
                term = sm.entries[0][a] ** (2 - 2 * genus - n)
                for i in picks:
                    term *= sm.entries[i][a]
                total += term
            exact = verlinde_dim(ring, CurveData(genus, tuple(ring.basis[i] for i in picks)))
            assert abs(total.imag) < mp.mpf("1e-20")
            assert int(mp.nint(total.real)) == exact, (genus, picks)
            assert abs(total.real - exact) < mp.mpf("1e-20") * max(exact, 1)


def test_vacuum_row_positive():
    sm = s_matrix(G2, 3)
    with mp.workdps(sm.precision):
        for z in sm.entries[0]:
            assert z.real > 0
            assert abs(z.imag) < mp.mpf("1e-40")


def test_quantum_dimension_is_golden_ratio_at_level_one():
    with mp.workdps(60):
        golden = (1 + mp.sqrt(5)) / 2
        assert abs(quantum_dimension(G2, 1, (1, 0), precision=50) - golden) < mp.mpf("1e-30")
        assert abs(quantum_dimension(F4, 1, (0, 0, 0, 1), precision=50) - golden) < mp.mpf("1e-30")


def test_quantum_dimensions_from_matrix_exceed_one():
    sm = s_matrix(F4, 2)
    with mp.workdps(sm.precision):
        for i in range(len(sm.basis)):
            assert quantum_dimension(F4, 2, sm.basis[i].labels) > 1 - mp.mpf("1e-30")
            assert abs(sm.quantum_dimension(i) - quantum_dimension(F4, 2, sm.basis[i].labels)) < mp.mpf("1e-30")


def _ratio_product_quantum_dimension(algebra, level, labels, precision):
    """Reference: one sine ratio per positive root, multiplied in turn."""
    d = build_root_datum(algebra)
    denom = (level + d.dual_coxeter) * d.denominator
    shifted = tuple(x + 1 for x in labels)
    with mp.workdps(precision):
        value = mp.mpf(1)
        for beta, rho_beta in zip(d.positive_roots, d.rho_pairings):
            value *= mp.sinpi(mp.mpf(d.scaled_ip_root(shifted, beta)) / denom) / mp.sinpi(
                mp.mpf(rho_beta) / denom
            )
        return value


def _doubled_sine_column(algebra, level, precision):
    """Reference: the vacuum row from products of 2 sin(...) per positive root."""
    d = build_root_datum(algebra)
    denom = (level + d.dual_coxeter) * d.denominator
    with mp.workdps(precision):
        raw = []
        for lam in level_weights(d, level):
            shifted = tuple(x + 1 for x in lam.labels)
            prod = mp.mpf(1)
            for beta in d.positive_roots:
                prod *= 2 * mp.sinpi(mp.mpf(d.scaled_ip_root(shifted, beta)) / denom)
            raw.append(prod)
        scale = mp.sqrt(sum(x**2 for x in raw))
        return [x / scale for x in raw]


@pytest.mark.parametrize("precision", [15, 50, 200])
def test_one_sine_product_matches_the_per_root_forms(precision):
    # the factor 2 per root is a power of two, so it cancels in the column exactly
    for algebra, level in CASES + [(E8, 1)]:
        basis, column = s_matrix_column(algebra, level, precision)
        assert column == _doubled_sine_column(algebra, level, precision), (algebra, level)
        with mp.workdps(precision):
            for w in basis:
                want = _ratio_product_quantum_dimension(algebra, level, w.labels, precision)
                got = quantum_dimension(algebra, level, w.labels, precision)
                assert abs(got - want) < mp.mpf(10) ** (5 - precision), (algebra, level, w)


def _uncached_sine_product(d, level, labels):
    """The product of sines with every factor evaluated afresh."""
    denom = (level + d.dual_coxeter) * d.denominator
    shifted = tuple(x + 1 for x in labels)
    return mp.fprod(mp.sinpi(mp.mpf(d.scaled_ip_root(shifted, beta)) / denom) for beta in d.positive_roots)


def test_cached_sines_never_cross_precisions():
    # a sine cached at one precision must not stand in for another: each call is
    # compared with products of fresh sines, with ==, and the repeat at 15 digits
    # is served from the cache alone
    smatrix._sinpi.cache_clear()
    for step, precision in enumerate((200, 15, 50, 15)):
        misses = smatrix._sinpi.cache_info().misses
        for algebra, level in ((G2, 3), (F4, 2), (E8, 1)):
            d = build_root_datum(algebra)
            basis, column = s_matrix_column(algebra, level, precision)
            with mp.workdps(precision):
                raw = [_uncached_sine_product(d, level, w.labels) for w in basis]
                scale = mp.sqrt(sum(x**2 for x in raw))
                assert column == [x / scale for x in raw], (algebra, level, precision)
                vacuum = _uncached_sine_product(d, level, (0,) * d.rank)
                for w in basis:
                    got = quantum_dimension(algebra, level, w.labels, precision)
                    assert got == _uncached_sine_product(d, level, w.labels) / vacuum, (algebra, w, precision)
        if step == 3:
            assert smatrix._sinpi.cache_info().misses == misses
        else:
            assert smatrix._sinpi.cache_info().misses > misses


def test_e8_full_matrix_rejected_column_allowed():
    assert s_matrix(G2, 1).algebra == G2
    with pytest.raises(ValueError):
        s_matrix(E8, 1)
    basis, column = s_matrix_column(E8, 1)
    assert len(column) == 1
    assert basis[0].labels == (0,) * 8
    with mp.workdps(50):
        assert abs(column[0] - 1) < mp.mpf("1e-45")


def test_column_agrees_with_full_matrix():
    sm = s_matrix(F4, 2)
    basis, column = s_matrix_column(F4, 2)
    assert [w.labels for w in basis] == [w.labels for w in sm.basis]
    with mp.workdps(sm.precision):
        for value, z in zip(column, sm.entries[0]):
            assert abs(value - z) < mp.mpf("1e-40")


def test_d7_level_zero_is_refused_by_the_work_cap():
    # one primary, but |W| = 322,560 points of rank-long steps: the walk alone would
    # take seconds, and the cap refuses it from the lower bound, before any listing
    d7 = LieAlgebraId("D", 7)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="D7 level 0: S-matrix work is at least 4515892, over the cap"):
        s_matrix(d7, 0)
    assert time.perf_counter() - start < 1
    assert _work_at(build_root_datum(d7), 0) == 4_515_892 > MAX_MATRIX_WORK


def test_precision_env(monkeypatch):
    monkeypatch.delenv(PRECISION_ENV, raising=False)
    assert default_precision() == DEFAULT_PRECISION == 50
    monkeypatch.setenv(PRECISION_ENV, "35")
    assert default_precision() == 35
    assert s_matrix(G2, 1).precision == 35
    monkeypatch.setenv(PRECISION_ENV, "abc")
    with pytest.raises(ValueError):
        default_precision()
    monkeypatch.setenv(PRECISION_ENV, "5")
    with pytest.raises(ValueError):
        default_precision()


@pytest.mark.parametrize("bad", [MIN_PRECISION - 1, MAX_PRECISION + 1, 0, -3, 1, 200_000])
def test_one_precision_check_for_argument_and_env(monkeypatch, bad):
    monkeypatch.delenv(PRECISION_ENV, raising=False)
    for call in (
        lambda p: s_matrix(G2, 1, p),
        lambda p: s_matrix_column(G2, 1, p),
        lambda p: quantum_dimension(G2, 1, (1, 0), p),
    ):
        with pytest.raises(ValueError, match=f"precision must be between {MIN_PRECISION} and {MAX_PRECISION}"):
            call(bad)
    monkeypatch.setenv(PRECISION_ENV, str(bad))
    with pytest.raises(ValueError, match=f"{PRECISION_ENV} must be between"):
        s_matrix(G2, 1)


def test_precision_bounds_are_admitted(monkeypatch):
    for good in (MIN_PRECISION, MAX_PRECISION):
        assert s_matrix(G2, 1, good).precision == good
        monkeypatch.setenv(PRECISION_ENV, str(good))
        assert default_precision() == good


def test_work_cap_admits_the_cap_and_refuses_one_more(monkeypatch):
    d = build_root_datum(G2)
    work = matrix_work(d, 4, (2 + d.dual_coxeter) * d.denominator)  # level 2: 4 primaries
    monkeypatch.setattr(smatrix, "MAX_MATRIX_WORK", work)
    assert len(s_matrix(G2, 2).basis) == 4
    monkeypatch.setattr(smatrix, "MAX_MATRIX_WORK", work - 1)
    with pytest.raises(ValueError, match=f"G2 level 2: S-matrix work {work}, over the cap {work - 1}"):
        s_matrix(G2, 2)


def _work_at(d, level):
    n = len(level_weights(d, level))
    return matrix_work(d, n, (level + d.dual_coxeter) * d.denominator)


def test_largest_admitted_levels():
    # at the cap the subcommand takes about 3 s: G2 level 16 (81 primaries) and
    # F4 level 6 (39 primaries) are the largest admitted
    for algebra, top in ((G2, 16), (F4, 6)):
        d = build_root_datum(algebra)
        assert _work_at(d, top) <= MAX_MATRIX_WORK < _work_at(d, top + 1)


def _two_cap_rule(d, n, big_n):
    """The admission rule before the one work cap, kept verbatim as a reference:
    |W| <= 100,000 and the work with a walk step of rank + n units."""
    return d.weyl_order <= 100_000 and n * (d.weyl_order * (d.rank + n) + n * big_n + 4 * n * n) <= 3_000_000


def test_one_work_cap_admits_what_the_two_caps_admitted():
    types = {"A": range(1, 13), "B": range(2, 13), "C": range(2, 13), "D": range(3, 13),
             "E": (6, 7, 8), "F": (4,), "G": (2,)}
    admitted = 0
    for series, ranks in types.items():
        for rank in ranks:
            d = build_root_datum(LieAlgebraId(series, rank))
            for level in range(40):
                big_n = (level + d.dual_coxeter) * d.denominator
                low = primaries_at_least(d, level)
                if not _two_cap_rule(d, low, big_n) and matrix_work(d, low, big_n) > MAX_MATRIX_WORK:
                    continue  # both rules refuse from the lower bound
                n = len(level_weights(d, level))
                one_cap = matrix_work(d, n, big_n) <= MAX_MATRIX_WORK
                assert one_cap == _two_cap_rule(d, n, big_n), (series, rank, level)
                admitted += one_cap
    assert admitted == 173


def test_primary_count_bound_never_exceeds_the_count():
    for name in ("A1", "A3", "B3", "C4", "D4", "E6", "F4", "G2"):
        d = build_root_datum(LieAlgebraId.from_string(name))
        for level in range(10):
            assert primaries_at_least(d, level) <= len(level_weights(d, level)), (name, level)


def test_far_over_the_cap_is_refused_before_listing_weights():
    start = time.perf_counter()
    for algebra in (G2, F4):
        with pytest.raises(ValueError, match="is at least"):
            s_matrix(algebra, 10**6)
    assert time.perf_counter() - start < 1
