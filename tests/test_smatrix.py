"""Numeric Kac-Peterson S-matrix against the exact fusion ring."""

import itertools
import random

import mpmath as mp
import pytest

from wzw.fusion import CurveData, fusion_ring, verlinde_dim
from wzw.lie import LieAlgebraId
from wzw.smatrix import (
    DEFAULT_PRECISION,
    FULL_PATH_WEYL_LIMIT,
    PRECISION_ENV,
    default_precision,
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


def test_weyl_limit_constant():
    assert FULL_PATH_WEYL_LIMIT == 100_000
