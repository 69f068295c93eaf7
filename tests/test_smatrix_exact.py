"""Exact oracles on the Kac-Peterson counts.

Row i, column j of the counts is an element sum_r c_r zeta_N^r of Z[zeta_N],
kept as the integer list (c_0, ..., c_{N-1}).  Products are taken mod
x^N - 1 and compared mod the cyclotomic polynomial Phi_N, which is built here
by exact division, so every check below is integer arithmetic.
"""

import os
import re
import subprocess
import sys
from functools import lru_cache
from math import gcd
from operator import mul
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wzw import fusion, smatrix
from wzw.fusion import _fusion_matrix, _handle, fusion_ring
from wzw.lie import InvariantError, LieAlgebraId, build_root_datum, level_weights
from wzw.smatrix import kac_peterson_counts, s_matrix

G2 = LieAlgebraId("G", 2)
F4 = LieAlgebraId("F", 4)
A2 = LieAlgebraId("A", 2)
A3 = LieAlgebraId("A", 3)
B3 = LieAlgebraId("B", 3)
C3 = LieAlgebraId("C", 3)
D4 = LieAlgebraId("D", 4)


def _divide_exact(num, den):
    """num / den for integer coefficient lists (lowest degree first), den monic."""
    num, m = list(num), len(den) - 1
    quot = [0] * (len(num) - m)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = c = num[k + m]
        for t, b in enumerate(den):
            num[k + t] -= c * b
    assert not any(num), "inexact division"
    return quot


@lru_cache(maxsize=None)
def _cyclotomic(n):
    """Phi_n = (x^n - 1) / prod of Phi_d over the proper divisors d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _divide_exact(poly, _cyclotomic(d))
    return tuple(poly)


def _mul(a, b):
    """Product of two elements mod x^N - 1."""
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % n] += x * y
    return out


def _is_zero(a, phi):
    """Whether a vanishes mod the monic phi."""
    a, m = list(a), len(phi) - 1
    for k in range(len(a) - 1, m - 1, -1):
        c = a[k]
        if c:
            for t, b in enumerate(phi):
                a[k - m + t] -= c * b
    return not any(a[:m])


def _sub(a, b):
    return [x - y for x, y in zip(a, b)]


def test_cyclotomic_polynomials():
    assert _cyclotomic(1) == (-1, 1)
    assert _cyclotomic(6) == (1, -1, 1)
    assert _cyclotomic(12) == (1, 0, -1, 0, 1)
    assert _cyclotomic(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)
    assert len(_cyclotomic(22)) - 1 == 10  # Euler phi


def _verlinde_failures(algebra, level):
    """Eigen-columns a on which raw_ia raw_ja != sum_k N_ij^k raw_ka raw_0a mod Phi_N
    for some i <= j: the Verlinde formula cleared of the normalisation."""
    basis, big_n, counts = kac_peterson_counts(algebra, level)
    ring = fusion_ring(algebra, level)
    phi = _cyclotomic(big_n)
    index = {w: k for k, w in enumerate(basis)}
    products = {(i, j): ring.product(basis[i], basis[j]) for i in range(len(basis)) for j in range(i, len(basis))}
    failures = set()
    for a in range(len(basis)):
        col = [row[a] for row in counts]
        for (i, j), product in products.items():
            combo = [0] * big_n
            for w, mult in product.items():
                combo = [x + mult * y for x, y in zip(combo, col[index[w]])]
            if not _is_zero(_sub(_mul(col[i], col[j]), _mul(combo, col[0])), phi):
                failures.add(a)
    return failures


@pytest.mark.parametrize(
    "algebra,level", [(G2, 1), (G2, 2), (G2, 3), (F4, 1), (F4, 2), (F4, 3), (A2, 2)]
)
def test_exact_verlinde_formula_links_counts_to_kac_walton(algebra, level):
    assert _verlinde_failures(algebra, level) == set()


def test_exact_verlinde_formula_catches_a_planted_self_dual_coefficient(monkeypatch):
    # N_tau,tau^tau maps to itself under N_xy^z = N_xz*^y*, so the check of each
    # fusion matrix cannot see it; the two-route oracle must
    # (it is entry 1 of the row of basis indices (1, 1), tau being basis weight 1)
    real = fusion._kac_walton
    assert fusion_ring(G2, 1).basis[1].labels == (1, 0)

    def planted(algebra, level, a, b):
        row = real(algebra, level, a, b)
        return row[:1] + (row[1] + 1,) + row[2:] if (algebra, level, a, b) == (G2, 1, 1, 1) else row

    _fusion_matrix.cache_clear()
    _handle.cache_clear()
    monkeypatch.setattr(fusion, "_kac_walton", planted)
    try:
        assert _verlinde_failures(G2, 1) == {0, 1}
    finally:
        _fusion_matrix.cache_clear()
        _handle.cache_clear()


@pytest.mark.parametrize("algebra,level", [(G2, 1), (G2, 3), (F4, 1), (F4, 2), (A2, 3), (B3, 2)])
def test_galois_symmetry(algebra, level):
    # Coste-Gannon: for l prime to N, zeta -> zeta^l sends row lambda to
    # eps row pi(lambda), where l (lambda + rho) folds at kappa to pi(lambda) + rho
    # with sign eps
    basis, big_n, counts = kac_peterson_counts(algebra, level)
    d = build_root_datum(algebra)
    kappa = level + d.dual_coxeter
    index = {w.labels: k for k, w in enumerate(basis)}
    units = [u for u in range(1, big_n) if gcd(u, big_n) == 1]
    assert len(units) > 1
    for u in units:
        for i, lam in enumerate(basis):
            folded, eps, _ = d.fold(tuple(u * (x + 1) for x in lam.labels), kappa)
            target = counts[index[tuple(x - 1 for x in folded)]]
            for row, want in zip(counts[i], target):
                scaled = [0] * big_n
                for r, c in enumerate(row):
                    scaled[r * u % big_n] += c
                assert scaled == [eps * c for c in want], (u, lam)


@pytest.mark.parametrize("algebra,level", [(G2, 1), (G2, 2), (G2, 3), (F4, 1), (F4, 2), (A2, 2), (A2, 3), (B3, 2)])
def test_s_squared_is_charge_conjugation(algebra, level):
    # (raw^2)_ij = c delta_{j, i*} for one nonzero c in Z[zeta_N]
    basis, big_n, counts = kac_peterson_counts(algebra, level)
    d = build_root_datum(algebra)
    index = {w.labels: k for k, w in enumerate(basis)}
    dual = [index[d.dominant(tuple(-x for x in w.labels))] for w in basis]
    phi = _cyclotomic(big_n)
    n = len(basis)
    square = {}
    for i in range(n):
        for j in range(n):
            acc = [0] * big_n
            for k in range(n):
                acc = [x + y for x, y in zip(acc, _mul(counts[i][k], counts[k][j]))]
            square[i, j] = acc
    c = square[0, dual[0]]
    assert not _is_zero(c, phi)
    for (i, j), value in square.items():
        assert _is_zero(_sub(value, c) if j == dual[i] else value, phi), (i, j)
    if algebra == A2:
        assert dual != list(range(n))  # conjugation is not the identity here


# Faults planted in the root datum that the one walk of W reads, each a wrapper
# over the real G2 datum.  The same source runs in-process and under python -O.
_PLANTED_DATA = """
from wzw import smatrix
from wzw.lie import InvariantError, LieAlgebraId, build_root_datum

G2 = LieAlgebraId("G", 2)


class Planted:
    def __init__(self, real, **fields):
        self.real, self.fields = real, fields

    def __getattr__(self, name):
        return self.fields[name] if name in self.fields else getattr(self.real, name)


def planted(fault):
    real = build_root_datum(G2)
    if fault == "symmetrizer":  # one wrong D (alpha_2, omega_2): the pairings drift, the walk is sound
        return Planted(real, scaled_symmetrizer=(real.scaled_symmetrizer[0], real.scaled_symmetrizer[1] + 1))
    if fault == "infinite":  # a_12 a_21 = 4: an infinite dihedral group, whose walk never ends
        return Planted(real, cartan_cols=((2, -4), (-1, 2)))
    if fault == "order":  # |W| two too large: the walk ends two points short
        return Planted(real, weyl_order=real.weyl_order + 2)
    if fault == "depth":  # one positive root dropped: w0 lies one step deeper than |Phi+|
        return Planted(real, positive_roots=real.positive_roots[:-1])
    raise ValueError(fault)
"""

_FAULTS = {
    "symmetrizer": r"G2 level 1: Kac-Peterson counts break S_ij = S_ji at \(1, 0\)",
    "infinite": r"G2: the walk of W passes 13 points, \|W\| = 12",
    "order": r"G2: the walk of W passes 12 points, \|W\| = 14",
    "depth": r"G2: the walk of W ends at depth 6, not in -rho alone at depth 5",
}


def _plant(monkeypatch, fault):
    space = {}
    exec(_PLANTED_DATA, space)
    monkeypatch.setattr(smatrix, "build_root_datum", lambda algebra: space["planted"](fault))


def test_counts_asymmetry_raises(monkeypatch):
    # a wrong D (alpha_2, omega_2) passes the |W| and -rho checks of the walk
    # but breaks S_ij = S_ji, and the check is a plain if
    _plant(monkeypatch, "symmetrizer")
    with pytest.raises(InvariantError, match="S_ij = S_ji"):
        kac_peterson_counts(G2, 1)


@pytest.mark.parametrize("fault", ["infinite", "order", "depth"])
def test_a_planted_walk_fault_raises(monkeypatch, fault):
    _plant(monkeypatch, fault)
    with pytest.raises(InvariantError, match=_FAULTS[fault]):
        kac_peterson_counts(G2, 1)


def test_the_planted_faults_raise_under_python_O():
    # the same faults in an optimised interpreter, where an assert would vanish
    probe = _PLANTED_DATA + (
        f"for fault in {sorted(_FAULTS)!r}:\n"
        "    smatrix.build_root_datum = lambda algebra: planted(fault)\n"
        "    try:\n"
        "        smatrix.kac_peterson_counts(G2, 1)\n"
        "    except InvariantError as err:\n"
        "        print(err)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(smatrix.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", probe], capture_output=True, check=True, env=env, text=True
    ).stdout.splitlines()
    assert len(out) == len(_FAULTS)
    for line, fault in zip(out, sorted(_FAULTS)):
        assert re.fullmatch(_FAULTS[fault], line), (fault, line)


def _reference_orbit(d, labels):
    """The library's earlier orbit walk, kept here so the cross-checks below share no code
    with lie.weyl_walk: breadth-first from the input with a seen-dict, each point mapped
    to det(w) for the first w found that reaches it (det(w) itself on a regular orbit)."""
    cols = d.cartan_cols
    seen = {labels: 1}
    frontier = [labels]
    while frontier:
        nxt = []
        for lab in frontier:
            s = -seen[lab]
            for i, c in enumerate(lab):
                if c:
                    img = tuple(x - c * y for x, y in zip(lab, cols[i]))
                    if img not in seen:
                        seen[img] = s
                        nxt.append(img)
        frontier = nxt
    return seen


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_weyl_orbit_of_a_non_dominant_weight_matches_the_reference_walk(data):
    # weyl_orbit folds the input first and walks from the dominant point; the reference
    # walks from the input itself, so the signs agree only where det(w) is well defined
    d = build_root_datum(data.draw(st.sampled_from([G2, F4, A3, B3, C3, D4])))
    x = data.draw(st.tuples(*[st.integers(-3, 3)] * d.rank))
    assume(min(x) < 0)
    orbit, ref = d.weyl_orbit(x), _reference_orbit(d, x)
    assert orbit.keys() == ref.keys()
    if 0 not in d.dominant(x):
        assert orbit == ref


def _per_weight_counts(algebra, level):
    """The earlier route, kept as a reference: a separate walk of the Weyl orbit of
    each lambda + rho (_reference_orbit), every point paired with each mu + rho."""
    d = build_root_datum(algebra)
    basis = level_weights(d, level)
    big_n = (level + d.dual_coxeter) * d.denominator
    shifted = [tuple(x + 1 for x in lam.labels) for lam in basis]
    g_rho = [tuple(sum(g * y for g, y in zip(row, mu_rho)) for row in d.gram) for mu_rho in shifted]
    counts = []
    for lam_rho in shifted:
        row = [[0] * big_n for _ in basis]
        for point, sign in _reference_orbit(d, lam_rho).items():
            for cnt, g in zip(row, g_rho):
                cnt[-sum(map(mul, point, g)) % big_n] += sign
        counts.append(row)
    return tuple(basis), big_n, counts


WALK_CASES = [(A2, 3), (B3, 2), (C3, 2), (D4, 2)] + [(F4, k) for k in range(3)] + [(G2, k) for k in range(6)]


@pytest.mark.parametrize("algebra,level", WALK_CASES)
def test_one_walk_of_w_matches_a_walk_per_weight(algebra, level):
    assert kac_peterson_counts(algebra, level) == _per_weight_counts(algebra, level)


def _per_point_s_matrix(algebra, level, precision):
    """The earlier route: one exponential per Weyl-orbit point, no counting."""
    d = build_root_datum(algebra)
    basis = fusion_ring(algebra, level).basis
    denom = (level + d.dual_coxeter) * d.denominator
    with mp.workdps(precision):
        rows = []
        for lam in basis:
            orbit = _reference_orbit(d, tuple(x + 1 for x in lam.labels))
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
        scale = mp.sqrt(sum(abs(x) ** 2 for x in rows[0]))
        phase = rows[0][0] / abs(rows[0][0])
        return [[x / (scale * phase) for x in row] for row in rows]


@pytest.mark.parametrize("algebra,level", [(G2, 1), (G2, 2), (G2, 3), (F4, 1), (F4, 2)])
def test_counts_route_matches_the_per_point_sum(algebra, level):
    sm = s_matrix(algebra, level, 50)
    old = _per_point_s_matrix(algebra, level, 50)
    with mp.workdps(50):
        worst = max(abs(x - y) for row, old_row in zip(sm.entries, old) for x, y in zip(row, old_row))
    assert worst < mp.mpf("1e-45")
