"""Kac-Walton fusion and conformal-block dimensions."""

import itertools
import random

import pytest

from wzw import fusion, lie
from wzw.fusion import (
    MAX_GENUS,
    MAX_INSERTIONS,
    MAX_PRIMARIES,
    CurveData,
    _fusion_matrix,
    _handle,
    fusion_ring,
    propagation_check,
    verlinde_dim,
)
from wzw.lie import InvariantError, LieAlgebraId, RootDatum, build_root_datum, fold_sum, tensor_decompose
from wzw.qsqrt5 import closed_form_value

G2 = LieAlgebraId("G", 2)
F4 = LieAlgebraId("F", 4)
E8 = LieAlgebraId("E", 8)


def fib(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def _clear_matrix_caches():
    _fusion_matrix.cache_clear()
    _handle.cache_clear()


def test_g2_level_one_table():
    ring = fusion_ring(G2, 1)
    assert [w.labels for w in ring.basis] == [(0, 0), (1, 0)]
    vac, tau = ring.basis
    assert ring.product(vac, tau) == {tau: 1}
    assert ring.product(tau, tau) == {vac: 1, tau: 1}


def test_product_hands_out_a_copy_of_the_cached_table():
    # editing a returned product must change no later answer
    ring = fusion_ring(G2, 1)
    vac, tau = ring.basis
    _clear_matrix_caches()
    p = ring.product(tau, tau)
    p[tau] += 1
    assert ring.product(tau, tau) == {vac: 1, tau: 1}
    assert ring.coefficient(tau, tau, tau) == 1
    assert verlinde_dim(ring, CurveData(2, ())) == 5


def test_f4_level_one_table_is_fibonacci_too():
    ring = fusion_ring(F4, 1)
    vac, tau = ring.basis
    assert tau.labels == (0, 0, 0, 1)
    assert ring.product(tau, tau) == {vac: 1, tau: 1}


def test_e8_level_one_is_trivial():
    ring = fusion_ring(E8, 1)
    assert len(ring.basis) == 1
    vac = ring.basis[0]
    assert ring.product(vac, vac) == {vac: 1}


@pytest.mark.parametrize("ring", [fusion_ring(G2, 2), fusion_ring(F4, 2)])
def test_vacuum_is_a_unit(ring):
    vac = ring.basis[0]
    for w in ring.basis:
        assert ring.product(vac, w) == {w: 1}


def test_fusion_commutative_and_associative_g2_level2():
    ring = fusion_ring(G2, 2)

    def fuse(dist, w):
        out = {}
        for x, c in dist.items():
            for y, m in ring.product(x, w).items():
                out[y] = out.get(y, 0) + c * m
        return {k: v for k, v in out.items() if v}

    for x, y, z in itertools.product(ring.basis, repeat=3):
        assert ring.product(x, y) == ring.product(y, x)
        assert fuse(ring.product(x, y), z) == fuse(ring.product(y, z), x)


def test_dual_is_an_involution():
    for ring in (fusion_ring(G2, 2), fusion_ring(F4, 1)):
        for w in ring.basis:
            assert ring.dual(ring.dual(w)) == w
    # simply-laced odd case: A2 charge conjugation is nontrivial
    ring = fusion_ring(LieAlgebraId("A", 2), 1)
    w = ring.datum.fundamental_weight(1)
    assert ring.dual(w).labels == (0, 1)


def test_coefficient_symmetric_in_lower_indices():
    ring = fusion_ring(F4, 2)
    for x, y, z in itertools.islice(itertools.product(ring.basis, repeat=3), 200):
        assert ring.coefficient(x, y, z) == ring.coefficient(y, x, z)


def test_level_validation():
    ring = fusion_ring(G2, 1)
    with pytest.raises(ValueError):
        ring.index(ring.datum.weight((0, 1)))
    with pytest.raises(ValueError):
        verlinde_dim(ring, CurveData(0, (ring.datum.weight((0, 1)),)))


def test_genus_zero_fibonacci_sequence():
    ring = fusion_ring(G2, 1)
    w = build_root_datum(G2).fundamental_weight(1)
    for n in range(3, 11):
        assert verlinde_dim(ring, CurveData(0, (w,) * n)) == fib(n - 1)


def test_low_point_genus_zero_base_cases():
    ring = fusion_ring(G2, 1)
    d = ring.datum
    vac, tau = ring.basis
    assert verlinde_dim(ring, CurveData(0, ())) == 1
    assert verlinde_dim(ring, CurveData(0, (tau,))) == 0
    assert verlinde_dim(ring, CurveData(0, (tau, tau))) == 1
    assert verlinde_dim(ring, CurveData(0, (vac, tau))) == 0


def test_genus_two_vacuum_dimension_is_five():
    assert verlinde_dim(fusion_ring(G2, 1), CurveData(2, ())) == 5
    assert verlinde_dim(fusion_ring(F4, 1), CurveData(2, ())) == 5
    assert closed_form_value(2, 0) == 5


def test_duality_grid():
    rg, rf = fusion_ring(G2, 1), fusion_ring(F4, 1)
    wg = rg.datum.fundamental_weight(1)
    wf = rf.datum.fundamental_weight(4)
    for g in range(6):
        for n in range(7):
            a = verlinde_dim(rg, CurveData(g, (wg,) * n))
            b = verlinde_dim(rf, CurveData(g, (wf,) * n))
            assert a == b == closed_form_value(g, n)


def test_e8_any_genus():
    ring = fusion_ring(E8, 1)
    vac = ring.datum.zero_weight()
    for g in range(6):
        for n in range(5):
            assert verlinde_dim(ring, CurveData(g, (vac,) * n)) == 1


def test_closed_form_is_rational_with_golden_units():
    # at genus 1 the closed form is phi^n + phibar^n, the Lucas number L_n, and at
    # genus 0 it is (phi^(n-1) - phibar^(n-1))/sqrt 5, the Fibonacci number F_(n-1):
    # both from their own integer recurrences, not from Z[phi] or the blocks
    lucas, fib = [2, 1], [1, 0]  # L_0, L_1 and F_(-1), F_0
    for _ in range(30):
        lucas.append(lucas[-1] + lucas[-2])
        fib.append(fib[-1] + fib[-2])
    assert [closed_form_value(1, n) for n in range(32)] == lucas
    assert [closed_form_value(0, n) for n in range(32)] == fib
    for g in range(6):
        for n in range(7):
            assert type(closed_form_value(g, n)) is int and closed_form_value(g, n) >= 0
    assert closed_form_value(0, 3) == 1


def test_propagation_identity():
    ring = fusion_ring(G2, 1)
    w = ring.datum.fundamental_weight(1)
    for g, n in ((0, 4), (1, 1), (1, 2), (2, 2)):
        assert propagation_check(ring, CurveData(g, (w,) * n))


def test_insertion_order_irrelevant():
    ring = fusion_ring(G2, 2)
    d = ring.datum
    ws = (d.weight((1, 0)), d.weight((0, 1)), d.weight((2, 0)), d.weight((0, 0)))
    base = verlinde_dim(ring, CurveData(1, ws))
    for perm in itertools.permutations(ws):
        assert verlinde_dim(ring, CurveData(1, perm)) == base


def test_negative_genus_rejected():
    ring = fusion_ring(G2, 1)
    with pytest.raises(ValueError):
        CurveData(-1, ())


def test_caps_refuse_one_past_the_limit():
    ring = fusion_ring(G2, 1)
    vac, tau = ring.basis
    with pytest.raises(ValueError, match="cap"):
        verlinde_dim(ring, CurveData(MAX_GENUS + 1, ()))
    with pytest.raises(ValueError, match="cap"):
        verlinde_dim(ring, CurveData(0, (tau,) * MAX_INSERTIONS + (vac,)))


def test_primaries_cap_admits_the_cap_and_refuses_one_more():
    # primaries_at_least is exact on A1: level L has L + 1 primaries
    a1 = LieAlgebraId("A", 1)
    ring = fusion_ring(a1, MAX_PRIMARIES - 1)
    assert len(ring.basis) == MAX_PRIMARIES
    assert verlinde_dim(ring, CurveData(0, ())) == 1
    with pytest.raises(ValueError, match=f"at least {MAX_PRIMARIES + 1} primaries, over the cap {MAX_PRIMARIES}"):
        fusion_ring(a1, MAX_PRIMARIES)


def test_primaries_cap_refuses_before_listing_weights(monkeypatch):
    def listing(*args):
        raise AssertionError("level_weights ran on a ring over the cap")

    monkeypatch.setattr(fusion, "level_weights", listing)
    for algebra, level in ((LieAlgebraId("A", 4), 200), (LieAlgebraId("A", 1), 3_000_000), (E8, 10**9)):
        with pytest.raises(ValueError, match="over the cap"):
            fusion_ring(algebra, level)


def _factorization_blocks(ring, genus, labels, memo):
    """The factorization recursion with (0, n<=3) base cases, an independent route."""
    key = (genus, labels)
    if key in memo:
        return memo[key]
    d = ring.datum
    if genus > 0:
        pairs = ((mu.labels, ring.dual(mu).labels) for mu in ring.basis)
        total = sum(_factorization_blocks(ring, genus - 1, tuple(sorted(labels + p)), memo) for p in pairs)
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
        total = sum(
            m * _factorization_blocks(ring, 0, tuple(sorted(labels[2:] + (nu.labels,))), memo)
            for nu, m in ring.product(x, y).items()
        )
    memo[key] = total
    return total


# A2 has nontrivial charge conjugation, so it also checks N_mu* = transpose of N_mu
@pytest.mark.parametrize(
    "algebra,level", [(a, l) for a in (G2, F4) for l in (1, 2, 3)] + [(LieAlgebraId("A", 2), 2)]
)
def test_matrix_route_matches_factorization_recursion(algebra, level):
    ring = fusion_ring(algebra, level)
    rng = random.Random(f"{algebra}-{level}")
    memo = {}
    for genus in range(3):
        for _ in range(6):
            ws = tuple(rng.choice(ring.basis) for _ in range(rng.randint(0, 5 - genus)))
            want = _factorization_blocks(ring, genus, tuple(sorted(w.labels for w in ws)), memo)
            assert verlinde_dim(ring, CurveData(genus, ws)) == want, (genus, ws)


@pytest.mark.parametrize("name,level", [("A1", 40), ("A2", 3), ("B3", 2)])
def test_genus_one_vacuum_dimension_counts_primaries(name, level):
    ring = fusion_ring(LieAlgebraId.from_string(name), level)
    assert verlinde_dim(ring, CurveData(1, ())) == len(ring.basis)


def test_handle_matrix_is_the_sum_of_n_mu_times_its_transpose():
    # A2 at level 2 has nontrivial charge conjugation, so N_mu* != N_mu
    ring = fusion_ring(LieAlgebraId("A", 2), 2)
    n = [[[ring.coefficient(x, a, b) for b in ring.basis] for a in ring.basis] for x in ring.basis]
    idx = range(len(ring.basis))
    want = tuple(tuple(sum(m[a][c] * m[b][c] for m in n for c in idx) for b in idx) for a in idx)
    assert _handle(ring.algebra, ring.level) == want


@pytest.mark.parametrize(
    "name,level",
    [("G2", 1), ("G2", 2), ("G2", 3), ("F4", 1), ("F4", 2), ("F4", 3), ("A1", 40), ("A2", 6),
     ("B3", 2), ("C3", 2), ("D4", 2), ("E6", 1), ("E7", 1), ("E8", 1)],
)
def test_one_alcove_fold_matches_tensor_product_then_fold(name, level):
    # the two-fold route: classical Racah-Speiser product, then each constituent folded at kappa
    ring = fusion_ring(LieAlgebraId.from_string(name), level)
    d = ring.datum
    kappa = level + d.dual_coxeter
    for i, x in enumerate(ring.basis):
        for y in ring.basis[i:]:
            two_fold = fold_sum(d, ((w.labels, m) for w, m in tensor_decompose(d, x, y).items()), kappa)
            assert list(ring.product(x, y).items()) == list(two_fold.items()), (x, y)


def _plant_tau_tau_vacuum(monkeypatch):
    # N_tau,tau^vac sits in an S3 orbit of three table entries, so raising it alone
    # breaks N_xy^z = N_xz*^y*; it is entry 0 of the row of basis indices (1, 1)
    real = fusion._kac_walton

    def planted(algebra, level, a, b):
        row = real(algebra, level, a, b)
        return (row[0] + 1,) + row[1:] if (algebra, level, a, b) == (G2, 1, 1, 1) else row

    _clear_matrix_caches()
    monkeypatch.setattr(fusion, "_kac_walton", planted)


def test_planted_asymmetry_in_the_table_raises(monkeypatch):
    # the handle reads every N_mu
    ring = fusion_ring(G2, 1)
    _plant_tau_tau_vacuum(monkeypatch)
    try:
        with pytest.raises(InvariantError, match=r"at x = \[1,0\]"):
            verlinde_dim(ring, CurveData(1, ()))
    finally:
        _clear_matrix_caches()


def test_planted_asymmetry_raises_at_genus_zero(monkeypatch):
    # no handle is built here: N_tau alone is, and it is checked on its own
    ring = fusion_ring(G2, 1)
    _plant_tau_tau_vacuum(monkeypatch)
    try:
        with pytest.raises(InvariantError, match=r"at x = \[1,0\]"):
            verlinde_dim(ring, CurveData(0, (ring.basis[1],)))
        assert _handle.cache_info().currsize == 0
    finally:
        _clear_matrix_caches()


def test_genus_zero_builds_only_the_inserted_matrices(monkeypatch):
    # A3 at level 12 has 455 primaries; two insertions need two of the 455 N_x and no
    # handle, whose full table would take most of a minute and hundreds of MB to build
    d = build_root_datum(LieAlgebraId("A", 3))
    ring = fusion_ring(d.algebra, 12)
    _clear_matrix_caches()
    monkeypatch.setattr(fusion, "_handle", lambda *_: pytest.fail("the handle was built at genus 0"))
    try:
        assert verlinde_dim(ring, CurveData(0, (d.weight((1, 0, 0)), d.weight((0, 0, 1))))) == 1
        assert _fusion_matrix.cache_info().currsize == 2
        assert _handle.cache_info().currsize == 0
    finally:
        _clear_matrix_caches()


def test_each_row_is_one_object_shared_by_both_fusion_matrices():
    ring = fusion_ring(G2, 3)
    n = len(ring.basis)
    for x, a in itertools.product(range(n), repeat=2):
        row = _fusion_matrix(G2, 3, x)[a]
        assert row is _fusion_matrix(G2, 3, a)[x]
        assert row == tuple(ring.coefficient(ring.basis[x], ring.basis[a], z) for z in ring.basis)


def test_genus_one_stores_one_row_per_unordered_pair():
    ring = fusion_ring(F4, 2)
    n = len(ring.basis)
    _clear_matrix_caches()
    fusion._kac_walton.cache_clear()
    assert verlinde_dim(ring, CurveData(1, ())) == n
    assert fusion._kac_walton.cache_info().currsize == n * (n + 1) // 2


def test_f4_level_three_table_folds_each_shifted_point_once(monkeypatch):
    # the 6,597 terms x + nu of the full table hold 890 distinct points, and only
    # the alcove folds at kappa = 3 + h^vee are counted, not those of the graded modules
    ring = fusion_ring(F4, 3)
    kappa = 3 + ring.datum.dual_coxeter
    real = RootDatum.fold
    folded = []

    def counting(self, labels, at=None, limit=None, nodes=None):
        if at == kappa:
            folded.append(labels)
        return real(self, labels, at, limit, nodes)

    lie.weight_system_cached.cache_clear()
    fusion._kac_walton.cache_clear()
    lie._shifted_fold.cache_clear()
    monkeypatch.setattr(RootDatum, "fold", counting)
    for i, x in enumerate(ring.basis):
        for y in ring.basis[i:]:
            ring.product(x, y)
    assert len(folded) == len(set(folded)) == 890


def test_one_product_reads_the_dimensions_of_its_two_factors_only():
    # A1 at level 14,999 has 15,000 primaries; the Kac-Walton row compares two of their dimensions
    ring = fusion_ring(LieAlgebraId("A", 1), 14_999)
    fusion._kac_walton.cache_clear()
    fusion._dimension.cache_clear()
    assert ring.product(ring.basis[2], ring.basis[7]) == {ring.basis[k]: 1 for k in (5, 7, 9)}
    assert fusion._dimension.cache_info().currsize == 2


def _plant_weight_table(monkeypatch, algebra, labels):
    # the highest weight of L(labels) counted twice: the table misses the Weyl dimension
    real = lie.graded_module

    def planted(alg, level, highest):
        module = real.__wrapped__(alg, level, highest)
        module.graded_dims(0)
        if (alg, highest.labels) == (algebra, labels):
            module._mult[labels, 0] += 1
        return module

    lie.weight_system_cached.cache_clear()
    fusion._kac_walton.cache_clear()
    monkeypatch.setattr(lie, "graded_module", planted)


@pytest.mark.parametrize("read", ["product", "tensor_decompose"])
def test_a_weight_table_off_its_dimension_raises_on_the_first_read(monkeypatch, read):
    ring = fusion_ring(G2, 2)
    x, y = ring.basis[1], ring.basis[2]
    small = min((x, y), key=lambda w: lie.weyl_dimension(ring.datum, w))
    _plant_weight_table(monkeypatch, G2, small.labels)
    try:
        with pytest.raises(InvariantError, match=rf"weight system of \[{small.labels[0]},{small.labels[1]}\]"):
            ring.product(x, y) if read == "product" else tensor_decompose(ring.datum, x, y)
    finally:
        lie.weight_system_cached.cache_clear()
        fusion._kac_walton.cache_clear()


def test_equal_dimensions_expand_the_weight_system_of_the_later_basis_weight(monkeypatch):
    # A2 at level 1: [0,1] and [1,0] are both 3-dimensional, and the row of (1, 2) expands basis[2]
    ring = fusion_ring(LieAlgebraId("A", 2), 1)
    x, y = ring.basis[1], ring.basis[2]
    _plant_weight_table(monkeypatch, ring.algebra, y.labels)
    try:
        with pytest.raises(InvariantError, match=r"weight system of \[1,0\]"):
            ring.product(x, y)
    finally:
        lie.weight_system_cached.cache_clear()
        fusion._kac_walton.cache_clear()
