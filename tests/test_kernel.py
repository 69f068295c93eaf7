"""The integer kernel of RootDatum against independent routes.

Each test recomputes a quantity without the datum's integer Gram matrix,
chamber fold, orbit walker, dominant-weight walk or affine recursion (from a
Fraction inverse of the Cartan matrix and a Fraction symmetrizer table, both
kept here as the oracle since the library uses neither; a hand-written fold
taking a different reflection path, the dense fold the library used before its
sparse Cartan columns, a walk over root coefficients instead of labels, a
filter over a full label box, or the finite Freudenthal recursion over every
positive root) and compares.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wzw import InvariantError, lie
from wzw.lie import (
    MAX_WEIGHT_BOX,
    Labels,
    LieAlgebraId,
    RootDatum,
    _exact_quotient,
    build_root_datum,
    dominant_below,
    freudenthal_weights,
    graded_module,
    level_weights,
    weight_system_cached,
    weyl_dimension,
)

A1 = LieAlgebraId("A", 1)
G2 = LieAlgebraId("G", 2)
F4 = LieAlgebraId("F", 4)
E8 = LieAlgebraId("E", 8)


def _root_labels(d, beta):
    """Dynkin labels of a vector in simple-root coordinates, read off the Cartan matrix."""
    return tuple(sum(c * b for c, b in zip(row, beta)) for row in d.cartan)


def fraction_symmetrizer(series, rank):
    """d_i = (alpha_i, alpha_i) / 2 with (theta, theta) = 2, per series."""
    one, half, third = Fraction(1), Fraction(1, 2), Fraction(1, 3)
    return {
        "A": [one] * rank,
        "B": [one] * (rank - 1) + [half],
        "C": [half] * (rank - 1) + [one],
        "D": [one] * rank,
        "E": [one] * rank,
        "F": [one, one, half, half],
        "G": [third, one],
    }[series]


def fraction_inverse(m):
    """Gauss-Jordan inverse of a square matrix in Fractions."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@lru_cache(maxsize=None)
def fraction_form(algebra):
    """The Fraction symmetrizer d_i and inverse Cartan matrix, not from gram."""
    return fraction_symmetrizer(algebra.series, algebra.rank), fraction_inverse(build_root_datum(algebra).cartan)


def fraction_ip(d, x, y):
    """(x, y) from the Fraction form d_i (A^-1)_ij."""
    n = d.rank
    sym, cartan_inv = fraction_form(d.algebra)
    return sum(x[i] * sym[i] * cartan_inv[i][j] * y[j] for i in range(n) for j in range(n))


def fraction_weyl_dimension(d, labels):
    """prod over positive roots of (lam + rho, beta) / (rho, beta), in Fractions."""

    def pair(x, beta):
        return sum(Fraction(b) * s * a for b, s, a in zip(beta, fraction_form(d.algebra)[0], x))

    shifted = tuple(x + 1 for x in labels)
    value = Fraction(1)
    for beta in d.positive_roots:
        value *= pair(shifted, beta) / pair(d.rho, beta)
    assert value.denominator == 1
    return int(value)


def labels_up_to(rank, top):
    return st.tuples(*[st.integers(0, top)] * rank)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_integer_weyl_dimension_matches_fraction_product(data):
    algebra = data.draw(st.sampled_from([G2, F4]))
    d = build_root_datum(algebra)
    lam = data.draw(labels_up_to(d.rank, 3))
    assert weyl_dimension(d, d.weight(lam)) == fraction_weyl_dimension(d, lam)


def test_e8_fundamental_dimensions_match_fraction_product():
    d = build_root_datum(E8)
    dims = [weyl_dimension(d, d.fundamental_weight(i)) for i in range(1, 9)]
    assert dims == [fraction_weyl_dimension(d, d.fundamental_weight(i).labels) for i in range(1, 9)]
    assert dims[0] == 3875 and dims[7] == 248


def _small_weights(algebra, cap):
    d = build_root_datum(algebra)
    for lam in itertools.product(range(4), repeat=d.rank):
        if weyl_dimension(d, d.weight(lam)) <= cap:
            yield algebra, lam


@pytest.mark.parametrize(
    "algebra,lam",
    list(_small_weights(G2, 10**6)) + list(_small_weights(F4, 5000)) + [(E8, (0,) * 7 + (1,))],
)
def test_freudenthal_count_matches_both_weyl_routes(algebra, lam):
    # E8 beyond omega_8 exceeds the exact-enumeration box, so only the
    # adjoint is counted there; every E8 fundamental is covered above.
    d = build_root_datum(algebra)
    ws = freudenthal_weights(d, d.weight(lam))
    assert ws.dimension == weyl_dimension(d, d.weight(lam)) == fraction_weyl_dimension(d, lam)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_ip_matches_fraction_form(data):
    d = build_root_datum(data.draw(st.sampled_from([A1, G2, F4, E8])))
    labels = st.tuples(*[st.integers(-4, 4)] * d.rank)
    x, y = data.draw(labels), data.draw(labels)
    assert d.ip(x, y) == fraction_ip(d, x, y)
    assert d.scaled_ip(x, y) == fraction_ip(d, x, y) * d.denominator


FORM_TYPES = (
    [f"A{n}" for n in range(1, 13)]
    + [f"{s}{n}" for s in "BC" for n in range(2, 11)]
    + [f"D{n}" for n in range(3, 11)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", FORM_TYPES)
def test_gram_matches_fraction_inverse_form(name):
    # the library sums the Killing form over the positive roots; this route
    # inverts the Cartan matrix, so a wrong root or length shows in one entry
    algebra = LieAlgebraId.from_string(name)
    d = build_root_datum(algebra)
    sym, cartan_inv = fraction_form(algebra)
    form = [[sym[i] * x for x in row] for i, row in enumerate(cartan_inv)]
    assert d.denominator == math.lcm(*(x.denominator for row in form for x in row))
    assert [list(row) for row in d.gram] == [[x * d.denominator for x in row] for row in form]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_fold_sign_matches_orbit_sign_for_regular_weights(data):
    d = build_root_datum(data.draw(st.sampled_from([G2, F4])))
    x = data.draw(st.tuples(*[st.integers(-4, 4)] * d.rank))
    rep, sign, shift = d.fold(x)
    assert shift == 0 and min(rep) >= 0
    orbit = d.weyl_orbit(rep)
    assert x in orbit
    if 0 not in rep:  # regular: det(w) is well defined
        assert len(orbit) == d.weyl_order
        assert orbit[x] == sign


def full_fold(d, labels, level=None, nodes=None):
    """Fold into the level-`level` alcove without stopping early, or with no
    level into the dominant chamber; with nodes J, reflect only at J, into the
    J-dominant point of the W_J-orbit.

    Reflects at the last negative label (the library takes the first), so
    the path differs while the endpoint and total shift must agree.
    """
    walls = range(len(labels)) if nodes is None else nodes
    lab, shift = list(labels), 0
    while True:
        neg = [i for i in walls if lab[i] < 0]
        if neg:
            c = lab[neg[-1]]
            lab = [x - c * d.cartan[j][neg[-1]] for j, x in enumerate(lab)]
            continue
        if level is None:
            return tuple(lab), shift
        excess = sum(a * x for a, x in zip(d.comarks, lab)) - level
        if excess <= 0:
            return tuple(lab), shift
        theta = _root_labels(d, d.highest_root)
        lab = [x - excess * t for x, t in zip(lab, theta)]
        shift += excess


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_early_stopping_multiplicity_matches_full_fold(data):
    algebra, level = data.draw(st.sampled_from([(A1, 1), (G2, 1), (G2, 2), (F4, 1)]))
    d = build_root_datum(algebra)
    mod = graded_module(algebra, level, d.zero_weight())
    mod.graded_dims(3)
    x = data.draw(st.tuples(*[st.integers(-6, 6)] * d.rank))
    depth = data.draw(st.integers(0, 3))
    rep, shift = full_fold(d, x, level)
    expected = mod.multiplicity(rep, depth - shift) if shift <= depth else 0
    assert mod.multiplicity(x, depth) == expected


def _node_sets(rank):
    return [J for k in range(1, rank + 1) for J in itertools.combinations(range(rank), k)]


@pytest.mark.parametrize("algebra", [G2, F4], ids=str)
def test_parabolic_fold_of_every_root_matches_the_last_negative_label_fold(algebra):
    # only the J-dominant endpoint is compared: the two folds take different paths
    d = build_root_datum(algebra)
    roots = d.positive_root_labels + tuple(tuple(-x for x in lab) for lab in d.positive_root_labels)
    for nodes in _node_sets(d.rank):
        for lab in roots:
            assert d.fold(lab, nodes=nodes)[0] == full_fold(d, lab, nodes=nodes)[0], (nodes, lab)


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_parabolic_fold_of_random_labels_matches_the_last_negative_label_fold(data):
    d = build_root_datum(data.draw(st.sampled_from([G2, F4])))
    x = data.draw(st.tuples(*[st.integers(-6, 6)] * d.rank))
    nodes = data.draw(st.sampled_from(_node_sets(d.rank)))
    top = d.fold(x, nodes=nodes)[0]
    assert top == full_fold(d, x, nodes=nodes)[0]
    assert all(top[i] >= 0 for i in nodes)


def dense_fold(d, labels, kappa=None, limit=None, nodes=None):
    """RootDatum.fold as it was before the sparse Cartan columns, kept as the reference.

    Every reflection rebuilds the whole label tuple from a dense column of
    the Cartan matrix or from all labels of theta.  The reflection order is
    the same, so the whole triple (representative, det w, shift) must agree.
    """
    cols = d.cartan_cols
    walls = range(len(labels)) if nodes is None else nodes
    lab, sign, shift = labels, 1, 0
    for _ in range(lie._FOLD_GUARD):
        for i in walls:
            c = lab[i]
            if c < 0:
                lab = tuple(x - c * y for x, y in zip(lab, cols[i]))
                sign = -sign
                break
        else:
            excess = 0 if kappa is None else d.level_of(lab) - kappa
            if excess <= 0:
                return lab, sign, shift
            shift += excess
            if limit is not None and shift > limit:
                return None
            lab = tuple(x - excess * t for x, t in zip(lab, d.theta_labels))
            sign = -sign
    raise InvariantError(f"chamber fold of {labels} failed to terminate")


FOLD_TYPES = [LieAlgebraId.from_string(name) for name in
              ["A1", "A2", "A4", "A7", "B2", "B5", "B7", "C3", "C5", "C8", "D4", "D5", "D7",
               "E6", "E7", "E8", "F4", "G2"]]


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_sparse_fold_matches_the_dense_fold(data):
    d = build_root_datum(data.draw(st.sampled_from(FOLD_TYPES), label="algebra"))
    x = data.draw(st.tuples(*[st.integers(-6, 6)] * d.rank), label="labels")
    mode = data.draw(st.sampled_from(["chamber", "alcove", "limit", "nodes"]), label="mode")
    kappa = limit = nodes = None
    if mode in ("alcove", "limit"):
        kappa = data.draw(st.integers(1, d.dual_coxeter + 6), label="kappa")
    if mode == "limit":
        shift = dense_fold(d, x, kappa)[2]
        assume(shift > 0)
        limit = data.draw(st.integers(0, shift - 1), label="limit")
    if mode == "nodes":
        nodes = data.draw(st.sampled_from(_node_sets(d.rank)), label="nodes")
    folded = d.fold(x, kappa, limit, nodes)
    assert folded == dense_fold(d, x, kappa, limit, nodes)
    assert (folded is None) == (mode == "limit")


def test_fold_guard_still_raises(monkeypatch):
    d = build_root_datum(LieAlgebraId("A", 2))
    assert d.fold((-1, 0)) == ((0, 1), 1, 0)  # s_2 s_1: two reflections
    monkeypatch.setattr(lie, "_FOLD_GUARD", 1)
    assert d.fold((1, 0)) == ((1, 0), 1, 0)
    with pytest.raises(InvariantError, match=r"chamber fold of \(-1, 0\) failed to terminate"):
        d.fold((-1, 0))


def coefficient_box(d, lam):
    """The box c <= A^{-1} lam that holds the root coefficients of every mu <= lam."""
    return [sum(g * x for g, x in zip(row, lam)) // s for row, s in zip(d.gram, d.scaled_symmetrizer)]


def box_walk(d, lam):
    """(mu, c) with mu = lam - sum c_i alpha_i dominant and c in the coefficient box.

    The walk sets c node by node over the box.  A branch stops once some
    label can no longer end nonnegative: the later coefficients can raise
    label j by at most slack[i][j], so each range starts where every rising
    label can still make it and stops where label i cannot.  Sorted by
    (sum c, mu).
    """
    n = d.rank
    bounds = coefficient_box(d, lam)
    cols = d.cartan_cols
    slack = [
        [sum(-bounds[k] * cols[k][j] for k in range(i + 1, n) if k != j) for j in range(n)]
        for i in range(n)
    ]
    out = []

    def rec(i, current, coeffs):
        if i == n:
            out.append((tuple(current), coeffs))
            return
        lo = max([0] + [-((x + s) // -y) for x, s, y in zip(current, slack[i], cols[i]) if y < 0])
        for c in range(lo, bounds[i] + 1):
            nxt = [x - c * y for x, y in zip(current, cols[i])]
            if nxt[i] + slack[i][i] < 0:
                break  # label i only falls as c grows
            if all(x + s >= 0 for x, s in zip(nxt, slack[i])):
                rec(i + 1, nxt, coeffs + (c,))

    rec(0, list(lam), ())
    return sorted(out, key=lambda mc: (sum(mc[1]), mc[0]))


def test_box_walk_matches_unpruned_box():
    d = build_root_datum(F4)
    for lam in [(1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 1, 1)]:
        full = [
            (tuple(x - sum(ci * col[j] for ci, col in zip(c, d.cartan_cols)) for j, x in enumerate(lam)), c)
            for c in itertools.product(*(range(b + 1) for b in coefficient_box(d, lam)))
        ]
        dominant = sorted(((mu, c) for mu, c in full if min(mu) >= 0), key=lambda mc: (sum(mc[1]), mc[0]))
        assert box_walk(d, lam) == dominant


@pytest.mark.parametrize(
    "algebra,top", [(G2, 3), (F4, 3), (E8, None)], ids=["G2", "F4", "E8-omega8"]
)
def test_dominant_below_matches_coefficient_box_walk(algebra, top):
    d = build_root_datum(algebra)
    weights = itertools.product(range(top + 1), repeat=d.rank) if top else [(0,) * 7 + (1,)]
    for lam in weights:
        assert dominant_below(d, lam, d.rho_norm(lam)) == box_walk(d, lam), lam


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B3", "C3", "D4", "G2", "F4", "E6"])
def test_level_weights_match_label_box_filter(name):
    d = build_root_datum(LieAlgebraId.from_string(name))
    for level in range(5):
        box = itertools.product(range(level + 1), repeat=d.rank)
        expected = [lam for lam in box if sum(a * x for a, x in zip(d.comarks, lam)) <= level]
        assert [w.labels for w in level_weights(d, level)] == expected


def test_weight_just_over_the_box_bound_is_refused():
    d = build_root_datum(F4)
    lam = (3, 3, 3, 2)
    assert 2_000_000 < math.prod(b + 1 for b in coefficient_box(d, lam)) < 2_100_000
    with pytest.raises(ValueError, match="too large for exact enumeration"):
        freudenthal_weights(d, d.weight(lam))


def test_refused_weight_builds_no_graded_module():
    d = build_root_datum(E8)
    before = graded_module.cache_info().currsize
    with pytest.raises(ValueError, match="too large for exact enumeration"):
        freudenthal_weights(d, d.fundamental_weight(1))
    assert graded_module.cache_info().currsize == before


def _reference_dominant_multiplicities(d: RootDatum, lam: Labels) -> dict:
    """Freudenthal recursion, dominant weights only.

    Every dominant mu <= lam has |mu + rho| <= |lam + rho|, so the norm ball
    of lam + rho holds them all.  Weights whose coefficient box
    c <= A^{-1} lam has more than MAX_WEIGHT_BOX points are refused.
    """
    box = math.prod(
        sum(g * x for g, x in zip(row, lam)) // s + 1 for row, s in zip(d.gram, d.scaled_symmetrizer)
    )
    if box > MAX_WEIGHT_BOX:
        raise ValueError("weight system too large for exact enumeration")
    norm_top = d.rho_norm(lam)
    roots = tuple(zip(d.positive_roots, d.positive_root_labels))
    mult: dict = {}
    for mu, rc in dominant_below(d, lam, norm_top):
        if not any(rc):
            mult[mu] = 1
            continue
        rhs = 0
        for beta, beta_labels in roots:
            jmax = min(rc[i] // b for i, b in enumerate(beta) if b)
            for j in range(1, jmax + 1):
                nu = tuple(m + j * b for m, b in zip(mu, beta_labels))
                m2 = mult.get(d.dominant(nu))
                if m2:
                    rhs += m2 * d.scaled_ip_root(nu, beta)
        value = _exact_quotient(2 * rhs, norm_top - d.rho_norm(mu), f"multiplicity of {mu} in {lam}")
        if value:
            mult[mu] = value
    return mult


REFERENCE_LABEL_SUMS = {"G2": 3, "F4": 3, "B3": 3, "C3": 3, "A3": 3, "D4": 2, "E6": 1, "E7": 1, "E8": 1}


def _reference_grid(name):
    """Weights of label sum at most REFERENCE_LABEL_SUMS[name] inside the box."""
    d = build_root_datum(LieAlgebraId.from_string(name))
    top = REFERENCE_LABEL_SUMS[name]
    return [
        lam
        for lam in itertools.product(range(top + 1), repeat=d.rank)
        if sum(lam) <= top and math.prod(b + 1 for b in coefficient_box(d, lam)) <= MAX_WEIGHT_BOX
    ]


def test_reference_grid_holds_137_weights():
    assert sum(len(_reference_grid(name)) for name in REFERENCE_LABEL_SUMS) == 137


@pytest.mark.parametrize("name", list(REFERENCE_LABEL_SUMS))
def test_depth_zero_rows_match_the_finite_freudenthal_recursion(name):
    # the dominant part of a weight system is the depth-0 rows of the affine table
    d = build_root_datum(LieAlgebraId.from_string(name))
    for lam in _reference_grid(name):
        rows = {mu: m for mu, m in weight_system_cached(d.algebra, lam).items() if min(mu) >= 0}
        assert rows == _reference_dominant_multiplicities(d, lam), lam
