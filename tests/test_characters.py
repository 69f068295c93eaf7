"""Graded character dimensions and the level-one branching identity.

Oracles: A1 level-one theta functions, the even unimodular rank-8 lattice
theta series (r(m) = 240 sigma_3(m)), eta-quotient series inversion, the
Weyl-Kac character formula summed over the scaled coroot lattice, the
three-loop form of the affine Freudenthal recursion, and a breadth-first walk
of W_J over root labels for the orbit classes.  All exact arithmetic, so
comparisons are exact.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import pytest

from wzw import characters, lie
from wzw.characters import (
    MAX_BRANCH_DEPTH,
    g2_f4_branching_claim,
    graded_dims,
    lattice_character_dims,
    lattice_shell_counts,
    verify_branching,
)
from wzw.lie import (
    GradedModule,
    InvariantError,
    LieAlgebraId,
    RootDatum,
    build_root_datum,
    graded_module,
    orbit_classes,
)

A1 = LieAlgebraId("A", 1)
G2 = LieAlgebraId("G", 2)
F4 = LieAlgebraId("F", 4)
E8 = LieAlgebraId("E", 8)


def _root_labels(d, beta):
    """Dynkin labels of a vector in simple-root coordinates, read off the Cartan matrix."""
    return tuple(sum(c * b for c, b in zip(row, beta)) for row in d.cartan)


def sigma3(m):
    return sum(d**3 for d in range(1, m + 1) if m % d == 0)


def test_a1_level_one_vacuum_dims():
    # theta_{Z}(q)-style hand count: dims 1,3,4,7,13,19,29 at depths 0..6
    d = build_root_datum(A1)
    assert graded_dims(A1, 1, d.zero_weight(), 6) == (1, 3, 4, 7, 13, 19, 29)


def test_a1_level_one_charged_module_dims():
    d = build_root_datum(A1)
    assert graded_dims(A1, 1, d.fundamental_weight(1), 5) == (2, 2, 6, 8, 14, 20)


def test_e8_vacuum_matches_lattice_oracle():
    d = build_root_datum(E8)
    depth = 3
    lie_route = graded_dims(E8, 1, d.zero_weight(), depth)
    lattice_route = lattice_character_dims(depth)
    assert lie_route == lattice_route == (1, 248, 4124, 34752)


def test_lattice_shells_are_240_sigma3():
    shells = lattice_shell_counts(6)
    assert shells[0] == 1
    for m in range(1, 7):
        assert shells[m] == 240 * sigma3(m)


def test_lattice_character_depth_four():
    assert lattice_character_dims(4)[4] == 213126


def test_g2_level_one_module_heads():
    # cross-checked by convolving into the E8 identity below
    d = build_root_datum(G2)
    assert graded_dims(G2, 1, d.zero_weight(), 2) == (1, 14, 42)
    assert graded_dims(G2, 1, d.fundamental_weight(1), 2) == (7, 34, 119)


def test_f4_level_one_module_heads():
    d = build_root_datum(F4)
    assert graded_dims(F4, 1, d.zero_weight(), 2) == (1, 52, 377)
    assert graded_dims(F4, 1, d.fundamental_weight(4), 2) == (26, 299, 1702)


def test_module_cache_returns_same_object():
    d = build_root_datum(G2)
    m1 = graded_module(G2, 1, d.zero_weight())
    m2 = graded_module(G2, 1, d.zero_weight())
    assert m1 is m2


def test_multiplicity_handles_non_dominant_lookups():
    d = build_root_datum(A1)
    mod = graded_module(A1, 1, d.zero_weight())
    # alpha at depth 1 lies in the orbit of the zero weight's depth-1 shell
    assert mod.multiplicity((2,), 1) == mod.multiplicity((-2,), 1) == 1
    assert mod.multiplicity((2,), 0) == 0


def test_module_validation():
    d = build_root_datum(G2)
    with pytest.raises(ValueError):
        graded_module(G2, 0, d.zero_weight())
    with pytest.raises(ValueError):
        graded_module(G2, 1, d.weight((0, 1)))  # level 2 weight at level 1
    with pytest.raises(ValueError):
        graded_module(G2, 1, d.weight((-1, 0)))


def test_branching_claim_offsets():
    claim = g2_f4_branching_claim()
    assert [s.offset for s in claim.summands] == [0, 1]
    vac, charged = claim.summands
    assert [w.labels for w in vac.weights] == [(0, 0), (0, 0, 0, 0)]
    assert [w.labels for w in charged.weights] == [(1, 0), (0, 0, 0, 1)]


def test_branching_identity_depths_0_to_3():
    report = verify_branching(g2_f4_branching_claim(), 3)
    assert report.passed
    assert [r.ambient_dim for r in report.rows] == [1, 248, 4124, 34752]
    assert report.rows[1].summand_dims == (66, 182)
    assert report.rows[2].summand_dims == (1147, 2977)
    assert report.rows[3].summand_dims == (9578, 25174)


def test_branching_depth_one_component_dimensions():
    # 248 = (14 + 52) + 7*26
    claim = g2_f4_branching_claim()
    g2_adj = graded_dims(G2, 1, build_root_datum(G2).zero_weight(), 1)[1]
    f4_adj = graded_dims(F4, 1, build_root_datum(F4).zero_weight(), 1)[1]
    seven = graded_dims(G2, 1, build_root_datum(G2).fundamental_weight(1), 0)[0]
    twenty_six = graded_dims(F4, 1, build_root_datum(F4).fundamental_weight(4), 0)[0]
    assert (g2_adj, f4_adj, seven * twenty_six) == (14, 52, 182)
    assert g2_adj + f4_adj + seven * twenty_six == 248
    assert verify_branching(claim, 1).rows[1].combined == 248


def test_branching_depth_cap():
    claim = g2_f4_branching_claim()
    report = verify_branching(claim, MAX_BRANCH_DEPTH)
    assert report.passed
    assert tuple(r.ambient_dim for r in report.rows) == lattice_character_dims(MAX_BRANCH_DEPTH)
    assert [r.ambient_dim for r in report.rows[:8]] == [
        1, 248, 4124, 34752, 213126, 1057504, 4530744, 17333248
    ]
    for depth in (MAX_BRANCH_DEPTH + 1, -1):
        with pytest.raises(ValueError, match=f"depth {depth} is not between 0 and the cap {MAX_BRANCH_DEPTH}"):
            verify_branching(claim, depth)


# ----------------------------------------------------------------------------
# the Weyl-Kac character formula: Cartan data and Fractions, no Freudenthal, no fold


def _inverse(m):
    """Inverse of a square integer matrix, by Gauss-Jordan elimination over Fractions."""
    n = len(m)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def weyl_kac_dims(cartan, level, lam, depth):
    """Graded dimensions of L(lam) at the given level from the Weyl-Kac formula.

    sum over gamma in the coroot lattice of
    prod_{beta > 0} (lam + rho + kappa gamma, beta) / (rho, beta)
    q^{(|lam + rho + kappa gamma|^2 - |lam + rho|^2) / 2 kappa}, over phi(q)^{dim g},
    with kappa = level + h_vee and cartan[i][j] = <alpha_j, alpha_i^vee>.
    """
    n = len(cartan)
    # root lengths (alpha_i, alpha_i), then the form with (theta, theta) = 2
    sq = [None] * n
    sq[0] = Fraction(1)
    while None in sq:
        for i, j in product(range(n), repeat=2):
            if sq[i] is not None and sq[j] is None and cartan[i][j]:
                sq[j] = sq[i] * cartan[i][j] / cartan[j][i]
    sq = [2 * x / max(sq) for x in sq]
    # positive roots in simple-root coordinates: the simple roots closed under reflections
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots, todo = set(simple), list(simple)
    while todo:
        beta = todo.pop()
        for i in range(n):
            pairing = sum(b * cartan[i][j] for j, b in enumerate(beta))
            image = tuple(b - pairing * (j == i) for j, b in enumerate(beta))
            if min(image) >= 0 and image not in roots:
                roots.add(image)
                todo.append(image)
    theta = max(roots, key=sum)
    h_vee = 1 + sum(c * sq[i] / 2 for i, c in enumerate(theta))  # sum of the comarks
    assert h_vee.denominator == 1
    kappa = level + int(h_vee)
    # (omega_i, omega_j) = (A^T)^{-1}_{ji} (alpha_i, alpha_i) / 2; coroot pairings (alpha_i^vee, alpha_j^vee)
    inv_t = _inverse([list(col) for col in zip(*cartan)])
    omega = [[inv_t[j][i] * sq[i] / 2 for j in range(n)] for i in range(n)]
    coroot = [[2 * cartan[i][j] / sq[j] for j in range(n)] for i in range(n)]
    shifted = [x + 1 for x in lam]  # lam + rho in Dynkin labels = (., alpha_i^vee)
    norm = sum(shifted[i] * shifted[j] * omega[i][j] for i in range(n) for j in range(n))
    # h(gamma) >= (kappa/2)|gamma|^2 - |lam + rho||gamma| <= depth bounds |gamma|, and |c_i| <= |gamma||omega_i|
    radius = (math.sqrt(norm) + math.sqrt(norm + 2 * kappa * depth)) / kappa
    box = [math.floor(radius * math.sqrt(omega[i][i])) + 1 for i in range(n)]

    def pairings(c):  # (lam + rho + kappa gamma, alpha_j), gamma = sum c_i alpha_i^vee
        return [shifted[j] * sq[j] / 2 + kappa * sum(c[i] * cartan[i][j] for i in range(n)) for j in range(n)]

    denominator = math.prod(sum(b * x / 2 for b, x in zip(beta, sq)) for beta in roots)  # prod (rho, beta)
    series = [0] * (depth + 1)
    for c in product(*(range(-b, b + 1) for b in box)):
        h = sum(c[i] * shifted[i] for i in range(n))
        h += Fraction(kappa, 2) * sum(c[i] * c[j] * coroot[i][j] for i in range(n) for j in range(n))
        assert h.denominator == 1 and h >= 0
        if h <= depth:
            p = pairings(c)
            coefficient = math.prod(sum(b * x for b, x in zip(beta, p)) for beta in roots) / denominator
            assert coefficient.denominator == 1
            series[int(h)] += int(coefficient)
    for k in range(1, depth + 1):  # divide by (1 - q^k) once for each of the dim g copies
        for _ in range(n + 2 * len(roots)):
            for e in range(k, depth + 1):
                series[e] += series[e - k]
    return tuple(series)


@pytest.mark.parametrize(
    "name, level, lam, dims",
    [
        ("A1", 3, (1,), (2, 6, 18, 36, 78, 144)),
        ("A2", 2, (1, 0), (3, 24, 90, 288, 777)),
        ("B2", 2, (0, 1), (4, 40, 204, 760)),
        ("G2", 2, (0, 1), (14, 119, 588, 2331)),
        ("G2", 1, (1, 0), (7, 34, 119, 322)),
        ("C3", 1, (0, 1, 0), (14, 105, 483, 1764)),
        ("F4", 1, (0, 0, 0, 1), (26, 299, 1702)),
    ],
)
def test_weyl_kac_formula_matches_freudenthal(name, level, lam, dims):
    algebra = LieAlgebraId.from_string(name)
    d = build_root_datum(algebra)
    depth = len(dims) - 1
    assert weyl_kac_dims(d.cartan, level, lam, depth) == dims
    assert graded_dims(algebra, level, d.weight(lam), depth) == dims


# ----------------------------------------------------------------------------
# the one loop over the positive affine roots against the three-loop recursion


def _reference_freudenthal(self, nu, k):
    """The affine Freudenthal recursion with its three loops: real roots at
    displacement zero stopped by norm convexity, real roots at displacement
    m >= 1 stopped at k // m, and the imaginary roots."""
    d = self.datum
    norm_nu = d.rho_norm(nu)
    bound = self._top_norm + 2 * k * self._kappa * d.denominator
    num = bound - norm_nu
    if num <= 0:
        raise InvariantError(f"affine Freudenthal at {nu}, depth {k}: norm gap {num}")
    total = 0

    # real roots at displacement zero: positive roots, arbitrary step j
    for beta in d.positive_root_labels:
        q_prev = norm_nu
        j = 1
        while True:
            w = tuple(x + j * b for x, b in zip(nu, beta))
            m = self.multiplicity(w, k)
            if m:
                total += m * d.scaled_ip(w, beta)
            q = d.rho_norm(w)
            if q > bound and q >= q_prev:
                break  # the norm is convex in j, so no weight lies further out
            q_prev = q
            j += 1

    all_root_labels = d.positive_root_labels + tuple(tuple(-x for x in lab) for lab in d.positive_root_labels)
    ell_s = self.level * d.denominator
    for m_im in range(1, k + 1):
        # real roots m_im steps down: every finite root contributes
        for beta in all_root_labels:
            for j in range(1, k // m_im + 1):
                w = tuple(x + j * b for x, b in zip(nu, beta))
                m = self.multiplicity(w, k - j * m_im)
                if m:
                    total += m * (d.scaled_ip(w, beta) + ell_s * m_im)
        # imaginary roots carry multiplicity = rank and only shift the depth
        for j in range(1, k // m_im + 1):
            m = self.multiplicity(nu, k - j * m_im)
            if m:
                total += d.rank * m * ell_s * m_im

    mult, rem = divmod(2 * total, num)
    if rem or mult < 0:
        raise InvariantError(f"affine Freudenthal at {nu}, depth {k}: {2 * total}/{num}")
    return mult


class _ReferenceModule(GradedModule):
    def _freudenthal(self, nu, gap):
        return _reference_freudenthal(self, nu, gap[0])


@pytest.mark.parametrize(
    "name, level, lam, depth",
    [
        ("A1", 1, (0,), 8),
        ("A1", 3, (1,), 6),
        ("A2", 2, (1, 0), 4),
        ("A3", 2, (1, 0, 1), 3),
        ("B2", 2, (0, 1), 4),
        ("C3", 1, (0, 1, 0), 3),
        ("D4", 1, (1, 0, 0, 0), 3),
        ("G2", 1, (1, 0), 4),
        ("G2", 2, (0, 1), 4),
        ("F4", 1, (0, 0, 0, 1), 3),
        ("E8", 1, (0,) * 8, 5),
        # mixed stabilizers, two root lengths, level 2
        ("B3", 2, (0, 0, 1), 5),
        ("C3", 2, (1, 0, 0), 5),
        ("F4", 2, (0, 0, 0, 2), 3),
        ("E6", 1, (1, 0, 0, 0, 0, 0), 4),
        ("E7", 1, (0,) * 6 + (1,), 3),
        ("E8", 2, (0,) * 8, 3),
    ],
)
def test_one_root_loop_matches_the_three_loop_recursion(name, level, lam, depth):
    algebra = LieAlgebraId.from_string(name)
    weight = build_root_datum(algebra).weight(lam)
    one_loop, reference = GradedModule(algebra, level, weight), _ReferenceModule(algebra, level, weight)
    assert one_loop.graded_dims(depth) == reference.graded_dims(depth)
    assert one_loop._mult == reference._mult
    assert one_loop._dims == reference._dims


# ----------------------------------------------------------------------------
# orbit classes of roots against a breadth-first walk of W_J


def _walk(labels, nodes, cols):
    """W_J-orbit of a weight by breadth-first simple reflections s_j, j in J."""
    seen, frontier = {labels}, [labels]
    while frontier:
        nxt = []
        for lab in frontier:
            for j in nodes:
                img = tuple(x - lab[j] * y for x, y in zip(lab, cols[j]))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return frozenset(seen)


@pytest.mark.parametrize("name", ["G2", "F4", "B3", "C3", "E8"])
def test_orbit_classes_match_a_walk_of_the_parabolic_subgroup(name):
    d = build_root_datum(LieAlgebraId.from_string(name))
    positive = set(d.positive_root_labels)
    roots = positive | {tuple(-x for x in lab) for lab in positive}
    zero = (0,) * d.rank
    for size in range(d.rank + 1):
        for nodes in combinations(range(d.rank), size):
            at_zero, at_positive = orbit_classes(d.algebra, nodes)
            for classes, rows in ((at_zero, positive), (at_positive, roots | {zero})):
                members = [frozenset(c[3]) for c in classes]
                assert sum(map(len, members)) == len(rows) and frozenset().union(*members) == rows
                for (mult, top, coords, _), group in zip(classes, members):
                    assert _root_labels(d, coords) == top and top in group
                    assert all(top[j] >= 0 for j in nodes)  # the J-dominant member
                    orbit = _walk(top, nodes, d.cartan_cols)
                    if top == zero:
                        assert (mult, group) == (d.rank, {zero})
                    elif rows is positive:  # {gamma > 0 : +-gamma in W_J beta}
                        assert group == {g for g in positive if g in orbit or tuple(-x for x in g) in orbit}
                        assert mult == len(group)
                    else:
                        assert group == orbit and mult == len(group)


def test_branching_to_depth_four_folds_at_most_1200_times(monkeypatch):
    # fresh caches, so the count covers every module and every orbit class;
    # the recursion in lie looks the orbit classes up there, and monkeypatch
    # puts the shared caches back afterwards
    monkeypatch.setattr(characters, "graded_module", lru_cache(maxsize=None)(GradedModule))
    monkeypatch.setattr(lie, "orbit_classes", lru_cache(maxsize=None)(orbit_classes.__wrapped__))
    calls = []
    fold = RootDatum.fold

    def counted(self, *args, **kwargs):
        calls.append(None)
        return fold(self, *args, **kwargs)

    monkeypatch.setattr(RootDatum, "fold", counted)
    assert verify_branching(g2_f4_branching_claim(), 4).passed
    # one fold per lookup outside the table and one per root under each J met
    assert 0 < len(calls) <= 1200


def test_a_cold_weight_system_folds_no_negative_root(monkeypatch):
    # a weight system reads depth 0 only, so it needs the orbit classes of
    # the positive roots and never the m >= 1 classes, which hold the negative ones
    monkeypatch.setattr(lie, "graded_module", lru_cache(maxsize=None)(GradedModule))
    monkeypatch.setattr(lie, "orbit_classes", lru_cache(maxsize=None)(orbit_classes.__wrapped__))
    negative = {tuple(-x for x in lab) for lab in build_root_datum(F4).positive_root_labels}
    class_folds = []
    fold = RootDatum.fold

    def counted(self, labels, *args, **kwargs):
        if "nodes" in kwargs:
            class_folds.append(tuple(labels))
        return fold(self, labels, *args, **kwargs)

    monkeypatch.setattr(RootDatum, "fold", counted)
    weights = lie.weight_system_cached.__wrapped__(F4, (0, 0, 0, 1))
    assert sum(weights.values()) == 26
    assert class_folds and not negative & set(class_folds)
    assert lie.orbit_classes(F4, (0, 1), False) == lie.orbit_classes(F4, (0, 1))[:1]


def test_branching_to_depth_four_computes_each_parabolic_order_once(monkeypatch):
    # |W_J| is cached per algebra and zero-label set J, so orbit_size, called
    # for every candidate weight, runs the height product once per J
    computed = []
    order = lie._parabolic_order.__wrapped__

    def counted(algebra, nodes):
        computed.append((algebra, nodes))
        return order(algebra, nodes)

    monkeypatch.setattr(characters, "graded_module", lru_cache(maxsize=None)(GradedModule))
    monkeypatch.setattr(lie, "_parabolic_order", lru_cache(maxsize=None)(counted))
    assert verify_branching(g2_f4_branching_claim(), 4).passed
    assert computed and len(computed) == len(set(computed))
