"""Root systems, Weyl actions and weight multiplicities."""

import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzw import lie
from wzw.embeddings import rep_dynkin_index
from wzw.lie import (
    MAX_RANK,
    InvariantError,
    LieAlgebraId,
    Weight,
    build_root_datum,
    fold_sum,
    freudenthal_weights,
    graded_module,
    level_weights,
    tensor_decompose,
    trace_anomaly,
    weyl_dimension,
)
from wzw.smatrix import quantum_dimension

G2 = LieAlgebraId("G", 2)
F4 = LieAlgebraId("F", 4)
E8 = LieAlgebraId("E", 8)
ALL = [LieAlgebraId.from_string(s) for s in ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8")]


def _root_labels(d, beta):
    """Dynkin labels of a vector in simple-root coordinates, read off the Cartan matrix."""
    return tuple(sum(c * b for c, b in zip(row, beta)) for row in d.cartan)


def test_algebra_name_parsing():
    assert LieAlgebraId.from_string("g2") == G2
    assert str(LieAlgebraId.from_string(" E8 ")) == "E8"
    for bad in ("X2", "G", "G0", "Gx", ""):
        with pytest.raises(ValueError):
            LieAlgebraId.from_string(bad)


def test_rank_cap_refuses_before_building():
    for series in "ABCD":
        assert LieAlgebraId(series, MAX_RANK).rank == MAX_RANK
        with pytest.raises(ValueError, match=f"rank {MAX_RANK + 1} is above the cap {MAX_RANK}"):
            LieAlgebraId(series, MAX_RANK + 1)
    with pytest.raises(ValueError, match="above the cap"):
        LieAlgebraId.from_string(f"A{10**9}")  # an n x n Cartan matrix here would not fit in memory


def test_rank_digits_are_counted_before_int():
    # past the interpreter's integer-to-string limit int() itself would refuse, with its own message
    with pytest.raises(ValueError, match=f"^rank above the cap {MAX_RANK}$"):
        LieAlgebraId.from_string("A" + "9" * 5000)
    with pytest.raises(ValueError, match=f"^rank above the cap {MAX_RANK}$"):
        LieAlgebraId.from_string("B" + "1" * (len(str(MAX_RANK)) + 1))
    assert LieAlgebraId.from_string("A" + "0" * 5000 + "1") == LieAlgebraId("A", 1)
    assert LieAlgebraId.from_string(f"D00{MAX_RANK}").rank == MAX_RANK
    with pytest.raises(ValueError, match="invalid simple type A0"):
        LieAlgebraId.from_string("A" + "0" * 5000)
    with pytest.raises(ValueError, match="cannot parse algebra name"):
        LieAlgebraId.from_string("A²")  # a digit, but not a decimal one that int() reads


def test_g2_cartan_matrix():
    # alpha_1 short: the 7-dim rep sits at omega_1
    d = build_root_datum(G2)
    assert d.cartan == ((2, -3), (-1, 2))
    assert weyl_dimension(d, d.fundamental_weight(1)) == 7
    assert weyl_dimension(d, d.fundamental_weight(2)) == 14


def test_f4_smallest_rep_at_node_4():
    d = build_root_datum(F4)
    assert weyl_dimension(d, d.fundamental_weight(4)) == 26
    assert weyl_dimension(d, d.fundamental_weight(1)) == 52


def test_key_invariants():
    expect = {
        "G2": (14, 4, 12),
        "F4": (52, 9, 1152),
        "E8": (248, 30, 696729600),
    }
    for name, (dim, hvee, worder) in expect.items():
        d = build_root_datum(LieAlgebraId.from_string(name))
        assert d.dimension == dim
        assert d.dual_coxeter == hvee
        assert d.weyl_order == worder


@pytest.mark.parametrize("algebra", ALL)
def test_root_count_matches_dimension(algebra):
    d = build_root_datum(algebra)
    assert d.dimension == 2 * len(d.positive_roots) + d.rank


@pytest.mark.parametrize("algebra", ALL)
def test_highest_root_normalization(algebra):
    d = build_root_datum(algebra)
    theta = _root_labels(d, d.highest_root)
    assert d.ip(theta, theta) == 2
    assert d.level_of(theta) == 2
    # comarks against the marks: co_i = d_i m_i with d_i the symmetrizer entries
    assert d.dual_coxeter == 1 + sum(d.comarks)


def test_e8_adjoint_is_fundamental():
    d = build_root_datum(E8)
    assert _root_labels(d, d.highest_root) == tuple(d.fundamental_weight(8).labels)


@pytest.mark.parametrize("algebra", ALL)
def test_form_is_symmetric_positive(algebra):
    # gram = D * form with D > 0, so the property carries over
    d = build_root_datum(algebra)
    n = d.rank
    assert d.denominator > 0
    for i in range(n):
        for j in range(n):
            assert d.gram[i][j] == d.gram[j][i]
            assert d.gram[i][j] > 0


REFLECTION_TYPES = [
    LieAlgebraId.from_string(name)
    for name in [f"A{n}" for n in range(1, 13)]
    + [f"{s}{n}" for s in "BC" for n in range(2, 11)]
    + [f"D{n}" for n in range(3, 11)]
    + ["E6", "E7", "E8", "F4", "G2"]
]


@pytest.mark.parametrize("algebra", REFLECTION_TYPES)
def test_reflections_are_involutions(algebra):
    d = build_root_datum(algebra)

    def reflect(lab, i):  # s_i x = x - <x, alpha_i^vee> alpha_i, alpha_i in labels
        return tuple(x - lab[i] * a for x, a in zip(lab, d.cartan_cols[i]))

    lab = tuple(range(1, d.rank + 1))
    other = tuple(range(d.rank, 0, -1))
    for i in range(d.rank):
        assert reflect(reflect(lab, i), i) == lab
        # reflections preserve the invariant form, which the Killing sum must keep
        assert d.ip(reflect(lab, i), reflect(other, i)) == d.ip(lab, other)


@pytest.mark.parametrize("algebra", [G2, F4])
def test_orbit_size_divides_weyl_order(algebra):
    d = build_root_datum(algebra)
    for w in level_weights(d, 2):
        size = d.orbit_size(w.labels)
        assert d.weyl_order % size == 0
    assert d.orbit_size((0,) * d.rank) == 1


TEXTBOOK_WEYL_ORDERS = (
    [(f"A{n}", math.factorial(n + 1)) for n in range(1, 9)]
    + [(f"{s}{n}", 2**n * math.factorial(n)) for s in "BC" for n in range(2, 9)]
    + [(f"D{n}", 2 ** (n - 1) * math.factorial(n)) for n in range(3, 9)]
    + [("E6", 51840), ("E7", 2903040), ("E8", 696729600), ("F4", 1152), ("G2", 12)]
)


@pytest.mark.parametrize("name,order", TEXTBOOK_WEYL_ORDERS)
def test_weyl_order_from_heights_matches_the_textbook(name, order):
    assert build_root_datum(LieAlgebraId.from_string(name)).weyl_order == order


# supports whose orbit has at most 5,000 points, walked per algebra
WALKED_SUPPORTS = {
    "A1": 2, "A4": 16, "A7": 89, "B3": 8, "B5": 32, "C4": 16, "D4": 16, "D5": 32,
    "D6": 47, "G2": 4, "F4": 16, "E6": 37, "E7": 12, "E8": 3,
}


@pytest.mark.parametrize("name", sorted(WALKED_SUPPORTS))
def test_orbit_size_formula_matches_the_orbit_walk(name):
    # orbit size depends only on which labels are nonzero; label 1 on each support
    d = build_root_datum(LieAlgebraId.from_string(name))
    walked = 0
    for labels in itertools.product((0, 1), repeat=d.rank):
        size = d.orbit_size(labels)
        assert d.weyl_order % size == 0
        if size <= 5000:
            assert len(d.weyl_orbit(labels)) == size, labels
            walked += 1
    assert walked == WALKED_SUPPORTS[name]


small_labels = st.tuples(st.integers(0, 2), st.integers(0, 2))


@given(lam=small_labels)
@settings(max_examples=25, deadline=None)
def test_freudenthal_mass_equals_weyl_dimension_g2(lam):
    d = build_root_datum(G2)
    ws = freudenthal_weights(d, d.weight(lam))
    assert ws.dimension == weyl_dimension(d, d.weight(lam))


@given(lam=small_labels, mu=small_labels)
@settings(max_examples=15, deadline=None)
def test_tensor_product_dimension_and_symmetry_g2(lam, mu):
    d = build_root_datum(G2)
    x, y = d.weight(lam), d.weight(mu)
    dec = tensor_decompose(d, x, y)
    assert dec == tensor_decompose(d, y, x)
    total = sum(m * weyl_dimension(d, w) for w, m in dec.items())
    assert total == weyl_dimension(d, x) * weyl_dimension(d, y)


def test_tensor_product_f4_spot_check():
    # 26 x 26 = 1 + 26 + 52 + 273 + 324
    d = build_root_datum(F4)
    w = d.fundamental_weight(4)
    dec = {k.labels: v for k, v in tensor_decompose(d, w, w).items()}
    assert dec == {
        (0, 0, 0, 0): 1,
        (0, 0, 0, 1): 1,
        (1, 0, 0, 0): 1,
        (0, 0, 1, 0): 1,
        (0, 0, 0, 2): 1,
    }


def test_g2_seven_dim_tensor_square():
    # 7 x 7 = 1 + 7 + 14 + 27
    d = build_root_datum(G2)
    w = d.fundamental_weight(1)
    dims = sorted(
        weyl_dimension(d, v) for v, m in tensor_decompose(d, w, w).items() for _ in range(m)
    )
    assert dims == [1, 7, 14, 27]


def test_adjoint_weight_system_multiplicities():
    d = build_root_datum(G2)
    ws = freudenthal_weights(d, d.weight(_root_labels(d, d.highest_root)))
    zero = d.zero_weight()
    assert ws.multiplicities[zero] == d.rank
    nonzero = {w for w in ws.multiplicities if w != zero}
    assert len(nonzero) == 2 * len(d.positive_roots)
    assert all(ws.multiplicities[w] == 1 for w in nonzero)


def test_level_weights_counts():
    assert len(level_weights(build_root_datum(G2), 1)) == 2
    assert len(level_weights(build_root_datum(F4), 1)) == 2
    assert len(level_weights(build_root_datum(E8), 1)) == 1
    assert len(level_weights(build_root_datum(G2), 2)) == 4
    with pytest.raises(ValueError):
        level_weights(build_root_datum(G2), -1)


def test_weight_label_arity_checked():
    d = build_root_datum(G2)
    with pytest.raises(ValueError):
        d.weight((1, 0, 0))


def test_dominant_reduction_lands_in_orbit():
    d = build_root_datum(F4)
    lab = (1, -2, 0, 3)
    dom = d.dominant(lab)
    assert all(x >= 0 for x in dom)
    assert lab in d.weyl_orbit(dom)


def test_rho_has_unit_labels():
    for algebra in (G2, F4, E8):
        d = build_root_datum(algebra)
        assert d.rho == (1,) * d.rank
        # strange formula normalization check: (rho, rho) = h_vee dim / 12
        assert d.ip(d.rho, d.rho) == Fraction(d.dual_coxeter * d.dimension, 12)


_G2_WEIGHT_CALLERS = {
    "weyl_dimension": lambda w: weyl_dimension(build_root_datum(G2), w),
    "freudenthal_weights": lambda w: freudenthal_weights(build_root_datum(G2), w),
    "tensor_decompose": lambda w: tensor_decompose(build_root_datum(G2), build_root_datum(G2).zero_weight(), w),
    "graded_module": lambda w: graded_module(G2, 1, w),
    "trace_anomaly": lambda w: trace_anomaly(G2, 1, w),
    "rep_dynkin_index": lambda w: rep_dynkin_index(G2, w),
    "quantum_dimension": lambda w: quantum_dimension(G2, 1, w.labels),
}


@pytest.mark.parametrize("caller", sorted(_G2_WEIGHT_CALLERS))
def test_every_weight_is_refused_by_one_check(caller):
    call = _G2_WEIGHT_CALLERS[caller]
    foreign = "weight [1,0,0,0] belongs to F4, expected G2"
    if caller == "quantum_dimension":  # takes bare labels, so an F4 weight has the wrong length
        foreign = "G2 weight needs 2 labels, got 4"
    with pytest.raises(ValueError, match=re.escape(foreign)):
        call(Weight(F4, (1, 0, 0, 0)))
    with pytest.raises(ValueError, match=re.escape("[-1,0] is not dominant")):
        call(Weight(G2, (-1, 0)))
    if caller in ("graded_module", "quantum_dimension", "trace_anomaly"):
        with pytest.raises(ValueError, match=re.escape("[2,0] is not an integrable level-1 weight of G2")):
            call(Weight(G2, (2, 0)))


def _reference_fold_sum(d, terms, kappa=None) -> dict:
    """fold_sum as one fold per term, without the memo of shifted folds."""
    out: dict = {}
    for x, m in terms:
        lab, sign, _ = d.fold(tuple(a + 1 for a in x), kappa)
        if 0 in lab or (kappa is not None and d.level_of(lab) == kappa):
            continue
        target = tuple(a - 1 for a in lab)
        out[target] = out.get(target, 0) + sign * m
    result = {}
    for labels, m in sorted(out.items()):
        if m < 0:
            raise InvariantError(f"signed fold sum is negative at {labels}")
        if m:
            result[d.weight(labels)] = m
    return result


def _fold_sum_outcome(fn, d, terms, kappa):
    """The sum, or the message of the InvariantError that a negative entry raises."""
    try:
        return fn(d, terms, kappa)
    except InvariantError as err:
        return str(err)


@given(data=st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_memoised_fold_sum_matches_one_fold_per_term(data):
    d = build_root_datum(data.draw(st.sampled_from([G2, F4, LieAlgebraId("A", 2), LieAlgebraId("B", 3)])))
    level = data.draw(st.integers(1, 3))
    kappa = data.draw(st.sampled_from([None, level + d.dual_coxeter]))
    j = d.comarks.index(1)
    wall = tuple((level + 1) * (i == j) for i in range(d.rank))  # x + rho at level l + h^vee
    above = tuple((level + 2) * (i == j) for i in range(d.rank))  # one past it
    box = st.tuples(*[st.integers(-3, level + 2)] * d.rank)
    zero_label = box.map(lambda x: (-1,) + x[1:])  # x + rho has a zero label
    points = data.draw(st.lists(st.one_of(box, zero_label, st.just(wall), st.just(above)), min_size=1, max_size=6))
    terms = data.draw(st.lists(st.tuples(st.sampled_from(points), st.integers(-2, 3)), min_size=1, max_size=12))
    want = _fold_sum_outcome(_reference_fold_sum, d, terms, kappa)
    lie._shifted_fold.cache_clear()
    assert _fold_sum_outcome(fold_sum, d, terms, kappa) == want  # cold memo
    assert _fold_sum_outcome(fold_sum, d, terms, kappa) == want  # warm memo
