"""Symbolic current-algebra rewriting: brackets, gauge moves, reductions."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzw.correlator import (
    _INSERTION_RULES,
    CorrelatorState,
    ModeOp,
    PairingEnv,
    Poly,
    ReductionBudgetExceeded,
    _accumulate,
    _insertion_modes,
    _push,
    apply_bracket,
    cartan_mode,
    case_cartan_insertion,
    case_opposite_pair,
    case_vacua,
    default_strategy,
    gauge_move,
    parse_script,
    reduce_state,
    root_mode,
)

# ---------------------------------------------------------------------------
# polynomials


def test_poly_arithmetic():
    x, y = Poly.symbol("x"), Poly.symbol("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.substitute({"x": 3, "y": 1}) == 8
    assert (x * 2 + 1) - (x + x) == 1
    assert not (x - x)


def test_poly_divisibility_and_constants():
    x, y = Poly.symbol("x"), Poly.symbol("y")
    assert (x * y + x).divisible_by("x")
    assert not (x * y + y).divisible_by("x")
    assert not Poly().divisible_by("x")
    assert Poly.const(Fraction(3, 2)).constant_value() == Fraction(3, 2)
    with pytest.raises(ValueError):
        (x + 1).constant_value()


def test_poly_str_forms():
    x = Poly.symbol("xa")
    assert str(-x) == "-xa"
    assert str(x * x * 3) == "3*xa*xa"
    assert str(Poly()) == "0"
    assert str(Poly.symbol("bH") * Poly.symbol("xb")) == "bH*xb"


def test_poly_json_is_sorted_and_exact():
    x, y = Poly.symbol("x"), Poly.symbol("y")
    p = x * y * Fraction(1, 3) - 2
    assert p.json_obj() == [
        {"coefficient": "-2", "powers": {}},
        {"coefficient": "1/3", "powers": {"x": 1, "y": 1}},
    ]


# ---------------------------------------------------------------------------
# mode operators and brackets


def test_modeop_display():
    assert str(root_mode("a", +1, -1)) == "X+a(-1)"
    assert str(root_mode("b", -1, 2)) == "X-b(2)"
    assert str(cartan_mode(-1)) == "H(-1)"
    assert str(ModeOp("h", ("root", "a"), 0)) == "H_a(0)"


def test_bracket_opposite_root_vectors():
    env = PairingEnv(level=1)
    out = apply_bracket(root_mode("a", -1, 1), root_mode("a", +1, -1), env)
    # -H_a(0) plus the central term <X-a, X+a> * level
    assert len(out) == 2
    coeffs = {op: c for c, op in out}
    assert coeffs[ModeOp("h", ("root", "a"), 0)] == -1
    assert coeffs[None] == Poly.symbol("xa")


def test_bracket_cartan_on_root_vector():
    env = PairingEnv()
    out = apply_bracket(cartan_mode(0), root_mode("b", +1, -1), env)
    assert out == [(Poly.symbol("bH"), root_mode("b", +1, -1))]
    out = apply_bracket(cartan_mode(0), root_mode("b", -1, -1), env)
    assert out == [(-Poly.symbol("bH"), root_mode("b", -1, -1))]


def test_bracket_two_cartans_is_central():
    env = PairingEnv(level=1)
    out = apply_bracket(cartan_mode(-1), cartan_mode(1), env)
    assert out == [(-Poly.symbol("HH"), None)]
    assert apply_bracket(cartan_mode(0), cartan_mode(0), env) == []
    assert apply_bracket(cartan_mode(-1), cartan_mode(2), env) == []


def test_bracket_same_sign_vanishes():
    env = PairingEnv()
    assert apply_bracket(root_mode("a", +1, 0), root_mode("a", +1, -1), env) == []


def test_bracket_rejects_mixed_roots():
    env = PairingEnv()
    with pytest.raises(ValueError):
        apply_bracket(root_mode("a", +1, 0), root_mode("b", -1, 0), env)


def _bracket_table(a, b, env):
    table = {}
    for c, op in apply_bracket(a, b, env):
        table[op] = table.get(op, Poly()) + c
    return {k: v for k, v in table.items() if v}


@pytest.mark.parametrize(
    "a,b",
    [
        (root_mode("a", +1, -1), root_mode("a", -1, 1)),
        (root_mode("a", +1, 2), root_mode("a", -1, -2)),
        (cartan_mode(0), root_mode("a", +1, -1)),
        (cartan_mode(-1), cartan_mode(1)),
        (root_mode("b", -1, 0), cartan_mode(0)),
    ],
)
def test_bracket_antisymmetry(a, b):
    env = PairingEnv(level=2)
    left = _bracket_table(a, b, env)
    right = _bracket_table(b, a, env)
    assert set(left) == set(right)
    for op, c in left.items():
        assert right[op] == -c


def test_level_multiplies_central_terms():
    env = PairingEnv(level=4)
    out = apply_bracket(root_mode("a", +1, 1), root_mode("a", -1, -1), env)
    central = next(c for c, op in out if op is None)
    assert central == Poly.symbol("xa") * 4


def test_declared_pairings_override_symbols():
    env = PairingEnv(level=1, xpair={"a": Fraction(1, 2)}, cartan_values={("b", "H"): 3})
    out = apply_bracket(root_mode("a", +1, 1), root_mode("a", -1, -1), env)
    assert next(c for c, op in out if op is None) == Fraction(1, 2)
    out = apply_bracket(cartan_mode(0), root_mode("b", +1, -1), env)
    assert out[0][0] == 3


def test_env_validation():
    with pytest.raises(ValueError):
        PairingEnv(level=-1)
    with pytest.raises(ValueError):
        PairingEnv(level=Fraction(1, 2))


def test_reduction_stores_no_fallback_symbol():
    # undeclared pairings read as shared symbols; the env keeps only what was declared
    for build in (case_opposite_pair, case_cartan_insertion):
        env = PairingEnv(level=2)
        assert reduce_state(build(), env)
        assert env.xpair == {}
        assert env.cartan_values == {}


def test_reduction_leaves_declared_pairings_unchanged():
    env = PairingEnv(level=1, xpair={"a": Fraction(1, 2)}, cartan_values={("b", "H"): 3})
    state = case_opposite_pair("a") + case_cartan_insertion("b") + case_opposite_pair("c")
    assert reduce_state(state, env) == Poly.symbol("xb") * 3 - Poly.symbol("xc") - Fraction(1, 2)
    assert env.xpair == {"a": Poly.const(Fraction(1, 2))}
    assert env.cartan_values == {("b", "H"): Poly.const(3)}


@pytest.mark.parametrize(
    "d1, d2, expected",
    [
        (("root", "a"), ("root", "a"), Poly({("xa", "xa"): 2})),
        (("root", "a"), ("root", "b"), Poly()),
        (("root", "a"), ("name", "H"), Poly({("aH", "xa"): 1})),
        (("name", "K"), ("name", "H"), Poly.symbol("HK")),
    ],
    ids=["root-root-same", "root-root-distinct", "root-named", "named-named"],
)
def test_cartan_pair_is_symmetric_with_fallback_symbols(d1, d2, expected):
    env = PairingEnv(level=3)
    assert env.cartan_pair(d1, d2) == expected
    assert env.cartan_pair(d2, d1) == expected


def test_cartan_pair_reads_declared_values():
    env = PairingEnv(xpair={"a": Fraction(1, 2)}, cartan_values={("a", "H"): 3})
    assert env.cartan_pair(("name", "H"), ("root", "a")) == Fraction(3, 2)
    assert env.cartan_pair(("root", "a"), ("root", "a")) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# gauge moves


def _reference_binom(n: int, k: int) -> Fraction:
    num = 1
    for t in range(k):
        num *= n - t
    return Fraction(num, math.factorial(k))


def _reference_insertion_modes(i, j, n, max_mode):
    """The Ward coefficients with every binomial built from scratch."""
    sign, shift, s, e = _INSERTION_RULES[(i, j)](n)
    out = []
    for k in range(max_mode - shift + 1):
        c = sign * _reference_binom(e, k) * s**k
        if c:
            out.append((shift + k, c))
    return out


@pytest.mark.parametrize("i, j", sorted(_INSERTION_RULES))
def test_insertion_modes_match_the_binomial_formula(i, j):
    for n in range(-12, 1):
        for cap in range(16):
            assert _insertion_modes(i, j, n, cap) == _reference_insertion_modes(i, j, n, cap), (n, cap)


def test_insertion_modes_reject_a_bad_slot_pair():
    with pytest.raises(ValueError):
        _insertion_modes(1, 1, -1, 3)


def test_gauge_move_validates_leading_operator():
    env = PairingEnv()
    state = case_opposite_pair()
    with pytest.raises(ValueError):
        gauge_move(state, 2, root_mode("a", -1, -1), env)  # wrong op for slot 2
    with pytest.raises(ValueError):
        gauge_move(state, 1, root_mode("a", +1, -1), env)  # slot 1 is a vacuum
    with pytest.raises(ValueError):
        gauge_move(state, 4, root_mode("a", +1, -1), env)
    positive = CorrelatorState.single((root_mode("a", +1, 1),), (), ())
    with pytest.raises(ValueError):
        gauge_move(positive, 1, root_mode("a", +1, 1), env)


def test_gauge_move_then_reduce_matches_direct_reduction():
    env = PairingEnv(level=1)
    state = case_opposite_pair()
    moved = gauge_move(state, 3, root_mode("a", -1, -1), env)
    assert reduce_state(moved, env) == reduce_state(case_opposite_pair(), env)


# ---------------------------------------------------------------------------
# full reductions


def test_case_all_vacua_is_one():
    assert reduce_state(case_vacua(), PairingEnv(level=1)) == 1


def test_case_opposite_pair_level_one():
    value = reduce_state(case_opposite_pair(), PairingEnv(level=1))
    assert value == -Poly.symbol("xa")
    assert value.substitute({"xa": 1}).constant_value() == -1


def test_case_opposite_pair_scales_with_level():
    for level in (1, 2, 3, 5):
        value = reduce_state(case_opposite_pair(), PairingEnv(level=level))
        assert value == -Poly.symbol("xa") * level


def test_case_cartan_insertion():
    value = reduce_state(case_cartan_insertion(), PairingEnv(level=1))
    assert value == Poly.symbol("bH") * Poly.symbol("xb")
    assert value.divisible_by("bH")
    assert value.divisible_by("xb")
    assert not value.substitute({"bH": 0})


def test_one_point_functions_vanish():
    env = PairingEnv(level=1)
    for slot in range(3):
        slots = [(), (), ()]
        slots[slot] = (root_mode("a", +1, -1),)
        assert not reduce_state(CorrelatorState.single(*slots), env)
        slots[slot] = (cartan_mode(-1),)
        assert not reduce_state(CorrelatorState.single(*slots), env)


def test_reduction_invariant_under_slot_swap():
    env = PairingEnv(level=1)
    base = reduce_state(case_opposite_pair(), env)
    swapped = reduce_state(case_opposite_pair().swap_slots(2, 3), env)
    assert swapped == base


def test_reduction_invariant_under_root_relabel():
    env = PairingEnv(level=1)
    relabeled = case_opposite_pair().map_symbols({"a": "c"})
    value = reduce_state(relabeled, env)
    assert value == -Poly.symbol("xc")


def test_confluence_across_strategies():
    def lowest(slots):
        for i in range(3):
            if slots[i]:
                return i
        raise ValueError("empty")

    def middle_biased(slots):
        for i in (1, 2, 0):
            if slots[i]:
                return i
        raise ValueError("empty")

    for build in (case_opposite_pair, case_cartan_insertion):
        values = {
            str(reduce_state(build(), PairingEnv(level=1), strategy=s))
            for s in (None, default_strategy, lowest, middle_biased)
        }
        assert len(values) == 1


def test_reduction_deterministic():
    env1, env2 = PairingEnv(level=1), PairingEnv(level=1)
    a = reduce_state(case_cartan_insertion(), env1)
    b = reduce_state(case_cartan_insertion(), env2)
    assert a == b
    assert a.json_obj() == b.json_obj()


def test_budget_guard():
    with pytest.raises(ReductionBudgetExceeded):
        reduce_state(case_cartan_insertion(), PairingEnv(level=1), budget=0)


def test_budget_counts_gauge_moves_exactly():
    # 61 gauge moves reduce H(-1)^3 X+a(-1)^3 X-a(-1)^3 at level 3; 60 do not
    state, env = parse_script(
        "level 3\nslot1: H(-1) H(-1) H(-1)\nslot2: X+a(-1) X+a(-1) X+a(-1)\n"
        "slot3: X-a(-1) X-a(-1) X-a(-1)\n"
    )
    with pytest.raises(ReductionBudgetExceeded):
        reduce_state(state, env, budget=60)
    assert reduce_state(state, env, budget=61) == Poly({("aH",) * 3 + ("xa",) * 3: 972})


def _hxx(k, mode):
    return CorrelatorState.single(
        (cartan_mode(-mode),) * k, (root_mode("a", +1, -mode),) * k, (root_mode("a", -1, -mode),) * k
    )


@pytest.mark.parametrize(
    "state, level, least",
    [(case_cartan_insertion(), 1, 4), (_hxx(4, 1), 5, 272), (_hxx(3, 2), 3, 216), (_hxx(2, 4), 4, 91)],
    ids=["case-III", "k4-mode1", "k3-mode2", "k2-mode4"],
)
def test_least_budgets_that_complete(state, level, least):
    with pytest.raises(ReductionBudgetExceeded):
        reduce_state(state, PairingEnv(level=level), budget=least - 1)
    assert reduce_state(state, PairingEnv(level=level), budget=least)


def test_deeper_words_terminate():
    env = PairingEnv(level=1)
    state = CorrelatorState.single(
        (cartan_mode(-1),),
        (root_mode("a", +1, -2),),
        (root_mode("a", -1, -1),),
    )
    value = reduce_state(state, env)  # total depth 4
    assert value.divisible_by("xa") or not value


def test_normal_ordering_inside_a_slot():
    # X+a(1) X-a(-1)|0> collapses to central plus Cartan pieces before any move
    env = PairingEnv(level=1)
    state = CorrelatorState.single((root_mode("a", +1, 1), root_mode("a", -1, -1)), (), ())
    assert reduce_state(state, env) == Poly.symbol("xa")
    # a word ending in a nonnegative mode annihilates its vacuum: the term adds nothing
    dropped = CorrelatorState.single(
        (cartan_mode(-2), root_mode("a", +1, 0)), (root_mode("a", +1, -1),), (root_mode("a", -1, -1),)
    )
    assert reduce_state(case_opposite_pair() + dropped, env) == -Poly.symbol("xa")


# ---------------------------------------------------------------------------
# the iterative push against a recursive reference


def _reference_merge(pairs):
    acc = {}
    for coeff, word in pairs:
        _accumulate(acc, word, coeff)
    return [(c, w) for w, c in acc.items()]


def _reference_push(word, op, env):
    """op . word |0> with op.mode >= 0, expanded into all-negative words."""
    if not word:
        return []
    head, rest = word[0], word[1:]
    out = []
    for coeff, tail in _reference_push(rest, op, env):
        out.append((coeff, (head,) + tail))
    for coeff, bop in apply_bracket(op, head, env):
        if bop is None:
            out.append((coeff, rest))
        elif bop.mode >= 0:
            for c2, tail in _reference_push(rest, bop, env):
                out.append((coeff * c2, tail))
        else:
            out.append((coeff, (bop,) + rest))
    return _reference_merge(out)


def _mode_ops(roots, modes):
    roots = st.sampled_from(roots)
    return st.one_of(
        st.builds(cartan_mode, modes),
        st.builds(root_mode, roots, st.sampled_from((1, -1)), modes),
    )


def _outcome(push, word, op, env):
    """The merged {word: coefficient} of a push, or the message of its ValueError."""
    try:
        out = push(word, op, env)
    except ValueError as exc:
        return str(exc)
    return out if isinstance(out, dict) else {w: c for c, w in out}


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_push_matches_the_recursive_reference(data):
    roots = data.draw(st.sampled_from((("a",), ("a", "b"))))
    word = tuple(data.draw(st.lists(_mode_ops(roots, st.integers(-3, -1)), max_size=6)))
    op = data.draw(_mode_ops(roots, st.integers(0, 2)))
    env = PairingEnv(level=data.draw(st.integers(0, 3)))
    assert _outcome(_push, word, op, env) == _outcome(_reference_push, word, op, env)


def test_push_through_a_word_past_the_recursion_limit():
    # bypasses the script cap: one push walks all 1,050 operators
    word = (root_mode("a", +1, 0),) + (cartan_mode(-1),) * 1050
    assert len(word) > sys.getrecursionlimit()
    assert reduce_state(CorrelatorState.single(word), PairingEnv(level=1)) == 0


# ---------------------------------------------------------------------------
# closed-form and null-vector oracles (no second run of the engine)


@given(k=st.integers(0, 5), level=st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_opposite_powers_match_the_closed_form(k, level):
    # X+a(-1)^k at slot 2 against X-a(-1)^k at slot 3: (-1)^k k! (level)_k xa^k
    state = CorrelatorState.single((), (root_mode("a", +1, -1),) * k, (root_mode("a", -1, -1),) * k)
    falling = math.prod(range(level - k + 1, level + 1))
    expected = Poly({("xa",) * k: (-1) ** k * math.factorial(k) * falling})
    assert reduce_state(state, PairingEnv(level=level)) == expected


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_null_vector_vanishes_in_every_neutral_completion(data):
    # X+a(-1)^(level+1)|0> lies in the maximal submodule of the vacuum module,
    # and the three-vacuum block factors through the integrable quotient
    level = data.draw(st.sampled_from((1, 2)))
    null_slot = data.draw(st.integers(0, 2))
    first, second = (j for j in range(3) if j != null_slot)
    split = data.draw(st.integers(0, level + 1))
    slots = [[], [], []]
    slots[null_slot] = [root_mode("a", +1, -1)] * (level + 1)
    slots[first] = [root_mode("a", -1, -1)] * split
    slots[second] = [root_mode("a", -1, -1)] * (level + 1 - split)
    if data.draw(st.booleans()):
        h_slot = data.draw(st.integers(0, 2))
        # inside the null slot H acts from outside only: it keeps the submodule
        pos = 0 if h_slot == null_slot else data.draw(st.integers(0, len(slots[h_slot])))
        slots[h_slot].insert(pos, cartan_mode(-data.draw(st.integers(1, 3))))
    assert not reduce_state(CorrelatorState.single(*slots), PairingEnv(level=level))


# ---------------------------------------------------------------------------
# the script language


def test_script_round_trip():
    text = """
    # two opposite insertions
    level 2
    slot2: X+a(-1)
    slot3: X-a(-1)
    """
    state, env = parse_script(text)
    assert env.level == 2
    assert reduce_state(state, env) == -Poly.symbol("xa") * 2


def test_script_defaults_and_cartan_terms():
    state, env = parse_script("slot1: H(-1)\nslot2: X+b(-1)\nslot3: X-b(-1)\n")
    assert env.level == 1
    assert reduce_state(state, env) == Poly.symbol("bH") * Poly.symbol("xb")


def test_script_errors():
    for text in (
        "slot4: H(-1)",
        "slot1: H(-1)\nslot1: H(-2)",
        "slot1: Y+a(-1)",
        "level -1",
        "level x",
        "nonsense",
        "slot1: X+a[-1]",
    ):
        with pytest.raises(ValueError):
            parse_script(text)


def test_script_empty_is_vacuum_case():
    state, env = parse_script("# nothing\n")
    assert reduce_state(state, env) == 1
