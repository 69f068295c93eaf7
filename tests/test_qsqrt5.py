"""The closed form F(g, n) against routes that share no code with it, the
Z[phi] pair arithmetic it rests on, and its two invariant checks."""

import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzw import InvariantError, qsqrt5
from wzw.qsqrt5 import closed_form_value

pairs = st.tuples(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))


def _conjugate(x):
    # a + b*phibar = (a + b) - b*phi, since phi + phibar = 1
    a, b = x
    return a + b, -b


def _add(x, y):
    return x[0] + y[0], x[1] + y[1]


def test_golden_ratio_defining_identity():
    phi = (0, 1)
    assert qsqrt5._mul(phi, phi) == (1, 1)  # phi^2 = 1 + phi
    assert qsqrt5._trace(phi) == 1
    assert qsqrt5._mul(phi, _conjugate(phi)) == (-1, 0)


def test_norm_and_inverse():
    # the genus-0 inverse: (2 + phi)(3 - phi) = 5, and 5 is the norm of 2 + phi
    unit = qsqrt5._TWO_PLUS_PHI
    assert qsqrt5._mul(unit, qsqrt5._FIVE_OVER_TWO_PLUS_PHI) == (5, 0)
    assert qsqrt5._mul(unit, _conjugate(unit)) == (5, 0)


def test_powers():
    # phi^n = F(n) phi + F(n-1) with Fibonacci F
    fib = [0, 1]
    for _ in range(40):
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 40):
        assert qsqrt5._pow((0, 1), n) == (fib[n - 1], fib[n])
    assert qsqrt5._pow((7, -3), 0) == (1, 0)
    assert qsqrt5._pow((2, 1), 3) == qsqrt5._mul((2, 1), qsqrt5._mul((2, 1), (2, 1)))


def test_sqrt5_squares_to_five():
    root5 = (-1, 2)  # 2 phi - 1
    assert qsqrt5._mul(root5, root5) == (5, 0)
    assert qsqrt5._trace(root5) == 0


@given(x=pairs, y=pairs, z=pairs)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_ring_axioms(x, y, z):
    mul = qsqrt5._mul
    assert mul(x, y) == mul(y, x)
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, _add(y, z)) == _add(mul(x, y), mul(x, z))
    assert mul(x, (1, 0)) == x


@given(x=pairs, y=pairs)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_conjugation_is_an_automorphism(x, y):
    mul = qsqrt5._mul
    assert _conjugate(_conjugate(x)) == x
    assert _conjugate(mul(x, y)) == mul(_conjugate(x), _conjugate(y))
    # the trace is the element plus its conjugate, and the norm is rational
    assert _add(x, _conjugate(x)) == (qsqrt5._trace(x), 0)
    assert mul(x, _conjugate(x))[1] == 0


def test_closed_form_matches_a_60_digit_evaluation():
    # ((5+sqrt5)/2)^(g-1) phi^n + ((5-sqrt5)/2)^(g-1) phibar^n in floating point,
    # with no Z[phi] code and no block recursion
    with mpmath.workdps(60):
        root5 = mpmath.sqrt(5)
        phi, phibar = (1 + root5) / 2, (1 - root5) / 2
        unit, unitbar = (5 + root5) / 2, (5 - root5) / 2
        for g in range(40):
            for n in range(12):
                value = unit ** (g - 1) * phi**n + unitbar ** (g - 1) * phibar**n
                rounded = int(mpmath.nint(value))
                assert abs(value - rounded) < mpmath.mpf(10) ** -30
                assert closed_form_value(g, n) == rounded, (g, n)


@given(g=st.integers(1, 3000), n=st.integers(0, 12))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_closed_form_satisfies_the_gluing_recursion(g, n):
    # cutting a handle: F(g, n) = F(g-1, n+2) + F(g-1, n)
    assert closed_form_value(g, n) == closed_form_value(g - 1, n + 2) + closed_form_value(g - 1, n)


def test_negative_arguments_are_refused():
    for g, n in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            closed_form_value(g, n)


@pytest.fixture
def cold_cache():
    closed_form_value.cache_clear()
    yield
    closed_form_value.cache_clear()


def test_a_wrong_genus_zero_inverse_raises(monkeypatch, cold_cache):
    monkeypatch.setattr(qsqrt5, "_FIVE_OVER_TWO_PLUS_PHI", (3, 0))
    with pytest.raises(InvariantError, match=r"at \(g, n\) = \(0, 3\) does not divide by 5"):
        closed_form_value(0, 3)


def test_a_negative_trace_raises(monkeypatch, cold_cache):
    monkeypatch.setattr(qsqrt5, "_trace", lambda x: -2 * x[0] - x[1])
    with pytest.raises(InvariantError, match=r"negative at \(g, n\) = \(2, 1\): -5"):
        closed_form_value(2, 1)


def test_both_checks_raise_under_python_O():
    # the same two planted faults in an optimised interpreter, where an assert would vanish
    probe = (
        "import wzw.qsqrt5 as q\n"
        "q._FIVE_OVER_TWO_PLUS_PHI = (3, 0)\n"
        "q._trace = lambda x: -2 * x[0] - x[1]\n"
        "for g, n in ((0, 3), (2, 1)):\n"
        "    try:\n"
        "        q.closed_form_value(g, n)\n"
        "    except q.InvariantError as err:\n"
        "        print(err)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(qsqrt5.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", probe], capture_output=True, check=True, env=env, text=True
    ).stdout.splitlines()
    assert out == [
        "the trace at (g, n) = (0, 3) does not divide by 5",
        "the closed form is negative at (g, n) = (2, 1): -5",
    ]
