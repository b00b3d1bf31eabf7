import random
from fractions import Fraction as F

import pytest

from ttw4d.numcore import Jet
from ttw4d.specfun import JacobiSpec, LaguerreSpec, jacobi_eval, laguerre_eval

from oracles import jacobi_series, laguerre_series


def test_degree_zero_and_one():
    assert jacobi_eval(JacobiSpec(0, F(1, 3), F(2, 5)), F(9, 7)) == 1
    assert jacobi_eval(JacobiSpec(1, F(1, 2), F(1, 2)), F(0)) == 0
    a, b, x = F(1, 2), F(1, 2), F(2, 7)
    assert jacobi_eval(JacobiSpec(1, a, b), x) == (a - b) / 2 + (a + b + 2) * x / 2
    alpha, y = F(13, 2), F(1, 3)
    assert laguerre_eval(LaguerreSpec(0, alpha), y) == 1
    assert laguerre_eval(LaguerreSpec(1, alpha), y) == 1 + alpha - y == F(43, 6)


# Frozen from the series oracles in oracles.py (see that module's docstring).
JACOBI_FROZEN = [
    (3, F(1, 3), F(2, 5), F(1, 4), F(-2177131, 5184000)),
    (4, F(1, 2), F(1, 2), F(-2, 3), F(-665, 1152)),
    (2, F(7, 4), F(1, 2), F(3, 5), F(15, 8)),
    (5, F(0), F(0), F(1, 2), F(23, 256)),
    (1, F(2), F(3), F(1, 7), F(0)),
]

LAGUERRE_FROZEN = [
    (2, F(2), F(1), F(5, 2)),
    (3, F(1, 2), F(2, 5), F(4241, 6000)),
    (4, F(0), F(3), F(11, 8)),
    (1, F(13, 2), F(1, 3), F(43, 6)),
]


def test_jacobi_frozen_values():
    for n, a, b, x, want in JACOBI_FROZEN:
        assert jacobi_eval(JacobiSpec(n, a, b), x) == want
        # and the frozen value really is what the independent series gives
        assert jacobi_series(n, a, b, x) == want


def test_laguerre_frozen_values():
    for n, alpha, x, want in LAGUERRE_FROZEN:
        assert laguerre_eval(LaguerreSpec(n, alpha), x) == want
        assert laguerre_series(n, alpha, x) == want


def test_recurrence_matches_series_on_random_rationals():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(0, 9)
        a = F(rng.randint(-1, 8), rng.randint(1, 6))
        b = F(rng.randint(-1, 8), rng.randint(1, 6))
        x = F(rng.randint(-9, 9), rng.randint(1, 9))
        assert jacobi_eval(JacobiSpec(n, a, b), x) == jacobi_series(n, a, b, x)
        alpha = F(rng.randint(0, 10), rng.randint(1, 6))
        y = F(rng.randint(0, 12), rng.randint(1, 9))
        assert laguerre_eval(LaguerreSpec(n, alpha), y) == laguerre_series(n, alpha, y)


def test_jacobi_recurrence_residual_is_exactly_zero():
    """The three-term recurrence, re-evaluated a posteriori, in exact arithmetic."""
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(2, 9)
        a = F(rng.randint(0, 7), rng.randint(1, 5))
        b = F(rng.randint(0, 7), rng.randint(1, 5))
        x = F(rng.randint(-6, 6), rng.randint(1, 7))
        p0 = jacobi_eval(JacobiSpec(n - 2, a, b), x)
        p1 = jacobi_eval(JacobiSpec(n - 1, a, b), x)
        p2 = jacobi_eval(JacobiSpec(n, a, b), x)
        c1 = 2 * n * (n + a + b) * (2 * n + a + b - 2)
        c2 = (2 * n + a + b - 1) * (a * a - b * b)
        c3 = (2 * n + a + b - 1) * (2 * n + a + b) * (2 * n + a + b - 2)
        c4 = 2 * (n + a - 1) * (n + b - 1) * (2 * n + a + b)
        assert c1 * p2 - (c2 + c3 * x) * p1 + c4 * p0 == 0


def test_jacobi_symmetry():
    rng = random.Random(47)
    for _ in range(30):
        n = rng.randint(0, 8)
        a = F(rng.randint(0, 6), rng.randint(1, 4))
        b = F(rng.randint(0, 6), rng.randint(1, 4))
        x = F(rng.randint(-8, 8), rng.randint(1, 9))
        lhs = jacobi_eval(JacobiSpec(n, a, b), -x)
        rhs = (-1) ** n * jacobi_eval(JacobiSpec(n, b, a), x)
        assert lhs == rhs


def test_laguerre_derivative_identity_via_jets():
    """d/dx L_n^(alpha) = -L_{n-1}^(alpha+1), read off a jet coefficient."""
    rng = random.Random(53)
    for _ in range(25):
        n = rng.randint(1, 8)
        alpha = F(rng.randint(0, 9), rng.randint(1, 5))
        x0 = rng.uniform(0.1, 4.0)
        x = Jet.variable((x0,), 0, 1)
        d = laguerre_eval(LaguerreSpec(n, alpha), x).derivative((1,))
        want = -laguerre_float(n - 1, float(alpha) + 1.0, x0)
        assert abs(d - want) <= 1e-12 * max(1.0, abs(want))


def laguerre_float(n, alpha, x):
    if n == 0:
        return 1.0
    prev, cur = 1.0, 1.0 + alpha - x
    for m in range(2, n + 1):
        prev, cur = cur, ((2 * m - 1 + alpha - x) * cur - (m - 1 + alpha) * prev) / m
    return cur


def test_laguerre_contiguous_identity_exact():
    """n L_n^(a+1)(x) - (n+a+1) L_{n-1}^(a+1)(x) = -x L_{n-1}^(a+2)(x)."""
    rng = random.Random(59)
    for _ in range(30):
        n = rng.randint(1, 9)
        a = F(rng.randint(0, 8), rng.randint(1, 5))
        x = F(rng.randint(0, 10), rng.randint(1, 7))
        lhs = (n * laguerre_eval(LaguerreSpec(n, a + 1), x)
               - (n + a + 1) * laguerre_eval(LaguerreSpec(n - 1, a + 1), x))
        rhs = -x * laguerre_eval(LaguerreSpec(n - 1, a + 2), x)
        assert lhs == rhs


def test_jet_evaluation_agrees_with_fractions():
    n, a, b = 5, F(1, 3), F(2, 5)
    x0 = F(3, 8)
    exact = jacobi_eval(JacobiSpec(n, a, b), x0)
    jet = jacobi_eval(JacobiSpec(n, a, b), Jet.variable((float(x0),), 0, 2))
    assert jet.value == pytest.approx(float(exact), rel=1e-13)
    # second derivative from the jet vs a rational difference quotient of the series
    h = F(1, 1_000_000)
    dd = (jacobi_series(n, a, b, x0 + h) - 2 * exact + jacobi_series(n, a, b, x0 - h)) / h**2
    assert jet.derivative((2,)) == pytest.approx(float(dd), rel=1e-5)


def test_invalid_degrees_and_parameters():
    with pytest.raises(ValueError):
        jacobi_eval(JacobiSpec(-1, F(1, 2), F(1, 2)), F(0))
    with pytest.raises(ValueError):
        laguerre_eval(LaguerreSpec(-2, F(0)), F(1))
    with pytest.raises(ValueError):
        jacobi_eval(JacobiSpec(3, F(-3, 2), F(-1, 2)), F(1, 3))


def test_a_shared_chain_gives_every_degree_as_a_fresh_call():
    """A chain handed to the evaluators and extended in any order of degrees
    gives what fresh calls give: the same Fraction, or the same jet under
    float.hex.  The Laguerre steps are (2m - 1 + alpha, m - 1 + alpha, m)."""
    rng = random.Random(7)
    hexes = lambda jet: [c.hex() for c in jet.coeffs]
    for _ in range(10):
        a = F(rng.randint(0, 8), rng.randint(1, 6))
        b = F(rng.randint(0, 8), rng.randint(1, 6))
        x = F(rng.randint(-9, 9), rng.randint(1, 9))
        jx = Jet.variable((float(x),), 0, 3)
        chains = [], [], [], []
        for n in rng.sample(range(9), 9):
            J, L = JacobiSpec(n, a, b), LaguerreSpec(n, a)
            assert jacobi_eval(J, x, chains[0]) == jacobi_eval(J, x)
            assert laguerre_eval(L, x, chains[1]) == laguerre_eval(L, x)
            assert hexes(jacobi_eval(J, jx, chains[2])) == hexes(jacobi_eval(J, jx))
            assert hexes(laguerre_eval(L, jx, chains[3])) == hexes(laguerre_eval(L, jx))
        assert all(len(c) == 9 for c in chains)
    assert LaguerreSpec(4, F(1, 2)).recurrence == (
        (F(7, 2), F(3, 2), 2), (F(11, 2), F(5, 2), 3), (F(15, 2), F(7, 2), 4))
