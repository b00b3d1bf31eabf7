import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    dict_jet,
    dict_jet_add,
    dict_jet_add_scalar,
    dict_jet_compose,
    dict_jet_mul,
    poly_add,
    poly_mul,
)
from ttw4d.numcore import (
    Jet,
    OmegaPoly,
    multi_indices,
    opoly_eval,
    pochhammer,
)


# -- pochhammer ----------------------------------------------------------------

def test_pochhammer_values():
    assert pochhammer(3, 2) == 12
    assert pochhammer(F(7, 3), 0) == 1
    assert pochhammer(-2, 3) == 0
    assert pochhammer(F(1, 2), 3) == F(1, 2) * F(3, 2) * F(5, 2)


def test_pochhammer_recurrence():
    rng = random.Random(7)
    for _ in range(60):
        x = F(rng.randint(-12, 12), rng.randint(1, 9))
        m = rng.randint(0, 8)
        assert pochhammer(x, m + 1) == pochhammer(x, m) * (x + m)


def test_pochhammer_rejects_negative_length():
    with pytest.raises(ValueError):
        pochhammer(F(1, 2), -1)


# -- omega polynomials -----------------------------------------------------------

def test_opoly_eval_examples():
    p = OmegaPoly.omega(scale=-12)
    assert opoly_eval(p, 1) == -12
    q = OmegaPoly.omega(power=2, scale=4)
    assert opoly_eval(q, F(1, 2)) == 1
    assert opoly_eval(OmegaPoly.zero(), F(3, 7)) == 0


def test_opoly_degree_and_coeff():
    p = OmegaPoly.omega(0, F(3, 2)) - OmegaPoly.omega(power=2, scale=F(5, 3))
    assert p.degree == 2
    assert p.coeff(0) == F(3, 2)
    assert p.coeff(1) == 0
    assert p.coeff(2) == F(-5, 3)
    assert p.coeff(9) == 0
    assert not p.is_zero()
    assert OmegaPoly.zero().is_zero()


def _random_opoly(rng):
    deg = rng.randint(0, 4)
    return OmegaPoly([F(rng.randint(-6, 6), rng.randint(1, 5))
                      for _ in range(deg + 1)])


def test_opoly_ring_axioms():
    """Commutativity, associativity, distributivity on random triples."""
    rng = random.Random(11)
    for _ in range(40):
        a, b, c = (_random_opoly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == OmegaPoly.zero()
        assert a * OmegaPoly.omega(0, 1) == a
        # evaluation is a ring homomorphism
        w = F(rng.randint(-3, 3), rng.randint(1, 4))
        assert opoly_eval(a * b + c, w) == opoly_eval(a, w) * opoly_eval(b, w) + opoly_eval(c, w)


def test_opoly_omega_rejects_a_negative_power():
    for power in (-1, -3):
        with pytest.raises(ValueError, match="power"):
            OmegaPoly.omega(power, 3)


def test_opoly_scalar_mixing_and_pow():
    p = OmegaPoly.omega() * 2 + 3
    assert opoly_eval(p, F(1, 2)) == 4
    assert p**2 == p * p
    assert p**0 == OmegaPoly.omega(0, 1)
    assert (p / 2).coeff(1) == 1


def test_opoly_str():
    assert str(OmegaPoly.omega(scale=-15)) == "-15*w"
    assert str(OmegaPoly.zero()) == "0"
    s = str(OmegaPoly.omega(0, F(3, 2)) - OmegaPoly.omega(power=2, scale=F(5, 3)))
    assert s == "3/2 - 5/3*w^2"


def test_opoly_hash_agrees_with_equality():
    """A constant equals its Fraction and the zero poly equals 0, so each must
    hash like the number it equals."""
    for c in (3, F(3), F(-5, 7)):
        assert OmegaPoly((c,)) == c
        assert hash(OmegaPoly((c,))) == hash(c)
        assert len({OmegaPoly((c,)), c}) == 1
    assert OmegaPoly(()) == 0 and hash(OmegaPoly(())) == hash(0)
    assert len({OmegaPoly((0, 0)), OmegaPoly.zero(), 0, F(0)}) == 1
    assert {OmegaPoly.omega(1, 2): "w"}[OmegaPoly((0, 2))] == "w"
    # results of arithmetic compare and hash in their reduced form
    half = OmegaPoly((F(1, 2), F(3, 2)))
    assert half * 2 == OmegaPoly((1, 3)) and hash(half * 2) == hash(OmegaPoly((1, 3)))
    one = OmegaPoly((F(1, 2),)) + F(1, 2)
    assert one == 1 and hash(one) == hash(1) and len({one, 1, F(1)}) == 1
    assert {OmegaPoly.omega(1, 4) / 2: "w"}[OmegaPoly((0, 2))] == "w"


_SCALARS = st.one_of(st.integers(-12, 12),
                     st.fractions(min_value=-6, max_value=6, max_denominator=9))
_POLYS = st.lists(_SCALARS, max_size=4).map(OmegaPoly)


def _kernel_form(p) -> dict:
    """p as {power: Fraction}, after checking the kernel's normal form."""
    assert isinstance(p, OmegaPoly)
    assert type(p.den) is int and p.den > 0, p.den
    assert all(type(x) is int for x in p.num), p.num
    assert math.gcd(p.den, *p.num) == 1, (p.num, p.den)
    assert not p.num or p.num[-1] != 0, p.num  # no trailing zero
    cs = p.coeffs
    assert type(cs) is tuple and all(type(c) is F for c in cs), cs
    assert cs == tuple(F(x, p.den) for x in p.num)
    # hash agrees with ==, also against the int or Fraction a constant equals
    assert p == OmegaPoly(cs) and hash(p) == hash(OmegaPoly(cs))
    if p.degree <= 0:
        c = p.coeff(0)
        assert p == c and hash(p) == hash(c) and len({p, c}) == 1
        if c.denominator == 1:
            assert p == int(c) and hash(p) == hash(int(c))
    return {d: c for d, c in enumerate(cs) if c}


def _as_dict(x) -> dict:
    if isinstance(x, OmegaPoly):
        return {d: c for d, c in enumerate(x.coeffs) if c}
    return {0: F(x)} if x else {}


@settings(max_examples=300, deadline=None)
@given(a=_POLYS, b=st.one_of(_POLYS, _SCALARS), n=st.integers(0, 3), s=_SCALARS)
def test_opoly_kernel_normal_form(a, b, n, s):
    """+, -, *, ** and scalar / keep the integer kernel in normal form and
    equal the Fraction dict reference, with a scalar on either side."""
    A, B = _as_dict(a), _as_dict(b)
    _kernel_form(a)
    assert _kernel_form(a + b) == _kernel_form(b + a) == poly_add(A, B)
    assert _kernel_form(a - b) == poly_add(A, B, -1)
    assert _kernel_form(b - a) == poly_add(B, A, -1)
    assert _kernel_form(a * b) == _kernel_form(b * a) == poly_mul(A, B)
    assert _kernel_form(-a) == poly_add({}, A, -1)
    want = {0: F(1)}
    for _ in range(n):
        want = poly_mul(want, A)
    assert _kernel_form(a ** n) == want
    if s:
        assert _kernel_form(a / s) == poly_mul(A, {0: 1 / F(s)})
        assert _kernel_form(a / -s) == poly_mul(A, {0: -1 / F(s)})
    for zero in (0, F(0)):
        with pytest.raises(ZeroDivisionError):
            a / zero


# -- multi-indices and jet bookkeeping -------------------------------------------

def test_multi_indices_count():
    for nvars in (1, 2, 4):
        for order in range(5):
            idx = multi_indices(nvars, order)
            assert len(idx) == math.comb(order + nvars, nvars)
            assert len(set(idx)) == len(idx)
            assert all(sum(mu) <= order and len(mu) == nvars for mu in idx)


def test_jet_table_is_dense():
    j = Jet.variable((1.0, 2.0, 0.5, 0.25), 2, 3)
    assert len(j.coeffs) == math.comb(3 + 4, 4)


# -- jet arithmetic ---------------------------------------------------------------

def test_jet_square_of_coordinate():
    x = Jet.variable((2.0,), 0, 2)
    sq = x * x
    assert sq.coeff((0,)) == pytest.approx(4.0)
    assert sq.coeff((1,)) == pytest.approx(4.0)
    assert sq.coeff((2,)) == pytest.approx(1.0)


def test_jet_additive_inverse():
    x = Jet.variable((0.7, 1.3), 1, 3)
    f = x * x + 2.0
    g = f + (-f)
    assert all(c == 0.0 for c in g.coeffs)


def test_jet_reciprocal_geometric_series():
    x = Jet.variable((0.0,), 0, 2)
    r = (x + 1.0).reciprocal()
    assert r.coeff((0,)) == pytest.approx(1.0)
    assert r.coeff((1,)) == pytest.approx(-1.0)
    assert r.coeff((2,)) == pytest.approx(1.0)


def test_jet_div_matches_mul_by_reciprocal():
    rng = random.Random(3)
    base = (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
    x = Jet.variable(base, 0, 3)
    y = Jet.variable(base, 1, 3)
    num = x * y + 1.0
    den = y + 3.0
    d1 = num / den
    d2 = num * den.reciprocal()
    for mu in multi_indices(2, 3):
        assert d1.coeff(mu) == pytest.approx(d2.coeff(mu), abs=1e-14)


def test_jet_elementary_series():
    x = Jet.variable((0.0,), 0, 3)
    s = x.sin()
    assert [s.coeff((k,)) for k in range(4)] == pytest.approx([0.0, 1.0, 0.0, -1 / 6])
    e = x.truncated(2).exp()
    assert [e.coeff((k,)) for k in range(3)] == pytest.approx([1.0, 1.0, 0.5])
    four = Jet.constant(4.0, (0.0,), 2)
    root = four.power(0.5)
    assert root.value == pytest.approx(2.0)
    assert root.coeff((1,)) == 0.0


def test_jet_trig_identity():
    x = Jet.variable((0.4, 1.1), 0, 3)
    y = Jet.variable((0.4, 1.1), 1, 3)
    f = x * y + 0.3
    one = f.sin() * f.sin() + f.cos() * f.cos()
    assert one.value == pytest.approx(1.0)
    for mu in multi_indices(2, 3):
        if sum(mu):
            assert one.coeff(mu) == pytest.approx(0.0, abs=1e-13)


def _central_diff(fn, point, mu, h=1e-3):
    """Nested central finite differences for a mixed partial of order <= 3."""
    def diff_axis(g, i):
        def out(q):
            qp = list(q)
            qm = list(q)
            qp[i] += h
            qm[i] -= h
            return (g(qp) - g(qm)) / (2 * h)
        return out

    g = fn
    for i, m in enumerate(mu):
        for _ in range(m):
            g = diff_axis(g, i)
    return g(list(point))


def test_jet_derivatives_match_finite_differences():
    """Jets against central differences, orders <= 3, loose FD tolerance."""
    point = (0.9, 1.4)

    def f(q):
        return math.sin(q[0] * q[1]) + math.exp(0.3 * q[0]) / (1.0 + q[1] ** 2)

    x = Jet.variable(point, 0, 3)
    y = Jet.variable(point, 1, 3)
    jf = (x * y).sin() + (x * 0.3).exp() / (y * y + 1.0)

    for mu in multi_indices(2, 3):
        if sum(mu) == 0:
            continue
        want = _central_diff(f, point, mu)
        got = jf.derivative(mu)
        assert abs(got - want) <= 1e-5 * max(1.0, abs(want)), (mu, got, want)


def test_jet_derivative_is_factorial_times_coeff():
    x = Jet.variable((1.5,), 0, 4)
    f = x.power(4)
    assert f.derivative((3,)) == pytest.approx(24 * 1.5)
    assert f.derivative((4,)) == pytest.approx(24.0)
    with pytest.raises(ValueError):
        f.derivative((5,))


def test_jet_integer_power_of_negative_base():
    x = Jet.variable((-1.5,), 0, 4)
    f = x.power(-3)
    # d^m/dx^m x^-3 = x^-3, -3 x^-4, 12 x^-5, -60 x^-6, 360 x^-7
    want = [1, -3, 12, -60, 360]
    for m, c in enumerate(want):
        assert f.derivative((m,)) == pytest.approx(c * (-1.5) ** (-3 - m), rel=1e-14)
    cube = x.power(3)
    assert [cube.derivative((m,)) for m in range(5)] == pytest.approx(
        [-3.375, 6.75, -9.0, 6.0, 0.0], rel=1e-14)


def test_jet_power_guards():
    with pytest.raises(ZeroDivisionError):
        Jet.variable((0.0,), 0, 2).power(2)
    with pytest.raises(ValueError):
        Jet.variable((-1.0,), 0, 2).power(0.5)
    with pytest.raises(ValueError):
        Jet.variable((0.0,), 0, 2).power(1.5)


def test_jet_derivative_jet_consistency():
    x = Jet.variable((0.8, 0.6), 0, 3)
    y = Jet.variable((0.8, 0.6), 1, 3)
    f = (x * y).exp()
    d = f.derivative_jet((1, 0))
    assert d.order == 2
    assert d.value == pytest.approx(f.derivative((1, 0)))
    assert d.derivative((0, 1)) == pytest.approx(f.derivative((1, 1)))


def test_derivative_jet_builds_the_truncation_bit_for_bit():
    """derivative_jet(mu, o) is derivative_jet(mu).truncated(o) under
    float.hex, for random jets in 1 and 4 variables at orders 0-5."""
    rng = random.Random(23)
    hexes = lambda jet: [c.hex() for c in jet.coeffs]
    for nvars in (1, 4):
        for order in range(6):
            size = len(multi_indices(nvars, order))
            f = Jet((0.5,) * nvars, order,
                    [rng.choice((0.0, -0.0, rng.uniform(-5, 5))) for _ in range(size)])
            for mu in multi_indices(nvars, order):
                full = f.derivative_jet(mu)
                for o in range(full.order + 1):
                    assert hexes(f.derivative_jet(mu, o)) == hexes(full.truncated(o))
                with pytest.raises(ValueError):
                    f.derivative_jet(mu, full.order + 1)


def test_jet_lift_embeds_on_axis():
    u = Jet.variable((0.5,), 0, 2)
    f = u * u + 1.0
    base4 = (2.0, 0.5, 0.7, 0.9)
    g = f.lift(base4, 1)
    assert g.value == pytest.approx(1.25)
    assert g.derivative((0, 1, 0, 0)) == pytest.approx(1.0)
    assert g.derivative((0, 0, 1, 0)) == 0.0
    with pytest.raises(ValueError):
        g.lift(base4, 0)


def test_jet_mismatch_and_immutability():
    a = Jet.variable((0.0,), 0, 2)
    b = Jet.variable((1.0,), 0, 2)
    with pytest.raises(ValueError):
        _ = a + b
    with pytest.raises(AttributeError):
        a.order = 3


# -- flat core against the dict-based reference, bit for bit ---------------------

_LAYOUTS = ((4, 2), (4, 5), (1, 5), (4, 0), (1, 0), (1, 2))
_entry = st.one_of(st.just(0.0), st.just(-0.0),
                   st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@st.composite
def _jet_pair(draw):
    nvars, order = draw(st.sampled_from(_LAYOUTS))
    size = math.comb(order + nvars, nvars)
    a, b = (draw(st.lists(_entry, min_size=size, max_size=size)) for _ in range(2))
    series = draw(st.lists(_entry, min_size=order + 1, max_size=order + 1))
    return nvars, order, a, b, series


def _bits(values):
    """float.hex of each entry, so -0.0 and +0.0 differ."""
    return [float.hex(c) for c in values]


@settings(max_examples=60, deadline=None)
@given(_jet_pair())
@example((1, 2, [1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [1.0, 1.0, 1.0]))  # univariate sums
def test_flat_jet_core_matches_dict_reference(case):
    nvars, order, a, b, series = case
    base = (0.5,) * nvars
    ja, jb = Jet(base, order, a), Jet(base, order, b)
    da, db = dict_jet(nvars, order, a), dict_jet(nvars, order, b)
    assert _bits((ja * jb).coeffs) == _bits(dict_jet_mul(da, db, order).values())
    assert _bits((ja + jb).coeffs) == _bits(dict_jet_add(da, db).values())
    negb = {mu: -c for mu, c in db.items()}
    assert _bits((ja - jb).coeffs) == _bits(dict_jet_add(da, negb).values())
    assert _bits((ja + series[0]).coeffs) == _bits(dict_jet_add_scalar(da, series[0]).values())
    assert _bits(ja._compose(series).coeffs) == _bits(
        dict_jet_compose(da, series, order).values())
