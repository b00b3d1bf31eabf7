import math
import random
from fractions import Fraction as F

import pytest

from ttw4d import suites
from ttw4d.diffops import (
    DiffOperator,
    build_example_L1plus,
    build_h,
    build_index_ladder,
    build_jacobi_ladder,
    build_level,
    build_radial_ladder,
    coeff_const,
    coeff_vars,
    example211_scalar,
    identity_diffop,
)
from ttw4d.geometry import laplace_beltrami
from ttw4d.lattice import ladder_action, xi1_closed_form, xi_action
from ttw4d.model import (
    QuantumState,
    SystemParams,
    enumerate_states,
    gauge_for_slot,
    radial_factor,
    slot_factor,
    spectral_chain,
    wavefunction,
)
from ttw4d.numcore import EvalPoint, Jet, opoly_eval
from ttw4d.specfun import JacobiSpec

HALVES = (F(1, 2),) * 4
MIXED = (F(1, 3), F(2, 5), F(3, 7), F(1, 2))


def params_for(k, a=HALVES, omega=F(1)):
    return SystemParams(*k, *a, omega)


def lift1(univariate, axis):
    return lambda p, o: univariate(p[axis], o).lift(p, axis)


def fn_of(expr):
    """Wrap a jets-in, jet-out lambda as a (point, order) evaluator."""
    def ev(point, order):
        xs = [Jet.variable(point, i, order) for i in range(4)]
        return expr(*xs)
    return ev


def rel(x, *scales):
    return abs(x) / max(1.0, *(abs(s) for s in scales))


# -- operator basics -----------------------------------------------------------------

def test_identity_operator():
    f = fn_of(lambda r, t1, t2, t3: (r * t1).sin() + t3)
    pt = (1.2, 0.4, 0.5, 0.6)
    got = identity_diffop().apply(f, pt, 0).value
    assert got == pytest.approx(math.sin(1.2 * 0.4) + 0.6, rel=1e-14)


def test_pure_second_derivative_on_slot3():
    """d²/dθ₃² on sin θ₃ cos θ₃ is -4 times the function."""
    op = DiffOperator({(0, 0, 0, 2): coeff_const(1)})
    f = fn_of(lambda r, t1, t2, t3: t3.sin() * t3.cos())
    for t3 in (0.3, 0.8, 1.2):
        pt = (1.0, 0.5, 0.5, t3)
        got = op.apply(f, pt, 0).value
        assert got == pytest.approx(-4 * math.sin(t3) * math.cos(t3), rel=1e-12)


def test_first_order_radial_term():
    """(3/r) d_r applied to r² at r = 2 gives 6."""
    def three_over_r(r, t1, t2, t3):
        return 3.0 / r
    from ttw4d.diffops import coeff_vars
    op = DiffOperator({(1, 0, 0, 0): coeff_vars(three_over_r)})
    f = fn_of(lambda r, t1, t2, t3: r * r)
    got = op.apply(f, (2.0, 0.5, 0.5, 0.5), 0).value
    assert got == pytest.approx(6.0, rel=1e-14)


def test_linearity():
    p = params_for((2, 1, 1), MIXED)
    op = build_level(p, 2)
    f = fn_of(lambda r, t1, t2, t3: (t2 * 1.3).sin() + t3 * t3)
    g = fn_of(lambda r, t1, t2, t3: (t2 * t3).cos())
    fg = fn_of(lambda r, t1, t2, t3: ((t2 * 1.3).sin() + t3 * t3) * 2.0
               + (t2 * t3).cos() * -0.7)
    pt = (1.0, 0.4, 0.7, 0.9)
    lhs = op.apply(fg, pt, 0).value
    rhs = 2.0 * op.apply(f, pt, 0).value - 0.7 * op.apply(g, pt, 0).value
    assert lhs == pytest.approx(rhs, rel=1e-12)


# -- products, applied by chaining --------------------------------------------------------
#
# A = r^2 d_r,  B = r d_r + t2,  C = r d_t2,  f = r^3 sin t2.  By hand:
#   B f     = (3 + t2) r^3 sin t2
#   A B f   = 3 (3 + t2) r^4 sin t2     (B's coefficient r is differentiated by A)
#   C f     = r^4 cos t2
#   B C f   = (4 + t2) r^4 cos t2
#   A B C f = 4 (4 + t2) r^5 cos t2

def _abc():
    A = DiffOperator({(1, 0, 0, 0): coeff_vars(lambda r, t1, t2, t3: r * r)})
    B = DiffOperator({(1, 0, 0, 0): coeff_vars(lambda r, t1, t2, t3: r),
                      (0, 0, 0, 0): coeff_vars(lambda r, t1, t2, t3: t2)})
    C = DiffOperator({(0, 0, 1, 0): coeff_vars(lambda r, t1, t2, t3: r)})
    return A, B, C


F_R3_SIN = fn_of(lambda r, t1, t2, t3: r * r * r * t2.sin())
PRODUCT_POINTS = ((1.3, 0.4, 0.7, 0.9), (0.8, 0.2, 1.1, 0.5))


def _assert_jet1(jet, value, d_r, d_t2):
    """Value and the four first derivatives (d_t1 = d_t3 = 0) of an order-1 jet."""
    assert jet.order == 1
    got = [jet.value] + [jet.derivative(e) for e in
                         ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    for g, w in zip(got, (value, d_r, 0.0, d_t2, 0.0)):
        assert g == pytest.approx(w, rel=1e-12, abs=1e-12)


def test_product_value_and_first_derivatives():
    A, B, _ = _abc()
    op = A.compose(B)
    for pt in PRODUCT_POINTS:
        r, t2 = pt[0], pt[2]
        s, c = math.sin(t2), math.cos(t2)
        _assert_jet1(op.apply(F_R3_SIN, pt, 1),
                     3 * (3 + t2) * r ** 4 * s,
                     12 * (3 + t2) * r ** 3 * s,
                     3 * r ** 4 * s + 3 * (3 + t2) * r ** 4 * c)


def test_nested_product_is_associative():
    A, B, C = _abc()
    left = A.compose(B).compose(C)
    right = A.compose(B.compose(C))
    for pt in PRODUCT_POINTS:
        r, t2 = pt[0], pt[2]
        s, c = math.sin(t2), math.cos(t2)
        want = (4 * (4 + t2) * r ** 5 * c,
                20 * (4 + t2) * r ** 4 * c,
                4 * r ** 5 * c - 4 * (4 + t2) * r ** 5 * s)
        for op in (left, right):
            _assert_jet1(op.apply(F_R3_SIN, pt, 1), *want)


def test_scale_add_sub_mix_products_and_terms():
    """2 (A B) + C - B C - (-A) on f, with A = r^2 d_r giving 3 r^4 sin t2:
    6 (3 + t2) r^4 sin t2 + r^4 cos t2 - (4 + t2) r^4 cos t2 + 3 r^4 sin t2."""
    A, B, C = _abc()
    op = A.compose(B).scale(2) + C - B.compose(C) - (-A)
    for pt in PRODUCT_POINTS:
        r, t2 = pt[0], pt[2]
        s, c = math.sin(t2), math.cos(t2)
        value = (6 * (3 + t2) + 3) * r ** 4 * s - (3 + t2) * r ** 4 * c
        d_t2 = (6 * r ** 4 * s + (6 * (3 + t2) + 3) * r ** 4 * c
                - r ** 4 * c + (3 + t2) * r ** 4 * s)
        _assert_jet1(op.apply(F_R3_SIN, pt, 1),
                     value, 4 * value / r, d_t2)


def test_max_order_of_products_and_sums():
    A, B, C = _abc()
    assert A.compose(B).max_order == 2
    assert A.compose(B).compose(C).max_order == 3
    assert (A.compose(B) + C).max_order == 2
    d4 = DiffOperator({(0, 2, 2, 0): coeff_const(1)})
    assert (A.compose(B) - d4).max_order == 4
    assert identity_diffop().compose(identity_diffop()).max_order == 0


# -- the nested tower -----------------------------------------------------------------

def test_l3_eigen():
    p = params_for((2, 1, 1), MIXED)
    op = build_level(p, 3)
    for st in (QuantumState(0, 0, 0, 0), QuantumState(0, 0, 0, 2),
               QuantumState(1, 1, 1, 3)):
        d = spectral_chain(p, st)
        psi = wavefunction(p, st)
        f3 = lift1(psi.factors[3], 3)
        for t3 in (0.4, 0.9):
            pt = (1.1, 0.4, 0.6, t3)
            got = op.apply(f3, pt, 0).value
            want = float(d.ell3) * psi.factors[3](t3, 0).value
            assert rel(got - want, got, want) <= 1e-8


def test_tower_eigen_equations():
    """L2 and L1 on partial products, H on the full state, sampled states/points."""
    rng = random.Random(97)
    for k, a in (((1, 1, 1), HALVES), ((2, 1, 1), MIXED)):
        p = params_for(k, a)
        ops = {"H": build_h(p), "L1": build_level(p, 1), "L2": build_level(p, 2),
               "L3": build_level(p, 3)}
        for _ in range(4):
            st = QuantumState(*(rng.randint(0, 2) for _ in range(4)))
            d = spectral_chain(p, st)
            psi = wavefunction(p, st)

            def f23(pt, o):
                return (psi.factors[2](pt[2], o).lift(pt, 2)
                        * psi.factors[3](pt[3], o).lift(pt, 3))

            def f123(pt, o):
                return f23(pt, o) * psi.factors[1](pt[1], o).lift(pt, 1)

            for _ in range(3):
                pt = (rng.uniform(0.7, 1.8),
                      rng.uniform(0.2, 0.8) * math.pi / (2 * float(p.k1)),
                      rng.uniform(0.2, 0.8) * math.pi / (2 * float(p.k2)),
                      rng.uniform(0.2, 0.8) * math.pi / (2 * float(p.k3)))
                g2 = ops["L2"].apply(f23, pt, 0).value
                w2 = float(d.ell2) * f23(pt, 0).value
                assert rel(g2 - w2, g2, w2) <= 1e-8
                g1 = ops["L1"].apply(f123, pt, 0).value
                w1 = float(d.ell1) * f123(pt, 0).value
                assert rel(g1 - w1, g1, w1) <= 1e-8
                gh = ops["H"].apply(psi, pt, 0).value
                wh = float(opoly_eval(d.E, p.omega)) * psi.value(pt)
                assert rel(gh - wh, gh, wh) <= 1e-8


def test_ground_state_energy_isotropic():
    """H Psi = -12 Psi for the k = (1,1,1) halves ground state at 20 points."""
    p = params_for((1, 1, 1))
    H = build_h(p)
    psi = wavefunction(p, (0, 0, 0, 0))
    rng = random.Random(101)
    for _ in range(20):
        pt = (rng.uniform(0.6, 2.2), rng.uniform(0.25, 1.3),
              rng.uniform(0.25, 1.3), rng.uniform(0.25, 1.3))
        got = H.apply(psi, pt, 0).value
        want = -12.0 * psi.value(pt)
        assert rel(got - want, got, want) <= 1e-8


def test_l2_l3_commute_on_generic_functions():
    """[L2, L3] vanishes on non-eigenfunctions too (they share no raw coordinate)."""
    p = params_for((2, 1, 1), MIXED)
    L2, L3 = build_level(p, 2), build_level(p, 3)
    C = L2.compose(L3) - L3.compose(L2)
    rng = random.Random(103)
    for _ in range(10):
        c = [rng.uniform(0.5, 2.0) for _ in range(4)]

        def f(point, order, c=c):
            xs = [Jet.variable(point, i, order) for i in range(4)]
            return ((xs[1] * c[0]).sin() * (xs[2] * c[1]).cos()
                    + (xs[3] * c[2]).sin() + xs[0] * c[3])

        for _ in range(10):
            pt = (rng.uniform(0.7, 1.7), rng.uniform(0.3, 0.7),
                  rng.uniform(0.3, 1.2), rng.uniform(0.3, 1.2))
            got = C.apply(f, pt, 0).value
            # scale against the two orderings separately
            s1 = L2.apply(L3.bind(f), pt, 0).value
            assert rel(got, s1) <= 1e-8


# -- one-step ladders ------------------------------------------------------------------

def test_radial_lowering_pointwise():
    p = params_for((1, 1, 1))
    st = QuantumState(1, 0, 0, 0)
    ch = spectral_chain(p, st)
    op = build_radial_ladder(p, 1, ch.A0, "-")
    src = lift1(radial_factor(p.omega, 1, ch.A0), 0)
    tgt = radial_factor(p.omega, 0, ch.A0 + 2)
    for r in (0.8, 1.3, 2.0):
        pt = (r, 0.5, 0.5, 0.5)
        got = op.apply(src, pt, 0).value
        want = -2.0 * float(p.omega) * tgt(r, 0).value
        assert rel(got - want, got, want) <= 1e-8


def test_radial_raising_pointwise():
    p = params_for((2, 1, 1), MIXED, omega=F(3, 2))
    st = QuantumState(0, 1, 0, 2)
    ch = spectral_chain(p, st)
    op = build_radial_ladder(p, 0, ch.A0, "+")
    src = lift1(radial_factor(p.omega, 0, ch.A0), 0)
    tgt = radial_factor(p.omega, 1, ch.A0 - 2)
    coeff = -2.0 * float(p.omega) * float(ch.A0)  # -2 w (n0+1)(n0+A0) at n0 = 0
    for r in (0.7, 1.1, 1.9):
        pt = (r, 0.4, 0.6, 0.5)
        got = op.apply(src, pt, 0).value
        want = coeff * tgt(r, 0).value
        assert rel(got - want, got, want) <= 1e-8


def test_jacobi_ladders_pointwise():
    """J+ on the bottom state and J- back down, explicit coefficients."""
    p = params_for((2, 1, 1), MIXED)
    ch = spectral_chain(p, QuantumState(0, 0, 0, 0))
    for slot in (1, 2, 3):
        g = gauge_for_slot(p, ch, slot)
        a, b = g.a, g.b
        up = build_jacobi_ladder(g, 0, "+")
        dn = build_jacobi_ladder(g, 1, "-")
        s0 = lift1(slot_factor(g, 0), slot)
        s1 = lift1(slot_factor(g, 1), slot)
        c_up = -2.0 * float(a + b + 1)          # -2 (n+1)(n+a+b+1) at n = 0
        c_dn = -2.0 * float((1 + a) * (1 + b))  # -2 (n+a)(n+b) at n = 1
        for frac in (0.3, 0.55, 0.8):
            t = frac * math.pi / (2 * float(g.k))
            pt = [1.0, 0.5 / float(p.k1), 0.6, 0.7]
            pt[slot] = t
            pt = tuple(pt)
            got_up = up.apply(s0, pt, 0).value
            want_up = c_up * slot_factor(g, 1)(t, 0).value
            assert rel(got_up - want_up, got_up, want_up) <= 1e-8
            got_dn = dn.apply(s1, pt, 0).value
            want_dn = c_dn * slot_factor(g, 0)(t, 0).value
            assert rel(got_dn - want_dn, got_dn, want_dn) <= 1e-8


def test_slot3_halves_raising_coefficient():
    """Halves slot 3: J+ Θ0 = -4 Θ1 (the sin·cos base gains a degree)."""
    p = params_for((1, 1, 1))
    ch = spectral_chain(p, QuantumState(0, 0, 0, 0))
    g = gauge_for_slot(p, ch, 3)
    op = build_jacobi_ladder(g, 0, "+")
    s0 = lift1(slot_factor(g, 0), 3)
    for t in (0.4, 0.9, 1.3):
        pt = (1.0, 0.6, 0.7, t)
        got = op.apply(s0, pt, 0).value
        want = -4.0 * slot_factor(g, 1)(t, 0).value
        assert rel(got - want, got, want) <= 1e-8


def test_index_ladders_pointwise():
    """K±a move (n, a) -> (n±1, a∓2); the target lives in a shifted gauge."""
    p = params_for((2, 1, 1), MIXED)
    ch = spectral_chain(p, QuantumState(0, 1, 0, 0))
    g = gauge_for_slot(p, ch, 1)
    a, b = g.a, g.b
    dn = build_index_ladder(g, 1, "-")
    s1 = lift1(slot_factor(g, 1), 1)
    c_dn = 2.0 * float((2 + a + b) * (1 + b))  # 2 (n+a+b+1)(n+b) at n = 1
    tgt_dn = slot_factor(g.shifted(+2), 0)
    up = build_index_ladder(g, 1, "+")
    c_up = 2.0 * float(2 * (1 + a))            # 2 (n+1)(n+a) at n = 1
    tgt_up = slot_factor(g.shifted(-2), 2)
    for t in (0.25, 0.5, 0.7):
        pt = (1.0, t, 0.6, 0.7)
        got = dn.apply(s1, pt, 0).value
        want = c_dn * tgt_dn(t, 0).value
        assert rel(got - want, got, want) <= 1e-8
        got2 = up.apply(s1, pt, 0).value
        want2 = c_up * tgt_up(t, 0).value
        assert rel(got2 - want2, got2, want2) <= 1e-8


def test_index_raising_bottom_coefficient():
    """K+a at n = 0 has coefficient 2a."""
    p = params_for((2, 1, 1), MIXED)
    ch = spectral_chain(p, QuantumState(0, 0, 0, 0))
    g = gauge_for_slot(p, ch, 2)
    op = build_index_ladder(g, 0, "+")
    s0 = lift1(slot_factor(g, 0), 2)
    tgt = slot_factor(g.shifted(-2), 1)
    for t in (0.4, 0.8):
        pt = (1.0, 0.5, t, 0.7)
        got = op.apply(s0, pt, 0).value
        want = 2.0 * float(g.a) * tgt(t, 0).value
        assert rel(got - want, got, want) <= 1e-8


def test_lowering_annihilates_bottom_states():
    """Differential lowering at the lattice floor gives exactly zero, matching
    the lattice convention that below-lattice terms are the zero vector."""
    p = params_for((2, 1, 1), MIXED)
    ch = spectral_chain(p, QuantumState(0, 0, 0, 0))
    pt = (1.2, 0.35, 0.6, 0.8)
    radial = build_radial_ladder(p, 0, ch.A0, "-")
    f0 = lift1(radial_factor(p.omega, 0, ch.A0), 0)
    assert abs(radial.apply(f0, pt, 0).value) <= 1e-12 * radial_factor(
        p.omega, 0, ch.A0)(pt[0], 0).value
    for slot in (1, 2, 3):
        g = gauge_for_slot(p, ch, slot)
        s0 = lift1(slot_factor(g, 0), slot)
        ref = abs(slot_factor(g, 0)(pt[slot], 0).value)
        assert abs(build_jacobi_ladder(g, 0, "-").apply(s0, pt, 0).value) <= 1e-12 * ref
        assert abs(build_index_ladder(g, 0, "-").apply(s0, pt, 0).value) <= 1e-12 * ref
    assert ladder_action("K0-", p, QuantumState(0, 0, 0, 0)).is_zero()


# -- chained composites vs the lattice ---------------------------------------------------

def test_chained_xi1_matches_lattice():
    """Xi1+ as a composition of one J+ and two K0- steps, k = (2,1,1)."""
    p = params_for((2, 1, 1))
    st = QuantumState(2, 0, 0, 0)
    ch = spectral_chain(p, st)
    g1 = gauge_for_slot(p, ch, 1)
    J = build_jacobi_ladder(g1, st.n1, "+")
    K_first = build_radial_ladder(p, 2, ch.A0, "-")
    K_second = build_radial_ladder(p, 1, ch.A0 + 2, "-")
    op = K_second.compose(K_first).compose(J)
    tgt = QuantumState(0, 1, 0, 0)
    coeff = float(opoly_eval(xi_action(1, "+", p, st).coeff(tgt), p.omega))
    assert coeff == float(opoly_eval(xi1_closed_form("+", p, st, "composed"), p.omega))
    psi_src = wavefunction(p, st)
    psi_tgt = wavefunction(p, tgt)
    rng = random.Random(107)
    for _ in range(6):
        pt = (rng.uniform(0.8, 1.8), rng.uniform(0.15, 0.6),
              rng.uniform(0.3, 1.2), rng.uniform(0.3, 1.2))
        got = op.apply(psi_src, pt, 0).value
        want = coeff * psi_tgt.value(pt)
        assert rel(got - want, got, want) <= 1e-7


def test_chained_xi2_matches_lattice():
    """Xi2+ = K-a(slot 1) ∘ (J2+)² at k = (2,1,1); the slot-1 parameter shifts."""
    p = params_for((2, 1, 1))
    st = QuantumState(1, 2, 0, 0)
    ch = spectral_chain(p, st)
    g2 = gauge_for_slot(p, ch, 2)
    J_first = build_jacobi_ladder(g2, 0, "+")
    J_second = build_jacobi_ladder(g2, 1, "+")
    g1 = gauge_for_slot(p, ch, 1)
    K = build_index_ladder(g1, st.n1, "-")
    op = K.compose(J_second).compose(J_first)
    tgt = QuantumState(1, 1, 2, 0)
    vec = xi_action(2, "+", p, st)
    coeff = float(opoly_eval(vec.coeff(tgt), p.omega))
    assert not vec.is_zero()
    psi_src = wavefunction(p, st)
    psi_tgt = wavefunction(p, tgt)
    rng = random.Random(109)
    for _ in range(6):
        pt = (rng.uniform(0.8, 1.8), rng.uniform(0.15, 0.6),
              rng.uniform(0.3, 1.2), rng.uniform(0.3, 1.2))
        got = op.apply(psi_src, pt, 0).value
        want = coeff * psi_tgt.value(pt)
        assert rel(got - want, got, want) <= 1e-7


# -- the explicit fifth-order raising sum, k = (2,1,1) ------------------------------------

def test_explicit_operator_max_order():
    p = params_for((2, 1, 1))
    op = build_example_L1plus(p)
    assert op.max_order == 5


def test_explicit_operator_requires_k211():
    with pytest.raises(ValueError):
        build_example_L1plus(params_for((1, 1, 1)))
    with pytest.raises(ValueError):
        example211_scalar(params_for((2, 1, 2)), QuantumState(2, 2, 2, 2))
    with pytest.raises(ValueError):
        example211_scalar(params_for((2, 1, 1)), QuantumState(2, 2, 2, 2),
                          variant="nonsense")


def test_corrected_scalar_matches_lattice_sum():
    """Scalar-substituted corrected table reproduces Xi1+ + Xi1- pointwise."""
    p = params_for((2, 1, 1))
    rng = random.Random(113)
    for st in (QuantumState(4, 2, 2, 2), QuantumState(5, 3, 2, 2)):
        op = example211_scalar(p, st, variant="corrected")
        vec = xi_action(1, "+", p, st) + xi_action(1, "-", p, st)
        psi = wavefunction(p, st)
        targets = [(tgt, float(opoly_eval(c, p.omega)), wavefunction(p, tgt))
                   for tgt, c in vec.items()]
        for _ in range(5):
            pt = (rng.uniform(0.8, 1.6), rng.uniform(0.15, 0.55),
                  rng.uniform(0.3, 1.2), rng.uniform(0.3, 1.2))
            got = op.apply(psi, pt, 0).value
            want = sum(c * w.value(pt) for _, c, w in targets)
            assert rel(got - want, got, want) <= 1e-7


def test_raising_sum_commutes_with_h_on_eigenfunctions():
    """H (L1+ psi) = E (L1+ psi): the image is a two-state combination with
    equal energy, so the commutator with H vanishes on basis states.  Uses the
    working-table scalar form; the typeset table breaks this (see the
    acceptance suite, where that failure is reported rather than hidden)."""
    p = params_for((2, 1, 1))
    H = build_h(p)
    st = QuantumState(4, 2, 2, 2)
    op = example211_scalar(p, st, variant="corrected")
    E = float(opoly_eval(spectral_chain(p, st).E, p.omega))
    psi = wavefunction(p, st)
    image = op.bind(psi)
    rng = random.Random(127)
    for _ in range(5):
        pt = (rng.uniform(0.9, 1.5), rng.uniform(0.2, 0.5),
              rng.uniform(0.4, 1.1), rng.uniform(0.4, 1.1))
        got = H.apply(image, pt, 0).value
        want = E * image(pt, 0).value
        assert rel(got - want, got, want) <= 1e-7


# -- per-point evaluation contexts ----------------------------------------------------------

def test_typeset_operator_evaluates_psi_once_per_order():
    """The nine operator monomials of the typeset form ask for psi at orders
    3, 4 and 5 only; the context of one apply evaluates each order once."""
    p = params_for((2, 1, 1), MIXED)
    psi = wavefunction(p, (4, 2, 2, 2))
    orders = []

    def recording(point, order):
        orders.append(order)
        return psi(point, order)

    build_example_L1plus(p).apply(recording, (1.2, 0.3, 0.7, 0.8), 0)
    assert sorted(orders) == [3, 4, 5]


def _sharing_cases(p):
    st = QuantumState(4, 2, 3, 1)
    ch = spectral_chain(p, st)
    g2 = gauge_for_slot(p, ch, 2)
    ops = [build_h(p), build_level(p, 1), laplace_beltrami(p),
           build_radial_ladder(p, st.n0, ch.A0, "-"),
           build_jacobi_ladder(g2, st.n2, "+"),
           build_example_L1plus(p),
           example211_scalar(p, st, "corrected"),
           example211_scalar(p, st, "printed")]
    # the states share slot factors with st and with each other, and some
    # share a quantum number with st under another A0 or A1
    fns = [wavefunction(p, s) for s in (st, (2, 3, 3, 1), (6, 1, 3, 1), (4, 3, 3, 1),
                                        (2, 2, 1, 1), (0, 0, 0, 0))]
    fns += suites.test_functions(2, 5)
    return ops, fns


def test_shared_context_is_bit_identical_to_fresh_ones():
    """Applying every operator to every function through one context per
    point gives, under float.hex, the jets that a fresh context per call gives."""
    p = params_for((2, 1, 1), MIXED)
    ops, fns = _sharing_cases(p)
    hexes = lambda jet: [c.hex() for c in jet.coeffs]
    for pt in ((1.2, 0.3, 0.7, 0.8), (0.9, 0.45, 1.1, 0.35)):
        ctx = EvalPoint(pt)
        # higher output order first, so lower orders are served from the memo
        for out_order in (1, 0):
            for op in ops:
                for f in fns:
                    shared = op.apply(f, ctx, out_order)
                    fresh = op.apply(f, EvalPoint(pt), out_order)
                    assert hexes(shared) == hexes(fresh)
                    assert hexes(op.apply(f, pt, out_order)) == hexes(fresh)


def test_value_apply_is_the_order_one_jet_truncated():
    """The value path of `apply` (out_order 0) gives, under float.hex, the
    constant term of the order-1 jet path, for every operator and function
    of the sharing cases at both points."""
    p = params_for((2, 1, 1), MIXED)
    ops, fns = _sharing_cases(p)
    for pt in ((1.2, 0.3, 0.7, 0.8), (0.9, 0.45, 1.1, 0.35)):
        for op in ops:
            for f in fns:
                value = op.apply(f, EvalPoint(pt), 0)
                jet = op.apply(f, EvalPoint(pt), 1).truncated(0)
                assert [c.hex() for c in value.coeffs] == [c.hex() for c in jet.coeffs]


def test_contexts_at_one_point_share_no_memo(monkeypatch):
    """Two contexts at one point share no memo.  Over the eigen box at one
    context, each (axis, k, order) trig block is built once (one sine per
    slot axis) and each Jacobi step of each (a, b) is taken once; a second
    context at the same point builds them all again."""
    p = params_for((2, 1, 1), MIXED)
    psi = wavefunction(p, (4, 2, 2, 2))
    calls = []

    def counted(point, order):
        calls.append(order)
        return psi(point, order)

    pt = (1.2, 0.3, 0.7, 0.8)
    a, b = EvalPoint(pt), EvalPoint(pt)
    assert a == b and a.memo is not b.memo
    assert EvalPoint.of(a) is a and EvalPoint.of(pt) is not a
    H = build_h(p)
    H.apply(counted, a, 0)
    H.apply(counted, a, 0)
    assert calls == [2] and (counted, 2) in a.memo and not b.memo
    H.apply(counted, b, 0)
    assert calls == [2, 2]

    sines, steps = [], []
    sin = Jet.sin
    floats = JacobiSpec.floats.func  # the steps that jet arguments read

    class Steps(tuple):
        def __getitem__(self, i):
            steps.append((self.a, self.b, i))
            return tuple.__getitem__(self, i)

    def counted_steps(spec):
        degree1, out = floats(spec)
        out = Steps(out)
        out.a, out.b = spec.a, spec.b
        return degree1, out

    monkeypatch.setattr(Jet, "sin", lambda jet: sines.append((jet.base, jet.order)) or sin(jet))
    monkeypatch.setattr(JacobiSpec, "floats", property(counted_steps))
    states = list(enumerate_states(3))
    first = suites.eigen_residuals(p, states, [EvalPoint(pt)])
    assert len(sines) == len(set(sines)) == 3
    assert steps and len(steps) == len(set(steps))
    once = (sorted(sines), sorted(steps))
    assert suites.eigen_residuals(p, states, [EvalPoint(pt)]) == first
    assert (sorted(sines), sorted(steps)) == (sorted(once[0] * 2), sorted(once[1] * 2))
