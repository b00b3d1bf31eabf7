import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from oracles import (chain_reference, op_apply, poly_add, poly_mul, vec_add, vec_scale,
                     walk_reference, xi_steps_reference)
from ttw4d.lattice import (
    DivisorSingular,
    IDENTITY_KINDS,
    LatticeOperator,
    LatticeVector,
    M1_minus_action,
    check_identity,
    commutator,
    h_operator,
    identity_operator,
    identity_states,
    interior_margins,
    is_interior,
    l_operator,
    ladder_action,
    lpm_operator,
    m1_minus_operator,
    p_operator,
    s1_value,
    symmetrized_triple,
    window_independence,
    xi1_closed_form,
    xi_action,
    xi_class_check,
    xi_operator,
    xi_sweep,
)
from ttw4d import lattice
from ttw4d.cli import DEFAULT_A_GRID, DEFAULT_K_GRID
from ttw4d.model import (QuantumState, SystemParams, enumerate_states, parse_rational,
                         spectral_chain)
from ttw4d.numcore import OmegaPoly

HALVES = (F(1, 2),) * 4
MIXED = (F(1, 3), F(2, 5), F(3, 7), F(1, 2))

GRID = [((1, 1, 1), HALVES), ((2, 1, 1), HALVES), ((2, 1, 1), MIXED),
        ((F(3, 2), F(3, 2), 1), HALVES), ((2, 1, 2), MIXED)]


def params_for(k, a=HALVES):
    return SystemParams(*k, *a)


# -- lattice vectors --------------------------------------------------------------

def test_vector_basics():
    st = QuantumState(1, 2, 3, 4)
    v = LatticeVector.basis(st, 3)
    assert v.coeff(st) == OmegaPoly.const(3)
    assert v.coeff(QuantumState(0, 0, 0, 0)).is_zero()
    z = v - v
    assert z.is_zero() and len(z) == 0  # exact cancellation drops the entry
    w = v + v.scale(-1)
    assert w == LatticeVector.zero()
    assert (v + v).coeff(st) == OmegaPoly.const(6)


# A polynomial is drawn as {power: coefficient}, a vector as {state: polynomial}
# and an operator as {state: vector}, over a small box so that terms collide.
_NF_STATES = hst.tuples(hst.integers(0, 2), *[hst.integers(0, 1)] * 3)
_NF_COEFFS = hst.sampled_from((F(-2), F(-1), F(-1, 2), F(1, 3), F(1), F(2)))
_NF_POLYS = hst.dictionaries(hst.integers(0, 3), _NF_COEFFS, max_size=3)
_NF_VECS = hst.dictionaries(_NF_STATES, _NF_POLYS, max_size=5).map(
    lambda u: {st: p for st, p in u.items() if p})
_NF_TABLES = hst.dictionaries(_NF_STATES, _NF_VECS, max_size=4)


def _poly(p: dict) -> OmegaPoly:
    return OmegaPoly([p.get(d, 0) for d in range(max(p, default=-1) + 1)])


def _vec(u: dict) -> LatticeVector:
    return LatticeVector({st: _poly(p) for st, p in u.items()})


def _operator(table: dict) -> LatticeOperator:
    images = {st: _vec(u) for st, u in table.items()}
    return LatticeOperator(lambda st: images.get(st, LatticeVector.zero()))


def _normal_poly(p: OmegaPoly) -> dict:
    """p as {power: coefficient}, after checking that it is in normal form."""
    cs = p.coeffs
    assert type(cs) is tuple and all(type(c) is F for c in cs), cs
    assert not cs or cs[-1] != 0, cs  # no trailing zero
    return {d: c for d, c in enumerate(cs) if c}


def _normal_vec(v: LatticeVector) -> dict:
    """v as {state: {power: coefficient}}, after checking its normal form."""
    out = {}
    for st, p in v.items():
        assert type(st) is QuantumState, st
        assert not p.is_zero(), st  # no zero term
        out[st] = _normal_poly(p)
    return out


@settings(max_examples=150, deadline=None)
@given(u=_NF_VECS, w=_NF_VECS, c=_NF_POLYS, p=_NF_POLYS, r=_NF_POLYS,
       a=_NF_TABLES, b=_NF_TABLES, st=_NF_STATES)
def test_lattice_algebra_keeps_normal_form(u, w, c, p, r, a, b, st):
    """+, -, scale, OmegaPoly *, on_vector and @ equal the dict reference, and
    every result is in normal form, also where terms cancel exactly."""
    v = vec_add(w, u, -1)  # u + v = w cancels u's terms, leading ones included
    U, V, W = _vec(u), _vec(v), _vec(w)
    assert _normal_vec(U + V) == w
    assert _normal_vec(U - V) == vec_add(u, v, -1)
    assert _normal_vec(U + (-U)) == {} and _normal_vec(U - U) == {}
    assert _normal_vec(U.scale(_poly(c))) == vec_scale(u, c)
    q = poly_add(r, p, -1)  # p + q = r cancels p's leading terms when deg r < deg p
    P, Q = _poly(p), _poly(q)
    assert _normal_poly(P + Q) == r
    assert _normal_poly(P - Q) == poly_add(p, q, -1)
    assert _normal_poly(P * Q) == poly_mul(p, q)
    assert _normal_poly(P * _poly(c)) == poly_mul(p, c)
    A, B = _operator(a), _operator(b)
    assert _normal_vec(A.on_vector(U + V)) == op_apply(a, w)
    assert _normal_vec((A - A).on_vector(U)) == {}
    AB = A @ B
    for s in (*b, st):
        assert _normal_vec(AB(s)) == op_apply(a, b.get(s, {}))
    assert _normal_vec(AB.on_vector(U)) == op_apply(a, op_apply(b, u))


def test_operator_memo_is_per_instance():
    """An operator runs its rule once per state for its own lifetime, inside
    every expression that shares it; a fresh instance runs it again."""
    p = params_for((2, 1, 1), MIXED)
    st = identity_states(p, 1)[0]
    calls = Counter()

    def counted(name, i, sign):
        inner = lpm_operator(p, i, sign)

        def rule(s):
            calls[name, s] += 1
            return inner(s)
        return LatticeOperator(rule)

    A, B = counted("A", 1, "+"), counted("B", 2, "-")
    symmetrized_triple(A, B, B)(st)
    assert len(calls) > 2 and set(calls.values()) == {1}, calls
    calls.clear()
    A, B = counted("A", 1, "+"), counted("B", 2, "-")
    commutator(A, B)(st)
    assert len(calls) > 2 and set(calls.values()) == {1}, calls
    A(st)
    assert calls["A", st] == 1
    counted("A", 1, "+")(st)
    assert calls["A", st] == 2
    # one leaf shared by two separately built expressions
    calls.clear()
    A, B = counted("A", 1, "+"), counted("B", 2, "-")
    commutator(A, B)(st)
    symmetrized_triple(A, A, B)(st)
    assert len(calls) > 2 and set(calls.values()) == {1}, calls


@pytest.fixture
def xi_calls(monkeypatch):
    """Counts each (i, sign, state) that lattice.xi_action computes."""
    calls = Counter()
    real = lattice.xi_action

    def counted(i, sign, params, state):
        calls[i, sign, tuple(state)] += 1
        return real(i, sign, params, state)

    monkeypatch.setattr(lattice, "xi_action", counted)
    return calls


def test_xi_sweep_memoizes_nothing(xi_calls):
    p = params_for((2, 1, 1), MIXED)
    xi_sweep(p, 3)
    xi_sweep(p, 3)
    assert len(xi_calls) == 6 * 4 ** 4 and set(xi_calls.values()) == {2}


def test_xi_images_are_owned_by_the_parameter_set(xi_calls):
    """Identities of two kinds at overlapping states compute each Xi image
    once per parameter set; an equal but fresh parameter set computes them
    again."""
    p = params_for((2, 1, 1), MIXED)
    states = identity_states(p, 4)
    for st in states:
        check_identity(1, "bracket-pm", p, st)
        check_identity(1, "cubic", p, st)
    assert len(xi_calls) > 2 * len(states) and set(xi_calls.values()) == {1}, xi_calls
    seen = set(xi_calls)
    q = params_for((2, 1, 1), MIXED)
    assert q == p and hash(q) == hash(p)
    for st in states:
        check_identity(1, "bracket-pm", q, st)
        check_identity(1, "cubic", q, st)
    assert set(xi_calls) == seen and set(xi_calls.values()) == {2}


# -- primitive ladders ------------------------------------------------------------

def test_radial_lowering_example():
    p = params_for((1, 1, 1))
    v = ladder_action("K0-", p, QuantumState(1, 0, 0, 0))
    ((tgt, c),) = v.items()
    assert tgt == QuantumState(0, 0, 0, 0)
    assert c == OmegaPoly.omega(scale=-2)


def test_radial_raising_example():
    p = params_for((1, 1, 1))
    st = QuantumState(0, 0, 0, 0)
    A0 = spectral_chain(p, st).A0
    v = ladder_action("K0+", p, st)
    ((tgt, c),) = v.items()
    assert tgt == QuantumState(1, 0, 0, 0)
    assert c == OmegaPoly.omega(scale=-2 * A0)  # -2 w (n0+1)(n0+A0) at n0=0


def test_slot3_jacobi_raising_example():
    p = params_for((1, 1, 1))
    v = ladder_action("J+", p, QuantumState(0, 0, 0, 0), slot=3)
    ((tgt, c),) = v.items()
    assert tgt == QuantumState(0, 0, 0, 1)
    assert c == OmegaPoly.const(-4)  # -2 (n+1)(n+a+b+1) with a=b=1/2, n=0


def test_jacobi_lowering_coefficient():
    p = params_for((2, 1, 1), MIXED)
    st = QuantumState(0, 0, 1, 0)
    d = spectral_chain(p, st)
    v = ladder_action("J-", p, st, slot=2)
    ((tgt, c),) = v.items()
    assert tgt == QuantumState(0, 0, 0, 0)
    a, b = d.A2, p.a2  # slot-2 Jacobi parameters at the source state
    assert c == OmegaPoly.const(-2 * (1 + a) * (1 + b))  # -2 (n+a)(n+b) at n=1


def test_index_ladder_below_lattice_is_zero():
    p = params_for((2, 1, 1))
    assert ladder_action("K-a", p, QuantumState(0, 0, 0, 0), slot=1).is_zero()
    assert ladder_action("J-", p, QuantumState(0, 0, 0, 0), slot=2).is_zero()
    assert ladder_action("K0-", p, QuantumState(0, 3, 1, 2)).is_zero()


def test_index_ladders_shift_only_n():
    """K(+-)a moves n by one; the a-shift lives in the coefficient bookkeeping."""
    p = params_for((2, 1, 1))
    st = QuantumState(0, 1, 0, 0)
    d = spectral_chain(p, st)
    up = ladder_action("K+a", p, st, slot=1)
    ((tgt, c),) = up.items()
    assert tgt == QuantumState(0, 2, 0, 0)
    a, b = d.A1, p.a1
    assert c == OmegaPoly.const(2 * (1 + 1) * (1 + a))
    down = ladder_action("K-a", p, st, slot=1)
    ((tgt2, c2),) = down.items()
    assert tgt2 == QuantumState(0, 0, 0, 0)
    assert c2 == OmegaPoly.const(2 * (2 + a + b) * (1 + b))  # 2 (n+a+b+1)(n+b) at n=1


# -- Xi composites ------------------------------------------------------------------

def test_xi_example_k211():
    """k = (2,1,1), halves: Xi1+ on (2,0,0,0) lands on (0,1,0,0)."""
    p = params_for((2, 1, 1))
    st = QuantumState(2, 0, 0, 0)
    printed = xi1_closed_form("+", p, st, variant="printed")
    composed = xi1_closed_form("+", p, st, variant="composed")
    assert printed == OmegaPoly.omega(power=2, scale=13)
    assert composed == OmegaPoly.omega(power=2, scale=-26)
    v = xi_action(1, "+", p, st)
    ((tgt, c),) = v.items()
    assert tgt == QuantumState(0, 1, 0, 0)
    assert c == composed


def test_xi2_shift_pattern():
    """At k = (2,1,1): p2/q2 = 1/2, so Xi2+ maps (n1, n2) -> (n1-1, n2+2)."""
    p = params_for((2, 1, 1))
    st = QuantumState(0, 2, 1, 0)
    v = xi_action(2, "+", p, st)
    ((tgt, _),) = v.items()
    assert tgt == QuantumState(0, 1, 3, 0)
    # the minus branch moves the other way and dies below the lattice at n2 < q2
    assert xi_action(2, "-", p, st).is_zero()
    w = xi_action(2, "-", p, QuantumState(0, 2, 2, 0))
    ((tgt2, _),) = w.items()
    assert tgt2 == QuantumState(0, 3, 0, 0)


def _xi_upper_coefficient(p, i, sign, n):
    """Xi_i^sign coefficient (i = 2, 3) as the product of the printed steps.

    Xi_i^+ is J+ q_i times on slot i, then K-a p_i times on slot i-1;
    Xi_i^- is J- q_i times, then K+a p_i times.  The Jacobi parameters of
    slot i are (A2, a2) or (a3, a4); slot i-1 starts at (A_{i-1}, a_{i-1})
    and each K step shifts its first parameter by -+2.
    """
    ch = spectral_chain(p, n)
    pi, qi = p.pq(i)
    a, b = ((ch.A2, p.a2), (p.a3, p.a4))[i - 2]
    A, b0 = ((ch.A1, p.a1), (ch.A2, p.a2))[i - 2]
    ni, m = n[i], n[i - 1]
    if sign == "+":
        # J+ : -2 (n+1)(n+a+b+1), n+1;  K-a : 2 (n+a+b+1)(n+b), n-1, a+2
        head = math.prod(-2 * (ni + j + 1) * (ni + j + a + b + 1) for j in range(qi))
        tail = math.prod(2 * (m - j + A + 2 * j + b0 + 1) * (m - j + b0) for j in range(pi))
    else:
        # J- : -2 (n+a)(n+b), n-1;  K+a : 2 (n+1)(n+a), n+1, a-2
        head = math.prod(-2 * (ni - j + a) * (ni - j + b) for j in range(qi))
        tail = math.prod(2 * (m + j + 1) * (m + j + A - 2 * j) for j in range(pi))
    return head * tail


def test_xi2_xi3_coefficients_are_printed_step_products():
    grid = [SystemParams(*map(parse_rational, k), *map(parse_rational, a))
            for k in DEFAULT_K_GRID for a in DEFAULT_A_GRID]
    for p in grid:
        for st in identity_states(p, 20):
            for i in (2, 3):
                for sign in ("+", "-"):
                    ((_, c),) = xi_action(i, sign, p, st).items()
                    want = _xi_upper_coefficient(p, i, sign, st)
                    assert c == OmegaPoly.const(want), (p, tuple(st), i, sign)


def test_xi_preserves_energy_exactly():
    for k, a in GRID:
        p = params_for(k, a)
        assert xi_class_check(p, nmax=4) == []


def _expected_image(ref):
    """{target: OmegaPoly coefficient tuple} of one reference walk."""
    if ref is None or ref[2] == 0:
        return {}
    target, _, c, m = ref
    return {target: (0,) * m + (c,)}


_LADDERS = [("K0+", None), ("K0-", None)] + [
    (kind, slot) for kind in ("J+", "J-", "K+a", "K-a") for slot in (1, 2, 3)]
_RATIONALS = hst.fractions(min_value=F(1, 3), max_value=2, max_denominator=3)
_POTENTIALS = hst.fractions(min_value=F(1, 7), max_value=3, max_denominator=7)


@settings(max_examples=25, deadline=None)
@given(k=hst.tuples(*[_RATIONALS] * 3), a=hst.tuples(*[_POTENTIALS] * 4))
def test_integer_kernel_matches_fraction_reference(k, a):
    """Chain, every Xi_i^+- and every ladder kind equal the Fraction walker."""
    p = SystemParams(*k, *a)
    for st in enumerate_states(2):
        ch = spectral_chain(p, st)
        want = chain_reference(k, a, st)
        assert (ch.A0, ch.A1, ch.A2, ch.ell1, ch.ell2, ch.ell3) == want[:6]
        assert ch.E.coeffs == (0, want[6])
        ext = [*st, *want[:3]]
        for i in (1, 2, 3):
            for sign in ("+", "-"):
                ref = walk_reference(a, ext, xi_steps_reference(k, i, sign))
                if ref is not None:
                    assert ref[1] == chain_reference(k, a, ref[0])[:3]
                got = {tuple(t): c.coeffs for t, c in xi_action(i, sign, p, st).items()}
                assert got == _expected_image(ref), (tuple(st), i, sign)
        for kind, slot in _LADDERS:
            ref = walk_reference(a, ext, [(kind, slot)])
            vec = ladder_action(kind, p, st, slot=slot)
            got = {tuple(t): c.coeffs for t, c in vec.items()}
            assert got == _expected_image(ref), (tuple(st), kind, slot)
    assert xi_class_check(p, nmax=2) == []


def test_xi_closed_form_composed_matches_action_on_interior_states():
    for k in ((1, 1, 1), (2, 1, 1)):
        p = params_for(k)
        for st in identity_states(p, 12):
            v = xi_action(1, "+", p, st)
            ((_, c),) = v.items()
            assert c == xi1_closed_form("+", p, st, variant="composed")
            w = xi_action(1, "-", p, st)
            ((_, cm),) = w.items()
            assert cm == xi1_closed_form("-", p, st, variant="composed")


def test_xi_closed_form_printed_differs_by_power_of_minus_two():
    """The typeset closed form and the composed product differ by (-2)^(q1)."""
    p = params_for((2, 1, 1))
    st = QuantumState(2, 0, 0, 0)
    printed = xi1_closed_form("+", p, st, variant="printed")
    composed = xi1_closed_form("+", p, st, variant="composed")
    assert composed == printed * (-2) ** p.pq1[1]


def test_xi_rejects_bad_sign():
    p = params_for((1, 1, 1))
    with pytest.raises(ValueError):
        xi_action(1, +1, p, QuantumState(0, 0, 0, 0))


def test_symmetry_operators_reject_bad_index():
    p = params_for((1, 1, 1))
    for build in (lambda: lpm_operator(p, 4, "-"), lambda: p_operator(p, 0, "-")):
        with pytest.raises(ValueError, match="i must be"):
            build()


# -- L(+-), P(+-), S1 ----------------------------------------------------------------

def test_lplus_is_xi_sum():
    p = params_for((2, 1, 1), MIXED)
    st = QuantumState(3, 1, 2, 1)
    lhs = lpm_operator(p, 1, "+")(st)
    rhs = xi_action(1, "+", p, st) + xi_action(1, "-", p, st)
    assert lhs == rhs


def test_lminus_scaling():
    p = params_for((2, 1, 1))
    st = QuantumState(3, 1, 2, 1)
    A0 = spectral_chain(p, st).A0
    lhs = lpm_operator(p, 1, "-")(st)
    rhs = (xi_action(1, "+", p, st) - xi_action(1, "-", p, st)).scale(p.k1 / A0)
    assert lhs == rhs


def test_lminus_single_branch_on_low_states():
    """When Xi- falls below the lattice only the Xi+ branch contributes."""
    p = params_for((2, 1, 1))
    low = QuantumState(2, 0, 1, 1)  # n1 = 0 < q1 kills the Jacobi arm of Xi1-
    assert xi_action(1, "-", p, low).is_zero()
    got = lpm_operator(p, 1, "-")(low)
    d = spectral_chain(p, low)
    want = xi_action(1, "+", p, low).scale(p.k1 / d.A0)
    assert got == want and not got.is_zero()


def test_p_minus_printed_is_scaled_p_plus():
    """Typeset P-: symmetric sum over both orderings — identical to k/A * P+."""
    rng = random.Random(67)
    for k, a in GRID:
        p = params_for(k, a)
        for _ in range(6):
            st = QuantumState(*(rng.randint(0, 5) for _ in range(4)))
            for i in (1, 2, 3):
                Ai = (spectral_chain(p, st).A0, spectral_chain(p, st).A1,
                      spectral_chain(p, st).A2)[i - 1]
                plus = p_operator(p, i, "+")(st)
                printed = p_operator(p, i, "-", convention="printed")(st)
                assert printed == plus.scale(p.k(i) / Ai)


def test_p_action_is_diagonal():
    p = params_for((2, 1, 2), MIXED)
    st = QuantumState(2, 2, 2, 2)
    for i in (1, 2, 3):
        for conv in ("printed", "antisymmetric"):
            v = p_operator(p, i, "-", convention=conv)(st)
            assert set(v.states()) <= {st}
        vp = p_operator(p, i, "+")(st)
        assert set(vp.states()) <= {st}


def test_s1_frozen_value():
    p = params_for((2, 1, 1))
    got = s1_value(p, QuantumState(0, 0, 0, 0))
    # E = -15w, A1 = 7/4, a1 = 1/2: -(E^2 - 4w)(A1^2 - a1^2)/16
    assert got == OmegaPoly((0, F(45, 64), F(-10125, 256)))


# -- structure identities ------------------------------------------------------------

def test_identity_kinds_guard():
    p = params_for((1, 1, 1))
    with pytest.raises(ValueError):
        check_identity(1, "nonsense", p, QuantumState(3, 3, 3, 3))
    assert "cross-commute" in IDENTITY_KINDS


@pytest.mark.parametrize("which", IDENTITY_KINDS)
def test_identity_rejects_unknown_convention_and_variant(which):
    """Every identity under either variant rejects a convention or a variant
    it does not know, also where that argument would not be read."""
    p = params_for((1, 1, 1))
    st = identity_states(p, 1)[0]
    for variant in ("printed", "corrected"):
        with pytest.raises(ValueError, match="convention"):
            check_identity(1, which, p, st, convention="nonsense", variant=variant)
    with pytest.raises(ValueError, match="variant"):
        check_identity(1, which, p, st, variant="nonsense")


def test_corrected_identities_hold_on_grid():
    for k, a in GRID:
        p = params_for(k, a)
        for st in identity_states(p, 10):
            for which in ("bracket-minus", "bracket-plus", "bracket-pm", "cubic"):
                for i in (1, 2, 3):
                    r = check_identity(i, which, p, st,
                                       convention="antisymmetric", variant="corrected")
                    assert r.is_zero(), (k, which, i, st, r)


def test_cross_commutation_exact():
    for k, a in GRID:
        p = params_for(k, a)
        for st in identity_states(p, 8):
            for i in (1, 2, 3):
                r = check_identity(i, "cross-commute", p, st,
                                   convention="antisymmetric", variant="corrected")
                assert r.is_zero()


def test_printed_bracket_minus_holds_only_for_slot1():
    """The typeset first-bracket constants agree with the working ones at i=1."""
    for k, a in GRID:
        p = params_for(k, a)
        sts = identity_states(p, 8)
        assert all(check_identity(1, "bracket-minus", p, st, variant="printed").is_zero()
                   for st in sts)
    p = params_for((2, 1, 1))
    sts = identity_states(p, 8)
    assert any(not check_identity(2, "bracket-minus", p, st, variant="printed").is_zero()
               for st in sts)
    assert any(not check_identity(3, "bracket-minus", p, st, variant="printed").is_zero()
               for st in sts)


def test_printed_bracket_pm_antisymmetric_pattern():
    """Typeset [L+, L-] holds under the antisymmetric P- exactly when g = 1."""
    cases = [((1, 1, 1), {1, 2, 3}),   # all g's are 1
             ((2, 1, 1), {1, 3}),      # g2 = k1 = 2; g3 = k2 = 1
             ((F(3, 2), F(3, 2), 1), {1}),
             ((2, 1, 2), {1, 3})]
    for k, expect in cases:
        p = params_for(k)
        sts = identity_states(p, 8)
        holds = {i for i in (1, 2, 3)
                 if all(check_identity(i, "bracket-pm", p, st,
                                       convention="antisymmetric",
                                       variant="printed").is_zero() for st in sts)}
        assert holds == expect, (k, holds)
        # and never under the typeset symmetric-sum P- convention
        holds_printed = {i for i in (1, 2, 3)
                         if all(check_identity(i, "bracket-pm", p, st,
                                               convention="printed",
                                               variant="printed").is_zero()
                                for st in sts)}
        assert holds_printed == set(), (k, holds_printed)


def test_interior_margins_and_state_generator():
    p = params_for((2, 1, 1))
    m = interior_margins(p)
    assert m == (4, 2, 4, 2)  # (2 p1, 2 max(q1,p2), 2 max(q2,p3), 2 q3)
    sts = identity_states(p, 20)
    assert len(sts) == 20
    assert all(is_interior(p, st) for st in sts)
    assert not is_interior(p, QuantumState(0, 0, 0, 0))


# -- commutator calculus --------------------------------------------------------------

def test_commutator_antisymmetry_and_jacobi():
    p = params_for((2, 1, 1), MIXED)
    ops = [l_operator(p, 1), lpm_operator(p, 2, "+"), h_operator(p),
           lpm_operator(p, 1, "-"), xi_operator(p, 3, "+")]
    rng = random.Random(71)
    sts = identity_states(p, 6)
    for _ in range(10):
        a, b, c = rng.sample(ops, 3)
        st = rng.choice(sts)
        assert (commutator(a, b)(st) + commutator(b, a)(st)).is_zero()
        jac = (commutator(commutator(a, b), c)(st)
               + commutator(commutator(b, c), a)(st)
               + commutator(commutator(c, a), b)(st))
        assert jac.is_zero()


def test_identity_operator_neutral():
    p = params_for((1, 1, 1))
    st = QuantumState(2, 1, 0, 1)
    op = identity_operator() @ l_operator(p, 2)
    assert op(st) == l_operator(p, 2)(st)


# -- the fifth symmetry ---------------------------------------------------------------

def test_m1_relations_exact_on_interior_states():
    """[L1, M1-] = L1-, and M1- commutes with H, L2, L3 (xi composite form)."""
    for k, a in GRID:
        p = params_for(k, a)
        M1 = m1_minus_operator(p, convention="xi")
        rel1 = commutator(l_operator(p, 1), M1) - lpm_operator(p, 1, "-")
        others = [commutator(h_operator(p), M1),
                  commutator(l_operator(p, 2), M1),
                  commutator(l_operator(p, 3), M1)]
        for st in identity_states(p, 10):
            try:
                assert rel1(st).is_zero()
                for rel in others:
                    assert rel(st).is_zero()
            except DivisorSingular:
                pytest.fail(f"unexpected singular divisor at {st}")


def test_m1_printed_convention_fails():
    p = params_for((2, 1, 1))
    M1 = m1_minus_operator(p, convention="printed")
    rel1 = commutator(l_operator(p, 1), M1) - lpm_operator(p, 1, "-")
    sts = identity_states(p, 10)
    assert any(not rel1(st).is_zero() for st in sts)


def test_m1_singular_divisor_guard():
    """Crafted parameters reach A0 = p1, where the partial-fraction split blows up."""
    p = SystemParams(F(3, 2), F(3, 10), F(3, 100),
                     F(1, 2), F(139, 100), F(1, 20), F(1, 20))
    st = QuantumState(1, 0, 0, 0)
    assert spectral_chain(p, st).A0 == 3 == p.pq1[0]
    with pytest.raises(DivisorSingular):
        M1_minus_action(p, st)


_RATIOS = hst.sampled_from((F(1, 2), F(1), F(2)))


@settings(max_examples=40, deadline=None)
@given(r=hst.tuples(_RATIOS, _RATIOS, _RATIOS), a=hst.tuples(*[_POTENTIALS] * 4),
       offsets=hst.lists(hst.tuples(*[hst.integers(0, 2)] * 4),
                         min_size=2, max_size=3, unique=True))
def test_identities_hold_off_the_grid(r, a, offsets):
    """Random rational (k, a) with every p_i, q_i <= 2, at interior states: the
    15 corrected algebra checks and the four m1 relations (xi form) vanish
    exactly, and M1- raises DivisorSingular exactly where A0 in {0, +-p1}.

    In this range A0 > p1 at every state, so M1- must never raise here;
    test_m1_singular_divisor_guard covers the raising side.
    """
    k = (r[0], r[0] * r[1], r[0] * r[1] * r[2])
    p = SystemParams(*k, *a)
    m = interior_margins(p)
    states = [QuantumState(*(n + o for n, o in zip(m, off))) for off in offsets]
    M1 = m1_minus_operator(p, convention="xi")
    for st in states:
        for i in (1, 2, 3):
            for which in IDENTITY_KINDS:
                res = check_identity(i, which, p, st, variant="corrected")
                assert res.is_zero(), (k, a, st, i, which, res)
        rel1 = commutator(l_operator(p, 1), M1)(st) - lpm_operator(p, 1, "-")(st)
        assert rel1.is_zero(), (k, a, st, rel1)
        for L in (h_operator(p), l_operator(p, 2), l_operator(p, 3)):
            assert commutator(L, M1)(st).is_zero(), (k, a, st)
    p1 = p.pq1[0]
    for st in (*enumerate_states(2), *states):
        singular = spectral_chain(p, st).A0 in (0, p1, -p1)
        try:
            M1_minus_action(p, st)
            raised = False
        except DivisorSingular:
            raised = True
        assert raised == singular, (k, a, st)


# -- linear independence ----------------------------------------------------------------

def test_window_independence_rank_8():
    for k, a in GRID:
        p = params_for(k, a)
        out = window_independence(p)
        assert out["independent"], out
        assert out["rank"] == 8


def test_window_grows_with_ladder_steps():
    """p1 = 3 at k1 = 3/2 forces a window of at least 3 to keep L1+ nonzero."""
    p = params_for((F(3, 2), F(3, 2), 1))
    out = window_independence(p)
    assert out["window_nmax"] == 3
    assert out["rank"] == 8
