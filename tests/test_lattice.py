import itertools
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
    anticommutator,
    check_identity,
    commutator,
    diagonal_operator,
    h_operator,
    identity_operator,
    identity_states,
    interior_margins,
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
    assert v.coeff(st) == OmegaPoly.omega(0, 3)
    assert v.coeff(QuantumState(0, 0, 0, 0)).is_zero()
    z = v - v
    assert z.is_zero() and len(z) == 0  # exact cancellation drops the entry
    w = v + v.scale(-1)
    assert w == LatticeVector.zero()
    assert (v + v).coeff(st) == OmegaPoly.omega(0, 6)


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
    assert p.den > 0 and math.gcd(p.den, *p.num) == 1, (p.num, p.den)
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
    """+, -, scale, OmegaPoly *, on_vector, @ and the symmetrized triple (two
    operands equal or none) equal the dict reference, and every result is in
    normal form, also where terms cancel exactly."""
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
    tables = {id(A): a, id(B): b}
    for x, y, z in ((A, B, B), (A, A, B), (B, A, B)):
        T = symmetrized_triple(x, y, z)
        for s in (*a, *b, st):
            assert (_normal_vec(T(s))
                    == _triple(tables[id(x)], tables[id(y)], tables[id(z)], s)), (s, x, y, z)


def _triple(x: dict, y: dict, z: dict, st) -> dict:
    """Dict reference of {X, Y, Z} at st: the sum of the six words."""
    out = {}
    for p, q, r in itertools.permutations((x, y, z)):
        out = vec_add(out, op_apply(p, op_apply(q, r.get(st, {}))))
    return out


_NF_DIAGONALS = hst.dictionaries(_NF_STATES, _NF_POLYS, max_size=6)  # {} is a zero value


@settings(max_examples=150, deadline=None)
@given(d=_NF_DIAGONALS, a=_NF_TABLES, st=_NF_STATES)
def test_diagonal_products_and_brackets_match_the_dict_reference(d, a, st):
    """A diagonal built from a {state: polynomial} table, zero values included:
    D @ A, A @ D, D @ D and the brackets [D, A], [A, D], {D, A} equal the dict
    reference on the expanded products, in normal form.  Each image reads its
    operands in the order they act, A's image once, D at the source once."""
    log = []
    images = {s: _vec(u) for s, u in a.items()}

    def value(s):
        log.append(("d", s))
        return _poly(d.get(s, {}))

    def image(s):
        log.append(("A", s))
        return images.get(s, LatticeVector.zero())
    D, A = diagonal_operator(value), LatticeOperator(image)
    dt = {s: {s: p} for s, p in d.items() if p}  # D as an operator table
    for s in (*a, *d, st):
        s = QuantumState(*s)
        targets = [("d", t) for t in images.get(s, LatticeVector.zero()).states()]
        ad, da = op_apply(a, dt.get(s, {})), op_apply(dt, a.get(s, {}))
        cases = ((D @ A, da, [("A", s)] + targets),
                 (A @ D, ad, [("d", s)] + ([("A", s)] if d.get(s) else [])),
                 (D @ D, op_apply(dt, dt.get(s, {})), [("d", s)] * (1 + bool(d.get(s)))),
                 (commutator(D, A), vec_add(da, ad, -1), [("A", s)] + targets + [("d", s)]),
                 (commutator(A, D), vec_add(ad, da, -1), [("d", s), ("A", s)] + targets),
                 (anticommutator(D, A), vec_add(da, ad), [("A", s)] + targets + [("d", s)]))
        for op, want, reads in cases:
            log.clear()
            assert _normal_vec(op(s)) == want, (s, want)
            assert log == reads, (s, log, reads)
        assert _normal_vec(symmetrized_triple(D, A, A)(s)) == _triple(dt, a, a, s), s


@pytest.fixture
def leaf_images(monkeypatch):
    """Counts each (leaf key, state) image that the leaves of lattice._leaf
    compute, for the leaves built from now on."""
    computed = Counter()
    real = lattice._leaf

    def counting(params, key, build):
        def counted_build():
            expr = build()

            def image(st):
                computed[key, st] += 1
                return expr(st)
            return LatticeOperator(image)
        return real(params, key, counted_build)

    monkeypatch.setattr(lattice, "_leaf", counting)
    return computed


def _lpm_images(computed: Counter) -> Counter:
    return Counter({k: n for k, n in computed.items() if k[0][0] == "lpm"})


def test_operator_memo_is_per_instance(leaf_images):
    """An L± leaf computes each state's image once per parameter set, inside
    every expression that shares it and across separately built expressions;
    an equal, fresh parameter set computes them again."""
    p = params_for((2, 1, 1), MIXED)
    st = identity_states(p, 1)[0]
    A, B = lpm_operator(p, 1, "+"), lpm_operator(p, 2, "-")
    symmetrized_triple(A, B, B)(st)
    first = _lpm_images(leaf_images)
    assert len(first) > 2 and set(first.values()) == {1}, first
    # one leaf shared by two separately built expressions
    commutator(lpm_operator(p, 1, "+"), lpm_operator(p, 2, "-"))(st)
    symmetrized_triple(A, A, B)(st)
    A(st)
    again = _lpm_images(leaf_images)
    assert len(again) >= len(first) and set(again.values()) == {1}, again
    q = params_for((2, 1, 1), MIXED)
    assert q == p
    A, B = lpm_operator(q, 1, "+"), lpm_operator(q, 2, "-")
    symmetrized_triple(A, B, B)(st)
    fresh = _lpm_images(leaf_images)
    assert all(fresh[k] == 2 for k in first) and fresh[("lpm", 1, "+"), st] == 2, fresh


def test_leaves_are_owned_by_the_parameter_set():
    """xi_operator, lpm_operator and m1_minus_operator return the parameter
    set's one leaf; an equal, fresh parameter set has its own."""
    p = params_for((2, 1, 1), MIXED)
    q = params_for((2, 1, 1), MIXED)
    for build in (lambda s: xi_operator(s, 2, "-"), lambda s: lpm_operator(s, 1, "+"),
                  lambda s: lpm_operator(s, 3, "-"), lambda s: m1_minus_operator(s),
                  lambda s: m1_minus_operator(s, "printed")):
        assert build(p) is build(p)
        assert build(q) is not build(p)
    assert m1_minus_operator(p) is not m1_minus_operator(p, "printed")


def test_check_identity_computes_each_lpm_image_once(leaf_images):
    """Every identity at every state shares the parameter set's L± leaves,
    so each L± image is computed once over all of them."""
    p = params_for((2, 1, 1), MIXED)
    for st in identity_states(p, 3):
        for i in (1, 2, 3):
            for which in IDENTITY_KINDS:
                assert check_identity(i, which, p, st, variant="corrected").is_zero()
    lpm = _lpm_images(leaf_images)
    assert {k[0] for k in lpm} == {("lpm", i, s) for i in (1, 2, 3) for s in "+-"}
    assert set(lpm.values()) == {1}, lpm


def test_identity_operators_are_per_parameter_set_and_variant():
    """check_identity keeps one residual operator per (parameter set, i,
    identity, convention, variant): the printed and the corrected
    bracket-minus at i = 2 stay apart in either call order, an equal, fresh
    parameter set builds its own, and the kept operators give the residuals
    of a fresh build at every state."""
    kinds = [(which, conv, var) for which in IDENTITY_KINDS[:4]
             for conv, var in (("printed", "printed"), ("antisymmetric", "printed"),
                               ("antisymmetric", "corrected"))]
    first = params_for((2, 1, 1), MIXED)
    st = identity_states(first, 1)[0]
    for order in (("printed", "corrected"), ("corrected", "printed")):
        p = params_for((2, 1, 1), MIXED)
        for variant in order:
            r = check_identity(2, "bracket-minus", p, st, variant=variant)
            assert r.is_zero() == (variant == "corrected"), (order, variant, r)
    kept = params_for((2, 1, 1), MIXED)
    for which, conv, var in kinds:
        check_identity(2, which, first, st, convention=conv, variant=var)
        check_identity(2, which, kept, st, convention=conv, variant=var)
        key = ("identity", 2, which, conv, var)
        assert first._memo[key] is not kept._memo[key], key
    for st in identity_states(kept, 4):
        for i in (1, 2, 3):
            for which, conv, var in kinds:
                fresh = params_for((2, 1, 1), MIXED)
                assert (check_identity(i, which, kept, st, convention=conv, variant=var)
                        == check_identity(i, which, fresh, st, convention=conv,
                                          variant=var)), (tuple(st), i, which, conv, var)


def _cross_commute_per_state(p, i, st) -> LatticeVector:
    """The first nonzero cross-commute residual, its brackets built at st."""
    for j in (1, 2, 3):
        if j == i:
            continue
        for s in "+-":
            r = commutator(l_operator(p, j), lpm_operator(p, i, s))(st)
            if not r.is_zero():
                return r
        if abs(i - j) > 1:
            for s in "+-":
                for t in "+-":
                    r = commutator(lpm_operator(p, j, s), lpm_operator(p, i, t))(st)
                    if not r.is_zero():
                        return r
    return LatticeVector.zero()


def test_cross_commute_operators_are_per_parameter_set(monkeypatch):
    """check_identity builds each i's cross-commute brackets once per parameter
    set (8, 4 and 8 for i = 1, 2, 3), whatever the number of states; an equal,
    fresh set builds its own.  With a Xi_3^+ that detours through J+ J- on slot
    1, the first nonzero residual is the one the per-state build returns."""
    steps = lattice._xi_steps

    def detour(params, i, sign):
        extra = (("J+", 1), ("J-", 1)) if (i, sign) == (3, "+") else ()
        return extra + steps(params, i, sign)

    monkeypatch.setattr(lattice, "_xi_steps", detour)
    built, real = [], lattice.commutator  # each build is counted under the i checked
    monkeypatch.setattr(lattice, "commutator", lambda a, b: built.append(i) or real(a, b))
    p, q, ref = (params_for((2, 1, 1), MIXED) for _ in range(3))
    nonzero = 0
    for params in (p, q):
        for i in (1, 2, 3):
            for st in identity_states(params, 4):
                r = check_identity(i, "cross-commute", params, st)
                assert r == _cross_commute_per_state(ref, i, st), (i, tuple(st))
                nonzero += not r.is_zero()
        assert Counter(built) == {1: 8, 2: 4, 3: 8}, built
        built.clear()
    assert nonzero == 2 * 2 * 4  # i = 1 and 3 fail at every state, for p and q
    for i in (1, 2, 3):
        assert p._memo["cross-commute", i] is not q._memo["cross-commute", i]


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


def test_xi_sweep_memoizes_nothing(monkeypatch):
    """The sweep evaluates every (program, state) image anew on each call."""
    images = Counter()
    real = lattice._xi_image

    def counted(prog, params, state, src):
        images[prog, state] += 1
        return real(prog, params, state, src)

    monkeypatch.setattr(lattice, "_xi_image", counted)
    p = params_for((2, 1, 1), MIXED)
    xi_sweep(p, 3)
    xi_sweep(p, 3)
    assert len(images) == 6 * 4 ** 4 and set(images.values()) == {2}


def test_xi_programs_belong_to_the_parameter_set(monkeypatch):
    """A parameter set compiles each of its six Xi programs once, whatever
    asks for them; an equal but fresh parameter set compiles its own."""
    compiled = Counter()
    real = lattice._compile

    def counted(params, steps):
        compiled[id(params), tuple(steps)] += 1
        return real(params, steps)

    monkeypatch.setattr(lattice, "_compile", counted)
    p, q = params_for((2, 1, 1), MIXED), params_for((2, 1, 1), MIXED)
    assert p == q and hash(p) == hash(q)
    xi_sweep(p, 2)
    xi_sweep(p, 2)
    for sign in "+-":
        xi_action(1, sign, p, QuantumState(3, 2, 2, 2))
    assert len(compiled) == 6 and set(compiled.values()) == {1}, compiled
    assert xi_sweep(q, 2) == xi_sweep(p, 2)
    assert {pid for pid, _ in compiled} == {id(p), id(q)}
    assert len(compiled) == 12 and set(compiled.values()) == {1}, compiled


def test_sweep_and_action_name_the_same_broken_images(monkeypatch):
    """With one K0- step too many in Xi_1^+, the sweep counts and names the
    broken images that xi_action raises on, in the same order."""
    steps = lattice._xi_steps

    def one_k0_step_too_many(params, i, sign):
        extra = (("K0-", None),) if (i, sign) == (1, "+") else ()
        return steps(params, i, sign) + extra

    monkeypatch.setattr(lattice, "_xi_steps", one_k0_step_too_many)
    p = params_for((2, 1, 1))
    counts, witnesses = Counter(), []
    for st in enumerate_states(3):
        for i in (1, 2, 3):
            for sign in "+-":
                try:
                    counts[i, sign] += len(xi_action(i, sign, p, st))
                except lattice.ChainBroken as exc:
                    counts[i, sign] += 1
                    witnesses.append(exc.witness)
    images, broken = xi_sweep(params_for((2, 1, 1)), 3)
    assert witnesses and broken == witnesses
    assert images == counts


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


def test_xi_operator_rejects_a_bad_sign_when_built():
    """A rejected sign or convention raises when the leaf is built and
    stores no memo entry."""
    p = params_for((2, 1, 1))
    for build in (lambda: xi_operator(p, 1, "x"), lambda: lpm_operator(p, 1, "x"),
                  lambda: lpm_operator(p, 2, +1)):
        with pytest.raises(ValueError, match="sign"):
            build()
    with pytest.raises(ValueError, match="convention"):
        m1_minus_operator(p, "typeset")
    assert not p._memo


def _count_xi_requests(p) -> Counter:
    """Counts each (i, sign, state) asked of p's Xi leaves from now on.

    L± and M1⁻ leaves capture their Xi leaves when built, so call this
    before any of them exists."""
    asked = Counter()
    for i in (1, 2, 3):
        for sign in "+-":
            def image(st, leaf=xi_operator(p, i, sign), key=(i, sign)):
                asked[key, st] += 1
                return leaf(st)
            p._memo["xi", i, sign] = LatticeOperator(image)
    return asked


def test_only_xi_lpm_and_m1_leaves_memoize(xi_calls):
    """Diagonals, P± and every +, -, scale and @ recompute on each
    application; the Xi, L± and M1⁻ leaves run their rule once per state per
    parameter set, however often expressions ask for it."""
    p = params_for((2, 1, 1), MIXED)
    st, st2 = identity_states(p, 2)
    seen = Counter()

    def three(s):
        seen[s] += 1
        return 3
    D = diagonal_operator(three)
    (D @ D)(st)
    assert seen == {st: 2}
    asked = _count_xi_requests(p)
    P = p_operator(p, 1, "+")
    P(st)
    P(st)
    assert len(asked) == 4 and set(asked.values()) == {2}, asked
    xp, xm = xi_operator(p, 1, "+"), xi_operator(p, 1, "-")
    for expr in (xp + xm, xp - xm, 3 * xp, xp @ D):
        asked.clear()
        expr(st)
        expr(st)
        assert asked[(1, "+"), st] == 2, asked
    # [L1, L1-] + c L1- + c' L1+ asks L1- for st three times, L1+ once, and
    # bracket-plus asks both again: each asks the Xi leaves once at st
    asked.clear()
    check_identity(1, "bracket-minus", p, st)
    check_identity(1, "bracket-plus", p, st)
    assert asked == {((1, "+"), st): 2, ((1, "-"), st): 2}, asked
    L1 = l_operator(p, 1)
    for leaf in (lpm_operator(p, 1, "-"), lpm_operator(p, 1, "+"), m1_minus_operator(p)):
        asked.clear()
        commutator(L1, leaf)(st2)  # asks the leaf for st2 twice
        commutator(L1, leaf)(st2)
        assert asked == {((1, "+"), st2): 1, ((1, "-"), st2): 1}, asked
    assert xi_calls and set(xi_calls.values()) == {1}, xi_calls


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
    assert c == OmegaPoly.omega(0, -4)  # -2 (n+1)(n+a+b+1) with a=b=1/2, n=0


def test_jacobi_lowering_coefficient():
    p = params_for((2, 1, 1), MIXED)
    st = QuantumState(0, 0, 1, 0)
    d = spectral_chain(p, st)
    v = ladder_action("J-", p, st, slot=2)
    ((tgt, c),) = v.items()
    assert tgt == QuantumState(0, 0, 0, 0)
    a, b = d.A2, p.a2  # slot-2 Jacobi parameters at the source state
    assert c == OmegaPoly.omega(0, -2 * (1 + a) * (1 + b))  # -2 (n+a)(n+b) at n=1


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
    assert c == OmegaPoly.omega(0, 2 * (1 + 1) * (1 + a))
    down = ladder_action("K-a", p, st, slot=1)
    ((tgt2, c2),) = down.items()
    assert tgt2 == QuantumState(0, 0, 0, 0)
    assert c2 == OmegaPoly.omega(0, 2 * (2 + a + b) * (1 + b))  # 2 (n+a+b+1)(n+b) at n=1


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
                    assert c == OmegaPoly.omega(0, want), (p, tuple(st), i, sign)


def test_xi_preserves_energy_exactly():
    for k, a in GRID:
        p = params_for(k, a)
        assert xi_sweep(p, 4)[1] == []


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
    assert xi_sweep(p, 2)[1] == []


@settings(max_examples=15, deadline=None)
@given(k=hst.tuples(*[_RATIONALS] * 3), a=hst.tuples(*[_POTENTIALS] * 4))
def test_xi_sweep_counts_the_fraction_reference_images(k, a):
    """At random rational k and a, the sweep counts the nonzero images of the
    Fraction walker over the nmax-3 box and finds no broken image."""
    p = SystemParams(*k, *a)
    want = Counter()
    for st in enumerate_states(3):
        ext = [*st, *chain_reference(k, a, st)[:3]]
        for i in (1, 2, 3):
            for sign in ("+", "-"):
                ref = walk_reference(a, ext, xi_steps_reference(k, i, sign))
                want[i, sign] += ref is not None and ref[2] != 0
    images, broken = xi_sweep(p, 3)
    assert images == want and broken == []


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
    """An i outside 1..3 raises before any work; i = 0 does not wrap round
    to slot 3 through negative indexing."""
    p = params_for((1, 1, 1))
    st = QuantumState(4, 4, 4, 4)
    for build in (lambda: lpm_operator(p, 4, "-"), lambda: p_operator(p, 0, "-"),
                  lambda: p.k(0), lambda: p.pq(0), lambda: p.pq(4),
                  lambda: l_operator(p, 0), lambda: l_operator(p, 4),
                  lambda: xi_action(0, "+", p, st), lambda: xi_operator(p, 4, "+"),
                  lambda: lpm_operator(p, 0, "+"),
                  lambda: check_identity(4, "cubic", p, st),
                  lambda: check_identity(0, "cross-commute", p, st),
                  lambda: check_identity(4, "cross-commute", p, st)):
        with pytest.raises(ValueError, match="i must be 1, 2 or 3"):
            build()
    assert not p._memo


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
    assert all(n >= need for st in sts for n, need in zip(st, m))


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


def test_divisor_is_read_before_any_xi_image(xi_calls):
    """X @ D reads D at the source before X's image, so at the state of
    test_m1_singular_divisor_guard (A0 = p1 = 3) a vanishing divisor raises
    before any Xi request, inside M1- too.  Over the n <= 2 box the four m1
    relations all raise exactly at the states with A0 = p1, (n0, 0, 0, 0),
    and hold exactly at the other 78."""
    p = SystemParams(F(3, 2), F(3, 10), F(3, 100),
                     F(1, 2), F(139, 100), F(1, 20), F(1, 20))
    st = QuantumState(1, 0, 0, 0)
    assert spectral_chain(p, st).A0 == 3 == p.pq1[0]
    xp, xm = xi_operator(p, 1, "+"), xi_operator(p, 1, "-")
    with pytest.raises(DivisorSingular):
        ((xp - xm) @ lattice._divisor(p, "A0 - 3", lambda ch: ch.A0 - 3))(st)
    assert sum(xi_calls.values()) == 0
    with pytest.raises(DivisorSingular):
        M1_minus_action(p, st)
    assert sum(xi_calls.values()) == 0
    M1 = m1_minus_operator(p)
    rels = [commutator(l_operator(p, 1), M1) - lpm_operator(p, 1, "-"),
            *(commutator(L, M1) for L in (h_operator(p), l_operator(p, 2), l_operator(p, 3)))]
    raised = Counter()
    for s in enumerate_states(2):
        for rel in rels:
            try:
                assert rel(s).is_zero(), s
            except DivisorSingular:
                raised[s, spectral_chain(p, s).A0] += 1
    assert raised == {(QuantumState(n0, 0, 0, 0), 3): 4 for n0 in range(3)}, raised


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


def test_window_independence_keeps_no_image(monkeypatch):
    """The window asks for each L_i^+ image once, so it sums `xi_action`
    afresh, once per (i, sign, window state), and the parameter set gains no
    Xi or L± leaf."""
    p = params_for((2, 1, 1), MIXED)
    calls, real = Counter(), lattice.xi_action
    monkeypatch.setattr(lattice, "xi_action", lambda i, sign, params, st:
                        calls.update([(i, sign, st)]) or real(i, sign, params, st))
    out = window_independence(p)
    assert out["rank"] == 8
    assert len(calls) == 6 * (out["window_nmax"] + 1) ** 4 and set(calls.values()) == {1}
    assert not [key for key in p._memo if key[0] in ("xi", "lpm")]


def test_window_grows_with_ladder_steps():
    """p1 = 3 at k1 = 3/2 forces a window of at least 3 to keep L1+ nonzero."""
    p = params_for((F(3, 2), F(3, 2), 1))
    out = window_independence(p)
    assert out["window_nmax"] == 3
    assert out["rank"] == 8
