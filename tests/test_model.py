import math
import random
from fractions import Fraction as F

import pytest

from ttw4d.model import (
    QuantumState,
    SystemParams,
    degeneracy_classes,
    enumerate_states,
    gauge_for_slot,
    in_cell,
    parse_rational,
    potential_v0,
    radial_factor,
    slot_factor,
    spectral_chain,
    wavefunction,
)
from ttw4d.geometry import curvature_at
from ttw4d.numcore import EvalPoint, OmegaPoly, opoly_eval

HALVES = (F(1, 2), F(1, 2), F(1, 2), F(1, 2))
MIXED = (F(1, 3), F(2, 5), F(3, 7), F(1, 2))


def params_for(k, a=HALVES, omega=None):
    return SystemParams(*k, *a, omega)


def test_parse_rational():
    assert parse_rational("3/2") == F(3, 2)
    assert parse_rational("2") == F(2)
    assert parse_rational(" 1/3 ") == F(1, 3)
    with pytest.raises(ValueError):
        parse_rational("1.5.2")
    with pytest.raises(ValueError):
        parse_rational("2/0")


def test_params_validation():
    with pytest.raises(ValueError):
        params_for((0, 1, 1))
    with pytest.raises(ValueError):
        params_for((1, 1, 1), (F(-1, 2), F(1, 2), F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        params_for((1, 1, 1)).with_omega(-1)


def test_memo_is_ignored_by_eq_hash_and_repr():
    """Two equal parameter sets stay equal when only one has memoized data,
    and neither is served the other's memo."""
    p, q = params_for((2, 1, 1), MIXED, 1), params_for((2, 1, 1), MIXED, 1)
    st = QuantumState(1, 2, 0, 3)
    chain = spectral_chain(p, st)
    assert spectral_chain(p, st) is chain
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
    assert {p: "p"}[q] == "p"
    assert spectral_chain(q, st) == chain and spectral_chain(q, st) is not chain


def test_spectral_chain_accepts_any_4_sequence():
    """A list or plain tuple state gives the chain of the QuantumState, and
    all three share one memo entry."""
    p = params_for((2, 1, 1), MIXED)
    chain = spectral_chain(p, [1, 2, 0, 3])
    assert spectral_chain(p, (1, 2, 0, 3)) is chain
    assert spectral_chain(p, QuantumState(1, 2, 0, 3)) is chain
    assert chain == spectral_chain(params_for((2, 1, 1), MIXED), QuantumState(1, 2, 0, 3))


def test_ratio_decompositions():
    p = params_for((F(3, 2), F(3, 2), 1))
    assert p.pq1 == (3, 2)
    assert p.pq2 == (1, 1)
    assert p.pq3 == (2, 3)
    q = params_for((2, 1, 2))
    assert q.pq(1) == (2, 1)
    assert q.pq(2) == (1, 2)
    assert q.pq(3) == (2, 1)


def test_beta_couplings_pairing():
    p = params_for((2, 1, F(3, 2)), MIXED)
    assert p.beta1 == 4 * (F(1, 4) - F(1, 9))
    assert p.beta2 == F(1, 4) - F(4, 25)
    # beta3 carries a4, beta4 carries a3
    assert p.beta3 == F(9, 4) * (F(1, 4) - F(1, 4))
    assert p.beta4 == F(9, 4) * (F(1, 4) - F(9, 49))


def test_chain_example_isotropic():
    p = params_for((1, 1, 1))
    d = spectral_chain(p, QuantumState(0, 0, 0, 0))
    assert d.A2 == 2
    assert d.A1 == F(7, 2)
    assert d.A0 == 5
    assert d.ell3 == -4
    assert d.ell2 == -12
    assert d.ell1 == -24
    assert d.E == OmegaPoly.omega(scale=-12)


def test_chain_example_k211():
    p = params_for((2, 1, 1))
    d = spectral_chain(p, QuantumState(0, 0, 0, 0))
    assert d.A2 == 2
    assert d.A1 == F(7, 4)
    assert d.A0 == F(13, 2)
    assert d.E == OmegaPoly.omega(scale=-15)


def test_negative_quantum_numbers_rejected():
    p = params_for((1, 1, 1))
    with pytest.raises(ValueError):
        spectral_chain(p, QuantumState(0, -1, 0, 0))


GRID = [((1, 1, 1), HALVES), ((2, 1, 1), HALVES), ((2, 1, 1), MIXED),
        ((F(3, 2), F(3, 2), 1), MIXED), ((2, 1, 2), HALVES)]


def test_energy_dual_form_consistency():
    """spectral_chain computes E two ways and raises on mismatch; sweep n_i <= 6."""
    for k, a in GRID:
        p = params_for(k, a)
        for st in enumerate_states(6):
            spectral_chain(p, st)  # would raise AssertionError on inconsistency


def test_energy_slopes():
    for k, a in GRID:
        p = params_for(k, a)
        e0 = spectral_chain(p, QuantumState(0, 0, 0, 0)).E
        slopes = (F(-4), -4 * p.k1, -4 * p.k2, -4 * p.k3)
        for axis, slope in enumerate(slopes):
            bumped = [0, 0, 0, 0]
            bumped[axis] = 1
            e1 = spectral_chain(p, QuantumState(*bumped)).E
            assert e1 - e0 == OmegaPoly.omega(scale=slope)


def test_energy_monotonicity():
    p = params_for((2, 1, 2), MIXED)
    rng = random.Random(61)
    for _ in range(40):
        st = QuantumState(*(rng.randint(0, 5) for _ in range(4)))
        axis = rng.randint(0, 3)
        up = list(st)
        up[axis] += 1
        e_lo = opoly_eval(spectral_chain(p, st).E, 1)
        e_hi = opoly_eval(spectral_chain(p, QuantumState(*up)).E, 1)
        assert e_hi < e_lo  # energies are negative and decrease as n grows


def test_ell2_shift_identity():
    """ell2 + (k1^2 - k2^2)/4 == k1^2 (1/4 - A1^2)."""
    for k, a in GRID:
        p = params_for(k, a)
        for st in (QuantumState(0, 0, 0, 0), QuantumState(1, 2, 3, 4),
                   QuantumState(0, 5, 1, 2)):
            d = spectral_chain(p, st)
            assert d.ell2 + (p.k1**2 - p.k2**2) / 4 == p.k1**2 * (F(1, 4) - d.A1**2)


def test_a0_squared_identity():
    for k, a in GRID:
        p = params_for(k, a)
        d = spectral_chain(p, QuantumState(2, 1, 0, 3))
        assert d.A0**2 == p.k1**2 - d.ell1


def test_slot_gauges():
    p = params_for((2, 1, 1))
    d = spectral_chain(p, QuantumState(0, 0, 0, 0))
    g1 = gauge_for_slot(p, d, 1)
    assert (g1.a, g1.b, g1.c, g1.d, g1.k) == (F(7, 4), F(1, 2), F(-1, 2), F(1, 2), 2)
    g2 = gauge_for_slot(p, d, 2)
    assert (g2.a, g2.b, g2.c, g2.d) == (2, F(1, 2), 0, F(1, 2))
    g3 = gauge_for_slot(p, d, 3)
    assert (g3.a, g3.b, g3.c, g3.d) == (F(1, 2), F(1, 2), F(1, 2), F(1, 2))
    assert g1.N(0) == F(7, 4) + F(1, 2) + 1
    assert g1.shifted(-2).a == g1.a - 2
    assert g1.shifted(-2).b == g1.b


def test_slot3_factor_is_sin_cos():
    """Halves ground slot-3 function is sin(t)cos(t), an eigenfunction of d^2."""
    p = params_for((1, 1, 1), omega=1)
    psi = wavefunction(p, (0, 0, 0, 0))
    f3 = psi.factors[3]
    for t in (0.3, 0.7, 1.1):
        j = f3(t, 2)
        assert j.value == pytest.approx(math.sin(t) * math.cos(t), rel=1e-14)
        assert j.derivative((2,)) == pytest.approx(-4.0 * j.value, rel=1e-12)


def test_radial_factor_ground_value():
    """A0 = 5, omega = 1: radial part at r=1 is e^(-1/2)."""
    p = params_for((1, 1, 1), omega=1)
    psi = wavefunction(p, (0, 0, 0, 0))
    assert psi.factors[0](1.0, 0).value == pytest.approx(math.exp(-0.5), rel=1e-14)


def test_ground_state_is_pure_weight():
    """No polynomial part at n = 0: the value is the product of bare weights."""
    p = params_for((2, 1, 1), MIXED, omega=F(3, 2))
    d = spectral_chain(p, QuantumState(0, 0, 0, 0))
    g = [gauge_for_slot(p, d, s) for s in (1, 2, 3)]
    w = 1.5
    pt = (1.3, 0.31, 0.52, 0.77)
    want = w ** (float(d.A0) / 2) * math.exp(-w * pt[0] ** 2 / 2) * pt[0] ** (float(d.A0) - 1)
    for i, gg in enumerate(g):
        kk = float(gg.k)
        want *= (math.sin(kk * pt[i + 1]) ** float(gg.a + gg.c)
                 * math.cos(kk * pt[i + 1]) ** float(gg.b + gg.d))
    psi = wavefunction(p, (0, 0, 0, 0))
    assert psi.value(pt) == pytest.approx(want, rel=1e-12)


def test_wavefunction_requires_numeric_omega_and_cell():
    p = params_for((2, 1, 1))
    with pytest.raises(ValueError):
        wavefunction(p, (0, 0, 0, 0))
    pw = p.with_omega(1)
    psi = wavefunction(pw, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        psi((1.0, 1.2, 0.3, 0.4), 0)  # k1*theta1 > pi/2
    with pytest.raises(ValueError):
        potential_v0(p, (1.0, 0.3, 0.3, 0.3))


def test_value_enforces_the_cell_like_call():
    """value and __call__ reject the same point: k3 theta3 = 2 pi + 0.3 lies
    outside (0, pi/2) even though every sine and cosine is finite there."""
    psi = wavefunction(params_for((2, 1, 1), MIXED, omega=1), (1, 1, 1, 1))
    pt = (1.0, 0.5, 1.0, 2 * math.pi + 0.3)
    with pytest.raises(ValueError, match="outside the principal cell"):
        psi(pt, 0)
    with pytest.raises(ValueError, match="outside the principal cell"):
        psi.value(pt)


def test_factor_jets_truncate_bit_for_bit():
    """A separated factor evaluated at a high order and truncated equals the
    factor evaluated at the lower order, coefficient for coefficient under
    float.hex: the context keeps only the highest order it has built."""
    p = params_for((2, 1, 1), MIXED, omega=F(3, 2))
    hexes = lambda jet: [c.hex() for c in jet.coeffs]
    for st in ((0, 0, 0, 0), (2, 1, 3, 1), (4, 3, 2, 5)):
        ch = spectral_chain(p, QuantumState(*st))
        factors = [(radial_factor(p.omega, st[0], ch.A0), 1.37)]
        for slot in (1, 2, 3):
            gauge = gauge_for_slot(p, ch, slot)
            x = 0.4 * math.pi / (2 * float(gauge.k))
            factors += [(slot_factor(gauge, st[slot]), x),
                        (slot_factor(gauge.shifted(-2), st[slot] + 1), x)]
        for ev, x in factors:
            for top in range(1, 6):
                high = ev(x, top)
                for order in range(top):
                    assert hexes(high.truncated(order)) == hexes(ev(x, order))


def test_factor_memo_is_keyed_by_the_factor_not_the_state():
    """Two states with the same slot-3 data share that factor's jet at one
    context, and a lower order is served from a higher one."""
    p = params_for((2, 1, 1), MIXED, omega=1)
    a, b = wavefunction(p, (0, 1, 2, 3)), wavefunction(p, (2, 0, 1, 3))
    ctx = EvalPoint((1.1, 0.3, 0.6, 0.7))
    ja = a.factor_jets(ctx, 3)
    jb = b.factor_jets(ctx, 3)
    assert ja[3] is jb[3] and ja[0] is not jb[0]
    assert ja[3].coeffs[:3] == b.factor_jets(ctx, 2)[3].coeffs
    assert [j.coeffs for j in a.factor_jets(EvalPoint(ctx), 3)] == [j.coeffs for j in ja]


def _box_factors(p, nmax):
    """(axis, evaluator) of every distinct radial and slot factor of the
    states with n_i <= nmax, with each slot gauge also shifted by -2 and +2."""
    found = set()
    for st in enumerate_states(nmax):
        if st.n0:
            continue  # the chain and the gauges do not depend on n0
        ch = spectral_chain(p, st)
        found.update((n0, 0, ch.A0) for n0 in range(nmax + 1))
        for slot in (1, 2, 3):
            gauge = gauge_for_slot(p, ch, slot)
            found.update((st[slot], slot, g)
                         for g in (gauge, gauge.shifted(-2), gauge.shifted(2))
                         if st[slot] < 2 or g.a + g.b > -2)  # else no recurrence
    return [(axis, radial_factor(p.omega, n, g) if axis == 0 else slot_factor(g, n))
            for n, axis, g in sorted(found, key=lambda f: f[:2])]


def test_shared_factor_blocks_are_bit_identical():
    """Every radial and slot factor of the nmax-4 box, index-shifted gauges
    included, gives the same coefficients under float.hex three ways: through
    one context that builds the factors in ascending n, through one that
    builds them in descending n, and from a standalone call.  This holds at
    order 5, then at orders 2 and 0 (the ascending context serves those by
    truncation, the descending one is fresh and builds its blocks at that
    order).  One context serves all parameter sets at a point, and it also
    holds the slot-3 factors of a set that differs from the first only in a4
    (slot 3's b), so a block key that lost a parameter would mix blocks."""
    sets = [params_for((2, 1, 1), MIXED, F(3, 2)),
            params_for((F(3, 2), F(3, 2), 1), MIXED, F(3, 2))]
    other_b = params_for((2, 1, 1), MIXED[:3] + (F(5, 4),), F(3, 2))
    factors = [f for p in sets for f in _box_factors(p, 4)]
    factors += [f for f in _box_factors(other_b, 4) if f[0] == 3]
    ascending = sorted(factors, key=lambda f: f[1].key[1])  # by n
    hexes = lambda jet: [c.hex() for c in jet.coeffs]
    for pt in ((1.3, 0.31, 0.52, 0.77), (0.8, 0.62, 0.4, 1.1)):
        up = EvalPoint(pt)
        for order in (5, 2, 0):
            down = EvalPoint(pt)
            got_down = {f: hexes(down.factor(f[1], f[0], order))
                        for f in reversed(ascending)}
            for axis, ev in ascending:
                want = hexes(ev(pt[axis], order))
                assert hexes(up.factor(ev, axis, order)) == want, (ev.key, axis, order)
                assert got_down[(axis, ev)] == want, (ev.key, axis, order)


def test_one_context_serves_parameter_sets_that_differ_in_one_b():
    """Two parameter sets that differ only in a1, slot 1's b, have the same
    k1 and A1 at every state, so only the b in a block key tells their slot-1
    Jacobi chains apart.  Through one shared EvalPoint, each set's
    wavefunction jets over the n <= 2 box have the float.hex of a context of
    its own, in either order of the sets."""
    sets = [params_for((2, 1, 1), MIXED, F(3, 2)),
            params_for((2, 1, 1), (F(5, 4),) + MIXED[1:], F(3, 2))]
    assert (spectral_chain(sets[0], (1, 2, 1, 0)).A1
            == spectral_chain(sets[1], (1, 2, 1, 0)).A1)
    hexes = lambda jet: [c.hex() for c in jet.coeffs]
    pt = (1.3, 0.31, 0.52, 0.77)
    for order in (sets, sets[::-1]):
        shared = EvalPoint(pt)
        for st in enumerate_states(2):
            for p in order:
                want = hexes(wavefunction(p, st)(EvalPoint(pt), 2))
                assert hexes(wavefunction(p, st)(shared, 2)) == want, (p.a1, tuple(st))


def test_in_cell():
    p = params_for((2, 1, 1))
    assert in_cell(p, (1.0, 0.5, 1.0, 1.0))
    assert not in_cell(p, (1.0, 0.9, 1.0, 1.0))
    assert not in_cell(p, (-1.0, 0.5, 1.0, 1.0))
    assert not in_cell(p, (1.0, 0.5, 0.0, 1.0))
    assert not in_cell(p, (math.nan, 0.1, 0.1, 0.1))
    assert not in_cell(p, (math.inf, 0.1, 0.1, 0.1))
    with pytest.raises(ValueError, match="outside the principal cell"):
        curvature_at(p, (math.nan, 0.1, 0.1, 0.1))


def test_potential_value():
    p = params_for((1, 1, 1), MIXED, omega=2)
    pt = (1.1, 0.4, 0.6, 0.8)
    r, t1, t2, t3 = pt
    want = (-4 * r * r
            + float(p.beta1) / (r * math.cos(t1)) ** 2
            + float(p.beta2) / (r * math.sin(t1) * math.cos(t2)) ** 2
            + float(p.beta3) / (r * math.sin(t1) * math.sin(t2) * math.cos(t3)) ** 2
            + float(p.beta4) / (r * math.sin(t1) * math.sin(t2) * math.sin(t3)) ** 2)
    assert potential_v0(p, pt) == pytest.approx(want, rel=1e-14)


def test_degeneracy_example_k211():
    p = params_for((2, 1, 1))
    classes = degeneracy_classes(p, 2)
    e = spectral_chain(p, QuantumState(2, 0, 0, 0)).E
    members = classes[e]
    assert QuantumState(2, 0, 0, 0) in members
    assert QuantumState(0, 1, 0, 0) in members


def test_degeneracy_isotropic_counts():
    p = params_for((1, 1, 1))
    classes = degeneracy_classes(p, 1)
    ground = spectral_chain(p, QuantumState(0, 0, 0, 0)).E
    assert classes[ground] == [QuantumState(0, 0, 0, 0)]
    first = spectral_chain(p, QuantumState(0, 0, 0, 1)).E
    assert len(classes[first]) == 4  # the four unit states
    assert sum(len(v) for v in classes.values()) == 16


def test_enumerate_states_count():
    assert len(list(enumerate_states(2))) == 81
