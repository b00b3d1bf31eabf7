import hashlib
import math
import random
from fractions import Fraction as F

import pytest

from ttw4d.diffops import build_h
from ttw4d.geometry import (
    conformal_identity_check,
    curvature_at,
    laplace_beltrami,
    metric_diag_jets,
    scalar_curvature_closed,
    weyl_invariant_closed,
)
from ttw4d.model import QuantumState, SystemParams, potential_v0, wavefunction
from ttw4d.numcore import Jet

HALVES = (F(1, 2),) * 4
MIXED = (F(1, 3), F(2, 5), F(3, 7), F(1, 2))


def params_for(k, a=HALVES, omega=None):
    return SystemParams(*k, *a, omega)


# (k1, k2, r, theta1) -> (R, W); angles theta2/theta3 and k3 never enter.
FROZEN_PROBES = [
    ((2, 1, 1), 1.0, math.pi / 8, 6.0, 12.0),
    ((1, 1, 1), 2.0, math.pi / 5, 0.0, 0.0),
    ((F(3, 2), F(3, 2), 1), 1.0, math.pi / 7, 7.5, 0.0),
    ((2, 1, 1), 1.5, math.pi / 6, 40.0 / 9.0, 32.0 / 9.0),
    ((3, 2, 1), 1.0, math.pi / 9, 104.0 / 3.0, 40.0 / 3.0),
]


def test_frozen_curvature_probes():
    for k, r, t1, R, W in FROZEN_PROBES:
        p = params_for(k)
        pt = (r, t1, 0.6 / float(p.k2), 0.7 / float(p.k3))
        rep = curvature_at(p, pt)
        assert rep.R == pytest.approx(R, abs=1e-12 * max(1, abs(R)))
        assert rep.W == pytest.approx(W, abs=1e-12 * max(1, abs(W)))


# Per FROZEN_PROBES point: float.hex of R and W, and a sha256 over the
# float.hex of every Riemann, Ricci, Weyl, gdiag and ginv entry in C order.
FROZEN_BITS = [
    ("0x1.7fffffffffffdp+2", "0x1.8000000000001p+3",
     "b469c6bc5e2f195d2876698b29f22f653a4d1c1bf0913d0f78a2016ccd18749e"),
    ("-0x1.cd3c9ce063cdep-52", "0x1.0afe3bd9c13b9p-49",
     "6648bffc98a83392af1020e970ac6638bc2376b3f8a3a4b037fd0f3b5de60481"),
    ("0x1.dfffffffffffap+2", "0x1.469b31239873bp-46",
     "f85d1ab519ba08e706f87dcd9e3043a2a093623ce3665c54b7f14d7446dfd2e8"),
    ("0x1.1c71c71c71c71p+2", "0x1.c71c71c71c720p+1",
     "8bf0f77763490233439ab62452426b2ccc8241f3e240b2dfa46ccf13afb2c9d1"),
    ("0x1.1555555555556p+5", "0x1.aaaaaaaaaaaabp+3",
     "e588ce024036e6fd03cd76b929b05e4cdd3d91e200f735c8b023d99bf495fdf9"),
]


def _leaves(x):
    if isinstance(x, float):
        yield x
    else:
        for y in x:
            yield from _leaves(y)


def test_frozen_curvature_bits():
    """The curvature engine's floats are pinned bit for bit, not to a tolerance."""
    for (k, r, t1, _, _), (R, W, digest) in zip(FROZEN_PROBES, FROZEN_BITS, strict=True):
        p = params_for(k)
        rep = curvature_at(p, (r, t1, 0.6 / float(p.k2), 0.7 / float(p.k3)))
        assert (float.hex(rep.R), float.hex(rep.W)) == (R, W)
        h = hashlib.sha256()
        for name in ("riemann", "ricci", "weyl", "gdiag", "ginv"):
            for v in _leaves(getattr(rep, name)):
                h.update(float.hex(v).encode() + b"\n")
        assert h.hexdigest() == digest, (k, r, t1)


def test_metric_diagonal_and_determinant():
    p = params_for((2, 1, 2), MIXED)
    pt = (1.3, 0.35, 0.7, 0.5)
    g = metric_diag_jets(p, pt, 0)
    r, t1 = pt[0], pt[1]
    s1 = math.sin(2 * t1)
    s2 = math.sin(pt[2])
    assert g[0].value == pytest.approx(1.0)
    assert g[1].value == pytest.approx(r * r)
    assert g[2].value == pytest.approx(r * r * s1 * s1)
    assert g[3].value == pytest.approx(r * r * s1 * s1 * s2 * s2)
    det = g[0].value * g[1].value * g[2].value * g[3].value
    assert det == pytest.approx(r**6 * s1**4 * s2**2, rel=1e-13)


def test_closed_forms_match_tensor_computation():
    rng = random.Random(131)
    for k in ((2, 1, 1), (F(3, 2), F(3, 2), 1), (3, 2, 1), (2, 1, 2)):
        p = params_for(k)
        for _ in range(8):
            pt = (rng.uniform(0.6, 2.2),
                  rng.uniform(0.15, 0.85) * math.pi / (2 * float(p.k1)),
                  rng.uniform(0.15, 0.85) * math.pi / (2 * float(p.k2)),
                  rng.uniform(0.15, 0.85) * math.pi / (2 * float(p.k3)))
            rep = curvature_at(p, pt)
            R_closed = scalar_curvature_closed(p, pt)
            W_closed = weyl_invariant_closed(p, pt)
            assert abs(rep.R - R_closed) <= 1e-9 * max(1.0, abs(R_closed))
            assert abs(rep.W - W_closed) <= 1e-9 * max(1.0, abs(W_closed))


def test_flat_when_all_k_equal_one():
    p = params_for((1, 1, 1), MIXED)
    rng = random.Random(137)
    for _ in range(10):
        pt = (rng.uniform(0.5, 2.5), rng.uniform(0.2, 1.3),
              rng.uniform(0.2, 1.3), rng.uniform(0.2, 1.3))
        rep = curvature_at(p, pt)
        assert abs(rep.R) <= 1e-10
        assert abs(rep.W) <= 1e-10
        flat = all(abs(rep.riemann[i][j][k][l]) <= 1e-10
                   for i in range(4) for j in range(4)
                   for k in range(4) for l in range(4))
        assert flat


def test_equal_k_is_conformally_flat_but_curved():
    """k1 = k2 kills the Weyl invariant; the scalar curvature survives."""
    p = params_for((F(3, 2), F(3, 2), 1))
    pt = (1.0, math.pi / 7, 0.7, 0.8)
    rep = curvature_at(p, pt)
    assert abs(rep.W) <= 1e-10
    assert rep.R == pytest.approx(7.5, rel=1e-12)


def test_weyl_scales_as_inverse_square():
    """Both curvatures carry 1/r²: doubling r quarters R and W."""
    p = params_for((2, 1, 1))
    t1 = math.pi / 8
    r1 = curvature_at(p, (1.0, t1, 0.7, 0.8))
    r2 = curvature_at(p, (2.0, t1, 0.7, 0.8))
    assert r2.W == pytest.approx(r1.W / 4.0, rel=1e-11)
    assert r2.R == pytest.approx(r1.R / 4.0, rel=1e-11)


def test_riemann_symmetries_and_ricci_trace():
    p = params_for((2, 1, 2), MIXED)
    rng = random.Random(139)
    for _ in range(5):
        pt = (rng.uniform(0.6, 2.0),
              rng.uniform(0.2, 0.8) * math.pi / (2 * float(p.k1)),
              rng.uniform(0.2, 0.8) * math.pi / (2 * float(p.k2)),
              rng.uniform(0.2, 0.8) * math.pi / (2 * float(p.k3)))
        rep = curvature_at(p, pt)
        Rm = rep.riemann
        scale = max(abs(Rm[i][j][k][l]) for i in range(4) for j in range(4)
                    for k in range(4) for l in range(4)) or 1.0
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    for l in range(4):
                        assert abs(Rm[i][j][k][l] + Rm[j][i][k][l]) <= 1e-10 * scale
                        assert abs(Rm[i][j][k][l] + Rm[i][j][l][k]) <= 1e-10 * scale
                        assert abs(Rm[i][j][k][l] - Rm[k][l][i][j]) <= 1e-10 * scale
                        bianchi = Rm[i][j][k][l] + Rm[i][k][l][j] + Rm[i][l][j][k]
                        assert abs(bianchi) <= 1e-10 * scale
        # Ricci symmetry and its trace against R
        tr = 0.0
        for i in range(4):
            for j in range(4):
                assert abs(rep.ricci[i][j] - rep.ricci[j][i]) <= 1e-10 * scale
            tr += rep.ricci[i][i] * rep.ginv[i]
        assert tr == pytest.approx(rep.R, rel=1e-10)


def test_weyl_tensor_is_traceless():
    p = params_for((3, 2, 1))
    pt = (1.1, math.pi / 9, 0.5, 0.7)
    rep = curvature_at(p, pt)
    scale = max(abs(rep.weyl[i][j][k][l]) for i in range(4) for j in range(4)
                for k in range(4) for l in range(4)) or 1.0
    for s in range(4):
        for n in range(4):
            tr = sum(rep.weyl[m][s][m][n] * rep.ginv[m] for m in range(4))
            assert abs(tr) <= 1e-10 * scale


def test_laplacian_on_r_squared():
    """lap r² = 8 in four dimensions, any metric of this family."""
    for k in ((1, 1, 1), (2, 1, 1), (2, 1, 2)):
        p = params_for(k, MIXED)
        lap = laplace_beltrami(p)

        def f(pt, o):
            r = Jet.variable(pt, 0, o)
            return r * r

        for pt in ((1.0, 0.4 / float(p.k1), 0.6, 0.5),
                   (1.7, 0.7 / float(p.k1), 0.9, 0.4)):
            assert lap.apply(f, pt, 0).value == pytest.approx(8.0, rel=1e-10)


def test_laplacian_theta1_drift_coefficient():
    """lap θ₁ extracts the first-order θ₁ coefficient: 2 k₁ cot(k₁θ₁)/r²."""
    p = params_for((2, 1, 1))
    lap = laplace_beltrami(p)

    def f(pt, o):
        return Jet.variable(pt, 1, o)

    rng = random.Random(149)
    for _ in range(6):
        r = rng.uniform(0.6, 2.0)
        t1 = rng.uniform(0.15, 0.85) * math.pi / (2 * float(p.k1))
        pt = (r, t1, 0.8, 0.7)
        got = lap.apply(f, pt, 0).value
        want = 2 * float(p.k1) / math.tan(float(p.k1) * t1) / (r * r)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_quantum_corrections_match_minus_r6_minus_w24():
    """H 1 - V0, the tower's curvature corrections, equals -R/6 - W/24 with
    the signed Weyl invariant."""
    rng = random.Random(151)

    def one(pt, o):
        return Jet.constant(1.0, pt, o)

    for k in ((1, 1, 1), (2, 1, 1), (F(3, 2), F(3, 2), 1), (2, 1, 2)):
        p = params_for(k, MIXED, omega=F(1))
        H = build_h(p)
        for _ in range(6):
            pt = (rng.uniform(0.6, 2.2),
                  rng.uniform(0.15, 0.85) * math.pi / (2 * float(p.k1)),
                  rng.uniform(0.15, 0.85) * math.pi / (2 * float(p.k2)),
                  rng.uniform(0.15, 0.85) * math.pi / (2 * float(p.k3)))
            rep = curvature_at(p, pt)
            wsigned = rep.W if p.k1 >= p.k2 else -rep.W
            lhs = -rep.R / 6.0 - wsigned / 24.0
            rhs = H.apply(one, pt, 0).value - potential_v0(p, pt)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_conformal_identity_on_eigenfunctions():
    """H = lap + V0 - R/6 - W/24 applied to separated eigenfunctions."""
    rng = random.Random(157)
    for k in ((2, 1, 1), (2, 1, 2)):
        p = params_for(k, omega=F(1))
        psi = wavefunction(p, QuantumState(1, 1, 0, 1))
        for _ in range(5):
            pt = (rng.uniform(0.7, 1.8),
                  rng.uniform(0.2, 0.8) * math.pi / (2 * float(p.k1)),
                  rng.uniform(0.2, 0.8) * math.pi / (2 * float(p.k2)),
                  rng.uniform(0.2, 0.8) * math.pi / (2 * float(p.k3)))
            (res,) = conformal_identity_check(p, [pt], [psi])
            assert res <= 1e-8


def test_conformal_identity_on_generic_functions():
    """The operator identity holds off the eigenbasis too."""
    p = params_for((2, 1, 1), MIXED, omega=F(3, 2))
    rng = random.Random(163)
    for _ in range(5):
        c1, c2 = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)

        def f(pt, o, c1=c1, c2=c2):
            xs = [Jet.variable(pt, i, o) for i in range(4)]
            return ((xs[1] * c1).sin() * (xs[3] * c2).cos()
                    + (xs[0] * xs[2] * 0.3).exp())

        pt = (rng.uniform(0.7, 1.6), rng.uniform(0.15, 0.6),
              rng.uniform(0.3, 1.2), rng.uniform(0.3, 1.2))
        (res,) = conformal_identity_check(p, [pt], [f])
        assert res <= 1e-8


def test_requires_cell_and_omega():
    p = params_for((2, 1, 1))
    with pytest.raises(ValueError):
        curvature_at(p, (1.0, 1.2, 0.5, 0.5))  # k1*theta1 > pi/2
    with pytest.raises(ValueError):
        conformal_identity_check(p, [(1.0, 0.4, 0.5, 0.5)],
                                 [lambda pt, o: Jet.constant(1.0, pt, o)])
