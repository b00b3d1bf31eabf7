"""Tensor calculus for the diagonal model metric.

The metric is g = diag(1, r^2, r^2 sin^2(k1 t1), r^2 sin^2(k1 t1) sin^2(k2 t2))
on (r, t1, t2, t3).  Christoffel symbols, Riemann, Ricci, R, the Weyl tensor
and invariant, and the Laplace–Beltrami operator all come from jets of the
closed-form components, in plain floats with every sum in C index order;
no arrays, no finite differences and no symbolic algebra.

Sign conventions (frozen once, checked against closed forms everywhere):
    R^rho_{sigma mu nu} = d_mu Gamma^rho_{nu sigma} - d_nu Gamma^rho_{mu sigma}
                          + Gamma^rho_{mu lam} Gamma^lam_{nu sigma}
                          - Gamma^rho_{nu lam} Gamma^lam_{mu sigma}
    Ricci_{sigma nu} = R^mu_{sigma mu nu},   R = g^{sigma nu} Ricci_{sigma nu}.
With these, the computed scalar curvature matches
    R = -6/r^2 + k1^2 (6/r^2 - 2/(r^2 sin^2 k1 t1)) + 2 k2^2/(r^2 sin^2 k1 t1)
with no sign flip.  The Weyl invariant is W = sqrt(3 W.W); the closed form
2 (k1^2 - k2^2)/(r^2 sin^2 k1 t1) is signed, so the invariant equals it for
k1 >= k2 and equals its absolute value otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .diffops import DiffOperator, build_h, coords
from .model import SystemParams, in_cell, potential_v0
from .numcore import EvalPoint, Jet


def metric_diag_jets(params: SystemParams, point, order: int):
    """Jets of the four diagonal metric components at a point."""
    r, t1, t2, t3 = coords(point, order)
    k1, k2 = float(params.k1), float(params.k2)
    s1 = (t1 * k1).sin()
    s2 = (t2 * k2).sin()
    g0 = Jet.constant(1.0, point, order)
    g1 = r * r
    g2 = g1 * (s1 * s1)
    g3 = g2 * (s2 * s2)
    return (g0, g1, g2, g3)


@dataclass
class CurvatureReport:
    """Curvature at one cell point; tensors are nested lists, riemann[rho][sigma][mu][nu]."""
    riemann: list                # fully covariant R_{rho sigma mu nu}
    ricci: list                  # Ricci_{sigma nu}
    R: float                     # scalar curvature
    weyl: list                   # fully covariant C_{abcd}
    W: float                     # sqrt(3 W.W)
    gdiag: list                  # metric diagonal at the point
    ginv: list                   # inverse metric diagonal


_AXES = range(4)
INDEX4 = tuple(product(_AXES, repeat=4))    # every (a, b, c, d) in C order


def ordered_sum(values) -> float:
    """Left-to-right float sum from 0.0 (the built-in compensates from Python 3.12)."""
    acc = 0.0
    for v in values:
        acc += v
    return acc


def _weyl_square(weyl, ginv) -> float:
    """W_{abcd} W^{abcd} through the diagonal inverse metric, indices in C order."""
    acc = 0.0
    for a, b, c, d in INDEX4:
        w = weyl[a][b][c][d]
        acc += w * w * ginv[a] * ginv[b] * ginv[c] * ginv[d]
    return acc


def curvature_at(params: SystemParams, point) -> CurvatureReport:
    """Full curvature data at a cell point, from order-2 metric jets."""
    point = tuple(float(x) for x in point)
    if not in_cell(params, point):
        raise ValueError(f"point {point} outside the principal cell")
    g = metric_diag_jets(params, point, 2)
    ginv1 = [gj.truncated(1).reciprocal() for gj in g]
    unit = [tuple(1 if j == i else 0 for j in _AXES) for i in _AXES]

    # Christoffel symbols as order-1 jets, read once as plain floats:
    # chris[rho][mu][nu] = Gamma^rho_{mu nu}, dchris[rho][mu][nu][a] its d_a
    dg = [[g[a].derivative_jet(unit[m]) for m in _AXES] for a in _AXES]
    chris = [[[0.0] * 4 for _ in _AXES] for _ in _AXES]
    dchris = [[[[0.0] * 4 for _ in _AXES] for _ in _AXES] for _ in _AXES]
    for rho, mu, nu in product(_AXES, repeat=3):
        # 0.5 g^{rho rho} (d_mu g_{rho nu} + d_nu g_{rho mu} - d_rho g_{mu nu})
        acc = None
        if nu == rho:
            acc = dg[rho][mu]
        if mu == rho:
            acc = dg[rho][nu] if acc is None else acc + dg[rho][nu]
        if mu == nu:
            acc = -dg[mu][rho] if acc is None else acc - dg[mu][rho]
        if acc is not None:
            gamma = ginv1[rho] * acc * 0.5
            chris[rho][mu][nu] = gamma.value
            dchris[rho][mu][nu] = [gamma.derivative(e) for e in unit]

    # Riemann with one index up, then lowered through the diagonal metric
    def riemann_up(rho, sig, mu, nu):
        val = dchris[rho][nu][sig][mu] - dchris[rho][mu][sig][nu]
        for lam in _AXES:
            val += (chris[rho][mu][lam] * chris[lam][nu][sig]
                    - chris[rho][nu][lam] * chris[lam][mu][sig])
        return val

    riem_up = [[[[riemann_up(r_, s, m, n) for n in _AXES] for m in _AXES] for s in _AXES]
               for r_ in _AXES]
    gdiag = [gj.value for gj in g]
    ginv = [1.0 / x for x in gdiag]
    riem = [[[[gdiag[r_] * x for x in row] for row in plane] for plane in riem_up[r_]]
            for r_ in _AXES]
    ricci = [[ordered_sum(riem_up[m][s][m][n] for m in _AXES) for n in _AXES] for s in _AXES]
    scal = ordered_sum(ginv[i] * ricci[i][i] for i in _AXES)

    # Weyl: trace-corrected Riemann (4D coefficients)
    def weyl_entry(a, b, c, d):
        corr = 0.0
        if a == c:
            corr -= 0.5 * gdiag[a] * ricci[b][d]
        if a == d:
            corr += 0.5 * gdiag[a] * ricci[b][c]
        if b == d:
            corr -= 0.5 * gdiag[b] * ricci[a][c]
        if b == c:
            corr += 0.5 * gdiag[b] * ricci[a][d]
        if a == c and b == d:
            corr += (scal / 6.0) * gdiag[a] * gdiag[b]
        if a == d and b == c:
            corr -= (scal / 6.0) * gdiag[a] * gdiag[b]
        return riem[a][b][c][d] + corr

    weyl = [[[[weyl_entry(a, b, c, d) for d in _AXES] for c in _AXES] for b in _AXES]
            for a in _AXES]
    winv = math.sqrt(3.0 * _weyl_square(weyl, ginv))
    return CurvatureReport(riem, ricci, scal, weyl, winv, gdiag, ginv)


# -- closed forms for comparison ------------------------------------------------

def scalar_curvature_closed(params: SystemParams, point) -> float:
    r, t1 = float(point[0]), float(point[1])
    k1, k2 = float(params.k1), float(params.k2)
    s2 = math.sin(k1 * t1) ** 2
    return (-6 / r ** 2 + k1 ** 2 * (6 / r ** 2 - 2 / (r ** 2 * s2))
            + 2 * k2 ** 2 / (r ** 2 * s2))


def weyl_invariant_closed(params: SystemParams, point) -> float:
    """|2 (k1^2 - k2^2)| / (r^2 sin^2 k1 t1) — the invariant is nonnegative."""
    r, t1 = float(point[0]), float(point[1])
    k1, k2 = float(params.k1), float(params.k2)
    s2 = math.sin(k1 * t1) ** 2
    return abs(2 * (k1 ** 2 - k2 ** 2)) / (r ** 2 * s2)


# -- Laplace–Beltrami -----------------------------------------------------------

def laplace_beltrami(params: SystemParams) -> DiffOperator:
    """The metric Laplacian, coefficients derived from metric jets.

    For the diagonal metric: sum_a g^{aa} d_a^2 + (d_a(sqrt(g) g^{aa})/sqrt(g)) d_a.
    The metric jets and sqrt(g) are built once per context and order, not
    once per coefficient.
    """
    def metric(p, o):
        return metric_diag_jets(params, p, o)

    def sqrt_det(p, o):
        g = p.jet(metric, o)
        return (g[0] * g[1] * g[2] * g[3]).sqrt()

    def second_coeff(axis):
        def fn(p, o):
            return EvalPoint.of(p).jet(metric, o)[axis].reciprocal()
        return fn

    def first_coeff(axis):
        def fn(p, o):
            p = EvalPoint.of(p)
            g = p.jet(metric, o + 1)
            sqrtg = p.jet(sqrt_det, o + 1)
            h = sqrtg * g[axis].reciprocal()
            e = tuple(1 if j == axis else 0 for j in range(4))
            return h.derivative_jet(e) / sqrtg.truncated(o)
        return fn

    terms = []
    for a in range(4):
        mu2 = tuple(2 if j == a else 0 for j in range(4))
        mu1 = tuple(1 if j == a else 0 for j in range(4))
        terms.append((mu2, second_coeff(a)))
        terms.append((mu1, first_coeff(a)))
    return DiffOperator(terms)


def conformal_identity_check(params: SystemParams, points, fns) -> list:
    """Per function, the worst relative residual of H f = (lap + V0 - R/6 - W/24) f.

    Curvature is computed once per point, H and lap once per call.  One
    context per point serves every function, so the coefficients of H and
    lap are built once per point and each f once per order.  W enters
    signed: the quantum-corrected Hamiltonian uses 2(k1^2-k2^2)/(r^2 sin^2 k1 t1)/24,
    which is the invariant for k1 >= k2 and its negative otherwise.
    """
    if params.omega is None:
        raise ValueError("conformal check needs a fixed numeric omega")
    lap = laplace_beltrami(params)
    H = build_h(params)
    residuals = [[] for _ in fns]
    for p in points:
        ctx = EvalPoint(p)
        rep = curvature_at(params, ctx)
        wsigned = rep.W if params.k1 >= params.k2 else -rep.W
        scalar = potential_v0(params, ctx) - rep.R / 6.0 - wsigned / 24.0
        for f, out in zip(fns, residuals):
            fval = ctx.jet(f, 0).value
            lhs = H.apply(f, ctx, 0).value
            rhs = lap.apply(f, ctx, 0).value + scalar * fval
            out.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
    return [max(out) for out in residuals]
