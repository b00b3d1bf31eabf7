"""Tensor calculus for the diagonal model metric.

The metric is g = diag(1, r^2, r^2 sin^2(k1 t1), r^2 sin^2(k1 t1) sin^2(k2 t2))
on (r, t1, t2, t3).  Everything downstream — Christoffel symbols, Riemann,
Ricci, scalar curvature, Weyl tensor and its quadratic invariant, and the
Laplace–Beltrami operator — is produced from jets of the closed-form
components; no finite differences and no symbolic algebra.

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

import numpy as np

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
    point: tuple
    christoffel: np.ndarray      # Gamma^rho_{mu nu}, shape (4,4,4)
    riemann: np.ndarray          # fully covariant R_{rho sigma mu nu}
    ricci: np.ndarray            # Ricci_{sigma nu}
    R: float                     # scalar curvature
    weyl: np.ndarray             # fully covariant C_{abcd}
    W: float                     # sqrt(3 W.W)
    gdiag: np.ndarray            # metric diagonal at the point
    ginv: np.ndarray             # inverse metric diagonal


_AXES = range(4)


def curvature_at(params: SystemParams, point) -> CurvatureReport:
    """Full curvature data at a cell point, from order-2 metric jets."""
    point = tuple(float(x) for x in point)
    if not in_cell(params, point):
        raise ValueError(f"point {point} outside the principal cell")
    g = metric_diag_jets(params, point, 2)
    g1 = [gj.truncated(1) for gj in g]
    ginv1 = [gj.reciprocal() for gj in g1]
    unit = [tuple(1 if j == i else 0 for j in _AXES) for i in _AXES]

    # Christoffel symbols as order-1 jets (their first derivatives feed Riemann)
    dg = [[g[a].derivative_jet(unit[m]) for m in _AXES] for a in _AXES]
    gamma = [[[None] * 4 for _ in _AXES] for _ in _AXES]
    for rho in _AXES:
        for mu in _AXES:
            for nu in _AXES:
                # 0.5 g^{rho rho} (d_mu g_{rho nu} + d_nu g_{rho mu} - d_rho g_{mu nu})
                acc = None
                if nu == rho:
                    acc = dg[rho][mu]
                if mu == rho:
                    acc = dg[rho][nu] if acc is None else acc + dg[rho][nu]
                if mu == nu:
                    acc = -dg[mu][rho] if acc is None else acc - dg[mu][rho]
                if acc is None:
                    gamma[rho][mu][nu] = Jet.constant(0.0, point, 1)
                else:
                    gamma[rho][mu][nu] = ginv1[rho] * acc * 0.5

    chris = np.array([[[gamma[r_][m][n].value for n in _AXES] for m in _AXES]
                      for r_ in _AXES])

    # Riemann with one index up, then lowered through the diagonal metric
    riem_up = np.zeros((4, 4, 4, 4))
    for rho in _AXES:
        for sig in _AXES:
            for mu in _AXES:
                for nu in _AXES:
                    val = (gamma[rho][nu][sig].derivative(unit[mu])
                           - gamma[rho][mu][sig].derivative(unit[nu]))
                    for lam in _AXES:
                        val += (chris[rho][mu][lam] * chris[lam][nu][sig]
                                - chris[rho][nu][lam] * chris[lam][mu][sig])
                    riem_up[rho, sig, mu, nu] = val

    gdiag = np.array([gj.value for gj in g])
    ginv = 1.0 / gdiag
    riem = np.einsum("r,rsmn->rsmn", gdiag, riem_up)
    ricci = np.einsum("msmn->sn", riem_up)
    scal = float(np.sum(ginv * np.diag(ricci)))

    # Weyl: trace-corrected Riemann (4D coefficients)
    weyl = riem.copy()
    for a in _AXES:
        for b in _AXES:
            for c in _AXES:
                for d in _AXES:
                    corr = 0.0
                    if a == c:
                        corr -= 0.5 * gdiag[a] * ricci[b, d]
                    if a == d:
                        corr += 0.5 * gdiag[a] * ricci[b, c]
                    if b == d:
                        corr -= 0.5 * gdiag[b] * ricci[a, c]
                    if b == c:
                        corr += 0.5 * gdiag[b] * ricci[a, d]
                    if a == c and b == d:
                        corr += (scal / 6.0) * gdiag[a] * gdiag[b]
                    if a == d and b == c:
                        corr -= (scal / 6.0) * gdiag[a] * gdiag[b]
                    weyl[a, b, c, d] += corr

    ww = float(np.einsum("abcd,abcd,a,b,c,d->", weyl, weyl, ginv, ginv, ginv, ginv))
    winv = math.sqrt(max(3.0 * ww, 0.0))
    return CurvatureReport(point, chris, riem, ricci, scal, weyl, winv, gdiag, ginv)


def weyl_invariant(report: CurvatureReport) -> float:
    """sqrt(3 W_{abcd} W^{abcd}) recomputed from a report's Weyl tensor."""
    gi = report.ginv
    ww = float(np.einsum("abcd,abcd,a,b,c,d->", report.weyl, report.weyl,
                         gi, gi, gi, gi))
    if ww < -1e-12:
        raise ArithmeticError("negative Weyl contraction: engine inconsistency")
    return math.sqrt(3.0 * max(ww, 0.0))


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


def vhat1(params: SystemParams, point) -> float:
    """First quantum correction (k1^2 - k2^2)/(4 r^2 sin^2 k1 t1)."""
    r, t1 = float(point[0]), float(point[1])
    k1, k2 = float(params.k1), float(params.k2)
    return float(params.k1 ** 2 - params.k2 ** 2) / (
        4 * r ** 2 * math.sin(k1 * t1) ** 2)


def vhat2(params: SystemParams, point) -> float:
    """Second quantum correction (1 - k1^2)/r^2."""
    r = float(point[0])
    return float(1 - params.k1 ** 2) / r ** 2


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
