"""Verification suites behind the command-line harness.

Each runner takes normalized knobs (params with numeric omega, state-depth
nmax, point count, seed, tolerance, convention) and returns (cases,
conventions): a list of case records in a fixed enumeration order plus a
record of any convention choices that were made.  A case is a plain dict
{"id", "residual", "pass"}; exact lattice checks report residual 0.0 or the
magnitude of the offending coefficient at omega = 1, and an Xi image that
breaks the chain reports 1.0.

Seeding is strict: the same (seed, knobs) always produces the same points
and test functions, so reports are reproducible byte for byte.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

from . import geometry
from .diffops import (build_example_L1plus, build_index_ladder,
                      build_jacobi_ladder, build_radial_ladder, coords,
                      example211_scalar)
from .lattice import (DivisorSingular, LatticeVector, check_identity,
                      commutator, h_operator, identity_states, l_operator,
                      ladder_action, lpm_operator, m1_minus_operator,
                      window_independence, xi1_closed_form, xi_action,
                      xi_sweep)
from .model import (QuantumState, SystemParams, enumerate_states,
                    gauge_for_slot, radial_factor, slot_factor,
                    spectral_chain, tower_table, wavefunction)
from .numcore import EvalPoint, Jet, opoly_eval

_TINY = 1e-300


def _case(cid: str, residual: float, tol: float) -> dict:
    return {"id": cid, "residual": float(residual), "pass": bool(residual <= tol)}


def _exact_case(cid: str, vec_residuals) -> dict:
    """Case from exact lattice residuals (pass iff all identically zero)."""
    worst = 0.0
    ok = True
    for vec in vec_residuals:
        if vec.is_zero():
            continue
        ok = False
        for _, poly in vec.items():
            worst = max(worst, abs(float(opoly_eval(poly, Fraction(1)))))
    return {"id": cid, "residual": worst if not ok else 0.0, "pass": ok}


def _rel(diff: float, *scales) -> float:
    return abs(diff) / max(*(abs(s) for s in scales), _TINY)


# ---------------------------------------------------------------------------
# seeded sampling
# ---------------------------------------------------------------------------

def sample_points(params: SystemParams, count: int, seed: int):
    """Seeded cell points, r in [0.6, 2.4] and in the middle 60% of each
    angular range."""
    rng = random.Random(seed)
    half = math.pi / 2
    widths = [half / float(params.k(i)) for i in (1, 2, 3)]
    pts = []
    for _ in range(count):
        r = rng.uniform(0.6, 2.4)
        angs = [rng.uniform(0.2, 0.8) * w for w in widths]
        pts.append((r, *angs))
    return pts


def test_functions(count: int, seed: int):
    """Seeded smooth functions on the cell, evaluable as jets.

    Products of a low-degree polynomial in r, a radial Gaussian, and
    sines/cosines of rationally scaled angles; offset so they do not vanish
    on the sampled region.
    """
    rng = random.Random(seed)
    freqs = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)]
    fns = []
    for _ in range(count):
        c0 = rng.uniform(0.5, 1.5)
        c2 = rng.uniform(-0.8, 0.8)
        gam = rng.uniform(0.1, 0.6)
        picks = []
        for axis in (1, 2, 3):
            w = float(rng.choice(freqs))
            picks.append((axis, w, rng.random() < 0.5))
        shift = rng.uniform(1.2, 2.0)

        def f(p, o, c0=c0, c2=c2, gam=gam, picks=picks, shift=shift):
            cs = coords(p, o)
            r = cs[0]
            out = (r * c2 + c0) * (r * r * (-gam)).exp()
            for axis, w, use_sin in picks:
                t = cs[axis] * w
                out = out * (t.sin() if use_sin else t.cos())
            return out + Jet.constant(shift, p, o)

        fns.append(f)
    return fns


# ---------------------------------------------------------------------------
# eigen suite: separable fast path
# ---------------------------------------------------------------------------

def _jet_vals(jet) -> tuple:
    """f, f', f'' of a univariate order-2 jet (Taylor coefficients f, f', f''/2)."""
    c0, c1, c2 = jet.coeffs
    return c0, c1, 2 * c2


def _tower_floats(params: SystemParams, table, point):
    """Per `tower_table` row, the floats at a point: the first-derivative
    coefficient (3/r, 2 k1 cot k1 theta1, k2 cot k2 theta2, 0), the
    potential (terms c / cos^2, c / sin^2, c / r^2 and c w w r r, summed
    left to right from the first) and the square its nest factor divides by
    (r^2 or sin^2 k_j theta_j; None on the last row)."""
    r, w = point[0], float(params.omega)
    for j, (first, potential, nest) in enumerate(table):
        if j:
            x = float(params.k(j)) * point[j]
            s, c = math.sin(x), math.cos(x)
            den, first = {"sec2": c ** 2, "csc2": s ** 2}, float(first) * (c / s)
        else:
            den, first = {"inv_r2": r * r}, float(first) / r
        pot = None
        for coef, kind in potential:
            term = float(coef) * w * w * r * r if kind == "w2r2" else float(coef) / den[kind]
            pot = term if pot is None else pot + term
        yield first, pot, den.get(nest)


def eigen_residuals(params: SystemParams, states, points) -> list:
    """Per state, the max relative residual of HPsi = E Psi and L_i Psi = l_i Psi.

    The levels read `tower_table`, as `diffops.build_level` does, but act on
    the separated factors slot by slot.  Over the default grid the generic
    path changes the bits of 1996 of 2048 residuals (all still pass); its
    H.apply alone takes 3x this function's time at one context per point.
    The points (`EvalPoint`s) are taken one at a time, for every state: a
    point's scalars are computed once, and its memo shares the levels, L3
    Psi with its residual per slot-3 factor, the L2 level per (slot-2,
    slot-3) pair and the L1 level per (slot-1..3) triple.  The factor keys
    fix those levels exactly (the beta_i, k_i and l_i follow from the
    gauges), so the state loop computes only the radial level, and every
    float is the one a state-by-state pass computes.
    """
    table = tower_table(params)
    evs, rows = {}, []  # equal factors of different states are one evaluator
    for st in states:
        psi = wavefunction(params, st)
        ch = psi.chain
        f0, f1, f2, f3 = (evs.setdefault(f.key, f) for f in psi.factors)
        rows.append((f0, f1, f2, f3, ("eigen", f3.key), ("eigen", f2.key, f3.key),
                     ("eigen", f1.key, f2.key, f3.key), float(ch.ell1), float(ch.ell2),
                     float(ch.ell3), float(opoly_eval(ch.E, params.omega))))
    worst = [0.0] * len(rows)
    for ctx in points:
        memo = ctx.memo
        ((inv_r3, pot0, rsq), (cot1, pot1, s1sq), (cot2, pot2, s2sq),
         (_, pot3, _)) = _tower_floats(params, table, ctx)
        for j, (f0, f1, f2, f3, key3, key23, key123, l1, l2, l3, E) in enumerate(rows):
            # innermost slot
            lv3 = memo.get(key3)
            if lv3 is None:
                v3, d3, dd3 = _jet_vals(ctx.factor(f3, 3, 2))
                op3 = dd3 + pot3 * v3
                lv3 = memo[key3] = (v3, op3, _rel(op3 - l3 * v3, op3, l3 * v3))
            v3, op3, res3 = lv3
            # middle slot
            lv23 = memo.get(key23)
            if lv23 is None:
                v2, d2, dd2 = _jet_vals(ctx.factor(f2, 2, 2))
                mid = dd2 + cot2 * d2 + pot2 * v2
                op23 = mid * v3 + v2 * op3 / s2sq
                lv23 = memo[key23] = (v2, op23, max(res3, _rel(op23 - l2 * v2 * v3,
                                                              op23, l2 * v2 * v3)))
            v2, op23, res23 = lv23
            # outer slot (carries both correction terms)
            lv123 = memo.get(key123)
            if lv123 is None:
                v1, d1, dd1 = _jet_vals(ctx.factor(f1, 1, 2))
                out = dd1 + cot1 * d1 + pot1 * v1
                op123 = out * v2 * v3 + v1 * op23 / s1sq
                lv123 = memo[key123] = (v1, op123, max(res23, _rel(
                    op123 - l1 * v1 * v2 * v3, op123, l1 * v1 * v2 * v3)))
            v1, op123, res123 = lv123
            # radial level
            v0, d0, dd0 = _jet_vals(ctx.factor(f0, 0, 2))
            rad = dd0 + inv_r3 * d0 + pot0 * v0
            hval = rad * v1 * v2 * v3 + v0 * op123 / rsq
            eref = E * v0 * v1 * v2 * v3
            worst[j] = max(worst[j], res123, _rel(hval - eref, hval, eref))
    return worst


def run_eigen(params, nmax, points_n, seed, tol, convention):
    states = list(enumerate_states(nmax))
    # one context per point, dropped once every state has been checked there
    ctxs = map(EvalPoint, sample_points(params, points_n, seed))
    return [_case(f"eigen state={tuple(st)}", res, tol)
            for st, res in zip(states, eigen_residuals(params, states, ctxs))], {}


# ---------------------------------------------------------------------------
# ladders suite: differential forms vs printed lattice actions
# ---------------------------------------------------------------------------

def _max_rel_residuals(points, checks) -> list:
    """Per check (op, f, [(c, g), ...]), the max over the points of the
    relative deviation of (op f)(x) from sum c g(x).  One context per point
    serves every check, so a jet shared by checks is built once there."""
    worst = [0.0] * len(checks)
    for p in points:
        ctx = EvalPoint(p)
        for j, (op, f, targets) in enumerate(checks):
            got = op.apply(f, ctx, 0).value
            want = sum(c * ctx.jet(g, 0).value for c, g in targets)
            worst[j] = max(worst[j], _rel(got - want, got, want))
    return worst


def _lift(univariate, axis):
    def ev(p, o):
        p = EvalPoint.of(p)
        return p.factor(univariate, axis, o).lift(p, axis)
    return ev


def run_ladders(params, nmax, points_n, seed, tol, convention):
    ids, checks = [], []  # case ids; (operator, source, [(lattice coefficient, target)])
    w = params.omega
    for n in range(1, 5):
        st = QuantumState(n, n, n, n)
        ch = spectral_chain(params, st)
        # radial pair
        for kind, dn, dA in (("K0+", +1, -2), ("K0-", -1, +2)):
            vec = ladder_action(kind, params, st)
            ((_, poly),) = vec.items()
            c = float(opoly_eval(poly, w))
            op = build_radial_ladder(params, st.n0, ch.A0, kind[-1])
            src = _lift(radial_factor(w, st.n0, ch.A0), 0)
            tgt = _lift(radial_factor(w, st.n0 + dn, ch.A0 + dA), 0)
            ids.append(f"{kind} n0={n}")
            checks.append((op, src, [(c, tgt)]))
        # angular ladders, every slot
        for slot in (1, 2, 3):
            gauge = gauge_for_slot(params, ch, slot)
            nn = st[slot]
            for kind, dn, da in (("J+", +1, 0), ("J-", -1, 0),
                                 ("K+a", +1, -2), ("K-a", -1, +2)):
                vec = ladder_action(kind, params, st, slot=slot)
                ((_, poly),) = vec.items()
                c = float(opoly_eval(poly, w))
                if kind.startswith("J"):
                    op = build_jacobi_ladder(gauge, nn, kind[-1])
                    tgt_gauge = gauge
                else:
                    op = build_index_ladder(gauge, nn, kind[1])
                    tgt_gauge = gauge.shifted(da)
                src = _lift(slot_factor(gauge, nn), slot)
                tgt = _lift(slot_factor(tgt_gauge, nn + dn), slot)
                ids.append(f"{kind} slot{slot} n={nn}")
                checks.append((op, src, [(c, tgt)]))
    worst = _max_rel_residuals(sample_points(params, points_n, seed), checks)
    return [_case(cid, res, tol) for cid, res in zip(ids, worst)], {}


# ---------------------------------------------------------------------------
# xi suite: energy invariance, closed forms, E-class / independence evidence
# ---------------------------------------------------------------------------

def run_xi(params, nmax, points_n, seed, tol, convention):
    variant = "printed" if convention == "printed" else "composed"
    images, broken = xi_sweep(params, nmax)
    cases = []
    for (i, sign), count in images.items():
        ok = all((j, s) != (i, sign) for _, j, s, _ in broken)
        cases.append({"id": f"Xi{i}{sign} E-invariance ({count} images)",
                      "residual": 0.0 if ok else 1.0, "pass": ok})
    # closed form for Xi_1 against the composed coefficient
    residuals = []
    for st in identity_states(params, 20):
        for sign in ("+", "-"):
            for tgt, poly in xi_action(1, sign, params, st).items():
                want = xi1_closed_form(sign, params, st, variant=variant)
                residuals.append(LatticeVector.basis(tgt, poly - want))
    cases.append(_exact_case(f"Xi1 closed form [{variant}] ({len(residuals)} states)",
                             residuals))
    wind = window_independence(params)
    cases.append({"id": f"window independence rank {wind['rank']}/{wind['expected']}",
                  "residual": 0.0 if wind["independent"] else 1.0,
                  "pass": wind["independent"]})
    return cases, {"xi1_closed_form": variant}


# ---------------------------------------------------------------------------
# algebra suite
# ---------------------------------------------------------------------------

def _algebra_conventions(convention: str):
    if convention == "printed":
        return "printed", "printed"
    if convention == "antisymmetric":
        return "printed", "antisymmetric"
    return "corrected", "antisymmetric"      # auto: the recorded working pair


def run_algebra(params, nmax, points_n, seed, tol, convention):
    variant, pminus = _algebra_conventions(convention)
    states = identity_states(params, 20)
    cases = []
    for i in (1, 2, 3):
        for which in ("bracket-minus", "bracket-plus", "bracket-pm", "cubic"):
            residuals = [check_identity(i, which, params, st,
                                        convention=pminus, variant=variant)
                         for st in states]
            cases.append(_exact_case(f"{which} i={i} ({len(states)} states)",
                                     residuals))
    residuals = []
    for i in (1, 2, 3):
        residuals.extend(check_identity(i, "cross-commute", params, st)
                         for st in states)
    cases.append(_exact_case(f"cross-commutation ({3 * len(states)} checks)",
                             residuals))
    return cases, {"identity_table": variant, "p_minus": pminus}


# ---------------------------------------------------------------------------
# m1 suite
# ---------------------------------------------------------------------------

def run_m1(params, nmax, points_n, seed, tol, convention):
    mconv = "printed" if convention == "printed" else "xi"
    M = m1_minus_operator(params, mconv)
    rels = [("[L1,M1-] = L1-",
             commutator(l_operator(params, 1), M) - lpm_operator(params, 1, "-")),
            ("[H,M1-] = 0", commutator(h_operator(params), M)),
            ("[L2,M1-] = 0", commutator(l_operator(params, 2), M)),
            ("[L3,M1-] = 0", commutator(l_operator(params, 3), M))]
    states = identity_states(params, 20)
    cases = []
    for label, rel in rels:
        residuals = []
        for st in states:
            try:
                residuals.append(rel(st))
            except DivisorSingular:
                continue
        cases.append(_exact_case(f"{label} ({len(residuals)} states)", residuals))
    return cases, {"m1_form": mconv}


# ---------------------------------------------------------------------------
# curvature suite
# ---------------------------------------------------------------------------

def run_curvature(params, nmax, points_n, seed, tol, convention):
    pts = sample_points(params, points_n, seed)
    sym_tol = 1e-10
    worst_R = worst_W = worst_sym = worst_tr = worst_det = worst_flat = 0.0
    equal_k = params.k1 == params.k2
    for p in pts:
        rep = geometry.curvature_at(params, p)
        rref = geometry.scalar_curvature_closed(params, p)
        worst_R = max(worst_R, _rel(rep.R - rref, rep.R, rref, 1.0))
        wref = geometry.weyl_invariant_closed(params, p)
        worst_W = max(worst_W, _rel(rep.W - wref, rep.W, wref, 1.0))
        if equal_k:
            worst_flat = max(worst_flat, rep.W)
        Rm, C, ginv = rep.riemann, rep.weyl, rep.ginv
        scale = max(max(abs(Rm[i][j][k][l]) for i, j, k, l in geometry.INDEX4), 1.0)
        sym = max(max(abs(Rm[i][j][k][l] + Rm[j][i][k][l]),
                      abs(Rm[i][j][k][l] + Rm[i][j][l][k]),
                      abs(Rm[i][j][k][l] - Rm[k][l][i][j]),
                      abs(Rm[i][j][k][l] + Rm[i][l][j][k] + Rm[i][k][l][j]))
                  for i, j, k, l in geometry.INDEX4)
        worst_sym = max(worst_sym, sym / scale)
        tr = max(abs(geometry.ordered_sum(ginv[a] * C[a][s][a][n] for a in range(4)))
                 for s in range(4) for n in range(4))
        wscale = max(max(abs(C[i][j][k][l]) for i, j, k, l in geometry.INDEX4), 1.0)
        worst_tr = max(worst_tr, tr / wscale)
        det = math.prod(rep.gdiag)
        detref = (p[0] ** 6 * math.sin(float(params.k1) * p[1]) ** 4
                  * math.sin(float(params.k2) * p[2]) ** 2)
        worst_det = max(worst_det, _rel(det - detref, det, detref))
    cases = [_case(f"scalar curvature closed form ({len(pts)} pts)", worst_R, tol),
             _case(f"Weyl invariant closed form ({len(pts)} pts)", worst_W, tol),
             _case("Riemann symmetries + Bianchi", worst_sym, sym_tol),
             _case("Weyl trace-free", worst_tr, sym_tol),
             _case("metric determinant", worst_det, 1e-12)]
    if equal_k:
        cases.append(_case("W = 0 at k1 = k2 (abs)", worst_flat, 1e-10))
    return cases, {}


# ---------------------------------------------------------------------------
# conformal suite
# ---------------------------------------------------------------------------

def run_conformal(params, nmax, points_n, seed, tol, convention):
    pts = sample_points(params, points_n, seed)
    fns = test_functions(10, seed + 1)
    worst = geometry.conformal_identity_check(params, pts, fns)
    cases = [_case(f"conformal Hf identity, function {idx}", res, tol)
             for idx, res in enumerate(worst)]
    return cases, {}


# ---------------------------------------------------------------------------
# example211 suite
# ---------------------------------------------------------------------------

def run_example211(params, nmax, points_n, seed, tol, convention):
    variant = "printed" if convention == "printed" else "corrected"
    printed_op = build_example_L1plus(params)  # k other than (2,1,1) raises here
    states = identity_states(params, 10)
    L1p = lpm_operator(params, 1, "+")
    w = params.omega
    checks = []     # (operator, source wavefunction, [(coefficient, target)])
    for st in states:
        op = printed_op if variant == "printed" else example211_scalar(params, st, "corrected")
        checks.append((op, wavefunction(params, st),
                       [(float(opoly_eval(poly, w)), wavefunction(params, tgt))
                        for tgt, poly in L1p(st).items()]))
    # the coordinate, r^-m, cos/sin 4 theta1 and separated-factor jets are
    # built once per point for every state and target
    worst = _max_rel_residuals(sample_points(params, points_n, seed), checks)
    cases = [_case(f"L1+ [{variant}] vs lattice at {tuple(st)}", res, tol)
             for st, res in zip(states, worst)]
    cases.append({"id": f"max derivative order = {printed_op.max_order}",
                  "residual": 0.0 if printed_op.max_order == 5 else 1.0,
                  "pass": printed_op.max_order == 5})
    return cases, {"table": variant}


RUNNERS = {"eigen": run_eigen, "ladders": run_ladders, "xi": run_xi,
           "algebra": run_algebra, "m1": run_m1, "curvature": run_curvature,
           "conformal": run_conformal, "example211": run_example211}

# per-suite canonical knobs: (nmax, points, tolerance)
SUITE_DEFAULTS = {"eigen": (3, 20, 1e-7), "ladders": (4, 20, 1e-8),
                  "xi": (6, 0, 0.0), "algebra": (6, 0, 0.0),
                  "m1": (6, 0, 0.0), "curvature": (3, 50, 1e-9),
                  "conformal": (3, 20, 1e-8), "example211": (6, 20, 1e-7)}
