"""Differential operators as coefficient x mixed-partial term lists.

A DiffOperator is a finite sum of terms c(point) * d^mu plus products of
operators, applied to a function through its jet: the caller supplies a
Point-to-Jet evaluator of sufficient order, the operator extracts derivative
jets and multiplies by coefficient jets.  Coefficients and evaluators share
one signature, (point, order) -> Jet.  Operators close under addition,
scaling and composition; a product A ∘ B is applied by chaining,
A.apply(B.bind(f)), so f's Taylor jet passes through each factor in turn and
no coefficient is ever differentiated (no symbolic algebra anywhere).

Every evaluation happens at a per-point context, `numcore.EvalPoint`: a float
tuple that memoizes the coordinate jets per order, each coefficient and
evaluator jet per (callable, order), each separated eigenfunction factor
per (factor key, axis) and each (sin, cos) pair that trig coefficients read
per (axis, k, order).  `apply` wraps a plain point in a fresh
context and passes the context down product chains, so the operators, test
functions and wavefunctions applied at one context build each of those jets
once.  A caller that applies many of them at one point makes the context
itself and drops it when the point is done: memos never outlive their point.
The coefficient combinators below evaluate their operands through the
context, so a factor shared by nested terms is built once.

Built here: the commuting tower H, L1, L2, L3, level j by `build_level`
from row j of `model.tower_table` (`build_h` is level 0), the printed
one-variable ladders K0^{+-}, J^{+-}, K^{+-a}, and the explicit 5th-order
raising-sum operator for k = (2,1,1) in both its printed and corrected
forms (tables in _expl211).
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable

from ._expl211 import CORRECTED_TABLE, DERIV_INDEX, PRINTED_TABLE
from .model import (AngularSlotGauge, QuantumState, SystemParams,
                    spectral_chain, tower_table)
from .numcore import EvalPoint, Jet, _shifts, block, opoly_eval


def coords(point, order: int):
    """Coordinate jets (r, theta1, theta2, theta3), built once per context."""
    return EvalPoint.of(point).coords(order)


def coeff_const(c) -> Callable:
    v = float(c)
    return lambda p, o: Jet.constant(v, p, o)


def coeff_vars(fn) -> Callable:
    """Coefficient built from the coordinate jets: fn(r, t1, t2, t3) -> Jet."""
    return lambda p, o: fn(*coords(p, o))


def coeff_sum(a, b) -> Callable:
    def cf(p, o):
        p = EvalPoint.of(p)
        return p.jet(a, o) + p.jet(b, o)
    return cf


def coeff_prod(a, b) -> Callable:
    def cf(p, o):
        p = EvalPoint.of(p)
        return p.jet(a, o) * p.jet(b, o)
    return cf


def coeff_scale(a, s) -> Callable:
    v = float(s)
    if v == 1.0:
        return a
    return lambda p, o: EvalPoint.of(p).jet(a, o) * v


class DiffOperator:
    """Finite sum of (coefficient, multi-index) terms, no duplicate indices,
    plus products (outer, inner) meaning outer ∘ inner, inner acting first."""

    __slots__ = ("terms", "products")

    def __init__(self, terms, products=()):
        merged = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for mu, cf in items:
            mu = tuple(int(m) for m in mu)
            if not callable(cf):
                cf = coeff_const(cf)
            merged[mu] = coeff_sum(merged[mu], cf) if mu in merged else cf
        self.terms = merged
        self.products = tuple(products)

    @property
    def max_order(self) -> int:
        return max([sum(mu) for mu in self.terms]
                   + [a.max_order + b.max_order for a, b in self.products],
                   default=0)

    def apply(self, f, point, out_order: int = 0) -> Jet:
        """Apply to a Point-to-Jet evaluator f at a point.

        f and every coefficient are (point, order) -> Jet callables, called
        with an `EvalPoint`: `point` itself if it is one, else a fresh context
        at it, which this call and its product chain share and then drop.
        Through the context, f is evaluated once per order and each
        coefficient once per output order, however many terms, products and
        operators ask for them at that context.  f is queried at order at
        most out_order + max_order; the result is the jet of (op f) of order
        out_order at the point.  At out_order 0 it sums values (d^mu f is a
        coefficient of F times mu!) with the order-0 jets' float operations.
        """
        ctx = EvalPoint.of(point)
        top = max(sum(mu) for mu in self.terms) if self.terms else 0
        if not out_order:
            acc, n = 0.0, len(ctx)
            if self.terms:
                F = ctx.jet(f, top)
                for mu, cf in self.terms.items():
                    _, i, fact = _shifts(n, F.order, mu)[0]
                    c, d = ctx.jet(cf, 0).value, F.coeffs[i]
                    if c and d:
                        acc += c * (d * fact)
            for outer, inner in self.products:
                v = outer.apply(inner.bind(f), ctx, 0).value
                if v:
                    acc += v
            return Jet(tuple(ctx), 0, [acc])
        out = Jet.constant(0.0, ctx, out_order)
        if self.terms:
            F = ctx.jet(f, out_order + top)
            for mu, cf in self.terms.items():
                out = out + ctx.jet(cf, out_order) * F.derivative_jet(mu, out_order)
        for outer, inner in self.products:
            out = out + outer.apply(inner.bind(f), ctx, out_order)
        return out

    def bind(self, f) -> Callable:
        """The operator applied to f, as a Point-to-Jet evaluator (chainable)."""
        return lambda p, o: self.apply(f, p, o)

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        return DiffOperator(list(self.terms.items()) + list(other.terms.items()),
                            self.products + other.products)

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return self + other.scale(-1)

    def scale(self, s) -> "DiffOperator":
        return DiffOperator([(mu, coeff_scale(cf, s)) for mu, cf in self.terms.items()],
                            [(outer.scale(s), inner) for outer, inner in self.products])

    def __neg__(self):
        return self.scale(-1)

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """self ∘ other (other acts first), applied by chaining."""
        return DiffOperator((), [(self, other)])


def identity_diffop() -> DiffOperator:
    return DiffOperator({(0, 0, 0, 0): coeff_const(1)})


# ---------------------------------------------------------------------------
# the commuting tower
# ---------------------------------------------------------------------------

def _trig(k: Fraction, axis: int, fn) -> Callable:
    """The coefficient fn(sin, cos) of the jets of k * x[axis]; all such
    coefficients at a context read one (sin, cos) per (axis, k, order)."""
    kf, num, den = float(k), *Fraction(k).as_integer_ratio()
    def cf(p, o):
        p = EvalPoint.of(p)
        def build():
            t = p.coords(o)[axis] * kf
            return t.sin(), t.cos()
        return fn(*block(p.memo, ("sin-cos", axis, num, den, o), build))
    return cf


def _tower_coeff(params: SystemParams, j: int, coef, kind: str) -> Callable:
    """The coefficient coef * kind of a level-j `tower_table` entry, with each
    kind's float operations: (1/cos^2 or 1/sin^2) * coef, coef / r^2 and
    r^2 * (coef w w)."""
    if kind in ("sec2", "csc2"):
        sq = (lambda s, c: 1.0 / (c * c)) if kind == "sec2" else (lambda s, c: 1.0 / (s * s))
        return coeff_scale(_trig(params.k(j), j, sq), coef)
    cf = float(coef)
    if kind == "inv_r2":
        return coeff_vars(lambda r, t1, t2, t3: cf / (r * r))
    w = float(params.omega)
    return coeff_vars(lambda r, t1, t2, t3: (r * r) * (cf * w * w))


def build_level(params: SystemParams, j: int) -> DiffOperator:
    """Level j of the commuting tower (0: H, 1..3: L1..L3) from row j of
    `tower_table`: the terms d_j^2, first * g_j d_j and the potential terms
    summed in row order, then the nest factor times each term of level j + 1."""
    if j == 0 and params.omega is None:
        raise ValueError("build_h needs a fixed numeric omega")
    first, potential, nest = tower_table(params)[j]
    mu2, mu1, mu0 = (tuple(m if i == j else 0 for i in range(4)) for m in (2, 1, 0))
    items = [(mu2, coeff_const(1))]
    if first:
        sf = float(first)
        items.append((mu1, coeff_vars(lambda r, t1, t2, t3: sf / r) if j == 0
                      else _trig(params.k(j), j, lambda s, c: sf * c / s)))
    pot = None
    for coef, kind in potential:
        term = _tower_coeff(params, j, coef, kind)
        pot = term if pot is None else coeff_sum(pot, term)
    items.append((mu0, pot))
    if nest:
        factor = _tower_coeff(params, j, 1, nest)
        items += [(mu, coeff_prod(factor, cf))
                  for mu, cf in build_level(params, j + 1).terms.items()]
    return DiffOperator(items)


def build_h(params: SystemParams) -> DiffOperator:
    return build_level(params, 0)


# ---------------------------------------------------------------------------
# printed one-variable ladders
# ---------------------------------------------------------------------------

def build_radial_ladder(params: SystemParams, n0: int, A0: Fraction, sign: str) -> DiffOperator:
    """K0^{+-} for the radial factor with parameters (n0, A0).

    K0^+ = (1-A0)/r d_r + (2n0+A0+1) w + (1-A0^2)/r^2   (n0+1, A0-2)
    K0^- = (1+A0)/r d_r + (2n0+A0+1) w + (1-A0^2)/r^2   (n0-1, A0+2)
    """
    if params.omega is None:
        raise ValueError("radial ladders need a fixed numeric omega")
    if sign not in "+-":
        raise ValueError("sign must be '+' or '-'")
    w = float(params.omega)
    lin = float(1 - A0) if sign == "+" else float(1 + A0)
    c_shift = float(2 * n0 + A0 + 1) * w
    c_r2 = float(1 - A0 * A0)
    def dr_coeff(r, t1, t2, t3):
        return lin / r
    def const_coeff(r, t1, t2, t3):
        return c_shift + c_r2 / (r * r)
    return DiffOperator({(1, 0, 0, 0): coeff_vars(dr_coeff),
                         (0, 0, 0, 0): coeff_vars(const_coeff)})


def _axis_index(gauge: AngularSlotGauge):
    mu1 = [0, 0, 0, 0]
    mu1[gauge.slot] = 1
    return tuple(mu1)


def build_jacobi_ladder(gauge: AngularSlotGauge, n: int, sign: str) -> DiffOperator:
    """J^{+-}: shift n alone in one angular slot (printed first-order forms)."""
    if sign not in "+-":
        raise ValueError("sign must be '+' or '-'")
    k = gauge.k
    a, b, c, d = gauge.a, gauge.b, gauge.c, gauge.d
    N = gauge.N(n)
    axis = gauge.slot
    if sign == "+":
        dcoef = float(-(N + 1) / (2 * k))
        ccos = float(Fraction(-1, 2) * (N + 1) * (N + 1 - c - d))
        cconst = float(Fraction(-1, 2) * (-(N + 1) * (c - d) + a * a - b * b))
    else:
        dcoef = float((N - 1) / (2 * k))
        ccos = float(Fraction(-1, 2) * (N - 1) * (N - 1 + c + d))
        cconst = float(Fraction(-1, 2) * ((N - 1) * (c - d) + a * a - b * b))
    return DiffOperator({  # sin(2kθ) dcoef d/dθ + cos(2kθ) ccos + cconst
        _axis_index(gauge): _trig(k, axis, lambda s, c: (s * c) * (2.0 * dcoef)),
        (0, 0, 0, 0): _trig(k, axis, lambda s, c: (c * c - s * s) * ccos + cconst)})


def build_index_ladder(gauge: AngularSlotGauge, n: int, sign: str) -> DiffOperator:
    """K^{+-a}: shift n and the slot parameter a simultaneously (printed forms)."""
    if sign not in "+-":
        raise ValueError("sign must be '+' or '-'")
    k = gauge.k
    a, b, c, d = gauge.a, gauge.b, gauge.c, gauge.d
    axis = gauge.slot
    if sign == "+":
        dcoef = float(-(1 - a) / k)
        const = float(-2 * (n * (n + a + b + 1) + a * (a + b)) - (1 - a) * (a + c + b + d))
        s2 = float(-(1 - a) * (a - c))
    else:
        dcoef = float(-(1 + a) / k)
        const = float(-2 * n * (n + a + b + 1) - (1 + a) * (a + c + b + d))
        s2 = float((1 + a) * (a + c))
    return DiffOperator({_axis_index(gauge): _trig(k, axis, lambda s, c: (c / s) * dcoef),
                         (0, 0, 0, 0): _trig(k, axis, lambda s, c: const + s2 / (s * s))})


# ---------------------------------------------------------------------------
# explicit 5th-order raising-sum operator, k = (2,1,1)
# ---------------------------------------------------------------------------

def _require_211(params: SystemParams):
    if (params.k1, params.k2, params.k3) != (2, 1, 1):
        raise ValueError("the explicit 5th-order operator requires k = (2,1,1)")


def _inv_r_power(m: int):
    def fn(p, o):
        return coords(p, o)[0].power(-m)
    return fn


# one evaluator per factor, so every term and state at a context shares its jet
_TRIG = {"c": _trig(4, 1, lambda s, c: c), "s": _trig(4, 1, lambda s, c: s)}
_INV_R_POWER = {m: _inv_r_power(m) for m in range(1, 5)}


def _table_operator(rows) -> DiffOperator:
    """Sum of scale * r^-m * trig(4 theta1) * d^mu over rows (mu, trig, m,
    scale), trig one of "1", "c", "s".  Each mu gets one coefficient: its
    rows' terms summed left to right in row order, over the point's shared
    r^-m and trig jets.  At order 0 it does the order-0 jets' float
    operations on their values."""
    by_mu = {}
    for mu, trig, m, scale in rows:
        if trig not in ("1", "c", "s"):
            raise ValueError(f"unknown trig tag {trig!r}")
        by_mu.setdefault(mu, []).append((_TRIG.get(trig), m and _INV_R_POWER[m], float(scale)))

    def coeff(terms):
        def cf(p, o):
            p, acc = EvalPoint.of(p), None
            for trig, inv_r, scale in terms:
                if o:
                    term = p.jet(inv_r, o) if inv_r else Jet.constant(scale, p, o)
                    term = term * scale if inv_r and scale != 1.0 else term
                    term = p.jet(trig, o) * term if trig else term
                    acc = term if acc is None else acc + term
                    continue
                v = p.jet(inv_r, 0).value if inv_r else scale
                v = (v * scale if v else 0.0) if inv_r and scale != 1.0 else v
                if trig:
                    t = p.jet(trig, 0).value
                    v = 0.0 + t * v if t and v else 0.0
                acc = v if acc is None else (acc + v if v else acc)
            return acc if o else Jet(tuple(p), 0, [acc])
        return cf
    return DiffOperator({mu: coeff(terms) for mu, terms in by_mu.items()})


def build_example_L1plus(params: SystemParams) -> DiffOperator:
    """The printed explicit 5th-order operator, k = (2,1,1).

    The printed terms (coefficient-function x d^mu) are grouped by their
    substituted operator monomial (E -> H, A0^2 -> k1^2 - L1,
    A1^2 -> (k2^2 - 4 L2)/(4 k1^2)); the result is the sum over monomials of
    outer ∘ monomial, the substituted part acting first.  On joint
    eigenfunctions this reduces to substituting the state's scalar values.
    Kept verbatim from the source — it does NOT equal Xi_1^+ + Xi_1^- (see
    _expl211).
    """
    _require_211(params)
    H = build_h(params)
    L1 = build_level(params, 1)
    L2 = build_level(params, 2)
    I = identity_diffop()
    k1sq = float(params.k1 ** 2)
    k2sq = float(params.k2 ** 2)
    A02 = I.scale(k1sq) - L1
    A12 = (I.scale(k2sq) - L2.scale(4)).scale(1.0 / (4 * k1sq))
    hats = {
        "1": I,
        "E": H,
        "E2": H.compose(H),
        "A02": A02,
        "A04": A02.compose(A02),
        "A12": A12,
        "EA02": H.compose(A02),
        "EA12": H.compose(A12),
        "A02A12": A02.compose(A12),
    }
    a1sq = params.a1 ** 2
    outers = {}
    for (deriv, trig, rpow, smono), (c0, c1) in PRINTED_TABLE.items():
        outers.setdefault(smono, []).append((DERIV_INDEX[deriv], trig, rpow, c0 + c1 * a1sq))
    return DiffOperator((), [(_table_operator(rows), hats[smono])
                             for smono, rows in outers.items()])


def example211_scalar(params: SystemParams, state, variant: str = "corrected") -> DiffOperator:
    """The explicit operator with the state's scalar values substituted.

    On the joint eigenfunction of `state` this is the exact reduction of the
    operator form (E -> E(state), A0 -> A0(state), A1 -> A1(state));
    variant="corrected" uses the frozen true table, variant="printed" the
    typeset one.
    """
    _require_211(params)
    if params.omega is None:
        raise ValueError("scalar substitution needs a fixed numeric omega")
    ch = spectral_chain(params, QuantumState(*state))
    E = opoly_eval(ch.E, params.omega)
    rows = []
    if variant == "corrected":
        for (i, j), monos in CORRECTED_TABLE.items():
            for (m, trig, e, p0, p1, pa), (num, den) in monos.items():
                cc = (Fraction(num, den) * E ** e * ch.A0 ** p0
                      * ch.A1 ** p1 * params.a1 ** pa)
                rows.append(((i, j, 0, 0), trig, m, cc))
    elif variant == "printed":
        a1sq = params.a1 ** 2
        smono_vals = {"1": Fraction(1), "E": E, "E2": E ** 2,
                      "A02": ch.A0 ** 2, "A04": ch.A0 ** 4, "A12": ch.A1 ** 2,
                      "EA02": E * ch.A0 ** 2, "EA12": E * ch.A1 ** 2,
                      "A02A12": ch.A0 ** 2 * ch.A1 ** 2}
        for (deriv, trig, rpow, smono), (c0, c1) in PRINTED_TABLE.items():
            rows.append((DERIV_INDEX[deriv], trig, rpow, (c0 + c1 * a1sq) * smono_vals[smono]))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return _table_operator(rows)
