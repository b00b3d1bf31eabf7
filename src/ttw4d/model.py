"""System parameters, quantum-number lattice, spectral chain, wavefunctions.

The model is a 4D quantum oscillator-type system on coordinates
(r, theta1, theta2, theta3) with rational frequency ratios k1, k2, k3 and
four positive rational potential parameters a1..a4.  Separation of
variables produces a chain of derived parameters A2 -> A1 -> A0 and
separation constants ell3, ell2, ell1 together with the energy E, all exact
rationals (E an exact polynomial in the frequency w).  A0, A1, A2 and E/w
are affine in the quantum numbers; SystemParams keeps them as integer forms
scaled by one common denominator D, and `scaled_chain` evaluates them.

Conventions:

* omega is dual mode — None means formal (lattice algebra over Q[w]); a
  positive Fraction fixes it for function-space numerics.
* a_i > 0 keeps every A_i > 0, which protects the denominators in the
  lowering symmetry operators.
* The evaluation cell is r > 0, 0 < k_i theta_i < pi/2; samplers stay in
  the middle of the cell, away from the singular walls.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple, Optional

from .numcore import EvalPoint, Jet, OmegaPoly, block
from .specfun import JacobiSpec, LaguerreSpec, jacobi_eval, laguerre_eval


def parse_rational(s: str) -> Fraction:
    """Parse 'p/q' or an integer string into an exact Fraction."""
    s = s.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {s!r}") from None


class QuantumState(NamedTuple):
    n0: int
    n1: int
    n2: int
    n3: int


@dataclass(frozen=True)
class SystemParams:
    """Exact model parameters.

    k1, k2, k3 — positive rational frequency ratios; a1..a4 — positive
    rational potential parameters; omega — None for formal w, or a fixed
    positive rational.  The coupling constants beta_i are derived, never
    stored.  Built once per instance: the reduced ratios pq1..pq3 (k1 = p1/q1,
    k2/k1 = p2/q2, k3/k2 = p3/q3) and the integer chain.  A0, A1, A2 are
    affine in (n0..n3) with rational coefficients; D is the lcm of their
    denominators and of the a_i's, so the D·A_j are integer affine forms
    (evaluated by `scaled_chain`) and Da = (D·a1, ..., D·a4) are integers.
    The private dict `_memo` (not a field: eq, hash and repr ignore it)
    holds what `spectral_chain` and `lattice._leaf` keep (chains; leaves with
    their images) for this instance's lifetime; an equal one starts empty.
    """
    k1: Fraction
    k2: Fraction
    k3: Fraction
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    omega: Optional[Fraction] = None

    def __post_init__(self):
        for name in ("k1", "k2", "k3", "a1", "a2", "a3", "a4"):
            v = getattr(self, name)
            if not isinstance(v, Fraction):
                object.__setattr__(self, name, Fraction(v))
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be a positive rational")
        if self.omega is not None:
            if not isinstance(self.omega, Fraction):
                object.__setattr__(self, "omega", Fraction(self.omega))
            if self.omega <= 0:
                raise ValueError("omega must be positive when fixed")
        k1, k2, k3, a1, a2, a3, a4 = (self.k1, self.k2, self.k3,
                                      self.a1, self.a2, self.a3, self.a4)
        for name, x in (("pq1", k1), ("pq2", k2 / k1), ("pq3", k3 / k2)):
            object.__setattr__(self, name, (x.numerator, x.denominator))
        # affine forms (const, n1, n2, n3) of the chain A2 -> A1 -> A0 (A1 has
        # no n1 term, A2 only an n3 term), and (const, n0, n1, n2, n3) of the
        # expanded energy coefficient
        A2 = (k3 / k2 * (a3 + a4 + 1), 0, 0, 2 * k3 / k2)
        A1 = tuple(k2 / k1 * (x + y) for x, y in zip(A2, (a2 + 1, 0, 2, 0)))
        A0 = tuple(k1 * (x + y) for x, y in zip(A1, (a1 + 1, 2, 0, 0)))
        Ex = (-2 * (k1 * a1 + k2 * a2 + k3 * a3 + k3 * a4 + k1 + k2 + k3 + 1),
              -4, -4 * k1, -4 * k2, -4 * k3)
        D = math.lcm(*(Fraction(x).denominator for f in (A0, A1, A2, Ex) for x in f),
                     a1.denominator, a2.denominator, a3.denominator, a4.denominator)

        def scaled(xs):
            return tuple((D * Fraction(x)).numerator for x in xs)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "Da", scaled((a1, a2, a3, a4)))
        object.__setattr__(self, "_chain", (scaled(A0), scaled(A1), scaled(A2)))
        object.__setattr__(self, "_energy", scaled(Ex))
        object.__setattr__(self, "_memo", {})

    def pq(self, i: int):
        if i not in (1, 2, 3):
            raise ValueError("i must be 1, 2 or 3")
        return (self.pq1, self.pq2, self.pq3)[i - 1]

    def k(self, i: int) -> Fraction:
        if i not in (1, 2, 3):
            raise ValueError("i must be 1, 2 or 3")
        return (self.k1, self.k2, self.k3)[i - 1]

    # couplings (always recomputed from the a's)
    @property
    def beta1(self) -> Fraction:
        return self.k1 ** 2 * (Fraction(1, 4) - self.a1 ** 2)

    @property
    def beta2(self) -> Fraction:
        return self.k2 ** 2 * (Fraction(1, 4) - self.a2 ** 2)

    @property
    def beta3(self) -> Fraction:
        # pairs with a4
        return self.k3 ** 2 * (Fraction(1, 4) - self.a4 ** 2)

    @property
    def beta4(self) -> Fraction:
        # pairs with a3
        return self.k3 ** 2 * (Fraction(1, 4) - self.a3 ** 2)

    def with_omega(self, omega) -> "SystemParams":
        return replace(self, omega=omega)


@dataclass(frozen=True)
class SpectralData:
    A2: Fraction
    A1: Fraction
    A0: Fraction
    ell3: Fraction
    ell2: Fraction
    ell1: Fraction
    E: OmegaPoly  # degree 1 in w


def scaled_chain(params: SystemParams, state):
    """Integer chain (D·A0, D·A1, D·A2, D·E/w) of a lattice state.

    E/w = -(4 n0 + 2 A0 + 2) is taken through the A0 form; D = params.D.
    """
    if min(state) < 0:
        raise ValueError("quantum numbers must be >= 0")
    n0, n1, n2, n3 = state
    (c0, x1, x2, x3), (c1, _, y2, y3), (c2, _, _, z3) = params._chain
    dA0 = c0 + x1 * n1 + x2 * n2 + x3 * n3
    D = params.D
    return dA0, c1 + y2 * n2 + y3 * n3, c2 + z3 * n3, -2 * (2 * n0 * D + dA0 + D)


def spectral_chain(params: SystemParams, state: QuantumState) -> SpectralData:
    """Derived parameter chain and energy for a lattice state.

    A0..A2, the ell's and E come from the integer chain, one Fraction each:
    ell3 = -k3^2 X3^2 / D^2, ell2 = k2^2 (D^2 - 4 X2^2) / (4 D^2), ell1 = k1^2
    - A0^2, for X3 = D (2 n3 + a3 + a4 + 1), X2 = D (2 n2 + a2 + A2 + 1).  E
    via A0 must equal its expanded form (asserted).  Memoized in params._memo.
    """
    if type(state) is not QuantumState:
        state = QuantumState(*state)
    ch = params._memo.get(state)
    if ch is not None:
        return ch
    n0, n1, n2, n3 = state
    dA0, dA1, dA2, dE = scaled_chain(params, state)
    c, e0, e1, e2, e3 = params._energy
    if dE != c + e0 * n0 + e1 * n1 + e2 * n2 + e3 * n3:
        raise AssertionError("energy chain inconsistency (A0 form vs expanded form)")
    D, (_, Da2, Da3, Da4) = params.D, params.Da
    (k1n, k1d), (k2n, k2d), (k3n, k3d) = map(Fraction.as_integer_ratio,
                                             (params.k1, params.k2, params.k3))
    X3, X2 = 2 * n3 * D + Da3 + Da4 + D, 2 * n2 * D + Da2 + dA2 + D
    ell3 = Fraction(-k3n * k3n * X3 * X3, (k3d * D) ** 2)
    ell2 = Fraction(k2n * k2n * (D * D - 4 * X2 * X2), 4 * (k2d * D) ** 2)
    ell1 = Fraction((k1n * D) ** 2 - (k1d * dA0) ** 2, (k1d * D) ** 2)
    ch = params._memo[state] = SpectralData(
        Fraction(dA2, D), Fraction(dA1, D), Fraction(dA0, D), ell3, ell2, ell1,
        OmegaPoly._of((0, dE) if dE else (), D))
    return ch


@dataclass(frozen=True)
class AngularSlotGauge:
    """Gauge data of one angular slot.

    The gauged slot function is
        Theta_n^{(a,b)}(theta) = sin(k theta)^{a+c} cos(k theta)^{b+d}
                                 * P_n^{(a,b)}(cos 2 k theta)
    with slot-dependent exponent offsets (c, d):
        slot 1: (a,b) = (A1, a1), (c,d) = (-1/2, 1/2)
        slot 2: (a,b) = (A2, a2), (c,d) = (0, 1/2)
        slot 3: (a,b) = (a3, a4), (c,d) = (1/2, 1/2)
    """
    slot: int
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    k: Fraction

    def N(self, n: int) -> Fraction:
        return 2 * n + self.a + self.b + 1

    def shifted(self, da: int) -> "AngularSlotGauge":
        return AngularSlotGauge(self.slot, self.a + da, self.b,
                                self.c, self.d, self.k)


_SLOT_OFFSETS = {1: (Fraction(-1, 2), Fraction(1, 2)),
                 2: (Fraction(0), Fraction(1, 2)),
                 3: (Fraction(1, 2), Fraction(1, 2))}


def gauge_for_slot(params: SystemParams, chain: SpectralData, slot: int) -> AngularSlotGauge:
    c, d = _SLOT_OFFSETS[slot]
    if slot == 1:
        a, b = chain.A1, params.a1
    elif slot == 2:
        a, b = chain.A2, params.a2
    elif slot == 3:
        a, b = params.a3, params.a4
    else:
        raise ValueError("slot must be 1, 2 or 3")
    return AngularSlotGauge(slot, a, b, c, d, params.k(slot))


# ---------------------------------------------------------------------------
# separated factors and the full wavefunction
# ---------------------------------------------------------------------------

def _exact(*xs) -> tuple:
    """The integer ratios of rationals, flattened: an exact key, cheap to hash."""
    return tuple(y for x in xs for y in x.as_integer_ratio())


def radial_factor(omega: Fraction, n0: int, A0: Fraction):
    """Evaluator (r, order[, blocks]) -> univariate Jet of the radial factor.

    Psi0(r) = w^{A0/2} e^{-w r^2/2} r^{A0-1} L_{n0}^{(A0)}(w r^2), with the
    w^{A0/2} prefactor included so the radial ladder coefficients come out
    clean.  It shares two blocks with the radial factors of other n0 at r:
    (r, u = w r^2, e^{-u/2}) and the prefactor with the Laguerre chain, read
    from `blocks` (`EvalPoint.factor` passes the point's; a standalone call
    builds them in a throwaway dict, the same floats).  Its `key` (n0 and
    the integer ratios of A0 and omega) fixes it exactly.
    """
    w, a0 = float(omega), float(A0)
    pref = w ** (a0 / 2.0)
    spec = LaguerreSpec(n0, A0)
    weight_key, a0_key = ("weight", *_exact(omega)), ("radial", *_exact(omega, A0))

    def ev(r: float, order: int, blocks=None) -> Jet:
        blocks = {} if blocks is None else blocks

        def weight():
            t = Jet.variable((r,), 0, order)
            u = (t * t) * w
            return t, u, (u * (-0.5)).exp()
        t, u, e = block(blocks, weight_key, weight)
        val, chain = block(blocks, a0_key, lambda: (e * t.power(a0 - 1.0) * pref, []))
        return val * laguerre_eval(spec, u, chain)

    ev.key = ("radial", n0, *A0.as_integer_ratio(), *omega.as_integer_ratio())
    return ev


def slot_factor(gauge: AngularSlotGauge, n: int):
    """Evaluator (theta, order[, blocks]) -> univariate Jet of a gauged slot function.

    It shares three blocks with the slot factors of other n, read from
    `blocks` as in `radial_factor`: (sin, cos, cos 2) of k theta, the gauge
    sin^{a+c} cos^{b+d} and the Jacobi chain of (a, b).  Its `key` is n and
    the integer ratios of a, b, c, d and k; the slot number does not enter
    the function.
    """
    k, a, b = gauge.k, gauge.a, gauge.b
    kf, ea, eb = float(k), a + gauge.c, b + gauge.d
    spec = JacobiSpec(n, a, b)
    trig_key, gauge_key = ("trig", *_exact(k)), ("gauge", *_exact(k, ea, eb))
    chain_key = ("jacobi", *_exact(k, a, b))

    def ev(theta: float, order: int, blocks=None) -> Jet:
        blocks = {} if blocks is None else blocks

        def trig():
            t = Jet.variable((theta,), 0, order) * kf
            s, c = t.sin(), t.cos()
            return s, c, c * c - s * s  # cos(2 k theta)
        s, c, arg = block(blocks, trig_key, trig)
        val = block(blocks, gauge_key, lambda: s.power(float(ea)) * c.power(float(eb)))
        return val * jacobi_eval(spec, arg, block(blocks, chain_key, list))

    ev.key = ("slot", n, *_exact(a, b, gauge.c, gauge.d, k))
    return ev


def in_cell(params: SystemParams, point) -> bool:
    r, t1, t2, t3 = point
    if not 0 < r < math.inf:  # a NaN fails too
        return False
    for k, t in ((params.k1, t1), (params.k2, t2), (params.k3, t3)):
        if not (0.0 < float(k) * t < math.pi / 2):
            return False
    return True


class Wavefunction:
    """Jet evaluator of the full separated eigenfunction of one state."""

    def __init__(self, params: SystemParams, state: QuantumState):
        if params.omega is None:
            raise ValueError("wavefunctions need a fixed numeric omega")
        state = QuantumState(*state)
        self.params = params
        self.state = state
        self.chain = spectral_chain(params, state)
        self.factors = (
            radial_factor(params.omega, state.n0, self.chain.A0),
            slot_factor(gauge_for_slot(params, self.chain, 1), state.n1),
            slot_factor(gauge_for_slot(params, self.chain, 2), state.n2),
            slot_factor(gauge_for_slot(params, self.chain, 3), state.n3),
        )

    def _check_cell(self, point):
        if not in_cell(self.params, point):
            raise ValueError(f"point {point} outside the principal cell")

    def factor_jets(self, point, order: int) -> list:
        """The four univariate factor jets, each built once per point context."""
        ctx = EvalPoint.of(point)
        return [ctx.factor(ev, i, order) for i, ev in enumerate(self.factors)]

    def __call__(self, point, order: int) -> Jet:
        self._check_cell(point)
        ctx = EvalPoint.of(point)
        jets = [j.lift(ctx, i) for i, j in enumerate(self.factor_jets(ctx, order))]
        out = jets[0]
        for j in jets[1:]:
            out = out * j
        return out

    def value(self, point) -> float:
        self._check_cell(point)
        return math.prod(ev(point[i], 0).value for i, ev in enumerate(self.factors))


def wavefunction(params: SystemParams, state) -> Wavefunction:
    return Wavefunction(params, QuantumState(*state))


def potential_v0(params: SystemParams, point) -> float:
    """The scalar potential V0 at a cell point (quantum case: alpha = -w^2)."""
    if params.omega is None:
        raise ValueError("potential_v0 needs a fixed numeric omega")
    r, t1, t2, t3 = (float(x) for x in point)
    w = float(params.omega)
    s1 = math.sin(float(params.k1) * t1)
    c1 = math.cos(float(params.k1) * t1)
    s2 = math.sin(float(params.k2) * t2)
    c2 = math.cos(float(params.k2) * t2)
    s3 = math.sin(float(params.k3) * t3)
    c3 = math.cos(float(params.k3) * t3)
    return (-(w * w) * r * r
            + float(params.beta1) / (r * r * c1 * c1)
            + float(params.beta2) / (r * r * s1 * s1 * c2 * c2)
            + float(params.beta3) / (r * r * s1 * s1 * s2 * s2 * c3 * c3)
            + float(params.beta4) / (r * r * s1 * s1 * s2 * s2 * s3 * s3))


def tower_table(params: SystemParams) -> tuple:
    """The commuting tower H, L1, L2, L3: one row of exact entries per level.

    Row j = (first, potential, nest) is the level acting on x_j = (r,
    theta1, theta2, theta3)[j]: d_j^2 + first * g_j d_j + the terms c * kind
    of the (c, kind) pairs in `potential` + nest * (level j + 1), with
    g_0 = 1/r and g_j = cot k_j theta_j.  The kinds are "sec2" and "csc2"
    (1/cos^2 and 1/sin^2 of k_j theta_j) on a slot row, "w2r2" (w^2 r^2) and
    "inv_r2" (1/r^2) on the radial row; the last row has no nest.  The
    entries 1 - k1^2 of 1/r^2 (row 0) and (k1^2 - k2^2)/4 of 1/sin^2 k1 theta1
    (row 1) are the curvature corrections to the classical V0
    (`potential_v0`): with them H = Laplace-Beltrami + V0 - R/6 - W/24.  No
    entry depends on omega.
    """
    k1, k2 = params.k1, params.k2
    return ((Fraction(3), ((Fraction(-1), "w2r2"), (1 - k1 ** 2, "inv_r2")), "inv_r2"),
            (2 * k1, ((params.beta1, "sec2"), ((k1 ** 2 - k2 ** 2) / 4, "csc2")), "csc2"),
            (k2, ((params.beta2, "sec2"),), "csc2"),
            (Fraction(0), ((params.beta3, "sec2"), (params.beta4, "csc2")), None))


# ---------------------------------------------------------------------------
# spectrum bookkeeping
# ---------------------------------------------------------------------------

def enumerate_states(nmax: int):
    return map(QuantumState._make, itertools.product(range(nmax + 1), repeat=4))


def degeneracy_classes(params: SystemParams, nmax: int):
    """Partition of all states with n_i <= nmax by exact energy.

    Returns a dict OmegaPoly -> sorted list of states.  The grouping key is
    the formal-w energy, so it is independent of any fixed omega value.
    """
    classes = {}
    for st in enumerate_states(nmax):
        E = spectral_chain(params, st).E
        classes.setdefault(E, []).append(st)
    for sts in classes.values():
        sts.sort()
    return classes
