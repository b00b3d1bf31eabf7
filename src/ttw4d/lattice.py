"""Exact operator algebra on the quantum-number lattice.

Everything here is exact: basis states are quantum-number tuples, vectors
are sparse rational(-in-w) combinations of them, and operators are rules
state -> vector closed under addition, scaling, composition, commutator and
the symmetrized triple product.  The coefficient ring is Q[w] (OmegaPoly).

Vectors stay in one normal form: keys are QuantumStates, entries are
nonzero OmegaPolys, and each coefficient tuple holds Fractions with no
trailing zero.  Only the public constructors coerce and validate; the
algebra builds its results from operands already in normal form through
the trusted `_of` constructors, and only + and - have to drop cancelled
terms.  Only leaves memoize: a LatticeOperator built from a rule keeps
each state's image for its lifetime, so a leaf shared inside one expression
(both sides of a commutator, one M_1^- in the four m1 relations) computes
each image once; +, -, scale and @ build operators with no memo.  The Xi
leaves belong to the parameter set (`xi_operator`); `xi_action` keeps nothing.
L^{+-}, P^{(+-)} and M_1^- are expressions over the Xi leaves and diagonal
leaves (the source-state divisors), each wrapped once in a leaf.

The primitive ladder steps act on an *extended* state that carries the
shiftable parameters (A0, A1, A2) alongside (n0..n3), because a single step
generally leaves the separated basis (it shifts a parameter without
re-deriving the chain).  The state is kept in integers, scaled by the
common denominator D of the parameter set (model.SystemParams): it is
(n0..n3, D·A0, D·A1, D·A2), and each step returns an integer factor with
a power of D and a power of w, so an Xi image costs integer products and
one Fraction at the end.  The composites Xi_i^{+-} recombine steps so the
final extended state is chain-consistent again with the source's energy;
this is checked on every application, against the target's integer chain
(model.scaled_chain), and a failure raises ChainBroken,
which `ttw4d verify` reports as a failing case.  Below-lattice images
(any n_i < 0) are dropped as zero — the printed lowering coefficients do
not always vanish at the boundary, so all identity suites run on interior
states with an explicit margin.

Known defects of the printed source formulas (kept verbatim under
variant="printed"/convention flags, with working corrected forms alongside):

* the closed-form Xi_1^{+-} coefficients miss a factor (-2)^{q1}; the
  lowering one also misses the radial ratio
  (n0+1)_{p1} (n0+A0-p1+1)_{p1} / ((n0+p1)_{p1} (n0+A0)_{p1}), which is 1
  when p1 = 1;
* the i-dependence of the bracket/cubic structure constants enters through
  g = k_{i-1} (k_0 := 1) and c_i = (k1^2, k2^2/4, 0), not through the
  single printed constant list alpha_i = (1, 1/4, 0) — the two coincide at
  i = 1 (and alpha_i = c_i/k_i^2 inside the cubic's (L^-)^2 term);
* P_i^(-) must be the antisymmetrized combination for the bracket
  [L^+, L^-] to close;
* M_1^- closes its defining relations with Xi_1^+ over the (A0+p1) divisor
  and Xi_1^- over (A0-p1), not with L_1^-/L_1^+ as typeset.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional

from .model import (QuantumState, SystemParams, enumerate_states, scaled_chain,
                    spectral_chain)
from .numcore import OmegaPoly, multi_indices, pochhammer


class DivisorSingular(ArithmeticError):
    """An A0-type divisor of a symmetry operator vanished at a source state."""


class ChainBroken(ArithmeticError):
    """An Xi image left the separated chain or changed the exact energy.

    `witness` is (source state, i, sign, target state).
    """

    def __init__(self, what: str, state, i: int, sign: str, target):
        super().__init__(f"Xi_{i}^{sign} {what} at {tuple(state)} -> {tuple(target)}")
        self.witness = (state, i, sign, target)


def _as_opoly(c) -> OmegaPoly:
    if isinstance(c, OmegaPoly):
        return c
    if isinstance(c, (int, Fraction)):
        return OmegaPoly((c,))
    raise TypeError(f"cannot use {type(c).__name__} as a lattice coefficient")


def _add_into(acc: dict, items) -> None:
    """acc += items in place, for normal-form terms; drops cancelled entries."""
    for st, c in items:
        if st in acc:
            s = acc[st] + c
            if s.coeffs:
                acc[st] = s
            else:
                del acc[st]
        else:
            acc[st] = c


class LatticeVector:
    """Sparse exact vector: QuantumState -> OmegaPoly, no zero entries.

    Treat instances as immutable values; all operations build new vectors.
    The public constructor coerces, validates and merges its terms; the
    operations build their results with `_of` from terms already in normal
    form.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        acc = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for st, c in items:
                c = _as_opoly(c)
                st = QuantumState(*st)
                if min(st) < 0:
                    raise ValueError("negative quantum number in a lattice vector")
                acc[st] = acc[st] + c if st in acc else c
        object.__setattr__(
            self, "terms", {st: c for st, c in acc.items() if not c.is_zero()})

    @classmethod
    def _of(cls, terms: dict) -> "LatticeVector":
        """Trusted constructor: terms maps QuantumState -> nonzero OmegaPoly."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        return out

    def __setattr__(self, *a):
        raise AttributeError("LatticeVector is immutable")

    @classmethod
    def zero(cls):
        return cls._of({})

    @classmethod
    def basis(cls, state, coeff=1):
        return cls({QuantumState(*state): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return self.terms.items()

    def states(self):
        return self.terms.keys()

    def coeff(self, state) -> OmegaPoly:
        return self.terms.get(QuantumState(*state), OmegaPoly.zero())

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        out = dict(self.terms)
        _add_into(out, other.terms.items())
        return LatticeVector._of(out)

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        out = dict(self.terms)
        _add_into(out, ((st, -c) for st, c in other.terms.items()))
        return LatticeVector._of(out)

    def __neg__(self):
        return LatticeVector._of({st: -c for st, c in self.terms.items()})

    def scale(self, c) -> "LatticeVector":
        c = _as_opoly(c)
        if c.is_zero():
            return LatticeVector._of({})
        return LatticeVector._of({st: v * c for st, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, LatticeVector):
            return NotImplemented
        return self.terms == other.terms

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        if not self.terms:
            return "LatticeVector(0)"
        parts = [f"({poly}) {tuple(st)}" for st, poly in sorted(self.terms.items())]
        return "LatticeVector(" + " + ".join(parts) + ")"


class LatticeOperator:
    """Exact linear operator given by a rule state -> LatticeVector.

    An operator built from a rule is a leaf: it memoizes the rule per state
    for its lifetime, so a leaf shared within an expression evaluates each
    image once.  The operators +, -, scale and @ build come from the trusted
    `_of` and keep no memo: each is asked for one state per evaluation.
    """

    __slots__ = ("_image",)

    def __init__(self, rule):
        memo = {}

        def image(st: QuantumState) -> LatticeVector:
            vec = memo.get(st)
            if vec is None:
                vec = memo[st] = rule(st)
            return vec
        object.__setattr__(self, "_image", image)

    @classmethod
    def _of(cls, image) -> "LatticeOperator":
        """Trusted constructor: image maps a QuantumState to its vector, unmemoized."""
        out = object.__new__(cls)
        object.__setattr__(out, "_image", image)
        return out

    def __setattr__(self, *a):
        raise AttributeError("LatticeOperator is immutable")

    def __call__(self, state) -> LatticeVector:
        return self._image(QuantumState(*state))

    def on_vector(self, vec: LatticeVector) -> LatticeVector:
        acc = {}
        for st, c in vec.items():
            _add_into(acc, ((t, v * c) for t, v in self._image(st).items()))
        return LatticeVector._of(acc)

    def __add__(self, other: "LatticeOperator") -> "LatticeOperator":
        return LatticeOperator._of(lambda st: self._image(st) + other._image(st))

    def __sub__(self, other: "LatticeOperator") -> "LatticeOperator":
        return LatticeOperator._of(lambda st: self._image(st) - other._image(st))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "LatticeOperator":
        c = _as_opoly(c)
        return LatticeOperator._of(lambda st: self._image(st).scale(c))

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction, OmegaPoly)):
            return self.scale(c)
        return NotImplemented

    def __truediv__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(Fraction(1, 1) / Fraction(c))
        return NotImplemented

    def __matmul__(self, other: "LatticeOperator") -> "LatticeOperator":
        """Composition self ∘ other (other acts first)."""
        return LatticeOperator._of(lambda st: self.on_vector(other._image(st)))


def commutator(a: LatticeOperator, b: LatticeOperator) -> LatticeOperator:
    return (a @ b) - (b @ a)


def anticommutator(a: LatticeOperator, b: LatticeOperator) -> LatticeOperator:
    return (a @ b) + (b @ a)


def symmetrized_triple(a, b, c) -> LatticeOperator:
    """Full 6-permutation symmetrizer {A,B,C} (repeats counted)."""
    first, *rest = [x @ (y @ z) for x, y, z in itertools.permutations((a, b, c))]
    return sum(rest, first)


def identity_operator() -> LatticeOperator:
    return diagonal_operator(lambda st: 1)


def diagonal_operator(fn) -> LatticeOperator:
    """Multiplication operator: state -> fn(state) * state."""
    return LatticeOperator(lambda st: LatticeVector.basis(st, fn(st)))


def h_operator(params: SystemParams) -> LatticeOperator:
    """H realized on the basis: multiplication by the exact energy E(state)."""
    return diagonal_operator(lambda st: spectral_chain(params, st).E)


def l_operator(params: SystemParams, i: int) -> LatticeOperator:
    """L_i realized on the basis: multiplication by ell_i(state)."""
    def ell(st):
        ch = spectral_chain(params, st)
        return (ch.ell1, ch.ell2, ch.ell3)[i - 1]
    return diagonal_operator(ell)


# ---------------------------------------------------------------------------
# primitive ladder steps on integer states
# ---------------------------------------------------------------------------

def _step(params: SystemParams, st: list, kind: str, slot: Optional[int]):
    """Apply one primitive ladder step to the integer state st in place.

    st is [n0, n1, n2, n3, D·A0, D·A1, D·A2] with D = params.D; a single
    step moves one n and possibly one parameter, and only the full Xi
    composites return to chain-consistent parameter values.  Returns
    (f, d, m) for the coefficient f w^m / D^d, or None (st untouched) when
    the image falls below the lattice (dropped as zero).  In slot s the
    Jacobi parameters are (a, b) = (A1, a1), (A2, a2), (a3, a4); the
    coefficients follow the printed actions:
        K0+ : -2w (n0+1)(n0+A0),      n0+1, A0-2
        K0- : -2w,                    n0-1, A0+2
        J+  : -2 (n+1)(n+a+b+1),      n+1
        J-  : -2 (n+a)(n+b),          n-1
        K+a :  2 (n+1)(n+a),          n+1, a-2
        K-a :  2 (n+a+b+1)(n+b),      n-1, a+2
    """
    D = params.D
    if kind == "K0+":
        n, dA = st[0], st[4]
        st[0], st[4] = n + 1, dA - 2 * D
        return -2 * (n + 1) * (D * n + dA), 1, 1
    if kind == "K0-":
        if st[0] == 0:
            return None
        st[0], st[4] = st[0] - 1, st[4] + 2 * D
        return -2, 0, 1
    if slot not in (1, 2, 3):
        raise ValueError("slot must be 1, 2 or 3")
    n = st[slot]
    Da = params.Da
    dn, da, db = D * n, (st[5], st[6], Da[2])[slot - 1], Da[(0, 1, 3)[slot - 1]]
    if kind == "J+":
        st[slot] = n + 1
        return -2 * (n + 1) * (dn + da + db + D), 1, 0
    if kind == "K+a":
        st[slot] = n + 1
        if slot < 3:
            st[4 + slot] = da - 2 * D
        return 2 * (n + 1) * (dn + da), 1, 0
    if kind not in ("J-", "K-a"):
        raise ValueError(f"unknown ladder kind {kind!r}")
    if n == 0:
        return None
    st[slot] = n - 1
    if kind == "J-":
        return -2 * (dn + da) * (dn + db), 2, 0
    if slot < 3:
        st[4 + slot] = da + 2 * D
    return 2 * (dn + da + db + D) * (dn + db), 2, 0


def _walk(params: SystemParams, st: list, steps) -> Optional[OmegaPoly]:
    """Apply steps to the integer state st in place; the product of their
    coefficients, or None when an image falls below the lattice."""
    num, dpow, wpow = 1, 0, 0
    for kind, slot in steps:
        hit = _step(params, st, kind, slot)
        if hit is None:
            return None
        f, d, m = hit
        num, dpow, wpow = num * f, dpow + d, wpow + m
    return OmegaPoly.omega(wpow, Fraction(num, params.D ** dpow))


_LADDER_KINDS = ("K0+", "K0-", "J+", "J-", "K+a", "K-a")


def ladder_action(kind: str, params: SystemParams, state, slot: Optional[int] = None) -> LatticeVector:
    """Printed action of one primitive ladder on a basis state.

    The target is labeled by its shifted quantum numbers only; the implied
    parameter shift (e.g. A0 -> A0+2 under K0-) is generally *not* the
    chain value at the shifted numbers — single steps leave the separated
    basis, and only the Xi composites return to it.
    """
    if kind not in _LADDER_KINDS:
        raise ValueError(f"unknown ladder kind {kind!r}")
    if kind.startswith("K0"):
        if slot is not None and slot != 0:
            raise ValueError("radial ladders take no slot")
    elif slot not in (1, 2, 3):
        raise ValueError(f"{kind} needs slot in 1..3")
    st = [*state, *scaled_chain(params, state)[:3]]
    coeff = _walk(params, st, ((kind, slot),))
    if coeff is None:
        return LatticeVector.zero()
    return LatticeVector({QuantumState(*st[:4]): coeff})


# ---------------------------------------------------------------------------
# Xi composites
# ---------------------------------------------------------------------------

def _xi_steps(params: SystemParams, i: int, sign: str):
    """Primitive steps of Xi_i^sign in application order (first acts first).

    Xi_i^+ raises n_i by q_i (J+ on slot i, q_i times) and then lowers the
    previous level by p_i (K0- for i=1, K-a on slot i-1 otherwise); Xi_i^-
    mirrors it with J-/K0+/K+a.  Each step uses the parameters advanced by
    the steps before it.
    """
    p, q = params.pq(i)
    if sign == "+":
        head = (("J+", i),) * q
        tail = (("K0-", None),) * p if i == 1 else (("K-a", i - 1),) * p
    elif sign == "-":
        head = (("J-", i),) * q
        tail = (("K0+", None),) * p if i == 1 else (("K+a", i - 1),) * p
    else:
        raise ValueError("sign must be '+' or '-'")
    return head + tail


def xi_action(i: int, sign: str, params: SystemParams, state) -> LatticeVector:
    """Exact action of the composite Xi_i^sign on a basis state.

    Composes the primitive ladders with per-step parameter advancement; the
    image is a single basis state with the same exact energy, or zero when
    any intermediate step leaves the lattice.  An image off the chain or off
    the energy raises ChainBroken.  Nothing is memoized (see `xi_operator`).
    """
    if i not in (1, 2, 3):
        raise ValueError("i must be 1, 2 or 3")
    state = QuantumState(*state)
    src = scaled_chain(params, state)
    st = [*state, *src[:3]]
    coeff = _walk(params, st, _xi_steps(params, i, sign))
    if coeff is None:
        return LatticeVector.zero()
    target = QuantumState(*st[:4])
    # chain consistency: the advanced D·A must equal the target's integer chain
    tgt = scaled_chain(params, target)
    if tuple(st[4:]) != tgt[:3]:
        raise ChainBroken("left the chain", state, i, sign, target)
    if tgt[3] != src[3]:
        raise ChainBroken("changed E", state, i, sign, target)
    return LatticeVector._of({target: coeff} if coeff.coeffs else {})


def xi_operator(params: SystemParams, i: int, sign: str) -> LatticeOperator:
    """The parameter set's one Xi_i^sign leaf, kept in params._memo, so each
    (i, sign, state) image is computed once per parameter set."""
    if i not in (1, 2, 3):
        raise ValueError("i must be 1, 2 or 3")
    memo, key = params._memo, ("xi", i, sign)
    if key not in memo:
        memo[key] = LatticeOperator(lambda st: xi_action(i, sign, params, st))
    return memo[key]


def xi1_closed_form(sign: str, params: SystemParams, state,
                    variant: str = "printed") -> OmegaPoly:
    """Closed-form coefficient of Xi_1^sign.

    variant="printed" is the typeset Pochhammer product; variant="composed"
    is the form the step-by-step composition actually produces.  The
    composed form is the printed one times (-2)^{q1} for the raising branch,
    and times (-2)^{q1} (n0+1)_{p1} (n0+A0-p1+1)_{p1} / ((n0+p1)_{p1}
    (n0+A0)_{p1}) for the lowering branch; that radial ratio is 1 when p1 = 1.
    """
    if variant not in ("printed", "composed"):
        raise ValueError(f"unknown variant {variant!r}")
    state = QuantumState(*state)
    p1, q1 = params.pq1
    ch = spectral_chain(params, state)
    n0, n1 = state.n0, state.n1
    A0, A1, a1 = ch.A0, ch.A1, params.a1
    scale = Fraction(-2) ** (p1 if variant == "printed" else p1 + q1)
    if sign == "+":
        base = pochhammer(Fraction(n1 + 1), q1) * pochhammer(n1 + A1 + a1 + 1, q1)
        return OmegaPoly.omega(p1, scale * base)
    if sign == "-":
        ang = pochhammer(-n1 - A1, q1) * pochhammer(-n1 - a1, q1)
        if variant == "printed":
            rad = pochhammer(Fraction(n0 + p1), p1) * pochhammer(n0 + A0, p1)
        else:
            fall = Fraction(1)
            for j in range(p1):
                fall *= (n0 + A0 - j)
            rad = pochhammer(Fraction(n0 + 1), p1) * fall
        return OmegaPoly.omega(p1, scale * ang * rad)
    raise ValueError("sign must be '+' or '-'")


# ---------------------------------------------------------------------------
# symmetry operators L_i^{+-}, P_i^{(+-)}, M_1^-
# ---------------------------------------------------------------------------

def _divisor(params: SystemParams, label: str, den, num=1) -> LatticeOperator:
    """Diagonal leaf num / den(chain) at the source state; a vanishing
    divisor raises DivisorSingular."""
    def value(st):
        d = den(spectral_chain(params, st))
        if d == 0:
            raise DivisorSingular(f"{label} = 0 at {tuple(st)}")
        return num / d
    return diagonal_operator(value)


def _k_over_A(params: SystemParams, i: int) -> LatticeOperator:
    """k_i / A_{i-1} at the source state (positive a's keep it finite)."""
    return _divisor(params, f"A_{i - 1}", lambda ch: (ch.A0, ch.A1, ch.A2)[i - 1],
                    params.k(i))


def lpm_operator(params: SystemParams, i: int, sign: str) -> LatticeOperator:
    """L_i^+ = Xi_i^+ + Xi_i^-;  L_i^- = k_i (Xi_i^+ - Xi_i^-) / A_{i-1}.

    Below-lattice Xi images contribute nothing.
    """
    xp, xm = xi_operator(params, i, "+"), xi_operator(params, i, "-")
    if sign == "+":
        expr = xp + xm
    elif sign == "-":
        expr = (xp - xm) @ _k_over_A(params, i)
    else:
        raise ValueError("sign must be '+' or '-'")
    return LatticeOperator(expr._image)


def p_operator(params: SystemParams, i: int, sign: str,
               convention: str = "antisymmetric") -> LatticeOperator:
    """Diagonal products of Xi's.

    P_i^(+) = Xi- Xi+ + Xi+ Xi-  (both conventions agree).
    P_i^(-) under convention="printed" is the symmetric combination as
    typeset, k_i (Xi+ Xi- + Xi- Xi+) / A_{i-1} — a scalar multiple of
    P_i^(+); under "antisymmetric" it is k_i (Xi+ Xi- - Xi- Xi+) / A_{i-1},
    which is what the bracket [L+, L-] actually closes on.
    """
    xp, xm = xi_operator(params, i, "+"), xi_operator(params, i, "-")
    if sign == "+":
        expr = xm @ xp + xp @ xm
    elif sign != "-":
        raise ValueError("sign must be '+' or '-'")
    elif convention == "printed":
        expr = (xp @ xm + xm @ xp) @ _k_over_A(params, i)
    elif convention == "antisymmetric":
        expr = (xp @ xm - xm @ xp) @ _k_over_A(params, i)
    else:
        raise ValueError(f"unknown P convention {convention!r}")
    return LatticeOperator(expr._image)


def s1_value(params: SystemParams, state) -> OmegaPoly:
    """S_1 = -(H^2 - 4w)(A_1^2 - a_1^2)/16 evaluated on a basis state."""
    ch = spectral_chain(params, QuantumState(*state))
    hh = ch.E * ch.E - OmegaPoly.omega(1, 4)
    return hh * ((ch.A1 ** 2 - params.a1 ** 2) * Fraction(-1, 16))


def m1_minus_operator(params: SystemParams, convention: str = "xi") -> LatticeOperator:
    """The extra symmetry M_1^-.

    convention="xi" (the recorded working form):
        M_1^- = -1/(4 q1) [ Xi_1^+ / (A0 (A0+p1)) + Xi_1^- / (A0 (A0-p1)) ]
                + S_1 / (A0^2 - p1^2),
    all divisors at the source state.  This closes the defining relations
    [L1, M1^-] = L1^-, [H, M1^-] = [L2, M1^-] = [L3, M1^-] = 0 exactly.

    convention="printed" replaces Xi_1^+ -> L_1^-, Xi_1^- -> L_1^+ over the
    same divisors (the typeset form); it does not satisfy the relations and
    is kept for regression against the source.  The S_1 term acts first, so
    at A0 in {0, +-p1} DivisorSingular is raised before any Xi image.
    """
    p1, q1 = params.pq1
    if convention == "xi":
        a, b = xi_operator(params, 1, "+"), xi_operator(params, 1, "-")
    elif convention == "printed":
        a, b = lpm_operator(params, 1, "-"), lpm_operator(params, 1, "+")
    else:
        raise ValueError(f"unknown M1 convention {convention!r}")
    s1 = diagonal_operator(lambda st: s1_value(params, st))
    expr = (s1 @ _divisor(params, "A0^2 - p1^2", lambda ch: ch.A0 ** 2 - p1 * p1)
            + Fraction(-1, 4 * q1)
            * (a @ _divisor(params, "A0 (A0+p1)", lambda ch: ch.A0 * (ch.A0 + p1))
               + b @ _divisor(params, "A0 (A0-p1)", lambda ch: ch.A0 * (ch.A0 - p1))))
    return LatticeOperator(expr._image)


def M1_minus_action(params: SystemParams, state,
                    convention: str = "xi") -> LatticeVector:
    """M_1^- on one basis state (see `m1_minus_operator`)."""
    return m1_minus_operator(params, convention)(state)


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------

ALPHA_PRINTED = (Fraction(1), Fraction(1, 4), Fraction(0))


IDENTITY_KINDS = ("bracket-minus", "bracket-plus", "bracket-pm", "cubic",
                  "cross-commute")


def check_identity(i: int, which: str, params: SystemParams, state,
                   convention: str = "antisymmetric",
                   variant: str = "printed") -> LatticeVector:
    """Residual (LHS - RHS) of one structure identity applied to a state.

    An empty vector means the identity holds exactly there.  Each identity
    is written once; every variant-dependent scalar in it is a pair of the
    typeset value (through alpha_i) and the corrected one (through
    g = k_{i-1} with k_0 := 1, and c_i = (k1^2, k2^2/4, 0), the corrected
    analogue of alpha_i k_i^2), and variant picks one side (see module
    docstring).  convention selects the P^(-) combination under the printed
    variant; the corrected one always uses the antisymmetric P^(-).
    cross-commute checks [L_j, L_i^s] = 0 for j != i and the full
    [L_j^s, L_i^t] = 0 family for |i-j| > 1, returning the first nonzero
    residual.
    """
    state = QuantumState(*state)
    if which not in IDENTITY_KINDS:
        raise ValueError(f"unknown identity {which!r}")
    if convention not in ("printed", "antisymmetric"):
        raise ValueError(f"unknown P convention {convention!r}")
    if variant not in ("printed", "corrected"):
        raise ValueError(f"unknown variant {variant!r}")
    if which == "cross-commute":
        Lpm = {(j, s): lpm_operator(params, j, s) for j in (1, 2, 3) for s in "+-"}
        for j in (1, 2, 3):
            if j == i:
                continue
            Lj = l_operator(params, j)
            for s in ("+", "-"):
                r = commutator(Lj, Lpm[i, s])(state)
                if not r.is_zero():
                    return r
            if abs(i - j) > 1:
                for s in ("+", "-"):
                    for t in ("+", "-"):
                        r = commutator(Lpm[j, s], Lpm[i, t])(state)
                        if not r.is_zero():
                            return r
        return LatticeVector.zero()

    ksq = params.k(i) ** 2
    q = Fraction(params.pq(i)[1])
    al = ALPHA_PRINTED[i - 1]
    g = (Fraction(1), params.k1, params.k2)[i - 1]
    c = (params.k1 ** 2, params.k2 ** 2 / 4, Fraction(0))[i - 1]
    col = 0 if variant == "printed" else 1
    L = l_operator(params, i)
    Lp = lpm_operator(params, i, "+")
    Lm = lpm_operator(params, i, "-")
    Pm = p_operator(params, i, "-",
                    convention if variant == "printed" else "antisymmetric")
    # each scalar is a (printed, corrected) pair, indexed by col
    if which == "bracket-minus":
        R = (commutator(L, Lm) + (4 * ksq * q * q) * Lm
             + (4 * al * ksq * q, 4 * ksq * q * g)[col] * Lp)
    elif which == "bracket-plus":
        R = (commutator(L, Lp)
             - (2 * q, 2 * q / g)[col] * anticommutator(L, Lm)
             + (4 * ksq * q, -4 * ksq * q * q)[col] * Lp
             + (-4 * ksq * q * q - 8 * q ** 3 * ksq,
                -(4 * q / g) * (2 * ksq * q * q - c))[col] * Lm)
    elif which == "bracket-pm":
        R = commutator(Lp, Lm) - (2 * q, 2 * q / g)[col] * (Lm @ Lm) + 2 * Pm
    else:
        R = (symmetrized_triple(L, Lm, Lm)
             + (2 * ksq * (14 * q * q - 3 * al), 28 * ksq * q * q - 6 * c)[col] * (Lm @ Lm)
             + (6 * ksq, 6 * ksq * g * g)[col] * (Lp @ Lp)
             + (6 * ksq * q, 6 * ksq * q * g)[col] * anticommutator(Lp, Lm)
             - (12 * ksq, 12 * ksq * g * g)[col] * p_operator(params, i, "+")
             + (4 * ksq * q, -4 * ksq * q * g)[col] * Pm)
    return R(state)


# ---------------------------------------------------------------------------
# interior windows and the independence smoke test
# ---------------------------------------------------------------------------

def interior_margins(params: SystemParams):
    """Per-slot minimum n needed so every identity composition stays on-lattice.

    Two lowering excursions per slot bound the worst case (the cubic):
    slot 0 is lowered by Xi_1^+ (p1 each), slot m by Xi_m^- (q_m) and
    Xi_{m+1}^+ (p_{m+1}).
    """
    (p1, q1), (p2, q2), (p3, q3) = params.pq1, params.pq2, params.pq3
    return (2 * p1, 2 * max(q1, p2), 2 * max(q2, p3), 2 * q3)


def is_interior(params: SystemParams, state, margins=None) -> bool:
    m = interior_margins(params) if margins is None else margins
    return all(n >= need for n, need in zip(QuantumState(*state), m))


def identity_states(params: SystemParams, count: int = 20):
    """Deterministic list of interior states: margins plus graded offsets."""
    m = interior_margins(params)
    return [QuantumState(*(b + o for b, o in zip(m, off)))
            for off in multi_indices(4, 3)[:count]]


def xi_sweep(params: SystemParams, nmax: int = 6):
    """Apply every Xi_i^{+-} once to each state of the box n_i <= nmax.

    Returns (images, broken): images maps (i, sign) to the number of
    on-lattice images, each checked by xi_action for chain consistency and
    exact energy; broken lists the witnesses (state, i, sign, target) of the
    applications that raised ChainBroken, which are counted as images too.
    """
    images = {(i, sign): 0 for i in (1, 2, 3) for sign in ("+", "-")}
    broken = []
    for st in enumerate_states(nmax):
        for i, sign in images:
            try:
                images[(i, sign)] += len(xi_action(i, sign, params, st))
            except ChainBroken as exc:
                images[(i, sign)] += 1
                broken.append(exc.witness)
    return images, broken


def xi_class_check(params: SystemParams, nmax: int = 6):
    """Witnesses (state, i, sign, target) of broken Xi images (expected: none)."""
    return xi_sweep(params, nmax)[1]


def window_independence(params: SystemParams, window_nmax: Optional[int] = None):
    """Exact linear-independence smoke test on a truncated state window.

    Materializes {1, H, L1, L1+, L2, L2+, L3, L3+} as sparse matrices over
    the window (images outside the window are truncated — documented
    limitation), flattens each entry per omega-degree into one long exact
    vector, and Gauss-eliminates over Q.  Full rank (8) means no joint
    linear relation on the window.

    The default window grows with the largest ladder step: a window
    narrower than p_i or q_i truncates that L_i^+ to the zero matrix and
    the test becomes vacuous.
    """
    if window_nmax is None:
        steps = [s for pq in (params.pq1, params.pq2, params.pq3) for s in pq]
        window_nmax = max(2, *steps)
    states = list(enumerate_states(window_nmax))
    inside = set(states)
    ops = [("1", identity_operator()),
           ("H", h_operator(params)),
           ("L1", l_operator(params, 1)),
           ("L1+", lpm_operator(params, 1, "+")),
           ("L2", l_operator(params, 2)),
           ("L2+", lpm_operator(params, 2, "+")),
           ("L3", l_operator(params, 3)),
           ("L3+", lpm_operator(params, 3, "+"))]
    vectors = []
    for _, op in ops:
        flat = {}
        for src in states:
            for tgt, poly in op(src).items():
                if tgt not in inside:
                    continue
                for deg, cf in enumerate(poly.coeffs):
                    if cf:
                        flat[(tuple(tgt), tuple(src), deg)] = cf
        vectors.append(flat)
    rank = _sparse_rank(vectors)
    return {"ops": [name for name, _ in ops], "rank": rank,
            "expected": len(ops), "independent": rank == len(ops),
            "window_nmax": window_nmax}


def _sparse_rank(vectors) -> int:
    """Exact rank of sparse Fraction vectors (dict key -> Fraction)."""
    vecs = [dict(v) for v in vectors]
    rank = 0
    while vecs:
        piv = vecs.pop(0)
        if not piv:
            continue
        rank += 1
        key = min(piv)
        pval = piv[key]
        nxt = []
        for v in vecs:
            if key in v:
                f = v[key] / pval
                v = {kk: val for kk in set(v) | set(piv)
                     if (val := v.get(kk, Fraction(0)) - f * piv.get(kk, Fraction(0)))}
            nxt.append(v)
        vecs = nxt
    return rank
