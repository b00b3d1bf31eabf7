"""Exact operator algebra on the quantum-number lattice.

Everything here is exact: basis states are quantum-number tuples, vectors
are sparse rational(-in-w) combinations of them, and operators are rules
state -> vector closed under addition, scaling, composition, commutator and
the symmetrized triple product.  The coefficient ring is Q[w] (OmegaPoly).

Vectors stay in one normal form: keys are QuantumStates, entries are
nonzero OmegaPolys, each a reduced tuple of integer numerators over one
positive denominator with no trailing zero.  Only the public constructors
coerce and validate; the algebra builds its results from operands already
in normal form through the trusted `_of` constructors (OmegaPoly._of takes
the integers of every Xi coefficient, diagonal value and energy directly),
and only + and - have to drop cancelled terms.  An operator computes an
image each time it is asked for one.  The one exception is the leaves: a
parameter set owns one Xi_i^{+-}, one L_i^{+-} and one M_1^- per
convention (`xi_operator`, `lpm_operator`, `m1_minus_operator`), kept in
params._memo, and each computes a state's image once for that parameter
set's lifetime.  Diagonals, P^{(+-)}, every +, -, scale and @, `xi_action`
and `xi_sweep` keep nothing.  L^{+-}, P^{(+-)} and M_1^- are expressions
over the Xi leaves and diagonal leaves (the source-state divisors).  A
diagonal (H, L_i, S_1, a divisor) carries its values, and a product or
bracket with it scales one image.  The same dict keeps each identity's
operators (`check_identity`) and each Xi program (`_xi_program`): no image.

The primitive ladder steps act on an *extended* state that carries the
shiftable parameters (A0, A1, A2) alongside (n0..n3), because a single step
generally leaves the separated basis (it shifts a parameter without
re-deriving the chain).  The state is kept in integers, scaled by the
common denominator D of the parameter set (model.SystemParams): it is
x = (n0..n3, D·A0, D·A1, D·A2).  Each ladder kind is one step-table entry
(a guard, a scalar, affine factors in x, a shift, powers of D and w), and
`_compile` folds the steps of an Xi into one program per parameter set:
its coefficient is a product of affine forms in the source's x, so an
image costs integer products and one gcd.  The composites recombine steps
so the final state is chain-consistent again with the source's energy;
every application is checked against the target's integer chain
(model.scaled_chain), and a failure raises ChainBroken, which
`ttw4d verify` reports as a failing case.  Below-lattice images
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
from collections import Counter
from fractions import Fraction
from operator import add
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
        return OmegaPoly._of((c.numerator,) if c else (), c.denominator)
    raise TypeError(f"cannot use {type(c).__name__} as a lattice coefficient")


def _add_into(acc: dict, items) -> None:
    """acc += items in place, for normal-form terms; drops cancelled entries."""
    for st, c in items:
        if st in acc:
            s = acc[st] + c
            if s.num:
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
    """Exact linear operator given by its image map QuantumState -> LatticeVector.

    An operator computes an image each time it is asked for one; only the
    parameter set's leaves keep images (see `_leaf`) and a diagonal its values.
    """

    __slots__ = ("_image", "_values")

    def __init__(self, image, values=None):
        object.__setattr__(self, "_image", image)
        object.__setattr__(self, "_values", values)

    def __setattr__(self, *a):
        raise AttributeError("LatticeOperator is immutable")

    def __call__(self, state) -> LatticeVector:
        return self._image(QuantumState(*state))

    def on_vector(self, vec: LatticeVector) -> LatticeVector:
        if len(vec.terms) == 1:  # one source state: its image, scaled
            ((st, c),) = vec.terms.items()
            return LatticeVector._of({t: v * c for t, v in self._image(st).items()})
        acc = {}
        for st, c in vec.items():
            _add_into(acc, ((t, v * c) for t, v in self._image(st).items()))
        return LatticeVector._of(acc)

    def __add__(self, other: "LatticeOperator") -> "LatticeOperator":
        return LatticeOperator(lambda st: self._image(st) + other._image(st))

    def __sub__(self, other: "LatticeOperator") -> "LatticeOperator":
        return LatticeOperator(lambda st: self._image(st) - other._image(st))

    def __rmul__(self, c) -> "LatticeOperator":
        if not isinstance(c, (int, Fraction, OmegaPoly)):
            return NotImplemented
        c = _as_opoly(c)
        return LatticeOperator(lambda st: self._image(st).scale(c))

    def __matmul__(self, other: "LatticeOperator") -> "LatticeOperator":
        """Composition self ∘ other (other acts first)."""
        return (_with_diagonal(self, other, 0)
                or LatticeOperator(lambda st: self.on_vector(other._image(st))))


def _with_diagonal(a: LatticeOperator, b: LatticeOperator, sign: int):
    """a @ b (sign 0) or a @ b + sign (b @ a) from one scaled image when a or
    b is diagonal with values d, else None.  Reads: d(st), a(st) (skipped by a
    product at d(st) = 0), each d(t) for b = d; b(st), each d(t), d(st) for a
    = d.  Weights: d(st) + sign d(t) for b = d, d(t) + sign d(st) for a = d."""
    right = b._values is not None
    if not right and a._values is None:
        return None
    d, x = (b._values, a) if right else (a._values, b)

    def image(st: QuantumState) -> LatticeVector:
        ds = d(st) if right else None
        if right and not sign:
            return LatticeVector._of({t: v * ds for t, v in x._image(st).items()}
                                     if ds.num else {})
        terms = x._image(st).items()
        dt = [d(t) for t, _ in terms]
        if not sign:
            return LatticeVector._of({t: v * c for (t, v), c in zip(terms, dt) if c.num})
        ds = ds if right else d(st)
        return LatticeVector._of({  # a commutator skips the subtraction where d(t) = d(st)
            t: v * w for (t, v), c in zip(terms, dt)
            if (sign > 0 or c != ds) and (w := ds + sign * c if right else c + sign * ds).num})
    return LatticeOperator(image)


def commutator(a: LatticeOperator, b: LatticeOperator) -> LatticeOperator:
    return _with_diagonal(a, b, -1) or (a @ b) - (b @ a)


def anticommutator(a: LatticeOperator, b: LatticeOperator) -> LatticeOperator:
    return _with_diagonal(a, b, 1) or (a @ b) + (b @ a)


def symmetrized_triple(a, b, c) -> LatticeOperator:
    """Full 6-permutation symmetrizer {A,B,C} (repeats counted): a word that
    equal operands repeat is built once and scaled by its multiplicity."""
    if b is c:  # {a, b, b} = 2 ({a, b b} + b a b): one b b image for a diagonal a
        return 2 * (anticommutator(a, b @ b) + b @ (a @ b))
    words = Counter(itertools.permutations((a, b, c)))
    first, *rest = [(m * (x @ (y @ z)) if m > 1 else x @ (y @ z))
                    for (x, y, z), m in words.items()]
    return sum(rest, first)


def identity_operator() -> LatticeOperator:
    return diagonal_operator(lambda st: 1)


def diagonal_operator(fn) -> LatticeOperator:
    """Multiplication operator: state -> fn(state) * state, with its values."""
    def value(st: QuantumState) -> OmegaPoly:
        return _as_opoly(fn(st))

    def image(st: QuantumState) -> LatticeVector:
        c = value(st)
        return LatticeVector._of({st: c} if c.num else {})
    return LatticeOperator(image, value)


def h_operator(params: SystemParams) -> LatticeOperator:
    """H realized on the basis: multiplication by the exact energy E(state)."""
    return diagonal_operator(lambda st: spectral_chain(params, st).E)


def l_operator(params: SystemParams, i: int) -> LatticeOperator:
    """L_i realized on the basis: multiplication by ell_i(state)."""
    params.k(i)  # rejects i outside 1..3
    def ell(st):
        ch = spectral_chain(params, st)
        return (ch.ell1, ch.ell2, ch.ell3)[i - 1]
    return diagonal_operator(ell)


# ---------------------------------------------------------------------------
# primitive ladder steps, compiled into programs on integer states
# ---------------------------------------------------------------------------

# One entry per ladder kind: (dn, dA, scalar, factors, dpow, wpow) for the
# coefficient scalar · prod(factors) · w^wpow / D^dpow and the moves n += dn,
# D·a += dA·D on the step's level.  A factor sums the atoms n, Dn = D·n, da, db,
# D and 1, where a is A0 on the radial level and (a, b) the Jacobi pair (A1, a1),
# (A2, a2), (a3, a4) of slots 1..3.  A lowering step at n = 0 drops the image.
_STEP_TABLE = {
    "K0+": (1, -2, -2, ("n+1", "Dn+da"), 1, 1),
    "K0-": (-1, 2, -2, (), 0, 1),
    "J+": (1, 0, -2, ("n+1", "Dn+da+db+D"), 1, 0),
    "J-": (-1, 0, -2, ("Dn+da", "Dn+db"), 2, 0),
    "K+a": (1, -2, 2, ("n+1", "Dn+da"), 1, 0),
    "K-a": (-1, 2, 2, ("Dn+da+db+D", "Dn+db"), 2, 0),
}


def _compile(params: SystemParams, steps):
    """Fold a step sequence (first acts first) into one program on the integer
    state x = (n0, n1, n2, n3, D·A0, D·A1, D·A2): guards (j, m) for x[j] >= m,
    scalar, factors (constant, ((j, coefficient), ...)), delta, D^dpow and the
    w pad.  Each factor's constant and guard count the steps before it."""
    D, Da = params.D, params.Da
    delta, guards, factors, scalar, dpow, wpow = [0] * 7, {}, [], 1, 0, 0
    for kind, slot in steps:
        dn, dA, c, forms, d, m = _STEP_TABLE[kind]
        lvl = slot or 0
        # atom -> (constant, x index, coefficient); only A0, A1 and A2 are in x
        atoms = {"n": (0, lvl, 1), "Dn": (0, lvl, D), "D": (D, 0, 0), "1": (1, 0, 0),
                 "da": (0, 4 + lvl, 1) if lvl < 3 else (Da[2], 0, 0),
                 "db": ((0, Da[0], Da[1], Da[3])[lvl], 0, 0)}
        for form in forms:
            parts = [atoms[name] for name in form.split("+")]
            terms = tuple((j, a) for _, j, a in parts if a)
            factors.append((sum(p[0] for p in parts) + sum(a * delta[j] for j, a in terms), terms))
        if dn < 0:
            guards[lvl] = max(guards.get(lvl, 0), 1 - delta[lvl])
        delta[lvl] += dn
        if lvl < 3:
            delta[4 + lvl] += dA * D
        scalar, dpow, wpow = scalar * c, dpow + d, wpow + m
    return tuple(guards.items()), scalar, tuple(factors), tuple(delta), D ** dpow, (0,) * wpow


def _xi_image(prog, params: SystemParams, state, src):
    """Evaluate a compiled program at a basis state, src its scaled_chain:
    None below the lattice, else (target, numerator, error).  error names the
    first check the image fails, or is None: the advanced D·A against the
    target's integer chain, then the target's E against src's."""
    guards, num, factors, delta, _, _ = prog
    x = (*state, *src[:3])
    for j, m in guards:
        if x[j] < m:
            return None
    for c, terms in factors:
        for j, a in terms:
            c += a * x[j]
        num *= c
    y = list(map(add, x, delta))  # a list: tuple(map(...)) results pile up in a free list
    target = QuantumState._make(y[:4])
    tgt = scaled_chain(params, target)
    if tgt[:3] != tuple(y[4:]):
        return target, num, "left the chain"
    return target, num, None if tgt[3] == src[3] else "changed E"


def ladder_action(kind: str, params: SystemParams, state, slot: Optional[int] = None) -> LatticeVector:
    """Printed action of one primitive ladder on a basis state, a one-step
    program.  The target is labeled by its shifted quantum numbers only; the
    implied parameter shift (e.g. A0 -> A0+2 under K0-) is generally *not*
    the chain value there — single steps leave the separated basis (the
    chain check does not apply), and only the Xi composites return to it.
    """
    if kind not in _STEP_TABLE or slot not in ((None, 0) if kind[1] == "0" else (1, 2, 3)):
        raise ValueError(f"no ladder {kind!r} on slot {slot!r} (K0 kinds take none, others 1..3)")
    prog = _compile(params, ((kind, slot),))
    hit = _xi_image(prog, params, state, scaled_chain(params, state))
    if hit is None or not hit[1]:
        return LatticeVector.zero()
    return LatticeVector._of({hit[0]: OmegaPoly._of(prog[5] + (hit[1],), prog[4])})


# ---------------------------------------------------------------------------
# Xi composites
# ---------------------------------------------------------------------------

def _xi_steps(params: SystemParams, i: int, sign: str):
    """Primitive steps of Xi_i^sign in application order (first acts first).

    Xi_i^+ raises n_i by q_i (J+ on slot i, q_i times) and then lowers the
    previous level by p_i (K0- for i=1, K-a on slot i-1 otherwise); Xi_i^-
    mirrors it with J-/K0+/K+a.  Each step uses the parameters advanced by
    the steps before it.  A bad i raises ValueError (`SystemParams.pq`).
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


def _xi_program(params: SystemParams, i: int, sign: str):
    """The parameter set's compiled Xi_i^sign, kept in params._memo."""
    key = ("xi-program", i, sign)
    prog = params._memo.get(key)
    if prog is None:
        prog = params._memo[key] = _compile(params, _xi_steps(params, i, sign))
    return prog


def xi_action(i: int, sign: str, params: SystemParams, state) -> LatticeVector:
    """Exact action of the composite Xi_i^sign on a basis state: the
    parameter set's compiled program (`_xi_program`) at that state.  The image
    is one basis state with the same exact energy, or zero when any step
    leaves the lattice; an image off the chain or off the energy raises
    ChainBroken.  No image is kept (see `xi_operator`)."""
    state = QuantumState(*state)
    prog = _xi_program(params, i, sign)
    hit = _xi_image(prog, params, state, scaled_chain(params, state))
    if hit is None:
        return LatticeVector.zero()
    target, num, error = hit
    if error:
        raise ChainBroken(error, state, i, sign, target)
    return LatticeVector._of({target: OmegaPoly._of(prog[5] + (num,), prog[4])} if num else {})


def _leaf(params: SystemParams, key: tuple, build) -> LatticeOperator:
    """The parameter set's one leaf under key, kept in params._memo: the
    expression build() computes each state's image once per parameter set.
    The only code that keeps lattice images; callers validate first."""
    leaf = params._memo.get(key)
    if leaf is None:
        expr, images = build(), {}

        def image(st: QuantumState) -> LatticeVector:
            vec = images.get(st)
            if vec is None:
                vec = images[st] = expr._image(st)
            return vec
        leaf = params._memo[key] = LatticeOperator(image)
    return leaf


def xi_operator(params: SystemParams, i: int, sign: str) -> LatticeOperator:
    """The parameter set's one Xi_i^sign leaf (see `_leaf`)."""
    _xi_steps(params, i, sign)  # rejects a bad i or sign
    return _leaf(params, ("xi", i, sign),
                 lambda: LatticeOperator(lambda st: xi_action(i, sign, params, st)))


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
    """The parameter set's one L_i^sign leaf (see `_leaf`):
    L_i^+ = Xi_i^+ + Xi_i^-;  L_i^- = k_i (Xi_i^+ - Xi_i^-) / A_{i-1}.

    Below-lattice Xi images contribute nothing.
    """
    _xi_steps(params, i, sign)  # rejects a bad i or sign

    def build():
        xp, xm = xi_operator(params, i, "+"), xi_operator(params, i, "-")
        return xp + xm if sign == "+" else (xp - xm) @ _k_over_A(params, i)
    return _leaf(params, ("lpm", i, sign), build)


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
    return expr


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
    at A0 in {0, +-p1} DivisorSingular is raised before any Xi image.  Each
    convention is one leaf of the parameter set (see `_leaf`).
    """
    if convention not in ("xi", "printed"):
        raise ValueError(f"unknown M1 convention {convention!r}")

    def build():
        p1, q1 = params.pq1
        if convention == "xi":
            a, b = xi_operator(params, 1, "+"), xi_operator(params, 1, "-")
        else:
            a, b = lpm_operator(params, 1, "-"), lpm_operator(params, 1, "+")
        s1 = diagonal_operator(lambda st: s1_value(params, st))
        return (s1 @ _divisor(params, "A0^2 - p1^2", lambda ch: ch.A0 ** 2 - p1 * p1)
                + Fraction(-1, 4 * q1)
                * (a @ _divisor(params, "A0 (A0+p1)", lambda ch: ch.A0 * (ch.A0 + p1))
                   + b @ _divisor(params, "A0 (A0-p1)", lambda ch: ch.A0 * (ch.A0 - p1))))
    return _leaf(params, ("m1", convention), build)


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
    ksq = params.k(i) ** 2  # rejects i outside 1..3
    if which not in IDENTITY_KINDS:
        raise ValueError(f"unknown identity {which!r}")
    if convention not in ("printed", "antisymmetric"):
        raise ValueError(f"unknown P convention {convention!r}")
    if variant not in ("printed", "corrected"):
        raise ValueError(f"unknown variant {variant!r}")
    if which == "cross-commute":
        key = ("cross-commute", i)
        brackets = params._memo.get(key)  # built once per set, checked in this order
        if brackets is None:
            brackets = []
            for j in (1, 2, 3):
                if j != i:
                    Lj = l_operator(params, j)
                    brackets += [commutator(Lj, lpm_operator(params, i, s)) for s in "+-"]
                if abs(i - j) > 1:
                    brackets += [commutator(lpm_operator(params, j, s), lpm_operator(params, i, t))
                                 for s in "+-" for t in "+-"]
            params._memo[key] = brackets
        for R in brackets:
            r = R(state)
            if not r.is_zero():
                return r
        return LatticeVector.zero()

    key = ("identity", i, which, convention, variant)
    R = params._memo.get(key)  # the residual operator, built once per set
    if R is not None:
        return R(state)
    q = Fraction(params.pq(i)[1])
    al = ALPHA_PRINTED[i - 1]
    g = (Fraction(1), params.k1, params.k2)[i - 1]
    c = (params.k1 ** 2, params.k2 ** 2 / 4, Fraction(0))[i - 1]
    col = 0 if variant == "printed" else 1
    L = l_operator(params, i)
    Lp, Lm = lpm_operator(params, i, "+"), lpm_operator(params, i, "-")
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
    params._memo[key] = R
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


def identity_states(params: SystemParams, count: int = 20):
    """Deterministic list of interior states: margins plus graded offsets."""
    m = interior_margins(params)
    return [QuantumState(*(b + o for b, o in zip(m, off)))
            for off in multi_indices(4, 3)[:count]]


def xi_sweep(params: SystemParams, nmax: int = 6):
    """Apply every Xi_i^{+-} once to each state of the box n_i <= nmax: run
    the six compiled programs on each state's integer chain, build no vector.

    Returns (images, broken): images maps (i, sign) to the number of nonzero
    on-lattice images, each checked as `xi_action` checks it; broken lists
    the witnesses (state, i, sign, target) of the images that failed a check,
    which are counted as images too.
    """
    progs = {(i, sign): _xi_program(params, i, sign) for i in (1, 2, 3) for sign in "+-"}
    images, broken = dict.fromkeys(progs, 0), []
    for st in enumerate_states(nmax):
        src = scaled_chain(params, st)
        for key, prog in progs.items():
            hit = _xi_image(prog, params, st, src)
            if hit:
                target, num, error = hit
                if error:
                    broken.append((st, *key, target))
                images[key] += bool(error or num)
    return images, broken


def window_independence(params: SystemParams):
    """Exact linear-independence smoke test on a truncated state window.

    Materializes {1, H, L1, L1+, L2, L2+, L3, L3+} as sparse matrices over
    the window (images outside the window are truncated — documented
    limitation), flattens each entry per omega-degree into one long exact
    vector, and Gauss-eliminates over Q.  Full rank (8) means no joint
    linear relation on the window.

    The window n_i <= max(2, p_i, q_i) grows with the largest ladder step:
    a window narrower than p_i or q_i truncates that L_i^+ to the zero
    matrix and the test becomes vacuous.  Each L_i^+ image is asked for
    once, so it is summed from `xi_action` afresh, and no leaf keeps it.
    """
    window_nmax = max(2, *params.pq1, *params.pq2, *params.pq3)
    states = list(enumerate_states(window_nmax))
    inside = set(states)

    def l_plus(i):
        return LatticeOperator(lambda st: xi_action(i, "+", params, st)
                               + xi_action(i, "-", params, st))
    ops = [("1", identity_operator()),
           ("H", h_operator(params)),
           ("L1", l_operator(params, 1)),
           ("L1+", l_plus(1)),
           ("L2", l_operator(params, 2)),
           ("L2+", l_plus(2)),
           ("L3", l_operator(params, 3)),
           ("L3+", l_plus(3))]
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
