"""Exact numeric tower and truncated multivariate Taylor (jet) arithmetic.

Three layers live here:

* ``Rational`` — plain :class:`fractions.Fraction` (arbitrary precision,
  always stored reduced, positive denominator).  Everything exact in the
  package is built on it.
* :class:`OmegaPoly` — an exact univariate polynomial in the formal
  frequency symbol ``w`` over the rationals, kept as integer numerators over
  one denominator; its Fraction coefficients are derived on request.  It is
  the coefficient ring of the lattice operator algebra (ladder coefficients
  carry powers of the oscillator frequency).
* :class:`Jet` — a truncated Taylor expansion of a smooth function at a
  point, stored as a flat float list with index tables cached per
  (nvars, order) (order-0 and univariate jets need none), closed under ring
  arithmetic and elementary-function composition.  All numeric
  differentiation in the function-space checks goes through jets; there is
  no finite differencing outside the self-tests.

:class:`EvalPoint` is the point at which jets are evaluated: a float tuple
that memoizes, for its own lifetime, the coordinate, coefficient, evaluator
and separated-factor jets built at it, and the blocks those jets share, each
under an exact key (the axis, the order, and k, a, b, A0 and omega as integer
ratios): the slot trig and gauge jets and Jacobi chains, the radial weight,
prefactor and Laguerre chains, the (sin, cos) pairs of the coefficients and
the eigen tower levels (see its docstring).
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

Rational = Fraction


def pochhammer(x, m: int):
    """Rising factorial x(x+1)...(x+m-1); 1 for m = 0.  Exact for Fraction x."""
    if m < 0:
        raise ValueError("pochhammer needs m >= 0")
    out = x - x + 1 if not isinstance(x, int) else Fraction(1)
    for j in range(m):
        out = out * (x + j)
    return out


# ---------------------------------------------------------------------------
# polynomials in the formal frequency w
# ---------------------------------------------------------------------------

def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected exact rational, got {type(c).__name__}")


_new, _set = object.__new__, object.__setattr__


def _parts(x):
    """(num, den) of an OmegaPoly, int or Fraction in normal form, else None."""
    if isinstance(x, OmegaPoly):
        return x.num, x.den
    if isinstance(x, (int, Fraction)):
        return ((x.numerator,) if x else ()), x.denominator
    return None


class OmegaPoly:
    """Exact polynomial in the formal symbol w, coefficients in Q.

    Immutable; stored as a tuple ``num`` of integer numerators over one
    positive integer ``den``, in normal form: no trailing zero and
    gcd(den, *num) == 1, so the zero polynomial is ((), 1).  ``coeffs``
    derives the reduced Fraction of each power.  Supports +, -, *, ** and
    scaling by Fraction/int on either side; each result costs integer work
    and one gcd (Knuth, TAOCP vol. 2, 4.5.1).  The public constructor
    coerces and strips; the ring operations build their results with
    `_of`.  Only + and - can cancel a leading term: Q has no zero divisors,
    so a product keeps its degree.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # over the lcm of reduced denominators the numerators share no factor
        den = math.lcm(*(c.denominator for c in cs))
        _set(self, "num", tuple(c.numerator * (den // c.denominator) for c in cs))
        _set(self, "den", den)

    @classmethod
    def _of(cls, num: tuple, den: int) -> "OmegaPoly":
        """Trusted constructor: num a tuple of ints with no trailing zero and
        den > 0; divides out gcd(den, *num)."""
        g = math.gcd(den, *num)
        if g != 1:
            num, den = tuple([x // g for x in num]), den // g
        out = _new(cls)
        _set(out, "num", num)
        _set(out, "den", den)
        return out

    def __setattr__(self, *a):
        raise AttributeError("OmegaPoly is immutable")

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls):
        return cls._of((), 1)

    @classmethod
    def omega(cls, power: int = 1, scale=1):
        if power < 0:
            raise ValueError("the power of w must be >= 0")
        c = _as_fraction(scale)
        return cls._of((0,) * power + (c.numerator,) if c else (), c.denominator)

    # -- structure ----------------------------------------------------------
    @property
    def coeffs(self) -> tuple:
        """The reduced Fraction coefficient of each power of w, lowest first."""
        return tuple(Fraction(x, self.den) for x in self.num)

    @property
    def degree(self) -> int:
        return len(self.num) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.num

    def coeff(self, power: int) -> Fraction:
        if 0 <= power < len(self.num):
            return Fraction(self.num[power], self.den)
        return Fraction(0)

    # -- ring ops ------------------------------------------------------------
    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, den = self.num, self.den
        b, bden = o
        if bden != den:
            g = math.gcd(den, bden)
            a = [x * (bden // g) for x in a]
            b = [y * (den // g) for y in b]
            den = den // g * bden
        if len(a) < len(b):
            a, b = b, a
        num = [x + y for x, y in zip(a, b)]
        if len(a) > len(b):
            num.extend(a[len(b):])
        else:
            while num and not num[-1]:
                num.pop()
        return OmegaPoly._of(tuple(num), den)

    __radd__ = __add__

    def __neg__(self):
        return OmegaPoly._of(tuple([-x for x in self.num]), self.den)

    def __sub__(self, other):
        if _parts(other) is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if _parts(other) is None:
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o[0]
        if not a or not b:
            return OmegaPoly._of((), 1)
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            y = b[0]
            return OmegaPoly._of(tuple([x * y for x in a]), self.den * o[1])
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return OmegaPoly._of(tuple(out), self.den * o[1])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        p, q = other.numerator, other.denominator
        if not p:
            raise ZeroDivisionError("OmegaPoly division by zero")
        if p < 0:
            p, q = -p, -q
        return OmegaPoly._of(tuple([x * q for x in self.num]), self.den * p)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = OmegaPoly._of((1,), 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return self.num == o[0] and self.den == o[1]

    def __hash__(self):
        # a constant equals its Fraction (and the zero poly equals 0), so it
        # must hash like one
        num = self.num
        if len(num) <= 1:
            return hash(Fraction(num[0], self.den)) if num else 0
        return hash(("OmegaPoly", num, self.den))

    def __repr__(self):
        return f"OmegaPoly({self.coeffs!r})"

    def __str__(self):
        if not self.num:
            return "0"
        parts = []
        for p, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if p == 0:
                parts.append(str(c))
            else:
                mono = "w" if p == 1 else f"w^{p}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append("-" + mono)
                else:
                    parts.append(f"{c}*{mono}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


def opoly_eval(p: OmegaPoly, omega) -> Fraction:
    """Exact Horner evaluation of p at a rational omega."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * omega + c
    return acc


# ---------------------------------------------------------------------------
# truncated multivariate jets on flat coefficient lists
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def multi_indices(nvars: int, order: int):
    """All multi-indices of length nvars with total degree <= order (graded)."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for d in range(remaining + 1):
            rec(prefix + (d,), remaining - d, slots - 1)

    for total in range(order + 1):
        rec((), total, nvars)
    return tuple(out)


@lru_cache(maxsize=None)
def _slot_of(nvars: int, order: int) -> dict:
    """Multi-index -> slot; the index tables below are built on first use."""
    return {mu: i for i, mu in enumerate(multi_indices(nvars, order))}


@lru_cache(maxsize=None)
def _products(nvars: int, order: int) -> tuple:
    """Row j, entry i: slot of index i + index j; None past the order (a suffix)."""
    idx = multi_indices(nvars, order)
    slot = _slot_of(nvars, order)
    return tuple(tuple(slot.get(tuple(a + b for a, b in zip(mu, nu))) for mu in idx)
                 for nu in idx)


@lru_cache(maxsize=None)
def _shifts(nvars: int, order: int, mu: tuple) -> tuple:
    """(slot of nu, slot of nu + mu, (nu+mu)!/nu!) for the jet of d^mu f."""
    slot = _slot_of(nvars, order)
    out = []
    for j, nu in enumerate(multi_indices(nvars, order - sum(mu))):
        fact = 1.0
        for n, m in zip(nu, mu):
            for t in range(n + 1, n + m + 1):
                fact *= t
        out.append((j, slot[tuple(n + m for n, m in zip(nu, mu))], fact))
    return tuple(out)


@lru_cache(maxsize=None)
def _axis_slots(nvars: int, order: int, axis: int) -> tuple:
    """Slot of d * e_axis for d = 0..order."""
    slot = _slot_of(nvars, order)
    return tuple(slot[tuple(d if j == axis else 0 for j in range(nvars))]
                 for d in range(order + 1))


def _scalar(x) -> float:
    if type(x) is float:
        return x
    if isinstance(x, (int, float, Fraction)):
        return float(x)
    raise TypeError(f"cannot use {type(x).__name__} as a jet scalar")


class Jet:
    """Truncated Taylor expansion at a base point (a tuple of nvars floats).

    ``coeffs`` is a flat list, never mutated, of the Taylor *coefficients*
    (not derivatives) c_mu of f = sum c_mu (x-p)^mu, one per multi-index in
    ``multi_indices(nvars, order)`` order, constant term first.  Products of
    multivariate jets of order >= 1 go through the cached index-product
    table, order-0 and univariate ones add up each entry in the same order
    without it; ``derivative_jet`` and ``lift`` go through cached shift maps,
    and ``truncated`` is a prefix slice, since the order is graded.  Zero
    entries are skipped and every entry sums from +0.0, so a zero result
    entry is +0.0.  The separated factors are jets with nvars = 1, lifted to 4.
    """

    __slots__ = ("base", "order", "coeffs")

    def __init__(self, base: tuple, order: int, coeffs: list):
        _set(self, "base", base)
        _set(self, "order", order)
        _set(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("Jet is immutable")

    # -- constructors -------------------------------------------------------
    @classmethod
    def constant(cls, value, base, order: int):
        base = tuple(map(float, base))
        out = [0.0] * len(multi_indices(len(base), order))
        out[0] = _scalar(value)
        return cls(base, order, out)

    @classmethod
    def variable(cls, base, i: int, order: int):
        """The coordinate function x_i expanded at the base point."""
        base = tuple(map(float, base))
        n = len(base)
        out = [0.0] * len(multi_indices(n, order))
        out[0] = base[i]
        if order >= 1:
            out[_axis_slots(n, order, i)[1]] = 1.0
        return cls(base, order, out)

    # -- access --------------------------------------------------------------
    @property
    def value(self) -> float:
        return self.coeffs[0]

    def coeff(self, mu) -> float:
        """The Taylor coefficient of (x-p)^mu."""
        return self.coeffs[_slot_of(len(self.base), self.order)[tuple(mu)]]

    def derivative(self, mu) -> float:
        """The mixed partial d^mu f at the base point (mu! times coefficient)."""
        mu = tuple(mu)
        if sum(mu) > self.order:
            raise ValueError("jet order too low for requested derivative")
        fact = 1
        for m in mu:
            fact *= math.factorial(m)
        return fact * self.coeff(mu)

    def derivative_jet(self, mu, order=None) -> "Jet":
        """The jet of d^mu f, of order (order - |mu|), or of the given lower
        order: the shift map is graded, so its prefix builds the truncation."""
        mu = tuple(mu)
        top = self.order - sum(mu)
        order = top if order is None else order
        if not 0 <= order <= top:
            raise ValueError("jet order too low for requested derivative")
        src = self.coeffs
        size = len(multi_indices(len(self.base), order))
        out = [0.0] * size
        for j, i, fact in _shifts(len(self.base), self.order, mu)[:size]:
            c = src[i]
            if c:
                out[j] = c * fact
        return Jet(self.base, order, out)

    def truncated(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError("cannot raise jet order by truncation")
        return Jet(self.base, order,
                   self.coeffs[:len(multi_indices(len(self.base), order))])

    def lift(self, base4, axis: int) -> "Jet":
        """Embed a univariate jet as a jet in len(base4) variables on `axis`."""
        if len(self.base) != 1:
            raise ValueError("lift expects a univariate jet")
        base4 = tuple(map(float, base4))
        n, order = len(base4), self.order
        out = [0.0] * len(multi_indices(n, order))
        for j, c in zip(_axis_slots(n, order, axis), self.coeffs):
            if c:
                out[j] = c
        return Jet(base4, order, out)

    # -- arithmetic ----------------------------------------------------------
    def _check(self, other: "Jet"):
        if self.base != other.base or self.order != other.order:
            raise ValueError("jet base/order mismatch")

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.base, self.order,
                       [x + y if y else x for x, y in zip(self.coeffs, other.coeffs)])
        try:
            s = _scalar(other)
        except TypeError:
            return NotImplemented
        out = self.coeffs.copy()
        out[0] += s
        return Jet(self.base, self.order, out)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.base, self.order,
                   [-c if c else 0.0 for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, Jet):  # self + (-other): x - y is x + (-y)
            self._check(other)
            return Jet(self.base, self.order,
                       [x - y if y else x for x, y in zip(self.coeffs, other.coeffs)])
        try:
            s = _scalar(other)
        except TypeError:
            return NotImplemented
        return self + (-s)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            a, b = self.coeffs, other.coeffs
            if not self.order:
                ca, cb = a[0], b[0]
                return Jet(self.base, 0, [0.0 + ca * cb if ca and cb else 0.0])
            n = len(a)
            out = [0.0] * n
            if len(self.base) == 1:  # slot k = i + j, j ascending as in the table
                for j, cb in enumerate(b):
                    if cb:
                        for k in range(j, n):
                            ca = a[k - j]
                            if ca:
                                out[k] += ca * cb
                return Jet(self.base, self.order, out)
            rows = _products(len(self.base), self.order)
            nz = [(i, c) for i, c in enumerate(a) if c]
            for j, cb in enumerate(b):
                if cb:
                    row = rows[j]
                    for i, ca in nz:
                        k = row[i]
                        if k is None:
                            break
                        out[k] += ca * cb
            return Jet(self.base, self.order, out)
        try:
            s = _scalar(other)
        except TypeError:
            return NotImplemented
        return Jet(self.base, self.order,
                   [c * s if c else 0.0 for c in self.coeffs])

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        c0 = self.value
        if c0 == 0.0:
            raise ZeroDivisionError("jet reciprocal needs nonzero constant term")
        series = [(-1.0) ** m / c0 ** (m + 1) for m in range(self.order + 1)]
        return self._compose(series)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        try:
            s = _scalar(other)
        except TypeError:
            return NotImplemented
        return self * (1.0 / s)

    def __rtruediv__(self, other):
        try:
            s = _scalar(other)
        except TypeError:
            return NotImplemented
        return self.reciprocal() * s

    # -- elementary functions -------------------------------------------------
    def _compose(self, series) -> "Jet":
        """sum_m series[m] * (self - value)^m, truncated (Horner)."""
        d = self - self.value
        out = Jet.constant(series[-1], self.base, self.order)
        for m in range(len(series) - 2, -1, -1):
            out = out * d + series[m]
        return out

    def exp(self) -> "Jet":
        e0 = math.exp(self.value)
        series = [e0 / math.factorial(m) for m in range(self.order + 1)]
        return self._compose(series)

    def sin(self) -> "Jet":
        c0 = self.value
        cyc = (math.sin(c0), math.cos(c0), -math.sin(c0), -math.cos(c0))
        series = [cyc[m % 4] / math.factorial(m) for m in range(self.order + 1)]
        return self._compose(series)

    def cos(self) -> "Jet":
        c0 = self.value
        cyc = (math.cos(c0), -math.sin(c0), -math.cos(c0), math.sin(c0))
        series = [cyc[m % 4] / math.factorial(m) for m in range(self.order + 1)]
        return self._compose(series)

    def power(self, alpha) -> "Jet":
        """self**alpha for real alpha (integer alpha allows negative base)."""
        a = float(alpha)
        c0 = self.value
        if a == round(a):
            a = int(round(a))
            if c0 == 0.0:
                raise ZeroDivisionError("jet power at zero constant term")
        elif c0 <= 0.0:
            raise ValueError("fractional jet power needs positive constant term")
        series = []
        fall = 1.0
        for m in range(self.order + 1):
            series.append(fall / math.factorial(m) * c0 ** (a - m))
            fall *= (a - m)
        return self._compose(series)

    def sqrt(self) -> "Jet":
        return self.power(0.5)

    def __repr__(self):
        nz = {mu: c for mu, c in zip(multi_indices(len(self.base), self.order), self.coeffs)
              if c}
        return f"Jet(base={self.base}, order={self.order}, {nz})"


# ---------------------------------------------------------------------------
# per-point evaluation context
# ---------------------------------------------------------------------------

def _coordinate_jets(point, order: int) -> tuple:
    return tuple(Jet.variable(point, i, order) for i in range(len(point)))


def block(memo: dict, key, build):
    """memo[key], set to build() on first use."""
    got = memo.get(key)
    if got is None:
        got = memo[key] = build()
    return got


class EvalPoint(tuple):
    """A sample point (a tuple of floats) that memoizes the jets built at it.

    An evaluator is a pure (point, order) -> Jet callable: a coefficient, a
    test function, a wavefunction, an operator bound to a function.
    ``jet(fn, order)`` calls fn(self, order) once and keeps the result under
    (fn, order); ``coords(order)`` are the coordinate jets.
    ``factor(ev, axis, order)`` is the univariate jet ev(self[axis], order,
    blocks) of a separated factor, kept in the dict under ("factors", axis)
    by ev.key, so that equal factors built for different states share it; it
    keeps the highest order built and serves a lower one by truncation, bit
    for bit the lower-order evaluation (jet arithmetic is graded).  The
    blocks that factors share are built once, in the dict under ("blocks",
    axis, order), keyed by the integer ratios of: ("trig", k) sin, cos and
    cos 2 of k theta; ("gauge", k, a + c, b + d) the slot gauge; ("jacobi",
    k, a, b) the Jacobi chain; ("weight", omega) r, u = omega r^2 and
    exp(-u/2); ("radial", omega, A0) the radial prefactor and Laguerre
    chain.  The memo also keeps ("sin-cos", axis, k, order) for `diffops`
    coefficients and the eigen levels ("eigen", factor keys...) of `suites`.
    It is this object's alone: it dies with the point, and two contexts at
    one point share nothing.  ``of`` wraps a plain point in a fresh context.
    """

    def __new__(cls, point):
        self = super().__new__(cls, map(float, point))
        self.memo = {}
        return self

    @classmethod
    def of(cls, point) -> "EvalPoint":
        """point itself if it is a context, else a fresh context at point."""
        return point if type(point) is cls else cls(point)

    def jet(self, fn, order: int):
        key = (fn, order)
        got = self.memo.get(key)
        if got is None:
            got = self.memo[key] = fn(self, order)
        return got

    def coords(self, order: int) -> tuple:
        return self.jet(_coordinate_jets, order)

    def factor(self, ev, axis: int, order: int) -> Jet:
        factors = block(self.memo, ("factors", axis), dict)
        got = factors.get(ev.key)
        if got is None or got.order < order:
            blocks = block(self.memo, ("blocks", axis, order), dict)
            got = factors[ev.key] = ev(self[axis], order, blocks)
        return got if got.order == order else got.truncated(order)
