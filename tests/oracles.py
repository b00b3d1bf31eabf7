"""Independent exact-arithmetic oracles used to freeze expected test values.

Everything here is computed from finite sums over `fractions.Fraction`, with no
imports from the package under test.  The series below are textbook closed
forms, evaluated term by term:

* Jacobi:    P_n^(a,b)(x) = sum_s C(n+a, n-s) C(n+b, s) ((x-1)/2)^s ((x+1)/2)^(n-s)
* Laguerre:  L_n^(alpha)(x) = sum_k (-1)^k C(n+alpha, n-k) x^k / k!

The package implements both families via three-term recurrences, so agreement
between the two routes is a meaningful cross-check rather than a tautology.

The Fraction spectral chain and ladder-step walker are the reference for the
package's scaled-integer lattice kernel: the nested chain A2 -> A1 -> A0 and
the printed one-step actions on states that carry (A0, A1, A2), composed
step by step in exact rationals.

The sparse polynomial and vector arithmetic over dicts of Fractions is the
reference for the package's normal-form lattice algebra (vectors
QuantumState -> polynomial in w, operators as state -> vector tables).

The truncated Taylor (jet) arithmetic at the end is the reference for the
package's flat jet core: dense dicts over graded multi-indices, with the loop
and accumulation order that defines which float each coefficient is, so the
two must agree bit for bit.
"""

from fractions import Fraction
from itertools import product
from math import factorial


def binom_gen(top, k: int) -> Fraction:
    """Generalized binomial coefficient C(top, k) for rational top, integer k >= 0."""
    if k < 0:
        raise ValueError("lower index must be nonnegative")
    out = Fraction(1)
    for j in range(k):
        out *= Fraction(top) - j
    return out / factorial(k)


def jacobi_series(n: int, a, b, x) -> Fraction:
    a, b, x = Fraction(a), Fraction(b), Fraction(x)
    lo = (x - 1) / 2
    hi = (x + 1) / 2
    total = Fraction(0)
    for s in range(n + 1):
        total += binom_gen(n + a, n - s) * binom_gen(n + b, s) * lo**s * hi ** (n - s)
    return total


def laguerre_series(n: int, alpha, x) -> Fraction:
    alpha, x = Fraction(alpha), Fraction(x)
    total = Fraction(0)
    for k in range(n + 1):
        total += (-1) ** k * binom_gen(n + alpha, n - k) * x**k / factorial(k)
    return total


# -- Fraction spectral chain and ladder steps -----------------------------------

def chain_reference(k, a, state):
    """(A0, A1, A2, ell1, ell2, ell3, E/w) of a state, from the nested chain."""
    k1, k2, k3 = (Fraction(x) for x in k)
    a1, a2, a3, a4 = (Fraction(x) for x in a)
    n0, n1, n2, n3 = state
    A2 = (k3 / k2) * (2 * n3 + a3 + a4 + 1)
    A1 = (k2 / k1) * (2 * n2 + A2 + a2 + 1)
    A0 = k1 * (2 * n1 + a1 + A1 + 1)
    ell3 = -k3**2 * (2 * n3 + a3 + a4 + 1) ** 2
    ell2 = k2**2 / 4 - k2**2 * (2 * n2 + a2 + A2 + 1) ** 2
    ell1 = k1**2 - A0**2
    return A0, A1, A2, ell1, ell2, ell3, -(4 * n0 + 2 * A0 + 2)


def ladder_step_reference(a, ext, kind, slot):
    """One printed step on ext = [n0, n1, n2, n3, A0, A1, A2].

    Returns (c, m, new ext) for the coefficient c w^m, or None below the lattice.
    """
    ext = list(ext)
    if kind in ("K0+", "K0-"):
        n0, A0 = ext[0], ext[4]
        if kind == "K0+":
            ext[0], ext[4] = n0 + 1, A0 - 2
            return -2 * (n0 + 1) * (n0 + A0), 1, ext
        if n0 == 0:
            return None
        ext[0], ext[4] = n0 - 1, A0 + 2
        return Fraction(-2), 1, ext
    n = ext[slot]
    al, be = {1: (ext[5], a[0]), 2: (ext[6], a[1]), 3: (a[2], a[3])}[slot]
    if kind in ("J-", "K-a") and n == 0:
        return None
    if kind == "J+":
        ext[slot] = n + 1
        return -2 * (n + 1) * (n + al + be + 1), 0, ext
    if kind == "J-":
        ext[slot] = n - 1
        return -2 * (n + al) * (n + be), 0, ext
    shift = 1 if kind == "K+a" else -1
    ext[slot] = n + shift
    if slot < 3:
        ext[4 + slot] = al - 2 * shift
    if kind == "K+a":
        return 2 * (n + 1) * (n + al), 0, ext
    return 2 * (n + al + be + 1) * (n + be), 0, ext


def xi_steps_reference(k, i: int, sign: str):
    """Xi_i^sign: J+- on slot i q_i times, then K0-+ (i = 1) or K-+a on slot
    i-1 p_i times, where p_i/q_i is k1, k2/k1 or k3/k2 in lowest terms."""
    k1, k2, k3 = (Fraction(x) for x in k)
    r = (k1, k2 / k1, k3 / k2)[i - 1]
    head = ("J+" if sign == "+" else "J-", i)
    if i == 1:
        tail = ("K0-" if sign == "+" else "K0+", None)
    else:
        tail = ("K-a" if sign == "+" else "K+a", i - 1)
    return [head] * r.denominator + [tail] * r.numerator


def walk_reference(a, ext, steps):
    """Steps applied in order to ext = [n0, n1, n2, n3, A0, A1, A2], each with
    the parameters the previous ones advanced.

    Returns (target state, advanced (A0, A1, A2), c, m) for the coefficient
    c w^m, or None when a step falls below the lattice.
    """
    a = [Fraction(x) for x in a]
    c, m = Fraction(1), 0
    for kind, slot in steps:
        hit = ladder_step_reference(a, ext, kind, slot)
        if hit is None:
            return None
        f, dm, ext = hit
        c, m = c * f, m + dm
    return tuple(ext[:4]), tuple(ext[4:]), c, m


# -- sparse exact lattice algebra ----------------------------------------------
# A polynomial in w is {power: Fraction}, a vector {state tuple: polynomial}
# and an operator a table {state tuple: vector}; none holds a zero entry.

def poly_add(p: dict, q: dict, sign: int = 1) -> dict:
    """p + sign * q."""
    out = dict(p)
    for d, c in q.items():
        out[d] = out.get(d, 0) + sign * c
    return {d: Fraction(c) for d, c in out.items() if c}


def poly_mul(p: dict, q: dict) -> dict:
    out = {}
    for d, c in p.items():
        for e, b in q.items():
            out[d + e] = out.get(d + e, 0) + c * b
    return {d: Fraction(c) for d, c in out.items() if c}


def vec_add(u: dict, v: dict, sign: int = 1) -> dict:
    """u + sign * v."""
    out = dict(u)
    for st, p in v.items():
        out[st] = poly_add(out.get(st, {}), p, sign)
    return {st: p for st, p in out.items() if p}


def vec_scale(u: dict, c: dict) -> dict:
    return {st: q for st, p in u.items() if (q := poly_mul(p, c))}


def op_apply(table: dict, u: dict) -> dict:
    """sum over st of u[st] * table[st] (a state missing from table maps to 0)."""
    out = {}
    for st, c in u.items():
        out = vec_add(out, vec_scale(table.get(st, {}), c))
    return out


# -- dict-based jets ------------------------------------------------------------

def graded_indices(nvars: int, order: int) -> list:
    """Multi-indices of total degree <= order, by degree, then lexicographic."""
    idx = [mu for mu in product(range(order + 1), repeat=nvars) if sum(mu) <= order]
    return sorted(idx, key=lambda mu: (sum(mu), mu))


def dict_jet(nvars: int, order: int, values) -> dict:
    """Dense {multi-index: coefficient} table, values in graded order."""
    return dict(zip(graded_indices(nvars, order), values))


def dict_jet_add(a: dict, b: dict) -> dict:
    """a + b, skipping the zero entries of b."""
    out = dict(a)
    for mu, c in b.items():
        if c:
            out[mu] = out[mu] + c
    return out


def dict_jet_add_scalar(a: dict, s: float) -> dict:
    out = dict(a)
    z = next(iter(a))
    out[z] = out[z] + s
    return out


def dict_jet_mul(a: dict, b: dict, order: int) -> dict:
    """a * b truncated at order: b's nonzero entries outside, a's inside."""
    out = {mu: 0.0 for mu in a}
    items = [(mu, sum(mu), c) for mu, c in a.items() if c]
    for nu, cb in b.items():
        if not cb:
            continue
        dn = sum(nu)
        for mu, dm, ca in items:
            if dm + dn <= order:
                key = tuple(x + y for x, y in zip(mu, nu))
                out[key] += ca * cb
    return out


def dict_jet_compose(a: dict, series, order: int) -> dict:
    """sum_m series[m] * (a - a(0))^m by Horner, truncated at order."""
    z = next(iter(a))
    d = dict_jet_add_scalar(a, -a[z])
    out = {mu: 0.0 for mu in a}
    out[z] = float(series[-1])
    for m in range(len(series) - 2, -1, -1):
        out = dict_jet_add_scalar(dict_jet_mul(out, d, order), series[m])
    return out
