"""Independent exact-arithmetic oracles used to freeze expected test values.

Everything here is computed from finite sums over `fractions.Fraction`, with no
imports from the package under test.  The series below are textbook closed
forms, evaluated term by term:

* Jacobi:    P_n^(a,b)(x) = sum_s C(n+a, n-s) C(n+b, s) ((x-1)/2)^s ((x+1)/2)^(n-s)
* Laguerre:  L_n^(alpha)(x) = sum_k (-1)^k C(n+alpha, n-k) x^k / k!

The package implements both families via three-term recurrences, so agreement
between the two routes is a meaningful cross-check rather than a tautology.

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
