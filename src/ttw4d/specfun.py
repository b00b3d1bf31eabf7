"""Jacobi and Laguerre polynomial evaluation over rationals and jets.

Both evaluators use the standard three-term recurrence in the degree, with
step coefficients built once per spec.  The arithmetic is generic: handed a
Fraction argument they stay exact end to end; handed a Jet they return the
jet of the polynomial (derivatives come for free).  A spec makes its exact
steps float once for inexact arguments: the floats that each jet operation
would otherwise take from a Fraction on every use.  The steps do not depend
on the target degree (DLMF §18.9), so a caller may pass the chain [p_0,
p_1, ...] of earlier values at the same argument and parameters: the call
extends it and reads p_n off it, the very value a fresh call computes.
Degrees here are desk scale (n <= ~12), far below anything that would need
asymptotic methods.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property


class _Steps:
    def steps(self, x) -> tuple:
        """(degree1, recurrence), made float once for an inexact x."""
        return (self.degree1, self.recurrence) if isinstance(x, (int, Fraction)) else self.floats

    @cached_property
    def floats(self):
        return tuple(map(float, self.degree1)), tuple(tuple(map(float, c)) for c in self.recurrence)


@dataclass(frozen=True)
class JacobiSpec(_Steps):
    """P_n^{(a,b)}; model-generated parameters satisfy a, b > -1.

    The recurrence below is well defined whenever a + b > -2, which also
    covers the index-shifted parameters (a -> a - 2) produced by the
    simultaneous n/a ladders; `recurrence` checks it once per spec.
    """
    n: int
    a: Fraction
    b: Fraction

    @cached_property
    def recurrence(self):
        """(c1, c2, c3, c4) of each degree step m = 2..n, built on first use."""
        a, b = self.a, self.b
        if self.n >= 2 and a + b <= -2:
            raise ValueError("jacobi recurrence needs a + b > -2")
        out = []
        for m in range(2, self.n + 1):
            s = 2 * m + a + b
            out.append((2 * m * (m + a + b) * (s - 2), (s - 1) * (a * a - b * b),
                        (s - 1) * s * (s - 2), 2 * (m + a - 1) * (m + b - 1) * s))
        return tuple(out)

    @cached_property
    def degree1(self):
        """(d0, d1) of P_1 = d0 + d1 x, built on first use."""
        return Fraction(self.a - self.b, 2), Fraction(self.a + self.b + 2, 2)


@dataclass(frozen=True)
class LaguerreSpec(_Steps):
    n: int
    alpha: Fraction

    @cached_property
    def degree1(self):
        """(d0, d1) of L_1 = d0 + d1 x, built on first use."""
        return 1 + self.alpha, -1

    @cached_property
    def recurrence(self):
        """(c1, c2, c3) of each degree step m = 2..n, built on first use."""
        alpha = self.alpha
        return tuple((2 * m - 1 + alpha, m - 1 + alpha, m) for m in range(2, self.n + 1))


def jacobi_eval(spec: JacobiSpec, x, chain=None):
    """Value of the Jacobi polynomial P_n^{(a,b)} at x (Fraction or Jet);
    `chain`, if given, is the chain of (a, b) at x, extended in place."""
    n = spec.n
    if n < 0:
        raise ValueError("jacobi degree must be >= 0")
    if n == 0:
        return x - x + 1 if not isinstance(x, Fraction) else Fraction(1)
    chain = [] if chain is None else chain
    (d0, d1), steps = spec.steps(x)
    if not chain:
        chain += (1, d0 + d1 * x)  # P_0, P_1
    while len(chain) <= n:
        c1, c2, c3, c4 = steps[len(chain) - 2]
        p_prev, p_cur = chain[-2:]
        chain.append((c2 * p_cur + c3 * (x * p_cur) - c4 * p_prev) / c1)
    return chain[n]


def laguerre_eval(spec: LaguerreSpec, x, chain=None):
    """Value of the generalized Laguerre polynomial L_n^{(alpha)} at x;
    `chain`, if given, is the chain of alpha at x, extended in place."""
    n = spec.n
    if n < 0:
        raise ValueError("laguerre degree must be >= 0")
    if n == 0:
        return x - x + 1 if not isinstance(x, Fraction) else Fraction(1)
    chain = [] if chain is None else chain
    (d0, d1), steps = spec.steps(x)
    if not chain:
        chain += (1, d0 + d1 * x)  # L_0, L_1
    while len(chain) <= n:
        c1, c2, c3 = steps[len(chain) - 2]
        p_prev, p_cur = chain[-2:]
        chain.append((c1 * p_cur - (x * p_cur) - c2 * p_prev) / c3)
    return chain[n]
