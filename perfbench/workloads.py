"""The benchmark's workloads: seeded inputs, timed calls, independent checks.

Each workload has four parts:

* ``inputs(seed, tiny)`` makes every input from the seed (``tiny`` shrinks
  it for the self-test);
* ``run(inputs)`` is the timed part: it calls ttw4d only through public
  names, looked up on their modules so that a tracer can wrap them;
* ``verdicts(inputs, out)`` lists the program's own pass/fail verdicts, and
  ``checks(inputs, out)`` counts the workload's elementary checks;
* ``verify(inputs, out, checker)`` checks the outputs against values the
  benchmark derives itself: counts and shifts from (p, q), energies and
  separation constants from their closed formulas, an identity recomputed
  apart from ``check_identity``, curvature closed forms and the scalar
  reductions of the explicit operator.  Nothing is compared with a stored
  copy of an earlier run.

Parameter sets draw the potential parameters a1..a4 from the seed with fixed
denominators, so every seed costs about the same Fraction arithmetic.
"""
from __future__ import annotations

import math
import random
import re
from fractions import Fraction as F
from typing import Callable, NamedTuple

from ttw4d import cli, diffops, geometry, lattice, model, suites
from ttw4d.numcore import opoly_eval

OMEGA = F(1)
K211 = (F(2), F(1), F(1))


# ---------------------------------------------------------------------------
# checks that can be made to fail on purpose
# ---------------------------------------------------------------------------

def _perturb(want):
    """A wrong expected value of the same kind (used by the self-test)."""
    if isinstance(want, bool):
        return not want
    if isinstance(want, (int, F)):
        return want + 1
    if isinstance(want, float):
        return want + max(abs(want), 1.0) * 1e-3
    if isinstance(want, (tuple, list)):
        if not want:
            return type(want)([None])
        return type(want)([_perturb(want[0]), *want[1:]])
    raise TypeError(f"cannot perturb {type(want).__name__}")


def is_close(got, want, rtol):
    return abs(got - want) <= rtol * max(abs(got), abs(want))


class Checker:
    """Collects failed checks; ``tamper`` names a check kind to feed wrong."""

    def __init__(self, tamper: str | None = None):
        self.tamper = tamper
        self.kinds = set()
        self.problems = []

    def _want(self, kind, want):
        self.kinds.add(kind)
        return _perturb(want) if kind == self.tamper else want

    def _fail(self, kind, msg):
        self.problems.append((kind, msg))

    def equal(self, kind, got, want, where=""):
        want = self._want(kind, want)
        if got != want:
            self._fail(kind, f"{where}: got {got!r}, want {want!r}")

    def close(self, kind, got, want, rtol, where=""):
        want = self._want(kind, want)
        if not is_close(got, want, rtol):
            self._fail(kind, f"{where}: got {got!r}, want {want!r} (rtol {rtol:g})")

    def at_most(self, kind, got, bound, where=""):
        bound = -1.0 if kind == self.tamper else bound
        self.kinds.add(kind)
        if not got <= bound:
            self._fail(kind, f"{where}: {got!r} > {bound!r}")

    def above(self, kind, got, bound, where=""):
        bound = math.inf if kind == self.tamper else bound
        self.kinds.add(kind)
        if not got > bound:
            self._fail(kind, f"{where}: {got!r} <= {bound!r}")


# ---------------------------------------------------------------------------
# closed forms written out in the benchmark
# ---------------------------------------------------------------------------

def seeded_a(rng, dens=(3, 5, 7, 2)):
    """a1..a4 = m/d with m drawn from [1, 2d) coprime to the fixed d."""
    return tuple(F(rng.choice([m for m in range(1, 2 * d) if math.gcd(m, d) == 1]), d)
                 for d in dens)


def make_params(k, a):
    return model.SystemParams(*k, *a, OMEGA)


def ks(p):
    return (p.k1, p.k2, p.k3)


def pq(p, i):
    """(p_i, q_i): k1 = p1/q1, k2/k1 = p2/q2, k3/k2 = p3/q3 in lowest terms."""
    r = (p.k1, p.k2 / p.k1, p.k3 / p.k2)[i - 1]
    return r.numerator, r.denominator


def chain(p, n):
    """(A0, A1, A2) and (ell1, ell2, ell3) of a state."""
    k1, k2, k3 = ks(p)
    A2 = (k3 / k2) * (2 * n[3] + p.a3 + p.a4 + 1)
    A1 = (k2 / k1) * (2 * n[2] + A2 + p.a2 + 1)
    A0 = k1 * (2 * n[1] + p.a1 + A1 + 1)
    ell1 = k1 ** 2 - A0 ** 2
    ell2 = k2 ** 2 / 4 - k2 ** 2 * (2 * n[2] + p.a2 + A2 + 1) ** 2
    ell3 = -k3 ** 2 * (2 * n[3] + p.a3 + p.a4 + 1) ** 2
    return (A0, A1, A2), (ell1, ell2, ell3)


def energy(p, n):
    """The w-coefficient of E, from the expanded linear formula."""
    k1, k2, k3 = ks(p)
    return -2 * (2 * n[0] + 2 * k1 * n[1] + 2 * k2 * n[2] + 2 * k3 * n[3]
                 + k1 * p.a1 + k2 * p.a2 + k3 * p.a3 + k3 * p.a4
                 + k1 + k2 + k3 + 1)


def xi_image(p, i, sign, n):
    """Target of Xi_i^sign: n_i moves by q_i and n_{i-1} by p_i the other way;
    None when a quantum number would go negative."""
    pi, qi = pq(p, i)
    t = list(n)
    t[i] += qi if sign == "+" else -qi
    t[i - 1] += -pi if sign == "+" else pi
    return tuple(t) if min(t) >= 0 else None


def xi_image_count(p, i, sign, nmax):
    """States of the nmax box with an image: n_{i-1} >= p_i for Xi_i^+,
    n_i >= q_i for Xi_i^-."""
    need = pq(p, i)[0] if sign == "+" else pq(p, i)[1]
    return (nmax + 1) ** 3 * max(0, nmax + 1 - need)


def cell_points(p, count, rng):
    """Points in the middle of the cell r > 0, 0 < k_i theta_i < pi/2."""
    out = []
    for _ in range(count):
        r = rng.uniform(0.7, 2.2)
        out.append((r, *(rng.uniform(0.25, 0.75) * math.pi / 2 / float(k) for k in ks(p))))
    return out


def _count(case_id):
    """The '(N images|states|checks)' count a lattice case id carries."""
    m = re.search(r"\((\d+) (?:images|states|checks)\)", case_id)
    return int(m.group(1)) if m else 0


def suite_verdicts(inp, out):
    return [c["pass"] for rep in out for c in rep.cases]


# ---------------------------------------------------------------------------
# lattice-sweep: the xi suite (every state of the nmax box, once per Xi)
# ---------------------------------------------------------------------------

SWEEP_K = (K211, (F(3, 2), F(3, 2), F(1)))


def sweep_inputs(seed, tiny=False):
    rng = random.Random(seed)
    nmax = 2 if tiny else 6
    params = [make_params(k, seeded_a(rng)) for k in SWEEP_K[:1 if tiny else None]]
    samples = [tuple(rng.randint(0, nmax) for _ in range(4)) for _ in range(24)]
    return {"params": params, "nmax": nmax, "seed": seed, "samples": samples}


def sweep_run(inp):
    return [cli.run_suite(cli.SuiteConfig("xi", p, nmax=inp["nmax"], seed=inp["seed"]))
            for p in inp["params"]]


def sweep_checks(inp, out):
    return sum(xi_image_count(p, i, s, inp["nmax"])
               for p in inp["params"] for i in (1, 2, 3) for s in "+-")


def sweep_verify(inp, out, chk):
    nmax = inp["nmax"]
    for p, rep in zip(inp["params"], out):
        where = f"k={ks(p)} a={(p.a1, p.a2, p.a3, p.a4)}"
        seen = {}
        for c in rep.cases:
            chk.equal("xi case residual", c["residual"], 0.0, f"{where} {c['id']}")
            m = re.fullmatch(r"Xi(\d)([+-]) E-invariance \((\d+) images\)", c["id"])
            if m:
                seen[(int(m.group(1)), m.group(2))] = int(m.group(3))
            m = re.fullmatch(r"window independence rank (\d+)/(\d+)", c["id"])
            if m:
                # {1, H, L1, L1+, L2, L2+, L3, L3+} are independent: rank 8 of 8
                chk.equal("window rank", (int(m.group(1)), int(m.group(2))), (8, 8), where)
        for i in (1, 2, 3):
            for s in "+-":
                chk.equal("xi image count", seen.get((i, s)),
                          xi_image_count(p, i, s, nmax), f"{where} Xi{i}{s}")
        for n in inp["samples"]:
            for i in (1, 2, 3):
                for s in "+-":
                    vec = lattice.xi_action(i, s, p, n)
                    tgt = xi_image(p, i, s, n)
                    got = [tuple(t) for t in vec.states()]
                    chk.equal("xi image shift", got, [tgt] if tgt else [],
                              f"{where} Xi{i}{s} at {n}")
                    for t in got:
                        chk.equal("xi image energy", energy(p, t), energy(p, n),
                                  f"{where} Xi{i}{s} {n} -> {t}")
                        E = model.spectral_chain(p, t).E
                        chk.equal("chain energy formula", (E.coeff(0), E.coeff(1)),
                                  (0, energy(p, t)), f"{where} {t}")


# ---------------------------------------------------------------------------
# lattice-identities: the algebra and m1 suites over the default grid
# ---------------------------------------------------------------------------

# the default grid's a-vectors have these denominators; numerators are seeded
IDENTITY_A_DENS = ((2, 2, 2, 2), (3, 5, 7, 2))


def identity_inputs(seed, tiny=False):
    rng = random.Random(seed)
    grid = [tuple(model.parse_rational(x) for x in k) for k in cli.DEFAULT_K_GRID]
    params = [make_params(k, seeded_a(rng, dens))
              for k in grid for dens in IDENTITY_A_DENS]
    if tiny:
        params = params[2:3]
    # states where both Xi_i^+- images exist for every i (p_i, q_i <= 3 here)
    states = [tuple(rng.randint(3, 6) for _ in range(4)) for _ in range(3)]
    return {"params": params, "seed": seed, "states": states}


def identity_run(inp):
    return [cli.run_suite(cli.SuiteConfig(suite, p, seed=inp["seed"]))
            for p in inp["params"] for suite in ("algebra", "m1")]


def identity_checks(inp, out):
    return sum(_count(c["id"]) for rep in out for c in rep.cases)


def _rising(x, m):
    out = F(1)
    for j in range(m):
        out *= x + j
    return out


def _falling(x, m):
    out = F(1)
    for j in range(m):
        out *= x - j
    return out


def xi_coefficient(p, i, sign, n):
    """Coefficients (w^0, w^1, ...) of Xi_i^sign on n, as the closed product of
    the printed one-step actions: q_i steps J^sign on slot i, then p_i steps
    K0^-sign (i = 1, each carrying a factor w) or K^-sign_a on slot i-1.

        J+  -2 (n+1)(n+a+b+1)   J-  -2 (n+a)(n+b)       n moves by 1
        K0- -2 w                K0+ -2 w (n0+1)(n0+A0)  A0 moves by 2 against n0
        K-a  2 (n+a+b+1)(n+b)   K+a  2 (n+1)(n+a)       a moves by 2 against n

    (a, b) of slot 1, 2, 3 is (A1, a1), (A2, a2), (a3, a4) at the source
    state; a J step leaves slot i-1's a where it was.
    """
    (A0, A1, A2), _ = chain(p, n)
    slot = {1: (A1, p.a1), 2: (A2, p.a2), 3: (p.a3, p.a4)}
    pi, qi = pq(p, i)
    a, b = slot[i]
    m = n[i - 1]
    if sign == "+":
        head = (-2) ** qi * _rising(n[i] + 1, qi) * _rising(n[i] + a + b + 1, qi)
        if i == 1:
            tail = F(-2) ** pi
        else:
            a0, b0 = slot[i - 1]
            tail = 2 ** pi * _rising(m + a0 + b0 + 1, pi) * _falling(m + b0, pi)
    else:
        head = (-2) ** qi * _falling(n[i] + a, qi) * _falling(n[i] + b, qi)
        if i == 1:
            tail = F(-2) ** pi * _rising(m + 1, pi) * _falling(m + A0, pi)
        else:
            tail = 2 ** pi * _rising(m + 1, pi) * _falling(m + slot[i - 1][0], pi)
    return (F(0),) * (pi if i == 1 else 0) + (head * tail,)


def bracket_minus_targets(p, i, n):
    """[L_i, L_i^-] + 4 k^2 q^2 L_i^- + 4 k^2 q g L_i^+ on the state n, with
    g = (1, k1, k2)[i-1], per target of Xi_i^+-: the factor multiplying the Xi
    coefficient, from the closed-form ell_i and divisor A_{i-1}.  The identity
    is linear in the Xi's, so this checks the image targets and the constants,
    not the coefficient values (``xi_coefficient`` does that)."""
    k, q = ks(p)[i - 1], pq(p, i)[1]
    g = (F(1), p.k1, p.k2)[i - 1]
    A = chain(p, n)[0][i - 1]
    ell = chain(p, n)[1][i - 1]
    out = []
    for sign, sg in (("+", 1), ("-", -1)):
        for tgt in lattice.xi_action(i, sign, p, n).states():
            factor = (sg * (k / A) * (chain(p, tgt)[1][i - 1] - ell)
                      + sg * 4 * k * k * q * q * (k / A) + 4 * k * k * q * g)
            if factor:
                out.append((tuple(tgt), factor))
    return out


def identity_verify(inp, out, chk):
    for rep in out:
        p = rep.params
        where = f"{rep.suite} k={ks(p)} a={(p.a1, p.a2, p.a3, p.a4)}"
        for c in rep.cases:
            chk.equal("identity residual", c["residual"], 0.0, f"{where} {c['id']}")
    for p in inp["params"]:
        for n in inp["states"]:
            for i in (1, 2, 3):
                chk.equal("bracket-minus recomputed", bracket_minus_targets(p, i, n), [],
                          f"k={ks(p)} i={i} at {n}")
                for sign in "+-":
                    ((_, c),) = lattice.xi_action(i, sign, p, n).items()
                    chk.equal("Xi coefficient closed form",
                              tuple(c.coeff(j) for j in range(c.degree + 1)),
                              xi_coefficient(p, i, sign, n), f"k={ks(p)} Xi{i}{sign} at {n}")


# ---------------------------------------------------------------------------
# jet-checks: eigen, ladders, curvature, conformal and example211 at (2,1,1)
# ---------------------------------------------------------------------------

JET_SUITES = ("eigen", "ladders", "curvature", "conformal", "example211")
# the suites' tolerances, kept here so that a loosened one shows as a failed check
JET_TOL = {"eigen": 1e-7, "ladders": 1e-8, "curvature": 1e-9,
           "conformal": 1e-8, "example211": 1e-7}


def jet_inputs(seed, tiny=False):
    rng = random.Random(seed)
    a = seeded_a(rng)
    p = make_params(K211, a)
    flat = make_params((F(3, 2), F(3, 2), F(1)), a)
    states = [tuple(rng.randint(0, 3) for _ in range(4)) for _ in range(3)]
    return {"params": p, "flat": flat, "seed": seed,
            "nmax": 1 if tiny else None, "points": 2 if tiny else None,
            "eigen_pairs": list(zip(states, cell_points(p, 3, rng))),
            "weyl_points": cell_points(p, 3, rng),
            "flat_points": cell_points(flat, 3, rng)}


def jet_run(inp):
    return [cli.run_suite(cli.SuiteConfig(s, inp["params"], nmax=inp["nmax"],
                                          points=inp["points"], seed=inp["seed"]))
            for s in JET_SUITES]


def _knob(inp, suite, which):
    """The nmax or point count a suite ran with: the input's, else the suite default."""
    i = ("nmax", "points").index(which)
    return inp[which] if inp[which] is not None else suites.SUITE_DEFAULTS[suite][i]


def jet_checks(inp, out):
    """(state or function, point) residuals: one curvature evaluation per
    point, and the example211 max-order case counts none."""
    total = 0
    for rep in out:
        pts = _knob(inp, rep.suite, "points")
        if rep.suite == "curvature":
            total += pts
        else:
            total += (len(rep.cases) - (rep.suite == "example211")) * min(pts, 20)
    return total


def jet_verify(inp, out, chk):
    p = inp["params"]
    nmax = _knob(inp, "eigen", "nmax")
    # eigen: one case per state of the box; ladders: 4 levels x (2 radial +
    # 3 slots x 4 angular); curvature: 5 (k1 != k2); conformal: 10 functions;
    # example211: 10 states + the max-order case
    want_cases = {"eigen": (nmax + 1) ** 4, "ladders": 56, "curvature": 5,
                  "conformal": 10, "example211": 11}
    for rep in out:
        chk.equal("case count", len(rep.cases), want_cases[rep.suite], rep.suite)
        for c in rep.cases:
            chk.at_most("suite tolerance", c["residual"], JET_TOL[rep.suite],
                        f"{rep.suite} {c['id']}")
    H = diffops.build_h(p)
    for n, x in inp["eigen_pairs"]:
        psi = model.wavefunction(p, n)
        chk.close("H psi = E psi", H.apply(psi, x, 0).value,
                  float(energy(p, n) * OMEGA) * psi.value(x), 1e-7, f"{n} at {x}")
    for x in inp["flat_points"]:
        chk.at_most("Weyl zero at k1 = k2", geometry.curvature_at(inp["flat"], x).W,
                    1e-10, f"{x}")
    k1, k2 = float(p.k1), float(p.k2)
    for x in inp["weyl_points"]:
        W = geometry.curvature_at(p, x).W
        chk.above("Weyl nonzero at k = (2,1,1)", W, 0.0, f"{x}")
        # the paper's non-conformal-flatness: W = 2 |k1^2 - k2^2| / (r^2 sin^2 k1 t1)
        chk.close("Weyl closed form", W,
                  2 * abs(k1 ** 2 - k2 ** 2) / (x[0] ** 2 * math.sin(k1 * x[1]) ** 2),
                  1e-9, f"{x}")


# ---------------------------------------------------------------------------
# printed-operator: the typeset fifth-order operator at (state, point) pairs
# ---------------------------------------------------------------------------

PRINTED_RTOL = 1e-7


def printed_inputs(seed, tiny=False):
    rng = random.Random(seed)
    p = make_params(K211, seeded_a(rng))
    count = 1 if tiny else 3
    # interior states: both Xi_1^+- images exist (n0 >= p1 = 2, n1 >= q1 = 1)
    states = [(rng.randint(2, 4), rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 3))
              for _ in range(count)]
    return {"params": p, "pairs": list(zip(states, cell_points(p, count, rng)))}


def printed_run(inp):
    p = inp["params"]
    op = diffops.build_example_L1plus(p)
    rows = []
    for n, x in inp["pairs"]:
        psi = model.wavefunction(p, n)
        typeset = op.apply(psi, x, 0).value
        printed = diffops.example211_scalar(p, n, "printed").apply(psi, x, 0).value
        working = diffops.example211_scalar(p, n, "corrected").apply(psi, x, 0).value
        vec = lattice.xi_action(1, "+", p, n) + lattice.xi_action(1, "-", p, n)
        lat = sum(float(opoly_eval(c, p.omega)) * model.wavefunction(p, t).value(x)
                  for t, c in vec.items())
        rows.append((typeset, printed, working, lat))
    return {"max_order": op.max_order, "rows": rows}


def printed_verdicts(inp, out):
    """A (state, point) pair passes when both printed_verify comparisons hold."""
    return [is_close(typeset, printed, PRINTED_RTOL) and is_close(working, lat, PRINTED_RTOL)
            for typeset, printed, working, lat in out["rows"]]


def printed_verify(inp, out, chk):
    chk.equal("typeset max order", out["max_order"], 5)
    for (n, x), (typeset, printed, working, lat) in zip(inp["pairs"], out["rows"]):
        chk.close("typeset equals printed scalar form", typeset, printed, PRINTED_RTOL,
                  f"{n} at {x}")
        chk.close("working table equals lattice", working, lat, PRINTED_RTOL, f"{n} at {x}")


class Workload(NamedTuple):
    inputs: Callable
    run: Callable
    verdicts: Callable
    checks: Callable
    verify: Callable


WORKLOADS = {
    "lattice-sweep": Workload(sweep_inputs, sweep_run, suite_verdicts,
                              sweep_checks, sweep_verify),
    "lattice-identities": Workload(identity_inputs, identity_run, suite_verdicts,
                                   identity_checks, identity_verify),
    "jet-checks": Workload(jet_inputs, jet_run, suite_verdicts, jet_checks, jet_verify),
    "printed-operator": Workload(printed_inputs, printed_run, printed_verdicts,
                                 lambda inp, out: len(out["rows"]), printed_verify),
}
