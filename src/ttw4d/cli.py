"""Command-line verification harness and spectrum printer.

`ttw4d verify` runs one suite (or all of them) over a parameter grid and
reports pass/fail per case; `ttw4d spectrum` prints the exact spectrum table
with degeneracy classes.  Exit codes: 0 all checks passed, 1 a check failed,
2 usage error.  Reports are deterministic for a fixed config, byte for byte,
except for the wall-time field.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .lattice import ChainBroken
from .model import (SystemParams, degeneracy_classes, enumerate_states,
                    parse_rational, spectral_chain)
from .suites import RUNNERS, SUITE_DEFAULTS

SUITE_ORDER = tuple(RUNNERS)
SUITE_IDS = SUITE_ORDER + ("all",)
CONVENTIONS = ("printed", "antisymmetric", "auto")
FORMATS = ("json", "csv")

DEFAULT_K_GRID = (("1", "1", "1"), ("2", "1", "1"),
                  ("3/2", "3/2", "1"), ("2", "1", "2"))
DEFAULT_A_GRID = (("1/2", "1/2", "1/2", "1/2"), ("1/3", "2/5", "3/7", "1/2"))
DEFAULT_SEED = 1729


@dataclass
class SuiteConfig:
    suite: str
    params: SystemParams
    nmax: Optional[int] = None
    points: Optional[int] = None
    seed: int = DEFAULT_SEED
    tol: Optional[float] = None
    convention: str = "auto"

    def __post_init__(self):
        if self.suite not in SUITE_IDS:
            raise ValueError(f"unknown suite {self.suite!r}")
        if self.nmax is not None and not (0 <= self.nmax <= 8):
            raise ValueError("nmax must be between 0 and 8")
        if self.points is not None and self.points < 1:
            raise ValueError("points must be positive")
        if self.tol is not None and not 0 <= self.tol < math.inf:
            raise ValueError("tol must be finite and nonnegative")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}")


@dataclass
class SuiteReport:
    suite: str
    params: SystemParams
    config: SuiteConfig
    conventions: dict = field(default_factory=dict)
    cases: list = field(default_factory=list)
    max_residual: float = 0.0
    passed: bool = True
    wall_ms: int = 0


def _run_one(suite: str, config: SuiteConfig):
    nmax_d, pts_d, tol_d = SUITE_DEFAULTS[suite]
    nmax = config.nmax if config.nmax is not None else nmax_d
    pts = config.points if config.points is not None else pts_d
    tol = config.tol if config.tol is not None else tol_d
    try:
        return RUNNERS[suite](config.params, nmax, pts, config.seed, tol,
                              config.convention)
    except ChainBroken as exc:
        return [{"id": f"ChainBroken: {exc}", "residual": 1.0, "pass": False}], {}


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Run one suite (or the whole battery for suite='all') on one params."""
    params = config.params
    if params.omega is None:
        params = params.with_omega(Fraction(1))
        config = replace(config, params=params)
    run = replace(config, params=replace(params))  # a fresh memo, dropped after the run
    t0 = time.perf_counter()
    cases = []
    conventions = {}
    if config.suite == "all":
        for s in SUITE_ORDER:
            if s == "example211" and (params.k1, params.k2, params.k3) != (2, 1, 1):
                continue
            sub_cases, sub_conv = _run_one(s, run)
            for c in sub_cases:
                cases.append({"id": f"{s}: {c['id']}",
                              "residual": c["residual"], "pass": c["pass"]})
            conventions.update(sub_conv)
    else:
        cases, conventions = _run_one(config.suite, run)
    wall = int(round((time.perf_counter() - t0) * 1000))
    max_res = max((c["residual"] for c in cases), default=0.0)
    passed = all(c["pass"] for c in cases)
    return SuiteReport(config.suite, params, config, conventions, cases,
                       max_res, passed, wall)


# ---------------------------------------------------------------------------
# spectrum table
# ---------------------------------------------------------------------------

def spectrum_table(params: SystemParams, nmax: int):
    """Rows (state, A0, ell1..ell3, E) sorted by E at omega=1, ground first.

    States sharing the same exact energy polynomial get the same class tag,
    numbered in row order.
    """
    classes = degeneracy_classes(params, nmax)
    chains = sorted(((spectral_chain(params, st), st) for st in enumerate_states(nmax)),
                    key=lambda cs: (-cs[0].E.coeff(1), cs[1]))
    tags = {}
    rows = []
    for ch, st in chains:
        rows.append({"state": list(st),
                     "A0": str(ch.A0),
                     "ell1": str(ch.ell1), "ell2": str(ch.ell2),
                     "ell3": str(ch.ell3),
                     "E": str(ch.E),
                     "E_coeffs": [str(c) for c in ch.E.coeffs],
                     "class": tags.setdefault(ch.E, f"g{len(tags) + 1}"),
                     "degeneracy": len(classes[ch.E])})
    return rows


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _params_blob(report: SuiteReport) -> dict:
    p, c = report.params, report.config
    return {"k": [str(p.k1), str(p.k2), str(p.k3)],
            "a": [str(p.a1), str(p.a2), str(p.a3), str(p.a4)],
            "omega": None if p.omega is None else str(p.omega),
            "nmax": c.nmax, "points": c.points, "seed": c.seed,
            "tol": c.tol}


def report_dict(report: SuiteReport) -> dict:
    return {"suite": report.suite,
            "params": _params_blob(report),
            "conventions": report.conventions,
            "cases": report.cases,
            "max_residual": report.max_residual,
            "pass": report.passed,
            "wall_ms": report.wall_ms}


def emit_report(report, fmt: str = "json") -> bytes:
    """Serialize one SuiteReport (or a list of them) to stable bytes."""
    many = isinstance(report, (list, tuple))
    reports = list(report) if many else [report]
    if fmt == "json":
        doc = [report_dict(r) for r in reports] if many else report_dict(reports[0])
        return (json.dumps(doc, indent=2) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        wr = csv.writer(buf, lineterminator="\n")
        wr.writerow(["suite", "case", "residual", "pass"])
        for r in reports:
            for c in r.cases:
                wr.writerow([r.suite, c["id"], repr(c["residual"]),
                             "true" if c["pass"] else "false"])
        return buf.getvalue().encode()
    raise ValueError(f"unknown report format {fmt!r}")


def emit_spectrum(rows, fmt: str = "json") -> bytes:
    if fmt == "json":
        return (json.dumps(rows, indent=2) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        wr = csv.writer(buf, lineterminator="\n")
        wr.writerow(["state", "A0", "ell1", "ell2", "ell3", "E", "class",
                     "degeneracy"])
        for row in rows:
            wr.writerow([" ".join(map(str, row["state"])), row["A0"],
                         row["ell1"], row["ell2"], row["ell3"], row["E"],
                         row["class"], row["degeneracy"]])
        return buf.getvalue().encode()
    raise ValueError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

_CONFIG_KEYS = ("suite", "k", "a", "omega", "nmax", "points", "seed", "tol",
                "report", "format", "convention")


def read_config_file(path: str) -> dict:
    """Flat key=value file; '#' starts a comment; unknown keys are errors."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key == "format" and val not in FORMATS:
                raise ValueError(f"{path}:{lineno}: unknown report format {val!r}")
            out[key] = val
    return out


def _merge(flag, cfg: dict, key: str, conv=None, default=None):
    """Flags win over the config file; then the built-in default."""
    if flag is not None:
        return flag
    if key in cfg:
        return conv(cfg[key]) if conv else cfg[key]
    return default


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ttw4d",
        description="verification harness for the 4D oscillator tower")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--k", help="k1,k2,k3 as rationals (e.g. 2,1,1)")
        p.add_argument("--a", help="a1,a2,a3,a4 as rationals")
        p.add_argument("--nmax", type=int)
        p.add_argument("--report", help="write a machine-readable report here")
        p.add_argument("--format", choices=FORMATS)
        p.add_argument("--config", help="flat key=value config file; flags win")

    vp = sub.add_parser("verify", help="run a verification suite")
    vp.add_argument("--suite", choices=list(SUITE_IDS))
    vp.add_argument("--omega", help="oscillator frequency (rational, default 1)")
    vp.add_argument("--points", type=int)
    vp.add_argument("--seed", type=int)
    vp.add_argument("--tol", type=float)
    vp.add_argument("--convention", choices=list(CONVENTIONS),
                    help="printed: typeset forms as-is; antisymmetric: "
                         "antisymmetrized P-; auto: recorded working forms")
    common(vp)

    sp = sub.add_parser("spectrum", help="print the exact spectrum table")
    common(sp)
    return ap


def _param_grid(kopt, aopt, omega):
    ks = [kopt] if kopt else list(DEFAULT_K_GRID)
    aa = [aopt] if aopt else list(DEFAULT_A_GRID)
    grid = []
    for k in ks:
        for a in aa:
            kf = [parse_rational(x) for x in k]
            af = [parse_rational(x) for x in a]
            grid.append(SystemParams(*kf, *af, omega=omega))
    return grid


def _split(opt, n, what):
    if opt is None:
        return None
    parts = tuple(s.strip() for s in opt.split(","))
    if len(parts) != n:
        raise ValueError(f"--{what} needs {n} comma-separated rationals")
    return parts


def _report_target(args, cfg):
    """(path, format) of the report; a missing directory fails before any work."""
    path = _merge(args.report, cfg, "report")
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"no directory for the report {path!r}")
    return path, _merge(args.format, cfg, "format", default="json")


def cmd_verify(args) -> int:
    cfg = read_config_file(args.config) if args.config else {}
    suite = _merge(args.suite, cfg, "suite", default="all")
    kopt = _split(_merge(args.k, cfg, "k"), 3, "k")
    aopt = _split(_merge(args.a, cfg, "a"), 4, "a")
    omega = parse_rational(_merge(args.omega, cfg, "omega", default="1"))
    nmax = _merge(args.nmax, cfg, "nmax", conv=int)
    points = _merge(args.points, cfg, "points", conv=int)
    seed = _merge(args.seed, cfg, "seed", conv=int, default=DEFAULT_SEED)
    tol = _merge(args.tol, cfg, "tol", conv=float)
    convention = _merge(args.convention, cfg, "convention", default="auto")
    report_path, fmt = _report_target(args, cfg)

    if suite == "example211":
        if kopt is None:
            kopt = ("2", "1", "1")
        elif tuple(parse_rational(x) for x in kopt) != (2, 1, 1):
            raise ValueError("suite example211 requires k=(2,1,1)")

    grid = _param_grid(kopt, aopt, omega)
    reports = []
    for params in grid:
        config = SuiteConfig(suite, params, nmax, points, seed, tol, convention)
        reports.append(run_suite(config))

    for rep in reports:
        p = rep.params
        tag = "PASS" if rep.passed else "FAIL"
        print(f"{rep.suite:<10} k={p.k1},{p.k2},{p.k3} "
              f"a={p.a1},{p.a2},{p.a3},{p.a4}  [{tag}]  "
              f"{len(rep.cases)} cases  max residual {rep.max_residual:.3g}  "
              f"{rep.wall_ms} ms")
        if not rep.passed:
            for c in rep.cases:
                if not c["pass"]:
                    print(f"    FAIL {c['id']}  residual {c['residual']:.6g}")
    overall = all(r.passed for r in reports)
    print("overall:", "PASS" if overall else "FAIL")

    if report_path:
        blob = emit_report(reports if len(reports) > 1 else reports[0], fmt)
        with open(report_path, "wb") as fh:
            fh.write(blob)
    return 0 if overall else 1


def cmd_spectrum(args) -> int:
    cfg = read_config_file(args.config) if args.config else {}
    kopt = _split(_merge(args.k, cfg, "k"), 3, "k") or ("1", "1", "1")
    aopt = _split(_merge(args.a, cfg, "a"), 4, "a") or ("1/2",) * 4
    nmax = _merge(args.nmax, cfg, "nmax", conv=int, default=2)
    if not 0 <= nmax <= 8:
        raise ValueError("nmax must be between 0 and 8")
    report_path, fmt = _report_target(args, cfg)
    params = SystemParams(*(parse_rational(x) for x in kopt),
                          *(parse_rational(x) for x in aopt))
    rows = spectrum_table(params, nmax)
    widths = {"state": 12, "A0": 8, "ell1": 10, "ell2": 10, "ell3": 10, "E": 12}
    hdr = "".join(name.ljust(w) for name, w in widths.items()) + "class"
    print(hdr)
    for row in rows:
        line = "".join([
            ",".join(map(str, row["state"])).ljust(widths["state"]),
            row["A0"].ljust(widths["A0"]),
            row["ell1"].ljust(widths["ell1"]),
            row["ell2"].ljust(widths["ell2"]),
            row["ell3"].ljust(widths["ell3"]),
            row["E"].ljust(widths["E"]),
            f"{row['class']} (x{row['degeneracy']})"])
        print(line)
    if report_path:
        with open(report_path, "wb") as fh:
            fh.write(emit_spectrum(rows, fmt))
    return 0


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_spectrum(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
