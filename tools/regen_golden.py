"""Regenerate the golden reports under tests/golden/.

For each parameter set of the default grid, each file holds the (id,
float.hex(residual), pass) of its suites' cases; case ids carry their
suite's prefix, as in a `verify --suite all` report.

* `lattice_reports.json`: every case of the exact `xi`, `algebra` and `m1`
  suites, under `--convention auto` and under `printed`.  These residuals
  are float(Fraction) or 0.0/1.0, so they do not depend on the platform.
* `float_reports.json`: every `eigen`, `ladders`, `curvature`, `conformal`
  and `example211` case of the `verify --suite all` battery.  These
  residuals go through libm and Python's float arithmetic, so the file
  records the Python version and the platform that made it.

Standard library only; run from anywhere:

    python3 tools/regen_golden.py

Regenerate only for a change meant to alter these reports.
"""
from __future__ import annotations

import json
import platform
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from ttw4d import cli  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "lattice_reports.json"
SUITES = ("xi", "algebra", "m1")  # in cli.SUITE_ORDER
CONVENTIONS = ("auto", "printed")
FLOAT_GOLDEN = ROOT / "tests" / "golden" / "float_reports.json"
FLOAT_SUITES = ("eigen", "ladders", "curvature", "conformal", "example211")


def made_on() -> dict:
    """The Python version and platform (OS, machine, libc) float bits depend on."""
    return {"python": platform.python_version(),
            "platform": " ".join((sys.platform, platform.machine(), *platform.libc_ver()))}


def params_key(params_blob: dict) -> str:
    """'k=... a=...' from a report's params blob."""
    return f"k={','.join(params_blob['k'])} a={','.join(params_blob['a'])}"


def case_row(cid: str, case: dict) -> list:
    return [cid, case["residual"].hex(), case["pass"]]


def suite_rows(cases, suites) -> list:
    """Golden rows of the cases of a `verify --suite all` report in suites."""
    return [case_row(c["id"], c) for c in cases if c["id"].split(":")[0] in suites]


def collect(convention: str) -> dict:
    """Parameter-set key -> the golden rows of the three suites, run fresh."""
    out = {}
    for params in cli._param_grid(None, None, Fraction(1)):
        rows = []
        for suite in SUITES:
            rep = cli.run_suite(cli.SuiteConfig(suite, params, convention=convention))
            rows += [case_row(f"{suite}: {c['id']}", c) for c in rep.cases]
        out[params_key(cli.report_dict(rep)["params"])] = rows
    return out


def collect_float() -> dict:
    """Parameter-set key -> the golden rows of the float suites of the battery."""
    out = {}
    for params in cli._param_grid(None, None, Fraction(1)):
        rep = cli.run_suite(cli.SuiteConfig("all", params))
        out[params_key(cli.report_dict(rep)["params"])] = suite_rows(rep.cases, FLOAT_SUITES)
    return out


def dump(doc: dict) -> str:
    """JSON with one case row per line, so a diff names the changed cases."""
    def rows(rs):
        return "[\n" + ",\n".join(f"   {json.dumps(r)}" for r in rs) + "\n  ]"

    def sets(ss):
        return "{\n" + ",\n".join(f"  {json.dumps(k)}: {rows(rs)}"
                                   for k, rs in ss.items()) + "\n }"
    return "{\n" + ",\n".join(
        f" {json.dumps(c)}: {json.dumps(ss) if isinstance(ss, str) else sets(ss)}"
        for c, ss in doc.items()) + "\n}\n"


def main() -> int:
    doc = {conv: collect(conv) for conv in CONVENTIONS}
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(dump(doc), encoding="utf-8")
    print(f"wrote {GOLDEN}: " + ", ".join(
        f"{conv} {sum(map(len, doc[conv].values()))} cases" for conv in CONVENTIONS))
    doc = {**made_on(), "auto": collect_float()}
    FLOAT_GOLDEN.write_text(dump(doc), encoding="utf-8")
    print(f"wrote {FLOAT_GOLDEN}: {sum(map(len, doc['auto'].values()))} cases "
          f"(Python {doc['python']}, {doc['platform']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
