"""Regenerate tests/golden/lattice_reports.json, the golden exact lattice cases.

For each parameter set of the default grid, the file holds the (id,
float.hex(residual), pass) of every case of the `xi`, `algebra` and `m1`
suites, under `--convention auto` and under `printed`.  Case ids carry
their suite's prefix, as in a `verify --suite all` report.  These suites'
residuals are float(Fraction) or 0.0/1.0, so they do not depend on the
platform's libm.  Standard library only; run from anywhere:

    python3 tools/regen_golden.py

Regenerate only for a change meant to alter these reports.
"""
from __future__ import annotations

import json
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


def params_key(params_blob: dict) -> str:
    """'k=... a=...' from a report's params blob."""
    return f"k={','.join(params_blob['k'])} a={','.join(params_blob['a'])}"


def case_row(cid: str, case: dict) -> list:
    return [cid, case["residual"].hex(), case["pass"]]


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


def dump(doc: dict) -> str:
    """JSON with one case row per line, so a diff names the changed cases."""
    def rows(rs):
        return "[\n" + ",\n".join(f"   {json.dumps(r)}" for r in rs) + "\n  ]"

    def sets(ss):
        return "{\n" + ",\n".join(f"  {json.dumps(k)}: {rows(rs)}"
                                   for k, rs in ss.items()) + "\n }"
    return "{\n" + ",\n".join(f" {json.dumps(c)}: {sets(ss)}"
                               for c, ss in doc.items()) + "\n}\n"


def main() -> int:
    doc = {conv: collect(conv) for conv in CONVENTIONS}
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(dump(doc), encoding="utf-8")
    print(f"wrote {GOLDEN}: " + ", ".join(
        f"{conv} {sum(map(len, doc[conv].values()))} cases" for conv in CONVENTIONS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
