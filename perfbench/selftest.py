"""Self-test of the benchmark: python3 perfbench/selftest.py (from the tree root).

For each workload it runs the timed calls once on a tiny input, in this
process, and shows that:

* every independent check passes on the honest outputs, and the program
  gives no failing verdict;
* every kind of check turns red, and only that kind, when it is fed a wrong
  expected value;
* the tracer wraps and restores every traced name and yields every per-layer
  metric;

and that BENCHMARK.json names exactly the metrics the code reports.
Exits 0 when all of that holds.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def check_workload(name, wl) -> list:
    errors = []
    inputs = wl.inputs(run.DEFAULT_SEED, tiny=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = wl.run(inputs)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    want = {n for n, _, _ in tracing.PER_LAYER} - {"trace.overhead_s"}
    if set(layers) != want:
        errors.append(f"layer metrics differ: {sorted(set(layers) ^ want)}")
    if not tracer.spans:
        errors.append("no spans recorded")

    if False in wl.verdicts(inputs, out):
        errors.append("the program reported a failing verdict")
    honest = workloads.Checker()
    wl.verify(inputs, out, honest)
    errors += [f"honest run: {kind}: {msg}" for kind, msg in honest.problems[:5]]
    for kind in sorted(honest.kinds):
        red = workloads.Checker(tamper=kind)
        wl.verify(inputs, out, red)
        kinds = {k for k, _ in red.problems}
        if kinds != {kind}:
            errors.append(f"wrong expected value for {kind!r} gave failures {sorted(kinds)}")
        else:
            print(f"  {name}: {kind!r} turns red ({len(red.problems)} failures)")
    return errors


def check_restored() -> list:
    """After uninstall no ttw4d name still holds a tracing wrapper."""
    errors = []
    for modname, mod in list(sys.modules.items()):
        if modname == "ttw4d" or modname.startswith("ttw4d."):
            for attr, val in vars(mod).items():
                for v in ([val] + list(val.values()) if isinstance(val, dict) else [val]):
                    if getattr(v, "__module__", None) == "tracing":
                        errors.append(f"{modname}.{attr} still wrapped")
                for v in vars(val).values() if isinstance(val, type) else ():
                    if getattr(v, "__module__", None) == "tracing":
                        errors.append(f"{modname}.{attr} method still wrapped")
    return errors


def check_benchmark_json() -> list:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    errors = []
    if not [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS):
        errors.append("BENCHMARK.json, run.py and workloads.py name different workloads")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        errors.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != list(tracing.PER_LAYER):
        errors.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    return errors


def main() -> int:
    errors = check_benchmark_json()
    for name in run.WORKLOADS:
        t0 = time.perf_counter()
        errs = check_workload(name, workloads.WORKLOADS[name])
        print(f"{name}: {'ok' if not errs else 'FAILED'} ({time.perf_counter() - t0:.1f} s)")
        errors += [f"{name}: {e}" for e in errs]
    errors += check_restored()
    for e in errors:
        print("ERROR", e)
    print("selftest:", "PASS" if not errors else "FAIL")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
