"""One cold round of one workload, in the fresh interpreter run.py starts.

    python3 perfbench/cold_round.py --workload NAME --seed N --trace 0|1
        --spawned-ns T [--spans PATH]

T is the parent's time.monotonic_ns() just before it started this process;
set-up time runs from then to the first timed call, so it covers interpreter
start, the import of ttw4d and numpy, and input generation.  The round prints
one JSON line: the timings, the program's verdicts, the checks it failed and,
when traced, the per-layer metrics.  With --trace 1 the timed calls run under
the tracer, and the spans of the round go to PATH.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    import ttw4d
    if not os.path.realpath(ttw4d.__file__).startswith(src + os.sep):
        print(f"ttw4d imported from {ttw4d.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    t0, c0 = time.perf_counter(), time.process_time()
    out = wl.run(inputs)
    verdict_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"verdict_s": verdict_s, "setup_s": setup_s, "peak_rss_mib": peak_rss_mib,
              "verdict_cpu_s": cpu_s}
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "fields": ["id", "parent", "name", "start", "end"],
                           "spans": tracer.spans}, fh)
    chk = workloads.Checker()
    wl.verify(inputs, out, chk)
    verdicts = wl.verdicts(inputs, out)
    result.update(checks=wl.checks(inputs, out), attempted=len(verdicts),
                  failed=verdicts.count(False),
                  problems=[f"{kind}: {msg}" for kind, msg in chk.problems])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
