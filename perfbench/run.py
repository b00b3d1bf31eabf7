"""Cold-process benchmark of the ttw4d verification engine.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

It imports ttw4d from the src/ directory beside perfbench/.  Each round
of a workload runs in a fresh interpreter (cold_round.py), one after another,
so every round pays what a `ttw4d verify` user pays: interpreter start, the
imports and empty lru_caches.  Rounds repeat until S seconds have passed
(at least one; S defaults to run_seconds of BENCHMARK.json); the metrics
are medians over the rounds.

--trace 0 reports the end-to-end metrics: verdict_s, setup_s, checks_per_s
and peak_rss_mib.  --trace 1 alternates untraced and traced rounds and
reports the per-layer metrics of the traced rounds plus the tracing overhead
(median traced verdict_s minus median untraced verdict_s).  The last line of
standard output is one JSON object {"correct", "attempted", "failed",
"metrics"}; `attempted` counts the program's verdicts over all rounds and
`failed` the ones that were not a pass.  Round details and the spans of the
last traced round go to perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER  # imports no ttw4d code

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

WORKLOADS = ("lattice-sweep", "lattice-identities", "jet-checks", "printed-operator")
DEFAULT_SEED = 1729          # ttw4d.cli.DEFAULT_SEED
RUN_LIMIT_S = 170            # a run, all rounds included, ends within this
END_TO_END = {"verdict_s": "s", "setup_s": "s", "checks_per_s": "1/s",
              "peak_rss_mib": "MiB"}


class RoundFailed(RuntimeError):
    pass


def run_round(workload, seed, trace, limit, spans=None) -> dict:
    """One cold round in a fresh interpreter, killed at the monotonic time `limit`."""
    cmd = [sys.executable, str(HERE / "cold_round.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if spans:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(limit - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"{workload}: run exceeded {RUN_LIMIT_S} s") from None
    if proc.returncode != 0:
        raise RoundFailed(f"{workload}: round exited {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace):
    """Whole rounds until `seconds` have passed; medians over the rounds.

    Returns the result object and the numbers of untraced and traced rounds.
    """
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"{workload}-seed{seed}-spans.json" if trace else None
    plain, traced = [], []
    start = time.monotonic()
    deadline, limit = start + seconds, start + RUN_LIMIT_S
    while True:
        plain.append(run_round(workload, seed, False, limit))
        if trace:
            traced.append(run_round(workload, seed, True, limit, spans))
        if time.monotonic() >= deadline:
            break
    rounds = plain + traced
    med = statistics.median
    if trace:
        values = {}
        for name, _, _ in PER_LAYER:
            if name == "trace.overhead_s":
                values[name] = (med(r["verdict_s"] for r in traced)
                                - med(r["verdict_s"] for r in plain))
            elif name.endswith(".self_s"):
                values[name] = med(r["layers"][name] for r in traced)
            else:
                values[name] = traced[-1]["layers"][name]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        values = {"verdict_s": med(r["verdict_s"] for r in plain),
                  "setup_s": med(r["setup_s"] for r in plain),
                  "checks_per_s": med(r["checks"] / r["verdict_s"] for r in plain),
                  "peak_rss_mib": med(r["peak_rss_mib"] for r in plain)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    problems = [p for r in rounds for p in r["problems"]]
    result = {"correct": not problems,
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": metrics}
    with open(RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "result": result, "rounds": rounds}, fh, indent=1)
    for p in problems[:20]:
        print(f"{workload}: CHECK FAILED {p}", file=sys.stderr)
    return result, len(plain), len(traced)


def summary(workload, result, n_plain, n_traced) -> str:
    parts = [f"{workload}:"]
    for name, m in result["metrics"].items():
        if m["value"] or name in END_TO_END:
            parts.append(f"{name}={m['value']:.6g} {m['unit']}")
    parts.append(f"attempted={result['attempted']} failed={result['failed']} "
                 f"rounds={n_plain}+{n_traced} correct={result['correct']}")
    return " ".join(parts) if n_traced == 0 else "\n    ".join(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if not 1 <= args.seconds <= RUN_LIMIT_S - 20:
        ap.error(f"--seconds must be between 1 and {RUN_LIMIT_S - 20}")
    if not (ROOT / "src" / "ttw4d" / "__init__.py").is_file():
        print(f"error: no ttw4d source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, n_plain, n_traced = measure(name, args.seed, args.seconds, args.trace)
            results[name] = result
            print(summary(name, result, n_plain, n_traced), flush=True)
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{m}": v for w, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
