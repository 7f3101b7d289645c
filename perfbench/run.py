"""genspace benchmark: one workload, one closed-loop client, one result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload analyze_wide --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the same loop with
spans around every public library call (on every other op) and prints the
per-layer metrics.  Metric names and units come from BENCHMARK.json.  The
last line of stdout is the JSON result; the lines before it are for people:
each metric with its unit and sample count, host-phase diagnostics and the
known-defect probes.  A run with a failed op exits 1 and names the check.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is repeated in fresh processes, half of them before the measured
# run and half after it, and reported as the median over all of them.
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 60
# Per-process work directories (the CLI workload's files) live here.
SCRATCH = ROOT / ".perfbench_tmp"


def spawn_worker(args, extra: list[str], timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--scratch", str(SCRATCH)]
    spawned_at = time.monotonic()
    proc = subprocess.Popen([*cmd, "--spawned-at", repr(spawned_at), *extra], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"error: {args.workload} worker timed out after {timeout} s")
    if proc.returncode != 0:
        raise SystemExit(f"error: {args.workload} worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "genspace" / "__init__.py").is_file():
        print(f"error: no genspace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    extra_setups = 0 if args.trace else SETUP_RUNS - 1
    setups = [spawn_worker(args, ["--setup-only"], SETUP_TIMEOUT_S) for _ in range(extra_setups // 2)]
    run = spawn_worker(args, [], SETUP_TIMEOUT_S + 2 * args.seconds + 30)
    setups.append(run)
    setups += [spawn_worker(args, ["--setup-only"], SETUP_TIMEOUT_S) for _ in range(extra_setups - extra_setups // 2)]
    try:
        SCRATCH.rmdir()
    except OSError:
        pass

    failures: dict[str, int] = {}
    for result in setups:
        for name, n in result["failures"].items():
            failures[name] = failures.get(name, 0) + n
    attempted, failed = run["attempted"], run["failed"]

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    if args.trace:
        values = run["layers"]
        declared = bench["per_layer"]
    else:
        values = {"setup_s": statistics.median(r["setup_s"] for r in setups), **run["e2e"]}
        declared = bench["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}

    notes = {"setup_s": f"n={len(setups)} set-ups", "peak_rss_mb": "max over the run"}
    default_note = f"n={run['traced_ops']} traced ops" if args.trace else f"n={run['attempted']} ops"
    for name, metric in metrics.items():
        note = notes.get(name, default_note)
        if name == "p90_ms":
            note += f", {run['above_p90']} above"
        print(f"  {name}: {metric['value']:.6g} {metric['unit']} ({note})")
    print(f"  error_rate: {failed / attempted:.6g} ratio ({failed}/{attempted} ops)")
    print("  " + "  ".join(f"{k}={v:.6g}" for k, v in run["host"].items()))
    for name, verdict in run["probes"].items():
        print(f"probe.{name}: {verdict}")
    for name, n in sorted(failures.items()):
        print(f"FAILED check {name}: {n} ops")
    print("detail: " + json.dumps({"samples": run["attempted"], "above_p90": run["above_p90"],
                                   "host": run["host"], "probes": run["probes"], "failures": failures}))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
