"""Steadiness report: run every workload in two sets of ten seeds and compare them.

Usage, from the repository root:

    python3 perfbench/steady.py

Each run is one `perfbench/run.py --trace 0` process of BENCHMARK.json's
run length.  Set 1 uses seeds 1-10 and set 2 seeds 11-20.  The runs of the
two sets alternate in time (set 1 seed 1, set 2 seed 11, set 1 seed 2, ...),
and within each step every workload runs once, so a slow phase of the host
falls on both sets and on every workload.  For every end-to-end metric the
report prints each set's median, quartiles and spread (interquartile
distance over median), and the shift between the two medians.  A spread
or a shift, in either direction, larger than the metric's bound fails the
report (exit 1); a spread above a third of the bound is marked.  It also
prints each workload's p90 sample count, error rate and host diagnostics.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    detail = next(json.loads(line[len("detail: "):]) for line in lines if line.startswith("detail: "))
    return {"seed": seed, "result": json.loads(lines[-1]), "detail": detail}


def summary(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    runs: dict[str, list[list[dict]]] = {w: [[] for _ in range(SETS)] for w in workloads}
    for r in range(RUNS):
        for s in range(SETS):
            seed = 1 + s * RUNS + r
            for w in workloads:
                runs[w][s].append(run_once(w, seed, seconds))
                m = runs[w][s][-1]["result"]["metrics"]
                print(f"set {s + 1} {w} seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items()),
                      flush=True)

    ok = True
    print()
    for w in workloads:
        sets = runs[w]
        attempted = sum(x["result"]["attempted"] for s in sets for x in s)
        failed = sum(x["result"]["failed"] for s in sets for x in s)
        above = min(x["detail"]["above_p90"] for s in sets for x in s)
        samples = min(x["detail"]["samples"] for s in sets for x in s)
        slow = [statistics.median(x["detail"]["host"]["host.slow_share"] for x in s) for s in sets]
        ref = [statistics.median(x["detail"]["host"]["host.ref_loop_ms"] for x in s) for s in sets]
        print(f"{w}: error_rate {failed / attempted:.3g} ({failed}/{attempted} ops); "
              f"fewest samples in a run {samples}, fewest above p90 {above}; "
              f"host slow_share median per set {', '.join(f'{v:.2f}' for v in slow)}; "
              f"ref_loop_ms {', '.join(f'{v:.2f}' for v in ref)}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cols = []
            medians = []
            for s in sets:
                median, q1, q3, spread = summary([x["result"]["metrics"][name]["value"] for x in s])
                medians.append(median)
                cols.append(f"{median:9.4g} [{q1:.4g}, {q3:.4g}] spread {spread:6.3f}")
                if spread > bound:
                    ok = False
                    cols[-1] += " (> bound)"
                elif spread > bound / 3:
                    cols[-1] += " (> bound/3)"
            shift = (medians[1] - medians[0]) / medians[0]
            agree = abs(shift) <= bound
            ok = ok and agree
            print(f"  {name:12s} {metric['unit']:6s} bound {bound:.2f} | " + " | ".join(cols)
                  + f" | shift {shift:+.3f} {'agree' if agree else 'DISAGREE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
