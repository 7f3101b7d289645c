"""One benchmark process: set up one workload, then run its closed loop.

Started by run.py with PYTHONPATH pointing at the checkout's `src/`.  It
prints one JSON object on stdout.  With --setup-only it stops after the
warm-up op and reports only its set-up time.

Set-up time runs from the moment run.py spawned this process (a
CLOCK_MONOTONIC reading passed as --spawned-at) to the first timed op: the
interpreter start, the genspace import, input generation and one warm-up op.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from probes import run_probes
from tracer import LayerStats, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

# A run keeps going past --seconds until it has this many ops, so that
# p90 always rests on at least ten samples above it.  A run that still has
# fewer than MIN_ABOVE_P90 above p90 at twice --seconds stops and fails.
MIN_OPS = 100
MIN_ABOVE_P90 = 10
REF_EVERY_S = 1.0
REF_EDGE_SAMPLES = 5
REF_ITERATIONS = 100_000
# A reference-loop sample this much slower than the run's 10th percentile
# counts as taken in a slow phase of the host.
SLOW_FACTOR = 1.15


def ref_loop() -> int:
    """A fixed pure-Python loop that does not touch genspace."""
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    return s


def read_cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from /proc/stat, or zeros."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    # guest time is already counted inside user time.
    return steal, sum(fields[:8])


class HostMonitor:
    """Reference-loop timings before, during and after the ops, and steal."""

    def __init__(self) -> None:
        self.samples_ns: list[int] = []
        self.ticks0 = read_cpu_ticks()

    def sample(self) -> int:
        start = time.perf_counter_ns()
        ref_loop()
        elapsed = time.perf_counter_ns() - start
        self.samples_ns.append(elapsed)
        return elapsed

    def edge(self) -> None:
        for _ in range(REF_EDGE_SAMPLES):
            self.sample()

    def metrics(self) -> dict[str, float]:
        steal0, total0 = self.ticks0
        steal1, total1 = read_cpu_ticks()
        ms = sorted(s / 1e6 for s in self.samples_ns)
        p10 = ms[len(ms) // 10]
        return {
            "host.ref_loop_ms": statistics.median(ms),
            "host.slow_share": sum(s > SLOW_FACTOR * p10 for s in ms) / len(ms),
            "host.steal_share": (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0,
        }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Counts:
    """Output counters of the ops, turned into the non-timing per-layer metrics."""

    def __init__(self) -> None:
        self.sums = Counter()
        self.rel_err = 0.0
        self.efficiency: list[float] = []
        self.bytes_out: list[int] = []
        self.traced_symbols = 0

    def add(self, c: dict, traced: bool) -> None:
        for key in ("vol_exact", "vol_total", "code_exact", "code_total", "exit_nonzero"):
            self.sums[key] += c.get(key, 0)
        self.rel_err = max(self.rel_err, c.get("rel_err", 0.0))
        self.efficiency += c.get("efficiency", [])
        self.bytes_out.append(c.get("bytes_out", 0))
        if traced:
            self.traced_symbols += c.get("symbols", 0)

    def metrics(self, stats) -> dict[str, float]:
        s = self.sums
        out = {
            "entropy.exact_share": s["vol_exact"] / s["vol_total"] if s["vol_total"] else 0.0,
            "entropy.identity_rel_err": self.rel_err,
            "coding.exact_share": s["code_exact"] / s["code_total"] if s["code_total"] else 0.0,
            "coding.efficiency": statistics.median(self.efficiency) if self.efficiency else 0.0,
            "coding.frame_bits.bytes_out": statistics.median(self.bytes_out) if self.bytes_out else 0,
            "cli.exit_nonzero": s["exit_nonzero"],
        }
        for call in ("encode", "decode"):
            ns = stats.total_ns(f"coding.{call}")
            out[f"coding.{call}.msym_per_s"] = self.traced_symbols * 1e3 / ns if ns else 0.0
        return out


def checked(workload, k: int, out: dict) -> list[str]:
    """The failed checks of one op; output that breaks a check fails it too."""
    try:
        return workload.check(k, out)
    except Exception as exc:  # malformed output, e.g. CLI stdout that is not JSON
        return [f"{workload.name}.check_raised.{type(exc).__name__}"]


def run_loop(workload, seconds: float, tracer, failures: Counter) -> dict:
    """The timed closed loop: one op at a time until `seconds` have passed.

    With a tracer, odd ops run traced and even ops untraced, each pair on the
    same input, so the overhead ratio compares like with like.
    """
    stats, counts, host = LayerStats(), Counts(), HostMonitor()
    latencies_ns: list[int] = []
    group_ns, group_n = [0, 0], [0, 0]  # [untraced, traced]
    failed = ref_ns = 0
    host.edge()
    start = time.perf_counter()
    deadline, hard_deadline = start + seconds, start + 2 * seconds
    next_ref = start + REF_EVERY_S
    i = 1
    while True:
        now = time.perf_counter()
        if now >= hard_deadline or (now >= deadline and len(latencies_ns) >= MIN_OPS):
            break
        if now >= next_ref:
            ref_ns += host.sample()
            next_ref = time.perf_counter() + REF_EVERY_S
        traced = tracer is not None and i % 2 == 1
        k = i // 2 if tracer is not None else i
        if traced:
            tracer.install()
        t0 = time.perf_counter_ns()
        try:
            out = workload.op(k, tracer if traced else None)
        except Exception as exc:  # an op that raises counts as failed
            out = None
            failures[f"{workload.name}.raised.{type(exc).__name__}"] += 1
        elapsed = time.perf_counter_ns() - t0
        if traced:
            tracer.uninstall()
        latencies_ns.append(elapsed)
        group_ns[traced] += elapsed
        group_n[traced] += 1
        bad = ["raised"] if out is None else checked(workload, k, out)
        failed += bool(bad)
        if out is not None:
            failures.update(bad)
            counts.add(workload.counters(k, out), traced)
        if traced:
            stats.add_op(tracer.records, elapsed)
            tracer.records.clear()
            workload.trace_extra(group_n[1], tracer)
            stats.add_extra(tracer.records)
            tracer.records.clear()
        i += 1
    loop_s = time.perf_counter() - start - ref_ns / 1e9
    host.edge()

    lat_ms = sorted(x / 1e6 for x in latencies_ns)
    p90 = statistics.quantiles(lat_ms, n=10)[8]
    above_p90 = sum(x > p90 for x in lat_ms)
    if above_p90 < MIN_ABOVE_P90:
        failures[f"run.fewer_than_{MIN_ABOVE_P90}_above_p90"] += 1
    result = {
        "attempted": len(lat_ms),
        "failed": failed,
        "traced_ops": group_n[1],
        "above_p90": above_p90,
        "host": host.metrics(),
        "e2e": {
            "ops_per_s": (len(lat_ms) - failed) / loop_s,
            "p50_ms": statistics.median(lat_ms),
            "p90_ms": p90,
            "peak_rss_mb": peak_rss_mb(children=workload.runs_in_children),
        },
    }
    if tracer is not None:
        layers = stats.metrics(sorted(set().union(*stats.per_op_total)))
        layers.update(counts.metrics(stats))
        layers["trace.overhead"] = (group_n[0] / group_ns[0]) / (group_n[1] / group_ns[1])
        result["layers"] = {**layers, **result["host"]}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    spec = json.loads((HERE / "spec.json").read_text())
    args.scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.scratch))
    try:
        workload = WORKLOADS[args.workload](args.seed, spec["workloads"][args.workload]["params"], workdir)
        failures: Counter[str] = Counter(checked(workload, 0, workload.op(0, None)))
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "failures": failures}))
            return 0
        result = run_loop(workload, args.seconds, Tracer() if args.trace else None, failures)
        result.update(setup_s=setup_s, failures=failures, probes=run_probes())
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
