"""The four benchmark workloads: input generation, one op, and its output checks.

Every input is generated from the run seed during set-up; an op only hands
those inputs to the library (or to the CLI) and returns what came back.
`check` compares the outputs with the paper's identities and returns the
names of the checks that failed.  Each workload keeps one op shape, so the
latency percentiles of a run describe one kind of op.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

# numpy and genspace.born are imported by BornMeasure alone, so the other
# workloads load only what the program itself imports.
from genspace import coding, distribution, entropy, joint

# Tolerances of the output checks: the volume-ratio entropy against the
# direct entropy (relative), measured probability sums, Born probabilities.
IDENTITY_RTOL = 1e-9
PROB_SUM_TOL = 1e-9
BORN_TOL = 1e-12


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """`parts` positive integers summing to `total`, from distinct cut points."""
    cuts: set[int] = set()
    while len(cuts) < parts - 1:
        cuts.add(rng.randrange(1, total))
    cuts = sorted(cuts)
    edges = [0, *cuts, total]
    return [b - a for a, b in zip(edges, edges[1:])]


def _dist_text(counts: list[int], dimension: int) -> str:
    return " ".join(f"{f.numerator}/{f.denominator}" for f in (Fraction(c, dimension) for c in counts))


def _wide_dimension(rng: random.Random, bits: int) -> int:
    return rng.getrandbits(bits) | (1 << (bits - 1)) | 1


def _kraft_le_one(lengths, exact: bool) -> bool:
    """Kraft sum <= 1 (or == 1 when `exact`), in integers."""
    top = max(lengths)
    total = sum(1 << (top - n) for n in lengths)
    return total == 1 << top if exact else total <= 1 << top


def _block(rng: random.Random, counts: list[int], dimension: int, size: int) -> list[int]:
    """`size` symbols in the exact proportions counts/dimension, shuffled.

    Exact proportions fix the number of coded bits for a given count
    multiset, so the op cost does not drift with the seed.
    """
    quota = [size * c // dimension for c in counts]
    rest = sorted(range(len(counts)), key=lambda i: -(size * counts[i] % dimension))
    for i in rest[: size - sum(quota)]:
        quota[i] += 1
    symbols = [s for s, q in enumerate(quota) for _ in range(q)]
    rng.shuffle(symbols)
    return symbols


class Workload:
    name = ""
    # True when the ops run in child processes, whose peak RSS is reported.
    runs_in_children = False

    def op(self, i: int, tracer) -> dict:
        raise NotImplementedError

    def check(self, i: int, out: dict) -> list[str]:
        raise NotImplementedError

    def counters(self, i: int, out: dict) -> dict:
        """Per-op counts for the per-layer metrics, read from the outputs."""
        c = {"symbols": out.get("symbols", 0), "bytes_out": out.get("bytes_out", 0)}
        volumes = out.get("volumes", [])
        c["vol_exact"] = sum(v.exact_computed for v in volumes)
        c["vol_total"] = len(volumes)
        codes = out.get("codes", [])
        c["code_exact"] = sum(code.mode == "exact" for code, _, _ in codes)
        c["code_total"] = len(codes)
        c["efficiency"] = [h / float(stats.average_length) for _, stats, h in codes]
        return c

    def trace_extra(self, i: int, tracer) -> None:
        """Spans recorded between ops in the traced run; none by default."""


def _identity_rel_err(out: dict) -> float:
    """Largest |H via the volume ratio - H| / H over both ratio routes."""
    h = out["suite"].shannon
    via_volumes = out["volumes"][0].log2_ratio / out["space"].dimension
    return max(abs(out["suite"].shannon_via_ratio - h), abs(via_volumes - h)) / h


class AnalyzeWide(Workload):
    """One wide distribution through every Fraction-heavy layer, plus a joint check."""

    name = "analyze_wide"

    def __init__(self, seed: int, params: dict, workdir: Path):
        rng = random.Random(seed)
        self.params = params
        self.inputs = []
        for _ in range(params["inputs"]):
            while True:
                d = _wide_dimension(rng, params["d_bits"])
                text = _dist_text(_split(rng, d, params["outcomes"]), d)
                # Keep inputs whose reduced tokens give back exactly D.
                if math.lcm(*(int(t.split("/")[1]) for t in text.split())) == d:
                    break
            side = params["joint_side"]
            jd = _wide_dimension(rng, params["joint_d_bits"])
            cells = _split(rng, jd, side * side)
            rows = [_dist_text(cells[r * side : (r + 1) * side], jd) for r in range(side)]
            self.inputs.append((d, text, f"{side} {side}\n" + "\n".join(rows) + "\n"))

    def op(self, i, tracer):
        _, text, joint_text = self.inputs[i % len(self.inputs)]
        p = self.params
        dist = distribution.parse_distribution(text)
        space = distribution.generic_space(dist)
        volumes = entropy.combinatorial_volumes(space)
        suite = entropy.entropy_suite(dist, renyi_order=p["renyi_order"], tsallis_order=p["tsallis_order"])
        code = coding.build_generic_code(space)
        stats = coding.average_length(code, dist)
        huffman = coding.huffman_oracle(dist)
        huffman_stats = coding.average_length(huffman, dist)
        report = joint.check_inequalities(joint.parse_joint(joint_text))
        return {
            "space": space,
            "volumes": [volumes],
            "suite": suite,
            "codes": [(code, stats, suite.shannon)],
            "huffman_stats": huffman_stats,
            "report": report,
        }

    def check(self, i, out):
        failed = []
        d = self.inputs[i % len(self.inputs)][0]
        code, stats, h = out["codes"][0]
        if out["space"].dimension != d:
            failed.append("analyze_wide.generic_dimension")
        if _identity_rel_err(out) > IDENTITY_RTOL:
            failed.append("analyze_wide.volume_ratio_identity")
        if not _kraft_le_one(code.lengths(), exact=False):
            failed.append("analyze_wide.kraft")
        if not h * (1 - 1e-12) <= float(stats.average_length) < h + 1:
            failed.append("analyze_wide.average_length_bound")
        if out["huffman_stats"].average_length > stats.average_length:
            failed.append("analyze_wide.huffman_optimality")
        if not out["report"].all_pass:
            failed.append("analyze_wide.joint_all_pass")
        return failed

    def counters(self, i, out):
        return {**super().counters(i, out), "rel_err": _identity_rel_err(out)}


def _dyadic_counts(symbols: int, dimension: int) -> list[int]:
    """A fixed multiset of power-of-two counts summing to `dimension`, one of them 1."""
    rng = random.Random(4096)
    counts = [dimension]
    # A chain down to 1 makes the reduced denominators reach D itself.
    while counts[-1] > 1:
        half = counts.pop() // 2
        counts += [half, half]
    while len(counts) < symbols:
        j = rng.choice([k for k, c in enumerate(counts) if c > 1])
        half = counts.pop(j) // 2
        counts += [half, half]
    return sorted(counts, reverse=True)


def _fallback_counts(symbols: int, dimension: int) -> list[int]:
    """A fixed multiset of counts summing to a non-power-of-two `dimension`."""
    return sorted(_split(random.Random(4093), dimension, symbols), reverse=True)


class CodecStream(Workload):
    """Two codes per op, each round-tripping a block through the GSC1 stream."""

    name = "codec_stream"

    def __init__(self, seed: int, params: dict, workdir: Path):
        rng = random.Random(seed)
        n = params["symbols"]
        self.inputs = []
        for _ in range(params["inputs"]):
            codes = []
            for counts, d, exact_limit in (
                (_dyadic_counts(n, params["dyadic_d"]), params["dyadic_d"], params["dyadic_d"]),
                (_fallback_counts(n, params["fallback_d"]), params["fallback_d"], entropy.DEFAULT_EXACT_LIMIT),
            ):
                counts = counts[:]
                rng.shuffle(counts)
                codes.append((_dist_text(counts, d), exact_limit, _block(rng, counts, d, params["block"])))
            self.inputs.append(codes)

    def op(self, i, tracer):
        out = {"volumes": [], "codes": [], "decoded": [], "bytes_out": 0, "symbols": 0}
        for text, exact_limit, symbols in self.inputs[i % len(self.inputs)]:
            dist = distribution.parse_distribution(text)
            space = distribution.generic_space(dist)
            out["volumes"].append(entropy.combinatorial_volumes(space, exact_limit))
            code = coding.build_generic_code(space)
            stats = coding.average_length(code, dist)
            blob = coding.frame_bits(coding.encode(code, symbols))
            out["decoded"].append(coding.decode(code, coding.unframe_bits(blob)))
            out["codes"].append((code, stats, float(stats.average_length) - stats.entropy_gap))
            out["bytes_out"] += len(blob)
            out["symbols"] += len(symbols)
        return out

    def check(self, i, out):
        failed = []
        blocks = [symbols for _, _, symbols in self.inputs[i % len(self.inputs)]]
        if out["decoded"] != blocks:
            failed.append("codec_stream.round_trip")
        (exact_code, exact_stats, _), (fallback_code, _, _) = out["codes"]
        if not (
            exact_code.mode == "exact"
            and _kraft_le_one(exact_code.lengths(), exact=True)
            and exact_stats.entropy_gap == 0
        ):
            failed.append("codec_stream.exact_code")
        if not _kraft_le_one(fallback_code.lengths(), exact=False):
            failed.append("codec_stream.fallback_kraft")
        return failed


def _orthonormal(rng, dim: int):
    import numpy as np

    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q


class BornMeasure(Workload):
    """A mixed state measured two ways, Born probabilities and sampling."""

    name = "born_measure"

    def __init__(self, seed: int, params: dict, workdir: Path):
        import numpy as np

        from genspace import born

        self.born = born
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.draws = params["draws"]
        dim, groups = params["dim"], params["povm_ops"]
        width = dim // groups
        self.inputs = []
        for _ in range(params["inputs"]):
            a = rng.standard_normal((dim, dim))
            rho = a @ a.T
            rho = (rho + rho.T) / 2
            rho /= np.trace(rho)
            q = _orthonormal(rng, dim)
            povm = []
            for g in range(groups):
                block = q[:, g * width : (g + 1) * width]
                op = block @ block.T
                povm.append((op + op.T) / 2)
            basis = list(_orthonormal(rng, dim).T)
            # A prime denominator keeps every reduced probability over it.
            counts = _split(random.Random(int(rng.integers(1 << 62))), 10007, params["outcomes"])
            dist = distribution.ExactDistribution(Fraction(c, 10007) for c in counts)
            self.inputs.append((rho, povm, basis, dist))
        self.axes = [born.JspsVector(row) for row in np.eye(params["outcomes"])]

    def op(self, i, tracer):
        rho_entries, povm_ops, basis, dist = self.inputs[i % len(self.inputs)]
        born = self.born
        rho = born.DensityMatrix(rho_entries)
        povm = born.MeasurementSet(povm_ops)
        von_neumann = born.MeasurementSet.von_neumann(basis)
        psi = born.jsps_from_distribution(dist)
        return {
            "measured": [born.measure(rho, povm), born.measure(rho, von_neumann)],
            "born": [born.born_probability(psi, axis) for axis in self.axes],
            "counts": born.sample(psi, seed=self.seed * 1000003 + i, draws=self.draws),
        }

    def check(self, i, out):
        failed = []
        dist = self.inputs[i % len(self.inputs)][3]
        if any(abs(math.fsum(p) - 1) > PROB_SUM_TOL or min(p) < -PROB_SUM_TOL for p in out["measured"]):
            failed.append("born_measure.probability_sum")
        if any(abs(b - float(p)) > BORN_TOL for b, p in zip(out["born"], dist.probs)):
            failed.append("born_measure.born_rule")
        if sum(out["counts"]) != self.draws or len(out["counts"]) != dist.size:
            failed.append("born_measure.sample_count")
        return failed


class CliCommands(Workload):
    """One `python -m genspace.cli` subprocess per op, cycling six commands."""

    name = "cli_commands"
    runs_in_children = True

    def __init__(self, seed: int, params: dict, workdir: Path):
        rng = random.Random(seed)
        self.workdir = workdir
        self.every = params["import_probe_every"]

        d = 1 << 10
        dist_text = _dist_text(_split(rng, d, params["outcomes"]), d)
        dist = distribution.parse_distribution(dist_text)
        space = distribution.generic_space(dist)
        self.dimension = space.dimension
        self.shannon = entropy.shannon_entropy(dist)
        code = coding.build_generic_code(space)
        self.table = coding.format_code_table(code)
        self.symbols = [rng.randrange(params["outcomes"]) for _ in range(params["encode_symbols"])]
        self.stream = coding.frame_bits(coding.encode(code, self.symbols))
        side = params["joint_side"]
        jd = 1 << 12
        cells = _split(rng, jd, side * side)
        joint_text = f"{side} {side}\n" + "".join(
            _dist_text(cells[r * side : (r + 1) * side], jd) + "\n" for r in range(side)
        )
        files = {
            "in.dist": dist_text,
            "in.code": self.table,
            "in.sym": " ".join(map(str, self.symbols)) + "\n",
            "in.joint": joint_text,
        }
        for name, text in files.items():
            (workdir / name).write_text(text)
        (workdir / "in.gsc").write_bytes(self.stream)
        self.commands = {
            "analyze": (["analyze", "in.dist", "--json"], None),
            "code_build": (["code", "build", "in.dist", "-o", "out.code"], "out.code"),
            "code_encode": (["code", "encode", "in.code", "in.sym", "out.gsc"], "out.gsc"),
            "code_decode": (["code", "decode", "in.code", "in.gsc", "out.sym"], "out.sym"),
            "check": (["check", "in.joint", "--json"], None),
            "table1": (["table1", "--json"], None),
        }
        self.order = params["commands"]

    def _run(self, args, tracer, span):
        cmd = [sys.executable, *args]
        # The children inherit PYTHONPATH, which run.py points at src/.
        kwargs = dict(cwd=self.workdir, capture_output=True, text=True, timeout=60)
        if tracer is None:
            return subprocess.run(cmd, **kwargs)
        return tracer.call(span, subprocess.run, cmd, **kwargs)

    def op(self, i, tracer):
        name = self.order[i % len(self.order)]
        args, output = self.commands[name]
        if output is not None:
            (self.workdir / output).unlink(missing_ok=True)
        proc = self._run(["-m", "genspace.cli", *args], tracer, f"cli.{name}")
        return {"command": name, "proc": proc}

    def check(self, i, out):
        name, proc = out["command"], out["proc"]
        if proc.returncode != 0:
            return [f"cli_commands.{name}.exit_code"]
        output = self.commands[name][1]
        ok = True
        if name == "analyze":
            report = json.loads(proc.stdout)
            ok = report["D"] == self.dimension and abs(report["H_shannon"] - self.shannon) <= 1e-12 * self.shannon
        elif name == "code_build":
            ok = (self.workdir / output).read_text() == self.table
        elif name == "code_encode":
            ok = (self.workdir / output).read_bytes() == self.stream
        elif name == "code_decode":
            ok = [int(t) for t in (self.workdir / output).read_text().split()] == self.symbols
        elif name == "check":
            ok = json.loads(proc.stdout)["all_pass"] is True
        elif name == "table1":
            ok = [row["D"] for row in json.loads(proc.stdout)] == [2, 4, 16, 256]
        return [] if ok else [f"cli_commands.{name}.output"]

    def counters(self, i, out):
        return {"exit_nonzero": int(out["proc"].returncode != 0)}

    def trace_extra(self, i, tracer):
        if i % self.every == 0:
            self._run(["-c", "import genspace.cli"], tracer, "cli.import")


WORKLOADS = {cls.name: cls for cls in (AnalyzeWide, CodecStream, BornMeasure, CliCommands)}
