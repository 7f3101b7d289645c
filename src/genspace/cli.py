"""Command-line frontend.

Commands:
  analyze DIST          D and counts (not reduced fractions), volumes, entropies
  code build DIST       derive a prefix code, write its table
  code encode TABLE SYMBOLS OUT
  code decode TABLE STREAM [OUT]
  table1                effective dimensions of four reference coins
  check JOINT           elementary information inequalities on a joint

Exit codes: 0 success, 2 input error (including a number too large for a
float, an `analyze` volume or a `code build` average length with more
digits than Python prints, a `code build` table path that is the
distribution file, and a `code encode` or `code decode` output path that
is one of its inputs), 3 codec/framing error, 4 an inequality check failed.
A reader that closes stdout early (`genspace code decode T S | head -c1`)
ends it quietly with 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable

from ._decoder import decode_hex
from .coding import (
    DecodeError,
    _unframe,
    average_length,
    build_generic_code,
    encode,
    format_code_table,
    frame_bits,
    parse_code_table,
)
from .distribution import _int_tokens, parse_distribution
from .entropy import (
    DEFAULT_EXACT_LIMIT,
    combinatorial_volumes,
    effective_dimension,
    entropy_suite,
)
from .joint import check_inequalities, parse_joint

TABLE1_DISTRIBUTIONS = (
    "1/2 1/2",
    "1/4 3/4",
    "1/16 15/16",
    "1/256 255/256",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="genspace", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a distribution file")
    p.add_argument("dist_file", type=Path)
    p.add_argument("--renyi", type=float, metavar="R",
                   help="also report the Renyi entropy of this order")
    p.add_argument("--tsallis", type=float, metavar="Q",
                   help="also report the Tsallis entropy of this order")
    p.add_argument("--base", type=int, default=2, metavar="B",
                   help="logarithm base for entropies (integer >= 2, default 2)")
    p.add_argument("--exact-limit", type=int, default=DEFAULT_EXACT_LIMIT,
                   metavar="L", help="largest dimension for exact volumes")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(handler=run_analyze)

    p = sub.add_parser("code", help="prefix-code operations")
    code_sub = p.add_subparsers(dest="code_command", required=True)

    b = code_sub.add_parser("build", help="build a code from a distribution")
    b.add_argument("dist_file", type=Path)
    b.add_argument("-o", "--output", type=Path, default=None,
                   help="code table path (default: distribution file with .code suffix)")
    b.add_argument("--json", action="store_true", help="emit JSON instead of text")
    b.set_defaults(handler=run_code_build)

    e = code_sub.add_parser("encode", help="encode symbol indices into a bit stream")
    e.add_argument("table_file", type=Path)
    e.add_argument("symbols_file", type=Path)
    e.add_argument("output_file", type=Path)
    e.set_defaults(handler=run_code_encode)

    d = code_sub.add_parser("decode", help="decode a bit stream back to indices")
    d.add_argument("table_file", type=Path)
    d.add_argument("stream_file", type=Path)
    d.add_argument("output_file", type=Path, nargs="?", default=None)
    d.set_defaults(handler=run_code_decode)

    p = sub.add_parser("table1", help="reference coin distributions and dimensions")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(handler=run_table1)

    p = sub.add_parser("check", help="verify information inequalities on a joint file")
    p.add_argument("joint_file", type=Path)
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(handler=run_check)

    return parser


def _json(value: object) -> str:
    """`value` as indented JSON; NaN or infinity raises ValueError (exit 2)."""
    return json.dumps(value, indent=2, allow_nan=False)


def _decimal(value: int, what: str, hint: str = "") -> str:
    """str(value) of an int >= 0; past int()'s digit limit, a ValueError that gives both."""
    try:
        return str(value)
    except ValueError:  # only a nonzero limit refuses
        limit = sys.get_int_max_str_digits()
    # The estimate from the bit length never exceeds the digit count.
    digits = int((value.bit_length() - 1) * math.log10(2))
    while value >= 10**digits:
        digits += 1
    raise ValueError(f"{what} has {digits} digits, more than the {limit} that Python prints{hint}")


def _output(out: Path, label: str, inputs: dict[str, Path]) -> Callable[[bytes], None]:
    """Refuse (ValueError, exit 2) an existing `out` that is a named input; else its writer.

    The writer fills a temporary file next to a new or regular `out` and renames
    it over `out`, so a failure leaves no partial file; a FIFO or /dev/stdout is
    written in place.
    """
    for name, path in inputs.items():
        if out.exists() and path.exists() and out.samefile(path):
            raise ValueError(f"{label} {out} would overwrite the {name}")

    def write(data: bytes) -> None:
        if out.exists() and not out.is_file():
            out.write_bytes(data)
            return
        target = Path(os.path.realpath(out))
        tmp = target.with_name(f".{target.name}.{os.urandom(6).hex()}")
        try:
            tmp.write_bytes(data)
            if target.exists():
                tmp.chmod(target.stat().st_mode & 0o7777)
            tmp.replace(target)
        except BaseException as exc:
            tmp.unlink(missing_ok=True)
            if isinstance(exc, OSError):  # name the output, not the temporary file
                raise OSError(exc.errno, exc.strerror, str(out)) from None
            raise

    return write


def run_analyze(args: argparse.Namespace) -> int:
    if args.exact_limit < 1:
        raise ValueError(f"--exact-limit must be >= 1, got {args.exact_limit}")
    dist = parse_distribution(args.dist_file.read_text())
    # Every token was under the digit limit, but D, their lcm, may not be; no count exceeds D.
    d_text = _decimal(dist.dimension, "generic dimension D")
    volumes = combinatorial_volumes(dist, args.exact_limit)
    if volumes.exact_computed:
        # v_uinfo = D**D is the largest exact value: v_info and the ratio's terms are no larger.
        _decimal(volumes.v_uinfo, "exact volume v_uinfo", "; lower --exact-limit")
    suite = entropy_suite(dist, args.base, args.renyi, args.tsallis)
    h_renyi = suite.renyi[1] if suite.renyi else None
    h_tsallis = suite.tsallis[1] if suite.tsallis else None

    if args.json:
        report = {
            "D": dist.dimension,
            "counts": list(dist.counts),
            "v_info": volumes.v_info,
            "v_uinfo": volumes.v_uinfo,
            "exact_computed": volumes.exact_computed,
            # D * H past the float range is null; no other field can leave it.
            "log2_ratio": volumes.log2_ratio if math.isfinite(volumes.log2_ratio) else None,
            "H_shannon": suite.shannon,
            "H_shannon_via_ratio": suite.shannon_via_ratio,
            "eff_dim": suite.effective_dimension,
            "H_renyi": h_renyi,
            "H_tsallis": h_tsallis,
            "H_projection": suite.projection,
            "base": args.base,
        }
        print(_json(report))
        return 0

    # The whole report is built before any of it is printed.
    exact, skipped = volumes.exact_computed, f"(skipped, D > {args.exact_limit})"
    lines = [
        f"N (outcomes):        {dist.size}",
        f"D (generic dim):     {d_text}",
        f"counts:              {' '.join(str(c) for c in dist.counts)}",
        f"v_info:              {volumes.v_info if exact else skipped}",
        f"v_uinfo:             {volumes.v_uinfo if exact else skipped}",
        *([f"ratio:               {volumes.ratio}"] if exact else []),
        f"log2_ratio:          {volumes.log2_ratio:.12g}",
        f"H_shannon:           {suite.shannon:.12g}",
        f"H_shannon_via_ratio: {suite.shannon_via_ratio:.12g}",
        f"eff_dim:             {suite.effective_dimension:.12g}",
        f"H_projection:        {suite.projection:.12g}",
        *([f"H_renyi({args.renyi:g}):        {h_renyi:.12g}"] if h_renyi is not None else []),
        *([f"H_tsallis({args.tsallis:g}):      {h_tsallis:.12g}"] if h_tsallis is not None else []),
        f"base:                {args.base}",
    ]
    print("\n".join(lines))
    return 0


def run_code_build(args: argparse.Namespace) -> int:
    out = args.output or args.dist_file.with_suffix(".code")
    write = _output(out, "code table", {"distribution file": args.dist_file})
    dist = parse_distribution(args.dist_file.read_text())
    code = build_generic_code(dist)
    stats = average_length(code, dist)
    avg = stats.average_length
    # Format the output first, so that a failure leaves no table behind.
    avg_text = (_decimal(avg.numerator, "average length numerator") + "/"
                + _decimal(avg.denominator, "average length denominator"))
    if args.json:
        report = _json({
            "mode": code.mode,
            "codewords": list(code.codewords),
            "average_length": avg_text,
            "entropy_gap": stats.entropy_gap,
            "table": str(out),
        })
    else:
        report = f"wrote code table to {out}\navg = {avg_text} ({code.mode} mode)"
    write(format_code_table(code).encode())
    print(report)
    return 0


def run_code_encode(args: argparse.Namespace) -> int:
    write = _output(args.output_file, "output",
                    {"code table": args.table_file, "symbols file": args.symbols_file})
    code = parse_code_table(args.table_file.read_text())
    tokens = args.symbols_file.read_text().split()
    try:
        symbols = _int_tokens(tokens)
    except ValueError:
        raise ValueError("symbols file must hold whitespace-separated integers") from None
    bits = encode(code, symbols)
    write(frame_bits(bits))
    print(f"encoded {len(symbols)} symbols into {len(bits)} bits")
    return 0


def run_code_decode(args: argparse.Namespace) -> int:
    inputs = {"code table": args.table_file, "stream file": args.stream_file}
    write = args.output_file and _output(args.output_file, "output", inputs)
    code = parse_code_table(args.table_file.read_text())
    symbols = decode_hex(code.codewords, *_unframe(args.stream_file.read_bytes()))
    names = [str(i) for i in range(code.size)]
    text = " ".join([names[s] for s in symbols]) + "\n"
    if write:
        write(text.encode())
        print(f"decoded {len(symbols)} symbols to {args.output_file}")
    else:
        sys.stdout.write(text)
    return 0


def run_table1(args: argparse.Namespace) -> int:
    rows = []
    for text in TABLE1_DISTRIBUTIONS:
        dist = parse_distribution(text)
        rows.append((text, dist.dimension, effective_dimension(dist)))
    if args.json:
        print(_json([{"distribution": t, "D": d, "eff_dim": round(e, 4)} for t, d, e in rows]))
        return 0
    print(f"{'distribution':<16} {'D':>4}  {'eff_dim':>8}")
    for text, dim, eff in rows:
        print(f"{text:<16} {dim:>4}  {eff:>8.4f}")
    return 0


def run_check(args: argparse.Namespace) -> int:
    joint = parse_joint(args.joint_file.read_text())
    report = check_inequalities(joint)
    verdicts = {
        "H(X) >= H(X|Y)": report.conditioning_reduces_entropy,
        "I(X;Y) >= 0": report.mi_nonnegative,
        "I(X;Y) == I(Y;X)": report.mi_symmetric,
        "independence => I == 0": report.independence_consistent,
    }
    if args.json:
        print(_json({
            "H_x": report.h_x,
            "H_y": report.h_y,
            "H_joint": report.h_joint,
            "H_x_given_y": report.h_x_given_y,
            "H_y_given_x": report.h_y_given_x,
            "I_xy": report.mi_xy,
            "I_yx": report.mi_yx,
            "independent": report.independent,
            "verdicts": {k: ("PASS" if v else "FAIL") for k, v in verdicts.items()},
            "all_pass": report.all_pass,
        }))
    else:
        print(f"H(X)   = {report.h_x:.12g}")
        print(f"H(Y)   = {report.h_y:.12g}")
        print(f"H(X,Y) = {report.h_joint:.12g}")
        print(f"H(X|Y) = {report.h_x_given_y:.12g}")
        print(f"H(Y|X) = {report.h_y_given_x:.12g}")
        print(f"I(X;Y) = {report.mi_xy:.12g}")
        print(f"independent: {'yes' if report.independent else 'no'}")
        for name, ok in verdicts.items():
            print(f"{name}: {'PASS' if ok else 'FAIL'}")
    return 0 if report.all_pass else 4


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except DecodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
