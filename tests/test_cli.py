import argparse
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genspace import cli, frame_bits, unframe_bits
from genspace.cli import build_parser, main

ANALYZE_KEYS = {
    "D",
    "counts",
    "v_info",
    "v_uinfo",
    "exact_computed",
    "log2_ratio",
    "H_shannon",
    "H_shannon_via_ratio",
    "eff_dim",
    "H_renyi",
    "H_tsallis",
    "H_projection",
    "base",
}


@pytest.fixture
def shannon_dist(tmp_path):
    path = tmp_path / "shannon.dist"
    path.write_text("1/2 1/4 1/8 1/8\n")
    return path


@pytest.fixture
def coin_dist(tmp_path):
    path = tmp_path / "coin.dist"
    path.write_text("1/4 3/4\n")
    return path


@pytest.fixture
def bent_dist(tmp_path):
    path = tmp_path / "bent.dist"
    path.write_text("2/3 1/3\n")
    return path


class TestAnalyze:
    def test_text_report(self, shannon_dist, capsys):
        assert main(["analyze", str(shannon_dist)]) == 0
        out = capsys.readouterr().out
        assert "D (generic dim):     8" in out
        assert "4 2 1 1" in out
        assert "1.75" in out
        assert "3.36358" in out  # effective dimension 2^(7/4)

    def test_json_report(self, coin_dist, capsys):
        assert main(["analyze", str(coin_dist), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == ANALYZE_KEYS
        assert report["D"] == 4
        assert report["counts"] == [1, 3]
        assert report["eff_dim"] == pytest.approx(1.7548, abs=5e-4)
        assert report["H_renyi"] is None

    def test_exact_volumes_in_json(self, shannon_dist, capsys):
        assert main(["analyze", str(shannon_dist), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["v_info"] == 1024
        assert report["v_uinfo"] == 16777216
        assert report["exact_computed"] is True
        assert report["log2_ratio"] == pytest.approx(14.0)

    def test_exact_limit_flag(self, shannon_dist, capsys):
        assert main(["analyze", str(shannon_dist), "--json", "--exact-limit", "4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["v_info"] is None
        assert report["exact_computed"] is False
        assert report["log2_ratio"] == pytest.approx(14.0)

    def test_bad_sum_exits_2_with_exact_sum(self, tmp_path, capsys):
        bad = tmp_path / "bad.dist"
        bad.write_text("1/3 1/3\n")
        assert main(["analyze", str(bad)]) == 2
        assert "2/3" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.dist")]) == 2

    def test_base_flag(self, shannon_dist, capsys):
        assert main(["analyze", str(shannon_dist), "--json", "--base", "4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["H_shannon"] == pytest.approx(0.875)
        assert report["base"] == 4

    def test_invalid_base_exits_2(self, shannon_dist, capsys):
        # entropy_suite refuses the base; the CLI adds no check of its own.
        for base in ("1", "0", "-3"):
            assert main(["analyze", str(shannon_dist), "--base", base]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: logarithm base must be an integer >= 2, got {base}\n"

    def test_token_past_the_digit_limit_names_the_token(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "long.dist"
        path.write_text("1/2 1/" + "9" * (limit + 100) + "\n")
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: malformed probability token '1/" + "9" * 18 + "...'")
        assert f"({limit + 100} digits; at most {limit})" in captured.err

    def test_renyi_and_tsallis_flags(self, coin_dist, capsys):
        assert main(
            ["analyze", str(coin_dist), "--json", "--renyi", "2", "--tsallis", "2"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["H_renyi"] == pytest.approx(0.6780719051126377, abs=1e-9)
        assert report["H_tsallis"] == pytest.approx(1 - (1 / 16 + 9 / 16), abs=1e-12)

    def test_order_one_maps_to_shannon(self, coin_dist, capsys):
        assert main(["analyze", str(coin_dist), "--json", "--renyi", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["H_renyi"] == pytest.approx(report["H_shannon"], abs=1e-12)

    def test_tsallis_order_one_maps_to_natural_log_shannon(self, coin_dist, capsys):
        import math

        assert main(["analyze", str(coin_dist), "--json", "--tsallis", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["H_tsallis"] == pytest.approx(
            report["H_shannon"] * math.log(2), abs=1e-12
        )

    # Values printed by `analyze --renyi 1 --tsallis 1 --json` before the
    # order-1 limits moved from the CLI into entropy_suite.
    ORDER_ONE_GOLDEN = {
        ("1/4 3/4", 2): (0.8112781244591329, 0.5623351446188084, 1.7547653506033234),
        ("1/4 3/4", 10): (0.2442190502882156, 0.5623351446188084, 1.7547653506033234),
        ("1/6 1/10 11/15", 2): (1.0911564760544912, 0.756332034926896, 2.1304474645823346),
        ("1/6 1/10 11/15", 10): (0.3284708292554085, 0.756332034926896, 2.1304474645823346),
    }

    @pytest.mark.parametrize("text, base", list(ORDER_ONE_GOLDEN))
    def test_order_one_golden(self, text, base, tmp_path, capsys):
        path = tmp_path / "in.dist"
        path.write_text(text + "\n")
        args = ["analyze", str(path), "--json", "--renyi", "1", "--tsallis", "1"]
        assert main([*args, "--base", str(base)]) == 0
        report = json.loads(capsys.readouterr().out)
        shannon, tsallis, eff_dim = self.ORDER_ONE_GOLDEN[text, base]
        assert report["H_renyi"] == report["H_shannon"] == pytest.approx(shannon, rel=1e-12)
        assert report["H_tsallis"] == pytest.approx(tsallis, rel=1e-12)
        assert report["eff_dim"] == pytest.approx(eff_dim, rel=1e-12)

    def test_json_report_refuses_nan(self, coin_dist, capsys, monkeypatch):
        real = cli.entropy_suite
        monkeypatch.setattr(
            cli, "entropy_suite", lambda *args: real(*args)._replace(projection=math.nan)
        )
        assert main(["analyze", str(coin_dist), "--json"]) == 2
        assert "not JSON compliant" in capsys.readouterr().err

    def test_past_the_float_range_exits_0_with_a_finite_log2_ratio(self, tmp_path):
        # D itself is past the float range; the log volumes are inf, but
        # log2_ratio = D * H is not.
        d = 2**1100 + 1
        path = tmp_path / "huge.dist"
        path.write_text(f"3/{d} {d - 3}/{d}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "genspace.cli", "analyze", str(path), "--json"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)},
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        report = json.loads(proc.stdout)
        assert report["D"] == d
        assert math.isfinite(report["log2_ratio"]) and report["log2_ratio"] >= 0.0
        assert report["H_shannon"] == report["H_shannon_via_ratio"]

    def test_log2_ratio_past_the_float_range_is_inf(self, tmp_path, capsys):
        # H is about 0.918 bits, so D * H is about 2^1100: inf in the text
        # report, and refused by --json, which allows no infinity.
        d = 2**1100 + 1
        path = tmp_path / "wide.dist"
        path.write_text(f"{d // 3}/{d} {d - d // 3}/{d}\n")
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "log2_ratio:          inf\n" in out
        assert "H_shannon:           0.918295834054\n" in out
        assert main(["analyze", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: Out of range float values are not JSON compliant: inf\n"
        )

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_dimension_past_the_digit_limit_prints_nothing(
        self, tmp_path, capsys, digit_limit, json_flag
    ):
        # Each token is under the limit, but D = 2ab has 6001 digits.
        a, b = 10**3000 + 1, 10**3000 + 3
        path = tmp_path / "long.dist"
        path.write_text(f"1/{a} {a - 2}/{2 * a} 1/{b} {b - 2}/{2 * b}\n")
        assert main(["analyze", str(path), *json_flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: generic dimension D has 6001 digits, more than the 4300 that Python prints\n"
        )

    def test_renyi_order_1e308(self, tmp_path, capsys):
        # r * log2(1/16) would overflow to -inf, which --json refuses.
        path = tmp_path / "u16.dist"
        path.write_text("1/16 " * 16 + "\n")
        assert main(["analyze", str(path), "--json", "--renyi", "1e308"]) == 0
        assert json.loads(capsys.readouterr().out)["H_renyi"] == 4.0

    def test_certainty_prints_zero_not_negative_zero(self, tmp_path, capsys):
        path = tmp_path / "one.dist"
        path.write_text("1\n")
        assert main(["analyze", str(path), "--renyi", "2", "--tsallis", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "H_renyi(2):        0\n" in out and "H_tsallis(0.5):      0\n" in out
        assert main(["analyze", str(path), "--json", "--renyi", "2", "--tsallis", "0.5"]) == 0
        out = capsys.readouterr().out
        assert '"H_renyi": 0.0,' in out and '"H_tsallis": 0.0,' in out

    def test_exact_limit_below_one_exits_2(self, coin_dist, capsys):
        assert main(["analyze", str(coin_dist), "--exact-limit", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --exact-limit must be >= 1, got 0\n"

    def test_large_renyi_order(self, tmp_path, capsys):
        path = tmp_path / "fair.dist"
        path.write_text("1/2 1/2\n")
        assert main(["analyze", str(path), "--json", "--renyi", "2000"]) == 0
        assert json.loads(capsys.readouterr().out)["H_renyi"] == 1.0

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_exact_volume_past_the_digit_limit_prints_nothing(
        self, tmp_path, capsys, digit_limit, json_flag
    ):
        # D = 2048, so v_uinfo = 2048**2048 = 2**22528 has 6782 digits.
        path = tmp_path / "wide.dist"
        path.write_text("1/2048 2047/2048\n")
        assert main(["analyze", str(path), "--exact-limit", "4096", *json_flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: exact volume v_uinfo has 6782 digits, more than the 4300 that Python "
            "prints; lower --exact-limit\n"
        )
        # Past the exact limit the same file prints its full report.
        assert main(["analyze", str(path), "--exact-limit", "2047", *json_flag]) == 0
        assert "2047" in capsys.readouterr().out

    def test_orders_must_be_finite(self, coin_dist, capsys):
        for flag in ("--renyi", "--tsallis"):
            for order in ("nan", "inf", "-inf"):
                assert main(["analyze", str(coin_dist), "--json", f"{flag}={order}"]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert "must be finite" in captured.err
        # Order 1 is still the Shannon limit of both families.
        assert main(["analyze", str(coin_dist), "--json", "--renyi", "1", "--tsallis", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["H_renyi"] == report["H_shannon"]
        assert report["H_tsallis"] == pytest.approx(report["H_shannon"] * math.log(2), rel=1e-12)


class TestCode:
    def test_build_exact(self, shannon_dist, tmp_path, capsys):
        table = tmp_path / "shannon.code"
        assert main(["code", "build", str(shannon_dist)]) == 0
        out = capsys.readouterr().out
        assert "avg = 7/4" in out
        assert "exact mode" in out
        assert table.read_text() == "0\t0\n1\t10\n2\t110\n3\t111\n"

    def test_build_fallback(self, bent_dist, capsys):
        assert main(["code", "build", str(bent_dist)]) == 0
        out = capsys.readouterr().out
        assert "avg = 4/3" in out
        assert "fallback mode" in out

    def test_build_json(self, shannon_dist, capsys):
        assert main(["code", "build", str(shannon_dist), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "exact"
        assert report["codewords"] == ["0", "10", "110", "111"]
        assert report["average_length"] == "7/4"

    @pytest.mark.parametrize("extra", [[], ["--json"], ["-o", "named.code"]])
    def test_average_length_past_the_digit_limit_writes_no_table(
        self, tmp_path, capsys, digit_limit, extra
    ):
        # Each token is under the limit, but D = 2ab, and so the average
        # length's numerator and denominator, have 6001 digits.
        a, b = 10**3000 + 1, 10**3000 + 3
        path = tmp_path / "long.dist"
        path.write_text(f"1/{a} {a - 2}/{2 * a} 1/{b} {b - 2}/{2 * b}\n")
        extra = [str(tmp_path / x) if x.endswith(".code") else x for x in extra]
        assert main(["code", "build", str(path), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: average length numerator has 6001 digits, more than the 4300 that "
            "Python prints\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["long.dist"]

    def test_encode_decode_round_trip(self, shannon_dist, tmp_path, capsys):
        table = tmp_path / "shannon.code"
        symbols = tmp_path / "symbols.txt"
        stream = tmp_path / "out.gsc"
        decoded = tmp_path / "decoded.txt"
        symbols.write_text("0 1 0 3 2 2 1 0\n")
        assert main(["code", "build", str(shannon_dist)]) == 0
        assert main(["code", "encode", str(table), str(symbols), str(stream)]) == 0
        assert stream.read_bytes()[:4] == b"GSC1"
        assert main(["code", "decode", str(table), str(stream), str(decoded)]) == 0
        assert decoded.read_text().split() == symbols.read_text().split()

    def test_decode_to_stdout(self, shannon_dist, tmp_path, capsys):
        table = tmp_path / "shannon.code"
        symbols = tmp_path / "symbols.txt"
        stream = tmp_path / "out.gsc"
        symbols.write_text("3 2 1 0\n")
        main(["code", "build", str(shannon_dist)])
        main(["code", "encode", str(table), str(symbols), str(stream)])
        capsys.readouterr()
        assert main(["code", "decode", str(table), str(stream)]) == 0
        assert capsys.readouterr().out.strip() == "3 2 1 0"

    def test_decode_text_with_multi_digit_symbols(self, tmp_path, capsys):
        # 300 outcomes of 1/300: a 300-symbol fallback code of 9-bit words.
        dist = tmp_path / "u300.dist"
        dist.write_text("1/300 " * 300 + "\n")
        table, symbols, stream = (tmp_path / n for n in ("u300.code", "s.txt", "s.gsc"))
        sent = [0, 9, 10, 99, 100, 101, 255, 256, 299, 7, 299]
        symbols.write_text(" ".join(map(str, sent)) + "\n")
        assert main(["code", "build", str(dist)]) == 0
        assert main(["code", "encode", str(table), str(symbols), str(stream)]) == 0
        capsys.readouterr()
        assert main(["code", "decode", str(table), str(stream)]) == 0
        assert capsys.readouterr().out == symbols.read_text()
        # Flipping the second bit of the last 299 (100101011) gives no codeword.
        blob = bytearray(stream.read_bytes())
        bit = 12 * 8 + 10 * 9 + 1
        blob[bit // 8] ^= 0x80 >> bit % 8
        stream.write_bytes(bytes(blob))
        assert main(["code", "decode", str(table), str(stream)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bits '110101011' match no codeword\n"

    def test_decode_corrupt_stream_exits_3(self, shannon_dist, tmp_path, capsys):
        table = tmp_path / "shannon.code"
        stream = tmp_path / "bad.gsc"
        main(["code", "build", str(shannon_dist)])
        stream.write_bytes(b"NOPE" + b"\0" * 12)
        assert main(["code", "decode", str(table), str(stream)]) == 3

    def test_encode_bad_symbol_exits_2(self, shannon_dist, tmp_path, capsys):
        table = tmp_path / "shannon.code"
        symbols = tmp_path / "symbols.txt"
        symbols.write_text("0 9\n")
        main(["code", "build", str(shannon_dist)])
        assert main(
            ["code", "encode", str(table), str(symbols), str(tmp_path / "o.gsc")]
        ) == 2

    @pytest.mark.parametrize("token", ["+1", "\u0661", "1_0", "-0"])
    def test_encode_symbols_are_ascii_digits(self, shannon_dist, tmp_path, capsys, token):
        table = tmp_path / "shannon.code"
        symbols = tmp_path / "symbols.txt"
        symbols.write_text(f"0 {token}\n", encoding="utf-8")
        main(["code", "build", str(shannon_dist)])
        assert main(
            ["code", "encode", str(table), str(symbols), str(tmp_path / "o.gsc")]
        ) == 2
        assert "whitespace-separated integers" in capsys.readouterr().err

    def test_encode_empty_symbols_file(self, shannon_dist, tmp_path, capsys):
        table = tmp_path / "shannon.code"
        symbols = tmp_path / "symbols.txt"
        stream = tmp_path / "o.gsc"
        symbols.write_text("\n")
        main(["code", "build", str(shannon_dist)])
        assert main(["code", "encode", str(table), str(symbols), str(stream)]) == 0
        assert unframe_bits(stream.read_bytes()) == ""

    def test_build_output_flag(self, shannon_dist, tmp_path, capsys):
        out = tmp_path / "custom.table"
        assert main(["code", "build", str(shannon_dist), "-o", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("extra", [[], ["--json"], ["-o", "d.code"], ["-o", "sub/../d.code"]])
    def test_build_refuses_to_overwrite_its_input(self, tmp_path, capsys, monkeypatch, extra):
        (tmp_path / "sub").mkdir()
        dist = tmp_path / "d.code"
        dist.write_text("1/2 1/4 1/4\n")
        monkeypatch.chdir(tmp_path)
        assert main(["code", "build", str(dist), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        out = extra[-1] if "-o" in extra else str(dist)
        assert captured.err == f"error: code table {out} would overwrite the distribution file\n"
        assert dist.read_text() == "1/2 1/4 1/4\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.code", "sub"]

    @pytest.mark.parametrize("prefix", ["", "sub/../"])
    @pytest.mark.parametrize(
        "command, overwritten, name",
        [
            ("encode", "d.code", "code table"),
            ("encode", "s.txt", "symbols file"),
            ("decode", "d.code", "code table"),
            ("decode", "s.gsc", "stream file"),
        ],
    )
    def test_encode_and_decode_refuse_to_overwrite_an_input(
        self, tmp_path, capsys, monkeypatch, prefix, command, overwritten, name
    ):
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        Path("d.code").write_text("0\t0\n1\t10\n2\t11\n")
        Path("s.txt").write_text("0 1 2 2 1 0\n")
        Path("s.gsc").write_bytes(frame_bits("01011111100"))
        before = {p: p.read_bytes() for p in map(Path, ("d.code", "s.txt", "s.gsc"))}
        inputs = ["d.code", "s.txt"] if command == "encode" else ["d.code", "s.gsc"]
        out = prefix + overwritten
        assert main(["code", command, *inputs, out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: output {out} would overwrite the {name}\n"
        assert {p: p.read_bytes() for p in before} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.code", "s.gsc", "s.txt", "sub"]


class TestTable1:
    def test_rows(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "1/2 1/2" in out and " 2.0000" in out
        assert "1/4 3/4" in out and "1.7548" in out
        assert "1/16 15/16" in out and "1.2634" in out
        assert "1/256 255/256" in out and "1.0259" in out

    def test_json(self, capsys):
        assert main(["table1", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["D"] for r in rows] == [2, 4, 16, 256]
        assert [r["eff_dim"] for r in rows] == [2.0, 1.7548, 1.2634, 1.0259]


class TestCheck:
    def test_product_joint_passes(self, tmp_path, capsys):
        joint = tmp_path / "product.joint"
        joint.write_text("2 2\n1/4 1/4\n1/4 1/4\n")
        assert main(["check", str(joint)]) == 0
        out = capsys.readouterr().out
        assert "independent: yes" in out
        assert "FAIL" not in out

    def test_correlated_joint_passes(self, tmp_path, capsys):
        joint = tmp_path / "diag.joint"
        joint.write_text("2 2\n1/2 0\n0 1/2\n")
        assert main(["check", str(joint)]) == 0
        out = capsys.readouterr().out
        assert "H(X|Y) = 0" in out
        assert "I(X;Y) = 1" in out
        assert "independent: no" in out

    def test_json_report(self, tmp_path, capsys):
        joint = tmp_path / "diag.joint"
        joint.write_text("2 2\n1/2 0\n0 1/2\n")
        assert main(["check", str(joint), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_pass"] is True
        assert report["I_xy"] == pytest.approx(1.0)
        assert set(report["verdicts"].values()) == {"PASS"}

    def test_malformed_joint_exits_2(self, tmp_path, capsys):
        joint = tmp_path / "bad.joint"
        joint.write_text("2 2\n1/2 0\n0 1/4\n")
        assert main(["check", str(joint)]) == 2
        assert "3/4" in capsys.readouterr().err


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


# Each command with its positional arguments, and the options it accepts
# (with a value for those that take one).  Any other option exits 2.
COMMAND_OPTIONS = {
    ("analyze", "in.dist"): {
        "--renyi": "2",
        "--tsallis": "2",
        "--base": "10",
        "--exact-limit": "8",
        "--json": None,
    },
    ("code", "build", "in.dist"): {"--output": "out.code", "--json": None},
    ("code", "encode", "in.code", "in.sym", "out.gsc"): {},
    ("code", "decode", "in.code", "in.gsc"): {},
    ("table1",): {"--json": None},
    ("check", "in.joint"): {"--json": None},
}
EVERY_OPTION = {
    **{option: value for options in COMMAND_OPTIONS.values() for option, value in options.items()},
    "--seed": "7",
}


def _leaf_parsers(parser, words=()):
    """(command words, parser) for every command that runs a handler."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield words, parser
        return
    for name, sub in subs[0].choices.items():
        yield from _leaf_parsers(sub, (*words, name))


def test_cli_surface_is_the_nine_options():
    registered = {
        words: {
            action.option_strings[-1]
            for action in leaf._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)
        }
        for words, leaf in _leaf_parsers(build_parser())
    }
    expected = {
        tuple(w for w in command if "." not in w): set(options)
        for command, options in COMMAND_OPTIONS.items()
    }
    assert registered == expected
    assert sum(map(len, registered.values())) == 9


@pytest.mark.parametrize("command", list(COMMAND_OPTIONS), ids=" ".join)
def test_each_command_accepts_only_its_own_options(command, capsys):
    parser = build_parser()
    defaults = vars(parser.parse_args(list(command)))
    accepted = COMMAND_OPTIONS[command]
    for option, value in EVERY_OPTION.items():
        argv = [*command, option] + ([] if value is None else [value])
        if option in accepted:
            # The option is read: it changes exactly one setting.
            args = vars(parser.parse_args(argv))
            assert [k for k in defaults if args[k] != defaults[k]] == [option[2:].replace("-", "_")]
            continue
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def _cli_env():
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}


@pytest.mark.parametrize("command", ["decode", "table1"])
def test_closed_stdout_ends_quietly(command, shannon_dist, tmp_path, capsys):
    """A reader that leaves early (`| head -c1`) gets no traceback, and the exit code is 0."""
    argv = ["table1", "--json"]
    if command == "decode":
        table, symbols, stream = tmp_path / "t.code", tmp_path / "s.txt", tmp_path / "s.gsc"
        symbols.write_text(" ".join(str(i % 4) for i in range(200_000)))
        assert main(["code", "build", str(shannon_dist), "-o", str(table)]) == 0
        assert main(["code", "encode", str(table), str(symbols), str(stream)]) == 0
        capsys.readouterr()
        argv = ["code", "decode", str(table), str(stream)]
    with subprocess.Popen(
        [sys.executable, "-m", "genspace.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_cli_env(),
    ) as proc:
        # Closed before the child can have written anything, so its every write fails.
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


def _stream_files(tmp_path, symbols=20_000):
    """A 300-symbol code of 9-bit words, and `symbols` symbols under it: (table, text, stream)."""
    dist, table, text, stream = (tmp_path / n for n in ("u.dist", "u.code", "s.txt", "s.gsc"))
    dist.write_text("1/300 " * 300 + "\n")
    text.write_text(" ".join(str(i * 7 % 300) for i in range(symbols)) + "\n")
    with redirect_stdout(io.StringIO()):
        assert main(["code", "build", str(dist)]) == 0
        assert main(["code", "encode", str(table), str(text), str(stream)]) == 0
    return table, text, stream


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("command", ["encode", "decode"])
def test_a_failed_write_leaves_no_output_file(command, existing, tmp_path):
    resource = pytest.importorskip("resource")
    table, text, stream = _stream_files(tmp_path)
    out = tmp_path / "out"
    if existing:
        out.write_text("old\n")
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}

    def limit_file_size():  # 8192 bytes, in the child only; the output needs more
        resource.setrlimit(resource.RLIMIT_FSIZE, (8192, 8192))

    inputs = (text if command == "encode" else stream, out)
    proc = subprocess.run(
        [sys.executable, "-m", "genspace.cli", "code", command, str(table), *map(str, inputs)],
        capture_output=True, text=True, env=_cli_env(), preexec_fn=limit_file_size, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: [Errno 27] File too large: '{out}'\n"
    # No truncated output and no temporary file; an existing output is left as it was.
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_output_keeps_its_mode_and_symlink(tmp_path, capsys):
    table, text, stream = _stream_files(tmp_path, symbols=100)
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("old\n")
    target.chmod(0o640)
    link.symlink_to(target)
    assert main(["code", "decode", str(table), str(stream), str(link)]) == 0
    assert link.is_symlink() and target.read_text() == text.read_text()
    assert target.stat().st_mode & 0o777 == 0o640
    names = ["link.txt", "s.gsc", "s.txt", "target.txt", "u.code", "u.dist"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_output_to_a_non_regular_file_is_written_in_place(tmp_path):
    table, text, stream = _stream_files(tmp_path, symbols=100)
    proc = subprocess.run(
        [sys.executable, "-m", "genspace.cli", "code", "decode", str(table), str(stream),
         "/dev/stdout"],
        capture_output=True, text=True, env=_cli_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == text.read_text() + "decoded 100 symbols to /dev/stdout\n"


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


# Each command with {0} and {1} for its input files and {2} for an output.
FUZZED_COMMANDS = [
    ("analyze", "{0}"),
    ("analyze", "{0}", "--json"),
    ("check", "{0}"),
    ("check", "{0}", "--json"),
    ("code", "build", "{0}", "-o", "{2}"),
    ("code", "build", "{0}", "-o", "{2}", "--json"),
    ("code", "encode", "{0}", "{1}", "{2}"),
    ("code", "decode", "{0}", "{1}"),
]
# Arbitrary bytes, and text over the alphabet of every file format, which
# reaches past the first check far more often.
file_bytes = (
    st.binary(max_size=48)
    | st.text("0123456789/ \t\n#-+x", max_size=48).map(str.encode)
    | st.text("01", max_size=40).map(frame_bits)
)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(FUZZED_COMMANDS), file_bytes, file_bytes)
def test_fuzzed_file_arguments_exit_cleanly(command, first, second):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, name) for name in ("first", "second", "out")]
        paths[0].write_bytes(first)
        paths[1].write_bytes(second)
        argv = [word.format(*paths) for word in command]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = main(argv)
    assert status in {0, 2, 3, 4}
    if status in (2, 3):
        assert err.getvalue().startswith("error: ")
    elif "--json" in argv:
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
