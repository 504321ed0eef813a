import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from dnacodes import cli
from dnacodes.constructions import CODECS


# The three efficiency tables, whole, at the default precision.
EFFICIENCY_CSVS = {
    "two-mode": (
        "n,m=2,m=3,m=4\n"
        "5,0.832,0.807,0.802\n"
        "6,0.780,0.841,0.835\n"
        "7,0.817,0.865,0.859\n"
        "8,0.845,0.883,0.877\n"
        "9,0.809,0.897,0.891\n"
        "10,0.832,0.908,0.902\n"
    ),
    "state-indep": (
        "n,m=1,m=2,m=3,m=4\n"
        "5,0.883,0.832,0.807,0.802\n"
        "6,0.841,0.867,0.841,0.835\n"
        "7,0.901,0.892,0.865,0.859\n"
        "8,0.946,0.910,0.883,0.877\n"
        "9,0.911,0.925,0.897,0.891\n"
        "10,0.946,0.936,0.908,0.902\n"
    ),
    "state-dep": (
        "n,m=1,m=2,m=3,m=4\n"
        "5,0.883,0.936,0.908,0.902\n"
        "6,0.946,0.954,0.925,0.919\n"
        "7,0.991,0.966,0.937,0.931\n"
        "8,0.946,0.975,0.946,0.940\n"
        "9,0.981,0.982,0.953,0.946\n"
        "10,0.946,0.936,0.958,0.952\n"
    ),
}


# The binary/quaternary tables and eta, whole, at --precision 4 and 12; eta keeps
# three decimals at any precision, like the efficiency tables.
PINNED_CSVS = {
    ("capacity", 4): (
        "m,capacity_binary,capacity_quaternary\n"
        "1,0.0000,1.5850\n"
        "2,0.6942,1.9227\n"
        "3,0.8791,1.9824\n"
        "4,0.9468,1.9957\n"
        "5,0.9752,1.9989\n"
        "6,0.9881,1.9997\n"
    ),
    ("capacity", 12): (
        "m,capacity_binary,capacity_quaternary\n"
        "1,0.000000000000,1.584962500721\n"
        "2,0.694241913631,1.922687994985\n"
        "3,0.879146421607,1.982354052641\n"
        "4,0.946777246799,1.995716505146\n"
        "5,0.975225336064,1.998939056141\n"
        "6,0.988108652236,1.999735519680\n"
    ),
    ("coefficient", 4): (
        "m,coefficient_binary,coefficient_quaternary\n"
        "1,,1.3333\n"
        "2,1.4472,1.1031\n"
        "3,1.2368,1.0341\n"
        "4,1.1327,1.0110\n"
        "5,1.0759,1.0034\n"
        "6,1.0435,1.0010\n"
    ),
    ("coefficient", 12): (
        "m,coefficient_binary,coefficient_quaternary\n"
        "1,,1.333333333333\n"
        "2,1.447213595500,1.103102447139\n"
        "3,1.236839844639,1.034074937022\n"
        "4,1.132685775405,1.011034089497\n"
        "5,1.075852233638,1.003445757859\n"
        "6,1.043544988573,1.001040074152\n"
    ),
    ("gamma", 4): (
        "m,gamma_binary,gamma_quaternary\n"
        "1,,0.5000\n"
        "2,0.1708,0.7410\n"
        "3,0.3449,0.8796\n"
        "4,0.5059,0.9497\n"
        "5,0.6426,0.9808\n"
        "10,0.9565,0.9999\n"
        "inf,1.0000,1.0000\n"
    ),
    ("gamma", 12): (
        "m,gamma_binary,gamma_quaternary\n"
        "1,,0.500000000000\n"
        "2,0.170820393250,0.740990253031\n"
        "3,0.344912467980,0.879614879812\n"
        "4,0.505903552304,0.949735572850\n"
        "5,0.642621217431,0.980792064090\n"
        "10,0.956537530314,0.999926565938\n"
        "inf,1.000000000000,1.000000000000\n"
    ),
    ("eta", 4): (
        "m,eta\n"
        "2,0.881\n"
        "3,0.948\n"
        "4,0.975\n"
        "5,0.988\n"
        "6,0.994\n"
        "7,0.997\n"
    ),
    ("eta", 12): (
        "m,eta\n"
        "2,0.881\n"
        "3,0.948\n"
        "4,0.975\n"
        "5,0.988\n"
        "6,0.994\n"
        "7,0.997\n"
    ),
}


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse's help and usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTables:
    def test_capacity_row(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "capacity")
        assert code == 0
        assert out.splitlines()[0] == "m,capacity_binary,capacity_quaternary"
        assert "3,0.8791,1.9824" in out

    def test_gamma_rows(self, capsys):
        _, out, _ = run_cli(capsys, "tables", "gamma")
        assert "5,0.6426,0.9808" in out
        assert "1,,0.5000" in out
        assert out.splitlines()[-1] == "inf,1.0000,1.0000"

    def test_eta_row(self, capsys):
        _, out, _ = run_cli(capsys, "tables", "eta")
        assert "5,0.988" in out

    def test_two_mode_row(self, capsys):
        _, out, _ = run_cli(capsys, "tables", "two-mode")
        assert "5,0.832,0.807,0.802" in out

    def test_state_tables(self, capsys):
        _, out, _ = run_cli(capsys, "tables", "state-indep")
        assert "7,0.901,0.892,0.865,0.859" in out
        _, out, _ = run_cli(capsys, "tables", "state-dep")
        assert "5,0.883,0.936,0.908,0.902" in out

    @pytest.mark.parametrize("table", sorted(EFFICIENCY_CSVS))
    def test_efficiency_table_is_pinned_whole(self, capsys, table):
        assert run_cli(capsys, "tables", table) == (0, EFFICIENCY_CSVS[table], "")

    @pytest.mark.parametrize("table,precision", sorted(PINNED_CSVS))
    def test_table_is_pinned_whole_at_each_precision(self, capsys, table, precision):
        expected = PINNED_CSVS[table, precision]
        assert run_cli(capsys, "tables", table, "--precision", str(precision)) == (0, expected, "")

    def test_unknown_table_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["tables", "bogus"])
        assert err.value.code == 2


class TestFigure1:
    def test_deterministic_and_spot_value(self, capsys):
        code, out1, _ = run_cli(capsys, "figure1", "--n-min", "10", "--n-max", "60")
        assert code == 0
        _, out2, _ = run_cli(capsys, "figure1", "--n-min", "10", "--n-max", "60")
        assert out1 == out2
        assert out1.splitlines()[0] == "n,a,redundancy_bits"

    def test_known_point(self, capsys):
        _, out, _ = run_cli(capsys, "figure1", "--a-list", "0.2", "--n-min", "4", "--n-max", "4")
        assert out.splitlines()[1] == "4,0.2,1.4150"

    def test_raggedness(self, capsys):
        _, out, _ = run_cli(capsys, "figure1", "--a-list", "0.05", "--n-min", "10", "--n-max", "100")
        values = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
        deltas = [b - a for a, b in zip(values, values[1:])]
        sign_changes = sum(
            1 for d1, d2 in zip(deltas, deltas[1:]) if d1 * d2 < 0
        )
        assert sign_changes > 0

    def test_vanishes_at_half(self, capsys):
        _, out, _ = run_cli(capsys, "figure1", "--a-list", "0.51", "--n-min", "10", "--n-max", "12")
        assert all(line.endswith("0.0000") for line in out.splitlines()[1:])

    def test_decreasing_trend(self, capsys):
        _, out, _ = run_cli(capsys, "figure1", "--a-list", "0.05", "--n-min", "50", "--n-max", "400")
        values = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
        first, second = values[: len(values) // 2], values[len(values) // 2 :]
        assert sum(second) / len(second) < sum(first) / len(first)

    @pytest.mark.parametrize(
        "args,message",
        [
            (("--n-min", "5", "--n-max", "2"), "--a-list '0.05,0.10,0.15', n 5..2"),
            (("--a-list", ","), "--a-list ',', n 10..200"),
            (("--a-list", ""), "--a-list '', n 10..200"),
        ],
        ids=["n-range", "a-list-comma", "a-list-blank"],
    )
    def test_empty_grid_is_usage_error(self, capsys, monkeypatch, args, message):
        def no_row(*args):
            raise AssertionError("a row ran before the grid was checked")

        monkeypatch.setattr(cli.counting, "balance_redundancy", no_row)
        code, out, err = run_cli(capsys, "figure1", *args)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: empty grid: {message}"]


class TestScalarCommands:
    def test_count(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--q", "4", "--m", "2", "--n", "10")
        assert code == 0 and out.strip() == "676836"
        code, out, _ = run_cli(capsys, "count", "--q", "4", "--m", "2", "--n", "10", "--gf")
        assert out.strip() == "676836"

    def test_count_gf_at_a_huge_run_limit(self, capsys):
        # A run limit past n limits nothing, and the series never reaches degree m.
        code, out, _ = run_cli(capsys, "count", "--q", "4", "--m", str(10**12), "--n", "10", "--gf")
        assert code == 0 and out.strip() == "1048576"

    def test_weight_profile_sums(self, capsys):
        _, out, _ = run_cli(capsys, "count", "--q", "4", "--m", "3", "--n", "5", "--weight-profile")
        assert "total,996" in out

    def test_count_gf_and_weight_profile_together_is_usage_error(self, capsys):
        # the weight profile reads no generating function, so --gf would be ignored
        args = ("count", "--q", "4", "--m", "3", "--n", "5")
        for pair in (("--gf", "--weight-profile"), ("--weight-profile", "--gf")):
            with pytest.raises(SystemExit) as exit_info:
                cli.main([*args, *pair])
            assert exit_info.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.splitlines()[-1].endswith(f"argument {pair[1]}: not allowed with argument {pair[0]}")

    def test_capacity(self, capsys):
        _, out, _ = run_cli(capsys, "capacity", "--q", "4", "--m", "3")
        assert out.strip() == "1.9824"

    def test_capacity_full(self, capsys):
        _, out, _ = run_cli(capsys, "capacity", "--q", "2", "--m", "2", "--full")
        assert out.startswith("lambda,1.618")

    def test_capacity_full_residual_is_scale_free(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--q", "4", "--m", "30", "--full")
        assert code == 0
        residual = out.splitlines()[2]
        assert residual.startswith("residual,")
        assert float(residual.split(",")[1]) < 1e-10

    def test_capacity_near_the_alphabet_limit(self, capsys):
        code, out, err = run_cli(capsys, "capacity", "--q", "4", "--m", "100000", "--full")
        assert code == 0
        assert err == ""
        assert out.splitlines()[:2] == ["lambda,4.0", "capacity_bits,2.0000"]

    def test_capacity_past_the_float_precision_of_q(self, capsys):
        # q - 1 and q are one float: the root between them is q.
        code, out, err = run_cli(capsys, "capacity", "--q", str(10**16), "--m", "2", "--full")
        assert code == 0
        assert err == ""
        assert out.splitlines()[0] == "lambda,1e+16"

    @pytest.mark.parametrize("m", ["1", "2"], ids=["exact-root", "huge-m"])
    def test_capacity_past_the_float_range_of_q_is_usage_error(self, capsys, m):
        q = str(10**400)  # float(q) and float(q - 1) overflow
        code, out, err = run_cli(capsys, "capacity", "--q", q, "--m", m)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: alphabet size q={q} is beyond the float range"]

    @pytest.mark.parametrize(
        "args",
        [
            ("capacity", "--q", "4"),
            ("capacity", "--q", "4", "--full"),
            ("redundancy", "--family", "runlength", "--q", "4", "--n", "10", "--asymptotic"),
            ("redundancy", "--family", "combined", "--q", "4", "--n", "10", "--a", "0.1"),
        ],
        ids=["capacity", "capacity-full", "runlength", "combined"],
    )
    def test_a_run_limit_past_the_float_range_answers_as_m_2000(self, capsys, args):
        code, out, err = run_cli(capsys, *args, "--m", str(10**400))
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *args, "--m", "2000")[1]

    @pytest.mark.parametrize(
        "args",
        [
            ("--family", "runlength", "--q", "4", "--m", "3", "--asymptotic"),
            ("--family", "combined", "--q", "4", "--m", "3", "--a", "0.1"),
        ],
        ids=["runlength", "combined"],
    )
    def test_a_length_past_the_float_range_is_usage_error(self, capsys, args):
        n = str(10**400)
        code, out, err = run_cli(capsys, "redundancy", *args, "--n", n)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: length n={n} is beyond the float range"]

    @pytest.mark.parametrize("a", ["nan", "inf", "-0.1"])
    @pytest.mark.parametrize(
        "args",
        [
            ("--family", "balance"),
            ("--family", "combined", "--q", "4", "--m", "3"),
            ("--family", "combined", "--q", "4", "--m", "3", "--exact"),
            ("--family", "combined", "--q", "2", "--m", "3"),
            ("--family", "combined", "--q", "2", "--m", "3", "--exact"),
        ],
        ids=["balance", "combined-q4", "combined-q4-exact", "combined-q2", "combined-q2-exact"],
    )
    def test_unreadable_unbalance_bound_is_usage_error(self, capsys, args, a):
        code, out, err = run_cli(capsys, "redundancy", *args, "--n", "10", "--a", a)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_redundancy_balance(self, capsys):
        _, out, _ = run_cli(capsys, "redundancy", "--family", "balance", "--n", "4", "--a", "0.2")
        assert out.strip() == "1.4150"

    def test_redundancy_combined(self, capsys):
        code, out, _ = run_cli(
            capsys, "redundancy", "--family", "combined", "--q", "4",
            "--m", "2", "--n", "60", "--a", "0.05",
        )
        assert code == 0
        assert float(out.strip()) > 0

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "count", "--q", "4", "--m", "0", "--n", "5")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "family,args,missing",
        [
            pytest.param("balance", ("--n", "4"), "--a", id="balance-no-a"),
            pytest.param("runlength", ("--n", "4"), "--m", id="runlength-no-m"),
            pytest.param("combined", ("--n", "4", "--a", "0.1"), "--m", id="combined-no-m"),
            pytest.param("combined", ("--n", "4", "--m", "2"), "--a", id="combined-no-a"),
            pytest.param("combined", ("--n", "4"), "--m and --a", id="combined-neither"),
        ],
    )
    def test_redundancy_missing_parameter_is_usage_error(self, capsys, family, args, missing):
        code, out, err = run_cli(capsys, "redundancy", "--family", family, *args)
        assert code == 2
        assert out == ""
        assert err == f"error: redundancy --family {family} needs {missing}\n"

    @pytest.mark.parametrize(
        "args,message",
        [
            (("--family", "balance", "--a", "0.1", "--asymptotic", "--m", "3", "--q", "2"),
             "redundancy --family balance takes no --q, --m, --asymptotic"),
            (("--family", "balance", "--a", "0.1", "--q", "4"),
             "redundancy --family balance takes no --q"),
            (("--family", "balance", "--a", "0.1", "--m", "0"),
             "redundancy --family balance takes no --m"),
            (("--family", "balance", "--a", "0.1", "--exact"),
             "redundancy --family balance takes no --exact"),
            (("--family", "runlength", "--m", "3", "--a", "0.1"),
             "redundancy --family runlength takes no --a"),
            (("--family", "runlength", "--m", "3", "--a", "0", "--boundary", "strict"),
             "redundancy --family runlength takes no --a, --boundary"),
            (("--family", "combined", "--m", "3", "--a", "0.1", "--boundary", "inclusive"),
             "redundancy --family combined takes no --boundary without --exact"),
            (("--family", "combined", "--m", "3", "--a", "0.1", "--asymptotic",
              "--boundary", "strict"),
             "redundancy --family combined takes no --boundary without --exact"),
        ],
        ids=["balance-q-m-asymptotic", "balance-default-q", "balance-zero-m", "balance-exact",
             "runlength-a", "runlength-zero-a-boundary", "combined-boundary",
             "combined-asymptotic-boundary"],
    )
    def test_redundancy_flag_its_family_does_not_read_is_usage_error(self, capsys, args, message):
        code, out, err = run_cli(capsys, "redundancy", *args, "--n", "10")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "args,value",
        [
            (("--family", "combined", "--q", "4", "--m", "3", "--n", "120", "--a", "0.05",
              "--exact"), "2.5526"),
            (("--family", "combined", "--m", "3", "--n", "120", "--a", "0.05", "--exact",
              "--boundary", "strict"), "2.5526"),
            (("--family", "combined", "--q", "4", "--m", "3", "--n", "120", "--a", "0.05",
              "--exact", "--boundary", "inclusive"), "2.4020"),
            (("--family", "balance", "--n", "40", "--a", "0.1", "--boundary", "inclusive"),
             "0.2410"),
            (("--family", "runlength", "--q", "4", "--m", "3", "--n", "40", "--exact"), "0.6575"),
            (("--family", "runlength", "--m", "3", "--n", "40"), "0.6575"),
        ],
        ids=["bench-combined-exact", "combined-default-q", "combined-inclusive",
             "balance-inclusive", "runlength-exact", "runlength-default-q"],
    )
    def test_redundancy_values_with_defaults_given_or_left_out(self, capsys, args, value):
        code, out, err = run_cli(capsys, "redundancy", *args)
        assert (code, out, err) == (0, value + "\n", "")

    @pytest.mark.parametrize("family", ["runlength", "combined"])
    def test_redundancy_exact_and_asymptotic_together_is_usage_error(self, capsys, family):
        args = ("--family", family, "--m", "3", "--n", "10", "--a", "0.1")
        for pair in (("--exact", "--asymptotic"), ("--asymptotic", "--exact")):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(["redundancy", *args, *pair])
            assert exit_info.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.splitlines()[-1].endswith(f"argument {pair[1]}: not allowed with argument {pair[0]}")

    def test_precision_flag(self, capsys):
        _, out, _ = run_cli(capsys, "capacity", "--q", "4", "--m", "1", "--precision", "8")
        assert out.strip() == "1.58496250"

    @pytest.mark.parametrize(
        "args",
        [
            ("--family", "runlength", "--m", "3", "--n", "0", "--asymptotic"),
            ("--family", "runlength", "--m", "3", "--n", "-5", "--asymptotic"),
            ("--family", "combined", "--q", "4", "--m", "3", "--n", "-5", "--a", "0.1"),
            ("--family", "combined", "--q", "2", "--m", "3", "--n", "0", "--a", "0.1"),
        ],
        ids=["runlength-0", "runlength-neg", "combined-q4-neg", "combined-q2-0"],
    )
    def test_asymptotic_redundancy_below_length_1_is_usage_error(self, capsys, args):
        code, out, err = run_cli(capsys, "redundancy", *args)
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: length must be at least 1"]

    def test_exact_combined_redundancy_without_admitted_words_is_usage_error(self, capsys):
        # At odd n and a = 0 no weight lies in the window.
        code, out, err = run_cli(capsys, "redundancy", "--family", "combined", "--q", "4",
                                 "--m", "3", "--n", "11", "--a", "0", "--exact")
        assert (code, out, err) == (2, "", "error: no admitted words; redundancy undefined\n")

    def test_count_takes_no_precision(self, capsys):
        # count prints only ints
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["count", "--q", "4", "--m", "3", "--n", "5", "--precision", "9"])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1].endswith("unrecognized arguments: --precision 9")

    @pytest.mark.parametrize(
        "command,args",
        [
            ("tables", ("tables", "capacity")),
            ("figure1", ("figure1",)),
            ("capacity", ("capacity", "--q", "4", "--m", "3")),
            ("redundancy", ("redundancy", "--family", "runlength", "--m", "3", "--n", "10")),
        ],
        ids=["tables", "figure1", "capacity", "redundancy"],
    )
    def test_negative_precision_is_usage_error(self, capsys, monkeypatch, command, args):
        def no_command(args):
            raise AssertionError("the command ran before --precision was checked")

        monkeypatch.setattr(cli, f"cmd_{command}", no_command)
        code, out, err = run_cli(capsys, *args, "--precision", "-1")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: --precision must be at least 0, not -1"]


class TestEncodeDecode:
    @pytest.mark.parametrize(
        "args",
        [
            ("--construction", "state-dependent", "--m", "3", "--n", "5"),
            ("--construction", "state-independent", "--m", "2", "--n", "6"),
            ("--construction", "construction2", "--m", "2", "--n", "6"),
            ("--construction", "construction1", "--ell", "8"),
            ("--construction", "construction1", "--ell", "8", "--balancer", "weak-knuth", "--p0", "3"),
        ],
    )
    def test_file_round_trip(self, tmp_path, capsys, args):
        src = tmp_path / "payload.bin"
        strands = tmp_path / "strands.txt"
        back = tmp_path / "back.bin"
        data = bytes((i * 37 + 11) % 256 for i in range(1024))
        src.write_bytes(data)
        code = cli.main(["encode", *args, "--in", str(src), "--out", str(strands)])
        assert code == 0
        text = strands.read_text()
        assert set(text) <= set("ACGT\n")
        code = cli.main(["decode", *args, "--in", str(strands), "--out", str(back)])
        assert code == 0
        assert back.read_bytes() == data

    def test_emitted_runs_verified_independently(self, tmp_path):
        src = tmp_path / "payload.bin"
        strands = tmp_path / "strands.txt"
        src.write_bytes(bytes(range(256)))
        cli.main(["encode", "--construction", "state-dependent", "--m", "3", "--n", "5",
                  "--in", str(src), "--out", str(strands)])
        joined = strands.read_text().replace("\n", "")
        # simple independent run scanner
        best = cur = 1
        for a, b in zip(joined, joined[1:]):
            cur = cur + 1 if a == b else 1
            best = max(best, cur)
        assert best <= 3

    def test_decode_reports_bad_line(self, tmp_path, capsys):
        src = tmp_path / "payload.bin"
        strands = tmp_path / "strands.txt"
        src.write_bytes(b"hello world")
        cli.main(["encode", "--construction", "state-dependent", "--m", "3", "--n", "5",
                  "--in", str(src), "--out", str(strands)])
        lines = strands.read_text().splitlines()
        lines[1] = "AAAAA"  # five-symbol homopolymer violates m=3
        strands.write_text("\n".join(lines) + "\n")
        code = cli.main(["decode", "--construction", "state-dependent", "--m", "3", "--n", "5",
                         "--in", str(strands)])
        captured = capsys.readouterr()
        assert code == 1
        assert "line 2" in captured.err

    SD = ("--construction", "state-dependent", "--m", "3", "--n", "5")

    def test_out_to_devnull(self, tmp_path):
        src = tmp_path / "p.bin"
        src.write_bytes(b"payload")
        mode = os.stat(os.devnull).st_mode
        assert cli.main(["encode", *self.SD, "--in", str(src), "--out", os.devnull]) == 0
        assert os.stat(os.devnull).st_mode == mode
        assert not list(tmp_path.glob("*.part"))

    def test_out_writes_through_symlink(self, tmp_path):
        src = tmp_path / "p.bin"
        target = tmp_path / "target.txt"
        link = tmp_path / "link.txt"
        src.write_bytes(b"payload")
        target.write_text("old\n")
        link.symlink_to(target)
        assert cli.main(["encode", *self.SD, "--in", str(src), "--out", str(link)]) == 0
        assert link.is_symlink()
        assert set(target.read_text()) <= set("ACGT\n")
        assert target.read_text() != "old\n"

    def test_out_keeps_existing_mode(self, tmp_path):
        src = tmp_path / "p.bin"
        out = tmp_path / "strands.txt"
        src.write_bytes(b"payload")
        out.write_text("old\n")
        out.chmod(0o640)
        assert cli.main(["encode", *self.SD, "--in", str(src), "--out", str(out)]) == 0
        assert out.stat().st_mode & 0o777 == 0o640
        assert out.read_text() != "old\n"

    def test_outdir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DNACODES_OUTDIR", str(tmp_path))
        src = tmp_path / "p.bin"
        src.write_bytes(b"x")
        code = cli.main(["encode", "--construction", "state-dependent", "--m", "3", "--n", "5",
                         "--in", str(src), "--out", "rel.txt"])
        assert code == 0
        assert (tmp_path / "rel.txt").exists()


    @pytest.mark.parametrize(
        "args,message",
        [
            (("construction2", "--m", "3", "--n", "10", "--ell", "8"),
             "construction2 takes no ell"),
            (("construction2", "--m", "3", "--n", "10", "--balancer", "knuth"),
             "construction2 takes no balancer"),
            (("state-independent", "--n", "8"), "state-independent needs m"),
            (("construction1",), "construction1 needs ell"),
            (("construction1", "--ell", "8", "--balancer", "weak-knuth"),
             "the weak-knuth balancer needs p0"),
            (("construction1", "--ell", "7"), "ell must be even and at least 2"),
            (("construction1", "--ell", "64", "--balancer", "weak-knuth", "--p0", "7"),
             "need 1 <= p0 with 2**p0 <= ell"),
        ],
    )
    def test_missing_or_unused_codec_flag(self, tmp_path, capsys, args, message):
        src = tmp_path / "p.bin"
        src.write_bytes(b"payload")
        for command in ("encode", "decode"):
            code, out, err = run_cli(capsys, command, "--construction", *args, "--in", str(src))
            assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_oversize_block_exits_2_before_the_build(self, tmp_path, capsys):
        src = tmp_path / "p.bin"
        src.write_bytes(b"payload")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "encode", "--construction", "state-dependent",
                                 "--m", "3", "--n", "1000", "--in", str(src))
        assert time.perf_counter() - start < 5
        assert code == 2 and out == ""
        assert err.startswith("error: block size ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "args",
        [("state-independent", "--m", "3"), ("construction2", "--m", "2")],
        ids=["state-independent", "construction2"],
    )
    def test_long_oversize_block_exits_2_at_once(self, tmp_path, capsys, args):
        src = tmp_path / "p.bin"
        src.write_bytes(b"payload")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "encode", "--construction", *args, "--n", "200000",
                                 "--in", str(src))
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error: block size at least ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "args",
        [("--ell", str(10**12)),
         ("--ell", "64", "--balancer", "weak-knuth", "--p0", str(10**12))],
        ids=["ell", "p0"],
    )
    def test_huge_construction1_parameters_exit_2_at_once(self, tmp_path, capsys, args):
        src = tmp_path / "p.bin"
        src.write_bytes(b"payload")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "encode", "--construction", "construction1", *args,
                                 "--in", str(src))
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("construction", ["construction2", "state-independent",
                                              "state-dependent"])
    def test_run_limit_past_the_strand_length(self, tmp_path, construction):
        # A run limit of n or more limits nothing, so --m 10**12 codes as --m n does.
        src = tmp_path / "p.bin"
        src.write_bytes(bytes((i * 37 + 11) % 256 for i in range(4096)))
        strands = {}
        for m in (8, 10**12):
            args = ("--construction", construction, "--m", str(m), "--n", "8")
            out, back = tmp_path / f"s{m}.txt", tmp_path / f"b{m}.bin"
            start = time.perf_counter()
            assert cli.main(["encode", *args, "--in", str(src), "--out", str(out)]) == 0
            assert cli.main(["decode", *args, "--in", str(out), "--out", str(back)]) == 0
            assert time.perf_counter() - start < 2
            assert back.read_bytes() == src.read_bytes()
            strands[m] = out.read_bytes()
        assert strands[10**12] == strands[8]

    def test_state_dependent_line_outside_its_window(self, tmp_path, capsys):
        args = ("--construction", "state-dependent", "--m", "3", "--n", "8")
        src = tmp_path / "p.bin"
        strands = tmp_path / "s.txt"
        src.write_bytes(b"payload bytes")
        assert cli.main(["encode", *args, "--in", str(src), "--out", str(strands)]) == 0
        lines = strands.read_text().splitlines()
        # Runs of at most 3, but 6 of 8 bases A or T: |2w - n| = 4 > max_unbalance = 2.
        lines[1] = "AATAATGC"
        strands.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "decode", *args, "--in", str(strands),
                                 "--out", str(tmp_path / "back.bin"))
        assert (code, out) == (1, "")
        assert err == "error: line 2: block 2: AT/GC unbalance exceeds the code bound\n"

    @pytest.mark.parametrize("balancer", [(), ("--balancer", "weak-knuth", "--p0", "2")],
                             ids=["knuth", "weak-knuth"])
    def test_construction1_line_outside_its_balance(self, tmp_path, capsys, balancer):
        args = ("--construction", "construction1", "--ell", "8", *balancer)
        src = tmp_path / "p.bin"
        strands = tmp_path / "s.txt"
        src.write_bytes(b"payload bytes")
        assert cli.main(["encode", *args, "--in", str(src), "--out", str(strands)]) == 0
        lines = strands.read_text().splitlines()
        # Keep the balanced prefix, so only the weight can give the line away.
        cut = len(lines[1]) - 8
        lines[1] = lines[1][:cut] + "A" * 8
        strands.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "decode", *args, "--in", str(strands),
                                 "--out", str(tmp_path / "back.bin"))
        assert (code, out) == (1, "")
        assert err == "error: line 2: block 2: AT/GC unbalance exceeds the code bound\n"
        assert not (tmp_path / "back.bin").exists()


# Codec flags for the argv fuzz: small values, where most codes build, and
# a few oversize ones, whose blocks exceed what the framing supports.
_FLAG_VALUES = {
    "--m": st.one_of(st.integers(-1, 6), st.sampled_from([40, 300, 1000, 10**12])),
    "--n": st.one_of(st.integers(-1, 12), st.sampled_from([300, 1000])),
    "--ell": st.one_of(st.integers(-1, 20), st.sampled_from([300, 1000, 10**12])),
    "--p0": st.one_of(st.integers(-1, 5), st.sampled_from([40, 10**12])),
    "--balancer": st.sampled_from(["knuth", "weak-knuth"]),
}
_OWN_FLAGS = {"construction1": ("--ell", "--balancer", "--p0")}


@st.composite
def _codec_args(draw):
    construction = draw(st.sampled_from(sorted(CODECS)))
    own = _OWN_FLAGS.get(construction, ("--m", "--n"))
    args = ["--construction", construction]
    for flag, values in _FLAG_VALUES.items():
        # A codec's own flags are mostly given, the others seldom.
        if draw(st.integers(0, 9)) < (9 if flag in own else 1):
            args += [flag, str(draw(values))]
    return args


def _run_quietly(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, err.getvalue()


class TestArgvFuzz:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(args=_codec_args())
    def test_encode_then_decode_exit_cleanly(self, args):
        with tempfile.TemporaryDirectory() as tmp:
            src, strands, junk, back = (
                os.path.join(tmp, name) for name in ("in", "s.txt", "junk.txt", "out"))
            with open(src, "wb") as fh:
                fh.write(b"a short payload")
            with open(junk, "w") as fh:
                fh.write("GCATGCATGCATG\nAAAAAAAAAAAA\n")
            codes = []
            for argv in (["encode", *args, "--in", src, "--out", strands],
                         ["decode", *args, "--in", strands, "--out", back],
                         ["decode", *args, "--in", junk, "--out", back]):
                code, message = _run_quietly(argv)
                codes.append(code)
                assert code in (0, 1, 2), (argv, message)
                assert "Traceback" not in message
                if code == 2:
                    assert sum("error:" in line for line in message.splitlines()) == 1, message
            if codes[0] == 0:
                assert codes[1] == 0
                assert codes[2] == 1  # no code has two junk lines as its strands
                with open(back, "rb") as fh:
                    assert fh.read() == b"a short payload"


class TestVerify:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--m-max", "2", "--n-max", "5",
                               "--stream-blocks", "100")
        assert code == 0
        assert "verify: PASS" in out

    @pytest.fixture
    def no_counts(self, monkeypatch):
        """Any count fails the test: a refusal must come before the count grid."""
        from dnacodes import counting, oracle

        def no_count(*args):
            raise AssertionError("a count ran before the arguments were checked")

        monkeypatch.setattr(counting, "rll_count", no_count)
        monkeypatch.setattr(oracle, "brute_rll_count", no_count)

    def test_negative_stream_blocks_is_usage_error(self, capsys, no_counts):
        code, out, err = run_cli(capsys, "verify", "--n-max", "11", "--stream-blocks", "-1")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: stream_blocks must be at least 0, not -1"]

    @pytest.mark.parametrize("flag,value", [("--m-max", "0"), ("--m-max", "-3"),
                                            ("--n-max", "0"), ("--n-max", "-1")])
    def test_empty_grid_is_usage_error(self, capsys, no_counts, flag, value):
        code, out, err = run_cli(capsys, "verify", flag, value, "--stream-blocks", "0")
        assert code == 2
        assert out == ""
        name = flag.removeprefix("--").replace("-", "_")
        assert err.splitlines() == [f"error: {name} must be at least 1, not {value}"]

    def test_zero_stream_blocks_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--m-max", "1", "--n-max", "2",
                               "--stream-blocks", "0")
        assert code == 0
        assert out.splitlines()[-1] == "verify: PASS"


# argv -> exit code, stdout and stderr of `main`, recorded with the full
# parser for every argv, on Python 3.11 with COLUMNS=80: argparse's texts
# differ between Python versions.
_RECORDED = json.loads(pathlib.Path(__file__).with_name("cli_texts.json").read_text("ascii"))
_RECORDED_ON = (3, 11)


class TestUsageTexts:
    """No command, -h, each command's --help and each kind of usage error, text for text."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_the_table_covers_every_command_and_usage_error(self):
        argvs = [case["argv"] for case in _RECORDED]
        assert [] in argvs and ["nosuch"] in argvs and ["-h"] in argvs
        assert {argv[0] for argv in argvs if argv[1:] == ["--help"]} == set(cli.COMMANDS)
        kinds = " ".join(case["stderr"].splitlines()[-1] for case in _RECORDED if case["stderr"])
        for kind in ("required: --n", "invalid choice", "not allowed with argument",
                     "unrecognized arguments: extra", "invalid int value"):
            assert kind in kinds

    @pytest.mark.skipif(sys.version_info[:2] != _RECORDED_ON,
                        reason="the texts were recorded with Python 3.11's argparse")
    @pytest.mark.parametrize("case", _RECORDED, ids=lambda case: " ".join(case["argv"]) or "-")
    def test_recorded_texts(self, capsys, case):
        assert run_cli(capsys, *case["argv"]) == (
            case["code"], case["stdout"], case["stderr"])

    @pytest.mark.parametrize("case", _RECORDED, ids=lambda case: " ".join(case["argv"]) or "-")
    def test_one_command_parser_matches_the_full_parser(self, capsys, monkeypatch, case):
        lean = run_cli(capsys, *case["argv"])
        full_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
        assert run_cli(capsys, *case["argv"]) == lean

    def test_one_command_parser_holds_that_command_alone(self):
        def commands(parser):
            (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            return list(sub.choices)

        assert commands(cli.build_parser("count")) == ["count"]
        assert commands(cli.build_parser()) == list(cli.COMMANDS)
        assert commands(cli.build_parser("nosuch")) == list(cli.COMMANDS)


class TestProcess:
    """`python -m dnacodes.cli` and `entry` in a child process: exit codes and output."""

    @staticmethod
    def _child(*args, cwd=None):
        import dnacodes

        src = os.path.dirname(os.path.dirname(dnacodes.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("PYTHONUNBUFFERED", None)  # so stdout into a pipe is block-buffered
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd,
                              env=env, timeout=60)

    def _entry(self, argv):
        """cli.entry() in a child process, with sys.argv[1:] = argv."""
        probe = f"import sys\nfrom dnacodes import cli\nsys.argv[1:] = {argv!r}\ncli.entry()\n"
        return self._child("-c", probe)

    def test_exit_codes_and_output(self, tmp_path):
        counts = tmp_path / "count.txt"
        result = self._child("-m", "dnacodes.cli", "count", "--q", "4", "--m", "3", "--n", "5",
                             "--out", str(counts))
        assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
        assert counts.read_text() == "996\n"

        payload, strands = tmp_path / "payload.bin", tmp_path / "strands.txt"
        payload.write_bytes(bytes(range(256)))
        codec = ("--construction", "state-dependent", "--m", "3", "--n", "8")
        result = self._child("-m", "dnacodes.cli", "encode", *codec, "--in", str(payload),
                             "--out", str(strands))
        assert result.returncode == 0
        lines = strands.read_bytes().split(b"\n")
        lines[2] = b"GGGGGGGG"
        strands.write_bytes(b"\n".join(lines))
        back = tmp_path / "back.bin"
        result = self._child("-m", "dnacodes.cli", "decode", *codec, "--in", str(strands),
                             "--out", str(back))
        assert result.returncode == 1
        assert result.stderr.splitlines() == ["error: line 3: block 3: homopolymer run exceeds 3"]
        assert not back.exists()

        result = self._child("-m", "dnacodes.cli", "count", "--no-such-flag")
        assert result.returncode == 2
        assert result.stdout == ""

    def test_entry_delivers_the_output_and_exit_code_of_main(self, tmp_path, capsys):
        """Through pipes, entry's output and exit code are main's, for exits 0, 1 and 2."""
        payload, strands = tmp_path / "payload.bin", tmp_path / "strands.txt"
        payload.write_bytes(bytes(range(256)) * 40)
        codec = ["--construction", "state-dependent", "--m", "3", "--n", "8"]
        assert cli.main(["encode", *codec, "--in", str(payload), "--out", str(strands)]) == 0
        capsys.readouterr()
        encoded = strands.read_text()
        bad = tmp_path / "bad.txt"
        bad.write_text("".join(line if i != 2 else "GGGGGGGG\n"
                               for i, line in enumerate(encoded.splitlines(keepends=True))))
        cases = [
            ["figure1"],  # 574 lines, more than one buffer of stdout
            ["encode", *codec, "--in", str(payload)],  # bytes written to stdout's buffer
            ["decode", *codec, "--in", str(bad)],
            ["capacity", "--q", "4", "--m", "3", "--precision", "-1"],
        ]
        expected = [(0, *run_cli(capsys, "figure1")[1:]), (0, encoded, ""),
                    (1, "", "error: line 3: block 3: homopolymer run exceeds 3\n"),
                    (2, "", "error: --precision must be at least 0, not -1\n")]
        assert len(expected[0][1].splitlines()) == 574
        for argv, want in zip(cases, expected):
            result = self._entry(argv)
            assert (result.returncode, result.stdout, result.stderr) == want, argv

    def test_entry_exits_with_the_status_of_argparse(self, capsys, monkeypatch):
        """Help and usage errors, which argparse ends with SystemExit, come out whole too."""
        monkeypatch.setenv("COLUMNS", "80")
        for argv, code in ((["-h"], 0), (["count", "--q", "2", "--m", "1", "--n", "1", "-x"], 2)):
            want = run_cli(capsys, *argv)
            assert want[0] == code
            result = self._entry(argv)
            assert (result.returncode, result.stdout, result.stderr) == want, argv

    def test_main_leaves_the_heap_unfrozen(self, capsys):
        import gc

        frozen = gc.get_freeze_count()
        assert cli.main(["count", "--q", "2", "--m", "1", "--n", "1"]) == 0
        assert gc.get_freeze_count() == frozen


def _modules_loaded_by(tmp_path, argv) -> list[str]:
    """The modules a fresh interpreter holds after `cli.main(argv)` wrote its CSV to a file."""
    import dnacodes

    src = os.path.dirname(os.path.dirname(dnacodes.__file__))
    out = tmp_path / "out.csv"
    probe = (
        "import sys\n"
        "from dnacodes import cli\n"
        f"code = cli.main({[*argv, '--out', str(out)]!r})\n"
        "print(code, ' '.join(sorted(sys.modules)))\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    code, *loaded = result.stdout.split()
    assert code == "0"
    assert out.stat().st_size > 0
    return loaded


class TestImports:
    @pytest.mark.parametrize("argv", [
        ["count", "--q", "4", "--m", "3", "--n", "5"],
        ["tables", "capacity"],
        ["figure1", "--n-max", "20"],
        ["capacity", "--q", "4", "--m", "3"],
        ["redundancy", "--family", "combined", "--m", "3", "--n", "20", "--a", "0.1"],
    ], ids=lambda argv: argv[0])
    def test_paper_commands_leave_the_codec_modules_unloaded(self, tmp_path, argv):
        loaded = _modules_loaded_by(tmp_path, argv)
        codecs = {f"dnacodes.{name}" for name in
                  ("constructions", "payload", "balancing", "blockcodes", "words")}
        assert not set(loaded) & codecs
        assert "encodings.ascii" not in loaded  # the CSV goes out as ASCII bytes

    @pytest.mark.parametrize("table", sorted(EFFICIENCY_CSVS))
    def test_efficiency_tables_load_the_rules_not_the_codecs(self, tmp_path, table):
        """The block-size rules come from blockcodes alone, never through the codec registry."""
        loaded = _modules_loaded_by(tmp_path, ["tables", table])
        assert {name for name in loaded if name.startswith("dnacodes")} == {
            "dnacodes", "dnacodes.cli", "dnacodes.counting", "dnacodes.asymptotics",
            "dnacodes.blockcodes", "dnacodes.words",
        }

    def test_codec_commands_leave_the_root_solver_unloaded(self):
        import dnacodes

        src = os.path.dirname(os.path.dirname(dnacodes.__file__))
        probe = "import sys, dnacodes.cli\nprint(' '.join(sorted(sys.modules)))\n"
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src}, check=True)
        loaded = set(result.stdout.split())
        assert "dnacodes.cli" in loaded
        assert "dnacodes.asymptotics" not in loaded
        assert "dnacodes.oracle" not in loaded
        # Each costs import time that every command would pay.
        assert not loaded & {"inspect", "dataclasses", "fractions", "decimal"}

    def test_paper_tables_leave_dataclasses_unloaded(self):
        import dnacodes

        src = os.path.dirname(os.path.dirname(dnacodes.__file__))
        probe = "import sys, dnacodes.asymptotics\nprint(' '.join(sorted(sys.modules)))\n"
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src}, check=True)
        loaded = set(result.stdout.split())
        assert "dnacodes.asymptotics" in loaded
        assert not loaded & {"inspect", "dataclasses"}

    def test_paper_tables_leave_fractions_unloaded(self):
        import dnacodes

        src = os.path.dirname(os.path.dirname(dnacodes.__file__))
        probe = (
            "import sys, dnacodes.asymptotics\n"
            "from dnacodes import counting\n"
            "dnacodes.asymptotics.capacity(4, 3)\n"
            "counting.balance_redundancy(200, 0.05)\n"
            "print(' '.join(sorted(sys.modules)))\n"
        )
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src}, check=True)
        loaded = set(result.stdout.split())
        assert "dnacodes.asymptotics" in loaded
        # Loading fractions also loads decimal: about 3 ms of every paper-table command.
        assert not loaded & {"fractions", "decimal"}

    def test_int_bounds_leave_fractions_unloaded(self):
        import dnacodes

        src = os.path.dirname(os.path.dirname(dnacodes.__file__))
        probe = (
            "import sys\n"
            "from dnacodes import counting\n"
            "counting.admitted_weights(10, 0)\n"
            "counting.admitted_weights(10, 1)\n"
            "counting.balance_redundancy(10, 1)\n"
            "print(' '.join(sorted(sys.modules)))\n"
        )
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src}, check=True)
        assert "fractions" not in result.stdout.split()

    def test_verify_leaves_dataclasses_and_fractions_unloaded(self, tmp_path):
        import dnacodes

        src = os.path.dirname(os.path.dirname(dnacodes.__file__))
        report = tmp_path / "verify.txt"
        probe = (
            "import sys\n"
            "from dnacodes import cli\n"
            f"code = cli.main(['verify', '--m-max', '2', '--n-max', '4', '--stream-blocks', '10',"
            f" '--out', {str(report)!r}])\n"
            "print(code, ' '.join(sorted(sys.modules)))\n"
        )
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src}, check=True)
        code, *loaded = result.stdout.split()
        assert code == "0"
        assert "dnacodes.oracle" in loaded
        # Together about 12-17 ms of every verify run.
        assert not set(loaded) & {"inspect", "dataclasses", "fractions", "decimal"}

    def test_every_exported_name_imports(self):
        import dnacodes
        from dnacodes import asymptotics, counting

        assert set(dnacodes.__all__) == {
            "CapacityResult", "capacity", "combined_redundancy", "efficiency_eta",
            "gamma", "leading_coefficient", "q_function", "rll_count_approx", "rll_redundancy",
            "WeightProfile", "balance_redundancy", "near_balanced_count", "rll_count",
            "rll_count_gf", "weight_profile",
        }
        assert len(dnacodes.__all__) == 15
        for name in dnacodes.__all__:
            module = next(m for m in (asymptotics, counting) if hasattr(m, name))
            assert getattr(dnacodes, name) is getattr(module, name)
        from dnacodes import capacity  # noqa: F401
        with pytest.raises(AttributeError):
            dnacodes.no_such_name  # noqa: B018
