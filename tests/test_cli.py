"""Command-line interface: argument parsing, output formats and their
byte-level determinism, JSON round-trips, and the exit-status contract."""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qfock import cli, closedform as cf, fock, verify
from qfock.qseries import (
    Param,
    Series,
    _monomial_str,
    series_from_json,
    series_equal,
    series_to_json,
    theta,
)
from reference import reference_parse_args, reference_readout


def run(argv):
    out = io.StringIO()
    status = cli.main(argv, out=out)
    return status, out.getvalue()


class TestCorr:
    def test_oracle_one_point(self):
        status, text = run(["corr", "--algebra", "a", "--level", "-1",
                            "--lambda", "0", "--points", "2/3",
                            "--N", "6", "--mode", "oracle",
                            "--format", "json"])
        assert status == 0
        got = series_from_json(json.loads(text))
        want = fock.a_sector_trace(0, [Param(F(2, 3))], 6)
        assert series_equal(got, want)

    def test_assignment_mode(self):
        status, text = run(["corr", "--algebra", "c", "--level", "-1",
                            "--lambda", "1", "--points", "2/3",
                            "--N", "5", "--mode", "assignment",
                            "--format", "json"])
        assert status == 0
        got = series_from_json(json.loads(text))
        want = cf.c_sector_minus1(1, [Param(F(2, 3))], 5)
        assert series_equal(got, want)

    def test_unrealized_level_is_usage_error(self):
        status, _ = run(["corr", "--algebra", "a", "--level", "1/2",
                         "--N", "4"])
        assert status == 2

    def test_b_type_rejected(self):
        status, _ = run(["corr", "--algebra", "b", "--level", "-1",
                         "--N", "4"])
        assert status == 2

    @pytest.mark.parametrize("algebra", "abcd")
    @pytest.mark.parametrize("level", [str(F(k, 2)) for k in range(-6, 7)])
    def test_qdim_and_corr_accept_the_same_modules(self, algebra, level):
        # With no points the oracle trace is the graded dimension, so both
        # commands realize a module or refuse it together.
        for lam in ("0", "0,0", "0,0,0"):
            tail = ["--algebra", algebra, "--level=" + level,
                    "--lambda", lam, "--N", "2"]
            qdim, corr = run(["qdim"] + tail), run(["corr"] + tail)
            assert qdim[0] in (0, 2)
            assert qdim == corr, lam

    @pytest.mark.parametrize("tail,svals", [
        (["--points", "3/5", "-2/3"], ("3/5", "-2/3")),
        (["--points", "-2/3", "3/5"], ("-2/3", "3/5")),
        (["--points=-2/3", "3/5"], ("-2/3", "3/5"))])
    def test_negative_points_in_any_position(self, tail, svals):
        status, text = run(["corr", "--algebra", "a", "--level", "-1",
                            "--lambda", "0", "--N", "3", "--format", "json"]
                           + tail)
        assert status == 0
        want = cf.extract_dominant(cf.duality_instance("a", "-l", 1), (0,),
                                   [Param(F(s)) for s in svals], 3)
        assert series_equal(series_from_json(json.loads(text)), want)


    @pytest.mark.parametrize("algebra,level", [("c", "-9/2"), ("d", "-7/2")])
    @pytest.mark.parametrize("points", [[], ["2/3"], ["2/3", "3/5"]])
    def test_rank_four_with_a_neutral_factor_runs_in_both_modes(
            self, algebra, level, points):
        # the oracle counts charged factors against its cap, as the
        # reduction bounds the rank, so both accept rank 4 plus a neutral
        argv = ["corr", "--algebra", algebra, "--level=" + level,
                "--lambda", "1,0,0,0", "--N", "2", "--format", "json"]
        if points:
            argv += ["--points"] + points
        oracle = run(argv + ["--mode", "oracle"])
        assert oracle[0] == 0
        assert oracle == run(argv + ["--mode", "assignment"])

    @pytest.mark.parametrize("algebra,level,lam", [
        ("a", "-2", "1,0"), ("c", "3/2", "1,0"), ("c", "-2", "1,0"),
        ("c", "-5/2", "1,0"), ("d", "-2", "1,0"), ("d", "-3/2", "1,0"),
        ("c", "-4", "1,0,0,0"), ("d", "-4", "1,0,0,0")])
    def test_four_points_run_in_every_mode(self, algebra, level, lam):
        # the reduction refuses what the oracle refuses, so it takes the
        # oracle's four points too
        argv = ["corr", "--algebra", algebra, "--level=" + level,
                "--lambda", lam, "--N", "2", "--format", "json",
                "--points", "2/3", "3/5", "5/7", "-4/9"]
        oracle = run(argv + ["--mode", "oracle"])
        assert oracle[0] == 0
        assert oracle == run(argv + ["--mode", "assignment"])
        assert run(argv + ["--mode", "literal"])[0] == 0

    @pytest.mark.parametrize("argv", [
        ["--algebra", "a", "--level", "-2", "--lambda", "1,0",
         "--points", "2/3", "3/5", "5/7", "-4/9", "4/7"],
        ["--algebra", "d", "--level", "-5", "--lambda", "0,0,0,0,0"],
        ["--algebra", "c", "--level", "-2", "--lambda", "0,1"]],
        ids=["5-points", "rank-5", "label"])
    def test_refused_alike_in_every_mode(self, argv, capsys):
        # for q-shifted points see the test below
        got = set()
        for mode in ("oracle", "assignment", "literal"):
            status, text = run(["corr", "--N", "2", "--mode", mode] + argv)
            got.add((status, text, capsys.readouterr().err))
        ((status, text, err),) = got
        assert (status, text) == (2, "") and err.startswith("error: ")

    @pytest.mark.parametrize("mode", ["oracle", "assignment", "literal"])
    def test_q_shifted_point_refused_alike_in_every_mode(self, mode, capsys):
        status, text = run(["corr", "--algebra", "c", "--level", "3/2",
                            "--lambda", "1,0", "--points", "2/3:1", "3/5",
                            "--mode", mode])
        assert (status, text) == (2, "")
        assert capsys.readouterr().err == (
            "error: NonTruncatable: state enumeration needs plain scalar "
            "points; use modesum for q-shifted points\n")

    @pytest.mark.parametrize("mode", ["oracle", "assignment", "literal"])
    @pytest.mark.parametrize("points", [["2/3", "2/3"], ["2/3", "3/2"]],
                             ids=["repeated", "inverse"])
    def test_signed_product_one_refused_by_the_fermion_blocks(
            self, points, mode, capsys):
        # type c at l - 1/2 reads theta at the points' signed products,
        # which vanishes at 1; the oracle reads no theta and answers
        status, text = run(["corr", "--algebra", "c", "--level=3/2",
                            "--lambda", "1,0", "--points", *points,
                            "--N", "2", "--mode", mode])
        err = capsys.readouterr().err
        if mode == "oracle":
            assert (status, err) == (0, "") and text
        else:
            assert (status, text) == (2, "")
            assert err == ("error: DegenerateParameter: theta vanishes at a "
                           "partial product equal to 1 or q^(+-1)\n")


ZKEYS = [(), ((1, 1),), ((1, -3),), ((1, 2), (2, -1)), ((2, 5),)]
READOUTS = [
    Series.zero(1),
    Series.const(F(-7), 0),
    Series(6, {(0, ()): F(-3, 2), (1, ((1, 1),)): F(5), (-1, ()): F(2),
               (2, ((1, -3), (2, 1))): F(-7), (3, ()): F(4, 6),
               (6, ((2, 2),)): F(-1, 9)}),
]


@st.composite
def readout_series(draw):
    """A series to q^4 with negative, integral and reduced coefficients,
    z-keys with half-integer exponents, and no term at all."""
    terms = draw(st.dictionaries(
        st.tuples(st.integers(-2, 8), st.sampled_from(ZKEYS)),
        st.builds(F, st.integers(-30, 30), st.integers(1, 12)),
        max_size=12))
    return Series(8, terms)


class TestReadout:
    """The pretty, csv and json text and ``repr`` of a series print its
    coefficients in key order exactly as their Fractions do."""

    @pytest.mark.parametrize("s", READOUTS, ids=["zero", "const", "mixed"])
    def test_cases(self, s):
        self.check(s)

    @settings(max_examples=60, deadline=None)
    @given(readout_series())
    def test_random(self, s):
        self.check(s)

    @staticmethod
    def check(s):
        ref = reference_readout(s)
        assert list(s.reduced_terms()) == [(k, n, d) for k, n, d, _ in ref]
        text = {}
        for fmt in ("pretty", "csv", "json"):
            out = io.StringIO()
            cli._emit_series(s, fmt, out)
            text[fmt] = out.getvalue()
        rows = [(_monomial_str(q2, zk), c) for (q2, zk), _, _, c in ref]
        width = max([len(m) for m, _ in rows] + [4])
        assert text["pretty"] == "".join(
            "%-*s  %s\n" % (width, m, c) for m, c in rows) or "0\n"
        assert text["csv"].splitlines()[1:] == [
            "%d,%s,%d,%d" % (q2, ";".join("%d:%s" % (v, F(e2, 2))
                                          for v, e2 in zk), n, d)
            for (q2, zk), n, d, _ in ref]
        assert [t["c"] for t in json.loads(text["json"])["terms"]] \
            == [t["c"] for t in series_to_json(s)["terms"]] \
            == [c for _, _, _, c in ref]
        bits = repr(s)[len("Series["):].split("; O(q^")[0].split(" + ")
        assert len(bits) == min(len(ref), 8) + (len(ref) > 8) or ref == []
        for bit, (_, _, _, c) in zip(bits[:8], ref):
            assert bit == c or bit.startswith(c + "*")
        if not ref:
            assert (text["pretty"], text["csv"], bits) \
                == ("0\n", "q_num,z,coeff_num,coeff_den\n", ["0"])


class TestQdim:
    def test_matches_library(self):
        status, text = run(["qdim", "--algebra", "d", "--level", "-2",
                            "--lambda", "1,0", "--N", "8",
                            "--format", "json"])
        assert status == 0
        got = series_from_json(json.loads(text))
        assert series_equal(got, cf.qdim_closed("d", "-2", (1, 0), 8))

    def test_half_integer_level_string(self):
        status, text = run(["qdim", "--algebra", "c", "--level", "3/2",
                            "--lambda", "1,0", "--N", "6",
                            "--form", "product", "--format", "json"])
        assert status == 0
        got = series_from_json(json.loads(text))
        assert series_equal(
            got, cf.qdim_closed("c", "3/2", (1, 0), 6, "product"))

    def test_negative_values_may_follow_a_space(self):
        for argv in (["qdim", "--algebra", "d", "--lambda", "1,0", "--N", "4"],
                     ["corr", "--algebra", "d", "--lambda", "1,0",
                      "--points", "2/3", "--N", "2"]):
            spaced = run(argv + ["--level", "-3/2"])
            joined = run(argv + ["--level=-3/2"])
            assert spaced[0] == 0 and spaced[1]
            assert spaced == joined
        argv = ["qdim", "--algebra", "a", "--level", "-2", "--N", "4"]
        spaced = run(argv + ["--lambda", "0,-1"])
        assert spaced[0] == 0
        assert spaced == run(argv + ["--lambda=0,-1"])

    @pytest.mark.parametrize("algebra,level", [
        ("a", "-2"), ("c", "-2"), ("c", "-5/2"), ("d", "-3/2")])
    def test_product_form_elsewhere_is_refused(self, algebra, level):
        status, text = run(["qdim", "--algebra", algebra, "--level=" + level,
                            "--lambda", "1,0", "--form", "product"])
        assert (status, text) == (2, "")

    def test_bad_label_is_usage_error(self):
        status, _ = run(["qdim", "--algebra", "c", "--level", "-2",
                         "--lambda", "x,y", "--N", "4"])
        assert status == 2

    def test_rank_over_the_weyl_cap_is_refused(self, capsys):
        status, text = run(["qdim", "--algebra", "d", "--level", "-7",
                            "--lambda", "0,0,0,0,0,0,0"])
        assert (status, text) == (2, "")
        assert capsys.readouterr().err \
            == "error: CapExceeded: Weyl rank 7 exceeds cap 6\n"


class TestIdentity:
    def test_pass_gives_zero(self):
        status, text = run(["identity", "--name", "theta-triple-product"])
        assert status == 0
        assert "pass" in text

    def test_unknown_name_is_usage_error(self):
        status, _ = run(["identity", "--name", "no-such-check"])
        assert status == 2

    def test_json_format(self):
        status, text = run(["identity", "--name", "exponential-right",
                            "--format", "json"])
        assert status == 0
        doc = json.loads(text)
        assert doc["checks"][0]["name"] == "exponential-right"


class TestVerify:
    def test_filtered_run(self):
        status, text = run(["verify", "--filter", "lemma-222-i-*"])
        assert status == 0
        assert "5/5 checks passed" in text

    def test_empty_filter_match_is_usage_error(self):
        status, _ = run(["verify", "--filter", "no-such-*"])
        assert status == 2

    def test_failing_gate_check_exits_one(self, monkeypatch):
        spec = verify.CheckSpec(
            "synthetic-cli-fail", 4, "gate",
            lambda: (Series.one(4), Series.zero(4)))
        monkeypatch.setattr(verify, "registry", lambda: [spec])
        status, text = run(["verify", "--filter", "synthetic-*"])
        assert status == 1
        assert "fail" in text

    def test_json_report_schema(self):
        status, text = run(["verify", "--filter", "zzz-k0-*",
                            "--format", "json"])
        assert status == 0
        doc = json.loads(text)
        assert {c["name"] for c in doc["checks"]} \
            == {"zzz-k0-n1", "zzz-k0-n2"}
        for c in doc["checks"]:
            assert set(c) == {"name", "status", "first_discrepancy", "ms",
                              "mode", "detail"}


class TestDump:
    def test_theta_json(self):
        status, text = run(["dump", "theta", "t=2/3", "N=4"])
        assert status == 0
        doc = json.loads(text)
        assert doc["terms"][0] == {"c": "-5/6", "q": "0"}

    def test_theta_at_shifted_point_keeps_truncation(self):
        status, text = run(["dump", "theta", "t=2/3:1", "N=2"])
        assert status == 0
        doc = json.loads(text)
        assert doc["truncation"] == "2"
        assert series_from_json(doc) == theta(Param(F(2, 3), 1), 4).truncate(2)

    def test_theta_at_shift_below_minus_one_is_refused(self):
        status, text = run(["dump", "theta", "t=2/3:-2", "N=2"])
        assert (status, text) == (2, "")

    def test_f_bo_round_trip(self):
        status, text = run(["dump", "f_bo", "n=1", "t=2/3", "N=6"])
        assert status == 0
        got = series_from_json(json.loads(text))
        assert series_equal(got, cf.f_bo([Param(F(2, 3))], 6))

    def test_qhyper_preset(self):
        status, text = run(["dump", "qhyper", "upper=2/3,3/5", "lower=1:1",
                            "arg=1:1", "N=5"])
        assert status == 0
        assert json.loads(text)["terms"]

    def test_f_bo_at_a_zero_of_theta_is_refused(self, capsys):
        status, text = run(["dump", "f_bo", "t=1:1", "N=2"])
        assert (status, text) == (2, "")
        assert capsys.readouterr().err.startswith(
            "error: DegenerateParameter: theta vanishes")

    def test_unknown_name(self):
        status, _ = run(["dump", "no-such-series"])
        assert status == 2

    def test_unused_parameter_rejected(self):
        status, _ = run(["dump", "theta", "t=2/3", "bogus=1"])
        assert status == 2


class TestMalformedNumbers:
    """A number that does not parse, an empty q-shift, an empty entry in a
    list of points or a dump parameter given twice is a usage error (exit
    2), not a result for misread input nor a traceback with exit 1, which
    means a failed gating check."""

    @pytest.mark.parametrize("argv", [
        ["qdim", "--algebra", "a", "--level=-1", "--N", "abc"],
        ["qdim", "--algebra", "a", "--level=-1", "--N", "1/0"],
        ["dump", "theta", "t=2/3:x"],
        ["dump", "f_bo", "t=2/3", "n=abc"],
        # an empty q-shift, and a key given twice
        ["corr", "--algebra", "a", "--level=-1", "--lambda", "0",
         "--points", "2/3:", "--N", "2"],
        ["dump", "theta", "t=2/3:"],
        ["dump", "theta", "t=2/3", "t=3/5"],
        # an empty entry inside a comma list of points
        ["dump", "f_bo", "t=2/3,,3/5", "N=1"],
        ["dump", "qhyper", "upper=2/3,", "arg=1:1", "N=2"],
    ], ids=["order-abc", "order-1/0", "theta-shift-x", "f_bo-n-abc",
            "point-shift-empty", "theta-shift-empty", "theta-t-twice",
            "f_bo-empty-entry", "qhyper-empty-entry"])
    def test_is_usage_error(self, argv, capsys):
        status, text = run(argv)
        assert (status, text) == (2, "")
        assert capsys.readouterr().err.startswith("error: ")

    def test_wholly_empty_point_list_is_no_points(self):
        assert run(["dump", "qhyper", "upper=", "lower=", "arg=1:1",
                    "N=3"]) == run(["dump", "qhyper", "arg=1:1", "N=3"])


class TestNegativeOrder:
    """A negative truncation order is a usage error that names N, refused
    before any series is built."""

    @pytest.mark.parametrize("argv", [
        ["corr", "--algebra", "a", "--level=-1", "--lambda", "0",
         "--N", "-1"],
        ["qdim", "--algebra", "a", "--level=-1", "--lambda", "0",
         "--N", "-2"],
        ["qdim", "--algebra", "c", "--level", "3/2", "--N=-1/2"],
        ["qdim", "--algebra", "c", "--level", "3/2", "--N", "-1/2"],
        ["dump", "theta", "t=2/3", "N=-1"],
        ["dump", "f_bo", "t=2/3", "N=-1"],
    ], ids=["corr", "qdim", "qdim-half", "qdim-half-spaced", "dump-theta",
            "dump-f_bo"])
    def test_is_usage_error(self, argv, capsys):
        status, text = run(argv)
        assert (status, text) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and " N " in err

    def test_zero_order_is_accepted(self):
        status, text = run(["dump", "theta", "t=2/3", "N=0"])
        assert status == 0
        assert json.loads(text)["truncation"] == "0"


# Values the differential argv test draws for each flag without choices.
ARGV_VALUES = {
    "algebra": ["a", "c", "d", "b"],
    "level": ["-1", "-3/2", "1/2", "0", "-10"],
    "lambda": ["", "0", "1,0", "0,-1", "-1,-2", "x,y"],
    "N": ["10", "0", "-1", "-1/2", "abc"],
    "name": ["theta-triple-product", "no-such-check"],
    "filter": ["", "lemma-222-*", "a=b"],
}
ARGV_POINTS = ["2/3", "-2/3", "3/5:1", "-1/2:-1", "7"]


class TestArgv:
    """The grammar of the command line: a command, then --flag value or
    --flag=value words, exact flag names only, and a usage error naming the
    offending word for anything else."""

    CORR = ["corr", "--algebra", "a", "--level", "-1"]

    @pytest.mark.parametrize("argv,word", [
        ([], "command"),
        (["frobnicate", "--N", "2"], "'frobnicate'"),
        (CORR + ["--bogus", "1"], "'--bogus'"),
        (["corr", "--alg", "a", "--level", "-1"], "'--alg'"),
        (["corr", "--algebra", "a"], "--level"),
        (CORR + ["--N"], "--N"),
        (["corr", "--algebra", "--level", "-1"], "--algebra"),
        (CORR + ["--mode", "exact"], "'exact'"),
        (["qdim", "--algebra", "a", "--level=-1", "--form=sum"], "'sum'"),
        (["verify", "--format", "csv"], "'csv'"),
        (CORR + ["--N", "2", "--N=3"], "--N"),
        (CORR + ["2/3"], "'2/3'"),
        (["dump", "--format", "json"], "name"),
    ], ids=["no-command", "unknown-command", "unknown-flag", "abbreviated",
            "missing-required", "value-missing-at-end",
            "value-missing-before-flag", "bad-mode", "bad-form",
            "bad-format", "N-twice", "stray-positional", "dump-no-name"])
    def test_usage_error_names_the_word(self, argv, word, capsys):
        assert run(argv) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and word in err, err

    @pytest.mark.parametrize("argv", [
        CORR + ["--mode", "bogus"],
        CORR + ["--format", "bogus"],
        ["qdim", "--algebra", "a", "--level", "-1", "--format", "bogus"],
        ["dump", "theta", "t=2/3", "--format", "bogus"],
    ], ids=["corr-mode", "corr-format", "qdim-format", "dump-format"])
    def test_unknown_choice_never_reaches_a_handler(self, argv, capsys):
        """The handlers keep no branch for an unknown --mode or --format:
        the flag table refuses it first, exit 2."""
        assert run(argv) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'bogus'" in err, err

    @pytest.mark.parametrize("argv,names", [
        (["-h"], list(cli._COMMANDS)),
        (["--help"], list(cli._COMMANDS)),
        (["corr", "--algebra", "a", "-h"],
         ["--algebra", "--level", "--lambda", "--points", "--mode", "--N",
          "--format", "oracle | assignment | literal", "required"]),
        (["dump", "--help"], ["dump NAME", "--format"])])
    def test_help_lists_the_table(self, argv, names, capsys):
        status, text = run(argv)
        assert status == 0 and capsys.readouterr().err == ""
        assert all(name in text for name in names)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_reads_what_argparse_read(self, data):
        """Every argv built from the table, with its flags in any order,
        spaced or joined by '=', and --points given zero to two times,
        reads the values the argparse parser read."""
        draw = data.draw
        command = draw(st.sampled_from(sorted(cli._COMMANDS)))
        chunks = []
        for flag, (default, choices) in cli._COMMANDS[command].items():
            if flag == "points":
                for _ in range(draw(st.integers(0, 2))):
                    vals = draw(st.lists(st.sampled_from(ARGV_POINTS),
                                         max_size=3))
                    joined = vals and draw(st.booleans())
                    chunks.append(["--points=" + vals[0]] + vals[1:]
                                  if joined else ["--points"] + vals)
                continue
            if default is not None and draw(st.booleans()):
                continue
            value = draw(st.sampled_from(choices or ARGV_VALUES[flag]))
            chunks.append(["--%s=%s" % (flag, value)] if draw(st.booleans())
                          else ["--" + flag, value])
        words = [w for c in draw(st.permutations(chunks)) for w in c]
        if command == "dump":
            loose = [draw(st.sampled_from(["theta", "f_bo", "no-such"]))]
            loose += draw(st.lists(st.sampled_from(
                ["t=2/3", "N=-1", "upper=2/3,-3/5", "n=1"]), max_size=3))
            words = loose + words if draw(st.booleans()) else words + loose
        argv = [command] + words
        assert vars(cli._parse_args(argv)) == reference_parse_args(argv)


class TestDeterminismAndFormats:
    def test_byte_identical_reruns(self):
        argv = ["corr", "--algebra", "a", "--level", "-2",
                "--lambda", "1,0", "--points", "2/3", "3/5",
                "--N", "5", "--mode", "assignment", "--format", "json"]
        assert run(argv) == run(argv)

    def test_csv_columns_and_order(self):
        status, text = run(["qdim", "--algebra", "a", "--level", "-1",
                            "--lambda", "1", "--N", "5", "--format", "csv"])
        assert status == 0
        lines = text.strip().splitlines()
        assert lines[0] == "q_num,z,coeff_num,coeff_den"
        qcols = [int(line.split(",")[0]) for line in lines[1:]]
        assert qcols == sorted(qcols)
        want = cf.qdim_closed("a", "-1", (1,), 5)
        rows = {}
        for line in lines[1:]:
            q_num, _, num, den = line.split(",")
            rows[int(q_num)] = F(int(num), int(den))
        assert rows == {q2: c for (q2, _), c in want.terms.items()}

    def test_pretty_format(self):
        status, text = run(["dump", "pochhammer", "a=2/3:1", "N=3",
                            "--format", "pretty"])
        assert status == 0
        assert text.splitlines()[0].startswith("q^0")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_reader_closing_the_pipe_early_gets_no_traceback(unbuffered):
    """`qfock qdim ... | head`: when the reader has gone, the command exits
    1 with nothing on stderr, whether stdout is buffered (the failed write
    then surfaces in a flush) or not."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "qfock.cli", "qdim", "--algebra", "c",
         "--level=-3/2", "--lambda", "0", "--N", "30"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # no reader is left before the first write
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


def test_entry_point_exit_status():
    """``python -m qfock.cli``: -h exits 0, a usage error 2 with its
    message on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

    def qfock(*argv):
        return subprocess.run([sys.executable, "-m", "qfock.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
    ok = qfock("--help")
    assert (ok.returncode, ok.stderr) == (0, "") and "corr" in ok.stdout
    bad = qfock("corr", "--algebra", "a")
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr.startswith("error: ")
