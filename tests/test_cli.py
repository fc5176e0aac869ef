import argparse
import csv
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cubeball import cli
from cubeball.bits import DEFAULT_ENUMERATION_CAP
from cubeball.cli import CLI_ENUMERATION_CAP, build_parser, run
from cubeball.errors import DigitLimitError

ROOT = Path(__file__).resolve().parent.parent


def _run(argv):
    buf = io.StringIO()
    code = run(argv, stdout=buf)
    return code, buf.getvalue()


def _fields(line):
    return dict(part.split("=", 1) for part in shlex.split(line))


def test_map_example():
    code, out = _run(["map", "--bijection", "psi", "--input", "0000"])
    assert code == 0
    rec = _fields(out)
    assert rec["output"] == "00111"
    assert rec["chain_code"] == "____"
    assert rec["version"] == "0.1.0"


def test_invmap_example():
    code, out = _run(["invmap", "--bijection", "psi", "--input", "01110"])
    assert code == 0
    assert _fields(out)["output"] == "0001"


def test_chain_full():
    code, out = _run(["chain", "--input", "01100110", "--full"])
    assert code == 0
    rec = _fields(out)
    assert rec["chain_code"] == "_1100_10"
    assert rec["members"] == "01100010|01100110|11100110"
    assert (rec["k"], rec["j"], rec["ell"]) == ("3", "4", "1")


def test_verify_exhaustive_example():
    code, out = _run(
        ["verify", "--bijection", "psi", "--direction", "fwd", "--n", "12",
         "--mode", "exhaustive"]
    )
    assert code == 0
    rec = _fields(out)
    assert int(rec["max_stretch"]) <= 4
    assert rec["mode"] == "exhaustive"
    assert rec["samples"] == "-"


def test_verify_inverse():
    code, out = _run(
        ["verify", "--bijection", "psi", "--direction", "inv", "--n", "8"]
    )
    assert code == 0
    assert int(_fields(out)["max_stretch"]) <= 5


def test_verify_sampled_requires_seed():
    code, _ = _run(
        ["verify", "--bijection", "psi", "--n", "8", "--mode", "sample"]
    )
    assert code == 2


def test_verify_sampled_deterministic():
    args = ["verify", "--bijection", "psi", "--n", "10", "--mode", "sample",
            "--samples", "2000", "--seed", "7"]
    first = _run(args)
    second = _run(args)
    assert first == second
    assert first[0] == 0
    rec = _fields(first[1])
    assert rec["seed"] == "7"
    assert rec["samples"] == "2000"


def test_pairs_audit():
    code, out = _run(["pairs-audit", "--bijection", "psi", "--n", "4"])
    assert code == 0
    rec = _fields(out)
    assert rec["min_ratio"] == "1/3"
    assert rec["max_ratio"] == "4/1"


def test_stats_chains_csv():
    code, out = _run(["stats", "chains", "--n", "4", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header, body = rows[0], rows[1:]
    assert header[:3] == ["tool", "version", "command"]
    counts = {int(r[header.index("t")]): int(r[header.index("count")]) for r in body}
    assert counts == {1: 2, 2: 0, 3: 3, 4: 0, 5: 1}


def test_stats_profile():
    code, out = _run(["stats", "profile", "--n", "4", "--a", "0", "--b", "0"])
    assert code == 0
    assert _fields(out)["count"] == "2"


def test_stats_flipprob_modes_agree():
    code_a, out_a = _run(["stats", "flipprob", "--n", "6", "--mode", "exact"])
    code_b, out_b = _run(["stats", "flipprob", "--n", "6", "--mode", "exhaustive"])
    assert code_a == code_b == 0
    probs_a = [_fields(line)["probability"] for line in out_a.splitlines()]
    probs_b = [_fields(line)["probability"] for line in out_b.splitlines()]
    assert probs_a == probs_b
    assert len(probs_a) == 6


def test_stats_influence_rows():
    code, out = _run(["stats", "influence", "--n", "6", "--bijection", "psi"])
    assert code == 0
    assert len(out.splitlines()) == 7


def test_reduce_majority():
    code, out = _run(["reduce-majority", "--input", "01101"])
    assert code == 0
    rec = _fields(out)
    assert rec["majority"] == "1"
    assert rec["first_output_bit"] == "1"
    assert rec["agree"] == "true"
    assert rec["output_length"] == "16"


def test_domain_error_record_and_exit_code():
    code, out = _run(["map", "--bijection", "psi", "--input", "010"])
    assert code == 1
    rec = _fields(out)
    assert rec["error"] == "OddLengthError"


def test_not_in_ball_error():
    code, out = _run(["invmap", "--bijection", "psi", "--input", "00011"])
    assert code == 1
    assert _fields(out)["error"] == "NotInBallError"


def test_cap_error_without_allow_large():
    # 20 * 2^20 forward (x, i) pairs already go over the 2^24 cap
    code, out = _run(["pairs-audit", "--bijection", "psi", "--n", "20"])
    assert code == 1
    assert _fields(out)["error"] == "EnumerationCapError"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--bijection", "psi", "--n", "1000000"],
        ["stats", "chains", "--n", "1000000"],
        ["pairs-audit", "--bijection", "psi", "--n", "1000000"],
        ["stats", "flipprob", "--n", "1000000", "--mode", "exhaustive"],
    ],
)
def test_cap_error_for_huge_n_is_a_one_line_error(argv):
    code, out = _run(argv)
    assert code == 1
    assert len(out.splitlines()) == 1
    assert _fields(out)["error"] == "EnumerationCapError"
    assert "2^1000000 " in out


@pytest.mark.parametrize(
    "argv,what",
    [
        (["verify", "--bijection", "psi", "--n", str(10**20), "--mode", "sample",
          "--samples", "1", "--seed", "1"], "bits per draw"),
        (["stats", "flipprob", "--n", str(10**20), "--bit", "1"], "bits per binomial"),
        (["stats", "flipprob", "--n", str(10**20)], "bits per binomial"),
    ],
)
def test_n_past_the_library_ceiling_is_a_one_line_error(argv, what):
    # neither builds a table, but an n-bit draw or binomial is as large
    code, out = _run(argv)
    assert code == 1
    assert len(out.splitlines()) == 1
    rec = _fields(out)
    assert rec["error"] == "EnumerationCapError"
    assert rec["detail"] == f"enumeration of {10**20} {what} exceeds cap {DEFAULT_ENUMERATION_CAP}"


@pytest.mark.parametrize(
    "argv",
    [
        ["pairs-audit", "--bijection", "psi", "--n", "0"],
        ["verify", "--bijection", "psi", "--n", "-2"],
        ["verify", "--bijection", "psi", "--n", "0", "--mode", "sample", "--seed", "1"],
        ["stats", "influence", "--n", "0"],
        ["stats", "chains", "--n", "-1"],
        ["stats", "chains", "--n", "0"],
        ["stats", "profile", "--n", "-1", "--a", "0", "--b", "0"],
        ["stats", "flipprob", "--n", "0"],
        ["stats", "flipprob", "--n", "-1"],
        ["stats", "flipprob", "--n", "-1", "--mode", "exhaustive"],
        ["invmap", "--bijection", "psi", "--input", "1"],
        ["invmap", "--bijection", "phi", "--input", "1"],
        ["invmap", "--bijection", "naive", "--input", "1"],
    ],
)
def test_dimension_below_domain_is_a_one_line_error(argv):
    code, out = _run(argv)
    assert code == 1
    assert len(out.splitlines()) == 1
    assert _fields(out)["error"] == "DimensionError"


@pytest.mark.parametrize(
    "bits,error,detail",
    [("0011", "OddLengthError", "naive_inverse requires odd input length, got 4"),
     ("1", "DimensionError", "naive_inverse requires input length >= 3, got 1")],
)
def test_invmap_error_names_the_input_length_given(bits, error, detail):
    code, out = _run(["invmap", "--bijection", "naive", "--input", bits])
    assert code == 1
    assert (_fields(out)["error"], _fields(out)["detail"]) == (error, detail)


def test_usage_error_exit_code():
    code, _ = _run(["map", "--bijection", "nope", "--input", "0000"])
    assert code == 2
    code, _ = _run(["verify", "--bijection", "psi", "--n", "4", "--workers", "2"])
    assert code == 2


def test_out_file(tmp_path):
    target = tmp_path / "report.txt"
    code, out = _run(
        ["map", "--bijection", "psi", "--input", "0000", "--out", str(target)]
    )
    assert code == 0
    assert target.read_text() == out


class _CountingStream(io.StringIO):
    """A stdout stub that counts its ``write`` calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_report_is_written_record_by_record(tmp_path, fmt):
    # no whole-report copy: one write per record (and one for the CSV header)
    target = tmp_path / "report.txt"
    out = _CountingStream()
    argv = ["stats", "flipprob", "--n", "10", "--format", fmt, "--out", str(target)]
    assert run(argv, stdout=out) == 0
    header = fmt == "csv"
    assert len(out.getvalue().splitlines()) == 10 + header
    assert out.writes == 10 + header
    assert target.read_text() == out.getvalue()


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, where):
    target = tmp_path / "nonexistent" / "x.txt" if where == "missing" else tmp_path
    code, out = _run(["map", "--bijection", "psi", "--input", "0000", "--out", str(target)])
    assert code == 2
    assert out == (ROOT / "tests" / "golden" / "map_psi.txt").read_text()
    err = capsys.readouterr().err
    assert err.startswith(f"cubeball: usage error: cannot write --out {target}: ")
    assert len(err.splitlines()) == 1


def test_module_entry_point_subprocess(tmp_path):
    missing = str(tmp_path / "nonexistent" / "x.txt")
    cases = [
        (["map", "--bijection", "psi", "--input", "0000"], 0, "map_psi"),
        (["pairs-audit", "--bijection", "psi", "--n", "0"], 1, "error_dimension_pairs"),
        (["verify"], 2, None),
        (["map", "--bijection", "psi", "--input", "0000", "--out", missing], 2, "map_psi"),
    ]
    for argv, code, golden in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "cubeball", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == code, argv
        assert "Traceback" not in proc.stderr
        if golden is None:
            assert proc.stdout == ""
            assert "usage:" in proc.stderr
        else:
            assert proc.stdout == (ROOT / "tests" / "golden" / f"{golden}.txt").read_text()


# each command's record name, a run that succeeds and one that fails
_NAMED_RUNS = [
    ("map", "map --bijection psi --input 0000", "map --bijection psi --input 010"),
    ("invmap", "invmap --bijection psi --input 01110",
     "invmap --bijection psi --input 0000"),
    ("chain", "chain --input 0011", "chain --input 01x"),
    ("verify", "verify --bijection psi --n 4", "verify --bijection psi --n 0"),
    ("pairs-audit", "pairs-audit --bijection psi --n 4",
     "pairs-audit --bijection psi --n 0"),
    ("stats-chains", "stats chains --n 4", "stats chains --n 0"),
    ("stats-profile", "stats profile --n 4 --a 0 --b 0", "stats profile --n 4 --a 1 --b 0"),
    ("stats-flipprob", "stats flipprob --n 4", "stats flipprob --n 3"),
    ("stats-influence", "stats influence --n 4", "stats influence --n 3"),
    ("reduce-majority", "reduce-majority --input 011", "reduce-majority --input 0101"),
]


@pytest.mark.parametrize("name,ok,bad", _NAMED_RUNS, ids=[run[0] for run in _NAMED_RUNS])
def test_success_and_error_records_carry_the_same_command(name, ok, bad):
    code, out = _run(ok.split())
    assert code == 0
    assert {_fields(line)["command"] for line in out.splitlines()} == {name}
    code, out = _run(bad.split())
    assert code == 1
    rec = _fields(out)
    assert "error" in rec
    assert rec["command"] == name


@pytest.mark.parametrize(
    "extra,message",
    [
        (["--direction", "inv", "--seed", "1"], "sampled sweeps are forward only"),
        (["--seed", "1", "--samples", "0"], "--samples must be >= 1"),
        ([], "sampled mode requires an explicit --seed"),
        (["--seed", "-5"], "--seed must be >= 0"),
    ],
)
def test_sampled_mode_usage_errors(capsys, extra, message):
    code, out = _run(["verify", "--bijection", "psi", "--n", "8", "--mode", "sample"] + extra)
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == f"cubeball: usage error: {message}\n"


def test_sampled_mode_accepts_seed_zero():
    args = ["verify", "--bijection", "psi", "--n", "8", "--mode", "sample",
            "--samples", "10", "--seed", "0"]
    code, out = _run(args)
    assert code == 0
    assert _fields(out)["seed"] == "0"


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    assert run([flag]) == 0
    assert capsys.readouterr().out


def test_selftest_failed_criterion_exits_1(monkeypatch):
    from cubeball import acceptance

    monkeypatch.setattr(acceptance, "CRITERIA", (
        (1, "holds", lambda: (True, "fine")),
        (2, "broken", lambda: (False, "patched to fail")),
    ))
    code, out = _run(["selftest"])
    assert code == 1
    recs = [_fields(line) for line in out.splitlines()]
    assert [r["status"] for r in recs] == ["PASS", "FAIL", "FAIL"]
    assert recs[-1]["criterion"] == "summary"
    assert recs[-1]["detail"] == "1/2 criteria passed"


@pytest.mark.parametrize(
    "argv",
    [
        ["map", "--bijection", "psi", "--input", "0000"],
        ["invmap", "--bijection", "psi", "--input", "01110"],
        ["stats", "profile", "--n", "4", "--a", "0", "--b", "0"],
        ["reduce-majority", "--input", "01101"],
        ["selftest"],
    ],
)
def test_allow_large_is_a_usage_error_where_no_cap_applies(capsys, argv):
    code, out = _run(argv + ["--allow-large"])
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --allow-large" in capsys.readouterr().err


def _subparsers(parser, prefix=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subparsers(sub, prefix + (name,))
            return
    yield " ".join(prefix), parser


COMMON = ["-h", "--help", "--format", "--out"]
CAPPED = COMMON + ["--allow-large"]

OPTIONS = {
    "map": COMMON + ["--bijection", "--input"],
    "invmap": COMMON + ["--bijection", "--input"],
    "chain": CAPPED + ["--input", "--full"],
    "verify": CAPPED + ["--bijection", "--direction", "--n", "--mode", "--samples", "--seed"],
    "pairs-audit": CAPPED + ["--bijection", "--n"],
    "stats chains": CAPPED + ["--n"],
    "stats profile": COMMON + ["--n", "--a", "--b"],
    "stats flipprob": CAPPED + ["--n", "--bit", "--mode"],
    "stats influence": CAPPED + ["--n", "--bijection"],
    "reduce-majority": COMMON + ["--input"],
    "selftest": COMMON,
}


def test_option_strings_of_each_subcommand():
    got = {
        name: sorted(s for a in p._actions for s in a.option_strings)
        for name, p in _subparsers(build_parser())
    }
    assert got == {name: sorted(opts) for name, opts in OPTIONS.items()}


def test_allow_large_sets_the_cap():
    ns = build_parser().parse_args(["stats", "chains", "--n", "4"])
    assert ns.cap == CLI_ENUMERATION_CAP == 1 << 24
    ns = build_parser().parse_args(["stats", "chains", "--n", "4", "--allow-large"])
    assert ns.cap == DEFAULT_ENUMERATION_CAP == 1 << 28
    assert (ns.command, ns.handler.__name__) == ("stats-chains", "_cmd_stats_chains")


def test_chain_full_over_the_cap_is_a_one_line_error():
    # the all-blank code at n = 4096 lists 4097 members of 4096 bits
    code, out = _run(["chain", "--input", "0" * 4096, "--full"])
    assert code == 1
    assert len(out.splitlines()) == 1
    rec = _fields(out)
    assert rec["error"] == "EnumerationCapError"
    assert "16781312 member bits" in out
    # without --full nothing is listed, so nothing is capped
    assert _run(["chain", "--input", "0" * 4096])[0] == 0


def test_chain_full_cap_boundary_and_allow_large(monkeypatch):
    # 01100110 sits on a chain of 3 members of 8 bits: 24 member bits
    argv = ["chain", "--input", "01100110", "--full"]
    expected = _run(argv)
    monkeypatch.setattr(cli, "CLI_ENUMERATION_CAP", 24)
    assert _run(argv) == expected
    monkeypatch.setattr(cli, "CLI_ENUMERATION_CAP", 23)
    code, out = _run(argv)
    assert code == 1
    assert _fields(out)["detail"] == "enumeration of 24 member bits exceeds cap 23"
    assert _run(argv + ["--allow-large"]) == expected


def test_chain_locates_its_input_once(monkeypatch):
    calls = []
    real = cli.position
    monkeypatch.setattr(cli, "position", lambda x: calls.append(x) or real(x))
    assert _run(["chain", "--input", "01100110", "--full"])[0] == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv,digits",
    [
        (["stats", "profile", "--n", "14306", "--a", "0", "--b", "0"], "4301"),
        (["stats", "flipprob", "--n", "14294", "--bit", "1"], "4301"),
    ],
)
def test_answer_past_the_digit_limit_is_a_one_line_error(argv, digits):
    code, out = _run(argv)
    assert code == 1
    assert len(out.splitlines()) == 1
    rec = _fields(out)
    assert rec["error"] == "DigitLimitError"
    assert f" has {digits} decimal digits, over the limit of 4300" in rec["detail"]


def test_profile_far_past_the_digit_limit_is_refused_before_computing(monkeypatch):
    def computed(*args):
        raise AssertionError("the count was computed")

    monkeypatch.setattr(cli.analysis, "unmarked_profile_count", computed)
    code, out = _run(["stats", "profile", "--n", "4000000", "--a", "0", "--b", "0"])
    assert code == 1
    rec = _fields(out)
    assert rec["error"] == "DigitLimitError"
    assert rec["detail"].startswith("count has at least ")


def test_flipprob_far_past_the_digit_limit_is_refused_before_computing(monkeypatch):
    def computed(*args):
        raise AssertionError("the probability was computed")

    monkeypatch.setattr(cli.analysis, "flip_probability_exact", computed)
    code, out = _run(["stats", "flipprob", "--n", "1000000", "--bit", "1"])
    assert code == 1
    rec = _fields(out)
    assert rec["error"] == "DigitLimitError"
    assert rec["detail"].startswith("numerator has at least ")
    # the checks that come first keep their records
    code, out = _run(["stats", "flipprob", "--n", "1000000", "--bit", "1000001"])
    assert (code, _fields(out)["error"]) == (1, "CoordinateRangeError")


def test_flipprob_digit_bound_holds_below_the_reduced_numerator():
    # the precheck's bound: C(n-1, n/2-1)/2^n in lowest terms has a numerator
    # of at least 2^(n - 1 - 2 bit_length(n))
    for n in range(2, 1001, 2):
        numerator = cli.analysis.flip_probability_exact(n, 1).numerator
        assert numerator.bit_length() - 1 >= n - 1 - 2 * n.bit_length(), n


@pytest.mark.parametrize("limit,n,digits", [(640, 2150, 644), (600, 2016, 604)])
def test_flipprob_digit_precheck_at_its_threshold(monkeypatch, limit, n, digits):
    # n is the largest even n the pre-check lets through, so the rendering
    # names the numerator's exact size, and n + 2 is refused before the
    # binomial.  At 600 the bound at n is one bit below the pre-check's
    # threshold, so a bound one larger is refused there.
    monkeypatch.setattr(cli, "_digit_limit", lambda: limit)
    argv = ["stats", "flipprob", "--bit", "1", "--n"]
    code, out = _run(argv + [str(n)])
    assert code == 1
    assert _fields(out)["detail"] == f"numerator has {digits} decimal digits, over the limit of {limit}"
    code, out = _run(argv + [str(n + 2)])
    assert code == 1
    assert _fields(out)["detail"] == (
        f"numerator has at least {limit + 1} decimal digits, over the limit of {limit}")


def test_flipprob_renders_each_probability_once(monkeypatch):
    calls = []
    real = cli._frac
    monkeypatch.setattr(cli, "_frac", lambda f: calls.append(f) or real(f))
    code, out = _run(["stats", "flipprob", "--n", "10"])
    assert code == 0
    assert len(out.splitlines()) == 10
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv,count_digits",
    [
        (["stats", "profile", "--n", "14304", "--a", "0", "--b", "0"], 4300),
        (["stats", "profile", "--n", "20000", "--a", "20000", "--b", "0"], 1),
        (["stats", "profile", "--n", "20000", "--a", "19998", "--b", "0"], 5),
    ],
)
def test_answers_within_the_digit_limit_still_print(argv, count_digits):
    code, out = _run(argv)
    assert code == 0
    assert len(_fields(out)["count"]) == count_digits


@pytest.mark.parametrize("k", [700, 1024, 2048])
def test_digit_count_at_powers_of_ten(monkeypatch, k):
    # float log10 is one low at 10^1024 and one high at 10^k - 1
    monkeypatch.setattr(cli, "_digit_limit", lambda: 640)
    assert cli._decimal(10**640 - 1, "x") == "9" * 640
    for x, digits in ((10**k - 1, k), (10**k, k + 1)):
        with pytest.raises(DigitLimitError, match=f"^x has {digits} decimal digits"):
            cli._decimal(x, "x")


@pytest.mark.parametrize("limit,bits", [(640, 2126), (4300, 14284)])
def test_digit_limit_checks_at_their_thresholds(monkeypatch, limit, bits):
    # the largest 2^bits the precheck lets through, whose answer may still
    # print, and 10^limit, the smallest answer past the limit
    monkeypatch.setattr(cli, "_digit_limit", lambda: limit)
    cli._require_digits(bits, "count")
    message = f"^count has at least {limit + 1} decimal digits, over the limit of {limit}$"
    with pytest.raises(DigitLimitError, match=message):
        cli._require_digits(bits + 1, "count")
    assert cli._decimal(10**limit - 1, "x") == "9" * limit
    with pytest.raises(DigitLimitError, match=f"^x has {limit + 1} decimal digits, over the limit"):
        cli._decimal(10**limit, "x")
