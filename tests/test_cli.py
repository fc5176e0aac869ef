import csv
import io
import subprocess
import sys

import pytest

from cubeball.cli import run


def _run(argv):
    buf = io.StringIO()
    code = run(argv, stdout=buf)
    return code, buf.getvalue()


def _fields(line):
    out = {}
    for part in line.strip().split(" "):
        k, _, v = part.partition("=")
        out[k] = v.strip('"')
    return out


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


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "cubeball", "map", "--bijection", "psi",
         "--input", "0000"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "output=00111" in proc.stdout
