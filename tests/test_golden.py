"""Byte-for-byte CLI output against frozen files under tests/golden/.

Each row of ``CASES`` names one invocation and the file holding its stdout.
A refactor that keeps the reports must keep every file; a change that moves
a report on purpose rewrites the files and says which lines moved.  Rewrite
them with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import io
from pathlib import Path

import pytest

from cubeball.cli import run

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("map_psi", ["map", "--bijection", "psi", "--input", "0000"]),
    ("map_phi_csv", ["map", "--bijection", "phi", "--input", "0111", "--format", "csv"]),
    ("map_naive", ["map", "--bijection", "naive", "--input", "01100110"]),
    ("invmap_psi", ["invmap", "--bijection", "psi", "--input", "01110"]),
    ("invmap_phi_csv", ["invmap", "--bijection", "phi", "--input", "01110", "--format", "csv"]),
    ("invmap_naive", ["invmap", "--bijection", "naive", "--input", "11001"]),
    # large n with n % 8 != 0; each marked input leaves unmatched 0s and 1s
    ("invmap_psi_n1026",
     ["invmap", "--bijection", "psi", "--input", "0001" + "1101001" * 146 + "1"]),
    ("invmap_phi_n66",
     ["invmap", "--bijection", "phi", "--input", "000" + "1101001" * 9 + "1"]),
    ("invmap_naive_n1030",
     ["invmap", "--bijection", "naive", "--input", "01" * 4 + "1101001" * 146 + "1"]),
    ("chain_full", ["chain", "--input", "01100110", "--full"]),
    ("chain_full_n22", ["chain", "--input", "0010" + "1101001" * 2 + "1001", "--full"]),
    # n % 8 == 6, with unmatched 0s and 1s
    ("chain_n1030", ["chain", "--input", "0001" + "1101001" * 146 + "1011"]),
    ("chain_csv", ["chain", "--input", "0011", "--format", "csv"]),
    ("verify_psi_fwd", ["verify", "--bijection", "psi", "--n", "10"]),
    ("verify_psi_inv_csv",
     ["verify", "--bijection", "psi", "--direction", "inv", "--n", "8", "--format", "csv"]),
    ("verify_phi_fwd_csv", ["verify", "--bijection", "phi", "--n", "8", "--format", "csv"]),
    ("verify_phi_inv", ["verify", "--bijection", "phi", "--direction", "inv", "--n", "8"]),
    ("verify_naive_fwd", ["verify", "--bijection", "naive", "--n", "6"]),
    ("verify_naive_inv_csv",
     ["verify", "--bijection", "naive", "--direction", "inv", "--n", "6", "--format", "csv"]),
    ("verify_psi_fwd_n12",
     ["verify", "--bijection", "psi", "--direction", "fwd", "--n", "12"]),
    ("verify_psi_inv_n12",
     ["verify", "--bijection", "psi", "--direction", "inv", "--n", "12"]),
    ("verify_phi_fwd_n12",
     ["verify", "--bijection", "phi", "--direction", "fwd", "--n", "12"]),
    ("verify_phi_inv_n12",
     ["verify", "--bijection", "phi", "--direction", "inv", "--n", "12"]),
    ("verify_naive_fwd_n12",
     ["verify", "--bijection", "naive", "--direction", "fwd", "--n", "12"]),
    ("verify_naive_inv_n12",
     ["verify", "--bijection", "naive", "--direction", "inv", "--n", "12"]),
    ("verify_phi_fwd_n16", ["verify", "--bijection", "phi", "--n", "16"]),
    ("verify_naive_inv_n14",
     ["verify", "--bijection", "naive", "--direction", "inv", "--n", "14"]),
    # the ball spans two blocks of 2^16 lanes
    ("verify_psi_inv_n16",
     ["verify", "--bijection", "psi", "--direction", "inv", "--n", "16"]),
    ("verify_phi_inv_n16",
     ["verify", "--bijection", "phi", "--direction", "inv", "--n", "16"]),
    ("verify_naive_inv_n16",
     ["verify", "--bijection", "naive", "--direction", "inv", "--n", "16"]),
    # the cube spans four blocks of 2^16 lanes
    ("verify_naive_fwd_n18", ["verify", "--bijection", "naive", "--n", "18"]),
    # the ball spans eight blocks: the inverse rules' lane subtraction and
    # the ball's weight counter in every one
    ("verify_phi_inv_n18",
     ["verify", "--bijection", "phi", "--direction", "inv", "--n", "18"]),
    ("verify_naive_inv_n18",
     ["verify", "--bijection", "naive", "--direction", "inv", "--n", "18"]),
    # above the default cap
    ("verify_psi_fwd_n20",
     ["verify", "--bijection", "psi", "--n", "20", "--allow-large"]),
    ("verify_psi_inv_n20",
     ["verify", "--bijection", "psi", "--direction", "inv", "--n", "20", "--allow-large"]),
    ("verify_psi_sample_n12",
     ["verify", "--bijection", "psi", "--n", "12", "--mode", "sample",
      "--samples", "500", "--seed", "7"]),
    ("verify_psi_sample_n1024_csv",
     ["verify", "--bijection", "psi", "--n", "1024", "--mode", "sample",
      "--samples", "50", "--seed", "3", "--format", "csv"]),
    ("verify_phi_sample_n1024",
     ["verify", "--bijection", "phi", "--n", "1024", "--mode", "sample",
      "--samples", "200", "--seed", "5"]),
    ("verify_naive_sample_n1024",
     ["verify", "--bijection", "naive", "--n", "1024", "--mode", "sample",
      "--samples", "50", "--seed", "11"]),
    ("pairs_psi_n4", ["pairs-audit", "--bijection", "psi", "--n", "4"]),
    ("pairs_psi_n6", ["pairs-audit", "--bijection", "psi", "--n", "6"]),
    ("pairs_psi_n8_csv", ["pairs-audit", "--bijection", "psi", "--n", "8", "--format", "csv"]),
    ("pairs_phi_n4", ["pairs-audit", "--bijection", "phi", "--n", "4"]),
    ("pairs_phi_n6_csv", ["pairs-audit", "--bijection", "phi", "--n", "6", "--format", "csv"]),
    ("pairs_phi_n8", ["pairs-audit", "--bijection", "phi", "--n", "8"]),
    ("pairs_naive_n4_csv", ["pairs-audit", "--bijection", "naive", "--n", "4", "--format", "csv"]),
    ("pairs_naive_n6", ["pairs-audit", "--bijection", "naive", "--n", "6"]),
    ("pairs_naive_n8", ["pairs-audit", "--bijection", "naive", "--n", "8"]),
    # four blocks forward and eight for the ball, swept across blocks
    ("pairs_psi_n18", ["pairs-audit", "--bijection", "psi", "--n", "18"]),
    ("stats_chains", ["stats", "chains", "--n", "6"]),
    ("stats_chains_csv", ["stats", "chains", "--n", "5", "--format", "csv"]),
    ("stats_chains_n16", ["stats", "chains", "--n", "16"]),
    # the counter comparisons across four cube blocks
    ("stats_chains_n18", ["stats", "chains", "--n", "18"]),
    ("stats_profile", ["stats", "profile", "--n", "6", "--a", "2", "--b", "0"]),
    ("stats_profile_csv",
     ["stats", "profile", "--n", "7", "--a", "1", "--b", "2", "--format", "csv"]),
    ("stats_flipprob_exact", ["stats", "flipprob", "--n", "8", "--mode", "exact"]),
    ("stats_flipprob_exhaustive_csv",
     ["stats", "flipprob", "--n", "6", "--mode", "exhaustive", "--format", "csv"]),
    ("stats_flipprob_exhaustive_n14_csv",
     ["stats", "flipprob", "--n", "14", "--mode", "exhaustive", "--format", "csv"]),
    ("stats_flipprob_exhaustive_n18_csv",
     ["stats", "flipprob", "--mode", "exhaustive", "--n", "18", "--format", "csv"]),
    ("stats_flipprob_bit", ["stats", "flipprob", "--n", "10", "--bit", "4"]),
    ("stats_influence_psi", ["stats", "influence", "--n", "6"]),
    ("stats_influence_phi_csv",
     ["stats", "influence", "--n", "4", "--bijection", "phi", "--format", "csv"]),
    ("stats_influence_naive", ["stats", "influence", "--n", "4", "--bijection", "naive"]),
    ("stats_influence_phi_n10", ["stats", "influence", "--n", "10", "--bijection", "phi"]),
    ("stats_influence_naive_n10", ["stats", "influence", "--n", "10", "--bijection", "naive"]),
    ("stats_influence_phi_n14", ["stats", "influence", "--n", "14", "--bijection", "phi"]),
    ("stats_influence_phi_n18", ["stats", "influence", "--bijection", "phi", "--n", "18"]),
    ("reduce_majority", ["reduce-majority", "--input", "01101"]),
    ("reduce_majority_csv", ["reduce-majority", "--input", "100", "--format", "csv"]),
    ("error_dimension_pairs", ["pairs-audit", "--bijection", "psi", "--n", "0"]),
    ("error_dimension_verify", ["verify", "--bijection", "phi", "--n", "-2"]),
    ("error_dimension_csv",
     ["stats", "influence", "--n", "0", "--format", "csv"]),
    ("error_cap_verify", ["verify", "--bijection", "psi", "--n", "22"]),
    ("error_cap_chains", ["stats", "chains", "--n", "26"]),
    ("error_odd_length", ["map", "--bijection", "psi", "--input", "010"]),
    ("error_not_in_ball", ["invmap", "--bijection", "naive", "--input", "00011"]),
    ("selftest", ["selftest"]),
]


def _stdout(argv):
    buf = io.StringIO()
    run(argv, stdout=buf)
    return buf.getvalue()


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(name, argv):
    assert _stdout(argv) == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES:
        (GOLDEN / f"{name}.txt").write_text(_stdout(argv))
