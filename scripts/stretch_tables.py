#!/usr/bin/env python3
"""Tabulate exhaustive stretch statistics for every map and direction.

Emits one CSV row per (bijection, direction, n) to stdout, ready for
plotting.  Example:

    python scripts/stretch_tables.py --max-n 14 > stretch.csv
"""

import argparse
import csv
import sys

from cubeball.bijections import BijectionKind, _require_dimension
from cubeball.bits import DEFAULT_ENUMERATION_CAP, _require_cap
from cubeball.cli import _exit_after
from cubeball.metrics import forward_stretch_exhaustive, inverse_stretch_exhaustive


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=int, default=2)
    parser.add_argument("--max-n", type=int, default=16)
    args = parser.parse_args()
    ns = range(args.min_n, args.max_n + 1, 2)
    if ns:  # a bad range is refused before the header; the inverse sweep's cap binds
        _require_dimension(ns[0], "stretch tables")
        _require_cap(ns[-1] + 1, DEFAULT_ENUMERATION_CAP, "(z, i) pairs", ns[-1] + 1)

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        ["bijection", "direction", "n", "max_stretch", "avg_stretch",
         "avg_stretch_dec", "edges"]
    )
    for n in ns:
        for kind in BijectionKind:
            for report in (
                forward_stretch_exhaustive(kind, n),
                inverse_stretch_exhaustive(kind, n),
            ):
                rec = report.to_record()
                writer.writerow(
                    [rec["bijection"], rec["direction"], rec["n"], rec["max_stretch"],
                     rec["avg_stretch"], rec["avg_stretch_dec"], rec["edges_considered"]]
                )


if __name__ == "__main__":
    _exit_after(main)
