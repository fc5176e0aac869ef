#!/usr/bin/env python3
"""Tabulate exhaustive stretch statistics for every map and direction.

Emits one CSV row per (bijection, direction, n) to stdout, ready for
plotting.  Example:

    python scripts/stretch_tables.py --max-n 14 > stretch.csv
"""

import argparse
import csv
import os
import sys

from cubeball.bijections import BijectionKind
from cubeball.metrics import forward_stretch_exhaustive, inverse_stretch_exhaustive


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=int, default=2)
    parser.add_argument("--max-n", type=int, default=16)
    args = parser.parse_args()

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        ["bijection", "direction", "n", "max_stretch", "avg_stretch",
         "avg_stretch_dec", "edges"]
    )
    for n in range(args.min_n, args.max_n + 1, 2):
        for kind in BijectionKind:
            for report in (
                forward_stretch_exhaustive(kind, n),
                inverse_stretch_exhaustive(kind, n),
            ):
                avg = report.avg_stretch
                writer.writerow(
                    [kind.value, report.direction.value, n, report.max_stretch,
                     f"{avg.numerator}/{avg.denominator}", f"{float(avg):.6f}",
                     report.edges_considered]
                )


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early; point stdout at devnull so that the flush
        # at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
