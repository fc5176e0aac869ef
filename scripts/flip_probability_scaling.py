#!/usr/bin/env python3
"""How close each output bit stays to its input bit as n grows.

For each even n, prints the worst per-bit disagreement probability and its
sqrt(n) scaling.  The scaling column should stay below 0.4 (it creeps toward
0.5 * sqrt(2/pi) ~ 0.3989 from below).

Every coordinate has the same probability, C(n-1, n/2-1)/2^n (the
``cubeball.analysis`` docstring proves it), so the worst is computed once
per n, at coordinate 1: the smallest of the tied coordinates.

    python scripts/flip_probability_scaling.py --max-n 24
"""

import argparse
import math

from cubeball.analysis import _require_flip_domain, _require_flip_exact, flip_probability_exact
from cubeball.cli import _exit_after


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=int, default=4)
    parser.add_argument("--max-n", type=int, default=20)
    args = parser.parse_args()
    ns = range(args.min_n, args.max_n + 1, 2)
    if ns:  # a bad range is refused before the header
        _require_flip_domain(ns[0])
        _require_flip_exact(ns[-1], 1)

    print(f"{'n':>4} {'worst_i':>8} {'probability':>16} {'p*sqrt(n)':>12}")
    for n in ns:
        worst_i = 1
        worst = flip_probability_exact(n, worst_i)
        print(
            f"{n:>4} {worst_i:>8} {str(worst):>16} "
            f"{float(worst) * math.sqrt(n):>12.6f}"
        )


if __name__ == "__main__":
    _exit_after(main)
