#!/usr/bin/env python3
"""Cross-validate the three gap-probability routes and print a table.

For each N the Toeplitz determinant, the discrete Fredholm determinant,
and the direct enumeration are evaluated; the table shows all three with
their pairwise spread. A growing N column converging to 1 illustrates
how quickly the distribution saturates.
"""

import argparse
import sys

from qpart.gap import METHODS, GapQuery, gap_probability
from qpart.qspecial import QParams


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--xi", type=float, default=0.3)
    ap.add_argument("--q", type=float, default=0.5)
    ap.add_argument("--n-max", type=int, default=10)
    ap.add_argument("--variant", choices=("length", "first-part"),
                    default="length")
    args = ap.parse_args()

    params = QParams(q=args.q, xi=args.xi)
    print(f"variant={args.variant}  xi={args.xi}  q={args.q}")
    print(f"{'N':>3} {'toeplitz':>22} {'fredholm':>22} "
          f"{'enumeration':>22} {'spread':>10}")
    for n in range(args.n_max + 1):
        query = GapQuery(variant=args.variant, N=n, params=params)
        vals = [gap_probability(query, m) for m in METHODS]
        spread = max(vals) - min(vals)
        print(f"{n:>3} {vals[0]:>22.16f} {vals[1]:>22.16f} "
              f"{vals[2]:>22.16f} {spread:>10.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
