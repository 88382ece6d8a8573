#!/usr/bin/env python3
"""Print the Verblunsky-type trajectory with its recurrence residuals
and tail comparators.

The x column comes from the certified Szego recursion; the
residual column evaluates the q-difference recurrence at each index and
the tail_ratio column divides by the comparator sqrt(xi) J^(3)_{-n}(2 xi; q),
the Hahn-Exton q-Bessel series summed in mpmath (`checks.x_tail_comparator`),
which tends to 1.
"""

import argparse
import sys

from qpart.checks import x_tail_comparator
from qpart.oppainleve import painleve_trajectory, recurrence_residuals
from qpart.qspecial import QParams


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--xi", type=float, default=0.3)
    ap.add_argument("--q", type=float, default=0.5)
    ap.add_argument("--n-max", type=int, default=12)
    args = ap.parse_args()

    p = QParams(q=args.q, xi=args.xi)
    state = painleve_trajectory("x", "determinant", p, args.n_max + 1)
    residuals = [0.0, *recurrence_residuals(state)]
    print(f"{'n':>3} {'x_n':>24} {'residual':>12} {'tail_ratio':>14}")
    for n in range(args.n_max + 1):
        comp = x_tail_comparator(p, n)
        ratio = state.values[n] / comp if comp else float("nan")
        print(f"{n:>3} {state.values[n]:>24.16e} {residuals[n]:>12.2e} "
              f"{ratio:>14.10f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
