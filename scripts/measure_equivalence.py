"""Statistical indistinguishability of measure representations.

Runs the fingerprint-based equivalence test on a measure and its snapped
pushforward (same limit, expect no flags) and on a deliberately different
measure (expect flags), writing both reports as CSV.

    python scripts/measure_equivalence.py --n 500 --trials 100 --seed 3 \
        --out-equal equal.csv --out-diff diff.csv
"""

import argparse
import sys
from fractions import Fraction as F
from pathlib import Path

from poslim import measures as me
from poslim import sampling as sa
from poslim.measures import StepKernelMeasure
from poslim.rng import SeededRng


BASE = StepKernelMeasure.from_cells(
    [
        (0, F(1, 4), [(F(1, 2), 1)]),
        (F(1, 4), F(1, 2), [(F(3, 4), 1)]),
        (F(1, 2), 1, [(1, 1)]),
    ]
)
OTHER = StepKernelMeasure.from_cells(
    [(0, F(1, 2), [(F(1, 2), F(1, 2)), (1, F(1, 2))]), (F(1, 2), 1, [(1, 1)])]
)


def run(args: argparse.Namespace) -> None:
    rng = SeededRng(args.seed)
    pushed = me.push_h(BASE, "bar_plus")
    rep_equal = sa.equivalence_test_statistical(
        BASE, pushed, args.n, args.trials, rng.spawn(0)
    )
    Path(args.out_equal).write_text(rep_equal.to_csv())
    print(f"equal-limit pair flags: {rep_equal.flagged_ids()}", file=sys.stderr)

    rep_diff = sa.equivalence_test_statistical(
        BASE, OTHER, args.n, args.trials, rng.spawn(1)
    )
    Path(args.out_diff).write_text(rep_diff.to_csv())
    print(f"different pair flags: {rep_diff.flagged_ids()}", file=sys.stderr)
    print(f"exact equivalence of the different pair: {me.equivalent(BASE, OTHER)}",
          file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--out-equal", default="equal.csv")
    ap.add_argument("--out-diff", default="diff.csv")
    run(ap.parse_args())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
