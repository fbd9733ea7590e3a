"""Random graph orders against their shifted-threshold limit.

For each requested shift parameter c, solves for the edge probability at the
given n, samples repeatedly, and records the continuity-restricted Kolmogorov
distance of the predecessor distribution to the limit CDF of max(U - c, 0).

    python scripts/random_graph_order_limit.py --n 3000 --cs 0.1 0.3 0.5 \
        --trials 10 --seed 2 --out rgo.csv
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from poslim import sampling as sa
from poslim import semiorders as so
from poslim import textio
from poslim.rng import SeededRng


def run(args: argparse.Namespace) -> None:
    rng = SeededRng(args.seed)
    rows = []
    for ci, c in enumerate(args.cs):
        p_edge = sa.p_for_c(args.n, c)
        target = so.f_minus(so.gc(Fraction(c).limit_denominator(1000)))
        for t in range(args.trials):
            r = sa.random_graph_order(args.n, p_edge, rng.spawn(ci * 1000 + t))
            d = float(sa.ks_for_target(sa.nu_empirical(r, "minus"), target))
            rows.append([c, f"{p_edge:.8f}", args.n, t, f"{d:.6f}"])
            print(f"c={c} trial={t}: ks={d:.4f}", file=sys.stderr)
    header = ["c", "p_edge", "n", "trial", "ks_minus"]
    Path(args.out).write_text(textio.to_csv(header, rows))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3000)
    ap.add_argument("--cs", type=float, nargs="+", default=[0.1, 0.3, 0.5])
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--out", default="rgo.csv")
    run(ap.parse_args())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
