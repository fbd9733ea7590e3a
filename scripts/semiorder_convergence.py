"""Convergence study: empirical degree CDFs of threshold-kernel samples
against their limit, across growing n.

Writes one CSV row per (kernel, n, trial) with both Kolmogorov distances.

    python scripts/semiorder_convergence.py --out convergence.csv \
        --sizes 250 500 1000 2000 4000 --trials 5 --seed 1
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from poslim import sampling as sa
from poslim import semiorders as so
from poslim import textio
from poslim.rng import SeededRng


KERNELS = {
    "shift_0.3": so.gc(Fraction(3, 10)),
    "identity": so.MonotoneRC.identity(),
    "staircase": so.MonotoneRC.from_points(
        [
            (0, Fraction(2, 5), Fraction(2, 5)),
            (Fraction(2, 5), Fraction(2, 5), Fraction(4, 5)),
            (Fraction(4, 5), Fraction(4, 5), 1),
            (1, 1, 1),
        ]
    ),
}


def run(args: argparse.Namespace) -> None:
    rng = SeededRng(args.seed)
    rows = []
    for ki, (name, g) in enumerate(KERNELS.items()):
        fm, fp = so.f_minus(g), so.f_plus(g)
        for ni, n in enumerate(args.sizes):
            for t in range(args.trials):
                child = rng.spawn(ki * 100_000 + ni * 1000 + t)
                p = sa.sample_kernel_poset(g, n, child)
                dm = float(sa.ks_for_target(sa.nu_empirical(p, "minus"), fm))
                dp = float(sa.ks_for_target(sa.nu_empirical(p, "plus"), fp))
                rows.append([name, n, t, f"{dm:.6f}", f"{dp:.6f}"])
                print(f"{name} n={n} trial={t}: {dm:.4f} / {dp:.4f}", file=sys.stderr)
    header = ["kernel", "n", "trial", "ks_minus", "ks_plus"]
    Path(args.out).write_text(textio.to_csv(header, rows))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[250, 500, 1000, 2000])
    ap.add_argument("--trials", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="convergence.csv")
    run(ap.parse_args())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
