"""One-shot call profile: each call of ROADMAP's two baseline tables, once.

    python3 perfbench/profile_calls.py [--seed 1]

Not a workload: no repeats and no bounds, so read the times as single
wall-clock samples (about a minute in total at the seed commit).  Sizes are
the tables': a sampled g_{3/10} semiorder at n=4000, an identity-target
sample at n=4000, a g_{3/10} sample at n=1000 for the representation, an
exact fingerprint at max_q=5 on n=40, 20k Monte Carlo samples of the chain2
density under g_{3/10}, and the statistical equivalence test at n=500 with 30
trials on criterion 6's first pushforward pair.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def profile(seed: int) -> list[tuple[str, str, float]]:
    import poslim
    from poslim import densities as de
    from poslim import measures as me
    from poslim import poset as ps
    from poslim import recognition as rec
    from poslim import sampling as sa
    from poslim import semiorders as so
    from poslim.rng import SeededRng

    from workloads import criterion6_measures

    rows = []

    def timed(name: str, size: str, fn):
        t0 = time.perf_counter()
        out = fn()
        rows.append((name, size, time.perf_counter() - t0))
        return out

    g = so.gc(F(3, 10))
    ident = so.MonotoneRC.identity()
    p = timed("sample_kernel_poset", "g_3/10, n=4000",
              lambda: sa.sample_kernel_poset(g, 4000, SeededRng(seed)))
    timed("is_semiorder", "n=4000", lambda: rec.is_semiorder(p))
    timed("check_valid", "n=4000", p.check_valid)
    timed("write_poset", "n=4000", lambda: ps.write_poset(p))
    q = sa.sample_kernel_poset(ident, 4000, SeededRng(seed))
    nu = timed("nu_empirical", "identity target, n=4000", lambda: sa.nu_empirical(q, "minus"))
    timed("ks_for_target", f"identity target, {len(nu.points)} breakpoints",
          lambda: sa.ks_for_target(nu, so.f_minus(ident)))
    r = sa.sample_kernel_poset(g, 1000, SeededRng(seed))
    timed("interval_representation", "n=1000", lambda: rec.interval_representation(r))
    small = sa.sample_kernel_poset(g, 40, SeededRng(seed))
    timed("fingerprint (exact)", "max_q=5, n=40", lambda: sa.fingerprint(small, 5))
    timed("kernel_density_mc", "chain2 under g_3/10, 20k samples",
          lambda: de.kernel_density_mc(ps.chain(2), g, 20_000, seed))
    mu = criterion6_measures(me)[0][0]
    timed("equivalence_test_statistical", "n=500, 30 trials",
          lambda: sa.equivalence_test_statistical(
              mu, me.push_h(mu, "bar_plus"), n=500, trials=30, rng=SeededRng(seed)))
    print(f"poslim {poslim.__version__}, seed {seed}")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if not (SRC / "poslim" / "__init__.py").is_file():
        print(f"error: no poslim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    for name, size, seconds in profile(args.seed):
        print(f"{name:30s} {size:38s} {seconds:9.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
