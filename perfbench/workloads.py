"""The four closed-loop workloads: inputs, ops and output checks.

A workload is built in `setup` from the freshly imported `poslim` package and
then hands out its ops one work unit at a time.  Every op looks its poslim
functions up at call time, through the package's modules, so the tracer's
wrappers are seen.  Checks run outside the timed region and return the exact
output bytes that go into the run's digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction as F
from functools import partial
from pathlib import Path

from harness import CheckFailed, Op, op_seed


def _frac_bytes(*values: F) -> bytes:
    return " ".join(f"{v.numerator}/{v.denominator}" for v in values).encode()


def check_degree_cdf(masks, cdf, n: int) -> None:
    """The CDF's jumps are the degree counts of the masks, recounted here."""
    counts = Counter(m.bit_count() for m in masks)
    expected = sorted((F(d, n), F(c, n)) for d, c in counts.items())
    jumps = [(x, right - left) for x, left, right in cdf.points if left != right]
    if jumps != expected:
        raise CheckFailed("degree CDF does not match recounted degrees")
    if cdf.points[0][1] != 0 or cdf.points[-1][2] != 1:
        raise CheckFailed("degree CDF does not run from 0 to 1")


def realizes(succ, rows: list[list[str]]) -> bool:
    """Do the `index,rank,a,b` rows realize the order: i < j iff b_i < a_j?"""
    n = len(succ)
    if len(rows) != n or sorted(int(r[0]) for r in rows) != list(range(1, n + 1)):
        return False
    a = [F(0)] * n
    b = [F(0)] * n
    for r in rows:
        i = int(r[0]) - 1
        a[i], b[i] = F(r[2]), F(r[3])
    if any(a[i] > b[i] for i in range(n)):
        return False
    order = sorted(range(n), key=lambda i: a[i])
    a_sorted = [a[i] for i in order]
    suffix = [0] * (n + 1)
    for pos in reversed(range(n)):
        suffix[pos] = suffix[pos + 1] | (1 << order[pos])
    return all(suffix[bisect_right(a_sorted, b[i])] == succ[i] for i in range(n))


def check_fingerprint(payload: dict, labellings: dict[str, int], max_q: int) -> None:
    """For each size k, the induced densities weighted by each pattern's
    number of labellings (k!/|Aut|) sum to 1: every injective map from k
    points induces exactly one labelled pattern."""
    sums: dict[int, F] = {}
    for pid, entry in payload.items():
        k = int(pid.split("-")[0])
        sums[k] = sums.get(k, F(0)) + labellings[pid] * F(entry["value"])
    if sorted(sums) != list(range(1, max_q + 1)) or any(s != 1 for s in sums.values()):
        raise CheckFailed(f"weighted pattern densities do not sum to 1 per size: {sums}")


def pattern_labellings(poslim, max_q: int) -> dict[str, int]:
    """k!/|Aut q| for every catalog pattern q of size k <= max_q."""
    cat = poslim.poset.cached_catalog(max_q)
    return {
        cat.class_id(i): math.factorial(q.n) // poslim.densities.automorphism_count(q)
        for i, q in enumerate(cat.classes)
    }


# -- fixtures: acceptance criteria 4 and 6 ---------------------------------------


def staircase(so):
    return so.MonotoneRC.from_points(
        [(0, F(2, 5), F(2, 5)), (F(2, 5), F(2, 5), F(4, 5)), (F(4, 5), F(4, 5), 1), (1, 1, 1)]
    )


def criterion6_measures(me):
    cells = me.StepKernelMeasure.from_cells
    two = cells([(0, F(1, 2), [(F(1, 2), 1)]), (F(1, 2), 1, [(1, 1)])])
    three = cells(
        [(0, F(1, 4), [(F(1, 2), 1)]), (F(1, 4), F(1, 2), [(F(3, 4), 1)]), (F(1, 2), 1, [(1, 1)])]
    )
    rich = cells(
        [
            (0, F(1, 4), [(F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))]),
            (F(1, 4), F(1, 2), [(F(1, 2), F(1, 3)), (1, F(2, 3))]),
            (F(1, 2), F(3, 4), [(F(3, 4), F(1, 2)), (1, F(1, 2))]),
            (F(3, 4), 1, [(1, 1)]),
        ]
    )
    stair = cells([(F(k, 8), F(k + 1, 8), [(F(k + 1, 8), 1)]) for k in range(8)])
    full = cells([(0, 1, [(1, 1)])])
    differing = [
        (two, cells([(0, F(1, 2), [(F(1, 2), F(1, 2)), (1, F(1, 2))]), (F(1, 2), 1, [(1, 1)])])),
        (stair, full),
        (
            cells([(0, F(1, 2), [(F(3, 4), 1)]), (F(1, 2), 1, [(1, 1)])]),
            cells([(0, F(1, 2), [(F(1, 2), F(1, 2)), (F(3, 4), F(1, 2))]), (F(1, 2), 1, [(1, 1)])]),
        ),
    ]
    return [two, three, rich], differing, rich


# -- workloads -----------------------------------------------------------------------


class DegreeConvergence:
    """Criterion 4: sample at n=4000, both degree CDFs, both KS distances."""

    name = "degree-convergence"
    unit_ops = 3  # one op per target g
    nominal_unit_s = 4.1
    n = 4000
    tolerance = F(1, 20)

    def setup(self, poslim, tmp: Path):
        so = poslim.semiorders
        gs = [so.gc(F(3, 10)), so.MonotoneRC.identity(), staircase(so)]
        return [(g, so.f_minus(g), so.f_plus(g)) for g in gs]

    def ops(self, poslim, state, seed: int, unit: int) -> list[Op]:
        out = []
        for j, (label, target) in enumerate(zip(("gc3/10", "identity", "staircase"), state)):
            s = op_seed(self.name, seed, unit * self.unit_ops + j)
            out.append(Op(label, partial(self._run, poslim, target, s), self._check))
        return out

    def _run(self, poslim, target, s):
        g, fm, fp = target
        sa = poslim.sampling
        p = sa.sample_kernel_poset(g, self.n, poslim.rng.SeededRng(s))
        cm, cp = sa.nu_empirical(p, "minus"), sa.nu_empirical(p, "plus")
        return p, cm, cp, sa.ks_for_target(cm, fm), sa.ks_for_target(cp, fp)

    def _check(self, payload) -> bytes:
        p, cm, cp, dm, dp = payload
        check_degree_cdf(p.pred, cm, p.n)
        check_degree_cdf(p.succ, cp, p.n)
        if not (0 <= dm <= self.tolerance and 0 <= dp <= self.tolerance):
            raise CheckFailed(f"KS {float(dm)}, {float(dp)} above 1/20")
        return _frac_bytes(dm, dp)


class Equivalence:
    """Criterion 6 at 30 trials: statistical flags against exact verdicts."""

    name = "equivalence"
    unit_ops = 1
    nominal_unit_s = 2.6
    n = 500
    trials = 30

    def setup(self, poslim, tmp: Path):
        me, sa = poslim.measures, poslim.sampling
        equal_bases, differing, _ = criterion6_measures(me)
        pairs = []
        for mu in equal_bases:
            star = me.project_star(mu)
            same = me.equivalent(mu, star) and me.push_h(mu, "bar_plus") == me.push_h(
                star, "bar_plus"
            )
            pairs.append((mu, me.push_h(mu, "bar_plus"), same))
        pairs += [(a, b, me.equivalent(a, b)) for a, b in differing]
        if [same for _, _, same in pairs] != [True] * 3 + [False] * 3:
            raise RuntimeError("exact verdicts disagree with criterion 6c")
        # warm the pattern-key tables and the catalog behind fingerprints
        sa.fingerprint_estimate(poslim.poset.chain(4), 4, 1, poslim.rng.SeededRng(0))
        return pairs

    def ops(self, poslim, state, seed: int, unit: int) -> list[Op]:
        k = unit * self.unit_ops
        a, b, same = state[k % len(state)]
        s = op_seed(self.name, seed, k)
        run = partial(self._run, poslim, a, b, s)
        return [Op(f"pair{k % len(state)}", run, partial(self._check, same))]

    def _run(self, poslim, a, b, s):
        return poslim.sampling.equivalence_test_statistical(
            a, b, n=self.n, trials=self.trials, rng=poslim.rng.SeededRng(s)
        )

    @staticmethod
    def _check(same: bool, report) -> bytes:
        if report.any_flagged() == same:
            raise CheckFailed(
                f"flagged {report.flagged_ids()} but exact verdict is "
                f"{'equivalent' if same else 'not equivalent'}"
            )
        return report.to_csv().encode()


class CliPipeline:
    """Nine in-process `poslim.cli.main` calls per round, on files."""

    name = "cli-pipeline"
    unit_ops = 9
    nominal_unit_s = 7.6
    n_large = 1000
    n_small = 40
    max_q = 4
    _labellings = None  # filled by the first fingerprint check, untimed

    def setup(self, poslim, tmp: Path):
        me, sa = poslim.measures, poslim.sampling
        _, _, rich = criterion6_measures(me)
        measure = tmp / "rich.measure"
        measure.write_text(me.write_measure(rich))
        # warm the catalog and labels behind the exact fingerprint
        sa.fingerprint(poslim.poset.chain(self.max_q), self.max_q)
        return tmp, measure

    def ops(self, poslim, state, seed: int, unit: int) -> list[Op]:
        tmp, measure = state
        s = [op_seed(self.name, seed, 3 * unit + j) for j in range(3)]
        g, m, small = tmp / "g.poset", tmp / "m.poset", tmp / "s.poset"
        f = {k: tmp / k for k in ("g.rec", "g.rep", "g.nu", "g.conv", "m.rec", "s.fp")}
        n1, n2 = str(self.n_large), str(self.n_small)
        calls = [
            ("sample-gc", ["sample", "--kernel", "gc", "--c", "3/10", "--n", n1,
                           "--seed", str(s[0]), "--out", g], g, None),
            ("recognize-gc", ["recognize", "--in", g, "--out", f["g.rec"]], f["g.rec"],
             partial(self._check_recognized, semiorder=True)),
            ("represent", ["represent", "--in", g, "--out", f["g.rep"]], f["g.rep"],
             partial(self._check_realizes, poslim, g)),
            ("nu", ["nu", "--in", g, "--sign", "minus", "--out", f["g.nu"]], f["g.nu"],
             self._check_nu),
            ("converge", ["converge", "--in", g, "--gc", "3/10", "--out", f["g.conv"]],
             f["g.conv"], self._check_converge),
            ("sample-measure", ["sample", "--kernel", "measure", "--in", measure, "--n", n1,
                                "--seed", str(s[1]), "--out", m], m, None),
            ("recognize-measure", ["recognize", "--in", m, "--out", f["m.rec"]], f["m.rec"],
             partial(self._check_recognized, semiorder=None)),
            ("sample-small", ["sample", "--kernel", "gc", "--c", "3/10", "--n", n2,
                              "--seed", str(s[2]), "--out", small], small, None),
            ("fingerprint", ["fingerprint", "--in", small, "--max-q", str(self.max_q),
                             "--out", f["s.fp"]], f["s.fp"],
             partial(self._check_fingerprint, poslim)),
        ]
        return [
            Op(label, partial(self._run, poslim, [str(x) for x in argv]),
               partial(self._check, out, extra))
            for label, argv, out, extra in calls
        ]

    @staticmethod
    def _run(poslim, argv):
        with contextlib.redirect_stderr(io.StringIO()):
            return poslim.cli.main(argv)

    @staticmethod
    def _check(out: Path, extra, rc) -> bytes:
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        text = out.read_text()
        if extra is not None:
            extra(text)
        return text.encode()

    @staticmethod
    def _check_recognized(text: str, semiorder):
        got = json.loads(text)
        if got["interval_order"] is not True or (
            semiorder is not None and got["semiorder"] is not semiorder
        ):
            raise CheckFailed(f"recognized {got}")

    @staticmethod
    def _check_realizes(poslim, poset_file: Path, text: str):
        p = poslim.poset.read_poset(poset_file.read_text())
        lines = text.splitlines()
        if lines[0] != "index,rank,a,b":
            raise CheckFailed("bad representation header")
        if not realizes(p.succ, [ln.split(",") for ln in lines[1:]]):
            raise CheckFailed("representation does not realize the poset")

    def _check_fingerprint(self, poslim, text: str):
        if self._labellings is None:
            self._labellings = pattern_labellings(poslim, self.max_q)
        check_fingerprint(json.loads(text), self._labellings, self.max_q)

    @staticmethod
    def _check_nu(text: str):
        pts = [[F(v) for v in row] for row in json.loads(text)["points"]]
        if pts[0][1] != 0 or pts[-1][2] != 1 or any(
            r > nl for (_, _, r), (_, nl, _) in zip(pts, pts[1:])
        ):
            raise CheckFailed("nu output is not a CDF from 0 to 1")

    @staticmethod
    def _check_converge(text: str):
        rows = json.loads(text)["rows"]
        if len(rows) != 1 or rows[0]["semiorder"] is not True or not all(
            0 <= rows[0][k] <= 1 for k in ("ks_minus_target", "ks_plus_target")
        ):
            raise CheckFailed(f"converge rows {rows}")


class GraphOrder:
    """Criterion 5: random graph order at n=3000, c=0.3, KS to f_minus(g_c)."""

    name = "graph-order"
    unit_ops = 1
    nominal_unit_s = 0.36
    n = 3000
    c = 0.3

    def setup(self, poslim, tmp: Path):
        sa, so = poslim.sampling, poslim.semiorders
        return sa.p_for_c(self.n, self.c), so.f_minus(so.gc(F(3, 10)))

    def ops(self, poslim, state, seed: int, unit: int) -> list[Op]:
        s = op_seed(self.name, seed, unit)
        return [Op("rgo", partial(self._run, poslim, state, s), self._check)]

    def _run(self, poslim, state, s):
        p_edge, target = state
        sa = poslim.sampling
        r = sa.random_graph_order(self.n, p_edge, poslim.rng.SeededRng(s))
        cm = sa.nu_empirical(r, "minus")
        return r, cm, sa.ks_for_target(cm, target)

    @staticmethod
    def _check(payload) -> bytes:
        r, cm, d = payload
        if any(m & ((2 << i) - 1) for i, m in enumerate(r.succ)):
            raise CheckFailed("a relation points down the labelling")
        check_degree_cdf(r.pred, cm, r.n)
        if not 0 <= d <= 1:
            raise CheckFailed(f"KS {d} outside [0, 1]")
        return _frac_bytes(d)


WORKLOADS = {w.name: w for w in (DegreeConvergence(), Equivalence(), CliPipeline(), GraphOrder())}
