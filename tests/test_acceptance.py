"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Tolerances are fixed here, not configurable.
"""

from fractions import Fraction as F

from poslim import densities as de
from poslim import graphs as gr
from poslim import measures as me
from poslim import poset as ps
from poslim import recognition as rec
from poslim import sampling as sa
from poslim import semiorders as so
from poslim.measures import StepCDF, StepKernelMeasure
from poslim.rng import SeededRng

import reference as ref


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _random_poset(size: int, rng: SeededRng) -> ps.FinitePoset:
    """Random poset: closure of an acyclic orientation with edge prob 0.3."""
    us = rng.uniforms(1, size * size)
    masks = [0] * size
    k = 0
    for i in range(size):
        for j in range(i + 1, size):
            if us[k] < 0.3:
                masks[i] |= 1 << j
            k += 1
    closed = ref.fixpoint_closure(masks)
    return ps.FinitePoset.from_succ_masks(closed)


STAIRCASE = so.MonotoneRC.from_points(
    [(0, F(2, 5), F(2, 5)), (F(2, 5), F(2, 5), F(4, 5)), (F(4, 5), F(4, 5), 1), (1, 1, 1)]
)

MIXED_G = so.MonotoneRC.from_points(
    [(0, F(1, 4), F(1, 4)), (F(1, 4), F(1, 2), F(3, 4)), (F(1, 2), F(3, 4), F(3, 4)), (1, 1, 1)]
)

FIVE_GS = [so.gc(F(3, 10)), so.MonotoneRC.identity(), STAIRCASE,
           so.g_from_rate(so.RateFunction.constant(2)), MIXED_G]

TWO_CELL = StepKernelMeasure.from_cells(
    [(0, F(1, 2), [(F(1, 2), 1)]), (F(1, 2), 1, [(1, 1)])]
)
THREE_CELL = StepKernelMeasure.from_cells(
    [
        (0, F(1, 4), [(F(1, 2), 1)]),
        (F(1, 4), F(1, 2), [(F(3, 4), 1)]),
        (F(1, 2), 1, [(1, 1)]),
    ]
)
RICH_CELL = StepKernelMeasure.from_cells(
    [
        (0, F(1, 4), [(F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))]),
        (F(1, 4), F(1, 2), [(F(1, 2), F(1, 3)), (1, F(2, 3))]),
        (F(1, 2), F(3, 4), [(F(3, 4), F(1, 2)), (1, F(1, 2))]),
        (F(3, 4), 1, [(1, 1)]),
    ]
)
STAIR_CELLS = StepKernelMeasure.from_cells(
    [(F(k, 8), F(k + 1, 8), [(F(k + 1, 8), 1)]) for k in range(8)]
)
FULL_CELL = StepKernelMeasure.from_cells([(0, 1, [(1, 1)])])

FIVE_MEASURES = [TWO_CELL, THREE_CELL, RICH_CELL, STAIR_CELLS, FULL_CELL]


def test_criterion_1_exact_identities(catalog5, catalog6):
    # 1a: moment identity, all 87 catalog posets of size <= 5
    assert len(catalog5.classes) == 87
    ok_moment = all(
        de.moment_identity_check(p, k, sign)[0]
        == de.moment_identity_check(p, k, sign)[1]
        for p in catalog5.classes
        for k in (1, 2, 3)
        for sign in ("minus", "plus")
    )
    _report("1a moment identity (87 posets, k<=3, both signs)", ok_moment)

    # 1b: reflection identity, exact CDF equality on the same catalog
    ok_reflect = all(
        sa.nu_empirical(ps.reflect(p), "minus").points
        == sa.nu_empirical(p, "plus").points
        and sa.nu_empirical(ps.reflect(p), "plus").points
        == sa.nu_empirical(p, "minus").points
        for p in catalog5.classes
    )
    _report("1b reflection identity (87 posets)", ok_reflect)

    # 1c: snap-map composition on the 1/64 grid for 20 constructed CDFs.
    # The identity provably fails at isolated interior support points
    # (snap-down then snap-up returns the point, snap-up alone skips it),
    # so those finitely many points are excluded; end gaps and the grid
    # points adjacent to every atom are all exercised.
    fixtures = [
        StepCDF.dirac(F(1, 2)),
        StepCDF.dirac(F(1, 3)),
        StepCDF.dirac(F(63, 64)),
        StepCDF.uniform(),
        StepCDF.from_jumps([(F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))]),
        StepCDF.from_jumps([(F(0), F(1, 3)), (F(1), F(2, 3))]),
        StepCDF.from_jumps([(F(1, 7), F(1, 3)), (F(2, 7), F(1, 3)), (F(6, 7), F(1, 3))]),
        StepCDF.from_points(
            [(0, 0, 0), (F(1, 2), 0, F(1, 2)), (F(3, 4), F(1, 2), F(1, 2)), (1, 1, 1)]
        ),
        StepCDF.from_points(
            [(0, 0, 0), (F(1, 8), 0, 0), (F(3, 8), F(1, 2), F(1, 2)), (1, 1, 1)]
        ),
        StepCDF.from_points(
            [(0, 0, F(1, 5)), (F(2, 5), F(1, 5), F(1, 5)), (F(3, 5), F(4, 5), F(4, 5)), (1, 1, 1)]
        ),
    ]
    fixtures += [m.right_marginal() for m in FIVE_MEASURES]
    fixtures += [so.f_minus(g) for g in FIVE_GS]
    assert len(fixtures) == 20
    ok_h = True
    for nu in fixtures:
        supp, _ = me.support_and_gaps(nu)
        isolated = {lo for lo, hi in supp.intervals if lo == hi and 0 < lo < 1}
        for k in range(65):
            x = F(k, 64)
            if x in isolated:
                continue
            if me.h_map(nu, me.h_map(nu, x, "minus"), "plus") != me.h_map(nu, x, "plus"):
                ok_h = False
    _report("1c snap composition on 1/64 grid (20 CDFs)", ok_h)

    # 1d: projection is idempotent and marginal-preserving on >= 10 fixtures
    proj_fixtures = FIVE_MEASURES + [
        StepKernelMeasure.from_cells(
            [(0, F(1, 3), [(F(1, 2), 1)]), (F(1, 3), 1, [(1, 1)])]
        ),
        StepKernelMeasure.from_cells(
            [(0, F(1, 5), [(F(2, 5), F(1, 2)), (F(4, 5), F(1, 2))]),
             (F(1, 5), F(3, 5), [(F(4, 5), 1)]),
             (F(3, 5), 1, [(1, 1)])]
        ),
        StepKernelMeasure.from_cells(
            [(0, F(1, 2), [(F(3, 4), 1)]), (F(1, 2), F(3, 4), [(F(3, 4), F(1, 2)), (1, F(1, 2))]),
             (F(3, 4), 1, [(1, 1)])]
        ),
        StepKernelMeasure.from_cells(
            [(F(k, 4), F(k + 1, 4), [(F(k + 2, 4) if k < 3 else F(1), 1)]) for k in range(4)]
        ),
        StepKernelMeasure.from_cells(
            [(0, F(1, 6), [(1, 1)]), (F(1, 6), 1, [(1, 1)])]
        ),
    ]
    assert len(proj_fixtures) >= 10
    ok_proj = True
    for mu in proj_fixtures:
        star = me.project_star(mu)
        if me.project_star(star).canonical() != star.canonical():
            ok_proj = False
        if star.right_marginal().points != mu.right_marginal().points:
            ok_proj = False
    _report("1d projection idempotent, marginal preserved (>=10 fixtures)", ok_proj)

    # 1e: recognition routes agree on the full catalog and 1000 random posets:
    # the down-set tests against the reference's 2+2 and 3+1 searches, and
    # the witness of each pattern found induces that pattern
    def routes_agree(p):
        io = ref.two_plus_two(p) is None
        so_ = io and ref.three_plus_one(p) is None
        found = rec.find_three_plus_one(p) if io else rec.find_two_plus_two(p)
        pattern = ps.three_plus_one() if io else ps.two_plus_two()
        induced = found is None or ref.is_isomorphic(ps.induced(p, list(found)), pattern)
        agree = rec.is_interval_order(p) == io and rec.is_semiorder(p) == so_
        return agree and (found is None) == so_ and induced

    ok_rec = all(routes_agree(p) for p in catalog6.classes)
    rng = SeededRng(20260810)
    sizes = rng.uniforms(2, 1000)
    for t in range(1000):
        size = 7 + int(sizes[t] * 34)  # 7..40
        p = _random_poset(size, rng.spawn(t))
        if not routes_agree(p):
            ok_rec = False
    _report("1e recognition cross-check (405 catalog + 1000 random)", ok_rec)


def test_criterion_2_representation(catalog6):
    ok = True
    n_io = n_semi = 0
    for p in catalog6.classes:
        if not rec.is_interval_order(p):
            continue
        n_io += 1
        rep = rec.interval_representation(p)  # realization re-checked inside
        a, b = zip(*rep.intervals)
        for i in range(p.n):
            for j in range(p.n):
                if i != j and (b[i] < a[j]) != p.less(i, j):
                    ok = False
        if rec.is_semiorder(p):
            n_semi += 1
            by_rank = sorted(range(p.n), key=lambda i: a[i])  # left ends k/n, k the rank
            bs = [b[i] for i in by_rank]
            if any(x > y for x, y in zip(bs, bs[1:])):
                ok = False
    _report(
        "2 interval representation",
        ok,
        f"{n_io} interval orders realized, {n_semi} semiorders monotone",
    )


def test_criterion_3_sampling_soundness():
    rng = SeededRng(333)
    ok_semi = True
    for i, g in enumerate(FIVE_GS):
        for t in range(40):
            p = sa.sample_kernel_poset(g, 200, rng.spawn(i * 1000 + t))
            if not rec.is_semiorder(p):
                ok_semi = False
    _report("3a 200 threshold-kernel samples are semiorders", ok_semi)
    ok_int = True
    for i, mu in enumerate(FIVE_MEASURES):
        for t in range(40):
            p = sa.sample_kernel_poset(mu, 200, rng.spawn(50_000 + i * 1000 + t))
            if not rec.is_interval_order(p):
                ok_int = False
    _report("3b 200 interval-measure samples are interval orders", ok_int)


def test_criterion_4_degree_distribution_convergence():
    rng = SeededRng(444)
    targets = [so.gc(F(3, 10)), so.MonotoneRC.identity(), STAIRCASE]
    ok = True
    details = []
    for gi, g in enumerate(targets):
        fm, fp = so.f_minus(g), so.f_plus(g)
        good_minus = good_plus = 0
        trials = 40
        for t in range(trials):
            p = sa.sample_kernel_poset(g, 4000, rng.spawn(gi * 100 + t))
            dm = sa.ks_for_target(sa.nu_empirical(p, "minus"), fm)
            dp = sa.ks_for_target(sa.nu_empirical(p, "plus"), fp)
            good_minus += dm <= F(1, 20)
            good_plus += dp <= F(1, 20)
        details.append(f"g{gi}: {good_minus}/{trials} minus, {good_plus}/{trials} plus")
        if good_minus < 38 or good_plus < 38:  # 95% of 40
            ok = False
    _report("4 KS <= 0.05 at n=4000 in >=95% of 40 trials", ok, "; ".join(details))


def test_criterion_5_random_graph_order_limit():
    n, c = 3000, 0.3
    p_edge = sa.p_for_c(n, c)
    target = so.f_minus(so.gc(F(3, 10)))
    rng = SeededRng(555)
    good = 0
    trials = 30
    for t in range(trials):
        r = sa.random_graph_order(n, p_edge, rng.spawn(t))
        d = sa.ks_for_target(sa.nu_empirical(r, "minus"), target)
        good += d <= F(7, 100)
    ok = good >= 27  # 90% of 30
    _report("5 random graph order KS <= 0.07 in >=90% of 30 trials", ok, f"{good}/{trials}")


def test_criterion_6_equivalence():
    rng = SeededRng(666)
    equivalent_bases = [TWO_CELL, THREE_CELL, RICH_CELL]
    ok_equiv_stat = True
    for i, mu in enumerate(equivalent_bases):
        pushed = me.push_h(mu, "bar_plus")
        rep = sa.equivalence_test_statistical(
            mu, pushed, n=500, trials=100, rng=rng.spawn(i)
        )
        if rep.any_flagged():
            ok_equiv_stat = False
    _report("6a pushforward pairs raise no flags (n=500, 100 trials)", ok_equiv_stat)

    pair1 = (
        TWO_CELL,
        StepKernelMeasure.from_cells(
            [(0, F(1, 2), [(F(1, 2), F(1, 2)), (1, F(1, 2))]), (F(1, 2), 1, [(1, 1)])]
        ),
    )
    pair2 = (STAIR_CELLS, FULL_CELL)
    pair3 = (
        StepKernelMeasure.from_cells(
            [(0, F(1, 2), [(F(3, 4), 1)]), (F(1, 2), 1, [(1, 1)])]
        ),
        StepKernelMeasure.from_cells(
            [(0, F(1, 2), [(F(1, 2), F(1, 2)), (F(3, 4), F(1, 2))]), (F(1, 2), 1, [(1, 1)])]
        ),
    )
    inequivalent_pairs = [pair1, pair2, pair3]
    ok_diff_stat = True
    for i, (a, b) in enumerate(inequivalent_pairs):
        rep = sa.equivalence_test_statistical(
            a, b, n=500, trials=100, rng=rng.spawn(100 + i)
        )
        if not rep.any_flagged():
            ok_diff_stat = False
    _report("6b differing pairs are flagged (n=500, 100 trials)", ok_diff_stat)

    # exact side: the pushforward pairs are limit-equal because the canonical
    # projection fixes them (mu ~ mu*, and the pushforward is projection-
    # invariant, so the sampled atomic measure is literally shared); the
    # differing pairs are exactly inequivalent.
    ok_exact = True
    for mu in equivalent_bases:
        star = me.project_star(mu)
        if not me.equivalent(mu, star):
            ok_exact = False
        if me.push_h(mu, "bar_plus") != me.push_h(star, "bar_plus"):
            ok_exact = False
    for a, b in inequivalent_pairs:
        if me.equivalent(a, b):
            ok_exact = False
    _report("6c exact equivalence agrees with all six statistical verdicts", ok_exact)


def test_criterion_7_round_trips():
    rng = SeededRng(777)
    ok = True
    count = 0
    while count < 50:
        g = _random_g(rng.spawn(count))
        count += 1
        if so.g_from_nu_minus(so.f_minus(g)).points != g.points:
            ok = False
        if so.g_from_f_plus(so.f_plus(g)).points != g.points:
            ok = False
    exact_rate = so.g_from_rate(so.RateFunction.constant(2)).points == so.gc(F(1, 2)).points
    _report("7 round trips exact on 50 random g; rate(2) = shift(1/2)", ok and exact_rate)


def _random_g(rng: SeededRng) -> so.MonotoneRC:
    us = rng.uniforms(1, 32)
    k = int(us[0] * 4)
    xs = sorted({F(0), F(1)} | {F(int(u * 16), 16) for u in us[1 : 1 + k]})
    pts = []
    prev = F(0)
    cursor = 8
    for x in xs:
        left = max(x, prev, F(int(us[cursor] * 16), 16))
        right = max(left, F(int(us[cursor + 1] * 16), 16))
        cursor += 2
        if x == 1:
            left = right = F(1)
        pts.append((x, left, right))
        prev = right
    return so.MonotoneRC.from_points(pts)


def test_criterion_8_graph_bridge(catalog6):
    patterns = gr.enumerate_graphs(4)
    hosts = [gr.comparability_graph(p) for p in catalog6.classes]
    ok_compl = True
    for f in patterns:
        fc = gr.complement_graph(f)
        for g in hosts:
            if gr.graph_t_ind(f, gr.complement_graph(g)) != gr.graph_t_ind(fc, g):
                ok_compl = False
    _report("8a complement identity (|F|<=4 x 405 hosts)", ok_compl)

    orientations = {i: gr.poset_orientations(f) for i, f in enumerate(patterns)}
    ok_direct = True
    for p in catalog6.classes:
        psi = gr.comparability_graph(p)
        for i, f in enumerate(patterns):
            lhs = gr.graph_t_ind(f, psi)
            rhs = sum(de.density(o, p, "ind") for o in orientations[i])
            if lhs != rhs:
                ok_direct = False
    _report("8b directing identity (|F|<=4 x 405 hosts)", ok_direct)

    c4 = gr.cycle_graph(4)
    ok_c4 = all(
        gr.graph_t_ind(c4, gr.incomparability_graph(p)) == 0
        for p in catalog6.classes
        if rec.is_interval_order(p)
    )
    _report("8c no induced 4-cycle in interval-order incomparability graphs", ok_c4)
