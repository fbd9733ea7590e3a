"""Exact reference models, one for each stage of the pipeline, on
`Fraction`s, Python ints and sets.  Each is written to be plainly right, not
fast; a fast path in `src/` is tested against the model of its stage, not
against an earlier copy of itself.

- curves: `limits` (value and left limit by a linear scan), `sup`,
  `segment_lines`, `reflect`, and the constructors `check_monotone`,
  `normalize`, `checked`, `cdf`, `threshold_g`, `jumps_cdf`;
- limits of a model: `rate_g`, `f_plus_at`, `support_and_gaps`, `snap`;
- draw: `draw`, one interval from its uniforms;
- order: `interval_poset`, i < j iff b_i < a_j pair by pair;
- closure: `fixpoint_closure`, `relation` (range check and cycle rule),
  `is_strict_order`;
- covers and text: `covers`, `write_poset`, `read_pairs`;
- recognition: `two_plus_two`, `three_plus_one`, by search, and
  `is_semiorder`;
- representation: `representation`, `write_representation`;
- degrees: `nu`, counted pair by pair;
- KS: `sup`, `continuity_candidates`, `ks_at_continuity`, `ks_for_target`,
  and `converge_report`, the verdict rule and JSON of `converge`;
- fingerprints: `fingerprint` over `itertools.combinations`, classified by
  the catalog's `index_of`, and `pattern_code` of one tuple;
- densities and classes: `count_maps`, `atomic_density`, `is_isomorphic`.
"""

import functools
import itertools
import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction as F

from poslim import poset as ps
from poslim import textio
from poslim.errors import CycleError, InvariantError
from poslim.measures import AtomicMeasure, StepKernelMeasure
from poslim.pwl import as_fraction
from poslim.semiorders import RateFunction

# -- curves: points (x, left limit, value) in `Fraction`s ---------------------


def limits(points, t):
    """(left limit, value) at t by a linear scan over the breakpoints; inside
    a piece, r0 + (l1 - r0)(t - x0)/(x1 - x0)."""
    for k, (x, left, right) in enumerate(points):
        if x == t:
            return left, right
        if x > t:
            x0, _, r0 = points[k - 1]
            v = r0 + (left - r0) * (t - x0) / (x - x0)
            return v, v
    raise AssertionError(f"{t} beyond the last breakpoint")


def sup(f, g):
    """Sup of |f - g| over every breakpoint of either, as value and left
    limit, and every midpoint between consecutive ones."""
    ts = sorted({p[0] for p in f} | {p[0] for p in g})
    ts += [(a + b) / 2 for a, b in zip(ts, ts[1:])]
    best = F(0)
    for t in ts:
        (fl, fv), (gl, gv) = limits(f, t), limits(g, t)
        best = max(best, abs(fv - gv), abs(fl - gl))
    return best


def segment_lines(points):
    """(slope, intercept) of each piece's line, and (0, value) at x = 1."""
    out = []
    for (x0, _, r0), (x1, l1, _) in zip(points, points[1:]):
        slope = (l1 - r0) / (x1 - x0)
        out.append((slope, r0 - slope * x0))
    return out + [(F(0), points[-1][2])]


def reflect(points):
    """The graph reflected across x + y = 1 by one walk over the points,
    merging the polyline's consecutive points of equal reflected x."""
    groups = []
    for x, left, right in reversed(points):
        for y in (right, left):  # the polyline walked backwards
            rx, ry = 1 - y, 1 - x
            if groups and groups[-1][0] == rx:
                groups[-1] = (rx, groups[-1][1], ry)
            else:
                groups.append((rx, ry, ry))
    return tuple(groups) if groups[-1][0] == 1 else (*groups, (F(1), F(1), F(1)))


def check_monotone(points):
    """`pwl.check_monotone`: the same checks, in the same order, with the
    same messages."""
    if not points:
        raise InvariantError("need at least one breakpoint")
    if points[0][0] != 0 or points[-1][0] != 1:
        raise InvariantError("breakpoints must start at 0 and end at 1")
    prev_x = prev_right = None
    for x, left, right in points:
        if prev_x is not None and x <= prev_x:
            raise InvariantError("breakpoints must be strictly increasing")
        if not (0 <= left <= 1 and 0 <= right <= 1):
            raise InvariantError("values must lie in [0,1]")
        if left > right:
            raise InvariantError("jumps must be upward")
        if prev_right is not None and left < prev_right:
            raise InvariantError("segments must be nondecreasing")
        prev_x, prev_right = x, right


def checked(points):
    """The points, once `check_monotone` passes them."""
    check_monotone(points)
    return tuple(points)


def normalize(points):
    """`pwl.normalize`: sorted, a repeated x refused, and every inner point
    without a jump that lies on the line of its neighbours dropped."""
    pts = sorted((tuple(as_fraction(v) for v in p) for p in points), key=lambda p: p[0])
    if not pts:
        raise InvariantError("need at least one breakpoint")
    for p, q in zip(pts, pts[1:]):
        if p[0] == q[0]:
            raise InvariantError(f"duplicate breakpoint at {p[0]}")
    kept = [pts[0]]
    for (x, left, right), (x1, l1, _) in zip(pts[1:-1], pts[2:]):
        x0, _, r0 = kept[-1]
        if left != right or (left - r0) * (x1 - x0) != (l1 - r0) * (x - x0):
            kept.append((x, left, right))
    return tuple(kept + pts[-1:] * (len(pts) > 1))


def cdf(raw):
    """`StepCDF.from_points`: `normalize`, `check_monotone`, then F(0-) = 0
    and F(1) = 1."""
    pts = checked(normalize(raw))
    if pts[0][1] != 0:
        raise InvariantError("CDF must have F(0-) = 0")
    if pts[-1][2] != 1:
        raise InvariantError("CDF must have F(1) = 1")
    return pts


def threshold_g(raw):
    """`MonotoneRC.from_points`: `normalize`, the stored pre-value at 0 set
    to g(0), then `check_monotone` and g >= x."""
    (x0, _, r0), *rest = normalize(raw)
    pts = checked([(x0, r0, r0), *rest])
    if any(min(left, right) < x for x, left, right in pts) or pts[-1][2] != 1:
        raise InvariantError("not weakly increasing with g(x) >= x")
    return pts


def jumps_cdf(jumps):
    """`StepCDF.from_jumps`: a jump of the summed weight at each distinct
    value, then `cdf`."""
    acc = Counter()
    for v, w in jumps:
        acc[as_fraction(v)] += w
    pts, cum = [] if min(acc) == 0 else [(F(0), F(0), F(0))], F(0)
    for v in sorted(acc):
        pts.append((v, cum, cum + acc[v]))
        cum += acc[v]
    return cdf(pts if max(acc) == 1 else [*pts, (F(1), F(1), F(1))])


# -- limits of a model --------------------------------------------------------


def rate_g(pieces, x):
    """The largest y <= 1 with R(y) <= R(x) + 1, R the integral of the rate
    given by `pieces` (lo, hi, value), solved piece by piece."""

    def cumulative(t):
        return sum(v * (min(t, hi) - lo) for lo, hi, v in pieces if t > lo)

    level = cumulative(x) + 1
    best = F(0)
    for lo, hi, v in pieces:
        c_lo = cumulative(lo)
        if c_lo <= level:  # R(y) = c_lo + v (y - lo) on this piece
            best = hi if c_lo + v * (hi - lo) <= level else lo + (level - c_lo) / v
    return best


def f_plus_at(g, t):
    """F_+(t) = 1 - min{x : 1 - g(x) <= t}: the minimum exists because g is
    right-continuous with g(1) = 1, and is the first x, scanning breakpoints
    and segments left to right, with g(x) >= 1 - t."""
    v = 1 - t
    pts = g.points
    for i, (x, left, right) in enumerate(pts):
        if i > 0:
            px, _, pright = pts[i - 1]
            if pright < v <= left:  # crossing inside the open segment
                return 1 - (px + (v - pright) * (x - px) / (left - pright))
        if right >= v:
            return 1 - x
    raise AssertionError("unreachable: g(1) = 1")


def support_and_gaps(points):
    """Support components and gaps of a CDF by one walk over its points."""
    merged = []
    for (x, left, right), nxt in zip(points, points[1:] + (None,)):
        hi = nxt[0] if nxt and right < nxt[1] else x  # x, or the next x if F grows to it
        if left != right or hi > x:
            if merged and merged[-1][1] == x:
                merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((x, hi))
    gaps, prev = [], F(0)
    for lo, hi in merged:
        if lo > prev:
            gaps.append((prev, lo))
        prev = hi
    return tuple(merged), gaps + [(prev, F(1))] * (prev < 1)


def snap(gaps, x, variant):
    """The snap rule by a scan of every gap."""
    for a, b in gaps:
        if a <= x < b if variant == "plus" else a < x <= b:
            return a if variant == "minus" else b
    return x


# -- draw and order -----------------------------------------------------------


def _pick(weighted, u):
    """The entry whose cumulative weight interval [c_(k-1), c_k) holds u,
    its weight last; the last entry for u = 1."""
    cum = list(itertools.accumulate(w[-1] for w in weighted))
    return weighted[min(bisect_right(cum, F(u)), len(cum) - 1)]


def draw(model, u1, u2=None):
    """One interval from its uniforms: [u1, g(u1)] for a threshold g or a
    rate function's g; for a step measure u1 and the conditional atom u2
    picks in u1's cell; for an atomic measure the atom u1 picks."""
    u1 = F(u1)
    if isinstance(model, StepKernelMeasure):
        cell = min(bisect_right(model.breaks, u1) - 1, len(model.conditionals) - 1)
        return u1, _pick(model.conditionals[cell], u2)[0]
    if isinstance(model, AtomicMeasure):
        return _pick(model.atoms, u1)[:2]
    if isinstance(model, RateFunction):
        return u1, rate_g(list(zip(model.breaks, model.breaks[1:], model.values)), u1)
    return u1, limits(model.points, u1)[1]


def interval_poset(intervals):
    """The interval order i < j iff b_i < a_j, compared pair by pair."""
    return ps.FinitePoset.from_succ_masks(
        [sum(1 << j for j, (a, _) in enumerate(intervals) if b < a) for _, b in intervals]
    )


# -- closure, covers and text -------------------------------------------------


def fixpoint_closure(masks):
    """Transitive closure by repeated squaring until nothing changes; a
    cycle shows as a row holding its own bit."""
    rows = list(masks)
    while True:
        changed = False
        for i, row in enumerate(rows):
            acc, rest = row, row
            while rest:
                low = rest & -rest
                acc |= rows[low.bit_length() - 1]
                rest ^= low
            if acc != row:
                rows[i] = acc
                changed = True
        if not changed:
            return rows


def relation(n, pairs):
    """The closure of the 1-based pairs: the first pair out of range raises
    InvariantError, and a cycle raises CycleError naming the least point on
    a cycle or above one, the least point Kahn's algorithm never reaches."""
    for a, b in pairs:
        if not (1 <= a <= n and 1 <= b <= n):
            raise InvariantError(f"pair ({a},{b}) out of range 1..{n}")
    masks = [0] * n
    for a, b in pairs:
        masks[a - 1] |= 1 << (b - 1)
    closed = fixpoint_closure(masks)
    cyclic = [j for j in range(n) if closed[j] >> j & 1]
    if cyclic:
        stuck = min(i for i in range(n) for j in cyclic if closed[j] >> i & 1)
        raise CycleError(f"relation has a cycle at or below point {stuck + 1}")
    return ps.FinitePoset.from_succ_masks(closed)


def is_strict_order(succ, pred):
    """Irreflexive, antisymmetric and transitive pair by pair, with pred the
    transpose of succ."""
    n = len(succ)
    less = [[(succ[i] >> j) & 1 for j in range(n)] for i in range(n)]
    return (
        all(not less[i][i] for i in range(n))
        and all(not (less[i][j] and less[j][i]) for i in range(n) for j in range(n))
        and all(less[i][k] for i, j, k in itertools.product(range(n), repeat=3)
                if less[i][j] and less[j][k])
        and all(((pred[j] >> i) & 1) == less[i][j] for i in range(n) for j in range(n))
    )


def covers(p):
    """The pairs i < j with no point between them, in (i, j) order."""
    n = range(p.n)
    return [(i, j) for i in n for j in n
            if p.less(i, j) and not any(p.less(i, k) and p.less(k, j) for k in n)]


def write_poset(p):
    """The poset file: its header, then one 1-based line per cover."""
    return "".join([f"poset {p.n}\n", *(f"{i + 1} {j + 1}\n" for i, j in covers(p))])


def read_pairs(body):
    """The integer pairs of a body, one line at a time, by `textio.rows`."""
    return textio.rows([ln.strip() for ln in body.splitlines() if ln.strip()], 2, int)


# -- recognition and representation -------------------------------------------


def _up_down(p):
    up = [{j for j in range(p.n) if p.less(i, j)} for i in range(p.n)]
    down = [{j for j in range(p.n) if p.less(j, i)} for i in range(p.n)]
    return up, down


def two_plus_two(p):
    """An induced 2+2 (a, b, c, d), a < b and c < d with the cross pairs
    incomparable, or None: b in U(a) - U(c) and d in U(c) - U(a) for two
    points a, c whose up-sets are not nested."""
    up, _ = _up_down(p)
    for a, c in itertools.combinations(range(p.n), 2):
        if up[a] - up[c] and up[c] - up[a]:
            return a, min(up[a] - up[c]), c, min(up[c] - up[a])
    return None


def three_plus_one(p):
    """An induced 3+1 (a, b, c, d), a < b < c with d incomparable to all
    three, or None: a in D(b) - D(d) and c in U(b) - U(d) for an
    incomparable pair b, d."""
    up, down = _up_down(p)
    for b, d in itertools.permutations(range(p.n), 2):
        if d not in up[b] | down[b] and down[b] - down[d] and up[b] - up[d]:
            return min(down[b] - down[d]), b, min(up[b] - up[d]), d
    return None


def is_semiorder(p):
    """No induced 2+2 and no induced 3+1."""
    return two_plus_two(p) is None and three_plus_one(p) is None


def representation(p):
    """The evenly spaced representation of an interval order: points ranked
    1..n by (down-set size, up-set size descending, index), point i the
    interval [rank_i/n, (n - |U(i)|)/n]."""
    up, down = _up_down(p)
    order = sorted(range(p.n), key=lambda i: (len(down[i]), -len(up[i]), i))
    rank = {i: r for r, i in enumerate(order, 1)}
    return [(F(rank[i], p.n), F(p.n - len(up[i]), p.n)) for i in range(p.n)]


def write_representation(intervals):
    """The `index,rank,a,b` CSV: 1-based index, the rank of a_i among the
    left ends with ties in index order, and the ends as num/den."""
    order = sorted(range(len(intervals)), key=lambda i: (intervals[i][0], i))
    rank = {i: r for r, i in enumerate(order, 1)}
    rows = [(i + 1, rank[i], a, b) for i, (a, b) in enumerate(intervals)]
    return textio.to_csv(("index", "rank", "a", "b"), rows)


# -- degree CDFs and Kolmogorov distances -------------------------------------


def nu(p, sign):
    """The CDF of the normalised down-degrees (minus) or up-degrees (plus),
    counted pair by pair: at each degree d of k points, the point
    (d/n, points below d over n, plus k/n), then (1, 1, 1)."""
    n = p.n
    degree = Counter(
        sum(p.less(j, i) if sign == "minus" else p.less(i, j) for j in range(n)) for i in range(n)
    )
    points, below = [], 0
    for d in sorted(degree):
        points.append((F(d, n), F(below, n), F(below + degree[d], n)))
        below += degree[d]
    return tuple(points + [(F(1), F(1), F(1))])


def continuity_candidates(g):
    """The grid k/64 and the breakpoints of the curve g (as points), less
    those within 1/32 of a jump of g, in order."""
    jumps = [x for x, left, right in g if left != right]
    grid = {F(k, 64) for k in range(65)} | {x for x, _, _ in g}
    return sorted(t for t in grid if all(abs(t - j) > F(1, 32) for j in jumps))


def ks_at_continuity(f, g):
    """The sup of |f - g| over `continuity_candidates(g)`, 0 if there is none."""
    cands = continuity_candidates(g)
    return max((abs(limits(f, t)[1] - limits(g, t)[1]) for t in cands), default=F(0))


def ks_for_target(f, g):
    """`sup` against a target g without a jump, else `ks_at_continuity`."""
    return sup(f, g) if all(left == right for _, left, right in g) else ks_at_continuity(f, g)


def converge_report(ps, f_minus, f_plus, threshold=0.05):
    """The JSON report of `converge` on the orders ps against a target with
    limits f_minus and f_plus (as points): per order its KS distance to the
    previous order's nu^- and to each limit, a note for each order that is
    no semiorder, and the verdict "converging" when the distance to f_minus
    never rises by more than threshold/4 from one order to the next and
    ends at most threshold."""
    rows, notes = [], []
    for k, p in enumerate(ps):
        if not is_semiorder(p):
            notes.append(f"input {k} is not a semiorder; the degree-distribution "
                         "convergence criterion assumes semiorders")
        nus = [nu(p, sign) for sign in ("minus", "plus")]
        prev = float(sup(nu(ps[k - 1], "minus"), nus[0])) if k else None
        km, kp = (float(ks_for_target(f, g)) for f, g in zip(nus, (f_minus, f_plus)))
        rows.append(dict(index=k, n=p.n, semiorder=is_semiorder(p), ks_prev=prev,
                         ks_minus_target=km, ks_plus_target=kp))
    series = [r["ks_minus_target"] for r in rows]
    if len(series) < 2:
        verdict = "insufficient-data"
    elif all(b <= a + threshold / 4 for a, b in zip(series, series[1:])) and series[-1] <= threshold:
        verdict = "converging"
    else:
        verdict = "not-converging"
    return textio.to_json({"verdict": verdict, "threshold": threshold, "notes": notes, "rows": rows})


# -- fingerprints, densities and classes --------------------------------------


def _automorphisms(q):
    return sum(all(q.less(i, j) == q.less(pi[i], pi[j]) for i in range(q.n) for j in range(q.n))
               for pi in itertools.permutations(range(q.n)))


def fingerprint(p, max_q):
    """(id, label, value) of each catalog class up to size max_q: every
    s-subset of points classified by `index_of` its induced poset; a class
    met c times has c |Aut| induced embeddings among the (n)_s maps.  The
    labels are chain{s}, 2+2, 3+1 and, over chain1, antichain{s}."""
    cat = ps.cached_catalog(max_q)
    index_of = functools.cache(lambda succ: cat.index_of(ps.FinitePoset.from_succ_masks(succ)))
    counts = Counter(
        index_of(ps.induced(p, sub).succ)  # classified once per labelled pattern
        for s in range(1, max_q + 1) for sub in itertools.combinations(range(p.n), s)
    )
    names = {}
    for s in range(1, max_q + 1):
        for q, lab in ((ps.chain(s), f"chain{s}"), (ps.two_plus_two(), "2+2"),
                       (ps.three_plus_one(), "3+1"), (ps.antichain(s), f"antichain{s}")):
            if q.n == s:
                names[cat.index_of(q)] = lab
    return [
        (cat.class_id(k), names.get(k, ""),
         F(counts[k] * _automorphisms(q), math.perm(p.n, q.n)) if counts[k] else F(0))
        for k, q in enumerate(cat.classes)
    ]


def pattern_code(succ, idx):
    """Code of the point tuple idx, one pair at a time: for v = 1..s-1, the
    code of idx[:v] times 3^v plus d_u 3^u for each u < v, d_u = 0 when
    idx[u] and idx[v] are incomparable, 1 when idx[u] < idx[v], 2 when
    idx[v] < idx[u]."""
    code = 0
    for v, b in enumerate(idx):
        code *= 3**v
        for u, a in enumerate(idx[:v]):
            code += ((succ[a] >> b & 1) + 2 * (succ[b] >> a & 1)) * 3**u
    return code


def count_maps(q, p, kind):
    """Maps of q's points into p's by brute force over all of them: a hom
    keeps every relation, an inj is an injective hom, an ind an injective
    map that keeps relations and non-relations.  Posets relate by `less`,
    graphs by `has_edge`."""
    rq, rp = ((x.less if isinstance(x, ps.FinitePoset) else x.has_edge) for x in (q, p))
    maps = (itertools.product(range(p.n), repeat=q.n) if kind == "hom"
            else itertools.permutations(range(p.n), q.n))
    pairs = list(itertools.permutations(range(q.n), 2))
    if kind == "ind":
        return sum(all(rq(a, b) == rp(phi[a], phi[b]) for a, b in pairs) for phi in maps)
    return sum(all(rp(phi[a], phi[b]) for a, b in pairs if rq(a, b)) for phi in maps)


def atomic_density(q, mu):
    """Weighted sum over all atom tuples whose intervals realise q's relations."""
    total = F(0)
    for phi in itertools.product(mu.atoms, repeat=q.n):
        if all(phi[a][1] < phi[b][0] for a, b in q.relation_pairs()):
            total += math.prod(atom[2] for atom in phi)
    return total


def is_isomorphic(p, q):
    """Order-preserving-and-reflecting bijection test, by backtracking over
    the points of equal (down, up) degree profile, rarest profile first."""
    prof = [[(x.pred[i].bit_count(), x.succ[i].bit_count()) for i in range(x.n)] for x in (p, q)]
    if sorted(prof[0]) != sorted(prof[1]):
        return False
    freq = Counter(prof[0])
    order = sorted(range(p.n), key=lambda i: (freq[prof[0][i]], prof[0][i]))
    image = {}

    def extend(k):
        if k == p.n:
            return True
        i = order[k]
        for j in set(range(q.n)) - set(image.values()):
            if prof[1][j] == prof[0][i] and all(
                p.less(i, a) == q.less(j, b) and p.less(a, i) == q.less(b, j) for a, b in image.items()
            ):
                image[i] = j
                if extend(k + 1):
                    return True
                del image[i]
        return False

    return extend(0)
