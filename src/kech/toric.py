"""Convex toric domains and the combinatorial embedding obstruction.

A convex generator is a labeled concave lattice path from (0, y) to (x, 0):
classes are primitive displacements (a, -b) with a, b >= 0, listed with
steepness b/a strictly increasing (horizontal first, vertical last), each
carrying an elliptic multiplicity and an optional h flag (never on the
horizontal or vertical class).  Its grading is 2(L - 1) - h where L counts
lattice points in the region enclosed by the path and the axes; its action
against a domain sums mult * support(b, a) over classes.

The obstruction pipeline matches convex generators against chain-complex
generators of equal grading through an action inequality and the point-count
inequality x + y - h/2 >= pairs + toricMult - 1.  Minimization over these
generators, with h free, is an exhaustive concave-path search pruned by three
monotone quantities: the doubled lattice count and the partial action only
grow along a branch, and the boundary slack 2(x + y) - doubled count only
falls.  Each loop that makes children breaks at the first child that fails a
bound, and the height loop starts at the first height that can hold a class
steeper than the last one.  ``gromov_upper`` builds one class pool for all
its searches.

The all-elliptic capacity c_k (h = 0, grading 2k) takes three steps, in
``kech.toric_dp``.  A forward sweep over the classes in steepness order
gives the least action of every (x, D), at D = 2k + 2 the optimum v*.  A
sweep from the steep end bounds from below the action of every completion
of a prefix state.  A depth-first search is then replayed over the states
whose least action plus that bound is within v* + 1e-6 only, with the
search's witness rule (seeds first, the same child order, a new incumbent
only when INCUMBENT_GAP = 1e-12 better).  A replay that meets a generator
at its cutoff runs again with no cutoff, over the same forward sweep;
``toric_dp.replay`` gives the argument.
"""

from __future__ import annotations

from itertools import accumulate, chain, combinations, islice
from math import gcd, inf, isfinite
from typing import NamedTuple

from .paths import (
    TOL,
    EdgeGroup,
    KLatticePath,
    action,
    arrow_count,
    build_path,
    cross_sum,
    format_items,
    format_path,
    grading,
    h_count,
    lower_hull,
    pair_count,
    validate,
)
from .toric_dp import INCUMBENT_GAP, replay


# ---------------------------------------------------------------------------
# Convex generators


class CgClass(NamedTuple):
    """One class of parallel edges of displacement (a, -b), a, b >= 0."""

    a: int
    b: int
    e_mult: int
    h_flag: bool

    @property
    def mult(self) -> int:
        return self.e_mult + (1 if self.h_flag else 0)

    @property
    def sloped(self) -> bool:
        return self.a >= 1 and self.b >= 1


class ConvexGenerator(NamedTuple):
    """Concave-ordered labeled lattice path encoding a boundary generator."""

    groups: tuple

    def __str__(self) -> str:
        return format_convex_generator(self)


EMPTY_CONVEX = ConvexGenerator(())


def make_convex_generator(items) -> ConvexGenerator:
    """Validate and assemble classes given as CgClass or (a, b, eMult, h)."""
    groups = [CgClass(*item) for item in items]
    last = None
    for g in groups:
        if g.a < 0 or g.b < 0 or (g.a, g.b) == (0, 0):
            raise ValueError("class displacement must be (a,-b) with a,b >= 0, nonzero")
        if gcd(g.a, g.b) != 1:
            raise ValueError("class displacement must be primitive")
        if g.e_mult < 0 or g.mult < 1:
            raise ValueError("class multiplicity must be positive")
        if g.h_flag and not g.sloped:
            raise ValueError("horizontal and vertical classes are always elliptic")
        if last is not None and last.a * g.b - last.b * g.a <= 0:
            raise ValueError("classes must appear in strictly increasing steepness")
        last = g
    return ConvexGenerator(tuple(groups))


def format_convex_generator(cg: ConvexGenerator) -> str:
    return ";".join(format_items(cg.groups)) or "0"


def cg_x(cg: ConvexGenerator) -> int:
    return sum(g.a * g.mult for g in cg.groups)


def cg_y(cg: ConvexGenerator) -> int:
    return sum(g.b * g.mult for g in cg.groups)


def _lattice_terms(classes):
    """(lattice count, x, y) for [(a, b, mult)] in concave order.

    The doubled area is x*y minus the cross sum of the path edges (a, -b),
    and the trapezoid version of Pick's theorem gives
    2L = 2A + steps + x + y + 2.
    """
    x = sum(a * t for a, _, t in classes)
    y = sum(b * t for _, b, t in classes)
    steps = sum(t for _, _, t in classes)
    doubled = (x * y - cross_sum([(a, -b, t) for a, b, t in classes])
               + steps + x + y + 2)
    if doubled % 2:
        raise AssertionError("lattice point count must be integral")
    return doubled // 2, x, y


def cg_lattice_points(cg: ConvexGenerator) -> int:
    """Lattice points enclosed by the path and the axes."""
    return _lattice_terms([(g.a, g.b, g.mult) for g in cg.groups])[0]


def cg_grading(cg: ConvexGenerator) -> int:
    """2(L - 1) - h for L the enclosed lattice point count."""
    # a class carries e_mult and h_flag as an edge group does
    return 2 * (cg_lattice_points(cg) - 1) - h_count(cg)


# ---------------------------------------------------------------------------
# Toric domains


class ToricDomain(NamedTuple):
    """Convex moment region in the first quadrant, kept as hull vertices."""

    kind: str
    params: tuple
    vertices: tuple

    @classmethod
    def ball(cls, r: float) -> "ToricDomain":
        if not (r > 0 and isfinite(r)):
            raise ValueError("ball radius must be positive and finite")
        r = float(r)
        return cls("ball", (r,), ((0.0, 0.0), (r, 0.0), (0.0, r)))

    @classmethod
    def ellipsoid(cls, a: float, b: float) -> "ToricDomain":
        if not (a > 0 and b > 0 and isfinite(a) and isfinite(b)):
            raise ValueError("ellipsoid axes must be positive and finite")
        return cls("ellipsoid", (float(a), float(b)),
                   ((0.0, 0.0), (float(a), 0.0), (0.0, float(b))))

    @classmethod
    def polygon(cls, points) -> "ToricDomain":
        pts = [(float(x), float(y)) for x, y in points]
        if not pts:
            raise ValueError("polygon needs at least one vertex")
        for x, y in pts:
            if not (isfinite(x) and isfinite(y)):
                raise ValueError("polygon vertex must be finite")
            if x < -TOL or y < -TOL:
                raise ValueError("polygon vertex outside the first quadrant")
        return cls("polygon", tuple(pts), _hull_with_origin(pts))

    def support(self, u: float, v: float) -> float:
        """Support function: max of u*x + v*y over the region."""
        return max(u * x + v * y for x, y in self.vertices)

    def scale(self, r: float) -> "ToricDomain":
        if not (r > 0 and isfinite(r)):
            raise ValueError("scale factor must be positive and finite")
        pts = tuple((r * x, r * y) for x, y in self.vertices)
        return ToricDomain("polygon", pts, pts)

    def describe(self) -> str:
        if self.kind == "polygon":
            return "polygon:" + ";".join(",".join(map(_echo, p)) for p in self.params)
        return "%s:%s" % (self.kind, ",".join(map(_echo, self.params)))


def _echo(x: float) -> str:
    """%g when that reads back as x, repr otherwise: the echo is lossless."""
    text = "%g" % x
    return text if float(text) == x else repr(x)


def _hull_with_origin(pts):
    pts = sorted(set(pts) | {(0.0, 0.0)})
    if len(pts) <= 2:
        return tuple(pts)

    lower = lower_hull(pts)
    upper = lower_hull(pts[::-1])
    return tuple(lower[:-1] + upper[:-1])


def parse_domain(text: str) -> ToricDomain:
    """ball:r | ellipsoid:a,b | polygon:x1,y1;x2,y2;..."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ValueError("domain descriptor needs kind:parameters")
    try:
        if kind == "ball":
            return ToricDomain.ball(float(rest))
        if kind == "ellipsoid":
            a, b = rest.split(",")
            return ToricDomain.ellipsoid(float(a), float(b))
        if kind == "polygon":
            pts = []
            for chunk in rest.split(";"):
                x, y = chunk.split(",")
                pts.append((float(x), float(y)))
            return ToricDomain.polygon(pts)
    except ValueError as exc:
        raise ValueError("bad domain descriptor %r: %s" % (text, exc)) from None
    raise ValueError("unknown domain kind %r" % kind)


def support_action(domain: ToricDomain, cg: ConvexGenerator) -> float:
    """Sum of mult * support(b, a) over classes of displacement (a, -b)."""
    return sum(g.mult * domain.support(g.b, g.a) for g in cg.groups)


# ---------------------------------------------------------------------------
# Relation to chain-complex generators


def factor_target(path: KLatticePath):
    """(grading, bound) a convex generator must match for this path: equal
    grading and x + y - h/2 >= bound = pairs + toricMult - 1."""
    return grading(path), pair_count(path) + arrow_count(path) - 1


def _action_fits(value: float, path: KLatticePath) -> bool:
    """The action half of the matching rule: value <= action(path), to TOL."""
    return value <= action(path) + TOL


def leq_relation(cg: ConvexGenerator, path: KLatticePath, domain: ToricDomain) -> bool:
    """Grading equality + action inequality + point-count inequality."""
    target, bound = factor_target(path)
    if cg_grading(cg) != target:
        return False
    if not _action_fits(support_action(domain, cg), path):
        return False
    return 2 * (cg_x(cg) + cg_y(cg)) - h_count(cg) >= 2 * bound


# ---------------------------------------------------------------------------
# Factorizations


def factorizations(path: KLatticePath):
    """Partitions of the orbit multiset into nullhomologous blocks.

    Atomic items are the half-arrow pair and each whole orbit class with its
    multiplicity; splitting a class across blocks would repeat an elliptic
    orbit in two factors, which the matching rules forbid.  Each block must
    itself be a valid generator.  The block of the first unplaced atom is that
    atom with each subset of the later ones, so every partition is built once,
    and an invalid block cuts off every partition that holds it.  Atoms are
    in path order, so a block's classes are in slope order.  Partitions are
    returned deterministically, the trivial one first.
    """
    kind = validate(path)
    if kind == "IV":
        raise ValueError("factorization requires at most one half-arrow pair")
    if any(g.h_flag for g in path.groups):
        raise ValueError("factorization requires an h-free generator")

    atoms = ["pair-"] * path.start_pair + ["pair+"] * path.end_pair
    atoms += path.groups
    out = []

    def grow(left, blocks):
        if not left:
            out.append(tuple(sorted(blocks, key=format_path)))
            return
        first, rest = left[0], left[1:]
        for size in range(len(rest) + 1):
            for chosen in combinations(range(len(rest)), size):
                block = [first] + [rest[i] for i in chosen]
                candidate = KLatticePath(
                    "pair-" in block, "pair+" in block,
                    tuple(a for a in block if isinstance(a, EdgeGroup)))
                try:
                    validate(candidate)
                except ValueError:
                    continue
                grow([a for i, a in enumerate(rest) if i not in chosen],
                     blocks + [candidate])

    grow(atoms, [])
    out.sort(key=lambda part: (len(part), [format_path(p) for p in part]))
    return out


# ---------------------------------------------------------------------------
# Minimization over convex generators


def _pool_by_height(domain: ToricDomain, i_target: int):
    """Sloped primitive classes usable at this grading, in ascending height b.

    A lone sloped class (a, b) already encloses (ab + a + b + 3) / 2 lattice
    points, and the enclosed count only grows as classes are added, so
    classes with ab + a + b beyond the grading budget can never appear.
    Returns [(b, alist, costs, floors, least)]: the ascending a list, the
    aligned support costs, their suffix minima floors[i] = min(costs[i:]),
    and least, the smallest cost at height b or above.  The minima, not the
    raw costs, bound the search's cost breaks: support(b, a) need not grow
    with a or b when a vertex sits within TOL below an axis.
    """
    budget = max(i_target, 1)
    rows = []
    least = inf
    # every height with room for (1, b), tallest first so least is a running min
    for b in range((budget - 1) // 2, 0, -1):
        alist = []
        costs = []
        for a in range(1, budget + 1):
            if a * b + a + b > budget:
                break
            if gcd(a, b) == 1:
                alist.append(a)
                costs.append(domain.support(b, a))
        floors = list(accumulate(reversed(costs), min))[::-1]
        least = min(least, floors[0])
        rows.append((b, alist, costs, floors, least))
    rows.reverse()
    return rows


def _triangle_family(lattice_target: int):
    """Candidate class lists e(1,0)^j e(1,1)^m e(0,1)^d hitting the target."""
    out = []
    m = 0
    while m * (m + 3) // 2 + 1 <= lattice_target:
        for d in range(0, lattice_target):
            base = (m + 1) * (d + 1) + m * (m + 1) // 2
            if base > lattice_target:
                break
            rem = lattice_target - base
            if rem % (m + d + 1):
                continue
            j = rem // (m + d + 1)
            classes = []
            if j:
                classes.append((1, 0, j))
            if m:
                classes.append((1, 1, m))
            if d:
                classes.append((0, 1, d))
            out.append(classes)
        m += 1
    return out


def _seed_classes(i_target: int):
    """Class lists the search offers before it starts: the triangle family
    and the single classes (half - 1, 1) and (1, half - 1)."""
    seeds = _triangle_family(i_target // 2 + 1)
    half = i_target // 2
    for a in (half - 1, 1):
        b = half - a
        if a >= 1 and b >= 1 and gcd(a, b) == 1:
            seeds.append([(a, b, 1)])
    return seeds


def _seed_action(domain: ToricDomain, classes) -> float:
    """Action of a class list, summed as the search sums it."""
    return sum(t * domain.support(b, a) for a, b, t in classes)


def admissible_min_action(domain: ToricDomain, i_target: int, xy_bound: int):
    """Least support action over convex generators of the given grading, an
    even h count up to the number of sloped classes, and x + y - h/2 >=
    xy_bound.  Returns (value, witness), (inf, None) when infeasible.

    A node is a partial path of width x, height y, doubled enclosed count D
    and partial action u; its children append one class (a, b) x t, steeper
    than its last class.  Three quantities are monotone along every branch,
    and each loop that makes children breaks at its first child that fails
    one, since every later child of that loop fails it too:

    - D grows by t(2bx + 1 + a + b) + ab t^2, so once it passes the largest
      count any h assignment could justify the branch is dead.  The t loop
      breaks on it, and the height and a ranges come from its closed form.
    - u grows by t * support(b, a), so a branch dies once it cannot beat the
      incumbent.  The t loop breaks on it (u grows with t); the a loop on
      u + min(costs[pos:]) and the height loop on u + (least cost at height
      b or above), both lower bounds on every later child.
    - The boundary slack 2(x + y) - D changes by
      t(a + b - 1 - 2bx) - ab t^2, which never rises with t, a or b and must
      end at 2 xy_bound - i_target - 2 or more.  The t loop breaks on it; the
      a loop when the t = 1 child fails, its change -(a-1)(b-1) - 2bx falling
      in a; the height loop when (1, b) x 1 fails, since its change -2bx is
      the largest of any child at height b or above.

    The height loop starts at the first height that can hold a child.  A
    child is strictly steeper than the last class (a_l, b_l) and the flattest
    class at height b is (1, b), so no height b <= b_l // a_l holds one, and
    none follows the vertical class.  The loop's three break tests are
    monotone in b, so a skipped height could only have been passed over.

    The search may read a class pool built at a larger grading, as
    gromov_upper's searches share one.  Every node has D >= 2 + 4 * #sloped,
    as each sloped class adds at least 4, so the height and a ranges from
    D's closed form never reach past the rows of this grading's own pool.
    The larger pool's floors and least are still lower bounds on the costs
    the search can reach, only weaker, so its cost breaks still skip only
    children that offer nothing.

    Breaks skip only children whose subtrees would offer nothing, so every
    incumbent is found in the same order as by the unpruned traversal, and
    ties resolve the same way.
    """
    if i_target < 0 or i_target % 2:
        raise ValueError("grading target must be even and nonnegative")
    return _admissible_search(_pool_by_height(domain, i_target), domain,
                              i_target, xy_bound)


def _admissible_search(buckets, domain: ToricDomain, i_target: int, xy_bound: int):
    """admissible_min_action over buckets, the class pool of this domain at
    grading i_target or above."""
    cost_h = domain.support(0.0, 1.0)
    cost_v = domain.support(1.0, 0.0)
    roof = i_target + 2  # doubled count bound before the h allowance
    best_val = inf
    best_wit = None

    def offer(chosen, doubled, x, y, n_sloped, used):
        nonlocal best_val, best_wit
        h = doubled - 2 - i_target
        if h < 0 or h % 2 or h > n_sloped or 2 * (x + y) - h < 2 * xy_bound:
            return
        if used < best_val - INCUMBENT_GAP:
            groups = []
            flags_left = h
            for a, b, t in chosen:
                if flags_left and a >= 1 and b >= 1:
                    groups.append(CgClass(a, b, t - 1, True))
                    flags_left -= 1
                else:
                    groups.append(CgClass(a, b, t, False))
            best_val = used
            best_wit = ConvexGenerator(tuple(groups))

    for classes in _seed_classes(i_target):
        lattice, x, y = _lattice_terms(classes)
        n_sloped = sum(1 for a, b, _ in classes if a >= 1 and b >= 1)
        offer(classes, 2 * lattice, x, y, n_sloped, _seed_action(domain, classes))

    # least boundary slack a live node may have
    g_floor = 2 * xy_bound - i_target - 2

    def descend(a, b, cost, extra, chosen, x, y, doubled, n_sloped, used):
        cap = n_sloped + extra
        lin = 2 * b * x + 1 + a + b
        t = 1
        while True:
            new_used = used + t * cost
            if new_used >= best_val - INCUMBENT_GAP:
                break
            ndoubled = doubled + t * lin + a * b * t * t
            if ndoubled > roof + cap:
                break
            nx = x + a * t
            ny = y + b * t
            if 2 * (nx + ny) - ndoubled < g_floor:
                break
            chosen.append((a, b, t))
            rec(b, a, chosen, nx, ny, ndoubled, n_sloped + extra, new_used)
            chosen.pop()
            t += 1

    # steepness b/a as the pair (b, a); (-1, 1) sits below horizontal
    def rec(last_b, last_a, chosen, x, y, doubled, n_sloped, used):
        offer(chosen, doubled, x, y, n_sloped, used)
        if not last_a:  # nothing is steeper than the vertical class
            return
        if last_b < 0:
            descend(1, 0, cost_h, 0, chosen, x, y, doubled, n_sloped, used)
        cap_s = n_sloped + 1
        bmax = (roof + cap_s - doubled - 2) // (2 * x + 2) if roof + cap_s >= doubled + 2 else 0
        slack = 2 * (x + y) - doubled
        # buckets[i] is height i + 1; heights up to b_last // a_last hold
        # nothing steeper than the last class
        start = last_b // last_a if last_b > 0 else 0
        for b, alist, costs, floors, least in islice(buckets, start, None):
            if (b > bmax or used + least >= best_val - INCUMBENT_GAP
                    or slack - 2 * b * x < g_floor):
                break
            room = roof + cap_s - doubled - 1 - b * (2 * x + 1)
            amax = room // (b + 1)
            if last_b > 0:
                # strictly steeper than b_last/a_last
                limit = (b * last_a - 1) // last_b
                if limit < amax:
                    amax = limit
            for pos, a in enumerate(alist):
                if (a > amax or used + floors[pos] >= best_val - INCUMBENT_GAP
                        or slack - (a - 1) * (b - 1) - 2 * b * x < g_floor):
                    break
                descend(a, b, costs[pos], 1, chosen, x, y, doubled, n_sloped, used)
        descend(0, 1, cost_v, 0, chosen, x, y, doubled, n_sloped, used)

    if -2 >= g_floor:  # the root's slack: x = y = 0 and doubled = 2
        rec(-1, 1, [], 0, 0, 2, 0, 0.0)
    # rec and descend refer to each other; unlinking them frees them, and a
    # pool only this search holds, now rather than at the next cyclic
    # garbage collection
    del rec, descend
    return best_val, best_wit


def toric_capacity_detail(domain: ToricDomain, k: int):
    """Action-minimizing all-elliptic convex generator of grading 2k."""
    if k < 0:
        raise ValueError("capacity index must be nonnegative")
    if k == 0:
        return 0.0, EMPTY_CONVEX
    i_target = 2 * k
    seeds = [(c, _seed_action(domain, c)) for c in _seed_classes(i_target)]
    # every class of the pool in the search's child order, read once by replay
    moves = chain([(1, 0, domain.support(0.0, 1.0))],
                  ((a, b, cost) for b, alist, costs, _, _ in _pool_by_height(domain, i_target)
                   for a, cost in zip(alist, costs)),
                  [(0, 1, domain.support(1.0, 0.0))])
    value, classes = replay(moves, i_target + 2, seeds)
    if classes is None:
        raise AssertionError("toric capacity search lost its own seed family")
    return value, ConvexGenerator(tuple(CgClass(a, b, t, False) for a, b, t in classes))


# ---------------------------------------------------------------------------
# Obstruction and the Gromov bound


def embedding_obstructed(domain: ToricDomain, path: KLatticePath) -> bool:
    """True when no factorization admits a compatible convex generator for
    every factor: each factor needs one of equal grading, no larger action,
    and enough boundary lattice points."""
    least = {}  # (grading, bound) -> least admissible action, searched once
    for part in factorizations(path):
        feasible = True
        for block in part:
            key = factor_target(block)
            if key not in least:
                least[key] = admissible_min_action(domain, *key)[0]
            if not _action_fits(least[key], block):
                feasible = False
                break
        if feasible:
            return False
    return True


class GromovRecord(NamedTuple):
    k: int
    generator_spec: str
    rhs_action: float
    min_lhs_action: float
    witness_spec: str
    bound: float
    flat_candidate_bound: float


class GromovReport(NamedTuple):
    records: tuple
    running_inf: tuple

    @property
    def infimum(self) -> float:
        return self.running_inf[-1]


def gromov_upper(kmax: int) -> GromovReport:
    """Upper bounds for the embedding constant of the unit-ball family.

    For each k the distinguished generator (one pair, k down arrows, one
    horizontal arrow, k+1 up arrows) must be matched inside the scaled ball;
    the ratio of its action to the least admissible action bounds the
    embedding constant from above.  flat_candidate_bound tracks the weaker
    candidate that only uses the flat horizontal family e(1,0)^(2k+2).
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    ball = ToricDomain.ball(1.0)
    ladders = [build_path(True, False, k, k + 1, [EdgeGroup(1, 0, 1, False)])
               for k in range(kmax + 1)]
    # one class pool for every k, built at the largest grading; each search
    # keeps to the rows its own grading can use
    pool = _pool_by_height(ball, grading(ladders[-1]))
    records = []
    running = []
    for k, lam in enumerate(ladders):
        validate(lam)
        if len(factorizations(lam)) != 1:
            raise AssertionError("distinguished generator must factor trivially")
        rhs = action(lam)
        value, wit = _admissible_search(pool, ball, *factor_target(lam))
        if wit is None or value <= 0:
            raise AssertionError("admissible minimum must be positive and attained")
        bound = rhs / value
        flat = rhs / (2.0 * (k + 1))
        records.append(GromovRecord(k, format_path(lam), rhs, value,
                                    format_convex_generator(wit), bound, flat))
        running.append(bound if not running else min(running[-1], bound))
    return GromovReport(tuple(records), tuple(running))
