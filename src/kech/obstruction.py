"""The combinatorial embedding obstruction for convex toric domains.

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
"""

from __future__ import annotations

from itertools import combinations, islice
from math import inf
from typing import NamedTuple

from .paths import (
    TOL,
    EdgeGroup,
    KLatticePath,
    action,
    arrow_count,
    build_path,
    format_path,
    grading,
    h_count,
    pair_count,
    validate,
)
from .toric import (
    INCUMBENT_GAP,
    CgClass,
    ConvexGenerator,
    ToricDomain,
    _lattice_terms,
    _pool_by_height,
    _seed_action,
    _seed_classes,
    cg_grading,
    cg_x,
    cg_y,
    format_convex_generator,
    support_action,
)


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
        if len(factorizations(lam)) != 1:  # which validates lam
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
