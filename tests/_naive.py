"""Independent brute-force oracles for the dual-route tests.

Everything here re-derives results from first principles with plain nested
enumeration.  The helpers use only constructors, validators, and evaluators
(build_path, parse_path, validate, action, support) -- never the enumeration
or search engines they are meant to check.  The h-free scan and its pass loop
are the capacity search as it stood before the slope-order dynamic program,
kept as that program's oracle.  The whole-profile differential is the
differential as it stood before the moves became splices, kept as their
oracle; it reads the whole column profile (column_bottoms) and re-hulls it
with lower_hull, where the splices hull only the few points they touch.
The boundary matrices and their GF(2) ranks are homology as it stood before
the persistence reduction, one rank per degree, kept as the barcode's oracle;
they take the slice and the differential from the engines, and share nothing
with the reduction.
"""

import itertools
import math
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from kech.census import generators_up_to_action
from kech.diff import differential
from kech.paths import (
    EdgeGroup,
    PathError,
    PathSemanticsError,
    action,
    build_path,
    column_bottoms,
    down_run,
    format_path,
    lower_hull,
    middle_groups,
    parse_path,
    slope_before,
    total_class,
    validate,
)
from kech.toric import (
    CgClass,
    ConvexGenerator,
    cg_lattice_points,
    cg_x,
    cg_y,
    make_convex_generator,
    support_action,
)

EPS = 1e-9


def naive_validate(path):
    """Field-by-field validate: each check in its own pass, H1Class total.

    Raises the same errors in the same order as ``kech.paths.validate`` and
    returns the same type tag.
    """
    last = None
    for g in path.groups:
        if g.q < 0:
            raise PathSemanticsError(f"negative horizontal component in ({g.q},{g.p})")
        if g.q == 0 and g.p == 0:
            raise PathSemanticsError("zero direction (0,0)")
        if math.gcd(g.q, abs(g.p)) != 1:
            raise PathSemanticsError(f"non-primitive direction ({g.q},{g.p})")
        if g.e_mult < 0 or g.mult < 1:
            raise PathSemanticsError(f"empty edge group on ({g.q},{g.p})")
        if g.vertical and g.h_flag:
            raise PathSemanticsError("vertical edges cannot be labeled h")
        if last is not None and not slope_before(last.q, last.p, g.q, g.p):
            raise PathSemanticsError("non-convex slope order")
        last = g

    drop = (1 if path.start_pair else 0) + sum(
        g.p * g.mult for g in path.groups if g.p < 0
    ) * -1
    rise = (1 if path.end_pair else 0) + sum(
        g.p * g.mult for g in path.groups if g.p > 0
    )
    if drop != rise:
        raise PathSemanticsError(
            f"vertical displacements do not close (down {drop}, up {rise})"
        )
    cls = total_class(path)
    if not cls.is_zero:
        raise PathSemanticsError(f"nonzero total class {cls}")

    if not path.groups and not path.start_pair and not path.end_pair:
        return "empty"
    if path.start_pair and path.end_pair:
        return "IV"
    if path.start_pair:
        return "II"
    if path.end_pair:
        return "III"
    return "I"


# ---------------------------------------------------------------------------
# Whole-profile differential: every move edits the whole column profile
# (paths.column_bottoms) and re-traces it


def _skeleton(bottoms):
    """Left wall depth, lower hull classes, right wall depth; None when
    fewer than two region points survive (the move yields no term)."""
    if sum(1 - b for b in bottoms) <= 1:
        return None
    hull = lower_hull(list(enumerate(bottoms)))
    middle = []
    for (ax, ay), (bx, by) in zip(hull, hull[1:]):
        dx, dy = bx - ax, by - ay
        g = math.gcd(dx, abs(dy))
        middle.append((dx // g, dy // g, g))
    return (-hull[0][1], tuple(middle), -hull[-1][1])


def _assemble(sp, ep, skel, hyperbolic):
    """Path on the skeleton with pairs sp/ep; directions in hyperbolic keep h.

    A pair takes one unit of its wall's depth.
    """
    down, middle, up = skel
    out_mid = [EdgeGroup(q, p, mult - 1, True) if (q, p) in hyperbolic
               else EdgeGroup(q, p, mult, False) for q, p, mult in middle]
    return build_path(sp, ep, down - sp, up - ep, out_mid)


def _mirror(path):
    """Reflection in a vertical line: the ends swap and every slope flips."""
    return type(path)(path.end_pair, path.start_pair, tuple(
        EdgeGroup(q, -p, e, h) for q, p, e, h in reversed(path.groups)))


def naive_round_interior(path):
    """Set of all corner-rounding outputs: raise the corner's column bottom
    by 1, re-hull, and spread the freed h labels over the slope zone between
    the two corner directions."""
    groups = path.groups
    flagged = {(q, p) for q, p, _, h in groups if h}
    bottoms = column_bottoms(path)
    acc = set()
    x = 0
    for before, after in zip(groups, groups[1:]):
        x += before.q * before.mult
        n_h = before.h_flag + after.h_flag - 1
        if n_h < 0:
            continue
        rounded = bottoms.copy()
        rounded[x] += 1
        skel = _skeleton(rounded)
        if skel is None:
            continue
        zone = [(q, p) for q, p, _ in skel[1]
                if not slope_before(q, p, before.q, before.p)
                and not slope_before(after.q, after.p, q, p)]
        kept = flagged.difference(zone)
        for placed in itertools.combinations(zone, n_h):
            acc ^= {_assemble(path.start_pair, path.end_pair, skel,
                              kept.union(placed))}
    return acc


def _start_move(path):
    """C or D move at the start of a path whose first group is hyperbolic:
    drop one or two whole columns and re-hull the rest; None when the move
    does not fire."""
    q, p = path.groups[0][:2]
    if path.start_pair:
        drop, sp = 1, False
    elif p <= -q:
        drop, sp = 1, True
    elif p < 0:
        drop, sp = 2, False
    else:
        return None
    skel = _skeleton(column_bottoms(path)[drop:])
    if skel is None:
        return None
    flagged = {(gq, gp) for gq, gp, _, h in path.groups if h}
    flagged.discard((q, p))
    return _assemble(sp, path.end_pair, skel, flagged)


def naive_end_moves(path, paired):
    """C moves (paired False) or D moves (paired True) at both ends, the end
    move being the start move of the whole mirrored path, mirrored back."""
    groups = path.groups
    acc = set()
    if groups and groups[0].h_flag and path.start_pair == paired:
        out = _start_move(path)
        if out is not None:
            acc ^= {out}
    if groups and groups[-1].h_flag and path.end_pair == paired:
        out = _start_move(_mirror(path))
        if out is not None:
            acc ^= {_mirror(out)}
    return acc


def naive_differential(path):
    """Frozen set of the boundary terms, by whole-profile moves, mod 2."""
    return frozenset(naive_round_interior(path) ^ naive_end_moves(path, False)
                     ^ naive_end_moves(path, True))


def primitive_middle_directions(cap):
    """All primitive (q, p), q >= 1, norm <= cap, sorted by slope."""
    dirs = []
    for q in range(1, int(cap) + 1):
        for p in range(-int(cap), int(cap) + 1):
            if q * q + p * p <= cap * cap + EPS and math.gcd(q, abs(p)) == 1:
                dirs.append((q, p))
    dirs.sort(key=lambda qp: Fraction(qp[1], qp[0]))
    return dirs


def _skips(norms2):
    """skip[i]: index of the next entry strictly smaller than norms2[i]."""
    skip = [len(norms2)] * len(norms2)
    stack = []
    for i in range(len(norms2) - 1, -1, -1):
        while stack and norms2[stack[-1]] >= norms2[i]:
            stack.pop()
        if stack:
            skip[i] = stack[-1]
        stack.append(i)
    return skip


def naive_h_free_scan(max_action, emit, max_grading=None):
    """Depth-first scan over h-free generators within the bounds.

    Calls emit(sp, ep, m, n, chosen, marked, grading, total_action) for every
    h-free generator, with chosen the non-vertical class list [(q, p, t)...]
    in slope order and marked always empty.  A direction that fails the
    action budget or the t = 1 grading bound fails over its whole
    Stern-Brocot right subtree, which the scan jumps past.
    """
    if max_action < 0:
        return
    dir_cap = max_action
    if max_grading is not None:
        dir_cap = min(dir_cap, 1.5 * max(max_grading, 1) + 1.5)
    dirs = primitive_middle_directions(dir_cap)
    norms2 = [q * q + p * p for q, p in dirs]
    norms = [math.sqrt(n2) for n2 in norms2]
    skip = _skips(norms2)
    budget = max_action + EPS
    no_marks = frozenset()

    def close(sp, ep, chosen, used, x, sum_tp, sum_t, inner2a):
        if (x + sp + ep) % 2 != 0:
            return
        shift = sp - ep - sum_tp
        m = max(0, -shift)
        while True:
            n = m + shift
            total = used + m + n
            if total > budget:
                return
            skeleton_i = inner2a + (sp + ep + m + n) * x + (m + n + sum_t)
            if max_grading is not None and skeleton_i - len(chosen) > max_grading:
                return
            if max_grading is None or skeleton_i <= max_grading:
                emit(sp, ep, m, n, chosen, no_marks, skeleton_i, total)
            m += 1

    def rec(sp, ep, idx, chosen, used, px, py, sum_t, inner2a):
        close(sp, ep, chosen, used, px, py, sum_t, inner2a)
        if used + 1.0 > budget:
            return
        i = idx
        while i < len(dirs):
            q, p = dirs[i]
            t = 1
            while used + t * norms[i] <= budget:
                add2a = (px * p - py * q) * t
                lower = inner2a + add2a + sum_t + t - len(chosen) - 1
                if max_grading is not None and lower > max_grading:
                    break
                chosen.append((q, p, t))
                rec(sp, ep, i + 1, chosen, used + t * norms[i],
                    px + t * q, py + t * p, sum_t + t, inner2a + add2a)
                chosen.pop()
                t += 1
            i = skip[i] if t == 1 else i + 1

    for sp in (0, 1):
        for ep in (0, 1):
            if sp + ep <= budget:
                rec(sp, ep, 0, [], float(sp + ep), 0, 0, 0, 0)


def h_free_path(sp, ep, m, n, chosen):
    """The generator of one h-free scan emit."""
    return build_path(sp == 1, ep == 1, m, n,
                      [EdgeGroup(q, p, t, False) for q, p, t in chosen])


def naive_bucket_minima(kmax):
    """{k: witness} for k <= kmax by h-free scans at a rising action cap.

    Each pass starts from the isoperimetric floor for c_kmax and keeps, per
    bucket, the least action within EPS and then the least spec; the first
    pass that fills every bucket ends the search.
    """
    cap = min(2.0 * kmax, (-math.pi + math.sqrt(math.pi ** 2 + 8.0 * math.pi * kmax)) / 2.0)
    while True:
        best = {}

        def emit(sp, ep, m, n, chosen, marked, deg, total):
            k = deg // 2
            if k > kmax:
                return
            incumbent = best.get(k)
            if incumbent is not None and total > incumbent[0] + EPS:
                return
            path = h_free_path(sp, ep, m, n, chosen)
            spec = format_path(path)
            if incumbent is None or total < incumbent[0] - EPS:
                best[k] = (total, spec, path)
            elif spec < incumbent[1]:
                best[k] = (min(total, incumbent[0]), spec, path)

        naive_h_free_scan(cap, emit, max_grading=2 * kmax)
        if len(best) == kmax + 1:
            return {k: path for k, (_, _, path) in best.items()}
        assert cap < 2.0 * kmax, "capacity bucket empty below its own witness"
        cap = min(cap + 0.5, 2.0 * kmax)


def naive_generators(max_action):
    """Every canonical generator spec with action <= max_action.

    Exhaustive box search: loop over pair flags and vertical run lengths,
    then depth-first over slope-sorted primitive directions assigning each a
    multiplicity and optional h label within the remaining action budget.
    Candidates are assembled with build_path and kept iff validate accepts.
    """
    dirs = primitive_middle_directions(max_action)
    norms = [math.sqrt(q * q + p * p) for q, p in dirs]
    vmax = int(max_action)
    found = set()

    def attach(sp, ep, down, up, middles):
        try:
            path = build_path(sp, ep, down, up, middles)
            validate(path)
        except PathError:
            return
        if action(path) <= max_action + EPS:
            found.add(format_path(path))

    def rec(i, budget, middles):
        if i == len(dirs):
            for sp, ep in product((False, True), repeat=2):
                pair_cost = (1.0 if sp else 0.0) + (1.0 if ep else 0.0)
                if pair_cost > budget + EPS:
                    continue
                left = budget - pair_cost
                for down in range(vmax + 1):
                    if down > left + EPS:
                        break
                    for up in range(vmax + 1):
                        if down + up > left + EPS:
                            break
                        attach(sp, ep, down, up, middles)
            return
        q, p = dirs[i]
        mult = 0
        while mult * norms[i] <= budget + EPS:
            for h in ((False,) if mult == 0 else (False, True)):
                rec(i + 1, budget - mult * norms[i],
                    middles + ([EdgeGroup(q, p, mult - (1 if h else 0), h)]
                               if mult else []))
            mult += 1

    rec(0, float(max_action), [])
    return found


def up_run(path):
    """Multiplicity of the up wall, the last group when it is e(0,1)^m."""
    groups = path.groups
    if groups and groups[-1].q == 0 and groups[-1].p > 0:
        return groups[-1].mult
    return 0


def _orbit_atoms(path):
    """Pair markers and whole edge classes, as reassembly fragments."""
    atoms = []
    if path.start_pair:
        atoms.append(("pair-",))
    if down_run(path):
        atoms.append(("class", 0, -1, down_run(path)))
    for g in middle_groups(path):
        atoms.append(("class", g.q, g.p, g.mult))
    if up_run(path):
        atoms.append(("class", 0, 1, up_run(path)))
    if path.end_pair:
        atoms.append(("pair+",))
    return atoms


def _block_spec(atoms):
    """Canonical spec text for one block of atoms, or None if invalid."""
    parts = []
    if ("pair-",) in atoms:
        parts.append("H-")
    down = [a for a in atoms if a[0] == "class" and a[1] == 0 and a[2] == -1]
    middle = sorted((a for a in atoms if a[0] == "class" and a[1] >= 1),
                    key=lambda a: Fraction(a[2], a[1]))
    up = [a for a in atoms if a[0] == "class" and a[1] == 0 and a[2] == 1]
    for _, q, p, m in down + middle + up:
        parts.append("e(%d,%d)" % (q, p) + ("^%d" % m if m > 1 else ""))
    if ("pair+",) in atoms:
        parts.append("H+")
    text = ";".join(parts) if parts else "0"
    try:
        return format_path(parse_path(text))
    except PathError:
        return None


def naive_factor_splits(path):
    """All set partitions of the atoms whose blocks are valid generators.

    Partitions are enumerated by restricted-growth block labels; each block
    is reassembled as spec text and vetted through the parser.  Returns a
    set of sorted tuples of block specs.
    """
    atoms = _orbit_atoms(path)
    n = len(atoms)
    if n == 0:
        return {()}
    results = set()

    def labelings(i, maxlab, labels):
        if i == n:
            yield tuple(labels)
            return
        for lab in range(maxlab + 1):
            labels.append(lab)
            yield from labelings(i + 1, max(maxlab, lab + 1), labels)
            labels.pop()

    for labels in labelings(0, 0, []):
        blocks = {}
        for atom, lab in zip(atoms, labels):
            blocks.setdefault(lab, []).append(atom)
        specs = [_block_spec(b) for b in blocks.values()]
        if all(s is not None for s in specs):
            results.add(tuple(sorted(specs)))
    return results


def rasterize_convex_count(cg):
    """Lattice points under a concave generator path, column by column.

    The boundary runs from (0, y) to (x, 0); above each abscissa it is the
    minimum of the supporting lines of the non-vertical edges.  Exact
    Fraction arithmetic, no Pick-style shortcut.
    """
    segs = []
    px, py = Fraction(0), Fraction(0)
    for g in cg.groups:
        segs.append((px, py, g.a, g.b, g.mult))
        px += g.a * g.mult
        py += g.b * g.mult
    x_total, y_total = px, py
    total = 0
    for i in range(int(x_total) + 1):
        ymax = y_total
        for sx, sy, a, b, t in segs:
            if a == 0:
                continue
            # line through the segment start with slope -b/a, in the flipped
            # frame where the path descends from (0, y_total)
            y_here = (y_total - sy) - Fraction(b, a) * (i - sx)
            if y_here < ymax:
                ymax = y_here
        if ymax < 0:
            continue
        total += int(ymax) + 1
    return total


def naive_convex_min_action(domain, i_target, xy_bound, flexible_h,
                            dir_cap=8, mult_cap=12):
    """Least support action over admissible concave generators, by
    exhaustive slope-ordered search with no pruning beyond the monotone
    lattice-point bound.  dir_cap bounds |a|,|b| of sloped directions."""
    dirs = [(1, 0)]
    sloped = [(a, b) for a in range(1, dir_cap + 1) for b in range(1, dir_cap + 1)
              if math.gcd(a, b) == 1]
    sloped.sort(key=lambda ab: Fraction(ab[1], ab[0]))
    dirs += sloped + [(0, 1)]
    # every admissible completion satisfies 2L <= i_target + 2 + n_sloped.
    # The empty generator has 2L = 2, and a sloped class (a, b) x t with
    # a, b >= 1 entered at width x adds t(2bx + 1 + a + b) + ab*t^2 >= 4 to
    # 2L (the other classes add >= 0), so 2 + 4*n_sloped <= 2L.  Together
    # these give n_sloped <= i_target / 3, and n_sloped can never exceed the
    # direction pool
    roof = i_target + 2 + (min(len(sloped), i_target // 3) if flexible_h else 0)
    best = [math.inf]

    def admissible(cg):
        points = cg_lattice_points(cg)
        h_slack = 2 * (points - 1) - i_target
        if flexible_h:
            n_sloped = sum(1 for g in cg.groups if g.a >= 1 and g.b >= 1)
            if h_slack < 0 or h_slack % 2 or h_slack > n_sloped:
                return False
            xs = sum(g.a * g.mult for g in cg.groups)
            ys = sum(g.b * g.mult for g in cg.groups)
            return 2 * (xs + ys) - h_slack >= 2 * xy_bound - EPS
        return h_slack == 0

    def rec(i, chosen):
        cg = make_convex_generator(
            [CgClass(a, b, t, False) for a, b, t in chosen])
        if 2 * cg_lattice_points(cg) > roof + 2:
            return
        if admissible(cg):
            best[0] = min(best[0], support_action(domain, cg))
        if i == len(dirs):
            return
        rec(i + 1, chosen)
        a, b = dirs[i]
        for t in range(1, mult_cap + 1):
            rec(i + 1, chosen + [(a, b, t)])

    rec(0, [])
    return best[0]


# ---------------------------------------------------------------------------
# The toric min-action search as a plain pruned depth-first search: the
# engine of both modes before the h = 0 mode gained its completion bound.
# Kept verbatim as the oracle of values and witnesses.


def _naive_pool_by_height(domain, i_target):
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
    least = math.inf
    # every height with room for (1, b), tallest first so least is a running min
    for b in range((budget - 1) // 2, 0, -1):
        alist = []
        costs = []
        for a in range(1, budget + 1):
            if a * b + a + b > budget:
                break
            if math.gcd(a, b) == 1:
                alist.append(a)
                costs.append(domain.support(b, a))
        floors = list(itertools.accumulate(reversed(costs), min))[::-1]
        least = min(least, floors[0])
        rows.append((b, alist, costs, floors, least))
    rows.reverse()
    return rows


def _naive_triangle_family(lattice_target):
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


def naive_min_action_search(domain, i_target, xy_bound, flexible_h):
    """Least support action over convex generators of the given grading.

    flexible_h: allow any even h count up to the number of sloped classes
    and enforce x + y - h/2 >= xy_bound; otherwise require h = 0 exactly.
    Returns (value, witness) with witness None when infeasible.

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
    - In flexible-h mode the boundary slack 2(x + y) - D changes by
      t(a + b - 1 - 2bx) - ab t^2, which never rises with t, a or b and must
      end at 2 xy_bound - i_target - 2 or more.  The t loop breaks on it; the
      a loop when the t = 1 child fails, its change -(a-1)(b-1) - 2bx falling
      in a; the height loop when (1, b) x 1 fails, since its change -2bx is
      the largest of any child at height b or above.

    Breaks skip only children whose subtrees would offer nothing, so every
    incumbent is found in the same order as by the unpruned traversal, and
    ties resolve the same way.
    """
    if i_target < 0 or i_target % 2:
        raise ValueError("grading target must be even and nonnegative")
    buckets = _naive_pool_by_height(domain, i_target)
    cost_h = domain.support(0.0, 1.0)
    cost_v = domain.support(1.0, 0.0)
    roof = i_target + 2  # doubled count bound before the h allowance
    best_val = math.inf
    best_wit = None

    def offer(chosen, doubled, x, y, n_sloped, used):
        nonlocal best_val, best_wit
        h = doubled - 2 - i_target
        if h < 0:
            return
        if flexible_h:
            if h % 2 or h > n_sloped:
                return
            if 2 * (x + y) - h < 2 * xy_bound:
                return
        elif h != 0:
            return
        if used < best_val - 1e-12:
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

    def seed(classes):
        cg = ConvexGenerator(tuple(CgClass(a, b, t, False) for a, b, t in classes))
        lattice, x, y = cg_lattice_points(cg), cg_x(cg), cg_y(cg)
        n_sloped = sum(1 for a, b, _ in classes if a >= 1 and b >= 1)
        used = sum(t * domain.support(b, a) for a, b, t in classes)
        offer(classes, 2 * lattice, x, y, n_sloped, used)

    for classes in _naive_triangle_family(i_target // 2 + 1):
        seed(classes)
    half = i_target // 2
    for a in (half - 1, 1):
        b = half - a
        if a >= 1 and b >= 1 and math.gcd(a, b) == 1:
            seed([(a, b, 1)])

    # least boundary slack a live node may have; h = 0 mode has no such bound
    g_floor = 2 * xy_bound - i_target - 2 if flexible_h else -math.inf

    def descend(a, b, cost, extra, chosen, x, y, doubled, n_sloped, used):
        cap = (n_sloped + extra) if flexible_h else 0
        lin = 2 * b * x + 1 + a + b
        t = 1
        while True:
            new_used = used + t * cost
            if new_used >= best_val - 1e-12:
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
        if last_b < 0:
            descend(1, 0, cost_h, 0, chosen, x, y, doubled, n_sloped, used)
        cap_s = (n_sloped + 1) if flexible_h else 0
        bmax = (roof + cap_s - doubled - 2) // (2 * x + 2) if roof + cap_s >= doubled + 2 else 0
        slack = 2 * (x + y) - doubled
        for b, alist, costs, floors, least in buckets:
            if (b > bmax or used + least >= best_val - 1e-12
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
                if (a > amax or used + floors[pos] >= best_val - 1e-12
                        or slack - (a - 1) * (b - 1) - 2 * b * x < g_floor):
                    break
                descend(a, b, costs[pos], 1, chosen, x, y, doubled, n_sloped, used)
        if last_a > 0:
            descend(0, 1, cost_v, 0, chosen, x, y, doubled, n_sloped, used)

    if -2 >= g_floor:  # the root's slack: x = y = 0 and doubled = 2
        rec(-1, 1, [], 0, 0, 2, 0, 0.0)
    # rec and descend refer to each other; unlinking them frees the class
    # pool now rather than at the next cyclic garbage collection
    del rec, descend
    return best_val, best_wit


class BitMatrix(NamedTuple):
    """GF(2) matrix of the boundary map, columns stored as int bitsets."""

    rows: tuple
    cols: tuple
    columns: tuple

    @property
    def shape(self):
        return (len(self.rows), len(self.cols))


def boundary_matrix(k, max_action):
    """Matrix of the differential from grading k to k-1 within the slice.

    All columns share one memo of move replacements.
    """
    sl = generators_up_to_action(max_action, max_grading=k)
    rows, cols = sl.generators(k - 1), sl.generators(k)
    index = {p: i for i, p in enumerate(rows)}
    splices = {}
    columns = []
    for col in cols:
        bits = 0
        for term in differential(col, splices):
            if term not in index:
                raise AssertionError(
                    "differential left the action slice: %s -> %s"
                    % (format_path(col), format_path(term)))
            bits |= 1 << index[term]
        columns.append(bits)
    return BitMatrix(tuple(rows), tuple(cols), tuple(columns))


def gf2_rank(matrix):
    """Rank over GF(2) by column elimination in canonical column order."""
    pivots = {}
    rank = 0
    for vec in matrix.columns:
        while vec:
            top = vec.bit_length() - 1
            if top in pivots:
                vec ^= pivots[top]
            else:
                pivots[top] = vec
                rank += 1
                break
    return rank
