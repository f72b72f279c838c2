"""Exhaustive enumeration of generators by action and grading.

The search runs depth-first over (startPair, endPair, slope-increasing
non-vertical direction multisets, vertical multiplicities).  Candidate
directions come from a Stern-Brocot traversal cut off at the action budget;
descendant mediants never get shorter, so the cutoff loses nothing.  Branches
are pruned on partial action and, when a grading cap is given, on a monotone
lower bound for the final grading.

The direction list is the Stern-Brocot tree read in order, so the entries
between d = dirs[i] and the next strictly shorter entry form the right
subtree of d; that entry is the right ancestor R of d (``_skips``), or the
list ends when R is the vertical (0, 1).  Each entry of the run is a*d + b*R
with a, b >= 1, so it is longer than d.  Every direction already chosen
comes earlier in slope order, so their sum P has P x d >= 0 and P x R >= 0,
and the t = 1 grading lower bound, which grows with P x d, is no smaller
over the run than at d.  When d fails the action budget or that bound, the
whole run fails too and the direction loop jumps past it.

A generator of grading g has action A <= g + 2, so a scan capped at
grading g stops at action g + 2.  Write D for the doubled area, H for the
h count, t for a class's multiplicity and |v| for its length; the grading
is D + m + n + sum(t) - H, so A - g = sp + ep + sum t(|v| - 1) + H - D over
the non-vertical classes.  One copy of a non-vertical edge (q, p) at depths
a, b below the axis adds q(a + b) to D.  As |a - b| = |p|, that is at least
q|p|, and q|p| + 1 >= |v| since (q^2 - 1)(p^2 - 1) >= 0.  A copy that does
not touch the axis has a, b >= 1, so a + b >= |p| + 2 and it adds at least
|v| + 1.  The path is convex and below the axis, so unless it lies on the
axis (no pair, H <= 1, D = 0: A - g = H) only the first copy of the first
class, when there is no start pair or down wall, and the last copy of the
last class, when there is no end pair or up wall, can touch it.  With N
copies, T <= min(N, 2 - sp - ep) of them touching and H <= N,
D >= sum t(|v| - 1) + 2(N - T) >= sum t(|v| - 1) + H + sp + ep - 2, which
gives A <= g + 2.  Equality holds on H-;e(0,-1)^n;e(0,1)^n;H+.
"""

from __future__ import annotations

from itertools import combinations
from math import sqrt
from typing import NamedTuple

from .paths import TOL, EdgeGroup, KLatticePath, format_items, group_length


class ComplexSlice(NamedTuple):
    """All valid generators with action <= action_bound, grouped by grading.

    per_degree[k] maps the spec (``format_path``) of each generator of
    grading k to the path, in spec order; specs(k) and generators(k) read
    its keys and its paths in that order.
    """

    action_bound: float
    per_degree: dict

    def degrees(self):
        return sorted(self.per_degree)

    def generators(self, degree: int):
        return tuple(self.per_degree.get(degree, {}).values())

    def specs(self, degree: int):
        return tuple(self.per_degree.get(degree, ()))

    def all_generators(self):
        for k in self.degrees():
            yield from self.per_degree[k].values()

    def count(self) -> int:
        return sum(len(v) for v in self.per_degree.values())


def _directions(cap: float):
    """Primitive non-vertical directions with norm <= cap, in slope order."""
    if cap < 1:
        return []
    positive = []
    stack = [((1, 0), (0, 1))]
    while stack:
        left, right = stack.pop()
        q, p = left[0] + right[0], left[1] + right[1]
        if q * q + p * p <= cap * cap:
            positive.append((q, p))
            stack.append((left, (q, p)))
            stack.append(((q, p), right))
    positive.sort(key=lambda d: (d[1] / d[0]))
    negative = [(q, -p) for q, p in reversed(positive)]
    return negative + [(1, 0)] + positive


def _skips(norms2):
    """skip[i]: index of the next entry strictly smaller than norms2[i].

    Over ``_directions`` this is the right ancestor of dirs[i], so the run
    i+1 .. skip[i]-1 is exactly the right subtree of dirs[i]; len(norms2)
    when that ancestor is the vertical (0, 1).
    """
    skip = [len(norms2)] * len(norms2)
    stack = []
    for i in range(len(norms2) - 1, -1, -1):
        while stack and norms2[stack[-1]] >= norms2[i]:
            stack.pop()
        if stack:
            skip[i] = stack[-1]
        stack.append(i)
    return skip


def scan_generators(max_action: float, emit, max_grading=None):
    """Core DFS over valid generators within the bounds.

    Calls emit(sp, ep, m, n, chosen, marked, grading, total_action) for every
    generator; chosen is the non-vertical class list [(q, p, mult)...] and
    marked the set of h-flagged positions.
    """
    if max_grading is not None:
        # no generator of grading g has action above g + 2 (module docstring)
        max_action = min(max_action, max_grading + 2)
    if max_action < 0:
        return
    dirs = _directions(max_action)
    norms2 = [q * q + p * p for q, p in dirs]
    norms = [sqrt(n2) for n2 in norms2]
    skip = _skips(norms2)
    ndirs = len(dirs)
    budget = max_action + TOL

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
            for r in range(len(chosen) + 1):
                if max_grading is not None and skeleton_i - r > max_grading:
                    continue
                for marked in combinations(range(len(chosen)), r):
                    emit(sp, ep, m, n, chosen, frozenset(marked),
                         skeleton_i - r, total)
            m += 1

    def rec(sp, ep, idx, chosen, used, px, py, sum_t, inner2a):
        close(sp, ep, chosen, used, px, py, sum_t, inner2a)
        if used + 1.0 > budget:
            return
        i = idx
        while i < ndirs:
            q, p = dirs[i]
            norm = norms[i]
            t = 1
            while used + t * norm <= budget:
                add2a = (px * p - py * q) * t
                lower = inner2a + add2a + sum_t + t - len(chosen) - 1
                if max_grading is not None and lower > max_grading:
                    break
                chosen.append((q, p, t))
                rec(sp, ep, i + 1, chosen, used + t * norm,
                    px + t * q, py + t * p, sum_t + t, inner2a + add2a)
                chosen.pop()
                t += 1
            # t == 1: dirs[i] failed the budget or the grading bound at once,
            # and so does its whole right subtree
            i = skip[i] if t == 1 else i + 1

    for sp in (0, 1):
        for ep in (0, 1):
            if sp + ep <= budget:
                rec(sp, ep, 0, [], float(sp + ep), 0, 0, 0, 0)
    # rec calls itself through its closure; unlinking it frees rec, close and
    # the caller's emit now rather than at the next cyclic garbage collection
    del rec, close


def _collect(max_action: float, max_grading, only=None, actions=False) -> dict:
    """Scanned generators as {grading: {spec: path}} in grading and spec
    order, of grading `only` alone if given; with `actions`, each spec maps
    to the path's action instead of the path.

    Each distinct group value is built, formatted and measured once per call
    and shared by every generator that holds it.  A spec joins its groups'
    item texts; an action adds their lengths one by one in path order onto
    the pair count, as paths.action does, so it is the same float.
    """
    shared = {}  # (q, p, mult, h) -> (EdgeGroup, its item text, its length)

    def entry(q, p, t, h):
        key = (q, p, t, h)
        found = shared.get(key)
        if found is None:
            group = EdgeGroup(q, p, t - 1, True) if h else EdgeGroup(q, p, t, False)
            found = shared[key] = (group, ";".join(format_items((group,))),
                                   group_length(group))
        return found

    per_degree = {}

    def emit(sp, ep, m, n, chosen, marked, deg, total):
        if only is not None and deg != only:
            return
        entries = [entry(q, p, t, i in marked) for i, (q, p, t) in enumerate(chosen)]
        if m:
            entries.insert(0, entry(0, -1, m, False))
        if n:
            entries.append(entry(0, 1, n, False))
        groups, texts, lengths = zip(*entries) if entries else ((), (), ())
        spec = ";".join(("H-",) * sp + texts + ("H+",) * ep) or "0"
        if actions:
            value = float(sp + ep)
            for length in lengths:
                value += length
        else:
            value = KLatticePath(sp == 1, ep == 1, groups)
        per_degree.setdefault(deg, {})[spec] = value

    scan_generators(max_action, emit, max_grading)
    # rebuilt in grading and spec order one grading at a time, so at most
    # one grading is held twice
    in_order = {}
    for k in sorted(per_degree):
        values = per_degree.pop(k)
        in_order[k] = {spec: values[spec] for spec in sorted(values)}
    return in_order


def generators_up_to_action(max_action: float, max_grading=None) -> ComplexSlice:
    """Complete canonical slice of the complex below an action bound."""
    return ComplexSlice(float(max_action), _collect(max_action, max_grading))


def grading_slice(k: int, max_action: float) -> ComplexSlice:
    """The slice of one grading within the action bound, from the capped scan."""
    return ComplexSlice(float(max_action), _collect(max_action, k, only=k))


def spec_actions(max_action: float, grading=None) -> dict:
    """{grading: {spec: action}} of the slice below an action bound, in
    grading and spec order; of one grading alone, from the capped scan, if
    given.

    The same generators as generators_up_to_action or grading_slice, with
    the action paths.action gives each, and no path kept.
    """
    return _collect(max_action, grading, only=grading, actions=True)
