"""GF(2) differential on convex sub-axis lattice paths.

Three local moves produce the boundary of a generator, each an edit of the
region between the path and the axis that drops the grading by exactly 1 and
strictly decreases action:

- interior rounding: raise the corner C between consecutive groups (before,
  after) by 1 and re-hull the region points from C - before to C + after,
  spreading the freed hyperbolic labels over the classes between the two
  corner directions (in ``combinations`` order);
- the corner move C: when the path begins with a hyperbolic class and no
  wall, drop the first column, which holds only its axis point (steep
  slopes, creating a half-arrow pair), or the first two columns (shallow
  slopes, no pair);
- the wall move D: when a half-arrow pair is immediately followed by a
  hyperbolic class, drop the first column, which holds the two wall points
  the pair occupies.

Each move is a splice: its output is ``groups[:i] + R + groups[j:]``, and R
depends only on the groups it touches, (before, after) for a corner and
(pair, first group) for a start move.  This is exact:

- The edited profile is on or above the old one and equal to it outside the
  touched columns, so every old hull edge outside R keeps a supporting line
  below all points.
- Classes are primitive, so inside R only the segment ends lie on the old
  lines.  R's new directions are therefore strictly between before and after
  (before the first class, for a start move): nothing merges with the
  neighbouring groups.
- A move whose output region holds <= 1 lattice point yields no term.  Only
  D on ``H-;h(1,1)`` (and its mirror) leaves so little: R is empty, and on a
  valid path nothing follows it.

Reflection in a vertical line swaps the ends and commutes with every move,
so the end move is the start move of the mirrored last group, R mirrored
back.  Callers keep one dict of replacements across calls, keyed by
(before, after), (pair, first group) and (last group, pair).  Outputs
accumulate modulo 2 (duplicate terms cancel).
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from .paths import EdgeGroup, KLatticePath, format_path, lower_hull, validate


class Chain(frozenset):
    """Formal GF(2) sum of paths, a frozenset of them; addition is symmetric
    difference.

    Iteration visits the terms in no set order; ``terms()`` and ``str`` list
    them sorted by spec, each validated.  The terms are move outputs, which
    ``differential`` does not validate, so an invalid one is a fault of the
    moves, not of the input: listing it raises AssertionError.
    """

    __slots__ = ()

    def __add__(self, other: "Chain") -> "Chain":
        return Chain(self ^ other)

    def terms(self):
        out = sorted(self, key=format_path)
        for term in out:
            try:
                validate(term)
            except ValueError as exc:
                raise AssertionError("a move gave an invalid term: %s (%s)"
                                     % (format_path(term), exc)) from exc
        return out

    def __str__(self) -> str:
        if not self:
            return "(zero chain)"
        return " + ".join(format_path(p) for p in self.terms())


# ---------------------------------------------------------------------------
# Replacements


def _hull_classes(points):
    """(q, p, mult) classes of the lower hull of points, in slope order."""
    hull = lower_hull(points)
    out = []
    for (ax, ay), (bx, by) in zip(hull, hull[1:]):
        dx, dy = bx - ax, by - ay
        g = gcd(dx, abs(dy))
        out.append((dx // g, dy // g, g))
    return out


def _rounded(before: EdgeGroup, after: EdgeGroup):
    """Replacements of (before, after) when their corner is rounded.

    Column c's lowest point, relative to the corner, is the ceiling of the
    old path's height there; a vertical group spans no column.
    """
    n_h = before.h_flag + after.h_flag - 1
    if n_h < 0:
        return ()
    bq, bp, aq, ap = before.q, before.p, after.q, after.p
    points = ([(c, -(-c * bp // bq)) for c in range(-bq, 0)] + [(0, 1)]
              + [(c, -(-c * ap // aq)) for c in range(1, aq + 1)])
    classes = _hull_classes(points)
    if before.mult > 1:
        classes.insert(0, (bq, bp, before.mult - 1))
    if after.mult > 1:
        classes.append((aq, ap, after.mult - 1))
    zone = [k for k, c in enumerate(classes) if c[0]]  # walls carry no h
    return tuple(
        tuple(EdgeGroup(q, p, m - 1, True) if k in placed
              else EdgeGroup(q, p, m, False)
              for k, (q, p, m) in enumerate(classes))
        for placed in combinations(zone, n_h))


def _started(pair: bool, first: EdgeGroup):
    """(new start pair, replacement of first) for the C or D start move.

    D when the path starts with a pair, else C; () when the move does not
    fire.  The first class loses its h label.
    """
    q, p, mult = first.q, first.p, first.mult
    if pair:
        drop, new_pair = 1, False
    elif p <= -q:
        drop, new_pair = 1, True
    elif p < 0:
        drop, new_pair = 2, False
    else:
        return ()
    # the kept columns drop .. q of the first class, then its other copies
    points = [(c, -pair - (-c * p // q)) for c in range(drop, q + 1)]
    wall = -points[0][1] - new_pair
    out = [EdgeGroup(0, -1, wall, False)] if wall else []
    out.extend(EdgeGroup(a, b, m, False) for a, b, m in _hull_classes(points))
    if mult > 1:
        out.append(EdgeGroup(q, p, mult - 1, False))
    if not (out or new_pair):
        return ()  # D on H-;h(1,1), whose output region is one point
    return (new_pair, tuple(out))


def _ended(last: EdgeGroup, pair: bool):
    """The start move of the mirrored last group, mirrored back."""
    started = _started(pair, last._replace(p=-last.p))
    if not started:
        return ()
    new_pair, out = started
    return (new_pair, tuple(g._replace(p=-g.p) for g in reversed(out)))


# ---------------------------------------------------------------------------
# Moves


def _rounding_terms(path, splices, acc):
    """acc toggled by every corner-rounding output of the path."""
    sp, ep, groups = path
    for i in range(len(groups) - 1):
        key = groups[i], groups[i + 1]
        rs = splices.get(key)
        if rs is None:
            rs = splices[key] = _rounded(*key)
        head, tail = groups[:i], groups[i + 2:]
        for r in rs:
            acc ^= {KLatticePath(sp, ep, head + r + tail)}
    return acc


def _end_terms(path, paired, splices, acc):
    """acc toggled by the C (paired False) or D (paired True) end moves."""
    sp, ep, groups = path
    if groups and groups[0].h_flag and sp == paired:
        key = (sp, groups[0])
        move = splices.get(key)
        if move is None:
            move = splices[key] = _started(*key)
        if move:
            acc ^= {KLatticePath(move[0], ep, move[1] + groups[1:])}
    if groups and groups[-1].h_flag and ep == paired:
        key = (groups[-1], ep)
        move = splices.get(key)
        if move is None:
            move = splices[key] = _ended(*key)
        if move:
            acc ^= {KLatticePath(sp, move[0], groups[:-1] + move[1])}
    return acc


def round_interior(path: KLatticePath) -> Chain:
    """Sum of all corner-rounding outputs of the path."""
    return Chain(_rounding_terms(path, {}, set()))


def c_op(path: KLatticePath) -> Chain:
    """Corner move at the start and/or end of the path."""
    return Chain(_end_terms(path, False, {}, set()))


def d_op(path: KLatticePath) -> Chain:
    """Wall move consuming a half-arrow pair and its adjacent h class."""
    return Chain(_end_terms(path, True, {}, set()))


def differential(path: KLatticePath, splices=None) -> Chain:
    """Full boundary: interior rounding + corner move + wall move, mod 2.

    The path is validated on every call; its terms are not, so a caller
    that uses them checks them (``Chain.terms`` does).  splices, a dict a
    caller keeps across calls, holds the replacements of every move under
    the groups it touches.
    """
    splices = {} if splices is None else splices
    validate(path)
    acc = _rounding_terms(path, splices, set())
    _end_terms(path, False, splices, acc)
    _end_terms(path, True, splices, acc)
    return Chain(acc)
