"""GF(2) differential on convex sub-axis lattice paths.

The region between a path and the axis is held as its column profile: the
lowest region point of each column (``paths.column_bottoms``).  Three local
moves produce the boundary of a generator, each an edit of that profile that
drops the grading by exactly 1 and strictly decreases action:

- interior rounding: raise the bottom of the column holding one eligible
  concave corner strictly below the axis, redistributing the freed
  hyperbolic labels over the newly created edge classes in the slope zone
  between the two corner directions;
- the corner move C: when the path begins with a hyperbolic class and no
  wall, drop the first column, which holds only its axis point (steep
  slopes, creating a half-arrow pair), or the first two columns (shallow
  slopes, no pair);
- the wall move D: when a half-arrow pair is immediately followed by a
  hyperbolic class, drop the first column, which holds the two wall points
  the pair occupies.

C and D are written for the start of a path only.  Reflecting a path in a
vertical line (``_mirror``) swaps its ends and commutes with every move, so
the move at the end is the start move of the mirrored path, mirrored back.
All moves re-trace the edited profile with ``_skeleton`` (its left wall,
lower convex hull and right wall, starting at the origin) and build their
output with ``_assemble``.  Outputs accumulate modulo 2 (duplicate terms
cancel).
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from .paths import (
    EdgeGroup,
    KLatticePath,
    build_path,
    column_bottoms,
    format_path,
    lower_hull,
    slope_before,
    validate,
)


class Chain:
    """Formal GF(2) sum of paths; addition is symmetric difference.

    Iteration visits the terms in no set order; ``terms()`` and ``str`` list
    them sorted by spec.
    """

    __slots__ = ("_paths",)

    def __init__(self, paths=()):
        self._paths = frozenset(paths)

    def __add__(self, other: "Chain") -> "Chain":
        return Chain(self._paths ^ other._paths)

    def __eq__(self, other) -> bool:
        return isinstance(other, Chain) and self._paths == other._paths

    def __hash__(self) -> int:
        return hash(self._paths)

    def __len__(self) -> int:
        return len(self._paths)

    def __bool__(self) -> bool:
        return bool(self._paths)

    def __iter__(self):
        return iter(self._paths)

    def __contains__(self, path: KLatticePath) -> bool:
        return path in self._paths

    def terms(self):
        return sorted(self._paths, key=format_path)

    def __str__(self) -> str:
        if not self._paths:
            return "(zero chain)"
        return " + ".join(format_path(p) for p in self.terms())


# ---------------------------------------------------------------------------
# Skeleton of a column profile


def _skeleton(bottoms):
    """Left wall + lower hull + right wall of a column profile.

    Returns (down, middle, up) where down/up are the wall depths and middle
    is a tuple of (q, p, mult) primitive direction classes in slope order.
    Returns None when fewer than two points survive (the degenerate empty
    outcome).
    """
    if sum(1 - b for b in bottoms) <= 1:
        return None
    hull = lower_hull(enumerate(bottoms))
    middle = []
    for (ax, ay), (bx, by) in zip(hull, hull[1:]):
        dx, dy = bx - ax, by - ay
        g = gcd(dx, abs(dy))
        middle.append((dx // g, dy // g, g))
    return (-hull[0][1], tuple(middle), -hull[-1][1])


# ---------------------------------------------------------------------------
# Output assembly and the mirror


def _assemble(sp, ep, skel, hyperbolic):
    """Path on the skeleton with pairs sp/ep; directions in hyperbolic keep h.

    A pair takes one unit of its wall's depth.
    """
    down, middle, up = skel
    out_mid = [EdgeGroup(q, p, mult - 1, True) if (q, p) in hyperbolic
               else EdgeGroup(q, p, mult, False) for q, p, mult in middle]
    return build_path(sp, ep, down - sp, up - ep, out_mid)


def _mirror(path: KLatticePath) -> KLatticePath:
    """Reflection in a vertical line: the ends swap and every slope flips."""
    return KLatticePath(path.end_pair, path.start_pair, tuple(
        EdgeGroup(q, -p, e, h) for q, p, e, h in reversed(path.groups)))


# ---------------------------------------------------------------------------
# Interior rounding


def round_interior(path: KLatticePath) -> Chain:
    """Sum of all corner-rounding outputs of the path."""
    groups = path.groups
    flagged = {(q, p) for q, p, _, h in groups if h}
    bottoms = column_bottoms(path)
    acc = set()
    # corners join consecutive groups, since pair edges sit only at the two
    # ends; on a valid path every corner lies strictly below the axis
    x = 0
    for before, after in zip(groups, groups[1:]):
        x += before.q * before.mult
        n_h = before.h_flag + after.h_flag - 1
        if n_h < 0:
            continue
        rounded = bottoms.copy()
        rounded[x] += 1  # the corner is the bottom of its column
        skel = _skeleton(rounded)
        if skel is None:
            continue
        zone = [(q, p) for q, p, _ in skel[1]
                if not slope_before(q, p, before.q, before.p)
                and not slope_before(after.q, after.p, q, p)]
        kept = flagged.difference(zone)
        for placed in combinations(zone, n_h):
            acc ^= {_assemble(path.start_pair, path.end_pair, skel,
                              kept.union(placed))}
    return Chain(acc)


# ---------------------------------------------------------------------------
# C and D moves


def _start_move(path: KLatticePath):
    """C or D move at the start of a path whose first group is hyperbolic.

    D when the path starts with a pair, else C; None when the move does not
    fire.
    """
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


def _end_moves(path: KLatticePath, paired: bool) -> Chain:
    """C moves (paired False) or D moves (paired True) at both ends.

    The end move is the start move of the mirrored path, mirrored back.
    """
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
    return Chain(acc)


def c_op(path: KLatticePath) -> Chain:
    """Corner move at the start and/or end of the path."""
    return _end_moves(path, False)


def d_op(path: KLatticePath) -> Chain:
    """Wall move consuming a half-arrow pair and its adjacent h class."""
    return _end_moves(path, True)


def _boundary(path: KLatticePath) -> Chain:
    """The differential of a path known to be valid, with no validation."""
    return round_interior(path) + c_op(path) + d_op(path)


def differential(path: KLatticePath, checked=None) -> Chain:
    """Full boundary: interior rounding + corner move + wall move, mod 2.

    The path and every term are validated.  checked, a dict a caller keeps
    across calls, has the paths already validated among its keys: they are
    not validated again, and the paths validated here join it with the
    value None.  A caller's memo of boundaries can serve as checked.
    """
    if checked is None:
        checked = {}
    if path not in checked:
        validate(path)
        checked[path] = None
    total = _boundary(path)
    for term in total:
        if term not in checked:
            validate(term)
            checked[term] = None
    return total
