"""GF(2) differential on convex sub-axis lattice paths.

The region between a path and the axis is held as its column profile: the
lowest region point of each column (``paths.column_bottoms``).  Three local
moves produce the boundary of a generator, each an edit of that profile that
drops the grading by exactly 1 and strictly decreases action:

- interior rounding: raise the bottom of the column holding one eligible
  concave corner strictly below the axis, redistributing the freed
  hyperbolic labels over the newly created edge classes in the slope zone
  between the two corner directions;
- the corner move C: when the path begins (ends) with a hyperbolic class and
  no wall, drop the end column, which holds only its axis point (steep
  slopes, creating a half-arrow pair), or the two end columns (shallow
  slopes, no pair);
- the wall move D: when a half-arrow pair is immediately followed (preceded)
  by a hyperbolic class, drop the end column, which holds the two wall
  points the pair occupies.

All moves re-trace the edited profile with ``_skeleton``: its left wall,
lower convex hull and right wall, starting at the origin.  Outputs
accumulate modulo 2 (duplicate terms cancel).
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from .paths import (
    EdgeGroup,
    KLatticePath,
    build_path,
    column_bottoms,
    down_run,
    format_path,
    lower_hull,
    middle_groups,
    slope_before,
    up_run,
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

    @classmethod
    def zero(cls) -> "Chain":
        return cls()

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
# Interior rounding


def _edge_objects(path: KLatticePath):
    """Edge sequence with kinds, directions and endpoint positions."""
    edges = []
    y = 0
    x = 0
    if path.start_pair:
        edges.append(("pair", (0, -1), (0, 0), (0, -1)))
        y = -1
    d = down_run(path)
    if d:
        edges.append(("vert", (0, -1), (0, y), (0, y - d)))
        y -= d
    for g in middle_groups(path):
        nx, ny = x + g.q * g.mult, y + g.p * g.mult
        edges.append(("class", (g.q, g.p), (x, y), (nx, ny)))
        x, y = nx, ny
    u = up_run(path)
    if u:
        edges.append(("vert", (0, 1), (x, y), (x, y + u)))
        y += u
    if path.end_pair:
        edges.append(("pair", (0, 1), (x, y), (x, y + 1)))
        y += 1
    return edges


def round_interior(path: KLatticePath) -> Chain:
    """Sum of all corner-rounding outputs of the path."""
    edges = _edge_objects(path)
    bottoms = column_bottoms(path)
    in_flags = {(g.q, g.p): g.h_flag for g in middle_groups(path)}
    acc = set()
    for before, after in zip(edges, edges[1:]):
        if before[0] == "pair" or after[0] == "pair":
            continue
        h_before = before[0] == "class" and in_flags[before[1]]
        h_after = after[0] == "class" and in_flags[after[1]]
        if not (h_before or h_after):
            continue
        cx, cy = before[3]
        if cy >= 0:
            continue
        rounded = bottoms.copy()
        rounded[cx] += 1  # the corner is the bottom of its column
        skel = _skeleton(rounded)
        if skel is None:
            continue
        down, middle, up = skel
        n_h = (1 if h_before else 0) + (1 if h_after else 0) - 1
        lo, hi = before[1], after[1]
        zone = [i for i, (q, p, _) in enumerate(middle)
                if q > 0 and not slope_before(q, p, *lo) and not slope_before(*hi, q, p)]
        for placed in combinations(zone, n_h):
            out_mid = []
            for i, (q, p, mult) in enumerate(middle):
                if i in zone:
                    h = i in placed
                else:
                    h = in_flags.get((q, p), False)
                out_mid.append(EdgeGroup(q, p, mult - (1 if h else 0), h))
            out = build_path(
                path.start_pair,
                path.end_pair,
                down - (1 if path.start_pair else 0),
                up - (1 if path.end_pair else 0),
                out_mid,
            )
            acc ^= {out}
    return Chain(acc)


# ---------------------------------------------------------------------------
# C and D moves


def _assemble(path, skel, operated, make_start_pair=False, make_end_pair=False,
              drop_start_pair=False, drop_end_pair=False):
    down, middle, up = skel
    sp = (path.start_pair and not drop_start_pair) or make_start_pair
    ep = (path.end_pair and not drop_end_pair) or make_end_pair
    in_flags = {(g.q, g.p): g.h_flag for g in middle_groups(path)}
    out_mid = []
    for q, p, mult in middle:
        h = in_flags.get((q, p), False) and (q, p) != operated
        out_mid.append(EdgeGroup(q, p, mult - (1 if h else 0), h))
    down -= 1 if sp else 0
    up -= 1 if ep else 0
    if down < 0 or up < 0:
        raise AssertionError("wall shorter than its half-arrow pair")
    return build_path(sp, ep, down, up, out_mid)


def c_op(path: KLatticePath) -> Chain:
    """Corner move at the start and/or end of the path."""
    acc = set()
    mids = middle_groups(path)

    if mids and not path.start_pair and down_run(path) == 0 and mids[0].h_flag:
        g = mids[0]
        if g.p <= -g.q:
            skel = _skeleton(column_bottoms(path)[1:])
            if skel is not None:
                acc ^= {_assemble(path, skel, (g.q, g.p), make_start_pair=True)}
        elif g.p < 0:
            skel = _skeleton(column_bottoms(path)[2:])
            if skel is not None:
                acc ^= {_assemble(path, skel, (g.q, g.p))}

    if mids and not path.end_pair and up_run(path) == 0 and mids[-1].h_flag:
        g = mids[-1]
        if g.p >= g.q:
            skel = _skeleton(column_bottoms(path)[:-1])
            if skel is not None:
                acc ^= {_assemble(path, skel, (g.q, g.p), make_end_pair=True)}
        elif g.p > 0:
            skel = _skeleton(column_bottoms(path)[:-2])
            if skel is not None:
                acc ^= {_assemble(path, skel, (g.q, g.p))}
    return Chain(acc)


def d_op(path: KLatticePath) -> Chain:
    """Wall move consuming a half-arrow pair and its adjacent h class."""
    acc = set()
    mids = middle_groups(path)

    if mids and path.start_pair and down_run(path) == 0 and mids[0].h_flag:
        skel = _skeleton(column_bottoms(path)[1:])
        if skel is not None:
            acc ^= {_assemble(path, skel, (mids[0].q, mids[0].p), drop_start_pair=True)}

    if mids and path.end_pair and up_run(path) == 0 and mids[-1].h_flag:
        skel = _skeleton(column_bottoms(path)[:-1])
        if skel is not None:
            acc ^= {_assemble(path, skel, (mids[-1].q, mids[-1].p), drop_end_pair=True)}
    return Chain(acc)


def differential(path: KLatticePath) -> Chain:
    """Full boundary: interior rounding + corner move + wall move, mod 2."""
    validate(path)
    total = round_interior(path) + c_op(path) + d_op(path)
    for term in total:
        validate(term)
    return total
