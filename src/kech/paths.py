"""Convex sub-axis lattice paths modeling closed-geodesic orbit sets.

A generator is a convex piecewise-linear lattice path from (0,0) to (x,0),
staying weakly below the horizontal axis, whose edges are grouped into
direction classes of primitive integer vectors with strictly increasing slope.
Non-vertical classes carry an elliptic multiplicity and at most one hyperbolic
flag; the two vertical directions are always elliptic.  Either end wall may
additionally carry a half-arrow pair: a pair of hyperbolic half-orbits jointly
occupying one unit of vertical travel at the start ( ``H-`` ) or end ( ``H+`` ).

The text format is ``"0"`` for the empty generator, otherwise semicolon-joined
items: optional leading ``H-``, orbit items ``e(q,p)^m`` / ``h(q,p)`` in slope
order, optional trailing ``H+``.
"""

from __future__ import annotations

import math
import re
from math import gcd
from typing import NamedTuple

#: Absolute tolerance for comparing floating-point actions.
TOL = 1e-9


class PathError(ValueError):
    """Base error for malformed path specs or invalid paths."""


class PathSyntaxError(PathError):
    """Text does not conform to the path grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


class PathSemanticsError(PathError):
    """Text parses but violates a structural invariant."""


class EdgeGroup(NamedTuple):
    """All parallel edges of one primitive direction (q, p)."""

    q: int
    p: int
    e_mult: int
    h_flag: bool

    @property
    def mult(self) -> int:
        return self.e_mult + (1 if self.h_flag else 0)

    @property
    def vertical(self) -> bool:
        return self.q == 0


class H1Class(NamedTuple):
    """First-homology class with free part n and two 2-torsion bits a, b."""

    n: int
    a: int
    b: int

    def __add__(self, other: "H1Class") -> "H1Class":
        return H1Class(self.n + other.n, (self.a + other.a) % 2, (self.b + other.b) % 2)

    @property
    def is_zero(self) -> bool:
        return self.n == 0 and self.a == 0 and self.b == 0

    def __str__(self) -> str:
        return f"({self.n},{self.a},{self.b})"


# Per-orbit classes.  Toric direction (q,p) maps to (2p, 0, q mod 2); the four
# lone half-arrows and the two vertical full arrows have the fixed values below.
_HALF_ARROW_CLASSES = {
    "h1-": H1Class(-1, 1, 0),
    "h2-": H1Class(-1, 1, 1),
    "h1+": H1Class(1, 0, 0),
    "h2+": H1Class(1, 0, 1),
}
PAIR_MINUS_CLASS = _HALF_ARROW_CLASSES["h1-"] + _HALF_ARROW_CLASSES["h2-"]
PAIR_PLUS_CLASS = _HALF_ARROW_CLASSES["h1+"] + _HALF_ARROW_CLASSES["h2+"]


def direction_class(q: int, p: int) -> H1Class:
    return H1Class(2 * p, 0, q % 2)


def orbit_class(atom) -> H1Class:
    """Class of a single orbit atom.

    Atoms: ``("e", q, p)`` / ``("h", q, p)`` for full arrows (verticals via
    q=0, p=+-1), or the strings ``"h1-"``, ``"h2-"``, ``"h1+"``, ``"h2+"`` for
    lone half-arrows.
    """
    if isinstance(atom, str):
        try:
            return _HALF_ARROW_CLASSES[atom]
        except KeyError:
            raise PathSemanticsError(f"unknown orbit atom {atom!r}") from None
    kind, q, p = atom
    if kind not in ("e", "h"):
        raise PathSemanticsError(f"unknown orbit atom {atom!r}")
    return direction_class(q, p)


def slope_before(q1: int, p1: int, q2: int, p2: int) -> bool:
    """Whether direction (q1, p1) comes strictly before (q2, p2) in slope order.

    Directions have q >= 0; the down wall (0, -1) is first and the up wall
    (0, 1) last.
    """
    return q1 * p2 - p1 * q2 > 0 or (q1 == q2 == 0 and p1 < p2)


class KLatticePath(NamedTuple):
    """Canonical convex sub-axis path (possibly with half-arrow pairs).

    An immutable value: equality and hashing are those of the field tuple.
    Paths have no order of their own; spec order is ``key=format_path``.
    """

    start_pair: bool
    end_pair: bool
    groups: tuple  # tuple[EdgeGroup, ...] in strictly increasing slope order

    def __str__(self) -> str:
        return format_path(self)


EMPTY_PATH = KLatticePath(False, False, ())


def build_path(start_pair: bool, end_pair: bool, down: int, up: int, middle) -> KLatticePath:
    """Assemble a path from wall runs and non-vertical groups (slope-sorted)."""
    groups = []
    if down:
        groups.append(EdgeGroup(0, -1, down, False))
    groups.extend(middle)
    if up:
        groups.append(EdgeGroup(0, 1, up, False))
    return KLatticePath(start_pair, end_pair, tuple(groups))


# Slope order puts the down wall first and the up wall last, so the wall
# accessors read only the end groups.

def down_run(path: KLatticePath) -> int:
    groups = path.groups
    if groups and groups[0].q == 0 and groups[0].p < 0:
        return groups[0].mult
    return 0


def middle_groups(path: KLatticePath):
    groups = path.groups
    lo = 1 if groups and groups[0].q == 0 and groups[0].p < 0 else 0
    hi = -1 if groups and groups[-1].q == 0 and groups[-1].p > 0 else len(groups)
    return groups[lo:hi]


def x_width(path: KLatticePath) -> int:
    return sum(g.q * g.mult for g in path.groups)


def arrow_count(path: KLatticePath) -> int:
    """Total full-arrow multiplicity m (half-arrow pairs excluded)."""
    return sum(g.mult for g in path.groups)


def h_count(path: KLatticePath) -> int:
    return sum(1 for g in path.groups if g.h_flag)


def elliptic_factor_count(path: KLatticePath) -> int:
    """Number of distinct elliptic orbit factors: groups with e_mult >= 1."""
    return sum(1 for g in path.groups if g.e_mult >= 1)


def pair_count(path: KLatticePath) -> int:
    return (1 if path.start_pair else 0) + (1 if path.end_pair else 0)


# ---------------------------------------------------------------------------
# Parsing / formatting

_ITEM_RE = re.compile(r"(e|h)\((-?\d+),(-?\d+)\)(?:\^(\d+))?\Z")


def parse_path(text: str) -> KLatticePath:
    """Parse a path spec string; the path it names must pass validate."""
    stripped = text.strip()
    if stripped == "0":
        return EMPTY_PATH
    if not stripped:
        raise PathSyntaxError("empty spec", 0)

    start_pair = False
    end_pair = False
    groups = []  # mutable [q, p, e_mult, h_flag]

    pos = 0
    raw_items = stripped.split(";")
    for idx, raw in enumerate(raw_items):
        item = raw.strip()
        item_pos = text.find(raw, pos)
        pos = item_pos + len(raw)
        if not item:
            raise PathSyntaxError("empty item", item_pos)
        if item == "H-":
            if idx != 0:
                raise PathSemanticsError("H- allowed only as the first item")
            start_pair = True
            continue
        if item == "H+":
            if idx != len(raw_items) - 1:
                raise PathSemanticsError("H+ allowed only as the last item")
            end_pair = True
            continue
        m = _ITEM_RE.match(item)
        if m is None:
            raise PathSyntaxError(f"malformed item {item!r}", item_pos)
        label, q, p = m.group(1), int(m.group(2)), int(m.group(3))
        mult = int(m.group(4)) if m.group(4) is not None else 1
        if mult < 1:
            raise PathSyntaxError("exponent must be >= 1", item_pos)
        if label == "h" and mult != 1:
            raise PathSemanticsError("repeated h on one direction")
        if groups and groups[-1][0] == q and groups[-1][1] == p:
            g = groups[-1]
            if label == "h":
                if g[3]:
                    raise PathSemanticsError("repeated h on one direction")
                g[3] = True
            else:
                g[2] += mult
        else:
            groups.append([q, p, mult if label == "e" else 0, label == "h"])

    path = KLatticePath(
        start_pair, end_pair, tuple(EdgeGroup(q, p, e, h) for q, p, e, h in groups)
    )
    validate(path)
    return path


def format_items(groups) -> list:
    """Item texts of (direction, e_mult, h_flag) groups, h before e."""
    items = []
    for d1, d2, e_mult, h_flag in groups:
        if h_flag:
            items.append(f"h({d1},{d2})")
        if e_mult:
            exp = f"^{e_mult}" if e_mult > 1 else ""
            items.append(f"e({d1},{d2}){exp}")
    return items


def format_path(path: KLatticePath) -> str:
    """Canonical spec string (h before e within a direction class)."""
    items = format_items(path.groups)
    if path.start_pair:
        items.insert(0, "H-")
    if path.end_pair:
        items.append("H+")
    return ";".join(items) or "0"


# ---------------------------------------------------------------------------
# Validation

def total_class(path: KLatticePath) -> H1Class:
    """Total first-homology class of a path."""
    # mult copies of direction_class(q, p)
    total = H1Class(sum(2 * g.p * g.mult for g in path.groups), 0,
                    sum(g.q * g.mult for g in path.groups) % 2)
    if path.start_pair:
        total = total + PAIR_MINUS_CLASS
    if path.end_pair:
        total = total + PAIR_PLUS_CLASS
    return total


def validate(path: KLatticePath) -> str:
    """Check every invariant; return the type tag (I/II/III/IV/empty).

    One pass over the groups checks each direction and the slope order and
    sums the vertical travel and the x-width.  Once the vertical travel
    closes, the total class is (0, 0, b) with b the parity of x-width plus
    pair count, so only that bit is left to check.
    """
    start_pair, end_pair, groups = path
    drop = 1 if start_pair else 0
    rise = 1 if end_pair else 0
    width = 0
    last_q = last_p = None
    for q, p, e_mult, h_flag in groups:
        if q < 0:
            raise PathSemanticsError(f"negative horizontal component in ({q},{p})")
        if q == 0 and p == 0:
            raise PathSemanticsError("zero direction (0,0)")
        if gcd(q, abs(p)) != 1:
            raise PathSemanticsError(f"non-primitive direction ({q},{p})")
        mult = e_mult + 1 if h_flag else e_mult
        if e_mult < 0 or mult < 1:
            raise PathSemanticsError(f"empty edge group on ({q},{p})")
        if q == 0 and h_flag:
            raise PathSemanticsError("vertical edges cannot be labeled h")
        if last_q is not None and not slope_before(last_q, last_p, q, p):
            raise PathSemanticsError("non-convex slope order")
        last_q, last_p = q, p
        if p < 0:
            drop -= p * mult
        else:
            rise += p * mult
        width += q * mult

    if drop != rise:
        raise PathSemanticsError(
            f"vertical displacements do not close (down {drop}, up {rise})"
        )
    if (width + (1 if start_pair else 0) + (1 if end_pair else 0)) % 2:
        raise PathSemanticsError(f"nonzero total class {total_class(path)}")

    if not groups and not start_pair and not end_pair:
        return "empty"
    if start_pair and end_pair:
        return "IV"
    if start_pair:
        return "II"
    if end_pair:
        return "III"
    return "I"


def is_valid(path: KLatticePath) -> bool:
    try:
        validate(path)
        return True
    except PathError:
        return False


# ---------------------------------------------------------------------------
# Geometry

def column_bottoms(path: KLatticePath):
    """Lowest region point of each column, for columns 0..x_width(path).

    The region between the path and the axis is
    {(c, y) : bottoms[c] <= y <= 0}.
    """
    y = -((1 if path.start_pair else 0) + down_run(path))
    bottoms = [y]
    for g in middle_groups(path):
        for _ in range(g.mult):
            # ceil of the path height i columns into this edge
            bottoms.extend(y - (-i * g.p) // g.q for i in range(1, g.q + 1))
            y += g.p
    return bottoms


def lower_hull(points):
    """Lower convex hull of points sorted by x, then y (monotone chain).

    Collinear points are dropped.  Reversed input gives the upper hull,
    traced right to left.
    """
    chain = []
    for p in points:
        while len(chain) >= 2:
            (ax, ay), (bx, by) = chain[-2], chain[-1]
            if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) <= 0:
                chain.pop()
            else:
                break
        chain.append(p)
    return chain


def cross_sum(edges) -> int:
    """Sum over (q, p, copies) edges in slope order of each copy crossed
    with the sum of the edges before it: the doubled area the edge chain
    encloses with the chord from its start to its end."""
    px = py = total = 0
    for q, p, t in edges:
        total += (px * p - py * q) * t
        px += q * t
        py += p * t
    return total


def doubled_area(path: KLatticePath) -> int:
    """Doubled area between path and axis; each half-arrow pair is one unit
    of wall, parallel to the wall run beside it, so its place is free."""
    edges = [(g.q, g.p, g.mult) for g in path.groups]
    if path.start_pair:
        edges.insert(0, (0, -1, 1))
    if path.end_pair:
        edges.append((0, 1, 1))
    return cross_sum(edges)


def grading(path: KLatticePath) -> int:
    """Integer grading 2*Area + m - h (area between path and axis)."""
    return doubled_area(path) + arrow_count(path) - h_count(path)


def grading_lattice(path: KLatticePath) -> int:
    """Same grading via lattice-point count: 2(L-1) - n/2 - x - h."""
    lattice = sum(1 - b for b in column_bottoms(path))
    n_half = pair_count(path)  # n/2 where n counts half-arrows
    return 2 * (lattice - 1) - n_half - x_width(path) - h_count(path)


def group_length(group: EdgeGroup) -> float:
    """Euclidean length of a group: its multiplicity times |(q, p)|."""
    return group.mult * math.hypot(group.q, group.p)


def action(path: KLatticePath) -> float:
    """Total euclidean edge length; each half-arrow pair contributes 1.

    The group lengths are added one by one in path order onto the pairs'
    count; kech.census.spec_actions sums them the same way, so both give
    the same float.
    """
    total = float(pair_count(path))
    for g in path.groups:
        total += group_length(g)
    return total
