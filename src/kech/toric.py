"""Convex toric domains and the convex generators both toric searches read.

A convex generator is a labeled concave lattice path from (0, y) to (x, 0):
classes are primitive displacements (a, -b) with a, b >= 0, listed with
steepness b/a strictly increasing (horizontal first, vertical last), each
carrying an elliptic multiplicity and an optional h flag (never on the
horizontal or vertical class).  Its grading is 2(L - 1) - h where L counts
lattice points in the region enclosed by the path and the axes; its action
against a domain sums mult * support(b, a) over classes.

Two engines search over these generators, each importing this module and
never the other: ``kech.toric_dp`` for the all-elliptic capacities (h = 0)
and ``kech.obstruction`` for the embedding obstruction (h free).  Both start
from the class pool and the seeds below.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd, inf, isfinite
from typing import NamedTuple

from .paths import TOL, cross_sum, format_items, h_count, lower_hull

#: A list becomes the searches' incumbent only when it is this much cheaper.
INCUMBENT_GAP = 1e-12


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
# Class pool and seeds


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
