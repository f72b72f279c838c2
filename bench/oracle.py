"""Independent path arithmetic and closed forms used to check kech's output.

Nothing here imports kech.  Specs are parsed, validated, graded and costed
from the definitions in the text format (see docs/formats.md): items are
``H-`` / ``e(q,p)^m`` / ``h(q,p)`` / ``H+`` in strictly increasing slope order,
vertical travel closes, and the Z/2 part of the total class vanishes when
``x + pairs`` is even.  The grading is ``2*Area + arrows - h`` and the action
is the total edge length, each half-arrow pair counting 1.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_ITEM = re.compile(r"(e|h)\((-?\d+),(-?\d+)\)(?:\^(\d+))?\Z")


class SpecError(ValueError):
    """A spec the oracle does not accept as a valid generator."""


def _slope(q, p):
    if q == 0:
        return (-1, Fraction(0)) if p < 0 else (1, Fraction(0))
    return (0, Fraction(p, q))


def parse(spec):
    """Spec -> (start_pair, end_pair, [(q, p, e_mult, h_flag), ...]).

    Raises SpecError unless the spec is a valid canonical generator.
    """
    spec = spec.strip()
    if spec == "0":
        return (False, False, [])
    items = spec.split(";")
    sp = items[0] == "H-"
    ep = items[-1] == "H+" and len(items) > (1 if sp else 0)
    body = items[(1 if sp else 0):(len(items) - 1 if ep else len(items))]
    groups = []
    for item in body:
        m = _ITEM.match(item)
        if m is None:
            raise SpecError("bad item %r in %r" % (item, spec))
        label, q, p = m.group(1), int(m.group(2)), int(m.group(3))
        mult = int(m.group(4) or 1)
        if q < 0 or (q, p) == (0, 0) or math.gcd(q, abs(p)) != 1 or mult < 1:
            raise SpecError("bad direction in %r" % spec)
        if label == "h" and (q == 0 or mult != 1):
            raise SpecError("bad h item in %r" % spec)
        if groups and groups[-1][:2] == [q, p]:
            # canonical order puts h before e within one class
            if label == "h" or groups[-1][2]:
                raise SpecError("non-canonical class in %r" % spec)
            groups[-1][2] = mult
            continue
        if groups and _slope(q, p) <= _slope(*groups[-1][:2]):
            raise SpecError("slopes not increasing in %r" % spec)
        groups.append([q, p, mult if label == "e" else 0, label == "h"])
    groups = [tuple(g) for g in groups]
    drop = sp + sum(-p * (e + h) for q, p, e, h in groups if p < 0)
    rise = ep + sum(p * (e + h) for q, p, e, h in groups if p > 0)
    if drop != rise:
        raise SpecError("vertical travel does not close in %r" % spec)
    if (width(groups) + sp + ep) % 2:
        raise SpecError("nonzero torsion class in %r" % spec)
    return (sp, ep, groups)


def width(groups):
    return sum(q * (e + h) for q, p, e, h in groups)


def action(parsed):
    sp, ep, groups = parsed
    return sp + ep + sum((e + h) * math.hypot(q, p) for q, p, e, h in groups)


def grading(parsed):
    """2*Area + arrows - h, the area taken between the path and the axis."""
    sp, ep, groups = parsed
    # the start pair drops one unit first; the end pair rises the last unit
    chain = [(0, 0), (0, -sp)]
    x = 0
    y = -sp
    for q, p, e, h in groups:
        x += q * (e + h)
        y += p * (e + h)
        chain.append((x, y))
    chain.append((x, 0))
    doubled = abs(sum(x1 * y2 - x2 * y1
                      for (x1, y1), (x2, y2) in zip(chain, chain[1:] + chain[:1])))
    arrows = sum(e + h for q, p, e, h in groups)
    hs = sum(1 for g in groups if g[3])
    return doubled + arrows - hs


def format_spec(sp, ep, groups):
    items = ["H-"] if sp else []
    for q, p, e, h in groups:
        if h:
            items.append("h(%d,%d)" % (q, p))
        if e:
            items.append("e(%d,%d)%s" % (q, p, "^%d" % e if e > 1 else ""))
    if ep:
        items.append("H+")
    return ";".join(items) or "0"


_DIRECTIONS = sorted(
    ((q, p) for q in range(1, 4) for p in range(-3, 4)
     if math.gcd(q, abs(p)) == 1),
    key=lambda d: Fraction(d[1], d[0]))


def sample_generator(rng, lo, hi, *, h_free, items, pairs=2):
    """A random valid spec with action in [lo, hi].

    Draws pair flags (at most `pairs` of them), 1-4 non-vertical classes of
    norm <= sqrt(10) with multiplicities 1-3 and, unless h_free, random h
    flags with at least one set; the vertical walls are then sized to close
    the path.  Pairs plus classes, walls included, number within the range
    `items`.  Rejection sampling keeps only valid specs in the action band.
    """
    while True:
        sp = rng.random() < 0.4
        ep = rng.random() < 0.4
        if sp + ep > pairs:
            continue
        chosen = sorted(rng.sample(range(len(_DIRECTIONS)), rng.randint(1, 4)))
        middle = []
        for i in chosen:
            q, p = _DIRECTIONS[i]
            mult = rng.randint(1, 3)
            h = not h_free and rng.random() < 0.6
            middle.append((q, p, mult - h, h))
        drop = sp + sum(-p * (e + h) for q, p, e, h in middle if p < 0)
        rise = ep + sum(p * (e + h) for q, p, e, h in middle if p > 0)
        extra = rng.randint(0, 1)
        down = max(0, rise - drop) + extra
        up = max(0, drop - rise) + extra
        groups = ([(0, -1, down, False)] if down else []) + middle + \
            ([(0, 1, up, False)] if up else [])
        if sp + ep + len(groups) not in items:
            continue
        if not h_free and not any(g[3] for g in groups):
            continue
        if (width(groups) + sp + ep) % 2:
            continue
        parsed = (sp, ep, groups)
        if lo <= action(parsed) <= hi:
            spec = format_spec(sp, ep, groups)
            if parse(spec) != parsed:
                raise AssertionError("sampler built a non-canonical spec %r" % spec)
            return spec


def sample_product(rng, blocks, lo, hi):
    """A valid h-free spec with action in [lo, hi] built from closed blocks.

    Each block is a sampled h-free generator; blocks share no direction and
    carry at most one half-arrow pair between them, so their union is valid
    and factors in several ways (at least into its blocks).
    """
    while True:
        parts = [parse(sample_generator(rng, 2.0, 6.0, h_free=True,
                                        items=range(2, 4), pairs=1))
                 for _ in range(blocks)]
        if sum(sp + ep for sp, ep, _ in parts) > 1:
            continue
        groups = [g for _, _, gs in parts for g in gs]
        if len({g[:2] for g in groups}) != len(groups):
            continue
        groups.sort(key=lambda g: _slope(g[0], g[1]))
        parsed = (any(p[0] for p in parts), any(p[1] for p in parts), groups)
        if lo <= action(parsed) <= hi:
            return format_spec(*parsed)


def ball_capacity(k):
    """c_k of the unit ball: the d with d(d+1)/2 <= k <= d(d+3)/2."""
    d = 0
    while d * (d + 3) // 2 < k:
        d += 1
    return float(d)


def ellipsoid_capacity(a, b, k):
    """c_k of E(a, b): the k-th smallest (from 0) of {a*m + b*n}."""
    values = sorted(a * m + b * n for m in range(k + 1) for n in range(k + 1))
    return float(values[k])
