"""Action spectrum of the complex: capacities and the growth diagnostic.

The k-th capacity is the least action among valid generators of grading 2k.
Minimizers are always found among h-free generators, so the search covers
those only, with one dynamic program over directions in slope order.

An h-free generator is a start pair sp, a down-wall run m, the non-vertical
classes (q, p) x t in slope order, an up-wall run n and an end pair ep.  After
the classes chosen so far, with sum (x, y), its state is (x, y, g), where g is
the doubled area the classes sweep over the axis-anchored chain plus their
total multiplicity t.  Adding t copies of (q, p) moves the state to

    (x + tq, y + tp, g + t(xp - yq) + t)

at cost t * |(q, p)|, and the program keeps the least cost of each state.
The walls and pairs never enter the moves: each final state is closed as the
generator is, by x + sp + ep even, n - m = sp - ep - y, m rising from its
least value, at cost sp + ep + m + n and grading g + (sp + ep + m + n) x +
m + n.  Two prunes keep the table small, and both are sound:

- g <= 2 kmax.  Every class already chosen comes earlier in slope order, so
  (x, y) x (q, p) >= 0 and g never falls; the closing adds nothing negative.
- cost + |y| <= cap.  The closing cost sp + ep + m + n is at least |y|,
  because m + n >= |n - m| = |sp - ep - y|, and every later class costs
  t |(q, p)| >= |t p|, at least the |dy| it makes, so cost + |y| never falls
  along a generator.

The cap starts at the isoperimetric floor for c_kmax derived below, plus 1,
and rises by 0.5 only while a bucket stays empty, never past 2 kmax, where
e(0,-1)^k;e(0,1)^k fills every bucket.  Each pass holds every h-free
generator up to its cap, so a bucket it fills already has its global minimum.

Witnesses: least action, then least spec.  The table keeps only each
state's least float cost, and the candidates come from a backward search
from each closing within TOL of its bucket's least total.  From a state with
bound B on the cost of its classes (at first the least total less the
closing cost), it follows t copies of each direction d_i = (q, p) earlier
than the last one taken whose predecessor is in the table with least cost +
t |d_i| <= B + TOL, with bound B - t |d_i|; a state's cost is at least its x,
so that needs q <= x and t (|d_i| - q) <= B - x + TOL.  Each prefix state's
least cost is at most a list's own float cost up to it, so the search yields
every slope-ordered list that closes within its bound, among them every
list of exactly minimal action, and the least of them is the witness.
Float actions are compared exactly, as sums of integer multiples of square
roots of squarefree integers: these are linearly independent over Q, so two
actions are equal exactly when those sums agree term by term, and an
unequal pair is ordered by interval evaluation.

Growth: by the ECH volume property c_k^2/k tends to
2 * REFERENCE_CONTACT_VOLUME = 2*pi, and it never drops below a certified
floor that tends to the same limit.
Reflecting the region between a path and the axis across the axis gives a
region of area doubled_area and perimeter 2*action, so the isoperimetric
inequality gives doubled_area <= action^2/pi.  Every full arrow has length
>= 1, so the grading doubled_area + m - h is at most action^2/pi + action,
and therefore c_k >= (-pi + sqrt(pi^2 + 8*pi*k)) / 2, i.e.
c_k^2/k >= 2*pi - O(k^-1/2).
"""

from __future__ import annotations

from math import isqrt, pi, sqrt
from typing import NamedTuple

from .census import _directions
from .paths import (
    EMPTY_PATH,
    TOL,
    EdgeGroup,
    KLatticePath,
    action,
    build_path,
    format_path,
    pair_count,
)

#: Reference contact volume of the unit cotangent bundle: the coordinate
#: torus has volume 2*pi^2 per unit angle band, and the orientation double
#: cover halves it to give integral(lambda ^ dlambda) = pi.  The expected
#: limit of c_k^2/k is twice this, 2*pi (see the module docstring).
REFERENCE_CONTACT_VOLUME = pi


class CapacityResult(NamedTuple):
    k: int
    value: float
    witness: KLatticePath


def _surd(n: int):
    """(s, d) with n = s^2 * d and d squarefree, so sqrt(n) = s * sqrt(d)."""
    s, d, f = 1, n, 2
    while f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            s *= f
        f += 1
    return s, d


def _exact_sum(terms) -> dict:
    """sum(count * sqrt(n)) over (count, n) as {squarefree d: coefficient}."""
    key = {}
    for count, n in terms:
        s, d = _surd(n)
        key[d] = key.get(d, 0) + count * s
    return {d: c for d, c in key.items() if c}


def _exact_action(path: KLatticePath) -> dict:
    """The action of path as an exact _exact_sum key."""
    return _exact_sum([(pair_count(path), 1)]
                      + [(g.mult, g.q * g.q + g.p * g.p) for g in path.groups])


def _sign(terms: dict) -> int:
    """Sign of sum(c * sqrt(d)) over {squarefree d: c}, decided exactly.

    Each sqrt(d) is bracketed by isqrt at 2^-bits and the bits double until
    the bracket of the sum excludes 0.  A nonzero key never sums to 0, since
    square roots of distinct squarefree integers are linearly independent
    over Q, so the loop ends.
    """
    if not terms:
        return 0
    bits = 32
    while True:
        lo = hi = 0
        for d, c in terms.items():
            scaled = d << (2 * bits)
            r = isqrt(scaled)
            r_hi = r if r * r == scaled else r + 1
            lo += c * (r if c > 0 else r_hi)
            hi += c * (r_hi if c > 0 else r)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


def _exact_less(a: dict, b: dict) -> bool:
    diff = dict(a)
    for d, c in b.items():
        diff[d] = diff.get(d, 0) - c
    return _sign({d: c for d, c in diff.items() if c}) < 0


def _dp_pass(kmax: int, cap: float) -> dict:
    """Witness of every bucket k <= kmax whose least action is <= cap."""
    budget = cap + TOL
    gmax = 2 * kmax
    dirs = _directions(cap)
    norms = [sqrt(q * q + p * p) for q, p in dirs]
    # layers[x] maps the packed (y, g) of a state to its least cost
    yoff = int(budget) + 1
    span = gmax + 1
    layers = [{} for _ in range(int(budget) + 1)]
    layers[0][yoff * span] = 0.0
    for i, (q, p) in enumerate(dirs):
        norm = norms[i]
        step = p * span
        # every move raises x, so walking x downward reads each state before
        # this direction can write it; a state's cost is at least its x
        for x in range(int(budget - norm), -1, -1):
            for key, used in layers[x].items():
                y = key // span - yoff
                g = key % span
                rise = x * p - y * q + 1
                t = 1
                while True:
                    u = used + t * norm
                    if u + abs(y + t * p) > budget or g + t * rise > gmax:
                        break
                    layer = layers[x + t * q]
                    key2 = key + t * (step + rise)
                    old = layer.get(key2)
                    if old is None or u < old:
                        layer[key2] = u
                    t += 1

    # close every state; buckets[k] = [least total, closings within TOL]
    buckets = {}
    for x, layer in enumerate(layers):
        for key, used in layer.items():
            y = key // span - yoff
            g = key % span
            for sp in (0, 1):
                for ep in (0, 1):
                    if (x + sp + ep) % 2:
                        continue
                    shift = sp - ep - y
                    m = max(0, -shift)
                    while True:
                        n = m + shift
                        cost = sp + ep + m + n
                        total = used + cost
                        deg = g + cost * x + m + n
                        if total > budget or deg > gmax:
                            break
                        entry = buckets.get(deg // 2)
                        closing = (total, x, key, sp, ep, m, n)
                        if entry is None or total < entry[0] - TOL:
                            buckets[deg // 2] = [total, [closing]]
                        elif total <= entry[0] + TOL:
                            entry[0] = min(entry[0], total)
                            entry[1].append(closing)
                        m += 1

    excess = [norm - q for (q, _), norm in zip(dirs, norms)]

    def chains(x, key, limit, bound):
        """Class lists of index < limit reaching a state within bound + TOL."""
        if not x:
            yield ()
            return
        y = key // span - yoff
        slack = bound - x + TOL
        for i in [i for i in range(limit)
                  if excess[i] <= slack and dirs[i][0] <= x]:
            q, p = dirs[i]
            norm = norms[i]
            move = p * span + x * p - y * q + 1
            t = 1
            while t * q <= x and t * excess[i] <= slack:
                pre = key - t * move
                used = layers[x - t * q].get(pre)
                if used is not None and used + t * norm <= bound + TOL:
                    for chain in chains(x - t * q, pre, i, bound - t * norm):
                        yield chain + ((q, p, t),)
                t += 1

    witnesses = {}
    for k, (least, closings) in buckets.items():
        best = None
        for total, x, key, sp, ep, m, n in closings:
            cost = sp + ep + m + n
            for chain in chains(x, key, len(dirs), least - cost):
                path = build_path(sp == 1, ep == 1, m, n,
                                  [EdgeGroup(q, p, t, False) for q, p, t in chain])
                exact, spec = _exact_action(path), format_path(path)
                if (best is None or _exact_less(exact, best[0])
                        or (exact == best[0] and spec < best[1])):
                    best = (exact, spec, path)
        witnesses[k] = best[2]
    return witnesses


def _bucket_minima(kmax: int, cap=None):
    """Minimal action and witness for every grading 2k, k <= kmax.

    cap is the first pass's action cap; by default the isoperimetric floor
    for c_kmax plus 1.
    """
    if kmax < 0:
        raise ValueError("capacity index must be nonnegative")
    if cap is None:
        # the isoperimetric floor for c_kmax; see the module docstring
        cap = (-pi + sqrt(pi * pi + 8.0 * pi * kmax)) / 2.0 + 1.0
    cap = min(cap, 2.0 * kmax)
    while True:
        witnesses = _dp_pass(kmax, cap)
        if len(witnesses) == kmax + 1:
            return {k: CapacityResult(k, action(p), p)
                    for k, p in witnesses.items()}
        if cap >= 2.0 * kmax:
            raise AssertionError("capacity bucket empty below its own witness")
        cap = min(cap + 0.5, 2.0 * kmax)


def capacity(k: int) -> CapacityResult:
    """Least action among generators of grading 2k, with its witness."""
    return capacity_series(k)[k]


def capacity_series(kmax: int):
    """CapacityResults for k = 0 .. kmax, sharing one dynamic program."""
    if kmax < 0:
        raise ValueError("capacity index must be nonnegative")
    minima = _bucket_minima(kmax) if kmax >= 1 else {}
    minima[0] = CapacityResult(0, 0.0, EMPTY_PATH)
    return [minima[k] for k in range(kmax + 1)]


def weyl_series(kmax: int):
    """Rows (k, c_k, c_k^2 / k) for k = 1 .. kmax.

    The ratio tends to 2 * REFERENCE_CONTACT_VOLUME and never drops below the
    isoperimetric floor of the module docstring: (-pi + sqrt(pi^2 + 8*pi*k))^2
    / (4k), which is 5.155 at k = 40.
    """
    if kmax < 1:
        raise ValueError("need at least one capacity for the growth series")
    rows = []
    for res in capacity_series(kmax)[1:]:
        rows.append((res.k, res.value, res.value * res.value / res.k))
    return rows
