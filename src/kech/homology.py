"""Homology of the action-filtered complex over GF(2), read from one barcode."""

from __future__ import annotations

from math import inf

from .census import generators_up_to_action
from .diff import differential
from .paths import TOL, action, format_path


def d_squared_report(max_action: float):
    """Generators whose boundary fails to die under a second boundary.

    Returns a list of (spec, surviving term specs) pairs; empty means the
    differential squares to zero on the whole slice.
    """
    sl = generators_up_to_action(max_action)
    # path -> its boundary, or None while it is only known to be valid, so
    # that differential validates each distinct path once per report; and
    # one memo of move replacements for the whole report
    memo, splices = {}, {}

    def delta(path):
        chain = memo.get(path)
        if chain is None:
            chain = memo[path] = differential(path, memo, splices)
        return chain

    violations = []
    for k in sl.degrees():
        for path in sl.generators(k):
            survivors = frozenset()
            for term in delta(path):
                survivors ^= delta(term)
            if survivors:
                violations.append((
                    format_path(path),
                    tuple(sorted(format_path(s) for s in survivors)),
                ))
        # the differential lowers grading by exactly 1, so from grading k + 1
        # on nothing reads grading k - 1 or its boundaries again
        for path in sl.per_degree.pop(k - 1, {}).values():
            memo.pop(path, None)
    return violations


def _filtration_order(sl, k: int):
    """Grading k of the slice as (action, path) pairs in filtration order: a
    stable sort by action of its spec order."""
    return sorted(((action(path), path) for path in sl.generators(k)),
                  key=lambda cell: cell[0])


def barcode(max_degree: int, max_action: float):
    """Persistence bars (degree, birth, death) for degrees <= max_degree.

    Birth and death are actions; death is inf for a class that lives to
    max_action.  One slice of gradings <= max_degree + 1 is reduced, one
    degree at a time from the top, each column numbered within its own
    grading in filtration order (action, spec).  The differential lowers
    grading by exactly 1 and strictly lowers action, so a degree-k column
    has its bits in grading k - 1 only.  Columns are reduced by their lowest
    set bit, with clearing: a column that is already the pivot of a column
    one degree up reduces to zero and is skipped.  Bars come in the
    filtration order (action, grading, spec) of their births.
    """
    if max_degree < 0:
        raise ValueError("grading must be nonnegative")
    sl = generators_up_to_action(max_action, max_grading=max_degree + 1)
    # one memo of move replacements; every path is validated again, which
    # costs less than looking it up in a growing memo
    splices = {}
    bars = []
    cells = _filtration_order(sl, max_degree + 1)
    killed = {}  # index in grading k -> action of the column that kills it
    for k in range(max_degree + 1, -1, -1):
        below = _filtration_order(sl, k - 1)
        index = {path: i for i, (_, path) in enumerate(below)}
        reduced = {}  # lowest set bit -> the reduced column that owns it
        pivots = {}   # lowest set bit -> action of that column
        for j, (birth, path) in enumerate(cells):
            if j in killed:
                bars.append((k, birth, killed[j]))
                continue
            bits = 0
            for term in differential(path, None, splices):
                if term not in index:
                    raise AssertionError(
                        "differential left the action slice: %s -> %s"
                        % (format_path(path), format_path(term)))
                bits |= 1 << index[term]
            while bits and (low := bits.bit_length() - 1) in reduced:
                bits ^= reduced[low]
            if bits:
                reduced[low] = bits
                pivots[low] = birth
            else:
                bars.append((k, birth, inf))
        # grading k is done: no lower degree reads it
        sl.per_degree.pop(k, None)
        cells, killed = below, pivots
    # each degree's bars are in filtration order already, so a stable sort by
    # (birth, degree) puts them in (action, grading, spec) order
    return sorted((bar for bar in bars if bar[0] <= max_degree),
                  key=lambda bar: (bar[1], bar[0]))


def betti_numbers(max_degree: int, max_action: float):
    """dim H_k of the slice below max_action for k = 0 .. max_degree: the
    essential bars."""
    counts = [0] * (max_degree + 1)
    for k, _, death in barcode(max_degree, max_action):
        if death == inf:
            counts[k] += 1
    return counts


def stabilized_betti(k: int):
    """Double the action bound from 4 until the dimension stops moving.

    Convergence requires the value to survive two consecutive doublings
    (a single agreement can be a finite-size coincidence).  Returns
    (stable value, first action bound of the plateau).  Raises
    RuntimeError when no bound up to 32 starts a plateau.  One barcode at
    128, the largest bound the doublings reach, answers every bound b: betti
    at b counts the degree-k bars with birth <= b < death, with the scan's
    tolerance.
    """
    bars = [(birth, death) for degree, birth, death in barcode(k, 128.0)
            if degree == k]

    def at(bound):
        return sum(1 for birth, death in bars if birth <= bound + TOL < death)

    for bound in (4.0, 8.0, 16.0, 32.0):
        value = at(bound)
        if at(2 * bound) == value and at(4 * bound) == value:
            return (value, bound)
    raise RuntimeError(
        "betti(%d) did not stabilize within action bound 32" % k)
