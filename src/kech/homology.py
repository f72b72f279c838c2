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
        # on nothing reads the boundaries of grading k - 1 again
        for path in sl.generators(k - 1):
            memo.pop(path, None)
    return violations


def barcode(max_degree: int, max_action: float):
    """Persistence bars (degree, birth, death) for degrees <= max_degree.

    Birth and death are actions; death is inf for a class that lives to
    max_action.  One slice of gradings <= max_degree + 1 is reduced, with its
    columns in filtration order (action, grading, spec).  The differential
    strictly lowers action, so each boundary lies to the left of its column.
    Columns are reduced by their lowest set bit, degree by degree from the
    top, with clearing: a column that is already the pivot of a column one
    degree up reduces to zero and is skipped.  Bars come in the filtration
    order of their births.
    """
    if max_degree < 0:
        raise ValueError("grading must be nonnegative")
    sl = generators_up_to_action(max_action, max_grading=max_degree + 1)
    # a stable sort by action of a slice already in (grading, spec) order
    order = sorted(((action(path), k, path) for k in sl.degrees()
                    for path in sl.generators(k)), key=lambda cell: cell[0])
    index = {path: i for i, (_, _, path) in enumerate(order)}
    # one memo of move replacements; every path is validated again, which
    # costs less than looking it up in a growing memo
    splices = {}
    reduced = {}  # lowest set bit -> the reduced column that owns it
    killer = {}   # lowest set bit -> index of that column
    # a stable sort: degrees from the top, filtration order within each
    for j in sorted(range(len(order)), key=lambda j: -order[j][1]):
        if j in reduced:
            continue
        path = order[j][2]
        bits = 0
        for term in differential(path, None, splices):
            if term not in index:
                raise AssertionError(
                    "differential left the action slice: %s -> %s"
                    % (format_path(path), format_path(term)))
            bits |= 1 << index[term]
        while bits:
            low = bits.bit_length() - 1
            if low not in reduced:
                reduced[low] = bits
                killer[low] = j
                break
            bits ^= reduced[low]
    deaths = set(killer.values())
    return [(k, birth, order[killer[i]][0] if i in killer else inf)
            for i, (birth, k, _) in enumerate(order)
            if k <= max_degree and i not in deaths]


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
