"""Homology of the action-filtered complex over GF(2), read from one barcode."""

from __future__ import annotations

from math import inf

from .census import generators_up_to_action
from .diff import differential
from .paths import TOL, action, format_path, validate


def _column(path, index, splices):
    """The boundary of path as a bitset over index, which numbers the paths
    of the grading below; splices is differential's dict."""
    bits = 0
    for term in differential(path, splices):
        i = index.get(term)
        if i is None:  # outside the slice, or in another grading
            raise AssertionError("differential left the action slice: %s -> %s"
                                 % (format_path(path), format_path(term)))
        bits |= 1 << i
    return bits


def d_squared_report(max_action: float):
    """Generators whose boundary fails to die under a second boundary.

    Returns (spec, surviving term specs) pairs in (grading, spec) order;
    empty means the differential squares to zero on the whole slice.  Each
    column squares to the XOR of the columns at its set bits.
    """
    sl = generators_up_to_action(max_action)
    splices = {}  # differential's dict, for the whole report
    violations = []
    index, below, specs = {}, [], ()  # grading k - 1's, and k - 2's specs
    for k in range(max(sl.per_degree, default=-1) + 1):
        columns = []  # as set bits: an int over n paths takes n / 8 bytes
        for spec, path in sl.per_degree.get(k, {}).items():
            bits, column, square = _column(path, index, splices), [], set()
            while bits:  # lowest set bit first
                column.append((bits & -bits).bit_length() - 1)
                square.symmetric_difference_update(below[column[-1]])
                bits &= bits - 1
            if square:
                violations.append((spec, tuple(specs[i] for i in sorted(square))))
            columns.append(tuple(column))
        # grading k + 1 reads grading k, and grading k - 1 only for its specs
        done = sl.per_degree.pop(k - 1, {})
        specs, below = tuple(done), columns
        index = {path: i for i, path in enumerate(sl.generators(k))}
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
    one degree up reduces to zero and is skipped.  Each slice path is
    validated once: by its differential, or where clearing skips its column.
    Bars come in the filtration order (action, grading, spec) of their
    births.
    """
    if max_degree < 0:
        raise ValueError("grading must be nonnegative")
    sl = generators_up_to_action(max_action, max_grading=max_degree + 1)
    splices = {}  # differential's dict, for the whole barcode
    bars = []
    cells = _filtration_order(sl, max_degree + 1)
    killed = {}  # index in grading k -> action of the column that kills it
    for k in range(max_degree + 1, -1, -1):
        below = _filtration_order(sl, k - 1)
        index = {path: i for i, (_, path) in enumerate(below)}
        reduced = {}  # lowest set bit -> the reduced column that owns it
        pivots = {}   # lowest set bit -> action of that column
        for j, (birth, path) in enumerate(cells):
            if j in killed:  # cleared: differential does not validate it
                validate(path)
                bars.append((k, birth, killed[j]))
                continue
            bits = _column(path, index, splices)
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
