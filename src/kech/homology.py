"""GF(2) linear algebra and graded homology of the filtered complex."""

from __future__ import annotations

from .census import BitMatrix, boundary_columns, generators_up_to_action
from .diff import differential
from .paths import TOL, format_path

#: Largest action bound the command line accepts for d2check.
#: d_squared_report ends within a minute up to here on a 2-core Xeon with
#: Python 3.11: 39 s and 654 MiB peak RSS at 14 (17 s at 13), its time
#: growing about 2.4-fold per unit of action.
D2CHECK_ACTION_LIMIT = 14

#: Largest degree bound the command line accepts for homology.  The grading
#: cap bounds the scan, so its time levels off as the action grows.  At action
#: 1e6 on a 2-core Xeon with Python 3.11, betti_numbers takes 40 s at degree
#: 24, 53 s at 25 and 68 s at 26 (peak RSS 27 MiB).
HOMOLOGY_DEGREE_LIMIT = 25


def gf2_rank(matrix: BitMatrix) -> int:
    """Rank over GF(2) by column elimination in canonical column order."""
    pivots = {}
    rank = 0
    for vec in matrix.columns:
        while vec:
            top = vec.bit_length() - 1
            if top in pivots:
                vec ^= pivots[top]
            else:
                pivots[top] = vec
                rank += 1
                break
    return rank


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
    for path in sl.all_generators():
        survivors = frozenset()
        for term in delta(path):
            survivors ^= frozenset(delta(term))
        if survivors:
            violations.append((
                format_path(path),
                tuple(sorted(format_path(s) for s in survivors)),
            ))
    return violations


def betti(k: int, max_action: float) -> int:
    """dim ker(boundary at grading k) - rank(boundary from grading k+1)."""
    return betti_numbers(k, max_action)[k]


def betti_numbers(max_degree: int, max_action: float):
    """[betti(k, max_action) for k = 0 .. max_degree] from one slice.

    With r_j = rank(boundary: C_j -> C_{j-1}), betti_k = |C_k| - r_k - r_{k+1};
    each r_j is computed once.
    """
    if max_degree < 0:
        raise ValueError("grading must be nonnegative")
    sl = generators_up_to_action(max_action, max_grading=max_degree + 1)
    ranks = [gf2_rank(boundary_columns(sl.generators(j - 1), sl.generators(j)))
             for j in range(max_degree + 2)]
    return [len(sl.generators(k)) - ranks[k] - ranks[k + 1]
            for k in range(max_degree + 1)]


def stabilized_betti(k: int, max_bound: float = 32.0):
    """Double the action bound from 4 until the dimension stops moving.

    Convergence requires the value to survive two consecutive doublings
    (a single agreement can be a finite-size coincidence).  Returns
    (stable value, first action bound of the plateau).  Raises
    RuntimeError when the configured bound is exhausted first.
    """
    memo = {}

    def at(bound):
        if bound not in memo:
            memo[bound] = betti(k, bound)
        return memo[bound]

    bound = 4.0
    while bound <= max_bound + TOL:
        value = at(bound)
        if at(2 * bound) == value and at(4 * bound) == value:
            return (value, bound)
        bound *= 2
    raise RuntimeError(
        "betti(%d) did not stabilize within action bound %g" % (k, max_bound))
