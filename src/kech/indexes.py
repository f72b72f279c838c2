"""Index bookkeeping for orbit multisets and holomorphic-curve data.

The integer grading of a generator decomposes as a relative first Chern term,
a self-intersection term, and a sum of Conley-Zehnder indices.  This module
evaluates each piece separately so the decomposition can be cross-checked
against the geometric grading, plus the Fredholm index of curve data, the
secondary index used by the embedding obstruction, and the multiplicity
partitions attached to orbit ends.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .paths import (
    EMPTY_PATH,
    TOL,
    KLatticePath,
    PathSemanticsError,
    doubled_area,
    elliptic_factor_count,
    grading,
    h_count,
    lower_hull,
    pair_count,
    total_class,
    validate,
)

ELLIPTIC = "elliptic"
POSITIVE_HYPERBOLIC = "positive_hyperbolic"
NEGATIVE_HYPERBOLIC = "negative_hyperbolic"
_KINDS = (ELLIPTIC, POSITIVE_HYPERBOLIC, NEGATIVE_HYPERBOLIC)


def conley_zehnder(kind: str, k: int) -> int:
    """Index of the k-th iterate: elliptic 1, pos.hyp 0, neg.hyp -k."""
    if k < 1:
        raise ValueError("iterate k must be >= 1")
    if kind == ELLIPTIC:
        return 1
    if kind == POSITIVE_HYPERBOLIC:
        return 0
    if kind == NEGATIVE_HYPERBOLIC:
        return -k
    raise ValueError(f"unknown orbit kind {kind!r}; expected one of {_KINDS}")


def negative_hyperbolic_count(path: KLatticePath) -> int:
    """Number of negative hyperbolic orbits (two per half-arrow pair)."""
    return 2 * pair_count(path)


def relative_chern(alpha: KLatticePath, beta: KLatticePath) -> int:
    """(n_alpha - n_beta)/2 for the canonical relative class."""
    if total_class(alpha) != total_class(beta):
        raise PathSemanticsError("total classes differ; no relative class")
    return (negative_hyperbolic_count(alpha) - negative_hyperbolic_count(beta)) // 2


def q_tau(path: KLatticePath) -> int:
    """Self-intersection term: doubled area plus one per half-arrow pair."""
    return doubled_area(path) + pair_count(path)


def cz_total(path: KLatticePath) -> int:
    """Sum of conley_zehnder over all iterates of all orbits."""
    total = 0
    for g in path.groups:
        total += sum(conley_zehnder(ELLIPTIC, k) for k in range(1, g.e_mult + 1))
        if g.h_flag:
            total += conley_zehnder(POSITIVE_HYPERBOLIC, 1)
    total += 2 * pair_count(path) * conley_zehnder(NEGATIVE_HYPERBOLIC, 1)
    return total


def ech_index_decomposed(path: KLatticePath) -> int:
    """relative_chern + q_tau + total Conley-Zehnder; equals grading."""
    validate(path)
    return relative_chern(path, EMPTY_PATH) + q_tau(path) + cz_total(path)


class CurveData(NamedTuple):
    """Topological data of a curve between two orbit multisets."""

    genus: int
    alpha: KLatticePath
    beta: KLatticePath


def fredholm_index(c: CurveData) -> int:
    """2(g + e(alpha) - 1) + n_alpha + n_beta + h(alpha) + h(beta)."""
    return (
        2 * (c.genus + elliptic_factor_count(c.alpha) - 1)
        + negative_hyperbolic_count(c.alpha)
        + negative_hyperbolic_count(c.beta)
        + h_count(c.alpha)
        + h_count(c.beta)
    )


def j0_index(gen, side: str) -> int:
    """Secondary index: kpath I - e; convex I - 2(x+y) - e."""
    if side == "kpath":
        if not isinstance(gen, KLatticePath):
            raise TypeError("side='kpath' expects a lattice path")
        return grading(gen) - elliptic_factor_count(gen)
    if side == "convex":
        from .toric import ConvexGenerator, cg_grading, cg_x, cg_y

        if not isinstance(gen, ConvexGenerator):
            raise TypeError("side='convex' expects a convex generator")
        return cg_grading(gen) - 2 * (cg_x(gen) + cg_y(gen)) - elliptic_factor_count(gen)
    raise ValueError("side must be 'kpath' or 'convex'")


def partitions(kind: str, theta, m: int, sign: str = "+") -> tuple:
    """Multiplicity partition attached to an orbit end.

    Positive hyperbolic: all ones.  Negative hyperbolic: twos with a trailing
    one when m is odd.  Elliptic: horizontal displacements of the extremal
    lattice path pinched against the line y = theta*x - maximal concave below
    it for sign '+', minimal convex above it for sign '-'.
    """
    if m < 1:
        raise ValueError("multiplicity m must be >= 1")
    if kind == POSITIVE_HYPERBOLIC:
        return (1,) * m
    if kind == NEGATIVE_HYPERBOLIC:
        return (2,) * (m // 2) + ((1,) if m % 2 else ())
    if kind != ELLIPTIC:
        raise ValueError(f"unknown orbit kind {kind!r}; expected one of {_KINDS}")

    theta = float(theta)
    for d in range(1, m + 1):
        if abs(d * theta - round(d * theta)) <= TOL:
            raise ValueError(
                f"theta={theta} is rational to tolerance (denominator {d} <= {m})"
            )
    if sign == "+":
        # the upper hull, mirrored in the x axis; only x steps are read
        hull = lower_hull([(i, -math.floor(i * theta)) for i in range(m + 1)])
    elif sign == "-":
        hull = lower_hull([(i, math.ceil(i * theta)) for i in range(m + 1)])
    else:
        raise ValueError("sign must be '+' or '-'")
    displacements = [b[0] - a[0] for a, b in zip(hull, hull[1:])]
    return tuple(sorted(displacements, reverse=True))
