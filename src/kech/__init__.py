"""Combinatorial chain complex of closed geodesics on the flat Klein bottle.

Lattice-path generators with elliptic/hyperbolic edge labels, their integer
grading and action, a GF(2) differential built from corner rounding and
half-arrow pair moves, action-filtered homology and the resulting capacity
spectrum, plus the convex-toric-domain embedding obstruction pipeline.
"""

__version__ = "1.0.0"
