"""Action spectrum of the complex: capacities and the growth diagnostic.

The k-th capacity is the least action among valid generators of grading 2k.
Minimizers are always found among h-free generators, so the search enumerates
those only; it is exact because any slice that contains one grading-2k
generator already contains the global minimizer (action bounds are nested and
the witness e(0,-1)^k;e(0,1)^k caps the minimum at 2k).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

from .census import build_generator, scan_generators
from .paths import EMPTY_PATH, TOL, KLatticePath, action, format_path

#: Reference contact volume of the unit cotangent bundle: the coordinate
#: torus has volume 2*pi^2 per unit angle band, and the orientation double
#: cover halves it to give integral(lambda ^ dlambda) = pi.
REFERENCE_CONTACT_VOLUME = pi


@dataclass(frozen=True)
class CapacityResult:
    k: int
    value: float
    witness: KLatticePath


_MINIMA_CACHE = {"kmax": -1, "minima": {}}


def _bucket_minima(kmax: int):
    """Minimal action and witness for every grading 2k, k <= kmax."""
    if kmax < 0:
        raise ValueError("capacity index must be nonnegative")
    if kmax <= _MINIMA_CACHE["kmax"]:
        return {k: _MINIMA_CACHE["minima"][k] for k in range(kmax + 1)}
    cap = min(2.0 * max(kmax, 1), float(int(sqrt(7.0 * max(kmax, 1))) + 2))
    while True:
        best = {}

        def emit(sp, ep, m, n, chosen, marked, deg, total):
            k = deg // 2
            if k > kmax:
                return
            incumbent = best.get(k)
            if incumbent is not None and total > incumbent[0] + TOL:
                return
            path = build_generator(sp, ep, m, n, chosen, marked)
            spec = format_path(path)
            if incumbent is None or total < incumbent[0] - TOL:
                best[k] = (total, spec, path)
            elif spec < incumbent[1]:
                best[k] = (min(total, incumbent[0]), spec, path)

        scan_generators(cap, emit, max_grading=2 * kmax, h_free=True)
        if len(best) == kmax + 1:
            out = {k: CapacityResult(k, action(p), p)
                   for k, (_, _, p) in best.items()}
            _MINIMA_CACHE["kmax"] = kmax
            _MINIMA_CACHE["minima"] = out
            return dict(out)
        if cap >= 2.0 * kmax:
            raise AssertionError("capacity bucket empty below its own witness")
        cap = min(cap + 2.0, 2.0 * kmax)


def capacity(k: int) -> CapacityResult:
    """Least action among generators of grading 2k, with its witness."""
    if k < 0:
        raise ValueError("capacity index must be nonnegative")
    if k == 0:
        return CapacityResult(0, 0.0, EMPTY_PATH)
    return _bucket_minima(k)[k]


def capacity_series(kmax: int):
    """CapacityResults for k = 0 .. kmax, sharing one enumeration."""
    if kmax < 0:
        raise ValueError("capacity index must be nonnegative")
    minima = _bucket_minima(kmax) if kmax >= 1 else {}
    minima[0] = CapacityResult(0, 0.0, EMPTY_PATH)
    return [minima[k] for k in range(kmax + 1)]


def weyl_series(kmax: int):
    """Rows (k, c_k, c_k^2 / k) for k = 1 .. kmax."""
    if kmax < 1:
        raise ValueError("need at least one capacity for the growth series")
    rows = []
    for res in capacity_series(kmax)[1:]:
        rows.append((res.k, res.value, res.value * res.value / res.k))
    return rows
