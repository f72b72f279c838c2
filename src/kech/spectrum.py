"""Action spectrum of the complex: capacities and the growth diagnostic.

The k-th capacity is the least action among valid generators of grading 2k.
Minimizers are always found among h-free generators, so the search enumerates
those only.  It scans in passes at a rising action cap, starting at the
isoperimetric floor for c_kmax derived below and ending by 2*kmax, where the
witness e(0,-1)^k;e(0,1)^k fills every bucket.  Each pass is exact wherever
it starts: it holds every generator up to its cap, so a bucket it fills
already has its global minimum, and the first pass that fills all buckets
ends the search.

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

from dataclasses import dataclass
from math import pi, sqrt

from .census import build_generator, scan_generators
from .paths import EMPTY_PATH, TOL, KLatticePath, action, format_path

#: Reference contact volume of the unit cotangent bundle: the coordinate
#: torus has volume 2*pi^2 per unit angle band, and the orientation double
#: cover halves it to give integral(lambda ^ dlambda) = pi.  The expected
#: limit of c_k^2/k is twice this, 2*pi (see the module docstring).
REFERENCE_CONTACT_VOLUME = pi


@dataclass(frozen=True)
class CapacityResult:
    k: int
    value: float
    witness: KLatticePath


def _bucket_minima(kmax: int):
    """Minimal action and witness for every grading 2k, k <= kmax."""
    if kmax < 0:
        raise ValueError("capacity index must be nonnegative")
    # the isoperimetric floor for c_kmax; see the module docstring
    cap = min(2.0 * kmax, (-pi + sqrt(pi * pi + 8.0 * pi * kmax)) / 2.0)
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
            return {k: CapacityResult(k, action(p), p)
                    for k, (_, _, p) in best.items()}
        if cap >= 2.0 * kmax:
            raise AssertionError("capacity bucket empty below its own witness")
        cap = min(cap + 0.5, 2.0 * kmax)


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
