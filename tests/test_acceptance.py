"""Acceptance gate: one test per shipped criterion, one line of output each.

Run with `pytest -v` to get a per-criterion pass/fail listing from the test
ids; each test also prints a CRITERION line with the measured details.
Criterion 8 checks that c_k^2/k nears 2 * REFERENCE_CONTACT_VOLUME, the
limit of the ECH volume property; the isoperimetric floor behind that target
is derived in the README's growth-diagnostic section.
"""

import hashlib
import time

from _naive import naive_factor_splits, naive_generators
from kech.census import generators_up_to_action, grading_slice
from kech.diff import differential
from kech.homology import d_squared_report, stabilized_betti
from kech.indexes import ech_index_decomposed
from kech.paths import (
    EdgeGroup,
    action,
    build_path,
    format_path,
    grading,
    grading_lattice,
    h_count,
    parse_path,
)
from kech.spectrum import REFERENCE_CONTACT_VOLUME, capacity_series, weyl_series
from kech.obstruction import factorizations, gromov_upper
from kech.toric import ToricDomain
from kech.toric_dp import toric_capacity_detail

_SERIES = {}


def series50():
    if "v" not in _SERIES:
        _SERIES["v"] = capacity_series(50)
    return _SERIES["v"]


def report(num, desc, ok, detail=""):
    print("CRITERION %d %s: %s%s"
          % (num, desc, "PASS" if ok else "FAIL", "  (%s)" % detail if detail else ""))
    return ok


def test_criterion_01_differential_squares_to_zero():
    t0 = time.monotonic()
    violations = d_squared_report(8.0)
    elapsed = time.monotonic() - t0
    n = sum(1 for _ in generators_up_to_action(8.0).all_generators())
    ok = violations == [] and elapsed < 60.0 and n > 1000
    assert report(1, "d squared is zero on the action-8 slice", ok,
                  "%d generators, %d violations, %.1fs" % (n, len(violations), elapsed))


def test_criterion_02_low_index_census():
    expect = {
        0: ["0", "H-;H+"],
        1: ["H-;h(1,1)", "h(1,-1);H+", "h(1,0);e(1,0)"],
        2: ["H-;e(0,-1);e(0,1);H+", "H-;e(1,1)", "e(0,-1);e(0,1)",
            "e(1,-1);H+", "e(1,0)^2", "h(1,-1);h(1,1)"],
    }
    got = {k: sorted(format_path(p) for p in grading_slice(k, 5.0).generators(k))
           for k in expect}
    ok = got == {k: sorted(v) for k, v in expect.items()}
    assert report(2, "low-index census is 2/3/6 with exact specs", ok,
                  "sizes %s" % [len(got[k]) for k in (0, 1, 2)])


def test_criterion_03_small_differentials():
    d = lambda s: sorted(format_path(t) for t in differential(parse_path(s)))
    checks = [
        d("h(1,0);e(1,0)") == [],
        d("h(1,-1);H+") == ["H-;H+"],
        d("H-;h(1,1)") == ["H-;H+"],
        d("h(1,-1);h(1,1)") == ["H-;h(1,1)", "h(1,-1);H+", "h(1,0);e(1,0)"],
    ]
    assert report(3, "frozen grading-1/2 differentials match", all(checks),
                  "%d/4 exact" % sum(checks))


def test_criterion_04_index_routes_agree():
    sl = generators_up_to_action(6.0)
    n = bad = 0
    for p in sl.all_generators():
        n += 1
        deg = grading(p)
        if not (deg == grading_lattice(p) == ech_index_decomposed(p)
                and (deg - h_count(p)) % 2 == 0):
            bad += 1
    ok = bad == 0 and n > 300
    assert report(4, "three index routes and parity agree to action 6", ok,
                  "%d generators, %d mismatches" % (n, bad))


def test_criterion_05_differential_bookkeeping():
    sl = generators_up_to_action(6.0)
    n = bad = 0
    for p in sl.all_generators():
        base_deg, base_act = grading(p), action(p)
        for term in differential(p):
            n += 1
            if not (grading(term) == base_deg - 1
                    and action(term) < base_act - 1e-9):
                bad += 1
    ok = bad == 0 and n > 200
    assert report(5, "every output term drops index 1 and action", ok,
                  "%d terms, %d violations" % (n, bad))


def test_criterion_06_homology_stabilizes_at_one():
    t0 = time.monotonic()
    results = {k: stabilized_betti(k) for k in range(9)}
    elapsed = time.monotonic() - t0
    ok = (all(v == 1 for v, _ in results.values())
          and all(b <= 16.0 for _, b in results.values())
          and elapsed < 600.0)
    assert report(6, "stabilized betti is 1 in degrees 0..8 by action 16", ok,
                  "values %s, %.1fs" % (sorted({v for v, _ in results.values()}), elapsed))


def test_criterion_07_spectrum_start_and_growth():
    series = series50()
    oracle_c1 = min(action(parse_path(s)) for s in naive_generators(3.0)
                    if grading(parse_path(s)) == 2)
    checks = [
        series[0].value == 0.0,
        abs(series[1].value - 2.0) < 1e-9,
        abs(series[1].value - oracle_c1) < 1e-9,
        all(series[k].value <= 2.0 * k + 1e-9 for k in range(1, 31)),
        all(series[k + 1].value >= series[k].value - 1e-12 for k in range(50)),
    ]
    assert report(7, "capacities start 0,2, stay below 2k, nondecrease",
                  all(checks), "c1 oracle %.6f" % oracle_c1)


def test_capacity_series_50_digest():
    # frozen values and witnesses of c_0..c_50: the search may change, its
    # answers may not
    rows = "\n".join("%d %r %s" % (res.k, res.value, format_path(res.witness))
                     for res in series50())
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "d84c02959e4cead20404bdf5da0f4a82abd59ca49e804730dc1eb342171572e0")


def test_criterion_08_weyl_growth_trend():
    rows = {k: ratio for k, _, ratio in weyl_series(40)}
    r5, r40 = rows[5], rows[40]
    target = 2.0 * REFERENCE_CONTACT_VOLUME
    in_band = 5.2 <= r40 <= 7.6
    closer = abs(r40 - target) < abs(r5 - target)
    assert report(8, "squared-capacity growth nears the volume constant",
                  in_band and closer,
                  "c5^2/5=%.4f c40^2/40=%.4f target 2vol=%.4f"
                  % (r5, r40, target))


def test_criterion_09_gromov_bound_pipeline():
    t0 = time.monotonic()
    rep = gromov_upper(100)
    elapsed = time.monotonic() - t0
    bounds = [r.bound for r in rep.records]
    ok = (all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
          and all(b > 1.0 for b in bounds)
          and rep.infimum <= 1.02
          and elapsed < 300.0)
    assert report(9, "embedding bounds fall strictly to within 2% of 1", ok,
                  "infimum %.6f, %.1fs" % (rep.infimum, elapsed))


def test_criterion_10_capacities_cannot_see_width_one():
    series = series50()
    ball = ToricDomain.ball(1.0)
    worst = min(series[k].value / toric_capacity_detail(ball, k)[0]
                for k in range(1, 51))
    ok = worst >= 1.2 - 1e-6
    assert report(10, "capacity ratio against the unit ball stays >= 1.2", ok,
                  "min ratio %.6f" % worst)


def test_criterion_11_oracle_equivalence():
    enum_ok = True
    for bound in (2.0, 3.0, 4.0):
        scanned = {format_path(p)
                   for p in generators_up_to_action(bound).all_generators()}
        if scanned != naive_generators(bound):
            enum_ok = False
    split_ok = True
    for spec in ["0", "e(0,-1);e(0,1)", "e(0,-1);e(1,0)^2;e(0,1)",
                 "H-;e(0,-1)^2;e(1,0);e(0,1)^3", "H-;e(1,-1);e(0,1)^2",
                 "e(0,-1)^2;e(1,-2);e(1,-1);e(1,1);e(1,2);e(0,1)^2"]:
        path = parse_path(spec)
        got = {tuple(sorted(format_path(x) for x in f))
               for f in factorizations(path)}
        if got != naive_factor_splits(path):
            split_ok = False
    assert report(11, "enumeration and factorization match naive oracles",
                  enum_ok and split_ok,
                  "enumeration %s, splits %s" % (enum_ok, split_ok))
