import hashlib
import math

import pytest

from _naive import naive_bucket_minima, naive_generators
from kech.census import generators_up_to_action
from kech.paths import TOL, action, format_path, grading, parse_path
from kech.spectrum import (
    REFERENCE_CONTACT_VOLUME,
    CapacityResult,
    _bucket_minima,
    _dp_pass,
    _exact_action,
    _exact_less,
    _exact_sum,
    _sign,
    capacity,
    capacity_series,
    weyl_series,
)

SQ2 = math.sqrt(2.0)

FROZEN_CAPACITIES = {
    0: 0.0,
    1: 2.0,
    2: 2.0 * SQ2,
    3: 2.0 + SQ2,
    4: 4.0,
    5: 2.0 + 2.0 * SQ2,
}


def test_capacity_zero():
    res = capacity(0)
    assert res.value == 0.0
    assert format_path(res.witness) == "0"
    assert res.k == 0


def test_frozen_capacity_values():
    for k, value in FROZEN_CAPACITIES.items():
        res = capacity(k)
        assert abs(res.value - value) < 1e-9, k


def test_capacity_witnesses_realize_their_value():
    for k in range(9):
        res = capacity(k)
        assert grading(res.witness) == 2 * k
        assert abs(action(res.witness) - res.value) < 1e-12


def test_capacity_one_and_four_witnesses():
    assert format_path(capacity(1).witness) == "e(0,-1);e(0,1)"
    assert format_path(capacity(4).witness) == "e(0,-1);e(1,0)^2;e(0,1)"


def test_capacity_against_naive_box_oracle():
    # independent search: every generator of action <= 5 from the box
    # enumeration, bucketed by grading; complete for any minimum below 5
    best = {}
    for spec in naive_generators(5.0):
        p = parse_path(spec)
        deg = grading(p)
        if deg % 2 == 0:
            best[deg // 2] = min(best.get(deg // 2, math.inf), action(p))
    for k in range(5):
        assert abs(capacity(k).value - best[k]) < 1e-12, k


def test_capacity_nondecreasing_and_linear_bound():
    series = capacity_series(12)
    for prev, cur in zip(series, series[1:]):
        assert cur.value >= prev.value - 1e-12
    for res in series[1:]:
        assert res.value <= 2.0 * res.k + 1e-12


def test_grading_obeys_isoperimetric_bound():
    # reflecting the region across the axis gives area doubled_area and
    # perimeter 2*action, so doubled_area <= action^2/pi; each full arrow
    # has length >= 1, so m <= action and h >= 0 only lowers the grading
    n = 0
    for p in generators_up_to_action(8.0).all_generators():
        ell = action(p)
        assert grading(p) <= ell * ell / math.pi + ell + 1e-9, format_path(p)
        n += 1
    assert n > 1000


def test_capacities_sit_above_isoperimetric_floor():
    # c_k^2/pi + c_k >= 2k puts c_k at or above the positive root of
    # c^2 + pi*c - 2*pi*k
    for res in capacity_series(12)[1:]:
        floor = (-math.pi + math.sqrt(math.pi ** 2 + 8.0 * math.pi * res.k)) / 2
        assert res.value >= floor - 1e-12, res.k


def test_capacity_series_matches_pointwise():
    series = capacity_series(8)
    assert [r.k for r in series] == list(range(9))
    for res in series:
        single = capacity(res.k)
        assert single.value == res.value
        assert format_path(single.witness) == format_path(res.witness)


def isoperimetric_floor(k):
    return (-math.pi + math.sqrt(math.pi ** 2 + 8.0 * math.pi * k)) / 2


def test_sign_decides_a_pell_near_tie():
    # 768398401^2 - 2 * 543339720^2 = 1: the two differ by about 6.5e-10,
    # inside the float tie window, and the integer is the larger
    a, b = _exact_sum([(768398401, 1)]), _exact_sum([(543339720, 2)])
    assert abs(768398401 - 543339720 * SQ2) < TOL
    assert _sign({1: 768398401, 2: -543339720}) == 1
    assert _sign({1: -768398401, 2: 543339720}) == -1
    assert _exact_less(b, a) and not _exact_less(a, b)
    assert _sign({}) == 0


def test_exact_keys_merge_square_factors():
    assert _exact_sum([(1, 18)]) == _exact_sum([(3, 2)]) == {2: 3}
    assert _exact_sum([(2, 8), (-4, 2), (1, 25)]) == {1: 5}
    assert _exact_action(parse_path("H-;e(1,-1)^2;e(1,2);e(0,1)")) == {
        1: 2, 2: 2, 5: 1}


@pytest.mark.parametrize("kmax", list(range(1, 13)) + [20, 34])
def test_capacity_series_matches_the_scan_oracle(kmax):
    # the h-free scan and pass loop that the dynamic program replaced
    naive = naive_bucket_minima(kmax)
    series = capacity_series(kmax)
    for res in series[1:]:
        assert format_path(res.witness) == format_path(naive[res.k]), res.k
        assert res.value == action(naive[res.k]), res.k


def test_growth_stays_between_floor_and_volume_limit():
    series = capacity_series(100)
    for res in series[1:]:
        ratio = res.value ** 2 / res.k
        assert isoperimetric_floor(res.k) ** 2 / res.k - 1e-9 <= ratio, res.k
        assert ratio <= 2.0 * math.pi + 0.3, res.k
        assert grading(res.witness) == 2 * res.k
    assert round(series[100].value, 4) == 24.3492


def test_capacity_series_100_digest():
    # frozen values and witnesses of c_0..c_100, written as the kmax 50
    # digest of the acceptance gate is
    rows = "\n".join("%d %r %s" % (res.k, res.value, format_path(res.witness))
                     for res in capacity_series(100))
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "4977204f207144beb591a8e03b1e52d6e0f927f3886e99617742de8e3b95d680")


def test_cap_rise_from_below_ends_at_the_same_series():
    kmax = 24
    low = capacity_series(kmax)[kmax].value - 1.5
    # a pass at this cap leaves the top buckets empty, so the cap must rise
    assert len(_dp_pass(kmax, low)) < kmax + 1
    risen = _bucket_minima(kmax, cap=low)
    default = _bucket_minima(kmax)
    assert risen.keys() == default.keys()
    for k, res in default.items():
        assert risen[k].value == res.value, k
        assert risen[k].witness == res.witness, k


def test_capacity_rejects_negative_index():
    with pytest.raises(ValueError):
        capacity(-1)
    with pytest.raises(ValueError):
        capacity_series(-2)


def test_weyl_series_shape_and_values():
    rows = weyl_series(5)
    assert [k for k, _, _ in rows] == [1, 2, 3, 4, 5]
    for k, value, ratio in rows:
        assert abs(value - FROZEN_CAPACITIES[k]) < 1e-9
        assert abs(ratio - value * value / k) < 1e-12
    assert abs(rows[0][2] - 4.0) < 1e-12
    assert abs(rows[4][2] - (12.0 + 8.0 * SQ2) / 5.0) < 1e-9


def test_weyl_requires_positive_kmax():
    with pytest.raises(ValueError):
        weyl_series(0)


def test_reference_volume_constant():
    assert REFERENCE_CONTACT_VOLUME == math.pi


def test_capacity_result_is_frozen():
    res = capacity(1)
    assert isinstance(res, CapacityResult)
    with pytest.raises(Exception):
        res.value = 0.0
