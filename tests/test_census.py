import gc
import hashlib
import math

import pytest

from _naive import boundary_matrix, h_free_path, naive_generators, naive_h_free_scan
from kech.census import (
    ComplexSlice,
    _directions,
    _skips,
    generators_up_to_action,
    grading_slice,
    scan_generators,
    spec_actions,
)
from kech.diff import differential
from kech.paths import TOL, action, build_path, format_path, grading, h_count, parse_path

CENSUS_I0 = ["0", "H-;H+"]
CENSUS_I1 = ["H-;h(1,1)", "h(1,-1);H+", "h(1,0);e(1,0)"]
CENSUS_I2 = [
    "H-;e(0,-1);e(0,1);H+",
    "H-;e(1,1)",
    "e(0,-1);e(0,1)",
    "e(1,-1);H+",
    "e(1,0)^2",
    "h(1,-1);h(1,1)",
]


def specs_of_grading(k, bound):
    return sorted(format_path(p) for p in grading_slice(k, bound).generators(k))


def test_low_index_census():
    assert specs_of_grading(0, 5.0) == sorted(CENSUS_I0)
    assert specs_of_grading(1, 5.0) == sorted(CENSUS_I1)
    assert specs_of_grading(2, 5.0) == sorted(CENSUS_I2)


def test_census_stable_under_larger_bound():
    assert specs_of_grading(0, 8.0) == sorted(CENSUS_I0)
    assert specs_of_grading(1, 8.0) == sorted(CENSUS_I1)
    assert specs_of_grading(2, 8.0) == sorted(CENSUS_I2)


def test_slice_sizes_frozen():
    assert sum(1 for _ in generators_up_to_action(2.0).all_generators()) == 5
    assert sum(1 for _ in generators_up_to_action(5.0).all_generators()) == 137
    assert sum(1 for _ in generators_up_to_action(8.0).all_generators()) == 2517


def test_enumeration_matches_naive_box_oracle():
    for bound in (2.0, 3.0, 4.0):
        naive = naive_generators(bound)
        scanned = {format_path(p)
                   for p in generators_up_to_action(bound).all_generators()}
        assert scanned == naive, bound


def test_slice_respects_action_bound_and_grading():
    sl = generators_up_to_action(4.0)
    for k in sl.degrees():
        for p in sl.generators(k):
            assert grading(p) == k
            assert action(p) <= 4.0 + 1e-9


def test_slice_specs_sorted_and_unique():
    sl = generators_up_to_action(4.0)
    for k in sl.degrees():
        specs = [format_path(p) for p in sl.generators(k)]
        assert specs == sorted(specs)
        assert len(specs) == len(set(specs))


def test_slice_shares_groups_and_keeps_each_spec():
    sl = generators_up_to_action(10.0)
    groups = [g for p in sl.all_generators() for g in p.groups]
    assert len({id(g) for g in groups}) == len(set(groups)) < len(groups)
    for k in sl.degrees():
        specs = sl.specs(k)
        assert list(specs) == [format_path(p) for p in sl.generators(k)]
        assert all(a < b for a, b in zip(specs, specs[1:])), k
    for k in (0, 2, 5, 10, 20):
        one = grading_slice(k, 10.0)
        assert one.degrees() == [k]
        assert one.specs(k) == sl.specs(k) and one.generators(k) == sl.generators(k)


def _path_actions(sl):
    """{grading: {spec: paths.action(path)}} of a slice, in its own order."""
    return {k: {spec: action(path) for spec, path in sl.per_degree[k].items()}
            for k in sl.degrees()}


def _assert_same_actions(got, expected):
    # the same gradings in order, the same specs in order, and each action
    # the same float (==, not approximately)
    assert list(got) == list(expected)
    for k in expected:
        assert list(got[k].items()) == list(expected[k].items()), k


def test_spec_actions_equal_path_actions_on_the_whole_slice():
    expected = _path_actions(generators_up_to_action(9.0))
    assert sum(len(v) for v in expected.values()) > 5000
    _assert_same_actions(spec_actions(9.0), expected)


@pytest.mark.parametrize("k", [0, 7, 20])
def test_spec_actions_equal_path_actions_on_one_grading(k):
    expected = _path_actions(grading_slice(k, 9.0))
    assert list(expected) == [k]
    _assert_same_actions(spec_actions(9.0, grading=k), expected)


def test_scan_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        assert generators_up_to_action(3.0).count() == 17
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_grading_capped_scan_is_a_prefix():
    full = generators_up_to_action(5.0)
    capped = generators_up_to_action(5.0, max_grading=3)
    for k in capped.degrees():
        assert k <= 3
        assert capped.generators(k) == full.generators(k)
    assert set(capped.degrees()) == {k for k in full.degrees() if k <= 3}


def test_action_is_at_most_grading_plus_two():
    # every generator of the uncapped slice obeys the capped scan's budget
    for p in generators_up_to_action(10.0).all_generators():
        assert action(p) <= grading(p) + 2 + TOL, format_path(p)


def test_wall_family_reaches_the_action_budget():
    # H-;e(0,-1)^n;e(0,1)^n;H+ has grading 2n and action exactly 2n + 2
    for n in range(21):
        p = build_path(True, True, n, n, [])
        assert (grading(p), action(p)) == (2 * n, 2 * n + 2.0)
        if n <= 4:
            assert p in grading_slice(2 * n, 2 * n + 2.0).generators(2 * n)


def test_h_free_scan_filters_labels():
    # half-arrow pairs survive the filter; only h edge labels are excluded
    full = generators_up_to_action(4.0)
    expect = {format_path(p) for p in full.all_generators() if h_count(p) == 0}
    got = set()

    def emit(sp, ep, m, n, chosen, marked, deg, total):
        got.add(format_path(h_free_path(sp, ep, m, n, chosen)))

    naive_h_free_scan(4.0, emit)
    assert got == expect


def test_count_helper():
    sl = generators_up_to_action(2.0)
    assert sl.count() == 5
    assert len(sl.generators(0)) == 2
    assert len(sl.generators(1)) == 1
    assert len(sl.generators(2)) == 2


def test_boundary_matrix_shapes_and_entries():
    m = boundary_matrix(2, 3.0)
    rows = grading_slice(1, 3.0).generators(1)
    cols = grading_slice(2, 3.0).generators(2)
    assert m.shape == (len(rows), len(cols))
    assert m.rows == rows and m.cols == cols
    for j, col in enumerate(cols):
        terms = {format_path(t) for t in differential(col)}
        for i, row in enumerate(rows):
            bit = (m.columns[j] >> i) & 1
            assert bit == (1 if format_path(row) in terms else 0)


def test_boundary_matrix_column_weight_of_worked_example():
    m = boundary_matrix(2, 3.0)
    cols = [format_path(p) for p in grading_slice(2, 3.0).generators(2)]
    j = cols.index("h(1,-1);h(1,1)")
    assert bin(m.columns[j]).count("1") == 3


# (max_action, max_grading, h_free) -> (emits, sha256 of the emit sequence);
# the h-free cases run the scan kept as the capacity oracle in _naive
SCAN_DIGESTS = {
    (10.0, None, False): (
        14773, "c91588e72057c639cc1c2cef15b9b6bebd9e1b0a82d775b1a7210b5b12b4f40b"),
    (32.0, 9, False): (
        375, "87d8f8a0cb205764834864c8a7b3677074de0e56b37309737977e65b5a93d147"),
    (8.0, None, True): (
        488, "38faeb65db62fe360aa5ce67172ed2b1980ea43722f2bf9de72cfc825585c409"),
    (13.7, 64, True): (
        27960, "a3a839d0f82e2c42776fd67b6a3930279f955e65e723b49cf0ee5ab362d5b031"),
}


def test_scan_emit_sequence_digests():
    # the scan's raw emit order, not just the set of generators, is frozen
    for case, expected in SCAN_DIGESTS.items():
        max_action, max_grading, h_free = case
        digest = hashlib.sha256()
        emits = 0

        def emit(sp, ep, m, n, chosen, marked, deg, total):
            nonlocal emits
            emits += 1
            digest.update(("%d %d %d %d %r %r %d %r\n" % (
                sp, ep, m, n, tuple(chosen), tuple(sorted(marked)), deg, total)
            ).encode())

        scan = naive_h_free_scan if h_free else scan_generators
        scan(max_action, emit, max_grading)
        assert (emits, digest.hexdigest()) == expected, case


def test_skip_runs_cannot_beat_their_head():
    # the scan jumps from dirs[i] to dirs[skip[i]] when dirs[i] fails the
    # action budget or the t = 1 grading bound; both grow over the run
    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    for cap in range(3, 13):
        dirs = _directions(cap)
        norms2 = [q * q + p * p for q, p in dirs]
        skip = _skips(norms2)
        assert any(s > i + 1 for i, s in enumerate(skip)), cap
        for i, d in enumerate(dirs):
            assert i < skip[i] <= len(dirs)
            if skip[i] < len(dirs):
                assert norms2[skip[i]] < norms2[i]
            for j in range(i + 1, skip[i]):
                assert norms2[j] >= norms2[i], (cap, d, dirs[j])
                for k in range(i):
                    assert cross(dirs[k], dirs[j]) >= cross(dirs[k], d), (
                        cap, dirs[k], d, dirs[j])
