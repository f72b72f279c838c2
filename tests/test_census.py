import math

import pytest

from _naive import naive_generators
from kech.census import (
    BitMatrix,
    ComplexSlice,
    boundary_matrix,
    generators_of_grading,
    generators_up_to_action,
)
from kech.diff import differential
from kech.paths import action, format_path, grading, h_count, parse_path

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
    return sorted(format_path(p) for p in generators_of_grading(k, bound))


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


def test_grading_capped_scan_is_a_prefix():
    full = generators_up_to_action(5.0)
    capped = generators_up_to_action(5.0, max_grading=3)
    for k in capped.degrees():
        assert k <= 3
        assert capped.generators(k) == full.generators(k)
    assert set(capped.degrees()) == {k for k in full.degrees() if k <= 3}


def test_h_free_scan_filters_labels():
    # half-arrow pairs survive the filter; only h edge labels are excluded
    full = generators_up_to_action(4.0)
    hfree = generators_up_to_action(4.0, h_free=True)
    expect = {format_path(p) for p in full.all_generators() if h_count(p) == 0}
    got = {format_path(p) for p in hfree.all_generators()}
    assert got == expect


def test_count_helper():
    sl = generators_up_to_action(2.0)
    assert sl.count() == 5
    assert len(sl.generators(0)) == 2
    assert len(sl.generators(1)) == 1
    assert len(sl.generators(2)) == 2


def test_boundary_matrix_shapes_and_entries():
    m = boundary_matrix(2, 3.0)
    rows = generators_of_grading(1, 3.0)
    cols = generators_of_grading(2, 3.0)
    assert m.shape == (len(rows), len(cols))
    assert m.rows == rows and m.cols == cols
    for j, col in enumerate(cols):
        terms = {format_path(t) for t in differential(col)}
        for i, row in enumerate(rows):
            bit = (m.columns[j] >> i) & 1
            assert bit == (1 if format_path(row) in terms else 0)


def test_boundary_matrix_column_weight_of_worked_example():
    m = boundary_matrix(2, 3.0)
    cols = [format_path(p) for p in generators_of_grading(2, 3.0)]
    j = cols.index("h(1,-1);h(1,1)")
    assert bin(m.columns[j]).count("1") == 3
