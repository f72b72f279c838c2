import math

import pytest

from kech.indexes import (
    ELLIPTIC,
    NEGATIVE_HYPERBOLIC,
    POSITIVE_HYPERBOLIC,
    CurveData,
    conley_zehnder,
    cz_total,
    ech_index_decomposed,
    fredholm_index,
    j0_index,
    negative_hyperbolic_count,
    partitions,
    q_tau,
    relative_chern,
)
from kech.census import generators_up_to_action
from kech.paths import EMPTY_PATH, elliptic_factor_count, grading, h_count, parse_path
from kech.toric import CgClass, make_convex_generator


def test_conley_zehnder_values():
    assert [conley_zehnder(ELLIPTIC, k) for k in (1, 2, 5)] == [1, 1, 1]
    assert [conley_zehnder(POSITIVE_HYPERBOLIC, k) for k in (1, 3)] == [0, 0]
    assert [conley_zehnder(NEGATIVE_HYPERBOLIC, k) for k in (1, 2, 4)] == [-1, -2, -4]
    with pytest.raises(ValueError):
        conley_zehnder(ELLIPTIC, 0)
    with pytest.raises(ValueError):
        conley_zehnder("parabolic", 1)


def test_orbit_counts():
    p = parse_path("H-;e(0,-1);h(1,2)")
    assert negative_hyperbolic_count(p) == 2
    assert h_count(p) == 1
    assert elliptic_factor_count(p) == 1
    q = parse_path("h(1,0);e(1,0)")
    # one group carrying both labels counts once as an elliptic factor
    assert elliptic_factor_count(q) == 1
    assert h_count(q) == 1


def test_decomposition_terms_small():
    p = parse_path("h(1,0);e(1,0)")
    assert relative_chern(p, EMPTY_PATH) == 0
    assert q_tau(p) == 0
    assert cz_total(p) == 1
    q = parse_path("h(1,-1);h(1,1)")
    assert q_tau(q) == 2
    assert cz_total(q) == 0
    r = parse_path("H-;H+")
    assert relative_chern(r, EMPTY_PATH) == 2
    assert q_tau(r) == 2
    assert cz_total(r) == -4


def test_relative_chern_needs_matching_class():
    # all valid paths share the trivial class; force a mismatch with a raw
    # unvalidated single-arrow path
    from kech.paths import EdgeGroup, KLatticePath, PathSemanticsError

    crooked = KLatticePath(False, False, (EdgeGroup(1, 0, 1, False),))
    with pytest.raises(PathSemanticsError):
        relative_chern(crooked, EMPTY_PATH)


def test_decomposed_index_equals_grading_on_slice():
    sl = generators_up_to_action(4.5)
    seen = 0
    for p in sl.all_generators():
        assert ech_index_decomposed(p) == grading(p)
        seen += 1
    assert seen > 50


def test_fredholm_index_examples():
    a = parse_path("h(1,0);e(1,0)")
    assert fredholm_index(CurveData(0, a, parse_path("0"))) == 1
    b = parse_path("H-;H+")
    assert fredholm_index(CurveData(0, b, parse_path("0"))) == 2
    assert fredholm_index(CurveData(1, b, b)) == 8


def test_j0_kpath():
    assert j0_index(parse_path("h(1,0);e(1,0)"), "kpath") == 0
    assert j0_index(parse_path("H-;H+"), "kpath") == 0
    assert j0_index(parse_path("e(1,0)^2"), "kpath") == 1


def test_j0_convex():
    assert j0_index(make_convex_generator([CgClass(1, 1, 1, False)]), "convex") == -1
    assert j0_index(make_convex_generator([CgClass(1, 0, 1, False)]), "convex") == -1
    with pytest.raises(ValueError):
        j0_index(parse_path("0"), "elsewhere")
    with pytest.raises(TypeError):
        j0_index(parse_path("0"), "convex")


def test_partitions_hyperbolic():
    assert partitions(POSITIVE_HYPERBOLIC, 0.0, 4) == (1, 1, 1, 1)
    assert partitions(NEGATIVE_HYPERBOLIC, 0.0, 5) == (2, 2, 1)
    assert partitions(NEGATIVE_HYPERBOLIC, 0.0, 4) == (2, 2)
    assert partitions(POSITIVE_HYPERBOLIC, 0.0, 1) == (1,)


def test_partitions_elliptic_near_sqrt2():
    theta = math.sqrt(2.0) - 1.0
    assert partitions(ELLIPTIC, theta, 5, "+") == (5,)
    assert partitions(ELLIPTIC, theta, 5, "-") == (4, 1)
    assert partitions(ELLIPTIC, theta, 3, "+") == (3,)
    assert partitions(ELLIPTIC, theta, 3, "-") == (2, 1)


def test_partitions_elliptic_sum_and_monotone():
    theta = 1.0 / math.pi
    for m in range(1, 12):
        for sign in ("+", "-"):
            part = partitions(ELLIPTIC, theta, m, sign)
            assert sum(part) == m
            assert list(part) == sorted(part, reverse=True)


def test_partitions_rejects_rational_theta():
    with pytest.raises(ValueError):
        partitions(ELLIPTIC, 0.5, 4)
    with pytest.raises(ValueError):
        partitions(ELLIPTIC, 2.0 / 3.0, 3)
    # same denominators are fine when m stays below them
    assert sum(partitions(ELLIPTIC, 1.0 / 7.0, 3, "+")) == 3


def test_partitions_bad_arguments():
    with pytest.raises(ValueError):
        partitions(ELLIPTIC, 0.3183, 0)
    with pytest.raises(ValueError):
        partitions("parabolic", 0.3183, 2)
    with pytest.raises(ValueError):
        partitions(ELLIPTIC, 0.3183, 2, "*")
