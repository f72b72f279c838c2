import hashlib
import math

import pytest

from _naive import naive_differential, naive_end_moves, naive_round_interior
import kech.diff
from kech.census import generators_up_to_action
from kech.diff import Chain, c_op, d_op, differential, round_interior
from kech.paths import (
    TOL,
    EdgeGroup,
    KLatticePath,
    action,
    build_path,
    format_path,
    grading,
    is_valid,
    parse_path,
    validate,
)


def chain_specs(chain):
    return sorted(format_path(t) for t in chain)


# spec -> sorted differential term specs; frozen
DIFFERENTIAL_ORACLE = {
    "0": [],
    "H-;H+": [],
    "h(1,0);e(1,0)": [],
    "e(1,0)^2": [],
    "e(0,-1);e(0,1)": [],
    "h(1,-1);H+": ["H-;H+"],
    "H-;h(1,1)": ["H-;H+"],
    "h(1,-1);h(1,1)": ["H-;h(1,1)", "h(1,-1);H+", "h(1,0);e(1,0)"],
    "H-;e(0,-1);h(1,2)": ["H-;e(0,-1);e(0,1);H+", "H-;e(1,1)"],
    "e(1,-1);h(1,1)": ["e(1,-1);H+", "e(1,0)^2"],
    "h(1,-1);e(1,1)": ["H-;e(1,1)", "e(1,0)^2"],
    "e(0,-1);h(2,1)": ["e(0,-1);e(0,1)", "e(1,0)^2"],
    "H-;e(0,-1);h(1,1);e(0,1)": ["H-;e(0,-1);e(1,2)", "H-;e(1,0);e(0,1)"],
    "H-;h(1,-1);h(2,1);e(0,1)": [
        "H-;h(1,-1);e(1,1)^2",
        "H-;h(1,0);e(1,0)^2;e(0,1)",
        "e(0,-1)^2;h(2,1);e(0,1)",
    ],
}


# sha256 over "<generator>><differential>\n" lines of the whole action-8
# slice, in slice order; frozen
ACTION_8_DIFFERENTIAL_SHA256 = (
    "9d2f470eeb55b5922b788f017b6fcc409dd3477bbca16fa1a92501ebe02c0bfd"
)
# the same over the action-10 slice, frozen from the whole-profile moves
ACTION_10_DIFFERENTIAL_SHA256 = (
    "bf9633a0b0b595940107de3e684d409c1a14e2f55b408a4bf926716e3c3deb02"
)


def test_differential_oracle():
    for spec, expect in DIFFERENTIAL_ORACLE.items():
        assert chain_specs(differential(parse_path(spec))) == expect, spec


def test_differential_terms_are_valid_canonical_paths():
    for spec in DIFFERENTIAL_ORACLE:
        for term in differential(parse_path(spec)):
            assert is_valid(term)
            assert format_path(parse_path(format_path(term))) == format_path(term)


def test_component_operations_of_worked_example():
    p = parse_path("h(1,-1);h(1,1)")
    assert chain_specs(round_interior(p)) == ["h(1,0);e(1,0)"]
    assert chain_specs(c_op(p)) == ["H-;h(1,1)", "h(1,-1);H+"]
    assert chain_specs(d_op(p)) == []


def test_component_operations_split_by_move_type():
    p = parse_path("H-;h(1,-1);h(2,1);e(0,1)")
    assert chain_specs(round_interior(p)) == [
        "H-;h(1,-1);e(1,1)^2", "H-;h(1,0);e(1,0)^2;e(0,1)"]
    assert chain_specs(c_op(p)) == []
    assert chain_specs(d_op(p)) == ["e(0,-1)^2;h(2,1);e(0,1)"]


def test_component_operations_partition_the_differential():
    for spec in DIFFERENTIAL_ORACLE:
        p = parse_path(spec)
        combined = round_interior(p) + c_op(p) + d_op(p)
        assert chain_specs(combined) == chain_specs(differential(p)), spec


def test_differential_drops_grading_by_one_and_action():
    for spec in DIFFERENTIAL_ORACLE:
        p = parse_path(spec)
        for term in differential(p):
            assert grading(term) == grading(p) - 1, spec
            assert action(term) < action(p) - 1e-9, spec


def test_differential_of_all_e_paths_vanishes():
    sl = generators_up_to_action(5.0)
    seen = 0
    for p in sl.all_generators():
        if all(not g.h_flag for g in p.groups) and not p.start_pair and not p.end_pair:
            assert len(differential(p)) == 0, format_path(p)
            seen += 1
    assert seen > 20


def test_d_squared_zero_on_medium_slice():
    sl = generators_up_to_action(5.0)
    for p in sl.all_generators():
        outer = Chain()
        for term in differential(p):
            outer = outer + differential(term)
        assert len(outer) == 0, format_path(p)


def test_chain_is_gf2():
    a = parse_path("H-;H+")
    b = parse_path("0")
    ch = Chain([a]) + Chain([a, b])
    assert chain_specs(ch) == ["0"]
    assert a not in ch and b in ch
    assert len(Chain([a]) + Chain([a])) == 0


def test_differential_rejects_invalid_path():
    from kech.paths import EdgeGroup, KLatticePath, PathError

    crooked = KLatticePath(False, False, (EdgeGroup(1, 0, 1, False),))
    with pytest.raises(PathError):
        differential(crooked)


def test_differential_digest_of_action_8_slice():
    digest = hashlib.sha256()
    count = 0
    for p in generators_up_to_action(8.0).all_generators():
        digest.update((format_path(p) + ">" + str(differential(p)) + "\n").encode())
        count += 1
    assert count == 2517
    assert digest.hexdigest() == ACTION_8_DIFFERENTIAL_SHA256


@pytest.fixture(scope="module")
def action_10_slice():
    return tuple(generators_up_to_action(10.0).all_generators())


def test_differential_digest_of_action_10_slice(action_10_slice):
    digest = hashlib.sha256()
    for p in action_10_slice:
        digest.update((format_path(p) + ">" + str(differential(p)) + "\n").encode())
    assert len(action_10_slice) == 14773
    assert digest.hexdigest() == ACTION_10_DIFFERENTIAL_SHA256


def test_differential_matches_naive_on_action_10_slice(action_10_slice):
    splices = {}
    for p in action_10_slice:
        assert set(differential(p, splices)) == naive_differential(p), (
            format_path(p))


def test_component_moves_match_naive_on_action_8_slice():
    for p in generators_up_to_action(8.0).all_generators():
        assert set(round_interior(p)) == naive_round_interior(p), format_path(p)
        assert set(c_op(p)) == naive_end_moves(p, False), format_path(p)
        assert set(d_op(p)) == naive_end_moves(p, True), format_path(p)


def test_fresh_and_reused_memos_give_equal_chains():
    splices = {}
    for p in generators_up_to_action(8.0).all_generators():
        assert differential(p, splices) == differential(p), format_path(p)


def test_differential_validates_its_path_and_no_term(monkeypatch):
    validated = []
    real = kech.diff.validate

    def counting(path):
        validated.append(path)
        return real(path)

    monkeypatch.setattr(kech.diff, "validate", counting)
    p = parse_path("h(1,-2);h(1,2)")
    boundary = differential(p)
    monkeypatch.undo()
    assert len(boundary) >= 2
    assert validated == [p]


def test_end_move_leaving_one_region_point_yields_no_term():
    # D at the end of h(1,-1);H+ and at the start of H-;h(1,1) would leave
    # only the axis point; the C move at the other end is the only term
    for spec in ("h(1,-1);H+", "H-;h(1,1)"):
        p = parse_path(spec)
        assert chain_specs(d_op(p)) == []
        assert chain_specs(differential(p)) == ["H-;H+"]
        assert set(differential(p)) == naive_differential(p)


# spec -> a term of its differential; the first corner of each spec touches
# a wall, the last two have several classes on both sides of a corner
SPLICE_CASES = {
    "e(0,-1);h(2,1)": "e(1,0)^2",  # down wall of run 1 vanishes
    "h(2,-1);e(0,1)": "e(1,0)^2",  # up wall of run 1 vanishes
    "e(0,-1)^2;h(2,1);e(0,1)": "e(0,-1);e(1,0)^2;e(0,1)",  # run 2 -> 1
    "e(0,-1);h(2,-1);e(0,1)^2": "e(0,-1);e(1,0)^2;e(0,1)",
    "h(1,-1);h(1,1)": "h(1,0);e(1,0)",  # one class on each side
    "h(1,-1);e(1,-1);h(1,1);e(1,1)": "e(1,-1);h(1,0);e(1,0);e(1,1)",
    "h(2,-1);e(2,-1);h(2,1);e(2,1)": "h(2,-1);e(1,0)^4;e(2,1)",
}


def test_splices_at_walls_and_multiple_classes_match_naive():
    for spec, term in SPLICE_CASES.items():
        p = parse_path(spec)
        assert term in chain_specs(differential(p)), spec
        assert set(differential(p)) == naive_differential(p), spec
        assert set(round_interior(p)) == naive_round_interior(p), spec


def test_width_zero_paths_have_no_boundary():
    for spec in ("e(0,-1);e(0,1)", "H-;H+"):
        p = parse_path(spec)
        assert chain_specs(differential(p)) == []
        assert naive_differential(p) == frozenset()


def test_paths_sharing_a_corner_share_its_replacements():
    splices = {}
    first = parse_path("h(1,-1);h(1,1)")
    second = parse_path("e(0,-1);h(1,-1);h(1,1);e(0,1)")
    differential(first, splices)
    corner = (first.groups[0], first.groups[1])
    entry = splices[corner]
    assert entry == ((EdgeGroup(1, 0, 1, True),),)
    boundary = differential(second, splices)
    assert splices[corner] is entry
    assert parse_path("e(0,-1);h(1,0);e(1,0);e(0,1)") in boundary
    assert set(boundary) == naive_differential(second)


def mirror(path):
    """Reflection in a vertical line: the two ends swap, slopes flip sign."""
    return KLatticePath(path.end_pair, path.start_pair, tuple(
        EdgeGroup(q, -p, e, h) for q, p, e, h in reversed(path.groups)))


def test_differential_commutes_with_mirror():
    count = 0
    for p in generators_up_to_action(8.0).all_generators():
        m = mirror(p)
        validate(m)
        assert {mirror(t) for t in differential(p)} == set(differential(m)), (
            format_path(p))
        count += 1
    assert count == 2517


# primitive non-vertical directions with q, |p| <= 4, in slope order
DIRECTIONS = sorted(((q, p) for q in range(1, 5) for p in range(-4, 5)
                     if math.gcd(q, abs(p)) == 1), key=lambda d: d[1] / d[0])


def large_generators(hypothesis):
    """Strategy of valid paths of action 14-20: random classes, closing walls."""
    st = hypothesis.strategies

    @st.composite
    def generators(draw):
        sp, ep = draw(st.booleans()), draw(st.booleans())
        classes = draw(st.dictionaries(
            st.sampled_from(DIRECTIONS),
            st.tuples(st.integers(1, 3), st.booleans()),
            min_size=1, max_size=4))
        travel = ep - sp + sum(p * m for (_, p), (m, _) in classes.items())
        pad = draw(st.integers(0, 1))
        down, up = max(travel, 0) + pad, max(-travel, 0) + pad
        # e(1,0) edges fix the parity and lift the action to at least 14
        short = 14 - (sp + ep + down + up + sum(
            m * math.hypot(q, p) for (q, p), (m, _) in classes.items()))
        width = sp + ep + sum(q * m for (q, _), (m, _) in classes.items())
        extra = width % 2 + 2 * max(0, math.ceil((short - width % 2) / 2))
        if extra:
            m, h = classes.get((1, 0), (0, False))
            classes[(1, 0)] = (m + extra, h)
        middle = [EdgeGroup(q, p, m - h, h) for (q, p), (m, h)
                  in sorted(classes.items(), key=lambda c: c[0][1] / c[0][0])]
        path = build_path(sp, ep, down, up, middle)
        hypothesis.assume(action(path) <= 20)
        return path

    return generators()


def test_differential_properties_on_large_generators():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=150, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(large_generators(hypothesis))
    def check(p):
        validate(p)
        boundary = differential(p)
        square = Chain()
        for term in boundary:
            validate(term)
            assert grading(term) == grading(p) - 1, format_path(p)
            assert action(term) < action(p) - 1e-9, format_path(p)
            square = square + differential(term)
        assert len(square) == 0, format_path(p)
        assert {mirror(t) for t in boundary} == set(differential(mirror(p)))

    check()


def test_action_is_at_most_grading_plus_two_on_large_generators():
    # the bound that lets a grading-capped scan stop at action g + 2
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=150, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(large_generators(hypothesis))
    def check(p):
        assert action(p) <= grading(p) + 2 + TOL, format_path(p)

    check()


def test_differential_matches_naive_on_large_generators():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=150, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(large_generators(hypothesis))
    def check(p):
        assert set(differential(p)) == naive_differential(p), format_path(p)

    check()
