import hashlib

import pytest

from kech.census import generators_up_to_action
from kech.diff import Chain, c_op, d_op, differential, round_interior
from kech.paths import (
    action,
    format_path,
    grading,
    is_valid,
    parse_path,
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
