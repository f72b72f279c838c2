import math
import random

import pytest

from _naive import naive_validate, up_run
from kech.census import generators_up_to_action
from kech.paths import (
    EMPTY_PATH,
    EdgeGroup,
    H1Class,
    KLatticePath,
    PathError,
    PathSemanticsError,
    PathSyntaxError,
    action,
    arrow_count,
    build_path,
    column_bottoms,
    direction_class,
    doubled_area,
    down_run,
    format_path,
    grading,
    grading_lattice,
    h_count,
    is_valid,
    middle_groups,
    orbit_class,
    pair_count,
    parse_path,
    slope_before,
    total_class,
    validate,
    x_width,
)

SQ2 = math.sqrt(2.0)

# spec -> (grading, action); frozen across sessions
GRADING_ORACLE = {
    "0": (0, 0.0),
    "H-;H+": (0, 2.0),
    "H-;h(1,1)": (1, 1.0 + SQ2),
    "h(1,-1);H+": (1, 1.0 + SQ2),
    "h(1,0);e(1,0)": (1, 2.0),
    "e(1,0)^2": (2, 2.0),
    "h(1,-1);h(1,1)": (2, 2.0 * SQ2),
    "e(0,-1);e(0,1)": (2, 2.0),
    "H-;e(1,1)": (2, 1.0 + SQ2),
    "e(1,-1);H+": (2, 1.0 + SQ2),
    "H-;e(0,-1);e(0,1);H+": (2, 4.0),
    "H-;e(0,-1);h(1,2)": (3, 1.0 + 1.0 + math.sqrt(5.0)),
    "e(1,-1);h(1,1)": (3, 2.0 * SQ2),
    "h(1,-1);e(1,1)": (3, 2.0 * SQ2),
    "e(0,-1);h(2,1)": (3, 1.0 + math.sqrt(5.0)),
    "e(1,-1);e(1,1)": (4, 2.0 * SQ2),
    "H-;e(0,-1);e(1,2)": (4, 1.0 + 1.0 + math.sqrt(5.0)),
    "H-;e(0,-1);h(1,1);e(0,1)": (5, 3.0 + SQ2),
    "H-;e(0,-1)^2;e(1,0);e(0,1)^3": (12, 7.0),
    "H-;h(1,-1);h(2,1);e(0,1)": (10, 1.0 + SQ2 + math.sqrt(5.0) + 1.0),
}


def test_parse_format_round_trip():
    for spec in GRADING_ORACLE:
        assert format_path(parse_path(spec)) == spec


def test_parse_normalizes_whitespace_and_caret_one():
    assert format_path(parse_path(" 0 ")) == "0"
    assert format_path(parse_path("e(1,0)^2")) == "e(1,0)^2"


def test_parse_syntax_errors():
    for bad in ["", "e( 1 , 0 )", "E(1,0)", "e(1,0);", ";e(1,0)", "0;e(1,0)",
                "e(1 0)", "x", "e(1,0)^0", "e(1,0)^-1"]:
        with pytest.raises(PathSyntaxError):
            parse_path(bad)


def test_parse_semantic_errors():
    cases = {
        "h(0,1)": "vertical edges cannot be labeled h",
        "e(2,4)": "non-primitive direction",
        "e(1,1);e(1,-1)": "non-convex slope order",
        "e(1,-1);e(1,1);e(1,0)": "non-convex slope order",
        "e(-1,0)": "negative horizontal component",
        "e(0,0)": "zero direction",
        "H+;H-": "H+ allowed only as the last item",
        "H-;H-": "H- allowed only as the first item",
        "e(0,-1)^2;e(0,1)": "vertical displacements do not close",
        "H-;h(1,2)": "vertical displacements do not close",
        "e(1,0)": "nonzero total class",
        "e(1,0)^3": "nonzero total class",
    }
    for bad, fragment in cases.items():
        with pytest.raises(PathSemanticsError) as err:
            parse_path(bad)
        assert fragment in str(err.value)


def test_error_hierarchy():
    assert issubclass(PathSyntaxError, PathError)
    assert issubclass(PathSemanticsError, PathError)
    assert issubclass(PathError, ValueError)


def test_empty_path_constants():
    assert format_path(EMPTY_PATH) == "0"
    assert grading(EMPTY_PATH) == 0
    assert action(EMPTY_PATH) == 0.0
    assert validate(EMPTY_PATH) == "empty"


def test_validate_type_tags():
    tags = {
        "0": "empty",
        "h(1,0);e(1,0)": "I",
        "h(1,-1);h(1,1)": "I",
        "H-;e(0,-1);h(1,2)": "II",
        "H-;h(1,1)": "II",
        "h(1,-1);H+": "III",
        "H-;e(0,-1);e(0,1);H+": "IV",
        "H-;H+": "IV",
    }
    for spec, tag in tags.items():
        assert validate(parse_path(spec)) == tag


def test_direction_classes():
    assert direction_class(1, 0) == H1Class(0, 0, 1)
    assert direction_class(2, 1) == H1Class(2, 0, 0)
    assert direction_class(1, 1) == H1Class(2, 0, 1)
    assert direction_class(1, -1) == H1Class(-2, 0, 1)
    assert direction_class(0, 1) == H1Class(2, 0, 0)
    assert direction_class(0, -1) == H1Class(-2, 0, 0)


def test_total_class_zero_on_valid_paths():
    zero = H1Class(0, 0, 0)
    for spec in GRADING_ORACLE:
        assert total_class(parse_path(spec)) == zero


def test_torsion_component_wraps_mod_two():
    # doubling a single-arrow direction kills its torsion component
    assert direction_class(1, 0).b == 1
    two = build_path(False, False, 0, 0, [EdgeGroup(1, 0, 2, False)])
    assert total_class(two) == H1Class(0, 0, 0)
    assert is_valid(two)


def _atom_by_atom_class(path):
    atoms = ["h1-", "h2-"] if path.start_pair else []
    for g in path.groups:
        atoms += [("h", g.q, g.p)] if g.h_flag else []
        atoms += [("e", g.q, g.p)] * g.e_mult
    atoms += ["h1+", "h2+"] if path.end_pair else []
    total = H1Class(0, 0, 0)
    for atom in atoms:
        total = total + orbit_class(atom)
    return total


def test_total_class_matches_atom_by_atom_sum():
    paths = list(generators_up_to_action(8.0).all_generators())
    rng = random.Random(7)
    dirs = [(q, p) for q in range(4) for p in range(-4, 5)
            if math.gcd(q, abs(p)) == 1]
    for _ in range(2000):
        groups = tuple(
            EdgeGroup(q, p, rng.randint(0, 3), q > 0 and rng.random() < 0.3)
            for q, p in rng.sample(dirs, rng.randint(0, 5)))
        paths.append(KLatticePath(rng.random() < 0.5, rng.random() < 0.5,
                                  groups))
    nonzero = 0
    for path in paths:
        expect = _atom_by_atom_class(path)
        assert total_class(path) == expect, path.groups
        nonzero += not expect.is_zero
    assert nonzero > 1500


def test_grading_and_action_oracle():
    for spec, (deg, act) in GRADING_ORACLE.items():
        p = parse_path(spec)
        assert grading(p) == deg, spec
        assert abs(action(p) - act) < 1e-12, spec


def test_grading_lattice_route_matches():
    for spec in GRADING_ORACLE:
        p = parse_path(spec)
        assert grading_lattice(p) == grading(p), spec


def test_grading_parity_is_h_parity():
    for spec in GRADING_ORACLE:
        p = parse_path(spec)
        assert (grading(p) - h_count(p)) % 2 == 0, spec


def test_ladder_family_grading_and_action():
    # H-;e(0,-1)^k;e(1,0);e(0,1)^(k+1): grading 4(k+1), action 2k+3
    for k in range(5):
        p = build_path(True, False, k, k + 1, [EdgeGroup(1, 0, 1, False)])
        assert grading(p) == 4 * (k + 1)
        assert abs(action(p) - (2 * k + 3)) < 1e-12


def test_ladder_family_specs():
    assert format_path(build_path(True, False, 1, 2, [EdgeGroup(1, 0, 1, False)])) == \
        "H-;e(0,-1);e(1,0);e(0,1)^2"
    assert format_path(build_path(True, False, 2, 3, [EdgeGroup(1, 0, 1, False)])) == \
        "H-;e(0,-1)^2;e(1,0);e(0,1)^3"


def test_geometry_accessors():
    p = parse_path("h(1,-1);h(1,1)")
    assert column_bottoms(p) == [0, -1, 0]
    assert doubled_area(p) == 2
    assert (h_count(p), pair_count(p), x_width(p), arrow_count(p)) == (2, 0, 2, 2)
    q = parse_path("H-;e(0,-1);e(0,1);H+")
    assert doubled_area(q) == 0
    assert (down_run(q), up_run(q)) == (1, 1)
    assert column_bottoms(q) == [-2]


def test_slope_before_matches_fraction_slope_order():
    from fractions import Fraction

    def key(q, p):
        if q == 0:
            return (-1 if p < 0 else 1, Fraction(0))
        return (0, Fraction(p, q))

    dirs = [(q, p) for q in range(9) for p in range(-8, 9)
            if math.gcd(q, abs(p)) == 1]
    assert (0, -1) in dirs and (0, 1) in dirs and len(dirs) == 89
    for d1 in dirs:
        for d2 in dirs:
            assert slope_before(*d1, *d2) == (key(*d1) < key(*d2)), (d1, d2)


@pytest.mark.parametrize("groups", [
    [(0, -1, 1), (0, 1, 1), (1, 0, 2)],  # up wall before a horizontal class
    [(0, 1, 1), (0, -1, 1)],             # up wall before the down wall
    [(1, 0, 1), (1, 0, 1)],              # one direction listed twice
])
def test_validate_rejects_built_paths_out_of_slope_order(groups):
    path = KLatticePath(False, False,
                        tuple(EdgeGroup(q, p, m, False) for q, p, m in groups))
    with pytest.raises(PathSemanticsError, match="non-convex slope order"):
        validate(path)


def test_mixed_label_group_accessors():
    p = parse_path("H-;e(0,-1);h(1,2)")
    mids = list(middle_groups(p))
    assert len(mids) == 1
    g = mids[0]
    assert (g.q, g.p, g.e_mult, g.h_flag, g.mult) == (1, 2, 0, True, 1)
    assert down_run(p) == 1 and up_run(p) == 0
    assert pair_count(p) == 1 and h_count(p) == 1


def test_canonical_group_tuple_is_hashable_and_frozen():
    p = parse_path("h(1,0);e(1,0)")
    assert isinstance(hash(p), int)
    assert p == parse_path("h(1,0);e(1,0)")
    assert p != parse_path("e(1,0)^2")
    with pytest.raises(Exception):
        p.groups = ()


def test_action_additivity_over_classes():
    # action = pairs + sum mult * |direction|
    p = parse_path("H-;h(1,-1);h(2,1);e(0,1)")
    expect = 1.0 + SQ2 + math.sqrt(5.0) + 1.0
    assert abs(action(p) - expect) < 1e-12


def test_is_valid_mirror_of_validate():
    assert is_valid(parse_path("H-;H+"))
    bad = KLatticePath(False, False, (EdgeGroup(1, 0, 1, False),))
    assert not is_valid(bad)
    with pytest.raises(PathSemanticsError):
        validate(bad)


# The first words of each error validate can raise, in check order.
VALIDATE_ERRORS = (
    "negative horizontal component",
    "zero direction",
    "non-primitive direction",
    "empty edge group",
    "vertical edges cannot be labeled h",
    "non-convex slope order",
    "vertical displacements do not close",
    "nonzero total class",
)


def _outcome(check, path):
    try:
        return check(path)
    except PathError as exc:
        return (type(exc), str(exc))


def test_validate_matches_naive_validate_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = set()

    # the rarest outcomes need a closed path, so they are also given outright
    @hypothesis.settings(max_examples=500, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.example(False, False, [(1, 0, 1, False)])
    @hypothesis.example(False, False, [(1, 0, 2, False)])
    @hypothesis.example(True, False, [(1, 1, 0, True)])
    @hypothesis.example(False, True, [(1, -1, 0, True)])
    @hypothesis.given(
        start_pair=st.booleans(), end_pair=st.booleans(),
        groups=st.lists(st.tuples(st.integers(-1, 3), st.integers(-3, 3),
                                  st.integers(-1, 3), st.booleans()),
                        max_size=4))
    def check(start_pair, end_pair, groups):
        path = KLatticePath(start_pair, end_pair,
                            tuple(EdgeGroup(*g) for g in groups))
        got = _outcome(validate, path)
        assert got == _outcome(naive_validate, path)
        if isinstance(got, tuple):
            seen.update(e for e in VALIDATE_ERRORS if got[1].startswith(e))
        else:
            seen.add(got)

    check()
    assert seen == set(VALIDATE_ERRORS) | {"empty", "I", "II", "III", "IV"}


def _random_built_paths(rng, count):
    """Valid paths from build_path: random middle classes, walls that close."""
    dirs = [(q, p) for q in range(1, 5) for p in range(-4, 5)
            if math.gcd(q, abs(p)) == 1]
    paths = []
    while len(paths) < count:
        picks = sorted(rng.sample(dirs, rng.randint(0, 4)),
                       key=lambda d: d[1] / d[0])
        middle = []
        for q, p in picks:
            h = rng.random() < 0.4
            middle.append(EdgeGroup(q, p, rng.randint(0 if h else 1, 3), h))
        sp = rng.random() < 0.5
        down = rng.randint(0, 3)
        rise = sp + down - sum(g.p * g.mult for g in middle)
        if rise < 0:
            continue
        ep = rise > 0 and rng.random() < 0.5
        path = build_path(sp, ep, down, rise - ep, middle)
        if is_valid(path):
            paths.append(path)
    return paths


def test_paths_are_immutable_values():
    paths = list(generators_up_to_action(8.0).all_generators())
    paths += _random_built_paths(random.Random(11), 2000)
    for path in paths:
        again = parse_path(format_path(path))
        assert again == path and hash(again) == hash(path), path
        # a path hashes as the tuple of its fields, groups likewise
        assert hash(path) == hash((path.start_pair, path.end_pair, path.groups))
        for g in path.groups:
            assert hash(g) == hash((g.q, g.p, g.e_mult, g.h_flag))
    path = parse_path("H-;h(1,-1);h(2,1);e(0,1)")
    for field in ("start_pair", "end_pair", "groups"):
        with pytest.raises(AttributeError):
            setattr(path, field, ())
    for field in ("q", "p", "e_mult", "h_flag"):
        with pytest.raises(AttributeError):
            setattr(path.groups[0], field, 0)
