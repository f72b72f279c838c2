import hashlib
import math
import random

import pytest

import kech.obstruction
import kech.toric
import kech.toric_dp
from _naive import (
    naive_convex_min_action,
    naive_factor_splits,
    naive_min_action_search,
    rasterize_convex_count,
)
from kech.census import generators_up_to_action
from kech.obstruction import (
    admissible_min_action,
    embedding_obstructed,
    factorizations,
    gromov_upper,
    leq_relation,
)
from kech.paths import (
    EdgeGroup,
    arrow_count,
    build_path,
    elliptic_factor_count,
    format_path,
    h_count,
    parse_path,
    validate,
)
from kech.spectrum import capacity_series
from kech.toric import (
    EMPTY_CONVEX,
    CgClass,
    ConvexGenerator,
    ToricDomain,
    cg_grading,
    cg_lattice_points,
    cg_x,
    cg_y,
    format_convex_generator,
    make_convex_generator,
    parse_domain,
    support_action,
)
from kech.toric_dp import toric_capacity_detail


def ladder(k):
    """The h-free one-pair generator driving the embedding bounds."""
    return build_path(True, False, k, k + 1, [EdgeGroup(1, 0, 1, False)])


def split_set(path):
    return {tuple(sorted(format_path(x) for x in f))
            for f in factorizations(path)}


# ---------------------------------------------------------------------------
# Convex generators


def test_make_convex_generator_validation():
    cases = [
        ([CgClass(1, 1, 1, False), CgClass(1, 0, 1, False)],
         "strictly increasing steepness"),
        ([CgClass(0, 1, 1, False), CgClass(1, 0, 1, False)],
         "strictly increasing steepness"),
        ([CgClass(1, 1, 1, False), CgClass(1, 1, 1, False)],
         "strictly increasing steepness"),
        ([CgClass(1, 0, 1, True)], "always elliptic"),
        ([CgClass(0, 1, 1, True)], "always elliptic"),
        ([CgClass(2, 4, 1, False)], "primitive"),
        ([CgClass(1, 1, 0, False)], "positive"),
        ([CgClass(-1, 1, 1, False)], "nonzero"),
    ]
    for items, fragment in cases:
        with pytest.raises(ValueError) as err:
            make_convex_generator(items)
        assert fragment in str(err.value)


def test_convex_generator_accessors():
    cg = make_convex_generator([
        CgClass(1, 0, 2, False),
        CgClass(2, 1, 1, True),
        CgClass(0, 1, 1, False),
    ])
    assert format_convex_generator(cg) == "e(1,0)^2;h(2,1);e(2,1);e(0,1)"
    assert (cg_x(cg), cg_y(cg)) == (6, 3)
    assert h_count(cg) == 1
    assert elliptic_factor_count(cg) == 3
    assert cg_lattice_points(cg) == 22
    assert cg_grading(cg) == 41
    assert not hasattr(kech.toric, "toric_multiplicity")  # arrow_count, tested below


def test_empty_convex_generator():
    assert format_convex_generator(EMPTY_CONVEX) == "0"
    assert cg_grading(EMPTY_CONVEX) == 0
    assert cg_lattice_points(EMPTY_CONVEX) == 1
    assert (cg_x(EMPTY_CONVEX), cg_y(EMPTY_CONVEX)) == (0, 0)


def test_grading_examples_frozen():
    assert cg_grading(make_convex_generator([CgClass(1, 1, 2, False)])) == 10
    assert cg_grading(make_convex_generator([CgClass(1, 0, 1, False)])) == 2
    assert cg_grading(make_convex_generator([CgClass(0, 1, 1, False)])) == 2
    assert cg_grading(make_convex_generator([CgClass(3, 1, 1, False)])) == 8
    mixed = make_convex_generator([CgClass(1, 1, 0, True)])
    assert cg_grading(mixed) == 3
    assert h_count(mixed) == 1


def test_lattice_points_match_rasterizer():
    import random
    from fractions import Fraction

    random.seed(11)
    sloped = sorted(((a, b) for a in range(1, 7) for b in range(1, 7)
                     if math.gcd(a, b) == 1), key=lambda ab: Fraction(ab[1], ab[0]))
    pool = [(1, 0)] + sloped + [(0, 1)]
    checked = 0
    for _ in range(300):
        take = sorted(random.sample(range(len(pool)), random.randint(1, 5)))
        items = [CgClass(pool[i][0], pool[i][1], random.randint(1, 4), False)
                 for i in take]
        try:
            cg = make_convex_generator(items)
        except ValueError:
            continue
        assert cg_lattice_points(cg) == rasterize_convex_count(cg)
        checked += 1
    assert checked > 150


# ---------------------------------------------------------------------------
# Toric domains


def test_domain_constructors_and_describe():
    b = ToricDomain.ball(1.0)
    assert b.describe() == "ball:1"
    assert b.vertices == ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    e = ToricDomain.ellipsoid(1.0, 2.0)
    assert e.describe() == "ellipsoid:1,2"
    assert e.vertices == ((0.0, 0.0), (1.0, 0.0), (0.0, 2.0))
    p = ToricDomain.polygon([(2.0, 0.0), (1.0, 2.0), (0.0, 1.0)])
    assert p.describe() == "polygon:2,0;1,2;0,1"
    assert p.vertices == ((0.0, 0.0), (2.0, 0.0), (1.0, 2.0), (0.0, 1.0))


def test_domain_hull_drops_dominated_points():
    p = ToricDomain.polygon([(1.0, 0.0), (0.5, 0.25), (0.0, 1.0)])
    assert (0.5, 0.25) not in p.vertices


def test_support_function():
    b = ToricDomain.ball(1.0)
    assert b.support(3.0, 4.0) == 4.0
    e = ToricDomain.ellipsoid(2.0, 3.0)
    assert e.support(1.0, 0.0) == 2.0
    assert e.support(0.0, 1.0) == 3.0
    p = ToricDomain.polygon([(2.0, 0.0), (1.0, 2.0), (0.0, 1.0)])
    assert p.support(1.0, 1.0) == 3.0
    assert p.support(2.0, 1.0) == 4.0


def test_scale_returns_polygon_kind():
    s = ToricDomain.ball(1.0).scale(1.5)
    assert s.describe().startswith("polygon:")
    assert s.support(1.0, 0.0) == 1.5
    for bad in (-2.0, float("inf")):
        with pytest.raises(ValueError):
            ToricDomain.ball(1.0).scale(bad)


def test_parse_domain_round_trip():
    for text in ("ball:1", "ellipsoid:1,2", "polygon:2,0;1,2;0,1"):
        assert parse_domain(text).describe() == text


def test_domain_echo_is_lossless():
    for text in ("ball:1.4000000001", "ellipsoid:1,2.000001",
                 "polygon:2,0;1.0000001,2.25;0,1"):
        domain = parse_domain(text)
        assert domain.describe() == text
        assert parse_domain(domain.describe()) == domain
    echoes = [parse_domain(text).describe()
              for text in ("ball:1.4", "ball:1.4000000001", "ball:1.4000000005")]
    assert echoes == ["ball:1.4", "ball:1.4000000001", "ball:1.4000000005"]


def test_parse_domain_errors():
    for bad in ("ball", "ball:x", "ball:-1", "cube:1", "polygon:",
                "ellipsoid:1", "ellipsoid:0,1", "polygon:1", "ball:1,2",
                "ball:inf", "ball:nan", "ellipsoid:1,inf",
                "polygon:nan,1;1,0", "polygon:inf,0"):
        with pytest.raises(ValueError):
            parse_domain(bad)


def test_support_action_values():
    b1 = ToricDomain.ball(1.0)
    cg = make_convex_generator([
        CgClass(1, 0, 2, False),
        CgClass(2, 1, 1, True),
        CgClass(0, 1, 1, False),
    ])
    assert support_action(b1, cg) == 7.0
    e23 = ToricDomain.ellipsoid(2.0, 3.0)
    assert support_action(e23, make_convex_generator([CgClass(0, 1, 1, False)])) == 2.0
    assert support_action(e23, make_convex_generator([CgClass(1, 0, 1, False)])) == 3.0
    assert support_action(b1, EMPTY_CONVEX) == 0.0


def test_support_action_scales_linearly():
    b1 = ToricDomain.ball(1.0)
    cg = make_convex_generator([CgClass(2, 1, 2, False), CgClass(1, 1, 1, False)])
    assert abs(support_action(b1.scale(2.5), cg) - 2.5 * support_action(b1, cg)) < 1e-12


# ---------------------------------------------------------------------------
# Factorizations


FACTOR_SUITE = [
    "0",
    "e(0,-1);e(0,1)",
    "e(0,-1);e(1,0)^2;e(0,1)",
    "H-;e(0,-1)^2;e(1,0);e(0,1)^3",
    "H-;e(1,-1);e(0,1)^2",
    "e(0,-1)^2;e(1,-2);e(1,-1);e(1,1);e(1,2);e(0,1)^2",
]


def test_factorizations_match_exhaustive_splits():
    for spec in FACTOR_SUITE:
        path = parse_path(spec)
        assert split_set(path) == naive_factor_splits(path), spec


def test_factorizations_trivial_first_and_deterministic():
    path = parse_path("e(0,-1);e(1,0)^2;e(0,1)")
    first = factorizations(path)
    assert [format_path(x) for x in first[0]] == [format_path(path)]
    again = factorizations(path)
    assert [[format_path(x) for x in f] for f in first] == \
        [[format_path(x) for x in f] for f in again]


def test_factorizations_counts_frozen():
    counts = {
        "0": 1,
        "e(0,-1);e(0,1)": 1,
        "e(0,-1);e(1,0)^2;e(0,1)": 2,
        "H-;e(0,-1)^2;e(1,0);e(0,1)^3": 1,
        "e(0,-1)^2;e(1,-2);e(1,-1);e(1,1);e(1,2);e(0,1)^2": 5,
    }
    for spec, n in counts.items():
        assert len(factorizations(parse_path(spec))) == n, spec


def test_factorizations_input_contract():
    with pytest.raises(ValueError):
        factorizations(parse_path("H-;e(0,-1);e(0,1);H+"))
    with pytest.raises(ValueError):
        factorizations(parse_path("H-;H+"))
    with pytest.raises(ValueError):
        factorizations(parse_path("h(1,-1);h(1,1)"))


def test_ladder_factorization_is_trivial_only():
    for k in range(4):
        assert len(factorizations(ladder(k))) == 1


def test_factorizations_match_oracle_on_action_9_slice():
    checked = 0
    for path in generators_up_to_action(9.0).all_generators():
        if any(g.h_flag for g in path.groups) or validate(path) == "IV":
            continue
        checked += 1
        rows = [[format_path(block) for block in part]
                for part in factorizations(path)]
        assert len(set(map(tuple, rows))) == len(rows), format_path(path)
        assert rows == sorted(rows, key=lambda row: (len(row), row))
        assert {tuple(row) for row in rows} == naive_factor_splits(path)
    assert checked == 936


# Partition counts and sha256 of the rows (block specs tab-joined, one line
# per partition) as the whole-partition enumeration returned them.
LARGE_FACTORIZATIONS = {
    "e(0,-1);e(1,-3);e(1,-2);e(1,-1);e(2,-1);e(1,0)^2;e(2,1);e(1,1);e(1,2);"
    "e(1,3);e(0,1)": (
        596, "787f66feb24002b55ef99e292736a206a8a0d7106d8adf2032e0ad71c8c0a296"),
    "H-;e(0,-1)^3;e(1,-3);e(1,-2);e(1,-1);e(2,-1);e(1,0);e(2,1);e(1,1);"
    "e(1,2);e(1,3);e(0,1)^4": (
        470, "c9643d5f4fab6dcab4590050e2f580217c2bf886aac4a0e7563fa1bc75df75b9"),
}


def test_factorizations_frozen_at_11_and_12_atoms():
    for spec, (count, digest) in LARGE_FACTORIZATIONS.items():
        parts = factorizations(parse_path(spec))
        rows = "".join("\t".join(format_path(b) for b in part) + "\n"
                       for part in parts)
        assert len(parts) == count, spec
        assert hashlib.sha256(rows.encode()).hexdigest() == digest, spec


# ---------------------------------------------------------------------------
# Toric capacities


def weight_sequence(a, b, kmax):
    vals = sorted(a * i + b * j for i in range(kmax + 1) for j in range(kmax + 1))
    return vals[: kmax + 1]


def ball_capacity(k):
    """The d with d(d+1)/2 <= k <= d(d+3)/2: c_k of the unit ball."""
    d = 0
    while d * (d + 3) // 2 < k:
        d += 1
    return d


def quadrilateral(a, b, s, u, sink):
    """Convex quadrilateral (a, 0), (sa, tb), (0, b), axis vertices sunk by sink.

    s + t >= 1.05 keeps (sa, tb) past the chord, a vertex of the hull; sink
    puts the axis vertices within TOL below the axes, where support(b, a)
    falls as a or b grows.
    """
    t = 1.05 - s + u * (s - 0.1)
    return ToricDomain.polygon([(a, -sink), (s * a, t * b), (-sink, b)])


def test_ball_capacities_equal_weight_sequence():
    b1 = ToricDomain.ball(1.0)
    expect = weight_sequence(1, 1, 60)
    for k in range(61):
        assert expect[k] == ball_capacity(k), k
        assert abs(toric_capacity_detail(b1, k)[0] - expect[k]) < 1e-9, k


def test_capacity_ratio_against_the_ball_stops_at_1_707():
    # the paper's point: over 1 <= k <= 100, c_k(D*K)/c_k(B(1)) stops at
    # (2 + sqrt 2)/2, first reached at k = 3, while the combinatorial
    # obstruction reaches width 1 (capacities of balls: Hutchings,
    # arXiv:1005.2260)
    ratios = [res.value / ball_capacity(res.k)
              for res in capacity_series(100)[1:]]
    least = min(ratios)
    assert abs(least - (2.0 + math.sqrt(2.0)) / 2.0) < 1e-9
    assert next(k for k, r in enumerate(ratios, 1) if r <= least + 1e-9) == 3


def test_scaled_ball_capacities():
    b = ToricDomain.ball(1.5)
    expect = [1.5 * v for v in weight_sequence(1, 1, 12)]
    for k in range(13):
        assert abs(toric_capacity_detail(b, k)[0] - expect[k]) < 1e-9, k


def test_ellipsoid_capacities_equal_weight_sequences():
    e12 = ToricDomain.ellipsoid(1.0, 2.0)
    expect = weight_sequence(1, 2, 60)
    for k in range(61):
        assert abs(toric_capacity_detail(e12, k)[0] - expect[k]) < 1e-9, k
    e23 = ToricDomain.ellipsoid(2.0, 3.0)
    expect = weight_sequence(2, 3, 10)
    for k in range(11):
        assert abs(toric_capacity_detail(e23, k)[0] - expect[k]) < 1e-9, k


def test_toric_capacity_details():
    b1 = ToricDomain.ball(1.0)
    value, witness = toric_capacity_detail(b1, 0)
    assert value == 0.0 and format_convex_generator(witness) == "0"
    value, witness = toric_capacity_detail(b1, 1)
    assert value == 1.0 and format_convex_generator(witness) == "e(1,0)"
    value, witness = toric_capacity_detail(b1, 2)
    assert value == 1.0 and format_convex_generator(witness) == "e(1,1)"
    value, witness = toric_capacity_detail(b1, 3)
    assert value == 2.0 and format_convex_generator(witness) == "e(1,0);e(0,1)"
    # large k: the values and tie-breaks behind cap-toric output
    cases = [
        (b1, 127, 15.0, "e(1,0);e(1,1)^7;e(6,7)"),
        (ToricDomain.ellipsoid(1.0, 2.0), 131, 21.0, "e(1,2)^10;e(0,1)"),
        (parse_domain("polygon:1.1,0;0.6,0.65;0,1.05"), 122, 16.95,
         "e(3,2)^2;e(1,1)^5;e(3,4)"),
    ]
    for dom, k, expect, spec in cases:
        value, witness = toric_capacity_detail(dom, k)
        assert abs(value - expect) < 1e-9, (dom.describe(), k)
        assert format_convex_generator(witness) == spec, (dom.describe(), k)


def test_large_k_toric_capacity_details():
    # values and witnesses of the plain depth-first search
    cases = [
        (ToricDomain.ball(1.0), 200, 19.0, "e(1,0)^3;e(1,1)^14;e(0,1)^2"),
        (parse_domain("polygon:1.15,0;0.54,0.728;0,1.09"), 200, 22.696,
         "e(3,2)^3;e(1,1)^2;e(5,6);e(2,3)"),
    ]
    for dom, k, expect, spec in cases:
        value, witness = toric_capacity_detail(dom, k)
        assert abs(value - expect) < 1e-9, (dom.describe(), k)
        assert format_convex_generator(witness) == spec, (dom.describe(), k)


def test_large_k_capacities_match_closed_forms():
    b1 = ToricDomain.ball(1.0)
    for k, d in ((300, 24), (400, 27)):
        assert ball_capacity(k) == d
        assert toric_capacity_detail(b1, k)[0] == d, k
    expect = weight_sequence(1, 2, 200)[200]
    assert toric_capacity_detail(ToricDomain.ellipsoid(1.0, 2.0), 200)[0] == expect


def test_capacity_matches_dfs_oracle_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    domains = st.one_of(
        st.builds(ToricDomain.ball, st.floats(0.5, 2.0)),
        st.builds(ToricDomain.ellipsoid, st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
        st.builds(quadrilateral, st.floats(0.5, 2.0), st.floats(0.5, 2.0),
                  st.floats(0.15, 0.9), st.floats(0.0, 1.0),
                  st.sampled_from([0.0, 5e-10])))

    @hypothesis.settings(max_examples=60, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(dom=domains, k=st.integers(1, 40))
    def check(dom, k):
        value, witness = toric_capacity_detail(dom, k)
        oracle_value, oracle_witness = naive_min_action_search(dom, 2 * k, 0, False)
        assert value == oracle_value, (dom.describe(), k)
        assert format_convex_generator(witness) == \
            format_convex_generator(oracle_witness), (dom.describe(), k)

    check()


def test_replay_reruns_when_a_generator_sits_at_its_cutoff(monkeypatch):
    # e(1,0) costs 1.000001, exactly the replay's cutoff 1e-6 above the
    # optimum e(0,1), so the first pass cannot vouch for its witness and the
    # replay runs again with no cutoff
    dom = ToricDomain.ellipsoid(1.0, 1.000001)
    completion_bound = kech.toric_dp.completion_bound
    margins = []

    def recording(*args):
        margins.append(args[-1])
        return completion_bound(*args)

    monkeypatch.setattr(kech.toric_dp, "completion_bound", recording)
    for k in (1, 3):
        margins.clear()
        value, witness = toric_capacity_detail(dom, k)
        assert margins == [kech.toric_dp.MARGIN, math.inf]
        assert (value, witness) == naive_min_action_search(dom, 2 * k, 0, False)


def test_near_tie_capacities_match_search():
    # one class 1e-6 dearer than another puts generators at the replay's cutoff
    for spec in ("ellipsoid:1,1.000001", "ellipsoid:1.000001,1",
                 "polygon:1.000001,0;0,1"):
        dom = parse_domain(spec)
        for k in list(range(1, 20)) + [150]:
            value, witness = toric_capacity_detail(dom, k)
            oracle_value, oracle_witness = naive_min_action_search(dom, 2 * k, 0, False)
            assert value == oracle_value, (spec, k)
            assert format_convex_generator(witness) == \
                format_convex_generator(oracle_witness), (spec, k)


def test_near_tie_capacity_at_k_300_frozen():
    # frozen from the replay that walked the whole search tree on every
    # near tie, before it skipped the lists that cannot beat its incumbent
    value, witness = toric_capacity_detail(parse_domain("ellipsoid:1,1.000001"), 300)
    text = "%r\t%s" % (value, format_convex_generator(witness))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "bfd3b9e71442ab73c661f8a11af25f1bc37b2626ac5c2b0a3b75539f4de51226"


def test_near_tie_capacity_at_k_400_frozen():
    # frozen from the replay that built a completion table and its edges
    # ahead of the walk, where it took 3.2 s
    value, witness = toric_capacity_detail(parse_domain("ellipsoid:1,1.000001"), 400)
    text = "%r\t%s" % (value, format_convex_generator(witness))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "a96853b09d210863e4f60e153fd2dba58a3a03b670859747f03283550ee8c715"


def test_replay_sweeps_the_prefix_once(monkeypatch):
    # at k = 3 the replay reruns (test_replay_reruns_when_a_generator_sits_
    # at_its_cutoff); both passes read one prefix sweep, and each sweeps its
    # own suffix
    sweep = kech.toric_dp.sweep
    calls = []

    def counting(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(kech.toric_dp, "sweep", counting)
    dom = ToricDomain.ellipsoid(1.0, 1.000001)
    assert toric_capacity_detail(dom, 3) == naive_min_action_search(dom, 6, 0, False)
    assert len(calls) == 3


def test_the_replay_margin_lives_in_toric_dp():
    assert not hasattr(kech.toric, "MARGIN")


def test_toric_capacity_witnesses_are_consistent():
    b1 = ToricDomain.ball(1.0)
    for k in range(1, 12):
        value, witness = toric_capacity_detail(b1, k)
        assert cg_grading(witness) == 2 * k
        assert h_count(witness) == 0
        assert abs(support_action(b1, witness) - value) < 1e-12
        assert abs(toric_capacity_detail(b1, k)[0] - value) < 1e-12


def test_toric_capacity_rejects_negative_index():
    with pytest.raises(ValueError):
        toric_capacity_detail(ToricDomain.ball(1.0), -1)


# ---------------------------------------------------------------------------
# Admissible search and the order relation


def test_admissible_min_action_frozen():
    b1 = ToricDomain.ball(1.0)
    assert admissible_min_action(b1, 0, 0)[0] == 0
    value, witness = admissible_min_action(b1, 2, 1)
    assert value == 1.0 and format_convex_generator(witness) == "e(1,0)"
    value, witness = admissible_min_action(b1, 8, 4)
    assert value == 3.0 and format_convex_generator(witness) == "e(3,1)"
    value, witness = admissible_min_action(b1, 6, 3)
    assert value == 2.0 and format_convex_generator(witness) == "e(2,1)"
    value, witness = admissible_min_action(b1, 14, 6)
    assert value == 5.0 and format_convex_generator(witness) == "e(1,0);e(4,1)"
    # the k = 130 ladder search behind gromov --kmax 130
    value, witness = admissible_min_action(b1, 524, 262)
    assert value == 261.0 and format_convex_generator(witness) == "e(261,1)"


def test_admissible_min_action_infeasible_cases():
    b1 = ToricDomain.ball(1.0)
    assert admissible_min_action(b1, 2, 2) == (math.inf, None)
    assert admissible_min_action(b1, 4, 3) == (math.inf, None)
    assert admissible_min_action(b1, 6, 4) == (math.inf, None)


def test_admissible_min_action_matches_naive_search():
    b1 = ToricDomain.ball(1.0)
    poly = ToricDomain.polygon([(2.0, 0.0), (1.0, 2.0), (0.0, 1.0)])
    # xy_bound = i_target/2 - 1 at grading 12: the boundary slack breaks
    # decide these answers, and a break one step too early changes them
    cases = [(b1, 2, 0), (b1, 8, 4), (poly, 2, 0), (poly, 4, 2), (poly, 8, 4),
             (b1, 12, 5), (poly, 12, 5)]
    for dom, i_target, xy_bound in cases:
        naive = naive_convex_min_action(dom, i_target, xy_bound, True,
                                        dir_cap=6, mult_cap=8)
        got = admissible_min_action(dom, i_target, xy_bound)[0]
        assert abs(naive - got) < 1e-9, (dom.describe(), i_target, xy_bound)


def test_h_zero_search_matches_naive_search():
    poly = ToricDomain.polygon([(2.0, 0.0), (1.0, 2.0), (0.0, 1.0)])
    for k in (2, 5):
        naive = naive_convex_min_action(poly, 2 * k, 0, False,
                                        dir_cap=6, mult_cap=8)
        assert abs(toric_capacity_detail(poly, k)[0] - naive) < 1e-9, k


def test_search_matches_naive_search_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # each example costs about 0.04 s, mostly the naive searches
    @hypothesis.settings(max_examples=100, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(
        a=st.floats(0.5, 2.0), b=st.floats(0.5, 2.0),
        s=st.floats(0.15, 0.9), u=st.floats(0.0, 1.0),
        sink=st.sampled_from([0.0, 5e-10]),
        i_target=st.sampled_from([2, 4, 6, 8]), data=st.data())
    def check(a, b, s, u, sink, i_target, data):
        # s + t >= 1.05 keeps m = (sa, tb) past the chord, a vertex of a
        # convex quadrilateral; sink puts the axis vertices within TOL below
        # the axes, where support(b, a) falls as a or b grows
        t = 1.05 - s + u * (s - 0.1)
        dom = ToricDomain.polygon([(a, -sink), (s * a, t * b), (-sink, b)])
        xy_bound = data.draw(st.integers(0, i_target // 2 + 1), label="xy_bound")
        for flexible in (True, False):
            naive = naive_convex_min_action(dom, i_target, xy_bound, flexible,
                                            dir_cap=6, mult_cap=8)
            if flexible:
                value, witness = admissible_min_action(dom, i_target, xy_bound)
            else:
                value, witness = toric_capacity_detail(dom, i_target // 2)
            if naive == math.inf:
                assert (value, witness) == (math.inf, None)
                continue
            assert abs(value - naive) < 1e-9, (dom.describe(), i_target, xy_bound)
            assert cg_grading(witness) == i_target
            assert abs(support_action(dom, witness) - value) < 1e-12
            h = h_count(witness)
            if flexible:
                assert 2 * (cg_x(witness) + cg_y(witness)) - h >= 2 * xy_bound
            else:
                assert h == 0

    check()


def test_flexible_search_witnesses_match_naive_search():
    # the search starts each height loop past the heights that cannot hold
    # a steeper class, and gromov_upper hands it a pool built at a larger
    # grading; the frozen search visits every height over its own pool
    rng = random.Random(14)
    domains = [parse_domain(spec) for spec in
               ("ball:1", "ellipsoid:1,2", "ellipsoid:1,1.000001")]
    for sink in (0.0, 5e-10):
        for _ in range(3):
            domains.append(quadrilateral(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                                         rng.uniform(0.15, 0.9), rng.uniform(0.0, 1.0),
                                         sink))
    for dom in domains:
        wide_pool = kech.toric._pool_by_height(dom, 80)
        for i_target in range(2, 41, 2):
            half = i_target // 2
            for xy_bound in sorted({0, half // 2, half - 1, half, half + 1}):
                want_value, want_witness = naive_min_action_search(
                    dom, i_target, xy_bound, True)
                want = (want_value, want_witness and format_convex_generator(want_witness))
                for value, witness in (
                        admissible_min_action(dom, i_target, xy_bound),
                        kech.obstruction._admissible_search(wide_pool, dom, i_target, xy_bound)):
                    got = (value, witness and format_convex_generator(witness))
                    assert got == want, (dom.describe(), i_target, xy_bound)


def test_leq_relation_cases():
    b1 = ToricDomain.ball(1.0)
    lam1 = ladder(1)
    e31 = make_convex_generator([CgClass(3, 1, 1, False)])
    assert leq_relation(e31, lam1, b1)
    # grading mismatch
    e11 = make_convex_generator([CgClass(1, 1, 1, False)])
    assert not leq_relation(e11, lam1, b1)
    # action too large after scaling the domain up
    assert not leq_relation(e31, lam1, ToricDomain.ball(2.0))
    # index condition: the empty generator does not dominate the pair path
    assert leq_relation(EMPTY_CONVEX, parse_path("0"), b1)
    assert not leq_relation(EMPTY_CONVEX, parse_path("H-;H+"), b1)


def test_toric_multiplicity():
    assert arrow_count(parse_path("H-;e(0,-1);e(1,0);e(0,1)^2")) == 4
    assert arrow_count(parse_path("e(0,-1);e(1,0)^2;e(0,1)")) == 4
    assert arrow_count(parse_path("0")) == 0


# ---------------------------------------------------------------------------
# Embedding obstruction and the width pipeline


def test_embedding_obstruction_ladder_small_radius_never():
    small = ToricDomain.ball(0.9)
    for k in (1, 10, 50):
        assert not embedding_obstructed(small, ladder(k)), k


def test_embedding_obstruction_turns_on_with_k():
    dom = ToricDomain.ball(1.2)
    assert not embedding_obstructed(dom, ladder(1))
    assert embedding_obstructed(dom, ladder(50))


def test_embedding_obstruction_threshold_tracks_bound():
    # bound at k is (2k+3)/(2k+1); radii straddling it flip the answer
    k = 5
    bound = (2 * k + 3) / (2 * k + 1)
    assert embedding_obstructed(ToricDomain.ball(bound + 0.01), ladder(k))
    assert not embedding_obstructed(ToricDomain.ball(bound - 0.01), ladder(k))


@pytest.mark.xfail(strict=True, reason="_action_fits forgives up to TOL above "
                   "the block's action, so a ball just past 7/5 still fits")
def test_embedding_obstruction_just_past_the_k_2_bound():
    # the k = 2 ladder's bound is 7/5; ball:1.4000000005 answers true
    assert embedding_obstructed(parse_domain("ball:1.4000000001"),
                                parse_path("H-;e(0,-1)^2;e(1,0);e(0,1)^3"))


SYMMETRIC_13 = ("e(0,-1);e(1,-3);e(1,-2);e(1,-1);e(2,-1);e(3,-1);e(1,0)^2;"
                "e(3,1);e(2,1);e(1,1);e(1,2);e(1,3);e(0,1)")
# answers of the search-per-block obstruction on the large factorization inputs
OBSTRUCTED = {
    "ball:1": (False, False),
    "ball:2.5": (False, True),
    "ball:3": (True, True),
    "ellipsoid:2,3": (True, False),
}


def test_embedding_obstruction_searches_each_grading_and_bound_once(monkeypatch):
    asked = []
    search = kech.obstruction.admissible_min_action

    def counted(domain, i_target, xy_bound):
        asked.append((i_target, xy_bound))
        return search(domain, i_target, xy_bound)

    monkeypatch.setattr(kech.obstruction, "admissible_min_action", counted)
    for domain, answers in OBSTRUCTED.items():
        for spec, expect in zip(LARGE_FACTORIZATIONS, answers):
            asked.clear()
            assert embedding_obstructed(parse_domain(domain),
                                        parse_path(spec)) == expect, domain
            assert asked and len(asked) == len(set(asked)), domain
    # all 5,341 factorizations are infeasible and tried: 6,054 block searches
    # ask only 168 distinct (grading, bound) pairs
    asked.clear()
    assert embedding_obstructed(ToricDomain.ball(3.0), parse_path(SYMMETRIC_13))
    assert len(asked) == len(set(asked)) == 168


def test_gromov_upper_records():
    report = gromov_upper(40)
    assert len(report.records) == 41
    for r in report.records:
        assert r.rhs_action == 2 * r.k + 3
        assert r.min_lhs_action == 2 * r.k + 1
        assert abs(r.bound - (2 * r.k + 3) / (2 * r.k + 1)) < 1e-12
        assert abs(r.flat_candidate_bound - (2 * r.k + 3) / (2 * r.k + 2)) < 1e-12
        assert r.witness_spec == ("e(1,1)" if r.k == 0 else "e(%d,1)" % (2 * r.k + 1))
    bounds = [r.bound for r in report.records]
    assert all(b > 1.0 for b in bounds)
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert list(report.running_inf) == [min(bounds[: i + 1])
                                        for i in range(len(bounds))]
    assert report.infimum == min(bounds)


def test_gromov_upper_ladder_oracle_to_300():
    # the least admissible action is 2k+1, attained by e(2k+1,1), so the
    # bounds are (2k+3)/(2k+1); observed so far up to k = 1000
    report = gromov_upper(300)
    assert [r.k for r in report.records] == list(range(301))
    for r in report.records:
        assert r.min_lhs_action == 2 * r.k + 1, r.k
        assert r.witness_spec == ("e(1,1)" if r.k == 0 else "e(%d,1)" % (2 * r.k + 1))
        assert abs(r.bound - (2 * r.k + 3) / (2 * r.k + 1)) < 1e-12, r.k
    bounds = [r.bound for r in report.records]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_gromov_generators_are_the_ladder_family():
    report = gromov_upper(3)
    for r in report.records:
        assert r.generator_spec == format_path(ladder(r.k))
