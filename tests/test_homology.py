import hashlib
import math

import pytest

from _naive import BitMatrix, boundary_matrix, gf2_rank
import kech.cli
import kech.diff
import kech.homology
from kech.census import generators_up_to_action
from kech.homology import (
    barcode,
    betti_numbers,
    d_squared_report,
    stabilized_betti,
)
from kech.paths import TOL, action, format_path
from kech.spectrum import capacity_series


def _matrix(rows, cols, entries):
    columns = []
    for j in range(cols):
        bits = 0
        for i in range(rows):
            if (i, j) in entries:
                bits |= 1 << i
        columns.append(bits)
    return BitMatrix(tuple(range(rows)), tuple(range(cols)), tuple(columns))


def test_gf2_rank_small_matrices():
    assert gf2_rank(_matrix(3, 3, {(0, 0), (1, 1), (2, 2)})) == 3
    assert gf2_rank(_matrix(3, 3, set())) == 0
    assert gf2_rank(_matrix(2, 2, {(0, 0), (0, 1), (1, 0), (1, 1)})) == 1
    # over GF(2) the 3x3 all-ones plus identity has rank 2
    ent = {(i, j) for i in range(3) for j in range(3)} ^ {(0, 0), (1, 1), (2, 2)}
    assert gf2_rank(_matrix(3, 3, ent)) == 2
    assert gf2_rank(_matrix(0, 0, set())) == 0


def test_gf2_rank_is_transpose_invariant_on_boundary_matrices():
    for k, bound in ((1, 4.0), (2, 4.0), (3, 4.0)):
        m = boundary_matrix(k, bound)
        rows, cols = m.shape
        ent = {(i, j) for j in range(cols) for i in range(rows)
               if (m.columns[j] >> i) & 1}
        t = _matrix(cols, rows, {(j, i) for i, j in ent})
        assert gf2_rank(m) == gf2_rank(t)


def test_d_squared_report_clean_small():
    assert d_squared_report(4.0) == []
    assert d_squared_report(6.0) == []


@pytest.mark.parametrize("walk, bound, max_grading", [
    (lambda: d_squared_report(8.0), 8.0, None),
    (lambda: barcode(8, 32.0), 32.0, 9),
], ids=["d_squared_report", "barcode"])
def test_each_walk_validates_each_path_once(monkeypatch, walk, bound,
                                            max_grading):
    validated = []
    real = kech.diff.validate

    def counting(path):
        validated.append(path)
        return real(path)

    for module in (kech.diff, kech.homology):
        monkeypatch.setattr(module, "validate", counting)
    walk()
    monkeypatch.undo()
    # each path of the walk's slice once, killed columns included, and
    # nothing else
    sl = generators_up_to_action(bound, max_grading=max_grading)
    assert len(validated) == len(set(validated))
    assert set(validated) == set(sl.all_generators())


def test_d_squared_report_computes_each_boundary_once(monkeypatch):
    computed = []
    real = kech.homology.differential

    def counting(path, *args):
        computed.append(path)
        return real(path, *args)

    monkeypatch.setattr(kech.homology, "differential", counting)
    assert d_squared_report(8.0) == []
    monkeypatch.undo()
    generators = list(generators_up_to_action(8.0).all_generators())
    assert len(computed) == len(generators)
    assert set(computed) == set(generators)


def test_betti_small_slices():
    assert betti_numbers(0, 4.0)[0] == 1
    assert betti_numbers(1, 4.0)[1] == 1
    assert betti_numbers(2, 6.0)[2] == 1


def test_euler_characteristic_consistency():
    # alternating sums of dimensions and of betti numbers agree on any
    # truncation closed under the differential
    for bound in (4.0, 6.0):
        sl = generators_up_to_action(bound)
        chi_dim = 0
        chi_betti = 0
        for k in sl.degrees():
            chi_dim += (-1) ** k * len(sl.generators(k))
            chi_betti += (-1) ** k * betti_numbers(k, bound)[k]
        assert chi_dim == chi_betti


def test_stabilized_betti_low_degrees():
    for k in range(4):
        value, bound = stabilized_betti(k)
        assert value == 1, k
        assert bound <= 16.0, k


def test_betti_rank_decomposition():
    # dim H_k = dim C_k - rank d_k - rank d_{k+1}
    bound = 5.0
    for k in (1, 2, 3):
        sl = generators_up_to_action(bound)
        dim = len(sl.generators(k))
        r_in = gf2_rank(boundary_matrix(k + 1, bound))
        r_out = gf2_rank(boundary_matrix(k, bound))
        assert betti_numbers(k, bound)[k] == dim - r_in - r_out


def test_betti_numbers_match_betti_per_degree():
    for max_degree, bound in ((0, 4.0), (5, 6.0), (6, 12.0)):
        assert betti_numbers(max_degree, bound) == \
            [betti_numbers(k, bound)[k] for k in range(max_degree + 1)]
    with pytest.raises(ValueError):
        betti_numbers(-1, 4.0)


def test_betti_matches_the_rank_oracle():
    # dim H_k = dim C_k - rank d_k - rank d_{k+1}, with the ranks from the
    # per-degree boundary matrices; the bars of one larger slice give the
    # same value at each smaller bound
    bars = barcode(8, 16.0)
    for bound in (4.0, 5.0, 6.0, 8.0, 12.0, 16.0):
        for k in range(9):
            up = boundary_matrix(k + 1, bound)
            expect = (len(up.rows) - gf2_rank(boundary_matrix(k, bound))
                      - gf2_rank(up))
            assert betti_numbers(k, bound)[k] == expect, (k, bound)
            alive = sum(1 for degree, birth, death in bars
                        if degree == k and birth <= bound + TOL < death)
            assert alive == expect, (k, bound)


def _truncated_capacity_births(max_degree, bound, kmax):
    """Check c_k against the essential births in degree 2k for k <= kmax.

    c_k is the action at which the degree-2k class is born; the other
    essential classes of degree 2k are born at the slice's own bound, where
    the classes that would kill them are cut off.  Returns the k that have
    such other classes.
    """
    essential = {}
    for degree, birth, death in barcode(max_degree, bound):
        if death == math.inf:
            essential.setdefault(degree, []).append(birth)
    truncated = set()
    for k, result in enumerate(capacity_series(kmax)):
        births = sorted(essential[2 * k])
        assert abs(births[0] - result.value) <= 1e-9, k
        assert all(abs(birth - bound) <= 1e-9 for birth in births[1:]), k
        if len(births) > 1:
            truncated.add(k)
    return truncated


def test_capacities_are_births_of_even_degree_classes():
    assert _truncated_capacity_births(21, 16.0, 10) == {7, 8}


def test_capacities_are_births_of_even_degree_classes_up_to_k_14():
    assert _truncated_capacity_births(29, 18.0, 14) == {8, 9}


@pytest.mark.parametrize("max_degree, bound, count, digest", [
    (8, 32.0, 161,
     "498909997c614e021e533a7e92eaae364d00646c3163eb2b9f3e5ce9dfc8df9a"),
    (21, 16.0, 3570,
     "61a33e983be8fd667c7ccbff1461f0f89ac9b10d9827668ef3dfd31090bfe680"),
])
def test_barcode_digest(max_degree, bound, count, digest):
    # births, deaths and the order of the bars, frozen
    bars = barcode(max_degree, bound)
    assert len(bars) == count
    assert hashlib.sha256(repr(bars).encode()).hexdigest() == digest


def _differential_with_stray_term(monkeypatch, path, stray):
    real = kech.homology.differential

    def stray_boundary(p, *args):
        terms = real(p, *args)
        return terms | {stray} if p == path else terms

    monkeypatch.setattr(kech.homology, "differential", stray_boundary)


def test_barcode_rejects_a_term_outside_the_slice(monkeypatch, capsys):
    # a boundary term of grading 3 above the action bound 3.5, on a column
    # of the top grading, which no clearing skips
    path = generators_up_to_action(3.5).generators(4)[0]
    stray = next(p for p in generators_up_to_action(8.0).generators(3)
                 if action(p) > 3.5 + TOL)
    _differential_with_stray_term(monkeypatch, path, stray)
    with pytest.raises(AssertionError, match="left the action slice"):
        barcode(3, 3.5)
    code = kech.cli.main(["homology", "--max-action", "3.5",
                          "--max-degree", "3"])
    captured = capsys.readouterr()
    assert code == kech.cli.EXIT_INTERNAL
    assert captured.out == ""
    assert "internal invariant violation" in captured.err


def test_barcode_rejects_a_term_in_the_slice_of_the_wrong_grading(
        monkeypatch):
    # a boundary term in the slice, but of grading 3 rather than 2, on a
    # column of the top grading, which no clearing skips
    path, stray = generators_up_to_action(6.0).generators(3)[:2]
    _differential_with_stray_term(monkeypatch, path, stray)
    with pytest.raises(AssertionError, match="left the action slice"):
        barcode(2, 6.0)


def test_d_squared_report_squares_a_faulty_differential(monkeypatch):
    # two spurious terms of the grading below on one path of each of the
    # gradings 3 and 5; the report is the square taken term by term
    sl = generators_up_to_action(7.0)
    extra = {sl.generators(k)[0]: frozenset(sl.generators(k - 1)[:2])
             for k in (3, 5)}
    real = kech.homology.differential

    def faulty(path, *args):
        return real(path, *args) ^ extra.get(path, frozenset())

    expected = []
    for k in sl.degrees():
        for path in sl.generators(k):
            square = frozenset()
            for term in faulty(path):
                square ^= faulty(term)
            if square:
                expected.append((format_path(path),
                                 tuple(sorted(map(format_path, square)))))
    assert expected
    monkeypatch.setattr(kech.homology, "differential", faulty)
    assert d_squared_report(7.0) == expected


_STRAYS = {
    # a boundary term of grading 3 above the action bound 3.5 on a path of
    # grading 4
    "outside_the_slice": (3.5, lambda: (
        generators_up_to_action(3.5).generators(4)[0],
        next(p for p in generators_up_to_action(8.0).generators(3)
             if action(p) > 3.5 + TOL))),
    # a boundary term in the slice, but of grading 3 rather than 2
    "of_the_wrong_grading": (
        6.0, lambda: generators_up_to_action(6.0).generators(3)[:2]),
}


@pytest.mark.parametrize("kind", sorted(_STRAYS))
def test_d_squared_report_rejects_a_stray_term(monkeypatch, capsys, kind):
    bound, pick = _STRAYS[kind]
    _differential_with_stray_term(monkeypatch, *pick())
    with pytest.raises(AssertionError, match="left the action slice"):
        d_squared_report(bound)
    code = kech.cli.main(["d2check", "--max-action", str(bound)])
    captured = capsys.readouterr()
    assert code == kech.cli.EXIT_INTERNAL
    assert captured.out == ""
    assert "internal invariant violation" in captured.err
