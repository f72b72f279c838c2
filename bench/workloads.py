"""The three workloads: the kech commands each one runs, and their checks.

Each workload is a list of operations drawn once per run from the seed.  An
operation is one `kech` command line plus a check of its stdout; a check
raises CheckError when the output is wrong.  Checks use `oracle`, never kech.

- complex: chain-complex traffic (enumeration, differential, GF(2) homology).
  The census in both modes, diff and paths carry it; spectrum and toric are
  not reached.
- capacities: the two capacity spectra.  Spectrum, the pruned h-free census
  scan and the h=0 toric search carry it; diff is not reached.
- gromov: the width pipeline and obstruction queries.  The flexible-h toric
  search carries it; the census and the h=0 search are not reached.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import oracle

_TOL = 1e-9


class CheckError(Exception):
    """An operation's output is wrong."""


@dataclass
class Op:
    label: str
    args: list
    check: object          # check(stdout_text, context) -> None


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def parse_table(text):
    """Rows of kech's table format as dicts, columns cut at the dash line."""
    lines = text.splitlines()
    _require(len(lines) >= 2 and set(lines[1]) <= {"-", " "}, "not a table")
    spans = []
    col = 0
    for dashes in lines[1].split("  "):
        spans.append((col, col + len(dashes)))
        col += len(dashes) + 2
    cut = [(start, spans[i + 1][0] if i + 1 < len(spans) else None)
           for i, (start, _) in enumerate(spans)]
    names = [lines[0][a:b].strip() for a, b in cut]
    return [{n: line[a:b].strip() for n, (a, b) in zip(names, cut)}
            for line in lines[2:]]


def _close(a, b):
    return abs(a - b) <= _TOL * max(1.0, abs(b))


def _checked_spec(spec):
    try:
        return oracle.parse(spec)
    except oracle.SpecError as exc:
        raise CheckError(str(exc)) from None


# ---------------------------------------------------------------------------
# complex

_ENUMERATE_ACTION = 11
# Size of the action-11 slice, frozen like the smaller slice sizes in
# tests/test_census.py; every row is also checked against the oracle.
_ENUMERATE_COUNT = 35_677


def _check_d2(text, ctx):
    rows = parse_table(text)
    _require(not rows, "d^2 != 0 on %d generators" % len(rows))


def _check_homology(text, ctx):
    rows = parse_table(text)
    _require([r["degree"] for r in rows] == [str(k) for k in range(9)],
             "homology degrees wrong")
    _require(all(r["betti"] == "1" for r in rows), "a betti number is not 1")


def _check_enumerate(text, ctx):
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows and rows[0] == ["spec", "grading", "action"], "bad csv header")
    specs = set()
    last = None
    for spec, deg, act in rows[1:]:
        parsed = _checked_spec(spec)
        _require(oracle.grading(parsed) == int(deg), "grading of %s" % spec)
        _require(_close(oracle.action(parsed), float(act)), "action of %s" % spec)
        _require(float(act) <= _ENUMERATE_ACTION + _TOL, "%s over bound" % spec)
        _require(last is None or int(deg) >= last, "gradings out of order")
        last = int(deg)
        specs.add(spec)
    _require(len(specs) == len(rows) - 1, "duplicate generators")
    _require(len(specs) == _ENUMERATE_COUNT,
             "%d generators, expected %d" % (len(specs), _ENUMERATE_COUNT))


def _diff_check(spec):
    source = oracle.parse(spec)
    want_grading = oracle.grading(source) - 1
    source_action = oracle.action(source)

    def check(text, ctx):
        rows = parse_table(text)
        _require(len({r["spec"] for r in rows}) == len(rows), "repeated terms")
        for r in rows:
            term = _checked_spec(r["spec"])
            _require(oracle.grading(term) == want_grading == int(r["grading"]),
                     "term %s does not drop the grading by 1" % r["spec"])
            _require(oracle.action(term) < source_action - _TOL,
                     "term %s does not lower the action" % r["spec"])
            _require(_close(oracle.action(term), float(r["action"])),
                     "action of %s" % r["spec"])
    return check


def _complex(rng):
    ops = [
        Op("d2check", ["d2check", "--max-action", "10"], _check_d2),
        Op("homology", ["homology", "--max-action", "32", "--max-degree", "8"],
           _check_homology),
        Op("enumerate", ["--format", "csv", "enumerate", "--max-action",
                         str(_ENUMERATE_ACTION)], _check_enumerate),
    ]
    for i in range(4):
        spec = oracle.sample_generator(rng, 10.0, 12.0, h_free=False,
                                       items=range(1, 10))
        ops.append(Op("diff.%d" % i, ["diff", spec], _diff_check(spec)))
    return ops


# ---------------------------------------------------------------------------
# capacities


def _spectrum_rows(text, first_k, kmax):
    rows = parse_table(text)
    _require([int(r["k"]) for r in rows] == list(range(first_k, kmax + 1)),
             "capacity indices wrong")
    values = {int(r["k"]): float(r["value"]) for r in rows}
    _require(values[1] == 2.0, "c_1 != 2")
    for k in range(max(first_k, 1), kmax + 1):
        _require(values[k] <= 2 * k + _TOL, "c_%d > 2k" % k)
        if k > first_k:
            _require(values[k] >= values[k - 1], "c_%d decreases" % k)
    return rows, values


def _agree(ctx, values):
    """Capacities printed by weyl and capacity agree on their shared k."""
    seen = ctx.setdefault("spectrum", {})
    for k, v in values.items():
        if k in seen:
            _require(_close(v, seen[k]), "weyl and capacity disagree at k=%d" % k)
        seen[k] = v


def _check_weyl(text, ctx):
    rows, values = _spectrum_rows(text, 1, 32)
    for r in rows:
        k = int(r["k"])
        _require(_close(float(r["ratio"]), values[k] ** 2 / k), "ratio at %d" % k)
    _agree(ctx, values)


def _check_capacity(text, ctx):
    rows, values = _spectrum_rows(text, 0, 18)
    _require(values[0] == 0.0, "c_0 != 0")
    for r in rows:
        witness = _checked_spec(r["witness"])
        _require(oracle.grading(witness) == 2 * int(r["k"]),
                 "witness grading at k=%s" % r["k"])
        _require(_close(oracle.action(witness), float(r["value"])),
                 "witness action at k=%s" % r["k"])
    _agree(ctx, values)


def _toric_check(domain, k, low, high):
    """One cap-toric row with low <= value <= high (equal when closed form)."""
    def check(text, ctx):
        rows = parse_table(text)
        _require(len(rows) == 1, "cap-toric printed %d rows" % len(rows))
        row = rows[0]
        _require(row["domain"] == domain and row["k"] == str(k), "echo wrong")
        value = float(row["value"])
        _require(low - _TOL <= value <= high + _TOL,
                 "c_%d(%s) = %r, expected [%r, %r]" % (k, domain, value, low, high))
    return check


def _polygon(rng):
    """A convex quadrilateral (0,0), (a,0), mid, (0,b) with a, b in [1, 1.2].

    mid lies 10-20% beyond the chord from (a,0) to (0,b), so the domain is
    no ellipsoid.  It contains the unit ball's triangle, and every vertex
    has x + y <= r_out.  Monotonicity and scaling of capacities then bound
    c_k between d_k and r_out * d_k, with d_k the unit ball's capacity.
    """
    a = round(rng.uniform(1.0, 1.2), 2)
    b = round(rng.uniform(1.0, 1.2), 2)
    beyond = 1.0 + rng.uniform(0.1, 0.2)
    t = rng.uniform(0.35, 0.65)
    mid = (round(beyond * t * a, 3), round(beyond * (1 - t) * b, 3))
    pts = [(a, 0.0), mid, (0.0, b)]
    spec = "polygon:" + ";".join("%g,%g" % p for p in pts)
    return spec, max(x + y for x, y in pts)


def _capacities(rng):
    # Each k comes from [120, 135], across which the search time about
    # doubles.  The polygon, the slowest domain, takes k from the lowest
    # third and the ball and ellipsoid one each of the upper two, so the
    # run's total work stays nearly the same from seed to seed.
    ks = [rng.randint(lo, lo + 4) for lo in rng.sample((125, 131), 2)]
    ks.append(rng.randint(120, 124))
    polygon, r_out = _polygon(rng)
    ball = oracle.ball_capacity(ks[0])
    ellipsoid = oracle.ellipsoid_capacity(1, 2, ks[1])
    return [
        Op("weyl", ["weyl", "--kmax", "32"], _check_weyl),
        Op("capacity", ["capacity", "--kmax", "18"], _check_capacity),
        Op("cap-toric.ball", ["cap-toric", "--domain", "ball:1", "--k", str(ks[0])],
           _toric_check("ball:1", ks[0], ball, ball)),
        Op("cap-toric.ellipsoid",
           ["cap-toric", "--domain", "ellipsoid:1,2", "--k", str(ks[1])],
           _toric_check("ellipsoid:1,2", ks[1], ellipsoid, ellipsoid)),
        Op("cap-toric.polygon", ["cap-toric", "--domain", polygon, "--k", str(ks[2])],
           _toric_check(polygon, ks[2], oracle.ball_capacity(ks[2]),
                        r_out * oracle.ball_capacity(ks[2]))),
    ]


# ---------------------------------------------------------------------------
# gromov

_GROMOV_KMAX = 130


def _check_gromov(text, ctx):
    rows = parse_table(text)
    _require([int(r["k"]) for r in rows] == list(range(_GROMOV_KMAX + 1)),
             "gromov indices wrong")
    last = None
    for r in rows:
        k = int(r["k"])
        _require(_close(float(r["min_lhs_action"]), 2 * k + 1),
                 "min_lhs_action at k=%d is not 2k+1" % k)
        bound = float(r["bound"])
        _require(bound > 1.0, "bound at k=%d not > 1" % k)
        _require(last is None or bound < last, "bound at k=%d not decreasing" % k)
        last = bound


def _distinguished(k):
    """The width pipeline's generator H-;e(0,-1)^k;e(1,0);e(0,1)^(k+1)."""
    groups = ([(0, -1, k, False)] if k else []) + [(1, 0, 1, False),
                                                   (0, 1, k + 1, False)]
    return oracle.format_spec(True, False, groups)


def _obstruct_check(domain, spec, expected):
    def check(text, ctx):
        rows = parse_table(text)
        _require(len(rows) == 1, "obstruct printed %d rows" % len(rows))
        row = rows[0]
        _require(row["domain"] == domain and row["generator"] == spec,
                 "echo wrong")
        _require(row["obstructed"] in ("true", "false"), "not a boolean")
        if expected is not None:
            _require(row["obstructed"] == ("true" if expected else "false"),
                     "obstruct(%s, %s) = %s" % (domain, spec, row["obstructed"]))
    return check


def _gromov(rng):
    ops = [Op("gromov", ["gromov", "--kmax", str(_GROMOV_KMAX)], _check_gromov)]
    for i in range(4):
        r = round(rng.uniform(1.0, 1.3), 3)
        domain = "ball:%g" % r
        if i % 2 == 0:
            # The one-factor generator of the width pipeline: its least
            # admissible action in ball(r) is r(2k+1) against its own 2k+3.
            while True:
                k = rng.randint(1, 40)
                margin = r * (2 * k + 1) - (2 * k + 3)
                if abs(margin) > 1e-3:
                    break
            spec, expected = _distinguished(k), margin > 0
        else:
            spec = oracle.sample_product(rng, 3, 9.0, 16.0)
            expected = None
        ops.append(Op("obstruct.%d" % i,
                      ["obstruct", "--domain", domain, "--lambda-prime", spec],
                      _obstruct_check(domain, spec, expected)))
    return ops


WORKLOADS = {"complex": _complex, "capacities": _capacities, "gromov": _gromov}
