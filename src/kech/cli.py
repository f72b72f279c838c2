"""Command-line surface over the chain complex and embedding toolkits.

Every subcommand renders one rectangular report in the selected output
format (table, json, csv).  Exit codes: 0 success, 1 usage error, 2 invalid
input, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import importlib
import io
import math
import sys

#: The defining module of each engine name the handlers call.  A name is
#: imported on its first read as an attribute of this module (__getattr__
#: below), so each command loads only the engines it calls.  Handlers read
#: the names on _engines, the module object, so that a name set on kech.cli
#: (a test's patch, the bench tracer's wrapper) is the one they call.
_ENGINES = {name: module for module, names in (
    ("census", "spec_actions"),
    ("diff", "differential"),
    ("homology", "betti_numbers d_squared_report"),
    ("obstruction", "embedding_obstructed gromov_upper"),
    ("paths", "action format_path grading grading_lattice pair_count "
              "parse_path total_class validate"),
    ("spectrum", "capacity capacity_series weyl_series"),
    ("toric", "format_convex_generator parse_domain"),
    ("toric_dp", "toric_capacity_detail"),
) for name in names.split()}


def __getattr__(name):
    """An engine name of _ENGINES, imported from its module on first read."""
    if name not in _ENGINES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = importlib.import_module("." + _ENGINES[name], __package__)
    value = globals()[name] = getattr(module, name)
    return value


_engines = sys.modules[__name__]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

_SCHEMA = "kech/1"

# Input limits: each command exits 2 at once past its limit (_within_reach),
# rather than run for more than a minute.

#: Largest action bound the command line accepts for enumerate.  The whole
#: slice ends within a minute up to here on a 2-core Xeon with Python 3.11:
#: as csv 15 s and 334 MiB peak RSS at 16 (7.8 s and 160 MiB at 15, 3.1 s
#: and 79 MiB at 14), as a table 19 s and 474 MiB at 16 (9.1 s and 225 MiB
#: at 15, 4.4 s and 108 MiB at 14, 2.2 s and 56 MiB at 13), its time and
#: memory growing about 2.1-fold per unit of action.  At 17 it ends in 33
#: to 45 s as csv and 45 to 47 s as a table, but the table takes 1 GiB and
#: json holds every row as a dict (495 MiB at 15), so the limit stays here.
ENUMERATE_ACTION_LIMIT = 16

#: Largest grading for which enumerate --grading takes any action bound.
#: Its capped scan stops at action grading + 2 (see kech.census), so up to
#: grading 14 ENUMERATE_ACTION_LIMIT bounds it already.  At action 1e6 on a
#: 2-core Xeon with Python 3.11, enumerate --grading ends in 49 to 50 s and
#: 22 MiB peak RSS at 47 in two child-process runs, against 60 to 64 s at 48
#: (45 to 48 s at 46, 33 s at 42, 11 s at 34), its time growing about
#: 1.2-fold per grading.  Above this grading ENUMERATE_ACTION_LIMIT holds.
ENUMERATE_GRADING_LIMIT = 47

#: Largest action bound the command line accepts for d2check.
#: d_squared_report ends within a minute up to here on a 2-core Xeon with
#: Python 3.11: 13 to 16 s and 137 MiB peak RSS at 14 (4.5 to 7.0 s and
#: 69 MiB at 13, 1.7 to 2.5 s and 38 MiB at 12) in six child-process runs
#: each, its time growing about 2.6-fold per unit of action.
D2CHECK_ACTION_LIMIT = 14

#: Largest degree bound the command line accepts for homology.  The slice
#: is capped at grading max_degree + 1, so its scan stops at action
#: max_degree + 3 (see kech.census) whatever the action bound.  At action
#: 1e6 on a 2-core Xeon with Python 3.11, homology takes 77 s and 142 MiB
#: peak RSS at degree 46 in a child process on a shared host whose runs
#: spread by a third (45 s and 74 MiB at 40, 8.1 s and 29 MiB at 30), and
#: in process 53 to 57 s of scan and 4.9 to 5.5 s of barcode at 46.  Time
#: grows about 1.2-fold and memory 1.1-fold per degree.
HOMOLOGY_DEGREE_LIMIT = 46

#: Largest index the command line accepts for capacity and weyl.
#: capacity --kmax ends within a minute up to here on a 2-core Xeon with
#: Python 3.11: 49 s at 380 in two child-process runs, against 57 to 66 s
#: at 400 (22 to 24 s at 300).  The time grows about as kmax^3.4
#: (capacity_series takes 0.6 s at 100 and 6 s at 200 in process).
KMAX_LIMIT = 380

#: Largest k the command line accepts for cap-toric.  toric_capacity_detail
#: ends within a minute up to here on a 2-core Xeon with Python 3.11: 34 to
#: 49 s at k = 2000 on balls, ellipsoids and quadrilaterals, 25 s at 1700,
#: and 19 to 22 s on the near tie ellipsoid:1,1.000001 in a child process.
K_LIMIT = 2000

#: Least largest coordinate, max(support(1, 0), support(0, 1)), of a
#: domain the command line accepts for cap-toric at k >= 1.  The replay's
#: margin (1e-6) and rounding rules are absolute, so on a domain scaled
#: down far enough its sweeps keep nearly every state.  In child processes
#: at k = 2000 on a 2-core Xeon with Python 3.11: at the floor, ball:1e-4
#: 19 s and the quadrilateral 1.1,0;0.7,0.63;0,1.05 scaled by 1e-4 26 s;
#: that quadrilateral scaled by 1e-5 74 s and 1.2 GiB peak RSS.
TORIC_SIZE_FLOOR = 1e-4

#: Largest kmax the command line accepts for gromov.  gromov_upper takes
#: 16 to 17 s at kmax = 1000 on a 2-core Xeon with Python 3.11 (1.4 s at
#: 300, 0.3 s at 130), its time growing about as kmax^2, and every record
#: up to here matches (2k+3)/(2k+1).
GROMOV_KMAX_LIMIT = 1000

#: Largest atom count (half-arrow pairs plus orbit classes) the command line
#: accepts for obstruct.  The time grows with the number of factorizations,
#: about Bell(n) at worst, and with the distinct (grading, bound) searches
#: their blocks ask.  On the symmetric family (walls, sloped classes (1,-j)
#: and (j,-1) below the axis and their mirror images above, e(1,0)^2 or a
#: pair and e(1,0) for parity) in ball:3, where every factorization is
#: infeasible and all are tried, one run each on a 2-core Xeon with Python
#: 3.11 takes 2.0 s at 13 atoms, 3.2 s at 14 and 22 s at 15; a 15-atom
#: variant with a pair and a longer descent takes 34 s, 31 of them in its 515
#: searches (ball:1 stops at the first feasible one: 0.7, 1.7, 6.2 s).
OBSTRUCT_ITEMS_LIMIT = 14


class _UsageError(Exception):
    """Argument combinations the grammar cannot express in argparse."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for bad
    input data, so usage failures are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _build_parser() -> _Parser:
    parser = _Parser(prog="kech", description=__doc__.splitlines()[0])
    parser.add_argument("--format", choices=("table", "json", "csv"),
                        default="table", help="output format")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("validate", help="check a path spec")
    p.add_argument("spec")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("grade", help="grading, action, and class of a path")
    p.add_argument("spec")
    p.set_defaults(handler=_cmd_grade)

    p = sub.add_parser("diff", help="differential of a path")
    p.add_argument("spec")
    p.set_defaults(handler=_cmd_diff)

    p = sub.add_parser("enumerate", help="generators up to an action bound")
    p.add_argument("--max-action", type=float, required=True)
    p.add_argument("--grading", type=int, default=None)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("d2check", help="verify the differential squares to zero")
    p.add_argument("--max-action", type=float, required=True)
    p.set_defaults(handler=_cmd_d2check)

    p = sub.add_parser("homology", help="betti numbers of an action slice")
    p.add_argument("--max-action", type=float, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.set_defaults(handler=_cmd_homology)

    p = sub.add_parser("capacity", help="spectrum values")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.set_defaults(handler=_cmd_capacity)

    p = sub.add_parser("weyl", help="growth diagnostic c_k^2/k")
    p.add_argument("--kmax", type=int, required=True)
    p.set_defaults(handler=_cmd_weyl)

    p = sub.add_parser("cap-toric", help="toric domain capacity")
    p.add_argument("--domain", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_cap_toric)

    p = sub.add_parser("gromov", help="embedding-constant upper bounds")
    p.add_argument("--kmax", type=int, required=True)
    p.set_defaults(handler=_cmd_gromov)

    p = sub.add_parser("obstruct", help="embedding obstruction for a generator")
    p.add_argument("--domain", required=True)
    p.add_argument("--lambda-prime", required=True, dest="lambda_prime")
    p.set_defaults(handler=_cmd_obstruct)
    return parser


# ---------------------------------------------------------------------------
# Handlers: each returns (columns, rows, exit_code); a row is a tuple of
# cells in column order


def _class_cell(path) -> str:
    cls = _engines.total_class(path)
    return "(%d, %d, %d)" % (cls.n, cls.a, cls.b)


def _cmd_validate(args):
    path = _engines.parse_path(args.spec)
    kind = _engines.validate(path)
    return (("spec", "type"), [(_engines.format_path(path), kind)], EXIT_OK)


def _cmd_grade(args):
    path = _engines.parse_path(args.spec)
    kind = _engines.validate(path)
    row = (_engines.format_path(path), kind, _engines.grading(path),
           _engines.grading_lattice(path), _engines.action(path),
           _class_cell(path))
    return (("spec", "type", "grading", "grading_lattice", "action", "class"),
            [row], EXIT_OK)


def _cmd_diff(args):
    path = _engines.parse_path(args.spec)
    rows = [(_engines.format_path(term), _engines.grading(term),
             _engines.action(term))
            for term in _engines.differential(path).terms()]
    return (("spec", "grading", "action"), rows, EXIT_OK)


def _action_bound(args) -> float:
    if not (args.max_action > 0 and math.isfinite(args.max_action)):
        raise ValueError("action bound must be positive and finite")
    return args.max_action


def _cmd_enumerate(args):
    max_action = _action_bound(args)
    if args.grading is None or args.grading > ENUMERATE_GRADING_LIMIT:
        _within_reach("max-action", max_action, ENUMERATE_ACTION_LIMIT)
    actions = _engines.spec_actions(max_action, args.grading)
    rows = ((spec, degree, value) for degree, specs in actions.items()
            for spec, value in specs.items())
    return (("spec", "grading", "action"), rows, EXIT_OK)


def _cmd_d2check(args):
    max_action = _action_bound(args)
    _within_reach("max-action", max_action, D2CHECK_ACTION_LIMIT)
    violations = _engines.d_squared_report(max_action)
    rows = [(spec, surv) for spec, survivors in violations for surv in survivors]
    return (("spec", "survivor"), rows,
            EXIT_OK if not rows else EXIT_INTERNAL)


def _cmd_homology(args):
    max_action = _action_bound(args)
    if args.max_degree < 0:
        raise ValueError("degree bound must be nonnegative")
    _within_reach("max-degree", args.max_degree, HOMOLOGY_DEGREE_LIMIT)
    rows = list(enumerate(_engines.betti_numbers(args.max_degree, max_action)))
    return (("degree", "betti"), rows, EXIT_OK)


def _within_reach(name: str, value: float, limit: float) -> None:
    if value > limit:
        raise ValueError("%s %s is out of reach: the command takes up to a "
                         "minute at %s %s, the largest accepted"
                         % (name, value, name, limit))


def _cmd_capacity(args):
    if args.k is None and args.kmax is None:
        raise _UsageError("capacity needs --k or --kmax")
    if args.kmax is not None:
        _within_reach("kmax", args.kmax, KMAX_LIMIT)
        start = args.k if args.k is not None else 0
        if start < 0 or args.kmax < start:
            raise ValueError("need 0 <= k <= kmax")
        results = _engines.capacity_series(args.kmax)[start:]
    else:
        _within_reach("k", args.k, KMAX_LIMIT)
        results = [_engines.capacity(args.k)]
    rows = [(result.k, result.value, _engines.format_path(result.witness))
            for result in results]
    return (("k", "value", "witness"), rows, EXIT_OK)


def _cmd_weyl(args):
    if args.kmax < 1:
        raise ValueError("kmax must be >= 1")
    _within_reach("kmax", args.kmax, KMAX_LIMIT)
    rows = _engines.weyl_series(args.kmax)
    return (("k", "value", "ratio"), rows, EXIT_OK)


def _cmd_cap_toric(args):
    domain = _engines.parse_domain(args.domain)
    _within_reach("k", args.k, K_LIMIT)
    size = max(domain.support(1.0, 0.0), domain.support(0.0, 1.0))
    if args.k >= 1 and size < TORIC_SIZE_FLOOR:
        raise ValueError("domain %s is out of reach: its largest coordinate "
                         "%r is below %r, the least accepted"
                         % (domain.describe(), size, TORIC_SIZE_FLOOR))
    value, witness = _engines.toric_capacity_detail(domain, args.k)
    row = (domain.describe(), args.k, value,
           _engines.format_convex_generator(witness))
    return (("domain", "k", "value", "witness"), [row], EXIT_OK)


def _cmd_gromov(args):
    _within_reach("kmax", args.kmax, GROMOV_KMAX_LIMIT)
    report = _engines.gromov_upper(args.kmax)
    rows = [(record.k, record.generator_spec, record.rhs_action,
             record.min_lhs_action, record.witness_spec, record.bound,
             record.flat_candidate_bound, running)
            for record, running in zip(report.records, report.running_inf)]
    return (("k", "generator", "rhs_action", "min_lhs_action", "witness",
             "bound", "flat_candidate_bound", "running_inf"), rows, EXIT_OK)


def _cmd_obstruct(args):
    domain = _engines.parse_domain(args.domain)
    path = _engines.parse_path(args.lambda_prime)
    _within_reach("items", _engines.pair_count(path) + len(path.groups),
                  OBSTRUCT_ITEMS_LIMIT)
    result = _engines.embedding_obstructed(domain, path)
    row = (domain.describe(), _engines.format_path(path), result)
    return (("domain", "generator", "obstructed"), [row], EXIT_OK)


# ---------------------------------------------------------------------------
# Rendering


def _cell(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


#: Characters collected before each write to out: csv and table output reach
#: it in blocks of about 64 KiB, not a write per row.
_BLOCK = 1 << 16


def _emit(output_format: str, command: str, columns, rows, out) -> None:
    if output_format == "json":
        import json
        payload = {"schema": _SCHEMA, "command": command,
                   "columns": list(columns),
                   "rows": [dict(zip(columns, row)) for row in rows]}
        out.write(json.dumps(payload, sort_keys=True) + "\n")
        return
    buf = io.StringIO()
    if output_format == "csv":
        import csv
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)

        def write_row(row):
            writer.writerow(map(_cell, row))
    else:
        # sized from the row tuples, so no row keeps a list of its cells
        rows = list(rows)
        widths = [len(c) for c in columns]
        for row in rows:
            widths = [max(w, len(_cell(v))) for w, v in zip(widths, row)]

        def write_row(row):
            buf.write("  ".join(_cell(v).ljust(w) for v, w in zip(row, widths)).rstrip()
                      + "\n")
        write_row(columns)
        write_row(["-" * w for w in widths])
    for row in rows:
        write_row(row)
        if buf.tell() >= _BLOCK:
            out.write(buf.getvalue())
            buf.seek(0)
            buf.truncate()
    out.write(buf.getvalue())


def _unknown_global_flag(argv):
    """The first flag before the command that kech does not define, or None.

    argparse would read such a flag's value as the command and report only
    that value as an invalid choice.  The global flags are mirrored here with
    optional values, so this pass never fails on its own.
    """
    known = argparse.ArgumentParser(add_help=False)
    known.add_argument("-h", "--help", nargs="?")
    known.add_argument("--format", nargs="?")
    _, rest = known.parse_known_args(argv)
    if rest and rest[0].startswith("-") and rest[0] != "--":
        return rest[0]
    return None


def main(argv=None) -> int:
    parser = _build_parser()
    flag = _unknown_global_flag(argv)
    if flag is not None:
        parser.error("unrecognized arguments: %s" % flag)
    args = parser.parse_args(argv)
    try:
        columns, rows, code = args.handler(args)
    except _UsageError as exc:
        print("%s: error: %s" % (parser.prog, exc), file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print("internal invariant violation: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    _emit(args.format, args.command, columns, rows, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
