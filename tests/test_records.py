"""Every public record is a named tuple: a plain value, cheap to import."""

import os
import subprocess
import sys

import pytest

import kech
from _naive import BitMatrix, boundary_matrix
from kech.census import ComplexSlice, generators_up_to_action
from kech.indexes import CurveData
from kech.paths import EMPTY_PATH, H1Class, parse_path
from kech.spectrum import CapacityResult, capacity
from kech.obstruction import GromovRecord, GromovReport, gromov_upper
from kech.toric import CgClass, ConvexGenerator, ToricDomain, make_convex_generator

FIELDS = {
    ComplexSlice: ("action_bound", "per_degree"),
    BitMatrix: ("rows", "cols", "columns"),
    CurveData: ("genus", "alpha", "beta"),
    H1Class: ("n", "a", "b"),
    CapacityResult: ("k", "value", "witness"),
    CgClass: ("a", "b", "e_mult", "h_flag"),
    ConvexGenerator: ("groups",),
    ToricDomain: ("kind", "params", "vertices"),
    GromovRecord: ("k", "generator_spec", "rhs_action", "min_lhs_action",
                   "witness_spec", "bound", "flat_candidate_bound"),
    GromovReport: ("records", "running_inf"),
}


def _samples():
    report = gromov_upper(2)
    return [
        generators_up_to_action(4.0),
        boundary_matrix(2, 5.0),
        CurveData(0, parse_path("h(1,-1);h(1,1)"), EMPTY_PATH),
        H1Class(2, 1, 0),
        capacity(3),
        CgClass(1, 2, 1, True),
        make_convex_generator([(1, 0, 1, False), (1, 1, 2, True)]),
        ToricDomain.ellipsoid(1.0, 2.0),
        report.records[1],
        report,
    ]


def _child_stdout(code):
    """stdout of a fresh interpreter running code with this kech on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kech.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_importing_kech_loads_neither_dataclasses_nor_inspect():
    code = ("import sys; before = set(sys.modules); import kech.cli, kech; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    assert _child_stdout(code) == "[]\n"


def test_importing_kech_cli_leaves_indexes_unloaded():
    # the package root imports no module, so the command line loads only
    # the engines it calls
    code = "import sys, kech.cli; print('kech.indexes' in sys.modules)"
    assert _child_stdout(code) == "False\n"


def test_importing_kech_cli_loads_no_engine_json_or_csv():
    code = ("import sys; before = set(sys.modules); import kech.cli; "
            "new = set(sys.modules) - before; "
            "print(sorted(m for m in new if m.split('.')[0] == 'kech'), "
            "sorted({'json', 'csv'} & new))")
    assert _child_stdout(code) == "['kech', 'kech.cli'] []\n"


_COMMAND_RUN = """import contextlib, io, sys
before = set(sys.modules)
import kech.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = kech.cli.main(%r)
new = set(sys.modules) - before
print(code, sorted(m for m in new if m.startswith('kech.')),
      sorted({'json', 'csv'} & new))
"""


#: Each command, on a tiny input, and the kech modules besides kech.cli it loads.
_COMMAND_ENGINES = [
    (["validate", "h(1,-1);h(1,1)"], ["paths"]),
    (["grade", "H-;h(1,1)"], ["paths"]),
    (["diff", "h(1,-1);h(1,1)"], ["paths", "diff"]),
    (["enumerate", "--max-action", "3"], ["paths", "census"]),
    (["d2check", "--max-action", "4"], ["paths", "census", "diff", "homology"]),
    (["homology", "--max-action", "4", "--max-degree", "2"],
     ["paths", "census", "diff", "homology"]),
    (["capacity", "--kmax", "3"], ["paths", "census", "spectrum"]),
    (["weyl", "--kmax", "3"], ["paths", "census", "spectrum"]),
    (["cap-toric", "--domain", "ball:1", "--k", "2"], ["paths", "toric", "toric_dp"]),
    (["gromov", "--kmax", "3"], ["obstruction", "paths", "toric"]),
    (["obstruct", "--domain", "ball:1.2", "--lambda-prime",
      "H-;e(0,-1);e(1,0);e(0,1)^2"], ["obstruction", "paths", "toric"]),
]


@pytest.mark.parametrize("argv, engines", _COMMAND_ENGINES,
                         ids=[argv[0] for argv, _ in _COMMAND_ENGINES])
def test_each_command_loads_only_its_engines(argv, engines):
    # table output, so neither json nor csv is needed
    expected = sorted(["kech.cli"] + ["kech." + name for name in engines])
    assert _child_stdout(_COMMAND_RUN % argv) == "0 %s []\n" % expected


def test_package_root_holds_only_the_version():
    # every public name is imported from its own module
    code = ("import kech; print(sorted(n for n in vars(kech) if not n.startswith('_')), "
            "hasattr(kech, '__version__'))")
    assert _child_stdout(code) == "[] True\n"


@pytest.mark.parametrize("record", _samples(), ids=lambda r: type(r).__name__)
def test_records_are_immutable_values(record):
    cls = type(record)
    names = FIELDS[cls]
    values = tuple(getattr(record, name) for name in names)
    assert tuple(record) == values
    assert record == cls(*values)
    if cls is ComplexSlice:
        # per_degree is a dict, so neither the slice nor its fields hash
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert repr(record) == "%s(%s)" % (
        cls.__name__, ", ".join("%s=%r" % pair for pair in zip(names, values)))


def test_record_overrides_of_tuple_methods_still_hold():
    total = H1Class(1, 1, 0) + H1Class(2, 1, 1)
    assert type(total) is H1Class and total == H1Class(3, 0, 1)
    assert str(total) == "(3,0,1)"
    sl = generators_up_to_action(6.0)
    assert sl.count() == len(list(sl.all_generators())) > 0
    assert sl.count() == sum(len(sl.generators(k)) for k in sl.degrees())
