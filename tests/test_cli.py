import hashlib
import importlib
import json
import sys
import time

import pytest

import kech.census
import kech.cli
import kech.homology
import kech.obstruction
import kech.spectrum
import kech.toric_dp
from kech.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, KMAX_LIMIT, main
from kech.paths import pair_count, parse_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", "0")
    assert code == EXIT_OK
    assert out == "spec  type\n----  -----\n0     empty\n"
    assert err == ""


def test_validate_bad_spec_exits_input(capsys):
    code, out, err = run(capsys, "validate", "H-;h(1,2)")
    assert code == EXIT_INPUT
    assert out == ""
    assert "error:" in err and "close" in err


def test_validate_syntax_error_exits_input(capsys):
    code, _, err = run(capsys, "validate", "e(((")
    assert code == EXIT_INPUT
    assert "error:" in err


def test_grade_table_golden(capsys):
    code, out, _ = run(capsys, "grade", "h(1,0);e(1,0)")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "spec           type  grading  grading_lattice  action  class",
        "-------------  ----  -------  ---------------  ------  ---------",
        "h(1,0);e(1,0)  I     1        1                2.0     (0, 0, 0)",
    ]


def test_json_schema_and_round_trip(capsys):
    code, out, _ = run(capsys, "--format", "json", "grade", "H-;h(1,1)")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "kech/1"
    assert payload["command"] == "grade"
    assert payload["columns"][0] == "spec"
    row = payload["rows"][0]
    assert row["spec"] == "H-;h(1,1)" and row["type"] == "II"
    assert isinstance(row["action"], float)
    # serialization is a fixed point: emitting the parsed payload reproduces it
    assert json.dumps(payload, sort_keys=True) + "\n" == out


def test_output_is_deterministic(capsys):
    first = run(capsys, "--format", "json", "enumerate", "--max-action", "3")
    second = run(capsys, "--format", "json", "enumerate", "--max-action", "3")
    assert first == second


def test_csv_golden(capsys):
    code, out, _ = run(capsys, "--format", "csv", "capacity", "--k", "1")
    assert code == EXIT_OK
    assert out == 'k,value,witness\n1,2.0,"e(0,-1);e(0,1)"\n'


def test_diff_lists_chain_terms(capsys):
    code, out, _ = run(capsys, "diff", "h(1,-1);h(1,1)")
    assert code == EXIT_OK
    body = out.splitlines()[2:]
    specs = sorted(line.split()[0] for line in body)
    assert specs == ["H-;h(1,1)", "h(1,-1);H+", "h(1,0);e(1,0)"]


def test_enumerate_grading_filter(capsys):
    import csv as csvmod
    import io

    code, out, _ = run(capsys, "--format", "csv", "enumerate",
                       "--max-action", "5", "--grading", "1")
    assert code == EXIT_OK
    rows = list(csvmod.reader(io.StringIO(out)))
    assert rows[0] == ["spec", "grading", "action"]
    assert sorted(r[0] for r in rows[1:]) == [
        "H-;h(1,1)", "h(1,-1);H+", "h(1,0);e(1,0)"]
    assert all(r[1] == "1" for r in rows[1:])


def test_enumerate_grading_rows_are_the_full_rows_of_that_grading(capsys):
    import csv as csvmod

    code, out, _ = run(capsys, "--format", "csv", "enumerate", "--max-action", "7")
    assert code == EXIT_OK
    header, *lines = out.splitlines()
    gradings = [next(csvmod.reader([line]))[1] for line in lines]
    assert len(set(gradings)) > 3
    for g in range(-1, max(map(int, gradings)) + 2):
        code, got, _ = run(capsys, "--format", "csv", "enumerate",
                           "--max-action", "7", "--grading", str(g))
        assert code == EXIT_OK
        assert got.splitlines() == [header] + [
            line for line, h in zip(lines, gradings) if h == str(g)], g


# sha256 of the csv bytes, frozen from the implementation that formatted each
# path once to sort its degree and once more for its row
ENUMERATE_CSV_DIGESTS = {
    (): "29509d167c98fe0f9769c7e03f1cda9e70a39f0c3d86d525a4226909f9eef11e",
    ("--grading", "5"):
        "2caece0852c818f0731421e06836e9515f7b236aa318b8437a4527d3eba75067",
}


@pytest.mark.parametrize("extra", ENUMERATE_CSV_DIGESTS)
def test_enumerate_csv_golden(capsys, extra):
    code, out, _ = run(capsys, "--format", "csv", "enumerate", "--max-action", "9",
                       *extra)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_CSV_DIGESTS[extra]


# sha256 of table and json bytes, frozen from the renderer that built a dict
# per row and wrote each row on its own
RENDER_DIGESTS = {
    ("table", "enumerate", "--max-action", "8"):
        "97f7c08ce9eec623a553889999100d94020586290795fd131454db519568a7ae",
    ("json", "enumerate", "--max-action", "8"):
        "8558a5215971bd498a89d95fb5ecfd2b0fa8f25969865407adf6687620bf3e13",
    ("table", "gromov", "--kmax", "5"):
        "d6f2d39cb19bf065f8a2cfa3a4eadee41fc07727e7c8f4978f360e6b25c64c3b",
}


@pytest.mark.parametrize("argv", RENDER_DIGESTS)
def test_render_golden(capsys, argv):
    code, out, _ = run(capsys, "--format", *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == RENDER_DIGESTS[argv]


class _CountingStream:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


@pytest.mark.parametrize("output_format", ["csv", "table"])
def test_rows_reach_the_stream_in_blocks(monkeypatch, output_format):
    stream = _CountingStream()
    monkeypatch.setattr(sys, "stdout", stream)
    code = main(["--format", output_format, "enumerate", "--max-action", "9"])
    monkeypatch.undo()
    assert code == EXIT_OK
    data = "".join(stream.writes).encode()
    if output_format == "csv":
        assert hashlib.sha256(data).hexdigest() == ENUMERATE_CSV_DIGESTS[()]
    assert data.count(b"\n") > 5000
    assert len(stream.writes) <= len(data) // 65536 + 2


def test_enumerate_grading_never_builds_an_uncapped_slice(capsys, monkeypatch):
    scan = kech.census.scan_generators
    caps = []

    def recording_scan(max_action, emit, max_grading=None):
        caps.append(max_grading)
        return scan(max_action, emit, max_grading)

    monkeypatch.setattr(kech.census, "scan_generators", recording_scan)
    code, out, _ = run(capsys, "--format", "csv", "enumerate", "--max-action",
                       str(kech.cli.ENUMERATE_ACTION_LIMIT), "--grading", "2")
    assert code == EXIT_OK
    assert caps == [2]
    rows = out.splitlines()[1:]
    assert rows and all(",2," in row for row in rows)


def test_d2check_clean(capsys):
    code, out, _ = run(capsys, "d2check", "--max-action", "4")
    assert code == EXIT_OK
    assert out.splitlines()[0].split() == ["spec", "survivor"]


def test_d2check_violation_exits_internal(capsys, monkeypatch):
    monkeypatch.setattr("kech.cli.d_squared_report",
                        lambda bound: [("x", ["y", "z"])])
    code, out, _ = run(capsys, "d2check", "--max-action", "4")
    assert code == EXIT_INTERNAL
    assert len(out.splitlines()) == 4


def test_homology_rows(capsys):
    code, out, _ = run(capsys, "--format", "csv", "homology",
                       "--max-action", "6", "--max-degree", "2")
    assert code == EXIT_OK
    assert out == "degree,betti\n0,1\n1,1\n2,1\n"


def test_homology_past_the_action_budget_is_unchanged(capsys):
    # no generator of grading <= 13 has action above 15, so the capped scan
    # behind degree 12 finds the same slice at action 15 and at 1e6
    outs = [run(capsys, "homology", "--max-action", bound, "--max-degree", "12")
            for bound in ("1e6", "15")]
    assert outs[0] == outs[1]
    assert outs[0][0] == EXIT_OK


def test_capacity_requires_an_index(capsys):
    code, _, err = run(capsys, "capacity")
    assert code == EXIT_USAGE
    assert "needs --k or --kmax" in err


def test_capacity_range(capsys):
    code, out, _ = run(capsys, "--format", "csv", "capacity", "--kmax", "2")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert [line.split(",")[0] for line in lines] == ["k", "0", "1", "2"]


def test_capacity_negative_exits_input(capsys):
    code, _, err = run(capsys, "capacity", "--k", "-3")
    assert code == EXIT_INPUT
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("capacity", "--k", "{}"),
    ("capacity", "--kmax", "{}"),
    ("capacity", "--k", "3", "--kmax", "{}"),
    ("weyl", "--kmax", "{}"),
])
def test_out_of_reach_kmax_fails_fast(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("the capacity search ran")

    monkeypatch.setattr(kech.spectrum, "_bucket_minima", refuse)
    t0 = time.monotonic()
    code, out, err = run(capsys, *(a.format(KMAX_LIMIT + 1) for a in argv))
    assert time.monotonic() - t0 < 1.0
    assert code == EXIT_INPUT
    assert out == ""
    assert "out of reach" in err and str(KMAX_LIMIT) in err


def test_out_of_reach_k_names_the_flag_given(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the capacity search ran")

    monkeypatch.setattr(kech.spectrum, "_bucket_minima", refuse)
    code, out, err = run(capsys, "capacity", "--k", str(KMAX_LIMIT + 1))
    assert code == EXIT_INPUT
    assert out == ""
    assert "k %d is out of reach" % (KMAX_LIMIT + 1) in err
    assert "at k %d," % KMAX_LIMIT in err and "kmax" not in err


def test_weyl_rows(capsys):
    code, out, _ = run(capsys, "--format", "csv", "weyl", "--kmax", "3")
    assert code == EXIT_OK
    assert [line.split(",")[0] for line in out.splitlines()] == ["k", "1", "2", "3"]


def test_cap_toric_golden(capsys):
    code, out, _ = run(capsys, "cap-toric", "--domain", "ball:1", "--k", "5")
    assert code == EXIT_OK
    assert out.splitlines()[-1].split() == ["ball:1", "5", "2.0", "e(1,1)^2"]


def test_out_of_reach_toric_k_fails_fast(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the toric search ran")

    monkeypatch.setattr(kech.obstruction, "admissible_min_action", refuse)
    monkeypatch.setattr(kech.toric_dp, "replay", refuse)
    t0 = time.monotonic()
    code, out, err = run(capsys, "cap-toric", "--domain", "ball:1",
                         "--k", str(kech.cli.K_LIMIT + 1))
    assert time.monotonic() - t0 < 1.0
    assert code == EXIT_INPUT
    assert out == ""
    assert "out of reach" in err and str(kech.cli.K_LIMIT) in err


def test_toric_domain_below_the_floor_fails_fast(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the toric search ran")

    monkeypatch.setattr(kech.obstruction, "admissible_min_action", refuse)
    monkeypatch.setattr(kech.toric_dp, "replay", refuse)
    # the bench-style quadrilateral scaled by 1e-5 takes 74 s at k = 2000
    for domain in ("polygon:0,0", "polygon:1.1e-5,0;0.7e-5,0.63e-5;0,1.05e-5"):
        t0 = time.monotonic()
        code, out, err = run(capsys, "cap-toric", "--domain", domain, "--k", "500")
        assert time.monotonic() - t0 < 1.0
        assert code == EXIT_INPUT, domain
        assert out == ""
        assert "out of reach" in err and repr(kech.cli.TORIC_SIZE_FLOOR) in err
    # the index check comes first
    code, out, err = run(capsys, "cap-toric", "--domain", "polygon:0,0", "--k", "-1")
    assert code == EXIT_INPUT and out == ""
    assert "nonnegative" in err and "out of reach" not in err


@pytest.mark.parametrize("domain, k, row", [
    ("ball:%r" % kech.cli.TORIC_SIZE_FLOOR, "1", [repr(kech.cli.TORIC_SIZE_FLOOR), "e(1,0)"]),
    # a thin domain with a unit side: only its cheap vertical class fits
    ("ellipsoid:1e-5,1", "500", ["0.005", "e(0,1)^500"]),
    # k = 0 needs no search, on any domain
    ("polygon:0,0", "0", ["0.0", "0"]),
])
def test_toric_domains_the_floor_accepts(capsys, domain, k, row):
    code, out, err = run(capsys, "cap-toric", "--domain", domain, "--k", k)
    assert code == EXIT_OK and err == ""
    assert out.splitlines()[-1].split()[2:] == row


def test_out_of_reach_gromov_kmax_fails_fast(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the gromov search ran")

    monkeypatch.setattr(kech.obstruction, "_pool_by_height", refuse)
    monkeypatch.setattr(kech.obstruction, "_admissible_search", refuse)
    t0 = time.monotonic()
    code, out, err = run(capsys, "gromov", "--kmax",
                         str(kech.cli.GROMOV_KMAX_LIMIT + 1))
    assert time.monotonic() - t0 < 1.0
    assert code == EXIT_INPUT
    assert out == ""
    assert "out of reach" in err and str(kech.cli.GROMOV_KMAX_LIMIT) in err


# the symmetric obstruct family at 14 and 15 atoms (pairs plus classes)
OBSTRUCT_AT_LIMIT = ("H-;e(0,-1);e(1,-3);e(1,-2);e(1,-1);e(2,-1);e(3,-1);e(1,0);"
                     "e(3,1);e(2,1);e(1,1);e(1,2);e(1,3);e(0,1)^2")
OBSTRUCT_PAST_LIMIT = ("e(0,-1);e(1,-4);e(1,-3);e(1,-2);e(1,-1);e(2,-1);e(3,-1);"
                       "e(1,0)^2;e(3,1);e(2,1);e(1,1);e(1,2);e(1,3);e(1,4);e(0,1)")


def items(spec):
    path = parse_path(spec)
    return pair_count(path) + len(path.groups)


def test_out_of_reach_obstruct_items_fails_fast(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the obstruction search ran")

    monkeypatch.setattr(kech.obstruction, "factorizations", refuse)
    monkeypatch.setattr(kech.obstruction, "admissible_min_action", refuse)
    limit = kech.cli.OBSTRUCT_ITEMS_LIMIT
    assert items(OBSTRUCT_PAST_LIMIT) == limit + 1
    t0 = time.monotonic()
    code, out, err = run(capsys, "obstruct", "--domain", "ball:3",
                         "--lambda-prime", OBSTRUCT_PAST_LIMIT)
    assert time.monotonic() - t0 < 1.0
    assert code == EXIT_INPUT
    assert out == ""
    assert "out of reach" in err and "items %d" % limit in err


def test_obstruct_items_at_the_limit_are_accepted(capsys, monkeypatch):
    monkeypatch.setattr(kech.cli, "embedding_obstructed",
                        lambda domain, path: True)
    assert items(OBSTRUCT_AT_LIMIT) == kech.cli.OBSTRUCT_ITEMS_LIMIT
    code, out, err = run(capsys, "--format", "csv", "obstruct", "--domain",
                         "ball:3", "--lambda-prime", OBSTRUCT_AT_LIMIT)
    assert code == EXIT_OK and err == ""
    assert out.splitlines()[-1].endswith(",true")


@pytest.mark.parametrize("argv, message", [
    (("cap-toric", "--domain", "ball:1", "--k", "-1"),
     "capacity index must be nonnegative"),
    (("gromov", "--kmax", "-1"), "kmax must be nonnegative"),
])
def test_negative_index_exits_input(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("command, limit", [
    ("enumerate", kech.cli.ENUMERATE_ACTION_LIMIT),
    ("d2check", kech.cli.D2CHECK_ACTION_LIMIT),
])
def test_out_of_reach_action_fails_fast(capsys, monkeypatch, command, limit):
    def refuse(*args):
        raise AssertionError("the %s scan ran" % command)

    monkeypatch.setattr(kech.cli, "generators_up_to_action", refuse)
    monkeypatch.setattr(kech.cli, "d_squared_report", refuse)
    for bound in ("1000", str(limit + 0.5)):
        t0 = time.monotonic()
        code, out, err = run(capsys, command, "--max-action", bound)
        assert time.monotonic() - t0 < 1.0
        assert code == EXIT_INPUT
        assert out == ""
        assert "out of reach" in err and "max-action %d" % limit in err


def test_action_at_the_limit_is_accepted(capsys, monkeypatch):
    monkeypatch.setattr(kech.cli, "d_squared_report", lambda bound: [])
    code, _, err = run(capsys, "d2check", "--max-action",
                       str(kech.cli.D2CHECK_ACTION_LIMIT))
    assert code == EXIT_OK and err == ""


def test_out_of_reach_enumerate_grading_fails_fast(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the enumerate scan ran")

    monkeypatch.setattr(kech.cli, "spec_actions", refuse)
    action_limit = kech.cli.ENUMERATE_ACTION_LIMIT
    limit = kech.cli.ENUMERATE_GRADING_LIMIT
    for grading in ([], ["--grading", str(limit + 1)]):
        for bound in ("1e6", str(action_limit + 0.5)):
            t0 = time.monotonic()
            code, out, err = run(capsys, "enumerate", "--max-action", bound,
                                 *grading)
            assert time.monotonic() - t0 < 1.0
            assert code == EXIT_INPUT
            assert out == ""
            assert "out of reach" in err and "max-action %d" % action_limit in err


def test_enumerate_grading_at_the_limit_is_accepted(capsys, monkeypatch):
    # within its grading limit, enumerate takes any action bound: the scan
    # stops at action grading + 2
    calls = []
    monkeypatch.setattr(kech.cli, "spec_actions",
                        lambda bound, grading: calls.append((bound, grading)) or {})
    limit = kech.cli.ENUMERATE_GRADING_LIMIT
    code, out, err = run(capsys, "--format", "csv", "enumerate",
                         "--max-action", "1e6", "--grading", str(limit))
    assert code == EXIT_OK and err == ""
    assert out == "spec,grading,action\n"
    assert calls == [(1e6, limit)]


def test_out_of_reach_homology_degree_fails_fast(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the homology scan ran")

    monkeypatch.setattr(kech.cli, "betti_numbers", refuse)
    monkeypatch.setattr(kech.homology, "generators_up_to_action", refuse)
    limit = kech.cli.HOMOLOGY_DEGREE_LIMIT
    t0 = time.monotonic()
    code, out, err = run(capsys, "homology", "--max-action", "1000",
                         "--max-degree", str(limit + 1))
    assert time.monotonic() - t0 < 1.0
    assert code == EXIT_INPUT
    assert out == ""
    assert "out of reach" in err and "max-degree %d" % limit in err


def test_cap_toric_bad_domain_exits_input(capsys):
    code, _, err = run(capsys, "cap-toric", "--domain", "cube:1", "--k", "1")
    assert code == EXIT_INPUT
    assert "unknown domain kind" in err


def test_nonfinite_domain_exits_input(capsys):
    for domain in ("ball:inf", "polygon:nan,1;1,0"):
        code, out, err = run(capsys, "cap-toric", "--domain", domain, "--k", "1")
        assert code == EXIT_INPUT, domain
        assert out == "" and "finite" in err


def test_nonfinite_action_bound_exits_input(capsys):
    for command in (["enumerate"], ["d2check"], ["homology", "--max-degree", "2"]):
        for bound in ("inf", "nan", "-inf", "0"):
            code, out, err = run(capsys, *command, "--max-action=" + bound)
            assert code == EXIT_INPUT, (command, bound)
            assert out == "" and "action bound" in err


def test_gromov_rows(capsys):
    code, out, _ = run(capsys, "--format", "csv", "gromov", "--kmax", "2")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].split(",")[:2] == ["k", "generator"]
    assert len(lines) == 4


def test_obstruct_boolean_rendering(capsys):
    code, out, _ = run(capsys, "--format", "csv", "obstruct",
                       "--domain", "ball:1.2",
                       "--lambda-prime", "H-;e(0,-1);e(1,0);e(0,1)^2")
    assert code == EXIT_OK
    assert out.splitlines()[1].endswith(",false")
    code, out, _ = run(capsys, "--format", "json", "obstruct",
                       "--domain", "ball:0.5",
                       "--lambda-prime", "H-;e(0,-1);e(1,0);e(0,1)^2")
    assert json.loads(out)["rows"][0]["obstructed"] is False


def test_unknown_subcommand_exits_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()


def test_missing_required_option_exits_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()


def test_removed_threads_and_cache_dir_flags_exit_usage(capsys):
    for argv in (["--threads", "2"], ["--cache-dir", "x"],
                 ["--tolerance", "1e-9"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["validate", "0"])
        assert exc.value.code == EXIT_USAGE, argv
        assert argv[0] in capsys.readouterr().err, argv


def test_engine_table_names_each_engine_in_its_module():
    for name, module in kech.cli._ENGINES.items():
        defining = importlib.import_module("kech." + module)
        assert getattr(kech.cli, name) is getattr(defining, name), name
    # a name outside the table is no attribute, so getattr's default holds
    assert not hasattr(kech.cli, "betti")
