"""Command-line interface."""

import json
import os
import re
import shlex
import time

import pytest

from conftest import SLOW_CJONES, SLOW_COVER, SLOW_QUOTIENTS
from knotmut import cli, report
from knotmut.cli import format_table1, main
from knotmut.diagram import (braid_closure, named_knot, parse_braid,
                             parse_knot_spec)
from knotmut.laurent import LaurentPoly2
from knotmut.permgroups import builtin_targets, target
from knotmut.satellites import cable
from knotmut.skein2 import homfly, kauffman_f


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPolynomialCommands:
    def test_jones(self, capsys):
        code, out, _ = run(capsys, "jones", "trefoil_mirror")
        assert code == 0
        assert out.strip() == "trefoil_mirror: -t^-4 + t^-3 + t^-1"

    def test_alexander(self, capsys):
        code, out, _ = run(capsys, "alexander", "figure8")
        assert code == 0
        assert "-t^-1 + 3 - t" in out

    def test_homfly_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "homfly", "trefoil")
        assert code == 0
        doc = json.loads(out)
        assert doc["name"] == "trefoil"
        assert sorted(doc["polynomial"]["terms"]) == \
            [[-4, 0, -1], [-2, 0, -2], [-2, 2, 1]]

    @pytest.mark.parametrize("argv,variable,terms", [
        (["jones"], "t", "[[1, 1], [3, 1], [4, -1]]"),
        (["alexander"], "t", "[[-1, 1], [0, -1], [1, 1]]"),
        (["cjones", "--color", "3"], "q", "[[-11, 1], [-10, -1], [-9, -1], "
         "[-8, 1], [-7, -1], [-5, 1], [-2, 1]]"),
    ], ids=("jones", "alexander", "cjones"))
    def test_one_variable_json(self, capsys, argv, variable, terms):
        code, out, _ = run(capsys, "--format", "json", *argv, "trefoil")
        assert code == 0
        assert out == ('{"name": "trefoil", "polynomial": {"terms": '
                       f'{terms}, "variable": "{variable}"}}}}\n')

    def test_kauffman(self, capsys):
        code, out, _ = run(capsys, "kauffman", "unknot")
        assert code == 0
        assert out.strip().endswith("1")

    def test_cjones(self, capsys):
        code, out, _ = run(capsys, "cjones", "--color", "1", "figure8")
        assert code == 0
        assert out.strip() == "figure8: 1"

    def test_cjones_link_fails(self, capsys):
        code, out, err = run(capsys, "cjones", "--color", "2", "hopf_plus")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_braid_literal(self, capsys):
        code, out, _ = run(capsys, "jones", "braid: 2 | -1 -1 -1")
        assert code == 0
        assert "-t^-4 + t^-3 + t^-1" in out

    @pytest.mark.parametrize("cmd,strands", [
        ("homfly", -1), ("kauffman", 0), ("jones", 0)])
    def test_braid_without_strands(self, capsys, cmd, strands):
        code, out, err = run(capsys, cmd, f"braid: {strands} |")
        assert (code, out) == (1, "")
        assert err == f"error: a braid needs at least 1 strand, not {strands}\n"

    def test_unknown_knot_fails(self, capsys):
        code, _, err = run(capsys, "jones", "no_such_knot")
        assert code == 1
        assert "error" in err

    # each polynomial command's engine, as `report` names it
    ENGINES = {"jones": "jones", "alexander": "alexander_pd",
               "homfly": "homfly", "kauffman": "kauffman_f"}

    @pytest.mark.parametrize("cmd", ENGINES)
    def test_report_engine(self, capsys, monkeypatch, cmd):
        calls = []
        for name in self.ENGINES.values():
            def spy(d, name=name, engine=getattr(report, name)):
                calls.append(name)
                return engine(d)
            monkeypatch.setattr(report, name, spy)
        code, out, _ = run(capsys, cmd, "trefoil")
        assert code == 0 and out.startswith("trefoil: ")
        assert calls == [self.ENGINES[cmd]]


# every subcommand that takes one knot, on a two-component link
LINK_SWEEP = (
    ("jones",), ("alexander",), ("homfly",), ("kauffman",),
    ("cjones", "--color", "3"), ("cable",), ("double",),
    ("cover", "group"), ("report",),
)
# the error each of them must name, where the sweep pins it
LINK_ERRORS = {
    ("jones",): "error: hopf_plus has 2 components, so its Jones polynomial "
                "has half-integer powers of t\n",
}


class TestLinkSweep:
    @pytest.mark.parametrize("argv", LINK_SWEEP, ids=" ".join)
    def test_link_input_ends_cleanly(self, capsys, argv):
        code, out, err = run(capsys, *argv, "hopf_plus")
        assert code in (0, 1)
        assert "Traceback" not in err
        if code == 1:
            assert out == ""
            assert err.startswith("error:")
            assert err.count("\n") == 1
        if argv in LINK_ERRORS:
            assert (code, err) == (1, LINK_ERRORS[argv])

    def test_jones_of_odd_link(self, capsys):
        # three components: the Jones polynomial has integer exponents
        code, out, _ = run(capsys, "jones", "braid: 3 | 1 1 2 2")
        assert code == 0
        assert out.strip() == "t + 2t^3 + t^5"


class TestDiagramCommands:
    def test_cable_emits_parseable_pd(self, capsys):
        code, out, _ = run(capsys, "cable", "--strands", "2",
                           "--twists", "-1", "trefoil")
        assert code == 0
        d = parse_knot_spec(out.strip())
        assert d.braid is None
        assert len(d.crossings) == 13

    def test_double(self, capsys):
        code, out, _ = run(capsys, "double", "figure8")
        assert code == 0
        d = parse_knot_spec(out.strip())
        d.validate()
        assert d.component_count() == 1

    @pytest.mark.parametrize("argv", (
        ("cable", "--strands", "2", "unknot"),
        ("mutate", "--inner", "1", "--outer", "0")), ids=" ".join)
    def test_free_loops_round_trip(self, capsys, monkeypatch, argv):
        # every printed line parses back to the diagram it was printed from
        emitted = []
        emit = cli._emit_pd
        monkeypatch.setattr(cli, "_emit_pd",
                            lambda d: emitted.append(d) or emit(d))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == len(emitted) >= 1
        for line, d in zip(lines, emitted):
            back = parse_knot_spec(line)
            assert d.free_loops >= 1
            assert back.free_loops == d.free_loops
            assert back.component_count() == d.component_count() == 2

    def test_mutate(self, capsys):
        code, out, _ = run(capsys, "mutate", "--inner", "1,1",
                           "--outer", "2", "--axis", "vertical")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            d = parse_knot_spec(line)
            d.validate()


class TestCoverCommands:
    def test_group(self, capsys):
        code, out, _ = run(capsys, "cover", "group", "trefoil")
        assert code == 0
        assert out.startswith("generators: 1")

    def test_link_fails_on_both_routes(self, capsys):
        # the relator x1^2 defines the cover only when every meridian is
        # conjugate to x1, so the Hopf link is refused as a braid and as
        # a PD code alike
        hopf = parse_braid("2 | 1 1")
        errs = []
        for spec in ("braid: 2 | 1 1", f"pd: {braid_closure(hopf)}"):
            code, out, err = run(capsys, "cover", "group", spec)
            assert code == 1
            assert out == ""
            errs.append(err)
        assert errs[0] == errs[1] == "error: diagram must be a knot\n"

    @pytest.mark.parametrize("action", ["abelian", "lowindex", "quotients",
                                        "kernel-abelian"])
    def test_searches_are_report_items(self, capsys, action):
        with pytest.raises(SystemExit) as exc:
            main(["cover", action, "trefoil"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    # Target names were parsed by `cover quotients --target`; the checks
    # now call permgroups.target, which gave that flag its messages.
    @pytest.mark.parametrize("group", builtin_targets(2520),
                             ids=lambda g: g.name)
    def test_printed_target_names(self, group):
        # the names that `report --quotients` prints are valid targets
        assert target(group.name).order == group.order

    @pytest.mark.parametrize("name,order", [("Alt(5)", 60), ("Sym(4)", 24),
                                            ("PSL(2,7)", 168)])
    def test_long_target_names(self, name, order):
        assert target(name).order == order

    @pytest.mark.parametrize("name", ["A", "X3", "Alt(5", "PSL(3,7)"])
    def test_unknown_target(self, name):
        with pytest.raises(ValueError) as exc:
            target(name)
        assert str(exc.value) == f"unknown target group {name!r}"

    @pytest.mark.parametrize("name", ["D1", "D2", "C0", "S0", "Alt(0)",
                                      "PSL(2,2)", "PSL(2,4)", "PSL(2,9)"])
    def test_target_out_of_range(self, name):
        # D1 and D2 were built as groups of order 1 and 2, PSL(2,4) as one
        # of order 265, and PSL(2,9) ended in a traceback
        with pytest.raises(ValueError) as exc:
            target(name)
        assert re.fullmatch(r"PSL\(2,\d\): q must be an odd prime|"
                            r"[CDAS]\d: n must be at least [13]",
                            str(exc.value))


class TestBudgetFlag:
    """A time budget that is not a finite number of seconds, at least 0,
    is a usage error."""

    @pytest.mark.parametrize("value", ["-1", "-0.5", "nan", "inf"])
    def test_refused(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["--budget-seconds", value, "homfly", "trefoil"])
        assert exc.value.code == 2
        assert "argument --budget-seconds: must be a finite number of " \
            "seconds" in capsys.readouterr().err

    def test_zero_runs_out(self, capsys):
        code, _, err = run(capsys, "--budget-seconds", "0", "homfly",
                           "figure8")
        assert code == 2
        assert err.startswith("resource limit: time budget exhausted")

    def test_finite_accepted(self, capsys):
        code, out, _ = run(capsys, "--budget-seconds", "30", "homfly",
                           "trefoil")
        assert code == 0 and out.startswith("trefoil: ")


class TestCountFlags:
    """Counts below their least meaningful value are usage errors."""

    @pytest.mark.parametrize("argv", [
        ("report", "--colors", "-3", "trefoil"),
        ("report", "--colors", "1", "trefoil"),
        ("report", "--quotients", "-5", "trefoil"),
        ("report", "--lowindex", "-2", "trefoil"),
        ("compare", "--quotients", "-1", "trefoil", "trefoil"),
        ("report", "--kernels", "-1", "trefoil"),
        ("compare", "--kernels", "-2", "trefoil", "trefoil"),
        ("cjones", "--color", "0", "trefoil"),
        ("cjones", "--color", "-2", "trefoil"),
        ("cable", "--strands", "0", "trefoil"),
        ("cable", "--strands", "-1", "trefoil"),
    ])
    def test_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        flag = next(a for a in argv if a.startswith("--"))
        assert f"argument {flag}: must be at least " in capsys.readouterr().err

    def test_least_values_accepted(self, capsys):
        code, out, err = run(capsys, "report", "--quotients", "0",
                             "--colors", "2", "--lowindex", "0",
                             "--kernels", "0", "trefoil")
        assert code == 0, err
        assert "quotients" not in out and "cjones" not in out
        assert "lowindex" not in out and "kernel" not in out
        code, out, _ = run(capsys, "report", "--lowindex", "1", "trefoil")
        assert code == 0
        assert "lowindex_abelian: [(1, [3])]" in out.splitlines()


# A command stops with code 2; a report item reads resource-limited and
# the report goes on.  test_report's TestTimeBudget checks the premise
# that each input runs far past the budget.
SLOW_COMMANDS = (
    (("report", "--quotients", "2520", SLOW_QUOTIENTS), "quotients"),
    (("cjones", "--color", "5", SLOW_CJONES), None),
    (("report", "--lowindex", "9", SLOW_COVER), "lowindex_abelian"),
)


class TestTimeBudget:
    @pytest.mark.parametrize("argv,item", SLOW_COMMANDS,
                             ids=("quotients", "cjones", "lowindex"))
    def test_budget_bounds_the_search(self, capsys, argv, item):
        t = time.monotonic()
        code, out, err = run(capsys, "--budget-seconds", "0.05", *argv)
        assert time.monotonic() - t < 2
        limited = "time budget exhausted after "
        if item is None:
            assert code == 2
            assert err.startswith(f"resource limit: {limited}")
        else:
            assert code == 0, err
            assert any(line.startswith(f"{item}: [resource-limited: "
                                       f"{limited}")
                       for line in out.splitlines())


class TestCompare:
    def test_mirror_pair(self, capsys):
        code, out, _ = run(capsys, "compare", "trefoil", "trefoil_mirror")
        assert code == 0
        assert "jones: DIFFERENT" in out
        assert "verdict: mutation excluded" in out

    def test_same_knot(self, capsys):
        code, out, _ = run(capsys, "compare", "figure8", "figure8")
        assert code == 0
        assert "verdict: consistent with mutation (inconclusive)" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "compare",
                           "trefoil", "trefoil")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"].startswith("consistent")


class TestComparePairs:
    """`compare` pairs up the knots of all its arguments in order."""

    PAIR = ("name=trefoil braid: 2 | 1 1 1\n"
            "name=figure8 braid: 3 | 1 -2 1 -2\n")

    def test_two_knots(self, capsys, tmp_path):
        spec = tmp_path / "pair.txt"
        spec.write_text(self.PAIR)
        code, out, err = run(capsys, "compare", str(spec), "--quotients", "12")
        assert code == 0, err
        assert out.startswith("== trefoil vs figure8 ==\n")
        assert "\nquotients: DIFFERENT\n" in out
        assert out.endswith("verdict: mutation excluded\n")

    def test_paper_file_has_no_diagrams(self, capsys):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                            "paper_knots.txt")
        code, out, err = run(capsys, "compare", path)
        assert (code, out) == (1, "")
        assert err == "error: compare needs knots in pairs, got 0\n"

    def test_three_knot_file(self, capsys, tmp_path):
        spec = tmp_path / "three.txt"
        spec.write_text(self.PAIR + "name=c 5_1\n")
        code, out, err = run(capsys, "compare", str(spec))
        assert (code, out) == (1, "")
        assert err == "error: compare needs knots in pairs, got 3\n"
        # a fourth knot from the next argument completes the second pair
        code, out, _ = run(capsys, "--format", "json", "compare", str(spec),
                           "trefoil")
        assert code == 0
        docs = [json.loads(line) for line in out.splitlines()]
        assert [(d["left"]["name"], d["right"]["name"]) for d in docs] == \
            [("trefoil", "figure8"), ("c", "trefoil")]
        assert [d["verdict"] for d in docs] == ["mutation excluded"] * 2


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme_commands() -> list[str]:
    """The lines of README's `## Command line` block, without `knotmut`."""
    with open(README) as f:
        block = f.read().split("## Command line", 1)[1].split("```", 2)[1]
    return [line.removeprefix("knotmut ") for line in block.splitlines()
            if line.startswith("knotmut ")]


class TestReadmeCommands:
    @pytest.mark.parametrize("line", _readme_commands())
    def test_runs(self, capsys, monkeypatch, tmp_path, line):
        # pairs.txt, the one file the block names, holds one pair
        (tmp_path / "pairs.txt").write_text(TestComparePairs.PAIR)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *shlex.split(line))
        assert (code, err) == (0, "")
        assert out


class TestItemElapsed:
    """Every report item in the JSON output says how long it took."""

    @staticmethod
    def check(items):
        assert items
        for item in items.values():
            assert isinstance(item["elapsed"], float) and item["elapsed"] >= 0

    def test_report_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "report", "figure8")
        assert code == 0
        self.check(json.loads(out)["items"])

    def test_compare_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "compare",
                           "trefoil", "hopf_plus")
        assert code == 0
        doc = json.loads(out)
        self.check(doc["left"]["items"])
        self.check(doc["right"]["items"])


class TestReportItems:
    def test_cable_homfly(self, capsys):
        code, out, _ = run(capsys, "report", "--cable-p", "trefoil")
        assert code == 0
        want = homfly(cable(named_knot("trefoil"), 2, -1))
        assert f"cable_homfly: {want}" in out.splitlines()

    def test_kernel_abelian_json(self, capsys):
        # the cover group Z/3 has one kernel onto C3, the trivial group,
        # and no epimorphism onto C5, the other target of order at most 6
        # whose abelianization has odd order
        code, out, _ = run(capsys, "--format", "json", "report",
                           "--kernels", "6", "trefoil")
        assert code == 0
        item = json.loads(out)["items"]["kernel_abelian"]
        assert item["status"] == "done"
        assert item["value"] == {"C3": [[]], "C5": []}

    def test_quotients_json(self, capsys):
        # the cover group Z/3 has one kernel onto C3 and none onto C5
        code, out, _ = run(capsys, "--format", "json", "report",
                           "--quotients", "6", "trefoil")
        assert code == 0
        item = json.loads(out)["items"]["quotients"]
        assert item["status"] == "done"
        assert item["value"] == {"C3": 1, "C5": 0}

    def test_table1(self, capsys):
        code, out, _ = run(capsys, "--format", "table1", "report", "trefoil")
        assert code == 0
        assert format_table1("homfly", homfly(named_knot("trefoil"))) in out
        assert "jones: t + t^3 - t^4" in out.splitlines()


class TestPlanarInput:
    def test_virtual_code_refused(self, capsys):
        code, out, err = run(capsys, "jones", "pd: X(2,1,3,0) X(3,2,0,1)")
        assert (code, out) == (1, "")
        assert err.startswith("error: the diagram has 2 faces, where a "
                              "planar diagram with 2 crossings has 4")


class TestFileInput:
    def test_knot_file(self, capsys, tmp_path):
        path = tmp_path / "knots.txt"
        path.write_text("# comment\n"
                        "name=a braid: 2 | 1 1 1\n"
                        "\n"
                        "name=b braid: 3 | 1 -2 1 -2\n")
        code, out, _ = run(capsys, "alexander", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("a:")
        assert lines[1].startswith("b:")


class TestTable1Format:
    def test_grid_layout(self):
        p = LaurentPoly2({(0, 0): 1, (2, 0): -2, (0, 2): 3})
        text = format_table1("k", p)
        lines = text.splitlines()
        assert lines[0] == "k:"
        assert lines[1] == "0 2"
        assert lines[2].split() == ["0", "2", "1", "-2"]
        assert lines[3].split() == ["0", "0", "3"]

    def test_cli_table1(self, capsys):
        code, out, _ = run(capsys, "--format", "table1", "homfly", "trefoil")
        assert code == 0
        assert out.startswith("trefoil:")

    def test_homfly_steps_by_two(self):
        # every exponent of l and of m is even: rows and cells step by 2
        text = format_table1("trefoil", homfly(named_knot("trefoil")))
        assert text.splitlines() == [
            "trefoil:",
            "0 2",
            "  -4   -2     -1     -2",
            "  -2   -2             1"]

    def test_kauffman_steps_by_one(self):
        # -a^-5 z - a^-4 - a^-4 z^2 + a^-3 z + 2a^-2 + a^-2 z^2 mixes the
        # parities of both variables: a row for z^1, a cell per a-degree
        text = format_table1("trefoil", kauffman_f(named_knot("trefoil")))
        assert text.splitlines() == [
            "trefoil:",
            "0 2",
            "  -4   -2            -1      0      2",
            "  -5   -3     -1      0      1",
            "  -4   -2            -1      0      1"]
