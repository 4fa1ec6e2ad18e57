"""Invariant reports and pair comparison."""

import functools
import random

import pytest

from conftest import pretzel
from knotmut import frontier, permgroups, quotients, report
from knotmut.budget import ResourceLimitExceeded
from knotmut.cli import main
from knotmut.colored import colored_jones
from knotmut.diagram import (KNOT_BRAIDS, named_knot, parse_braid,
                             parse_knot_spec)
from knotmut.report import (DONE, LIMITED, SKIPPED, UNKNOWN, VERDICT_EXCLUDED,
                            VERDICT_INCONCLUSIVE, ReportOptions, compare_pair,
                            compute_report)
from knotmut.tangles import AXES, mutate, random_decomposition
from test_skein2 import MUTANT_SLATE

BASIC = ("alexander", "cjones_2", "h1_double_cover", "homfly", "jones",
         "kauffman")


class TestComputeReport:
    def test_basic_items(self):
        d = named_knot("trefoil")
        braid = parse_braid(KNOT_BRAIDS["trefoil"])
        rep = compute_report("trefoil", d, braid)
        assert tuple(rep.items) == BASIC
        assert all(item.status == DONE for item in rep.items.values())
        assert rep.items["h1_double_cover"].value == [3]

    def test_link_skips_knot_only_items(self):
        d = named_knot("hopf_plus")
        rep = compute_report("hopf", d)
        assert rep.items["jones"].status == SKIPPED
        assert rep.items["h1_double_cover"].status == SKIPPED

    def test_engine_error_is_not_skipped(self, monkeypatch, capsys):
        # an item of a knot is skipped never; an engine's error stops the run
        def broken(d):
            raise ArithmeticError("engine bug")
        monkeypatch.setattr(report, "alexander_pd", broken)
        with pytest.raises(ArithmeticError, match="^engine bug$"):
            compute_report("trefoil", named_knot("trefoil"))
        assert main(["report", "trefoil"]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: engine bug\n")

    def test_optional_items(self):
        d = named_knot("trefoil")
        opts = ReportOptions(colors=3, quotients=12, lowindex=3,
                             whitehead_homfly=True)
        rep = compute_report("trefoil", d, options=opts)
        for key in ("cjones_3", "quotients", "lowindex_abelian",
                    "whitehead_homfly"):
            assert rep.items[key].status == DONE
        # the cover group is Z/3: exactly the C3 quotient among small targets
        quots = rep.items["quotients"].value
        assert quots["C3"] == 1
        assert all(v == 0 for k, v in quots.items() if k != "C3")

    def test_quotient_budget(self, monkeypatch):
        monkeypatch.setattr(quotients, "epimorphisms", functools.partial(
            quotients.epimorphisms, max_nodes=1))
        opts = ReportOptions(quotients=12)
        item = compute_report("trefoil", named_knot("trefoil"),
                              options=opts).items["quotients"]
        assert item.status == LIMITED
        assert "after 1 candidate images" in item.detail


class TestBuiltOnce:
    """Each knot's cover is built once for all its group items, and the
    built-in targets once per process."""

    @staticmethod
    def cover_spy(monkeypatch) -> list:
        built, build = [], quotients.double_cover_presentation

        def spy(d, braid=None):
            built.append(d)
            return build(d, braid)
        monkeypatch.setattr(quotients, "double_cover_presentation", spy)
        return built

    def test_one_cover_per_knot(self, monkeypatch):
        built = self.cover_spy(monkeypatch)
        d1, d2 = pretzel(3, 3, -2, -3), pretzel(3, 3, -3, -2)
        opts = ReportOptions(quotients=60, lowindex=3)
        res = compare_pair(compute_report("a", d1, options=opts),
                           compute_report("b", d2, options=opts))
        assert res.per_item["quotients"] == "EQUAL"
        assert res.per_item["lowindex_abelian"] == "EQUAL"
        assert built == [d1, d2]

    def test_default_report_builds_no_cover(self, monkeypatch):
        built = self.cover_spy(monkeypatch)
        rep = compute_report("k", pretzel(3, 3, -2, -3))
        assert rep.items["h1_double_cover"].status == DONE
        assert built == []

    def test_builtin_targets_are_shared(self):
        first, second = permgroups.builtin_targets(60), \
            permgroups.builtin_targets(60)
        assert len(first) == len(second) > 0
        assert all(g is h for g, h in zip(first, second))
        # a target named on the command line is the built-in instance
        a5 = permgroups.target("A5")
        assert a5 is permgroups.target("Alt(5)")
        assert any(g is a5 for g in first)


NAMED_KNOTS = tuple(n for n in KNOT_BRAIDS
                    if named_knot(n).component_count() == 1)


class TestEachInvariantOnce:
    """A report computes color 2 as the jones item in q = 1/t and color 3
    as the kauffman item at a = q^2, z = q - q^-1, and plans each
    diagram's contraction once for the bracket and the state sum."""

    @pytest.mark.parametrize("knot", MUTANT_SLATE + NAMED_KNOTS, ids=str)
    def test_cjones_2_is_the_state_sum(self, knot):
        d = pretzel(*knot) if isinstance(knot, tuple) else named_knot(knot)
        item = compute_report("k", d).items["cjones_2"]
        assert item.status == DONE
        assert item.value == colored_jones(d, 2)

    def test_cjones_2_mirrors_limited_jones(self, monkeypatch):
        def limited(d):
            raise ResourceLimitExceeded("time budget exhausted after 1 of "
                                        "3 crossing steps")
        monkeypatch.setattr(report, "jones", limited)
        items = compute_report("trefoil", named_knot("trefoil")).items
        assert items["jones"].status == items["cjones_2"].status == LIMITED
        assert items["cjones_2"].detail == items["jones"].detail != ""
        assert items["cjones_2"].value is None

    def test_cjones_2_mirrors_skipped_jones(self):
        items = compute_report("hopf", named_knot("hopf_plus")).items
        assert items["jones"].status == items["cjones_2"].status == SKIPPED
        assert items["cjones_2"].detail == items["jones"].detail

    @pytest.mark.parametrize("knot", MUTANT_SLATE + NAMED_KNOTS, ids=str)
    def test_cjones_3_is_the_state_sum(self, knot):
        d = pretzel(*knot) if isinstance(knot, tuple) else named_knot(knot)
        item = compute_report("k", d, options=ReportOptions(colors=3)) \
            .items["cjones_3"]
        assert item.status == DONE
        assert item.value == colored_jones(d, 3)

    def test_cjones_3_reads_the_kauffman_item(self, monkeypatch):
        calls = []

        def spy(d, N):
            calls.append(N)
            return colored_jones(d, N)
        monkeypatch.setattr(report, "colored_jones", spy)
        d = named_knot("6_2")
        items = compute_report("6_2", d, options=ReportOptions(colors=4)).items
        assert items["kauffman"].status == items["cjones_3"].status == DONE
        assert calls == [4]

    def test_cjones_3_outlives_limited_kauffman(self, monkeypatch):
        def limited(d):
            raise ResourceLimitExceeded("node budget exhausted")
        monkeypatch.setattr(report, "kauffman_f", limited)
        d = pretzel(5, 3, -2, -3)
        items = compute_report("k", d, options=ReportOptions(colors=3)).items
        assert items["kauffman"].status == LIMITED
        assert items["cjones_3"].status == DONE
        assert items["cjones_3"].value == colored_jones(d, 3)

    def test_cjones_3_skipped_on_a_link(self):
        items = compute_report("hopf", named_knot("hopf_plus"),
                               options=ReportOptions(colors=3)).items
        assert items["kauffman"].status == items["cjones_3"].status == SKIPPED

    def test_one_plan_per_diagram(self, monkeypatch):
        planned, contraction_order = [], frontier.contraction_order

        def spy(crossings):
            planned.append(crossings)
            return contraction_order(crossings)
        monkeypatch.setattr(frontier, "contraction_order", spy)
        frontier.plan.cache_clear()
        d = pretzel(3, 3, -2, -3)
        rep = compute_report("k", d, options=ReportOptions(colors=4))
        assert rep.items["jones"].status == rep.items["cjones_4"].status == DONE
        assert planned == [d.crossings]


# Without a budget, on 2 cores: cjones_5 of the closure of SLOW_CJONES, a
# 2-cable of the trefoil, takes 1.3-1.8 s; on the 3-generator, 48-letter
# double branched cover of SLOW_COVER's closure, the searches onto every
# built-in target up to A7 take 0.9 s and the index-6 low-index search
# 0.9-1.5 s.
SLOW_CJONES = "braid: 4 | 2 1 3 2 2 1 3 2 2 1 3 2 3"
SLOW_COVER = "braid: 5 | -4 1 -2 3 -1 -1 2 -3 -1 -1 -1 2 3 3"


class TestTimeBudget:
    @pytest.mark.parametrize("spec, opts, key", [
        (SLOW_CJONES, ReportOptions(colors=5, budget_seconds=0.05),
         "cjones_5"),
        (SLOW_COVER, ReportOptions(quotients=2520, budget_seconds=0.05),
         "quotients"),
        (SLOW_COVER, ReportOptions(lowindex=6, budget_seconds=0.05),
         "lowindex_abelian"),
    ], ids=("cjones_5", "quotients", "lowindex_abelian"))
    def test_item_is_resource_limited(self, spec, opts, key):
        name, d, braid = parse_knot_spec(spec)
        item = compute_report(name, d, braid, opts).items[key]
        assert item.status == LIMITED
        assert item.detail.startswith("time budget exhausted after ")


class TestComparePair:
    def test_mirror_pair_excluded(self):
        r1 = compute_report("k", named_knot("trefoil"))
        r2 = compute_report("m", named_knot("trefoil_mirror"))
        res = compare_pair(r1, r2)
        assert res.per_item["jones"] == "DIFFERENT"
        assert res.verdict == VERDICT_EXCLUDED

    def test_self_pair_inconclusive(self):
        r = compute_report("k", named_knot("figure8"))
        res = compare_pair(r, r)
        assert set(res.per_item.values()) == {"EQUAL"}
        assert res.verdict == VERDICT_INCONCLUSIVE

    def test_mutant_pair_inconclusive(self):
        td = random_decomposition(random.Random(11), max_crossings=10)
        d1 = td.glue("a")
        d2 = mutate(td, AXES[0])
        res = compare_pair(compute_report("a", d1), compute_report("b", d2))
        assert res.verdict == VERDICT_INCONCLUSIVE
        assert all(v == "EQUAL" for v in res.per_item.values())

    def test_pretzel_mutants_inconclusive(self):
        # P(3,3,-2,-3) and its mutant P(3,3,-3,-2): distinct diagrams of a
        # non-trivial knot, which every item fails to tell apart
        d1, d2 = pretzel(3, 3, -2, -3), pretzel(3, 3, -3, -2)
        assert d1.crossings != d2.crossings
        opts = ReportOptions(colors=3, quotients=12, lowindex=3)
        r1 = compute_report("a", d1, options=opts)
        assert not r1.items["jones"].value.is_one()
        res = compare_pair(r1, compute_report("b", d2, options=opts))
        assert len(res.per_item) == 9
        assert set(res.per_item.values()) == {"EQUAL"}
        assert res.verdict == VERDICT_INCONCLUSIVE

    @pytest.mark.parametrize("side", ("left", "right"))
    def test_unfinished_item_never_excludes(self, monkeypatch, side):
        # the limited item has no value, which differs from the done one's
        done = compute_report("k", named_knot("trefoil"),
                              options=ReportOptions(quotients=12))
        monkeypatch.setattr(quotients, "epimorphisms", functools.partial(
            quotients.epimorphisms, max_nodes=1))
        limited = compute_report("k", named_knot("trefoil"),
                                 options=ReportOptions(colors=3, quotients=12))
        assert limited.items["quotients"].status == LIMITED
        pair = (done, limited) if side == "left" else (limited, done)
        res = compare_pair(*pair)
        assert res.per_item["quotients"] == res.per_item["cjones_3"] == UNKNOWN
        assert res.verdict == VERDICT_INCONCLUSIVE
