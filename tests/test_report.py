"""Invariant reports and pair comparison."""

import dataclasses
import functools
import random

import pytest

from conftest import pd_copy, pretzel, random_knot_braid
from knotmut import permgroups, quotients, report
from knotmut.alexander import alexander_pd
from knotmut.bracket import jones
from knotmut.budget import ResourceLimitExceeded
from knotmut.cli import main
from knotmut.colored import colored_jones
from knotmut.diagram import (BraidWord, PlanarDiagram, add_kink,
                             braid_closure, mirror, named_knot,
                             parse_knot_spec, relabel)
from knotmut.presentations import low_index_subgroups
from knotmut.quotients import Cover, epimorphisms
from knotmut.report import (DIFFERENT, DONE, EQUAL, LIMITED, SKIPPED,
                            UNKNOWN, VERDICT_EXCLUDED, VERDICT_INCONCLUSIVE,
                            ReportOptions, compare_pair, compute_report)
from knotmut.tangles import AXES, mutate, random_decomposition
from test_skein2 import MUTANT_SLATE, NAMED_KNOTS

BASIC = ("alexander", "cjones_2", "h1_double_cover", "homfly", "jones",
         "kauffman")


class TestComputeReport:
    def test_basic_items(self):
        rep = compute_report("trefoil", named_knot("trefoil"))
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
        monkeypatch.setattr(report, "homfly", broken)
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
        """The diagrams whose Wirtinger presentations `Cover` reads, as
        it does for the tangle-built pretzels here."""
        built, build = [], quotients.wirtinger_presentation

        def spy(d):
            built.append(d)
            return build(d)
        monkeypatch.setattr(quotients, "wirtinger_presentation", spy)
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


class TestEachInvariantOnce:
    """A report reads jones and alexander off the homfly item, color 2
    as the jones item in q = 1/t and color 3 as the kauffman item at
    a = q^2, z = q - q^-1."""

    @staticmethod
    def limited(d):
        raise ResourceLimitExceeded("node budget exhausted")

    def test_jones_and_alexander_read_the_homfly_item(self, monkeypatch):
        calls = []

        def spy(engine):
            def called(d):
                calls.append(engine.__name__)
                return engine(d)
            return called
        monkeypatch.setattr(report, "jones", spy(report.jones))
        monkeypatch.setattr(report, "alexander_pd", spy(report.alexander_pd))
        for d in (named_knot("6_2"), pretzel(5, 3, -2, -3)):
            items = compute_report("k", d).items
            assert items["homfly"].status == DONE
            assert items["jones"].status == items["alexander"].status == DONE
        assert calls == []

    def test_jones_and_alexander_outlive_limited_homfly(self, monkeypatch):
        monkeypatch.setattr(report, "homfly", self.limited)
        d = pretzel(5, 3, -2, -3)
        items = compute_report("k", d).items
        assert items["homfly"].status == LIMITED
        for key in ("jones", "cjones_2", "alexander"):
            assert items[key].status == DONE, key
        assert items["jones"].value == jones(d)
        assert items["cjones_2"].value == jones(d).invert_var("q")
        assert items["alexander"].value == alexander_pd(d)

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
        # the jones item reads homfly unless homfly is limited too
        monkeypatch.setattr(report, "homfly", self.limited)
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
        monkeypatch.setattr(report, "kauffman_f", self.limited)
        d = pretzel(5, 3, -2, -3)
        items = compute_report("k", d, options=ReportOptions(colors=3)).items
        assert items["kauffman"].status == LIMITED
        assert items["cjones_3"].status == DONE
        assert items["cjones_3"].value == colored_jones(d, 3)

    def test_cjones_3_skipped_on_a_link(self):
        items = compute_report("hopf", named_knot("hopf_plus"),
                               options=ReportOptions(colors=3)).items
        assert items["kauffman"].status == items["cjones_3"].status == SKIPPED


# Without a budget, on 2 cores, each takes at least 6 times the budget:
# cjones_5 of the closure of SLOW_CJONES, a 2-cable of the trefoil, takes
# 1.3-1.8 s; on the 4-generator, 22-letter double branched cover of
# SLOW_QUOTIENTS' closure, the searches onto every built-in target up to
# A7 take 3.4-4.5 s; on the 2-generator, 38-letter cover of SLOW_COVER's
# closure, the index-9 low-index search takes 1.3-1.5 s.
SLOW_CJONES = "braid: 4 | 2 1 3 2 2 1 3 2 2 1 3 2 3"
SLOW_QUOTIENTS = "braid: 5 | -4 1 1 1 -4 3 3 2 -4 2 2 3"
SLOW_COVER = "braid: 5 | -4 1 -2 3 -1 -1 2 -3 -1 -1 -1 2 3 3"


class TestTimeBudget:
    @pytest.mark.parametrize("spec, opts, key", [
        (SLOW_CJONES, ReportOptions(colors=5, budget_seconds=0.05),
         "cjones_5"),
        (SLOW_QUOTIENTS, ReportOptions(quotients=2520, budget_seconds=0.05),
         "quotients"),
        (SLOW_COVER, ReportOptions(lowindex=9, budget_seconds=0.05),
         "lowindex_abelian"),
    ], ids=("cjones_5", "quotients", "lowindex_abelian"))
    def test_item_is_resource_limited(self, spec, opts, key):
        d = parse_knot_spec(spec)
        item = compute_report(d.name, d, opts).items[key]
        assert item.status == LIMITED
        assert item.detail.startswith("time budget exhausted after ")

    # A case shows the time budget at work only while its search runs far
    # past 0.05 s.  Counts, not clocks, check that premise: the search on
    # the live cover must need more than K steps, a third of what it takes
    # in full (A7 onto SLOW_QUOTIENTS' cover tries 888,448 candidate
    # images, 0.7 s; the index-9 search on SLOW_COVER's tries 48,054
    # tables, 1.7 s), so a change that makes a search short fails here.
    def test_quotients_search_outlasts_the_budget(self):
        pres = Cover(parse_knot_spec(SLOW_QUOTIENTS)).presentation
        with pytest.raises(ResourceLimitExceeded, match="^node budget"):
            epimorphisms(pres, permgroups.target("A7"), simplify=False,
                         max_nodes=300_000)

    def test_lowindex_search_outlasts_the_budget(self):
        pres = Cover(parse_knot_spec(SLOW_COVER)).presentation
        with pytest.raises(ResourceLimitExceeded, match="^node budget"):
            low_index_subgroups(pres, 9, max_tables=16_000)


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


# one seeded sample for the diagram-move tests: the named knots through
# 6_1, three random closures of at most 12 crossings on 3 and 4 strands
# (by their seeds, chosen among the first 30 whose Jones polynomial is
# not 1), and a tangle-built pretzel, which has no braid
MOVE_KNOTS = ("trefoil", "figure8", "5_2", "6_1", 2, 17, 27, (3, 3, -2, -3))
MOVE_OPTIONS = ReportOptions(colors=4, quotients=60, lowindex=3)


def _move_knot(knot) -> PlanarDiagram:
    if isinstance(knot, str):
        return named_knot(knot)
    if isinstance(knot, tuple):
        return pretzel(*knot)
    return braid_closure(random_knot_braid(random.Random(knot),
                                           max_letters=12))


def _braid_moves(b: BraidWord, rng: random.Random) -> dict[str, BraidWord]:
    """Braids with the same closure as `b`: two conjugates and the
    positive and negative Markov stabilizations."""
    k = rng.choice((1, -1)) * rng.randint(1, b.strands - 1)
    cut = rng.randrange(len(b.letters))
    return {
        "rotated": BraidWord(b.strands, b.letters[cut:] + b.letters[:cut]),
        f"conjugated by {k}": BraidWord(b.strands, (k, *b.letters, -k)),
        **{f"stabilized {s:+d}": BraidWord(b.strands + 1,
                                           (*b.letters, s * b.strands))
           for s in (1, -1)},
    }


def other_diagrams(d: PlanarDiagram, seed: int) -> dict[str, PlanarDiagram]:
    """Other diagrams of the knot of `d`, by label: kinks of either sign on
    seeded arcs and two stacked kinks, `relabel`, `mirror(mirror(d))`,
    and for a braid closure each braid move both as a closure, whose
    cover takes the braid route, and as its PD code, which takes the
    Wirtinger route."""
    rng = random.Random(seed)
    out = {f"kink {s:+d}": add_kink(d, s, rng.choice(sorted(d.arcs)))
           for s in (1, -1)}
    s = rng.choice((1, -1))
    once = add_kink(d, s, rng.choice(sorted(d.arcs)))
    out[f"two kinks {s:+d}"] = add_kink(once, s, max(once.arcs))
    out["relabel"] = relabel(d)
    out["mirror of mirror"] = mirror(mirror(d))
    if d.braid is not None:
        for label, b in _braid_moves(d.braid, rng).items():
            out[label] = braid_closure(b)
            out[f"{label}, pd"] = pd_copy(braid_closure(b))
    return out


class TestDiagramMoves:
    """ROADMAP 2a's test half: a report item that reads DIFFERENT on two
    diagrams of one knot is not a knot invariant, and would exclude
    mutation falsely."""

    @pytest.mark.parametrize("knot", MOVE_KNOTS, ids=str)
    def test_every_item_equal_across_diagrams_of_one_knot(self, knot):
        d = _move_knot(knot)
        opts = dataclasses.replace(
            MOVE_OPTIONS, whitehead_homfly=len(d.crossings) <= 7)
        ref = compute_report("k", d, options=opts)
        assert all(it.status == DONE for it in ref.items.values())
        assert not ref.items["jones"].value.is_one()
        assert len(ref.items) == 10 + opts.whitehead_homfly
        moves = other_diagrams(d, seed=len(d.crossings))
        assert len(moves) == (5 if d.braid is None else 13)
        for label, other in moves.items():
            res = compare_pair(ref, compute_report(label, other, options=opts))
            # DIFFERENT is an item done on both sides with unequal values
            assert DIFFERENT not in res.per_item.values(), label

    @pytest.mark.xfail(reason="cable_homfly is the blackboard-framed 2-cable, "
                       "whose framing is the writhe (CHANGES, FOUND at "
                       "29dd126); ROADMAP 2a re-frames it", strict=True)
    def test_cable_homfly_equal_on_a_kinked_trefoil(self):
        d = named_knot("trefoil")
        opts = ReportOptions(cable_homfly=True)
        kinked = add_kink(d, 1)
        res = compare_pair(compute_report("k", d, options=opts),
                           compute_report("kinked", kinked, options=opts))
        assert res.per_item["cable_homfly"] == EQUAL


class TestBraidProvenance:
    """A braid closure's cover is read off its braid, which the diagram
    carries; the mirror's cover is that of the mirrored braid."""

    def test_mirror_agrees_on_the_cover_items(self):
        d = named_knot("6_2")
        m = mirror(d)
        assert m.braid == BraidWord(3, (-1, -1, -1, 2, -1, 2))
        opts = ReportOptions(colors=0, quotients=60, lowindex=3)
        left, right = (compute_report(k.name, k, options=opts).items
                       for k in (d, m))
        for key in ("h1_double_cover", "quotients", "lowindex_abelian"):
            assert left[key].status == right[key].status == DONE
            assert left[key].value == right[key].value, key
