"""Invariant reports and pair comparison."""

import dataclasses
import functools
import random
import re
import time
from collections import Counter

import pytest

from conftest import (SLOW_CJONES, SLOW_COVER, SLOW_QUOTIENTS,
                      nontrivial_knot_braid, pd_copy, pretzel,
                      random_knot_braid)
from knotmut import permgroups, quotients, report
from knotmut.alexander import alexander_pd
from knotmut.bracket import jones
from knotmut.budget import Budget, ResourceLimitExceeded, time_limit
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

BASIC = ("alexander", "h1_double_cover", "homfly", "jones", "kauffman")


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

    def test_one_search_per_target(self, monkeypatch):
        # the quotient count and the kernels onto a target share a search
        searched, search = [], quotients.epimorphisms

        def spy(g, group, **kwargs):
            searched.append(group)
            return search(g, group, **kwargs)
        monkeypatch.setattr(quotients, "epimorphisms", spy)
        opts = ReportOptions(quotients=60, kernels=60)
        items = compute_report("k", pretzel(3, 3, -2, -3), options=opts).items
        assert items["quotients"].status == DONE
        assert items["kernel_abelian"].status == DONE
        # only the targets whose abelianization has odd order, as H1 has
        targets = [t for t in permgroups.builtin_targets(60)
                   if t.abelianization_order % 2]
        assert [t.name for t in targets] == ["C3", "C5", "C7", "C9", "C11",
                                             "A4", "C13", "C15", "A5"]
        assert Counter(searched) == Counter(targets)
        assert {name: len(kernels) for name, kernels
                in items["kernel_abelian"].value.items()} == \
            items["quotients"].value

    def test_stopped_search_keeps_nothing(self):
        cover, a5 = Cover(pretzel(3, 3, -2, -3)), permgroups.target("A5")
        with pytest.raises(ResourceLimitExceeded), time_limit(0.0):
            cover.quotients([a5])
        assert cover.quotients([a5]) == {"A5": 12}

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
    """A report reads jones and alexander off the homfly item and color 3
    off the kauffman item at a = q^2, z = q - q^-1."""

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
        for key in ("jones", "alexander"):
            assert items[key].status == DONE, key
        assert items["jones"].value == jones(d)
        assert items["alexander"].value == alexander_pd(d)

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


# the route test's corpus, one case per named knot, slate pretzel and
# seed: a named knot with a kink of either sign, a pretzel and its
# mutant, and from one seed a non-trivial closure and any closure
ROUTE_CASES = ([("named", n) for n in NAMED_KNOTS]
               + [("slate", p) for p in MUTANT_SLATE]
               + [("seed", s) for s in range(40)])
# every row of the table, though only the rows read off another run here
ALL_ROWS = ReportOptions(colors=3, quotients=1, lowindex=1, kernels=1,
                         whitehead_homfly=True, cable_homfly=True)


def _route_diagrams(kind, arg) -> list[PlanarDiagram]:
    if kind == "named":
        d = named_knot(arg)     # the unknot's diagram has no arc to kink
        return [d] + [add_kink(d, s) for s in (1, -1) if d.crossings]
    if kind == "slate":
        return [pretzel(*arg), pretzel(arg[0], arg[1], arg[3], arg[2])]
    # a non-trivial knot and any knot, each plain, mirrored and kinked;
    # the two draws coincide when the first knot drawn is non-trivial
    by_braid = {}
    for draw in (nontrivial_knot_braid, random_knot_braid):
        rng = random.Random(arg)
        d = braid_closure(draw(rng, max_strands=5, max_letters=14))
        by_braid[d.braid] = [d, mirror(d), add_kink(d, rng.choice((1, -1)))]
    return [k for ks in by_braid.values() for k in ks]


class TestRoutes:
    """Each row of the report's table lists routes that compute one
    value, so a report takes whichever can run."""

    @pytest.mark.parametrize("kind, arg", ROUTE_CASES, ids=str)
    def test_every_route_gives_the_same_value(self, kind, arg):
        for d in _route_diagrams(kind, arg):
            table = report.routes(d, ALL_ROWS)
            sources = {}

            def value(route):
                if callable(route):
                    return route()
                source, fn = route
                if source not in sources:
                    sources[source] = value(table[source][0])
                return fn(sources[source])
            # every row ends in an engine, which can always run
            assert all(callable(row[-1]) for row in table.values())
            multi = {k: row for k, row in table.items() if len(row) > 1}
            assert set(multi) == {"jones", "alexander", "cjones_3"}
            for key, row in multi.items():
                first, *others = map(value, row)
                assert all(v == first for v in others), key


class TestTimeBudget:
    @pytest.mark.parametrize("spec, opts, key", [
        (SLOW_CJONES, ReportOptions(colors=5, budget_seconds=0.05),
         "cjones_5"),
        (SLOW_QUOTIENTS, ReportOptions(quotients=2520, budget_seconds=0.05),
         "quotients"),
        (SLOW_COVER, ReportOptions(lowindex=9, budget_seconds=0.05),
         "lowindex_abelian"),
        (SLOW_QUOTIENTS, ReportOptions(kernels=2520, budget_seconds=0.05),
         "kernel_abelian"),
    ], ids=("cjones_5", "quotients", "lowindex_abelian", "kernel_abelian"))
    def test_item_is_resource_limited(self, spec, opts, key):
        d = parse_knot_spec(spec)
        item = compute_report(d.name, d, opts).items[key]
        assert item.status == LIMITED
        assert item.detail.startswith("time budget exhausted after ")

    # A case shows the time budget at work only while its search runs far
    # past 0.05 s.  Counts, not clocks, check that premise: the search on
    # the live cover must need more than K steps, a part of what it takes
    # in full (A7 onto SLOW_QUOTIENTS' cover tries 695,804 candidate
    # images, 0.3 s; the index-9 search on SLOW_COVER's tries 43,003
    # tables, 1.4-1.7 s), so a change that makes a search short fails
    # here.
    def test_quotients_search_outlasts_the_budget(self):
        pres = Cover(parse_knot_spec(SLOW_QUOTIENTS)).presentation
        a7 = permgroups.target("A7")
        with pytest.raises(ResourceLimitExceeded, match="^node budget"):
            epimorphisms(pres, a7, simplify=False, max_nodes=300_000)
        # and a time limit stops it under way, not only on entry: where
        # 0.05 s falls among a report item's fourteen searches depends on
        # the machine, and may be in one's set-up before any candidate
        with pytest.raises(ResourceLimitExceeded, match=r"^time budget "
                           r"exhausted after [1-9]\d* candidate images"), \
                time_limit(0.05):
            epimorphisms(pres, a7, simplify=False)

    def test_lowindex_search_outlasts_the_budget(self):
        pres = Cover(parse_knot_spec(SLOW_COVER)).presentation
        with pytest.raises(ResourceLimitExceeded, match="^node budget"):
            low_index_subgroups(pres, 9, max_tables=16_000)

    def test_targets_are_built_outside_the_item_limit(self, monkeypatch):
        # the group rows' target lists are built before any item's time
        # limit starts, and only for a row that is on
        seen, build = [], report._targets

        def spy(max_order):
            seen.append((max_order, Budget().deadline))
            return build(max_order)
        monkeypatch.setattr(report, "_targets", spy)
        items = compute_report("k", pretzel(3, 3, -2, -3), ReportOptions(
            quotients=60, kernels=60, budget_seconds=100)).items
        assert items["quotients"].status == DONE
        assert items["kernel_abelian"].status == DONE
        assert seen == [(60, None), (60, None)]
        # the polynomial commands read their rows off the default options
        seen.clear()
        report.routes(pretzel(3, 3, -2, -3), ReportOptions())
        assert seen == []

    def test_budget_stops_between_kernels(self, monkeypatch):
        # the 4 kernels onto C3 take 0.8 s slowed down, the searches and
        # the cover 0.01 s
        def slow(*args):
            time.sleep(0.2)
            return kernel_abelianization(*args)

        kernel_abelianization = quotients.kernel_abelianization
        monkeypatch.setattr(quotients, "kernel_abelianization", slow)
        t = time.monotonic()
        item = compute_report("k", pretzel(3, 3, -2, -3), ReportOptions(
            kernels=3, budget_seconds=0.5)).items["kernel_abelian"]
        assert time.monotonic() - t < 1.4
        assert item.status == LIMITED
        assert re.fullmatch(r"time budget exhausted after [1-7] kernels",
                            item.detail)


class TestKernelAbelian:
    def test_mutants_agree(self):
        # mutants have homeomorphic double branched covers, so the same
        # kernels, which the item lists sorted.  Onto Alt(4) there are 3
        # kinds, which the search meets in a different order on each.
        opts = ReportOptions(kernels=60)
        left, right = (compute_report("k", pretzel(*p), options=opts)
                       for p in ((3, 3, -2, -3), (3, 3, -3, -2)))
        assert compare_pair(left, right).per_item["kernel_abelian"] == EQUAL
        kernels = left.items["kernel_abelian"].value
        assert (len(kernels["A4"]), len(kernels["A5"])) == (8, 12)


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
        assert len(res.per_item) == 8
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
MOVE_OPTIONS = ReportOptions(colors=4, quotients=60, lowindex=3, kernels=12)


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
        opts = ReportOptions(colors=2, quotients=60, lowindex=3)
        left, right = (compute_report(k.name, k, options=opts).items
                       for k in (d, m))
        for key in ("h1_double_cover", "quotients", "lowindex_abelian"):
            assert left[key].status == right[key].status == DONE
            assert left[key].value == right[key].value, key
