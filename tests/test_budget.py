"""The one budget of the exponential searches."""

import inspect
import itertools
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import knotmut
from knotmut import (budget, bracket, colored, permgroups, presentations,
                     quotients, report, skein2)
from knotmut.budget import Budget, ResourceLimitExceeded, time_limit
from knotmut.diagram import named_knot
from conftest import PACKAGE, pretzel, public_callables


class TestBudget:
    def test_node_cap_allows_exactly_max_nodes_steps(self):
        found = []
        b = Budget(max_nodes=3, unit="tables tried",
                   progress=lambda: f"{len(found)} subgroups found")
        for _ in range(3):
            b.tick()
        found.append(None)
        with pytest.raises(ResourceLimitExceeded, match=(
                r"^node budget exhausted after 3 tables tried, "
                r"1 subgroups found$")):
            b.tick()

    def test_deadline(self):
        with time_limit(0.0):
            b = Budget()
        time.sleep(0.01)
        assert b.deadline < time.monotonic()
        with pytest.raises(ResourceLimitExceeded,
                           match=r"^time budget exhausted after 0 steps$"):
            b.tick()

    def test_unbounded(self):
        b = Budget()
        for _ in range(1000):
            b.tick()
        assert b.nodes == 1000
        assert b.deadline is None

    def test_batch_counts_its_steps(self):
        b = Budget(max_nodes=10)
        b.tick()
        b.tick_batch(4)
        b.tick_batch(0)
        assert b.nodes == 5
        b.tick_batch(5)   # reaches max_nodes exactly, as 5 ticks would
        assert b.nodes == 10
        with pytest.raises(ResourceLimitExceeded,
                           match=r"^node budget exhausted after 10 steps$"):
            b.tick()

    def test_batch_past_the_cap_raises_before_it_starts(self):
        found = []
        b = Budget(max_nodes=10, unit="candidate images",
                   progress=lambda: f"{len(found)} kernels found")
        b.tick_batch(6)
        with pytest.raises(ResourceLimitExceeded, match=(
                r"^node budget exhausted after 6 candidate images, "
                r"0 kernels found$")):
            b.tick_batch(5)
        assert b.nodes == 6
        b.tick_batch(4)
        assert b.nodes == 10

    def test_batch_fractional_cap(self):
        # 3 single steps pass a cap of 2.5, and so does a batch of 3
        b = Budget(max_nodes=2.5)
        b.tick_batch(3)
        with pytest.raises(ResourceLimitExceeded,
                           match=r"^node budget exhausted after 3 steps$"):
            b.tick_batch(1)

    def test_batch_deadline(self):
        with time_limit(0.0):
            b = Budget()
        time.sleep(0.001)
        with pytest.raises(ResourceLimitExceeded,
                           match=r"^time budget exhausted after 0 steps$"):
            b.tick_batch(1)

    @pytest.mark.parametrize("kwargs", [{"seconds": float("nan")},
                                        {"max_nodes": -1},
                                        {"max_nodes": float("nan")}])
    def test_budget_that_never_trips_is_refused(self, kwargs):
        with pytest.raises(ValueError, match="budget must be"):
            if "seconds" in kwargs:
                with time_limit(kwargs["seconds"]):
                    pass
            else:
                Budget(**kwargs)

    def test_engines_refuse_a_negative_node_budget(self):
        d = named_knot("6_2")
        for engine in (skein2.homfly, skein2.kauffman_f):
            with pytest.raises(ValueError, match="node budget must be at "
                                                 "least 0, got -1"):
                engine(d, max_nodes=-1)

    def test_least_budgets_trip_at_once(self):
        with time_limit(0.0):
            timed = Budget()
        for b in (timed, Budget(max_nodes=0)):
            time.sleep(0.001)
            with pytest.raises(ResourceLimitExceeded, match=r"after 0 steps"):
                b.tick()

    def test_fractional_node_cap_trips(self):
        b = Budget(max_nodes=2.5)
        for _ in range(3):
            b.tick()
        with pytest.raises(ResourceLimitExceeded,
                           match=r"^node budget exhausted after 3 steps$"):
            b.tick()

    @pytest.mark.parametrize("engine", [
        bracket.kauffman_bracket,
        lambda d: colored.colored_jones(d, 3)])
    def test_widening_stops_at_the_deadline(self, monkeypatch, engine):
        # digits that never fit: the width doubles until the time is up
        calls = []

        def refuse(values, width, terms):
            calls.append(None)
            assert len(calls) < 10 ** 6, "the widening outlived its deadline"
            return False

        monkeypatch.setattr(bracket, "fits", refuse)
        monkeypatch.setattr(colored, "fits", refuse)
        with pytest.raises(ResourceLimitExceeded,
                           match=r"^time budget exhausted "), time_limit(0.05):
            engine(named_knot("6_2"))

    def test_one_exception_class(self):
        assert skein2.ResourceLimitExceeded is ResourceLimitExceeded

    def test_group_modules_do_not_import_skein_code(self):
        src = os.path.dirname(os.path.dirname(knotmut.__file__))
        code = ("import knotmut.quotients, sys; "
                "assert 'knotmut.skein2' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=dict(os.environ, PYTHONPATH=src))


# the cover of P(3,3,-2,-3) has H1 of order 9, which does not rule out
# Alt(5)
COVER = quotients.Cover(pretzel(3, 3, -2, -3))
ALT5 = permgroups.alternating(5)
KNOT = named_knot("6_2")
ENTRY_POINTS = {
    "kauffman_bracket": lambda: bracket.kauffman_bracket(KNOT),
    "jones": lambda: bracket.jones(KNOT),
    "colored_jones": lambda: colored.colored_jones(KNOT, 4),
    "colored_jones_cabled": lambda: colored.colored_jones_cabled(KNOT, 3),
    "homfly": lambda: skein2.homfly(KNOT),
    "kauffman_f": lambda: skein2.kauffman_f(KNOT),
    "p_whitehead_plus": lambda: skein2.p_whitehead_plus(KNOT),
    "homfly_2cable": lambda: skein2.homfly_2cable(KNOT),
    "epimorphisms": lambda: quotients.epimorphisms(
        COVER.presentation, ALT5, simplify=False),
    "low_index_subgroups": lambda: presentations.low_index_subgroups(
        COVER.presentation, 3),
    "Cover.quotients": lambda: COVER.quotients([ALT5]),
    "Cover.kernel_abelianizations": lambda: COVER.kernel_abelianizations(ALT5),
    "Cover.lowindex": lambda: COVER.lowindex(3),
}


class TestTimeLimit:
    @pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
    def test_every_search_stops_at_the_deadline(self, call):
        with pytest.raises(ResourceLimitExceeded,
                           match=r"^time budget exhausted"), time_limit(0.0):
            call()

    def test_nested_limit_never_extends_the_outer(self, monkeypatch):
        monkeypatch.setattr(budget, "time", SimpleNamespace(
            monotonic=lambda: 100.0))
        with time_limit(5):
            assert Budget().deadline == 105
            for seconds in (10, None, 5):
                with time_limit(seconds):
                    assert Budget().deadline == 105
            with time_limit(1):
                assert Budget().deadline == 101
            assert Budget().deadline == 105
        assert Budget().deadline is None

    def test_each_report_item_reads_its_own_deadline(self, monkeypatch):
        # a clock one second later at every reading: each item's deadline
        # is the budget from its own start, shared by all its searches
        clock = itertools.count()
        monkeypatch.setattr(budget, "time", SimpleNamespace(
            monotonic=lambda: next(clock)))
        deadlines, items = [], []
        init = Budget.__init__

        def made(self, *args, **kwargs):
            init(self, *args, **kwargs)
            deadlines[-1].append(self.deadline)

        def item_limit(seconds):
            deadlines.append([])
            items.append(seconds)
            return time_limit(seconds)

        monkeypatch.setattr(Budget, "__init__", made)
        monkeypatch.setattr(report, "time_limit", item_limit)
        opts = report.ReportOptions(colors=4, quotients=12, lowindex=2,
                                    cable_homfly=True, budget_seconds=10 ** 9)
        rep = report.compute_report("trefoil", named_knot("trefoil"),
                                    options=opts)
        assert all(it.status == report.DONE for it in rep.items.values())
        assert set(items) == {10 ** 9}
        searched = [set(ds) for ds in deadlines if ds]
        # homfly, kauffman, cjones_4, cable_homfly, quotients (one search
        # per target) and lowindex_abelian; jones is read off homfly
        assert len(searched) == 6
        assert all(len(ds) == 1 for ds in searched)
        firsts = [min(ds) for ds in searched]
        assert firsts == sorted(set(firsts))


class TestOneDeadline:
    """The time limit is set by `time_limit` alone, never passed down."""

    def test_no_budget_seconds_parameter(self):
        found = [name for name, fn in public_callables()
                 if "budget_seconds" in inspect.signature(fn).parameters]
        assert found == []
        assert len(list(public_callables())) > 100

    def test_only_the_budget_reads_the_clock(self):
        readers = [p.name for p in sorted(PACKAGE.glob("*.py"))
                   if "monotonic" in p.read_text()]
        assert readers == ["budget.py"]
