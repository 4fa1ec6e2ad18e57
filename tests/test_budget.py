"""The one budget of the exponential searches."""

import os
import subprocess
import sys
import time

import pytest

import knotmut
from knotmut import bracket, colored, skein2
from knotmut.budget import Budget, ResourceLimitExceeded
from knotmut.diagram import named_knot


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
        b = Budget(seconds=0.0)
        time.sleep(0.01)
        assert b.remaining() < 0
        with pytest.raises(ResourceLimitExceeded,
                           match=r"^time budget exhausted after 0 steps$"):
            b.tick()

    def test_unbounded(self):
        b = Budget()
        for _ in range(1000):
            b.tick()
        assert b.nodes == 1000
        assert b.remaining() is None

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
        b = Budget(seconds=0.0)
        time.sleep(0.001)
        with pytest.raises(ResourceLimitExceeded,
                           match=r"^time budget exhausted after 0 steps$"):
            b.tick_batch(1)

    @pytest.mark.parametrize("kwargs", [{"seconds": float("nan")},
                                        {"max_nodes": -1},
                                        {"max_nodes": float("nan")}])
    def test_budget_that_never_trips_is_refused(self, kwargs):
        with pytest.raises(ValueError, match="budget must be"):
            Budget(**kwargs)

    def test_engines_refuse_a_negative_node_budget(self):
        d = named_knot("6_2")
        for engine in (skein2.homfly, skein2.kauffman_f):
            with pytest.raises(ValueError, match="node budget must be at "
                                                 "least 0, got -1"):
                engine(d, max_nodes=-1)

    def test_least_budgets_trip_at_once(self):
        for b in (Budget(seconds=0.0), Budget(max_nodes=0)):
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
        lambda d, budget_seconds: colored.colored_jones(d, 3, budget_seconds)])
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
                           match=r"^time budget exhausted "):
            engine(named_knot("6_2"), budget_seconds=0.05)

    def test_one_exception_class(self):
        assert skein2.ResourceLimitExceeded is ResourceLimitExceeded

    def test_group_modules_do_not_import_skein_code(self):
        src = os.path.dirname(os.path.dirname(knotmut.__file__))
        code = ("import knotmut.quotients, sys; "
                "assert 'knotmut.skein2' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=dict(os.environ, PYTHONPATH=src))
